"""Total, dynamical and geometric phases along local unitary evolutions.

The total phase is the continuously unwrapped argument of the state overlap,
the dynamical phase is the Simpson quadrature of the instantaneous frequency
``-i <psi|dpsi/dt>``, and the geometric phase is their difference. Cyclic
points are overlap-magnitude returns to one; on them only the fractional
values 2 pi (n_A/d_A + n_B/d_B) can occur for Cartan-closed local paths.

Every path is a frame path: U = L diag(z) R with constant frames per segment
row, at the row's live width K (d, or 8 on a Bloch row; see
``paths.FrameTables``). The trace kernel walks the grid one run at a time, a
maximal stretch of samples on which each path stays on one row. Over a run
the matrix C of the overlap z_A C z_B and each path's frequency (an exact row
constant, or on a Bloch row an exact quadratic form in z) are fixed, so only
the phasors are evaluated, O(n K_A K_B) in all, and each run's quadrature
ends on the left limit at the next cut. A single qudit runs as its purified
pair, alpha = sqrt(rho) with qudit B held at the identity:
Tr[alpha^dag U alpha] = Tr[rho U]. ``trace_from_samples`` contracts sampled
(U, dU/dt) stacks instead; it is the dense reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import CoefficientMatrix, QuditDensity, purify, reduced_densities
from .paths import (LocalEvolution, PairEvolution, TimeGrid, center_power,
                    identity_evolution, lattice_condition_check)

__all__ = [
    "GridTooCoarseError",
    "PhaseTrace",
    "CyclicEvent",
    "CycleScan",
    "FractionalLattice",
    "cumulative_simpson",
    "unwrap_phases",
    "trace_from_samples",
    "run_trace",
    "single_qudit_trace",
    "detect_cycles",
    "fractional_lattice",
    "circular_distance",
]

# The largest phase step per grid step (unwrap and rate guard), the overlap
# magnitude below which a sample has no argument, and the unwrap's transit
# thresholds (chord distance per chord length, magnitude per path maximum).
GUARD = math.pi / 4.0
INDETERMINATE_TOL = 1e-12
TRANSIT_RATIO = 0.25
NEAR_ORIGIN = 0.05
# Grid samples per chunk of a run: 1 MiB of phasors at width 8.
CHUNK_ROWS = 2 ** 13


class GridTooCoarseError(RuntimeError):
    """Per-step phase increment exceeded the unwrap guard."""


def cumulative_simpson(y: np.ndarray, dx: float, warn: bool = True) -> np.ndarray:
    """Cumulative composite Simpson integral on a uniform grid.

    Even-indexed points use exact Simpson pairs; odd-indexed points integrate
    the local interpolating parabola over its first half. With an odd number
    of intervals the final one falls back to the trapezoid rule (warned).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    out = np.zeros(n)
    if n < 2:
        return out
    m = (n - 1) // 2 * 2
    if m >= 2:
        pair = (y[0:m - 1:2] + 4.0 * y[1:m:2] + y[2:m + 1:2]) * (dx / 3.0)
        out[2:m + 1:2] = np.cumsum(pair)
        out[1:m:2] = out[0:m - 1:2] + (5.0 * y[0:m - 1:2] + 8.0 * y[1:m:2]
                                       - y[2:m + 1:2]) * (dx / 12.0)
    if m != n - 1:
        if warn:
            warnings.warn("odd interval count; trapezoid fallback on the last "
                          "step", stacklevel=2)
        out[n - 1] = out[n - 2] + 0.5 * dx * (y[n - 2] + y[n - 1])
    return out


def _cumulative_smooth(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative Simpson for a smooth chunk of either parity.

    Odd interval counts integrate the first interval with the forward
    parabola so the fourth-order accuracy is kept.
    """
    n = y.size
    if n < 3 or (n - 1) % 2 == 0:
        return cumulative_simpson(y, dx, warn=False)
    out = np.empty(n)
    out[0] = 0.0
    first = dx * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    out[1:] = first + cumulative_simpson(y[1:], dx, warn=False)
    return out


def _chord_origin_distance(z0: complex, z1: complex) -> float:
    """Distance from the origin to the segment joining two complex samples."""
    d = z1 - z0
    dd = abs(d) ** 2
    if dd == 0.0:
        return abs(z0)
    tau = -((d.conjugate() * z0).real) / dd
    tau = min(1.0, max(0.0, tau))
    return abs(z0 + tau * d)


def unwrap_phases(z: np.ndarray,
                  dynamical: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Continuously unwrapped argument of a sampled complex path.

    Nearest-branch continuation sample to sample. The argument legitimately
    swings fast wherever the path runs close to the origin (transits), so the
    aliasing guard only fires for steps exceeding ``GUARD`` whose chord stays
    away from the origin both relative to its own length (``TRANSIT_RATIO``)
    and relative to the overall magnitude scale of the path (``NEAR_ORIGIN``).
    Samples with magnitude below ``INDETERMINATE_TOL`` have no defined
    argument; their phase is bridged by the local slope of ``dynamical``
    (zero slope if not supplied) and flagged in the returned mask.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    mag = np.abs(z)
    scale = NEAR_ORIGIN * (mag.max() if n else 1.0)
    determinate = mag > INDETERMINATE_TOL
    args = np.angle(z)
    phases = np.empty(n)
    phases[0] = args[0] if determinate[0] else 0.0

    def check(k0: int, k1: int, delta: float) -> None:
        if min(mag[k0], mag[k1]) <= scale:
            return
        dist = _chord_origin_distance(z[k0], z[k1])
        if dist > TRANSIT_RATIO * abs(z[k1] - z[k0]):
            raise GridTooCoarseError(
                f"phase increment {delta:.3f} rad between samples {k0} and "
                f"{k1} exceeds the guard {GUARD:.3f}; refine the grid")

    if determinate.all():
        delta = np.angle(z[1:] * np.conj(z[:-1]))
        for k in np.flatnonzero(np.abs(delta) >= GUARD):
            check(k, k + 1, delta[k])
        phases[1:] = phases[0] + np.cumsum(delta)
        return phases, ~determinate

    for k in range(1, n):
        if determinate[k] and determinate[k - 1]:
            delta = math.remainder(args[k] - args[k - 1], 2.0 * math.pi)
            if abs(delta) >= GUARD:
                check(k - 1, k, delta)
            phases[k] = phases[k - 1] + delta
        elif determinate[k]:
            # re-anchor after an indeterminate run, nearest branch
            phases[k] = phases[k - 1] + math.remainder(args[k] - phases[k - 1],
                                                       2.0 * math.pi)
        else:
            slope = 0.0
            if dynamical is not None:
                slope = dynamical[k] - dynamical[k - 1]
            phases[k] = phases[k - 1] + slope
    return phases, ~determinate


@dataclass(frozen=True)
class PhaseTrace:
    """Sampled overlap and phase decomposition along an evolution.

    ``geometric_phase = total_phase - dynamical_phase`` at every sample;
    all phases start at zero and the total phase is continuously unwrapped.
    ``indeterminate`` flags samples where the overlap vanished and the total
    phase was bridged. ``unitarity_residual`` and ``determinant_residual`` are
    the largest entries of |U^dag U - 1| and |det U - 1| over every sampled
    operator of ``trace_from_samples``. The kernel samples each path in its
    frames, U = L diag(z) R, and reports them for the parts it relies on. The
    unitarity residual is the largest ``FrameTables.unitarity`` over the rows
    the grid visits together with |conj(z) z - 1| over the samples: on a row
    with unitary frames that is |F^dag F - 1| over both frames; on a Bloch row
    it is |F^dag F - 1| of its factor F = W0 diag(exp(i chi0)) and the
    construction-time deviation of its 8-term sum from V(theta, phi) F at both
    ends of the row. The determinant residual is |det L det R prod(z) - 1| per
    sample on a unitary row and |det(W0) e^{i sum chi0} z_+ z_- - 1| on a
    Bloch row, z_+- the e^{+-i theta/2} terms. On an all-diagonal path
    L = R = 1 exactly, so both equal the residuals of U = diag(z).
    """

    t: np.ndarray
    overlap: np.ndarray
    overlap_mag: np.ndarray
    total_phase: np.ndarray
    dynamical_phase: np.ndarray
    geometric_phase: np.ndarray
    indeterminate: np.ndarray
    unitarity_residual: float
    determinant_residual: float


def _finalize_trace(t, overlap, dyn, residuals) -> PhaseTrace:
    mag = np.abs(overlap)
    if abs(overlap[0] - 1.0) > 1e-8:
        raise ValueError(
            f"overlap at t = 0 is {overlap[0]:.6g}, not 1; the evolution must "
            "start at the identity and the state must be normalized")
    if mag.max() > 1.0 + 1e-9:
        raise ValueError("overlap magnitude exceeds 1; inputs are inconsistent")
    total, indet = unwrap_phases(overlap, dynamical=dyn)
    total = total - total[0]
    return PhaseTrace(t=t, overlap=overlap, overlap_mag=mag, total_phase=total,
                      dynamical_phase=dyn, geometric_phase=total - dyn,
                      indeterminate=indet, unitarity_residual=residuals[0],
                      determinant_residual=residuals[1])


def _operator_residuals(stacks) -> tuple[float, float]:
    """Largest |U^dag U - 1| entry and |det U - 1| over n x d x d stacks of U."""
    unit = det = 0.0
    for u in stacks:
        eye = np.eye(u.shape[-1])
        unit = max(unit, float(np.abs(u.conj().transpose(0, 2, 1) @ u - eye).max()))
        det = max(det, float(np.abs(np.linalg.det(u) - 1.0).max()))
    return unit, det


def _frequency(rho, u, u_dot) -> np.ndarray:
    """Dynamical frequency -i Tr[rho U^dag dU/dt] of sampled operators.

    Tr[rho U^dag dU/dt] = sum_ki dU_ki (conj(U) rho^T)_ki, with the constant
    factor applied to the flattened stack in one matrix product.
    """
    n, d, _ = u.shape
    w = (u.conj().reshape(n * d, d) @ rho.T).reshape(n, d, d)
    freq = -1j * np.einsum("tki,tki->t", u_dot, w)
    if np.abs(freq.imag).max() > 1e-8:
        raise ValueError("dynamical frequency has a nonreal part; the operator "
                         "samples are not unitary")
    return freq.real


def _pair_overlap(alpha, u_a, u_b) -> np.ndarray:
    """Overlap Tr[alpha^dag U_A alpha U_B^T] per sample of operator stacks."""
    n, d_a, d_b = u_a.shape[0], *alpha.shape
    # U_A alpha as one product over the flattened stack
    alphas = (u_a.reshape(n * d_a, d_a) @ alpha).reshape(n, d_a, d_b)
    return np.einsum("ij,tij->t", alpha.conj(), alphas @ u_b.transpose(0, 2, 1))


def trace_from_samples(alpha0: CoefficientMatrix, t: np.ndarray,
                       u_a: np.ndarray, u_a_dot: np.ndarray,
                       u_b: np.ndarray, u_b_dot: np.ndarray) -> PhaseTrace:
    """Phase trace of alpha(t) = U_A alpha(0) U_B^T from sampled operators.

    The operators need not be special unitary: a global phase e^{i phi(t)}
    on either factor shifts total and dynamical phase alike and cancels in
    the geometric phase. The quadrature assumes a smooth path; run_trace
    stitches the integral at segment boundaries of piecewise paths.
    """
    t = np.asarray(t, dtype=float)
    n = t.size
    if u_a.shape != (n, alpha0.d_a, alpha0.d_a) or u_b.shape != (n, alpha0.d_b, alpha0.d_b):
        raise ValueError("operator stacks do not match the state dimensions")
    rho_a, rho_b = reduced_densities(alpha0)
    overlap = _pair_overlap(alpha0.alpha, u_a, u_b)
    freq = _frequency(rho_a, u_a, u_a_dot) + _frequency(rho_b, u_b, u_b_dot)
    dt = float(t[1] - t[0]) if n > 1 else 1.0
    return _finalize_trace(t, overlap, cumulative_simpson(freq, dt),
                           _operator_residuals([u_a, u_b]))


def _check_rate_guard(rate: float, grid: TimeGrid) -> None:
    step = 2.0 * rate * grid.dt
    if step >= GUARD:
        need = int(math.ceil(2.0 * rate * grid.t_max / GUARD))
        need += need % 2
        raise GridTooCoarseError(
            f"per-step phase increment {step:.3f} rad exceeds the guard "
            f"{GUARD:.3f}; use at least {need} steps")


def _row_constants(frames, rho: np.ndarray) -> np.ndarray:
    """Frequency w @ diag(R rho R^dag) of every row, exact on rows with unitary frames."""
    levels = np.einsum("kij,kij->ki", frames.right @ rho, frames.right.conj()).real
    return (frames.rate * levels).sum(axis=1)


def _row_frequency(evo: LocalEvolution, k: int, rho: np.ndarray, constants: np.ndarray,
                   z: np.ndarray) -> np.ndarray:
    """-i Tr[rho U^dag dU/dt] at row k's phasors z.

    With U = L diag(z) R and dz/dt = i w z it is Re conj(z) M (w z),
    M = (L^dag L) * (R rho R^dag)^T. A row with unitary frames has
    L^dag L = 1, so there it is the row constant (``_row_constants``):
    rates @ diag(rho) on a Cartan row, <G> on a generator row. A Bloch row
    takes the form per sample.
    """
    if not evo.frames.rectangular[k]:
        return np.full(z.shape[0], constants[k])
    left, right, _, rate = evo.row_frame(k)
    form = (left.conj().T @ left) * (right @ rho @ right.conj().T).T * rate
    return np.einsum("tr,tr->t", z.conj() @ form, z).real


def _row_residuals(evo: LocalEvolution, k: int, z: np.ndarray) -> tuple[float, float]:
    """Residuals of row k's phasors z from their parts (see ``PhaseTrace``);
    det U / ``determinant`` is the product of the first d phasors."""
    frames = evo.frames
    unit = max(float(frames.unitarity[k]), float(np.abs(z.conj() * z - 1.0).max()))
    det = float(np.abs(frames.determinant[k] * z[:, :evo.d].prod(axis=1) - 1.0).max())
    return unit, det


def _streamed_trace(alpha0: CoefficientMatrix, evo_a: LocalEvolution,
                    evo_b: LocalEvolution, grid: TimeGrid) -> tuple:
    """(times, overlap, dynamical phase, residuals) of alpha(t) = U_A alpha0 U_B^T,
    one run of grid samples at a time, for ``_finalize_trace``.

    A run is a maximal stretch of samples on which each path stays on one
    row. Its rows give C = (L_A^T conj(alpha) L_B) * (R_A alpha R_B^T), so the
    overlap is z_A C z_B, and each path's frequency form. The phasors are
    evaluated in chunks of at most ``CHUNK_ROWS`` samples, on the run's own
    samples plus, before a cut, its end sample in the run's rows: the left
    limit of the frequency there. Each run is integrated on its own and the
    running dynamical phase carried into the next. The unitarity and
    determinant residuals are maxima over the owned samples. The last
    chunk's phasors are freed on return, before the unwrap runs.
    """
    _check_rate_guard(evo_a.max_phase_rate + evo_b.max_phase_rate, grid)
    alpha = alpha0.alpha
    rho_a, rho_b = reduced_densities(alpha0)
    const_a, const_b = _row_constants(evo_a.frames, rho_a), _row_constants(evo_b.frames, rho_b)
    times = grid.times()
    n = times.size
    overlap = np.empty(n, dtype=complex)
    dyn = np.empty(n)
    unit = det = offset = 0.0
    (first_a, rows_a), (first_b, rows_b) = evo_a.row_starts(times), evo_b.row_starts(times)
    # a set, not np.union1d, which imports numpy.ma (about 1 MiB) on first use
    starts = np.array(sorted({*first_a.tolist(), *first_b.tolist()}))
    rows_a = rows_a[np.searchsorted(first_a, starts, side="right") - 1]
    rows_b = rows_b[np.searchsorted(first_b, starts, side="right") - 1]
    for lo, hi, ka, kb in zip(starts.tolist(), [*starts[1:].tolist(), n],
                              rows_a.tolist(), rows_b.tolist()):
        left_a, right_a, _, _ = evo_a.row_frame(ka)
        left_b, right_b, _, _ = evo_b.row_frame(kb)
        c = (left_a.T @ alpha.conj() @ left_b) * (right_a @ alpha @ right_b.T)
        end = min(hi + 1, n)
        freq = np.empty(end - lo)
        for s in range(lo, end, CHUNK_ROWS):
            e = min(s + CHUNK_ROWS, end)
            z_a, z_b = evo_a.row_phasors(ka, times[s:e]), evo_b.row_phasors(kb, times[s:e])
            freq[s - lo:e - lo] = (_row_frequency(evo_a, ka, rho_a, const_a, z_a)
                                   + _row_frequency(evo_b, kb, rho_b, const_b, z_b))
            owned = min(e, hi) - s
            if owned:
                z_a, z_b = z_a[:owned], z_b[:owned]
                overlap[s:s + owned] = np.einsum("tj,tj->t", z_a @ c, z_b)
                (unit_a, det_a), (unit_b, det_b) = (_row_residuals(evo_a, ka, z_a),
                                                    _row_residuals(evo_b, kb, z_b))
                unit, det = max(unit, unit_a, unit_b), max(det, det_a, det_b)
        dyn[lo:end] = offset + _cumulative_smooth(freq, grid.dt)
        offset = dyn[end - 1]
    return times, overlap, dyn, (unit, det)


def run_trace(alpha0: CoefficientMatrix, pair: PairEvolution) -> PhaseTrace:
    """Run a two-qudit trace over the pair's time grid.

    The dynamical quadrature is stitched at segment boundaries with the
    left-limit integrand, keeping full Simpson accuracy on piecewise paths.
    """
    if pair.a.d != alpha0.d_a or pair.b.d != alpha0.d_b:
        raise ValueError(
            f"state is {alpha0.d_a}x{alpha0.d_b} but the paths act on "
            f"{pair.a.d} and {pair.b.d}")
    return _finalize_trace(*_streamed_trace(alpha0, pair.a, pair.b, pair.grid))


def single_qudit_trace(rho0: QuditDensity, evo: LocalEvolution, grid: TimeGrid) -> PhaseTrace:
    """Run a single-qudit trace, overlap Tr[rho0 U(t)], over a uniform grid.

    The qudit runs as its purified pair: alpha = sqrt(rho0) with qudit B held
    at the identity, so Tr[alpha^dag U alpha] = Tr[rho0 U].
    """
    if evo.d != rho0.d:
        raise ValueError("path dimension does not match the state")
    if evo.duration < grid.t_max - 1e-9:
        raise ValueError("path shorter than the grid window")
    return _finalize_trace(*_streamed_trace(purify(rho0), evo,
                                            identity_evolution(evo.d, evo.duration), grid))


@dataclass(frozen=True)
class CyclicEvent:
    """One overlap-magnitude return to the unit circle."""

    t_cycle: float
    phase: float
    overlap_mag: float
    n_a: int | None = None
    n_b: int | None = None


@dataclass(frozen=True)
class CycleScan:
    """Detected cyclic events; ``continuum`` flags |overlap| = 1 everywhere.

    In the continuum case (product diagonal states evolve on the unit circle)
    a single grid-boundary event at t = 0 is reported instead of an event per
    sample.
    """

    events: tuple
    continuum: bool


def _refine_peak(t: np.ndarray, mag: np.ndarray, total: np.ndarray,
                 k: int) -> tuple[float, float, float]:
    if k == 0 or k == t.size - 1:
        return float(t[k]), float(total[k]), float(mag[k])
    denom = mag[k - 1] - 2.0 * mag[k] + mag[k + 1]
    if abs(denom) < 1e-30:
        return float(t[k]), float(total[k]), float(mag[k])
    shift = 0.5 * (mag[k - 1] - mag[k + 1]) / denom
    shift = min(1.0, max(-1.0, shift))
    dt = t[k] - t[k - 1]
    tc = float(t[k] + shift * dt)
    # quadratic interpolation of both the magnitude and the unwrapped phase
    mc = float(mag[k] - 0.25 * (mag[k - 1] - mag[k + 1]) * shift)
    pc = float(total[k] + 0.5 * (total[k + 1] - total[k - 1]) * shift
               + 0.5 * (total[k + 1] - 2.0 * total[k] + total[k - 1]) * shift ** 2)
    return tc, pc, mc


def _lattice_labels(evo: LocalEvolution, times: list, lattice_tol: float,
                    closure_tol: float = 1e-8) -> list:
    """Fractional index n per event time where the path is Cartan-closed.

    The coset factor and the Cartan levels are read once for all events. A
    coset factor in the center, W = e^{2 pi i m/d} 1, is closed and adds m
    to the index of the levels; an event whose coset factor is open (or whose
    levels miss the lattice) gets None.
    """
    d = evo.d
    m, dev = center_power(evo.coset_factor(times))
    closed = dev <= closure_tol
    labels = [lattice_condition_check(lv, d, tol=lattice_tol) if ok else None
              for ok, lv in zip(closed.tolist(), evo.cartan_levels(times))]
    return [None if n is None else (n + shift) % d for n, shift in zip(labels, m.tolist())]


def detect_cycles(trace: PhaseTrace, pair: PairEvolution | None = None,
                  eps: float = 1e-9, lattice_tol: float = 1e-6) -> CycleScan:
    """Locate overlap-magnitude maxima exceeding 1 - eps.

    Peaks are refined by a three-point quadratic fit. When a pair evolution is
    supplied, each event is annotated with the fractional indices (n_a, n_b)
    whenever both local paths are Cartan-closed there.
    """
    mag = trace.overlap_mag
    t = trace.t
    hits = mag >= 1.0 - eps
    continuum = bool(hits.all())
    if continuum:
        peaks = [(float(t[0]), float(trace.total_phase[0]), float(mag[0]))]
    else:
        n = mag.size
        peaks = []
        # runs of hits as [start, stop) pairs: the rising and falling edges
        edges = np.flatnonzero(np.diff(hits, prepend=False, append=False))
        for k, stop in zip(edges[0::2].tolist(), edges[1::2].tolist()):
            kk = k + int(np.argmax(mag[k:stop]))
            left_ok = kk == 0 or mag[kk] >= mag[kk - 1]
            right_ok = kk == n - 1 or mag[kk] >= mag[kk + 1]
            if left_ok and right_ok:
                peaks.append(_refine_peak(t, mag, trace.total_phase, kk))
    labels_a = labels_b = [None] * len(peaks)
    if pair is not None and peaks:
        times = [tc for tc, _, _ in peaks]
        labels_a = _lattice_labels(pair.a, times, lattice_tol)
        labels_b = _lattice_labels(pair.b, times, lattice_tol)
    events = tuple(CyclicEvent(t_cycle=tc, phase=pc, overlap_mag=mc, n_a=n_a, n_b=n_b)
                   for (tc, pc, mc), n_a, n_b in zip(peaks, labels_a, labels_b))
    return CycleScan(events=events, continuum=continuum)


@dataclass(frozen=True)
class FractionalLattice:
    """The attainable cyclic total phases 2 pi (n_A/d_A + n_B/d_B) mod 2 pi."""

    d_a: int
    d_b: int
    values: np.ndarray

    @property
    def order(self) -> int:
        return self.values.size

    def nearest(self, phase: float) -> tuple[int, float]:
        """(index m, circular distance) of the nearest lattice value."""
        dist = np.abs(np.remainder(phase - self.values + math.pi, 2.0 * math.pi) - math.pi)
        m = int(np.argmin(dist))
        return m, float(dist[m])

    def contains(self, phase: float, tol: float = 1e-6) -> bool:
        return self.nearest(phase)[1] <= tol


def fractional_lattice(d_a: int, d_b: int) -> FractionalLattice:
    """All values 2 pi (n_A/d_A + n_B/d_B) mod 2 pi: the 2 pi m / lcm grid."""
    if d_a < 2 or d_b < 2:
        raise ValueError("dimensions must be >= 2")
    L = math.lcm(d_a, d_b)
    values = 2.0 * math.pi * np.arange(L) / L
    return FractionalLattice(d_a=d_a, d_b=d_b, values=values)


def circular_distance(a, b) -> np.ndarray:
    """Distance between phases modulo 2 pi."""
    return np.abs(np.remainder(np.asarray(a) - np.asarray(b) + math.pi,
                               2.0 * math.pi) - math.pi)
