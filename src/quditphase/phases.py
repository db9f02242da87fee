"""Total, dynamical and geometric phases along local unitary evolutions.

The total phase is the continuously unwrapped argument of the state overlap,
the dynamical phase is the Simpson quadrature of the instantaneous frequency
``-i <psi|dpsi/dt>``, and the geometric phase is their difference. Cyclic
points are overlap-magnitude returns to one; on them only the fractional
values 2 pi (n_A/d_A + n_B/d_B) can occur for Cartan-closed local paths.

The trace kernel streams the grid in blocks of rows. A path without a Bloch
segment enters as its frame phasors z and row indices, U = L diag(z) R with
constant frames per segment row: a pair of such paths takes its overlap as
z_A C z_B with one d_A x d_B matrix C per pair of rows, its frequency is the
exact per-row constant w @ diag(R rho R^dag) (rates @ diag(rho) on a Cartan
row, <G> on a generator row), and it costs O(n d_A d_B). Only a path with a
Bloch segment enters as sampled (U, dU/dt) stacks contracted by matrix
products, O(n d^3). A single qudit runs as its purified pair, alpha =
sqrt(rho) with qudit B held at the identity: Tr[alpha^dag U alpha] = Tr[rho U].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import CoefficientMatrix, QuditDensity, purify, reduced_densities
from .paths import (LocalEvolution, PairEvolution, TimeGrid, identity_evolution,
                    lattice_condition_check)

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
    "master_phase_formula",
    "circular_distance",
]

INDETERMINATE_TOL = 1e-12
# Byte budget of one n x d x d complex stack in the streamed trace kernel.
BLOCK_BYTES = 2 ** 20


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


def _cumulative_piecewise(freq: np.ndarray, left_values: dict, cuts: list,
                          dx: float) -> np.ndarray:
    """Stitch cumulative Simpson across known integrand breakpoints.

    ``freq`` holds right-limit values; ``left_values`` maps a breakpoint
    sample index to the left-limit integrand there. Each chunk between
    breakpoints is smooth and integrated at fourth order.
    """
    n = freq.size
    out = np.zeros(n)
    edges = [0] + [c for c in cuts if 0 < c < n - 1] + [n - 1]
    offset = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        y = freq[lo:hi + 1].copy()
        if hi in left_values:
            y[-1] = left_values[hi]
        out[lo:hi + 1] = offset + _cumulative_smooth(y, dx)
        offset = out[hi]
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


def unwrap_phases(z: np.ndarray, dynamical: np.ndarray | None = None,
                  guard: float = math.pi / 4.0,
                  indeterminate_tol: float = INDETERMINATE_TOL,
                  transit_ratio: float = 0.25,
                  near_origin: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Continuously unwrapped argument of a sampled complex path.

    Nearest-branch continuation sample to sample. The argument legitimately
    swings fast wherever the path runs close to the origin (transits), so the
    aliasing guard only fires for steps exceeding ``guard`` whose chord stays
    away from the origin both relative to its own length and relative to the
    overall magnitude scale of the path. Samples with magnitude below
    ``indeterminate_tol`` have no defined argument; their phase is bridged by
    the local slope of ``dynamical`` (zero slope if not supplied) and flagged
    in the returned mask.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    mag = np.abs(z)
    scale = near_origin * (mag.max() if n else 1.0)
    determinate = mag > indeterminate_tol
    args = np.angle(z)
    phases = np.empty(n)
    phases[0] = args[0] if determinate[0] else 0.0

    def check(k0: int, k1: int, delta: float) -> None:
        if min(mag[k0], mag[k1]) <= scale:
            return
        dist = _chord_origin_distance(z[k0], z[k1])
        if dist > transit_ratio * abs(z[k1] - z[k0]):
            raise GridTooCoarseError(
                f"phase increment {delta:.3f} rad between samples {k0} and "
                f"{k1} exceeds the guard {guard:.3f}; refine the grid")

    if determinate.all():
        delta = np.angle(z[1:] * np.conj(z[:-1]))
        for k in np.flatnonzero(np.abs(delta) >= guard):
            check(k, k + 1, delta[k])
        phases[1:] = phases[0] + np.cumsum(delta)
        return phases, ~determinate

    for k in range(1, n):
        if determinate[k] and determinate[k - 1]:
            delta = math.remainder(args[k] - args[k - 1], 2.0 * math.pi)
            if abs(delta) >= guard:
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
    operator. A path sampled in its frames, U = L diag(z) R, reports them for
    the parts the kernel uses: the largest |F^dag F - 1| entry over the frames
    of the rows the grid visits together with |conj(z) z - 1| over the
    samples, and |det L det R prod(z) - 1| per sample. On an all-diagonal path
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


def _finalize_trace(t, overlap, dyn, guard, residuals) -> PhaseTrace:
    mag = np.abs(overlap)
    if abs(overlap[0] - 1.0) > 1e-8:
        raise ValueError(
            f"overlap at t = 0 is {overlap[0]:.6g}, not 1; the evolution must "
            "start at the identity and the state must be normalized")
    if mag.max() > 1.0 + 1e-9:
        raise ValueError("overlap magnitude exceeds 1; inputs are inconsistent")
    total, indet = unwrap_phases(overlap, dynamical=dyn, guard=guard)
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


def _side_residuals(evo: LocalEvolution, side) -> tuple[float, float]:
    """Residuals of one path's samples: a frame side (z, rows) from its parts
    (see ``PhaseTrace``), a (U, dU/dt) side from its U stack."""
    u, rows = side
    if u.ndim == 3:
        return _operator_residuals([u])
    if evo.is_identity:             # unit frames and phasors: both are exactly 0
        return 0.0, 0.0
    frames = evo.frames
    unit = max(float(frames.unitarity[rows].max()), float(np.abs(u.conj() * u - 1.0).max()))
    det = float(np.abs(frames.determinant[rows] * u.prod(axis=1) - 1.0).max())
    return unit, det


def _connection(rho, u, u_dot):
    """Tr[rho U^dag dU/dt] per sample, as sum_ki dU_ki (conj(U) rho^T)_ki.

    The constant factor multiplies the flattened stack in one matrix product
    instead of one small product per sample.
    """
    n, d, _ = u.shape
    w = (u.conj().reshape(n * d, d) @ rho.T).reshape(n, d, d)
    return np.einsum("tki,tki->t", u_dot, w)


def _frequency(rho, u, u_dot) -> np.ndarray:
    """Dynamical frequency -i Tr[rho U^dag dU/dt] of sampled operators."""
    freq = -1j * _connection(rho, u, u_dot)
    if np.abs(freq.imag).max() > 1e-8:
        raise ValueError("dynamical frequency has a nonreal part; the operator "
                         "samples are not unitary")
    return freq.real


def _row_frequencies(frames, rho) -> np.ndarray:
    """Exact frequency of every row, w_k @ diag(R_k rho R_k^dag).

    With U = L diag(z) R and dz/dt = i w z, U^dag dU/dt = i R^dag diag(w) R:
    the frequency is rates @ diag(rho) on a Cartan row and <G> on a
    generator row, constant along the segment.
    """
    right = frames.right
    levels = np.einsum("kij,kij->ki", right @ rho, right.conj()).real
    return (frames.rate * levels).sum(axis=1)


def _side_frequency(row_freq, rho, side) -> np.ndarray:
    u, x = side
    return row_freq[x] if u.ndim == 2 else _frequency(rho, u, x)


def _pair_overlap(alpha, u_a, u_b) -> np.ndarray:
    """Overlap Tr[alpha^dag U_A alpha U_B^T] per sample.

    A side is an operator stack, applied as a matrix product, or the phasors
    z of U = diag(z), applied as a scaling of the rows (A) or columns (B) of
    alpha.
    """
    d_a, d_b = alpha.shape
    if u_a.ndim == 2:
        alphas = u_a[:, :, None] * alpha
    else:
        # U_A alpha as one product over the flattened stack
        n = u_a.shape[0]
        alphas = (u_a.reshape(n * d_a, d_a) @ alpha).reshape(n, d_a, d_b)
    alphas = alphas * u_b[:, None, :] if u_b.ndim == 2 else alphas @ u_b.transpose(0, 2, 1)
    return np.einsum("ij,tij->t", alpha.conj(), alphas)


def _operator(evo: LocalEvolution, side) -> np.ndarray:
    """One side as ``_pair_overlap`` takes it: a U stack as it is, the phasors
    of an all-diagonal path (whose frames are identities) as they are, and any
    other frame side as U = L diag(z) R."""
    u, rows = side
    if u.ndim == 3 or evo.is_diagonal:
        return u
    return (evo.frames.left[rows] * u[:, None, :]) @ evo.frames.right[rows]


def _runs(rows_a: np.ndarray, rows_b: np.ndarray):
    """[lo, hi) runs of samples over which both row indices stay constant."""
    change = np.flatnonzero((np.diff(rows_a) != 0) | (np.diff(rows_b) != 0)) + 1
    edges = [0, *change.tolist(), rows_a.size]
    return zip(edges[:-1], edges[1:])


def _pair_contraction(alpha, rho_a, rho_b, evo_a: LocalEvolution, evo_b: LocalEvolution):
    """contract(side_a, side_b) -> (overlap, frequency) for one pair trace.

    With U = L diag(z) R on both sides the overlap is sum_ij z_A,i C_ij z_B,j,
    C = conj(L_A^dag alpha conj(L_B)) * (R_A alpha R_B^T), built once per pair
    of rows and applied to each run of samples in that pair. A pair with a
    (U, dU/dt) side takes the dense overlap. A frame side's frequency is its
    row constant.
    """
    row_freq = [None if evo.frames is None else _row_frequencies(evo.frames, rho)
                for evo, rho in ((evo_a, rho_a), (evo_b, rho_b))]
    coefficients = {}

    def pair_coefficients(ka: int, kb: int) -> np.ndarray:
        if (ka, kb) not in coefficients:
            fa, fb = evo_a.frames, evo_b.frames
            coefficients[ka, kb] = ((fa.left[ka].T @ alpha.conj() @ fb.left[kb])
                                    * (fa.right[ka] @ alpha @ fb.right[kb].T))
        return coefficients[ka, kb]

    def contract(a, b):
        (z_a, rows_a), (z_b, rows_b) = a, b
        if z_a.ndim == 2 and z_b.ndim == 2:
            overlap = np.empty(z_a.shape[0], dtype=complex)
            for lo, hi in _runs(rows_a, rows_b):
                c = pair_coefficients(int(rows_a[lo]), int(rows_b[lo]))
                overlap[lo:hi] = np.einsum("tj,tj->t", z_a[lo:hi] @ c, z_b[lo:hi])
        else:
            overlap = _pair_overlap(alpha, _operator(evo_a, a), _operator(evo_b, b))
        return overlap, (_side_frequency(row_freq[0], rho_a, a)
                         + _side_frequency(row_freq[1], rho_b, b))

    return contract


def _samples(evos, times: np.ndarray, side: str = "right") -> list:
    """Each path on ``times``: frame phasors (z, rows) when it has no Bloch
    segment, else the (U, dU/dt) stacks of ``sample``."""
    return [evo.sample(times, side) if evo.frames is None else evo.phasors(times, side)
            for evo in evos]


def trace_from_samples(alpha0: CoefficientMatrix, t: np.ndarray,
                       u_a: np.ndarray, u_a_dot: np.ndarray,
                       u_b: np.ndarray, u_b_dot: np.ndarray,
                       guard: float = math.pi / 4.0) -> PhaseTrace:
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
    return _finalize_trace(t, overlap, cumulative_simpson(freq, dt), guard,
                           _operator_residuals([u_a, u_b]))


def _check_rate_guard(rate: float, grid: TimeGrid, guard: float) -> None:
    step = 2.0 * rate * grid.dt
    if step >= guard:
        need = int(math.ceil(2.0 * rate * grid.t_max / guard))
        need += need % 2
        raise GridTooCoarseError(
            f"per-step phase increment {step:.3f} rad exceeds the guard "
            f"{guard:.3f}; use at least {need} steps")


def _boundary_grid_indices(evos, grid: TimeGrid) -> list:
    idx = set()
    for evo in evos:
        for b in evo.boundaries():
            if b <= 1e-12 or b >= grid.t_max - 1e-12:
                continue
            r = b / grid.dt
            k = int(round(r))
            if abs(r - k) <= 1e-6:
                idx.add(k)
    return sorted(idx)


def _block_rows(d: int) -> int:
    """Grid rows per block: one complex d x d stack within BLOCK_BYTES."""
    return max(256, BLOCK_BYTES // (16 * d * d))


def _streamed_trace(alpha0: CoefficientMatrix, evo_a: LocalEvolution,
                    evo_b: LocalEvolution, grid: TimeGrid, guard: float) -> PhaseTrace:
    """Phase trace of alpha(t) = U_A alpha0 U_B^T, streamed over blocks of grid rows.

    Each block samples both paths once (right side): a path without a Bloch
    segment as frame phasors and row indices, any other path as (U, dU/dt)
    stacks. The pair contraction reduces them at once to overlap and
    frequency, so no sample outlives its block. The unitarity and determinant
    residuals are running maxima over the blocks. Only the left limits at
    segment cuts are sampled again; the dynamical quadrature is stitched there.
    """
    _check_rate_guard(evo_a.max_phase_rate + evo_b.max_phase_rate, grid, guard)
    evos = (evo_a, evo_b)
    contract = _pair_contraction(alpha0.alpha, *reduced_densities(alpha0), evo_a, evo_b)
    times = grid.times()
    n = times.size
    overlap = np.empty(n, dtype=complex)
    freq = np.empty(n)
    unit = det = 0.0
    rows = _block_rows(max(evo.d for evo in evos))
    for lo in range(0, n, rows):
        samples = _samples(evos, times[lo:lo + rows])
        overlap[lo:lo + rows], freq[lo:lo + rows] = contract(*samples)
        for evo, side in zip(evos, samples):
            block_unit, block_det = _side_residuals(evo, side)
            unit, det = max(unit, block_unit), max(det, block_det)
    cuts = _boundary_grid_indices(evos, grid)
    left = {}
    if cuts:
        _, left_freq = contract(*_samples(evos, times[cuts], side="left"))
        left = dict(zip(cuts, left_freq))
    dyn = _cumulative_piecewise(freq, left, cuts, grid.dt)
    return _finalize_trace(times, overlap, dyn, guard, (unit, det))


def run_trace(alpha0: CoefficientMatrix, pair: PairEvolution,
              guard: float = math.pi / 4.0) -> PhaseTrace:
    """Run a two-qudit trace over the pair's time grid.

    The dynamical quadrature is stitched at segment boundaries with the
    left-limit integrand, keeping full Simpson accuracy on piecewise paths.
    """
    if pair.a.d != alpha0.d_a or pair.b.d != alpha0.d_b:
        raise ValueError(
            f"state is {alpha0.d_a}x{alpha0.d_b} but the paths act on "
            f"{pair.a.d} and {pair.b.d}")
    return _streamed_trace(alpha0, pair.a, pair.b, pair.grid, guard)


def single_qudit_trace(rho0: QuditDensity, evo: LocalEvolution, grid: TimeGrid,
                       guard: float = math.pi / 4.0) -> PhaseTrace:
    """Run a single-qudit trace, overlap Tr[rho0 U(t)], over a uniform grid.

    The qudit runs as its purified pair: alpha = sqrt(rho0) with qudit B held
    at the identity, so Tr[alpha^dag U alpha] = Tr[rho0 U].
    """
    if evo.d != rho0.d:
        raise ValueError("path dimension does not match the state")
    if evo.duration < grid.t_max - 1e-9:
        raise ValueError("path shorter than the grid window")
    return _streamed_trace(purify(rho0), evo, identity_evolution(evo.d, evo.duration),
                           grid, guard)


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
    d, w = evo.d, evo.coset_factor(times)
    m = np.rint(d * np.angle(w[:, 0, 0]) / (2.0 * math.pi)).astype(int)
    center = np.exp(2j * math.pi * m / d)[:, None, None] * np.eye(d)
    closed = np.abs(w - center).max(axis=(1, 2)) <= closure_tol
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


def master_phase_formula(report, q_hat_a, q_hat_b, loop_integral_a, loop_integral_b,
                         n_a: int, n_b: int) -> float:
    """Geometric phase of a cyclic evolution from invariants and loop integrals.

    ``loop_integral_j`` is the accumulated connection vector, integral of
    u_j dt over the cycle, in R^{d_j^2 - 1}. The weights multiply the
    projections onto the purity directions:

    phi_g = 2 pi (n_A/d_A + n_B/d_B)
            - sqrt((C_m^2 - C^2)/2) q_hat_A . dx_A
            - sqrt((C_m^2 - C^2)/2 + (d_B - d_A)/(d_A d_B)) q_hat_B . dx_B
    """
    d_a, d_b = report.d_a, report.d_b
    q_hat_a = np.asarray(q_hat_a, dtype=float)
    q_hat_b = np.asarray(q_hat_b, dtype=float)
    dx_a = np.asarray(loop_integral_a, dtype=float)
    dx_b = np.asarray(loop_integral_b, dtype=float)
    if q_hat_a.shape != dx_a.shape or q_hat_a.shape != (d_a * d_a - 1,):
        raise ValueError("qudit A vectors must have length d_A^2 - 1")
    if q_hat_b.shape != dx_b.shape or q_hat_b.shape != (d_b * d_b - 1,):
        raise ValueError("qudit B vectors must have length d_B^2 - 1")
    gap = max(report.c_max ** 2 - report.concurrence ** 2, 0.0)
    w_a = math.sqrt(gap / 2.0)
    w_b = math.sqrt(gap / 2.0 + (d_b - d_a) / (d_a * d_b))
    frac = 2.0 * math.pi * (n_a / d_a + n_b / d_b)
    return frac - w_a * float(q_hat_a @ dx_a) - w_b * float(q_hat_b @ dx_b)
