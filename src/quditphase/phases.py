"""Total, dynamical and geometric phases along local unitary evolutions.

The total phase is the continuously unwrapped argument of the state overlap,
the dynamical phase is the integral of the instantaneous frequency
``-i <psi|dpsi/dt>``, and the geometric phase is their difference. Cyclic
points are overlap-magnitude returns to one; on them only the fractional
values 2 pi (n_A/d_A + n_B/d_B) can occur for Cartan-closed local paths.

Every path is a frame path: U = L diag(z) R with constant frames per segment
row, at the row's live width K (d, or 8 on a Bloch row; see
``paths.FrameTables``). The trace kernel walks the grid one run at a time, a
maximal stretch of samples on which each path stays on one row. Over a run
the matrix C of the overlap z_A C z_B and each path's frequency (an exact row
constant, or on a Bloch row an exact quadratic form in z) are fixed. Both are
folded onto the rows' distinct phasors y (terms with bit-equal phase and rate
share one), C once per run and the frequencies once per trace for every row,
so only those phasors are evaluated, O(n G_A G_B) in all.
The dynamical phase is exact at every sample: a row constant w integrates to
w tau, and a Bloch row's form term by term to a closed form in its phasors,
from the row's start, which may lie between samples (``_row_integrals``).
Phasors are taken at the ideal times i dt, within about 1 ulp of exact
(``LocalEvolution.grid_phasors``), and a chunk's overlap and Bloch integral
are each one matrix product of its coarse and fine tables
(``_streamed_trace``). A single qudit runs as its purified pair, B held at
the identity and alpha = sqrt(rho): Tr[alpha^dag U alpha] = Tr[rho U].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import CoefficientMatrix, QuditDensity, purify, reduced_densities
from .paths import (CLOSURE_TOL, LocalEvolution, PairEvolution, TimeGrid, center_power,
                    identity_evolution)

__all__ = [
    "GridTooCoarseError",
    "PhaseTrace",
    "CyclicEvent",
    "CycleScan",
    "FractionalLattice",
    "unwrap_phases",
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
TWO_PI = 2.0 * math.pi
INDETERMINATE_TOL = 1e-12
TRANSIT_RATIO = 0.25
NEAR_ORIGIN = 0.05
# Grid samples per chunk of a run, one matrix product of about 91 x 91 samples.
CHUNK_ROWS = 2 ** 13
# Runs whose folded overlap matrices are built together: 1 MiB at width 8 x 8.
RUN_BLOCK = 2 ** 10


class GridTooCoarseError(RuntimeError):
    """Per-step phase increment exceeded the unwrap guard."""


def _chord_origin_distance(z0: complex, z1: complex) -> float:
    """Distance from the origin to the segment joining two complex samples."""
    d = z1 - z0
    dd = abs(d) ** 2
    if dd == 0.0:
        return abs(z0)
    tau = -((d.conjugate() * z0).real) / dd
    tau = min(1.0, max(0.0, tau))
    return abs(z0 + tau * d)


def _half_turn(step, mag):
    """A step of about -pi onto a sample of magnitude mag whose side of the
    origin, (pi + step) mag, is below the rounding floor: a tie, taken as +pi."""
    return (math.pi + step) * mag <= INDETERMINATE_TOL


def unwrap_phases(z: np.ndarray, dynamical: np.ndarray,
                  mag: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Continuously unwrapped argument of a sampled complex path.

    Nearest-branch continuation sample to sample: between two determinate
    samples the increment is the argument of z[k] conj(z[k-1]). Each
    determinate sample's phase is therefore its own argument plus 2 pi times
    an integer winding count, angle(z[k]) + 2 pi n_k, so its rounding is that
    of its own sample, not a sum over the steps before it. The argument
    legitimately swings fast wherever the path runs close to the origin
    (transits), so the aliasing guard only fires for steps exceeding
    ``GUARD`` whose chord stays away from the origin both relative to its own
    length (``TRANSIT_RATIO``) and relative to the overall magnitude scale of
    the path (``NEAR_ORIGIN``). Samples with magnitude below
    ``INDETERMINATE_TOL`` have no defined argument; the phase steps onto them
    by the local slope of the ``dynamical`` series, and they are flagged in
    the returned mask. The first determinate sample after such a bridged run
    re-anchors on the branch nearest the bridged phase. A step or anchor jump
    of about -pi that the rounding cannot place on either side of the origin
    (``_half_turn``) goes +pi. ``mag`` is |z| if the caller has it.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    if mag is None:
        mag = np.abs(z)
    scale = NEAR_ORIGIN * (mag.max() if n else 1.0)
    determinate = mag > INDETERMINATE_TOL
    phases = np.angle(z)                  # becomes the total phase, in place
    steps = np.diff(phases)
    big = np.flatnonzero(np.abs(steps) >= GUARD)   # the branch cuts and guard candidates
    steps = steps[big]
    winds = np.rint(steps / TWO_PI)       # branch cuts crossed per big step
    steps -= TWO_PI * winds               # the nearest-branch increments
    tie = _half_turn(steps, mag[big + 1])
    winds[tie] -= 1.0
    steps[tie] += TWO_PI
    for k, step in zip(big.tolist(), steps.tolist()):
        if (abs(step) >= GUARD and determinate[k] and determinate[k + 1]
                and min(mag[k], mag[k + 1]) > scale and _chord_origin_distance(z[k], z[k + 1])
                > TRANSIT_RATIO * abs(z[k + 1] - z[k])):
            raise GridTooCoarseError(
                f"phase increment {step:.3g} rad between samples {k} and "
                f"{k + 1} exceeds the guard {GUARD:.3f}; refine the grid")
    # crossed[k]: the branch cuts crossed from sample 0 to k
    crossed = np.repeat(np.cumsum(np.append(0.0, winds)), np.diff([0, *(big + 1).tolist(), n]))
    # a step with a bridged end follows the dynamical slope; the first
    # determinate sample after a bridged run is an anchor. Each piece from an
    # anchor is determinate up to its first bridged step (``last``), then bridged.
    bridged = np.flatnonzero(~(determinate[1:] & determinate[:-1]))
    anchors = (bridged[determinate[bridged + 1]] + 1).tolist()
    starts = [0, *anchors]
    lasts = np.append(bridged, n - 1)[np.searchsorted(bridged, starts)].tolist()
    if not determinate[0]:
        phases[0] = 0.0
    for lo, last, hi in zip(starts, lasts, [*anchors, n]):
        turns = 0.0                       # n_lo + crossed[lo]
        if lo:
            turns = round((phases[lo - 1] - phases[lo]) / TWO_PI)
            turns += _half_turn(phases[lo] + TWO_PI * turns - phases[lo - 1], mag[lo])
            phases[lo] += TWO_PI * turns
            turns += crossed[lo]
        count = crossed[lo + 1:last + 1]  # -n_k = crossed[k] - turns, in place
        count -= turns
        count *= TWO_PI
        phases[lo + 1:last + 1] -= count
        phases[last + 1:hi] = phases[last] + (dynamical[last + 1:hi] - dynamical[last])
    return phases, ~determinate


@dataclass(frozen=True)
class PhaseTrace:
    """Sampled overlap and phase decomposition along an evolution.

    ``geometric_phase = total_phase - dynamical_phase`` at every sample;
    all phases start at zero and the total phase is continuously unwrapped.
    ``indeterminate`` flags samples where the overlap vanished and the total
    phase was bridged. ``unitarity_residual`` and ``determinant_residual``
    bound how far the path's operators are from special unitary, |U^dag U - 1|
    and |det U - 1|, over the rows the grid visits: the largest
    ``FrameTables.unitarity`` (|F^dag F - 1| of the rows' frames and, on a
    Bloch row, its 8-term sum's deviation from V(theta, phi) F at both ends)
    and ``FrameTables.determinant_residual`` (|det U - 1| at both ends of each
    row). On an all-diagonal path L = R = 1 exactly, so the unitarity
    residual is 0. Neither depends on the grid step or the chunking.
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
    if not mag.max() <= 1.0 + 1e-9:        # NaN too: the cycle scan needs finite magnitudes
        raise ValueError("overlap magnitude exceeds 1 or is not finite; inputs are inconsistent")
    total, indet = unwrap_phases(overlap, dynamical=dyn, mag=mag)
    total -= total[0]
    return PhaseTrace(t=t, overlap=overlap, overlap_mag=mag, total_phase=total,
                      dynamical_phase=dyn, geometric_phase=total - dyn,
                      indeterminate=indet, unitarity_residual=residuals[0],
                      determinant_residual=residuals[1])


def _check_rate_guard(rate: float, grid: TimeGrid) -> None:
    step = 2.0 * rate * grid.dt
    if step >= GUARD:
        need = 2.0 * rate * grid.t_max / GUARD
        if math.isfinite(need):
            advice = f"use at least {math.floor(need) + 1} steps"
        else:
            advice = "no step count resolves a phase that large"
        raise GridTooCoarseError(
            f"per-step phase increment {step:.3g} rad exceeds the guard "
            f"{GUARD:.3f}; {advice}")


def _phi(delta, s):
    """The integral of e^{i delta t} over t in [0, s], (e^{i delta s} - 1) / (i delta),
    as s e^{i delta s/2} sinc(delta s/2): no cancellation as delta s -> 0, s at delta = 0."""
    half = 0.5 * delta * s
    return s * np.exp(1j * half) * np.sinc(half / math.pi)


def _row_integrals(evo: LocalEvolution, rho: np.ndarray) -> tuple:
    """(w, forms, bases): every row's frequency -i Tr[rho U^dag dU/dt] in its
    distinct phasors y, and its exact integral I(tau) from the row's start.

    With U = L diag(z) R, z = P y (P the one-hot term map) and dz/dt = i r z
    (r the rates) it is Re conj(y) P^T M P y, M = (L^dag L) * (R rho R^dag)^T
    times r per column. A row with unitary frames has L^dag L = 1: there it
    is the constant w = r @ diag(R rho R^dag) (<G> on a generator row), so
    I(tau) = w tau, and its form is None. On a Bloch row the term
    F_gh conj(y_g) y_h of the form F = P^T M P (G x G) has the frequency
    Delta_gh = r_h - r_g. Its integral over [0, tau] is x0_gh phi(Delta_gh, tau)
    (``_phi``), x0_gh = F_gh conj(y_g(0)) y_h(0), taken as one of three forms:
    - Delta = 0: x0 tau, which joins the row's w;
    - |Delta| D >= 1, D the row's duration: the antiderivative
      F_gh conj(y_g(tau)) y_h(tau) / (i Delta) less its value x0 / (i Delta)
      at 0, which joins the row's base; its rounding, eps |x0| / |Delta|, is at
      most eps |x0| D;
    - 0 < |Delta| D < 1: x0 phi(Delta, tau) itself, with |Delta tau| < 1.
    The row's form is (F, inv, small), raveled: inv_gh = 1 / (i Delta_gh) on the
    antiderivative terms and 0 elsewhere, and small = None or (terms, Delta, x0)
    of the last kind. ``bases[k]`` is I at the row's start as the kernel sums it:
    the whole integrals over each row's duration of the rows before row k,
    less the antiderivatives' value at 0.
    """
    frames = evo.frames
    levels = np.einsum("kij,kij->ki", frames.right @ rho, frames.right.conj()).real
    w = (frames.rate * levels).sum(axis=1)
    bloch = np.flatnonzero(frames.rectangular)
    durations = evo._durations
    forms = [None] * w.size
    zero = np.zeros(w.size)                     # the antiderivatives' value at 0
    whole = np.zeros(w.size)                    # each row's integral over its duration
    if bloch.size:
        left, right = frames.left[bloch], frames.right[bloch]
        form = ((left.conj().transpose(0, 2, 1) @ left)
                * (right @ rho @ right.conj().transpose(0, 2, 1)).transpose(0, 2, 1)
                * frames.rate[bloch, None, :])
        fold = np.eye(frames.rate.shape[1])[frames.rep[bloch]]
        phase0, rate = (x[bloch] for x in evo._leads)       # the distinct phasors'
        ends = evo.step_phasors(bloch, durations[bloch], 1.0)     # e^{i r D}
        for k, g, folded, c, r, e in zip(bloch.tolist(), frames.distinct[bloch].tolist(),
                                         fold.transpose(0, 2, 1) @ form @ fold, phase0, rate,
                                         ends):
            f = folded[:g, :g].ravel()
            y0 = np.exp(1j * c[:g])
            x0 = f * np.outer(y0.conj(), y0).ravel()
            delta = (r[None, :g] - r[:g, None]).ravel()
            d = durations[k]
            anti = np.abs(delta) * d >= 1.0
            small = np.flatnonzero((delta != 0.0) & ~anti)
            inv = np.zeros(delta.size, dtype=complex)
            inv[anti] = 1.0 / (1j * delta[anti])
            forms[k] = f, inv, (small, delta[small], x0[small]) if small.size else None
            w[k] = x0[delta == 0.0].sum().real
            zero[k] = (x0 @ inv).real
            whole[k] = ((x0 * np.outer(e[:g].conj(), e[:g]).ravel()) @ inv).real - zero[k]
            whole[k] += (_phi(delta[small], d) @ x0[small]).real
    whole += w * durations
    return w, forms, np.concatenate(([0.0], np.cumsum(whole[:-1]))) - zero


def _folded_constants(alpha: np.ndarray, evo_a: LocalEvolution, rows_a: np.ndarray,
                      evo_b: LocalEvolution, rows_b: np.ndarray) -> np.ndarray:
    """C of runs on rows (rows_a, rows_b), folded onto the rows' distinct phasors.

    C = (L_A^T conj(alpha) L_B) * (R_A alpha R_B^T) gives the overlap as
    z_A C z_B over the frame terms. Its rows and columns that share a
    phasor are summed, P_A^T C P_B with the one-hot term maps P (``paths.
    FrameTables.rep``), so the overlap is y_A^T (P_A^T C P_B) y_B over the
    distinct phasors y. Runs x W_A x W_B at the paths' storage widths, zero
    past each run's G_A x G_B (every term maps below G, and a padded term's
    zero frames add nothing to the phasor it maps to).
    """
    fa, fb = evo_a.frames, evo_b.frames
    c = fa.left[rows_a].transpose(0, 2, 1) @ alpha.conj() @ fb.left[rows_b]
    c *= fa.right[rows_a] @ alpha @ fb.right[rows_b].transpose(0, 2, 1)
    fold_a = np.eye(fa.rep.shape[1])[fa.rep[rows_a]]
    fold_b = np.eye(fb.rep.shape[1])[fb.rep[rows_b]]
    return fold_a.transpose(0, 2, 1) @ c @ fold_b


def _pairs(y_a: np.ndarray, y_b: np.ndarray) -> np.ndarray:
    """Products y_a[s, g] y_b[s, h] of each sample s, flattened to s x (g, h)."""
    return (y_a[:, :, None] * y_b[:, None, :]).reshape(len(y_a), -1)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _chunks(lo: np.ndarray, end: np.ndarray) -> tuple:
    """(run, start, size, block) of every chunk: run r's samples [lo[r], end[r])
    in chunks of at most ``CHUNK_ROWS`` and blocks of b = ceil(sqrt(size))."""
    count = -(-(end - lo) // CHUNK_ROWS)
    start = np.repeat(lo, count) + CHUNK_ROWS * _offsets(count)
    size = np.minimum(start + CHUNK_ROWS, np.repeat(end, count)) - start
    return np.repeat(np.arange(count.size), count), start, size, np.ceil(np.sqrt(size)).astype(int)


def _streamed_trace(alpha0: CoefficientMatrix, evo_a: LocalEvolution,
                    evo_b: LocalEvolution, grid: TimeGrid) -> tuple:
    """(times, overlap, dynamical phase, residuals) of alpha(t) = U_A alpha0 U_B^T,
    one run of grid samples at a time, for ``_finalize_trace``.

    A run is a maximal stretch of samples on which each path stays on one
    row (``LocalEvolution.row_starts``), from its end on its row n. Its rows
    give the overlap's matrix C, folded onto their distinct phasors
    (``_folded_constants``, for ``RUN_BLOCK`` runs at a time), and each
    path's frequency, read from the path's tables built once per trace
    (``_row_integrals``). The dynamical phase is exact at every sample: per
    path, the integral up to the owning row's start, which may lie between
    samples, plus the row's own integral to tau = t - start, w tau and on a
    Bloch row the sum of its form's antiderivative and small-Delta terms.

    Phasors are taken at the ideal times i dt. In a chunk of m samples
    (``_chunks``) in blocks of b, sample i = q b + j (j < b) has the phasors
    of sample q b times e^{i w j dt}. So its overlap is one matrix product,
    (X^T Y).ravel()[:m] with X[(g, h), q] = C_gh y_A,g(q b) y_B,h(q b) and
    Y[(g, h), j] = e^{i (w_A,g + w_B,h) j dt}, and so is a Bloch row's
    integral: Re of the same product over its (g, g') pairs, with its form in
    X and e^{i Delta j dt} / (i Delta) in Y, or on a small-Delta pair
    phi(Delta, j dt), to which each coarse sample adds its own
    x0 phi(Delta, tau). One call per path gives every chunk's coarse phasors
    (``grid_phasors``) and one every run's fine ones (``step_phasors``).
    Residuals: see ``PhaseTrace``.
    """
    _check_rate_guard(evo_a.max_phase_rate + evo_b.max_phase_rate, grid)
    alpha, dt = alpha0.alpha, grid.dt
    rho_a, rho_b = reduced_densities(alpha0)
    w_a, forms_a, bases_a = _row_integrals(evo_a, rho_a)
    w_b, forms_b, bases_b = _row_integrals(evo_b, rho_b)
    times = grid.times()
    n = times.size
    overlap = np.empty(n, dtype=complex)
    dyn = np.empty(n)
    (first_a, rows_a), (first_b, rows_b) = evo_a.row_starts(grid), evo_b.row_starts(grid)
    fa, fb = evo_a.frames, evo_b.frames
    unit = max(fa.unitarity[rows_a].max(), fb.unitarity[rows_b].max())
    det = max(fa.determinant_residual[rows_a].max(), fb.determinant_residual[rows_b].max())
    # a set, not np.union1d, which imports numpy.ma (about 1 MiB) on first use
    lo = np.array(sorted({*first_a.tolist(), *first_b.tolist()}))
    rows_a = rows_a[np.searchsorted(first_a, lo, side="right") - 1]
    rows_b = rows_b[np.searchsorted(first_b, lo, side="right") - 1]
    hi = np.append(lo[1:], n)
    # each run's integral up to its first sample, and its unitary rows' slope
    base = (bases_a[rows_a] + w_a[rows_a] * sum(evo_a.row_times(rows_a, lo, dt))
            + bases_b[rows_b] + w_b[rows_b] * sum(evo_b.row_times(rows_b, lo, dt)))
    slope = w_a[rows_a] + w_b[rows_b]
    run, start, size, block = _chunks(lo, hi)
    per = -(-size // block)                       # coarse samples per chunk
    index = np.repeat(start, per) + np.repeat(block, per) * _offsets(per)
    coarse_rows_a, coarse_rows_b = rows_a[np.repeat(run, per)], rows_b[np.repeat(run, per)]
    coarse_a = evo_a.grid_phasors(coarse_rows_a, index, dt)
    coarse_b = evo_b.grid_phasors(coarse_rows_b, index, dt)
    tau_a = sum(evo_a.row_times(coarse_rows_a, index, dt))
    tau_b = sum(evo_b.row_times(coarse_rows_b, index, dt))
    chunk = np.searchsorted(run, np.arange(lo.size + 1))
    wide = np.maximum.reduceat(block, chunk[:-1])  # each run's largest block
    fine_a = evo_a.step_phasors(np.repeat(rows_a, wide), _offsets(wide), dt)
    fine_b = evo_b.step_phasors(np.repeat(rows_b, wide), _offsets(wide), dt)
    step_times = np.arange(wide.max(initial=0)) * dt
    q_lo, f_lo = np.cumsum(per) - per, np.cumsum(wide) - wide
    chunks = list(zip(start.tolist(), size.tolist(), block.tolist(), q_lo.tolist(),
                      per.tolist()))
    runs = zip(lo.tolist(), hi.tolist(), rows_a.tolist(), rows_b.tolist(),
               fa.distinct[rows_a].tolist(), fb.distinct[rows_b].tolist(),
               chunk.tolist(), chunk[1:].tolist(), f_lo.tolist(), wide.tolist(),
               base.tolist(), slope.tolist())
    for r, (lo_r, hi_r, ka, kb, ga, gb, c0, c1, f0, w, base_r, slope_r) in enumerate(runs):
        if not r % RUN_BLOCK:
            folded = _folded_constants(alpha, evo_a, rows_a[r:r + RUN_BLOCK],
                                       evo_b, rows_b[r:r + RUN_BLOCK])
        c = folded[r % RUN_BLOCK, :ga, :gb].ravel()
        step_a, step_b = fine_a[f0:f0 + w, :ga], fine_b[f0:f0 + w, :gb]
        fine = _pairs(step_a, step_b).T
        forms = []                                # the run's Bloch rows
        for form, g, cols, tau, step in ((forms_a[ka], ga, coarse_a, tau_a, step_a),
                                         (forms_b[kb], gb, coarse_b, tau_b, step_b)):
            if form is not None:
                f, inv, small = form
                y = _pairs(step.conj(), step).T * inv[:, None]
                if small is not None:
                    y[small[0]] = _phi(small[1][:, None], step_times[:w])
                forms.append((f, y, small, cols[:, :g], tau))
        dyn[lo_r:hi_r] = base_r + slope_r * (times[lo_r:hi_r] - times[lo_r])
        for s, m, b, q, p in chunks[c0:c1]:
            x = _pairs(coarse_a[q:q + p, :ga], coarse_b[q:q + p, :gb])
            x *= c
            overlap[s:s + m] = (x @ fine[:, :b]).ravel()[:m]
            for f, y, small, cols, tau in forms:
                x = _pairs(cols[q:q + p].conj(), cols[q:q + p])
                x *= f
                x = (x @ y[:, :b]).real
                if small is not None:
                    x += (_phi(small[1], tau[q:q + p, None]) @ small[2]).real[:, None]
                dyn[s:s + m] += x.ravel()[:m]
    return times, overlap, dyn, (float(unit), float(det))


def run_trace(alpha0: CoefficientMatrix, pair: PairEvolution) -> PhaseTrace:
    """Run a two-qudit trace over the pair's time grid.

    The dynamical phase is the exact integral of the frequency on every row,
    unitary or Bloch, whether or not a segment boundary falls on a sample.
    """
    if pair.a.d != alpha0.d_a or pair.b.d != alpha0.d_b:
        raise ValueError(
            f"state is {alpha0.d_a}x{alpha0.d_b} but the paths act on "
            f"{pair.a.d} and {pair.b.d}")
    return _finalize_trace(*_streamed_trace(alpha0, pair.a, pair.b, pair.grid))


def single_qudit_trace(rho0: QuditDensity, evo: LocalEvolution, grid: TimeGrid) -> PhaseTrace:
    """Run a single-qudit trace, overlap Tr[rho0 U(t)], over a uniform grid.

    The qudit runs as its purified pair: alpha = sqrt(rho0) with qudit B held
    at the identity, so Tr[alpha^dag U alpha] = Tr[rho0 U]. As in a pair, the
    path's boundaries may fall anywhere, and a path shorter than the grid holds its end.
    """
    if evo.d != rho0.d:
        raise ValueError("path dimension does not match the state")
    return run_trace(purify(rho0), PairEvolution(evo, identity_evolution(evo.d, evo.duration),
                                                 grid))


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


def _refine_peak(t: np.ndarray, mag: np.ndarray, total: np.ndarray, k: int,
                 cuts: np.ndarray) -> tuple[float, float, float]:
    """(time, phase, magnitude) of the peak at sample k by a three-point quadratic
    fit; the sample itself at either end of the grid or when one of the sorted
    ``cuts`` lies strictly between t[k - 1] and t[k + 1], where |f| has a kink."""
    if (k == 0 or k == t.size - 1
            or np.searchsorted(cuts, t[k - 1], side="right") < np.searchsorted(cuts, t[k + 1])):
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


def _lattice_labels(evo: LocalEvolution, times: list) -> list:
    """Fractional index n per event time where the path's U(t) is a center
    element e^{2 pi i n/d} 1 within ``CLOSURE_TOL``, else None.

    U = coset factor times diag(e^{i chi}), both read once for all events.
    """
    u = evo.coset_factor(times) * np.exp(1j * evo.cartan_levels(times))[:, None, :]
    n, dev = center_power(u)
    return [int(k) % evo.d if ok else None
            for k, ok in zip(n.tolist(), (dev <= CLOSURE_TOL).tolist())]


def detect_cycles(trace: PhaseTrace, pair: PairEvolution, eps: float = 1e-9) -> CycleScan:
    """Locate overlap-magnitude maxima exceeding 1 - eps on the pair's trace.

    Peaks are refined by a three-point quadratic fit, except beside a segment
    boundary of either path, where |f| has a kink (``_refine_peak``). Each
    event is annotated with the fractional index of each path whose U(t) is a
    center element e^{2 pi i n/d} 1 there (``_lattice_labels``), else None;
    a single qudit's held partner B is the identity, so its n_b is 0.
    """
    mag = trace.overlap_mag
    t = trace.t
    cuts = np.sort(np.concatenate([pair.a.boundaries(), pair.b.boundaries()]))
    hits = mag >= 1.0 - eps
    continuum = bool(hits.all())
    if continuum:
        peaks = [(float(t[0]), float(trace.total_phase[0]), float(mag[0]))]
    else:
        # runs of hits as [start, stop) pairs: the rising and falling edges. A
        # run's largest sample is a local maximum: its neighbours outside the
        # run are below 1 - eps (magnitudes are finite, ``_finalize_trace``).
        edges = np.flatnonzero(np.diff(hits, prepend=False, append=False))
        peaks = [_refine_peak(t, mag, trace.total_phase, k + int(np.argmax(mag[k:stop])), cuts)
                 for k, stop in zip(edges[0::2].tolist(), edges[1::2].tolist())]
    times = [tc for tc, _, _ in peaks]
    events = tuple(CyclicEvent(t_cycle=tc, phase=pc, overlap_mag=mc, n_a=n_a, n_b=n_b)
                   for (tc, pc, mc), n_a, n_b in zip(peaks, _lattice_labels(pair.a, times),
                                                     _lattice_labels(pair.b, times)))
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
        dist = circular_distance(phase, self.values)
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
