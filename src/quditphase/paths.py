"""Time-parametrized local unitary paths and their Cartan/coset structure.

A path is an ordered list of segments acting on piecewise coordinates:

* ``CartanLinear`` advances per-level phases chi_n at constant rates;
* ``CartanHold`` freezes them;
* ``BlochLoop`` (d = 2 only) moves the coset coordinates (theta, phi) with a
  linear theta ramp and constant phi rate;
* ``GeneratorConst`` multiplies a constant-generator factor exp(i G tau) onto
  the coset sector (a diagonal G is folded into the Cartan coordinates).

The path's unitary is the factorized product
``U(t) = V(theta, phi) W(t) diag(e^{i chi_n(t)})`` where V is the explicit
SU(2) coset matrix and W the ordered product of generator factors.

Construction lowers every segment once to a row of tables: its start
coordinates, right Cartan rates, (theta, phi) rates and generator eigenpairs.
Every query reads those rows.

Every row is also one fixed-frame sum of exponentials,
``U(t) = L_k diag(exp(i (c_k + w_k tau))) R_k`` with tau = t - start_k: a
Cartan ramp or hold has L = V_k W0, R = 1, c = chi0 and w = rates; a generator
segment has L = V_k E (E the eigenvectors of G), R = E^dag W0 diag(exp(i chi0)),
c = 0 and w = the eigenvalues of G, with V_k = V(theta_k, phi_k) the row's
constant coset factor (1 without a Bloch segment). On a ``BlochLoop`` row theta
and phi are linear in tau, so V(theta, phi) W0 diag(exp(i chi0)) is an exact
sum of 8 rank-one terms with exponents +-theta/2 + (i - j) phi: L is 2 x 8 and
R is 8 x 2 (see ``FrameTables``). The trace kernel samples a path one row at a
time as its frame phasors (``row_phasors``), K x m per call of m samples with the
row's live width K: d, or 8 on a Bloch row. A call of ``TABLE_PHASORS`` or more
builds them from O(sqrt(m) K) exponentials (``_table_phasors``), so sampling is
O(n K) multiplies and O(sqrt(m) K) exponentials per call. Paths are immutable
after construction and sampling is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sud import GeneratorBasis, make_generators

__all__ = [
    "CartanLinear",
    "CartanHold",
    "BlochLoop",
    "GeneratorConst",
    "LocalEvolution",
    "TimeGrid",
    "PairEvolution",
    "CartanTrajectory",
    "identity_evolution",
    "cartan_trajectory",
    "solid_angle",
    "lattice_condition_check",
]

_BOUNDARY_TOL = 1e-9
# Calls of at least this many phasors (samples x frame terms) build them from
# tables (``_table_phasors``). Below it one exponential per phasor is cheaper
# than the tables' fixed numpy-call cost: measured with one BLAS thread on a
# 2-vCPU x86 host, the two tie at about 2048 phasors and the tables win by
# 15-20% at 3072, for K = 2, 3 and 8 terms.
TABLE_PHASORS = 3072


@dataclass(frozen=True)
class CartanLinear:
    """Per-level phase rates chi_dot_n (summing to zero) over a duration."""

    rates: np.ndarray
    duration: float

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 1 or rates.size < 2:
            raise ValueError("rates must be a vector of per-level phase rates")
        s = rates.sum()
        if abs(s) > 1e-9 * max(1.0, np.abs(rates).max()):
            raise ValueError(f"per-level rates must sum to zero, got {s:g}")
        rates = rates - rates.mean()
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")


@dataclass(frozen=True)
class CartanHold:
    """Freeze the Cartan angles for a duration.

    ``angles`` optionally pins the expected accumulated per-level phases at
    the start of the hold; a mismatch is an authoring error.
    """

    duration: float
    angles: np.ndarray | None = None

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.angles is not None:
            object.__setattr__(self, "angles", np.asarray(self.angles, dtype=float))


@dataclass(frozen=True)
class BlochLoop:
    """Bloch-sphere coset motion for d = 2: linear theta ramp, constant phi rate.

    ``theta_start = None`` continues from the current coordinate. An explicit
    nonzero start is only accepted on the first segment of a path; such a path
    does not begin at the identity and is rejected by the trace runners.
    """

    theta_end: float
    phi_rate: float
    duration: float
    theta_start: float | None = None

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")


@dataclass(frozen=True)
class GeneratorConst:
    """Constant traceless Hermitian generator G; the factor is exp(i G tau)."""

    generator: np.ndarray
    duration: float

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("generator must be a square matrix")
        scale = max(1.0, np.abs(g).max())
        if np.abs(g - g.conj().T).max() > 1e-12 * scale:
            raise ValueError("generator must be Hermitian")
        if abs(np.trace(g)) > 1e-12 * g.shape[0] * scale:
            raise ValueError("generator must be traceless")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")

    def is_diagonal(self) -> bool:
        off = self.generator - np.diag(np.diagonal(self.generator))
        return bool(np.abs(off).max() <= 1e-12 * max(1.0, np.abs(self.generator).max()))


@dataclass(frozen=True)
class FrameTables:
    """Per-row frames of a path, stored at one width per path (d, or 8 with a Bloch segment).

    Row k gives ``U(t) = left[k] diag(exp(i (phase0[k] + rate[k] tau))) right[k]``
    on its segment, left d x K and right K x d at the row's live width K: d,
    or 8 on a ``rectangular`` row. A Cartan, hold or generator row is a
    unitary d-term frame; on a path with a Bloch segment it is padded to 8
    with zero columns, phases and rates, storage only (``LocalEvolution.
    row_frame`` drops them), and its left frame carries the row's constant
    coset factor, left = V(theta_k, phi_k) left. A Bloch row
    (``rectangular``) is the exact 8-term sum of V(theta, phi) F with
    F = W0 diag(exp(i chi0)): term (s, i, j), s = +-1, has the exponent
    s theta/2 + (i - j) phi, left column e_i and right row coef F[j], coef 1/2
    on i = j and s/2 otherwise; its first two terms are e^{+-i theta/2}.

    ``unitarity`` is the row's largest |F^dag F - 1| entry over both frames of
    a unitary row, and on a Bloch row the largest of |F^dag F - 1| for its
    factor F and of the term sum's deviation from V(theta, phi) F at both ends
    of the row. ``determinant`` is det U over the product of the first d
    phasors: det(left) det(right) on a unitary row, det(W0) e^{i sum chi0} on
    a Bloch row, where det V = e^{i theta/2} e^{-i theta/2}.
    """

    left: np.ndarray
    right: np.ndarray
    phase0: np.ndarray
    rate: np.ndarray
    unitarity: np.ndarray
    determinant: np.ndarray
    rectangular: np.ndarray


# The 8 rank-one terms (s, i, j) of V(theta, phi): exponent (theta, phi) @ _BLOCH_EXPONENT
# = s theta/2 + (i - j) phi, coefficient 1/2 on i = j and s/2 otherwise. The first two
# carry e^{+-i theta/2}.
_BLOCH_S, _BLOCH_I, _BLOCH_J = np.array([(1, 0, 0), (-1, 0, 0), (1, 1, 1), (-1, 1, 1),
                                         (1, 0, 1), (-1, 0, 1), (1, 1, 0), (-1, 1, 0)]).T
_BLOCH_EXPONENT = np.array([_BLOCH_S / 2.0, _BLOCH_I - _BLOCH_J])
_BLOCH_COEF = np.where(_BLOCH_I == _BLOCH_J, 0.5, 0.5 * _BLOCH_S)


def _frame_tables(chi0, rates, evals, evecs, w0, gen_rows, bloch=None) -> FrameTables:
    """Frames of every row. Cartan rows (V W0, 1) and generator rows
    (V E, E^dag W0 diag(exp(i chi0))) are unitary, with V = 1 on a path
    without a Bloch segment. A path with one passes ``bloch`` = (bloch0,
    bloch_rate, durations, bloch_rows): V = V(theta_k, phi_k), the width is 8
    and each Bloch row is the 8-term sum of V(theta, phi) F,
    F = W0 diag(exp(i chi0))."""
    rows, d = chi0.shape
    width = d if bloch is None else _BLOCH_S.size
    gen = np.zeros(rows, dtype=bool)
    gen[gen_rows] = True
    left = np.zeros((rows, d, width), dtype=complex)
    right = np.zeros((rows, width, d), dtype=complex)
    phase0 = np.zeros((rows, width))
    rate = np.zeros((rows, width))
    square = np.empty((2, rows, d, d), dtype=complex)       # the unitary d-term frames
    square[0] = np.where(gen[:, None, None], evecs, w0)
    if bloch is not None:
        square[0] = _bloch_matrix(*bloch[0].T) @ square[0]
    square[1] = np.eye(d)
    for k in gen_rows:
        square[1, k] = evecs[k].conj().T @ w0[k] * np.exp(1j * chi0[k])
    left[:, :, :d], right[:, :d] = square
    phase0[:, :d] = np.where(gen[:, None], 0.0, chi0)
    rate[:, :d] = np.where(gen[:, None], evals, rates)
    both = square.reshape(2 * rows, d, d)
    unitarity = np.abs(both.conj().transpose(0, 2, 1) @ both - np.eye(d)).max(axis=(1, 2))
    det = np.linalg.det(both)
    unitarity = np.maximum(unitarity[:rows], unitarity[rows:])
    determinant = det[:rows] * det[rows:]
    rectangular = np.zeros(rows, dtype=bool)
    if bloch is not None:
        bloch0, bloch_rate, durations, bloch_rows = bloch
        rectangular[bloch_rows] = True
        for k in bloch_rows:
            f = w0[k] * np.exp(1j * chi0[k])
            left[k] = np.eye(2)[:, _BLOCH_I]
            right[k] = _BLOCH_COEF[:, None] * f[_BLOCH_J]
            phase0[k], rate[k] = np.array([bloch0[k], bloch_rate[k]]) @ _BLOCH_EXPONENT
            ends = np.array([0.0, durations[k]])
            terms = (left[k] * np.exp(1j * (phase0[k] + ends[:, None] * rate[k]))[:, None, :]
                     @ right[k])
            authored = _bloch_matrix(*bloch0[k:k + 2].T) @ f
            unitarity[k] = max(np.abs(f.conj().T @ f - np.eye(2)).max(),
                               np.abs(terms - authored).max())
            determinant[k] = np.linalg.det(w0[k]) * np.exp(1j * chi0[k].sum())
    return FrameTables(left=left, right=right, phase0=phase0, rate=rate,
                       unitarity=unitarity, determinant=determinant,
                       rectangular=rectangular)


def _bloch_matrix(theta, phi) -> np.ndarray:
    """Explicit SU(2) coset factor, identity at theta = 0."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    out = np.empty(np.broadcast(theta, phi).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 1, 1] = c
    out[..., 0, 1] = 1j * s * np.exp(-1j * phi)
    out[..., 1, 0] = 1j * s * np.exp(1j * phi)
    return out


def _table_phasors(t: np.ndarray, tau: np.ndarray, phase0: np.ndarray, rate: np.ndarray,
                   past: np.ndarray) -> np.ndarray:
    """exp(i arg), arg = phase0 + tau rate, K x m, on uniform times t from
    O(sqrt(m) K) exponentials.

    arg rounds as in the direct formula. With b = ceil(sqrt(m)) and sample
    i = q b + j, arg_i = arg_qb + j dt w + delta_i, where delta_i is at
    rounding level on a uniform grid: the rounding of t and of arg itself. So
    exp(i arg_i) = exp(i arg_qb) exp(i j dt w) (1 + i delta_i) up to
    delta_i^2 / 2: a coarse table of every b-th sample times a fine table of
    the b steps, corrected to first order. delta_i needs arg_i - arg_qb exact,
    which holds (Sterbenz) where |arg_qb| is at least twice the span of its
    block; blocks under three spans from the origin, and the samples ``past``
    the path's end (clipped to it, so off the grid), take the direct
    exponential. The blocks are padded to a whole number of b samples, and z
    is a view of the first m. Times that are not uniform raise ValueError.
    """
    m, K = t.size, rate.size
    dt = (t[-1] - t[0]) / (m - 1)
    tol = 64.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    if not np.abs(t - (t[0] + dt * np.arange(m))).max() <= tol:
        raise ValueError("table phasors need uniform times, a slice of a grid")
    b = math.isqrt(m - 1) + 1
    padded = np.empty((K, -(-m // b) * b))
    arg = padded[:, :m]
    np.multiply(tau, rate[:, None], out=arg)
    arg += phase0[:, None]
    padded[:, m:] = arg[:, -1:]
    blocks = padded.reshape(K, -1, b)
    coarse = blocks[:, :, 0]
    step = rate[:, None] * (dt * np.arange(b))        # j dt w, K x b
    delta = blocks - coarse[:, :, None]
    delta -= step[:, None, :]
    z = np.exp(1j * coarse)[:, :, None] * np.exp(1j * step)[:, None, :]
    z *= 1.0 + 1j * delta
    near = np.abs(coarse) < 3.0 * np.abs(step[:, -1:])
    if near.any():
        z[near] = np.exp(1j * blocks[near])
    z = z.reshape(K, -1)[:, :m]
    if past.any():
        z[:, past] = np.exp(1j * arg[:, past])
    return z


class LocalEvolution:
    """Ordered segment list defining one qudit's local SU(d) path."""

    def __init__(self, d: int, segments):
        if int(d) != d or d < 2:
            raise ValueError("dimension must be an integer >= 2")
        self.d = int(d)
        segs = []
        for seg in segments:
            if isinstance(seg, GeneratorConst):
                if seg.generator.shape[0] != self.d:
                    raise ValueError("generator dimension does not match the path")
                if seg.is_diagonal():
                    seg = CartanLinear(np.diagonal(seg.generator).real, seg.duration)
            if isinstance(seg, CartanLinear) and seg.rates.size != self.d:
                raise ValueError(f"segment rates must have length {self.d}")
            if isinstance(seg, BlochLoop) and self.d != 2:
                raise ValueError("Bloch segments are only defined for d = 2")
            if seg.duration > 0:
                segs.append(seg)
        self.segments = tuple(segs)
        self._build_tables()

    def _build_tables(self):
        """Lower every segment to one table row; row n is a trailing hold.

        Row k holds the coordinates at the segment start (``chi0``, the
        (theta, phi) pair ``bloch0`` and the generator product ``w0``), the
        right Cartan rates, the (theta, phi) rates and the generator
        eigenpairs, and every row gets its frames (``frames``, see
        ``FrameTables``). Nothing after construction asks which kind a
        segment is.
        """
        n, d = len(self.segments), self.d
        self.has_bloch = any(isinstance(s, BlochLoop) for s in self.segments)
        self.has_generator = any(isinstance(s, GeneratorConst) for s in self.segments)
        self.is_diagonal = not (self.has_bloch or self.has_generator)
        durations = np.zeros(n + 1)
        ends = np.zeros(n)
        rates = np.zeros((n + 1, d))
        chi0 = np.zeros((n + 1, d))
        bloch_rate = np.zeros((n + 1, 2))
        bloch0 = np.zeros((n + 1, 2))
        evals = np.zeros((n + 1, d))
        evecs = np.zeros((n + 1, d, d), dtype=complex)
        w0 = np.empty((n + 1, d, d), dtype=complex)
        w0[0] = np.eye(d)
        gen_rows, bloch_rows = [], []
        t = 0.0
        for k, seg in enumerate(self.segments):
            durations[k] = seg.duration
            theta_end = bloch0[k, 0]
            w0[k + 1] = w0[k]
            if isinstance(seg, CartanLinear):
                rates[k] = seg.rates
            elif isinstance(seg, CartanHold):
                if seg.angles is not None:
                    if seg.angles.shape != (d,) or np.abs(seg.angles - chi0[k]).max() > 1e-9:
                        raise ValueError(
                            f"hold segment {k} pins angles {seg.angles} but the "
                            f"path arrives with {chi0[k]}")
            elif isinstance(seg, BlochLoop):
                if seg.theta_start is not None:
                    if k == 0:
                        bloch0[0, 0] = float(seg.theta_start)
                    elif abs(seg.theta_start - bloch0[k, 0]) > 1e-9:
                        raise ValueError(
                            f"Bloch segment {k} starts at theta = {seg.theta_start:g} "
                            f"but the path arrives at {bloch0[k, 0]:g}")
                bloch_rows.append(k)
                theta_end = float(seg.theta_end)
                bloch_rate[k] = ((theta_end - bloch0[k, 0]) / seg.duration, seg.phi_rate)
            elif isinstance(seg, GeneratorConst):
                gen_rows.append(k)
                evals[k], evecs[k] = np.linalg.eigh(seg.generator)
                w0[k + 1] = ((evecs[k] * np.exp(1j * evals[k] * seg.duration))
                             @ evecs[k].conj().T @ w0[k])
            else:
                raise TypeError(f"unknown segment type {type(seg).__name__}")
            t += seg.duration
            ends[k] = t
            chi0[k + 1] = chi0[k] + rates[k] * seg.duration
            bloch0[k + 1] = theta_end, bloch0[k, 1] + bloch_rate[k, 1] * seg.duration
        self._ends = ends
        self._starts = np.append(ends, t) - durations
        self._durations = durations
        self._rates = rates
        self._chi0 = chi0
        self._bloch_rate = bloch_rate
        self._bloch0 = bloch0
        self._evals = evals
        self._evecs = evecs
        self._gen_rows = gen_rows
        self._w0 = w0
        self.frames = _frame_tables(chi0, rates, evals, evecs, w0, gen_rows,
                                    (bloch0, bloch_rate, durations, bloch_rows)
                                    if self.has_bloch else None)
        self.duration = t

    # -- coordinate queries -------------------------------------------------

    def _segment_index(self, t: np.ndarray) -> np.ndarray:
        """Owning table row per sample: a boundary belongs to the segment it starts.

        Times within a small absolute tolerance of a segment boundary count
        as exactly on it, so linspace grids that differ from the accumulated
        boundary by rounding still resolve deterministically. An empty path
        maps every sample to its trailing hold row.
        """
        idx = np.searchsorted(self._ends, t + _BOUNDARY_TOL, side="right")
        return np.minimum(idx, max(len(self.segments) - 1, 0))

    def row_starts(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(first sample, row) of every row that owns samples of ascending times t.

        Each sample has the owner ``_segment_index`` gives it: one within
        ``_BOUNDARY_TOL`` of a boundary belongs to the later row. One
        searchsorted of the boundaries into the times finds the cuts.
        """
        first = np.concatenate(([0], np.searchsorted(t + _BOUNDARY_TOL, self._ends[:-1])))
        owns = np.append(first[1:], t.size) > first
        return first[owns], np.flatnonzero(owns)

    def _check_range(self, t: np.ndarray) -> np.ndarray:
        if t.size and (t.min() < -_BOUNDARY_TOL or t.max() > self.duration + _BOUNDARY_TOL):
            raise ValueError(
                f"time outside [0, {self.duration:g}]: range [{t.min():g}, {t.max():g}]")
        return np.clip(t, 0.0, self.duration)

    def _times(self, times) -> np.ndarray:
        return self._check_range(np.atleast_1d(np.asarray(times, dtype=float)))

    def _advance(self, start: np.ndarray, rate: np.ndarray, t: np.ndarray,
                 idx: np.ndarray) -> np.ndarray:
        """Table coordinates ``start + tau * rate`` in each sample's row."""
        return start[idx] + (t - self._starts[idx])[:, None] * rate[idx]

    def cartan_levels(self, times) -> np.ndarray:
        """Accumulated per-level phases chi_n(t), unwrapped (no mod 2 pi)."""
        t = self._times(times)
        return self._advance(self._chi0, self._rates, t, self._segment_index(t))

    def cartan_rates(self, times) -> np.ndarray:
        """Per-level phase rates d chi_n/dt, taken from the segment that starts at t."""
        return self._rates[self._segment_index(self._times(times))]

    def coset_factor(self, times) -> np.ndarray:
        """Authored coset factor V(theta, phi) W(t), stacked over the samples."""
        t = self._times(times)
        return self._coset(t, self._segment_index(t))

    def _coset(self, t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        w = self._base_coset(t, idx)
        if self.has_bloch:
            theta, phi = self._advance(self._bloch0, self._bloch_rate, t, idx).T
            w = _bloch_matrix(theta, phi) @ w
        return w

    def _base_coset(self, t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Generator-product factor W(t) without the Bloch piece."""
        w = self._w0[idx]
        for k in self._gen_rows:
            m = idx == k
            if not m.any():
                continue
            tau = t[m] - self._starts[k]
            evecs = self._evecs[k]
            phase = np.exp(1j * self._evals[k][None, :] * tau[:, None])
            w[m] = (evecs * phase[:, None, :]) @ (evecs.conj().T @ self._w0[k])
        return w

    # -- frame sampling -----------------------------------------------------

    def row_frame(self, k: int) -> tuple:
        """(left, right, phase0, rate) of row k at its live width (see ``FrameTables``)."""
        f = self.frames
        width = f.rate.shape[1] if f.rectangular[k] else self.d
        return f.left[k, :, :width], f.right[k, :width], f.phase0[k, :width], f.rate[k, :width]

    def row_phasors(self, k: int, t: np.ndarray) -> np.ndarray:
        """Frame phasors z = exp(i (c + w (t - start))) of row k at times t, K x m.

        U(t) = L diag(z) R and dU/dt = L diag(i w z) R with (L, R, c, w) =
        ``row_frame(k)``; row j of z is frame term j over the m times. A row
        without rates (a hold, or a path held at the identity) takes one
        exponential, broadcast over the times. A call of fewer than
        ``TABLE_PHASORS`` phasors takes one exponential per phasor; a larger
        one needs uniform times t (a slice of a grid) and builds z from
        O(sqrt(m) K) exponentials (``_table_phasors``).
        """
        _, _, phase0, rate = self.row_frame(k)
        if not rate.any():
            return np.broadcast_to(np.exp(1j * phase0)[:, None], (phase0.size, t.size))
        tau = np.minimum(t, self.duration) - self._starts[k]   # past the end is the end
        if t.size * rate.size < TABLE_PHASORS or t.size < 16:    # 16: too few to tabulate
            return np.exp(1j * (phase0[:, None] + tau * rate[:, None]))
        return _table_phasors(t, tau, phase0, rate, t > self.duration)

    @property
    def max_phase_rate(self) -> float:
        """Largest frame phase rate |w| of any row (rad per time): the per-level
        rates, the generator eigenvalues and |phi_dot| + |theta_dot|/2 on a Bloch row."""
        return float(np.abs(self.frames.rate).max())

    def boundaries(self) -> np.ndarray:
        return self._ends.copy()


def identity_evolution(d: int, duration: float) -> LocalEvolution:
    """Path holding the identity for the given duration."""
    return LocalEvolution(d, [CartanHold(duration)])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_max] with an even number of steps."""

    t_max: float
    steps: int

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.steps < 2 or self.steps % 2:
            raise ValueError("steps must be an even integer >= 2 (Simpson rule)")

    @property
    def dt(self) -> float:
        return self.t_max / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)


def off_grid_boundary(boundaries, t_max: float, steps: int) -> float | None:
    """First boundary before t_max whose b / dt misses an integer by more than
    1e-9 max(1, steps) on the uniform grid, or None."""
    dt = t_max / steps
    for b in boundaries:
        if b >= t_max - _BOUNDARY_TOL:
            continue
        r = b / dt
        if abs(r - round(r)) > 1e-9 * max(1.0, steps):
            return b
    return None


@dataclass(frozen=True)
class PairEvolution:
    """Local evolutions for qudits A and B on a shared uniform time grid."""

    a: LocalEvolution
    b: LocalEvolution
    grid: TimeGrid

    def __post_init__(self):
        for label, evo in (("A", self.a), ("B", self.b)):
            if evo.duration < self.grid.t_max - _BOUNDARY_TOL:
                raise ValueError(
                    f"path {label} is defined on [0, {evo.duration:g}] but the "
                    f"grid extends to {self.grid.t_max:g}")
            b = off_grid_boundary(evo.boundaries(), self.grid.t_max, self.grid.steps)
            if b is not None:
                raise ValueError(
                    f"segment boundary t = {b:g} of path {label} does not fall on "
                    f"the grid (steps = {self.grid.steps}); choose a step count "
                    "that subdivides every segment")


@dataclass(frozen=True)
class CartanTrajectory:
    """Sampled accumulated Cartan angles of a path."""

    times: np.ndarray
    levels: np.ndarray
    h: np.ndarray


def center_power(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, deviation) per stacked d x d factor w: the center element
    e^{2 pi i m/d} 1 nearest w[0, 0] and the largest entry of |w - it|."""
    d = w.shape[-1]
    m = np.rint(d * np.angle(w[..., 0, 0]) / (2.0 * math.pi)).astype(int)
    center = np.exp(2j * math.pi * m / d)[..., None, None] * np.eye(d)
    return m, np.abs(w - center).max(axis=(-2, -1))


def cartan_trajectory(evo: LocalEvolution, times, basis: GeneratorBasis | None = None,
                      closure_tol: float = 1e-8) -> CartanTrajectory:
    """Accumulated Cartan angles h(t) with h(0) = 0 and unwrapped levels.

    For paths containing non-diagonal constant-generator segments the
    factorization is only defined where that coset factor has closed to a
    center element e^{2 pi i m/d} 1; the levels there are shifted by
    2 pi m/d (h is not: the Cartan basis is traceless). Querying an open
    coset factor raises.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    m = np.zeros(t.size, dtype=int)
    if evo.has_generator:
        w = evo._base_coset(np.clip(t, 0.0, evo.duration), evo._segment_index(t))
        m, dev = center_power(w)
        bad = np.flatnonzero(dev > closure_tol)
        if bad.size:
            raise ValueError(
                f"coset factor open at t = {t[bad[0]]:g} (deviation "
                f"{dev[bad[0]]:.3g}); Cartan angles are undefined there")
    if basis is None:
        basis = make_generators(evo.d)
    levels = evo.cartan_levels(t)
    return CartanTrajectory(times=t, levels=levels + (2.0 * math.pi / evo.d) * m[:, None],
                            h=basis.h_from_levels(levels))


def _segment_area(theta_a: float, theta_b: float, phi_rate: float, duration: float) -> float:
    """phi_rate * integral of (1 - cos theta(tau)) over the segment."""
    if duration == 0.0 or phi_rate == 0.0:
        return 0.0
    if abs(theta_b - theta_a) < 1e-14:
        return phi_rate * duration * (1.0 - math.cos(theta_a))
    avg_cos = (math.sin(theta_b) - math.sin(theta_a)) / (theta_b - theta_a)
    return phi_rate * duration * (1.0 - avg_cos)


def solid_angle(evo: LocalEvolution, closure_tol: float = 1e-9) -> float:
    """Oriented solid angle 2 * loop integral of sin^2(theta/2) d phi.

    The Bloch coordinate path must be closed: theta returns to its start and
    phi returns modulo 2 pi (any phi is accepted at the poles). Constant-theta
    loops give 2 pi (1 - cos theta) per winding; the angle is additive over
    concatenated loops and flips sign with the phi orientation.
    """
    if evo.d != 2:
        raise ValueError("solid angle is defined for d = 2 paths")
    if not evo.has_bloch:
        return 0.0
    theta, phi = evo._bloch0.T
    theta_start, theta_end = theta[0], theta[-1]
    dphi = phi[-1] - phi[0]
    if abs(theta_end - theta_start) > closure_tol:
        raise ValueError(
            f"open Bloch path: theta runs from {theta_start:g} to {theta_end:g}")
    phi_residue = math.remainder(dphi, 2.0 * math.pi)
    if abs(math.sin(theta_start)) > closure_tol and abs(phi_residue) > closure_tol:
        raise ValueError(
            f"open Bloch path: phi advances by {dphi:g}, not a multiple of 2 pi")
    omega = 0.0
    for a, b, rate, duration in zip(theta[:-1], theta[1:], evo._bloch_rate[:-1, 1],
                                    evo._durations[:-1]):
        omega += _segment_area(a, b, rate, duration)
    return float(omega)


def lattice_condition_check(angles, d: int | None = None, tol: float = 1e-8) -> int | None:
    """Integer n with exp(i h.H) = exp(2 pi i n / d) * identity, if any.

    ``angles`` is a per-level phase vector (or CartanAngles). Returns n mod d
    when all per-level phasors coincide within ``tol``; otherwise None.
    """
    levels = getattr(angles, "levels", angles)
    levels = np.asarray(levels, dtype=float)
    if d is None:
        d = levels.shape[-1]
    elif levels.shape[-1] != d:
        raise ValueError(f"expected {d} per-level phases")
    z = np.exp(1j * levels)
    if np.abs(z - z[0]).max() > tol:
        return None
    n = int(round(d * np.angle(z[0]) / (2.0 * math.pi))) % d
    return n
