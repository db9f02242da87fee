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

Construction checks every segment's type and dimension against the path and
every segment, zero-duration ones too, against the coordinates it arrives at;
it drops zero-duration segments and lowers the rest in one pass, one branch
per kind that writes its row of tables (start coordinates, right Cartan rates,
(theta, phi) rates and frames) and advances the coordinates; a last row n holds
the end. Every query reads those rows; U(t) has one evaluator, the frame rows,
which both the trace kernel and ``coset_factor`` (V W = U diag(e^{-i chi})) read.

Every row is also one fixed-frame sum of exponentials,
``U(t) = L_k diag(exp(i (c_k + w_k tau))) R_k`` with tau = t - start_k: a
Cartan ramp or hold has L = V_k W0, R = 1, c = chi0 and w = rates; a generator
segment has L = V_k E (E the eigenvectors of G), R = E^dag W0 diag(exp(i chi0)),
c = 0 and w = the eigenvalues of G, with V_k = V(theta_k, phi_k) the row's
constant coset factor (1 without a Bloch segment). On a ``BlochLoop`` row theta
and phi are linear in tau, so V(theta, phi) W0 diag(exp(i chi0)) is an exact
sum of 8 rank-one terms with exponents +-theta/2 + (i - j) phi: L is 2 x 8 and
R is 8 x 2 (see ``FrameTables``). A row has K live terms, d or 8 on a Bloch row,
and G <= K distinct phasors: terms with bit-equal (phase0, rate) share one (6
on a Bloch row, 1 on the identity hold). The trace kernel takes a row's
distinct phasors at ideal grid times i dt (``grid_phasors``, ``step_phasors``):
the argument is formed in double-double and reduced mod 2 pi, so each phasor
is within about 1 ulp of exact whatever its argument. A boundary may fall
anywhere: a row owns the grid samples with i dt >= its start, decided exactly
(``TimeGrid.start_samples``), and the float times t >= its start
(``_segment_index``); row n holds the end. Paths are immutable after
construction and sampling is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sud import make_generators

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

# Largest entry of |W - e^{2 pi i m/d} 1| at which a coset factor W counts as
# closed to the center (cycle labels and Cartan trajectories).
CLOSURE_TOL = 1e-8
# Largest theta and phi (mod 2 pi) mismatch of a closed Bloch loop (``solid_angle``).
_LOOP_CLOSURE_TOL = 1e-9
# Dekker's splitter (a = hi + lo in 26-bit halves) and 2 pi = _TWO_PI + _TWO_PI_LO
# to double-double precision.
_SPLITTER = 2.0 ** 27 + 1.0
_TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16


def _check_segment(duration, **values) -> None:
    """Refuse NaN and infinite inputs (None is absent), which would pass every
    later comparison, and a negative duration."""
    for name, value in dict(values, duration=duration).items():
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    if duration < 0:
        raise ValueError("duration must be nonnegative")


@dataclass(frozen=True)
class CartanLinear:
    """Per-level phase rates chi_dot_n (summing to zero) over a duration."""

    rates: np.ndarray
    duration: float

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 1 or rates.size < 2:
            raise ValueError("rates must be a vector of per-level phase rates")
        _check_segment(self.duration, rates=rates)
        s = rates.sum()
        if abs(s) > 1e-9 * max(1.0, np.abs(rates).max()):
            raise ValueError(f"per-level rates must sum to zero, got {s:g}")
        rates = rates - rates.mean()
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)


@dataclass(frozen=True)
class CartanHold:
    """Freeze the Cartan angles for a duration.

    ``angles`` optionally pins the expected accumulated per-level phases at
    the start of the hold; a mismatch is an authoring error.
    """

    duration: float
    angles: np.ndarray | None = None

    def __post_init__(self):
        _check_segment(self.duration, angles=self.angles)
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
        _check_segment(self.duration, theta_end=self.theta_end, phi_rate=self.phi_rate,
                       theta_start=self.theta_start)


@dataclass(frozen=True)
class GeneratorConst:
    """Constant traceless Hermitian generator G; the factor is exp(i G tau)."""

    generator: np.ndarray
    duration: float

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("generator must be a square matrix")
        _check_segment(self.duration, generator=g)
        scale = max(1.0, np.abs(g).max())
        if np.abs(g - g.conj().T).max() > 1e-12 * scale:
            raise ValueError("generator must be Hermitian")
        if abs(np.trace(g)) > 1e-12 * g.shape[0] * scale:
            raise ValueError("generator must be traceless")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)

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
    with zero columns, phases and rates, storage only, and its left frame
    carries the row's constant coset factor, left = V(theta_k, phi_k) left. A
    Bloch row (``rectangular``) is the exact 8-term sum of V(theta, phi) F with
    F = W0 diag(exp(i chi0)): term (s, i, j), s = +-1, has the exponent
    s theta/2 + (i - j) phi, left column e_i and right row coef F[j], coef 1/2
    on i = j and s/2 otherwise; its first two terms are e^{+-i theta/2}.

    Rows are written per segment kind, in one pass (``LocalEvolution._build_tables``).
    Row n holds the end: row n - 1's frames and residuals, rates 0, and each
    phase advanced exactly to the end (an empty path's row 0: the identity).

    Live terms with bit-equal (phase0, rate) have one phasor: a Bloch row's
    8 terms have 6 (the i = j terms share +-theta/2), the identity hold has
    1, and a ramp with repeated rates from equal start phases fewer than d.
    Row k has ``distinct[k]`` = G distinct phasors; ``lead[k, g]`` is the
    first term of phasor g (g < G, in term order) and ``rep[k, j]`` the
    phasor of term j, so the K terms' phasors are z[rep[k, :K]] for the G
    phasors z of ``LocalEvolution.grid_phasors``.

    ``unitarity`` is the row's largest |F^dag F - 1| entry over both frames of
    a unitary row, and on a Bloch row the largest of |F^dag F - 1| for its
    factor F and of the term sum's deviation from V(theta, phi) F at both ends
    of the row. ``determinant`` is det U over the product of the first d
    phasors: det(left) det(right) on a unitary row, det(W0) e^{i sum chi0} on
    a Bloch row, where det V = e^{i theta/2} e^{-i theta/2}.
    ``determinant_residual`` is |det U - 1| at the row's two ends, the larger.
    """

    left: np.ndarray
    right: np.ndarray
    phase0: np.ndarray
    rate: np.ndarray
    unitarity: np.ndarray
    determinant: np.ndarray
    determinant_residual: np.ndarray
    rectangular: np.ndarray
    rep: np.ndarray
    lead: np.ndarray
    distinct: np.ndarray


# The 8 rank-one terms (s, i, j) of V(theta, phi): exponent (theta, phi) @ _BLOCH_EXPONENT
# = s theta/2 + (i - j) phi, coefficient 1/2 on i = j and s/2 otherwise. The first two
# carry e^{+-i theta/2}.
_BLOCH_S, _BLOCH_I, _BLOCH_J = np.array([(1, 0, 0), (-1, 0, 0), (1, 1, 1), (-1, 1, 1),
                                         (1, 0, 1), (-1, 0, 1), (1, 1, 0), (-1, 1, 0)]).T
_BLOCH_EXPONENT = np.array([_BLOCH_S / 2.0, _BLOCH_I - _BLOCH_J])
_BLOCH_COEF = np.where(_BLOCH_I == _BLOCH_J, 0.5, 0.5 * _BLOCH_S)


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


def _distinct_terms(phase0: np.ndarray, rate: np.ndarray, live: np.ndarray) -> tuple:
    """(rep, lead, distinct) of every row at once (see ``FrameTables``): the
    live terms j < live[k] of row k with bit-equal (phase0, rate) share the
    phasor of the first of them, numbered in term order."""
    width = rate.shape[1]
    terms = np.arange(width)
    bits = np.stack([phase0, rate], axis=-1).view(np.int64)
    same = (bits[:, :, None] == bits[:, None, :]).all(axis=-1)     # [k, i, j]: term i is term j
    first = same.argmax(axis=1)                                   # the first such i
    is_lead = (first == terms) & (terms < live[:, None])
    rep = np.take_along_axis(np.cumsum(is_lead, axis=1) - 1, first, axis=1)
    return rep, np.argsort(~is_lead, axis=1, kind="stable"), is_lead.sum(axis=1)


def _two_sum(a, b) -> tuple:
    """(s, e): s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b) -> tuple:
    """(p, e): p = fl(a b) and p + e = a b exactly (Dekker); e = 0 where a
    factor is too large to split (past 2^996)."""
    p = a * b
    with np.errstate(over="ignore", invalid="ignore"):
        sa, sb = _SPLITTER * a, _SPLITTER * b
        a_hi, b_hi = sa - (sa - a), sb - (sb - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, np.where(np.isnan(e), 0.0, e)


def _exact_argument(phase0, rate, tau, tau_lo) -> np.ndarray:
    """phase0 + rate (tau + tau_lo) mod 2 pi, formed in double-double and reduced
    before one rounding: its exponential is within about 1 ulp of exact at any size."""
    arg, err = _two_prod(rate, tau)
    err += rate * tau_lo
    arg, e = _two_sum(phase0, arg)
    err += e
    turns = np.rint(arg / _TWO_PI)
    whole, lost = _two_prod(turns, _TWO_PI)
    arg, e = _two_sum(arg, -whole)
    err += e - lost - turns * _TWO_PI_LO
    return arg + err


class LocalEvolution:
    """Ordered segment list defining one qudit's local SU(d) path."""

    def __init__(self, d: int, segments):
        if int(d) != d or d < 2:
            raise ValueError("dimension must be an integer >= 2")
        self.d = int(d)
        segs = []
        for seg in segments:    # the dimension checks also refuse zero-duration segments
            if not isinstance(seg, (CartanLinear, CartanHold, BlochLoop, GeneratorConst)):
                raise TypeError(f"unknown segment type {type(seg).__name__}")
            if isinstance(seg, GeneratorConst):
                if seg.generator.shape[0] != self.d:
                    raise ValueError("generator dimension does not match the path")
                if seg.is_diagonal():
                    seg = CartanLinear(np.diagonal(seg.generator).real, seg.duration)
            if isinstance(seg, CartanLinear) and seg.rates.size != self.d:
                raise ValueError(f"segment rates must have length {self.d}")
            if isinstance(seg, BlochLoop) and self.d != 2:
                raise ValueError("Bloch segments are only defined for d = 2")
            segs.append(seg)
        self.segments = tuple(seg for seg in segs if seg.duration > 0)
        self._build_tables(segs)

    def _build_tables(self, authored):
        """Lower every segment to one table row in one pass; row n holds the end.

        Row k holds the coordinates at the segment start (``chi0`` and the
        (theta, phi) pair ``bloch0``), the right Cartan rates, the (theta, phi)
        rates and the row's frames (``frames``, see ``FrameTables``). Every
        authored segment, zero-duration ones too, is first checked against
        the coordinates it arrives at (pinned hold angles, a Bloch
        ``theta_start``, a zero-duration Bloch ``theta_end``); then the kept
        ones take one branch per kind that writes the row and advances chi,
        (theta, phi) and the generator product W0. Then the square d-term
        frames take their coset factor V(theta_k, phi_k) and their residuals,
        and every row its distinct phasors (``_distinct_terms``) and |det U - 1|
        at both ends, all rows at once; Bloch rows keep what their branch
        wrote. Nothing after construction asks which kind a segment is.
        """
        n, d = len(self.segments), self.d
        self.has_bloch = any(isinstance(s, BlochLoop) for s in self.segments)
        self.is_diagonal = all(isinstance(s, (CartanLinear, CartanHold)) for s in self.segments)
        width = _BLOCH_S.size if self.has_bloch else d
        durations = self._durations = np.array([s.duration for s in self.segments] + [0.0])
        with np.errstate(over="ignore"):
            ends = self._ends = np.cumsum(durations[:n])
        if not np.isfinite(ends).all():
            raise ValueError("the path's total duration must be finite")
        self.duration = float(ends[-1]) if n else 0.0
        self._starts = np.append(ends, self.duration) - durations
        rates = self._rates = np.zeros((n + 1, d))
        chi0 = self._chi0 = np.zeros((n + 1, d))
        bloch_rate = self._bloch_rate = np.zeros((n + 1, 2))
        bloch0 = self._bloch0 = np.empty((n + 1, 2))
        square = np.tile(np.eye(d, dtype=complex), (2, n + 1, 1, 1))  # unitary d-term frames
        left = np.zeros((n + 1, d, width), dtype=complex)
        right = np.zeros((n + 1, width, d), dtype=complex)
        phase0 = np.zeros((n + 1, width))
        rate = np.zeros((n + 1, width))
        unitarity = np.empty(n + 1)
        determinant = np.empty(n + 1, dtype=complex)
        rectangular = np.zeros(n + 1, dtype=bool)
        chi, w, theta, phi = np.zeros(d), np.eye(d, dtype=complex), 0.0, 0.0
        k = 0                                           # the row the next kept segment writes
        for seg in authored:
            if isinstance(seg, CartanHold) and seg.angles is not None and (
                    seg.angles.shape != (d,) or np.abs(seg.angles - chi).max() > 1e-9):
                raise ValueError(f"hold segment {k} pins angles {seg.angles} but the "
                                 f"path arrives with {chi}")
            if isinstance(seg, BlochLoop):              # a later start, an end in zero time
                for at, pin in (("starts", seg.theta_start if k else None),
                                ("ends in zero time", None if seg.duration else seg.theta_end)):
                    if pin is not None and abs(pin - theta) > 1e-9:
                        raise ValueError(f"Bloch segment {k} {at} at theta = {pin:g} but the "
                                         f"path arrives at {theta:g}")
            if not seg.duration:
                continue
            chi0[k], bloch0[k] = chi, (theta, phi)
            if isinstance(seg, CartanLinear):           # frames (V W0, 1)
                square[0, k], phase0[k, :d], rates[k], rate[k, :d] = w, chi, seg.rates, seg.rates
                chi = chi + seg.rates * seg.duration
            elif isinstance(seg, CartanHold):
                square[0, k], phase0[k, :d] = w, chi
            elif isinstance(seg, GeneratorConst):       # frames (V E, E^dag W0 diag(e^{i chi}))
                rate[k, :d], square[0, k] = np.linalg.eigh(seg.generator)
                e = square[0, k]
                square[1, k] = e.conj().T @ w * np.exp(1j * chi)
                w = (e * np.exp(1j * rate[k, :d] * seg.duration)) @ e.conj().T @ w
            else:                                       # the 8-term sum of V(theta, phi) F
                if seg.theta_start is not None and k == 0:
                    theta = bloch0[0, 0] = float(seg.theta_start)
                theta_end = float(seg.theta_end)
                bloch_rate[k] = (theta_end - theta) / seg.duration, seg.phi_rate
                phi_end = phi + bloch_rate[k, 1] * seg.duration
                f = w * np.exp(1j * chi)
                rectangular[k] = True
                left[k], right[k] = np.eye(2)[:, _BLOCH_I], _BLOCH_COEF[:, None] * f[_BLOCH_J]
                phase0[k], rate[k] = np.array([bloch0[k], bloch_rate[k]]) @ _BLOCH_EXPONENT
                tau = np.array([0.0, seg.duration])
                terms = (left[k] * np.exp(1j * (phase0[k] + tau[:, None] * rate[k]))[:, None, :]
                         @ right[k])
                authored = _bloch_matrix([theta, theta_end], [phi, phi_end]) @ f
                unitarity[k] = max(np.abs(f.conj().T @ f - np.eye(2)).max(),
                                   np.abs(terms - authored).max())
                determinant[k] = np.linalg.det(w) * np.exp(1j * chi.sum())
                theta, phi = theta_end, phi_end
            k += 1
        bloch0[n] = theta, phi
        if n:       # row n: row n - 1 at the end, as ``_advance`` and ``grid_phasors`` take it
            last, (tau, tau_lo) = n - 1, _two_sum(self.duration, -self._starts[n - 1])
            chi0[n] = chi0[last] + tau * rates[last]
            phase0[n] = _exact_argument(phase0[last], rate[last], tau, tau_lo)
            for table in (square[0], square[1], left, right, rectangular, unitarity, determinant):
                table[n] = table[last]
        if self.has_bloch:
            square[0] = _bloch_matrix(*bloch0.T) @ square[0]
        both = square.reshape(2 * (n + 1), d, d)
        unit = np.abs(both.conj().transpose(0, 2, 1) @ both - np.eye(d)).max(axis=(1, 2))
        det = np.linalg.det(both)
        rows = ~rectangular
        left[rows, :, :d], right[rows, :d] = square[0, rows], square[1, rows]
        unitarity[rows] = np.maximum(unit[:n + 1], unit[n + 1:])[rows]
        determinant[rows] = (det[:n + 1] * det[n + 1:])[rows]
        rep, lead, distinct = _distinct_terms(phase0, rate, np.where(rectangular, width, d))
        # the distinct terms' (phase0, rate) first, in lead order (``grid_phasors``)
        self._leads = [np.take_along_axis(x, lead, axis=1) for x in (phase0, rate)]
        tau = np.stack([np.zeros(n + 1), np.append(ends, self.duration) - self._starts])
        z = np.exp(1j * (phase0[:, :d] + tau[:, :, None] * rate[:, :d])).prod(axis=-1)
        residual = np.abs(determinant * z - 1.0).max(axis=0)
        residual[n] = residual[n - 1]           # row n has row n - 1's, as its other tables
        self.frames = FrameTables(left=left, right=right, phase0=phase0, rate=rate,
                                  unitarity=unitarity, determinant=determinant,
                                  determinant_residual=residual, rectangular=rectangular,
                                  rep=rep, lead=lead, distinct=distinct)

    # -- coordinate queries -------------------------------------------------

    def _segment_index(self, t: np.ndarray) -> np.ndarray:
        """Owning table row per time: the last row whose start is at or before t.
        A boundary belongs to the row it starts, the end to row n, which holds it."""
        return np.searchsorted(self._ends, t, side="right")

    def row_starts(self, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
        """(first sample, row) of every row that owns samples of the grid: a row
        starts at its boundary's ``TimeGrid.start_samples`` sample, row n at the end's."""
        first = np.concatenate(([0], grid.start_samples(self._ends)))
        owns = np.append(first[1:], grid.steps + 1) > first
        return first[owns], np.flatnonzero(owns)

    def _times(self, times) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if t.size and t.min() < 0.0:
            raise ValueError(f"negative time {t.min():g}")
        return t

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
        """Coset factor V(theta, phi) W(t) = U(t) diag(exp(-i chi(t))), stacked
        over the samples, with U = L diag(z) R read from each sample's frame row."""
        t = self._times(times)
        k = self._segment_index(t)
        f = self.frames
        z = np.exp(1j * self._advance(f.phase0, f.rate, t, k))
        u = (f.left[k] * z[:, None, :]) @ f.right[k]
        return u * np.exp(-1j * self._advance(self._chi0, self._rates, t, k))[:, None, :]

    # -- frame sampling -----------------------------------------------------

    def row_times(self, rows: np.ndarray, index: np.ndarray, dt: float) -> tuple:
        """(tau, tau_lo): the ideal time index[s] dt less the start of row rows[s],
        exact as tau + tau_lo in double-double."""
        t, t_lo = _two_prod(np.asarray(index, dtype=float), dt)
        tau, tau_lo = _two_sum(t, -self._starts[rows])
        return tau, tau_lo + t_lo

    def grid_phasors(self, rows: np.ndarray, index: np.ndarray, dt: float) -> np.ndarray:
        """Distinct phasors of row rows[s] at the ideal time index[s] dt, per sample s.

        Columns g < G are the row's G distinct terms (``FrameTables.lead``),
        the rest padding. index dt is exact in double-double and each phasor is
        within about 1 ulp of exact; row n, with rates 0, holds the end.
        """
        tau, tau_lo = self.row_times(rows, index, dt)
        phase0, rate = (x[rows] for x in self._leads)
        return np.exp(1j * _exact_argument(phase0, rate, tau[:, None], tau_lo[:, None]))

    def step_phasors(self, rows: np.ndarray, steps: np.ndarray, dt: float) -> np.ndarray:
        """exp(i w j dt), the advance over j = steps[s] grid steps of row rows[s]'s
        distinct phasors (rates w), laid out and exact as ``grid_phasors``."""
        j, j_lo = _two_prod(np.asarray(steps, dtype=float), dt)
        return np.exp(1j * _exact_argument(0.0, self._leads[1][rows], j[:, None], j_lo[:, None]))

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
    """Uniform grid on [0, t_max]: ``steps`` steps of dt = t_max / steps, any
    integer count >= 2. The engine takes sample i at the ideal time i dt."""

    t_max: float
    steps: int

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if (isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer))
                or self.steps < 2):
            raise ValueError("steps must be an integer >= 2")
        if not self.dt > 0:
            raise ValueError(f"t_max / steps underflows to zero (steps = {self.steps})")

    @property
    def dt(self) -> float:
        return self.t_max / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)

    def start_samples(self, boundaries) -> np.ndarray:
        """The first sample i with i dt >= b for each boundary b, ``steps + 1``
        past the grid: a row that starts at b owns the samples from there.
        i dt is compared with b exactly, in double-double."""
        dt = self.dt
        # b / dt from b clipped to sample steps + 1, so that it cannot overflow
        b = np.minimum(boundaries, (self.steps + 1) * dt)
        first = np.ceil(b / dt)
        # the quotient's rounding moves ceil by at most one sample either way
        p, e = _two_prod(first - 1.0, dt)
        first -= (p - b) + e >= 0.0
        p, e = _two_prod(first, dt)
        first += (p - b) + e < 0.0
        return np.minimum(first, self.steps + 1).astype(int)


@dataclass(frozen=True)
class PairEvolution:
    """Local evolutions for qudits A and B on a shared uniform time grid. A
    boundary may fall anywhere; a path shorter than the grid holds its end."""

    a: LocalEvolution
    b: LocalEvolution
    grid: TimeGrid


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


def cartan_trajectory(evo: LocalEvolution, times) -> CartanTrajectory:
    """Accumulated Cartan angles h(t) with h(0) = 0 and unwrapped levels.

    The factorization U = V(theta, phi) W diag(e^{i chi}) is only defined where
    the generator product W has closed to a center element e^{2 pi i m/d} 1
    (on a path without generator segments W = 1 and m = 0); the levels there
    are shifted by 2 pi m/d (h is not: the Cartan basis is traceless). The
    Bloch factor V is the coset coordinate and may be anything. Querying an
    open W raises.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    w = evo.coset_factor(t)
    if evo.has_bloch:
        theta, phi = evo._advance(evo._bloch0, evo._bloch_rate, t, evo._segment_index(t)).T
        w = _bloch_matrix(theta, phi).conj().transpose(0, 2, 1) @ w
    m, dev = center_power(w)
    bad = np.flatnonzero(dev > CLOSURE_TOL)
    if bad.size:
        raise ValueError(
            f"coset factor open at t = {t[bad[0]]:g} (deviation "
            f"{dev[bad[0]]:.3g}); Cartan angles are undefined there")
    levels = evo.cartan_levels(t)
    return CartanTrajectory(times=t, levels=levels + (2.0 * math.pi / evo.d) * m[:, None],
                            h=make_generators(evo.d).h_from_levels(levels))


def _segment_area(theta_a: float, theta_b: float, phi_rate: float, duration: float) -> float:
    """phi_rate * integral of (1 - cos theta(tau)) over the segment."""
    if duration == 0.0 or phi_rate == 0.0:
        return 0.0
    if abs(theta_b - theta_a) < 1e-14:
        return phi_rate * duration * (1.0 - math.cos(theta_a))
    avg_cos = (math.sin(theta_b) - math.sin(theta_a)) / (theta_b - theta_a)
    return phi_rate * duration * (1.0 - avg_cos)


def solid_angle(evo: LocalEvolution) -> float:
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
    if abs(theta_end - theta_start) > _LOOP_CLOSURE_TOL:
        raise ValueError(
            f"open Bloch path: theta runs from {theta_start:g} to {theta_end:g}")
    phi_residue = math.remainder(dphi, 2.0 * math.pi)
    if abs(math.sin(theta_start)) > _LOOP_CLOSURE_TOL and abs(phi_residue) > _LOOP_CLOSURE_TOL:
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
    when diag(e^{i angles}) is within ``tol`` of that center element
    (``center_power``); otherwise None, also when the phasors agree off the center.
    """
    levels = np.asarray(getattr(angles, "levels", angles), dtype=float)
    if d is None:
        d = levels.shape[-1]
    elif levels.shape[-1] != d:
        raise ValueError(f"expected {d} per-level phases")
    n, dev = center_power(np.diag(np.exp(1j * levels)))
    return int(n) % d if dev <= tol else None
