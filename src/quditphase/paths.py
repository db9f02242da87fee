"""Time-parametrized local unitary paths and their Cartan/coset structure.

A path is an ordered list of segments acting on piecewise coordinates:

* ``CartanLinear`` advances per-level phases chi_n at constant rates;
* ``CartanHold`` freezes them;
* ``BlochLoop`` (d = 2 only) moves the coset coordinates (theta, phi) with a
  linear theta ramp and constant phi rate;
* ``GeneratorConst`` multiplies a constant-generator factor exp(i G tau) onto
  the coset sector (a diagonal G is folded into the Cartan coordinates).

The synthesized unitary is the factorized product
``U(t) = V(theta, phi) W(t) diag(e^{i chi_n(t)})`` where V is the explicit
SU(2) coset matrix and W the ordered product of generator factors.

Construction lowers every segment once to a row of tables: its start
coordinates, right Cartan rates, (theta, phi) rates, generator eigenpairs and
constant left generator. Every query reads those rows, so
``dU/dt = i (L U + U diag(rates))`` holds on every segment with L the closed
form Bloch generator on a ``BlochLoop`` and ``V G V^dag`` on a
``GeneratorConst``.

Without a Bloch segment every row is one fixed-frame exponential,
``U(t) = L_k diag(exp(i (c_k + w_k tau))) R_k`` with tau = t - start_k: a
Cartan ramp or hold has L = W0, R = 1, c = chi0 and w = rates; a generator
segment has L = E (the eigenvectors of G), R = E^dag W0 diag(exp(i chi0)),
c = 0 and w = the eigenvalues of G. Such a path is also sampled as its frame
phasors and row indices, O(n d) instead of O(n d^2). Paths are immutable after
construction and sampling is pure.
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
    """Per-row constant frames of a Bloch-free path.

    Row k gives ``U(t) = left[k] diag(exp(i (phase0[k] + rate[k] tau))) right[k]``
    on its segment. ``unitarity`` is the row's largest |F^dag F - 1| entry over
    both frames F and ``determinant`` is det(left[k]) det(right[k]).
    """

    left: np.ndarray
    right: np.ndarray
    phase0: np.ndarray
    rate: np.ndarray
    unitarity: np.ndarray
    determinant: np.ndarray


def _frame_tables(chi0, rates, evals, evecs, w0, gen_rows) -> FrameTables:
    """Fixed frames of every row: Cartan rows (W0, 1), generator rows
    (E, E^dag W0 diag(exp(i chi0)))."""
    rows, d = chi0.shape
    gen = np.zeros(rows, dtype=bool)
    gen[gen_rows] = True
    frames = np.empty((2, rows, d, d), dtype=complex)
    left, right = frames
    left[:] = np.where(gen[:, None, None], evecs, w0)
    right[:] = np.eye(d)
    for k in gen_rows:
        right[k] = evecs[k].conj().T @ w0[k] * np.exp(1j * chi0[k])
    both = frames.reshape(2 * rows, d, d)
    unitarity = np.abs(both.conj().transpose(0, 2, 1) @ both - np.eye(d)).max(axis=(1, 2))
    det = np.linalg.det(both)
    return FrameTables(left=left, right=right,
                       phase0=np.where(gen[:, None], 0.0, chi0),
                       rate=np.where(gen[:, None], evals, rates),
                       unitarity=np.maximum(unitarity[:rows], unitarity[rows:]),
                       determinant=det[:rows] * det[rows:])


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


def _bloch_generator(theta, phi, theta_dot, phi_dot) -> np.ndarray:
    """Hermitian A with dV/dt = i A V for the coset factor V(theta, phi).

    A = theta_dot/2 n.sigma + phi_dot (sin(theta)/2 m.sigma - sin^2(theta/2) sigma_z)
    with n = (cos phi, sin phi, 0) and m = (-sin phi, cos phi, 0).
    """
    s2 = phi_dot * np.sin(theta / 2.0) ** 2
    half = 0.5 * phi_dot * np.sin(theta)
    out = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    out[..., 0, 0] = -s2
    out[..., 1, 1] = s2
    out[..., 0, 1] = np.exp(-1j * phi) * (0.5 * theta_dot - 1j * half)
    out[..., 1, 0] = np.exp(1j * phi) * (0.5 * theta_dot + 1j * half)
    return out


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
        right Cartan rates, the (theta, phi) rates, the generator eigenpairs
        and the constant left generator of a generator segment. A path without
        a Bloch segment also gets its fixed frames (``frames``; None otherwise).
        Nothing after construction asks which kind a segment is.
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
        left = np.zeros((n + 1, d, d), dtype=complex)
        w0 = np.empty((n + 1, d, d), dtype=complex)
        w0[0] = np.eye(d)
        gen_rows = []
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
                theta_end = float(seg.theta_end)
                bloch_rate[k] = ((theta_end - bloch0[k, 0]) / seg.duration, seg.phi_rate)
            elif isinstance(seg, GeneratorConst):
                gen_rows.append(k)
                evals[k], evecs[k] = np.linalg.eigh(seg.generator)
                left[k] = seg.generator
                if self.has_bloch:
                    v = _bloch_matrix(*bloch0[k])
                    left[k] = v @ seg.generator @ v.conj().T
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
        self._left = left
        self._moves_left = left.any(axis=(1, 2)) | bloch_rate.any(axis=1)
        self._w0 = w0
        self.is_identity = self.is_diagonal and not rates.any()
        self.frames = (None if self.has_bloch else
                       _frame_tables(chi0, rates, evals, evecs, w0, gen_rows))
        self.duration = t

    # -- coordinate queries -------------------------------------------------

    def _segment_index(self, t: np.ndarray, side: str = "right") -> np.ndarray:
        """Owning table row per sample; ``side`` resolves exact-boundary ties.

        Times within a small absolute tolerance of a segment boundary count
        as exactly on it, so linspace grids that differ from the accumulated
        boundary by rounding still resolve deterministically. An empty path
        maps every sample to its trailing hold row.
        """
        if side == "right":
            idx = np.searchsorted(self._ends, t + _BOUNDARY_TOL, side="right")
        else:
            idx = np.searchsorted(self._ends, t - _BOUNDARY_TOL, side="left")
        return np.minimum(idx, max(len(self.segments) - 1, 0))

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

    def bloch_coordinates(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(theta(t), phi(t)) coordinates of the d = 2 coset factor."""
        t = self._times(times)
        theta, phi = self._advance(self._bloch0, self._bloch_rate, t,
                                   self._segment_index(t)).T
        return theta, phi

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

    # -- synthesis ------------------------------------------------------------

    def sample(self, times, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        """Synthesize (U, dU/dt) stacks on the given times.

        U is special unitary by construction and always sampled from the
        segment that starts at t. dU/dt = i (L U + U diag(rates)) with the
        row's right Cartan rates and left generator L; at interior segment
        boundaries ``side`` picks which row owns the (one-sided) derivative.
        """
        t = self._times(times)
        right = self._segment_index(t)
        chi = self._advance(self._chi0, self._rates, t, right)
        U = self._coset(t, right) * np.exp(1j * chi)[:, None, :]
        idx = right if side == "right" else self._segment_index(t, side=side)
        Ud = U * (1j * self._rates[idx])[:, None, :]
        moving = self._moves_left[idx]
        if moving.any():
            t, idx = t[moving], idx[moving]
            left = self._left[idx]
            if self.has_bloch:
                theta, phi = self._advance(self._bloch0, self._bloch_rate, t, idx).T
                left += _bloch_generator(theta, phi, *self._bloch_rate[idx].T)
            Ud[moving] += (1j * left) @ U[moving]
        return U, Ud

    def phasors(self, times, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        """Frame phasors z = exp(i (c + w tau)) and the owning row of each sample.

        On a path without a Bloch segment U(t) = L[k] diag(z) R[k] with the
        ``frames`` of row k, so (z, k) carries what ``sample`` stacks in O(n d)
        instead of O(n d^2); dU/dt = L[k] diag(i w[k] z) R[k]. ``side`` picks
        the row at interior segment boundaries, as in ``sample``; z is given
        in that row's frame.
        """
        if self.frames is None:
            raise ValueError("frame phasors describe paths without Bloch segments only")
        t = self._times(times)
        idx = self._segment_index(t, side=side)
        if self.is_identity:        # exp(i 0) on every row, without the exponentials
            return np.ones((t.size, self.d), dtype=complex), idx
        return np.exp(1j * self._advance(self.frames.phase0, self.frames.rate, t, idx)), idx

    def synthesize(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Single-time (U, dU/dt)."""
        U, Ud = self.sample([t])
        return U[0], Ud[0]

    @property
    def max_phase_rate(self) -> float:
        """Largest per-level phase rate driven by any segment (rad per time)."""
        theta_dot, phi_dot = np.abs(self._bloch_rate).T
        return float(max(np.abs(self._rates).max(), np.abs(self._evals).max(),
                         (phi_dot + 0.5 * theta_dot).max()))

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


def cartan_trajectory(evo: LocalEvolution, times, basis: GeneratorBasis | None = None,
                      closure_tol: float = 1e-8) -> CartanTrajectory:
    """Accumulated Cartan angles h(t) with h(0) = 0 and unwrapped levels.

    For paths containing non-diagonal constant-generator segments the
    factorization is only defined where that coset factor has closed; querying
    it elsewhere raises.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if evo.has_generator:
        w = evo._base_coset(np.clip(t, 0.0, evo.duration), evo._segment_index(t))
        dev = np.abs(w - np.eye(evo.d)).max(axis=(1, 2))
        bad = np.flatnonzero(dev > closure_tol)
        if bad.size:
            raise ValueError(
                f"coset factor open at t = {t[bad[0]]:g} (deviation "
                f"{dev[bad[0]]:.3g}); Cartan angles are undefined there")
    if basis is None:
        basis = make_generators(evo.d)
    levels = evo.cartan_levels(t)
    return CartanTrajectory(times=t, levels=levels, h=basis.h_from_levels(levels))


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
