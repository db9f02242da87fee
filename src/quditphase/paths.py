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
SU(2) coset matrix and W the ordered product of generator factors. Paths are
immutable after construction and sampling is pure.
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


def _bloch_matrix_dt(theta, phi, theta_dot, phi_dot) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    cdot = -0.5 * theta_dot * s
    sdot = 0.5 * theta_dot * c
    out = np.empty(np.broadcast(theta, phi).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cdot
    out[..., 1, 1] = cdot
    out[..., 0, 1] = np.exp(-1j * phi) * (1j * sdot + s * phi_dot)
    out[..., 1, 0] = np.exp(1j * phi) * (1j * sdot - s * phi_dot)
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
        n = len(self.segments)
        ends = np.zeros(n)
        chi0 = np.zeros((n + 1, self.d))
        theta0 = np.zeros(n + 1)
        phi0 = np.zeros(n + 1)
        w0 = [np.eye(self.d, dtype=complex)]
        gen_eig = [None] * n
        t = 0.0
        for k, seg in enumerate(self.segments):
            chi = chi0[k].copy()
            theta = theta0[k]
            phi = phi0[k]
            w = w0[k]
            if isinstance(seg, CartanLinear):
                chi = chi + seg.rates * seg.duration
            elif isinstance(seg, CartanHold):
                if seg.angles is not None:
                    if seg.angles.shape != (self.d,) or np.abs(seg.angles - chi0[k]).max() > 1e-9:
                        raise ValueError(
                            f"hold segment {k} pins angles {seg.angles} but the "
                            f"path arrives with {chi0[k]}")
            elif isinstance(seg, BlochLoop):
                if seg.theta_start is not None:
                    if k == 0:
                        theta = float(seg.theta_start)
                        theta0[0] = theta
                    elif abs(seg.theta_start - theta) > 1e-9:
                        raise ValueError(
                            f"Bloch segment {k} starts at theta = {seg.theta_start:g} "
                            f"but the path arrives at {theta:g}")
                theta = float(seg.theta_end)
                phi = phi + seg.phi_rate * seg.duration
            elif isinstance(seg, GeneratorConst):
                evals, evecs = np.linalg.eigh(seg.generator)
                gen_eig[k] = (evals, evecs)
                w = (evecs * np.exp(1j * evals * seg.duration)) @ evecs.conj().T @ w
            else:
                raise TypeError(f"unknown segment type {type(seg).__name__}")
            t += seg.duration
            ends[k] = t
            chi0[k + 1] = chi
            theta0[k + 1] = theta
            phi0[k + 1] = phi
            w0.append(w)
        self._ends = ends
        self._chi0 = chi0
        self._theta0 = theta0
        self._phi0 = phi0
        self._w0 = w0
        self._gen_eig = gen_eig
        self.duration = t
        self.has_bloch = any(isinstance(s, BlochLoop) for s in self.segments)
        self.has_generator = any(isinstance(s, GeneratorConst) for s in self.segments)
        self.is_diagonal = not (self.has_bloch or self.has_generator)

    # -- coordinate queries -------------------------------------------------

    def _segment_index(self, t: np.ndarray, side: str = "right") -> np.ndarray:
        """Owning segment per sample; ``side`` resolves exact-boundary ties.

        Times within a small absolute tolerance of a segment boundary count
        as exactly on it, so linspace grids that differ from the accumulated
        boundary by rounding still resolve deterministically.
        """
        if not self.segments:
            return np.zeros(t.shape, dtype=int)
        if side == "right":
            idx = np.searchsorted(self._ends, t + _BOUNDARY_TOL, side="right")
        else:
            idx = np.searchsorted(self._ends, t - _BOUNDARY_TOL, side="left")
        return np.minimum(idx, len(self.segments) - 1)

    def _check_range(self, t: np.ndarray) -> np.ndarray:
        if t.size and (t.min() < -_BOUNDARY_TOL or t.max() > self.duration + _BOUNDARY_TOL):
            raise ValueError(
                f"time outside [0, {self.duration:g}]: range [{t.min():g}, {t.max():g}]")
        return np.clip(t, 0.0, self.duration)

    def cartan_levels(self, times) -> np.ndarray:
        """Accumulated per-level phases chi_n(t), unwrapped (no mod 2 pi)."""
        t = self._check_range(np.atleast_1d(np.asarray(times, dtype=float)))
        idx = self._segment_index(t)
        chi = self._chi0[idx].copy()
        for k in np.flatnonzero([isinstance(s, CartanLinear) for s in self.segments]):
            m = idx == k
            if not m.any():
                continue
            tau = t[m] - (self._ends[k] - self.segments[k].duration)
            chi[m] += tau[:, None] * self.segments[k].rates[None, :]
        return chi

    def bloch_coordinates(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(theta(t), phi(t)) coordinates of the d = 2 coset factor."""
        t = self._check_range(np.atleast_1d(np.asarray(times, dtype=float)))
        idx = self._segment_index(t)
        theta = self._theta0[idx].copy()
        phi = self._phi0[idx].copy()
        for k, seg in enumerate(self.segments):
            if not isinstance(seg, BlochLoop):
                continue
            m = idx == k
            if not m.any():
                continue
            tau = t[m] - (self._ends[k] - seg.duration)
            start = self._theta0[k]
            slope = (seg.theta_end - start) / seg.duration
            theta[m] = start + slope * tau
            phi[m] = self._phi0[k] + seg.phi_rate * tau
        return theta, phi

    def coset_factor(self, times) -> np.ndarray:
        """Authored coset factor V(theta, phi) W(t), stacked over the samples."""
        t = self._check_range(np.atleast_1d(np.asarray(times, dtype=float)))
        w = self._base_coset(t, self._segment_index(t))
        if self.has_bloch:
            theta, phi = self.bloch_coordinates(t)
            w = _bloch_matrix(theta, phi) @ w
        return w

    # -- synthesis ------------------------------------------------------------

    def sample(self, times, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        """Synthesize (U, dU/dt) stacks on the given times.

        U is special unitary by construction. Derivatives are analytic within
        every segment; at interior segment boundaries ``side`` picks which
        segment owns the (one-sided) derivative.
        """
        t = self._check_range(np.atleast_1d(np.asarray(times, dtype=float)))
        n = t.size
        if not self.segments:
            U = np.broadcast_to(np.eye(self.d, dtype=complex), (n, self.d, self.d)).copy()
            return U, np.zeros_like(U)
        idx = self._segment_index(t, side=side)
        chi = self.cartan_levels(t)
        phase = np.exp(1j * chi)

        # coset pieces
        w = self.coset_factor(t)  # includes the Bloch factor when present
        U = w * phase[:, None, :]

        Ud = np.zeros((n, self.d, self.d), dtype=complex)
        for k in np.unique(idx):
            m = idx == k
            seg = self.segments[k]
            if isinstance(seg, CartanLinear):
                Ud[m] = U[m] * (1j * seg.rates)[None, None, :]
            elif isinstance(seg, CartanHold):
                pass
            elif isinstance(seg, BlochLoop):
                tau = t[m] - (self._ends[k] - seg.duration)
                start = self._theta0[k]
                slope = (seg.theta_end - start) / seg.duration
                theta = start + slope * tau
                phi = self._phi0[k] + seg.phi_rate * tau
                bdot = _bloch_matrix_dt(theta, phi, slope, seg.phi_rate)
                # rebuild the non-Bloch part of the factorization
                base = self._base_coset(t[m], np.full(m.sum(), k))
                Ud[m] = (bdot @ base) * phase[m][:, None, :]
            elif isinstance(seg, GeneratorConst):
                g = 1j * seg.generator
                if self.has_bloch:
                    theta, phi = self.bloch_coordinates(t[m])
                    b = _bloch_matrix(theta, phi)
                    base = self._base_coset(t[m], np.full(m.sum(), k))
                    Ud[m] = (b @ (g @ base)) * phase[m][:, None, :]
                else:
                    # U = W diag(e^{i chi}) with chi frozen here, so dU/dt = i G U
                    Ud[m] = g @ U[m]
        return U, Ud

    def _base_coset(self, t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Generator-product factor W(t) without the Bloch piece."""
        n = t.size
        w = np.empty((n, self.d, self.d), dtype=complex)
        if not self.segments:
            w[:] = np.eye(self.d)
            return w
        for k in np.unique(idx):
            m = idx == k
            seg = self.segments[k]
            if isinstance(seg, GeneratorConst):
                tau = t[m] - (self._ends[k] - seg.duration)
                evals, evecs = self._gen_eig[k]
                phase = np.exp(1j * evals[None, :] * tau[:, None])
                w[m] = (evecs * phase[:, None, :]) @ (evecs.conj().T @ self._w0[k])
            else:
                w[m] = self._w0[k]
        return w

    def synthesize(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Single-time (U, dU/dt)."""
        U, Ud = self.sample([t])
        return U[0], Ud[0]

    @property
    def max_phase_rate(self) -> float:
        """Largest per-level phase rate driven by any segment (rad per time)."""
        rate = 0.0
        for k, seg in enumerate(self.segments):
            if isinstance(seg, CartanLinear):
                rate = max(rate, float(np.abs(seg.rates).max()))
            elif isinstance(seg, BlochLoop):
                slope = (seg.theta_end - self._theta0[k]) / seg.duration
                rate = max(rate, abs(seg.phi_rate) + 0.5 * abs(slope))
            elif isinstance(seg, GeneratorConst):
                evals, _ = self._gen_eig[k]
                rate = max(rate, float(np.abs(evals).max()))
        return rate

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


def _check_snapping(evo: LocalEvolution, grid: TimeGrid, label: str) -> None:
    for b in evo.boundaries():
        if b >= grid.t_max - _BOUNDARY_TOL:
            continue
        r = b / grid.dt
        if abs(r - round(r)) > 1e-9 * max(1.0, grid.steps):
            raise ValueError(
                f"segment boundary t = {b:g} of path {label} does not fall on "
                f"the grid (steps = {grid.steps}); choose a step count that "
                "subdivides every segment")


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
            _check_snapping(evo, self.grid, label)


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
    theta_start = evo._theta0[0]
    theta_end = evo._theta0[-1]
    dphi = evo._phi0[-1] - evo._phi0[0]
    if abs(theta_end - theta_start) > closure_tol:
        raise ValueError(
            f"open Bloch path: theta runs from {theta_start:g} to {theta_end:g}")
    phi_residue = math.remainder(dphi, 2.0 * math.pi)
    if abs(math.sin(theta_start)) > closure_tol and abs(phi_residue) > closure_tol:
        raise ValueError(
            f"open Bloch path: phi advances by {dphi:g}, not a multiple of 2 pi")
    omega = 0.0
    for k, seg in enumerate(evo.segments):
        if isinstance(seg, BlochLoop):
            start = evo._theta0[k]
            omega += _segment_area(start, seg.theta_end, seg.phi_rate, seg.duration)
    return omega


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
