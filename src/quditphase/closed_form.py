"""Analytic phase expressions for diagonal and Bloch-loop evolutions.

Each operation evaluates a phasor sum ``sum_n w_n e^{i chi_n}`` and the
matching linear connection term. Arctan-style shorthands are evaluated through
the two-argument arg of the underlying complex trace so that pi jumps at sign
changes of the real part are captured; the unwrapped branch is recovered by
sweeping the phases from zero to their final values, and the winding count is
reported alongside the principal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phases import unwrap_phases
from .states import DiagonalProfile, qutrit_profile, qutrit_theta_bound

__all__ = [
    "ClosedFormResult",
    "diagonal_total_phase_series",
    "single_qudit_diagonal",
    "single_qubit_partial",
    "single_qutrit_diagonal",
    "two_qubit_partial",
    "two_qubit_cyclic",
    "two_qudit_diagonal",
    "two_qutrit_example",
    "qubit_qutrit_effective",
    "qubit_qutrit_dual",
    "qubit_qutrit_dual_series",
]


@dataclass(frozen=True)
class ClosedFormResult:
    """Nontrivial total phase and geometric phase of one closed form.

    ``phi_total_bar`` is the principal argument in (-pi, pi]; ``winding``
    counts the extra turns accumulated on the ramp from zero phases, so the
    unwrapped total is ``phi_total_bar + 2 pi winding``. ``phi_g`` uses the
    unwrapped convention of the phase engine.
    """

    phi_total_bar: float
    phi_g: float
    winding: int

    @property
    def phi_total_unwrapped(self) -> float:
        return self.phi_total_bar + 2.0 * math.pi * self.winding


def _phasor_series(weights: np.ndarray, chi: np.ndarray) -> np.ndarray:
    return np.exp(1j * chi) @ weights


def diagonal_total_phase_series(weights, chi_series, dynamical=None) -> np.ndarray:
    """Unwrapped arg of sum_n w_n e^{i chi_n(t)} along a sampled path.

    ``chi_series`` has shape (n_times, d); the first sample anchors the
    branch (phases start at the principal argument there). Samples where the
    phasor vanishes are bridged with the slope of ``dynamical``, as the phase
    engine bridges them (zero slope if not supplied).
    """
    weights = np.asarray(weights, dtype=float)
    chi_series = np.asarray(chi_series, dtype=float)
    z = _phasor_series(weights, chi_series)
    phases, _ = unwrap_phases(z, dynamical=dynamical)
    return phases


def _dual_phasor(a, b1, b2):
    """cos(a - b2 - b1/2) e^{-i b1/2} / 2 + cos(a - b1 - b2/2) e^{-i b2/2} / 2."""
    return (np.cos(a - b2 - b1 / 2.0) * np.exp(-1j * b1 / 2.0) / 2.0
            + np.cos(a - b1 - b2 / 2.0) * np.exp(-1j * b2 / 2.0) / 2.0)


def qubit_qutrit_dual_series(chi_a, chi_b, dynamical=None) -> np.ndarray:
    """Unwrapped total phase of the full-support qubit-qutrit state along a path.

    ``chi_a`` (n_times, 2) and ``chi_b`` (n_times, 3) are the sampled
    per-level phases; the first sample anchors the branch and zeros are
    bridged with ``dynamical``, as in ``diagonal_total_phase_series``.
    """
    chi_a = np.asarray(chi_a, dtype=float)
    chi_b = np.asarray(chi_b, dtype=float)
    phases, _ = unwrap_phases(_dual_phasor(chi_a[:, 0], chi_b[:, 1], chi_b[:, 2]),
                              dynamical=dynamical)
    return phases


def _ramp(span: float) -> np.ndarray:
    """Ramp parameter from 0 to 1 with about 32 samples per radian of span."""
    return np.linspace(0.0, 1.0, max(256, int(32 * span) + 32))


def _ramp_total(z: np.ndarray) -> tuple[float, float, int]:
    """(unwrapped total, principal value, winding) of a sampled ramp."""
    phases, _ = unwrap_phases(z)
    total = phases[-1] - phases[0]
    principal = math.remainder(total, 2.0 * math.pi)
    winding = int(round((total - principal) / (2.0 * math.pi)))
    return total, principal, winding


def _unwrapped_total(weights: np.ndarray, chi: np.ndarray) -> tuple[float, int]:
    """Principal total phase and winding along the zero-to-chi ramp."""
    s = _ramp(float(np.abs(chi).max(initial=0.0)))
    _, principal, winding = _ramp_total(_phasor_series(weights, s[:, None] * chi[None, :]))
    return principal, winding


def _diagonal_result(weights: np.ndarray, chi: np.ndarray, strength: float,
                     x: np.ndarray) -> ClosedFormResult:
    principal, winding = _unwrapped_total(weights, chi)
    connection = strength * float(x @ chi)
    phi_g = principal + 2.0 * math.pi * winding - connection
    return ClosedFormResult(phi_total_bar=principal, phi_g=phi_g, winding=winding)


def single_qudit_diagonal(d: int, q: float, profile: DiagonalProfile,
                          chi) -> ClosedFormResult:
    """Diagonal single-qudit phases for weights 1/d + q sqrt((d-1)/d) x_n.

    ``chi`` holds the d accumulated per-level phases (summing to zero);
    phi_g subtracts the connection q sqrt((d-1)/d) sum_n x_n chi_n from the
    unwrapped total.
    """
    chi = np.asarray(chi, dtype=float)
    if profile.d != d or chi.shape != (d,):
        raise ValueError("profile and phases must both have length d")
    if abs(chi.sum()) > 1e-9 * max(1.0, np.abs(chi).max()):
        raise ValueError("per-level phases must sum to zero")
    strength = q * math.sqrt((d - 1) / d)
    weights = 1.0 / d + strength * profile.x
    if weights.min() < -1e-12:
        raise ValueError("weights outside [0, 1]; invalid (q, profile) pair")
    return _diagonal_result(weights, chi, strength, profile.x)


def single_qubit_partial(q: float, chi: float, omega: float) -> ClosedFormResult:
    """Qubit phases after a closed Bloch loop of solid angle omega.

    total = arg(cos chi + i q sin chi), geometric = the arctan shorthand
    arctan(q tan chi) - q (chi + omega/2) evaluated on the unwrapped branch.
    """
    chis = np.array([chi, -chi])
    weights = np.array([(1.0 + q) / 2.0, (1.0 - q) / 2.0])
    principal, winding = _unwrapped_total(weights, chis)
    phi_g = principal + 2.0 * math.pi * winding - q * (chi + omega / 2.0)
    return ClosedFormResult(phi_total_bar=principal, phi_g=phi_g, winding=winding)


def single_qutrit_diagonal(q: float, theta: float, chi0: float,
                           chi1: float) -> ClosedFormResult:
    """Diagonal qutrit phases with chi2 = -(chi0 + chi1).

    The profile follows the fixed qutrit parametrization
    x_n = sqrt(2/3) cos(theta + 2 pi (n+1) / 3); theta must respect the
    purity-dependent bound.
    """
    bound = qutrit_theta_bound(q)
    if abs(theta) > bound + 1e-12:
        raise ValueError(f"theta = {theta:g} outside the physical bound {bound:g}")
    chi = np.array([chi0, chi1, -(chi0 + chi1)])
    return single_qudit_diagonal(3, q, qutrit_profile(theta), chi)


def two_qubit_partial(concurrence: float, chi_a: float, chi_b: float,
                      omega_a: float = 0.0, omega_b: float = 0.0) -> ClosedFormResult:
    """Two-qubit geometric phase for Cartan angles plus closed Bloch loops.

    phi_g = arctan(sqrt(1-C^2) tan chi_T)
            - sqrt(1-C^2) (chi_T + (omega_A + omega_B)/2),
    with chi_T = chi_A + chi_B and the arg-based branch convention.
    """
    if not 0.0 <= concurrence <= 1.0 + 1e-12:
        raise ValueError("concurrence must lie in [0, 1]")
    q = math.sqrt(max(1.0 - concurrence ** 2, 0.0))
    chi_t = chi_a + chi_b
    res = single_qubit_partial(q, chi_t, 0.0)
    phi_g = res.phi_g - q * (omega_a + omega_b) / 2.0
    return ClosedFormResult(phi_total_bar=res.phi_total_bar, phi_g=phi_g,
                            winding=res.winding)


def two_qubit_cyclic(concurrence: float, n: int, omega_a: float,
                     omega_b: float) -> float:
    """Cyclic two-qubit value n pi - sqrt(1-C^2) (omega_A + omega_B) / 2.

    Valid for cycles whose Cartan angles return to zero; odd n is reached
    through coset windings only when the entanglement weight vanishes.
    """
    if not 0.0 <= concurrence <= 1.0 + 1e-12:
        raise ValueError("concurrence must lie in [0, 1]")
    q = math.sqrt(max(1.0 - concurrence ** 2, 0.0))
    return n * math.pi - q * (omega_a + omega_b) / 2.0


def two_qudit_diagonal(d: int, concurrence: float, profile: DiagonalProfile,
                       chi_total) -> ClosedFormResult:
    """Equal-dimension diagonal two-qudit phases from the total angles.

    Weights are 1/d + sqrt((C_m^2 - C^2)/2) x_n and chi_total holds the sums
    chi_{A n} + chi_{B n}; only those sums enter.
    """
    chi = np.asarray(chi_total, dtype=float)
    if profile.d != d or chi.shape != (d,):
        raise ValueError("profile and phases must both have length d")
    if abs(chi.sum()) > 1e-9 * max(1.0, np.abs(chi).max()):
        raise ValueError("total per-level phases must sum to zero")
    c_max2 = 2.0 * (d - 1) / d
    gap = c_max2 - concurrence ** 2
    if gap < -1e-12:
        raise ValueError("concurrence exceeds the maximal value for this dimension")
    strength = math.sqrt(max(gap, 0.0) / 2.0)
    weights = 1.0 / d + strength * profile.x
    if weights.min() < -1e-12:
        raise ValueError("weights outside [0, 1]; invalid (C, profile) pair")
    return _diagonal_result(weights, chi, strength, profile.x)


def two_qutrit_example(q: float, theta: float, chi_t0: float,
                       chi_t1: float) -> ClosedFormResult:
    """Two-qutrit diagonal phases for the fixed-theta state family.

    chi_T2 = -(chi_T0 + chi_T1); the concurrence is C_m sqrt(1 - q^2) so the
    connection strength reduces to 2q/3 on the cosine profile.
    """
    bound = qutrit_theta_bound(q)
    if abs(theta) > bound + 1e-12:
        raise ValueError(f"theta = {theta:g} outside the physical bound {bound:g}")
    c_m = math.sqrt(4.0 / 3.0)
    concurrence = c_m * math.sqrt(max(1.0 - q ** 2, 0.0))
    chi = np.array([chi_t0, chi_t1, -(chi_t0 + chi_t1)])
    return two_qudit_diagonal(3, concurrence, qutrit_profile(theta), chi)


def qubit_qutrit_effective(concurrence: float, chi_a: float, chi_b0: float,
                           chi_b1: float) -> ClosedFormResult:
    """Qubit-qutrit phases when the state omits the third qutrit level.

    The qutrit acts as an effective qubit with chi_B = (chi_B0 - chi_B1)/2;
    only two-qubit fractional values appear.
    """
    return two_qubit_partial(concurrence, chi_a, 0.5 * (chi_b0 - chi_b1), 0.0, 0.0)


def qubit_qutrit_dual(chi_a: float, chi_b0: float, chi_b1: float,
                      chi_b2: float) -> ClosedFormResult:
    """Phases of the maximally entangled qubit-qutrit state with full support.

    total = arg( cos(chi_A - chi_B2 - chi_B1/2) e^{-i chi_B1/2} / 2
               + cos(chi_A - chi_B1 - chi_B2/2) e^{-i chi_B2/2} / 2 ),
    geometric = total - chi_B0 / 4, with chi_B0 + chi_B1 + chi_B2 = 0.
    """
    total_b = chi_b0 + chi_b1 + chi_b2
    if abs(total_b) > 1e-9 * max(1.0, abs(chi_b0), abs(chi_b1), abs(chi_b2)):
        raise ValueError(f"qutrit phases must sum to zero, got {total_b:g}")

    s = _ramp(max(abs(chi_a), abs(chi_b0), abs(chi_b1), abs(chi_b2)))
    total, principal, winding = _ramp_total(_dual_phasor(s * chi_a, s * chi_b1,
                                                         s * chi_b2))
    phi_g = total - chi_b0 / 4.0
    return ClosedFormResult(phi_total_bar=principal, phi_g=phi_g, winding=winding)
