"""Analytic phase expressions: the oracles of ``verify`` and the master formula.

The series form returns the (total, dynamical) phase of a phasor sum
``sum_n w_n e^{i chi_n}`` along sampled per-level phases; ``verify`` passes it
one term per entry of alpha's support on all-diagonal paths. It unwraps as
the engine does, bridging vanishing samples with the dynamical slope. The
scalar forms evaluate the same series on the ramp ``s chi``, s in [0, 1], so
the pi jumps of arctan-style shorthands at sign changes of the real part are
kept, and report the principal value with its winding count.
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
    "master_phase_formula",
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


def diagonal_total_phase_series(weights, chi) -> tuple[np.ndarray, np.ndarray]:
    """(total, dynamical) phase of sum_n w_n e^{i chi_n(t)} along a sampled path.

    ``chi`` has shape (n_times, d); the dynamical phase is ``chi @ w``. The
    first sample anchors the branch of the unwrapped arg (phases start at the
    principal argument there); samples where the phasor vanishes are bridged
    with the dynamical slope, as the phase engine bridges them.
    """
    weights = np.asarray(weights, dtype=float)
    chi = np.asarray(chi, dtype=float)
    dynamical = chi @ weights
    total, _ = unwrap_phases(np.exp(1j * chi) @ weights, dynamical=dynamical)
    return total, dynamical


def _ramp(span: float) -> np.ndarray:
    """Ramp parameter from 0 to 1 with about 32 samples per radian of span."""
    return np.linspace(0.0, 1.0, max(256, int(32 * span) + 32))


def _principal_winding(total: np.ndarray) -> tuple[float, int]:
    """(principal value, winding) at the end of a total-phase ramp from zero phases."""
    end = float(total[-1])
    principal = math.remainder(end, 2.0 * math.pi)
    return principal, int(round((end - principal) / (2.0 * math.pi)))


def _diagonal_result(weights: np.ndarray, chi: np.ndarray,
                     connection: float) -> ClosedFormResult:
    """Phasor sum on the ramp s chi; phi_g is the unwrapped total minus ``connection``."""
    s = _ramp(float(np.abs(chi).max(initial=0.0)))
    total, _ = diagonal_total_phase_series(weights, s[:, None] * chi)
    principal, winding = _principal_winding(total)
    phi_g = principal + 2.0 * math.pi * winding - connection
    return ClosedFormResult(phi_total_bar=principal, phi_g=phi_g, winding=winding)


def _profile_result(d: int, profile: DiagonalProfile, chi,
                    strength: float) -> ClosedFormResult:
    """Weights 1/d + strength x_n on the levels chi; the connection is strength x . chi."""
    chi = np.asarray(chi, dtype=float)
    if profile.d != d or chi.shape != (d,):
        raise ValueError("profile and phases must both have length d")
    if abs(chi.sum()) > 1e-9 * max(1.0, np.abs(chi).max()):
        raise ValueError("per-level phases must sum to zero")
    weights = 1.0 / d + strength * profile.x
    if weights.min() < -1e-12:
        raise ValueError("weights outside [0, 1]; invalid (q or C, profile) pair")
    return _diagonal_result(weights, chi, strength * float(profile.x @ chi))


def single_qudit_diagonal(d: int, q: float, profile: DiagonalProfile,
                          chi) -> ClosedFormResult:
    """Diagonal single-qudit phases for weights 1/d + q sqrt((d-1)/d) x_n.

    ``chi`` holds the d accumulated per-level phases (summing to zero);
    phi_g subtracts the connection q sqrt((d-1)/d) sum_n x_n chi_n from the
    unwrapped total.
    """
    return _profile_result(d, profile, chi, q * math.sqrt((d - 1) / d))


def single_qubit_partial(q: float, chi: float, omega: float) -> ClosedFormResult:
    """Qubit phases after a closed Bloch loop of solid angle omega.

    total = arg(cos chi + i q sin chi), geometric = the arctan shorthand
    arctan(q tan chi) - q (chi + omega/2) evaluated on the unwrapped branch.
    """
    weights = np.array([(1.0 + q) / 2.0, (1.0 - q) / 2.0])
    return _diagonal_result(weights, np.array([chi, -chi]), q * (chi + omega / 2.0))


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
    gap = 2.0 * (d - 1) / d - concurrence ** 2
    if gap < -1e-12:
        raise ValueError("concurrence exceeds the maximal value for this dimension")
    return _profile_result(d, profile, chi_total, math.sqrt(max(gap, 0.0) / 2.0))


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
    the phasor sum of weights (1/2, 1/4, 1/4) on the levels
    (chi_A + chi_B0, chi_B1 - chi_A, chi_B2 - chi_A); geometric = total - chi_B0 / 4,
    with chi_B0 + chi_B1 + chi_B2 = 0.
    """
    total_b = chi_b0 + chi_b1 + chi_b2
    if abs(total_b) > 1e-9 * max(1.0, abs(chi_b0), abs(chi_b1), abs(chi_b2)):
        raise ValueError(f"qutrit phases must sum to zero, got {total_b:g}")
    return _diagonal_result(np.array([0.5, 0.25, 0.25]),
                            np.array([chi_a + chi_b0, chi_b1 - chi_a, chi_b2 - chi_a]),
                            chi_b0 / 4.0)


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
