"""Dense (U, dU/dt) reference route for the phase engine tests.

The engine samples every path as frame phasors, U = L diag(z) R per table
row. This module samples the same paths as full d x d operator stacks and
contracts them densely, as an independent reference: U from the public
``coset_factor`` and ``cartan_levels`` queries, dU/dt from the segments and
the path's row tables.
"""

import numpy as np

import quditphase as qp
from quditphase import paths, phases


def bloch_generator(theta, phi, theta_dot, phi_dot) -> np.ndarray:
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


def left_generators(evo) -> np.ndarray:
    """Constant left generator of every table row: V G V^dag on a generator
    segment, with V = V(theta_k, phi_k) the row's coset factor (1 without a
    Bloch segment), and 0 on every other row."""
    left = np.zeros((len(evo.segments) + 1, evo.d, evo.d), dtype=complex)
    for k, seg in enumerate(evo.segments):
        if isinstance(seg, qp.GeneratorConst):
            left[k] = seg.generator
            if evo.has_bloch:
                v = paths._bloch_matrix(*evo._bloch0[k])
                left[k] = v @ seg.generator @ v.conj().T
    return left


def sample(evo, times, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
    """Synthesize (U, dU/dt) stacks on the given times.

    U = coset_factor(t) diag(exp(i cartan_levels(t))) is special unitary by
    construction and always sampled from the segment that starts at t.
    dU/dt = i (L U + U diag(rates)) with the row's right Cartan rates and left
    generator L, plus the closed-form Bloch generator on a ``BlochLoop`` row;
    at interior segment boundaries ``side`` picks which row owns the
    (one-sided) derivative.
    """
    t = evo._times(times)
    U = evo.coset_factor(t) * np.exp(1j * evo.cartan_levels(t))[:, None, :]
    idx = evo._segment_index(t)
    if side == "left":                  # a boundary belongs to the segment it ends
        idx = np.minimum(np.searchsorted(evo._ends, t - paths._BOUNDARY_TOL, side="left"),
                         max(len(evo.segments) - 1, 0))
    Ud = U * (1j * evo._rates[idx])[:, None, :]
    left = left_generators(evo)
    moving = (left.any(axis=(1, 2)) | evo._bloch_rate.any(axis=1))[idx]
    if moving.any():
        t, idx = t[moving], idx[moving]
        left = left[idx]
        if evo.has_bloch:
            theta, phi = evo._advance(evo._bloch0, evo._bloch_rate, t, idx).T
            left += bloch_generator(theta, phi, *evo._bloch_rate[idx].T)
        Ud[moving] += (1j * left) @ U[moving]
    return U, Ud


def synthesize(evo, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-time (U, dU/dt)."""
    U, Ud = sample(evo, [t])
    return U[0], Ud[0]


def operator_residuals(stacks) -> tuple[float, float]:
    """Largest |U^dag U - 1| entry and |det U - 1| over n x d x d stacks of U."""
    unit = det = 0.0
    for u in stacks:
        eye = np.eye(u.shape[-1])
        unit = max(unit, float(np.abs(u.conj().transpose(0, 2, 1) @ u - eye).max()))
        det = max(det, float(np.abs(np.linalg.det(u) - 1.0).max()))
    return unit, det


def frequency(rho, u, u_dot) -> np.ndarray:
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


def pair_overlap(alpha, u_a, u_b) -> np.ndarray:
    """Overlap Tr[alpha^dag U_A alpha U_B^T] per sample of operator stacks."""
    n, d_a, d_b = u_a.shape[0], *alpha.shape
    # U_A alpha as one product over the flattened stack
    alphas = (u_a.reshape(n * d_a, d_a) @ alpha).reshape(n, d_a, d_b)
    return np.einsum("ij,tij->t", alpha.conj(), alphas @ u_b.transpose(0, 2, 1))


def trace_from_samples(alpha0, t, u_a, u_a_dot, u_b, u_b_dot) -> qp.PhaseTrace:
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
    rho_a, rho_b = qp.reduced_densities(alpha0)
    overlap = pair_overlap(alpha0.alpha, u_a, u_b)
    freq = frequency(rho_a, u_a, u_a_dot) + frequency(rho_b, u_b, u_b_dot)
    dt = float(t[1] - t[0]) if n > 1 else 1.0
    return phases._finalize_trace(t, overlap, qp.cumulative_simpson(freq, dt),
                                  operator_residuals([u_a, u_b]))
