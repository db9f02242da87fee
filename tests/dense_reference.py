"""Dense (U, dU/dt) reference route for the phase engine tests.

The engine evaluates a path's unitary one way, from its frame rows,
U = L diag(z) R per table row. This module samples the same paths as full
d x d operator stacks built from the authored segments, and contracts them
densely, as an independent reference: the generator product W(t) from each
``GeneratorConst``'s eigendecomposition and the ordered product of the
generators before it, V(theta, phi) from the Bloch coordinates, chi from
``cartan_levels``, and dU/dt from the segments. It reads none of the frames.
Its dynamical phase is a quadrature of the dense frequency (``cumulative_simpson``,
``dynamical_phase``), not the engine's closed form.
"""

import numpy as np

import quditphase as qp
from quditphase import paths, phases


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative composite Simpson integral on a uniform grid, of either parity.

    Simpson pairs end on the last point and are exact at every other point;
    the points between integrate the local interpolating parabola over its
    first half. With an odd number of intervals the first interval takes the
    forward parabola through the first three points, so the rule stays fourth
    order. Two points have only their chord, the trapezoid.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    out = np.zeros(n)
    if n == 2:
        out[1] = 0.5 * dx * (y[0] + y[1])
    if n < 3:
        return out
    s = (n - 1) % 2                       # 1 on an odd interval count: pairs start at 1
    lo, mid, hi = y[s:-1:2], y[s + 1::2], y[s + 2::2]
    out[s + 2::2] = np.cumsum((lo + 4.0 * mid + hi) * (dx / 3.0))
    out[s + 1::2] = out[s:-1:2] + (5.0 * lo + 8.0 * mid - hi) * (dx / 12.0)
    if s:
        out[1:] += dx * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    return out


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


def generator_tables(evo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors, W0) per table row, from the segments: the
    eigenpairs of the row's generator (0 and 1 on every other row) and the
    product W0 of the generator factors before the row."""
    n, d = len(evo.segments), evo.d
    evals = np.zeros((n + 1, d))
    evecs = np.tile(np.eye(d, dtype=complex), (n + 1, 1, 1))
    w0 = np.tile(np.eye(d, dtype=complex), (n + 1, 1, 1))
    for k, seg in enumerate(evo.segments):
        if isinstance(seg, qp.GeneratorConst):
            evals[k], evecs[k] = np.linalg.eigh(seg.generator)
            w0[k + 1] = ((evecs[k] * np.exp(1j * evals[k] * seg.duration))
                         @ evecs[k].conj().T @ w0[k])
        else:
            w0[k + 1] = w0[k]
    return evals, evecs, w0


def coset(evo, times, idx=None) -> np.ndarray:
    """Coset factor V(theta, phi) W(t) from the segments, stacked over the
    samples: W(t) = E diag(exp(i lambda tau)) E^dag W0 in each sample's row,
    the row that owns t unless ``idx`` gives it."""
    t = evo._times(times)
    idx = evo._segment_index(t) if idx is None else np.asarray(idx)
    evals, evecs, w0 = generator_tables(evo)
    e = evecs[idx]
    phase = np.exp(1j * evals[idx] * (t - evo._starts[idx])[:, None])
    w = (e * phase[:, None, :]) @ e.conj().transpose(0, 2, 1) @ w0[idx]
    if evo.has_bloch:
        theta, phi = evo._advance(evo._bloch0, evo._bloch_rate, t, idx).T
        w = paths._bloch_matrix(theta, phi) @ w
    return w


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


def sample(evo, times, idx=None) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize (U, dU/dt) stacks on the given times.

    U = coset(t) diag(exp(i chi(t))) is special unitary by construction.
    dU/dt = i (L U + U diag(rates)) with the row's right Cartan rates and left
    generator L, plus the closed-form Bloch generator on a ``BlochLoop`` row.
    Each sample is taken in the row that owns its time, or in row ``idx[s]``
    if given, which at a row's end gives its one-sided derivative.
    """
    t = evo._times(times)
    idx = evo._segment_index(t) if idx is None else np.asarray(idx)
    U = coset(evo, t, idx) * np.exp(1j * evo._advance(evo._chi0, evo._rates, t, idx))[:, None, :]
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
    return phases._finalize_trace(t, overlap, cumulative_simpson(freq, dt),
                                  operator_residuals([u_a, u_b]))


# Boole's rule per unit length: Simpson's rule on 4 and on 2 subintervals,
# Richardson-extrapolated, (16 S_4 - S_2) / 15; sixth order
_BOOLE = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 90.0


def dynamical_phase(evo, rho, grid) -> np.ndarray:
    """Integral of the dense frequency of one path at the grid samples.

    Each row's piece runs from its start, which may lie between samples,
    through the samples the row owns (``LocalEvolution.row_starts``) to its
    end, all of it sampled in that row. Each interval between those points is
    integrated by Boole's rule, the Richardson extrapolation of Simpson's rule
    on 4 and 2 subintervals; row n holds the end and adds nothing.
    """
    times = grid.times()
    first, rows = evo.row_starts(grid)
    owner = rows[np.searchsorted(first, np.arange(times.size), side="right") - 1]
    cuts = np.concatenate(([0.0], evo._ends))
    out = np.empty(times.size)
    offset = 0.0
    for k in range(len(evo.segments)):
        mine = np.flatnonzero(owner == k)
        nodes = np.concatenate(([cuts[k]], times[mine], [cuts[k + 1]]))
        width = np.diff(nodes)
        points = np.append((nodes[:-1, None] + width[:, None] * np.arange(4) / 4.0).ravel(),
                           nodes[-1])
        freq = frequency(rho, *sample(evo, points, np.full(points.size, k)))
        steps = np.lib.stride_tricks.sliding_window_view(freq, 5)[::4] @ _BOOLE * width
        steps = _prefix_sums(offset, steps)
        out[mine] = steps[:-1]
        offset = steps[-1]
    out[owner == len(evo.segments)] = offset
    return out


def _prefix_sums(start: float, values: np.ndarray) -> np.ndarray:
    """start + values[0] + ... + values[k] for each k, compensated (Neumaier), so
    thousands of equal steps add no rounding drift."""
    out, total, lost = np.empty(values.size), start, 0.0
    for k, v in enumerate(values.tolist()):
        s = total + v
        lost += (total - s) + v if abs(total) >= abs(v) else (v - s) + total
        total = s
        out[k] = total + lost
    return out
