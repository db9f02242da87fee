"""SU(d) generator bases, Cartan coordinates and velocity decompositions.

Conventions
-----------
Generators are Hermitian, traceless and orthonormal, ``Tr[T_a T_b] = delta_ab``.
The set splits into d-1 diagonal (Cartan) elements H and d^2-d purely
off-diagonal elements P. Component vectors over the algebra are ordered Cartan
block first, so ``v`` in R^{d^2-1} reads ``(v_cartan, v_offdiag)``.

For d = 2 the basis is ``(sigma_z, sigma_x, sigma_y)/sqrt(2)``. For d = 3 the
two Cartan elements are ``-diag(1,1,-2)/sqrt(6)`` and ``-diag(1,-1,0)/sqrt(2)``
in that order; note the overall minus sign and swapped order relative to the
common rescaled Gell-Mann pair ``(lambda_3, lambda_8)/sqrt(2)``. All other
dimensions use the generic nested traceless construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "GeneratorBasis",
    "CartanAngles",
    "VelocityDecomposition",
    "make_generators",
    "cartan_exponential",
    "velocity_vector",
    "decompose_velocity",
    "rotate_by_cartan",
    "project_special_unitary",
    "project_special_unitary_path",
    "random_special_unitary",
]

DEFAULT_TOL = 1e-10


def _pair_generators(d: int) -> list[np.ndarray]:
    """Symmetric/antisymmetric off-diagonal generators, pair by pair."""
    out = []
    s = 1.0 / np.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = s
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j * s
            asym[k, j] = 1j * s
            out.append(sym)
            out.append(asym)
    return out


def _diagonal_generators(d: int) -> list[np.ndarray]:
    """Nested traceless diagonal generators diag(1,..,1,-l,0,..)/sqrt(l(l+1))."""
    out = []
    for l in range(1, d):
        v = np.zeros(d)
        v[:l] = 1.0
        v[l] = -float(l)
        out.append(np.diag(v / np.sqrt(l * (l + 1))).astype(complex))
    return out


@dataclass(frozen=True)
class GeneratorBasis:
    """Orthonormal Hermitian generator set for SU(d), split Cartan/off-diagonal.

    Attributes
    ----------
    d : int
        Hilbert space dimension.
    cartan : tuple of ndarray
        d-1 diagonal generators.
    nondiag : tuple of ndarray
        d^2-d generators with vanishing diagonal.
    """

    d: int
    cartan: tuple
    nondiag: tuple

    def __post_init__(self):
        stack = np.stack(list(self.cartan) + list(self.nondiag))
        stack.setflags(write=False)
        diag = np.stack([np.diag(h).real for h in self.cartan])
        diag.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_cartan_diag", diag)

    @property
    def size(self) -> int:
        return self.d * self.d - 1

    @property
    def generators(self) -> np.ndarray:
        """All generators stacked (d^2-1, d, d), Cartan block first."""
        return self._stack

    def levels_from_h(self, h: np.ndarray) -> np.ndarray:
        """Per-level phases chi_n = <n| h.H |n> for Cartan coordinates h."""
        h = np.asarray(h, dtype=float)
        if h.shape[-1] != self.d - 1:
            raise ValueError(f"expected {self.d - 1} Cartan coordinates, got {h.shape[-1]}")
        return h @ self._cartan_diag

    def h_from_levels(self, levels: np.ndarray) -> np.ndarray:
        """Cartan coordinates recovering the given traceless per-level phases."""
        levels = np.asarray(levels, dtype=float)
        if levels.shape[-1] != self.d:
            raise ValueError(f"expected {self.d} per-level phases, got {levels.shape[-1]}")
        return levels @ self._cartan_diag.T


def make_generators(d: int) -> GeneratorBasis:
    """Construct the orthonormal SU(d) generator basis.

    Parameters
    ----------
    d : int
        Dimension, at least 2.

    Returns
    -------
    GeneratorBasis
        d^2-1 traceless Hermitian matrices with Tr[T_a T_b] = delta_ab,
        split into the diagonal Cartan set and the off-diagonal set.
    """
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    d = int(d)
    diag = _diagonal_generators(d)
    if d == 3:
        # Fixed qutrit convention: extra minus signs and swapped order, so the
        # diagonal weights read x_n ~ cos(theta + 2 pi n / 3) for
        # q_hat = (cos theta, sin theta, 0, ...).
        cartan = (-diag[1], -diag[0])
    else:
        cartan = tuple(diag)
    return GeneratorBasis(d=d, cartan=cartan, nondiag=tuple(_pair_generators(d)))


@dataclass(frozen=True)
class CartanAngles:
    """Cartan coordinates h in R^{d-1} with their per-level phases chi in R^d.

    The per-level phases satisfy sum_n chi_n = 0 exactly; they are recentred
    at construction.
    """

    h: np.ndarray
    levels: np.ndarray

    @property
    def d(self) -> int:
        return self.levels.shape[-1]

    @classmethod
    def from_levels(cls, basis: GeneratorBasis, levels) -> "CartanAngles":
        levels = np.asarray(levels, dtype=float)
        if levels.shape[-1] != basis.d:
            raise ValueError(f"expected {basis.d} per-level phases, got {levels.shape[-1]}")
        s = levels.sum()
        if abs(s) > 1e-9 * max(1.0, np.abs(levels).max()):
            raise ValueError(f"per-level phases must sum to zero, got sum {s:g}")
        levels = levels - levels.mean()
        return cls(h=basis.h_from_levels(levels), levels=levels)


def cartan_exponential(basis: GeneratorBasis, angles) -> np.ndarray:
    """Diagonal unitary exp(i h.H) = diag(e^{i chi_0}, ..., e^{i chi_{d-1}}).

    ``angles`` may be a CartanAngles or a raw h vector of length d-1. The
    result has unit determinant by construction (the phases sum to zero).
    """
    if isinstance(angles, CartanAngles):
        levels = angles.levels
        if levels.shape[-1] != basis.d:
            raise ValueError("CartanAngles dimension does not match basis")
    else:
        levels = basis.levels_from_h(np.asarray(angles, dtype=float))
        levels = levels - levels.mean()
    return np.diag(np.exp(1j * levels))


def velocity_vector(basis: GeneratorBasis, U: np.ndarray, U_dot: np.ndarray,
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real velocity components u with U^dag dU/dt = i u.T.

    Parameters
    ----------
    basis : GeneratorBasis
    U, U_dot : ndarray
        A special-unitary path sample and its time derivative.
    tol : float
        Residual tolerance for unitarity, unit determinant, trace removal
        and reconstruction.

    Returns
    -------
    ndarray
        u in R^{d^2-1}, Cartan block first.
    """
    U = np.asarray(U, dtype=complex)
    U_dot = np.asarray(U_dot, dtype=complex)
    d = basis.d
    if U.shape != (d, d) or U_dot.shape != (d, d):
        raise ValueError(f"expected {d}x{d} matrices")
    if np.abs(U.conj().T @ U - np.eye(d)).max() > tol:
        raise ValueError("U is not unitary within tolerance")
    if abs(np.linalg.det(U) - 1.0) > tol * d:
        raise ValueError("U does not have unit determinant; strip the global "
                         "phase with project_special_unitary first")
    M = U.conj().T @ U_dot
    scale = max(1.0, np.abs(M).max())
    if abs(np.trace(M)) > tol * scale:
        raise ValueError("Tr[U^dag dU] does not vanish; the path carries an "
                         "un-removed global phase")
    u = np.einsum("aij,ji->a", basis.generators, M)
    u = (-1j * u)
    if np.abs(u.imag).max() > tol * scale:
        raise ValueError("velocity components are not real within tolerance")
    u = u.real
    recon = 1j * np.einsum("a,aij->ij", u, basis.generators)
    if np.abs(recon - M).max() > tol * (1.0 + scale):
        raise ValueError("generator reconstruction of U^dag dU failed")
    return u


def rotate_by_cartan(basis: GeneratorBasis, h, vec: np.ndarray) -> np.ndarray:
    """Components of exp(-i h.H) (v.T) exp(+i h.H) in the generator basis.

    The conjugation leaves the Cartan block fixed and rotates the off-diagonal
    block, preserving its Euclidean norm.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (basis.size,):
        raise ValueError(f"expected vector of length {basis.size}")
    E = cartan_exponential(basis, h)
    M = E.conj().T @ np.einsum("a,aij->ij", vec, basis.generators) @ E
    out = np.einsum("aij,ji->a", basis.generators, M)
    return out.real


@dataclass(frozen=True)
class VelocityDecomposition:
    """Split u = v_perp_rot + v_par + h_dot of a factorized-path velocity.

    All four vectors live in R^{d^2-1}; ``v_par`` and ``h_dot`` are supported
    on the Cartan block, ``v_perp_rot`` on the off-diagonal block.
    """

    u: np.ndarray
    v_perp_rot: np.ndarray
    v_par: np.ndarray
    h_dot: np.ndarray


def decompose_velocity(basis: GeneratorBasis, u: np.ndarray, h,
                       v_from_coset: np.ndarray) -> VelocityDecomposition:
    """Decompose the velocity of a path U = V exp(i h.H).

    Parameters
    ----------
    u : ndarray
        Full velocity vector of the path at one time sample.
    h : array-like or CartanAngles
        Cartan coordinates at the same sample.
    v_from_coset : ndarray
        Velocity vector of the coset factor, V^dag dV = i v.T.

    Returns
    -------
    VelocityDecomposition
        With ``u = v_perp_rot + v_par + h_dot`` componentwise. Consistency of
        the inputs is checked: the off-diagonal block of ``u`` must equal the
        Cartan-rotated off-diagonal block of ``v_from_coset``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v_from_coset, dtype=float)
    n = basis.size
    k = basis.d - 1
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"expected vectors of length {n}")
    v_par = np.zeros(n)
    v_par[:k] = v[:k]
    v_perp_rot = np.zeros(n)
    v_perp_rot[k:] = u[k:]
    h_dot = np.zeros(n)
    h_dot[:k] = u[:k] - v[:k]

    norm_in = np.linalg.norm(v[k:])
    norm_out = np.linalg.norm(u[k:])
    tol = 1e-8 * (1.0 + norm_in)
    if abs(norm_in - norm_out) > tol:
        raise ValueError("off-diagonal norm not preserved; inputs are not "
                         "consistent samples of one factorized path")
    hh = h.h if isinstance(h, CartanAngles) else np.asarray(h, dtype=float)
    rotated = rotate_by_cartan(basis, hh, v * np.concatenate([np.zeros(k), np.ones(n - k)]))
    if np.abs(rotated[k:] - u[k:]).max() > tol:
        raise ValueError("rotated coset velocity does not match the "
                         "off-diagonal block of u")
    return VelocityDecomposition(u=u, v_perp_rot=v_perp_rot, v_par=v_par, h_dot=h_dot)


def project_special_unitary(U: np.ndarray, reference: np.ndarray | None = None) -> np.ndarray:
    """Strip the global phase: divide a unitary by a d-th root of its determinant.

    The principal root is used unless ``reference`` is given, in which case
    the root is chosen to keep the projection closest to the reference (this
    keeps the branch continuous along a sampled path).
    """
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    det = np.linalg.det(U)
    if abs(det) < 1e-300:
        raise ValueError("matrix is singular")
    base = np.angle(det) / d
    if reference is None:
        return U * np.exp(-1j * base)
    ks = np.arange(d)
    phases = np.exp(-1j * (base + 2.0 * np.pi * ks / d))
    errs = [np.abs(U * p - reference).max() for p in phases]
    return U * phases[int(np.argmin(errs))]


def project_special_unitary_path(Us: np.ndarray) -> np.ndarray:
    """SU-project a stacked unitary path with a continuous branch choice."""
    Us = np.asarray(Us, dtype=complex)
    out = np.empty_like(Us)
    ref = None
    for i in range(Us.shape[0]):
        out[i] = project_special_unitary(Us[i], reference=ref)
        ref = out[i]
    return out


def random_special_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SU(d) matrix (QR of a Ginibre matrix, det fixed to 1)."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return project_special_unitary(q)
