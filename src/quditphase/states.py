"""Qudit density matrices, two-qudit coefficient matrices and entanglement.

A single qudit state is written ``rho = 1/d + q sqrt((d-1)/d) q_hat.T`` with
purity scalar q in [0, 1] and unit purity direction q_hat in R^{d^2-1}. A
two-qudit pure state is the d_A x d_B coefficient matrix alpha with
``Tr[alpha^dag alpha] = 1``; its gauge-fixed singular value decomposition is
``alpha = e^{i phi} S_A K S_B^T`` with special-unitary factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sud import GeneratorBasis, make_generators

__all__ = [
    "QuditDensity",
    "DiagonalProfile",
    "CoefficientMatrix",
    "SchmidtForm",
    "EntanglementReport",
    "density_from_purity",
    "purity_decompose",
    "purify",
    "qutrit_theta_bound",
    "qutrit_profile",
    "schmidt_decompose",
    "reduced_densities",
    "entanglement_report",
    "apply_local",
    "two_qubit_schmidt",
    "two_qutrit_schmidt",
    "two_qutrit_equal_marginals",
    "qubit_qutrit_embedded",
    "qubit_qutrit_full",
    "max_entangled",
    "qudit_schmidt_diagonal",
    "random_state",
]


@dataclass(frozen=True)
class QuditDensity:
    """Single-qudit density matrix together with its purity parametrization."""

    d: int
    rho: np.ndarray
    q: float
    q_hat: np.ndarray

    @property
    def purity(self) -> float:
        """Tr[rho^2] = q^2 + (1 - q^2)/d."""
        return float(self.q ** 2 + (1.0 - self.q ** 2) / self.d)


def density_from_purity(d: int, q: float, q_hat, basis: GeneratorBasis | None = None,
                        eig_tol: float = 1e-12) -> QuditDensity:
    """Build rho = 1/d + q sqrt((d-1)/d) q_hat.T.

    Parameters
    ----------
    d : int
        Dimension.
    q : float
        Purity scalar in [0, 1].
    q_hat : array-like
        Unit vector in R^{d^2-1} (ignored up to normalization check if q = 0).
    basis : GeneratorBasis, optional
        Defaults to ``make_generators(d)``.
    eig_tol : float
        Eigenvalues are allowed down to -eig_tol to absorb rounding.

    Raises
    ------
    ValueError
        If the combination leaves the physical domain; the message names the
        offending eigenvalue.
    """
    if basis is None:
        basis = make_generators(d)
    if basis.d != d:
        raise ValueError("basis dimension mismatch")
    if not 0.0 <= q <= 1.0 + 1e-12:
        raise ValueError(f"purity scalar must lie in [0, 1], got {q}")
    q = min(float(q), 1.0)
    q_hat = np.asarray(q_hat, dtype=float)
    if q_hat.shape != (basis.size,):
        raise ValueError(f"q_hat must have length {basis.size}")
    if q > 0.0:
        nrm = np.linalg.norm(q_hat)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"q_hat must be a unit vector, |q_hat| = {nrm:g}")
    rho = np.eye(d, dtype=complex) / d
    rho += q * math.sqrt((d - 1) / d) * np.einsum("a,aij->ij", q_hat, basis.generators)
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -eig_tol:
        raise ValueError(f"state outside the physical domain: eigenvalue "
                         f"{evals.min():.6g} is negative")
    return QuditDensity(d=d, rho=rho, q=q, q_hat=q_hat)


def purity_decompose(rho: np.ndarray, basis: GeneratorBasis) -> QuditDensity:
    """Recover (q, q_hat) from a density matrix; inverse of density_from_purity."""
    rho = np.asarray(rho, dtype=complex)
    d = basis.d
    if rho.shape != (d, d):
        raise ValueError(f"expected {d}x{d} matrix")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("density matrix must have unit trace")
    p2 = float(np.real(np.trace(rho @ rho)))
    q2 = (p2 - 1.0 / d) / (1.0 - 1.0 / d)
    q = math.sqrt(max(q2, 0.0))
    comps = np.einsum("aij,ji->a", basis.generators, rho)
    if q > 1e-12:
        q_hat = comps.real / (q * math.sqrt((d - 1) / d))
    else:
        q_hat = np.zeros(basis.size)
    return QuditDensity(d=d, rho=rho, q=q, q_hat=q_hat)


def purify(rho0: QuditDensity) -> CoefficientMatrix:
    """Purification alpha = V sqrt(p) V^dag of rho = V p V^dag: the pair state
    with Tr[alpha^dag U alpha] = Tr[rho U] while qudit B is held at the identity."""
    p, v = np.linalg.eigh(rho0.rho)
    return CoefficientMatrix.from_array((v * np.sqrt(np.maximum(p, 0.0))) @ v.conj().T)


@dataclass(frozen=True)
class DiagonalProfile:
    """Diagonal weights x_n = <n| q_hat.H |n> with sum x = 0 and sum x^2 = 1."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if abs(x.sum()) > 1e-9:
            raise ValueError(f"profile must sum to zero, got {x.sum():g}")
        if abs(np.dot(x, x) - 1.0) > 1e-9:
            raise ValueError(f"profile must have unit norm, got |x|^2 = {np.dot(x, x):g}")
        x = x - x.mean()
        x = x / np.linalg.norm(x)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_direction(cls, basis: GeneratorBasis, q_hat) -> "DiagonalProfile":
        """Profile induced by the Cartan block of a purity direction."""
        q_hat = np.asarray(q_hat, dtype=float)
        return cls(basis.levels_from_h(q_hat[: basis.d - 1]))

    @classmethod
    def default(cls, d: int) -> "DiagonalProfile":
        x = np.zeros(d)
        x[0] = 1.0 / math.sqrt(2.0)
        x[1] = -1.0 / math.sqrt(2.0)
        return cls(x)


def qutrit_theta_bound(q: float) -> float:
    """Largest |theta| keeping the qutrit diagonal state physical.

    pi/3 for q <= 1/2 and arccos(-1/(2q)) - 2 pi/3 for q >= 1/2; the two
    branches agree at q = 1/2 and the bound shrinks to 0 at q = 1.
    """
    if not 0.0 <= q <= 1.0 + 1e-12:
        raise ValueError(f"purity scalar must lie in [0, 1], got {q}")
    if q <= 0.5:
        return math.pi / 3.0
    return math.acos(-1.0 / (2.0 * q)) - 2.0 * math.pi / 3.0


def qutrit_profile(theta: float) -> DiagonalProfile:
    """Qutrit diagonal weights sqrt(2/3) cos(theta + 2 pi n / 3) shifted to n=2."""
    c = math.sqrt(2.0 / 3.0)
    x = np.array([
        c * math.cos(theta + 2.0 * math.pi / 3.0),
        c * math.cos(theta + 4.0 * math.pi / 3.0),
        c * math.cos(theta),
    ])
    return DiagonalProfile(x)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Two-qudit pure state as its d_A x d_B coefficient matrix (d_A <= d_B)."""

    d_a: int
    d_b: int
    alpha: np.ndarray

    @classmethod
    def from_array(cls, alpha, tol: float = 1e-9) -> "CoefficientMatrix":
        alpha = np.asarray(alpha, dtype=complex)
        if alpha.ndim != 2:
            raise ValueError("coefficient matrix must be two dimensional")
        d_a, d_b = alpha.shape
        if d_a > d_b:
            raise ValueError("convention requires d_A <= d_B; transpose the state")
        nrm = float(np.real(np.trace(alpha.conj().T @ alpha)))
        if abs(nrm - 1.0) > tol:
            raise ValueError(f"state not normalized: Tr[alpha^dag alpha] = {nrm:g}")
        alpha = alpha.copy()
        alpha.setflags(write=False)
        return cls(d_a=d_a, d_b=d_b, alpha=alpha)

    @classmethod
    def normalized(cls, alpha) -> "CoefficientMatrix":
        alpha = np.asarray(alpha, dtype=complex)
        nrm = math.sqrt(float(np.real(np.trace(alpha.conj().T @ alpha))))
        if nrm < 1e-300:
            raise ValueError("cannot normalize the zero matrix")
        return cls.from_array(alpha / nrm)


@dataclass(frozen=True)
class SchmidtForm:
    """Gauge-fixed decomposition alpha = e^{i phi} S_A K S_B^T.

    ``singular_values`` are sorted non-increasing with unit squared sum;
    both factors have unit determinant.
    """

    phi: float
    s_a: np.ndarray
    s_b: np.ndarray
    singular_values: np.ndarray

    @property
    def q_matrix(self) -> np.ndarray:
        return np.diag(self.singular_values).astype(complex)

    @property
    def k_matrix(self) -> np.ndarray:
        d_a = self.s_a.shape[0]
        d_b = self.s_b.shape[0]
        k = np.zeros((d_a, d_b), dtype=complex)
        k[:, :d_a] = self.q_matrix
        return k

    def reconstruct(self) -> np.ndarray:
        return np.exp(1j * self.phi) * self.s_a @ self.k_matrix @ self.s_b.T


def _fix_column_phases(u: np.ndarray, vh: np.ndarray, d_a: int) -> None:
    """Make the first nonzero entry of each left singular vector real positive."""
    for k in range(u.shape[1]):
        col = u[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-9)
        if idx.size == 0:
            continue
        phase = col[idx[0]] / abs(col[idx[0]])
        u[:, k] = col / phase
        if k < d_a:
            vh[k, :] = vh[k, :] * phase
    for k in range(d_a, vh.shape[0]):
        row = vh[k, :]
        idx = np.flatnonzero(np.abs(row) > 1e-9)
        if idx.size == 0:
            continue
        phase = row[idx[0]] / abs(row[idx[0]])
        vh[k, :] = row / phase


def schmidt_decompose(state: CoefficientMatrix) -> SchmidtForm:
    """Gauge-fixed singular value decomposition of a coefficient matrix.

    Gauge: singular values non-increasing (ties keep the backend ordering);
    the first nonzero component of every left singular vector is made real
    positive; determinant phases of both unitary factors are transferred to
    the global phase, leaving S_A and S_B special unitary. Deterministic for
    a fixed input.
    """
    alpha = state.alpha
    u, s, vh = np.linalg.svd(alpha, full_matrices=True)
    u = u.copy()
    vh = vh.copy()
    _fix_column_phases(u, vh, state.d_a)
    det_a = np.angle(np.linalg.det(u))
    det_b = np.angle(np.linalg.det(vh.T))
    s_a = u * np.exp(-1j * det_a / state.d_a)
    s_b = vh.T * np.exp(-1j * det_b / state.d_b)
    phi = det_a / state.d_a + det_b / state.d_b
    phi = math.remainder(phi, 2.0 * math.pi)
    form = SchmidtForm(phi=phi, s_a=s_a, s_b=s_b, singular_values=s)
    if np.abs(form.reconstruct() - alpha).max() > 1e-10:
        raise RuntimeError("SVD gauge fixing failed to reconstruct the state")
    return form


def reduced_densities(state: CoefficientMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Reduced density matrices (alpha alpha^dag, (alpha^dag alpha)^T)."""
    alpha = state.alpha
    rho_a = alpha @ alpha.conj().T
    rho_b = (alpha.conj().T @ alpha).T
    return rho_a, rho_b


@dataclass(frozen=True)
class EntanglementReport:
    """Local-unitary invariants of a two-qudit pure state.

    ``traces[p-1]`` holds Tr[Q^{2p}] for p = 1..d_A; ``det_q_abs`` is
    |det Q|. The I-concurrence satisfies C = sqrt(1 - q_a^2) * c_max.
    """

    d_a: int
    d_b: int
    concurrence: float
    c_max: float
    q_a: float
    q_b: float
    traces: tuple
    det_q_abs: float


def entanglement_report(state: CoefficientMatrix) -> EntanglementReport:
    s = np.linalg.svd(state.alpha, compute_uv=False)
    d_a, d_b = state.d_a, state.d_b
    s2 = s ** 2
    p2 = float(np.sum(s2 ** 2))
    c = math.sqrt(max(2.0 * (1.0 - p2), 0.0))
    c_max = math.sqrt(2.0 * (d_a - 1) / d_a)
    q_a = math.sqrt(max((p2 - 1.0 / d_a) / (1.0 - 1.0 / d_a), 0.0))
    q_b = math.sqrt(max((p2 - 1.0 / d_b) / (1.0 - 1.0 / d_b), 0.0))
    traces = tuple(float(np.sum(s2 ** p)) for p in range(1, d_a + 1))
    det_q = float(np.prod(s))
    return EntanglementReport(d_a=d_a, d_b=d_b, concurrence=c, c_max=c_max,
                              q_a=q_a, q_b=q_b, traces=traces, det_q_abs=det_q)


def apply_local(state: CoefficientMatrix, u_a: np.ndarray, u_b: np.ndarray,
                tol: float = 1e-9) -> CoefficientMatrix:
    """Local unitary action alpha -> U_A alpha U_B^T."""
    u_a = np.asarray(u_a, dtype=complex)
    u_b = np.asarray(u_b, dtype=complex)
    if u_a.shape != (state.d_a, state.d_a) or u_b.shape != (state.d_b, state.d_b):
        raise ValueError("local operator dimensions do not match the state")
    for name, u in (("U_A", u_a), ("U_B", u_b)):
        if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > tol:
            raise ValueError(f"{name} is not unitary within tolerance")
    return CoefficientMatrix.from_array(u_a @ state.alpha @ u_b.T)


# ---------------------------------------------------------------------------
# Named initial states
# ---------------------------------------------------------------------------


def two_qubit_schmidt(q: float) -> CoefficientMatrix:
    """diag(sqrt((1+q)/2), sqrt((1-q)/2)); concurrence sqrt(1-q^2)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return CoefficientMatrix.from_array(np.diag([
        math.sqrt((1.0 + q) / 2.0), math.sqrt((1.0 - q) / 2.0)]))


def two_qutrit_schmidt(q: float, theta: float = 0.0) -> CoefficientMatrix:
    """Diagonal two-qutrit state with weights (1 + 2q cos(theta + 2 pi n/3))/3."""
    bound = qutrit_theta_bound(q)
    if abs(theta) > bound + 1e-12:
        raise ValueError(f"theta = {theta:g} outside the physical bound {bound:g}")
    w = np.array([
        1.0 + 2.0 * q * math.cos(theta + 2.0 * math.pi / 3.0),
        1.0 + 2.0 * q * math.cos(theta + 4.0 * math.pi / 3.0),
        1.0 + 2.0 * q * math.cos(theta),
    ]) / 3.0
    w = np.clip(w, 0.0, None)
    return CoefficientMatrix.from_array(np.diag(np.sqrt(w)))


def two_qutrit_equal_marginals(q: float) -> CoefficientMatrix:
    """Two-qutrit state with uniform single-qutrit marginals.

    sqrt(q/3) on the diagonal and sqrt((1-q)/6) on all six off-diagonal
    entries; q = 1/3 is a product state, q = 1 is maximally entangled.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    a = math.sqrt(q / 3.0)
    b = math.sqrt((1.0 - q) / 6.0)
    alpha = np.full((3, 3), b, dtype=complex)
    np.fill_diagonal(alpha, a)
    return CoefficientMatrix.from_array(alpha)


def qubit_qutrit_embedded(q: float) -> CoefficientMatrix:
    """Qubit-qutrit state living on B levels 0 and 1 only."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    alpha = np.zeros((2, 3), dtype=complex)
    alpha[0, 0] = math.sqrt((1.0 + q) / 2.0)
    alpha[1, 1] = math.sqrt((1.0 - q) / 2.0)
    return CoefficientMatrix.from_array(alpha)


def qubit_qutrit_full() -> CoefficientMatrix:
    """Maximally entangled qubit-qutrit state engaging all three B levels."""
    alpha = np.array([
        [1.0 / math.sqrt(2.0), 0.0, 0.0],
        [0.0, 0.5, 0.5],
    ], dtype=complex)
    return CoefficientMatrix.from_array(alpha)


def max_entangled(d_a: int, d_b: int) -> CoefficientMatrix:
    """[1/sqrt(d_A) | 0] with d_A <= d_B."""
    if d_a > d_b:
        raise ValueError("convention requires d_A <= d_B")
    alpha = np.zeros((d_a, d_b), dtype=complex)
    alpha[:, :d_a] = np.eye(d_a) / math.sqrt(d_a)
    return CoefficientMatrix.from_array(alpha)


def qudit_schmidt_diagonal(d: int, q: float,
                           profile: DiagonalProfile | None = None) -> CoefficientMatrix:
    """Diagonal d x d state with weights 1/d + q sqrt((d-1)/d) x_n."""
    if profile is None:
        profile = DiagonalProfile.default(d)
    if profile.d != d:
        raise ValueError("profile dimension mismatch")
    w = 1.0 / d + q * math.sqrt((d - 1) / d) * profile.x
    if w.min() < -1e-12:
        raise ValueError(f"weight {w.min():.6g} is negative; reduce q or change "
                         "the profile")
    return CoefficientMatrix.from_array(np.diag(np.sqrt(np.clip(w, 0.0, None))))


def random_state(d_a: int, d_b: int, rng: np.random.Generator) -> CoefficientMatrix:
    """Normalized Ginibre-random coefficient matrix."""
    z = rng.standard_normal((d_a, d_b)) + 1j * rng.standard_normal((d_a, d_b))
    return CoefficientMatrix.normalized(z)
