"""Generator basis, Cartan coordinate and velocity decomposition tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quditphase as qp

import dense_reference as dense

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        qp.make_generators(1)
    with pytest.raises(ValueError):
        qp.make_generators(0)


def test_qubit_basis_is_scaled_pauli():
    b = qp.make_generators(2)
    np.testing.assert_allclose(b.cartan[0], SZ / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(b.nondiag[0], SX / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(b.nondiag[1], SY / np.sqrt(2), atol=1e-15)


def test_qutrit_cartan_matches_fixed_convention():
    b = qp.make_generators(3)
    np.testing.assert_allclose(b.cartan[0], -np.diag([1, 1, -2]) / np.sqrt(6),
                               atol=1e-15)
    np.testing.assert_allclose(b.cartan[1], -np.diag([1, -1, 0]) / np.sqrt(2),
                               atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_orthonormality_and_structure(d):
    b = qp.make_generators(d)
    gens = b.generators
    assert gens.shape[0] == d * d - 1
    gram = np.einsum("aij,bji->ab", gens, gens)
    np.testing.assert_allclose(gram, np.eye(d * d - 1), atol=1e-12)
    for g in gens:
        np.testing.assert_allclose(g, g.conj().T, atol=1e-15)
        assert abs(np.trace(g)) < 1e-14
    for h in b.cartan:
        np.testing.assert_allclose(h, np.diag(np.diagonal(h)), atol=1e-15)
    for p in b.nondiag:
        np.testing.assert_allclose(np.diagonal(p), 0.0, atol=1e-15)
    for h1 in b.cartan:
        for h2 in b.cartan:
            np.testing.assert_allclose(h1 @ h2 - h2 @ h1, 0.0, atol=1e-14)


def test_cartan_exponential_zero_is_identity():
    b = qp.make_generators(4)
    np.testing.assert_allclose(qp.cartan_exponential(b, np.zeros(3)), np.eye(4),
                               atol=1e-15)


def test_cartan_exponential_qutrit_scalar_point():
    b = qp.make_generators(3)
    ang = qp.CartanAngles.from_levels(
        b, [2 * np.pi / 3, 2 * np.pi / 3, -4 * np.pi / 3])
    u = qp.cartan_exponential(b, ang)
    np.testing.assert_allclose(u, np.exp(2j * np.pi / 3) * np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_cartan_exponential_qubit_form():
    b = qp.make_generators(2)
    chi = 0.7
    ang = qp.CartanAngles.from_levels(b, [chi, -chi])
    u = qp.cartan_exponential(b, ang)
    np.testing.assert_allclose(u, np.diag([np.exp(1j * chi), np.exp(-1j * chi)]),
                               atol=1e-15)
    # h = sqrt(2) chi in the single Cartan coordinate
    assert ang.h.shape == (1,)
    assert abs(ang.h[0] - math.sqrt(2) * chi) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_cartan_round_trip(d, seed):
    rng = np.random.default_rng(seed)
    b = qp.make_generators(d)
    chi = rng.uniform(-10, 10, size=d)
    chi -= chi.mean()
    ang = qp.CartanAngles.from_levels(b, chi)
    np.testing.assert_allclose(b.levels_from_h(ang.h), chi, atol=1e-12)
    # per-level phases recovered mod 2 pi from the diagonal unitary
    u = qp.cartan_exponential(b, ang)
    rec = np.angle(np.diagonal(u))
    np.testing.assert_allclose(np.exp(1j * rec), np.exp(1j * chi), atol=1e-12)


def test_from_levels_rejects_nonzero_sum():
    b = qp.make_generators(3)
    with pytest.raises(ValueError):
        qp.CartanAngles.from_levels(b, [1.0, 1.0, 1.0])


def test_velocity_pure_cartan_qubit():
    b = qp.make_generators(2)
    chi, chidot = 0.3, 1.7
    u_mat = np.diag([np.exp(1j * chi), np.exp(-1j * chi)])
    u_dot = np.diag([1j * chidot * np.exp(1j * chi), -1j * chidot * np.exp(-1j * chi)])
    u = qp.velocity_vector(b, u_mat, u_dot)
    np.testing.assert_allclose(u, [math.sqrt(2) * chidot, 0.0, 0.0], atol=1e-12)


def test_velocity_constant_path_is_zero():
    b = qp.make_generators(3)
    rng = np.random.default_rng(3)
    u_mat = qp.random_special_unitary(3, rng)
    u = qp.velocity_vector(b, u_mat, np.zeros((3, 3), dtype=complex))
    np.testing.assert_allclose(u, 0.0, atol=1e-12)


def test_velocity_bloch_path_at_phi_zero():
    # theta ramp at phi = 0, chi = 0: only the first off-diagonal component
    # moves, with u = (0, theta_dot / sqrt(2), 0)
    b = qp.make_generators(2)
    theta_dot = 1.8 / 2.0
    evo = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=1.8, phi_rate=0.0,
                                             duration=2.0)])
    u_mat, u_dot = dense.synthesize(evo, 1.0)
    u = qp.velocity_vector(b, u_mat, u_dot)
    np.testing.assert_allclose(u, [0.0, theta_dot / math.sqrt(2), 0.0],
                               atol=1e-12)


def test_velocity_rejects_nonunitary_and_global_phase():
    b = qp.make_generators(2)
    with pytest.raises(ValueError):
        qp.velocity_vector(b, 1.1 * np.eye(2), np.zeros((2, 2)))
    # a residual global phase shows up as det != 1 or a trace residual
    u_mat = np.exp(0.3j) * np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        qp.velocity_vector(b, u_mat, 0.5j * u_mat)


def test_velocity_invariant_under_projected_global_phase():
    b = qp.make_generators(3)
    rng = np.random.default_rng(11)
    coeff = rng.normal(size=8)
    gen = np.einsum("a,aij->ij", coeff, b.generators)
    evals, vecs = np.linalg.eigh(gen)
    t0, h = 0.6, 1e-6
    us = []
    for t in (t0 - h, t0, t0 + h):
        u_bar = (vecs * np.exp(1j * evals * t)) @ vecs.conj().T
        us.append(np.exp(1j * (0.4 * t ** 2)) * u_bar)  # explicit phase on top
    proj = qp.project_special_unitary_path(np.stack(us))
    u_dot = (proj[2] - proj[0]) / (2 * h)
    u_proj = qp.velocity_vector(b, proj[1], u_dot, tol=1e-6)
    u_bar_dot = 1j * gen @ ((vecs * np.exp(1j * evals * t0)) @ vecs.conj().T)
    u_ref = qp.velocity_vector(b, (vecs * np.exp(1j * evals * t0)) @ vecs.conj().T,
                               u_bar_dot)
    np.testing.assert_allclose(u_proj, u_ref, atol=1e-5)


def _random_factorized_sample(d, rng):
    """One time sample of U = V exp(i h.H) with analytic derivatives."""
    b = qp.make_generators(d)
    k = d - 1
    coeff = np.concatenate([np.zeros(k), rng.normal(size=d * d - 1 - k)])
    gen = np.einsum("a,aij->ij", coeff, b.generators)
    evals, vecs = np.linalg.eigh(gen)
    h_rate = rng.normal(size=k)
    t0 = rng.uniform(0.2, 1.5)
    h = h_rate * t0
    e_mat = qp.cartan_exponential(b, h)
    v_mat = (vecs * np.exp(1j * evals * t0)) @ vecs.conj().T
    v_dot = 1j * gen @ v_mat
    lev_rate = b.levels_from_h(h_rate)
    u_mat = v_mat @ e_mat
    u_dot = v_dot @ e_mat + v_mat @ (1j * np.diag(lev_rate)) @ e_mat
    return b, h, u_mat, u_dot, v_mat, v_dot


def test_decompose_pure_cartan_path():
    b = qp.make_generators(3)
    h = np.array([0.4, -0.9])
    e_mat = qp.cartan_exponential(b, h)
    rate = np.array([0.3, 0.8])
    lev = b.levels_from_h(rate)
    u_dot = (1j * np.diag(lev)) @ e_mat
    u = qp.velocity_vector(b, e_mat, u_dot)
    dec = qp.decompose_velocity(b, u, h, np.zeros(8))
    np.testing.assert_allclose(dec.v_perp_rot, 0.0, atol=1e-12)
    np.testing.assert_allclose(dec.v_par, 0.0, atol=1e-12)
    np.testing.assert_allclose(dec.h_dot[:2], rate, atol=1e-12)


def test_decompose_bloch_loop_cartan_component():
    # constant-theta loop: the Cartan block of the coset velocity is
    # sqrt(2) * phi_rate * sin^2(theta/2)
    b = qp.make_generators(2)
    theta, omega_rate = 1.1, 0.8
    evo = qp.LocalEvolution(2, [
        qp.BlochLoop(theta_end=theta, phi_rate=0.0, duration=1.0),
        qp.BlochLoop(theta_end=theta, phi_rate=omega_rate, duration=4.0)])
    v_mat, v_dot = dense.synthesize(evo, 2.5)
    v = qp.velocity_vector(b, v_mat, v_dot)
    expected = math.sqrt(2) * omega_rate * math.sin(theta / 2) ** 2
    assert v[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_decompose_pythagoras_random_factorized(seed):
    rng = np.random.default_rng(100 + seed)
    b, h, u_mat, u_dot, v_mat, v_dot = _random_factorized_sample(3, rng)
    u = qp.velocity_vector(b, u_mat, u_dot)
    v = qp.velocity_vector(b, v_mat, v_dot)
    dec = qp.decompose_velocity(b, u, h, v)
    np.testing.assert_allclose(dec.v_perp_rot + dec.v_par + dec.h_dot, u,
                               atol=1e-12)
    lhs = u @ u
    rhs = dec.v_perp_rot @ dec.v_perp_rot + (dec.v_par + dec.h_dot) @ (dec.v_par + dec.h_dot)
    assert abs(lhs - rhs) < 1e-10
    # orthogonality of the rotated block against any Cartan-sector direction
    assert abs(dec.v_perp_rot @ dec.v_par) < 1e-12
    q_hat = np.zeros(8)
    q_hat[0] = 1.0
    assert abs(dec.v_perp_rot @ q_hat) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_cartan_rotation_preserves_norm_and_fixes_cartan(d, seed):
    rng = np.random.default_rng(seed)
    b = qp.make_generators(d)
    h = rng.uniform(-3, 3, size=d - 1)
    vec = rng.normal(size=d * d - 1)
    rotated = qp.rotate_by_cartan(b, h, vec)
    k = d - 1
    np.testing.assert_allclose(rotated[:k], vec[:k], atol=1e-10)
    assert np.linalg.norm(rotated[k:]) == pytest.approx(
        np.linalg.norm(vec[k:]), abs=1e-10)


def test_project_special_unitary_strips_phase():
    rng = np.random.default_rng(5)
    u_mat = qp.random_special_unitary(4, rng)
    scaled = np.exp(0.9j) * u_mat
    proj = qp.project_special_unitary(scaled)
    assert abs(np.linalg.det(proj) - 1.0) < 1e-12
    # recovered up to a fourth root of unity; with a reference it is exact
    proj_ref = qp.project_special_unitary(scaled, reference=u_mat)
    np.testing.assert_allclose(proj_ref, u_mat, atol=1e-12)


def test_random_special_unitary_properties():
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        u_mat = qp.random_special_unitary(d, rng)
        np.testing.assert_allclose(u_mat.conj().T @ u_mat, np.eye(d), atol=1e-12)
        assert abs(np.linalg.det(u_mat) - 1.0) < 1e-12
