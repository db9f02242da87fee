"""State model tests: densities, profiles, Schmidt form, entanglement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quditphase as qp


def test_density_maximally_mixed():
    for d in (2, 3, 5):
        rho = qp.density_from_purity(d, 0.0, np.zeros(d * d - 1))
        np.testing.assert_allclose(rho.rho, np.eye(d) / d, atol=1e-14)
        assert rho.purity == pytest.approx(1.0 / d)


def test_density_pure_qubit_pole():
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    rho = qp.density_from_purity(2, 1.0, q_hat)
    np.testing.assert_allclose(rho.rho, np.diag([1.0, 0.0]), atol=1e-14)


def test_density_qubit_general_q():
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    for q in (0.0, 0.3, 0.8, 1.0):
        rho = qp.density_from_purity(2, q, q_hat)
        np.testing.assert_allclose(rho.rho, np.diag([(1 + q) / 2, (1 - q) / 2]),
                                   atol=1e-14)


def _qutrit_direction(theta):
    q_hat = np.zeros(8)
    q_hat[0] = math.cos(theta)
    q_hat[1] = math.sin(theta)
    return q_hat


@pytest.mark.parametrize("q,theta", [(1.0, 0.0), (0.5, 0.4), (0.3, -1.0),
                                     (0.8, 0.1)])
def test_density_qutrit_eigenvalue_formula(q, theta):
    # diagonal entries are (1 + 2 q cos(theta + 2 pi (n+1)/3)) / 3
    rho = qp.density_from_purity(3, q, _qutrit_direction(theta))
    expected = np.array([
        1 + 2 * q * math.cos(theta + 2 * math.pi / 3),
        1 + 2 * q * math.cos(theta + 4 * math.pi / 3),
        1 + 2 * q * math.cos(theta),
    ]) / 3.0
    np.testing.assert_allclose(np.diagonal(rho.rho).real, expected, atol=1e-12)
    if q == 1.0 and theta == 0.0:
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(rho.rho)),
                                   [0.0, 0.0, 1.0], atol=1e-12)


def test_density_domain_error_names_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        qp.density_from_purity(3, 1.0, _qutrit_direction(0.3))


def test_density_purity_round_trip():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        b = qp.make_generators(d)
        vec = rng.normal(size=d * d - 1)
        vec /= np.linalg.norm(vec)
        q = 0.2  # small enough to stay physical for any direction
        rho = qp.density_from_purity(d, q, vec, b)
        back = qp.purity_decompose(rho.rho, b)
        assert back.q == pytest.approx(q, abs=1e-12)
        np.testing.assert_allclose(back.q_hat, vec, atol=1e-10)
        assert rho.purity == pytest.approx(q * q + (1 - q * q) / d)


def test_theta_bound_branches_and_continuity():
    assert qp.qutrit_theta_bound(0.25) == pytest.approx(math.pi / 3)
    assert qp.qutrit_theta_bound(0.5) == pytest.approx(math.pi / 3)
    assert qp.qutrit_theta_bound(1.0) == pytest.approx(0.0, abs=1e-12)
    eps = 1e-9
    assert qp.qutrit_theta_bound(0.5 + eps) == pytest.approx(
        qp.qutrit_theta_bound(0.5 - eps), abs=1e-4)
    with pytest.raises(ValueError):
        qp.qutrit_theta_bound(1.2)
    with pytest.raises(ValueError):
        qp.qutrit_theta_bound(-0.1)


def test_qutrit_profile_matches_direction_projection():
    b = qp.make_generators(3)
    for theta in (0.0, 0.7, -1.1):
        prof = qp.qutrit_profile(theta)
        from_dir = qp.DiagonalProfile.from_direction(b, _qutrit_direction(theta))
        np.testing.assert_allclose(prof.x, from_dir.x, atol=1e-12)
        assert abs(prof.x.sum()) < 1e-12
        assert prof.x @ prof.x == pytest.approx(1.0)


def test_profile_rejects_bad_vectors():
    with pytest.raises(ValueError):
        qp.DiagonalProfile(np.array([1.0, 1.0, -2.0]))  # unnormalized
    with pytest.raises(ValueError):
        qp.DiagonalProfile(np.array([0.6, 0.8]))  # nonzero sum


def test_coefficient_matrix_validation():
    with pytest.raises(ValueError):
        qp.CoefficientMatrix.from_array(np.eye(2))  # unnormalized
    with pytest.raises(ValueError):
        qp.CoefficientMatrix.from_array(np.ones((3, 2)) / math.sqrt(6))  # d_A > d_B
    alpha = qp.CoefficientMatrix.normalized(np.ones((2, 3)))
    assert np.trace(alpha.alpha.conj().T @ alpha.alpha).real == pytest.approx(1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_state_constructors_refuse_nonfinite_numbers(value):
    with pytest.raises(ValueError, match="finite"):
        qp.CoefficientMatrix.from_array(np.array([[value, 0.0], [0.0, 0.6]]))
    for q in (0.0, 0.5):
        with pytest.raises(ValueError, match="finite"):
            qp.density_from_purity(3, q, np.array([value, 1.0] + [0.0] * 6))
    with pytest.raises(ValueError, match="purity scalar"):
        qp.density_from_purity(3, value, np.eye(8)[0])


def test_schmidt_of_sorted_diagonal_is_trivial():
    q = 0.4
    state = qp.two_qubit_schmidt(q)
    form = qp.schmidt_decompose(state)
    assert form.phi == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(form.s_a, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(form.s_b, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(form.singular_values,
                               [math.sqrt((1 + q) / 2), math.sqrt((1 - q) / 2)],
                               atol=1e-12)


def test_schmidt_qubit_qutrit_full_rank_structure():
    state = qp.qubit_qutrit_full()
    form = qp.schmidt_decompose(state)
    np.testing.assert_allclose(form.singular_values ** 2, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(form.reconstruct(), state.alpha, atol=1e-12)
    assert abs(np.linalg.det(form.s_a) - 1) < 1e-12
    assert abs(np.linalg.det(form.s_b) - 1) < 1e-12
    # a known valid right factor for this state
    s_b = np.array([[1, 0, 0],
                    [0, 1 / math.sqrt(2), -1 / math.sqrt(2)],
                    [0, 1 / math.sqrt(2), 1 / math.sqrt(2)]])
    k = np.zeros((2, 3))
    k[:2, :2] = np.eye(2) / math.sqrt(2)
    np.testing.assert_allclose(k @ s_b.T, state.alpha, atol=1e-12)
    assert abs(np.linalg.det(s_b) - 1) < 1e-12


@pytest.mark.parametrize("seed,da,db", [(0, 3, 4), (1, 2, 5), (2, 4, 4),
                                        (3, 2, 2), (4, 3, 3)])
def test_schmidt_random_reconstruction(seed, da, db):
    rng = np.random.default_rng(seed)
    state = qp.random_state(da, db, rng)
    form = qp.schmidt_decompose(state)
    assert np.abs(form.reconstruct() - state.alpha).max() < 1e-10
    s2 = form.singular_values ** 2
    assert s2.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(form.singular_values) <= 1e-15)
    assert abs(np.linalg.det(form.s_a) - 1) < 1e-10
    assert abs(np.linalg.det(form.s_b) - 1) < 1e-10


def test_schmidt_rank_deficient_input():
    alpha = np.zeros((2, 3))
    alpha[0, 0] = 1.0
    form = qp.schmidt_decompose(qp.CoefficientMatrix.from_array(alpha))
    np.testing.assert_allclose(form.singular_values, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(form.reconstruct(), alpha, atol=1e-12)


def test_schmidt_deterministic():
    rng = np.random.default_rng(9)
    state = qp.random_state(3, 3, rng)
    f1 = qp.schmidt_decompose(state)
    f2 = qp.schmidt_decompose(state)
    np.testing.assert_array_equal(f1.s_a, f2.s_a)
    np.testing.assert_array_equal(f1.s_b, f2.s_b)


def test_reduced_densities_maximally_entangled():
    for d in (2, 3, 4):
        rho_a, rho_b = qp.reduced_densities(qp.max_entangled(d, d))
        np.testing.assert_allclose(rho_a, np.eye(d) / d, atol=1e-14)
        np.testing.assert_allclose(rho_b, np.eye(d) / d, atol=1e-14)


def test_reduced_densities_product_state():
    u = np.array([0.6, 0.8])
    v = np.array([1.0, 0.0, 0.0])
    state = qp.CoefficientMatrix.from_array(np.outer(u, v))
    rho_a, rho_b = qp.reduced_densities(state)
    for rho in (rho_a, rho_b):
        evals = np.linalg.eigvalsh(rho)
        assert evals.max() == pytest.approx(1.0)
        assert abs(np.trace(rho) - 1) < 1e-12


def test_reduced_densities_spectra_agree():
    rng = np.random.default_rng(13)
    for d_a, d_b in ((2, 4), (3, 5)):
        state = qp.random_state(d_a, d_b, rng)
        rho_a, rho_b = qp.reduced_densities(state)
        ev_a = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
        ev_b = np.sort(np.linalg.eigvalsh(rho_b))[::-1]
        np.testing.assert_allclose(ev_b[:d_a], ev_a, atol=1e-12)
        np.testing.assert_allclose(ev_b[d_a:], 0.0, atol=1e-12)


def test_reduced_densities_embedded_block():
    q = 0.4
    state = qp.qubit_qutrit_embedded(q)
    rho_a, rho_b = qp.reduced_densities(state)
    q2 = np.diag([(1 + q) / 2, (1 - q) / 2])
    np.testing.assert_allclose(rho_a, q2, atol=1e-14)
    expected_b = np.zeros((3, 3))
    expected_b[:2, :2] = q2
    np.testing.assert_allclose(rho_b, expected_b, atol=1e-14)


def test_concurrence_two_qubit_family():
    for q in (0.0, 0.3, 0.9, 1.0):
        rep = qp.entanglement_report(qp.two_qubit_schmidt(q))
        assert rep.concurrence == pytest.approx(math.sqrt(1 - q * q), abs=1e-12)
        assert rep.c_max == pytest.approx(1.0)
        # for qubits C = 2 |det Q|
        assert rep.concurrence == pytest.approx(2 * rep.det_q_abs, abs=1e-12)


def test_concurrence_two_qutrit_family():
    rep_max = qp.entanglement_report(qp.max_entangled(3, 3))
    assert rep_max.c_max == pytest.approx(math.sqrt(4.0 / 3.0))
    assert rep_max.concurrence == pytest.approx(rep_max.c_max, abs=1e-12)
    for q in (0.2, 0.6, 1.0):
        rep = qp.entanglement_report(qp.two_qutrit_schmidt(q, 0.0))
        assert rep.concurrence == pytest.approx(
            math.sqrt(4.0 / 3.0) * math.sqrt(1 - q * q), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 3), st.integers(0, 2 ** 31 - 1))
def test_invariants_match_across_sides(d_a, extra, seed):
    d_b = d_a + extra
    if d_b > 5:
        d_b = 5
    rng = np.random.default_rng(seed)
    state = qp.random_state(d_a, d_b, rng)
    rho_a, rho_b = qp.reduced_densities(state)
    rep = qp.entanglement_report(state)
    for p in range(1, d_a + 1):
        tr_a = np.trace(np.linalg.matrix_power(rho_a, p)).real
        tr_b = np.trace(np.linalg.matrix_power(rho_b, p)).real
        assert abs(tr_a - rep.traces[p - 1]) < 1e-10
        assert abs(tr_b - rep.traces[p - 1]) < 1e-10
    # purity-norm relation between the two sides
    lhs = rep.q_b ** 2 * (d_b - 1) / d_b
    rhs = rep.q_a ** 2 * (d_a - 1) / d_a + (d_b - d_a) / (d_a * d_b)
    assert abs(lhs - rhs) < 1e-10


def test_apply_local_identity_and_errors():
    state = qp.two_qubit_schmidt(0.5)
    out = qp.apply_local(state, np.eye(2), np.eye(2))
    np.testing.assert_allclose(out.alpha, state.alpha, atol=1e-14)
    with pytest.raises(ValueError):
        qp.apply_local(state, np.eye(3), np.eye(2))
    with pytest.raises(ValueError):
        qp.apply_local(state, 1.2 * np.eye(2), np.eye(2))


def test_apply_local_preserves_invariants_100_random_pairs():
    rng = np.random.default_rng(42)
    state = qp.two_qubit_schmidt(0.6)
    base = qp.entanglement_report(state)
    for _ in range(100):
        u_a = qp.random_special_unitary(2, rng)
        u_b = qp.random_special_unitary(2, rng)
        rep = qp.entanglement_report(qp.apply_local(state, u_a, u_b))
        assert abs(rep.concurrence - base.concurrence) < 1e-12
        assert abs(rep.det_q_abs - base.det_q_abs) < 1e-12
        for p in range(2):
            assert abs(rep.traces[p] - base.traces[p]) < 1e-12


def test_apply_local_diagonal_adds_phases():
    state = qp.two_qutrit_schmidt(0.4, 0.1)
    chi_a = np.array([0.3, -0.5, 0.2])
    chi_b = np.array([-0.1, 0.4, -0.3])
    out = qp.apply_local(state, np.diag(np.exp(1j * chi_a)),
                         np.diag(np.exp(1j * chi_b)))
    expected = np.diag(np.diagonal(state.alpha) * np.exp(1j * (chi_a + chi_b)))
    np.testing.assert_allclose(out.alpha, expected, atol=1e-14)


def test_schmidt_commutes_with_local_action_via_reconstruction():
    rng = np.random.default_rng(8)
    state = qp.random_state(3, 4, rng)
    base = qp.schmidt_decompose(state)
    u_a = qp.random_special_unitary(3, rng)
    u_b = qp.random_special_unitary(4, rng)
    moved = qp.apply_local(state, u_a, u_b)
    form = qp.schmidt_decompose(moved)
    np.testing.assert_allclose(form.singular_values, base.singular_values,
                               atol=1e-12)
    assert np.abs(form.reconstruct() - moved.alpha).max() < 1e-10
    # the explicitly transported factors also reconstruct the moved state
    transported = (np.exp(1j * base.phi) * (u_a @ base.s_a) @ base.k_matrix
                   @ (u_b @ base.s_b).T)
    np.testing.assert_allclose(transported, moved.alpha, atol=1e-12)


def test_equal_marginals_state_probabilities():
    for q in (1.0 / 3.0, 0.5, 1.0):
        state = qp.two_qutrit_equal_marginals(q)
        rho_a, rho_b = qp.reduced_densities(state)
        np.testing.assert_allclose(np.diagonal(rho_a).real, [1 / 3] * 3,
                                   atol=1e-12)
        np.testing.assert_allclose(np.diagonal(rho_b).real, [1 / 3] * 3,
                                   atol=1e-12)
    # q = 1/3 is a product state, q = 1 maximally entangled
    assert qp.entanglement_report(
        qp.two_qutrit_equal_marginals(1.0 / 3.0)).concurrence == pytest.approx(
        0.0, abs=1e-12)
    assert qp.entanglement_report(
        qp.two_qutrit_equal_marginals(1.0)).concurrence == pytest.approx(
        math.sqrt(4.0 / 3.0), abs=1e-12)


def test_qudit_schmidt_diagonal_domain():
    state = qp.qudit_schmidt_diagonal(4, 0.0)
    np.testing.assert_allclose(state.alpha, np.eye(4) / 2.0, atol=1e-14)
    with pytest.raises(ValueError):
        qp.qudit_schmidt_diagonal(4, 0.9)  # default profile leaves the domain
