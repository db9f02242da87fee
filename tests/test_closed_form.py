"""Closed-form expressions against direct evaluation and the phase engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quditphase as qp
from quditphase import closed_form as cf

TWO_PI = 2.0 * math.pi
Q_GRID = (0.0, 0.2, 0.5, 0.8, 1.0)
CHI_GRID = np.linspace(-1.4, 1.4, 5)


def _qubit_direction():
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    return q_hat


def _single_trace(d, q, q_hat, rates, steps=2000):
    rho = qp.density_from_purity(d, q, q_hat)
    evo = qp.LocalEvolution(d, [qp.CartanLinear(np.asarray(rates, float), 1.0)])
    return qp.single_qudit_trace(rho, evo, qp.TimeGrid(1.0, steps))


def _dual_phasor(a, b1, b2):
    """The qubit-qutrit dual formula: the overlap of the full-support state at
    per-level phases (a, -a) on A and (-(b1 + b2), b1, b2) on B."""
    return (np.cos(a - b2 - b1 / 2) * np.exp(-0.5j * b1)
            + np.cos(a - b1 - b2 / 2) * np.exp(-0.5j * b2)) / 2


def _support_terms(alpha, chi_a, chi_b):
    """(weights, levels) of the phasor sum over alpha's support, as ``verify`` forms them."""
    i, j = np.nonzero(alpha)
    return np.abs(alpha[i, j]) ** 2, chi_a[:, i] + chi_b[:, j]


def test_single_qudit_diagonal_mixed_alignment():
    res = cf.single_qudit_diagonal(3, 0.0, qp.qutrit_profile(0.0),
                                   [TWO_PI / 3, TWO_PI / 3, -2 * TWO_PI / 3])
    assert res.phi_total_bar + TWO_PI * res.winding == pytest.approx(
        TWO_PI / 3, abs=1e-9)
    assert res.phi_g == pytest.approx(TWO_PI / 3, abs=1e-9)


def test_single_qudit_diagonal_zero_angles():
    res = cf.single_qudit_diagonal(4, 0.3, qp.DiagonalProfile.default(4),
                                   np.zeros(4))
    assert res.phi_total_bar == 0.0
    assert res.phi_g == 0.0
    # an unphysical (q, profile) pair is rejected
    with pytest.raises(ValueError):
        cf.single_qudit_diagonal(4, 0.9, qp.DiagonalProfile.default(4),
                                 np.zeros(4))


def test_single_qudit_diagonal_reduces_to_qubit_form():
    prof = qp.DiagonalProfile(np.array([1.0, -1.0]) / math.sqrt(2))
    for q in Q_GRID:
        for chi in CHI_GRID:
            a = cf.single_qudit_diagonal(2, q, prof, [chi, -chi])
            b = cf.single_qubit_partial(q, chi, 0.0)
            assert a.phi_g == pytest.approx(b.phi_g, abs=1e-9)
            assert a.phi_total_bar == pytest.approx(b.phi_total_bar, abs=1e-9)


def test_single_qubit_partial_pure_state_solid_angle():
    for omega in (0.0, math.pi, TWO_PI):
        res = cf.single_qubit_partial(1.0, 0.0, omega)
        assert res.phi_g == pytest.approx(-omega / 2.0, abs=1e-12)


def test_single_qubit_partial_mixed_limit_jumps():
    # q = 0: only 0 or pi, jumping at the zero of cos(chi)
    below = cf.single_qubit_partial(0.0, math.pi / 2 - 0.05, 0.0)
    above = cf.single_qubit_partial(0.0, math.pi / 2 + 0.05, 0.0)
    assert below.phi_g == pytest.approx(0.0, abs=1e-9)
    assert above.phi_g == pytest.approx(math.pi, abs=1e-9)


def test_single_qubit_partial_numeric_point():
    res = cf.single_qubit_partial(0.5, math.pi / 3, 0.0)
    expected = math.atan(0.5 * math.tan(math.pi / 3)) - 0.5 * math.pi / 3
    assert res.phi_g == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
def test_single_qubit_partial_against_engine(q):
    for chi in CHI_GRID:
        tr = _single_trace(2, q, _qubit_direction(), [chi, -chi])
        res = cf.single_qubit_partial(q, chi, 0.0)
        dev = qp.circular_distance(tr.geometric_phase[-1], res.phi_g)
        assert dev < 1e-6, (q, chi, dev)


def test_single_qubit_partial_with_loop_against_engine():
    for q in (0.0, 0.5, 1.0):
        for theta in (math.pi / 3, math.pi / 2):
            omega = TWO_PI * (1 - math.cos(theta))
            chi = 0.4
            rho = qp.density_from_purity(2, q, _qubit_direction())
            evo = qp.LocalEvolution(2, [
                qp.CartanLinear(np.array([chi, -chi]), 1.0),
                qp.BlochLoop(theta_end=theta, phi_rate=0.0, duration=1.0),
                qp.BlochLoop(theta_end=theta, phi_rate=TWO_PI, duration=1.0),
                qp.BlochLoop(theta_end=0.0, phi_rate=0.0, duration=1.0)])
            tr = qp.single_qudit_trace(rho, evo, qp.TimeGrid(4.0, 4000))
            res = cf.single_qubit_partial(q, chi, omega)
            dev = qp.circular_distance(tr.geometric_phase[-1], res.phi_g)
            assert dev < 1e-6, (q, theta, dev)


def test_single_qutrit_diagonal_points():
    res0 = cf.single_qutrit_diagonal(0.0, 0.0, TWO_PI / 3, TWO_PI / 3)
    assert res0.phi_g == pytest.approx(TWO_PI / 3, abs=1e-9)
    res1 = cf.single_qutrit_diagonal(0.7, 0.1, 0.0, 0.0)
    assert res1.phi_g == 0.0
    # pure state with theta = 0: weights (0, 0, 1), zero geometric phase on
    # any diagonal evolution
    for chi0, chi1 in ((0.3, -0.1), (1.0, 0.5)):
        res = cf.single_qutrit_diagonal(1.0, 0.0, chi0, chi1)
        assert res.phi_g == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        cf.single_qutrit_diagonal(1.0, 0.3, 0.1, 0.1)


@pytest.mark.parametrize("q", Q_GRID)
def test_single_qutrit_diagonal_against_engine(q):
    theta = 0.5 * qp.qutrit_theta_bound(q)
    q_hat = np.zeros(8)
    q_hat[0] = math.cos(theta)
    q_hat[1] = math.sin(theta)
    for chi0 in CHI_GRID:
        for chi1 in CHI_GRID:
            tr = _single_trace(3, q, q_hat, [chi0, chi1, -(chi0 + chi1)])
            res = cf.single_qutrit_diagonal(q, theta, chi0, chi1)
            dev = qp.circular_distance(tr.geometric_phase[-1], res.phi_g)
            assert dev < 1e-6, (q, chi0, chi1, dev)


def test_two_qubit_partial_limits():
    # C = 1: jumps between 0 and pi only
    assert cf.two_qubit_partial(1.0, 0.3, 0.2).phi_g == pytest.approx(0.0, abs=1e-9)
    assert cf.two_qubit_partial(1.0, 1.0, 1.0).phi_g == pytest.approx(
        math.pi, abs=1e-9)
    # C = 0: the chi terms cancel, leaving the solid angles
    res = cf.two_qubit_partial(0.0, 0.7, -0.2, 1.1, 0.3)
    assert res.phi_g == pytest.approx(-(1.1 + 0.3) / 2.0, abs=1e-9)
    # numeric point
    res2 = cf.two_qubit_partial(0.6, math.pi / 8, math.pi / 8)
    expected = math.atan(0.8 * math.tan(math.pi / 4)) - 0.8 * math.pi / 4
    assert res2.phi_g == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("c", (0.0, 0.2, 0.5, 0.8, 1.0))
def test_two_qubit_partial_against_engine(c):
    q = math.sqrt(1.0 - c * c)
    state = qp.two_qubit_schmidt(q)
    for chi_a in np.linspace(-1.2, 1.2, 5):
        for chi_b in np.linspace(-0.9, 0.9, 5):
            a = qp.LocalEvolution(2, [qp.CartanLinear(np.array([chi_a, -chi_a]), 1.0)])
            b = qp.LocalEvolution(2, [qp.CartanLinear(np.array([chi_b, -chi_b]), 1.0)])
            tr = qp.run_trace(state, qp.PairEvolution(a, b, qp.TimeGrid(1.0, 2000)))
            res = cf.two_qubit_partial(c, chi_a, chi_b)
            dev = qp.circular_distance(tr.geometric_phase[-1], res.phi_g)
            assert dev < 1e-6, (c, chi_a, chi_b, dev)


def _cartan_then_loop(chi, theta, phi_rate, bend):
    """Cartan angle chi, then a closed Bloch loop: theta ramps up while phi
    turns by ``bend``, phi winds at ``phi_rate``, theta ramps back as phi
    turns by -bend. 4 time units."""
    return qp.LocalEvolution(2, [qp.CartanLinear(np.array([chi, -chi]), 1.0),
                                 qp.BlochLoop(theta_end=theta, phi_rate=bend, duration=1.0),
                                 qp.BlochLoop(theta_end=theta, phi_rate=phi_rate, duration=1.0),
                                 qp.BlochLoop(theta_end=0.0, phi_rate=-bend, duration=1.0)])


@pytest.mark.parametrize("c", (0.0, 0.3, 0.8))
def test_two_qubit_partial_with_bloch_loops_against_engine(c):
    # Schmidt state from its coefficients; C = 2 lambda_0 lambda_1 is what the
    # closed form reads, so q is never rebuilt from sqrt(1 - C^2) near C = 1
    q = math.sqrt(1.0 - c * c)
    lam = np.sqrt([(1.0 + q) / 2.0, (1.0 - q) / 2.0])
    state = qp.CoefficientMatrix.from_array(np.diag(lam))
    for chi_a, chi_b, loop_a, loop_b in (
            (0.4, -0.3, (1.0, TWO_PI, 0.5), (0.7, -TWO_PI, -0.7)),
            (-0.9, 0.5, (2.0, 2 * TWO_PI, 0.5), (1.3, TWO_PI, -0.7))):
        a = _cartan_then_loop(chi_a, *loop_a)
        b = _cartan_then_loop(chi_b, *loop_b)
        tr = qp.run_trace(state, qp.PairEvolution(a, b, qp.TimeGrid(4.0, 6000)))
        res = cf.two_qubit_partial(2.0 * lam[0] * lam[1], chi_a, chi_b,
                                   qp.solid_angle(a), qp.solid_angle(b))
        assert abs(tr.geometric_phase[-1] - res.phi_g) < 1e-10, (c, chi_a, chi_b)


def test_single_qubit_partial_with_bloch_loop_tight():
    # a diagonal rho against the closed form at the quadrature's precision
    for q, chi, loop in ((0.6, 0.4, (1.2, TWO_PI, 0.3)), (0.25, -1.1, (2.2, -TWO_PI, 0.8))):
        rho = qp.density_from_purity(2, q, _qubit_direction())
        evo = _cartan_then_loop(chi, *loop)
        tr = qp.single_qudit_trace(rho, evo, qp.TimeGrid(4.0, 6000))
        res = cf.single_qubit_partial(q, chi, qp.solid_angle(evo))
        assert abs(tr.geometric_phase[-1] - res.phi_g) < 1e-10, (q, chi)


def test_two_qubit_cyclic_values():
    assert cf.two_qubit_cyclic(1.0, 1, 5.0, 2.0) == pytest.approx(math.pi)
    assert cf.two_qubit_cyclic(0.0, 0, TWO_PI, 0.0) == pytest.approx(-math.pi)
    assert cf.two_qubit_cyclic(0.6, 1, math.pi, math.pi) == pytest.approx(
        math.pi - 0.8 * math.pi)


def test_two_qudit_diagonal_maximal_entanglement():
    prof = qp.qutrit_profile(0.0)
    c_m = math.sqrt(4.0 / 3.0)
    chi = np.array([0.9, -0.4, -0.5])
    res = cf.two_qudit_diagonal(3, c_m, prof, chi)
    assert res.phi_g == pytest.approx(res.phi_total_bar + TWO_PI * res.winding,
                                      abs=1e-12)
    res0 = cf.two_qudit_diagonal(3, 0.5, prof, np.zeros(3))
    assert res0.phi_g == 0.0
    aligned = cf.two_qudit_diagonal(
        3, c_m, prof, [TWO_PI / 3, TWO_PI / 3, -2 * TWO_PI / 3])
    assert aligned.phi_g == pytest.approx(TWO_PI / 3, abs=1e-9)


def test_two_qudit_diagonal_reduces_to_single():
    # with one side silent, the pair formula matches the single-qudit one
    # under q <-> sqrt((C_m^2 - C^2) d / (2 (d - 1)))
    d = 3
    for q in Q_GRID:
        prof = qp.qutrit_profile(0.5 * qp.qutrit_theta_bound(q))
        c = math.sqrt(4.0 / 3.0) * math.sqrt(1 - q * q)
        for chi0 in (-0.8, 0.3, 1.1):
            chi = np.array([chi0, 0.5 * chi0, -1.5 * chi0])
            a = cf.two_qudit_diagonal(d, c, prof, chi)
            b = cf.single_qudit_diagonal(d, q, prof, chi)
            assert a.phi_g == pytest.approx(b.phi_g, abs=1e-9)


@pytest.mark.parametrize("q", Q_GRID)
def test_two_qutrit_example_against_engine(q):
    theta = 0.5 * qp.qutrit_theta_bound(q)
    state = qp.two_qutrit_schmidt(q, theta)
    for chi_t0 in CHI_GRID:
        for chi_t1 in CHI_GRID:
            rates_a = np.array([chi_t0, chi_t1, -(chi_t0 + chi_t1)])
            a = qp.LocalEvolution(3, [qp.CartanLinear(rates_a, 1.0)])
            b = qp.identity_evolution(3, 1.0)
            tr = qp.run_trace(state, qp.PairEvolution(a, b, qp.TimeGrid(1.0, 2000)))
            res = cf.two_qutrit_example(q, theta, chi_t0, chi_t1)
            dev = qp.circular_distance(tr.geometric_phase[-1], res.phi_g)
            assert dev < 1e-6, (q, chi_t0, chi_t1, dev)


def test_qubit_qutrit_effective_is_two_qubit_partial():
    for c in (0.3, 0.8, 1.0):
        for chi_a in (0.2, -0.6):
            for db in (0.0, math.pi / 3):
                got = cf.qubit_qutrit_effective(c, chi_a, db / 2, -db / 2)
                want = cf.two_qubit_partial(c, chi_a, db / 2, 0.0, 0.0)
                assert got.phi_g == pytest.approx(want.phi_g, abs=1e-12)
    # chi_B0 = chi_B1 reduces to the single-angle qubit formula
    got = cf.qubit_qutrit_effective(0.8, 0.5, 0.3, 0.3)
    want = cf.two_qubit_partial(0.8, 0.5, 0.0, 0.0, 0.0)
    assert got.phi_g == pytest.approx(want.phi_g, abs=1e-12)


@pytest.mark.parametrize("q", (0.0, 0.4, 0.9))
def test_qubit_qutrit_effective_against_engine(q):
    c = math.sqrt(1 - q * q)
    state = qp.qubit_qutrit_embedded(q)
    for chi_a in (-0.7, 0.4):
        for chi_b0, chi_b1 in ((0.5, -0.2), (-0.3, 0.6)):
            chi_b2 = -(chi_b0 + chi_b1)
            a = qp.LocalEvolution(2, [qp.CartanLinear(np.array([chi_a, -chi_a]), 1.0)])
            b = qp.LocalEvolution(3, [qp.CartanLinear(
                np.array([chi_b0, chi_b1, chi_b2]), 1.0)])
            tr = qp.run_trace(state, qp.PairEvolution(a, b, qp.TimeGrid(1.0, 2000)))
            res = cf.qubit_qutrit_effective(c, chi_a, chi_b0, chi_b1)
            dev = qp.circular_distance(tr.geometric_phase[-1], res.phi_g)
            assert dev < 1e-6, (q, chi_a, chi_b0, chi_b1, dev)


def test_qubit_qutrit_dual_zero_and_sum_guard():
    res = cf.qubit_qutrit_dual(0.0, 0.0, 0.0, 0.0)
    assert res.phi_total_bar == pytest.approx(0.0, abs=1e-12)
    assert res.phi_g == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        cf.qubit_qutrit_dual(0.1, 0.2, 0.2, 0.2)


def test_ramp_sampling_scales_with_large_angles():
    # the zero-to-chi ramp once stopped at 65536 samples and then tripped
    # the unwrap guard for angles of a few 1e4 rad
    chi = 3e4
    res = cf.single_qubit_partial(0.5, chi, 0.0)
    assert res.phi_total_bar == pytest.approx(
        math.atan2(0.5 * math.sin(chi), math.cos(chi)), abs=1e-6)
    assert abs(res.phi_total_unwrapped - chi) < math.pi / 2
    assert res.phi_g == pytest.approx(res.phi_total_unwrapped - 0.5 * chi, abs=1e-9)
    dual = cf.qubit_qutrit_dual(chi, 2e4, -1e4, -1e4)
    assert dual.phi_total_bar == pytest.approx(np.angle(_dual_phasor(chi, -1e4, -1e4)),
                                               abs=1e-6)


def test_qubit_qutrit_dual_against_engine():
    state = qp.qubit_qutrit_full()
    for rate_a in (1.5, 3.0):
        t_end = 0.9
        a = qp.LocalEvolution(2, [qp.CartanLinear(np.array([rate_a, -rate_a]), t_end)])
        b = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 1.0, -2.0]), t_end)])
        tr = qp.run_trace(state, qp.PairEvolution(a, b, qp.TimeGrid(t_end, 2000)))
        res = cf.qubit_qutrit_dual(rate_a * t_end, t_end, t_end, -2 * t_end)
        dev = qp.circular_distance(tr.geometric_phase[-1], res.phi_g)
        assert dev < 1e-6, (rate_a, dev)
        dev_tot = qp.circular_distance(tr.total_phase[-1],
                                       res.phi_total_bar + TWO_PI * res.winding)
        assert dev_tot < 1e-6


def test_qubit_qutrit_dual_contacts_on_fractional_grid():
    # unit-circle contacts of the full-support state happen on n pi + 2 m pi/3
    state = qp.qubit_qutrit_full()
    a = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.5, -1.5]), 2 * TWO_PI)])
    b = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 1.0, -2.0]),
                                              2 * TWO_PI)])
    pair = qp.PairEvolution(a, b, qp.TimeGrid(2 * TWO_PI, 4002))
    scan = qp.detect_cycles(qp.run_trace(state, pair), pair)
    lat = qp.fractional_lattice(2, 3)
    assert len(scan.events) >= 6
    for ev in scan.events:
        assert lat.contains(ev.phase, tol=1e-6)


def test_support_sum_is_the_qubit_qutrit_dual_formula():
    # the full-support state's support sum, weights (1/2, 1/4, 1/4), is the
    # dual cos-formula and its dynamical phase chi_B0 / 4
    a, b1, b2 = np.random.default_rng(7).uniform(-math.pi, math.pi, size=(3, 20000))
    b0 = -(b1 + b2)
    weights, levels = _support_terms(qp.qubit_qutrit_full().alpha, np.stack([a, -a], axis=1),
                                     np.stack([b0, b1, b2], axis=1))
    np.testing.assert_allclose(weights, [0.5, 0.25, 0.25], rtol=0, atol=1e-15)
    for value, reference in ((np.exp(1j * levels) @ weights, _dual_phasor(a, b1, b2)),
                             (levels @ weights, b0 / 4)):
        assert (np.abs(value - reference) <= 1e-15 * (1 + np.abs(reference))).all()


@pytest.mark.parametrize("name", ["fig6a", "fig6b", "fig6c", "frac34"])
def test_support_sum_matches_the_engine_on_uncovered_presets(name):
    # verify covers neither state (exit 4), but on their all-diagonal paths
    # the support sum is their overlap too
    out = qp.run_scenario(qp.figure_preset(name))
    built, trace = out.built, out.trace
    times = built.grid.times()
    total, dyn = cf.diagonal_total_phase_series(*_support_terms(
        built.alpha0.alpha, built.evo_a.cartan_levels(times), built.evo_b.cartan_levels(times)))
    for engine, oracle in ((trace.total_phase, total), (trace.dynamical_phase, dyn),
                           (trace.geometric_phase, total - dyn)):
        assert np.abs(engine - oracle).max() <= 2e-14


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_total_phase_periodicity_mod_two_pi(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    prof_vec = rng.normal(size=d)
    prof_vec -= prof_vec.mean()
    prof = qp.DiagonalProfile(prof_vec / np.linalg.norm(prof_vec))
    q = float(rng.uniform(0.0, 0.3))
    chi = rng.uniform(-2, 2, size=d)
    chi -= chi.mean()
    base = cf.single_qudit_diagonal(d, q, prof, chi)
    n, m = 0, 1
    shifted = chi.copy()
    shifted[n] += TWO_PI
    shifted[m] -= TWO_PI
    res = cf.single_qudit_diagonal(d, q, prof, shifted)
    dev = qp.circular_distance(res.phi_total_bar, base.phi_total_bar)
    assert dev < 1e-9
