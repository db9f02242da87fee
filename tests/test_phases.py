"""Phase engine tests: traces, cycles, lattices, master formula, quadrature."""

import dataclasses
import math
from unittest import mock

import mpmath
from mpmath.calculus.quadrature import GaussLegendre
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quditphase as qp
from quditphase import phases

import dense_reference as dense

TWO_PI = 2.0 * math.pi


def _diag_pair(d, rates_a, rates_b, t_max, steps):
    a = qp.LocalEvolution(d, [qp.CartanLinear(np.asarray(rates_a, float), t_max)])
    b = qp.LocalEvolution(d, [qp.CartanLinear(np.asarray(rates_b, float), t_max)])
    return qp.PairEvolution(a, b, qp.TimeGrid(t_max, steps))


def test_identity_evolution_all_phases_zero():
    state = qp.two_qutrit_schmidt(0.3, 0.0)
    pair = qp.PairEvolution(qp.identity_evolution(3, 1.0),
                            qp.identity_evolution(3, 1.0), qp.TimeGrid(1.0, 100))
    tr = qp.run_trace(state, pair)
    np.testing.assert_allclose(tr.total_phase, 0.0, atol=1e-13)
    np.testing.assert_allclose(tr.dynamical_phase, 0.0, atol=1e-13)
    np.testing.assert_allclose(tr.geometric_phase, 0.0, atol=1e-13)
    np.testing.assert_allclose(tr.overlap_mag, 1.0, atol=1e-13)


def test_single_qubit_equatorial_loop_geometric_phase():
    # pure state, closed pole-equator-pole loop: phi_g = -Omega/2 = -pi
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    rho = qp.density_from_purity(2, 1.0, q_hat)
    loop = qp.LocalEvolution(2, [
        qp.BlochLoop(theta_end=math.pi / 2, phi_rate=0.0, duration=1.0),
        qp.BlochLoop(theta_end=math.pi / 2, phi_rate=TWO_PI, duration=1.0),
        qp.BlochLoop(theta_end=0.0, phi_rate=0.0, duration=1.0)])
    tr = qp.single_qudit_trace(rho, loop, qp.TimeGrid(3.0, 3000))
    assert qp.solid_angle(loop) == pytest.approx(TWO_PI, abs=1e-12)
    assert tr.geometric_phase[-1] == pytest.approx(-math.pi, abs=1e-6)


def test_two_qutrit_maximally_entangled_overlap_oracle():
    state = qp.two_qutrit_schmidt(0.0, 0.0)
    pair = _diag_pair(3, [1, 1, -2], [0, 0, 0], TWO_PI, 4002)
    tr = qp.run_trace(state, pair)
    oracle = (2.0 * np.exp(1j * tr.t) + np.exp(-2j * tr.t)) / 3.0
    assert np.abs(tr.overlap - oracle).max() < 1e-10
    scan = qp.detect_cycles(tr, pair)
    positive = [e for e in scan.events if e.t_cycle > 1e-9]
    times = [e.t_cycle for e in positive]
    np.testing.assert_allclose(times, [TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI],
                               atol=1e-6)
    phases = [e.phase for e in positive]
    np.testing.assert_allclose(
        qp.circular_distance(phases, [TWO_PI / 3, 2 * TWO_PI / 3, 0.0]), 0.0,
        atol=1e-6)
    assert [e.n_a for e in positive] == [1, 2, 0]


def test_single_qudit_mixed_alignment_phase():
    # completely mixed qutrit reaching the phasor-aligned point
    rho = qp.density_from_purity(3, 0.0, np.zeros(8))
    evo = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 1.0, -2.0]),
                                                TWO_PI / 3)])
    tr = qp.single_qudit_trace(rho, evo, qp.TimeGrid(TWO_PI / 3, 2000))
    assert tr.dynamical_phase[-1] == pytest.approx(0.0, abs=1e-12)
    assert tr.geometric_phase[-1] == pytest.approx(TWO_PI / 3, abs=1e-6)
    assert tr.total_phase[-1] == pytest.approx(TWO_PI / 3, abs=1e-6)


def test_single_qubit_pure_cartan_geometric_phase_vanishes():
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    rho = qp.density_from_purity(2, 1.0, q_hat)
    evo = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 1.0)])
    tr = qp.single_qudit_trace(rho, evo, qp.TimeGrid(1.0, 2000))
    np.testing.assert_allclose(tr.geometric_phase, 0.0, atol=1e-10)


def test_single_qubit_partial_cartan_value():
    # q = 0.5, chi = pi/3: phi_g = arctan(0.5 tan(pi/3)) - 0.5 pi/3,
    # cross-checked against the quadrature engine
    q = 0.5
    chi = math.pi / 3
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    rho = qp.density_from_purity(2, q, q_hat)
    evo = qp.LocalEvolution(2, [qp.CartanLinear(np.array([chi, -chi]), 1.0)])
    tr = qp.single_qudit_trace(rho, evo, qp.TimeGrid(1.0, 2000))
    expected = math.atan(q * math.tan(chi)) - q * chi
    assert tr.geometric_phase[-1] == pytest.approx(expected, abs=1e-7)
    assert expected == pytest.approx(0.1901256033, abs=1e-9)


def test_detect_cycles_identity_and_continuum():
    state = qp.two_qutrit_schmidt(1.0, 0.0)  # product state |22>
    pair = _diag_pair(3, [1, 1, -2], [0, 0, 0], TWO_PI, 400)
    tr = qp.run_trace(state, pair)
    scan = qp.detect_cycles(tr, pair)
    assert scan.continuum
    assert len(scan.events) == 1
    assert scan.events[0].t_cycle == pytest.approx(0.0)
    # identity path: a single boundary event, flagged as continuum
    ident = qp.PairEvolution(qp.identity_evolution(3, 1.0),
                             qp.identity_evolution(3, 1.0), qp.TimeGrid(1.0, 100))
    tr2 = qp.run_trace(state, ident)
    scan2 = qp.detect_cycles(tr2, ident)
    assert scan2.continuum
    assert len(scan2.events) == 1
    assert scan2.events[0].t_cycle == pytest.approx(0.0)
    assert scan2.events[0].n_a == 0 and scan2.events[0].n_b == 0


def _peaks_by_sample(mag, eps=1e-9):
    """Reference scan, one sample at a time: the top of every run of hits."""
    hits = mag >= 1.0 - eps
    peaks, k, n = [], 0, mag.size
    while k < n:
        if not hits[k]:
            k += 1
            continue
        j = k
        while j + 1 < n and hits[j + 1]:
            j += 1
        kk = k + int(np.argmax(mag[k:j + 1]))
        if (kk == 0 or mag[kk] >= mag[kk - 1]) and (kk == n - 1 or mag[kk] >= mag[kk + 1]):
            peaks.append(kk)
        k = j + 1
    return peaks


def test_detect_cycles_scans_runs_at_edges_plateaus_and_ramps():
    lo, near = 0.5, 1.0 - 1e-10
    mag = np.array([1.0, near, lo,                   # run at index 0
                    near, 1.0 - 5e-11, 1.0, lo,      # rising run: only its top counts
                    1.0, 1.0, 1.0, 0.6,              # plateau: first sample
                    1.0 - 1e-4, 0.6,                 # near miss, not a hit
                    1.0 - 5e-10, 0.7,                # one-sample run
                    1.0])                            # run at n - 1
    n = mag.size
    t = 0.1 * np.arange(n)
    total = np.cumsum(np.linspace(0.1, 0.4, n))
    overlap = mag * np.exp(1j * total)
    trace = phases.PhaseTrace(t=t, overlap=overlap, overlap_mag=mag, total_phase=total,
                              dynamical_phase=np.zeros(n), geometric_phase=total,
                              indeterminate=np.zeros(n, dtype=bool),
                              unitarity_residual=0.0, determinant_residual=0.0)
    # identity paths: their only boundary is the grid's end, so no peak is beside a cut
    hold = qp.identity_evolution(2, t[-1])
    pair = qp.PairEvolution(hold, hold, qp.TimeGrid(t[-1], n - 1))
    scan = qp.detect_cycles(trace, pair)
    assert not scan.continuum
    peaks = [0, 5, 7, 13, n - 1]
    assert _peaks_by_sample(mag) == peaks
    assert [(e.t_cycle, e.phase, e.overlap_mag) for e in scan.events] == [
        phases._refine_peak(t, mag, total, k, np.array([])) for k in peaks]


def test_unwrap_through_overlap_zero():
    # maximally entangled qubits: overlap = cos(t) crosses zero at pi/2
    state = qp.two_qubit_schmidt(0.0)
    pair = _diag_pair(2, [1, -1], [0, 0], TWO_PI, 4000)
    tr = qp.run_trace(state, pair)
    # the exact zeros at pi/2 and 3 pi/2 are flagged and bridged
    assert tr.indeterminate.sum() == 2
    np.testing.assert_allclose(tr.t[tr.indeterminate],
                               [math.pi / 2, 3 * math.pi / 2], atol=1e-12)
    scan = qp.detect_cycles(tr, pair)
    positive = [e for e in scan.events if e.t_cycle > 1e-9]
    np.testing.assert_allclose([e.t_cycle for e in positive],
                               [math.pi, TWO_PI], atol=1e-9)
    np.testing.assert_allclose(
        qp.circular_distance([e.phase for e in positive], [math.pi, 0.0]), 0.0,
        atol=1e-9)
    assert [e.n_a for e in positive] == [1, 0]


def _unwrap_per_sample(z, dynamical):
    """Reference unwrap, one sample at a time: nearest-branch steps between
    determinate samples under the aliasing guard, the dynamical slope onto a
    bridged sample, and a nearest-branch re-anchor on the
    first determinate sample after a bridged run. A step or re-anchor of
    about -pi with (pi + step) |z| at most ``INDETERMINATE_TOL`` goes +pi."""
    mag = np.abs(z)
    scale = phases.NEAR_ORIGIN * mag.max()
    determinate = mag > phases.INDETERMINATE_TOL

    def nearest(delta, k):
        delta = math.remainder(delta, TWO_PI)
        return delta + TWO_PI if (math.pi + delta) * mag[k] <= phases.INDETERMINATE_TOL else delta

    args = np.angle(z)
    out = np.empty(z.size)
    out[0] = args[0] if determinate[0] else 0.0
    for k in range(1, z.size):
        if determinate[k] and determinate[k - 1]:
            delta = nearest(args[k] - args[k - 1], k)
            if abs(delta) >= phases.GUARD and min(mag[k - 1], mag[k]) > scale:
                dist = phases._chord_origin_distance(z[k - 1], z[k])
                if dist > phases.TRANSIT_RATIO * abs(z[k] - z[k - 1]):
                    raise qp.GridTooCoarseError(f"step {delta:.3f} at sample {k}")
            out[k] = out[k - 1] + delta
        elif determinate[k]:
            out[k] = out[k - 1] + nearest(args[k] - out[k - 1], k)
        else:
            out[k] = out[k - 1] + dynamical[k] - dynamical[k - 1]
    return out, ~determinate


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unwrap_matches_per_sample_loop(data):
    # bridged runs at the start, in the middle and at the end, with and without
    # a dynamical phase (zeros bridge at zero slope); coarse steps make some
    # draws trip the guard
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = data.draw(st.integers(2, 200))
    step = data.draw(st.sampled_from([0.3, 1.0, 3.0]))
    z = rng.uniform(0.05, 1.0, n) * np.exp(1j * np.cumsum(rng.uniform(-step, step, n)))
    for where in data.draw(st.lists(st.sampled_from(["start", "middle", "end"]),
                                    unique=True)):
        length = data.draw(st.integers(1, max(1, n // 4)))
        lo = {"start": 0, "middle": (n - length) // 2, "end": n - length}[where]
        small = data.draw(st.sampled_from([0.0, 1e-13]))
        z[lo:lo + length] = small * np.exp(1j * rng.uniform(-math.pi, math.pi, length))
    dynamical = np.cumsum(rng.normal(size=n)) if data.draw(st.booleans()) else np.zeros(n)
    try:
        expected = _unwrap_per_sample(z, dynamical)
    except qp.GridTooCoarseError:
        with pytest.raises(qp.GridTooCoarseError):
            qp.unwrap_phases(z, dynamical)
        return
    got = qp.unwrap_phases(z, dynamical)
    np.testing.assert_array_equal(got[1], expected[1])
    np.testing.assert_allclose(got[0], expected[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("steps", [4000, 4002])
def test_half_turns_at_an_unresolved_zero_go_up(steps):
    # frac22's overlap is real up to rounding and changes sign at t = pi/2 and
    # 3 pi/2: on a sample at 4000 steps (bridged), between two at 4002. Whatever
    # the sign of the imaginary part after each zero, +0, -0 or +-1e-19, the
    # phase rises by pi there: a step or re-anchor of about -pi whose side of
    # the origin is below the rounding floor is taken as +pi
    built = qp.scenarios.figure_preset("frac22").build(steps)
    trace = qp.run_trace(built.alpha0, built.pair)
    z = trace.overlap
    after = np.flatnonzero(np.diff(np.sign(z.real)) != 0) + 1
    assert after.size == 2
    assert trace.indeterminate.sum() == (2 if steps == 4000 else 0)
    quarter = steps // 4
    np.testing.assert_allclose(trace.total_phase[[quarter + 2, 3 * quarter + 2, steps]],
                               [math.pi, TWO_PI, TWO_PI], rtol=0, atol=1e-12)
    for imag in (0.0, -0.0, 1e-19, -1e-19):
        moved = z.copy()
        for k in after.tolist():
            moved.imag[k:k + 2] = imag
        total, _ = qp.unwrap_phases(moved, trace.dynamical_phase)
        np.testing.assert_allclose(total - total[0], trace.total_phase, rtol=0, atol=1e-12)
        expected, _ = _unwrap_per_sample(moved, trace.dynamical_phase)
        np.testing.assert_allclose(total, expected, rtol=0, atol=1e-12)


def test_trace_invariants_hold_samplewise():
    state = qp.two_qutrit_schmidt(0.3, 0.05)
    pair = _diag_pair(3, [0.9, -0.2, -0.7], [0.1, 0.4, -0.5], 2.0, 600)
    tr = qp.run_trace(state, pair)
    np.testing.assert_allclose(tr.geometric_phase,
                               tr.total_phase - tr.dynamical_phase, atol=0)
    assert tr.overlap[0] == pytest.approx(1.0, abs=1e-12)
    assert tr.total_phase[0] == 0.0
    assert tr.dynamical_phase[0] == 0.0
    assert tr.overlap_mag.max() <= 1.0 + 1e-12


def test_fractional_lattice_values():
    np.testing.assert_allclose(qp.fractional_lattice(2, 2).values, [0, math.pi])
    np.testing.assert_allclose(qp.fractional_lattice(3, 3).values,
                               [0, TWO_PI / 3, 2 * TWO_PI / 3])
    np.testing.assert_allclose(
        qp.fractional_lattice(2, 3).values,
        [0, math.pi / 3, 2 * math.pi / 3, math.pi, 4 * math.pi / 3,
         5 * math.pi / 3])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8))
def test_fractional_lattice_structure(d_a, d_b):
    lat = qp.fractional_lattice(d_a, d_b)
    L = math.lcm(d_a, d_b)
    assert lat.order == L
    np.testing.assert_allclose(lat.values, TWO_PI * np.arange(L) / L, atol=1e-12)
    # every combination n_a/d_a + n_b/d_b lands on the grid
    for n_a in range(d_a):
        for n_b in range(d_b):
            phase = TWO_PI * (n_a / d_a + n_b / d_b)
            assert lat.contains(phase, tol=1e-9)


def test_master_formula_maximally_entangled_equal_dims():
    rep = qp.entanglement_report(qp.max_entangled(3, 3))
    zero = np.zeros(8)
    got = qp.master_phase_formula(rep, zero, zero, zero, zero, 1, 1)
    assert got == pytest.approx(TWO_PI * (1 / 3 + 1 / 3))
    # weights vanish: arbitrary loop integrals do not matter
    rng = np.random.default_rng(0)
    got2 = qp.master_phase_formula(rep, rng.normal(size=8), rng.normal(size=8),
                                   rng.normal(size=8), rng.normal(size=8), 1, 1)
    assert got2 == pytest.approx(got)


def test_master_formula_two_qubit_reduction():
    # loop integrals carrying only the coset (solid angle) part reproduce
    # n pi - sqrt(1 - C^2) (Omega_A + Omega_B) / 2
    for c in (0.0, 0.6, 1.0):
        q = math.sqrt(1 - c * c)
        rep = qp.entanglement_report(qp.two_qubit_schmidt(q))
        q_hat = np.array([1.0, 0.0, 0.0])
        omega_a, omega_b = 1.3, 0.4
        dx_a = np.array([omega_a / math.sqrt(2), 0.0, 0.0])
        dx_b = np.array([omega_b / math.sqrt(2), 0.0, 0.0])
        got = qp.master_phase_formula(rep, q_hat, q_hat, dx_a, dx_b, 1, 0)
        expected = math.pi - q * (omega_a + omega_b) / 2.0
        # sqrt(C_m^2 - C^2) amplifies rounding near C = 1 to ~1e-8
        assert got == pytest.approx(expected, abs=1e-7)


def test_master_formula_unequal_dims_weight():
    rep = qp.entanglement_report(qp.qubit_qutrit_full())
    assert rep.concurrence == pytest.approx(rep.c_max, abs=1e-12)
    q_hat_a = np.array([1.0, 0.0, 0.0])
    q_hat_b = np.zeros(8)
    q_hat_b[0] = 1.0
    dx_b = np.zeros(8)
    dx_b[0] = 1.0
    got = qp.master_phase_formula(rep, q_hat_a, q_hat_b, np.zeros(3), dx_b, 0, 0)
    # the B weight sqrt((d_B - d_A)/(d_A d_B)) never vanishes
    assert got == pytest.approx(-math.sqrt(1.0 / 6.0), abs=1e-12)


def test_engine_dynamical_phase_fourth_order():
    # on an analytic case halving the step divides the Simpson error of the
    # dense frequency by ~16, while the engine's closed form is exact at both grids
    q = 0.7
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    rho = qp.density_from_purity(2, q, q_hat)
    evo = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=2.0, phi_rate=1.1,
                                             duration=3.0)])
    b = 2.0 / 3.0
    exact = q * 1.1 * (0.5 * 3.0 - math.sin(b * 3.0) / (2 * b))
    errs = []
    for n in (300, 600):
        grid = qp.TimeGrid(3.0, n)
        t = grid.times()                # all in the loop's row, the end too
        freq = dense.frequency(rho.rho, *dense.sample(evo, t, np.zeros(t.size, int)))
        errs.append(abs(dense.cumulative_simpson(freq, grid.dt)[-1] - exact))
        assert abs(qp.single_qudit_trace(rho, evo, grid).dynamical_phase[-1] - exact) <= 1e-14
    assert math.log2(errs[0] / errs[1]) >= 3.5


def test_diagonal_swap_symmetry():
    # diagonal traces depend only on the per-level totals
    state = qp.two_qutrit_schmidt(0.4, 0.1)
    pair_ab = _diag_pair(3, [1.0, -0.4, -0.6], [0.2, 0.3, -0.5], 2.0, 1000)
    pair_ba = _diag_pair(3, [0.2, 0.3, -0.5], [1.0, -0.4, -0.6], 2.0, 1000)
    tr_ab = qp.run_trace(state, pair_ab)
    tr_ba = qp.run_trace(state, pair_ba)
    np.testing.assert_allclose(tr_ab.total_phase, tr_ba.total_phase, atol=1e-12)
    np.testing.assert_allclose(tr_ab.dynamical_phase, tr_ba.dynamical_phase,
                               atol=1e-12)


def test_grid_too_coarse_guard():
    state = qp.two_qutrit_schmidt(0.0, 0.0)
    a = qp.LocalEvolution(3, [qp.CartanLinear(np.array([100.0, 100.0, -200.0]),
                                              TWO_PI)])
    b = qp.identity_evolution(3, TWO_PI)
    with pytest.raises(qp.GridTooCoarseError):
        qp.run_trace(state, qp.PairEvolution(a, b, qp.TimeGrid(TWO_PI, 100)))
    # 4 steps put a rate of 1/2 exactly on the guard over pi; the advised
    # count, odd or even, passes it
    a = qp.LocalEvolution(2, [qp.CartanLinear(np.array([0.5, -0.5]), math.pi)])
    pair = qp.PairEvolution(a, qp.identity_evolution(2, math.pi), qp.TimeGrid(math.pi, 4))
    with pytest.raises(qp.GridTooCoarseError, match="use at least 5 steps"):
        qp.run_trace(qp.two_qubit_schmidt(0.3), pair)
    phases._check_rate_guard(a.max_phase_rate, qp.TimeGrid(math.pi, 5))


def test_run_trace_dimension_mismatch():
    state = qp.two_qubit_schmidt(0.2)
    pair = _diag_pair(3, [1, 1, -2], [0, 0, 0], 1.0, 100)
    with pytest.raises(ValueError):
        qp.run_trace(state, pair)


def test_single_qudit_trace_makes_the_pair_grid_checks():
    # a single qudit runs as its purified pair under the pair's grid rules: a
    # cut on the grid or between samples (1.0003) is integrated exactly, at
    # the rate of the row that owns each sample, and on a longer grid the
    # path holds its end
    rho = qp.density_from_purity(3, 0.5, np.eye(8)[0])
    first, second = np.array([1.0, 1.0, -2.0]), np.array([-3.0, 1.0, 2.0])
    p = np.diagonal(rho.rho).real
    grid = qp.TimeGrid(3.0, 3000)
    t = grid.times()
    for cut in (1.0, 1.0003):
        evo = qp.LocalEvolution(3, [qp.CartanLinear(first, cut),
                                    qp.CartanLinear(second, 3.0 - cut)])
        trace = qp.single_qudit_trace(rho, evo, grid)
        pair = qp.run_trace(qp.purify(rho), qp.PairEvolution(
            evo, qp.identity_evolution(3, 3.0), grid))
        for name in ("overlap", "dynamical_phase", "total_phase"):
            np.testing.assert_array_equal(getattr(trace, name), getattr(pair, name))
        expected = np.where(t < cut, p @ first * t, p @ first * cut + p @ second * (t - cut))
        assert np.abs(trace.dynamical_phase - expected).max() < 1e-13
    on = qp.LocalEvolution(3, [qp.CartanLinear(first, 1.0), qp.CartanLinear(second, 2.0)])
    trace = qp.single_qudit_trace(rho, on, grid)
    longer = qp.single_qudit_trace(rho, on, qp.TimeGrid(3.5, 3500))
    for name in ("overlap", "dynamical_phase", "total_phase"):
        np.testing.assert_allclose(getattr(longer, name)[:3001], getattr(trace, name),
                                   rtol=0, atol=1e-14, err_msg=name)
        np.testing.assert_allclose(getattr(longer, name)[3000:], getattr(trace, name)[-1],
                                   rtol=0, atol=1e-14, err_msg=name)


def test_short_library_path_holds_its_end():
    # path A ends on the grid before t_max: the pair runs, as A padded with an
    # explicit hold does
    ramp = qp.CartanLinear(np.array([1.0, 1.0, -2.0]), 1.0)
    b = qp.LocalEvolution(3, [qp.GeneratorConst(_mixed_generator(3, 4), 3.0)])
    grid = qp.TimeGrid(3.0, 3000)
    state = qp.random_state(3, 3, np.random.default_rng(8))
    short = qp.run_trace(state, qp.PairEvolution(qp.LocalEvolution(3, [ramp]), b, grid))
    padded = qp.run_trace(state, qp.PairEvolution(
        qp.LocalEvolution(3, [ramp, qp.CartanHold(2.0)]), b, grid))
    for name in ("overlap", "total_phase", "dynamical_phase", "geometric_phase"):
        np.testing.assert_allclose(getattr(short, name), getattr(padded, name),
                                   rtol=0, atol=1e-14, err_msg=name)


def test_trace_rejects_paths_not_starting_at_identity():
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    rho = qp.density_from_purity(2, 1.0, q_hat)
    evo = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=math.pi / 2, phi_rate=1.0,
                                             duration=TWO_PI,
                                             theta_start=math.pi / 2)])
    with pytest.raises(ValueError, match="identity"):
        qp.single_qudit_trace(rho, evo, qp.TimeGrid(TWO_PI, 2000))


def test_generator_path_against_brute_force():
    # independent route: synthesize the same factorized path from scratch,
    # differentiate by central differences and integrate by trapezoid
    rng = np.random.default_rng(3)
    b3 = qp.make_generators(3)
    coeff = np.concatenate([np.zeros(2), rng.normal(size=6)])
    gen = np.einsum("a,aij->ij", coeff, b3.generators)
    rates = np.array([0.7, -0.3, -0.4])
    evo = qp.LocalEvolution(3, [qp.GeneratorConst(gen, 1.0),
                                qp.CartanLinear(rates, 1.0)])
    state = qp.random_state(3, 3, rng)
    pair = qp.PairEvolution(evo, qp.identity_evolution(3, 2.0),
                            qp.TimeGrid(2.0, 2000))
    tr = qp.run_trace(state, pair)

    evals, vecs = np.linalg.eigh(gen)

    def u_of(t):
        tau = min(t, 1.0)
        w = (vecs * np.exp(1j * evals * tau)) @ vecs.conj().T
        chi = rates * max(t - 1.0, 0.0)
        return w * np.exp(1j * chi)[None, :]

    n_fine = 40001
    t_fine = np.linspace(0.0, 2.0, n_fine)
    u_fine = np.stack([u_of(t) for t in t_fine])
    alphas = u_fine @ state.alpha
    overlap = np.einsum("ij,tij->t", state.alpha.conj(), alphas)
    total_fine = np.unwrap(np.angle(overlap))
    rho_a, _ = qp.reduced_densities(state)
    u_dot = np.gradient(u_fine, t_fine, axis=0)
    m = u_fine.conj().transpose(0, 2, 1) @ u_dot
    freq = (-1j * np.einsum("ij,tji->t", rho_a, m)).real
    dyn_fine = np.concatenate([[0.0], np.cumsum(
        0.5 * (freq[1:] + freq[:-1]) * (t_fine[1] - t_fine[0]))])
    assert abs(tr.total_phase[-1] - total_fine[-1]) < 1e-6
    assert abs(tr.dynamical_phase[-1] - dyn_fine[-1]) < 1e-6
    assert abs(tr.geometric_phase[-1]
               - (total_fine[-1] - dyn_fine[-1])) < 1e-6


def test_cycles_on_fractional_lattice_when_maximally_entangled():
    # equal dimensions, C = C_m: every cycle phase sits on the lattice
    lat = qp.fractional_lattice(3, 3)
    state = qp.max_entangled(3, 3)
    pair = _diag_pair(3, [2.0, -1.0, -1.0], [1.0, 1.0, -2.0], TWO_PI, 4002)
    tr = qp.run_trace(state, pair)
    scan = qp.detect_cycles(tr, pair)
    assert not scan.continuum
    assert len(scan.events) > 1
    for ev in scan.events:
        assert lat.contains(ev.phase, tol=1e-6)


# -- streamed kernel against dense full-grid stacks ------------------------------

_DT = 2.0 ** -9        # exact binary step, so chunk edges land on the grid exactly


def _row_end_residuals(evos, times):
    """The trace's residuals (``PhaseTrace``) over the rows the times visit,
    maximized over the paths, by the frame definition at both ends of each
    row, checked against the dense reference's U there (at a row's end its
    left limit, sampled in the row). Row n, which holds the end, has row n - 1's
    residuals, so a time at or past the end visits row n - 1.

    The unitarity residual is the largest |F^dag F - 1| over a unitary row's
    two frames; on a Bloch row, over F = W0 diag(exp(i chi0)), and the
    deviation of its 8-term sum from the dense U at both ends. The
    determinant residual is the largest |det L det R prod(z) - 1| (on a Bloch
    row det(W0) e^{i sum chi0} for det L det R), z the first d terms' phasors
    at the ends; it is det U of the dense U to rounding.
    """
    unit = det = 0.0
    for evo in evos:
        f, d = evo.frames, evo.d
        w0 = dense.generator_tables(evo)[2]
        rows = np.unique(np.minimum(evo._segment_index(times), max(len(evo.segments) - 1, 0)))
        ends = np.stack([evo._starts[rows], np.append(evo._ends, evo.duration)[rows]])
        u = np.stack([dense.sample(evo, ends[0])[0], dense.sample(evo, ends[1], rows)[0]])
        tau = (ends - ends[0])[:, :, None]
        z = np.exp(1j * (f.phase0[rows] + f.rate[rows] * tau))
        frames = np.linalg.det(f.left[rows, :, :d]) * np.linalg.det(f.right[rows, :d])
        unitary = ~f.rectangular[rows]
        for frame in (f.left[rows[unitary]][:, :, :d], f.right[rows[unitary]][:, :d]):
            if frame.size:
                unit = max(unit, dense.operator_residuals([frame])[0])
        for r in np.flatnonzero(~unitary).tolist():
            k = rows[r]
            factor = w0[k] * np.exp(1j * evo._chi0[k])
            sums = (f.left[k] * z[:, r, None, :]) @ f.right[k]
            unit = max(unit, dense.operator_residuals([factor[None]])[0],
                       np.abs(sums - u[:, r]).max())
            frames[r] = np.linalg.det(w0[k]) * np.exp(1j * evo._chi0[k].sum())
        dets = frames * z[:, :, :d].prod(axis=-1)
        assert np.abs(dets - np.linalg.det(u)).max() <= 1e-13
        det = max(det, np.abs(dets - 1.0).max())
    return float(unit), float(det)


def _exact_overlap(alpha, evos, index, dt):
    """Tr[alpha^dag U_A alpha U_B^T] of all-diagonal paths at the ideal times
    i dt, each clipped to its path's end, from 50 digits: U = diag(exp(i chi))
    with chi = chi0 + rates (t - start) in the row that owns the grid sample,
    or past the end in the path's last segment, at its end."""
    out = []
    with mpmath.workdps(50):
        for i in index.tolist():
            levels = []
            for evo in evos:
                k = min(int(evo._segment_index(np.array([i * dt]))[0]),
                        max(len(evo.segments) - 1, 0))
                t = min(mpmath.mpf(i) * mpmath.mpf(dt), mpmath.mpf(evo.duration))
                tau = t - mpmath.mpf(evo._starts[k])
                levels.append([mpmath.expj(mpmath.mpf(c) + mpmath.mpf(w) * tau)
                               for c, w in zip(evo._chi0[k], evo._rates[k])])
            out.append(complex(mpmath.fsum(
                abs(mpmath.mpc(alpha[a, b])) ** 2 * levels[0][a] * levels[1][b]
                for a in range(alpha.shape[0]) for b in range(alpha.shape[1]))))
    return np.array(out)


def _assert_matches_exact(trace, built, tol, rng):
    """The trace's overlap and total phase against ``_exact_overlap`` on its 60
    smallest-|overlap| samples and 60 others: overlap within 1e-15, total
    phase within ``tol`` of the exact argument (mod 2 pi)."""
    n = trace.t.size
    index = np.union1d(np.argsort(trace.overlap_mag)[:60], rng.choice(n, 60, replace=False))
    exact = _exact_overlap(built.alpha0.alpha, (built.evo_a, built.evo_b), index,
                           built.grid.dt)
    assert np.abs(trace.overlap[index] - exact).max() <= 1e-15
    assert qp.circular_distance(trace.total_phase[index], np.angle(exact)).max() <= tol


def _mp_bloch_dynamical_phase(rho, loops, times):
    """Dynamical phase at ``times`` (ascending) of a d = 2 path of Bloch loops
    from the pole, in 50 digits: U = V(theta, phi) with theta and phi linear
    on each loop (theta_end, phi_rate, duration), the frequency
    Re -i Tr[rho V^dag dV/dt] from V's entries and their derivatives,
    integrated by 48-node Gauss-Legendre on pieces of at most 8 between the
    loops' cuts and the times."""
    with mpmath.workdps(50):
        nodes = GaussLegendre(mpmath.mp).calc_nodes(5, mpmath.mp.prec)
        r = [[mpmath.mpc(complex(v)) for v in row] for row in rho]

        def frequency(theta, phi, a, b):
            c, s, e = mpmath.cos(theta / 2), mpmath.sin(theta / 2), mpmath.expj(phi)
            v = [[c, 1j * s / e], [1j * s * e, c]]
            dv = [[-s * a / 2, 1j * c * a / (2 * e) + s * b / e],
                  [1j * c * a * e / 2 - s * b * e, -s * a / 2]]
            m = [[mpmath.conj(v[0][i]) * dv[0][j] + mpmath.conj(v[1][i]) * dv[1][j]
                  for j in range(2)] for i in range(2)]
            return mpmath.re(-1j * mpmath.fsum(r[i][j] * m[j][i]
                                                for i in range(2) for j in range(2)))

        out, total, theta, phi, start = [], mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0), 0
        pending = [mpmath.mpf(float(t)) for t in times]
        for theta_end, phi_rate, duration in loops:
            end = start + mpmath.mpf(duration)
            a, b = (mpmath.mpf(theta_end) - theta) / mpmath.mpf(duration), mpmath.mpf(phi_rate)
            lo = start
            for hi in [t for t in pending if t < end] + [end]:
                n = int(mpmath.ceil((hi - lo) / 8)) or 1
                for k in range(n):
                    half, mid = (hi - lo) / (2 * n), lo + (hi - lo) * (2 * k + 1) / (2 * n)
                    total += half * mpmath.fsum(
                        w * frequency(theta + a * (mid + half * x - start),
                                      phi + b * (mid + half * x - start), a, b)
                        for x, w in nodes)
                out.append(total)
                lo = hi
            out.pop()                       # the loop's end, unless a time is on it
            out += [total for t in pending if t == end]
            pending = [t for t in pending if t > end]
            theta, phi, start = mpmath.mpf(theta_end), phi + b * mpmath.mpf(duration), end
        return np.array([float(v) for v in out + [total] * len(pending)])


@pytest.mark.parametrize("name", ["small-delta", "long", "cut"])
def test_bloch_closed_form_against_50_digits(name):
    # the dynamical phase of Bloch loops against a 50-digit integral of the
    # authored loops: theta moving 1e-12 per unit time (Delta = 1e-12 between
    # the e^{+-i theta/2} terms), a loop over 1e3, and cuts between samples 123
    # and 124 around a loop of 0.002 that owns no sample. The long loop's
    # rates are sums of a few powers of two, so its 8 term rates
    # +-theta'/2 + (i - j) phi' are exact and the engine runs the authored
    # loop: with theta' = 0.0025 and phi' = 1.05 the rounded term rates alone
    # move its dynamical phase by 2.7e-12 at t = 1e3
    rho = qp.density_from_purity(2, 0.8, np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98))
    loops, grid, index = {
        "small-delta": ([(1.0, 0.6, 1.5), (1.0 + 3e-12, 1.3, 3.0)], qp.TimeGrid(4.5, 450),
                        [100, 150, 151, 300, 450]),
        "long": ([(1000 * 2.0 ** -9, 1.0625, 1e3)], qp.TimeGrid(1e3, 20000),
                 [1, 7777, 10000, 19999, 20000]),
        "cut": ([(1.2, 0.8, 1.2345), (1.195, 2.0, 0.002), (0.4, -1.1, 1.7635)],
                qp.TimeGrid(3.0, 300), [50, 123, 124, 250, 300]),
    }[name]
    evo = qp.LocalEvolution(2, [qp.BlochLoop(*loop) for loop in loops])
    trace = qp.single_qudit_trace(rho, evo, grid)
    exact = _mp_bloch_dynamical_phase(rho.rho, loops, grid.times()[index])
    got = trace.dynamical_phase[index]
    assert np.all(np.abs(got - exact) <= 1e-14 * (1.0 + np.abs(exact))), got - exact


def _mixed_generator(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = (z + z.conj().T) / 2.0
    return g - np.trace(g).real / d * np.eye(d)


def _one_chunk(monkeypatch):
    monkeypatch.setattr(phases, "CHUNK_ROWS", 2 ** 40)


def test_streamed_pair_trace_matches_dense_stacks(monkeypatch):
    monkeypatch.setattr(phases, "CHUNK_ROWS", 256)
    rows = phases.CHUNK_ROWS
    steps = 2 * rows + 2                        # rows + 1 samples: not a chunk multiple
    cut = rows * _DT                            # segment cut on the first chunk edge
    t_max = steps * _DT
    a = qp.LocalEvolution(2, [
        qp.BlochLoop(theta_end=1.1, phi_rate=2.0, duration=cut),
        qp.GeneratorConst(_mixed_generator(2, 1), 0.25),
        qp.CartanLinear(np.array([1.5, -1.5]), t_max - cut - 0.25)])
    b = qp.LocalEvolution(3, [
        qp.GeneratorConst(_mixed_generator(3, 2), cut),
        qp.CartanLinear(np.array([1.0, 2.0, -3.0]), t_max - cut)])
    pair = qp.PairEvolution(a, b, qp.TimeGrid(t_max, steps))
    state = qp.random_state(2, 3, np.random.default_rng(5))
    assert steps + 1 > 2 * rows and (steps + 1) % rows
    assert rows in a.row_starts(pair.grid)[0]

    streamed = qp.run_trace(state, pair)
    times = pair.grid.times()
    u_a, u_a_dot = dense.sample(a, times)
    u_b, u_b_dot = dense.sample(b, times)
    ref = dense.trace_from_samples(state, times, u_a, u_a_dot, u_b, u_b_dot)
    for name in ("overlap", "overlap_mag", "total_phase"):
        np.testing.assert_allclose(getattr(streamed, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    # the residuals of both paths' visited rows, A (with a Bloch segment) in 8 terms
    unit, det = _row_end_residuals((a, b), times)
    assert streamed.unitarity_residual == pytest.approx(unit, abs=1e-15)
    assert streamed.determinant_residual == pytest.approx(det, abs=1e-15)
    unit, det = dense.operator_residuals([u_a, u_b])
    assert (ref.unitarity_residual, ref.determinant_residual) == (unit, det)

    _one_chunk(monkeypatch)                     # the same kernel with one chunk per run
    whole = qp.run_trace(state, pair)
    for name in ("overlap", "total_phase", "dynamical_phase", "geometric_phase"):
        np.testing.assert_allclose(getattr(streamed, name), getattr(whole, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_streamed_single_trace_matches_dense_stacks(monkeypatch):
    d = 4
    monkeypatch.setattr(phases, "CHUNK_ROWS", 256)
    rows = phases.CHUNK_ROWS
    steps = 3 * rows + 10
    cut = 2 * rows * _DT
    t_max = steps * _DT
    evo = qp.LocalEvolution(d, [
        qp.GeneratorConst(_mixed_generator(d, 3), cut),
        qp.CartanLinear(np.array([1.0, 0.5, -0.5, -1.0]), t_max - cut)])
    grid = qp.TimeGrid(t_max, steps)
    q_hat = np.zeros(d * d - 1)
    q_hat[0] = 1.0
    rho = qp.density_from_purity(d, 0.4, q_hat)
    assert (steps + 1) % rows
    assert evo.row_starts(grid)[0].tolist() == [0, 2 * rows, steps]

    streamed = qp.single_qudit_trace(rho, evo, grid)
    times = grid.times()
    u, u_dot = dense.sample(evo, times)
    held = dense.sample(qp.identity_evolution(d, t_max), times)
    ref = dense.trace_from_samples(qp.purify(rho), times, u, u_dot, *held)
    for name in ("overlap", "overlap_mag", "total_phase"):
        np.testing.assert_allclose(getattr(streamed, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    unit, det = _row_end_residuals((evo,), times)     # the held identity adds nothing
    assert streamed.unitarity_residual == pytest.approx(unit, abs=1e-15)
    assert streamed.determinant_residual == pytest.approx(det, abs=1e-15)

    _one_chunk(monkeypatch)
    whole = qp.single_qudit_trace(rho, evo, grid)
    for name in ("overlap", "total_phase", "dynamical_phase", "geometric_phase"):
        np.testing.assert_allclose(getattr(streamed, name), getattr(whole, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_residuals_do_not_depend_on_the_grid_or_the_chunks(monkeypatch):
    # the residuals are those of the visited rows: bit-equal with 256-sample
    # chunks and with the step count doubled, and equal to the rows' tables
    a = qp.LocalEvolution(2, [
        qp.BlochLoop(theta_end=1.1, phi_rate=2.0, duration=0.5),
        qp.GeneratorConst(_mixed_generator(2, 1), 0.25),
        qp.CartanLinear(np.array([1.5, -1.5]), 0.75)])
    b = qp.LocalEvolution(3, [qp.GeneratorConst(_mixed_generator(3, 2), 0.5),
                              qp.CartanLinear(np.array([1.0, 2.0, -3.0]), 1.0)])
    state = qp.random_state(2, 3, np.random.default_rng(5))

    def residuals(steps):
        trace = qp.run_trace(state, qp.PairEvolution(a, b, qp.TimeGrid(1.5, steps)))
        return trace.unitarity_residual, trace.determinant_residual

    default = residuals(3000)
    assert default == residuals(6000)
    monkeypatch.setattr(phases, "CHUNK_ROWS", 256)
    assert default == residuals(3000)
    tables = [np.concatenate([evo.frames.unitarity[:-1] for evo in (a, b)]),
              np.concatenate([evo.frames.determinant_residual[:-1] for evo in (a, b)])]
    assert default == tuple(float(x.max()) for x in tables)
    assert 0.0 < default[0] < 1e-14 and 0.0 < default[1] < 1e-14


def test_samples_past_the_end_take_the_end():
    # a rate-100 ramp ending 5e-10 before the grid: its end is on the grid's
    # last sample, which row n, holding the end, owns; the ramp continued to
    # the sample's ideal time would be 5e-8 rad off
    steps, t_max = 2000, 1.0
    a = qp.LocalEvolution(2, [qp.CartanLinear(np.array([100.0, -100.0]), t_max - 5e-10)])
    b = qp.LocalEvolution(2, [qp.CartanLinear(np.array([30.0, -30.0]), t_max)])
    state = qp.two_qubit_schmidt(0.3)
    grid = qp.TimeGrid(t_max, steps)
    trace = qp.run_trace(state, qp.PairEvolution(a, b, grid))
    index = np.array([0, 1, 999, 1998, 1999, 2000])
    exact = _exact_overlap(state.alpha, (a, b), index, grid.dt)
    assert np.abs(trace.overlap[index] - exact).max() <= 1e-15
    unclipped = qp.LocalEvolution(2, [qp.CartanLinear(np.array([100.0, -100.0]), t_max)])
    far = _exact_overlap(state.alpha, (unclipped, b), index[-1:], grid.dt)
    assert abs(trace.overlap[-1] - far[0]) > 1e-8
    unit, det = _row_end_residuals((a, b), grid.times())
    assert trace.unitarity_residual == unit == 0.0
    assert trace.determinant_residual == pytest.approx(det, abs=1e-15)
    _assert_matches_dense(trace, (a, b), state, grid)


def test_float_time_queries_read_the_kernels_row():
    # a boundary 5e-9 after sample 100 (t_max 100, 1000 steps): the kernel's
    # sample 100 is in the first row, and so is the float time 10.0 that
    # coset_factor, cartan_levels and the cycle labels resolve; the second
    # row's frames continued back to t = 10 read U 1e-9 away
    a = qp.LocalEvolution(3, [qp.GeneratorConst(0.5 * _mixed_generator(3, 1), 10.000000005),
                              qp.CartanLinear(np.array([1.0, -0.5, -0.5]), 89.999999995)])
    b = qp.LocalEvolution(3, [qp.CartanHold(100.0)])
    grid = qp.TimeGrid(100.0, 1000)
    times = grid.times()
    first, rows = a.row_starts(grid)
    assert first.tolist()[:2] == [0, 101]
    owner = rows[np.searchsorted(first, np.arange(times.size), side="right") - 1]
    np.testing.assert_array_equal(a._segment_index(times), owner)
    state = qp.random_state(3, 3, np.random.default_rng(2))
    trace = qp.run_trace(state, qp.PairEvolution(a, b, grid))
    u = a.coset_factor(times[99:102]) * np.exp(1j * a.cartan_levels(times[99:102]))[:, None, :]
    read = np.einsum("ij,tij->t", state.alpha.conj(), u @ state.alpha)
    np.testing.assert_allclose(trace.overlap[99:102], read, rtol=0, atol=1e-13)
    f, tau = a.frames, times[100] - a.boundaries()[0]
    other = (f.left[1] * np.exp(1j * (f.phase0[1] + f.rate[1] * tau))) @ f.right[1]
    assert np.abs(other - u[1]).max() > 1e-9


def test_cut_past_the_grid_end_keeps_the_last_sample_in_its_row():
    # a cut 0.3 steps past t_max starts a row that owns no samples, so the last
    # sample stays in the first ramp; rounding the cut to its nearest sample
    # would move it into the second ramp, 0.016 off the exact overlap
    a = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 1.003),
                              qp.CartanLinear(np.array([-5.0, 5.0]), 1.0)])
    grid = qp.TimeGrid(1.0, 100)
    state = qp.two_qubit_schmidt(0.3)
    trace = qp.run_trace(state, qp.PairEvolution(a, qp.identity_evolution(2, 1.0), grid))
    assert a.row_starts(grid)[0].tolist() == [0]
    p = (np.abs(state.alpha) ** 2).sum(axis=1)
    assert abs(trace.overlap[-1] - p @ np.exp(1j * np.array([1.0, -1.0]))) <= 1e-15


def test_cut_far_past_a_tiny_grid_runs_without_overflow():
    # b / dt = 1e310 is past the largest float: the cut is past the grid and
    # its row owns no samples, without an overflow warning
    a = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 1e10),
                              qp.CartanHold(1.0)])
    grid = qp.TimeGrid(2e-300, 2)
    trace = qp.run_trace(qp.two_qubit_schmidt(0.3),
                         qp.PairEvolution(a, qp.identity_evolution(2, 2e-300), grid))
    assert a.row_starts(grid)[0].tolist() == [0]
    np.testing.assert_allclose(trace.overlap, 1.0, rtol=0, atol=1e-15)
    assert np.abs(trace.dynamical_phase).max() <= 1e-15


def _record_chunks(monkeypatch):
    """Record the chunks of every trace (``phases._chunks``) and every
    ``grid_phasors`` call, (path, rows, index)."""
    chunks, calls = [], []
    grid_phasors, make_chunks = qp.LocalEvolution.grid_phasors, phases._chunks

    def record_grid_phasors(self, rows, index, dt):
        calls.append((self, np.array(rows), np.array(index)))
        return grid_phasors(self, rows, index, dt)

    def record_chunks(*args):
        chunks.append(make_chunks(*args))
        return chunks[-1]

    monkeypatch.setattr(qp.LocalEvolution, "grid_phasors", record_grid_phasors)
    monkeypatch.setattr(phases, "_chunks", record_chunks)
    return chunks, calls


@pytest.mark.parametrize("raw", [
    {"name": "pair", "dims": [3, 8], "initial_state": {"preset": "max_entangled"},
     "evolution": {"a": [{"kind": "cartan_linear", "rates": [1, 1, -2], "duration": 1},
                         {"kind": "cartan_hold", "duration": 1}],
                   "b": [{"kind": "cartan_linear", "rates": [1, 0, 0, 0, 0, 0, 0, -1],
                          "duration": 2}]},
     "grid": {"t_max": 2, "steps": 5000}},
    {"name": "single", "dims": 3, "initial_state": {"purity": {"q": 0.3}},
     "evolution": {"path": [{"kind": "cartan_linear", "rates": [1, 1, -2],
                             "duration": 1},
                            {"kind": "cartan_hold", "duration": 1}]},
     "grid": {"t_max": 2, "steps": 20000}},
    {"name": "generator", "dims": [3, 8], "initial_state": {"preset": "max_entangled"},
     "evolution": {"a": [{"kind": "generator_const",
                          "generator": [[0, 1, 0], [1, 0, 0], [0, 0, 0]], "duration": 1},
                         {"kind": "cartan_hold", "duration": 1}],
                   "b": [{"kind": "cartan_linear", "rates": [1, 0, 0, 0, 0, 0, 0, -1],
                          "duration": 2}]},
     "grid": {"t_max": 2, "steps": 5000}},
    {"name": "bloch", "dims": [2, 8], "initial_state": {"preset": "max_entangled"},
     "evolution": {"a": [{"kind": "bloch_loop", "theta_end": 1.2, "phi_rate": 2,
                          "duration": 1},
                         {"kind": "cartan_linear", "rates": [1, -1], "duration": 1}],
                   "b": [{"kind": "cartan_linear", "rates": [1, 0, 0, 0, 0, 0, 0, -1],
                          "duration": 2}]},
     "grid": {"t_max": 2, "steps": 5000}},
], ids=["pair", "single", "generator", "bloch"])
def test_run_scenario_samples_each_row_once(monkeypatch, raw):
    # the chunks tile each run once, a run with a Bloch row too (no run takes
    # an end sample), each chunk at most CHUNK_ROWS long and, but for the
    # run's last, a multiple of the run's block b = ceil(sqrt(run length));
    # every path takes each chunk's coarse phasors, every b-th sample, in the
    # run's row, and the coarse samples' blocks tile each run once
    chunks, calls = _record_chunks(monkeypatch)
    out = qp.scenarios.run_scenario(qp.scenarios.ScenarioConfig.from_dict(raw))
    built = out.built
    assert len(chunks) == 1 and len(calls) == 2
    run, start, size, block = chunks[0]
    assert size.max() <= phases.CHUNK_ROWS and (size > 0).all()
    times = built.grid.times()
    evos = [c[0] for c in calls]                     # B is held for a single qudit
    assert built.evo_a in evos
    owners = [evo._segment_index(times) for evo in evos]
    cuts = np.flatnonzero(np.any([np.diff(o) != 0 for o in owners], axis=0)) + 1
    assert cuts.size
    edges = [0, *cuts.tolist(), times.size]
    bloch = [any(evo.frames.rectangular[owner[lo]] for evo, owner in zip(evos, owners))
             for lo in edges[:-1]]
    assert any(bloch) == (raw["name"] == "bloch") and not all(bloch)
    index = [np.arange(lo, hi) for lo, hi in zip(edges, edges[1:])]
    np.testing.assert_array_equal(np.repeat(np.arange(len(index)), [ix.size for ix in index]),
                                  np.repeat(run, size))
    np.testing.assert_array_equal(np.concatenate(index),
                                  np.concatenate([np.arange(s, s + m) for s, m in
                                                  zip(start.tolist(), size.tolist())]))
    np.testing.assert_array_equal(block, np.ceil(np.sqrt(np.diff(edges))))
    last = np.append(run[1:] != run[:-1], True)
    assert not (size % block[run])[~last].any()
    coarse = [np.arange(s, s + m, b) for s, m, b in zip(start, size, block[run])]
    for (evo, rows, got), owner in zip(calls, owners):
        np.testing.assert_array_equal(got, np.concatenate(coarse))
        np.testing.assert_array_equal(rows, np.repeat(owner[np.array(edges[:-1])][run],
                                                      [c.size for c in coarse]))
    covered = [np.arange(q, min(q + b, s + m)) for s, m, b, c in
               zip(start, size, block[run], coarse) for q in c.tolist()]
    np.testing.assert_array_equal(np.concatenate(covered), np.arange(times.size))
    if raw["name"] == "generator":
        assert not built.evo_a.is_diagonal and not built.evo_a.frames.rectangular.any()
    if raw["name"] == "bloch":
        assert built.evo_a.frames.rectangular.any()


def _row_constant_integral(state, evos, grid):
    """Integral of each path's row constants (``phases._row_integrals``),
    summed over the paths, and the largest deviation of those constants from
    the dense frequency -i Tr[rho U^dag dU/dt] at each row's first sample.

    The integral at sample j of row k is S_k + w_k (t_j - t_k), with the rows
    before it summed exactly into S_k (``math.fsum``).
    """
    times = grid.times()
    ref, dev = np.zeros(times.size), 0.0
    for evo, rho in zip(evos, qp.reduced_densities(state)):
        first, rows = evo.row_starts(grid)
        w = phases._row_integrals(evo, rho)[0][rows]
        dev = max(dev, np.abs(w - dense.frequency(rho, *dense.sample(evo, times[first]))).max())
        spans = np.diff(times[np.append(first, times.size - 1)])
        starts = [math.fsum(w[:k] * spans[:k]) for k in range(first.size)]
        owner = np.searchsorted(first, np.arange(times.size), side="right") - 1
        ref += np.asarray(starts)[owner] + w[owner] * (times - times[first][owner])
    return ref, dev


def _unitary_pair(name):
    """(state, path A, path B, grid) of a pair on rows with unitary frames:
    fig1c (a ramp and a hold), fig4d (a ramp pair), a generator pair, or many
    segments of ramps, holds and generators with cuts inside 256-sample chunks."""
    if name.startswith("fig"):
        built = qp.scenarios.run_scenario(qp.figure_preset(name)).built
        return built.alpha0, built.evo_a, built.evo_b, built.grid
    rng = np.random.default_rng(11)
    if name == "generator":
        t_max = 3000 * _DT
        return (qp.random_state(3, 4, rng),
                qp.LocalEvolution(3, [qp.GeneratorConst(_mixed_generator(3, 4), t_max)]),
                qp.LocalEvolution(4, [qp.GeneratorConst(_mixed_generator(4, 5), t_max)]),
                qp.TimeGrid(t_max, 3000))
    lengths = [301, 517, 129, 700, 3, 1, 2, 455, 260, 811, 77, 344]
    kinds = [qp.CartanLinear(np.array([1.0, 0.5, -1.5]), 1.0), qp.CartanHold(1.0),
             qp.GeneratorConst(_mixed_generator(3, 6), 1.0)]
    a = qp.LocalEvolution(2, [qp.CartanLinear(np.array([0.7, -0.7]), 1000 * _DT),
                              qp.GeneratorConst(_mixed_generator(2, 7), 1500 * _DT),
                              qp.CartanHold((sum(lengths) - 2500) * _DT)])
    b = qp.LocalEvolution(3, [dataclasses.replace(kinds[k % 3], duration=n * _DT)
                              for k, n in enumerate(lengths)])
    return qp.random_state(2, 3, rng), a, b, qp.TimeGrid(sum(lengths) * _DT, sum(lengths))


@pytest.mark.parametrize("name", ["fig1c", "fig4d", "generator", "segments"])
def test_unitary_dynamical_phase_is_the_exact_integral(monkeypatch, name):
    # on rows with unitary frames the frequency is a row constant, so the
    # dynamical phase is piecewise linear in t and integrated without quadrature
    # error: within a few rounding steps of the largest |dyn|
    state, a, b, grid = _unitary_pair(name)
    if name == "segments":
        monkeypatch.setattr(phases, "CHUNK_ROWS", 256)
        cuts = b.row_starts(grid)[0]
        assert (cuts[1:] % 256).all() and np.diff(cuts).max() > 256   # cuts inside chunks
    assert not (a.has_bloch or b.has_bloch)
    trace = qp.run_trace(state, qp.PairEvolution(a, b, grid))
    ref, dev = _row_constant_integral(state, (a, b), grid)
    assert dev <= 2e-15
    scale = np.abs(ref).max()
    assert scale > 1.0
    assert np.abs(trace.dynamical_phase - ref).max() <= 4 * np.finfo(float).eps * scale


# -- frame-phasor route against the dense (U, dU/dt) route -------------------------

_PHASOR_DT = 2.0 ** -8     # exact binary step, so cuts land on chunk edges exactly


def _dense_route(evos, state, grid):
    """(dense trace on full-grid stacks, the same stacks with a piecewise
    dynamical phase).

    The piecewise reference takes the dense overlap and integrates each
    path's dense frequency row by row from the row's start
    (``dense.dynamical_phase``). A single qudit's reference is its purified
    pair with qudit B held at the identity (frequency 0).
    """
    times = grid.times()
    if len(evos) == 1:
        state = qp.purify(state)
        evos = (*evos, qp.identity_evolution(state.d_b, grid.t_max))
    stacks = [dense.sample(evo, times) for evo in evos]
    ref = dense.trace_from_samples(state, times, *stacks[0], *stacks[1])
    dyn = sum(dense.dynamical_phase(evo, rho, grid)
              for evo, rho in zip(evos, qp.reduced_densities(state)))
    route = phases._finalize_trace(times, ref.overlap, dyn,
                                   (ref.unitarity_residual, ref.determinant_residual))
    return ref, route


def _assert_matches_dense(trace, evos, state, grid, exact_phase=False):
    """The trace against the dense route (``_dense_route``) and its residuals
    against ``_row_end_residuals``; with ``exact_phase`` the total and
    geometric phases are left to an exact reference."""
    ref, route = _dense_route(evos, state, grid)
    phase = () if exact_phase else ("total_phase",)
    for name in ("overlap", "overlap_mag", *phase):
        np.testing.assert_allclose(getattr(trace, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    for name in ("overlap", "dynamical_phase", *phase, *(("geometric_phase",) if phase else ())):
        np.testing.assert_allclose(getattr(trace, name), getattr(route, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    unit, det = _row_end_residuals(evos, grid.times())
    assert trace.unitarity_residual == pytest.approx(unit, abs=1e-15)
    assert trace.determinant_residual == pytest.approx(det, abs=1e-15)


def _draw_edges(data, steps, rows, min_cuts=0):
    """Segment edges in grid steps. Some cuts sit on chunk edges, some are
    followed by a segment of 1 or 2 samples, and the path may run past the
    grid with a cut on its last sample; any edge may lie between samples,
    0.3, 0.5 or 1e-9 steps after one."""
    cuts = data.draw(st.lists(st.sampled_from([rows, 2 * rows, 3 * rows])
                              | st.integers(1, steps - 1), min_size=min_cuts, max_size=3))
    cuts += [c + data.draw(st.integers(1, 2)) for c in cuts[:data.draw(st.integers(0, 2))]]
    edges = [0] + sorted({c for c in cuts if 0 < c < steps}) + [steps]
    if data.draw(st.booleans()):
        edges.append(steps + data.draw(st.integers(1, 4)))
    return [0] + [e + data.draw(st.sampled_from([0.0, 0.0, 0.3, 0.5, 1e-9])) for e in edges[1:]]


def _draw_segment(data, kind, d, duration):
    if kind == "linear":
        rates = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d)))
        return qp.CartanLinear(rates - rates.mean(), duration)
    if kind == "hold":
        return qp.CartanHold(duration)
    return qp.GeneratorConst(_mixed_generator(d, data.draw(st.integers(0, 2 ** 16))),
                             duration)


def _draw_segments(data, d, kinds, edges):
    """Path of segments of the given kinds between grid edges. A Bloch segment
    moves theta at most at rate 1, so the rate guard holds however short it is."""
    segments, theta = [], 0.0
    for kind, lo, hi in zip(kinds, edges[:-1], edges[1:]):
        duration = (hi - lo) * _PHASOR_DT
        if kind == "bloch":
            theta += float(np.clip(data.draw(st.floats(0.0, 2.0)) - theta, -duration, duration))
            segments.append(qp.BlochLoop(theta_end=theta, duration=duration,
                                         phi_rate=data.draw(st.floats(-3.0, 3.0))))
        else:
            segments.append(_draw_segment(data, kind, d, duration))
    return qp.LocalEvolution(d, segments)


def _draw_path(data, d, steps, rows, dense):
    """Random path on the grid: Cartan ramps and holds, plus generator (or, for
    d = 2, Bloch) segments when ``dense``; some cuts sit on chunk edges."""
    edges = _draw_edges(data, steps, rows)
    kinds = ["linear", "hold"]
    if dense:
        kinds += ["generator", "bloch" if d == 2 else "generator"]
    drawn = [data.draw(st.sampled_from(kinds)) for _ in edges[1:]]
    if dense:
        drawn[0] = "generator"
    return _draw_segments(data, d, drawn, edges)


def _draw_frame_path(data, d, steps, rows):
    """Random Bloch-free path with at least one generator segment among Cartan
    ramps and holds, in any order: a generator row after a ramp starts from
    chi0 != 0, a Cartan row after a generator has W0 != 1."""
    edges = _draw_edges(data, steps, rows, min_cuts=1)
    kinds = [data.draw(st.sampled_from(["linear", "hold", "generator"]))
             for _ in edges[1:]]
    if "generator" not in kinds:
        kinds[len(kinds) // 2] = "generator"
    return _draw_segments(data, d, kinds, edges)


def _random_density(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return qp.purity_decompose(m @ m.conj().T / np.trace(m @ m.conj().T).real,
                               qp.make_generators(d))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_phasor_route_matches_dense_stacks(data):
    d_a = data.draw(st.integers(2, 8))
    d_b = data.draw(st.integers(d_a, 8))
    steps = 2 * data.draw(st.integers(300, 520))      # three to five chunks
    grid = qp.TimeGrid(steps * _PHASOR_DT, steps)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    with mock.patch.object(phases, "CHUNK_ROWS", 256):
        rows = phases.CHUNK_ROWS
        dense_a, dense_b = data.draw(st.sampled_from([(False, False), (True, False),
                                                      (False, True)]))
        a = _draw_path(data, d_a, steps, rows, dense_a)
        b = _draw_path(data, d_b, steps, rows, dense_b)
        state = qp.random_state(d_a, d_b, rng)
        _assert_matches_dense(qp.run_trace(state, qp.PairEvolution(a, b, grid)),
                              (a, b), state, grid)

        rho = _random_density(d_a, rng)
        single = _draw_path(data, d_a, steps, rows, False)
        _assert_matches_dense(qp.single_qudit_trace(rho, single, grid), (single,),
                              rho, grid)


@pytest.mark.parametrize("name", qp.scenarios.available_presets())
def test_preset_phasor_route_matches_dense_route(name):
    # fig4d's phase near its overlap minima is measured against the exact
    # reference: the dense route's float times put it 1.1e-11 off there
    built = qp.scenarios.figure_preset(name).build()
    assert built.evo_a.is_diagonal and built.evo_b.is_diagonal
    trace = qp.run_trace(built.alpha0, built.pair)
    _assert_matches_dense(trace, (built.evo_a, built.evo_b), built.alpha0, built.grid,
                          exact_phase=name == "fig4d")
    if name == "fig4d":
        _assert_matches_exact(trace, built, 1e-12, np.random.default_rng(4))


@pytest.mark.parametrize("name", ["fig3", "fig4c", "fig4d"])
def test_preset_phase_is_exact_at_the_ideal_times(name):
    # the overlap and total phase at the ideal times i dt against 50-digit
    # arithmetic, on the samples nearest the overlap's minima, where rounding
    # in the phasors is amplified by 1 / |overlap|, and on random ones
    built = qp.scenarios.figure_preset(name).build()
    trace = qp.run_trace(built.alpha0, built.pair)
    assert trace.overlap_mag.min() < 0.05
    _assert_matches_exact(trace, built, 1e-12, np.random.default_rng(7))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_frame_route_matches_dense_stacks(data):
    d_a = data.draw(st.integers(2, 7))
    d_b = data.draw(st.integers(d_a + 1, 8))
    steps = 2 * data.draw(st.integers(300, 520))      # three to five chunks
    grid = qp.TimeGrid(steps * _PHASOR_DT, steps)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    with mock.patch.object(phases, "CHUNK_ROWS", 256):
        rows = phases.CHUNK_ROWS
        # a frame path on one or both sides; its partner may be all-diagonal
        # or, for d = 2, have a Bloch segment (the dense mixed contraction)
        kinds = ["frame", "diagonal"] + (["bloch"] if d_a == 2 else [])
        kind_a, kind_b = data.draw(st.sampled_from(
            [(k, "frame") for k in kinds] + [("frame", "diagonal")]))

        def path(kind, d):
            if kind == "frame":
                return _draw_frame_path(data, d, steps, rows)
            return _draw_path(data, d, steps, rows, kind == "bloch")

        a, b = path(kind_a, d_a), path(kind_b, d_b)
        state = qp.random_state(d_a, d_b, rng)
        _assert_matches_dense(qp.run_trace(state, qp.PairEvolution(a, b, grid)),
                              (a, b), state, grid)

        rho = _random_density(d_a, rng)
        single = _draw_frame_path(data, d_a, steps, rows)
        _assert_matches_dense(qp.single_qudit_trace(rho, single, grid), (single,),
                              rho, grid)


def _draw_bloch_path(data, steps, rows):
    """Random d = 2 path with a Bloch row first, in the middle or last, among
    Cartan ramps, holds, generators and more Bloch rows; the neighbours of the
    placed Bloch row may be generators (a Bloch row after one has W0 != 1, a
    generator row after one runs in the frame V_k E). Some cuts sit on chunk
    edges."""
    edges = _draw_edges(data, steps, rows, min_cuts=2)
    n = len(edges) - 1
    kinds = [data.draw(st.sampled_from(["linear", "hold", "generator", "bloch"]))
             for _ in range(n)]
    place = data.draw(st.sampled_from([0, n // 2, n - 1]))
    kinds[place] = "bloch"
    for k in (place - 1, place + 1):
        if 0 <= k < n and data.draw(st.booleans()):
            kinds[k] = "generator"
    return _draw_segments(data, 2, kinds, edges)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bloch_frame_route_matches_dense_stacks(data):
    # Bloch rows as 8-term rectangular frames against the stitched sample stacks
    d_b = data.draw(st.integers(2, 8))
    steps = 2 * data.draw(st.integers(300, 520))      # three to five chunks
    grid = qp.TimeGrid(steps * _PHASOR_DT, steps)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    with mock.patch.object(phases, "CHUNK_ROWS", 256):
        rows = phases.CHUNK_ROWS
        a = _draw_bloch_path(data, steps, rows)
        assert a.frames.rectangular.any()
        if d_b == 2 and data.draw(st.booleans()):
            b = _draw_bloch_path(data, steps, rows)
        else:
            b = _draw_path(data, d_b, steps, rows, data.draw(st.booleans()))
        state = qp.random_state(2, d_b, rng)
        _assert_matches_dense(qp.run_trace(state, qp.PairEvolution(a, b, grid)),
                              (a, b), state, grid)

        rho = _random_density(2, rng)
        single = _draw_bloch_path(data, steps, rows)
        _assert_matches_dense(qp.single_qudit_trace(rho, single, grid), (single,),
                              rho, grid)


def test_tabled_mixed_pair_matches_dense_route():
    # at the default CHUNK_ROWS, runs of 4096 samples or more, each one chunk
    # contracted in blocks of b = ceil(sqrt(run length)), 78 and 67 samples
    # (the Bloch row's 8 terms as 6 distinct phasors, 2 and 3 elsewhere)
    dt = 2.0 ** -11
    edges = [6000, 12000, 16384]
    a = qp.LocalEvolution(2, [
        qp.BlochLoop(theta_end=1.3, phi_rate=2.5, duration=edges[0] * dt),
        qp.GeneratorConst(3.0 * _mixed_generator(2, 4), (edges[1] - edges[0]) * dt),
        qp.CartanLinear(np.array([4.0, -4.0]), (edges[2] - edges[1]) * dt)])
    b = qp.LocalEvolution(3, [
        qp.GeneratorConst(2.0 * _mixed_generator(3, 5), edges[0] * dt),
        qp.CartanLinear(np.array([1.5, 2.0, -3.5]), (edges[1] - edges[0]) * dt),
        qp.GeneratorConst(_mixed_generator(3, 6), (edges[2] - edges[1]) * dt)])
    grid = qp.TimeGrid(edges[2] * dt, edges[2])
    state = qp.random_state(2, 3, np.random.default_rng(8))
    trace = qp.run_trace(state, qp.PairEvolution(a, b, grid))
    _assert_matches_dense(trace, (a, b), state, grid)


def _haar_generator(spectrum, rng):
    """V diag(spectrum) V^dag in a Haar-random SU(d) frame V."""
    v = qp.random_special_unitary(len(spectrum), rng)
    return (v * np.asarray(spectrum, dtype=float)) @ v.conj().T


# traceless spectra, integer for d = 3 and 3/4 times integer for d = 4: exp(i G t)
# is a center element at t = 2 pi, and at every 2 pi/3 for all but (1, 0, -1)
_SPECTRA_3 = [(1, 0, -1), (2, -1, -1), (1, 1, -2)]
_SPECTRA_4 = [(0.75 * 3, -0.75, -0.75, -0.75), (0.75, 0.75, 0.75, -0.75 * 3)]


def _lattice_pairs(rng, spec_a, spec_b):
    """Pairs of local paths that end as center elements: the qutrit pair of
    Haar-frame generators with integer spectra over 2 pi, a qutrit pair with
    an integer Cartan ramp on A and a ramp or a generator on B, and a qubit
    pair with, on each side, a Bloch loop out from the pole and one back, then
    a ramp with rates +-1 or +-2, over 4 pi."""
    def ramp(spectrum):
        return qp.CartanLinear(np.array(spectrum, dtype=float)[rng.permutation(3)], TWO_PI)

    def loops():
        k = float(rng.integers(1, 3))
        return qp.LocalEvolution(2, [
            qp.BlochLoop(theta_end=rng.uniform(0.3, 2.8), phi_rate=rng.uniform(-2.0, 2.0),
                         duration=math.pi),
            qp.BlochLoop(theta_end=0.0, phi_rate=rng.uniform(-2.0, 2.0), duration=math.pi),
            qp.CartanLinear(np.array([k, -k]), TWO_PI)])

    generators = [qp.GeneratorConst(_haar_generator(s, rng), TWO_PI) for s in (spec_a, spec_b)]
    b = ramp(spec_b) if rng.integers(2) else generators[1]
    return [(qp.LocalEvolution(3, [generators[0]]), qp.LocalEvolution(3, [generators[1]])),
            (qp.LocalEvolution(3, [ramp(spec_a)]), qp.LocalEvolution(3, [b])),
            (loops(), loops())]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from(_SPECTRA_3), st.sampled_from(_SPECTRA_3))
def test_cycles_of_maximally_entangled_qutrits_lie_on_the_lattice(seed, spec_a, spec_b):
    # the paper's claim: under local SU(d) paths, every cyclic event of
    # max_entangled(d, d) has total phase 2 pi m/d; qutrit pairs and, with
    # Bloch loops, qubit pairs
    for a, b in _lattice_pairs(np.random.default_rng(seed), spec_a, spec_b):
        d = a.d
        pair = qp.PairEvolution(a, b, qp.TimeGrid(a.duration, 6000))
        scan = qp.detect_cycles(qp.run_trace(qp.max_entangled(d, d), pair), pair)
        lattice = qp.fractional_lattice(d, d)
        # the paths end as center elements, so an event there; only two Cartan
        # ramps can keep U_A U_B^T central throughout (opposite rates), a continuum
        if not (scan.continuum and a.is_diagonal and b.is_diagonal):
            assert scan.events[-1].t_cycle == pytest.approx(a.duration)
        for ev in scan.events:
            assert lattice.nearest(ev.phase)[1] < 1e-9
            if ev.n_a is not None and ev.n_b is not None:
                assert qp.circular_distance(ev.phase, TWO_PI * (ev.n_a + ev.n_b) / d) < 1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from(_SPECTRA_3[1:]), st.sampled_from(_SPECTRA_4))
def test_labelled_cycles_of_qutrit_ququart_pairs_lie_on_the_lattice(seed, spec_a, spec_b):
    # unequal dimensions: each event where both paths are center elements,
    # labelled (n_a, n_b), has total phase 2 pi (n_a/3 + n_b/4); both paths are
    # central at every 2 pi/3, with nonzero labels between the ends
    rng = np.random.default_rng(seed)
    a = qp.LocalEvolution(3, [qp.GeneratorConst(_haar_generator(spec_a, rng), TWO_PI)])
    b = qp.LocalEvolution(4, [qp.GeneratorConst(_haar_generator(spec_b, rng), TWO_PI)])
    pair = qp.PairEvolution(a, b, qp.TimeGrid(TWO_PI, 6000))
    scan = qp.detect_cycles(qp.run_trace(qp.random_state(3, 4, rng), pair), pair)
    labelled = [ev for ev in scan.events if ev.n_a is not None and ev.n_b is not None]
    assert [ev.t_cycle for ev in labelled] == pytest.approx(TWO_PI * np.arange(4) / 3)
    assert any(ev.n_a and ev.n_b for ev in labelled)
    for ev in labelled:
        assert qp.circular_distance(ev.phase, TWO_PI * (ev.n_a / 3 + ev.n_b / 4)) < 1e-9


def test_unequal_dimensions_admit_cyclic_phases_off_the_lattice():
    # the counterpart of the equal-dimension property: for max_entangled(2, 3)
    # the overlap (e^{1.3 i t} + e^{-i t})/2 returns to the unit circle at
    # every 2 pi k/2.3, where qudit B's levels are not central, so the events
    # are unlabelled and their phases miss the 2 pi m/6 lattice
    t_max = TWO_PI * 5 / 2.3
    pair = qp.PairEvolution(
        qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), t_max)]),
        qp.LocalEvolution(3, [qp.CartanLinear(np.array([0.3, 0.0, -0.3]), t_max)]),
        qp.TimeGrid(t_max, 20000))
    scan = qp.detect_cycles(qp.run_trace(qp.max_entangled(2, 3), pair), pair)
    later = [ev for ev in scan.events if ev.t_cycle > 0.0]
    assert [ev.t_cycle for ev in later] == pytest.approx(TWO_PI * np.arange(1, 6) / 2.3)
    assert all(ev.n_a is None and ev.n_b is None for ev in later)
    lattice = qp.fractional_lattice(2, 3)
    assert min(lattice.nearest(ev.phase)[1] for ev in later) > 0.04


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_global_phase_immunity(data):
    # multiplying either factor by e^{i phi(t)} shifts total and dynamical alike;
    # phi is a cubic, on which the cumulative Simpson rule is exact
    d_a = data.draw(st.integers(2, 4))
    d_b = data.draw(st.integers(d_a, 4))
    steps = 2 * data.draw(st.integers(150, 260))
    grid = qp.TimeGrid(steps * _PHASOR_DT, steps)
    a = _draw_path(data, d_a, steps, 128, True)
    b = _draw_path(data, d_b, steps, 128, True)
    state = qp.random_state(d_a, d_b, np.random.default_rng(data.draw(st.integers(0, 2 ** 16))))
    times = grid.times()
    stacks = [dense.sample(a, times), dense.sample(b, times)]
    base = dense.trace_from_samples(state, times, *stacks[0], *stacks[1])
    c1, c2, c3 = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    s = times / grid.t_max
    phi = s * (c1 + s * (c2 + s * c3))
    phi_dot = (c1 + s * (2.0 * c2 + 3.0 * s * c3)) / grid.t_max
    side = data.draw(st.integers(0, 1))
    u, u_dot = stacks[side]
    scale = np.exp(1j * phi)[:, None, None]
    stacks[side] = (scale * u, scale * (u_dot + 1j * phi_dot[:, None, None] * u))
    shifted = dense.trace_from_samples(state, times, *stacks[0], *stacks[1])
    np.testing.assert_allclose(shifted.geometric_phase, base.geometric_phase, atol=1e-9)
    np.testing.assert_allclose(shifted.overlap_mag, base.overlap_mag, atol=1e-12)
    assert np.abs(shifted.total_phase - base.total_phase - phi).max() < 1e-9


def test_generator_pair_dynamical_phase_is_sum_of_generator_means():
    # on a generator segment U = exp(i G tau) U0, so -i Tr[rho U^dag dU/dt] is
    # the constant <G> = Tr[rho U0^dag G U0]; on a ramp it is rates @ diag(rho)
    d = 8
    rng = np.random.default_rng(21)
    rates = rng.normal(size=d)
    a = qp.LocalEvolution(d, [qp.GeneratorConst(_mixed_generator(d, 11), 1.0),
                              qp.CartanLinear(rates - rates.mean(), 0.5),
                              qp.GeneratorConst(_mixed_generator(d, 12), 1.5)])
    b = qp.LocalEvolution(d, [qp.CartanHold(0.75),
                              qp.GeneratorConst(_mixed_generator(d, 13), 2.25)])
    pair = qp.PairEvolution(a, b, qp.TimeGrid(3.0, 2400))
    state = qp.random_state(d, d, rng)
    trace = qp.run_trace(state, pair)
    expected = 0.0
    for evo, rho in zip((a, b), qp.reduced_densities(state)):
        start = 0.0
        for seg in evo.segments:
            u0 = dense.sample(evo, [start])[0][0]
            if isinstance(seg, qp.GeneratorConst):
                mean = np.trace(rho @ u0.conj().T @ seg.generator @ u0).real
            elif isinstance(seg, qp.CartanLinear):
                mean = seg.rates @ np.diagonal(rho).real
            else:
                mean = 0.0
            expected += mean * seg.duration
            start += seg.duration
    assert abs(trace.dynamical_phase[-1] - expected) < 1e-13


def _labels_per_event(scan, pair):
    """Reference annotation: U(t) synthesized from the segments, one call per
    event and path, labelled n where U is within 1e-8 of e^{2 pi i n/d} 1."""
    labels = []
    for ev in scan.events:
        per_path = []
        for evo in (pair.a, pair.b):
            u = dense.synthesize(evo, ev.t_cycle)[0]
            hits = [m for m in range(evo.d)
                    if np.abs(u - np.exp(2j * np.pi * m / evo.d) * np.eye(evo.d)).max() <= 1e-8]
            per_path.append(hits[0] if hits else None)
        labels.append(tuple(per_path))
    return labels


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(qp.LocalEvolution, name)

    def counted(self, times):
        calls.append(self)
        return original(self, times)

    monkeypatch.setattr(qp.LocalEvolution, name, counted)
    return calls


def test_detect_cycles_labels_all_events_at_once(monkeypatch):
    # fig6d has the most events of the presets; the sigma_x pair returns at
    # exp(i sigma_x pi) = -1, a center element, and at 1; the 3x3 pair returns
    # at t = pi, where the coset factor diag(-1, -1, 1) is open
    built = qp.scenarios.figure_preset("fig6d").build()
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    gen_pair = qp.PairEvolution(qp.LocalEvolution(2, [qp.GeneratorConst(sigma_x, TWO_PI)]),
                                qp.LocalEvolution(2, [qp.CartanHold(TWO_PI)]),
                                qp.TimeGrid(TWO_PI, 4000))
    block = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    open_pair = qp.PairEvolution(qp.LocalEvolution(3, [qp.GeneratorConst(block, TWO_PI)]),
                                 qp.LocalEvolution(3, [qp.CartanHold(TWO_PI)]),
                                 qp.TimeGrid(TWO_PI, 4000))
    open_state = qp.CoefficientMatrix.from_array(np.diag([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    cases = [(built.alpha0, built.pair), (qp.max_entangled(2, 2), gen_pair),
             (open_state, open_pair)]
    labels = []
    for state, pair in cases:
        trace = qp.run_trace(state, pair)
        reference = qp.detect_cycles(trace, pair)
        expected = _labels_per_event(reference, pair)
        cosets = _count_calls(monkeypatch, "coset_factor")
        levels = _count_calls(monkeypatch, "cartan_levels")
        scan = qp.detect_cycles(trace, pair)
        monkeypatch.undo()
        assert cosets == [pair.a, pair.b] and levels == [pair.a, pair.b]
        assert [(e.t_cycle, e.phase, e.overlap_mag) for e in scan.events] == [
            (e.t_cycle, e.phase, e.overlap_mag) for e in reference.events]
        assert [(e.n_a, e.n_b) for e in scan.events] == expected
        labels.append(expected)
    assert len(labels[0]) >= 10 and (None, None) in labels[0] and (1, 2) in labels[0]
    assert (1, 0) in labels[1] and (0, 0) in labels[1] and (None, 0) not in labels[1]
    assert (None, 0) in labels[2]


def test_cycle_labels_hold_u_itself_to_the_closure_tolerance():
    # the ramp (1, 1, -2) is the center element e^{2 pi i/3} 1 at t = 2 pi/3;
    # 1e-7 later its phasors still agree to 3e-7, but U is 1e-7 off the center
    evo = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 1.0, -2.0]), TWO_PI)])
    assert phases._lattice_labels(evo, [0.0, TWO_PI / 3, TWO_PI / 3 + 1e-7]) == [0, 1, None]


def test_trace_columns_are_disjoint_views_of_one_block():
    # a trace's float columns, the overlap as its (re, im) pairs, are stretches
    # of one allocation of 7 floats per sample: writing one column leaves every
    # other as it was. ``_finalize_trace`` also takes independent arrays (the
    # dense route) and makes the same trace from them.
    state = qp.random_state(2, 3, np.random.default_rng(4))
    a = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=1.1, phi_rate=1.5, duration=1.0),
                              qp.CartanLinear(np.array([1.0, -1.0]), 1.0)])
    b = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 1.0, -2.0]), 2.0)])
    trace = qp.run_trace(state, qp.PairEvolution(a, b, qp.TimeGrid(2.0, 3000)))
    names = ("t", "overlap", "overlap_mag", "total_phase", "dynamical_phase", "geometric_phase")
    columns = [getattr(trace, name) for name in names]
    n = trace.t.size
    block = trace.t.base
    assert n == 3001 and block.nbytes == 7 * 8 * n
    assert [c.dtype for c in columns] == [float, complex, *[float] * 4]
    assert all(c.shape == (n,) and np.shares_memory(c, block) for c in columns)
    assert not any(np.shares_memory(c, d) for k, c in enumerate(columns) for d in columns[:k])
    for k, column in enumerate(columns):
        before = [c.copy() for c in columns]
        column[:] = np.nan
        for j, other in enumerate(columns):
            if j != k:
                np.testing.assert_array_equal(other, before[j], err_msg=names[j])
        column[:] = before[k]
    t, overlap, dyn = trace.t.copy(), trace.overlap.copy(), trace.dynamical_phase.copy()
    route = phases._finalize_trace(t, overlap, dyn, (trace.unitarity_residual,
                                                     trace.determinant_residual))
    assert route.t is t and route.overlap is overlap and route.dynamical_phase is dyn
    for name in (*names, "indeterminate"):
        got, want = getattr(route, name), getattr(trace, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_finalize_trace_refuses_non_finite_magnitudes():
    overlap = np.array([1.0, np.nan, 0.5], dtype=complex)
    with pytest.raises(ValueError, match="not finite"):
        phases._finalize_trace(np.arange(3.0), overlap, np.zeros(3), (0.0, 0.0))


def test_detect_cycles_labels_center_coset_factors():
    # a d = 3 generator with spectrum (1, 1, -2) in a random frame: at 2 pi/3
    # and 4 pi/3 its factor is the center element e^{2 pi i m/3} 1, m = 1, 2
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    gen = q @ np.diag([1.0, 1.0, -2.0]) @ q.T
    pair = qp.PairEvolution(qp.LocalEvolution(3, [qp.GeneratorConst(gen, TWO_PI)]),
                            qp.LocalEvolution(3, [qp.CartanHold(TWO_PI)]),
                            qp.TimeGrid(TWO_PI, 6000))
    scan = qp.detect_cycles(qp.run_trace(qp.max_entangled(3, 3), pair), pair)
    inner = [ev for ev in scan.events if 0.1 < ev.t_cycle < TWO_PI - 0.1]
    assert [round(3 * ev.t_cycle / TWO_PI) for ev in inner] == [1, 2]
    for m, ev in enumerate(inner, start=1):
        assert qp.circular_distance(ev.phase, TWO_PI * m / 3) < 1e-6
        assert (ev.n_a, ev.n_b) == (m, 0)


# -- reparametrization invariance (Mukunda-Simon) ----------------------------------

def _traverse(segments, pieces):
    """The curve of ``segments`` run through ``pieces``: per segment, (fraction
    of its curve, duration) pairs in order, the fractions summing to one. A
    piece runs its fraction of the segment's curve in its own duration: the
    segment's rates times fraction x segment duration / piece duration, and
    on a Bloch segment theta ramps to that fraction of the segment's ramp."""
    out, theta = [], 0.0
    for seg, parts in zip(segments, pieces):
        done = 0.0
        for frac, duration in parts:
            speed, done = frac * seg.duration / duration, done + frac
            if isinstance(seg, qp.BlochLoop):
                out.append(qp.BlochLoop(theta_end=theta + done * (seg.theta_end - theta),
                                        phi_rate=speed * seg.phi_rate, duration=duration))
            elif isinstance(seg, qp.CartanLinear):
                out.append(qp.CartanLinear(speed * seg.rates, duration))
            elif isinstance(seg, qp.GeneratorConst):
                out.append(qp.GeneratorConst(speed * seg.generator, duration))
            else:
                out.append(qp.CartanHold(duration))
        theta = seg.theta_end if isinstance(seg, qp.BlochLoop) else theta
    return out


def _final_phases(state, d, sides, grid):
    """(overlap, dynamical phase) at the end of the pair of segment lists."""
    pair = qp.PairEvolution(*(qp.LocalEvolution(d, segs) for segs in sides), grid)
    trace = qp.run_trace(state, pair)
    return trace.overlap[-1], trace.dynamical_phase[-1]


def _assert_reparametrization_invariant(state, d, sides, counts, scale, splits):
    """The curve of ``sides`` (intervals of ``counts`` steps) run at other speeds
    ends on the same geometric phase: all durations and the grid scaled by
    ``scale``, or interval k's curve split at fraction f_k into pieces of m_1
    and m_2 samples, per (f_k, m_1, m_2) in ``splits``.

    The geometric phase arg f - dynamical is checked through its inputs at
    their own precision: the final overlap f and the dynamical phase within
    5e-14 each. arg f is fixed only to about eps / |f|, so at a small final
    |f| a phase bound would measure rounding, not the program."""
    steps = sum(counts)
    base = _final_phases(state, d, sides, qp.TimeGrid(steps * _PHASOR_DT, steps))
    scaled = [_traverse(segs, [[(1.0, scale * seg.duration)] for seg in segs]) for segs in sides]
    pieces = [[(f, m1 * _PHASOR_DT), (1.0 - f, m2 * _PHASOR_DT)] for f, m1, m2 in splits]
    split_steps = sum(m1 + m2 for _, m1, m2 in splits)
    for other, grid in ((scaled, qp.TimeGrid(scale * steps * _PHASOR_DT, steps)),
                        ([_traverse(segs, pieces) for segs in sides],
                         qp.TimeGrid(split_steps * _PHASOR_DT, split_steps))):
        overlap, dyn = _final_phases(state, d, other, grid)
        assert abs(overlap - base[0]) <= 5e-14 and abs(dyn - base[1]) <= 5e-14


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_final_geometric_phase_is_reparametrization_invariant(data):
    # a unitary qutrit pair or a Bloch qubit pair: Bloch rows are integrated
    # exactly as unitary ones, so both take the same bounds
    bloch = data.draw(st.booleans())
    d = 2 if bloch else 3
    counts = data.draw(st.lists(st.integers(100, 300), min_size=1, max_size=3))
    kinds = ["bloch", "bloch", "linear"] if bloch else ["linear", "hold", "generator"]
    edges = np.cumsum([0, *counts]).tolist()
    sides = [_draw_segments(data, d, [data.draw(st.sampled_from(kinds)) for _ in counts],
                            edges).segments for _ in range(2)]
    state = qp.random_state(d, d, np.random.default_rng(data.draw(st.integers(0, 2 ** 16))))
    splits = [(data.draw(st.floats(0.25, 0.75)),
               *(data.draw(st.integers(n // 3, n)) for _ in range(2))) for n in counts]
    _assert_reparametrization_invariant(state, d, sides, counts,
                                        data.draw(st.floats(0.5, 2.0)), splits)


def test_reparametrization_at_a_small_final_overlap():
    # a qutrit hold against a generator over 234 steps, split into 78 + 78:
    # the final |overlap| is 3.3e-3, where the geometric phases of the two
    # speeds once differed by 1.4e-13 while their inputs agreed to rounding
    duration = 234 * _PHASOR_DT
    sides = [[qp.CartanHold(duration)], [qp.GeneratorConst(_mixed_generator(3, 298), duration)]]
    state = qp.random_state(3, 3, np.random.default_rng(5))
    assert abs(_final_phases(state, 3, sides, qp.TimeGrid(duration, 234))[0]) < 4e-3
    _assert_reparametrization_invariant(state, 3, sides, [234], 1.5, [(0.4, 78, 78)])
