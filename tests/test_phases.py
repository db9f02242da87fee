"""Phase engine tests: traces, cycles, lattices, master formula, quadrature."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quditphase as qp
from quditphase import paths, phases
from quditphase.phases import cumulative_simpson

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
    scan = qp.detect_cycles(trace)
    assert not scan.continuum
    peaks = [0, 5, 7, 13, n - 1]
    assert _peaks_by_sample(mag) == peaks
    assert [(e.t_cycle, e.phase, e.overlap_mag) for e in scan.events] == [
        phases._refine_peak(t, mag, total, k) for k in peaks]


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


def _unwrap_per_sample(z, dynamical=None):
    """Reference unwrap, one sample at a time: nearest-branch steps between
    determinate samples under the aliasing guard, the dynamical slope (zero
    without one) onto a bridged sample, and a nearest-branch re-anchor on the
    first determinate sample after a bridged run."""
    mag = np.abs(z)
    scale = phases.NEAR_ORIGIN * mag.max()
    determinate = mag > phases.INDETERMINATE_TOL
    args = np.angle(z)
    out = np.empty(z.size)
    out[0] = args[0] if determinate[0] else 0.0
    for k in range(1, z.size):
        if determinate[k] and determinate[k - 1]:
            delta = math.remainder(args[k] - args[k - 1], TWO_PI)
            if abs(delta) >= phases.GUARD and min(mag[k - 1], mag[k]) > scale:
                dist = phases._chord_origin_distance(z[k - 1], z[k])
                if dist > phases.TRANSIT_RATIO * abs(z[k] - z[k - 1]):
                    raise qp.GridTooCoarseError(f"step {delta:.3f} at sample {k}")
            out[k] = out[k - 1] + delta
        elif determinate[k]:
            out[k] = out[k - 1] + math.remainder(args[k] - out[k - 1], TWO_PI)
        else:
            out[k] = out[k - 1] + (0.0 if dynamical is None
                                   else dynamical[k] - dynamical[k - 1])
    return out, ~determinate


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unwrap_matches_per_sample_loop(data):
    # bridged runs at the start, in the middle and at the end, with and without
    # a dynamical phase; coarse steps make some draws trip the guard
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
    dynamical = np.cumsum(rng.normal(size=n)) if data.draw(st.booleans()) else None
    try:
        expected = _unwrap_per_sample(z, dynamical)
    except qp.GridTooCoarseError:
        with pytest.raises(qp.GridTooCoarseError):
            qp.unwrap_phases(z, dynamical)
        return
    got = qp.unwrap_phases(z, dynamical)
    np.testing.assert_array_equal(got[1], expected[1])
    np.testing.assert_allclose(got[0], expected[0], rtol=0, atol=1e-12)


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


def test_cumulative_simpson_pairwise_cubic_exactness_and_odd_fallback():
    t = np.linspace(0.0, 2.0, 11)
    h = t[1] - t[0]
    y = t ** 3 - 2.0 * t
    exact = t ** 4 / 4.0 - t ** 2
    got = cumulative_simpson(y, h)
    # Simpson pairs are exact on cubics; interleaved half-pair points carry
    # the usual O(h^4) parabola remainder
    np.testing.assert_allclose(got[::2], exact[::2], atol=1e-13)
    np.testing.assert_allclose(got[1::2], exact[1::2], atol=h ** 4)
    # an odd interval count takes the forward parabola on the first interval,
    # exact on quadratics at every point (its order: the next test)
    t = np.linspace(0.0, 1.4, 8)
    got = cumulative_simpson(3.0 * t ** 2 - t + 2.0, t[1] - t[0])
    np.testing.assert_allclose(got, t ** 3 - t ** 2 / 2.0 + 2.0 * t, rtol=0, atol=1e-14)
    np.testing.assert_allclose(cumulative_simpson(np.ones(4), 0.5), [0.0, 0.5, 1.0, 1.5],
                               atol=1e-14)


def test_simpson_convergence_order():
    # fourth order at either parity of the interval count
    a = 1.3
    exact = 0.5 * 3.0 - math.sin(a * 3.0) / (2 * a)
    for counts in ((200, 400), (201, 401)):
        errs = []
        for n in counts:
            t = np.linspace(0.0, 3.0, n + 1)
            y = np.sin(a * t / 2.0) ** 2
            errs.append(abs(cumulative_simpson(y, t[1] - t[0])[-1] - exact))
        assert math.log2(errs[0] / errs[1]) >= 3.5, counts


def test_engine_dynamical_phase_fourth_order():
    # halving the step divides the quadrature error by ~16 on an analytic case
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
        tr = qp.single_qudit_trace(rho, evo, qp.TimeGrid(3.0, n))
        errs.append(abs(tr.dynamical_phase[-1] - exact))
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


def test_run_trace_dimension_mismatch():
    state = qp.two_qubit_schmidt(0.2)
    pair = _diag_pair(3, [1, 1, -2], [0, 0, 0], 1.0, 100)
    with pytest.raises(ValueError):
        qp.run_trace(state, pair)


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


def _frame_residuals(evo, times):
    """Residuals of U = L diag(z) R by the frame definition, from the path's
    tables and its dense samples.

    A row with unitary frames gives the largest |F^dag F - 1| over its d
    frame terms and |det L det R prod(z) - 1|. A Bloch row gives
    |F^dag F - 1| of F = W0 diag(exp(i chi0)), the deviation of its term sum
    from the dense reference's U at both ends of the row, and
    |det(W0) e^{i sum chi0} z_+ z_- - 1| with z_+- = e^{+-i theta/2}, the
    first two terms. Every sample adds |conj(z) z - 1|.
    """
    f, d = evo.frames, evo.d
    rows = evo._segment_index(times)
    z = np.exp(1j * (f.phase0[rows] + f.rate[rows] * (times - evo._starts[rows])[:, None]))
    visited = np.unique(rows)
    unitary = visited[~f.rectangular[visited]]
    terms = [f.left[unitary][:, :, :d], f.right[unitary][:, :d]]
    unit = [np.abs(z.conj() * z - 1.0).max()] + [dense.operator_residuals([m])[0]
                                                  for m in terms if m.size]
    det_frames = np.linalg.det(f.left[:, :, :d]) * np.linalg.det(f.right[:, :d])
    for k in visited[f.rectangular[visited]]:
        factor = evo._w0[k] * np.exp(1j * evo._chi0[k])
        ends = np.array([evo._starts[k], evo._ends[k]])
        sums = (f.left[k] * np.exp(1j * (f.phase0[k] + f.rate[k] * (ends - ends[0])[:, None]))
                [:, None, :]) @ f.right[k]
        ref = np.stack([dense.sample(evo, ends[:1])[0][0],
                        dense.sample(evo, ends[1:], "left")[0][0]])
        unit += [dense.operator_residuals([factor[None]])[0], np.abs(sums - ref).max()]
        det_frames[k] = np.linalg.det(evo._w0[k]) * np.exp(1j * evo._chi0[k].sum())
    det = np.abs(det_frames[rows] * z[:, :d].prod(axis=1) - 1.0).max()
    return float(max(unit)), float(det)


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
    assert rows in a.row_starts(pair.grid.times())[0]

    streamed = qp.run_trace(state, pair)
    times = pair.grid.times()
    u_a, u_a_dot = dense.sample(a, times)
    u_b, u_b_dot = dense.sample(b, times)
    ref = dense.trace_from_samples(state, times, u_a, u_a_dot, u_b, u_b_dot)
    for name in ("overlap", "overlap_mag", "total_phase"):
        np.testing.assert_allclose(getattr(streamed, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    # both paths are sampled in their frames, A (with a Bloch segment) in 8 terms
    (unit_a, det_a), (unit_b, det_b) = _frame_residuals(a, times), _frame_residuals(b, times)
    assert streamed.unitarity_residual == pytest.approx(max(unit_a, unit_b), abs=1e-15)
    assert streamed.determinant_residual == pytest.approx(max(det_a, det_b), abs=1e-15)
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
    assert evo.row_starts(grid.times())[0].tolist() == [0, 2 * rows]

    streamed = qp.single_qudit_trace(rho, evo, grid)
    times = grid.times()
    u, u_dot = dense.sample(evo, times)
    held = dense.sample(qp.identity_evolution(d, t_max), times)
    ref = dense.trace_from_samples(qp.purify(rho), times, u, u_dot, *held)
    for name in ("overlap", "overlap_mag", "total_phase"):
        np.testing.assert_allclose(getattr(streamed, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    unit, det = _frame_residuals(evo, times)     # a generator path: frame definition
    assert streamed.unitarity_residual == pytest.approx(unit, abs=1e-15)
    assert streamed.determinant_residual == pytest.approx(det, abs=1e-15)

    _one_chunk(monkeypatch)
    whole = qp.single_qudit_trace(rho, evo, grid)
    for name in ("overlap", "total_phase", "dynamical_phase", "geometric_phase"):
        np.testing.assert_allclose(getattr(streamed, name), getattr(whole, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def _record_sample_calls(monkeypatch):
    """Record (path, row, times) for every ``row_phasors`` call."""
    calls = []
    row_phasors = qp.LocalEvolution.row_phasors

    def record_row_phasors(self, k, t):
        calls.append((self, k, np.array(t, dtype=float)))
        return row_phasors(self, k, t)

    monkeypatch.setattr(qp.LocalEvolution, "row_phasors", record_row_phasors)
    return calls


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
    # every path, Bloch paths too, is sampled as row phasors, each row once
    calls = _record_sample_calls(monkeypatch)
    out = qp.scenarios.run_scenario(qp.scenarios.ScenarioConfig.from_dict(raw))
    built = out.built
    assert max(c[2].size for c in calls) <= phases.CHUNK_ROWS
    times = built.grid.times()
    evos = list({id(c[0]): c[0] for c in calls}.values())       # B is held for a single qudit
    assert len(evos) == 2 and built.evo_a in evos
    owners = [evo._segment_index(times) for evo in evos]
    cuts = np.flatnonzero(np.any([np.diff(o) != 0 for o in owners], axis=0)) + 1
    assert cuts.size
    edges = [0, *cuts.tolist(), times.size]
    for evo, owner in zip(evos, owners):
        # each sample once in its owning row, and at each cut one end sample
        # in the row of the run before it
        index = [np.arange(lo, min(hi + 1, times.size)) for lo, hi in zip(edges, edges[1:])]
        rows = [np.full(ix.size, owner[ix[0]]) for ix in index]
        sampled = [c for c in calls if c[0] is evo]
        np.testing.assert_array_equal(np.concatenate([c[2] for c in sampled]),
                                      times[np.concatenate(index)])
        sampled_rows = [np.full(c[2].size, c[1]) for c in sampled]
        np.testing.assert_array_equal(np.concatenate(sampled_rows), np.concatenate(rows))
    if raw["name"] == "generator":
        assert not built.evo_a.is_diagonal and not built.evo_a.frames.rectangular.any()
    if raw["name"] == "bloch":
        assert built.evo_a.frames.rectangular.any()


# -- frame-phasor route against the dense (U, dU/dt) route -------------------------

_PHASOR_DT = 2.0 ** -8     # exact binary step, so cuts land on chunk edges exactly


def _stitched_simpson(freq, left, cuts, dx):
    """Cumulative Simpson of ``freq`` in pieces between cuts; each piece ends
    on the left limit ``left[c]`` at its cut c and is integrated on its own."""
    out = np.zeros(freq.size)
    offset = 0.0
    edges = [0, *cuts, freq.size - 1]
    for lo, hi in zip(edges[:-1], edges[1:]):
        y = freq[lo:hi + 1].copy()
        y[-1] = left.get(hi, y[-1])
        out[lo:hi + 1] = offset + cumulative_simpson(y, dx)
        offset = out[hi]
    return out


def _dense_route(evos, state, grid):
    """(dense trace on full-grid stacks, the same stacks stitched).

    The stitched reference takes the dense overlap and integrates the dense
    frequency of the sampled stacks piecewise: the cuts are the samples where
    a path's owning row changes, and ``side="left"`` gives the left limits
    there. A single qudit's reference is its purified pair with qudit B held
    at the identity (frequency 0).
    """
    times = grid.times()
    if len(evos) == 1:
        state = qp.purify(state)
        evos = (*evos, qp.identity_evolution(state.d_b, grid.t_max))
    stacks = [dense.sample(evo, times) for evo in evos]
    ref = dense.trace_from_samples(state, times, *stacks[0], *stacks[1])
    rhos = qp.reduced_densities(state)
    freq = sum(dense.frequency(rho, *uu) for rho, uu in zip(rhos, stacks))
    moved = [np.diff(evo._segment_index(times)) != 0 for evo in evos]
    cuts = (np.flatnonzero(np.any(moved, axis=0)) + 1).tolist()
    left = sum(dense.frequency(rho, *dense.sample(evo, times[cuts], side="left"))
               for rho, evo in zip(rhos, evos)) if cuts else []
    dyn = _stitched_simpson(freq, dict(zip(cuts, left)), cuts, grid.dt)
    route = phases._finalize_trace(times, ref.overlap, dyn,
                                   (ref.unitarity_residual, ref.determinant_residual))
    return ref, route


def _expected_residuals(evos, times):
    """Dense-stack residuals of all-diagonal paths (whose frames are exact
    identities), frame-definition residuals of every other path, Bloch paths
    included, maximized over the paths."""
    res = [dense.operator_residuals([dense.sample(evo, times)[0]]) if evo.is_diagonal
           else _frame_residuals(evo, times) for evo in evos]
    return max(r[0] for r in res), max(r[1] for r in res)


def _assert_matches_dense(trace, evos, state, grid):
    ref, route = _dense_route(evos, state, grid)
    for name in ("overlap", "overlap_mag", "total_phase"):
        np.testing.assert_allclose(getattr(trace, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    for name in ("overlap", "total_phase", "dynamical_phase", "geometric_phase"):
        np.testing.assert_allclose(getattr(trace, name), getattr(route, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    unit, det = _expected_residuals(evos, grid.times())
    assert trace.unitarity_residual == pytest.approx(unit, abs=1e-15)
    assert trace.determinant_residual == pytest.approx(det, abs=1e-15)
    if all(evo.is_diagonal for evo in evos):
        for ref_trace in (ref, route):
            assert trace.unitarity_residual == pytest.approx(ref_trace.unitarity_residual,
                                                             abs=1e-15)
            assert trace.determinant_residual == pytest.approx(
                ref_trace.determinant_residual, abs=1e-15)


def _draw_edges(data, steps, rows, min_cuts=0):
    """Segment edges on the grid. Some cuts sit on chunk edges, some are
    followed by a segment of 1 or 2 samples, and the path may run past the
    grid with a cut on its last sample."""
    cuts = data.draw(st.lists(st.sampled_from([rows, 2 * rows, 3 * rows])
                              | st.integers(1, steps - 1), min_size=min_cuts, max_size=3))
    cuts += [c + data.draw(st.integers(1, 2)) for c in cuts[:data.draw(st.integers(0, 2))]]
    edges = [0] + sorted({c for c in cuts if 0 < c < steps}) + [steps]
    if data.draw(st.booleans()):
        edges.append(steps + data.draw(st.integers(1, 4)))
    return edges


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
    built = qp.scenarios.figure_preset(name).build()
    assert built.evo_a.is_diagonal and built.evo_b.is_diagonal
    trace = qp.run_trace(built.alpha0, built.pair)
    _assert_matches_dense(trace, (built.evo_a, built.evo_b), built.alpha0, built.grid)


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
    # at the default CHUNK_ROWS, runs of 4096 samples or more: both paths take
    # the table product (K = 8 on the Bloch row, 2 and 3 elsewhere)
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
    with mock.patch.object(paths, "_table_phasors", wraps=paths._table_phasors) as table:
        trace = qp.run_trace(state, qp.PairEvolution(a, b, grid))
    widths = sorted({call.args[3].size for call in table.call_args_list})
    assert widths == [2, 3, 8]
    _assert_matches_dense(trace, (a, b), state, grid)


def _haar_generator(spectrum, rng):
    """V diag(spectrum) V^dag in a Haar-random SU(d) frame V."""
    v = qp.random_special_unitary(len(spectrum), rng)
    return (v * np.asarray(spectrum, dtype=float)) @ v.conj().T


# traceless spectra, integer for d = 3 and 3/4 times integer for d = 4: exp(i G t)
# is a center element at t = 2 pi, and at every 2 pi/3 for all but (1, 0, -1)
_SPECTRA_3 = [(1, 0, -1), (2, -1, -1), (1, 1, -2)]
_SPECTRA_4 = [(0.75 * 3, -0.75, -0.75, -0.75), (0.75, 0.75, 0.75, -0.75 * 3)]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from(_SPECTRA_3), st.sampled_from(_SPECTRA_3))
def test_cycles_of_maximally_entangled_qutrits_lie_on_the_lattice(seed, spec_a, spec_b):
    # the paper's claim: under local SU(3) paths, every cyclic event of
    # max_entangled(3, 3) has total phase 2 pi m/3
    rng = np.random.default_rng(seed)
    a = qp.LocalEvolution(3, [qp.GeneratorConst(_haar_generator(spec_a, rng), TWO_PI)])
    b = qp.LocalEvolution(3, [qp.GeneratorConst(_haar_generator(spec_b, rng), TWO_PI)])
    pair = qp.PairEvolution(a, b, qp.TimeGrid(TWO_PI, 6000))
    scan = qp.detect_cycles(qp.run_trace(qp.max_entangled(3, 3), pair), pair)
    lattice = qp.fractional_lattice(3, 3)
    assert [ev.t_cycle for ev in scan.events][-1] == pytest.approx(TWO_PI)
    for ev in scan.events:
        assert lattice.nearest(ev.phase)[1] < 1e-9
        if ev.n_a is not None and ev.n_b is not None:
            assert qp.circular_distance(ev.phase, TWO_PI * (ev.n_a + ev.n_b) / 3) < 1e-9


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


def _labels_per_event(scan, pair, lattice_tol=1e-6):
    """Reference annotation: one coset_factor and cartan_levels call per event
    and path. A coset factor e^{2 pi i m/d} 1 in the center is closed and adds
    m to the index of the levels."""
    labels = []
    for ev in scan.events:
        per_path = []
        for evo in (pair.a, pair.b):
            n = None
            w = evo.coset_factor([ev.t_cycle])[0]
            for m in range(evo.d):
                center = np.exp(2j * np.pi * m / evo.d) * np.eye(evo.d)
                if np.abs(w - center).max() <= 1e-8:
                    n = qp.lattice_condition_check(evo.cartan_levels([ev.t_cycle])[0],
                                                   evo.d, tol=lattice_tol)
                    n = None if n is None else (n + m) % evo.d
            per_path.append(n)
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
        reference = qp.detect_cycles(trace)
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
