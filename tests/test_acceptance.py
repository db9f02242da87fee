"""Acceptance criteria, one test per criterion with a printed pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import math
import time

import numpy as np

import quditphase as qp
from quditphase import closed_form as cf
from quditphase.scenarios import COLUMNS

import dense_reference as dense

TWO_PI = 2.0 * math.pi


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"\nacceptance {num}: {desc}: {status}{tail}")
    assert ok, f"criterion {num} failed{tail}"


def test_criterion_1_fractional_lattice_cycles():
    """Cycle phases of diagonal evolutions sit on 2 pi (n_A/d_A + n_B/d_B)."""
    start = time.monotonic()
    cases = {
        (2, 2): "frac22",
        (3, 3): "fig1a",
        (2, 3): "fig4a",
        (4, 4): "frac44",
        (3, 4): "frac34",
    }
    worst = 0.0
    total_events = 0
    for dims, preset in cases.items():
        lat = qp.fractional_lattice(*dims)
        out = qp.run_scenario(qp.figure_preset(preset))
        events = [e for e in out.scan.events]
        assert len(events) >= 2, (preset, "expected detected cycles")
        for ev in events:
            worst = max(worst, lat.nearest(ev.phase)[1])
            total_events += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(1, "fractional lattice over dims (2,2),(3,3),(2,3),(4,4),(3,4)", ok,
            f"{total_events} cycles, max lattice distance {worst:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_2_two_qutrit_contacts_and_overlap_oracle():
    """Maximally entangled two-qutrit run: contacts at 2 pi k/3, exact overlap."""
    start = time.monotonic()
    out = qp.run_scenario(qp.figure_preset("fig1a"))
    t = out.trace.t
    oracle = (2.0 * np.exp(1j * t) + np.exp(-2j * t)) / 3.0
    oracle_dev = float(np.abs(out.trace.overlap - oracle).max())

    idx = [int(np.argmin(np.abs(t - target)))
           for target in (TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI)]
    assert np.abs(t[idx] - [TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI]).max() < 1e-12
    mags = out.trace.overlap_mag[idx]
    mag_ok = bool(np.all(mags >= 1.0 - 1e-9))

    positive = [e for e in out.scan.events if e.t_cycle > 1e-9]
    phase_dev = float(np.max(qp.circular_distance(
        [e.phase for e in positive], [TWO_PI / 3, 2 * TWO_PI / 3, 0.0])))
    time_dev = float(np.abs(np.array([e.t_cycle for e in positive])
                            - np.array([TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI])).max())
    elapsed = time.monotonic() - start
    ok = (oracle_dev <= 1e-10 and mag_ok and phase_dev <= 1e-6
          and time_dev <= 1e-6 and elapsed < 1.0)
    _report(2, "two-qutrit contact structure and analytic overlap", ok,
            f"overlap dev {oracle_dev:.2e}, phase dev {phase_dev:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_3_product_state_circle():
    """Product-state run keeps |overlap| = 1 at every sample."""
    out = qp.run_scenario(qp.figure_preset("fig1d"))
    dev = float(np.abs(out.trace.overlap_mag - 1.0).max())
    ok = dev <= 1e-9 and out.scan.continuum
    _report(3, "product two-qutrit overlap stays on the unit circle", ok,
            f"max |1 - |overlap|| = {dev:.2e}, continuum flagged")


def test_criterion_4_two_qubit_closed_form_sweep():
    """125 Cartan combinations plus Bloch loops match the closed forms."""
    start = time.monotonic()
    worst = 0.0
    # 5 x 5 x 5 grid of (C, chi_A, chi_B)
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        q = math.sqrt(1.0 - c * c)
        state = qp.two_qubit_schmidt(q)
        for chi_a in np.linspace(-0.6, 0.6, 5):
            for chi_b in np.linspace(-0.5, 0.5, 5):
                a = qp.LocalEvolution(2, [qp.CartanLinear(
                    np.array([chi_a, -chi_a]), 1.0)])
                b = qp.LocalEvolution(2, [qp.CartanLinear(
                    np.array([chi_b, -chi_b]), 1.0)])
                tr = qp.run_trace(state, qp.PairEvolution(
                    a, b, qp.TimeGrid(1.0, 2000)))
                res = cf.two_qubit_partial(c, chi_a, chi_b)
                worst = max(worst, abs(tr.geometric_phase[-1] - res.phi_g))
    # constant-theta Bloch loops on qubit A, Omega = 2 pi (1 - cos theta)
    for c in (0.0, 0.6, 1.0):
        q = math.sqrt(1.0 - c * c)
        state = qp.two_qubit_schmidt(q)
        for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
            omega = TWO_PI * (1.0 - math.cos(theta))
            a = qp.LocalEvolution(2, [
                qp.BlochLoop(theta_end=theta, phi_rate=0.0, duration=1.0),
                qp.BlochLoop(theta_end=theta, phi_rate=TWO_PI, duration=1.0),
                qp.BlochLoop(theta_end=0.0, phi_rate=0.0, duration=1.0)])
            b = qp.identity_evolution(2, 3.0)
            tr = qp.run_trace(state, qp.PairEvolution(a, b, qp.TimeGrid(3.0, 3000)))
            got = tr.geometric_phase[-1]
            worst = max(worst, abs(got - cf.two_qubit_partial(c, 0.0, 0.0,
                                                              omega, 0.0).phi_g))
            worst = max(worst, abs(got - cf.two_qubit_cyclic(c, 0, omega, 0.0)))
    # q = 1 single-qubit equatorial loop: phi_g = -Omega/2 = -pi
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    rho = qp.density_from_purity(2, 1.0, q_hat)
    loop = qp.LocalEvolution(2, [
        qp.BlochLoop(theta_end=math.pi / 2, phi_rate=0.0, duration=1.0),
        qp.BlochLoop(theta_end=math.pi / 2, phi_rate=TWO_PI, duration=1.0),
        qp.BlochLoop(theta_end=0.0, phi_rate=0.0, duration=1.0)])
    tr = qp.single_qudit_trace(rho, loop, qp.TimeGrid(3.0, 3000))
    worst = max(worst, abs(tr.geometric_phase[-1] - (-math.pi)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(4, "two-qubit closed forms over 125 combinations plus loops", ok,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_qubit_qutrit_contacts_on_mixed_lattice():
    """Qubit-qutrit contacts happen only at n pi + 2 m pi / 3."""
    lat = qp.fractional_lattice(2, 3)
    worst = 0.0
    counts = {}
    for name in ("fig4a", "fig4b", "fig4c", "fig4d"):
        out = qp.run_scenario(qp.figure_preset(name))
        counts[name] = len(out.scan.events)
        assert not out.scan.continuum
        for ev in out.scan.events:
            worst = max(worst, lat.nearest(ev.phase)[1])
    ok = worst <= 1e-6 and all(n >= 2 for n in counts.values())
    _report(5, "qubit-qutrit unit-circle contacts on the mixed lattice", ok,
            f"contacts {counts}, max lattice distance {worst:.2e}")


def test_criterion_6_local_unitary_invariance():
    """C, C_m, Tr[Q^{2p}] and |det Q| move by < 1e-10 under local unitaries."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    checked = 0
    for _ in range(200):
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(d_a, 5))
        state = qp.random_state(d_a, d_b, rng)
        base = qp.entanglement_report(state)
        moved = qp.apply_local(state, qp.random_special_unitary(d_a, rng),
                               qp.random_special_unitary(d_b, rng))
        rep = qp.entanglement_report(moved)
        worst = max(worst, abs(rep.concurrence - base.concurrence))
        worst = max(worst, abs(rep.c_max - base.c_max))
        worst = max(worst, abs(rep.det_q_abs - base.det_q_abs))
        for p in range(d_a):
            worst = max(worst, abs(rep.traces[p] - base.traces[p]))
        checked += 1
    ok = worst < 1e-10 and checked == 200
    _report(6, "entanglement invariants under 200 random local unitaries", ok,
            f"max drift {worst:.2e}")


def test_criterion_7_structural_properties():
    """Orthonormality, velocity Pythagoras, SVD residual, Simpson order, exact
    dynamical phase."""
    # generator orthonormality for d <= 6
    gram_dev = 0.0
    for d in range(2, 7):
        basis = qp.make_generators(d)
        gram = np.einsum("aij,bji->ab", basis.generators, basis.generators)
        gram_dev = max(gram_dev, float(np.abs(gram - np.eye(d * d - 1)).max()))
    # velocity Pythagoras on random factorized paths
    rng = np.random.default_rng(7)
    pyth_dev = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        basis = qp.make_generators(d)
        k = d - 1
        coeff = np.concatenate([np.zeros(k), rng.normal(size=d * d - 1 - k)])
        gen = np.einsum("a,aij->ij", coeff, basis.generators)
        evals, vecs = np.linalg.eigh(gen)
        h_rate = rng.normal(size=k)
        t0 = float(rng.uniform(0.2, 1.4))
        h = h_rate * t0
        e_mat = qp.cartan_exponential(basis, h)
        v_mat = (vecs * np.exp(1j * evals * t0)) @ vecs.conj().T
        v_dot = 1j * gen @ v_mat
        lev_rate = basis.levels_from_h(h_rate)
        u_mat = v_mat @ e_mat
        u_dot = v_dot @ e_mat + v_mat @ (1j * np.diag(lev_rate)) @ e_mat
        u = qp.velocity_vector(basis, u_mat, u_dot)
        v = qp.velocity_vector(basis, v_mat, v_dot)
        dec = qp.decompose_velocity(basis, u, h, v)
        lhs = u @ u
        rhs = (dec.v_perp_rot @ dec.v_perp_rot
               + (dec.v_par + dec.h_dot) @ (dec.v_par + dec.h_dot))
        pyth_dev = max(pyth_dev, abs(lhs - rhs))
    # SVD reconstruction residual
    svd_dev = 0.0
    for seed in range(20):
        state = qp.random_state(int(rng.integers(2, 5)), int(rng.integers(4, 6)),
                                np.random.default_rng(seed))
        form = qp.schmidt_decompose(state)
        svd_dev = max(svd_dev, float(np.abs(form.reconstruct() - state.alpha).max()))
    # Simpson convergence order on an analytic dynamical phase, from the dense
    # frequency, and the engine's closed form on the same loop
    q_hat = np.zeros(3)
    q_hat[0] = 1.0
    rho = qp.density_from_purity(2, 0.7, q_hat)
    evo = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=2.0, phi_rate=1.1,
                                             duration=3.0)])
    bslope = 2.0 / 3.0
    exact = 0.7 * 1.1 * (0.5 * 3.0 - math.sin(bslope * 3.0) / (2 * bslope))
    errs, engine = [], []
    for n in (300, 600):
        grid = qp.TimeGrid(3.0, n)
        t = grid.times()                # all in the loop's row, the end too
        freq = dense.frequency(rho.rho, *dense.sample(evo, t, np.zeros(t.size, int)))
        errs.append(abs(dense.cumulative_simpson(freq, grid.dt)[-1] - exact))
        engine.append(abs(qp.single_qudit_trace(rho, evo, grid).dynamical_phase[-1] - exact))
    order = math.log2(errs[0] / errs[1])
    ok = (gram_dev <= 1e-12 and pyth_dev <= 1e-10 and svd_dev <= 1e-10
          and order >= 3.5 and max(engine) <= 1e-14)
    _report(7, "structural properties (orthonormality, Pythagoras, SVD, Simpson, exact "
            "dynamical phase)", ok, f"gram {gram_dev:.1e}, pyth {pyth_dev:.1e}, "
            f"svd {svd_dev:.1e}, order {order:.2f}, engine {max(engine):.1e}")


def test_criterion_8_split_independence():
    """Diagonal presets match row for row under total-rate reassignment."""
    presets = ["fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b", "fig2c",
               "fig2d", "fig3", "frac22", "frac44"]
    worst = 0.0
    for name in presets:
        cfg = qp.figure_preset(name)
        rec_a = qp.run_scenario(cfg, split="a-only").record
        rec_h = qp.run_scenario(cfg, split="half").record
        for col in COLUMNS:
            worst = max(worst, float(np.abs(rec_a.columns[col]
                                            - rec_h.columns[col]).max()))
    ok = worst <= 1e-9
    _report(8, "split-independence of diagonal presets", ok,
            f"{len(presets)} presets, max row deviation {worst:.2e}")
