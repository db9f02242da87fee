"""Path synthesis, Cartan trajectories, solid angles, lattice condition."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quditphase as qp

import dense_reference as dense

TWO_PI = 2.0 * math.pi


def test_synthesize_cartan_linear_qutrit():
    evo = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 1.0, -2.0]), TWO_PI)])
    for t in (0.0, 0.7, 2.5):
        u, u_dot = dense.synthesize(evo, t)
        np.testing.assert_allclose(
            u, np.diag(np.exp(1j * np.array([t, t, -2 * t]))), atol=1e-13)
        np.testing.assert_allclose(
            u_dot, np.diag(1j * np.array([1, 1, -2]) * np.exp(1j * np.array([t, t, -2 * t]))),
            atol=1e-13)


def test_synthesize_bloch_segment_is_explicit_coset_matrix():
    theta = math.pi / 2
    evo = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=theta, phi_rate=1.0,
                                             duration=TWO_PI, theta_start=theta)])
    for t in (0.0, 1.0, 4.0):
        u, _ = dense.synthesize(evo, t)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        expected = np.array([[c, 1j * s * np.exp(-1j * t)],
                             [1j * s * np.exp(1j * t), c]])
        np.testing.assert_allclose(u, expected, atol=1e-13)


def test_zero_duration_path_is_identity():
    evo = qp.LocalEvolution(3, [])
    u, u_dot = dense.synthesize(evo, 0.0)
    np.testing.assert_allclose(u, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(u_dot, 0.0, atol=1e-15)


def test_sample_rejects_out_of_range():
    # a negative time is refused; past its end a path holds its end (row n)
    evo = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 0.7),
                                qp.GeneratorConst(QUBIT_GEN, 0.3)])
    for query in (lambda t: dense.sample(evo, t), evo.cartan_levels, evo.coset_factor,
                  evo.cartan_rates):
        with pytest.raises(ValueError):
            query([-0.5])
        np.testing.assert_array_equal(query([1.5, 1e3]), query([1.0, 1.0]))


def test_cartan_trajectory_qubit_h_convention():
    evo = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), math.pi)])
    traj = qp.cartan_trajectory(evo, [math.pi / 2])
    np.testing.assert_allclose(traj.levels[0], [math.pi / 2, -math.pi / 2],
                               atol=1e-13)
    assert traj.h[0, 0] == pytest.approx(math.sqrt(2) * math.pi / 2)


def test_cartan_trajectory_hold_is_constant():
    evo = qp.LocalEvolution(3, [qp.CartanLinear(np.array([0.5, 0.5, -1.0]), 1.0),
                                qp.CartanHold(2.0)])
    traj = qp.cartan_trajectory(evo, [1.0, 1.7, 3.0])
    for row in traj.levels:
        np.testing.assert_allclose(row, [0.5, 0.5, -1.0], atol=1e-13)


def test_cartan_trajectory_stepped_profile():
    # chi_T0 = -t throughout; chi_T1 ramps and holds alternately
    dur = TWO_PI / 3.0
    segs = []
    for k in range(6):
        rates = [-1.0, 1.0, 0.0] if k % 2 == 0 else [-1.0, 0.0, 1.0]
        segs.append(qp.CartanLinear(np.array(rates), dur))
    evo = qp.LocalEvolution(3, segs)
    traj = qp.cartan_trajectory(evo, [TWO_PI / 3.0])
    np.testing.assert_allclose(traj.levels[0],
                               [-TWO_PI / 3.0, TWO_PI / 3.0, 0.0], atol=1e-12)


def test_hold_pins_expected_angles():
    good = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 0.5),
                                 qp.CartanHold(1.0, angles=np.array([0.5, -0.5]))])
    assert good.duration == pytest.approx(1.5)
    with pytest.raises(ValueError):
        qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 0.5),
                              qp.CartanHold(1.0, angles=np.array([0.7, -0.7]))])


def test_rates_must_sum_to_zero():
    with pytest.raises(ValueError):
        qp.CartanLinear(np.array([1.0, 1.0]), 1.0)


def test_bloch_requires_qubit_dimension():
    with pytest.raises(ValueError):
        qp.LocalEvolution(3, [qp.BlochLoop(theta_end=1.0, phi_rate=0.0,
                                           duration=1.0)])


def test_generator_validation():
    with pytest.raises(ValueError):
        qp.GeneratorConst(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)  # not Hermitian
    with pytest.raises(ValueError):
        qp.GeneratorConst(np.eye(2), 1.0)  # not traceless


def test_diagonal_generator_folds_into_cartan():
    g = np.diag([0.4, -0.1, -0.3])
    evo = qp.LocalEvolution(3, [qp.GeneratorConst(g, 2.0)])
    assert evo.is_diagonal
    traj = qp.cartan_trajectory(evo, [1.5])
    np.testing.assert_allclose(traj.levels[0], np.diagonal(g) * 1.5, atol=1e-13)


def test_generator_segment_matches_eigenexponential():
    g = 0.4 * np.array([[0, 1, 0], [1, 0, -1j], [0, 1j, 0]], dtype=complex)
    evo = qp.LocalEvolution(3, [qp.GeneratorConst(g, 3.0)])
    evals, vecs = np.linalg.eigh(g)
    for t in (0.3, 1.9):
        u, u_dot = dense.synthesize(evo, t)
        expected = (vecs * np.exp(1j * evals * t)) @ vecs.conj().T
        np.testing.assert_allclose(u, expected, atol=1e-12)
        np.testing.assert_allclose(u_dot, 1j * g @ expected, atol=1e-12)


def test_unitarity_along_composite_path():
    rng = np.random.default_rng(0)
    g = 0.3 * np.array([[0, 1j], [-1j, 0]], dtype=complex)
    evo = qp.LocalEvolution(2, [
        qp.CartanLinear(np.array([0.8, -0.8]), 1.0),
        qp.BlochLoop(theta_end=1.2, phi_rate=0.9, duration=1.0),
        qp.GeneratorConst(g, 1.0),
        qp.CartanHold(0.5),
    ])
    t = np.sort(rng.uniform(0, evo.duration, size=200))
    u, _ = dense.sample(evo, t)
    res = np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(2)).max()
    det = np.abs(np.linalg.det(u) - 1.0).max()
    assert res < 1e-10
    assert det < 1e-10


QUBIT_GEN = 0.3 * np.array([[0, 1j], [-1j, 0]], dtype=complex)
QUTRIT_GEN = 0.4 * np.array([[0, 1, 0], [1, 0, -1j], [0, 1j, 0]], dtype=complex)

DERIVATIVE_PATHS = {
    # segments, interior sample times, interior boundaries
    "bloch-cartan": (2, [qp.BlochLoop(theta_end=1.4, phi_rate=0.7, duration=2.0),
                         qp.CartanLinear(np.array([0.6, -0.6]), 1.0)],
                     [0.9, 2.4], [2.0]),
    "bloch-generator": (2, [qp.BlochLoop(theta_end=1.1, phi_rate=0.8, duration=1.5),
                            qp.GeneratorConst(QUBIT_GEN, 1.5)],
                        [0.7, 2.3], [1.5]),
    "generator-cartan-hold": (3, [qp.GeneratorConst(QUTRIT_GEN, 1.0),
                                  qp.CartanLinear(np.array([1.0, -0.4, -0.6]), 1.0),
                                  qp.CartanHold(1.0)],
                              [0.5, 1.5], [1.0, 2.0]),
}


def _one_sided_derivative(evo, t, h, sign):
    u = [dense.sample(evo, [t + sign * k * h])[0][0] for k in range(3)]
    return sign * (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)


@pytest.mark.parametrize("name", sorted(DERIVATIVE_PATHS))
def test_derivative_consistency_second_order(name):
    d, segments, ts, cuts = DERIVATIVE_PATHS[name]
    evo = qp.LocalEvolution(d, segments)
    ts = np.array(ts)
    errs = []
    for h in (1e-3, 5e-4):
        u_hi, _ = dense.sample(evo, ts + h)
        u_lo, _ = dense.sample(evo, ts - h)
        _, u_dot = dense.sample(evo, ts)
        errs.append(np.abs((u_hi - u_lo) / (2 * h) - u_dot).max())
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9
    # at an interior boundary each side owns its one-sided derivative
    for b in cuts:
        derivs = {}
        k = int(evo._segment_index(np.array([b]))[0])
        for side, sign, row in (("left", -1, k - 1), ("right", 1, k)):
            _, u_dot = dense.sample(evo, [b], [row])
            derivs[side] = u_dot[0]
            fd = _one_sided_derivative(evo, b, 1e-4, sign)
            assert np.abs(fd - u_dot[0]).max() < 1e-6, (b, side)
        assert np.abs(derivs["left"] - derivs["right"]).max() > 0.1


def _row_frame(evo, k):
    """(left, right, phase0, rate) of row k at its live width (see ``FrameTables``)."""
    f = evo.frames
    width = f.rate.shape[1] if f.rectangular[k] else evo.d
    return f.left[k, :, :width], f.right[k, :width], f.phase0[k, :width], f.rate[k, :width]


def _assert_distinct_terms(evo, k):
    """Row k's terms share a phasor exactly when their (phase0, rate) are
    bit-equal, and each phasor is its first term's; returns the term map rep."""
    f = evo.frames
    _, _, phase0, rate = _row_frame(evo, k)
    rep, lead = f.rep[k, :rate.size], f.lead[k, :f.distinct[k]]
    bits = np.stack([phase0, rate], axis=-1).view(np.int64)
    same = (bits[:, None] == bits[None, :]).all(axis=-1)
    np.testing.assert_array_equal(same, rep[:, None] == rep[None, :])
    np.testing.assert_array_equal(lead, [np.flatnonzero(rep == g)[0] for g in range(lead.size)])
    return rep


def _assert_row_sampler_matches_sample(evo, grid):
    """Row by row, U = L diag(z[rep]) R and dU/dt = L diag(i w z[rep]) R from
    the row's distinct phasors z at the grid samples (``grid_phasors``) match
    the dense reference on the row's own samples and, at the cut that ends
    the row, its left limit (sampled in the row); a sample past the path's end
    is in row n, which holds the end."""
    t = grid.times()
    first, rows = evo.row_starts(grid)
    ends = [*first[1:].tolist(), t.size]
    owner = np.repeat(rows, np.diff([*first.tolist(), t.size]))
    np.testing.assert_array_equal(owner, evo._segment_index(t))
    for lo, hi, k in zip(first.tolist(), ends, rows.tolist()):
        left, right, _, rate = _row_frame(evo, k)
        rep = _assert_distinct_terms(evo, k)
        index = np.arange(lo, min(hi + 1, t.size))
        z = evo.grid_phasors(np.full(index.size, k), index, grid.dt)[:, rep]
        u = (left * z[:, None, :]) @ right
        u_dot = (left * (1j * rate * z)[:, None, :]) @ right
        ref_u, ref_dot = dense.sample(evo, t[lo:hi])
        if hi < t.size:
            cut_u, cut_dot = dense.sample(evo, t[hi:hi + 1], [k])
            ref_u, ref_dot = np.concatenate([ref_u, cut_u]), np.concatenate([ref_dot, cut_dot])
        np.testing.assert_allclose(u, ref_u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(u_dot, ref_dot, rtol=0, atol=1e-12)


def test_frame_phasors_reproduce_sampled_operators():
    # U = L diag(z) R and dU/dt = L diag(i w z) R on every row, on both sides of cuts
    evo = qp.LocalEvolution(3, [qp.CartanLinear(np.array([0.5, 0.2, -0.7]), 1.0),
                                qp.GeneratorConst(QUTRIT_GEN, 1.0),
                                qp.CartanHold(0.5),
                                qp.GeneratorConst(QUTRIT_GEN.T, 1.0),
                                qp.CartanLinear(np.array([-1.0, 0.4, 0.6]), 1.0)])
    f = evo.frames
    grid = qp.TimeGrid(evo.duration, 450)             # every cut on a sample
    assert evo.row_starts(grid)[0].tolist() == [0, 100, 200, 250, 350, 450]
    _assert_row_sampler_matches_sample(evo, grid)
    assert f.unitarity.max() < 1e-14
    np.testing.assert_allclose(f.determinant, 1.0, rtol=0, atol=1e-14)
    # an all-diagonal path has identity frames
    diag = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 0.0, -1.0]), 1.0),
                                 qp.CartanHold(1.0)])
    assert (diag.frames.left == np.eye(3)).all() and (diag.frames.right == np.eye(3)).all()
    assert (diag.frames.unitarity == 0.0).all() and (diag.frames.determinant == 1.0).all()
    # a row without rates has constant phasors: one phasor of ones on a path
    # that holds the identity, the arrival phases on a later hold
    held = qp.LocalEvolution(3, [qp.CartanHold(0.5), qp.CartanHold(0.5)])
    grid = qp.TimeGrid(1.0, 10)
    first, rows = held.row_starts(grid)
    assert first.tolist() == [0, 5, 10] and rows.tolist() == [0, 1, 2]
    assert held.frames.distinct[:2].tolist() == [1, 1]
    for k, index in ((0, np.arange(5)), (1, np.arange(5, 11))):
        assert (held.grid_phasors(np.full(index.size, k), index, grid.dt)[:, 0] == 1.0).all()
    grid = qp.TimeGrid(2.0, 20)
    z = diag.grid_phasors(np.full(11, 1), np.arange(10, 21), grid.dt)
    np.testing.assert_array_equal(z, np.broadcast_to(np.exp(1j * np.array([1.0, 0.0, -1.0])),
                                                     z.shape))
    _assert_row_sampler_matches_sample(diag, grid)
    # a Bloch path is stored 8 terms wide: a Bloch row is its 8-term sum with 6
    # distinct phasors, the other rows are unitary 2-term frames whose zero
    # padding is storage only
    bloch = qp.LocalEvolution(2, [qp.GeneratorConst(QUBIT_GEN, 0.5),
                                  qp.BlochLoop(theta_end=1.0, phi_rate=1.5, duration=1.0),
                                  qp.CartanLinear(np.array([0.8, -0.8]), 0.5)])
    fb = bloch.frames
    assert fb.left.shape == (4, 2, 8) and fb.right.shape == (4, 8, 2)
    assert fb.rectangular.tolist() == [False, True, False, False]
    unitary = ~fb.rectangular
    assert not fb.left[unitary][:, :, 2:].any() and not fb.right[unitary][:, 2:].any()
    assert not fb.phase0[unitary][:, 2:].any() and not fb.rate[unitary][:, 2:].any()
    assert fb.distinct[:3].tolist() == [2, 6, 2]
    _assert_row_sampler_matches_sample(bloch, qp.TimeGrid(bloch.duration, 400))
    assert fb.unitarity.max() < 1e-14
    np.testing.assert_allclose(fb.determinant, 1.0, rtol=0, atol=1e-14)


_LOWERED_KINDS = {2: ["linear", "hold", "pinned", "generator", "diagonal", "bloch", "bloch",
                      "continued"],
                  3: ["linear", "hold", "pinned", "generator", "diagonal"]}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lowering_matches_dense_reference_on_random_segment_lists(data):
    # every row's frames against the dense reference built from the segments:
    # Bloch loops among generators (d = 2), theta_start continuations, holds
    # pinned to the arrival angles, diagonal generators folded into ramps and
    # zero-duration segments dropped; the tracked end coordinates pin the tables
    d = data.draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    kinds = data.draw(st.lists(st.sampled_from(_LOWERED_KINDS[d]), min_size=1, max_size=7))
    chi, theta, phi = np.zeros(d), 0.0, 0.0
    segs = []
    for kind in kinds:
        duration = 0.25 * data.draw(st.integers(0, 4))
        if kind in ("linear", "diagonal"):
            rates = rng.uniform(-2.0, 2.0, size=d)
            rates -= rates.mean()
            seg = (qp.CartanLinear(rates, duration) if kind == "linear"
                   else qp.GeneratorConst(np.diag(rates), duration))
        elif kind == "generator":
            seg = qp.GeneratorConst(_haar_spectrum(d, rng), duration)
        elif kind in ("hold", "pinned"):
            seg = qp.CartanHold(duration, angles=chi.copy() if kind == "pinned" else None)
        else:                   # a zero-duration loop ends where it arrives
            end = rng.uniform(0.0, 3.0)
            seg = qp.BlochLoop(theta_end=end if duration else theta,
                               phi_rate=rng.uniform(-2.0, 2.0), duration=duration,
                               theta_start=theta if kind == "continued" else None)
        segs.append(seg)
        if duration == 0.0:
            continue
        if kind in ("linear", "diagonal"):
            chi = chi + rates * duration
        elif kind in ("bloch", "continued"):
            theta, phi = seg.theta_end, phi + seg.phi_rate * duration
    evo = qp.LocalEvolution(d, segs)
    assert len(evo.segments) == sum(seg.duration > 0 for seg in segs)
    assert evo.is_diagonal == all(kind in ("linear", "hold", "pinned", "diagonal")
                                  for kind, seg in zip(kinds, segs) if seg.duration > 0)
    np.testing.assert_allclose(evo._chi0[-1], chi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(evo._bloch0[-1], (theta, phi), rtol=0, atol=1e-12)
    # an empty path is sampled at its end, t = 0
    _assert_row_sampler_matches_sample(
        evo, qp.TimeGrid(evo.duration or 1.0, max(int(round(40 * evo.duration)), 2)))
    f = evo.frames
    assert f.unitarity.max() < 1e-13
    assert np.abs(f.determinant - 1.0).max() < 1e-13


def _haar_spectrum(d, rng):
    """Traceless Hermitian generator with a random spectrum in a Haar frame."""
    spectrum = rng.uniform(-1.5, 1.5, size=d)
    v = qp.random_special_unitary(d, rng)
    return (v * (spectrum - spectrum.mean())) @ v.conj().T


def _exact_phasor(phase0, rate, index, dt, start=0.0):
    """exp(i (phase0 + rate (index dt - start))) rounded from 50 digits, the
    float inputs taken as exact."""
    with mpmath.workdps(50):
        tau = mpmath.mpf(index) * mpmath.mpf(dt) - mpmath.mpf(start)
        return complex(mpmath.expj(mpmath.mpf(phase0) + mpmath.mpf(rate) * tau))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grid_phasors_are_exact(data):
    # row 1 of a path, a Cartan ramp, generator or Bloch row, at ideal times
    # i dt inside the row, and from the end's sample on row 2, which holds the
    # end, with |arg| up to about 1e4: each term's phasor within 4 eps of
    # exp(i (c + w (t - start))) in exact arithmetic, t = i dt on row 1 and the
    # end on row 2; the step phasors exp(i w j dt) likewise
    kind = data.draw(st.sampled_from(["linear", "generator", "bloch"]))
    d = 2 if kind == "bloch" else data.draw(st.integers(2, 8))
    dt = data.draw(st.floats(1e-4, 1.0))
    lead, m = data.draw(st.integers(1, 4000)), data.draw(st.integers(1, 4000))
    start = data.draw(st.floats(-5e3, 5e3))
    rate = data.draw(st.floats(-5e3, 5e3)) / (m * dt)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    if kind == "bloch":
        segs = [qp.BlochLoop(theta_end=0.0, phi_rate=start / (lead * dt), duration=lead * dt),
                qp.BlochLoop(theta_end=rng.uniform(0.0, 3.0), phi_rate=rate, duration=m * dt)]
    else:
        unit = rng.normal(size=d)
        unit = (unit - unit.mean()) / np.abs(unit - unit.mean()).max()
        first = qp.CartanLinear(start * unit / (lead * dt), lead * dt)
        if kind == "linear":
            second = qp.CartanLinear(rate * unit[rng.permutation(d)], m * dt)
        else:
            v = qp.random_special_unitary(d, rng)
            second = qp.GeneratorConst(v @ np.diag(rate * unit) @ v.conj().T, m * dt)
        segs = [first, second]
    evo = qp.LocalEvolution(d, segs)
    f = evo.frames
    width = 8 if kind == "bloch" else d
    phase0, rates = f.phase0[1, :width], f.rate[1, :width]
    index = np.array(data.draw(st.lists(st.integers(lead, lead + m + 3), min_size=1,
                                        max_size=8)))
    rows = np.where(index < lead + m, 1, 2)
    z = evo.grid_phasors(rows, index, dt)
    eps = np.finfo(float).eps
    for i, k, row in zip(index.tolist(), rows.tolist(), z):
        at = (i, dt) if k == 1 else (1, evo.duration)
        ref = [_exact_phasor(c, w, *at, evo._starts[1]) for c, w in zip(phase0, rates)]
        assert np.abs(row[f.rep[k, :width]] - ref).max() <= 4 * eps
    lead_terms = f.lead[1, :f.distinct[1]]
    rates = f.rate[1][lead_terms]
    steps = np.arange(0, 100, 7)
    z = evo.step_phasors(np.ones(steps.size, dtype=int), steps, dt)
    for j, row in zip(steps.tolist(), z):
        ref = [_exact_phasor(0.0, w, j, dt) for w in rates]
        assert np.abs(row[:rates.size] - ref).max() <= 4 * eps


def test_grid_phasors_past_the_split_range():
    # times past 2^996 cannot be split exactly: their phasors round as a plain
    # product would, finite and of unit modulus, without a warning
    evo = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1e-306, -1e-306]), 1e305)])
    z = evo.grid_phasors(np.zeros(5, dtype=int), np.arange(5), 2.5e304)
    np.testing.assert_allclose(np.abs(z[:, :2]), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(z[:, 0], np.exp(1j * 1e-306 * np.arange(5) * 2.5e304),
                               rtol=0, atol=1e-15)


def test_phase_rate_and_solid_angle_on_every_segment_kind():
    evo = qp.LocalEvolution(2, [
        qp.CartanLinear(np.array([0.8, -0.8]), 1.0),
        qp.BlochLoop(theta_end=math.pi / 2, phi_rate=TWO_PI, duration=1.0),
        qp.GeneratorConst(QUBIT_GEN, 1.0),
        qp.CartanHold(0.5),
        qp.BlochLoop(theta_end=0.0, phi_rate=0.0, duration=1.0),
    ])
    # the phi winding plus half the theta ramp of the first loop dominates; it
    # is the largest frame rate, the same float as the largest segment rate
    assert evo.max_phase_rate == pytest.approx(TWO_PI + math.pi / 4, abs=1e-14)
    theta_dot, phi_dot = np.abs(evo._bloch_rate).T
    evals = dense.generator_tables(evo)[0]
    assert evo.max_phase_rate == max(np.abs(evo._rates).max(), np.abs(evals).max(),
                                     (phi_dot + 0.5 * theta_dot).max())
    # 2 pi (1 - <cos theta>) over the ramp from 0 to pi/2; the return is at fixed phi
    assert qp.solid_angle(evo) == pytest.approx(TWO_PI - 4.0, abs=1e-14)


def test_pure_cartan_velocity_has_no_coset_part():
    b = qp.make_generators(3)
    evo = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, -0.4, -0.6]), 2.0)])
    u_mat, u_dot = dense.synthesize(evo, 1.3)
    u = qp.velocity_vector(b, u_mat, u_dot)
    np.testing.assert_allclose(u[2:], 0.0, atol=1e-13)
    dec = qp.decompose_velocity(b, u, qp.cartan_trajectory(evo, [1.3]).h[0],
                                np.zeros(8))
    np.testing.assert_allclose(dec.v_perp_rot, 0.0, atol=1e-13)
    np.testing.assert_allclose(dec.v_par, 0.0, atol=1e-13)


def _pole_loop(theta, windings=1.0, ramp=1.0, loop=1.0):
    return qp.LocalEvolution(2, [
        qp.BlochLoop(theta_end=theta, phi_rate=0.0, duration=ramp),
        qp.BlochLoop(theta_end=theta, phi_rate=windings * TWO_PI / loop,
                     duration=loop),
        qp.BlochLoop(theta_end=0.0, phi_rate=0.0, duration=ramp),
    ])


def test_solid_angle_closed_forms():
    assert qp.solid_angle(_pole_loop(math.pi / 2)) == pytest.approx(
        TWO_PI, abs=1e-12)
    assert qp.solid_angle(_pole_loop(2 * math.pi / 3)) == pytest.approx(
        3 * math.pi, abs=1e-12)
    # degenerate pole loop
    pole = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=0.0, phi_rate=1.0,
                                              duration=TWO_PI)])
    assert qp.solid_angle(pole) == pytest.approx(0.0, abs=1e-12)


def test_solid_angle_matches_const_theta_loop_without_ramps():
    theta = 1.234
    const = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=theta, phi_rate=1.0,
                                               duration=TWO_PI,
                                               theta_start=theta)])
    assert qp.solid_angle(const) == pytest.approx(TWO_PI * (1 - math.cos(theta)),
                                                  abs=1e-12)


def test_solid_angle_additive_and_orientation():
    theta = 0.9
    double = qp.solid_angle(_pole_loop(theta, windings=2.0))
    single = qp.solid_angle(_pole_loop(theta, windings=1.0))
    assert double == pytest.approx(2 * single, abs=1e-12)
    reversed_ = qp.solid_angle(_pole_loop(theta, windings=-1.0))
    assert reversed_ == pytest.approx(-single, abs=1e-12)
    # concatenating two different loops adds their angles
    t1, t2 = 0.7, 1.6
    both = qp.LocalEvolution(2, list(_pole_loop(t1).segments)
                             + list(_pole_loop(t2).segments))
    assert qp.solid_angle(both) == pytest.approx(
        qp.solid_angle(_pole_loop(t1)) + qp.solid_angle(_pole_loop(t2)),
        abs=1e-12)


def test_solid_angle_open_path_raises():
    open_theta = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=1.0, phi_rate=0.0,
                                                    duration=1.0)])
    with pytest.raises(ValueError):
        qp.solid_angle(open_theta)
    open_phi = qp.LocalEvolution(2, [
        qp.BlochLoop(theta_end=1.0, phi_rate=0.0, duration=1.0),
        qp.BlochLoop(theta_end=1.0, phi_rate=0.5, duration=1.0),
        qp.BlochLoop(theta_end=0.0, phi_rate=0.0, duration=1.0)])
    # phi advanced by 0.5, away from the pole at the loop altitude, but the
    # path closes at the pole where phi is degenerate, so this is closed
    assert qp.solid_angle(open_phi) == pytest.approx(
        0.5 * (1 - math.cos(1.0)), abs=1e-12)
    truly_open = qp.LocalEvolution(2, [
        qp.BlochLoop(theta_end=1.0, phi_rate=0.0, duration=1.0, theta_start=1.0),
        qp.BlochLoop(theta_end=1.0, phi_rate=0.5, duration=1.0)])
    with pytest.raises(ValueError):
        qp.solid_angle(truly_open)


def test_solid_angle_needs_a_qubit_and_is_zero_without_bloch_rows():
    with pytest.raises(ValueError, match="d = 2"):
        qp.solid_angle(qp.LocalEvolution(3, [qp.CartanHold(1.0)]))
    ramp = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), TWO_PI)])
    assert qp.solid_angle(ramp) == 0.0


def test_cartan_trajectory_strips_the_bloch_factor():
    # out from the pole and back, then a ramp: mid-loop the coset factor
    # V(theta, phi) W is far from the center, but V is the coset coordinate, so
    # the trajectory is defined throughout and its levels are the Cartan levels
    evo = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=1.0, phi_rate=0.8, duration=1.0),
                                qp.BlochLoop(theta_end=0.0, phi_rate=0.3, duration=1.0),
                                qp.CartanLinear(np.array([1.5, -1.5]), 2.0)])
    times = np.linspace(0.0, 4.0, 17)
    assert np.abs(evo.coset_factor([0.5])[0] - np.eye(2)).max() > 0.1
    traj = qp.cartan_trajectory(evo, times)
    np.testing.assert_array_equal(traj.levels, evo.cartan_levels(times))
    np.testing.assert_array_equal(traj.h, qp.make_generators(2).h_from_levels(traj.levels))


def test_lattice_condition_check():
    assert qp.lattice_condition_check(np.zeros(3)) == 0
    chi = np.array([TWO_PI / 3, TWO_PI / 3, TWO_PI / 3 - TWO_PI])
    assert qp.lattice_condition_check(chi) == 1
    assert qp.lattice_condition_check(np.array([math.pi / 2, -math.pi / 2])) is None
    assert qp.lattice_condition_check(np.array([math.pi, -math.pi])) == 1
    # equal phasors are not enough: e^{2i} 1 is no center element of SU(3)
    assert qp.lattice_condition_check([2.0, 2.0, 2.0]) is None
    assert qp.lattice_condition_check([TWO_PI / 3] * 3) == 1


def test_cartan_trajectory_gated_by_open_coset():
    g = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)  # eigenvalues +-0.5
    evo = qp.LocalEvolution(2, [qp.GeneratorConst(g, 4 * math.pi)])
    # closed at t = 4 pi (exp(i g t) = 1), open before
    traj = qp.cartan_trajectory(evo, [0.0, 4 * math.pi])
    np.testing.assert_allclose(traj.levels, 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        qp.cartan_trajectory(evo, [1.0])


def test_cartan_trajectory_accepts_center_coset_factors():
    # spectrum (1, 1, -2) in a random frame: exp(i G t) is e^{2 pi i m/3} 1 at
    # t = 2 pi m/3, so U = diag(e^{i 2 pi m/3}) there and the levels shift by
    # 2 pi m/3 (m = -1 at 4 pi/3, the nearest branch); h stays 0
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    gen = q @ np.diag([1.0, 1.0, -2.0]) @ q.T
    evo = qp.LocalEvolution(3, [qp.GeneratorConst(gen, TWO_PI)])
    times = [0.0, TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI]
    traj = qp.cartan_trajectory(evo, times)
    shifts = TWO_PI / 3 * np.array([0, 1, -1, 0])
    np.testing.assert_allclose(traj.levels, np.repeat(shifts[:, None], 3, axis=1),
                               rtol=0, atol=1e-15)
    assert (traj.h == 0.0).all()
    u = np.stack([dense.synthesize(evo, t)[0] for t in times])
    np.testing.assert_allclose(u, np.exp(1j * traj.levels)[:, None, :] * np.eye(3),
                               rtol=0, atol=1e-12)
    assert [qp.lattice_condition_check(lv) for lv in traj.levels] == [0, 1, 2, 0]
    with pytest.raises(ValueError, match="open"):
        qp.cartan_trajectory(evo, [1.0])


def test_dimension_checks_cover_every_segment_before_lowering():
    # a segment that does not fit the path's dimension is refused even when its
    # zero duration drops it from the path, and ahead of the faults that only
    # lowering finds (pinned angles, Bloch continuity); each fault alone keeps
    # its message
    wide = qp.CartanLinear(np.array([1.0, 0.0, -1.0]), 1.0)
    pinned = qp.CartanHold(1.0, angles=np.array([0.3, -0.3]))
    for d, segs, message in (
            (2, [qp.CartanHold(1.0), wide], "rates must have length 2"),
            (2, [pinned], "hold segment 0 pins angles"),
            (2, [pinned, wide], "rates must have length 2"),
            (2, [qp.CartanLinear(np.array([1.0, 0.0, -1.0]), 0.0)], "rates must have length 2"),
            (2, [qp.GeneratorConst(np.diag([1.0, 0.0, -1.0]), 1.0)],
             "generator dimension does not match the path"),
            (2, [qp.GeneratorConst(np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1), 0.0)],
             "generator dimension does not match the path"),
            (3, [qp.BlochLoop(theta_end=1.0, phi_rate=0.0, duration=0.0)],
             "only defined for d = 2")):
        with pytest.raises(ValueError, match=message):
            qp.LocalEvolution(d, segs)


def test_zero_duration_segments_are_checked_on_arrival():
    # a zero-duration segment is dropped from the rows, not from the checks
    # against the coordinates it arrives at; correct ones still lower to nothing
    ramp = qp.CartanLinear(np.array([0.5, -0.5]), 1.0)
    loop = qp.BlochLoop(theta_end=1.0, phi_rate=0.5, duration=1.0)
    for segs, message in (
            ([ramp, qp.CartanHold(0.0, angles=np.array([0.0, 0.0]))], "hold segment 1 pins"),
            ([qp.CartanHold(0.0, angles=np.array([0.1, -0.1])), ramp], "hold segment 0 pins"),
            ([loop, qp.BlochLoop(theta_end=0.5, phi_rate=0.0, duration=0.0, theta_start=0.5)],
             "Bloch segment 1 starts at theta = 0.5"),
            # a jump of theta in zero time, which dropping the segment would hide
            ([loop, qp.BlochLoop(theta_end=2.5, phi_rate=0.0, duration=0.0),
              qp.BlochLoop(theta_end=0.0, phi_rate=1.0, duration=1.0)],
             "Bloch segment 1 ends in zero time at theta = 2.5 but the path arrives at 1"),
            ([loop, qp.BlochLoop(theta_end=2.0, phi_rate=1.0, duration=0.0, theta_start=1.0)],
             "Bloch segment 1 ends in zero time at theta = 2")):
        with pytest.raises(ValueError, match=message):
            qp.LocalEvolution(2, segs)
    kept = qp.LocalEvolution(2, [ramp, qp.CartanHold(0.0, angles=np.array([0.5, -0.5])), loop,
                                 qp.BlochLoop(theta_end=1.0, phi_rate=1.0, duration=0.0,
                                              theta_start=1.0)])
    assert kept.segments == (ramp, loop)


def test_segment_type_is_checked_first():
    with pytest.raises(TypeError, match="unknown segment type str"):
        qp.LocalEvolution(2, [qp.CartanHold(1.0), "not a segment"])


def test_rows_evaluate_their_distinct_phasors():
    # bit-equal (phase0, rate) terms share one phasor: a Bloch row's i = j terms,
    # the identity hold, repeated ramp rates from equal start phases
    rng = np.random.default_rng(4)
    bloch = qp.LocalEvolution(2, [qp.BlochLoop(theta_end=1.0, phi_rate=1.5, duration=1.0)])
    ramp = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 1.0, -2.0]), 1.0)])
    haar = qp.LocalEvolution(8, [qp.GeneratorConst(_haar_spectrum(8, rng), 1.0)])
    assert bloch.frames.distinct[0] == 6
    assert qp.identity_evolution(8, 1.0).frames.distinct[0] == 1
    assert ramp.frames.distinct[0] == 2
    assert haar.frames.distinct[0] == 8
    np.testing.assert_array_equal(bloch.frames.rep[0], [0, 1, 0, 1, 2, 3, 4, 5])
    np.testing.assert_array_equal(ramp.frames.rep[0], [0, 0, 1])
    for evo in (bloch, ramp, haar):
        _assert_row_sampler_matches_sample(evo, qp.TimeGrid(1.0, 4000))


def test_bloch_start_continuity_enforced():
    with pytest.raises(ValueError):
        qp.LocalEvolution(2, [
            qp.BlochLoop(theta_end=1.0, phi_rate=0.0, duration=1.0),
            qp.BlochLoop(theta_end=0.5, phi_rate=0.0, duration=1.0,
                         theta_start=0.3)])


_NONFINITE_INPUTS = {
    "CartanLinear.rates": lambda x: qp.CartanLinear(np.array([x, 0.0, -1.0]), 1.0),
    "CartanLinear.duration": lambda x: qp.CartanLinear(np.array([1.0, -1.0]), x),
    "CartanHold.duration": lambda x: qp.CartanHold(x),
    "CartanHold.angles": lambda x: qp.CartanHold(1.0, angles=[x, 0.0]),
    "BlochLoop.theta_end": lambda x: qp.BlochLoop(theta_end=x, phi_rate=1.0, duration=1.0),
    "BlochLoop.phi_rate": lambda x: qp.BlochLoop(theta_end=1.0, phi_rate=x, duration=1.0),
    "BlochLoop.duration": lambda x: qp.BlochLoop(theta_end=1.0, phi_rate=1.0, duration=x),
    "BlochLoop.theta_start": lambda x: qp.BlochLoop(theta_end=1.0, phi_rate=1.0,
                                                    duration=1.0, theta_start=x),
    "GeneratorConst.generator": lambda x: qp.GeneratorConst(np.array([[0.0, x], [x, 0.0]]),
                                                            1.0),
    "GeneratorConst.duration": lambda x: qp.GeneratorConst(QUBIT_GEN, x),
    "TimeGrid.t_max": lambda x: qp.TimeGrid(x, 10),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", list(_NONFINITE_INPUTS.values()), ids=list(_NONFINITE_INPUTS))
def test_constructors_refuse_nonfinite_numbers(build, value):
    # NaN compares false with everything, so each input needs a check that NaN fails
    with pytest.raises(ValueError, match="finite"):
        build(value)


def test_time_grid_validation():
    np.testing.assert_allclose(qp.TimeGrid(1.0, 3).times(), [0, 1 / 3, 2 / 3, 1.0])  # odd
    with pytest.raises(ValueError, match="integer >= 2"):
        qp.TimeGrid(1.0, 1)
    with pytest.raises(ValueError):
        qp.TimeGrid(0.0, 4)
    with pytest.raises(ValueError, match="underflows"):
        qp.TimeGrid(1e-323, 4)                              # dt rounds to 0
    for steps in (10.0, np.float64(4.0), True, "4"):   # not an integer step count
        with pytest.raises(ValueError, match="integer"):
            qp.TimeGrid(1.0, steps)
    np.testing.assert_array_equal(qp.TimeGrid(1.0, np.int64(4)).times(),
                                  [0, 0.25, 0.5, 0.75, 1.0])
    grid = qp.TimeGrid(2.0, 4)
    np.testing.assert_allclose(grid.times(), [0, 0.5, 1.0, 1.5, 2.0])


def test_time_grid_starts_each_row_by_one_rule():
    # a row starts at the first sample i with i dt >= b, compared exactly: 5e-9
    # after sample 100 is sample 101; past t_max is steps + 1 = 1001, also where
    # b / dt is past the largest float
    grid = qp.TimeGrid(100.0, 1000)
    boundaries = [10.000000005, 10.00000011, 10.05, 99.99999995, 100.03, 100.1, 1e305]
    assert grid.start_samples(boundaries).tolist() == [101, 101, 101, 1000, 1001, 1001, 1001]
    evo = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 10.000000005),
                                qp.CartanHold(90.02), qp.CartanHold(1.0)])
    assert [x.tolist() for x in evo.row_starts(grid)] == [[0, 101], [0, 1]]
    # dt = fl(0.1) is above 0.1: 3 dt is past fl(0.3), but short of fl(3 fl(0.1)),
    # 2.8e-17 after it; 5 dt is past 0.5 and 10 dt past t_max
    grid = qp.TimeGrid(1.0, 10)
    assert grid.start_samples([0.3, 3 * 0.1, 0.5, 1.0]).tolist() == [3, 4, 5, 10]


def test_pair_evolution_validation():
    # any boundary is accepted: on the grid, between samples, or 5e-10 before
    # the grid's end; a path shorter than the grid holds its end
    b = qp.LocalEvolution(2, [qp.CartanHold(2.0)])
    c = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 0.37),
                              qp.CartanHold(1.63)])
    short = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 1e-3 - 5e-10)])
    for a, grid in ((qp.LocalEvolution(2, [qp.CartanHold(1.0)]), qp.TimeGrid(2.0, 10)),
                    (qp.LocalEvolution(2, [qp.CartanHold(1.05)]), qp.TimeGrid(2.0, 10)),
                    (c, qp.TimeGrid(2.0, 10)), (c, qp.TimeGrid(2.0, 200)),
                    (short, qp.TimeGrid(1e-3, 2))):
        assert qp.PairEvolution(a, b, grid).grid is grid
    assert c.row_starts(qp.TimeGrid(2.0, 10))[0].tolist() == [0, 2, 10]   # 0.37 -> 0.4
    assert short.row_starts(qp.TimeGrid(1e-3, 2))[0].tolist() == [0, 2]
