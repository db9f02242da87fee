"""Path synthesis, Cartan trajectories, solid angles, lattice condition."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quditphase as qp
from quditphase import paths

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
    evo = qp.LocalEvolution(2, [qp.CartanHold(1.0)])
    for query in (lambda t: dense.sample(evo, t), evo.cartan_levels, evo.coset_factor):
        with pytest.raises(ValueError):
            query([1.5])
        with pytest.raises(ValueError):
            query([-0.5])


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
        for side, sign in (("left", -1), ("right", 1)):
            _, u_dot = dense.sample(evo, [b], side=side)
            derivs[side] = u_dot[0]
            fd = _one_sided_derivative(evo, b, 1e-4, sign)
            assert np.abs(fd - u_dot[0]).max() < 1e-6, (b, side)
        assert np.abs(derivs["left"] - derivs["right"]).max() > 0.1


def _assert_row_sampler_matches_sample(evo, t):
    """Row by row, U = L diag(z) R and dU/dt = L diag(i w z) R from the row
    sampler match the dense reference on the row's own samples and, at the
    cut that ends the row, its left limit (``side="left"``)."""
    first, rows = evo.row_starts(t)
    ends = [*first[1:].tolist(), t.size]
    owner = np.repeat(rows, np.diff([*first.tolist(), t.size]))
    np.testing.assert_array_equal(owner, evo._segment_index(t))
    for lo, hi, k in zip(first.tolist(), ends, rows.tolist()):
        left, right, _, rate = evo.row_frame(k)
        z = evo.row_phasors(k, t[lo:hi + 1]).T
        u = (left * z[:, None, :]) @ right
        u_dot = (left * (1j * rate * z)[:, None, :]) @ right
        ref_u, ref_dot = dense.sample(evo, t[lo:hi])
        if hi < t.size:
            cut_u, cut_dot = dense.sample(evo, t[hi:hi + 1], "left")
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
    t = np.linspace(0.0, evo.duration, 451)           # every cut on a sample
    assert evo.row_starts(t)[0].tolist() == [0, 100, 200, 250, 350]
    _assert_row_sampler_matches_sample(evo, t)
    assert f.unitarity.max() < 1e-14
    np.testing.assert_allclose(f.determinant, 1.0, rtol=0, atol=1e-14)
    # an all-diagonal path has identity frames
    diag = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 0.0, -1.0]), 1.0),
                                 qp.CartanHold(1.0)])
    assert (diag.frames.left == np.eye(3)).all() and (diag.frames.right == np.eye(3)).all()
    assert (diag.frames.unitarity == 0.0).all() and (diag.frames.determinant == 1.0).all()
    # a row without rates takes one exponential, broadcast over its times: ones
    # on a path that holds the identity, the arrival phases on a later hold
    held = qp.LocalEvolution(3, [qp.CartanHold(0.5), qp.CartanHold(0.5)])
    t = np.linspace(0.0, 1.0, 11)
    first, rows = held.row_starts(t)
    assert first.tolist() == [0, 5] and rows.tolist() == [0, 1]
    for k, times in ((0, t[:5]), (1, t[5:])):
        z = held.row_phasors(k, times)
        assert z.shape == (3, times.size) and z.strides[1] == 0 and (z == 1.0).all()
    z = diag.row_phasors(1, np.linspace(1.0, 2.0, 5))
    assert z.strides[1] == 0
    np.testing.assert_array_equal(z[:, 0], np.exp(1j * np.array([1.0, 0.0, -1.0])))
    assert diag.row_phasors(0, t).strides[1] != 0
    _assert_row_sampler_matches_sample(diag, np.linspace(0.0, 2.0, 21))
    # a Bloch path is stored 8 terms wide: a Bloch row is its 8-term sum, the
    # other rows are unitary 2-term frames whose zero padding is storage only
    bloch = qp.LocalEvolution(2, [qp.GeneratorConst(QUBIT_GEN, 0.5),
                                  qp.BlochLoop(theta_end=1.0, phi_rate=1.5, duration=1.0),
                                  qp.CartanLinear(np.array([0.8, -0.8]), 0.5)])
    fb = bloch.frames
    assert fb.left.shape == (4, 2, 8) and fb.right.shape == (4, 8, 2)
    assert fb.rectangular.tolist() == [False, True, False, False]
    unitary = ~fb.rectangular
    assert not fb.left[unitary][:, :, 2:].any() and not fb.right[unitary][:, 2:].any()
    assert not fb.phase0[unitary][:, 2:].any() and not fb.rate[unitary][:, 2:].any()
    assert [bloch.row_frame(k)[0].shape for k in range(4)] == [(2, 2), (2, 8), (2, 2), (2, 2)]
    assert [bloch.row_phasors(k, t[:3]).shape for k in range(3)] == [(2, 3), (8, 3), (2, 3)]
    _assert_row_sampler_matches_sample(bloch, np.linspace(0.0, bloch.duration, 401))
    assert fb.unitarity.max() < 1e-14
    np.testing.assert_allclose(fb.determinant, 1.0, rtol=0, atol=1e-14)


def _direct_phasors(evo, k, t):
    """One exponential per phasor, exp(i (c + w (min(t, end) - start))), K x m."""
    _, _, phase0, rate = evo.row_frame(k)
    tau = np.minimum(t, evo.duration) - evo._starts[k]
    return np.exp(1j * (phase0 + tau[:, None] * rate)).T


def _tabled_phasors(evo, k, t):
    """(row_phasors(k, t), whether it took the table product)."""
    with mock.patch.object(paths, "_table_phasors", wraps=paths._table_phasors) as table:
        z = evo.row_phasors(k, t)
    return z, table.called


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_phasors_match_direct_exponentials(data):
    # row 1 of a path, a Cartan ramp, generator or Bloch row at K terms, sampled
    # on m grid samples with m K just below, at or above the table threshold or
    # far above it: |arg| up to about 1e3 rad, per-step phase rates up to pi/4
    d = data.draw(st.integers(2, 8))
    kind = data.draw(st.sampled_from(["linear", "generator"] + (["bloch"] if d == 2 else [])))
    width = 8 if kind == "bloch" else d
    least = -(-paths.TABLE_PHASORS // width)              # smallest m that takes the tables
    m = data.draw(st.sampled_from([least - 1, least, least + 1, 8193]))
    dt = 2.0 ** -10
    lead = data.draw(st.integers(1, 4000))
    # per-step phase rate, largest over the row's terms, and the row's start phases
    step = data.draw(st.floats(1e-3, math.pi / 4)) / dt
    start = data.draw(st.floats(-1e3, 1e3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    if kind == "bloch":
        # phi0 = start; on row 1 theta/2 + 2 |phi_dot| <= step
        frac = rng.uniform(0.0, 1.0)
        segs = [qp.BlochLoop(theta_end=0.0, phi_rate=start / (lead * dt), duration=lead * dt),
                qp.BlochLoop(theta_end=2.0 * frac * step * m * dt, phi_rate=(1 - frac) * step / 2,
                             duration=m * dt)]
    else:
        unit = rng.normal(size=d)
        unit = (unit - unit.mean()) / np.abs(unit - unit.mean()).max()
        first = qp.CartanLinear(start * unit / (lead * dt), lead * dt)
        if kind == "linear":
            second = qp.CartanLinear(step * unit[rng.permutation(d)], m * dt)
        else:
            v = qp.random_special_unitary(d, rng)
            second = qp.GeneratorConst(v @ np.diag(step * unit) @ v.conj().T, m * dt)
        segs = [first, second]
    evo = qp.LocalEvolution(2 if kind == "bloch" else d, segs)
    assert evo.row_frame(1)[3].size == width
    t = np.linspace(0.0, (lead + m) * dt, lead + m + 1)[lead:lead + m]
    z, tabled = _tabled_phasors(evo, 1, t)
    ref = _direct_phasors(evo, 1, t)
    assert z.shape == (width, m)
    assert tabled == (m * width >= paths.TABLE_PHASORS)
    if tabled:
        assert np.abs(z - ref).max() <= 2e-15
    else:
        np.testing.assert_array_equal(z, ref)


def test_table_phasors_through_the_argument_origin():
    # a ramp at the largest per-step rate the guard allows, starting at or
    # crossing zero: a small start phase with low bits set leaves arg_i - arg_0
    # inexact in the first block (3.6e-15 off at 1.234567e-11 with the first-order
    # correction), so blocks near the origin take the direct exponential
    dt = 2.0 ** -10
    w = math.pi / 4 / dt
    for phase in (300.3, -0.25, 0.0, 3.3e-14, 1.234567e-11, 0.1 + 2.0 ** -45):
        evo = qp.LocalEvolution(2, [qp.CartanLinear(np.array([phase, -phase]) / dt, dt),
                                    qp.CartanLinear(np.array([-w, w]), 4096 * dt)])
        t = np.linspace(0.0, 4097 * dt, 4098)[1:]
        z, tabled = _tabled_phasors(evo, 1, t)
        assert tabled
        assert np.abs(z - _direct_phasors(evo, 1, t)).max() <= 2e-15


def test_table_phasors_clip_samples_past_the_end():
    # a path shorter than the grid by less than the boundary tolerance: the last
    # sample is clipped to the end, off the uniform grid, and takes the direct
    # exponential; at this rate a first-order correction there is off by ~1e-12
    dt = 2.0 ** -13
    w = math.pi / 8 / dt
    evo = qp.LocalEvolution(3, [qp.CartanLinear(np.array([w, 0.3 * w, -1.3 * w]),
                                                8192 * dt - 5e-10)])
    t = np.linspace(0.0, 8192 * dt, 8193)[-4096:]
    assert t[-1] > evo.duration
    z, tabled = _tabled_phasors(evo, 0, t)
    assert tabled
    assert np.abs(z - _direct_phasors(evo, 0, t)).max() <= 2e-15


def test_table_phasors_refuse_nonuniform_times():
    evo = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 2.0, -3.0]), 10.0)])
    t = np.linspace(0.0, 4.0, 2001)
    nudged = t.copy()
    nudged[700] += 1e-9
    for bad in (nudged, np.sort(np.random.default_rng(3).uniform(0.0, 4.0, 2001)),
                np.concatenate([t[:1000], t[1001:], [4.5]])):
        with pytest.raises(ValueError, match="uniform"):
            evo.row_phasors(0, bad)
    evo.row_phasors(0, t)
    evo.row_phasors(0, nudged[:1000])                     # short: one exponential each


def test_table_phasors_need_sixteen_samples(monkeypatch):
    # a row wide enough to reach the threshold in one sample (d >= 3072) still
    # takes one exponential per phasor below 16 samples; m = 1 has no step
    monkeypatch.setattr(paths, "TABLE_PHASORS", 1)
    evo = qp.LocalEvolution(3, [qp.CartanLinear(np.array([1.0, 2.0, -3.0]), 10.0)])
    t = np.linspace(0.0, 1.0, 101)
    for m in (1, 2, 15):
        z, tabled = _tabled_phasors(evo, 0, t[:m])
        assert not tabled
        np.testing.assert_array_equal(z, _direct_phasors(evo, 0, t[:m]))
    assert _tabled_phasors(evo, 0, t[:16])[1]


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
    assert evo.max_phase_rate == max(np.abs(evo._rates).max(), np.abs(evo._evals).max(),
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


def test_lattice_condition_check():
    assert qp.lattice_condition_check(np.zeros(3)) == 0
    chi = np.array([TWO_PI / 3, TWO_PI / 3, TWO_PI / 3 - TWO_PI])
    assert qp.lattice_condition_check(chi) == 1
    assert qp.lattice_condition_check(np.array([math.pi / 2, -math.pi / 2])) is None
    assert qp.lattice_condition_check(np.array([math.pi, -math.pi])) == 1


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


def test_bloch_start_continuity_enforced():
    with pytest.raises(ValueError):
        qp.LocalEvolution(2, [
            qp.BlochLoop(theta_end=1.0, phi_rate=0.0, duration=1.0),
            qp.BlochLoop(theta_end=0.5, phi_rate=0.0, duration=1.0,
                         theta_start=0.3)])


def test_time_grid_validation():
    with pytest.raises(ValueError):
        qp.TimeGrid(1.0, 3)  # odd
    with pytest.raises(ValueError):
        qp.TimeGrid(0.0, 4)
    grid = qp.TimeGrid(2.0, 4)
    np.testing.assert_allclose(grid.times(), [0, 0.5, 1.0, 1.5, 2.0])


def test_pair_evolution_validation():
    a = qp.LocalEvolution(2, [qp.CartanHold(1.0)])
    b = qp.LocalEvolution(2, [qp.CartanHold(2.0)])
    with pytest.raises(ValueError):
        qp.PairEvolution(a, b, qp.TimeGrid(2.0, 10))  # A too short
    # boundary off the grid
    c = qp.LocalEvolution(2, [qp.CartanLinear(np.array([1.0, -1.0]), 0.37),
                              qp.CartanHold(1.63)])
    with pytest.raises(ValueError):
        qp.PairEvolution(c, b, qp.TimeGrid(2.0, 10))
    qp.PairEvolution(c, b, qp.TimeGrid(2.0, 200))  # 0.37 = 37 * dt
