"""Scenario configs, presets, trace records, CLI verbs and exit codes."""

import importlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import quditphase as qp
from quditphase.cli import main
from quditphase.scenarios import COLUMNS, ConfigError, TraceRecord

TWO_PI = 2.0 * math.pi

GOOD_YAML = """
name: demo
dims: [3, 3]
initial_state:
  preset: two_qutrit_schmidt
  q: 0.2
  theta: 0.0
evolution:
  a:
    - {kind: cartan_linear, rates: [1.0, 1.0, -2.0], duration: "2*pi"}
  b:
    - {kind: cartan_hold, duration: "2*pi"}
grid: {t_max: "2*pi", steps: 600}
"""

BAD_RATES_YAML = """
name: broken
dims: [3, 3]
initial_state: {preset: two_qutrit_schmidt, q: 0.0}
evolution:
  a:
    - {kind: cartan_linear, rates: [1.0, 1.0, 1.0], duration: 1.0}
  b: []
grid: {t_max: 1.0, steps: 100}
"""


def test_config_yaml_parse_and_pi_expressions():
    cfg = qp.ScenarioConfig.from_yaml(GOOD_YAML)
    assert cfg.dims == (3, 3)
    assert cfg.t_max == pytest.approx(TWO_PI)
    assert cfg.build().grid.steps == 600


def test_config_error_names_segment():
    with pytest.raises(ConfigError, match=r"evolution\.a\[0\]"):
        qp.ScenarioConfig.from_yaml(BAD_RATES_YAML).build()


def test_short_path_is_lowered_once_and_holds_its_end(monkeypatch):
    # a path shorter than the grid is lowered once, from its authored segments,
    # and the run holds its end
    lowered = []

    class Counted(qp.LocalEvolution):
        def __init__(self, d, segments):
            lowered.append(len(segments))
            super().__init__(d, segments)

    monkeypatch.setattr(qp.scenarios, "LocalEvolution", Counted)
    config = qp.ScenarioConfig.from_yaml(
        GOOD_YAML.replace('-2.0], duration: "2*pi"', '-2.0], duration: "pi"'))
    built = config.build()
    assert lowered == [1, 1]
    assert isinstance(built.evo_a.segments[-1], qp.CartanLinear)
    assert built.evo_a.duration == pytest.approx(math.pi)
    trace = qp.run_scenario(config).trace
    assert trace.t.size == 601 and trace.t[300] == pytest.approx(math.pi)
    for name in ("overlap", "dynamical_phase", "total_phase"):
        np.testing.assert_allclose(getattr(trace, name)[300:], getattr(trace, name)[300],
                                   rtol=0, atol=1e-14, err_msg=name)


def test_number_fields_reject_powers_at_once():
    for expr in ("9**9**8", "2**10"):
        text = GOOD_YAML.replace('t_max: "2*pi"', f't_max: "{expr}"')
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"grid\.t_max"):
            qp.ScenarioConfig.from_yaml(text)
        assert time.perf_counter() - start < 1.0
    for expr, value in (("2*pi/3", TWO_PI / 3), ("-pi", -math.pi),
                        ("(1 + 2) * pi - 0.5", 3 * math.pi - 0.5)):
        text = GOOD_YAML.replace('t_max: "2*pi"', f't_max: "{expr}"')
        assert qp.ScenarioConfig.from_yaml(text).t_max == pytest.approx(value)
    for expr in ("pi()", "abs(-1)", "1/0", "True", "x", "1 if 1 else 2", "1e999*0",
                 "-" * 100000 + "1", "1+" * 100000 + "1"):
        text = GOOD_YAML.replace('t_max: "2*pi"', f't_max: "{expr}"')
        with pytest.raises(ConfigError):
            qp.ScenarioConfig.from_yaml(text)


def test_cli_power_expression_exits_config_error(tmp_path, capsys):
    path = tmp_path / "pow.yaml"
    path.write_text(GOOD_YAML.replace('duration: "2*pi"}\n  b', 'duration: "9**9**8"}\n  b'))
    assert main(["run", str(path)]) == 2
    assert "9**9**8" in capsys.readouterr().err


def test_config_rejects_unknown_keys_and_shapes():
    with pytest.raises(ConfigError):
        qp.ScenarioConfig.from_dict({"name": "x", "dims": [3, 2],
                                     "initial_state": {}, "evolution": {},
                                     "grid": {"t_max": 1.0, "steps": 10}})
    with pytest.raises(ConfigError):
        qp.ScenarioConfig.from_dict({"dims": [2, 2], "initial_state": {},
                                     "evolution": {}, "grid": {"t_max": 1.0,
                                                               "steps": 10},
                                     "bogus": 1})


def test_steps_are_kept_for_cuts_between_samples(caplog):
    # the cut at 2 pi/3 lies between samples 33 and 34 of the 100-step grid: the
    # grid keeps its steps, nothing is logged, and the trace is exact there
    raw = {
        "name": "snap",
        "dims": [3, 3],
        "initial_state": {"preset": "two_qutrit_schmidt", "q": 0.0},
        "evolution": {
            "a": [{"kind": "cartan_linear", "rates": [1, 1, -2],
                   "duration": TWO_PI / 3},
                  {"kind": "cartan_hold", "duration": 2 * TWO_PI / 3}],
            "b": [],
        },
        "grid": {"t_max": TWO_PI, "steps": 100},
    }
    cfg = qp.ScenarioConfig.from_dict(raw)
    with caplog.at_level("DEBUG"):
        built = cfg.build()
        report = qp.verify_scenario(cfg)
    assert built.grid.steps == 100 and not caplog.records
    assert built.evo_a.row_starts(built.grid)[0].tolist()[:2] == [0, 34]
    assert max(report.max_total_dev, report.max_dynamical_dev,
               report.max_geometric_dev) <= 1e-12


def test_incommensurate_cuts_run_the_requested_steps(tmp_path):
    # ramps of 1.0 and 1.2360679775: no nearby step count puts the cut on a
    # sample (the step search once raised 2000 to 66968); an odd count runs too
    raw = {
        "name": "ramps", "dims": [3, 3],
        "initial_state": {"preset": "two_qutrit_schmidt", "q": 0.3},
        "evolution": {"a": [{"kind": "cartan_linear", "rates": [1.0, 1.0, -2.0],
                             "duration": 1.0},
                            {"kind": "cartan_linear", "rates": [-1.0, 2.0, -1.0],
                             "duration": 1.2360679775}],
                      "b": [{"kind": "cartan_linear", "rates": [0.5, -1.0, 0.5],
                             "duration": 2.2360679775}]},
        "grid": {"t_max": 2.2360679775, "steps": 2000},
    }
    for steps in (2000, 2001):
        raw["grid"]["steps"] = steps
        path = tmp_path / f"ramps{steps}.yaml"
        path.write_text(qp.ScenarioConfig.from_dict(raw).to_yaml())
        dest = tmp_path / f"ramps{steps}.csv"
        assert main(["run", str(path), "--output", str(dest)]) == 0
        assert TraceRecord.from_csv(dest.read_text()).columns["t"].size == steps + 1
        assert main(["verify", str(path), "--tolerance", "1e-12"]) == 0


def test_all_presets_validate_and_run_quickly():
    for name in qp.available_presets():
        cfg = qp.figure_preset(name)
        start = time.monotonic()
        out = qp.run_scenario(cfg)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, (name, elapsed)
        assert out.record.columns["t"].size == out.built.grid.steps + 1
        assert out.record.diagnostics["unitarity_residual_max"] < 1e-10
        assert out.record.diagnostics["determinant_residual_max"] < 1e-10


def test_preset_parameters():
    fig1a = qp.figure_preset("fig1a")
    assert fig1a.dims == (3, 3)
    assert fig1a.initial_state["q"] == 0.0
    assert fig1a.t_max == pytest.approx(TWO_PI)
    fig4d = qp.figure_preset("fig4d")
    assert fig4d.evolution["a"][0]["rates"][0] == pytest.approx(100.0)
    assert fig4d.steps == 40000
    fig2b = qp.figure_preset("fig2b")
    assert fig2b.initial_state["q"] == pytest.approx(0.2)
    assert len(fig2b.evolution["a"]) == 6
    assert fig2b.t_max == pytest.approx(4 * math.pi)
    with pytest.raises(ConfigError, match="unknown preset"):
        qp.figure_preset("fig9z")


def test_trace_record_csv_round_trip_bit_exact(tmp_path):
    out = qp.run_scenario(qp.figure_preset("fig1a"))
    path = tmp_path / "fig1a.csv"
    out.record.write(str(path), fmt="csv")
    back = TraceRecord.from_csv(path.read_text(), name="fig1a")
    for col in COLUMNS:
        assert np.array_equal(back.columns[col], out.record.columns[col])
    for key, val in out.record.diagnostics.items():
        assert back.diagnostics[key] == val
    assert len(back.cycles) == len(out.record.cycles)
    for a, b in zip(back.cycles, out.record.cycles):
        assert a.t_cycle == b.t_cycle and a.phase == b.phase
        assert a.n_a == b.n_a and a.n_b == b.n_b
    assert back.continuum == out.record.continuum


def test_trace_record_csv_rows_match_per_value_format():
    rng = np.random.default_rng(3)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, 0.1, 1 / 3]
    values = np.concatenate([rng.integers(0, 2 ** 64, size=7 * 700, dtype=np.uint64)
                             .view(np.float64), special * 7])
    cols = {c: values[i::len(COLUMNS)] for i, c in enumerate(COLUMNS)}
    rec = TraceRecord(name="bits", columns=cols, diagnostics={"x": -0.0}, cycles=(),
                      continuum=False)
    lines = rec.to_csv().splitlines()
    rows = [",".join(format(float(v), ".17g") for v in row) for row in zip(*cols.values())]
    assert lines[0] == ",".join(COLUMNS)
    assert lines[1:1 + len(rows)] == rows
    assert lines[1 + len(rows):] == ["# diagnostic x = -0", "# continuum = false"]
    empty = TraceRecord(name="empty", columns={c: np.array([]) for c in COLUMNS},
                        diagnostics={}, cycles=(), continuum=True)
    assert empty.to_csv() == ",".join(COLUMNS) + "\n# continuum = true\n"


def test_trace_record_json_round_trip(tmp_path):
    out = qp.run_scenario(qp.figure_preset("frac22"))
    path = tmp_path / "frac22.json"
    out.record.write(str(path), fmt="json")
    back = TraceRecord.from_json(path.read_text())
    for col in COLUMNS:
        assert np.array_equal(back.columns[col], out.record.columns[col])
    payload = json.loads(path.read_text())
    assert list(payload["columns"]) == list(COLUMNS)


def _json_by_encoder(rec):
    """The record as one payload written by json.dumps(..., indent=1)."""
    return json.dumps({
        "name": rec.name,
        "columns": {c: [float(v) for v in rec.columns[c]] for c in COLUMNS},
        "diagnostics": {k: float(v) for k, v in rec.diagnostics.items()},
        "cycles": [{"t": ev.t_cycle, "phase": ev.phase, "overlap": ev.overlap_mag,
                    "n_a": ev.n_a, "n_b": ev.n_b} for ev in rec.cycles],
        "continuum": rec.continuum,
    }, indent=1)


def test_trace_record_json_matches_encoder():
    for name in qp.scenarios.available_presets():
        rec = qp.run_scenario(qp.figure_preset(name)).record
        assert rec.to_json() == _json_by_encoder(rec), name
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310,
               1.7976931348623157e308, 0.1, 1 / 3, 1e16, 12345.0]
    cols = {c: np.array(special[i:] + special[:i]) for i, c in enumerate(COLUMNS)}
    cycles = (qp.CyclicEvent(t_cycle=0.5, phase=-0.0, overlap_mag=1.0, n_a=1, n_b=None),)
    rec = TraceRecord(name='odd "name" \u00e9', columns=cols,
                      diagnostics={"x": -0.0, "y": math.nan}, cycles=cycles, continuum=False)
    assert rec.to_json() == _json_by_encoder(rec)
    empty = TraceRecord(name="empty", columns={c: np.array([]) for c in COLUMNS},
                        diagnostics={}, cycles=(), continuum=True)
    assert empty.to_json() == _json_by_encoder(empty)


def test_cli_run_preset_to_csv(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code = main(["run", "fig1a", "--output", str(dest)])
    assert code == 0
    text = dest.read_text()
    header = text.splitlines()[0]
    assert header == ",".join(COLUMNS)
    rec = TraceRecord.from_csv(text)
    # the three positive-time contacts sit on the unit circle
    contacts = [c for c in rec.cycles if c.t_cycle > 1e-9]
    assert len(contacts) == 3
    for c in contacts:
        assert c.overlap_mag >= 1 - 1e-9


def test_cli_run_config_file(tmp_path):
    cfg_path = tmp_path / "demo.yaml"
    cfg_path.write_text(GOOD_YAML)
    dest = tmp_path / "demo.csv"
    assert main(["run", str(cfg_path), "--output", str(dest)]) == 0
    assert dest.exists()


def test_cli_figure_writes_config(tmp_path):
    dest = tmp_path / "fig4b.yaml"
    assert main(["figure", "fig4b", "--output", str(dest)]) == 0
    cfg = qp.ScenarioConfig.from_file(str(dest))
    assert cfg.dims == (2, 3)
    qp.run_scenario(cfg)


def test_cli_exit_codes(tmp_path, capsys):
    # unknown preset / malformed config -> 2
    assert main(["run", "does-not-exist"]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text(BAD_RATES_YAML)
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "evolution.a[0]" in err
    # grid too coarse -> 3
    coarse = tmp_path / "coarse.yaml"
    coarse.write_text(GOOD_YAML.replace("steps: 600", "steps: 4"))
    assert main(["run", str(coarse)]) == 3
    # no oracle -> 4
    assert main(["verify", "fig6a"]) == 4
    # tolerance exceeded -> 1
    assert main(["verify", "fig1a", "--tolerance", "1e-18"]) == 1
    # ok -> 0
    assert main(["verify", "fig1a"]) == 0


@pytest.mark.parametrize("rates, duration", [("[1.0e308, -1.0e308, 0.0]", "1.0"),
                                             ("[1.0, -1.0, 0.0]", "1.0e308")],
                         ids=["rate-1e308", "duration-1e308"])
@pytest.mark.parametrize("verb", ["run", "verify"])
def test_cli_phase_beyond_any_grid_exits_guard(tmp_path, capsys, rates, duration, verb):
    # the step count the guard would advise is infinite: a guard exit naming none
    path = tmp_path / "vast.yaml"
    path.write_text(GOOD_YAML.replace("[1.0, 1.0, -2.0]", rates)
                    .replace('"2*pi"', duration))
    assert main([verb, str(path), "--output", str(tmp_path / "vast.csv")]
                if verb == "run" else [verb, str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "numerical guard" in err and "no step count" in err


def test_cli_guard_prints_a_huge_increment_in_short_form(tmp_path, capsys):
    # a finite increment of 3.3e305 rad per step is printed in three digits, not in full
    path = tmp_path / "vast.yaml"
    path.write_text(GOOD_YAML.replace("[1.0, 1.0, -2.0]", "[1.0, -1.0, 0.0]")
                    .replace('"2*pi"', "1.0e308"))
    assert main(["run", str(path), "--output", str(tmp_path / "vast.csv")]) == 3
    err = capsys.readouterr().err
    assert "per-step phase increment 3.33e+305 rad exceeds the guard" in err
    assert len(err) < 300


ZERO_DURATION_YAML = {
    "hold": GOOD_YAML.replace(
        'cartan_hold, duration: "2*pi"}',
        'cartan_hold, duration: "2*pi"}\n    - {kind: cartan_hold, duration: 0, '
        "angles: [0.5, 0.0, -0.5]}"),
    "bloch": "dims: [2, 2]\ninitial_state: {preset: two_qubit_schmidt, q: 0.3}\n"
             "evolution:\n  a:\n"
             '    - {kind: bloch_loop, theta_end: 1.0, phi_rate: 1.0, duration: "pi"}\n'
             "    - {kind: bloch_loop, theta_start: 0.5, theta_end: 0.5, phi_rate: 1.0, "
             "duration: 0}\n"
             '    - {kind: bloch_loop, theta_end: 0.0, phi_rate: 1.0, duration: "pi"}\n'
             '  b: [{kind: cartan_hold, duration: "2*pi"}]\n'
             'grid: {t_max: "2*pi", steps: 600}\n',
}
# a zero-duration Bloch loop that jumps to another theta in zero time
ZERO_DURATION_YAML["bloch_end"] = ZERO_DURATION_YAML["bloch"].replace(
    "theta_start: 0.5, theta_end: 0.5, phi_rate: 1.0", "theta_end: 2.5, phi_rate: 0.0")


@pytest.mark.parametrize("kind", list(ZERO_DURATION_YAML))
@pytest.mark.parametrize("verb", ["run", "verify"])
def test_cli_zero_duration_segment_is_checked_on_arrival(tmp_path, capsys, kind, verb):
    # a zero-duration hold pinning angles the path does not arrive with, and a
    # zero-duration Bloch loop starting at, or ending on, a theta the path is not at
    path = tmp_path / "zero.yaml"
    path.write_text(ZERO_DURATION_YAML[kind])
    assert main([verb, str(path), "--output", str(tmp_path / "zero.csv")]
                if verb == "run" else [verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert {"hold": "pins angles", "bloch": "starts at theta = 0.5",
            "bloch_end": "ends in zero time at theta = 2.5"}[kind] in err


@pytest.mark.parametrize("edit, argv", [
    (("dims: [3, 3]", 'dims: ["a", 3]'), ["run"]),
    (("dims: [3, 3]", "dims: [3.5, 3]"), ["run"]),
    (("dims: [3, 3]", "dims: [3.0, 3]"), ["run"]),
    (("grid:", "tolerances: {cyclic_eps: abc}\ngrid:"), ["run"]),
    (("grid:", "tolerances: {oracle_tol: [1]}\ngrid:"), ["verify"]),
    (('t_max: "2*pi"', "t_max: -1"), ["run"]),
    (('t_max: "2*pi"', "t_max: 0"), ["verify"]),
    (None, ["run", "--steps", "0"]),
    (None, ["verify", "--steps", "0"]),
    (None, ["run", "--steps", "-2"]),
    (None, ["verify", "--steps", "-2"]),
    (('t_max: "2*pi"', "t_max: .inf"), ["run"]),
    (('t_max: "2*pi"', "t_max: .nan"), ["run"]),
    (('t_max: "2*pi"', "t_max: 1" + "0" * 400), ["run"]),
    (('t_max: "2*pi"', "t_max: 1.0e-323"), ["run"]),     # t_max / steps underflows to 0
    (('cartan_hold, duration: "2*pi"', "cartan_hold, duration: .nan"), ["run"]),
    (("rates: [1.0, 1.0, -2.0]", "rates: [.inf, -.inf, 0.0]"), ["run"]),
    (None, ["run", "--tolerance", "nan"]),
    (None, ["verify", "--tolerance", "nan"]),
    (None, ["verify", "--tolerance", "inf"]),
    (("  preset: two_qutrit_schmidt", "  amplitudes: 5"), ["run"]),
    (("  preset: two_qutrit_schmidt", "  amplitudes: [1, 0]"), ["run"]),
    (("  preset: two_qutrit_schmidt", "  preset: [1]"), ["run"]),
    (("initial_state: {purity: {q: 0.5}}", 'initial_state: {purity: "abc"}'), ["run"]),
    (("  preset: two_qutrit_schmidt", "  schmidt: [1, 2]"), ["run"]),
    # a zero-duration segment is dropped from the path, not from the dimension checks
    (('cartan_hold, duration: "2*pi"}', 'cartan_hold, duration: "2*pi"}\n'
      "    - {kind: bloch_loop, theta_end: 1.0, phi_rate: 0.0, duration: 0}"), ["run"]),
    (('cartan_hold, duration: "2*pi"}', 'cartan_hold, duration: "2*pi"}\n'
      "    - {kind: generator_const, generator: [[0, 1], [1, 0]], duration: 0}"), ["verify"]),
    # a total duration past the largest float
    (('duration: "2*pi"}\n  b:', 'duration: 1.0e308}\n    - {kind: cartan_linear, '
      'rates: [1.0, 1.0, -2.0], duration: 1.0e308}\n  b:'), ["run"]),
    (('duration: "2*pi"}\n  b:', 'duration: 1.0e308}\n    - {kind: cartan_linear, '
      'rates: [1.0, 1.0, -2.0], duration: 1.0e308}\n  b:'), ["verify"]),
    (("dims: [3, 3]", "dims: [3, 3"), ["run"]),
    ((GOOD_YAML, "- 1\n- 2\n"), ["run"]),                 # a list, not a mapping
    (('grid: {t_max: "2*pi", steps: 600}', 'grid: {t_max: "2*pi"}'), ["run"]),
    (("grid:", "tolerances: [1]\ngrid:"), ["run"]),
    (('  a:\n    - {kind: cartan_linear, rates: [1.0, 1.0, -2.0], duration: "2*pi"}',
      "  a: {kind: cartan_linear}"), ["run"]),
    (('    - {kind: cartan_hold, duration: "2*pi"}', "    - 5"), ["run"]),
    (("kind: cartan_hold", "kind: cartan_spin"), ["run"]),
    (("rates: [1.0, 1.0, -2.0]", "rates: [1.0, -1.0]"), ["run"]),
    (("  preset: two_qutrit_schmidt",
      "  amplitudes: [[[1, 0, 0], 0, 0], [0, 0, 0], [0, 0, 0]]"), ["run"]),
    (("preset: two_qutrit_schmidt", "preset: two_qutrit_bogus"), ["run"]),
    (("preset: two_qutrit_schmidt", "preset: two_qubit_schmidt"), ["run"]),
    (("  preset: two_qutrit_schmidt\n", ""), ["run"]),
    (("dims: 3\ninitial_state: {purity: {q: 0.5}}",
      "dims: 2\ninitial_state: {purity: {q: 0.5, theta: 1.0}}"), ["run"]),
    (("{purity: {q: 0.5}}", "{purity: {q: 0.5, direction: [1.0, 0.0]}}"), ["run"]),
], ids=["dims-string", "dims-fraction", "dims-float", "tolerance-string",
        "tolerance-list", "t_max-negative", "t_max-zero", "run-steps-0",
        "verify-steps-0", "run-steps-negative", "verify-steps-negative",
        "t_max-inf", "t_max-nan", "t_max-401-digits", "t_max-dt-underflow",
        "duration-nan", "rates-inf", "run-tolerance-nan", "verify-tolerance-nan",
        "verify-tolerance-inf",
        "amplitudes-scalar", "amplitudes-vector", "preset-list", "purity-string",
        "schmidt-list", "zero-duration-bloch-d3", "zero-duration-generator-2x2",
        "run-duration-overflow", "verify-duration-overflow",
        "yaml-invalid", "scenario-list", "grid-no-steps", "tolerances-list",
        "evolution-a-mapping", "segment-scalar", "segment-kind-unknown", "rates-length",
        "amplitude-entry-length-3", "state-preset-unknown", "state-preset-dims",
        "state-empty", "purity-theta-d2", "purity-direction-length"])
def test_cli_hostile_input_exits_config_error(tmp_path, capsys, edit, argv):
    # an edit applies to the pair config, or to the single-qudit one holding its target
    text = GOOD_YAML if edit is None else next(
        base for base in (GOOD_YAML, SINGLE_YAML) if edit[0] in base).replace(*edit)
    path = tmp_path / "hostile.yaml"
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert "config error" in capsys.readouterr().err


START_YAML = {
    "pair": "dims: [2, 2]\ninitial_state: {preset: two_qubit_schmidt, q: 0.3}\n"
            "evolution: {a: [LOOP], b: []}\n",
    "single": "dims: 2\ninitial_state: {purity: {q: 0.5}}\nevolution: {path: [LOOP]}\n",
}
LOOP = '{kind: bloch_loop, theta_start: THETA, theta_end: 1.5, phi_rate: 1.0, duration: "2*pi"}'


@pytest.mark.parametrize("kind", ["pair", "single"])
def test_cli_path_must_start_at_identity(tmp_path, capsys, kind):
    # V(theta, phi) = 1 at theta = 4 pi, so only that start runs
    path = tmp_path / "start.yaml"
    for theta, argv, code in (("1.0", ["run"], 2), ("1.0", ["verify"], 2),
                              ('"4*pi"', ["run", "--output", str(tmp_path / "s.csv")], 0)):
        path.write_text('name: start\ngrid: {t_max: "2*pi", steps: 2000}\n'
                        + START_YAML[kind].replace("LOOP", LOOP).replace("THETA", theta))
        assert main([argv[0], str(path), *argv[1:]]) == code
        if code == 2:
            assert "must start at the identity" in capsys.readouterr().err


def test_cli_run_output_serializes_once(tmp_path, monkeypatch):
    calls = []
    for fmt in ("csv", "json"):
        original = getattr(TraceRecord, f"to_{fmt}")

        def counted(self, original=original, fmt=fmt):
            calls.append(fmt)
            return original(self)

        monkeypatch.setattr(TraceRecord, f"to_{fmt}", counted)
    for fmt in ("csv", "json"):
        calls.clear()
        dest = tmp_path / f"frac22.{fmt}"
        assert main(["run", "frac22", "--format", fmt, "--output", str(dest)]) == 0
        assert calls == [fmt]
        assert dest.read_text() == getattr(TraceRecord, f"to_{fmt}")(
            qp.run_scenario(qp.figure_preset("frac22")).record)


def test_cli_lattice_output(capsys):
    assert main(["lattice", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "0, pi" in out
    assert main(["lattice", "3", "3"]) == 0
    out = capsys.readouterr().out
    assert "0, 2pi/3, 4pi/3" in out
    assert main(["lattice", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "0, pi/3, 2pi/3, pi, 4pi/3, 5pi/3" in out
    # every value from integers, 2 m / lcm: past a denominator of 720 too
    assert main(["lattice", "29", "31"]) == 0
    out = capsys.readouterr().out
    assert "0, 2pi/899, 4pi/899, 6pi/899" in out and "1796pi/899\n" in out
    assert main(["lattice", "1", "3"]) == 2
    assert main(["lattice", "0", "0"]) == 2
    assert "config error" in capsys.readouterr().err
    # more than 10^6 values is refused before anything is allocated
    for sizes in (["100003", "100019"], ["3000", "3001"]):
        start = time.perf_counter()
        assert main(["lattice", *sizes]) == 2
        assert time.perf_counter() - start < 1.0
        assert "10^6" in capsys.readouterr().err


def test_module_entry_point_exits_with_main_code():
    # ``python -m quditphase`` in a fresh interpreter: __main__ passes main's code on
    src = os.path.dirname(os.path.dirname(os.path.abspath(qp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "quditphase", *argv], capture_output=True,
                              text=True, env=env, timeout=120)

    lattice = run("lattice", "29", "31")
    assert lattice.returncode == 0 and "2pi/899" in lattice.stdout
    verify = run("verify", "fig6a")
    assert verify.returncode == 4 and "no oracle" in verify.stderr


def test_cli_verify_generator_path_reports_no_oracle(tmp_path, capsys):
    cfg = {
        "name": "coset3",
        "dims": [3, 3],
        "initial_state": {"preset": "two_qutrit_schmidt", "q": 0.0},
        "evolution": {
            "a": [{"kind": "generator_const", "duration": 1.0,
                   "generator": [[0, 0.2, 0], [0.2, 0, 0], [0, 0, 0]]}],
            "b": [],
        },
        "grid": {"t_max": 1.0, "steps": 200},
    }
    import yaml as _yaml
    path = tmp_path / "coset3.yaml"
    path.write_text(_yaml.safe_dump(cfg))
    assert main(["verify", str(path)]) == 4
    assert "no oracle" in capsys.readouterr().err
    # the same scenario still runs fine
    assert main(["run", str(path), "--output", str(tmp_path / "c.csv")]) == 0


def test_cli_batch_runs_directory(tmp_path):
    confdir = tmp_path / "configs"
    outdir = tmp_path / "out"
    confdir.mkdir()
    for name in ("fig1a", "frac22"):
        (confdir / f"{name}.yaml").write_text(qp.figure_preset(name).to_yaml())
    assert main(["batch", str(confdir), "--output", str(outdir)]) == 0
    assert sorted(os.listdir(outdir)) == ["fig1a.csv", "frac22.csv"]


def test_cli_batch_refuses_a_directory_without_configs(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no configs here")
    assert main(["batch", str(tmp_path), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "no .yaml configs" in err


def test_cli_batch_rejects_bad_jobs_and_names_bad_file(tmp_path, capsys):
    confdir = tmp_path / "configs"
    confdir.mkdir()
    (confdir / "fig1a.yaml").write_text(qp.figure_preset("fig1a").to_yaml())
    for jobs in ("0", "-3"):
        assert main(["batch", str(confdir), "--output", str(tmp_path / "out"),
                     "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
    bad = confdir / "broken.yaml"
    bad.write_text(BAD_RATES_YAML)
    assert main(["batch", str(confdir), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "evolution.a[0]" in err


def test_split_flag_equivalence_and_rejection(tmp_path):
    a_csv = tmp_path / "a.csv"
    h_csv = tmp_path / "h.csv"
    assert main(["run", "fig1b", "--split", "a-only", "--output", str(a_csv)]) == 0
    assert main(["run", "fig1b", "--split", "half", "--output", str(h_csv)]) == 0
    rec_a = TraceRecord.from_csv(a_csv.read_text())
    rec_h = TraceRecord.from_csv(h_csv.read_text())
    for col in COLUMNS:
        assert np.abs(rec_a.columns[col] - rec_h.columns[col]).max() < 1e-9
    # a path that ends before t_max holds its end on both sides of the split
    cfg = tmp_path / "short.yaml"
    cfg.write_text(GOOD_YAML.replace("q: 0.2", "q: 0.3").replace(
        '-2.0], duration: "2*pi"', '-2.0], duration: "pi"').replace(
        '{kind: cartan_hold, duration: "2*pi"}',
        '{kind: cartan_linear, rates: [2.0, -1.0, -1.0], duration: "2*pi"}').replace(
        "steps: 600", "steps: 4002"))
    runs = {}
    for split in (None, "half", "a-only"):
        dest = tmp_path / f"short-{split}.csv"
        assert main(["run", str(cfg), "--output", str(dest),
                     *(["--split", split] if split else [])]) == 0
        runs[split] = TraceRecord.from_csv(dest.read_text())
    assert runs[None].columns["t"].size == 4003
    for split in ("half", "a-only"):
        for col in COLUMNS:
            assert np.abs(runs[split].columns[col] - runs[None].columns[col]).max() < 1e-14
    # non-diagonal initial state: the reassignment would change the physics
    assert main(["run", "fig6a", "--split", "half"]) == 2
    assert main(["run", "frac34", "--split", "half"]) == 2


def test_marginal_presets_contact_structure():
    # the equal-marginal family touches the circle at nonzero fractional
    # phases only when maximally entangled; partial variants contact at 0
    lat = qp.fractional_lattice(3, 3)
    for name, fractional in (("fig6a", False), ("fig6b", False),
                             ("fig6c", False), ("fig6d", True)):
        out = qp.run_scenario(qp.figure_preset(name))
        contacts = [e for e in out.scan.events if e.t_cycle > 1e-9]
        assert contacts, name
        nonzero = [e for e in contacts
                   if qp.circular_distance(e.phase, 0.0) > 1e-6]
        assert bool(nonzero) == fractional, name
        for e in contacts:
            assert lat.contains(e.phase, tol=1e-6), (name, e.phase)


def test_stepped_preset_overlap_at_branch_joints():
    # the stepped runs have a segment boundary on a grid sample at each branch
    # joint k 2 pi/3; the maximally entangled run (fig2a) alternates between
    # vanishing and unit overlap there. The single qutrit at purity 0.2 runs
    # fig2b's branches as its purified pair, B held
    joints = np.array([1, 2, 3, 4, 5, 6]) * TWO_PI / 3.0
    cases = [qp.figure_preset(name) for name in ("fig2a", "fig2b", "fig2c")]
    cases.append(qp.ScenarioConfig.from_dict({
        "name": "single-stepped", "dims": 3, "initial_state": {"purity": {"q": 0.2}},
        "evolution": {"path": cases[1].evolution["a"]},
        "grid": {"t_max": "4*pi", "steps": 4002}}))
    for cfg in cases:
        name = cfg.name
        out = qp.run_scenario(cfg)
        t = out.trace.t
        idx = np.searchsorted(t, joints - 1e-9)
        if name == "fig2a":
            np.testing.assert_allclose(out.trace.overlap_mag[idx], [0, 1, 0, 1, 0, 1],
                                       atol=1e-9)
        # |f| has a kink at the cuts 4 pi/3 and 8 pi/3: the events are those
        # samples, unfitted, and walk the qutrit fractions
        contacts = [e for e in out.record.cycles if e.t_cycle > 1e-9]
        assert [e.t_cycle for e in contacts] == t[idx[[1, 3, 5]]].tolist(), name
        # ... within one ulp of the cuts (the sample times k dt round)
        assert (np.abs([e.t_cycle for e in contacts[:2]] - joints[[1, 3]])
                <= np.spacing(joints[[1, 3]])).all(), name
        assert all(e.overlap_mag <= 1.0 for e in out.record.cycles), name
        assert [(e.n_a, e.n_b) for e in contacts] == [(1, 0), (2, 0), (0, 0)], name
        np.testing.assert_allclose([e.phase for e in contacts],
                                   [TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI], rtol=0, atol=1e-12)


@pytest.mark.parametrize("rates_a, rates_b", [([2.5, -2.5], [0.5, 1.5, -2.0]),
                                              ([3.0, -3.0], [2.0, -1.0, -1.0])])
@pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 1.0])
def test_verify_embedded_qubit_qutrit_bridges_overlap_zeros(rates_a, rates_b, q):
    # at q = 0 the effective phasor cos(eff) vanishes on grid samples; the oracle
    # must bridge them with the dynamical slope, as the engine does
    raw = {
        "name": "embedded", "dims": [2, 3],
        "initial_state": {"preset": "qubit_qutrit_embedded", "q": q},
        "evolution": {
            "a": [{"kind": "cartan_linear", "rates": rates_a, "duration": "2*pi"}],
            "b": [{"kind": "cartan_linear", "rates": rates_b, "duration": "2*pi"}],
        },
        "grid": {"t_max": "4*pi", "steps": 4000},
    }
    config = qp.ScenarioConfig.from_dict(raw)
    if q == 0.0:
        assert qp.run_scenario(config).trace.indeterminate.any()
    report = qp.verify_scenario(config)
    assert report.oracle == "qubit_qutrit_effective"
    assert report.ok, report.lines()
    assert max(report.max_total_dev, report.max_geometric_dev) < 1e-11


_ORACLE_LABELS = {
    **{name: "two_qudit_diagonal" for name in (
        "fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b", "fig2c", "fig2d",
        "fig3", "fig6d", "frac22", "frac33", "frac44")},
    **{name: "qubit_qutrit_dual" for name in ("fig4a", "fig4b", "fig4c", "fig4d")},
    **{name: None for name in ("fig6a", "fig6b", "fig6c", "frac34")},
}


@pytest.mark.parametrize("name", qp.available_presets())
def test_verify_oracle_coverage_of_presets(name):
    config = qp.figure_preset(name)
    if _ORACLE_LABELS[name] is None:
        with pytest.raises(qp.NoOracleError):
            qp.verify_scenario(config)
    else:
        report = qp.verify_scenario(config)
        assert report.oracle == _ORACLE_LABELS[name]
        assert report.ok, report.lines()


@pytest.mark.parametrize("dims, amplitudes", [
    ([3, 4], [[0.6, 0, 0, 0], [0, 0.8, 0, 0], [0, 0, 0, 0]]),
    ([2, 3], [[0.6, 0, 0], [0, [0, 0.8], 0]]),
], ids=["schmidt-3x4", "embedded-complex"])
def test_verify_leaves_other_diagonal_states_uncovered(dims, amplitudes):
    # Schmidt pair sums cover equal dimensions and the real embedded qubit-qutrit
    ramp = {d: [1.0] * (d - 1) + [1.0 - d] for d in dims}
    config = qp.ScenarioConfig.from_dict({
        "name": "uncovered", "dims": dims, "initial_state": {"amplitudes": amplitudes},
        "evolution": {side: [{"kind": "cartan_linear", "rates": ramp[d], "duration": 1.0}]
                      for side, d in zip("ab", dims)},
        "grid": {"t_max": 1.0, "steps": 200},
    })
    with pytest.raises(qp.NoOracleError):
        qp.verify_scenario(config)


def test_verify_cut_on_the_last_sample_keeps_the_left_rate(tmp_path, capsys):
    # path A runs past the grid; its boundary at t_max lands on the last
    # sample, whose last Simpson interval must take the first segment's rate
    raw = {
        "name": "end-cut", "dims": [3, 3],
        "initial_state": {"preset": "two_qutrit_schmidt", "q": 0.5},
        "evolution": {
            "a": [{"kind": "cartan_linear", "rates": [1, 1, -2], "duration": "pi"},
                  {"kind": "cartan_linear", "rates": [-3, 1, 2], "duration": "pi"}],
            "b": [{"kind": "cartan_hold", "duration": "pi"}],
        },
        "grid": {"t_max": "pi", "steps": 4000},
    }
    config = qp.ScenarioConfig.from_dict(raw)
    report = qp.verify_scenario(config)
    assert report.max_dynamical_dev <= 1e-12, report.lines()
    path = tmp_path / "end_cut.yaml"
    path.write_text(config.to_yaml())
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()


NEAR_CUT_YAML = """
name: near-cut
dims: [2, 2]
initial_state: {preset: two_qubit_schmidt, q: 0.6}
evolution:
  a:
    - {kind: cartan_linear, rates: [1.0, -1.0], duration: 10.000000005}
    - {kind: cartan_linear, rates: [-1.0, 1.0], duration: 89.999999995}
  b: [{kind: cartan_hold, duration: 100.0}]
grid: {t_max: 100.0, steps: 1000}
"""


def test_verify_cut_within_the_grid_tolerance_starts_its_row_on_the_sample(tmp_path, capsys):
    # a cut 5e-9 after sample 100 (5e-8 steps) is on the grid, so the second
    # ramp starts on sample 100; starting it a sample later would integrate
    # one step at the first ramp's rate, 0.12 rad off
    path = tmp_path / "near_cut.yaml"
    path.write_text(NEAR_CUT_YAML)
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    report = qp.verify_scenario(qp.ScenarioConfig.from_file(str(path)))
    assert report.max_dynamical_dev <= 1e-8, report.lines()


def test_verify_two_qubit_preset_scenario():
    raw = {
        "name": "two-qubit-partial",
        "dims": [2, 2],
        "initial_state": {"preset": "two_qubit_schmidt", "q": 0.8},
        "evolution": {
            "a": [{"kind": "cartan_linear", "rates": [0.7, -0.7], "duration": 2.0}],
            "b": [{"kind": "cartan_linear", "rates": [-0.2, 0.2], "duration": 2.0}],
        },
        "grid": {"t_max": 2.0, "steps": 2000},
    }
    report = qp.verify_scenario(qp.ScenarioConfig.from_dict(raw))
    assert report.ok
    assert report.max_geometric_dev < 1e-6
    # cross-check the endpoint against the closed form
    from quditphase import closed_form as cf
    out = qp.run_scenario(qp.ScenarioConfig.from_dict(raw))
    res = cf.two_qubit_partial(math.sqrt(1 - 0.8 ** 2), 1.4, -0.4)
    assert abs(out.trace.geometric_phase[-1] - res.phi_g) < 1e-6


def test_single_qudit_scenario_roundtrip(tmp_path):
    raw = {
        "name": "single-qutrit",
        "dims": 3,
        "initial_state": {"purity": {"q": 0.5, "theta": 0.2}},
        "evolution": {
            "path": [{"kind": "cartan_linear", "rates": [0.4, 0.1, -0.5],
                      "duration": 2.0}],
        },
        "grid": {"t_max": 2.0, "steps": 1000},
    }
    cfg = qp.ScenarioConfig.from_dict(raw)
    out = qp.run_scenario(cfg)
    report = qp.verify_scenario(cfg)
    assert report.oracle == "single_qudit_diagonal"
    assert report.ok
    dest = tmp_path / "single.csv"
    out.record.write(str(dest))
    back = TraceRecord.from_csv(dest.read_text())
    assert "purity_q" in back.diagnostics


SINGLE_YAML = """
name: single-contract
dims: 3
initial_state: {purity: {q: 0.5}}
evolution:
  path:
    - {kind: cartan_linear, rates: [1.0, 1.0, -2.0], duration: "2*pi"}
grid: {t_max: "2*pi", steps: 3000}
"""


def test_single_qudit_contract(tmp_path, capsys):
    # the single qudit runs as its purified pair; what stays single-specific
    # is the purity diagnostics, the --split refusal and the oracle label
    path = tmp_path / "single.yaml"
    path.write_text(SINGLE_YAML)
    out = qp.run_scenario(qp.ScenarioConfig.from_file(str(path)))
    assert list(out.record.diagnostics) == ["purity_q", "purity_tr_rho2",
                                            "unitarity_residual_max",
                                            "determinant_residual_max"]
    # U = e^{2 pi i m/3} 1 at t = 2 pi m/3: lattice returns, labelled (m, 0)
    # with B held at the identity
    events = out.scan.events
    assert [round(3 * ev.t_cycle / TWO_PI) for ev in events] == [0, 1, 2, 3]
    for m, ev in enumerate(events):
        assert qp.circular_distance(ev.phase, TWO_PI * m / 3) < 1e-6
        assert (ev.n_a, ev.n_b) == (m % 3, 0)
    assert main(["run", str(path), "--split", "half"]) == 2
    assert "--split applies to two-qudit scenarios" in capsys.readouterr().err
    assert main(["verify", str(path)]) == 0
    assert "oracle = single_qudit_diagonal" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["sud", "states", "paths", "phases", "closed_form",
                                    "scenarios"])
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"quditphase.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_cli_steps_override(tmp_path):
    dest = tmp_path / "s.csv"
    assert main(["run", "frac22", "--steps", "1000", "--output", str(dest)]) == 0
    rec = TraceRecord.from_csv(dest.read_text())
    assert rec.columns["t"].size == 1001


def test_single_qudit_direction_config():
    raw = {
        "name": "single-direction",
        "dims": 4,
        "initial_state": {"purity": {"q": 0.2,
                                     "direction": [1.0] + [0.0] * 14}},
        "evolution": {"path": [{"kind": "cartan_linear",
                                "rates": [0.3, 0.3, 0.3, -0.9],
                                "duration": 1.0}]},
        "grid": {"t_max": 1.0, "steps": 400},
    }
    out = qp.run_scenario(qp.ScenarioConfig.from_dict(raw))
    assert out.record.diagnostics["purity_q"] == pytest.approx(0.2)
    # unknown evolution key is rejected
    raw["evolution"]["b"] = []
    with pytest.raises(ConfigError, match="unknown keys"):
        qp.ScenarioConfig.from_dict(raw).build()


def test_amplitude_initial_state():
    raw = {
        "name": "amps",
        "dims": [2, 2],
        "initial_state": {"amplitudes": [[[0.6, 0.0], 0.0], [0.0, 0.8]]},
        "evolution": {"a": [{"kind": "cartan_linear", "rates": [1.0, -1.0],
                             "duration": 1.0}], "b": []},
        "grid": {"t_max": 1.0, "steps": 200},
    }
    out = qp.run_scenario(qp.ScenarioConfig.from_dict(raw))
    assert out.record.diagnostics["concurrence"] == pytest.approx(2 * 0.6 * 0.8)


HUGE_DIMS_YAML = """
name: huge
dims: [2, 100000]
initial_state: {preset: max_entangled}
evolution:
  a:
    - {kind: cartan_linear, rates: [1.0, -1.0], duration: 1.0}
  b:
    - {kind: cartan_hold, duration: 1.0}
grid: {t_max: 1.0, steps: 100}
"""


@pytest.mark.parametrize("text, argv", [
    (GOOD_YAML, ["run", "--steps", str(10 ** 13)]),
    (GOOD_YAML, ["verify", "--steps", str(10 ** 13)]),
    (SINGLE_YAML, ["run", "--steps", str(10 ** 13)]),
    (HUGE_DIMS_YAML, ["run"]),
], ids=["run-steps", "verify-steps", "single-steps", "dims"])
def test_cli_refuses_sizes_past_physical_memory(tmp_path, capsys, monkeypatch, text, argv):
    # each needs at least 1 TiB; the size policy refuses it before a path or a
    # state is built, so nothing is allocated
    def unbuilt(*args):
        raise AssertionError("built past the size policy")

    monkeypatch.setattr(qp.scenarios, "_build_evolution", unbuilt)
    monkeypatch.setattr(qp.scenarios, "_build_pair_state", unbuilt)
    monkeypatch.setattr(qp.scenarios, "_build_single_state", unbuilt)
    path = tmp_path / "huge.yaml"
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert "physical memory" in capsys.readouterr().err


def test_size_policy_admits_the_benchmark_sizes():
    # long_grid's largest grid and widest paths, and the largest preset grid
    qp.scenarios._check_size(400000, (8, 8), (3, 3))
    qp.scenarios._check_size(40000, (2, 3), (1, 1))


def _schmidt_config(dims, schmidt) -> dict:
    return {"name": "schmidt", "dims": dims, "initial_state": {"schmidt": schmidt},
            "evolution": {"a": [], "b": []}, "grid": {"t_max": 1.0, "steps": 10}}


@pytest.mark.parametrize("dims, schmidt, expected", [
    ([2, 2], {"q": 0.3}, lambda: qp.two_qubit_schmidt(0.3)),
    ([3, 3], {"q": 0.4, "theta": 0.1}, lambda: qp.two_qutrit_schmidt(0.4, 0.1)),
    ([4, 4], {"q": 0.2}, lambda: qp.qudit_schmidt_diagonal(4, 0.2)),
], ids=["2x2", "3x3", "4x4"])
def test_schmidt_initial_state_builds_the_named_family(dims, schmidt, expected):
    built = qp.ScenarioConfig.from_dict(_schmidt_config(dims, schmidt)).build()
    np.testing.assert_array_equal(built.alpha0.alpha, expected().alpha)


def test_schmidt_initial_state_refuses_unequal_dims(tmp_path, capsys):
    path = tmp_path / "schmidt.yaml"
    path.write_text(json.dumps(_schmidt_config([2, 3], {"q": 0.3})))
    assert main(["run", str(path)]) == 2
    assert "no generic Schmidt family for unequal dims 2x3" in capsys.readouterr().err
