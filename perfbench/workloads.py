"""Seeded inputs, operations and output checks for the benchmark workloads.

Every input comes from the ``--seed`` argument alone. The seed draws states,
rates, generators and parameters; the shape of each workload (which op kinds,
which grid sizes) is fixed, so different seeds cost about the same.

An op is one closed-loop request: ``reset`` (untimed) clears its old output,
``run`` is timed, ``check`` (untimed) returns a failure reason or None.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import yaml

TWO_PI = 2.0 * math.pi
# Presets with no closed form: the correct ``verify`` outcome is exit code 4.
NO_ORACLE = frozenset({"fig6a", "fig6b", "fig6c", "frac34"})
EXIT_OK, EXIT_NO_ORACLE = 0, 4
SMOKE_PRESETS = ("fig1a", "fig4a", "fig6a", "frac34")

PHASE_GAP_TOL = 1e-12      # |geometric - (total - dynamical)|
OVERLAP_TOL = 1e-9         # overlap(0) = 1 and |overlap| <= 1
LATTICE_TOL = 1e-9         # labelled cycles on 2 pi (n_A/d_A + n_B/d_B)
RESIDUAL_TOL = 1e-12       # unitarity and determinant residuals


@dataclass
class Op:
    name: str
    samples: int                        # grid samples (steps + 1) computed
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    reset: Callable[[], None] | None = None


@dataclass
class Workload:
    ops: list                           # one pass, in order
    notes: list                         # per-op facts printed with the result


# -- output checks ---------------------------------------------------------------


def _circular_gap(a: float, b: float) -> float:
    return abs(math.remainder(a - b, TWO_PI))


def check_record(rec, rows: int, dims: tuple) -> str | None:
    """Invariants every trace record must satisfy; None when all hold."""
    cols = rec.columns
    n = len(cols["t"])
    if n != rows:
        return f"{n} rows, expected {rows}"
    total = np.asarray(cols["total_phase"])
    dyn = np.asarray(cols["dynamical_phase"])
    geo = np.asarray(cols["geometric_phase"])
    gap = float(np.abs(geo - (total - dyn)).max())
    if not gap <= PHASE_GAP_TOL:
        return f"geometric != total - dynamical by {gap:.3g}"
    re, im = np.asarray(cols["overlap_re"]), np.asarray(cols["overlap_im"])
    start = abs(complex(re[0], im[0]) - 1.0)
    if not start <= OVERLAP_TOL:
        return f"overlap starts {start:.3g} away from 1"
    mag = max(float(np.hypot(re, im).max()), float(np.max(cols["overlap_abs"])))
    if not mag <= 1.0 + OVERLAP_TOL:
        return f"|overlap| reaches {mag!r}"
    if len(dims) == 2:
        for ev in rec.cycles:
            if ev.n_a is None or ev.n_b is None:
                continue
            want = TWO_PI * (ev.n_a / dims[0] + ev.n_b / dims[1])
            off = _circular_gap(ev.phase, want)
            if not off <= LATTICE_TOL:
                return (f"cycle at t = {ev.t_cycle:.6g} labelled ({ev.n_a}, {ev.n_b}) "
                        f"is {off:.3g} off the lattice")
    for key in ("unitarity_residual_max", "determinant_residual_max"):
        value = rec.diagnostics.get(key)
        if value is None or not value <= RESIDUAL_TOL:
            return f"{key} = {value!r}"
    return None


def _check_file(scen, path: str, fmt: str, rows: int, dims: tuple) -> str | None:
    if not os.path.exists(path):
        return f"{os.path.basename(path)} was not written"
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        rec = (scen.TraceRecord.from_csv(text) if fmt == "csv"
               else scen.TraceRecord.from_json(text))
    except (ValueError, KeyError, IndexError) as exc:
        return f"{os.path.basename(path)} does not parse back: {exc}"
    reason = check_record(rec, rows, dims)
    return None if reason is None else f"{os.path.basename(path)}: {reason}"


def _remove(*paths: str) -> None:
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _clear_dir(path: str) -> None:
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))


def _cli(cli, argv: list) -> tuple:
    """(exit code, stdout) of one in-process CLI command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- presets -----------------------------------------------------------------------


def _check_run(scen, path, fmt, rows, dims, result) -> str | None:
    code, _ = result
    if code != EXIT_OK:
        return f"exit code {code}"
    return _check_file(scen, path, fmt, rows, dims)


def _check_verify(no_oracle: bool, result) -> str | None:
    code, out = result
    want = EXIT_NO_ORACLE if no_oracle else EXIT_OK
    if code != want:
        return f"exit code {code}, expected {want}"
    if code == EXIT_OK and "result: ok" not in out:
        return "verify exited 0 without reporting ok"
    return None


def presets(qp, seed: int, workdir: str, smoke: bool) -> Workload:
    """All shipped presets: ``run`` to CSV, ``run`` to JSON and ``verify``."""
    cli, scen = qp.cli, qp.scenarios
    names = scen.available_presets()
    if smoke:
        names = [n for n in names if n in SMOKE_PRESETS]
    order = [str(n) for n in np.random.default_rng(seed).permutation(names)]
    ops = []
    for name in order:
        cfg = scen.figure_preset(name)
        rows = cfg.build().grid.steps + 1
        for fmt in ("csv", "json"):
            path = os.path.join(workdir, f"{name}.{fmt}")
            argv = ["run", name, "--format", fmt, "--output", path]
            ops.append(Op(f"run-{fmt}:{name}", rows,
                          run=lambda argv=argv: _cli(cli, argv),
                          check=lambda r, p=path, f=fmt, n=rows, d=cfg.dims:
                              _check_run(scen, p, f, n, d, r),
                          reset=lambda p=path: _remove(p)))
        ops.append(Op(f"verify:{name}", rows,
                      run=lambda name=name: _cli(cli, ["verify", name]),
                      check=lambda r, no=name in NO_ORACLE: _check_verify(no, r)))
    return Workload(ops=ops, notes=[f"presets in seeded order: {order}"])


# -- long_grid ---------------------------------------------------------------------


def _int_rates(rng, d: int, span: int = 3) -> list:
    """Integer per-level rates summing to zero, not all zero."""
    while True:
        head = rng.integers(-span, span + 1, size=d - 1)
        if head.any():
            return [float(v) for v in head] + [float(-head.sum())]


def _hermitian(rng, d: int, radius: float) -> list:
    """Traceless Hermitian generator with spectral radius ``radius``."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (z + z.conj().T) / 2.0
    h -= np.trace(h).real / d * np.eye(d)
    h *= radius / np.abs(np.linalg.eigvalsh(h)).max()
    return _complex_rows(h)


def _complex_rows(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _amplitudes(rng, d_a: int, d_b: int) -> list:
    z = rng.standard_normal((d_a, d_b)) + 1j * rng.standard_normal((d_a, d_b))
    return _complex_rows(z / np.linalg.norm(z))


def _grid(t_max: float, steps: int) -> dict:
    return {"t_max": t_max, "steps": steps}


def _even(steps: float) -> int:
    return max(2, int(round(steps / 2)) * 2)


def long_grid_configs(seed: int, scale: float) -> list:
    """(label, raw scenario) for the four large-grid library calls."""
    rng = np.random.default_rng(seed)
    out = [("ramp8x8", {
        "name": "ramp8x8", "dims": [8, 8],
        "initial_state": {"preset": "max_entangled"},
        "evolution": {"a": [{"kind": "cartan_linear", "rates": _int_rates(rng, 8),
                             "duration": TWO_PI}],
                      "b": [{"kind": "cartan_linear", "rates": _int_rates(rng, 8),
                             "duration": TWO_PI}]},
        "grid": _grid(TWO_PI, _even(100_000 * scale))})]
    out.append(("generator8x8", {
        "name": "generator8x8", "dims": [8, 8],
        "initial_state": {"amplitudes": _amplitudes(rng, 8, 8)},
        "evolution": {"a": [{"kind": "generator_const", "generator": _hermitian(rng, 8, 2.0),
                             "duration": TWO_PI}],
                      "b": [{"kind": "generator_const", "generator": _hermitian(rng, 8, 2.0),
                             "duration": TWO_PI}]},
        "grid": _grid(TWO_PI, _even(30_000 * scale))}))
    k = float(rng.integers(1, 4))
    out.append(("bloch2x3", {
        "name": "bloch2x3", "dims": [2, 3],
        "initial_state": {"amplitudes": _amplitudes(rng, 2, 3)},
        "evolution": {"a": [{"kind": "bloch_loop", "theta_end": float(rng.uniform(0.3, 2.5)),
                             "phi_rate": float(rng.uniform(0.5, 2.0)), "duration": math.pi},
                            {"kind": "cartan_linear", "rates": [k, -k], "duration": math.pi}],
                      "b": [{"kind": "cartan_linear", "rates": _int_rates(rng, 3),
                             "duration": TWO_PI}]},
        "grid": _grid(TWO_PI, _even(400_000 * scale))}))
    direction = rng.standard_normal(63)
    out.append(("single8", {
        "name": "single8", "dims": 8,
        "initial_state": {"purity": {"q": float(rng.uniform(0.02, 0.1)),
                                     "direction": [float(v) for v in
                                                   direction / np.linalg.norm(direction)]}},
        "evolution": {"path": [{"kind": "generator_const",
                                "generator": _hermitian(rng, 8, 2.0), "duration": math.pi},
                               {"kind": "cartan_linear", "rates": _int_rates(rng, 8),
                                "duration": math.pi}]},
        "grid": _grid(TWO_PI, _even(50_000 * scale))}))
    return out


def _library_ops(scen, configs) -> tuple:
    ops, notes = [], []
    for label, raw in configs:
        cfg = scen.ScenarioConfig.from_dict(raw)
        rows = cfg.build().grid.steps + 1
        dims = cfg.dims
        stack = 2 * 16 * rows * sum(d * d for d in dims)
        ops.append(Op(f"run_scenario:{label}", rows,
                      run=lambda cfg=cfg: scen.run_scenario(cfg),
                      check=lambda out, n=rows, d=dims: check_record(out.record, n, d)))
        notes.append(f"{label}: dims {tuple(dims)}, {rows} samples, "
                     f"computed U+dU stack bytes per full sampling = {stack} "
                     f"({stack / 2 ** 20:.1f} MiB, computed)")
    return ops, notes


def long_grid(qp, seed: int, workdir: str, smoke: bool) -> Workload:
    """Large-grid ``run_scenario`` calls, no serialization."""
    scen = qp.scenarios
    ops, notes = _library_ops(scen, long_grid_configs(seed, 0.01 if smoke else 1.0))
    return Workload(ops=ops, notes=notes)


# -- batch -------------------------------------------------------------------------

# (family, files, base steps): 24 configs, fixed mix so seeds cost the same.
BATCH_SLOTS = (
    ("qutrit_ramp", 4, 4002), ("stepped_qutrit", 4, 4002),
    ("marginal_qutrit", 4, 4002), ("qubit_qutrit", 4, 4002),
    ("two_qubit", 2, 4002), ("max44", 2, 4002), ("max34", 2, 4002),
    ("qubit_qutrit_fast", 1, 39996), ("qutrit_ramp_fast", 1, 39996),
)


def _hold(t_max) -> list:
    return [{"kind": "cartan_hold", "duration": t_max}]


def _family(rng, family: str, steps: int) -> dict:
    if family in ("qutrit_ramp", "qutrit_ramp_fast"):
        rates = _int_rates(rng, 3, span=30 if family.endswith("fast") else 3)
        return {"dims": [3, 3],
                "initial_state": {"preset": "two_qutrit_schmidt",
                                  "q": float(rng.uniform(0, 1)), "theta": 0.0},
                "evolution": {"a": [{"kind": "cartan_linear", "rates": rates,
                                     "duration": "2*pi"}], "b": _hold("2*pi")},
                "grid": _grid("2*pi", steps)}
    if family == "stepped_qutrit":
        k = float(rng.integers(1, 3))
        branches = [{"kind": "cartan_linear", "duration": "2*pi/3",
                     "rates": [-k, k, 0.0] if i % 2 == 0 else [-k, 0.0, k]}
                    for i in range(6)]
        return {"dims": [3, 3],
                "initial_state": {"preset": "two_qutrit_schmidt",
                                  "q": float(rng.uniform(0, 1)), "theta": 0.0},
                "evolution": {"a": branches, "b": _hold("4*pi")},
                "grid": _grid("4*pi", steps)}
    if family == "marginal_qutrit":
        a, b = (float(v) for v in rng.integers(1, 3, size=2))
        return {"dims": [3, 3],
                "initial_state": {"preset": "two_qutrit_equal_marginals",
                                  "q": float(rng.uniform(1.0 / 3.0, 1.0))},
                "evolution": {"a": [{"kind": "cartan_linear", "rates": [a, a, -2 * a],
                                     "duration": "2*pi"}],
                              "b": [{"kind": "cartan_linear", "rates": [b, b, -2 * b],
                                     "duration": "2*pi"}]},
                "grid": _grid("2*pi", steps)}
    if family in ("qubit_qutrit", "qubit_qutrit_fast"):
        lo, hi = (50.0, 100.0) if family.endswith("fast") else (0.5, 4.0)
        r = float(rng.uniform(lo, hi))
        return {"dims": [2, 3], "initial_state": {"preset": "qubit_qutrit_full"},
                "evolution": {"a": [{"kind": "cartan_linear", "rates": [r, -r],
                                     "duration": "2*pi"}],
                              "b": [{"kind": "cartan_linear", "rates": [1.0, 1.0, -2.0],
                                     "duration": "2*pi"}]},
                "grid": _grid("2*pi", steps)}
    if family == "two_qubit":
        k = float(rng.integers(1, 4))
        return {"dims": [2, 2],
                "initial_state": {"preset": "two_qubit_schmidt",
                                  "q": float(rng.uniform(0, 1))},
                "evolution": {"a": [{"kind": "cartan_linear", "rates": [k, -k],
                                     "duration": "2*pi"}], "b": _hold("2*pi")},
                "grid": _grid("2*pi", steps)}
    if family == "max44":
        return {"dims": [4, 4], "initial_state": {"preset": "max_entangled"},
                "evolution": {"a": [{"kind": "cartan_linear", "rates": _int_rates(rng, 4),
                                     "duration": "2*pi"}], "b": _hold("2*pi")},
                "grid": _grid("2*pi", steps)}
    if family == "max34":
        return {"dims": [3, 4], "initial_state": {"preset": "max_entangled"},
                "evolution": {"a": [{"kind": "cartan_linear", "rates": _int_rates(rng, 3),
                                     "duration": "2*pi"}],
                              "b": [{"kind": "cartan_linear", "rates": _int_rates(rng, 4),
                                     "duration": "2*pi"}]},
                "grid": _grid("2*pi", steps)}
    raise ValueError(f"unknown family {family!r}")


def batch_files(seed: int) -> list:
    """(file stem, raw scenario) for the batch directory, in a fixed order."""
    rng = np.random.default_rng(seed)
    out = []
    for family, count, base in BATCH_SLOTS:
        for _ in range(count):
            # multiples of 6 keep the stepped family's boundaries on the grid
            steps = base + 6 * int(rng.integers(0, 9))
            stem = f"{len(out):02d}_{family}"
            out.append((stem, {"name": stem, **_family(rng, family, steps)}))
    return out


def _write_batch_dir(scen, files, in_dir: str) -> list:
    os.makedirs(in_dir, exist_ok=True)
    expected = []
    for stem, raw in files:
        path = os.path.join(in_dir, f"{stem}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(raw, fh, sort_keys=False)
        cfg = scen.ScenarioConfig.from_file(path)
        expected.append((stem, cfg.build().grid.steps + 1, cfg.dims))
    return expected


def _check_batch(scen, out_dir, expected, result) -> str | None:
    code, _ = result
    if code != EXIT_OK:
        return f"exit code {code}"
    bad = []
    for stem, rows, dims in expected:
        reason = _check_file(scen, os.path.join(out_dir, f"{stem}.csv"), "csv", rows, dims)
        if reason is not None:
            bad.append(reason)
    if bad:
        return f"{len(bad)} of {len(expected)} files failed; first: {bad[0]}"
    return None


def _batch_op(qp, files, in_dir, out_dir, jobs: int) -> Op:
    expected = _write_batch_dir(qp.scenarios, files, in_dir)
    os.makedirs(out_dir, exist_ok=True)
    argv = ["batch", in_dir, "--jobs", str(jobs), "--format", "csv", "--output", out_dir]
    return Op(f"batch:{len(files)}files", sum(rows for _, rows, _ in expected),
              run=lambda: _cli(qp.cli, argv),
              check=lambda r: _check_batch(qp.scenarios, out_dir, expected, r),
              reset=lambda: _clear_dir(out_dir))


def batch(qp, seed: int, workdir: str, smoke: bool) -> Workload:
    """``quditphase batch`` over 24 seeded YAML configs, one pool thread per CPU."""
    jobs = len(os.sched_getaffinity(0))
    files = batch_files(seed)
    if smoke:
        files = files[::6]
    op = _batch_op(qp, files, os.path.join(workdir, "in"), os.path.join(workdir, "out"), jobs)
    notes = [f"batch of {len(files)} configs, {op.samples} samples, --jobs {jobs}: "
             + ", ".join(stem for stem, _ in files)]
    return Workload(ops=[op], notes=notes)


WORKLOADS = {"presets": presets, "long_grid": long_grid, "batch": batch}
