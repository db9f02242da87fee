"""Scenario configs, figure presets, trace records and oracle verification.

A scenario is a small YAML document (or the equivalent dict): dimensions, an
initial state, per-qudit segment lists, and a uniform time grid. Numeric
fields accept plain numbers or simple ``pi`` expressions such as ``"2*pi/3"``.
Running a scenario produces a TraceRecord: the sampled overlap and phase
columns plus invariant diagnostics and detected cyclic events, serialized as
CSV or JSON at full double precision.
"""

from __future__ import annotations

import ast
import json
import math
import operator
import os
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import closed_form as cf
from .paths import (BlochLoop, CartanHold, CartanLinear, GeneratorConst,
                    LocalEvolution, PairEvolution, TimeGrid, identity_evolution)
# single_qudit_trace is unused here but stays importable: perfbench/spans.py wraps it
from .phases import (CHUNK_ROWS, CycleScan, CyclicEvent, PhaseTrace, detect_cycles,
                     run_trace, single_qudit_trace)  # noqa: F401
from .states import (CoefficientMatrix, QuditDensity, density_from_purity,
                     entanglement_report, max_entangled, purify, qubit_qutrit_embedded,
                     qubit_qutrit_full, qudit_schmidt_diagonal, two_qubit_schmidt,
                     two_qutrit_equal_marginals, two_qutrit_schmidt)
from .sud import make_generators

__all__ = [
    "ConfigError",
    "NoOracleError",
    "ScenarioConfig",
    "BuiltScenario",
    "TraceRecord",
    "RunOutput",
    "VerifyReport",
    "figure_preset",
    "available_presets",
    "run_scenario",
    "verify_scenario",
    "COLUMNS",
    "write_atomic",
]

COLUMNS = ("t", "overlap_re", "overlap_im", "overlap_abs",
           "total_phase", "dynamical_phase", "geometric_phase")

_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}


class ConfigError(ValueError):
    """Scenario file failed validation."""


class NoOracleError(LookupError):
    """No closed form covers the scenario."""


def _arithmetic(node) -> float:
    """Value of a parsed expression: numbers, pi, + - * /, unary minus."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_arithmetic(node.left), _arithmetic(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_arithmetic(node.operand)
    raise ValueError(f"unsupported expression {ast.dump(node)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        result = (_arithmetic(ast.parse(value.strip(), mode="eval").body)
                  if isinstance(value, str) else float(value))
    except (SyntaxError, ValueError, ArithmeticError, RecursionError,
            MemoryError) as exc:  # the parser reports deep nesting as MemoryError
        raise ConfigError(f"{where}: cannot read {value!r} as a number") from exc
    if not math.isfinite(result):
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    return result


def _vector(values, where: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where}: expected a list of numbers")
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(values)])


def _complex_entry(v, where: str) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ConfigError(f"{where}: complex entries are [re, im] pairs")
        return complex(_number(v[0], where), _number(v[1], where))
    return complex(_number(v, where), 0.0)


def _complex_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ConfigError(f"{where}: expected a matrix, a list of rows")
    return np.array([[_complex_entry(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
                     for i, row in enumerate(rows)])


# ---------------------------------------------------------------------------
# Config model
# ---------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    """Validated scenario description; ``build`` turns it into runnable objects."""

    name: str
    dims: tuple
    initial_state: dict
    evolution: dict
    t_max: float
    steps: int
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("scenario must be a mapping")
        unknown = set(raw) - {"name", "dims", "initial_state", "evolution",
                              "grid", "tolerances"}
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
        name = raw.get("name", "scenario")
        dims = raw.get("dims")
        if _is_int(dims):
            dims = (dims,)
        elif isinstance(dims, (list, tuple)) and 1 <= len(dims) <= 2:
            dims = tuple(dims)
        else:
            raise ConfigError("dims: expected one or two integers")
        if any(not _is_int(d) or d < 2 for d in dims):
            raise ConfigError("dims: every dimension must be an integer >= 2")
        if len(dims) == 2 and dims[0] > dims[1]:
            raise ConfigError("dims: convention requires d_A <= d_B")
        grid = raw.get("grid")
        if not isinstance(grid, dict) or "t_max" not in grid or "steps" not in grid:
            raise ConfigError("grid: expected a mapping with t_max and steps")
        t_max = _number(grid["t_max"], "grid.t_max")
        steps = grid["steps"]
        if not _is_int(steps) or steps < 2:
            raise ConfigError("grid.steps: expected an integer >= 2")
        state = raw.get("initial_state")
        if not isinstance(state, dict):
            raise ConfigError("initial_state: expected a mapping")
        evolution = raw.get("evolution")
        if not isinstance(evolution, dict):
            raise ConfigError("evolution: expected a mapping of per-qudit paths")
        tol = raw.get("tolerances", {}) or {}
        if not isinstance(tol, dict):
            raise ConfigError("tolerances: expected a mapping")
        return cls(name=str(name), dims=dims, initial_state=state,
                   evolution=evolution, t_max=t_max, steps=int(steps),
                   tolerances=dict(tol))

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_yaml(fh.read())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dims": list(self.dims),
            "initial_state": self.initial_state,
            "evolution": self.evolution,
            "grid": {"t_max": self.t_max, "steps": self.steps},
            "tolerances": self.tolerances,
        }

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    def build(self, steps: int | None = None) -> "BuiltScenario":
        return _build(self, steps_override=steps)


@dataclass
class BuiltScenario:
    """Runnable objects produced from a ScenarioConfig. A single qudit (``rho0``
    set, None for a pair) runs as its purified pair, alpha0 = sqrt(rho0) with
    evo_b holding B at the identity."""

    config: ScenarioConfig
    alpha0: CoefficientMatrix
    rho0: QuditDensity | None
    evo_a: LocalEvolution
    evo_b: LocalEvolution
    grid: TimeGrid
    cyclic_eps: float
    oracle_tol: float

    @property
    def pair(self) -> PairEvolution:
        return PairEvolution(a=self.evo_a, b=self.evo_b, grid=self.grid)


def _build_segment(spec: dict, d: int, where: str):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: each segment is a mapping with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "cartan_linear":
            rates = _vector(spec.get("rates"), f"{where}.rates")
            if rates.size != d:
                raise ConfigError(f"{where}.rates: expected {d} per-level rates")
            return CartanLinear(rates, _number(spec.get("duration"), f"{where}.duration"))
        if kind == "cartan_hold":
            angles = spec.get("angles")
            angles = _vector(angles, f"{where}.angles") if angles is not None else None
            return CartanHold(_number(spec.get("duration"), f"{where}.duration"), angles)
        if kind == "bloch_loop":
            dur = _number(spec.get("duration"), f"{where}.duration")
            phi_rate = _number(spec.get("phi_rate", 0.0), f"{where}.phi_rate")
            key = "theta" if "theta" in spec else "theta_end"
            end = _number(spec.get(key), f"{where}.{key}")
            start = spec.get("theta_start")
            start = _number(start, f"{where}.theta_start") if start is not None else None
            return BlochLoop(theta_end=end, phi_rate=phi_rate, duration=dur,
                             theta_start=start)
        if kind == "generator_const":
            mat = _complex_matrix(spec.get("generator"), f"{where}.generator")
            return GeneratorConst(mat, _number(spec.get("duration"), f"{where}.duration"))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown segment kind {kind!r}")


def _build_evolution(specs, d: int, where: str) -> LocalEvolution:
    if specs is None:
        specs = []
    if not isinstance(specs, list):
        raise ConfigError(f"{where}: expected a list of segments")
    segments = [_build_segment(s, d, f"{where}[{i}]") for i, s in enumerate(specs)]
    try:
        evo = LocalEvolution(d, segments)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    start = np.abs(evo.coset_factor([0.0])[0] - np.eye(d)).max()
    if start > 1e-8:
        raise ConfigError(f"{where}: the path must start at the identity, but its coset "
                          f"factor at t = 0 deviates from it by {start:.3g}")
    return evo


def _build_pair_state(state: dict, dims: tuple, where: str) -> CoefficientMatrix:
    d_a, d_b = dims
    try:
        if "amplitudes" in state:
            mat = _complex_matrix(state["amplitudes"], f"{where}.amplitudes")
            if mat.shape != (d_a, d_b):
                raise ConfigError(f"{where}.amplitudes: expected a {d_a}x{d_b} matrix")
            return CoefficientMatrix.from_array(mat)
        if "preset" in state:
            name = state["preset"]
            if not isinstance(name, str):
                raise ConfigError(f"{where}.preset: expected a state preset name")
            q = _number(state.get("q", 0.0), f"{where}.q")
            theta = _number(state.get("theta", 0.0), f"{where}.theta")
            table = {
                "two_qubit_schmidt": lambda: two_qubit_schmidt(q),
                "two_qutrit_schmidt": lambda: two_qutrit_schmidt(q, theta),
                "two_qutrit_equal_marginals": lambda: two_qutrit_equal_marginals(q),
                "qubit_qutrit_embedded": lambda: qubit_qutrit_embedded(q),
                "qubit_qutrit_full": lambda: qubit_qutrit_full(),
                "max_entangled": lambda: max_entangled(d_a, d_b),
                "qudit_schmidt_diagonal": lambda: qudit_schmidt_diagonal(d_a, q),
            }
            if name not in table:
                raise ConfigError(f"{where}.preset: unknown state preset {name!r}; "
                                  f"known: {sorted(table)}")
            alpha = table[name]()
            if (alpha.d_a, alpha.d_b) != (d_a, d_b):
                raise ConfigError(f"{where}.preset: state {name!r} is "
                                  f"{alpha.d_a}x{alpha.d_b}, dims say {d_a}x{d_b}")
            return alpha
        if "schmidt" in state:
            params = state["schmidt"] or {}
            if not isinstance(params, dict):
                raise ConfigError(f"{where}.schmidt: expected a mapping")
            q = _number(params.get("q", 0.0), f"{where}.schmidt.q")
            theta = _number(params.get("theta", 0.0), f"{where}.schmidt.theta")
            if (d_a, d_b) == (2, 2):
                return two_qubit_schmidt(q)
            if (d_a, d_b) == (3, 3):
                return two_qutrit_schmidt(q, theta)
            if d_a == d_b:
                return qudit_schmidt_diagonal(d_a, q)
            raise ConfigError(f"{where}.schmidt: no generic Schmidt family for "
                              f"unequal dims {d_a}x{d_b}; use preset or amplitudes")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: provide one of 'schmidt', 'preset' or 'amplitudes'")


def _build_single_state(state: dict, d: int, where: str) -> QuditDensity:
    params = state.get("purity")
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: single-qudit scenarios use a 'purity' mapping")
    q = _number(params.get("q", 0.0), f"{where}.purity.q")
    basis = make_generators(d)
    q_hat = np.zeros(basis.size)
    if "theta" in params:
        if d != 3:
            raise ConfigError(f"{where}.purity.theta is only defined for d = 3")
        theta = _number(params["theta"], f"{where}.purity.theta")
        q_hat[0] = math.cos(theta)
        q_hat[1] = math.sin(theta)
    elif "direction" in params:
        vec = _vector(params["direction"], f"{where}.purity.direction")
        if vec.size != basis.size:
            raise ConfigError(f"{where}.purity.direction: expected length {basis.size}")
        q_hat = vec
    else:
        q_hat[0] = 1.0
    try:
        return density_from_purity(d, q, q_hat, basis)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# Peak memory of ``quditphase run`` with CSV output, measured as peak-RSS slopes
# (2-vCPU x86 Linux host, numpy 2.4): bytes per grid sample (steps 2e5 -> 1e6),
# per table-row entry, a row's d^2 (d 64 and 128, 40 -> 200 rows), and per
# phasor of a chunk, CHUNK_ROWS x d (d 64 -> 512). A single qudit's SU(d) basis,
# d^2 - 1 dense d x d complex matrices, peaked at 32 bytes per d^4 in tracemalloc
# (d 24 -> 40): the matrices and their stacked copy.
_BYTES_PER_SAMPLE = 600
_BYTES_PER_ROW_ENTRY = 150
_BYTES_PER_CHUNK_PHASOR = 80
_BYTES_PER_BASIS_ENTRY = 32


def _check_size(steps: int, dims: tuple, specs: tuple, basis: int = 0) -> None:
    """Refuse, before anything is allocated, a grid and dimensions whose arrays
    cannot fit in physical memory: per path of dimension ``dims``, the rows of
    its segment list in ``specs`` (else one segment) and row n, its end, and
    the SU(``basis``) generator basis of a single qudit's state, if any."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):      # no sysconf: no policy
        return
    rows = [len(s) if isinstance(s, list) else 1 for s in specs]
    need = _BYTES_PER_SAMPLE * (steps + 1) + sum(
        _BYTES_PER_ROW_ENTRY * (r + 1) * d * d + _BYTES_PER_CHUNK_PHASOR * CHUNK_ROWS * d
        for d, r in zip(dims, rows)) + _BYTES_PER_BASIS_ENTRY * basis ** 4
    if need > physical:
        raise ConfigError(f"grid.steps {steps} with dims {list(dims)} needs about "
                          f"{need / 2 ** 30:.3g} GiB, more than the {physical / 2 ** 30:.3g} "
                          "GiB of physical memory")


def _build(config: ScenarioConfig, steps_override: int | None = None) -> BuiltScenario:
    tol = config.tolerances
    cyclic_eps = _number(tol.get("cyclic_eps", 1e-9), "tolerances.cyclic_eps")
    oracle_tol = _number(tol.get("oracle_tol", 1e-6), "tolerances.oracle_tol")
    if config.t_max <= 0:
        raise ConfigError(f"grid.t_max: expected a positive duration, got {config.t_max:g}")
    if steps_override is not None and (not _is_int(steps_override) or steps_override < 2):
        raise ConfigError(f"steps override: expected an integer >= 2, got {steps_override!r}")
    steps = steps_override if steps_override is not None else config.steps
    allowed = {"path", "a"} if len(config.dims) == 1 else {"a", "b"}
    unknown = set(config.evolution) - allowed
    if unknown:
        raise ConfigError(f"evolution: unknown keys {sorted(unknown)}; "
                          f"expected {sorted(allowed)}")
    if len(config.dims) == 1:      # a single qudit runs as its pair, B held in one segment
        (d,) = config.dims
        path = config.evolution.get("path", config.evolution.get("a"))
        _check_size(steps, (d, d), (path, None), basis=d)
        rho0 = _build_single_state(config.initial_state, d, "initial_state")
        alpha0 = purify(rho0)
        evo_a = _build_evolution(path, d, "evolution.path")
        evo_b = identity_evolution(d, config.t_max)
    else:
        rho0, (d_a, d_b) = None, config.dims
        specs = (config.evolution.get("a"), config.evolution.get("b"))
        _check_size(steps, config.dims, specs)
        alpha0 = _build_pair_state(config.initial_state, config.dims, "initial_state")
        evo_a = _build_evolution(specs[0], d_a, "evolution.a")
        evo_b = _build_evolution(specs[1], d_b, "evolution.b")
    try:
        grid = TimeGrid(t_max=config.t_max, steps=steps)
    except ValueError as exc:                   # t_max / steps underflows to 0
        raise ConfigError(f"grid: {exc}") from exc
    return BuiltScenario(config=config, alpha0=alpha0, rho0=rho0,
                         evo_a=evo_a, evo_b=evo_b, grid=grid,
                         cyclic_eps=cyclic_eps, oracle_tol=oracle_tol)


# ---------------------------------------------------------------------------
# Split transform for diagonal equal-dimension scenarios
# ---------------------------------------------------------------------------


def apply_split(built: BuiltScenario, mode: str) -> BuiltScenario:
    """Reassign diagonal total rates: everything on A, or half on each side.

    Only meaningful when both paths are diagonal, the dimensions agree and
    the initial coefficient matrix is diagonal; the trace then depends on the
    per-level totals only.
    """
    if mode not in ("a-only", "half"):
        raise ConfigError(f"unknown split mode {mode!r}; use 'half' or 'a-only'")
    if built.rho0 is not None:
        raise ConfigError("--split applies to two-qudit scenarios")
    if built.alpha0.d_a != built.alpha0.d_b:
        raise ConfigError("--split requires equal qudit dimensions")
    if np.abs(built.alpha0.alpha * (1 - np.eye(built.alpha0.d_a))).max() > 1e-12:
        raise ConfigError("--split requires a diagonal initial coefficient "
                          "matrix; this state couples unequal levels and the "
                          "trace depends on the actual A/B assignment")
    if not (built.evo_a.is_diagonal and built.evo_b.is_diagonal):
        raise ConfigError("--split requires all-diagonal paths")
    t_max = built.grid.t_max
    evo_a, evo_b = built.evo_a, built.evo_b
    cuts = np.unique(np.minimum(np.concatenate(
        [[0.0, t_max], evo_a.boundaries(), evo_b.boundaries()]), t_max))
    seg_a, seg_b = [], []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        if t1 - t0 <= 1e-12:
            continue
        total = evo_a.cartan_rates(t0)[0] + evo_b.cartan_rates(t0)[0]
        if mode == "a-only":
            ra, rb = total, np.zeros_like(total)
        else:
            ra = rb = total / 2.0
        seg_a.append(CartanLinear(ra, t1 - t0))
        seg_b.append(CartanLinear(rb, t1 - t0))
    d = built.alpha0.d_a
    return BuiltScenario(config=built.config, alpha0=built.alpha0,
                         rho0=None, evo_a=LocalEvolution(d, seg_a),
                         evo_b=LocalEvolution(d, seg_b), grid=built.grid,
                         cyclic_eps=built.cyclic_eps, oracle_tol=built.oracle_tol)


# ---------------------------------------------------------------------------
# Trace records
# ---------------------------------------------------------------------------


def write_atomic(path: str, text: str) -> None:
    """Write text through a temporary file, so readers never see a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# json's spelling of the non-finite floats
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_column(values) -> str:
    """A float list as json.dumps(..., indent=1) writes it two levels deep."""
    col = np.asarray(values, dtype=float)
    if not col.size:
        return "[]"
    items = list(map(float.__repr__, col.tolist()))
    if not np.isfinite(col).all():
        items = [_JSON_NONFINITE.get(v, v) for v in items]
    return "[\n   " + ",\n   ".join(items) + "\n  ]"


@dataclass
class TraceRecord:
    """Serializable run result: columns, diagnostics, cycles."""

    name: str
    columns: dict
    diagnostics: dict
    cycles: tuple
    continuum: bool

    def to_csv(self) -> str:
        # every row in one %-operation: '%.17g' % x == format(x, '.17g')
        data = np.column_stack([np.asarray(self.columns[c], dtype=float) for c in COLUMNS])
        row = ",".join(["%.17g"] * len(COLUMNS)) + "\n"
        body = (row * len(data)) % tuple(data.ravel().tolist())
        footer = [f"# diagnostic {key} = {_fmt(val)}"
                  for key, val in self.diagnostics.items()]
        for ev in self.cycles:
            footer.append(f"# cycle t = {_fmt(ev.t_cycle)} phase = {_fmt(ev.phase)} "
                          f"overlap = {_fmt(ev.overlap_mag)} "
                          f"n_a = {'none' if ev.n_a is None else ev.n_a} "
                          f"n_b = {'none' if ev.n_b is None else ev.n_b}")
        footer.append(f"# continuum = {'true' if self.continuum else 'false'}")
        return ",".join(COLUMNS) + "\n" + body + "\n".join(footer) + "\n"

    @classmethod
    def from_csv(cls, text: str, name: str = "trace") -> "TraceRecord":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split(",")
        if tuple(header) != COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        rows, diagnostics, cycles, continuum = [], {}, [], False
        for ln in lines[1:]:
            if ln.startswith("#"):
                body = ln[1:].strip()
                if body.startswith("diagnostic "):
                    key, _, val = body[len("diagnostic "):].partition(" = ")
                    diagnostics[key.strip()] = float(val)
                elif body.startswith("cycle "):
                    m = re.match(r"cycle t = (\S+) phase = (\S+) overlap = (\S+) "
                                 r"n_a = (\S+) n_b = (\S+)", body)
                    if not m:
                        raise ValueError(f"bad cycle line: {ln}")
                    n_a = None if m.group(4) == "none" else int(m.group(4))
                    n_b = None if m.group(5) == "none" else int(m.group(5))
                    cycles.append(CyclicEvent(t_cycle=float(m.group(1)),
                                              phase=float(m.group(2)),
                                              overlap_mag=float(m.group(3)),
                                              n_a=n_a, n_b=n_b))
                elif body.startswith("continuum"):
                    continuum = body.endswith("true")
                continue
            rows.append([float(v) for v in ln.split(",")])
        data = np.array(rows)
        columns = {c: data[:, i] for i, c in enumerate(COLUMNS)}
        return cls(name=name, columns=columns, diagnostics=diagnostics,
                   cycles=tuple(cycles), continuum=continuum)

    def to_json(self) -> str:
        # the same text as json.dumps(payload, indent=1) with the columns in
        # the payload; only the columns are written without the encoder
        rest = json.dumps({
            "diagnostics": {k: float(v) for k, v in self.diagnostics.items()},
            "cycles": [{"t": ev.t_cycle, "phase": ev.phase,
                        "overlap": ev.overlap_mag, "n_a": ev.n_a, "n_b": ev.n_b}
                       for ev in self.cycles],
            "continuum": self.continuum,
        }, indent=1)
        columns = ",\n".join(f"  {json.dumps(c)}: {_json_column(self.columns[c])}"
                             for c in COLUMNS)
        return ('{\n "name": ' + json.dumps(self.name) + ',\n "columns": {\n'
                + columns + "\n },\n" + rest[2:])

    @classmethod
    def from_json(cls, text: str) -> "TraceRecord":
        payload = json.loads(text)
        columns = {c: np.array(payload["columns"][c]) for c in COLUMNS}
        cycles = tuple(CyclicEvent(t_cycle=e["t"], phase=e["phase"],
                                   overlap_mag=e["overlap"],
                                   n_a=e["n_a"], n_b=e["n_b"])
                       for e in payload["cycles"])
        return cls(name=payload["name"], columns=columns,
                   diagnostics=payload["diagnostics"], cycles=cycles,
                   continuum=payload["continuum"])

    def write(self, path: str, fmt: str = "csv") -> None:
        write_atomic(path, self.to_csv() if fmt == "csv" else self.to_json())


@dataclass
class RunOutput:
    record: TraceRecord
    trace: PhaseTrace
    scan: CycleScan
    built: BuiltScenario


def run_scenario(config: ScenarioConfig, split: str | None = None,
                 steps: int | None = None) -> RunOutput:
    built = config.build(steps=steps)
    if split is not None:
        built = apply_split(built, split)
    diagnostics = {}
    pair = built.pair
    trace = run_trace(built.alpha0, pair)
    scan = detect_cycles(trace, pair, eps=built.cyclic_eps)
    if built.rho0 is None:
        rep = entanglement_report(built.alpha0)
        diagnostics["concurrence"] = rep.concurrence
        diagnostics["c_max"] = rep.c_max
        for p, value in enumerate(rep.traces, start=1):
            diagnostics[f"trace_q{2 * p}"] = value
        diagnostics["det_q"] = rep.det_q_abs
        diagnostics["q_a"] = rep.q_a
        diagnostics["q_b"] = rep.q_b
    else:
        diagnostics["purity_q"] = built.rho0.q
        diagnostics["purity_tr_rho2"] = built.rho0.purity
    diagnostics["unitarity_residual_max"] = trace.unitarity_residual
    diagnostics["determinant_residual_max"] = trace.determinant_residual
    columns = {
        "t": trace.t,
        "overlap_re": trace.overlap.real,
        "overlap_im": trace.overlap.imag,
        "overlap_abs": trace.overlap_mag,
        "total_phase": trace.total_phase,
        "dynamical_phase": trace.dynamical_phase,
        "geometric_phase": trace.geometric_phase,
    }
    record = TraceRecord(name=config.name, columns=columns, diagnostics=diagnostics,
                         cycles=scan.events, continuum=scan.continuum)
    return RunOutput(record=record, trace=trace, scan=scan, built=built)


# ---------------------------------------------------------------------------
# Oracle verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    name: str
    oracle: str
    max_total_dev: float
    max_geometric_dev: float
    max_dynamical_dev: float
    unitarity_residual: float
    determinant_residual: float
    cycles: tuple
    continuum: bool
    tolerance: float

    @property
    def ok(self) -> bool:
        return max(self.max_total_dev, self.max_geometric_dev,
                   self.max_dynamical_dev) <= self.tolerance

    def lines(self) -> list:
        out = [f"scenario {self.name}: oracle = {self.oracle}",
               f"  max |engine - closed_form| total      = {self.max_total_dev:.3e}",
               f"  max |engine - closed_form| dynamical  = {self.max_dynamical_dev:.3e}",
               f"  max |engine - closed_form| geometric  = {self.max_geometric_dev:.3e}",
               f"  unitarity residual                    = {self.unitarity_residual:.3e}",
               f"  determinant residual                  = {self.determinant_residual:.3e}",
               f"  tolerance                             = {self.tolerance:.3e}"]
        if self.continuum:
            out.append("  cycles: continuum (|overlap| = 1 at every sample)")
        else:
            for ev in self.cycles:
                na = "-" if ev.n_a is None else ev.n_a
                nb = "-" if ev.n_b is None else ev.n_b
                out.append(f"  cycle at t = {ev.t_cycle:.9g}: phase = {ev.phase:.9g}"
                           f" (n_a = {na}, n_b = {nb})")
        out.append(f"  result: {'ok' if self.ok else 'TOLERANCE EXCEEDED'}")
        return out


def _oracle_series(built: BuiltScenario) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """(label, total, dynamical, geometric) closed-form series on the grid.

    On all-diagonal paths every state's overlap is one phasor sum over alpha's
    support: weights |alpha_ij|^2 on the levels chi_A,i + chi_B,j. It covers
    a Schmidt-diagonal alpha (equal dimensions, or the embedded qubit-qutrit
    state with a real diagonal) and the full-support qubit-qutrit state, whose
    label names the dual formula the sum equals.
    """
    times = built.grid.times()
    alpha = built.alpha0.alpha
    d_a, d_b = built.alpha0.d_a, built.alpha0.d_b
    if not (built.evo_a.is_diagonal and built.evo_b.is_diagonal):
        raise NoOracleError("no closed form: oracle verification covers "
                            "all-diagonal evolutions only")
    schmidt = np.abs(alpha * (1 - np.eye(d_a, d_b))).max() <= 1e-12
    if (d_a, d_b) == (2, 3) and np.abs(alpha - qubit_qutrit_full().alpha).max() <= 1e-9:
        label = "qubit_qutrit_dual"
    elif schmidt and d_a == d_b:
        # a single qudit's purification sqrt(rho) is diagonal with rho
        label = "two_qudit_diagonal" if built.rho0 is None else "single_qudit_diagonal"
    elif schmidt and (d_a, d_b) == (2, 3) and np.abs(np.diagonal(alpha).imag).max() < 1e-12:
        label = "qubit_qutrit_effective"
    else:
        raise NoOracleError("no closed form covers this scenario")
    i, j = np.nonzero(alpha)
    total, dyn = cf.diagonal_total_phase_series(
        np.abs(alpha[i, j]) ** 2,
        built.evo_a.cartan_levels(times)[:, i] + built.evo_b.cartan_levels(times)[:, j])
    return label, total, dyn, total - dyn


def verify_scenario(config: ScenarioConfig, tolerance: float | None = None,
                    split: str | None = None, steps: int | None = None) -> VerifyReport:
    """Run a scenario and report its largest deviations from the closed form.

    The closed form is evaluated at the float times of the trace's ``t``
    column, while the engine takes its phasors at the ideal times i dt, so
    each deviation includes the closed form's own time rounding (1.035e-11 on
    the total phase of fig4d, 7.1e-14 on fig2a).
    """
    out = run_scenario(config, split=split, steps=steps)
    built = out.built
    tol = _number(tolerance, "tolerance") if tolerance is not None else built.oracle_tol
    label, total, dyn, geo = _oracle_series(built)
    trace = out.trace
    dev_tot = float(np.abs(trace.total_phase - total).max())
    dev_dyn = float(np.abs(trace.dynamical_phase - dyn).max())
    dev_geo = float(np.abs(trace.geometric_phase - geo).max())
    return VerifyReport(
        name=config.name, oracle=label, max_total_dev=dev_tot,
        max_geometric_dev=dev_geo, max_dynamical_dev=dev_dyn,
        unitarity_residual=out.record.diagnostics["unitarity_residual_max"],
        determinant_residual=out.record.diagnostics["determinant_residual_max"],
        cycles=out.scan.events, continuum=out.scan.continuum, tolerance=tol)


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi


def _qutrit_pair_config(name: str, q: float, rates, t_max: float,
                        steps: int) -> ScenarioConfig:
    return ScenarioConfig(
        name=name, dims=(3, 3),
        initial_state={"preset": "two_qutrit_schmidt", "q": q, "theta": 0.0},
        evolution={"a": [{"kind": "cartan_linear", "rates": list(rates),
                          "duration": t_max}],
                   "b": [{"kind": "cartan_hold", "duration": t_max}]},
        t_max=t_max, steps=steps)


def _stepped_qutrit_config(name: str, q: float) -> ScenarioConfig:
    dur = _TWO_PI / 3.0
    branches = []
    for k in range(6):
        rates = [-1.0, 1.0, 0.0] if k % 2 == 0 else [-1.0, 0.0, 1.0]
        branches.append({"kind": "cartan_linear", "rates": rates, "duration": dur})
    return ScenarioConfig(
        name=name, dims=(3, 3),
        initial_state={"preset": "two_qutrit_schmidt", "q": q, "theta": 0.0},
        evolution={"a": branches,
                   "b": [{"kind": "cartan_hold", "duration": 4.0 * math.pi}]},
        t_max=4.0 * math.pi, steps=4002)


def _marginal_qutrit_config(name: str, q: float) -> ScenarioConfig:
    return ScenarioConfig(
        name=name, dims=(3, 3),
        initial_state={"preset": "two_qutrit_equal_marginals", "q": q},
        evolution={"a": [{"kind": "cartan_linear", "rates": [1.0, 1.0, -2.0],
                          "duration": _TWO_PI}],
                   "b": [{"kind": "cartan_linear", "rates": [2.0, 2.0, -4.0],
                          "duration": _TWO_PI}]},
        t_max=_TWO_PI, steps=4014)


def _qubit_qutrit_config(name: str, rate_a: float, t_max: float,
                         steps: int) -> ScenarioConfig:
    return ScenarioConfig(
        name=name, dims=(2, 3),
        initial_state={"preset": "qubit_qutrit_full"},
        evolution={"a": [{"kind": "cartan_linear", "rates": [rate_a, -rate_a],
                          "duration": t_max}],
                   "b": [{"kind": "cartan_linear", "rates": [1.0, 1.0, -2.0],
                          "duration": t_max}]},
        t_max=t_max, steps=steps)


def _preset_table() -> dict:
    table = {}
    for label, q in zip("abcd", (0.0, 0.2, 0.6, 1.0)):
        table[f"fig1{label}"] = lambda q=q, label=label: _qutrit_pair_config(
            f"fig1{label}", q, (1.0, 1.0, -2.0), _TWO_PI, 4002)
        table[f"fig2{label}"] = lambda q=q, label=label: _stepped_qutrit_config(
            f"fig2{label}", q)
    table["fig3"] = lambda: _qutrit_pair_config("fig3", 0.0, (1.0, 30.0, -31.0),
                                                _TWO_PI, 4000)
    for label, rate, t_max, steps in (("a", 1.5, 4.0 * math.pi, 4002),
                                      ("b", 3.0, _TWO_PI, 4002),
                                      ("c", 3.5, 4.0 * math.pi, 4000),
                                      ("d", 100.0, _TWO_PI, 40000)):
        table[f"fig4{label}"] = lambda rate=rate, t_max=t_max, steps=steps, label=label: \
            _qubit_qutrit_config(f"fig4{label}", rate, t_max, steps)
    for label, q in zip("abcd", (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0)):
        table[f"fig6{label}"] = lambda q=q, label=label: _marginal_qutrit_config(
            f"fig6{label}", q)
    table["frac22"] = lambda: ScenarioConfig(
        name="frac22", dims=(2, 2),
        initial_state={"preset": "two_qubit_schmidt", "q": 0.0},
        evolution={"a": [{"kind": "cartan_linear", "rates": [1.0, -1.0],
                          "duration": _TWO_PI}],
                   "b": [{"kind": "cartan_hold", "duration": _TWO_PI}]},
        t_max=_TWO_PI, steps=4000)
    table["frac33"] = lambda: _qutrit_pair_config("frac33", 0.0, (1.0, 1.0, -2.0),
                                                  _TWO_PI, 4002)
    table["frac44"] = lambda: ScenarioConfig(
        name="frac44", dims=(4, 4),
        initial_state={"preset": "max_entangled"},
        evolution={"a": [{"kind": "cartan_linear", "rates": [1.0, 1.0, 1.0, -3.0],
                          "duration": _TWO_PI}],
                   "b": [{"kind": "cartan_hold", "duration": _TWO_PI}]},
        t_max=_TWO_PI, steps=4000)
    table["frac34"] = lambda: ScenarioConfig(
        name="frac34", dims=(3, 4),
        initial_state={"preset": "max_entangled"},
        evolution={"a": [{"kind": "cartan_linear", "rates": [1.0, 1.0, -2.0],
                          "duration": _TWO_PI}],
                   "b": [{"kind": "cartan_linear", "rates": [1.0, 1.0, 1.0, -3.0],
                          "duration": _TWO_PI}]},
        t_max=_TWO_PI, steps=4002)
    return table


def available_presets() -> list:
    return sorted(_preset_table())


def figure_preset(name: str) -> ScenarioConfig:
    """Fully populated scenario for one of the shipped figure presets."""
    table = _preset_table()
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(sorted(table))}")
    return table[name]()
