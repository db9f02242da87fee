"""Outside-in span tracer for the quditphase benchmark.

The tracer wraps public functions and methods of the package at the module or
class attribute where their callers look them up (``quditphase.scenarios.
run_trace`` as well as ``quditphase.phases.run_trace``), records one span per
call in memory and derives per-layer numbers from the spans afterwards.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

A span is (id, name, start, end, parent id, op id, thread, info). Each thread
keeps its own span stack, so the pool threads of ``quditphase batch`` nest
under the running op's root span, with an op id naming the config file the
thread is working on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

MIB = float(2 ** 20)
COMPLEX_BYTES = 16


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sample_info(args, kwargs, result) -> dict:
    # U and dU/dt stacks, complex128, n x d x d each: computed, not measured.
    n, d = result[0].shape[0], result[0].shape[1]
    return {"rows": n, "stack_bytes": 2 * COMPLEX_BYTES * n * d * d}


def _cycles_info(args, kwargs, result) -> dict:
    return {"events": len(result.events)}


def _write_info(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _verify_info(args, kwargs, result) -> dict:
    return {"max_dev": max(result.max_total_dev, result.max_geometric_dev,
                           result.max_dynamical_dev)}


# (module, attribute path, span name, info hook). One row per lookup site:
# a function imported into several modules is wrapped in each of them.
WRAP_POINTS = (
    ("quditphase.cli", "main", "cli.main", None),
    ("quditphase.cli", "figure_preset", "scenarios.figure_preset", None),
    ("quditphase.cli", "run_scenario", "scenarios.run_scenario", None),
    ("quditphase.cli", "verify_scenario", "scenarios.verify_scenario", _verify_info),
    ("quditphase.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("quditphase.scenarios", "verify_scenario", "scenarios.verify_scenario",
     _verify_info),
    ("quditphase.scenarios", "ScenarioConfig.from_file", "scenarios.parse", None),
    ("quditphase.scenarios", "ScenarioConfig.build", "scenarios.build", None),
    ("quditphase.scenarios", "TraceRecord.to_csv", "scenarios.to_csv", None),
    ("quditphase.scenarios", "TraceRecord.to_json", "scenarios.to_json", None),
    ("quditphase.scenarios", "TraceRecord.write", "scenarios.write", _write_info),
    ("quditphase.scenarios", "run_trace", "phases.run_trace", None),
    ("quditphase.phases", "run_trace", "phases.run_trace", None),
    ("quditphase.scenarios", "single_qudit_trace", "phases.single_qudit_trace", None),
    ("quditphase.scenarios", "detect_cycles", "phases.detect_cycles", _cycles_info),
    ("quditphase.phases", "cumulative_simpson", "phases.simpson", None),
    ("quditphase.phases", "unwrap_phases", "phases.unwrap", None),
    ("quditphase.scenarios", "entanglement_report", "states.report", None),
    ("quditphase.paths", "LocalEvolution.sample", "paths.sample", _sample_info),
    ("quditphase.paths", "LocalEvolution.coset_factor", "paths.coset_factor", None),
)

# Per-layer metrics that only exist while their wrapped name does.
REQUIRES = {"phases.single_trace_self_ms": "quditphase.scenarios.single_qudit_trace"}


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name, raw attribute) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw


class Tracer:
    """Wraps entry points, keeps spans in memory, restores on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._root: int | None = None
        self._patches: list = []

    # -- installation ---------------------------------------------------------

    def install(self, points=WRAP_POINTS) -> None:
        for module_name, attr_path, name, info in points:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, info))
            else:
                wrapped = self._wrap(name, raw, info)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- span recording -------------------------------------------------------

    def _wrap(self, name, func, info):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, args, kwargs)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, {"error": 1})
                raise
            extra = None
            if info is not None:
                try:
                    extra = info(args, kwargs, result)
                except Exception:  # a counter must never change the program's outcome
                    extra = {"info_error": 1}
            tracer._exit(frame, extra)
            return result

        return wrapper

    def _enter(self, name, args, kwargs):
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        if stack:
            parent, op = stack[-1][0], stack[-1][3]
        elif threading.current_thread() is self._main:
            parent, op = None, self.op
            self._root = sid
        else:
            # A worker thread of the running op (the batch pool): attach to the
            # op's root span, grouped by the config file the thread last parsed.
            if name == "scenarios.parse":
                path = args[-1] if args else kwargs.get("path", "?")
                local.file = os.path.basename(str(path))
            parent, op = self._root, f"{self.op}/{getattr(local, 'file', '?')}"
        frame = (sid, name, parent, op, time.perf_counter())
        stack.append(frame)
        return frame

    def _exit(self, frame, info) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        sid, name, parent, op, start = frame
        self.spans.append(Span(sid, name, start, end, parent, op,
                               threading.get_ident(), info or {}))


# -- derived numbers -----------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def layer_metrics(spans) -> dict:
    """Per-layer numbers for one pass of spans (times in ms)."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    dur = defaultdict(float)
    selft = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        dur[s.name] += s.duration
        selft[s.name] += own[s.sid]
        calls[s.name] += 1

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    diag = [s for s in spans if s.name == "paths.sample" and s.parent in by_id
            and by_id[s.parent].name == "scenarios.run_scenario"]
    oracle = 0.0
    for s in spans:
        if s.name == "scenarios.verify_scenario":
            inner = sum(c.duration for c in spans
                        if c.parent == s.sid and c.name == "scenarios.run_scenario")
            oracle += s.duration - inner
    max_dev = max((s.info.get("max_dev", 0.0) for s in spans
                   if s.name == "scenarios.verify_scenario"), default=0.0)
    ms = 1e3
    return {
        "paths.sample_calls": calls["paths.sample"],
        "paths.sample_ms": dur["paths.sample"] * ms,
        "paths.sample_rows": info_sum("paths.sample", "rows"),
        "paths.stack_mb": info_sum("paths.sample", "stack_bytes") / MIB,
        "paths.diag_sample_calls": len(diag),
        "paths.diag_sample_ms": sum(s.duration for s in diag) * ms,
        "paths.coset_factor_calls": calls["paths.coset_factor"],
        "paths.coset_factor_ms": dur["paths.coset_factor"] * ms,
        "phases.run_trace_self_ms": selft["phases.run_trace"] * ms,
        "phases.single_trace_self_ms": selft["phases.single_qudit_trace"] * ms,
        "phases.simpson_ms": dur["phases.simpson"] * ms,
        "phases.unwrap_ms": dur["phases.unwrap"] * ms,
        "phases.cycles_ms": dur["phases.detect_cycles"] * ms,
        "phases.cycle_events": info_sum("phases.detect_cycles", "events"),
        "scenarios.run_self_ms": selft["scenarios.run_scenario"] * ms,
        "scenarios.to_csv_ms": dur["scenarios.to_csv"] * ms,
        "scenarios.to_json_ms": dur["scenarios.to_json"] * ms,
        "scenarios.write_ms": selft["scenarios.write"] * ms,
        "scenarios.out_mb": info_sum("scenarios.write", "bytes") / MIB,
        "scenarios.parse_ms": dur["scenarios.parse"] * ms,
        "scenarios.build_ms": dur["scenarios.build"] * ms,
        "cli.op_self_ms": selft["cli.main"] * ms,
        "closed_form.oracle_ms": oracle * ms,
        "closed_form.max_dev": max_dev,
        "states.report_ms": dur["states.report"] * ms,
    }


def span_rows(spans, t0: float) -> list:
    """Spans as JSON-ready dicts, times in seconds from ``t0``."""
    return [{"id": s.sid, "name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, "op": s.op, "thread": s.thread, **s.info}
            for s in spans]
