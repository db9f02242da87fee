#!/usr/bin/env python3
"""Benchmark of the quditphase engine, run from the repository root.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 35 --trace 0

Workloads: ``presets``, ``long_grid``, ``batch`` (``all`` runs each in turn).
With ``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it wraps the package's entry points from outside and reports per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # One BLAS thread, set before numpy loads (the set-up interpreters inherit
    # it): the engine's matrices are at most 8x8, and a second OpenBLAS thread
    # only spins, which on a shared host ties each call to the slower of two vCPUs.
    for _name in BLAS_ENV:
        os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ".bench_run"
SETUP_REPEATS = 9
SETUP_CODE = ("import quditphase.cli as cli\n"
              "cli.build_parser()\n"
              "print('ready', flush=True)\n")
TAIL_LADDER = (90.0, 99.0, 99.9)
TAIL_BEYOND = 10

E2E_UNITS = {
    "samples_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_us_per_sample": "us",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}
LAYER_UNITS = {
    "paths.sample_calls": "count", "paths.sample_ms": "ms", "paths.sample_rows": "count",
    "paths.stack_mb": "MiB", "paths.diag_sample_calls": "count",
    "paths.diag_sample_ms": "ms", "paths.coset_factor_calls": "count",
    "paths.coset_factor_ms": "ms", "phases.run_trace_self_ms": "ms",
    "phases.single_trace_self_ms": "ms", "phases.simpson_ms": "ms",
    "phases.unwrap_ms": "ms", "phases.cycles_ms": "ms", "phases.cycle_events": "count",
    "scenarios.run_self_ms": "ms", "scenarios.to_csv_ms": "ms",
    "scenarios.to_json_ms": "ms", "scenarios.write_ms": "ms", "scenarios.out_mb": "MiB",
    "scenarios.parse_ms": "ms", "scenarios.build_ms": "ms",
    "cli.batch_cpu_per_wall": "ratio", "cli.op_self_ms": "ms",
    "closed_form.oracle_ms": "ms", "closed_form.max_dev": "rad",
    "states.report_ms": "ms", "trace.overhead_ratio": "ratio",
}


# -- measurement helpers -----------------------------------------------------------


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def tail(values) -> tuple:
    """(value, percentile, samples beyond) at the highest ladder percentile
    with at least ten samples beyond it. With under 100 samples none has, and
    the p90 is reported with the count beyond it."""
    n = len(values)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            best = p
    value = float(np.percentile(values, best))
    return value, best, sum(v > value for v in values)


def measure_setup(root: str, repeats: int) -> list:
    """Seconds from starting a fresh interpreter to a built CLI parser."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up interpreter failed with exit code {code}")
        times.append(t1 - t0)
    return times


def _git_sha(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _l3_size() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                return fh.read().strip()
    except OSError:
        pass
    return None


def _steal_s() -> float | None:
    """Seconds the hypervisor ran something else on this machine's CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run_metadata(root: str, args) -> dict:
    return {
        "git_sha": _git_sha(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "l3_cache": _l3_size(),
        "machine": platform.machine(),
    }


# -- passes ------------------------------------------------------------------------


class Pass:
    """Timings and outcomes of one pass over a workload's ops."""

    def __init__(self):
        self.latencies = []
        self.cpus = []
        self.samples = 0
        self.failures = []
        self.trace_spans = None

    @property
    def op_time(self) -> float:
        return sum(self.latencies)

    @property
    def cpu(self) -> float:
        return sum(self.cpus)


def run_pass(ops, label: str, tracer=None) -> Pass:
    result = Pass()
    for i, op in enumerate(ops):
        if op.reset is not None:
            op.reset()
        if tracer is not None:
            tracer.op = f"{label}:{i}:{op.name}"
        gc.collect()  # earlier ops' garbage is not this op's cost
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # a failed op is counted, never retried
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        result.cpus.append(_cpu() - c0)
        result.latencies.append(t1 - t0)
        result.samples += op.samples
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a crashing check is a failed op too
                err = f"check raised {type(exc).__name__}: {exc}"
        del out
        if err is not None:
            result.failures.append(f"{op.name}: {err}")
    return result


def run_for(ops, seconds: float, label: str, tracer=None, started=None, done=0) -> list:
    """Whole passes until ``seconds`` have elapsed since ``started``, at least
    one. A pass starts only if it should end within half a pass of the limit;
    ``done`` counts passes already run since ``started``."""
    started = time.perf_counter() if started is None else started
    passes = []
    while True:
        passes.append(run_pass(ops, f"{label}{len(passes)}", tracer))
        if tracer is not None:
            passes[-1].trace_spans = tracer.take()
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / (done + len(passes)) >= seconds:
            return passes


def end_to_end(passes, setup_times, attempted: int, failed: int) -> tuple:
    latencies = [x for p in passes for x in p.latencies]
    tail_ms, pct, beyond = tail([x * 1e3 for x in latencies])
    timed = len(latencies)
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # A typical pass: each op's median latency and CPU time over the passes.
    typical_s = sum(statistics.median(ts) for ts in zip(*(p.latencies for p in passes)))
    typical_cpu = sum(statistics.median(cs) for cs in zip(*(p.cpus for p in passes)))
    metrics = {
        "samples_per_s": passes[0].samples / typical_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_ms,
        "cpu_us_per_sample": typical_cpu / passes[0].samples * 1e6,
        "peak_rss_mb": rss_kib / 1024.0,
        "setup_s": statistics.median(setup_times),
        "ok_ratio": 1.0 - failed / attempted,
    }
    notes = {
        "op_tail_ms": f"p{pct:g} of {timed} timed ops, {beyond} beyond",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "ok_ratio": f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops failed)",
    }
    return metrics, notes


def per_layer(passes, baseline, tracer) -> tuple:
    rows = [spans.layer_metrics(p.trace_spans) for p in passes]
    metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    metrics["cli.batch_cpu_per_wall"] = statistics.median(p.cpu / p.op_time for p in passes)
    metrics["trace.overhead_ratio"] = (statistics.median(p.op_time for p in passes)
                                       / baseline.op_time)
    for key, needs in spans.REQUIRES.items():
        if needs in tracer.absent:
            del metrics[key]
    notes = {"trace.overhead_ratio": f"traced pass op time over one untraced pass, "
                                     f"{len(passes)} traced passes"}
    return {k: metrics[k] for k in LAYER_UNITS if k in metrics}, notes


# -- entry points --------------------------------------------------------------------


def _format(name, value, unit, note=None) -> str:
    line = f"  {name:<28} = {value:.6g} {unit}"
    return line + (f"  ({note})" if note else "")


def run_workload(args, root: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    import quditphase.cli  # noqa: F401  (loads the package and its CLI module)
    import quditphase as qp

    meta = run_metadata(root, args)
    setup_times = []
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stderr(sink):
            wl = WORKLOADS[args.workload](qp, args.seed, workdir, args.smoke)
            warm = run_pass(wl.ops, "warm")  # untimed, but its outputs are checked
            if args.trace == 0:
                setup_times = measure_setup(root, 3 if args.smoke else SETUP_REPEATS)
            steal0 = _steal_s()
            started = time.perf_counter()
            if args.trace == 0:
                passes = run_for(wl.ops, args.seconds, "pass")
                every = passes
            else:
                baseline = run_pass(wl.ops, "untraced")
                tracer = spans.Tracer()
                tracer.install()
                try:
                    passes = run_for(wl.ops, args.seconds, "traced", tracer, started, 1)
                finally:
                    tracer.uninstall()
                every = [baseline] + passes
            steal1 = _steal_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if steal0 is not None and steal1 is not None:
        meta["cpu_steal_s"] = round(steal1 - steal0, 2)

    attempted = sum(len(p.latencies) for p in [warm] + every)
    failures = [f for p in [warm] + every for f in p.failures]
    if args.trace == 0:
        metrics, notes = end_to_end(passes, setup_times, attempted, len(failures))
        units = E2E_UNITS
    else:
        metrics, notes = per_layer(passes, baseline, tracer)
        units = LAYER_UNITS

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(every)}  ops {attempted}  ops/pass {len(wl.ops)}")
    for note in wl.notes:
        print(f"  # {note}")
    for name, value in metrics.items():
        print(_format(name, value, units[name], notes.get(name)))
    if tracer is not None and tracer.absent:
        print(f"  # absent wrap points (their metrics are omitted): {tracer.absent}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  # meta {json.dumps(meta, sort_keys=True)}")

    record = {"meta": meta, "ops": wl.notes, "metrics": metrics, "notes": notes,
              "failures": failures,
              "pass_latencies_s": [p.latencies for p in every],
              "pass_cpus_s": [p.cpus for p in every],
              "setup_s_samples": setup_times}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(root, WORK_DIR, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(root, WORK_DIR, f"spans-{tag}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"meta": meta, "passes": [spans.span_rows(p.trace_spans, started)
                                                for p in passes]}, fh)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and a subset of inputs, for the self-test")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quditphase", "cli.py")):
        print("perfbench: src/quditphase not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
