"""Command-line front end: run, figure, lattice, verify, batch.

Exit codes: 0 success, 1 verification tolerance exceeded, 2 configuration
error, 3 numerical guard failure (grid too coarse), 4 no closed form covers
the scenario.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import logging
import math
import os
import sys
from fractions import Fraction

from .phases import GridTooCoarseError, fractional_lattice
from .scenarios import (ConfigError, NoOracleError, ScenarioConfig,
                        available_presets, figure_preset, run_scenario,
                        verify_scenario, write_atomic)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_NO_ORACLE = 4


def _load_config(spec: str) -> ScenarioConfig:
    if os.path.exists(spec):
        return ScenarioConfig.from_file(spec)
    if spec in available_presets():
        return figure_preset(spec)
    raise ConfigError(f"{spec!r} is neither a config file nor a preset; "
                      f"presets: {', '.join(available_presets())}")


def _pi_fraction(value: float) -> str:
    frac = Fraction(value / math.pi).limit_denominator(720)
    if frac == 0:
        return "0"
    num, den = frac.numerator, frac.denominator
    head = "" if num == 1 else ("-" if num == -1 else str(num))
    return f"{head}pi" + ("" if den == 1 else f"/{den}")


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.tolerance is not None:
        config.tolerances["cyclic_eps"] = args.tolerance
    out = run_scenario(config, split=args.split, steps=args.steps)
    if args.output:
        out.record.write(args.output, fmt=args.format)
        print(f"wrote {args.output} ({len(out.record.columns['t'])} rows)")
    else:
        sys.stdout.write(out.record.to_csv() if args.format == "csv"
                         else out.record.to_json())
    return EXIT_OK


def _cmd_figure(args) -> int:
    config = figure_preset(args.name)
    text = config.to_yaml()
    if args.output:
        write_atomic(args.output, text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    lat = fractional_lattice(args.d_a, args.d_b)
    rational = ", ".join(_pi_fraction(v) for v in lat.values)
    radians = ", ".join(f"{v:.12g}" for v in lat.values)
    print(f"fractional total phases for dimensions ({lat.d_a}, {lat.d_b}):")
    print(f"  multiples of pi: {rational}")
    print(f"  radians:         {radians}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    report = verify_scenario(config, tolerance=args.tolerance, split=args.split,
                             steps=args.steps)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_TOLERANCE


def _cmd_batch(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be a positive integer, got {args.jobs}")
    paths = sorted(
        os.path.join(args.directory, f) for f in os.listdir(args.directory)
        if f.endswith((".yaml", ".yml")))
    if not paths:
        raise ConfigError(f"no .yaml configs found in {args.directory}")
    os.makedirs(args.output, exist_ok=True)
    ext = "csv" if args.format == "csv" else "json"

    def one(path: str) -> str:
        try:
            config = ScenarioConfig.from_file(path)
            out = run_scenario(config, split=args.split, steps=args.steps)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        base = os.path.splitext(os.path.basename(path))[0]
        dest = os.path.join(args.output, f"{base}.{ext}")
        out.record.write(dest, fmt=args.format)
        return dest

    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for dest in pool.map(one, paths):
            print(f"wrote {dest}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditphase",
        description="Geometric and fractional topological phases of qudit pairs "
                    "under local unitary evolutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config or preset")
    run_p.add_argument("config", help="path to a YAML scenario or a preset name")
    run_p.add_argument("--output", default=None, help="output file (default stdout)")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--steps", type=int, default=None, help="override grid steps")
    run_p.add_argument("--tolerance", type=float, default=None,
                       help="cyclic detection epsilon")
    run_p.add_argument("--split", choices=("half", "a-only"), default=None,
                       help="reassign diagonal totals between the qudits")
    run_p.set_defaults(func=_cmd_run)

    fig_p = sub.add_parser("figure", help="emit a preset scenario config")
    fig_p.add_argument("name", help=f"one of: {', '.join(available_presets())}")
    fig_p.add_argument("--output", default=None, help="output file (default stdout)")
    fig_p.set_defaults(func=_cmd_figure)

    lat_p = sub.add_parser("lattice", help="print the fractional phase set")
    lat_p.add_argument("d_a", type=int)
    lat_p.add_argument("d_b", type=int)
    lat_p.set_defaults(func=_cmd_lattice)

    ver_p = sub.add_parser("verify", help="compare a scenario against its closed form")
    ver_p.add_argument("config", help="path to a YAML scenario or a preset name")
    ver_p.add_argument("--tolerance", type=float, default=None,
                       help="maximum allowed deviation (default 1e-6)")
    ver_p.add_argument("--steps", type=int, default=None)
    ver_p.add_argument("--split", choices=("half", "a-only"), default=None)
    ver_p.set_defaults(func=_cmd_verify)

    bat_p = sub.add_parser("batch", help="run every config in a directory")
    bat_p.add_argument("directory")
    bat_p.add_argument("--output", default="out")
    bat_p.add_argument("--format", choices=("csv", "json"), default="csv")
    bat_p.add_argument("--steps", type=int, default=None)
    bat_p.add_argument("--split", choices=("half", "a-only"), default=None)
    bat_p.add_argument("--jobs", type=int, default=4)
    bat_p.set_defaults(func=_cmd_batch)
    return parser


_shared_parser = functools.cache(build_parser)   # parse_args leaves it unchanged


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s",
                        stream=sys.stderr)
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GridTooCoarseError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except NoOracleError as exc:
        print(f"no oracle: {exc}", file=sys.stderr)
        return EXIT_NO_ORACLE


if __name__ == "__main__":
    sys.exit(main())
