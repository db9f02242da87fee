#!/usr/bin/env python3
"""Time a path of many short segments, the case where per-run overhead dominates.

Usage:
    python scripts/many_segments.py [--segments 3000] [--repeats 5]

A maximally entangled qutrit pair: path A alternates Cartan ramps with rates
(1, 1, -2) and holds, each segment 2 grid steps long (dt = 1e-3); path B is
one ramp with rates (2, -1, -1). The 3000-segment default has 6001 grid
samples. After one untimed warm-up, ``run_trace`` runs ``--repeats`` times
with a garbage collection before each, and the median wall time is printed
in ms.
"""

import argparse
import gc
import statistics
import time

import numpy as np

from quditphase import (CartanHold, CartanLinear, LocalEvolution, PairEvolution, TimeGrid,
                        max_entangled, run_trace)

DT = 1e-3
STEPS_PER_SEGMENT = 2


def many_segment_pair(segments: int):
    """(state, pair) of the many-segment case with ``segments`` segments on A."""
    duration = STEPS_PER_SEGMENT * DT
    ramp = np.array([1.0, 1.0, -2.0])
    a = LocalEvolution(3, [CartanLinear(ramp, duration) if i % 2 == 0 else CartanHold(duration)
                           for i in range(segments)])
    steps = STEPS_PER_SEGMENT * segments
    b = LocalEvolution(3, [CartanLinear(np.array([2.0, -1.0, -1.0]), a.duration)])
    return max_entangled(3, 3), PairEvolution(a, b, TimeGrid(a.duration, steps))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--segments", type=int, default=3000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    state, pair = many_segment_pair(args.segments)
    run_trace(state, pair)
    times = []
    for _ in range(args.repeats):
        gc.collect()
        start = time.perf_counter()
        run_trace(state, pair)
        times.append(1e3 * (time.perf_counter() - start))
    print(f"{args.segments} segments, {pair.grid.steps + 1} samples: "
          f"median {statistics.median(times):.1f} ms over {args.repeats} runs")


if __name__ == "__main__":
    main()
