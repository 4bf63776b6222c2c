"""Engine hot-path microbenchmark: dispatched events per second.

Runs the repository's engine kernel,
:func:`repro.obs.baseline.engine_events_per_sec` (24 CPU-bound threads
on 4 simulated processors mixing charge/spend, zero-charge spends,
lock cycles and quantum checks) — the same kernel ``cli perf-diff``
records as ``wall.engine_events_per_sec`` — and prints the
best-of-``--repeats`` rate as JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py --repeats 3
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

if __name__ == "__main__":  # runnable without an installed package
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.obs.baseline import engine_events_per_sec  # noqa: E402

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator events/sec microbenchmark")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--iterations", type=int, default=2_000,
                        help="kernel loop iterations per thread")
    args = parser.parse_args(argv)
    rate = engine_events_per_sec(repeats=args.repeats,
                                 iterations=args.iterations)
    print(json.dumps({"events_per_sec": rate}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
