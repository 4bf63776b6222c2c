"""Parallel-engine acceptance benchmark: serial vs pool wall-clock.

Runs the Figure 6 grid (five systems x three workloads x the Altix
processor steps) twice — once serially, once fanned out over the
process pool — verifies the two produce **byte-identical** result
records, and writes ``BENCH_parallel.json`` with the wall-clock
speedup plus the engine events/sec kernel
(:func:`repro.obs.baseline.engine_events_per_sec`) and a native-runtime stress
(real OS threads, wall-clock accesses/sec — see ``measure_native``).

Usage (the ``make bench-quick`` target)::

    REPRO_BENCH_SCALE=0.1 PYTHONPATH=src \
        python benchmarks/bench_parallel.py --workers auto

Speedup scales with the host: on a 4-core host the grid's independent
runs should land at >= 2x. On a single-core host (or a single-worker
pool) no speedup is physically possible, so ``speedup`` is recorded
as ``null`` with a ``speedup_note`` explaining why — a ~1x "speedup"
there is pool-overhead noise, not a measurement. ``host_cpus`` is
recorded so a reader can tell which regime produced the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

if __name__ == "__main__":  # runnable without an installed package
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.hardware.machines import ALTIX_350  # noqa: E402
from repro.harness.parallel import (clear_workload_cache,  # noqa: E402
                                    resolve_workers)
from repro.harness.sweeps import (PAPER_SYSTEMS, PAPER_WORKLOADS,  # noqa: E402
                                  bench_scale, run_matrix)
from repro.obs.baseline import engine_events_per_sec  # noqa: E402

__all__ = ["measure_native", "measure_parallel", "main"]


def measure_native(target_accesses=None, seed=42) -> dict:
    """Wall-clock accesses/sec of a multi-threaded native-runtime run.

    A genuine-``threading`` pgBat stress (8 backends on 4 simulated
    processors' worth of configuration): the number tracks the real
    cost of the batched path — queue recording, TryLock commits,
    header-lock pin/unpin — on the host, so a trajectory of it catches
    regressions the simulator's virtual clock cannot see.
    """
    from repro.harness.experiment import ExperimentConfig, run_experiment
    accesses = (target_accesses if target_accesses is not None
                else max(4000, int(40_000 * bench_scale())))
    config = ExperimentConfig(
        system="pgBat", workload="tablescan", machine=ALTIX_350,
        n_processors=4, n_threads=8, target_accesses=accesses,
        seed=seed, runtime="native")
    started = time.perf_counter()
    result = run_experiment(config)
    wall = time.perf_counter() - started
    return {
        "system": config.system,
        "threads": config.resolved_threads(),
        "accesses": result.total_accesses,
        "wall_s": round(wall, 3),
        "events_per_sec": round(result.total_accesses / wall) if wall else 0,
    }


def _timed_grid(max_workers, target_accesses, seed):
    """One full Fig. 6 grid; returns (records, wall_seconds)."""
    clear_workload_cache()  # charge each mode its own workload builds
    started = time.perf_counter()
    results = run_matrix(PAPER_SYSTEMS, PAPER_WORKLOADS, machine=ALTIX_350,
                         target_accesses=target_accesses, seed=seed,
                         max_workers=max_workers)
    wall = time.perf_counter() - started
    return [r.to_dict() for r in results], wall


def measure_parallel(workers="auto", target_accesses=None,
                     seed=42) -> dict:
    """Serial vs parallel Fig. 6 grid + the engine microbenchmark."""
    resolved = resolve_workers(workers)
    host_cpus = os.cpu_count() or 1
    serial_records, serial_s = _timed_grid(1, target_accesses, seed)
    parallel_records, parallel_s = _timed_grid(resolved, target_accesses,
                                               seed)
    identical = serial_records == parallel_records
    record = {
        "host_cpus": host_cpus,
        "bench_scale": bench_scale(),
        "grid_runs": len(serial_records),
        "workers": resolved,
        "serial_s": round(serial_s, 2),
        "parallel_s": round(parallel_s, 2),
        "identical_output": identical,
        "engine": {"events_per_sec": engine_events_per_sec()},
        "native": measure_native(seed=seed),
    }
    if host_cpus == 1 or resolved == 1:
        # A ratio of two serial timings is pool-overhead noise, not a
        # speedup; recording one would poison the trajectory the first
        # time the benchmark lands on a bigger (or smaller) box.
        record["speedup"] = None
        record["speedup_note"] = ("single-core host" if host_cpus == 1
                                  else "single-worker pool")
    else:
        record["speedup"] = (round(serial_s / parallel_s, 2)
                             if parallel_s else 0.0)
    if not identical:  # loud, but still recorded for post-mortem
        record["error"] = "serial and parallel records differ"
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serial vs parallel grid wall-clock + engine "
                    "events/sec; writes BENCH_parallel.json")
    parser.add_argument("--workers", default="auto",
                        help="pool size for the parallel leg "
                             "(default: one per CPU)")
    parser.add_argument("--target-accesses", type=int, default=None,
                        help="per-run access target (default: the "
                             "REPRO_BENCH_SCALE-scaled standard)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="where to write the JSON record "
                             "(default: BENCH_parallel.json next to "
                             "the repo root)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="also append this run to the perf "
                             "trajectory in the given baseline store "
                             "(see repro.obs.baseline)")
    args = parser.parse_args(argv)
    record = measure_parallel(workers=args.workers,
                              target_accesses=args.target_accesses,
                              seed=args.seed)
    output = pathlib.Path(
        args.output if args.output else
        pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_parallel.json")
    output.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    print(f"[wrote {output}]")
    if args.baseline:
        from repro.obs.baseline import append_history
        metrics = {
            "wall.engine_events_per_sec":
                record["engine"]["events_per_sec"],
            "wall.native_events_per_sec":
                record["native"]["events_per_sec"],
            "wall.grid_parallel_s": record["parallel_s"],
            "wall.grid_serial_s": record["serial_s"],
        }
        if record["speedup"] is not None:
            metrics["wall.grid_speedup"] = record["speedup"]
        append_history(args.baseline, {
            "note": "bench_parallel",
            "metrics": metrics,
        })
        print(f"[trajectory appended to {args.baseline}]")
    return 0 if record["identical_output"] else 1


if __name__ == "__main__":
    sys.exit(main())
