"""Wall-clock benchmark of the sim, macro and mp buffer-pool access paths.

Run from the repository root::

    python3 perfbench/run.py --workload sim-contended --seed 1 \\
        --seconds 10 --trace 0

Workloads (configurations in ``suite.py``, reasons in BENCHMARK.json):

* ``sim-contended`` -- pg2Q + dbt1 on the simulated Altix 350, 16
  processors, 32 threads, prewarmed pool holding the working set;
* ``macro-evict`` -- tpcc_lite query plans under pgBatPre, 4
  processors, 8 threads, a 192-page pool with the disk model;
* ``mp-batched`` -- pgBat + tablescan on worker processes over shared
  memory, one worker per core.

Each iteration rebuilds the workload from ``--seed``, makes one run
call and checks its output; iterations repeat for ``--seconds``.
Times are wall times rescaled to a nominal host speed measured by a
reference loop around each iteration (see ``REF_NOMINAL_S``). The
last stdout line is one JSON object ``{correct, attempted, failed,
metrics}``. With ``--trace 0`` the metrics are the end-to-end ones
(medians over iterations); with ``--trace 1`` the run first times a
few untraced iterations, then profiles the rest with cProfile and
attributes self time and calls to the ``repro`` layers (see
``layers.py``). Lines before the last one record the host, the
configuration, the sim result digest and the per-layer table.

Exit status: 0 when every check passed, 1 when one failed, 2 when
there is no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Callable, Dict, List, NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC, "repro")

#: Fewest iterations a run reports a median over, whatever --seconds.
MIN_ITERATIONS = 3
#: Share of a traced run's seconds spent on untraced iterations, the
#: base of trace.overhead.
TRACE_BASELINE_SHARE = 0.3
#: Fresh interpreters timed importing the workload's modules.
IMPORT_SAMPLES = 3
#: The reference loop timed around every measurement, and the time it
#: takes on the nominal host (25M loop steps per second). On a shared
#: machine the speed of a core drifts by +-20% over tens of seconds;
#: scaling each wall time by REF_NOMINAL_S / (reference loop time
#: around it) reports it in seconds of the nominal host and removes
#: most of that drift. Raw wall-clock medians are printed beside.
REF_LOOP_STEPS = 200_000
REF_NOMINAL_S = 0.008

_IMPORT_TIMER = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "started = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - started)\n")


def reference_seconds() -> float:
    """Wall seconds of the fixed reference loop, right now."""
    started = time.perf_counter()
    total = 0
    for step in range(REF_LOOP_STEPS):
        total += step
    return time.perf_counter() - started


def _speed(before: float) -> float:
    """Nominal seconds per wall second since the reference loop that
    took ``before`` seconds, timing it once more now."""
    return 2 * REF_NOMINAL_S / (before + reference_seconds())


class Iteration(NamedTuple):
    outcome: object
    #: Raw wall seconds before the first access (inputs + run set-up).
    setup_s: float
    #: Nominal seconds per wall second while the iteration ran.
    speed: float
    #: Whatever the runner returned beside the outcome.
    extra: object

    @property
    def nominal_s(self) -> float:
        return self.outcome.timed_s * self.speed


class Tally:
    """Iterations attempted and failed, and the sim digest they share."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.digest: Optional[str] = None

    def run(self, suite, workload, seed: int, config,
            runner: Callable) -> Optional[Iteration]:
        """Build inputs, run once and check the output."""
        self.attempted += 1
        before = reference_seconds()
        try:
            started = time.perf_counter()
            inputs = workload.make(seed)
            make_s = time.perf_counter() - started
            outcome, extra = runner(config, inputs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        speed = _speed(before)
        failures = suite.check(self.name, outcome.record)
        if outcome.digest is not None:
            if self.digest is None:
                self.digest = outcome.digest
            elif outcome.digest != self.digest:
                failures.append(f"{self.name}: result digest "
                                f"{outcome.digest} != {self.digest} at "
                                f"the same seed")
        if failures:
            self.failed += 1
            print(f"CHECK FAILED {'; '.join(failures)}", file=sys.stderr)
        return Iteration(outcome, make_s + outcome.extra_setup_s, speed,
                         extra)


def host_fingerprint() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu or platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": _git_commit(), "src_sha256": _src_digest()}


def _git_commit() -> Optional[str]:
    """HEAD's commit if the checkout is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """Hash of every file under src/repro, identifying the code."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(REPRO_DIR):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def import_seconds(modules: tuple) -> float:
    """Median nominal seconds a fresh interpreter takes to import
    ``modules``."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = reference_seconds()
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, SRC, *modules],
            capture_output=True, text=True, timeout=120, check=True,
            cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1])
                       * _speed(before))
    return statistics.median(samples)


def _peak_rss_mb(with_children: bool) -> float:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak_kb = max(peak_kb, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict:
    """Run one workload; return ``{correct, attempted, failed, metrics}``
    plus a ``report`` list of lines to print before it."""
    import suite

    workload = suite.WORKLOADS[name]
    config = workload.config(seed, scale)
    tally = Tally(name)
    report = [f"host {json.dumps(host_fingerprint(), sort_keys=True)}",
              f"config {name} seed={seed} "
              f"{json.dumps(workload.describe(seed, scale), sort_keys=True)}"]
    started = time.perf_counter()
    untraced_until = started + (seconds * TRACE_BASELINE_SHARE if trace
                                else seconds)
    needed = 2 if trace else MIN_ITERATIONS
    untraced: List[Iteration] = []
    while (len(untraced) < needed
           or time.perf_counter() < untraced_until):
        if (tally.attempted >= 4 * needed
                and time.perf_counter() >= untraced_until):
            break
        done = tally.run(suite, workload, seed, config,
                         lambda c, w: (workload.run(c, w), None))
        if done is not None:
            untraced.append(done)
    metrics: Dict[str, dict] = {}
    if untraced and not trace:
        metrics = _end_to_end(workload, config, untraced, report)
    elif untraced:
        metrics = _traced(suite, workload, seed, config, tally, untraced,
                          started + seconds, report)
    if tally.digest is not None:
        report.append(f"digest {name} seed={seed} {tally.digest}")
    return {"correct": bool(metrics) and tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "report": report}


def _end_to_end(workload, config, untraced: List[Iteration],
                report: List[str]) -> Dict[str, dict]:
    peak_rss_mb = _peak_rss_mb(with_children=config.runtime == "mp")
    accesses = [it.outcome.accesses for it in untraced]
    queries = [it.outcome.queries for it in untraced]
    nominal_s = [it.nominal_s for it in untraced]
    wall_s = [it.outcome.timed_s for it in untraced]

    def median_rate(counts: List[int], seconds: List[float]) -> float:
        return statistics.median(c / s for c, s in zip(counts, seconds))

    setup_s = (import_seconds(workload.modules)
               + statistics.median(it.setup_s * it.speed
                                   for it in untraced))
    report.append(
        f"iterations {len(untraced)}; raw wall medians "
        f"{median_rate(accesses, wall_s):.1f} accesses/s, "
        f"{median_rate(queries, wall_s):.2f} queries/s; median speed "
        f"{statistics.median(it.speed for it in untraced):.4f} nominal "
        f"s per wall s")
    return {
        "accesses_per_s": _metric(median_rate(accesses, nominal_s),
                                  "accesses/s"),
        "queries_per_s": _metric(median_rate(queries, nominal_s),
                                 "queries/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _traced(suite, workload, seed: int, config, tally: Tally,
            untraced: List[Iteration], deadline: float,
            report: List[str]) -> Dict[str, dict]:
    """The per-layer metrics of a traced run (see module docstring)."""
    from layers import LAYERS, Attribution

    is_mp = config.runtime == "mp"
    mp_metrics = dict.fromkeys(suite.MP_METRIC_UNITS, 0.0)
    if is_mp:
        done = tally.run(suite, workload, seed, config,
                         suite.run_mp_observed)
        if done is not None:
            mp_metrics = done.extra
    dump_dir = tempfile.mkdtemp(prefix="profiles-")
    if is_mp:
        def profiled(c, w):
            return suite.run_mp_profiled(c, w, dump_dir)
    else:
        profiled = _profiled(workload.run)

    def runner(c, w):
        outcome, (stats, wall_s) = profiled(c, w)
        outcome.record["profile_coverage"] = sum(
            entry[2] for entry in stats.stats.values()) / wall_s
        return outcome, stats

    merged: Optional[pstats.Stats] = None
    traced: List[Iteration] = []
    try:
        while not traced or time.perf_counter() < deadline:
            done = tally.run(suite, workload, seed, config, runner)
            if done is None:
                if tally.attempted >= 4 * MIN_ITERATIONS:
                    break
                continue
            traced.append(done)
            if merged is None:
                merged = done.extra
            else:
                merged.add(done.extra)
    finally:
        shutil.rmtree(dump_dir, ignore_errors=True)
    if merged is None:
        return {}
    attribution = Attribution(merged.stats, REPRO_DIR)
    accesses = sum(it.outcome.accesses for it in traced)
    speed = statistics.median(it.speed for it in traced)
    metrics: Dict[str, dict] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_access"] = _metric(
            1e6 * attribution.self_s[layer] * speed / accesses,
            "us/access")
        metrics[f"{layer}.calls_per_access"] = _metric(
            attribution.calls[layer] / accesses, "calls/access")
    for key, unit in suite.COUNT_UNITS.items():
        metrics[key] = _metric(
            statistics.median(it.outcome.counts[key] for it in untraced),
            unit)
    for key, unit in suite.MP_METRIC_UNITS.items():
        metrics[key] = _metric(mp_metrics[key], unit)
    overhead = (statistics.median(it.nominal_s for it in traced)
                / statistics.median(it.nominal_s for it in untraced))
    metrics["trace.overhead"] = _metric(overhead, "ratio")
    coverage = min(it.outcome.record["profile_coverage"] for it in traced)
    metrics["trace.coverage"] = _metric(coverage, "ratio")
    report.append(f"layers {tally.name}: {len(traced)} traced "
                  f"iterations, {accesses} accesses, overhead "
                  f"{overhead:.2f}x, coverage {coverage:.3f}")
    report.append(attribution.table(accesses))
    return metrics


def _profiled(run: Callable) -> Callable:
    """Wrap a run call: (outcome, (pstats.Stats, wall seconds))."""
    def runner(config, inputs):
        profile = cProfile.Profile()
        started = time.perf_counter()
        profile.enable()
        try:
            outcome = run(config, inputs)
        finally:
            profile.disable()
        wall_s = time.perf_counter() - started
        return outcome, (pstats.Stats(profile), wall_s)
    return runner


def stop_children() -> None:
    """Stop and reap every process the run started.

    Worker processes are joined by the mp runtime; any still alive here
    (an error path) are killed. The multiprocessing resource tracker,
    started by the first shared-memory segment, is by design left to
    outlive its parent; it is stopped and waited for instead, so the
    run leaves neither a tracker nor its zombie behind.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-contended", "macro-evict",
                                 "mp-batched"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(REPRO_DIR, "__init__.py")):
        print(f"perfbench: no program to measure ({REPRO_DIR} is "
              f"missing); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Scratch files (mp metrics snapshots, worker profiles) stay inside
    # the checkout and go when the run ends.
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tempfile.tempdir = scratch
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    finally:
        stop_children()
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
