"""The benchmark's workloads: what each runs, checks and reports.

Each workload builds its program inputs from the seed alone, runs one
call into ``repro`` per iteration and turns the result into a flat
record that :func:`check` verifies. ``scale`` shrinks the work of one
iteration (the tests run at a tiny scale); the benchmark runs at 1.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import hashlib
import json
import os
import pstats
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.macro import MacroConfig, run_macro
from repro.hardware.machines import ALTIX_350
from repro.workloads.registry import make_workload

#: Share of a traced iteration's wall time the attributed self times
#: must cover.
MIN_COVERAGE = 0.95

#: Result counts read from every run's result record, with their units
#: (per-layer; on the sim they are model outputs a speed-up must not
#: move).
COUNT_UNITS = {
    "sync.contentions_per_maccess": "1/Maccess",
    "sync.lock_us_per_access": "us/access",
    "core.mean_batch_size": "entries",
    "core.stale_entries": "count",
    "bufmgr.hit_ratio": "ratio",
    "bufmgr.evictions": "count",
    "bufmgr.write_backs": "count",
    "bufmgr.pinned_victim_skips": "count",
    "db.disk_reads": "count",
    "db.disk_writes": "count",
}


@dataclass
class Outcome:
    """One iteration: timings, the checked record and its counts."""

    #: Wall seconds of the timed section (the run call; for mp the
    #: parent-observed span from the start barrier to the last result).
    timed_s: float
    #: Wall seconds the run call spent before its first access and after
    #: its last (mp only: fork, shm layout, prewarm, barrier, join).
    extra_setup_s: float
    accesses: int
    queries: int
    record: dict
    counts: Dict[str, float]
    #: Hash of the sim-time result record; None where it is not
    #: deterministic (mp).
    digest: Optional[str]
    result: object


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro`` modules the workload's run path imports (timed in a
    #: fresh interpreter as part of set-up).
    modules: tuple
    workload: str
    config: Callable[[int, float], object]
    run: Callable[[object, object], Outcome]

    def make(self, seed: int):
        return make_workload(self.workload, seed=seed)

    def describe(self, seed: int, scale: float = 1.0) -> dict:
        """The full configuration, as recorded with every result."""
        config = self.config(seed, scale)
        fields = ("system", "workload", "runtime", "n_processors",
                  "n_threads", "buffer_pages", "prewarm", "use_disk",
                  "background_writer", "target_accesses",
                  "target_queries", "warmup_fraction", "queue_size",
                  "batch_threshold")
        record = {name: getattr(config, name) for name in fields
                  if hasattr(config, name)}
        record["machine"] = config.machine.name
        return record


def digest_of(record: dict) -> str:
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(name: str, record: dict) -> List[str]:
    """Every failed output check of one iteration's record."""
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(f"{name}: {what} ({_brief(record)})")

    expect(record["hits"] + record["misses"] == record["accesses"],
           "hits + misses != accesses")
    if "profile_coverage" in record:
        expect(record["profile_coverage"] >= MIN_COVERAGE,
               "layer self times cover too little of the traced time")
    if name in ("sim-contended", "mp-batched"):
        expect(record["total_accesses"] >= record["target_accesses"],
               "fewer accesses than the target")
        # The pool is prewarmed with the whole working set.
        expect(record["misses"] == 0, "misses in a pool holding the "
               "whole working set")
    if name == "macro-evict":
        expect(record["disk_writes"] == record["write_backs"],
               "disk_writes != write_backs")
        expect(record["write_backs"] > 0, "no dirty write-backs")
        expect(record["pinned_victim_skips"] > 0,
               "no pinned-victim skips")
        expect(record["queries"] >= record["target_queries"],
               "fewer queries than the target")
    if name == "mp-batched":
        expect(record["mean_batch_size"] <= record["queue_size"],
               "mean batch larger than the queue")
        if "observed_accesses" in record:
            expect(record["observed_accesses"] == record["total_accesses"],
                   "observer saw a different access count")
    return failures


def _brief(record: dict) -> str:
    return ", ".join(f"{key}={value}" for key, value in
                     sorted(record.items()))


# -- sim-contended ----------------------------------------------------------


def _sim_contended_config(seed: int, scale: float) -> ExperimentConfig:
    # buffer_pages=None sizes the pool to the working set plus slack;
    # with prewarm there are no misses and no disk (paper §IV).
    return ExperimentConfig(
        system="pg2Q", workload="dbt1", machine=ALTIX_350,
        n_processors=16, n_threads=32, buffer_pages=None, prewarm=True,
        use_disk=False, target_accesses=max(1000, int(60_000 * scale)),
        seed=seed)


def _run_experiment_outcome(config, workload, observer=None) -> Outcome:
    started = time.perf_counter()
    result = run_experiment(config, workload, observer=observer)
    wall_s = time.perf_counter() - started
    if config.runtime == "mp":
        timed_s = result.elapsed_us / 1e6
        digest = None
    else:
        timed_s = wall_s
        digest = digest_of(result.to_dict())
    record = {
        "accesses": result.accesses, "hits": result.hits,
        "misses": result.misses, "total_accesses": result.total_accesses,
        "target_accesses": config.target_accesses,
        "mean_batch_size": result.mean_batch_size,
        "queue_size": config.queue_size,
    }
    counts = {
        "sync.contentions_per_maccess": result.contention_per_million,
        "sync.lock_us_per_access": result.lock_time_per_access_us,
        "core.mean_batch_size": result.mean_batch_size,
        "core.stale_entries": result.stale_queue_entries,
        "bufmgr.hit_ratio": result.hit_ratio,
        # RunResult carries no eviction or pin-skip count; both are 0
        # because check() requires misses == 0 on these workloads.
        "bufmgr.evictions": 0,
        "bufmgr.write_backs": result.write_backs,
        "bufmgr.pinned_victim_skips": 0,
        "db.disk_reads": result.disk_reads,
        "db.disk_writes": result.disk_writes,
    }
    return Outcome(timed_s=timed_s, extra_setup_s=wall_s - timed_s,
                   accesses=result.total_accesses,
                   queries=result.total_transactions, record=record,
                   counts=counts, digest=digest, result=result)


# -- macro-evict ------------------------------------------------------------


def _macro_evict_config(seed: int, scale: float) -> MacroConfig:
    # 192 pages is well below tpcc_lite's ~900-page working set.
    return MacroConfig(
        system="pgBatPre", workload="tpcc_lite", machine=ALTIX_350,
        n_processors=4, n_threads=8, buffer_pages=192, prewarm=True,
        use_disk=True, background_writer=False,
        target_queries=max(60, int(1920 * scale)), seed=seed)


@contextlib.contextmanager
def _recording_slots():
    """Collect every ThreadSlot built inside the block.

    MacroResult has no batch statistics; the slots' queues do.
    """
    from repro.core.bpwrapper import ThreadSlot

    slots: list = []
    original = ThreadSlot.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        slots.append(self)

    ThreadSlot.__init__ = init
    try:
        yield slots
    finally:
        ThreadSlot.__init__ = original


def _run_macro_outcome(config, workload) -> Outcome:
    with _recording_slots() as slots:
        started = time.perf_counter()
        result = run_macro(config, workload)
        wall_s = time.perf_counter() - started
    batches = [slot.queue.mean_batch_size() for slot in slots
               if slot.queue.commits > 0]
    mean_batch = sum(batches) / len(batches) if batches else 0.0
    record = {
        "accesses": result.accesses, "hits": result.hits,
        "misses": result.misses, "queries": result.queries,
        "target_queries": config.target_queries,
        "write_backs": result.write_backs,
        "disk_writes": result.disk_writes,
        "pinned_victim_skips": result.pinned_victim_skips,
    }
    lock = result.lock_stats
    counts = {
        "sync.contentions_per_maccess":
            lock.contentions_per_million(result.accesses),
        "sync.lock_us_per_access":
            lock.lock_time_per_access_us(result.accesses),
        "core.mean_batch_size": mean_batch,
        "core.stale_entries": sum(slot.stale_entries for slot in slots),
        "bufmgr.hit_ratio": result.hit_ratio,
        "bufmgr.evictions": result.evictions,
        "bufmgr.write_backs": result.write_backs,
        "bufmgr.pinned_victim_skips": result.pinned_victim_skips,
        "db.disk_reads": result.disk_reads,
        "db.disk_writes": result.disk_writes,
    }
    return Outcome(timed_s=wall_s, extra_setup_s=0.0,
                   accesses=result.accesses, queries=result.queries,
                   record=record, counts=counts,
                   digest=digest_of(result.to_dict()), result=result)


# -- mp-batched -------------------------------------------------------------


def mp_workers() -> int:
    """One worker per usable core, at most 8 to bound memory."""
    return max(1, min(8, len(os.sched_getaffinity(0))))


def _mp_batched_config(seed: int, scale: float) -> ExperimentConfig:
    workers = mp_workers()
    # Each worker makes target // workers accesses: keep it exact.
    target = max(2000, int(400_000 * scale)) // workers * workers
    return ExperimentConfig(
        system="pgBat", workload="tablescan", runtime="mp",
        n_processors=workers, buffer_pages=None, prewarm=True,
        use_disk=False, warmup_fraction=0.0, target_accesses=target,
        seed=seed)


def _profiled_worker(dump_dir: str, target, *args) -> None:
    """mp worker entry that profiles the worker body into ``dump_dir``."""
    index = args[-1]
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    try:
        target(*args)
    finally:
        profile.disable()
        wall_s = time.perf_counter() - started
        profile.dump_stats(os.path.join(dump_dir, f"worker-{index}.prof"))
        with open(os.path.join(dump_dir, f"worker-{index}.wall"),
                  "w") as handle:
            handle.write(repr(wall_s))


def run_mp_profiled(config, workload, dump_dir: str):
    """One mp iteration with every worker under cProfile.

    Returns the outcome and (the merged worker ``pstats.Stats``, the
    summed wall time of the workers).
    """
    from repro.runtime import mp

    original = mp._worker_main
    mp._worker_main = functools.partial(_profiled_worker, dump_dir,
                                        original)
    try:
        outcome = _run_experiment_outcome(config, workload)
    finally:
        mp._worker_main = original
    stats = None
    wall_s = 0.0
    for index in range(config.n_processors):
        path = os.path.join(dump_dir, f"worker-{index}")
        if stats is None:
            stats = pstats.Stats(path + ".prof")
        else:
            stats.add(path + ".prof")
        with open(path + ".wall") as handle:
            wall_s += float(handle.read())
        os.remove(path + ".prof")
        os.remove(path + ".wall")
    return outcome, (stats, wall_s)


#: Reported by the metrics-only Observer run of mp-batched (0 elsewhere).
MP_METRIC_UNITS = {
    "mp.access_us.p50": "us",
    "mp.access_us.p99": "us",
    "mp.lock.hold_us_per_access": "us/access",
    "mp.lock.wait_us_per_access": "us/access",
}


def run_mp_observed(config, workload):
    """One mp iteration with a metrics-only Observer attached.

    Returns the outcome (its record also carries the observed access
    count, which :func:`check` reconciles) and the ``mp.*`` metrics.
    """
    from repro.obs import MetricsRegistry, Observer

    observer = Observer(metrics=MetricsRegistry())
    outcome = _run_experiment_outcome(config, workload, observer=observer)
    histograms = outcome.result.metrics["histograms"]
    access = histograms["mp.access_us"]
    outcome.record["observed_accesses"] = access["count"]
    accesses = max(1, outcome.accesses)
    metrics = {
        "mp.access_us.p50": access["p50_us"],
        "mp.access_us.p99": access["p99_us"],
        "mp.lock.hold_us_per_access":
            histograms["mp.lock.replacement.hold_us"]["sum_us"] / accesses,
        "mp.lock.wait_us_per_access":
            histograms["mp.lock.replacement.wait_us"]["sum_us"] / accesses,
    }
    return outcome, metrics


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("sim-contended", ("repro.harness.experiment",), "dbt1",
                 _sim_contended_config, _run_experiment_outcome),
        Workload("macro-evict", ("repro.harness.macro",), "tpcc_lite",
                 _macro_evict_config, _run_macro_outcome),
        Workload("mp-batched",
                 ("repro.harness.experiment", "repro.runtime.mp"),
                 "tablescan", _mp_batched_config,
                 _run_experiment_outcome),
    )
}
