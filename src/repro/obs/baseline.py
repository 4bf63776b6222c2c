"""Perf-baseline store: record, compare, and gate on regressions.

The parallel-engine PR made the hot paths ~1.7x faster; nothing since
has *kept* them fast — ``BENCH_*.json`` records pile up but are never
compared run-to-run, so a hot-path regression would ship silently.
This module is the gate: a small JSON store (``BENCH_baseline.json``)
holding named perf metrics with per-metric noise tolerances, plus a
bounded history ("trajectory") so the numbers can be plotted over
time.

Two metric kinds with different trust levels:

* ``sim`` — deterministic simulated-time quantities (throughput of a
  fixed-seed run, lock time per access). Bit-stable across hosts, so
  the default tolerance is tight (5%) and a committed baseline is
  comparable anywhere.
* ``wall`` — wall-clock rates (engine events/sec). Honest about speed
  but noisy and host-dependent, so the default tolerance is 15% and
  CI records its own baseline in-job rather than trusting one
  committed from a different machine.

``compare_baseline`` is pure; the ``cli perf-diff`` subcommand wraps
it with measurement and process exit codes (non-zero on regression)
for CI.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "BaselineDiff",
    "DEFAULT_TOLERANCES",
    "append_history",
    "compare_baseline",
    "default_tolerance",
    "engine_events_per_sec",
    "load_baseline",
    "measure_current",
    "record_baseline",
]

SCHEMA_VERSION = 1

#: Default relative tolerance per metric kind; a metric entry may
#: override with its own ``tolerance``. ``wall.scaling``,
#: ``wall.serve``, ``wall.slo``, ``wall.macro`` and ``wall.tune`` are
#: looser classes *within* the wall kind, matched by name prefix (see
#: :func:`default_tolerance`): multi-worker wall-clock rates add
#: scheduler placement and core-count variance, the serve grid adds
#: many-session interleaving on top, tail latencies (``wall.slo.*``
#: gates on achieved p99) are the noisiest statistic of all, the
#: macro tier's query rate sums whole operator pipelines per data
#: point, and the tune sweep's rate sums several full experiment
#: builds per measurement — so 15% would flap in CI.
DEFAULT_TOLERANCES = {"sim": 0.05, "wall": 0.15, "wall.scaling": 0.25,
                      "wall.serve": 0.25, "wall.slo": 0.25,
                      "wall.macro": 0.25, "wall.tune": 0.25}

#: History entries kept in the trajectory (oldest dropped first).
MAX_HISTORY = 50


def default_tolerance(name: str, kind: str) -> float:
    """The tolerance a metric gets when its entry sets none.

    The name's two-part prefix (``wall.scaling`` for
    ``wall.scaling.pgBat.2w``) when :data:`DEFAULT_TOLERANCES` lists
    it as a class, else the kind default. Name classes let one metric
    family loosen its gate without touching every entry or the
    kind-wide default.
    """
    prefix = ".".join(name.split(".")[:2])
    return DEFAULT_TOLERANCES.get(prefix, DEFAULT_TOLERANCES[kind])


def _metric(value: float, kind: str, direction: str = "higher",
            unit: str = "", tolerance: Optional[float] = None) -> dict:
    entry = {"value": value, "kind": kind, "direction": direction,
             "unit": unit}
    if tolerance is not None:
        entry["tolerance"] = tolerance
    return entry


@dataclass
class BaselineDiff:
    """The outcome of one baseline comparison."""

    #: One row per compared metric: name, baseline, current, change
    #: (signed fraction), tolerance, status (ok/regression/improved/new).
    rows: List[dict] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_baseline(path) -> Optional[dict]:
    """Read a baseline document, or ``None`` if the file is absent."""
    path = pathlib.Path(path)
    if not path.exists():
        return None
    document = json.loads(path.read_text())
    if document.get("version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path} has baseline schema version "
            f"{document.get('version')!r}, expected {SCHEMA_VERSION}")
    return document


def record_baseline(path, metrics: Dict[str, dict],
                    note: str = "") -> pathlib.Path:
    """Write ``metrics`` as the new baseline, appending the trajectory.

    Keeps the previous document's history (bounded at
    :data:`MAX_HISTORY`) and appends one entry per call, so repeated
    ``record``/``update`` runs build the perf trajectory instead of
    erasing it.
    """
    path = pathlib.Path(path)
    previous = load_baseline(path) if path.exists() else None
    history = list(previous.get("history", [])) if previous else []
    history.append({
        "recorded_unix": int(time.time()),
        "note": note,
        "metrics": {name: entry["value"]
                    for name, entry in sorted(metrics.items())},
    })
    document = {
        "version": SCHEMA_VERSION,
        "metrics": {name: metrics[name] for name in sorted(metrics)},
        "history": history[-MAX_HISTORY:],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def append_history(path, entry: dict) -> pathlib.Path:
    """Append one trajectory entry without touching the gate metrics.

    Used by ``benchmarks/bench_parallel.py`` so every benchmark run
    lands on the trajectory even when nobody re-records the baseline.
    Creates a metrics-less document if the file does not exist yet.
    """
    path = pathlib.Path(path)
    document = load_baseline(path) or {
        "version": SCHEMA_VERSION, "metrics": {}, "history": []}
    entry = dict(entry)
    entry.setdefault("recorded_unix", int(time.time()))
    document["history"] = (document.get("history", [])
                           + [entry])[-MAX_HISTORY:]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def compare_baseline(baseline: dict, current: Dict[str, dict],
                     include_wall: bool = True,
                     tolerance_override: Optional[float] = None
                     ) -> BaselineDiff:
    """Compare ``current`` metrics against a baseline document.

    A metric regresses when it moves against its ``direction`` by more
    than its tolerance (entry override, else the kind default, else
    ``tolerance_override`` over everything when given). Metrics absent
    from either side never fail the gate: a new metric reports as
    ``new``, a vanished one is ignored — so adding instrumentation
    can't break CI retroactively.
    """
    diff = BaselineDiff()
    base_metrics = baseline.get("metrics", {})
    for name in sorted(current):
        entry = current[name]
        if entry["kind"] == "wall" and not include_wall:
            continue
        base = base_metrics.get(name)
        if base is None:
            diff.rows.append({"metric": name, "baseline": None,
                              "current": entry["value"], "change": None,
                              "tolerance": None, "status": "new"})
            continue
        tolerance = (tolerance_override
                     if tolerance_override is not None
                     else base.get("tolerance",
                                   default_tolerance(name, base["kind"])))
        base_value = base["value"]
        value = entry["value"]
        if base_value:
            change = (value - base_value) / abs(base_value)
        else:
            change = 0.0 if value == 0 else float("inf")
        signed = change if base["direction"] == "higher" else -change
        if signed < -tolerance:
            status = "regression"
            diff.regressions.append(name)
        elif signed > tolerance:
            status = "improved"
            diff.improvements.append(name)
        else:
            status = "ok"
        diff.rows.append({"metric": name, "baseline": base_value,
                          "current": value, "change": round(change, 4),
                          "tolerance": tolerance, "status": status})
    return diff


# -- measurement ----------------------------------------------------------

#: The fixed gate configurations: small enough for seconds-long CI
#: runs, contended enough that a hot-path or batching regression moves
#: the numbers.
GATE_CONFIGS = (
    ("pg2Q", 8),
    ("pgBatPre", 8),
)


def engine_events_per_sec(repeats: int = 3,
                          iterations: int = 2_000) -> float:
    """Best-of-``repeats`` simulator dispatch rate (wall clock).

    The repository's one engine kernel — 24 threads on 4 processors
    doing charge/spend, zero-charge spends, periodic lock cycles and
    quantum checks — gated by ``cli perf-diff`` and printed by
    ``benchmarks/bench_engine.py`` and ``bench_parallel.py``. One
    full-size run is discarded as
    warm-up (fresh-process cold starts measure 20-40% slow), then the
    best of ``repeats`` half-second runs is taken. Even so the result
    is host-dependent and throttling-sensitive — which is why it is a
    ``wall`` metric with the loose tolerance, and why CI's hard gate
    assertions use ``--skip-wall``.
    """
    from repro.simcore.cpu import CpuBoundThread, ProcessorPool
    from repro.simcore.engine import Simulator
    from repro.sync.locks import SimLock

    def worker(thread, lock):
        for index in range(iterations):
            thread.charge(1.0)
            yield from thread.spend()
            yield from thread.spend()
            if index % 8 == 0:
                yield from lock.acquire(thread)
                yield from thread.run_for(0.5)
                lock.release(thread)
            yield from thread.maybe_yield(250.0)

    def one_run() -> float:
        sim = Simulator()
        pool = ProcessorPool(sim, 4, context_switch_us=5.0)
        lock = SimLock(sim, name="gate", grant_cost_us=0.1)
        for index in range(24):
            thread = CpuBoundThread(pool, name=f"w{index}")
            thread.start(worker(thread, lock))
        started = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - started
        return sim.events_processed / wall if wall > 0 else 0.0

    one_run()  # discard: cold-start penalty
    return round(max(one_run() for _ in range(repeats)), 1)


def _serve_gate(repeats: int = 2) -> tuple:
    """Best-of-``repeats`` smoke-grid request rate, plus worst p99.

    The same 2-shard x 3-tenant cell the CI ``serve-smoke`` job runs:
    small enough for sub-second turns, enough sessions crossing enough
    shards that a regression in the shard routing, admission path, or
    per-shard BP-Wrapper queues moves the number. Returns
    ``(requests_per_wall_sec, worst_p99_ms)`` — the wall rate is
    host-dependent, but the worst achieved per-tenant p99 is in
    *simulated* milliseconds from a fixed-seed run, so the SLO gate
    catches latency-path regressions the throughput number hides
    (e.g. one tenant starved while aggregate rate holds). Both gate at
    the loose 25% class tolerances (``wall.serve`` / ``wall.slo``).
    """
    from repro.serve import ServeConfig, run_serve

    config = ServeConfig(n_shards=2, n_tenants=3, sessions_per_tenant=2,
                         pages_per_tenant=64, target_requests=600,
                         quota_per_sec=4000.0, seed=7)

    def one_run() -> tuple:
        started = time.perf_counter()
        result = run_serve(config)
        wall = time.perf_counter() - started
        rate = result.requests / wall if wall > 0 else 0.0
        return rate, result.worst_p99_ms

    one_run()  # discard: cold-start penalty
    runs = [one_run() for _ in range(repeats)]
    best_rate = max(rate for rate, _ in runs)
    # The p99 is deterministic (simulated time): identical every run.
    return round(best_rate, 1), round(runs[0][1], 3)


def _macro_gate(repeats: int = 2) -> float:
    """Best-of-``repeats`` macro-tier query rate (wall clock).

    A shrunk ``cli macro`` cell — 120 tpcc_lite queries through the
    full operator pipeline (B-tree walks, joins, ring inserts) over a
    deliberately undersized pool, so the gate covers the exec layer,
    ``access_pinned`` pin retention, dirty write-backs and pin-aware
    victim selection in one number. Wall-clock and host-dependent,
    hence the loose ``wall.macro`` class tolerance (25%).
    """
    from repro.harness.macro import MacroConfig, run_macro
    from repro.workloads.registry import make_workload

    config = MacroConfig(target_queries=120, n_threads=8, seed=7)
    workload = make_workload(config.workload, seed=config.seed,
                             **config.workload_kwargs)

    def one_run() -> float:
        started = time.perf_counter()
        result = run_macro(config, workload=workload)
        wall = time.perf_counter() - started
        return result.queries / wall if wall > 0 else 0.0

    one_run()  # discard: cold-start penalty
    return round(max(one_run() for _ in range(repeats)), 1)


def _tune_gate(repeats: int = 2) -> float:
    """Best-of-``repeats`` tune-sweep access rate (wall clock).

    A shrunk ``cli tune`` static grid — two thresholds over one
    eviction-pressured pool — so the gate covers the control-plane
    construction path (``ControlState`` threading through
    ``build_system``) plus the full sim experiment stack it drives.
    Wall-clock and host-dependent, hence the loose ``wall.tune`` class
    tolerance (25%).
    """
    from repro.control.tune import TuneConfig, sweep_grid

    config = TuneConfig(thresholds=(1, 8), queue_sizes=(32,),
                        prefetch=(False,), n_processors=8,
                        target_accesses=1_000, seed=7)

    def one_run() -> float:
        started = time.perf_counter()
        cells = sweep_grid(config)
        wall = time.perf_counter() - started
        accesses = len(cells) * config.target_accesses
        return accesses / wall if wall > 0 else 0.0

    one_run()  # discard: cold-start penalty
    return round(max(one_run() for _ in range(repeats)), 1)


def measure_current(skip_wall: bool = False, seed: int = 7,
                    target_accesses: int = 3_000) -> Dict[str, dict]:
    """Measure the gate metrics on this checkout.

    ``sim.*`` metrics are deterministic for a given seed/target;
    ``wall.*`` metrics depend on the host and are skipped with
    ``skip_wall`` (the mode used to produce the committed baseline,
    which must be comparable on any machine).
    """
    from repro.harness.experiment import ExperimentConfig, run_experiment

    metrics: Dict[str, dict] = {}
    for system, processors in GATE_CONFIGS:
        config = ExperimentConfig(
            system=system, workload="tablescan",
            workload_kwargs={"n_tables": 4, "pages_per_table": 50},
            n_processors=processors, n_threads=processors,
            target_accesses=target_accesses, seed=seed)
        result = run_experiment(config)
        metrics[f"sim.{system}.tps"] = _metric(
            round(result.throughput_tps, 3), "sim", "higher", "tps")
        metrics[f"sim.{system}.lock_us_per_access"] = _metric(
            round(result.lock_time_per_access_us, 4), "sim", "lower",
            "us")
    if not skip_wall:
        metrics["wall.engine_events_per_sec"] = _metric(
            engine_events_per_sec(), "wall", "higher", "events/s")
        serve_rate, worst_p99_ms = _serve_gate()
        metrics["wall.serve.2s.3t"] = _metric(
            serve_rate, "wall", "higher", "req/s")
        metrics["wall.slo.2s.3t.p99_ms"] = _metric(
            worst_p99_ms, "wall", "lower", "ms")
        metrics["wall.macro.tpcc_lite"] = _metric(
            _macro_gate(), "wall", "higher", "queries/s")
        metrics["wall.tune.grid"] = _metric(
            _tune_gate(), "wall", "higher", "accesses/s")
    return metrics
