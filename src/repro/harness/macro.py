"""The macro tier: query plans executed live against the buffer pool.

Where :mod:`repro.harness.experiment` replays pre-flattened page
traces, :func:`run_macro` drives the :mod:`repro.db.exec` operators —
scans, B-tree walks, joins, inserts — against a real
:class:`~repro.bufmgr.manager.BufferManager`, with every fetch going
through :meth:`~repro.bufmgr.manager.BufferManager.access_pinned` and
operators holding pins across their lifetimes. Three execution modes
share one thread body:

* ``runtime="sim"`` — the deterministic discrete-event simulator;
  ``macro.json`` built from a sim run is byte-identical across
  same-seed invocations (the CI ``macro-smoke`` job ``cmp``'s two).
* ``runtime="native"`` — real OS threads, wall-clock time, the join
  deadline as deadlock guard.
* ``n_shards > 0`` (sim only) — pages route by stable hash to
  independent :class:`~repro.serve.shard.BufferShard` pools, the
  serving-layer flavor of the macro tier.

Because the workload mixes for-update fetches with long scans over a
pool smaller than the working set, a run exercises the paths no trace
workload touches: dirty-victim write-backs (``write_backs``) and
pin-blocked victim selection (``pinned_victim_skips``) are both
non-zero in the run summary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Generator, Iterator, List, Optional

from repro.core.bpwrapper import ThreadSlot
from repro.db.exec.context import (ExecContext, LiveExecContext,
                                   ShardedExecContext)
from repro.db.exec.executor import run_plan
from repro.db.transactions import TransactionLog, TransactionOutcome
from repro.control import SERVE_DEFAULTS, bp_kwargs, make_controller
from repro.errors import ConfigError
from repro.hardware.machines import ALTIX_350, MachineSpec
from repro.harness.experiment import _access_ordered_prefix
from repro.harness.systems import SystemBuild, build_system
from repro.runtime import thread_backend
from repro.simcore.rng import split_seed, stream_rng
from repro.sync.stats import LockStats
from repro.workloads.registry import make_workload

__all__ = ["MacroConfig", "MacroResult", "run_macro"]


@dataclass(frozen=True)
class MacroConfig:
    """Everything needed to reproduce one macro run."""

    system: str = "pgBat"
    workload: str = "tpcc_lite"
    workload_kwargs: dict = field(default_factory=dict)
    machine: MachineSpec = ALTIX_350
    n_processors: int = 4
    #: Back-end threads; None = 2x processors (overcommitted).
    n_threads: Optional[int] = None
    #: Buffer pool pages — deliberately defaulted *below* the
    #: tpcc_lite working set (~900 pages) so eviction, write-back and
    #: pinned-victim skipping actually happen.
    buffer_pages: int = 192
    prewarm: bool = True
    #: Stop once this many queries completed (checked at query
    #: boundaries).
    target_queries: int = 240
    #: Attach the disk model so misses pay reads and dirty victims pay
    #: write-backs.
    use_disk: bool = True
    background_writer: bool = False
    policy_name: Optional[str] = None
    queue_size: int = SERVE_DEFAULTS.queue_size
    batch_threshold: int = SERVE_DEFAULTS.batch_threshold
    #: Attach a control-plane controller ("threshold") to every pool
    #: (each shard gets its own instance); None = knobs stay fixed.
    controller: Optional[str] = None
    seed: int = 42
    #: Sim-time safety net; wall-clock join deadline under native.
    max_sim_time_us: float = 600_000_000.0
    runtime: str = "sim"
    #: 0 = one pool; > 0 = that many independent hash-routed shards
    #: (sim runtime only).
    n_shards: int = 0

    def with_params(self, **overrides) -> "MacroConfig":
        return replace(self, **overrides)

    def resolved_threads(self) -> int:
        if self.n_threads is not None:
            if self.n_threads < 1:
                raise ConfigError(
                    f"n_threads must be >= 1, got {self.n_threads}")
            return self.n_threads
        return 2 * self.n_processors


@dataclass(frozen=True)
class MacroResult:
    """Measurements from one macro run (whole run, no warm-up split)."""

    config: MacroConfig
    queries: int
    queries_by_kind: Dict[str, int]
    rows: int
    accesses: int
    hits: int
    misses: int
    hit_ratio: float
    evictions: int
    write_backs: int
    pinned_victim_skips: int
    stale_hit_retries: int
    absorbed_misses: int
    disk_reads: int
    disk_writes: int
    bgwriter_cleaned: int
    elapsed_us: float
    queries_per_sec: float
    mean_response_ms: float
    p95_response_ms: float
    lock_stats: LockStats
    #: op name -> {"accesses": n, "writes": n, "hits": n}, merged over
    #: every thread's context — the dashboard's per-operator breakdown.
    op_breakdown: Dict[str, Dict[str, int]]
    #: One controller summary per pool (shards in shard order), present
    #: only when ``config.controller`` was set; omitted from
    #: :meth:`to_dict` otherwise so existing records stay byte-stable.
    controllers: Optional[List[dict]] = None

    def summary(self) -> str:
        return (f"{self.config.system:9s} {self.config.workload:9s} "
                f"shards={self.config.n_shards} "
                f"qps={self.queries_per_sec:8.1f} "
                f"hit={self.hit_ratio:6.3f} "
                f"write_backs={self.write_backs:5d} "
                f"pin_skips={self.pinned_victim_skips:4d}")

    def to_dict(self) -> dict:
        """JSON-able record; deterministic under the sim runtime."""
        from dataclasses import asdict
        record = {
            "system": self.config.system,
            "workload": self.config.workload,
            "workload_kwargs": dict(self.config.workload_kwargs),
            "machine": self.config.machine.name,
            "runtime": self.config.runtime,
            "n_shards": self.config.n_shards,
            "n_processors": self.config.n_processors,
            "n_threads": self.config.resolved_threads(),
            "buffer_pages": self.config.buffer_pages,
            "target_queries": self.config.target_queries,
            "queue_size": self.config.queue_size,
            "batch_threshold": self.config.batch_threshold,
            "background_writer": self.config.background_writer,
            "seed": self.config.seed,
            "queries": self.queries,
            "queries_by_kind": dict(sorted(self.queries_by_kind.items())),
            "rows": self.rows,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 6),
            "evictions": self.evictions,
            "write_backs": self.write_backs,
            "pinned_victim_skips": self.pinned_victim_skips,
            "stale_hit_retries": self.stale_hit_retries,
            "absorbed_misses": self.absorbed_misses,
            "disk_reads": self.disk_reads,
            "disk_writes": self.disk_writes,
            "bgwriter_cleaned": self.bgwriter_cleaned,
            "elapsed_us": round(self.elapsed_us, 3),
            "queries_per_sec": round(self.queries_per_sec, 3),
            "mean_response_ms": round(self.mean_response_ms, 4),
            "p95_response_ms": round(self.p95_response_ms, 4),
            "lock": asdict(self.lock_stats),
            "op_breakdown": {name: dict(entry) for name, entry
                             in sorted(self.op_breakdown.items())},
        }
        if self.controllers is not None:
            record["controllers"] = self.controllers
        return record


def _query_body(runtime, thread, ctx: ExecContext, plans: Iterator,
                log: TransactionLog, shared: Dict[str, object],
                target_queries: int, user_work_us: float,
                quantum_us: float, stagger_us: float, work_rng,
                rows_box: List[int]) -> Generator[object, None, None]:
    """One back-end: pull plans, execute them, record outcomes."""
    if stagger_us > 0:
        yield from thread.sleep_blocked(stagger_us)
    for query in plans:
        if shared["stop"]:
            return
        started = runtime.now
        accesses_before = ctx.total_accesses
        hits_before = ctx.total_hits
        for root in query.statements:
            rows = yield from run_plan(root, ctx)
            rows_box[0] += rows
            # Tuple-processing CPU work, jittered ±25% like the trace
            # harness so the sim does not phase-lock.
            thread.charge(user_work_us * (1 + rows)
                          * work_rng.uniform(0.75, 1.25))
            yield from thread.maybe_yield(quantum_us)
        log.record(TransactionOutcome(
            kind=query.kind, started_at_us=started,
            finished_at_us=runtime.now,
            accesses=ctx.total_accesses - accesses_before,
            hits=ctx.total_hits - hits_before))
        shared["queries"] += 1
        if shared["queries"] >= target_queries:
            shared["stop"] = True
            return
        if query.think_time_us > 0:
            yield from thread.sleep_blocked(query.think_time_us)
        yield from thread.yield_cpu()


def _merge_breakdowns(contexts: List[ExecContext]
                      ) -> Dict[str, Dict[str, int]]:
    merged: Dict[str, Dict[str, int]] = {}
    for ctx in contexts:
        for name, entry in ctx.op_stats.items():
            into = merged.setdefault(
                name, {"accesses": 0, "writes": 0, "hits": 0})
            for key, value in entry.items():
                into[key] += value
    return merged


def _finalize(config: MacroConfig, log: TransactionLog, elapsed_us: float,
              contexts: List[ExecContext], stats, lock_stats: LockStats,
              evictions: int, disk, bgwriter, rows: int,
              controls=None) -> MacroResult:
    outcomes = log.outcomes
    kinds = Counter(outcome.kind for outcome in outcomes)
    if outcomes:
        ordered = sorted(o.response_time_us for o in outcomes)
        mean_us = sum(ordered) / len(ordered)
        rank = max(0, int(len(ordered) * 0.95 + 0.5) - 1)
        p95_us = ordered[min(rank, len(ordered) - 1)]
    else:
        mean_us = p95_us = 0.0
    qps = (len(outcomes) / (elapsed_us / 1e6)) if elapsed_us > 0 else 0.0
    return MacroResult(
        config=config,
        queries=len(outcomes),
        queries_by_kind=dict(kinds),
        rows=rows,
        accesses=stats["accesses"],
        hits=stats["hits"],
        misses=stats["misses"],
        hit_ratio=(stats["hits"] / stats["accesses"]
                   if stats["accesses"] else 0.0),
        evictions=evictions,
        write_backs=stats["write_backs"],
        pinned_victim_skips=stats["pinned_victim_skips"],
        stale_hit_retries=stats["stale_hit_retries"],
        absorbed_misses=stats["absorbed_misses"],
        disk_reads=disk.reads if disk is not None else 0,
        disk_writes=disk.writes if disk is not None else 0,
        bgwriter_cleaned=bgwriter.pages_cleaned if bgwriter else 0,
        elapsed_us=elapsed_us,
        queries_per_sec=qps,
        mean_response_ms=mean_us / 1000.0,
        p95_response_ms=p95_us / 1000.0,
        lock_stats=lock_stats,
        op_breakdown=_merge_breakdowns(contexts),
        controllers=([dict(c.controller.to_dict(),
                           batch_threshold=c.batch_threshold)
                      for c in controls] if controls else None),
    )


def _sum_stats(managers) -> dict:
    totals = {"accesses": 0, "hits": 0, "misses": 0, "write_backs": 0,
              "pinned_victim_skips": 0, "stale_hit_retries": 0,
              "absorbed_misses": 0}
    evictions = 0
    for manager in managers:
        stats = manager.stats
        totals["accesses"] += stats.accesses
        totals["hits"] += stats.hits
        totals["misses"] += stats.misses
        totals["write_backs"] += stats.write_backs
        totals["pinned_victim_skips"] += stats.pinned_victim_skips
        totals["stale_hit_retries"] += stats.stale_hit_retries
        totals["absorbed_misses"] += stats.absorbed_misses
        evictions += stats.evictions
    return {**totals, "evictions": evictions}


def run_macro(config: MacroConfig, workload=None) -> MacroResult:
    """Execute one macro configuration and return its measurements.

    The sim and native runtimes share this body over the thread
    backend :func:`repro.runtime.thread_backend` picks; sharded runs
    are sim-only.
    """
    if config.runtime not in ("sim", "native"):
        raise ConfigError(
            f"unknown runtime {config.runtime!r}; available: sim, native")
    if config.n_shards < 0:
        raise ConfigError(f"n_shards must be >= 0, got {config.n_shards}")
    if config.n_shards and config.runtime != "sim":
        raise ConfigError(
            "sharded macro runs are sim-only; drop n_shards or use "
            "runtime='sim'")
    if workload is None:
        workload = make_workload(config.workload, seed=config.seed,
                                 **config.workload_kwargs)
    if not hasattr(workload, "plan_stream"):
        raise ConfigError(
            f"workload {config.workload!r} has no plan_stream(); the "
            "macro tier needs a query-plan workload (e.g. tpcc_lite)")
    backend = thread_backend(config)
    runtime = backend.runtime
    machine = config.machine
    disk = None
    if config.use_disk:
        disk = backend.disk_class(runtime, machine.costs.disk_read_us,
                                  machine.costs.disk_concurrency,
                                  seed=config.seed)

    shards: List = []
    managers: List = []
    controls: List = []
    if config.n_shards:
        from repro.serve.shard import BufferShard, shard_of
        per_shard = max(16, config.buffer_pages // config.n_shards)
        for shard_id in range(config.n_shards):
            shard = BufferShard(runtime, shard_id, config.system,
                                per_shard, machine, **bp_kwargs(config),
                                disk=disk)
            if config.controller:
                # Per-shard controller instances: each pool adapts to
                # its own slice's contention independently.
                shard.control.controller = make_controller(
                    config.controller)
                controls.append(shard.control)
            shards.append(shard)
            managers.append(shard.manager)
        if config.prewarm:
            prefix = _access_ordered_prefix(workload,
                                            config.buffer_pages)
            for shard_id, shard in enumerate(shards):
                routed = [page for page in prefix
                          if shard_of(page, config.n_shards) == shard_id]
                shard.warm_with(routed[:per_shard])
        build = None
    else:
        build: SystemBuild = build_system(
            config.system, runtime, config.buffer_pages, machine,
            **bp_kwargs(config), disk=disk)
        if config.controller:
            build.control.controller = make_controller(config.controller)
            controls.append(build.control)
        backend.prepare(build)
        managers.append(build.manager)
        if config.prewarm:
            build.manager.warm_with(
                _access_ordered_prefix(workload, config.buffer_pages))

    pool = backend.create_pool(config.n_processors,
                               machine.costs.context_switch_us)
    log = TransactionLog()
    shared: Dict[str, object] = {"stop": False, "queries": 0}
    bgwriter = None
    daemons = []
    if config.background_writer and disk is not None and build is not None:
        from repro.bufmgr.bgwriter import BackgroundWriter
        bg_thread = backend.create_thread(
            pool, name="bgwriter",
            seed=split_seed(config.seed, "macro-bgwriter", 0))
        bgwriter = BackgroundWriter(runtime, build.manager,
                                    thread=bg_thread, shared_stop=shared)
        bgwriter.start()
        daemons.append((bg_thread, bgwriter.interval_us))
    n_threads = config.resolved_threads()
    stagger_window = machine.costs.user_work_us * max(8, config.queue_size)
    contexts: List[ExecContext] = []
    threads = []
    rows_box = [0]
    for index in range(n_threads):
        thread = backend.create_thread(
            pool, name=f"backend-{index}",
            seed=split_seed(config.seed, "macro-native", index))
        if shards:
            slots = [ThreadSlot(thread, thread_id=index,
                                queue_size=config.queue_size)
                     for _ in shards]
            ctx: ExecContext = ShardedExecContext(slots, shards)
        else:
            slot = ThreadSlot(thread, thread_id=index,
                              queue_size=config.queue_size)
            ctx = LiveExecContext(slot, build.manager)
        contexts.append(ctx)
        threads.append(thread)
        stagger_rng = stream_rng(config.seed, "macro-stagger", index)
        body = _query_body(
            runtime, thread, ctx, workload.plan_stream(index), log,
            shared, config.target_queries, machine.costs.user_work_us,
            machine.costs.scheduler_quantum_us,
            stagger_us=stagger_rng.uniform(0.0, stagger_window),
            work_rng=stream_rng(config.seed, "macro-work", index),
            rows_box=rows_box)
        thread.start(body)
    elapsed_us = backend.run(threads, daemons, shared)

    if shards:
        lock_stats = LockStats()
        for shard in shards:
            lock_stats = lock_stats.merged_with(shard.lock_stats())
    else:
        merged = getattr(build.handler, "merged_lock_stats", None)
        lock_stats = merged() if callable(merged) else build.lock.stats
    totals = _sum_stats(managers)
    evictions = totals.pop("evictions")
    return _finalize(config, log, elapsed_us, contexts, totals, lock_stats,
                     evictions, disk, bgwriter, rows_box[0],
                     controls=controls)
