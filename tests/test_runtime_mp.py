"""The ``mp`` backend: correctness of the shared-memory process runs.

Wall-clock *numbers* from :mod:`repro.runtime.mp` are host-dependent
by design, so these tests assert what is invariant on any machine:
conservation laws (hits + misses = accesses), the per-system lock
disciplines (pg2Q locks every hit, pgBat locks once per batch,
pgclock never locks a hit), configuration rejections, and the record
round-trip. Worker counts stay at 1-2 so the suite is container-sized.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.harness.experiment import (ExperimentConfig, RunResult,
                                      run_experiment)


def _run(system: str, workers: int = 2, **overrides) -> RunResult:
    params = dict(system=system, workload="tablescan", runtime="mp",
                  n_processors=workers, target_accesses=8_000,
                  warmup_fraction=0.0, seed=23,
                  max_sim_time_us=120_000_000.0)
    params.update(overrides)
    return run_experiment(ExperimentConfig(**params))


def test_prewarmed_run_is_miss_free_and_conserves_counts():
    result = _run("pgBat")
    assert result.misses == 0
    assert result.hit_ratio == 1.0
    assert result.hits == result.accesses
    assert result.accesses >= 8_000 - 2  # per-worker integer quotas
    assert result.transactions > 0
    assert result.throughput_tps > 0
    assert result.elapsed_us > 0


def test_pg2q_locks_every_hit():
    result = _run("pg2Q")
    stats = result.lock_stats
    # One blocking request per access (hit or miss), no TryLock at all.
    assert stats.requests == result.accesses
    assert stats.acquisitions == stats.requests
    assert stats.try_attempts == 0
    assert stats.total_hold_us > 0


def test_pgbat_amortizes_the_lock():
    result = _run("pgBat", queue_size=64, batch_threshold=32)
    stats = result.lock_stats
    # Batching: at most one acquisition per threshold-sized batch
    # (plus the final flush per worker), never one per access.
    assert 0 < stats.acquisitions <= result.accesses // 32 + 4
    assert stats.try_attempts > 0
    assert result.mean_batch_size >= 32 * 0.9
    assert result.stale_queue_entries == 0  # miss-free: nothing staled


def test_pgclock_hits_are_lock_free():
    result = _run("pgclock")
    assert result.misses == 0
    assert result.lock_stats.requests == 0
    assert result.lock_stats.try_attempts == 0
    assert result.contention_per_million == 0.0


@pytest.mark.parametrize("system", ["pgBat", "pgclock"])
def test_eviction_path_conserves_counts(system):
    result = _run(system, workload="dbt2", buffer_pages=250,
                  target_accesses=6_000, seed=31)
    assert result.misses > 0
    assert result.hits + result.misses == result.accesses
    assert 0.0 < result.hit_ratio < 1.0
    # Every miss took the replacement lock.
    assert result.lock_stats.acquisitions >= result.misses


def test_single_worker_runs():
    result = _run("pgBatPre", workers=1)
    assert result.accesses >= 8_000
    assert result.lock_stats.contentions == 0  # nobody to contend with
    assert result.cpu_utilization > 0


def test_record_round_trip_preserves_runtime():
    result = _run("pgBat", target_accesses=2_000)
    record = result.to_dict()
    assert record["runtime"] == "mp"
    rebuilt = RunResult.from_dict(record)
    assert rebuilt.to_dict() == record


@pytest.mark.parametrize("overrides, match", [
    (dict(use_disk=True), "in-memory scaling engine"),
    (dict(use_disk=True, background_writer=True),
     "in-memory scaling engine"),
    (dict(system="pgPre"), "no mp hot path"),
    (dict(system="pgLock"), "no mp hot path"),
    (dict(simulate_bucket_locks=True), "simulator ablation"),
    (dict(policy_name="lirs"), "policy_name cannot be swapped"),
    (dict(n_processors=0), ">= 1 worker"),
    (dict(policy_name="2q"), "policy_name cannot be swapped"),
    (dict(policy_name="clock"), "policy_name cannot be swapped"),
])
def test_unsupported_configs_are_rejected(overrides, match):
    params = dict(system="pgBat", workload="tablescan", runtime="mp",
                  n_processors=2, target_accesses=1_000)
    params.update(overrides)
    with pytest.raises(ConfigError, match=match):
        run_experiment(ExperimentConfig(**params))


def test_observer_and_checker_are_rejected():
    config = ExperimentConfig(system="pgBat", runtime="mp",
                              n_processors=1, target_accesses=1_000)
    with pytest.raises(ConfigError, match="observability layer"):
        run_experiment(config, observer=object())
    with pytest.raises(ConfigError, match="correctness checker"):
        run_experiment(config, checker=object())


def test_trace_bearing_observer_is_rejected():
    from repro.obs import MetricsRegistry, Observer, TraceRecorder

    config = ExperimentConfig(system="pgBat", runtime="mp",
                              n_processors=1, target_accesses=1_000)
    observer = Observer(trace=TraceRecorder(), metrics=MetricsRegistry())
    with pytest.raises(ConfigError, match="metrics-only"):
        run_experiment(config, observer=observer)


def test_metrics_only_observer_merges_worker_snapshots():
    """Cross-process aggregation: the merged per-worker registries
    must account for every access of the run — the histogram counts
    sum to the global access count, worker by worker."""
    from repro.obs import MetricsRegistry, Observer

    observer = Observer(metrics=MetricsRegistry())
    config = ExperimentConfig(
        system="pgBat", workload="tablescan", runtime="mp",
        n_processors=2, target_accesses=4_000, warmup_fraction=0.0,
        seed=23, max_sim_time_us=120_000_000.0)
    result = run_experiment(config, observer=observer)
    snapshot = result.metrics
    assert snapshot is not None
    assert snapshot["counters"]["mp.workers"] == 2
    assert snapshot["counters"]["mp.transactions"] == result.transactions
    access_hist = snapshot["histograms"]["mp.access_us"]
    assert access_hist["count"] == result.accesses
    assert sum(access_hist["buckets"].values()) == result.accesses
    # The live registry holds the same merged state as the record.
    assert observer.metrics.snapshot() == snapshot


def test_scaling_record_and_page_shape(tmp_path):
    """bench_scaling's record drives the dashboard page deterministically."""
    import json
    import subprocess
    import sys
    import pathlib

    repo = pathlib.Path(__file__).resolve().parent.parent
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(repo / "benchmarks" / "bench_scaling.py"),
         "--workers", "1", "--systems", "pgBat", "--accesses", "2000",
         "--out", str(out), "--baseline", str(tmp_path / "traj.json")],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    record = json.loads((out / "BENCH_scaling.json").read_text())
    assert record["cells"][0]["system"] == "pgBat"
    assert record["cells"][0]["events_per_sec"] > 0
    html = (out / "scaling.html").read_text()
    assert "Access rate scaling" in html and "<svg" in html
    trajectory = json.loads((tmp_path / "traj.json").read_text())
    entry = trajectory["history"][-1]["metrics"]
    assert "wall.scaling.pgBat.1w" in entry

    from repro.harness.dashboard import render_scaling_page
    assert render_scaling_page(record) == render_scaling_page(record)


def test_wall_scaling_tolerance_class():
    """wall.scaling.* metrics gate at 25% by default, wall.* at 15%."""
    from repro.obs.baseline import compare_baseline, default_tolerance

    assert default_tolerance("wall.scaling.pgBat.2w", "wall") == 0.25
    assert default_tolerance("wall.engine_events_per_sec", "wall") == 0.15
    assert default_tolerance("sim.pg2Q.tps", "sim") == 0.05

    baseline = {"metrics": {
        "wall.scaling.pgBat.2w": {"value": 100.0, "kind": "wall",
                                  "direction": "higher", "unit": ""},
        "wall.engine_events_per_sec": {"value": 100.0, "kind": "wall",
                                       "direction": "higher", "unit": ""},
    }}
    # A 20% drop: inside the scaling class's 25%, outside plain wall's
    # 15%.
    current = {
        "wall.scaling.pgBat.2w": {"value": 80.0, "kind": "wall"},
        "wall.engine_events_per_sec": {"value": 80.0, "kind": "wall"},
    }
    diff = compare_baseline(baseline, current)
    assert diff.regressions == ["wall.engine_events_per_sec"]
