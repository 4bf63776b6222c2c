"""Observability layer: tracing, metrics, and the zero-cost guarantee.

Three properties are load-bearing enough to pin down here:

* the Chrome trace export is schema-valid and **byte-identical** across
  runs with the same seed (the export may land in dashboards/CI
  artifacts — nondeterminism there poisons diffing);
* histogram bucket counts always sum to the observation count, and the
  hold-time histogram's count equals the lock's acquisition count;
* with no observer attached the simulator's behaviour — results,
  timestamps, allocations on the spend fast path — is exactly the
  uninstrumented engine's.
"""

import json

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.obs import Histogram, MetricsRegistry, Observer, TraceRecorder
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.cpu import _NO_EVENTS
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock
from repro.sync.stats import LockStats

#: A tiny but contended configuration: the direct per-hit lock on 8
#: processors produces waits, holds, and context switches in a run
#: that takes well under a second.
_SMALL = ExperimentConfig(system="pg2Q", workload="tablescan",
                          workload_kwargs={"n_tables": 4,
                                           "pages_per_table": 50},
                          n_processors=8, n_threads=8,
                          target_accesses=3_000, seed=7)


def _observed_run(config=_SMALL, ring_capacity=None):
    observer = Observer(trace=TraceRecorder(ring_capacity=ring_capacity),
                        metrics=MetricsRegistry())
    result = run_experiment(config, observer=observer)
    return observer, result


class TestHistogram:
    def test_bucket_counts_sum_to_count(self):
        hist = Histogram()
        values = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 100.0, 1e6, 1e30, -1.0]
        for value in values:
            hist.record(value)
        assert sum(hist.bucket_counts()) == hist.count == len(values)

    def test_bucket_edges(self):
        hist = Histogram()
        hist.record(1.0)    # bucket 0: [0, 1]
        hist.record(2.0)    # bucket 1: (1, 2]
        hist.record(2.001)  # bucket 2: (2, 4]
        counts = hist.bucket_counts()
        assert counts[0] == 1 and counts[1] == 1 and counts[2] == 1

    def test_overflow_clamps_to_last_bucket(self):
        hist = Histogram()
        hist.record(float("inf"))
        assert hist.bucket_counts()[-1] == 1
        assert sum(hist.bucket_counts()) == 1

    def test_percentile_upper_bound(self):
        hist = Histogram()
        for _ in range(99):
            hist.record(1.5)      # bucket 1, upper bound 2
        hist.record(1000.0)       # bucket 10, upper bound 1024
        assert hist.percentile(0.5) == 2.0
        assert hist.percentile(0.99) == 2.0
        assert hist.percentile(1.0) == 1024.0

    def test_percentile_validates_fraction(self):
        with pytest.raises(ValueError):
            Histogram().percentile(0.0)
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_mean_and_extrema(self):
        hist = Histogram()
        hist.record(2.0)
        hist.record(4.0)
        assert hist.mean() == pytest.approx(3.0)
        assert hist.min_value == 2.0 and hist.max_value == 4.0

    def test_to_dict_sparse_buckets(self):
        hist = Histogram()
        hist.record(3.0)
        record = hist.to_dict()
        assert record["count"] == 1
        assert record["buckets"] == {"2": 1}


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is registry.gauge("g")

    def test_gauge_tracks_peak(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1 and gauge.max_value == 3

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").record(5.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["histograms"]["h"]["count"] == 1
        assert json.loads(json.dumps(snap)) == snap  # JSON-clean


class TestLockInstrumentation:
    def _contended_sim(self, observer):
        sim = Simulator()
        sim.observer = observer
        pool = ProcessorPool(sim, 2, context_switch_us=1.0)
        lock = SimLock(sim, name="L", grant_cost_us=0.1)

        def body(thread):
            for _ in range(10):
                yield from lock.acquire(thread)
                yield from thread.run_for(5.0)
                lock.release(thread)

        for index in range(4):
            thread = CpuBoundThread(pool, name=f"t{index}")
            thread.start(body(thread))
        sim.run()
        return lock

    def test_hold_histogram_matches_acquisitions(self):
        observer = Observer(metrics=MetricsRegistry())
        lock = self._contended_sim(observer)
        hold = observer.metrics.histogram("lock.L.hold_us")
        assert hold.count == lock.stats.acquisitions == 40
        assert sum(hold.bucket_counts()) == hold.count

    def test_wait_histogram_matches_contentions(self):
        observer = Observer(metrics=MetricsRegistry())
        lock = self._contended_sim(observer)
        wait = observer.metrics.histogram("lock.L.wait_us")
        assert wait.count == lock.stats.contentions > 0

    def test_trace_spans_cover_hold_time(self):
        observer = Observer(trace=TraceRecorder())
        lock = self._contended_sim(observer)
        totals = observer.trace.aggregate_spans()
        holds = totals[("lock", "hold:L")]
        assert holds["count"] == lock.stats.acquisitions
        assert holds["total_us"] == pytest.approx(
            lock.stats.total_hold_us)


class TestChromeExport:
    def test_schema_valid(self):
        observer, _ = _observed_run()
        document = observer.trace.to_chrome()
        events = document["traceEvents"]
        assert events, "an observed contended run must produce events"
        tids = set()
        for event in events:
            assert event["ph"] in ("M", "X", "i", "C")
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)
            tids.add(event["tid"])
            if event["ph"] == "M":
                assert event["name"] == "thread_name"
                continue
            assert isinstance(event["ts"], float)
            assert event["ts"] >= 0.0
            assert event["name"] and event["cat"]
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] == "i":
                assert event["s"] == "t"
        named = {e["tid"] for e in events if e["ph"] == "M"}
        assert named == tids  # every timeline row is labelled

    def test_export_deterministic_across_runs(self):
        first, _ = _observed_run()
        second, _ = _observed_run()
        assert first.trace.to_json() == second.trace.to_json()

    def test_expected_span_kinds_present(self):
        observer, _ = _observed_run()
        kinds = set(observer.trace.aggregate_spans())
        assert ("lock", "hold:replacement-pg2Q") in kinds
        assert ("lock", "wait:replacement-pg2Q") in kinds
        assert ("sched", "blocked") in kinds

    def test_batched_system_records_batch_commits(self):
        observer, result = _observed_run(
            _SMALL.with_params(system="pgBatPre"))
        kinds = observer.trace.aggregate_spans()
        assert ("bpwrapper", "batch-commit") in kinds
        snap = result.metrics
        batch_histograms = [name for name in snap["histograms"]
                            if ".batch_size" in name]
        assert batch_histograms, "per-thread batch-size distributions"
        total = sum(snap["histograms"][name]["count"]
                    for name in batch_histograms)
        assert total == kinds[("bpwrapper", "batch-commit")]["count"]


class TestRingBuffer:
    def test_caps_memory_and_counts_drops(self):
        recorder = TraceRecorder(ring_capacity=100)
        for index in range(250):
            recorder.instant(f"e{index}", "test", "t0", float(index))
        assert len(recorder) == 100
        assert recorder.dropped == 150
        # The newest records survive.
        document = recorder.to_chrome()
        names = [e["name"] for e in document["traceEvents"]
                 if e["ph"] == "i"]
        assert names[0] == "e150" and names[-1] == "e249"
        assert document["otherData"]["dropped_records"] == 150

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(ring_capacity=0)


class TestZeroCostWhenDisabled:
    def test_simulator_observer_defaults_to_none(self):
        assert Simulator().observer is None

    def test_spend_fast_path_allocates_nothing(self):
        sim = Simulator()
        pool = ProcessorPool(sim, 1, context_switch_us=0.0)
        thread = CpuBoundThread(pool, name="t")
        # Zero-charge spend returns the shared module-level empty tuple
        # — same object every call, no allocation, no trace record.
        assert thread.spend() is _NO_EVENTS
        assert thread.spend() is _NO_EVENTS

    def test_disabled_run_records_nothing(self):
        # A recorder that exists but is not attached sees zero records.
        recorder = TraceRecorder()
        run_experiment(_SMALL)
        assert len(recorder) == 0 and recorder.dropped == 0

    def test_observed_run_equals_unobserved_run(self):
        _, observed = _observed_run()
        unobserved = run_experiment(_SMALL)
        observed_record = observed.to_dict()
        assert observed_record.pop("metrics") is not None
        assert unobserved.to_dict() == observed_record

    def test_observer_requires_a_sink(self):
        with pytest.raises(ValueError):
            Observer()


class TestWindowMaxHold:
    def test_delta_reports_window_max_not_lifetime_max(self):
        stats = LockStats()
        # Warm-up: one pathological 500µs hold.
        stats.acquisitions += 1
        stats.total_hold_us += 500.0
        stats.max_hold_us = 500.0
        stats.window_max_hold_us = 500.0
        snapshot = stats.copy()
        stats.begin_window()
        # Measured window: only 10µs holds.
        stats.acquisitions += 2
        stats.total_hold_us += 20.0
        stats.window_max_hold_us = 10.0
        delta = stats.delta_since(snapshot)
        assert delta.max_hold_us == 10.0
        assert stats.max_hold_us == 500.0  # lifetime max untouched

    def test_simlock_maintains_window_max(self):
        sim = Simulator()
        pool = ProcessorPool(sim, 1, context_switch_us=0.0)
        lock = SimLock(sim, name="L")
        thread = CpuBoundThread(pool, name="t")

        def body():
            yield from lock.acquire(thread)
            yield from thread.run_for(100.0)
            lock.release(thread)
            lock.stats.begin_window()
            yield from lock.acquire(thread)
            yield from thread.run_for(5.0)
            lock.release(thread)

        thread.start(body())
        sim.run()
        assert lock.stats.max_hold_us >= 100.0
        assert lock.stats.window_max_hold_us == pytest.approx(5.0)

    def test_merged_with_merges_window_max(self):
        a = LockStats(window_max_hold_us=3.0)
        b = LockStats(window_max_hold_us=8.0)
        assert a.merged_with(b).window_max_hold_us == 8.0

    def test_experiment_excludes_warmup_max(self):
        # With a warm-up window configured, the reported max hold must
        # be achievable within the measured window (<= lifetime max and
        # derived from post-warm-up holds only).
        result = run_experiment(_SMALL.with_params(warmup_fraction=0.3))
        assert result.lock_stats.max_hold_us > 0.0
        assert (result.lock_stats.max_hold_us
                <= result.lock_stats.total_hold_us)


class TestFlameSummary:
    def test_lists_top_span_kinds(self):
        observer, _ = _observed_run()
        summary = observer.trace.flame_summary(top=5)
        assert "hold:replacement-pg2Q" in summary
        assert "total_us" in summary

    def test_empty_trace(self):
        assert "no spans" in TraceRecorder().flame_summary()


class TestTraceCli:
    def test_trace_subcommand_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["trace", "--system", "pg2Q",
                         "--workload", "tablescan",
                         "--processors", "8",
                         "--accesses", "2000", "--seed", "7",
                         "--out", str(out)]) == 0
        trace_path = out / "trace.json"
        assert trace_path.exists()
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        assert (out / "trace_metrics.json").exists()
        assert (out / "trace_summary.txt").exists()
        printed = capsys.readouterr().out
        assert "trace records" in printed
        assert "hold:" in printed

    def test_trace_ring_flag(self, tmp_path):
        out = tmp_path / "ring"
        assert cli_main(["trace", "--system", "pg2Q",
                         "--workload", "tablescan",
                         "--processors", "8",
                         "--accesses", "2000", "--ring", "64",
                         "--out", str(out)]) == 0
        document = json.loads((out / "trace.json").read_text())
        non_meta = [e for e in document["traceEvents"]
                    if e["ph"] != "M"]
        assert len(non_meta) == 64
        assert document["otherData"]["dropped_records"] > 0


class TestCounterGuard:
    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc(3)
        with pytest.raises(ValueError, match="monotonic"):
            counter.inc(-1)
        # The failed call must not have moved the counter.
        assert counter.value == 3

    def test_zero_increment_allowed(self):
        counter = MetricsRegistry().counter("events")
        counter.inc(0)
        assert counter.value == 0


class TestSnapshotOrdering:
    """The sorted-key guarantee `MetricsRegistry.snapshot` documents."""

    def test_snapshot_keys_sorted_regardless_of_creation_order(self):
        registry = MetricsRegistry()
        for name in ["zeta", "alpha", "mid"]:
            registry.counter(f"c.{name}").inc(1)
            registry.gauge(f"g.{name}").set(1.0)
            registry.histogram(f"h.{name}").record(1.0)
        snapshot = registry.snapshot()
        for family in ("counters", "gauges", "histograms"):
            keys = list(snapshot[family])
            assert keys == sorted(keys)

    def test_snapshot_json_is_byte_stable(self):
        def build(order):
            registry = MetricsRegistry()
            for name in order:
                registry.counter(name).inc(2)
            return json.dumps(registry.snapshot(), sort_keys=True)

        assert build(["b", "a", "c"]) == build(["c", "b", "a"])
