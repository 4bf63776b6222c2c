"""Tuning-sweep tests: Fig. 8 golden sweep, adapter convergence, the
tune record's structure. Same-seed byte identity of the ``cli tune``
record across processes is in ``test_artifact_determinism.py``."""

from __future__ import annotations

import json

import pytest

from repro.control.tune import (TuneConfig, adapter_probe, adaptive_probe,
                                pool_capacity, run_tune, static_best,
                                sweep_grid)
from repro.errors import ConfigError
from repro.workloads.registry import make_workload

#: The validated Fig. 8 regime: eviction pressure (pool = ws/4) makes
#: the miss path exercise the blocking lock, so contention falls
#: monotonically as the threshold rises.
FIG8 = TuneConfig(workload="dbt1", thresholds=(1, 8, 32, 64),
                  queue_sizes=(128,), prefetch=(False,),
                  n_processors=16, target_accesses=4_000,
                  buffer_fraction=0.25, seed=42)

#: Small grid for the fast structure tests.
SMALL = TuneConfig(workload="dbt1", thresholds=(1, 8), queue_sizes=(32,),
                   prefetch=(False,), n_processors=4,
                   target_accesses=800, seed=7,
                   adaptive_workloads=("tablescan", "dbt1"))


@pytest.fixture(scope="module")
def fig8_sweep():
    workload = make_workload(FIG8.workload, seed=FIG8.seed)
    cells = sweep_grid(FIG8, workload=workload)
    best = static_best(cells)
    adapter = adapter_probe(FIG8, best, workload=workload)
    return cells, best, adapter


@pytest.fixture(scope="module")
def adaptive_records():
    return adaptive_probe(FIG8)


class TestTuneConfig:
    def test_defaults_validate(self):
        TuneConfig().validate()

    def test_needs_axes(self):
        with pytest.raises(ConfigError):
            TuneConfig(thresholds=()).validate()
        with pytest.raises(ConfigError):
            TuneConfig(queue_sizes=()).validate()

    def test_thresholds_must_fit_every_queue(self):
        with pytest.raises(ConfigError):
            TuneConfig(thresholds=(1, 64), queue_sizes=(32,)).validate()
        with pytest.raises(ConfigError):
            TuneConfig(thresholds=(0, 8)).validate()

    def test_adaptive_comparison_needs_two_workloads(self):
        with pytest.raises(ConfigError):
            TuneConfig(adaptive_workloads=("dbt1",)).validate()

    def test_buffer_fraction_bounds(self):
        with pytest.raises(ConfigError):
            TuneConfig(buffer_fraction=0.0).validate()
        with pytest.raises(ConfigError):
            TuneConfig(buffer_fraction=1.5).validate()
        # An explicit pool size makes the fraction irrelevant.
        TuneConfig(buffer_pages=256, buffer_fraction=9.0).validate()

    def test_with_params(self):
        assert SMALL.with_params(seed=9).seed == 9

    def test_pool_capacity(self):
        workload = make_workload("dbt1", seed=7)
        working_set = len(workload.working_set_pages())
        assert pool_capacity(TuneConfig(buffer_pages=512),
                             workload) == 512
        fraction = pool_capacity(TuneConfig(buffer_fraction=0.25),
                                 workload)
        assert fraction == max(64, working_set // 4)


class TestStaticBest:
    def test_grid_order_breaks_ties(self):
        cells = [{"throughput_tps": 10.0, "batch_threshold": 1},
                 {"throughput_tps": 10.0, "batch_threshold": 8},
                 {"throughput_tps": 9.0, "batch_threshold": 32}]
        assert static_best(cells) is cells[0]

    def test_picks_maximum(self):
        cells = [{"throughput_tps": 1.0}, {"throughput_tps": 3.0},
                 {"throughput_tps": 2.0}]
        assert static_best(cells) is cells[1]


class TestFig8GoldenSweep:
    """Satellite: the paper's threshold-sensitivity shape, locked."""

    def test_grid_covers_every_cell(self, fig8_sweep):
        cells, _, _ = fig8_sweep
        assert [cell["batch_threshold"] for cell in cells] == [1, 8, 32, 64]
        assert all(cell["system"] == "pgBat" for cell in cells)
        assert all(cell["queue_size"] == 128 for cell in cells)

    def test_contention_monotonically_non_increasing(self, fig8_sweep):
        cells, _, _ = fig8_sweep
        rates = [cell["contention_rate"] for cell in cells]
        per_million = [cell["contention_per_million"] for cell in cells]
        assert rates == sorted(rates, reverse=True)
        assert per_million == sorted(per_million, reverse=True)
        # The sweep is only meaningful under real contention.
        assert rates[0] > rates[-1] > 0.0

    def test_batching_amortization_visible(self, fig8_sweep):
        cells, _, _ = fig8_sweep
        # Larger thresholds commit bigger batches...
        batches = [cell["mean_batch_size"] for cell in cells]
        assert batches == sorted(batches)
        # ...and the paper's claim: batching must not hurt hit ratios.
        # (Thread interleavings shift with the commit cadence, so the
        # measured window wobbles a little; the band stays tight.)
        ratios = [cell["hit_ratio"] for cell in cells]
        assert max(ratios) - min(ratios) < 0.05

    def test_byte_deterministic_cell(self, fig8_sweep):
        cells, _, _ = fig8_sweep
        workload = make_workload(FIG8.workload, seed=FIG8.seed)
        rerun = sweep_grid(FIG8.with_params(thresholds=(8,)),
                           workload=workload)[0]
        assert json.dumps(rerun, sort_keys=True) == \
            json.dumps(cells[1], sort_keys=True)


class TestAdapterConvergence:
    """Acceptance: the online adapter lands within 10% of static-best."""

    def test_walks_up_from_the_worst_threshold(self, fig8_sweep):
        _, _, adapter = fig8_sweep
        assert adapter["start_threshold"] == 1
        assert adapter["batch_threshold"] > adapter["start_threshold"]
        assert adapter["controller"]["controller"] == "threshold"
        assert adapter["controller"]["decisions"] >= 1

    def test_within_ten_percent_of_static_best(self, fig8_sweep):
        _, best, adapter = fig8_sweep
        assert adapter["fraction_of_best"] >= 0.9
        assert adapter["throughput_tps"] <= best["throughput_tps"] * 1.01


class TestRunTuneRecord:
    def test_record_structure(self):
        record = run_tune(SMALL)
        assert set(record) == {"workload", "n_processors",
                               "target_accesses", "buffer_pages", "seed",
                               "thresholds", "queue_sizes", "prefetch",
                               "grid", "static_best", "adapter",
                               "adaptive"}
        assert len(record["grid"]) == 2
        assert record["static_best"] in record["grid"]
        assert record["adapter"]["fraction_of_best"] > 0.0
        assert len(record["adaptive"]) == 2
        for entry in record["adaptive"]:
            assert set(entry["hit_ratios"]) == {"adaptive", "lru", "lfu"}
            assert entry["ok"]

    def test_invalid_config_rejected_before_any_run(self):
        with pytest.raises(ConfigError):
            run_tune(SMALL.with_params(thresholds=(64,),
                                       queue_sizes=(32,)))


class TestAdaptiveProbe:
    """Acceptance: adaptive >= min(experts) on >= 2 workloads."""

    def test_adaptive_never_below_floor(self, adaptive_records):
        records = adaptive_records
        assert len(records) >= 2
        for entry in records:
            assert entry["ok"], entry
            assert entry["hit_ratios"]["adaptive"] >= entry["floor"] - 1e-9

    def test_experts_separate_on_tablescan(self, adaptive_records):
        tablescan = next(entry for entry in adaptive_records
                         if entry["workload"] == "tablescan")
        ratios = tablescan["hit_ratios"]
        assert abs(ratios["lru"] - ratios["lfu"]) > 0.01
        # Adaptive tracks the better expert, not just the floor.
        assert ratios["adaptive"] >= max(ratios["lru"],
                                         ratios["lfu"]) - 0.05
