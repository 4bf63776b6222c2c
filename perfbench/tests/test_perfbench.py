"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import suite  # noqa: E402
from layers import LAYERS, Attribution, layer_of  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = 0.01


@pytest.fixture(autouse=True)
def _scratch_tempdir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


def _expected(kind: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in SPEC[kind]}


def test_spec_names_and_units_are_valid():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for name, unit in _expected(kind).items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    per_layer = _expected("per_layer")
    for layer in LAYERS:
        assert f"{layer}.self_us_per_access" in per_layer
        assert f"{layer}.calls_per_access" in per_layer


@pytest.mark.parametrize("workload", list(suite.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    result = run.measure(workload, seed=3, seconds=0.05, trace=trace,
                         scale=TINY)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = _expected("per_layer" if trace else "end_to_end")
    got = result["metrics"]
    assert set(got) == set(expected)
    for name, metric in got.items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in got.values())


def _digest_line(result) -> str:
    return next(line for line in result["report"]
                if line.startswith("digest "))


def test_traced_run_keeps_the_sim_digest():
    plain = run.measure("sim-contended", seed=5, seconds=0.05,
                        trace=False, scale=TINY)
    traced = run.measure("sim-contended", seed=5, seconds=0.05,
                         trace=True, scale=TINY)
    assert plain["correct"] and traced["correct"]
    assert _digest_line(plain) == _digest_line(traced)


def _record(name: str) -> dict:
    workload = suite.WORKLOADS[name]
    outcome = workload.run(workload.config(7, TINY), workload.make(7))
    return dict(outcome.record)


@pytest.mark.parametrize("name, field, delta", [
    ("sim-contended", "hits", 1),
    ("sim-contended", "misses", 1),
    ("sim-contended", "total_accesses", -10**6),
    ("macro-evict", "hits", -1),
    ("macro-evict", "disk_writes", 1),
    ("macro-evict", "queries", -10**6),
    ("mp-batched", "hits", 1),
    ("mp-batched", "mean_batch_size", 10**3),
])
def test_tampered_record_fails_its_check(name, field, delta):
    record = _record(name)
    assert suite.check(name, record) == []
    record[field] += delta
    assert suite.check(name, record)


def test_macro_record_without_write_backs_fails():
    record = _record("macro-evict")
    record["write_backs"] = record["disk_writes"] = 0
    assert any("write-backs" in failure
               for failure in suite.check("macro-evict", record))


def test_low_profile_coverage_fails():
    record = _record("sim-contended")
    record["profile_coverage"] = 0.99
    assert suite.check("sim-contended", record) == []
    record["profile_coverage"] = 0.9
    assert suite.check("sim-contended", record)


def test_digest_mismatch_counts_as_failed():
    tally = run.Tally("sim-contended")
    workload = suite.WORKLOADS["sim-contended"]
    config = workload.config(1, TINY)

    def runner(c, w):
        outcome = workload.run(c, w)
        outcome.digest = f"digest-{tally.attempted}"
        return outcome, None

    tally.run(suite, workload, 1, config, runner)
    tally.run(suite, workload, 1, config, runner)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_layer_of_maps_files_to_layers():
    repro = os.path.join(os.sep, "x", "src", "repro")

    def path(*parts):
        return os.path.join(repro, *parts)

    assert layer_of(path("simcore", "engine.py"), repro) == "simcore"
    assert layer_of(path("db", "storage.py"), repro) == "db"
    assert layer_of(path("db", "exec", "operators.py"), repro) == "db.exec"
    assert layer_of(path("runtime", "mp.py"), repro) == "runtime.mp"
    assert layer_of(path("runtime", "native.py"), repro) == "other"
    assert layer_of(path("obs", "metrics.py"), repro) == "other"
    assert layer_of(path("util.py"), repro) == "other"
    assert layer_of("~", repro) == "other"
    assert layer_of("<string>", repro) == "other"
    assert layer_of(os.path.join(os.sep, "usr", "lib", "heapq.py"),
                    repro) == "other"


def test_attribution_of_a_synthetic_profile():
    repro = os.path.join(os.sep, "x", "src", "repro")
    run_key = (os.path.join(repro, "simcore", "engine.py"), 1, "run")
    access = (os.path.join(repro, "bufmgr", "manager.py"), 2, "access")
    acquire = (os.path.join(repro, "sync", "locks.py"), 3, "acquire")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        run_key: (1, 1, 0.5, 4.0, {}),
        access: (10, 10, 1.0, 3.5, {run_key: (10, 10, 1.0, 3.5)}),
        acquire: (10, 12, 2.0, 2.5, {access: (10, 12, 2.0, 2.5)}),
        builtin: (30, 30, 0.5, 0.5, {access: (20, 20, 0.3, 0.3),
                                     acquire: (10, 10, 0.2, 0.2)}),
    }
    attribution = Attribution(stats, repro)
    assert attribution.self_s["simcore"] == 0.5
    assert attribution.self_s["bufmgr"] == 1.0
    assert attribution.self_s["sync"] == 2.0
    assert attribution.self_s["other"] == 0.5
    assert attribution.calls["sync"] == 12
    assert attribution.total_self_s == 4.0
    assert attribution.edges[("simcore", "bufmgr", "manager:access")] \
        == [10, 3.5]
    assert attribution.edges[("bufmgr", "sync", "locks:acquire")] \
        == [12, 2.5]
    assert attribution.edges[
        ("sync", "other", "<built-in method builtins.len>")] == [10, 0.2]
    assert ("simcore", "simcore", "engine:run") not in attribution.edges
    assert "sync" in attribution.table(accesses=10)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "sim-contended", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_stop_children_reaps_the_resource_tracker():
    from multiprocessing import active_children, resource_tracker

    result = run.measure("mp-batched", seed=3, seconds=0.05, trace=False,
                         scale=TINY)
    assert result["correct"], result
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run.stop_children()
    assert not active_children()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
