"""Same seed, two processes, byte-identical artifacts.

Every sweep subcommand promises that a fixed seed reproduces its
records and pages byte for byte. Each case below runs one subcommand
twice, concurrently, as separate interpreters with different
``PYTHONHASHSEED`` values, so an output that depends on set or dict
iteration order over hashed strings fails here instead of passing
because both runs shared one hash seed. The argument lists are the CI
smoke configurations. ``check`` writes no files, so its stdout is
compared instead, minus the wall-clock ``clean in`` line.

The content checks on the first run's records (live lifecycle counters
in ``macro``, the adapter's tolerance in ``tune``) ride along because
those configurations are only built here.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Subcommand argument lists; ``{out}`` is the run's output directory.
CASES = {
    "trace": ["trace", "--system", "pg2Q", "--workload", "tablescan",
              "--processors", "8", "--accesses", "3000", "--out", "{out}"],
    "analyze": ["analyze", "--systems", "pg2Q", "pgBatPre",
                "--processors", "4", "8", "--accesses", "3000",
                "--out", "{out}"],
    "serve": ["serve", "--shards", "2", "--tenants", "3",
              "--skews", "0.2", "0.8", "--requests", "600",
              "--quota", "4000", "--out", "{out}"],
    "serve-telemetry": ["serve", "--shards", "2", "--tenants", "3",
                        "--skews", "0.2", "0.8", "--requests", "600",
                        "--quota", "4000", "--trace",
                        "--telemetry", "{out}/telemetry.prom",
                        "--out", "{out}"],
    "macro": ["macro", "--systems", "pg2Q", "pgBat", "--shards", "0", "2",
              "--queries", "120", "--buffer", "160", "--threads", "6",
              "--out", "{out}"],
    "tune": ["tune", "--thresholds", "1", "8", "32", "--queues", "64",
             "--prefetch", "off", "--accesses", "1500",
             "--processors", "8", "--out", "{out}"],
    "check": ["check", "--seeds", "11", "--policies", "2q", "--fuzz", "5",
              "--no-shrink"],
}

#: The files each case must write (``check`` writes none).
EXPECTED_FILES = {
    "trace": {"trace.json", "trace_metrics.json", "trace_summary.txt"},
    "analyze": {"analysis.json", "dashboard.html"},
    "serve": {"serve.json", "serve_dashboard.html"},
    "serve-telemetry": {"serve.json", "serve_dashboard.html",
                        "telemetry.prom", "telemetry_dashboard.html",
                        "timeseries.json", "trace.json"},
    "macro": {"macro.json", "macro_dashboard.html"},
    "tune": {"tune.json", "tune_dashboard.html"},
    "check": set(),
}


def _macro_lifecycle_counters_live(out: pathlib.Path) -> None:
    cells = json.loads((out / "macro.json").read_text())["cells"]
    assert all(c["write_backs"] > 0 for c in cells), \
        [c["write_backs"] for c in cells]
    assert all(c["pinned_victim_skips"] > 0 for c in cells), \
        [c["pinned_victim_skips"] for c in cells]


def _tune_adapter_within_tolerance(out: pathlib.Path) -> None:
    doc = json.loads((out / "tune.json").read_text())
    fraction = doc["adapter"]["fraction_of_best"]
    assert fraction >= 0.9, (
        f"adapter reached only {fraction:.1%} of the static-best "
        f"cell's throughput")
    assert all(entry["ok"] for entry in doc["adaptive"]), doc["adaptive"]


RECORD_CHECKS = {
    "macro": _macro_lifecycle_counters_live,
    "tune": _tune_adapter_within_tolerance,
}


def _launch(argv, out: pathlib.Path, hash_seed: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli"]
        + [arg.replace("{out}", str(out)) for arg in argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)


def _stable_stdout(stdout: str) -> str:
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if "clean in" not in line)


@pytest.mark.parametrize("case", list(CASES))
def test_same_seed_artifacts_are_byte_identical(case, tmp_path):
    outs = [tmp_path / f"hashseed{seed}" for seed in (1, 2)]
    procs = [_launch(CASES[case], out, seed)
             for seed, out in zip((1, 2), outs)]
    try:
        results = [proc.communicate(timeout=300) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for proc, (_, stderr) in zip(procs, results):
        assert proc.returncode == 0, stderr

    files = [sorted(p.name for p in out.iterdir()) if out.exists() else []
             for out in outs]
    assert set(files[0]) == EXPECTED_FILES[case]
    assert files[0] == files[1]
    for name in files[0]:
        assert ((outs[0] / name).read_bytes()
                == (outs[1] / name).read_bytes()), name
    if case == "check":
        assert _stable_stdout(results[0][0]) == _stable_stdout(results[1][0])
    if case in RECORD_CHECKS:
        RECORD_CHECKS[case](outs[0])
