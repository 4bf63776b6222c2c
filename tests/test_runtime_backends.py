"""The native thread backend's rules, checked through every harness.

``run_experiment``, ``run_macro`` and ``run_serve`` share one run body
per harness over the thread backend :func:`repro.runtime.thread_backend`
picks, so each runtime rule is written once, in its backend. These
tests pin two of those rules on ``runtime="native"``:

* the join deadline is the deadlock guard: a run that cannot reach its
  target within ``max_sim_time_us`` wall microseconds raises
  ``SimulationError`` naming its live threads, prints the budget it
  exceeded, and stops those threads;
* lock-free-hit policies without a race-tolerant ``on_hit_relaxed``
  path (``car``, ``clockpro``) are refused with one message, whichever
  harness runs them.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigError, SimulationError
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.macro import MacroConfig, run_macro
from repro.serve.config import ServeConfig
from repro.serve.frontend import run_serve

#: Far beyond what any run reaches inside the budgets used here.
UNREACHABLE = 10 ** 12


def _experiment(target=4_000, **overrides):
    return run_experiment(ExperimentConfig(
        system="pgBat", workload="tablescan", runtime="native",
        n_processors=2, n_threads=2, target_accesses=target, **overrides))


def _macro(target=24, **overrides):
    return run_macro(MacroConfig(
        system="pgBat", runtime="native", n_processors=2, n_threads=2,
        buffer_pages=160, use_disk=False, target_queries=target, seed=11,
        **overrides))


def _serve(target=100, **overrides):
    return run_serve(ServeConfig(
        runtime="native", n_shards=2, n_tenants=1, sessions_per_tenant=2,
        pages_per_tenant=48, hot_pages=8, n_processors=2, seed=13,
        target_requests=target, **overrides))


HARNESSES = [
    pytest.param(_experiment, "backend-", id="experiment"),
    pytest.param(_macro, "backend-", id="macro"),
    pytest.param(_serve, "session-", id="serve"),
]


@pytest.mark.parametrize("run, thread_prefix", HARNESSES)
def test_deadline_guard_names_threads_and_stops_them(run, thread_prefix):
    before = set(threading.enumerate())
    started = time.monotonic()
    with pytest.raises(SimulationError, match="possible deadlock") as info:
        run(target=UNREACHABLE, max_sim_time_us=50_000)
    message = str(info.value)
    assert "0.05s wall budget" in message
    assert f"threads still alive: {thread_prefix}" in message
    # The guard trips once the budget is spent, not at some later
    # timeout.
    assert time.monotonic() - started < 30.0
    # Every thread the run started exits once the guard sets the stop
    # flag.
    deadline = time.monotonic() + 2.0
    leftover = set(threading.enumerate()) - before
    while leftover and time.monotonic() < deadline:
        time.sleep(0.02)
        leftover = set(threading.enumerate()) - before
    assert not leftover, sorted(t.name for t in leftover)


@pytest.mark.parametrize("policy", ["car", "clockpro"])
def test_lock_free_hit_policies_are_refused_alike(policy):
    messages = []
    for run in (_experiment, _macro, _serve):
        with pytest.raises(ConfigError, match="on_hit_relaxed") as info:
            run(policy_name=policy)
        messages.append(str(info.value))
    assert messages == [messages[0]] * 3
    assert repr(policy) in messages[0]
    assert "only safe under the simulator" in messages[0]
