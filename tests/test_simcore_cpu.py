"""Tests for the processor pool and CPU-bound threads."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Event, Sleep, Timeout


def run_threads(sim, pool, bodies):
    threads = []
    for index, body_factory in enumerate(bodies):
        thread = CpuBoundThread(pool, name=f"t{index}")
        thread.start(body_factory(thread))
        threads.append(thread)
    sim.run()
    return threads


class TestProcessorPool:
    def test_requires_processor(self, sim):
        with pytest.raises(SimulationError):
            ProcessorPool(sim, 0, 0.0)

    def test_parallel_threads_overlap(self, sim):
        pool = ProcessorPool(sim, 2, context_switch_us=0.0)

        def body(thread):
            yield from thread.run_for(10.0)

        run_threads(sim, pool, [body, body])
        assert sim.now == 10.0  # two CPUs -> fully parallel

    def test_overcommit_serializes(self, sim):
        pool = ProcessorPool(sim, 1, context_switch_us=0.0)

        def body(thread):
            yield from thread.run_for(10.0)

        run_threads(sim, pool, [body, body])
        assert sim.now == 20.0  # one CPU -> back-to-back

    def test_context_switch_cost_charged_on_dispatch(self, sim):
        pool = ProcessorPool(sim, 1, context_switch_us=2.0)

        def body(thread):
            yield from thread.run_for(10.0)

        run_threads(sim, pool, [body])
        assert sim.now == 12.0  # dispatch ctx + work
        assert pool.context_switch_time == 2.0

    def test_utilization(self, sim):
        pool = ProcessorPool(sim, 2, context_switch_us=0.0)

        def body(thread):
            yield from thread.run_for(10.0)

        run_threads(sim, pool, [body])
        # One thread busy 10us on a 2-CPU pool -> 50%.
        assert pool.utilization(sim.now) == pytest.approx(0.5)

    def test_free_processor_acquire_yields_one_switch(self, sim):
        pool = ProcessorPool(sim, 2, context_switch_us=1.5)
        waits = list(pool._acquire())
        assert waits == [1.5]
        assert type(waits[0]) is Sleep
        assert (pool.free_processors, pool.dispatches) == (1, 1)
        assert pool.context_switch_time == 1.5

    def test_free_processor_acquire_without_switch_cost(self, sim):
        pool = ProcessorPool(sim, 1, context_switch_us=0.0)
        assert list(pool._acquire()) == []
        assert (pool.free_processors, pool.dispatches) == (0, 1)

    def test_release_overflow_detected(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        with pytest.raises(SimulationError):
            pool._release()


class TestCharges:
    def test_charges_accumulate_until_spend(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        observed = []

        def body(thread):
            thread.charge(3.0)
            thread.charge(4.0)
            observed.append(sim.now)
            yield from thread.spend()
            observed.append(sim.now)

        run_threads(sim, pool, [body])
        assert observed == [0.0, 7.0]

    def test_negative_charge_rejected(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        with pytest.raises(SimulationError):
            thread.charge(-1.0)

    def test_nan_charge_rejected(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        with pytest.raises(SimulationError):
            thread.charge(float("nan"))
        assert thread._pending_charge == 0.0

    def test_nan_charge_does_not_reach_the_clock(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)

        def body(thread):
            thread.charge(float("nan"))
            yield from thread.spend()

        with pytest.raises(SimulationError):
            run_threads(sim, pool, [body])
        assert sim.now == 0.0

    def test_cpu_time_accounting(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)

        def body(thread):
            yield from thread.run_for(5.0)
            yield from thread.run_for(7.0)

        threads = run_threads(sim, pool, [body])
        assert threads[0].cpu_time == pytest.approx(12.0)


class TestBlocking:
    def test_wait_releases_cpu(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        gate = Event(sim)
        log = []

        def waiter(thread):
            yield from thread.run_for(1.0)
            yield from thread.wait(gate)
            log.append(("waiter", sim.now))

        def runner(thread):
            yield from thread.run_for(5.0)
            log.append(("runner", sim.now))
            gate.succeed()

        run_threads(sim, pool, [waiter, runner])
        # The runner got the CPU while the waiter was blocked; the
        # waiter resumed after the gate opened.
        assert log == [("runner", 6.0), ("waiter", 6.0)]

    def test_blocked_time_accounted(self, sim):
        pool = ProcessorPool(sim, 2, 0.0)

        def sleeper(thread):
            yield from thread.sleep_blocked(25.0)

        threads = run_threads(sim, pool, [sleeper])
        assert threads[0].blocked_time == pytest.approx(25.0)
        assert threads[0].blocks == 1

    def test_woken_thread_gets_priority_dispatch(self, sim):
        # Three threads, one CPU: a woken sleeper queues ahead of a
        # voluntarily-yielded thread (sleeper boost).
        pool = ProcessorPool(sim, 1, 0.0)
        order = []

        def sleeper(thread):
            yield from thread.sleep_blocked(5.0)
            order.append("sleeper")

        def spinner(thread):
            for _ in range(4):
                yield from thread.run_for(3.0)
                yield from thread.yield_cpu()
                order.append("spinner-leg")

        run_threads(sim, pool, [sleeper, spinner])
        # The sleeper wakes at t=5 mid-leg and must run before the
        # spinner's remaining legs.
        assert order.index("sleeper") <= 2

    def test_quantum_yield(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        order = []

        def hog(thread):
            for _ in range(10):
                yield from thread.run_for(10.0)
                yield from thread.maybe_yield(25.0)
            order.append("hog-done")

        def peer(thread):
            yield from thread.run_for(1.0)
            order.append("peer-done")

        run_threads(sim, pool, [hog, peer])
        # Without preemption the peer would finish last; the quantum
        # lets it in after ~30us of hog time.
        assert order == ["peer-done", "hog-done"]

    def test_voluntary_yield_noop_when_alone(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)

        def body(thread):
            yield from thread.run_for(1.0)
            yield from thread.yield_cpu()
            yield from thread.run_for(1.0)

        threads = run_threads(sim, pool, [body])
        assert threads[0].voluntary_yields == 0
        assert sim.now == 2.0

    def test_double_start_rejected(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)

        def body():
            yield Timeout(sim, 1.0)

        thread.start(body())
        with pytest.raises(SimulationError):
            thread.start(body())
