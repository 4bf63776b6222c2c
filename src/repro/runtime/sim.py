"""Simulator thread backend: the sim half of the harness run surface.

The harness run bodies (``run_experiment``, ``run_macro``,
``ServeFrontend.run``) are written once and run over a *thread
backend* picked from ``config.runtime`` by
:func:`repro.runtime.thread_backend`. A backend supplies only what
actually differs between runtimes:

* ``runtime`` — the :class:`~repro.runtime.base.Runtime` lower layers
  see (here the :class:`~repro.simcore.engine.Simulator` itself, with
  the observer and checker attached);
* ``disk_class`` — the disk model (:class:`~repro.db.storage.DiskArray`);
* ``create_pool`` / ``create_thread`` — processors and threads
  (:class:`~repro.simcore.cpu.ProcessorPool`,
  :class:`~repro.simcore.cpu.CpuBoundThread`);
* ``mutex_factory`` — ``None``: simulated threads interleave only at
  yields, so shared harness state needs no mutex;
* ``prepare(build)`` — nothing to do: every hit follows the sim lock
  protocol;
* ``run(threads, daemons, shared)`` — drive the event loop to the
  ``max_sim_time_us`` cap, then run the checker's end-of-run sweep if
  the event queue drained.

:class:`repro.runtime.native.NativeBackend` is the OS-thread twin. The
dependency arrow stays explicit: ``repro.runtime.sim`` imports
``repro.simcore``, never the other way around.

Byte-identical guarantee: the backend builds exactly the engine
objects the run bodies always built, in the same order, and adds no
wrapping on hot paths, so a run schedules the same events in the same
order. ``tests/test_sim_goldens.py`` (result digests and event counts
pinned across commits) and the ``cli check`` determinism gates verify
this.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.db.storage import DiskArray
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator

__all__ = ["SimBackend"]


class SimBackend:
    """Thread backend over the deterministic discrete-event simulator."""

    disk_class = DiskArray
    mutex_factory = None

    def __init__(self, max_time_us: float, observer: Optional[Any] = None,
                 checker: Optional[Any] = None) -> None:
        self.max_time_us = max_time_us
        self.runtime = Simulator()
        self.runtime.observer = observer
        self.runtime.checker = checker

    def create_pool(self, n_processors: int,
                    context_switch_us: float = 0.0) -> ProcessorPool:
        return ProcessorPool(self.runtime, n_processors, context_switch_us)

    def create_thread(self, pool: ProcessorPool, name: str = "thread",
                      seed: int = 0) -> CpuBoundThread:
        """A simulated thread; ``seed`` is ignored (sim threads are
        deterministic and need no per-thread backoff RNG)."""
        return CpuBoundThread(pool, name=name)

    def prepare(self, build: Any) -> None:
        """No-op: the simulator runs every policy under its own lock
        discipline and descriptors need no header lock."""

    def run(self, threads: Sequence[CpuBoundThread],
            daemons: Sequence[Tuple[CpuBoundThread, float]],
            shared: dict) -> float:
        """Drive the event loop; returns the final simulated time.

        The started threads and daemons are already events on the
        heap, so they are not consulted here.
        """
        sim = self.runtime
        sim.run(until=self.max_time_us)
        if sim.checker is not None and sim.now < self.max_time_us:
            # The event queue drained: every thread reached quiescence,
            # so leftover lock waiters would mean a lost wakeup.
            sim.checker.finalize()
        return sim.now
