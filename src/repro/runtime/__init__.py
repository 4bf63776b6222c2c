"""Runtime abstraction layer — one core, three execution backends.

:mod:`repro.runtime.base` defines the narrow protocols the BP-Wrapper
core is written against (``Clock``, ``MutexLock``, ``ThreadContext``,
``RuntimeObserver``, ``Runtime``). Above them, the harness run bodies
(``run_experiment``, ``run_macro``, ``ServeFrontend.run``) are written
once over a *thread backend*, which :func:`thread_backend` picks from
``config.runtime``:

* :class:`repro.runtime.sim.SimBackend` — the deterministic
  discrete-event simulator (the default, the paper's instrument);
* :class:`repro.runtime.native.NativeBackend` — the identical code on
  real OS threads, for wall-clock contention measurements
  (``--runtime native``).

A backend supplies only what differs between the two: the
``runtime`` object, the ``disk_class``, ``create_pool`` /
``create_thread``, a ``mutex_factory`` for shared harness state, a
``prepare(build)`` step and ``run(threads, daemons, shared)``. Rules
that apply to every runtime live here (:func:`check_checker`) so each
is written once. :mod:`repro.runtime.mp` is the third backend: worker
processes over shared memory with its own process runner, since it
does not share Python objects with the harness.

This package must not import :mod:`repro.simcore` at the top level —
the backends are imported lazily by :func:`thread_backend` — so that
``repro.core``/``repro.policies`` (which import ``base``) stay
simulator-free (see ``tests/test_layering.py``).
"""

from typing import Any, Optional

from repro.errors import ConfigError
from repro.runtime.base import (Clock, MutexLock, Runtime, RuntimeObserver,
                                ThreadContext, Wait, WaitEvent, Waits, drive)

__all__ = [
    "Clock",
    "MutexLock",
    "Runtime",
    "RuntimeObserver",
    "ThreadContext",
    "Wait",
    "WaitEvent",
    "Waits",
    "check_checker",
    "drive",
    "thread_backend",
]


def check_checker(runtime: str, checker: Optional[Any]) -> None:
    """Refuse a correctness checker on any runtime but ``"sim"``."""
    if checker is not None and runtime != "sim":
        raise ConfigError(
            "the correctness checker shadows the sim lock protocol; "
            "use runtime='sim' for checked runs")


def thread_backend(config: Any, observer: Optional[Any] = None,
                   checker: Optional[Any] = None) -> Any:
    """The thread backend for ``config.runtime`` ("sim" or "native").

    ``config`` supplies ``runtime``, ``max_sim_time_us`` (the sim
    cap, or the native wall-clock join deadline) and ``seed``.
    """
    check_checker(config.runtime, checker)
    if config.runtime == "native":
        from repro.runtime.native import NativeBackend
        return NativeBackend(config.max_sim_time_us, observer=observer,
                             seed=config.seed)
    from repro.runtime.sim import SimBackend
    return SimBackend(config.max_sim_time_us, observer=observer,
                      checker=checker)
