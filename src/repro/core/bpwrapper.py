"""BP-Wrapper's hit- and miss-path handlers.

A *replacement handler* owns every interaction with the replacement
lock: it decides when the lock is taken, what is prefetched before it,
and how queued history is committed under it. The buffer manager calls
into the handler and never touches the lock itself, mirroring the
paper's framing of BP-Wrapper as a wrapper *around* the unchanged
algorithm.

Three handlers cover the paper's five systems (Table I):

=============  =======================  =============================
paper system   policy                   handler
=============  =======================  =============================
``pgclock``    clock (lock-free hits)   :class:`LockFreeHitHandler`
``pg2Q``       2Q                       :class:`DirectHandler`
``pgBat``      2Q                       :class:`BatchedHandler` (no prefetch)
``pgPre``      2Q                       :class:`DirectHandler` (prefetch)
``pgBatPre``   2Q                       :class:`BatchedHandler` (prefetch)
=============  =======================  =============================

The batched hit path is a line-for-line transcription of Figure 4:
record the access; once ``batch_threshold`` entries accumulate, attempt
``TryLock()``; on failure keep recording until the queue is *full*, at
which point a blocking ``Lock()`` is unavoidable; under the lock, replay
every recorded access into the algorithm in FIFO order, re-validating
each entry's BufferTag first.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.tags import BufferTag
from repro.control.state import ControlState
from repro.core.config import BPConfig
from repro.core.fifoqueue import AccessQueue, QueueEntry
from repro.errors import SimulationError
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.base import ReplacementPolicy
from repro.runtime.base import MutexLock, ThreadContext, Waits

__all__ = [
    "ThreadSlot",
    "ReplacementHandler",
    "DirectHandler",
    "BatchedHandler",
    "LockFreeHitHandler",
]


class ThreadSlot:
    """Per-thread state a handler needs: the thread and its queue."""

    __slots__ = ("thread", "thread_id", "queue")

    def __init__(self, thread: ThreadContext, thread_id: int,
                 queue_size: int) -> None:
        self.thread = thread
        self.thread_id = thread_id
        self.queue = AccessQueue(queue_size)

    @property
    def stale_entries(self) -> int:
        """Queue entries dropped at commit because their page had been
        invalidated or evicted since enqueue (§IV-B's tag check).

        Delegates to :attr:`AccessQueue.total_stale` so the slot and
        its queue can never disagree — the commit path reports stale
        drops once, to the queue, and both views read the same counter.
        """
        return self.queue.total_stale


class ReplacementHandler(ABC):
    """Owns the replacement lock on behalf of one policy instance."""

    def __init__(self, policy: ReplacementPolicy, lock: MutexLock,
                 metadata_cache: MetadataCacheModel,
                 costs: CostModel, config: BPConfig,
                 control: "ControlState" = None) -> None:
        self.policy = policy
        self.lock = lock
        self.cache = metadata_cache
        self.costs = costs
        self.config = config
        # The pool's mutable tuning knobs. ``config`` stays as the
        # construction record; every runtime decision (threshold check,
        # prefetch gate) reads ``control`` so an attached controller
        # can retune a live pool. Without one, ``control`` mirrors
        # ``config`` forever and behavior is unchanged.
        self.control = (control if control is not None
                        else ControlState.from_config(config))

    def _control_tick(self, slot: ThreadSlot) -> None:
        """Give an attached controller its per-commit observation."""
        controller = self.control.controller
        if controller is not None:
            controller.on_commit(self, slot)

    # -- hit path ------------------------------------------------------------

    @abstractmethod
    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Waits:
        """Handle replacement bookkeeping for a buffer hit."""

    # -- miss path ------------------------------------------------------------

    def acquire_for_miss(self, slot: ThreadSlot, page: BufferTag
                         ) -> Waits:
        """Take the lock for a miss, committing any queued history.

        Misses always lock ("Requesting a lock upon a page miss usually
        is not a concern because the lock acquisition cost is negligible
        compared with the cost of I/O operations", §III-A) and Fig. 4's
        ``replacement_for_page_miss`` commits the queue first, keeping
        history ordered ahead of the miss.
        """
        pages_to_touch = len(slot.queue) + 1
        self._maybe_prefetch(slot, pages_to_touch)
        yield from self.lock.acquire(slot.thread)
        self._warmup_charge(slot, pages_to_touch)
        batch = len(slot.queue)
        self._commit_locked(slot)
        observer = slot.thread.runtime.observer
        if observer is not None:
            observer.on_miss_commit(slot.thread.name, self.lock.name,
                                    slot.thread.runtime.now, batch)
        self._control_tick(slot)

    def release_after_miss(self, slot: ThreadSlot, page: BufferTag
                           ) -> Waits:
        """Finish the miss's critical section and release the lock."""
        # The miss mutated the policy structures: account the write and
        # invalidate other threads' prefetches.
        slot.thread.charge(2 * self.costs.replacement_op_us)
        self.cache.note_commit(slot.thread_id)
        yield from slot.thread.spend()
        self.lock.release(slot.thread)

    # -- shared helpers -------------------------------------------------------------

    def _warmup_charge(self, slot: ThreadSlot, n_pages: int) -> None:
        """Charge the cache warm-up stall, degraded by lock-line traffic.

        Threads camped on the lock keep its cache line (and the hot list
        heads) bouncing between processors, so the holder's warm-up
        stalls grow with the number of waiters — the effect that makes
        contention *worsen* throughput as processors are added rather
        than merely cap it (TableScan's 8->16 drop in Fig. 6).
        """
        base = self.cache.warmup_cost(slot.thread_id, n_pages)
        # min(waiters, cap), without the builtin call on every commit.
        waiters = self.lock.queue_length
        cap = self.costs.coherence_waiter_cap
        active_waiters = cap if cap < waiters else waiters
        degradation = (1.0 + self.costs.coherence_per_waiter
                       * active_waiters)
        slot.thread.charge(base * degradation)

    def _maybe_prefetch(self, slot: ThreadSlot, n_pages: int) -> None:
        """Issue software prefetches if configured and not already warm."""
        if self.control.prefetch and not self.cache.is_warm(slot.thread_id):
            slot.thread.charge(self.cache.prefetch(slot.thread_id, n_pages))

    def flush(self, slot: ThreadSlot) -> Waits:
        """Commit any queued history under the lock (drain-to-empty).

        Used by shutdown paths and the correctness oracle's replay
        driver: after a trace ends, deferred hits must reach the
        algorithm before its final state can be compared against an
        unbatched system's.
        """
        if len(slot.queue) == 0:
            return
        yield from self.lock.acquire(slot.thread)
        self._commit_locked(slot)
        yield from slot.thread.spend()
        self.lock.release(slot.thread)

    def _commit_locked(self, slot: ThreadSlot) -> None:
        """Replay queued accesses into the algorithm (lock must be held).

        Every entry's tag is compared against the descriptor first;
        stale entries (page evicted or invalidated since enqueue) are
        dropped, exactly as the PostgreSQL implementation does (§IV-B)
        — and reported to the queue so committed-batch accounting
        excludes them.
        """
        if self.lock.owner is not slot.thread:
            raise SimulationError(
                "commit attempted without holding the replacement lock")
        thread = slot.thread
        checker = thread.runtime.checker
        if checker is not None:
            checker.on_commit(self.lock.name, thread.name,
                              self.lock.owner is thread)
        entries: List[QueueEntry] = slot.queue.drain()
        for entry in entries:
            thread.charge(self.costs.tag_check_us)
            if entry.desc.matches(entry.tag):
                self.policy.on_hit(entry.tag)
                thread.charge(self.costs.replacement_op_us)
            else:
                slot.queue.note_stale()
        if checker is not None:
            checker.on_policy_commit(self.policy)


class DirectHandler(ReplacementHandler):
    """One lock acquisition per hit — the paper's contended baseline
    (``pg2Q``), optionally with prefetching (``pgPre``)."""

    name = "direct"

    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Waits:
        slot.queue.record(desc, tag)
        slot.thread.charge(self.costs.queue_record_us)
        self._maybe_prefetch(slot, 1)
        # The lock itself charges its grant cost (SimLock.grant_cost_us).
        yield from self.lock.acquire(slot.thread)
        self._warmup_charge(slot, 1)
        self._commit_locked(slot)
        self.cache.note_commit(slot.thread_id)
        yield from slot.thread.spend()
        self.lock.release(slot.thread)


class BatchedHandler(ReplacementHandler):
    """BP-Wrapper proper: Figure 4's batching protocol (``pgBat`` /
    ``pgBatPre``)."""

    name = "batched"

    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Waits:
        queue = slot.queue
        queue.record(desc, tag)                       # Fig. 4 lines 5-6
        slot.thread.charge(self.costs.queue_record_us)
        if len(queue) < self.control.batch_threshold:  # Fig. 4 line 7
            return
        self._maybe_prefetch(slot, len(queue))
        # Realize accumulated work so TryLock sees true logical time.
        yield from slot.thread.spend()
        blocking = False
        if not self.lock.try_acquire(slot.thread):    # Fig. 4 line 8
            if not queue.full:                        # Fig. 4 lines 10-12
                return
            blocking = True
            yield from self.lock.acquire(slot.thread)  # Fig. 4 line 13
        sim = slot.thread.runtime
        commit_started = sim.now
        batch = len(queue)
        self._warmup_charge(slot, batch)
        self._commit_locked(slot)                     # Fig. 4 lines 15-17
        self.cache.note_commit(slot.thread_id)
        yield from slot.thread.spend()
        observer = sim.observer
        if observer is not None:
            # The span covers the commit's realized charges (warm-up,
            # tag checks, algorithm updates) — the lock-holding work
            # batching exists to amortize.
            observer.on_batch_commit(slot.thread.name, self.lock.name,
                                     commit_started, sim.now, batch,
                                     blocking)
        self.lock.release(slot.thread)                # Fig. 4 line 18
        self._control_tick(slot)


class LockFreeHitHandler(ReplacementHandler):
    """The clock family's native discipline: hits set a reference bit
    without any lock (stock PostgreSQL 8.2, the paper's ``pgclock``)."""

    name = "lock-free"

    def __init__(self, policy: ReplacementPolicy, lock: MutexLock,
                 metadata_cache: MetadataCacheModel,
                 costs: CostModel, config: BPConfig,
                 control: "ControlState" = None) -> None:
        super().__init__(policy, lock, metadata_cache, costs, config,
                         control=control)
        # On OS-thread backends the unlocked hit races with lock-holding
        # misses; policies expose ``on_hit_relaxed`` (race-tolerant,
        # identical to ``on_hit`` absent concurrency) for exactly this
        # path. Resolved once here so the per-hit cost is one call.
        self._hit_op = getattr(policy, "on_hit_relaxed", policy.on_hit)

    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Waits:
        self._hit_op(tag)
        slot.thread.charge(self.costs.ref_bit_us)
        # Realize the (tiny) cost so simulated time stays faithful even
        # on long hit streaks; no lock, no blocking.
        yield from slot.thread.spend()
