"""Bucket-locked buffer lookup table.

Models the structure §II describes: page metadata spread over many hash
buckets, each under its own lock, so that "the possibility for multiple
threads to compete for the same bucket is low" and lookups scale. The
paper explicitly excludes bucket-lock contention from its analysis;
accordingly the DES charges a flat lookup cost by default and keeps the
entries in one flat dict. Buckets exist only to pick a bucket lock when
per-bucket contention is simulated (``simulate_locks=True``) for the
ablation benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.tags import BufferTag
from repro.errors import BufferError_
from repro.runtime.base import MutexLock, Runtime
from repro.util import stable_hash

__all__ = ["BufferHashTable"]


class BufferHashTable:
    """Tag -> descriptor map over ``n_buckets`` lockable buckets."""

    def __init__(self, sim: "Runtime", n_buckets: int = 1024,
                 simulate_locks: bool = False) -> None:
        if n_buckets < 1:
            raise BufferError_(f"need >= 1 bucket, got {n_buckets}")
        self.n_buckets = n_buckets
        self._entries: Dict[BufferTag, BufferDesc] = {}
        #: ``lookup(tag)`` -> the descriptor, or None. The dict's own
        #: ``get``: the probe every page access makes costs no Python
        #: frame.
        self.lookup = self._entries.get
        self.simulate_locks = simulate_locks
        self.bucket_locks: Optional[List[MutexLock]] = None
        if simulate_locks:
            self.bucket_locks = [
                sim.create_lock(name=f"hashbucket-{i}")
                for i in range(n_buckets)
            ]

    def bucket_index(self, tag: BufferTag) -> int:
        # Process-independent hash: bucket placement must not depend on
        # PYTHONHASHSEED or reproducibility across runs is lost.
        return stable_hash(tag) % self.n_buckets

    def insert(self, tag: BufferTag, desc: BufferDesc) -> None:
        if tag in self._entries:
            raise BufferError_(f"duplicate hash-table entry for {tag}")
        self._entries[tag] = desc

    def remove(self, tag: BufferTag) -> BufferDesc:
        desc = self._entries.pop(tag, None)
        if desc is None:
            raise BufferError_(f"no hash-table entry for {tag}")
        return desc

    def __contains__(self, tag: BufferTag) -> bool:
        return tag in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def load_factor(self) -> float:
        """Mean entries per bucket (diagnostics)."""
        return len(self) / self.n_buckets
