"""Attribute a cProfile profile to the layers of ``src/repro``.

A layer is one ``repro`` subpackage. Every profiled function belongs to
the layer that owns its source file; functions outside the listed
subpackages (stdlib, numpy, builtins, ``repro``'s top-level helpers and
this benchmark) belong to ``other``. A function's self time and call
count go to its own layer; a caller->callee edge whose ends sit in
different layers is the "caused by" link between them.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

#: Report order. ``db.exec`` and ``runtime.mp`` are sub-packages split
#: out of ``db`` and ``runtime`` because they are separate paths.
LAYERS = ("simcore", "sync", "core", "bufmgr", "policies", "hardware",
          "workloads", "db", "db.exec", "harness", "control",
          "runtime.mp", "other")

#: (filename, line, function) -> (primitive calls, calls, self s,
#: cumulative s, {caller key: (pc, calls, self s, cumulative s)}) —
#: the layout of ``pstats.Stats.stats``.
StatsDict = Dict[Tuple[str, int, str], tuple]


def layer_of(filename: str, repro_dir: str) -> str:
    """The layer owning ``filename`` (a ``co_filename``)."""
    rel = os.path.relpath(filename, repro_dir) if os.path.isabs(
        filename) else ".."
    parts = rel.split(os.sep)
    if parts[0] == ".." or len(parts) < 2:
        return "other"
    head = parts[0]
    if head == "db" and parts[1] == "exec":
        return "db.exec"
    if head == "runtime":
        return "runtime.mp" if parts[1] == "mp.py" else "other"
    return head if head in LAYERS else "other"


class Attribution:
    """Self time, calls and cross-layer edges summed by layer."""

    def __init__(self, stats: StatsDict, repro_dir: str) -> None:
        layer_cache: Dict[str, str] = {}

        def owner(key) -> str:
            filename = key[0]
            found = layer_cache.get(filename)
            if found is None:
                found = layer_cache[filename] = layer_of(filename,
                                                         repro_dir)
            return found

        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        #: (caller layer, callee layer, callee function) ->
        #: [calls, cumulative s of the callee under that caller]
        self.edges: Dict[Tuple[str, str, str], List[float]] = {}
        for key, (_pc, calls, self_s, _cum, callers) in stats.items():
            layer = owner(key)
            self.self_s[layer] += self_s
            self.calls[layer] += calls
            for caller, entry in callers.items():
                caller_layer = owner(caller)
                if caller_layer == layer:
                    continue
                edge = self.edges.setdefault(
                    (caller_layer, layer, _function_name(key)), [0, 0.0])
                edge[0] += entry[1]
                edge[1] += entry[3]

    @property
    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def table(self, accesses: int, limit: int = 12) -> str:
        """Per-layer self-time shares and calls, and the heaviest
        cross-layer edges."""
        total = self.total_self_s
        lines = [f"{'layer':<11} {'self %':>7} {'calls/access':>13}"]
        for name in LAYERS:
            lines.append(f"{name:<11} "
                         f"{100 * self.self_s[name] / total:7.2f} "
                         f"{self.calls[name] / accesses:13.3f}")
        lines.append("cross-layer calls (caller -> callee: calls/access,"
                     " cumulative % of self time):")
        heaviest = sorted(self.edges.items(), key=lambda item: -item[1][1])
        for (src, dst, func), (calls, cum_s) in heaviest[:limit]:
            lines.append(f"  {src} -> {dst}.{func}: "
                         f"{calls / accesses:.3f}, "
                         f"{100 * cum_s / total:.2f}")
        return "\n".join(lines)


def _function_name(key) -> str:
    filename, _line, func = key
    if filename == "~":
        return func
    return f"{os.path.splitext(os.path.basename(filename))[0]}:{func}"
