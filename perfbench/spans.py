"""Span recording around the benchmark's calls into the program's layers.

A span is one call the benchmark makes into a layer's public surface:
its name, layer, start, end, parent span and operation id.  Spans stay
in memory until the run ends, are then written out as JSON lines, and
folded into a per-layer self-time table.  A layer's self time is the
duration of its spans minus the part their child spans cover; the
benchmark is single-threaded, so children nest strictly inside their
parent and their durations simply subtract.

With recording off, :meth:`SpanRecorder.span` hands back a shared
no-op context manager, so untraced rounds pay one attribute check per
call site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The program's layers, in the order the self-time table lists them.
LAYERS: Tuple[str, ...] = (
    "des",
    "ecommerce",
    "core",
    "systems",
    "ctmc",
    "exec",
    "obs",
    "faults",
    "serve",
    "cli",
)

_NULL = nullcontext()


class SpanRecorder:
    """In-memory span store with a parent stack (one thread only)."""

    def __init__(self) -> None:
        self.enabled = False
        #: ``[name, layer, start, end, parent, op]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._ops = 0
        #: Id of the operation the next spans belong to.
        self.op = ""

    def start_op(self, name: str) -> None:
        """Spans recorded from now on belong to a new operation ``name``."""
        self._ops += 1
        self.op = f"{self._ops}:{name}"

    def span(self, name: str, layer: str):
        """Context manager timing one call into ``layer``."""
        if not self.enabled:
            return _NULL
        return self._record(name, layer)

    @contextmanager
    def _record(self, name: str, layer: str) -> Iterator[None]:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        entry = [name, layer, time.perf_counter(), None, parent, self.op]
        self.spans.append(entry)
        self._stack.append(index)
        try:
            yield
        finally:
            entry[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> int:
        """Write every span as one JSON line; return how many."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, layer, start, end, parent, op) in enumerate(
                self.spans
            ):
                record = {
                    "id": index,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                }
                handle.write(json.dumps(record) + "\n")
        return len(self.spans)


def self_times(
    spans: Sequence[list], first: int = 0
) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``, ``total_s`` and ``self_s`` over spans ``first..``."""
    child_s = [0.0] * len(spans)
    for name, layer, start, end, parent, op in spans[first:]:
        if parent >= first:
            child_s[parent] += end - start
    table = {
        layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS
    }
    for index in range(first, len(spans)):
        _, layer, start, end, _, _ = spans[index]
        row = table[layer]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_s[index]
    return table


def format_table(
    table: Dict[str, Dict[str, float]], title: str, wall_s: Optional[float]
) -> str:
    """The self-time table as aligned text."""
    lines = [
        title,
        f"  {'layer':<10} {'calls':>7} {'self_s':>10} {'total_s':>10} "
        f"{'self %':>7}",
    ]
    for layer in LAYERS:
        row = table[layer]
        share = (
            f"{100.0 * row['self_s'] / wall_s:6.1f}%"
            if wall_s
            else "      -"
        )
        lines.append(
            f"  {layer:<10} {row['calls']:>7d} {row['self_s']:>10.4f} "
            f"{row['total_s']:>10.4f} {share}"
        )
    return "\n".join(lines)
