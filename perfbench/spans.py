"""In-memory span recorder for the traced benchmark run.

A span records one call into a layer: its name (the layer, e.g.
``store.get``), start and end (``time.perf_counter`` seconds), the span that
caused it, the op it belongs to and the thread it ran on.  Spans stay in
memory and are written out as JSON lines when the run ends.

Parenting.  A span opened on a thread that already has an open span nests
under it.  A span opened on a thread with no open span (an HTTP handler
thread of the results service) nests under the innermost span open on the
client thread, which is waiting for that handler's reply.  A span opened with
``attach="op"`` (the service's drain thread, which runs concurrently with the
client's polling) nests under the op's root span instead.

Self time is a span's duration minus the time its child spans cover, with
children clipped to the parent's interval.  Within an op every span is first
clipped to its (clipped) parent, so a span of another thread that outlives
its op -- the drain thread returning after the client already has its
reply -- counts only its part inside the op.  :func:`account_op` checks that
an op's self times account for its wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Slack for floating-point sums of perf_counter intervals (seconds).
EPSILON = 1e-6


@dataclass
class Span:
    """One recorded call into a layer."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        """Wall time of the span in seconds."""
        return self.end - self.start


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


Interval = Tuple[float, float]


def clipped(child: Span, interval: Interval) -> Interval:
    """The part of ``child``'s interval inside ``interval``."""
    start = max(child.start, interval[0])
    end = min(child.end, interval[1])
    return start, max(start, end)


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Map of span id -> direct child spans."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_time(span: Span, children: Sequence[Span],
              interval: Optional[Interval] = None) -> float:
    """Length of ``interval`` (default: ``span``'s own) minus the time the
    children, clipped to it, cover."""
    start, end = interval or (span.start, span.end)
    covered = union_length(clipped(child, (start, end)) for child in children)
    return end - start - covered


def sibling_overlap(span: Span, children: Sequence[Span],
                    interval: Optional[Interval] = None) -> float:
    """Time inside ``interval`` (default: ``span``'s own) during which two or
    more of ``span``'s children ran at once."""
    parts = [clipped(child, interval or (span.start, span.end))
             for child in children]
    return sum(end - start for start, end in parts) - union_length(parts)


def account_op(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name for the spans of one op.

    The op's root is its one span without a parent.  Every span counts only
    its part inside its parent's counted part, the root's being its wall
    time.  Two checks hold for a well-formed op: a span nests inside its
    parent when both ran on the same thread, and the self times sum to the
    root's wall time plus the time concurrent children (spans of other
    threads) overlapped.  ``ValueError`` is raised when either fails.
    """
    by_id = {span.span_id: span for span in spans}
    roots = [span for span in spans if span.parent not in by_id]
    if len(roots) != 1:
        raise ValueError(f"op has {len(roots)} root spans, expected 1")
    root = roots[0]
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if (parent is not None and parent.thread == span.thread
                and (span.start < parent.start - EPSILON
                     or span.end > parent.end + EPSILON)):
            raise ValueError(f"span {span.name!r} escapes its parent "
                             f"{parent.name!r} on the same thread")
    children = children_of(spans)
    totals: Dict[str, float] = {}
    overlap = 0.0
    pending = [(root, (root.start, root.end))]
    while pending:
        span, interval = pending.pop()
        kids = children.get(span.span_id, [])
        totals[span.name] = (totals.get(span.name, 0.0)
                             + self_time(span, kids, interval))
        overlap += sibling_overlap(span, kids, interval)
        pending.extend((kid, clipped(kid, interval)) for kid in kids)
    accounted = sum(totals.values())
    if abs(accounted - (root.duration + overlap)) > EPSILON * max(1, len(spans)):
        raise ValueError(f"self times sum to {accounted:.9f} s, op wall time "
                         f"plus overlap is {root.duration + overlap:.9f} s")
    return totals


class Tracer:
    """Thread-safe in-memory span recorder; disabled unless ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counters: List[Dict[str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_thread = threading.get_ident()
        self._client_stack: List[Span] = []
        self.current_op: Optional[int] = None
        self._op_roots: Dict[int, int] = {}

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, attach: str = "stack") -> Iterator[Optional[Span]]:
        """Record the enclosed block as a span named ``name``.

        ``attach="op"`` parents the span to the current op's root span
        instead of to the innermost open span.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        op = self.current_op
        if attach == "op" and op is not None:
            parent = self._op_roots.get(op)
        elif stack:
            parent = stack[-1].span_id
        elif self._client_stack:
            parent = self._client_stack[-1].span_id
        else:
            parent = None
        record = Span(next(self._ids), name, time.perf_counter(), 0.0,
                      parent, op, threading.get_ident())
        if parent is None and op is not None:
            self._op_roots.setdefault(op, record.span_id)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def op(self, op_id: int, kind: str) -> Iterator[Optional[Span]]:
        """Open the root span of one benchmark op."""
        self.current_op = op_id
        try:
            with self.span(kind) as root:
                yield root
        finally:
            self.current_op = None

    def count(self, **values: float) -> None:
        """Record one set of work counters against the current op."""
        if self.enabled:
            self.counters.append({"op": self.current_op, **values})

    def ops(self) -> Dict[int, List[Span]]:
        """Recorded spans grouped by op id (spans outside ops dropped)."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.op is not None:
                grouped.setdefault(span.op, []).append(span)
        return grouped

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda item: item.start):
                handle.write(json.dumps(asdict(span)) + "\n")
