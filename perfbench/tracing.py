"""In-memory spans recorded from outside the program.

A :class:`Tracer` wraps public functions and methods of the simulator at run
time (never editing their source) so that every call records a span: name,
start, end, the span that caused it and the operation it belongs to.  Spans
stay in memory and are written out when the run ends.  Calls too frequent to
time individually (the latency oracle, a worker's wait estimate) are only
counted.

:func:`self_times` turns spans into per-span self time: a span's duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One timed call.  ``parent`` indexes the tracer's span list (-1 = root)."""

    __slots__ = ("name", "start", "end", "parent", "op", "size")

    def __init__(
        self,
        name: str,
        start: float,
        end: float = math.nan,
        parent: int = -1,
        op: Optional[str] = None,
        size: int = 0,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.size = size

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patcher:
    """Replace attributes of classes or modules and put them back later."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        self._saved.append((owner, attr, original, own or not isinstance(owner, type)))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Tracer:
    """Spans and call counts for one traced run.

    Attributes:
        spans: every span recorded, in open order.
        op: the operation id new root spans are attributed to.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: List[Dict[str, int]] = []
        self._patcher = Patcher()

    # -- spans --------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: Optional[str] = None) -> int:
        """Start a span on the calling thread; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None:
            op = self.spans[parent].op if parent >= 0 else self.op
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent=parent, op=op))
        stack.append(index)
        return index

    def close(self, index: int, size: int = 0) -> None:
        """End the span ``index`` (the innermost open span of this thread)."""
        span = self.spans[index]
        span.end = self.clock()
        span.size = size
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    # -- counts -------------------------------------------------------- #
    def _counts(self) -> Dict[str, int]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def counts(self) -> Counter:
        """Call counts summed over every thread."""
        total: Counter = Counter()
        with self._lock:
            for counts in self._thread_counts:
                total.update(counts)
        return total

    # -- wrapping ------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        op_of: Optional[Callable[[tuple], str]] = None,
        size_of: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``op_of(args)`` names the operation of calls made outside the
        benchmark's own thread; ``size_of(result)`` records a work size.
        """
        tracer = self

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                index = tracer.open(name, op_of(args) if op_of is not None else None)
                size = 0
                try:
                    result = original(*args, **kwargs)
                    if size_of is not None:
                        size = size_of(result)
                    return result
                finally:
                    tracer.close(index, size)

            return traced

        self._patcher.patch(owner, attr, make)

    def wrap_count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` without timing them."""
        counts_of = self._counts

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts = counts_of()
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            return counted

        self._patcher.patch(owner, attr, make)

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Any other run-time patch, undone by :meth:`restore`."""
        self._patcher.patch(owner, attr, make)

    def restore(self) -> None:
        """Unwrap everything this tracer wrapped."""
        self._patcher.restore()

    # -- output -------------------------------------------------------- #
    def dump(self, path: Path) -> None:
        """Write the spans as NDJSON rows (``name start end parent op size``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            for span in self.spans:
                op = "null" if span.op is None else f'"{span.op}"'
                stream.write(
                    f'{{"name": "{span.name}", "start": {span.start!r}, '
                    f'"end": {span.end!r}, "parent": {span.parent}, '
                    f'"op": {op}, "size": {span.size}}}\n'
                )


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus what its children cover (overlaps once)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(span.start, span.end, children.get(index, ()))
        for index, span in enumerate(spans)
    ]


class SpanTotals:
    """Per-name call count, self time, and inclusive time and work size of
    the outermost spans of each name (a span nested in a same-name span is
    part of its parent's work)."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.size: Counter = Counter()
        for span, own in zip(spans, self_times(spans)):
            self.calls[span.name] += 1
            self.self_time[span.name] += own
            if span.parent < 0 or spans[span.parent].name != span.name:
                self.total[span.name] += span.duration
                self.size[span.name] += span.size
