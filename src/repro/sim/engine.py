"""Minimal deterministic discrete-event engine.

The engine is intentionally tiny: a priority queue of events and a
monotonically advancing clock.  The interesting behaviour (queueing,
scheduling, execution) lives in :mod:`repro.sim.cluster`; keeping the engine
separate makes it independently testable and reusable (the scheduling
timeline examples drive it directly).

Two queue implementations share one contract:

* :class:`EventQueue` — the reference queue of :class:`Event` dataclass
  instances, used by the naive replay path and by anything that wants rich,
  inspectable event objects;
* :class:`TupleEventQueue` — the fast path's heap of plain
  ``(time, kind, seq, query, worker)`` tuples.  Tuples compare element-wise
  in C, so the O(log n) comparisons of every heap operation never enter
  Python, and no :class:`Event` object is ever constructed in the hot loop —
  :meth:`TupleEventQueue.materialize` builds one lazily on the rare occasion
  a caller wants the dataclass view of an entry.

Both order events by ``(time, kind, sequence)`` — the same total order as
:class:`Event` itself — which is what keeps the fast and naive replays
bit-identical: completions still beat arrivals at equal timestamps, and
reconfigurations still come last.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from repro.sim.events import Event, EventKind
from repro.workload.query import Query

#: A fast-path heap entry: ``(time, kind, seq, query, worker)``.  ``seq`` is
#: unique per queue, so comparisons never reach the non-comparable payload
#: slots.  The simulator's completions carry the worker's instance id in the
#: ``worker`` slot, like :attr:`Event.instance_id`.
TupleEvent = Tuple[float, int, int, Optional[Query], Any]


class SimulationClock:
    """A monotonically non-decreasing simulation clock."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("start time must be non-negative")
        self._now = start

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time``.

        Raises:
            ValueError: if ``time`` is in the past — the simulator never
                rewinds, so a violation indicates an event-ordering bug.
        """
        if time < self._now - 1e-12:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {time}"
            )
        self._now = max(self._now, time)


class EventQueue:
    """A deterministic priority queue of simulation events."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        kind: EventKind,
        query: Optional[Query] = None,
        instance_id: Optional[int] = None,
    ) -> Event:
        """Create and enqueue an event, assigning it the next sequence number."""
        event = Event(
            time=time,
            kind=kind,
            sequence=self._sequence,
            query=query,
            instance_id=instance_id,
        )
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises:
            IndexError: if the queue is empty.
        """
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """Return (without removing) the earliest event.

        Drain loops that only need the next event *time* should peek instead
        of popping and re-pushing: a peek is one C-level index, a pop +
        re-push is two O(log n) heap walks.
        """
        if not self._heap:
            raise IndexError("peek into empty event queue")
        return self._heap[0]


class TupleEventQueue:
    """The fast path's tuple-keyed event heap.

    Same deterministic ``(time, kind, sequence)`` total order as
    :class:`EventQueue`, but entries are plain tuples: no dataclass
    construction per event, and heap comparisons run entirely in C.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: List[TupleEvent] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        kind: int,
        query: Optional[Query] = None,
        worker: Any = None,
    ) -> TupleEvent:
        """Enqueue ``(time, kind, seq, query, worker)`` and return the entry."""
        entry = (time, int(kind), self._sequence, query, worker)
        self._sequence += 1
        heapq.heappush(self._heap, entry)
        return entry

    def extend_sorted(self, times: List[float], kind: int, queries: List[Query]) -> None:
        """Bulk-enqueue already-sorted same-kind events into an *empty* queue.

        A list sorted by ``(time, kind, seq)`` is already a valid min-heap,
        so a whole trace submission costs O(n) appends instead of n
        O(log n) ``heappush`` walks.

        Raises:
            ValueError: when the queue is non-empty or the times are not
                non-decreasing (callers pre-check and take the per-event
                push path instead; a failed bulk load leaves the queue
                empty and the sequence counter untouched).
        """
        if self._heap:
            raise ValueError("extend_sorted requires an empty queue")
        kind = int(kind)
        sequence = self._sequence
        heap = self._heap
        previous = float("-inf")
        for offset, time in enumerate(times):
            if time < previous:
                del heap[:]
                self._sequence = sequence
                raise ValueError("extend_sorted requires non-decreasing times")
            previous = time
            heap.append((time, kind, sequence + offset, queries[offset], None))
        self._sequence = sequence + len(times)

    def pop(self) -> TupleEvent:
        """Remove and return the earliest entry.

        Raises:
            IndexError: if the queue is empty.
        """
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)

    def peek(self) -> TupleEvent:
        """Return (without removing) the earliest entry."""
        if not self._heap:
            raise IndexError("peek into empty event queue")
        return self._heap[0]

    @staticmethod
    def materialize(entry: TupleEvent) -> Event:
        """Lazily build the :class:`Event` dataclass view of ``entry``.

        The hot loop never calls this; it exists for callers (tests,
        debugging, observers of raw engine events) that want the rich object.
        """
        time, kind, sequence, query, worker = entry
        instance_id = getattr(worker, "instance_id", worker)
        return Event(
            time=time,
            kind=EventKind(kind),
            sequence=sequence,
            query=query,
            instance_id=instance_id,
        )
