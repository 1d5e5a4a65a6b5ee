"""Columnar (struct-of-arrays) per-query runtime state for the fast path.

The naive reference path records a query's runtime state — dispatch, start,
finish, executing instance — as attributes on the :class:`~repro.workload.query.Query`
object itself.  That is the right representation for inspection and for the
reference semantics, but it makes the replay hot loop touch thousands of
Python objects and forces statistics digestion to re-scan every object in
Python.

When ``fast_path=True`` the simulator instead keeps that state here, as flat
``array('d')`` / ``array('q')`` columns indexed by submission order:

* the replay loop writes plain array slots instead of object attributes;
* statistics digestion (:func:`repro.sim.metrics.completed_arrays_from_columns`)
  wraps the columns in numpy views via the buffer protocol — zero copies, no
  per-query Python loop — and produces results bit-identical to the object
  scan (same IEEE operations over the same float64 values in the same,
  submission, order);
* :meth:`QueryColumns.write_back` materialises the columns onto the Query
  objects once at the end of a run, so ``SimulationResult.queries`` is
  indistinguishable from a naive replay.

``NaN`` marks an unset timestamp (and a query without an SLA deadline);
``-1`` marks an unset instance id.  The ``announced`` flags mark the queries
whose arrival event has fired (the naive path keeps the same flags in a
plain array): frontend bounces, reconfiguration buffering and crash retries
re-enqueue the same query as a new arrival event, but observers must see
each query arrive exactly once.  A query's crash-retry count is not a
column: it stays on the Query object on both paths, written only when a
worker crashes.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.query import Query

#: Sentinel for "timestamp not set" / "no SLA deadline" column slots.
NAN = float("nan")


class QueryColumns:
    """Struct-of-arrays runtime state of every query submitted to one run.

    One row per submitted query, indexed by submission order; the row index
    is stored on the query object (``Query.index``) so workers can address
    their columns in O(1).  Static per-query facts (model, batch) stay on the
    Query object — they are written once by the generator and only read here.
    """

    __slots__ = (
        "queries",
        "arrival",
        "dispatch",
        "start",
        "finish",
        "deadline",
        "batch",
        "instance",
        "announced",
        "fail_time",
    )

    def __init__(self) -> None:
        self.queries: List["Query"] = []
        self.arrival = array("d")
        self.dispatch = array("d")
        self.start = array("d")
        self.finish = array("d")
        self.deadline = array("d")
        self.batch = array("q")
        self.instance = array("q")
        self.announced = array("b")
        self.fail_time = array("d")

    def __len__(self) -> int:
        return len(self.queries)

    def add(self, query: "Query") -> int:
        """Register ``query`` and return its row index (also set on the query)."""
        index = len(self.queries)
        query.index = index
        self.queries.append(query)
        self.arrival.append(query.arrival_time)
        sla = query.sla_target
        self.deadline.append(NAN if sla is None else sla)
        self.batch.append(query.batch)
        self.dispatch.append(NAN)
        self.start.append(NAN)
        self.finish.append(NAN)
        self.instance.append(-1)
        self.announced.append(0)
        self.fail_time.append(NAN)
        return index

    def write_back(self) -> None:
        """Materialise the columns onto the Query objects.

        Idempotent; called once when a run finishes (and by introspection
        surfaces that hand out the query objects mid-run) so the objects
        carry exactly the values a naive replay would have written.
        """
        dispatch = self.dispatch
        start = self.start
        finish = self.finish
        instance = self.instance
        fail_time = self.fail_time
        for index, query in enumerate(self.queries):
            value = dispatch[index]
            query.dispatch_time = value if value == value else None
            value = start[index]
            query.start_time = value if value == value else None
            value = finish[index]
            query.finish_time = value if value == value else None
            assigned = instance[index]
            query.instance_id = assigned if assigned >= 0 else None
            value = fail_time[index]
            query.fail_time = value if value == value else None


__all__ = ["NAN", "QueryColumns"]
