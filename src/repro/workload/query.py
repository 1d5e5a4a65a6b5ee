"""The inference query record.

A :class:`Query` is the unit of work the inference server schedules: one
request carrying ``batch`` inputs for one DNN model, arriving at a given
time.  The simulator fills in the scheduling/execution timestamps as the
query flows through the system; the metrics module derives latency and SLA
statistics from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Query:
    """One inference request.

    The runtime fields (``dispatch_time`` … ``instance_id``) are authoritative
    on the naive/reference simulator path.  The fast path keeps them in the
    columnar store (:mod:`repro.sim.columnar`) instead — ``index`` is the
    query's row there — and this object becomes a thin view: the columns are
    materialised onto it when the run finishes, or eagerly while observers
    are attached.

    Attributes:
        query_id: unique id within a trace.
        model: name of the DNN model this query targets.
        batch: number of inputs batched into the query (its "size").
        arrival_time: wall-clock arrival time at the server frontend, seconds.
        sla_target: latency SLA for this query in seconds (``None`` when the
            experiment does not enforce one).
        dispatch_time: when the scheduler assigned the query to a partition.
        start_time: when execution began on the partition.
        finish_time: when execution completed.
        instance_id: partition instance that executed the query.
        index: the query's submission order in the current run (assigned
            at submission): its row in the fast path's columnar store and
            its slot in the arrival-announce flags.
        retries: times the query was displaced by a worker crash and
            requeued (0 without fault injection); kept on this object on
            both simulator paths.
        fail_time: when the query exhausted its retry budget and failed
            (``None`` for queries that completed or never failed).
    """

    query_id: int
    model: str
    batch: int
    arrival_time: float
    sla_target: Optional[float] = None
    dispatch_time: Optional[float] = field(default=None, compare=False)
    start_time: Optional[float] = field(default=None, compare=False)
    finish_time: Optional[float] = field(default=None, compare=False)
    instance_id: Optional[int] = field(default=None, compare=False)
    index: Optional[int] = field(default=None, compare=False, repr=False)
    retries: int = field(default=0, compare=False)
    fail_time: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError(f"query batch must be >= 1, got {self.batch}")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")

    @property
    def completed(self) -> bool:
        """Whether the query has finished execution."""
        return self.finish_time is not None

    @property
    def failed(self) -> bool:
        """Whether the query exhausted its crash-retry budget and failed."""
        return self.fail_time is not None

    @property
    def latency(self) -> float:
        """End-to-end latency (finish - arrival) in seconds.

        Raises:
            ValueError: if the query has not completed yet.
        """
        if self.finish_time is None:
            raise ValueError(f"query {self.query_id} has not completed")
        return self.finish_time - self.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting before execution started, in seconds."""
        if self.start_time is None:
            raise ValueError(f"query {self.query_id} has not started")
        return self.start_time - self.arrival_time

    @property
    def service_time(self) -> float:
        """Pure execution time on the partition, in seconds."""
        if self.start_time is None or self.finish_time is None:
            raise ValueError(f"query {self.query_id} has not completed")
        return self.finish_time - self.start_time

    @property
    def sla_violated(self) -> bool:
        """Whether the completed query missed its SLA (False if no SLA set)."""
        if self.sla_target is None:
            return False
        return self.latency > self.sla_target

    def reset_runtime_state(self) -> None:
        """Clear scheduling/execution timestamps so the query can be re-simulated."""
        self.dispatch_time = None
        self.start_time = None
        self.finish_time = None
        self.instance_id = None
        self.index = None
        self.retries = 0
        self.fail_time = None

    def clone_fresh(self) -> "Query":
        """A pristine copy of the static fields, runtime state cleared.

        The replay-copy path of :meth:`repro.workload.trace.QueryTrace.fresh_copy`:
        constructing directly is cheaper than ``copy.copy`` + reset, and the
        per-trace cost lands inside every timed replay.
        """
        return Query(
            self.query_id, self.model, self.batch, self.arrival_time, self.sla_target
        )
