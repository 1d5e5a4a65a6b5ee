"""GPU partition worker.

A :class:`PartitionWorker` represents one MIG partition instance inside the
inference server.  As in Figure 9 of the paper, every partition has its own
local scheduling queue holding queries yet to be executed, plus (at most) one
query currently executing.  The worker also tracks its cumulative busy time
so the metrics module can report per-partition and server-wide utilization.

Execution times come from the model's :class:`~repro.perf.lookup.ProfileTable`
— the same table ELSA's estimator reads — with an optional multiplicative
noise term to model run-to-run variance of real hardware.

Runtime state can live in two places: on the :class:`~repro.workload.query.Query`
objects themselves (the naive/reference representation) or in the fast path's
columnar store (:class:`~repro.sim.columnar.QueryColumns`), in which case the
worker writes array slots instead of object attributes and the objects are
materialised from the columns when the run finishes (or eagerly, per query,
when lifecycle observers need to read them mid-run).  The worker also clears
the state it wrote when a query leaves without completing
(:meth:`PartitionWorker.drain_queue`, :meth:`PartitionWorker.abort_current`),
so the simulator never needs to know which store is live.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

import numpy as np

from repro.gpu.partition import PartitionInstance
from repro.sim.columnar import NAN, QueryColumns
from repro.workload.query import Query

#: Signature of the execution-latency oracle: (model, batch, gpcs) -> seconds.
LatencyFn = Callable[[str, int, int], float]


class PartitionWorker:
    """One schedulable GPU partition instance inside the server.

    Args:
        instance: the partition instance (size + placement) this worker runs.
        latency_fn: oracle returning the execution latency in seconds of a
            query of a given model/batch on a partition of a given size.
        noise_std: relative standard deviation of multiplicative log-normal
            noise applied to execution times (0 = deterministic, the default;
            DNN inference latency is close to deterministic, Section IV-C).
        seed: RNG seed for the noise term.
        queued_work_cache: cache the summed queued-work estimate between
            queue mutations, so schedulers that poll every worker per arrival
            (ELSA, least-loaded) pay O(1) instead of re-walking the queue.
            The cached value is always a fresh left-to-right sum over the
            queue, so it is bit-identical to an uncached scan.
        created_at: simulation time this worker came online (0 for the
            initial partition set; the reconfiguration completion time for
            workers added by a live repartition).
        columns: the fast path's columnar runtime-state store.  When given,
            dispatch/start/finish timestamps are written to array slots
            (``Query.index`` addresses the row) instead of query attributes.
        write_through: with ``columns``, *also* write the query attributes —
            enabled when lifecycle observers are attached, so handlers can
            read e.g. ``query.finish_time`` the moment the event fires.
    """

    def __init__(
        self,
        instance: PartitionInstance,
        latency_fn: LatencyFn,
        noise_std: float = 0.0,
        seed: Optional[int] = None,
        queued_work_cache: bool = True,
        created_at: float = 0.0,
        columns: Optional[QueryColumns] = None,
        write_through: bool = False,
    ) -> None:
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.instance = instance
        #: Partition size / id / architecture cached as plain attributes:
        #: the scheduling hot loops read them once per worker per arrival,
        #: and a chain of two properties is measurable there.
        self.gpcs: int = instance.gpcs
        self.instance_id: int = instance.instance_id
        self.arch_name: str = instance.partition.architecture.name
        self.latency_fn = latency_fn
        self.noise_std = noise_std
        self._rng = np.random.default_rng(seed)

        self.queue: Deque[Query] = deque()
        self.current_query: Optional[Query] = None
        self.current_finish_time: Optional[float] = None
        self.busy_time = 0.0
        self.completed: List[Query] = []

        #: Active-span bookkeeping for utilization accounting: a worker is
        #: only accountable for the window it actually existed in.
        self.created_at = created_at
        self.retired_at: Optional[float] = None

        #: Straggler multiplier (fault injection): service times and queued
        #: work estimates scale by this factor while it is > 1.0, so
        #: wait-aware schedulers (ELSA, least-loaded) route around the slow
        #: partition.  Exactly 1.0 leaves every code path untouched.
        self.slow_factor: float = 1.0

        self._columns = columns
        self._write_objects = columns is None or write_through
        self._current_start = 0.0

        self._qw_cache_enabled = queued_work_cache
        self._qw_estimator: Optional[LatencyFn] = None
        #: Per-query estimates (same order as ``queue``) under the current
        #: estimator, so a recompute is a pure float sum with no lookups.
        self._qw_estimates: Deque[float] = deque()
        self._qw_total = 0.0
        self._qw_dirty = True

    # ------------------------------------------------------------------ #
    # identity / state
    # ------------------------------------------------------------------ #
    @property
    def is_idle(self) -> bool:
        """True when nothing is executing and the local queue is empty."""
        return self.current_query is None and not self.queue

    @property
    def is_executing(self) -> bool:
        """True when a query is currently executing."""
        return self.current_query is not None

    @property
    def queue_depth(self) -> int:
        """Number of queries waiting in the local queue (excluding executing)."""
        return len(self.queue)

    def enable_write_through(self) -> None:
        """Mirror columnar writes onto the query objects from now on."""
        self._write_objects = True

    # ------------------------------------------------------------------ #
    # execution model
    # ------------------------------------------------------------------ #
    def service_time(self, query: Query) -> float:
        """Execution latency of ``query`` on this partition (with noise, if any)."""
        base = self.latency_fn(query.model, query.batch, self.gpcs)
        if base <= 0:
            raise ValueError(
                f"latency oracle returned non-positive time {base} for "
                f"{query.model} batch {query.batch} on GPU({self.gpcs})"
            )
        if self.slow_factor != 1.0:
            base *= self.slow_factor
        if self.noise_std == 0.0:
            return base
        factor = float(self._rng.lognormal(mean=0.0, sigma=self.noise_std))
        return base * factor

    # ------------------------------------------------------------------ #
    # queue operations (driven by the cluster simulator)
    # ------------------------------------------------------------------ #
    def enqueue(self, query: Query, now: float) -> None:
        """Append ``query`` to this worker's local scheduling queue."""
        columns = self._columns
        if columns is not None:
            index = query.index
            columns.dispatch[index] = now
            columns.instance[index] = self.instance_id
        if self._write_objects:
            query.dispatch_time = now
            query.instance_id = self.instance_id
        if self._qw_cache_enabled and self._qw_estimator is not None:
            # Estimate before mutating, so an estimator error cannot leave
            # the queue and its estimate cache out of sync.
            estimate = self._qw_estimator(query.model, query.batch, self.gpcs)
            self.queue.append(query)
            self._qw_estimates.append(estimate)
            if not self._qw_dirty:
                # Appending on the right extends the cached left-to-right
                # sum exactly (same fold order as a fresh scan).
                self._qw_total += estimate
        else:
            self.queue.append(query)

    def start_next(self, now: float) -> Optional[float]:
        """Begin executing the head of the local queue, if idle and non-empty.

        Returns:
            The completion timestamp of the started query, or ``None`` when
            nothing was started (already busy, or queue empty).
        """
        if self.current_query is not None or not self.queue:
            return None
        query = self.queue.popleft()
        if self._qw_estimates:
            self._qw_estimates.popleft()
        self._qw_dirty = True
        columns = self._columns
        if columns is not None:
            columns.start[query.index] = now
        if self._write_objects:
            query.start_time = now
        self._current_start = now
        duration = self.service_time(query)
        self.current_query = query
        self.current_finish_time = now + duration
        return self.current_finish_time

    def complete_current(self, now: float) -> Query:
        """Finish the currently executing query at time ``now``.

        Raises:
            RuntimeError: if no query is executing.
        """
        if self.current_query is None or self.current_finish_time is None:
            raise RuntimeError(
                f"worker {self.instance_id} has no executing query to complete"
            )
        query = self.current_query
        columns = self._columns
        if columns is not None:
            columns.finish[query.index] = now
        if self._write_objects:
            query.finish_time = now
        self.busy_time += now - self._current_start
        self.completed.append(query)
        self.current_query = None
        self.current_finish_time = None
        return query

    # ------------------------------------------------------------------ #
    # introspection used by schedulers (ELSA's T_wait, Equation 1)
    # ------------------------------------------------------------------ #
    def remaining_execution_time(self, now: float) -> float:
        """Remaining execution time of the in-flight query (0 when idle).

        This mirrors the paper's timestamp mechanism: the scheduler knows the
        estimated end-to-end time of the executing query and how long it has
        been running, and derives the remainder.
        """
        if self.current_finish_time is None:
            return 0.0
        return max(0.0, self.current_finish_time - now)

    def queued_work(self, estimator: LatencyFn) -> float:
        """Summed estimated execution time of every queued (not started) query.

        With the queued-work cache enabled (the default) the sum is
        recomputed only after the queue changed or when queried with a
        different estimator object; schedulers that poll every worker per
        arrival with one persistent estimator therefore pay O(1) here.
        """
        if not self._qw_cache_enabled:
            total = sum(
                estimator(query.model, query.batch, self.gpcs) for query in self.queue
            )
            return total * self.slow_factor if self.slow_factor != 1.0 else total
        if estimator is not self._qw_estimator:
            gpcs = self.gpcs
            self._qw_estimates = deque(
                estimator(query.model, query.batch, gpcs) for query in self.queue
            )
            self._qw_estimator = estimator
            self._qw_total = sum(self._qw_estimates)
            self._qw_dirty = False
        elif self._qw_dirty:
            # A fresh left-to-right sum over the cached per-query estimates:
            # bit-identical to scanning the queue through the estimator.
            self._qw_total = sum(self._qw_estimates)
            self._qw_dirty = False
        if self.slow_factor != 1.0:
            return self._qw_total * self.slow_factor
        return self._qw_total

    def estimated_wait(self, now: float, estimator: LatencyFn) -> float:
        """ELSA's ``T_wait``: queued work plus remainder of the running query.

        One call per worker per arrival in the scheduling hot loop, so the
        clean-cache case is answered inline instead of through two further
        method calls; the arithmetic is identical either way.
        """
        if (
            self._qw_cache_enabled
            and estimator is self._qw_estimator
            and not self._qw_dirty
        ):
            queued = self._qw_total
            if self.slow_factor != 1.0:
                queued *= self.slow_factor
        else:
            queued = self.queued_work(estimator)
        finish = self.current_finish_time
        if finish is None:
            return queued
        remaining = finish - now
        return queued + (remaining if remaining > 0.0 else 0.0)

    def abort_current(self, now: float) -> Optional[Query]:
        """Abort the in-flight query at ``now`` (the worker crashed).

        The partial execution still counts as busy time — the partition
        really was occupied until the crash — but the query's completion
        never happens; the caller requeues or fails it and discards the
        already-scheduled completion event.  The query's dispatch and start
        state is cleared.

        Returns:
            The aborted query, or ``None`` when nothing was executing.
        """
        query = self.current_query
        if query is None:
            return None
        self.busy_time += now - self._current_start
        self.current_query = None
        self.current_finish_time = None
        self._unassign(query)
        return query

    def drain_queue(self) -> List[Query]:
        """Remove and return every queued (not started) query, in order.

        Used by live reconfiguration and crashes to pull un-started work
        back off a partition; clears the queries' dispatch state and keeps
        the queued-work cache consistent.
        """
        drained = list(self.queue)
        self.queue.clear()
        self._qw_estimates.clear()
        self._qw_dirty = True
        for query in drained:
            self._unassign(query)
        return drained

    def _unassign(self, query: Query) -> None:
        """Forget ``query``'s dispatch, start and instance: it left this
        worker without completing."""
        columns = self._columns
        if columns is not None:
            index = query.index
            columns.dispatch[index] = NAN
            columns.start[index] = NAN
            columns.instance[index] = -1
        if self._write_objects:
            query.dispatch_time = None
            query.start_time = None
            query.instance_id = None

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this partition spent executing queries."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def active_span(self, makespan: float) -> float:
        """Wall-clock span this worker existed within ``[0, makespan]``.

        Workers retired by a live repartition stop accruing (and stop being
        accountable for) time at ``retired_at``; workers added by one only
        start at ``created_at``.  Utilization statistics normalise busy time
        by this span rather than the whole-run makespan, so a fully busy
        worker that was retired halfway through a run still reports ~1.0.
        """
        end = makespan if self.retired_at is None else min(self.retired_at, makespan)
        return max(0.0, end - self.created_at)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "busy" if self.is_executing else "idle"
        return (
            f"PartitionWorker(id={self.instance_id}, GPU({self.gpcs}), {state}, "
            f"queued={self.queue_depth})"
        )
