"""The inference-server simulator.

:class:`InferenceServerSimulator` replays a query trace against a set of
partition workers under a pluggable scheduling policy, using the
discrete-event engine.  It implements the server structure of Figure 6/9 of
the paper:

* a *frontend* receives queries (arrival events) and immediately consults the
  scheduler;
* per-partition *local scheduling queues* hold dispatched queries until their
  partition is free (ELSA-style policies);
* a server-wide *central queue* holds queries the scheduler chose not to
  dispatch yet (FIFS-style policies), drained whenever a partition goes idle.

Execution latency comes from the profiled lookup tables, so the simulator,
ELSA's estimator and PARIS all share one source of truth — exactly as in the
paper, where all three consume the same one-time profiling results.

Two run surfaces are offered:

* the classic one-shot :meth:`InferenceServerSimulator.run` (replay a whole
  trace, get one :class:`SimulationResult`), and
* a **streaming** surface — :meth:`begin` / :meth:`submit` /
  :meth:`run_until` / :meth:`finish` — used by
  :class:`~repro.serving.session.ServingSession` to pause the simulation at
  trigger checkpoints and :meth:`reconfigure` the partition set *mid-run*
  with a modeled MIG reconfiguration downtime.

Both surfaces publish typed lifecycle events (:mod:`repro.sim.hooks`) to any
registered observers; with no observers attached the event layer is skipped
entirely, so the one-shot replay loop costs the same as before it existed.

Both replay paths run one set of event handlers: :meth:`~InferenceServerSimulator._arrive`
(announce dedupe, reconfiguration hold, serial frontend, dispatch or park in
the central queue) and :meth:`~InferenceServerSimulator._complete` (hooks,
drain check, start-next, central-queue pull, ``WorkerIdle``).  ``fast_path``
(the default) changes only the five data structures under them:

* the event queue: a tuple-keyed heap
  (:class:`~repro.sim.engine.TupleEventQueue`, C-level comparisons) instead
  of :class:`~repro.sim.events.Event` objects;
* per-query runtime state: a struct-of-arrays store
  (:class:`~repro.sim.columnar.QueryColumns`) that statistics digestion reads
  zero-copy, instead of :class:`~repro.workload.query.Query` attributes;
* the latency oracle: a memoized :class:`~repro.perf.lookup.CachedEstimator`
  plus each worker's queued-work cache, instead of uncached table lookups;
* the scheduling context: one reused
  :class:`~repro.sim.scheduler_api.SchedulingContext` instead of a fresh
  snapshot per scheduling moment;
* the scheduler index: a policy that keeps one (ELSA's size groups) builds it
  through :meth:`~repro.sim.scheduler_api.Scheduler.on_roster_change`, and the
  simulator keeps it current; the naive path has none.

The naive path is the reference both semantics (bit-identical results,
pinned by the identity property tests) and timing (the replay-speed
benchmark) are measured against.
"""

from __future__ import annotations

import dataclasses
import heapq
from array import array
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.gpu.partition import PartitionInstance
from repro.perf.lookup import CachedEstimator, ProfileTable
from repro.sim.columnar import QueryColumns
from repro.sim.engine import EventQueue, SimulationClock, TupleEventQueue
from repro.sim.events import EventKind
from repro.sim.hooks import (
    QueryArrived,
    QueryCompleted,
    QueryDispatched,
    QueryFailed,
    QueryRequeued,
    ReconfigEventsOnly,
    ReconfigFinished,
    ReconfigStarted,
    SimEvent,
    SimulationObserver,
    SlaViolated,
    WorkerCrashed,
    WorkerIdle,
    WorkerRecovered,
    build_dispatch_table,
)
from repro.sim.metrics import (
    ServerStatistics,
    completed_arrays_from_columns,
    compute_statistics,
    compute_statistics_from_arrays,
)
from repro.sim.scheduler_api import Scheduler, SchedulingContext, WorkerIndex
from repro.sim.worker import LatencyFn, PartitionWorker
from repro.workload.query import Query
from repro.workload.trace import QueryTrace

#: EventKind members as module constants: a global load is a few
#: nanoseconds, an attribute read through the enum metaclass about 20x that.
#: Both queues accept them, and heap-entry ints compare equal to them.
_ARRIVAL = EventKind.ARRIVAL
_COMPLETION = EventKind.COMPLETION


class RetryPolicyLike(Protocol):
    """What :meth:`InferenceServerSimulator.crash_worker` needs from a retry
    policy (structurally :class:`repro.faults.RetryPolicy` — duck-typed so
    the simulator layer does not import the faults package)."""

    max_retries: int

    def delay(self, attempt: int) -> float:
        """Backoff in seconds before retry ``attempt`` (1-based)."""
        ...


@dataclass(frozen=True)
class ReconfigurationRecord:
    """One live MIG repartition performed during a streaming run.

    Attributes:
        started: simulation time the reconfiguration was requested (old
            partitions stop accepting new work from this instant).
        drain_completed: when the last in-flight query of the old partition
            set finished executing.
        finished: when the new partition set came online
            (``drain_completed + reconfig_cost``).
        requeued: queries pulled back off local/central queues at ``started``.
        buffered_arrivals: queries that arrived during the downtime and were
            buffered at the frontend.
        old_instance_ids / new_instance_ids: the partition instances swapped
            out / in.
    """

    started: float
    drain_completed: float
    finished: float
    requeued: int
    buffered_arrivals: int
    old_instance_ids: Tuple[int, ...]
    new_instance_ids: Tuple[int, ...]

    @property
    def downtime(self) -> float:
        """Wall-clock span the server accepted no new work (seconds)."""
        return self.finished - self.started


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated trace replay.

    Attributes:
        statistics: aggregate latency/utilization/throughput statistics.
        queries: the replayed queries with their execution timestamps filled.
        per_instance_queries: number of queries each partition instance served.
        scheduler_name: the policy that produced this result.
        reconfigurations: live repartitions performed during the run (empty
            for classic one-shot replays).
    """

    statistics: ServerStatistics
    queries: Sequence[Query]
    per_instance_queries: Dict[int, int]
    scheduler_name: str
    reconfigurations: Tuple[ReconfigurationRecord, ...] = ()

    @property
    def p95_latency(self) -> float:
        """p95 tail latency in seconds."""
        return self.statistics.latency.p95

    @property
    def throughput_qps(self) -> float:
        """Achieved throughput in queries per second."""
        return self.statistics.throughput_qps

    @property
    def sla_violation_rate(self) -> float:
        """Fraction of SLA-carrying queries that missed their SLA."""
        return self.statistics.latency.sla_violation_rate


@dataclass
class _StagedReconfig:
    """Bookkeeping of an in-flight reconfiguration (internal)."""

    started: float
    drain_deadline: float
    new_workers: List[PartitionWorker]
    requeued: List[Query]
    old_instance_ids: Tuple[int, ...]


class InferenceServerSimulator:
    """Replay query traces against a partitioned multi-GPU server.

    Args:
        instances: the partition instances of the server (from
            :meth:`repro.gpu.server.MultiGPUServer.configure` or a
            :class:`~repro.serving.deployment.Deployment`).
        profiles: profiled lookup tables keyed by model name; every model
            appearing in a trace must be present.
        scheduler: the scheduling policy to drive.
        execution_noise_std: relative log-normal noise on execution times
            (0 = deterministic).
        seed: RNG seed for execution noise.
        frontend_capacity_qps: maximum rate at which the server frontend can
            dispatch queries to the GPU workers, in queries/second.  The
            paper's serving stack (DeepRecInfra) has such a frontend, and
            Section V explicitly calls out configurations where the backend
            GPU workers outpace it; ``None`` disables the limit.
        observers: lifecycle-event observers (:mod:`repro.sim.hooks`); more
            can be attached later with :meth:`add_observer`.
        fast_path: enable the columnar replay core — tuple-keyed event heap,
            struct-of-arrays runtime state with zero-copy digestion, memoized
            :class:`~repro.perf.lookup.CachedEstimator`, incrementally
            maintained queued-work totals, a reused scheduling context and
            the scheduler's own worker index, if it keeps one.  Simulated
            outcomes are bit-identical either way (pinned by the replay
            benchmark and the identity property tests); the naive path
            exists as the reference for that contract and for speed
            comparisons.
        arch_profiles: per-architecture per-model lookup tables
            (``architecture name -> model name -> table``) for
            mixed-architecture fleets.  With two or more architectures every
            worker executes (and every scheduling context estimates)
            through *its own* architecture's memoized oracle; the scheduling
            context additionally exposes the per-architecture oracles via
            ``SchedulingContext.estimators``.  ``None`` (or a single
            architecture) keeps the classic single-oracle behaviour
            bit-for-bit.
    """

    def __init__(
        self,
        instances: Sequence[PartitionInstance],
        profiles: Dict[str, ProfileTable],
        scheduler: Scheduler,
        execution_noise_std: float = 0.0,
        seed: int = 0,
        frontend_capacity_qps: Optional[float] = None,
        observers: Sequence[SimulationObserver] = (),
        fast_path: bool = True,
        arch_profiles: Optional[Dict[str, Dict[str, ProfileTable]]] = None,
    ) -> None:
        if not instances:
            raise ValueError("simulator requires at least one partition instance")
        if not profiles:
            raise ValueError("simulator requires at least one profiled model")
        if frontend_capacity_qps is not None and frontend_capacity_qps <= 0:
            raise ValueError("frontend_capacity_qps must be positive when set")
        self.profiles = dict(profiles)
        self.scheduler = scheduler
        self.frontend_capacity_qps = frontend_capacity_qps
        self._instances = sorted(instances, key=lambda i: (i.gpcs, i.instance_id))
        self._noise = execution_noise_std
        self._seed = seed
        self._observers: List[SimulationObserver] = list(observers)
        self._fast = bool(fast_path)
        self._columns: Optional[QueryColumns] = QueryColumns() if self._fast else None
        self._rebind_handlers()
        self._estimator: Optional[CachedEstimator] = (
            CachedEstimator(self.profiles) if self._fast else None
        )
        #: The latency oracle handed to workers and scheduling contexts; one
        #: persistent object so the workers' queued-work caches can key on it.
        self._latency_fn = self._estimator if self._fast else self.estimate_latency
        #: Mixed fleets: one persistent memoized oracle per architecture
        #: (both paths — the oracle is semantics here, not an optimisation).
        self._arch_estimators: Optional[Dict[str, CachedEstimator]] = None
        if arch_profiles is not None and len(arch_profiles) > 1:
            self._arch_estimators = {
                name: CachedEstimator(dict(tables))
                for name, tables in arch_profiles.items()
            }
            missing = sorted(
                {
                    instance.partition.architecture.name
                    for instance in self._instances
                }
                - set(self._arch_estimators)
            )
            if missing:
                raise ValueError(
                    f"instances use architecture(s) {missing} absent from "
                    f"arch_profiles {sorted(self._arch_estimators)}"
                )
        self.workers: List[PartitionWorker] = []
        self._active = False
        self._build_workers()
        self._reset_run_state()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _new_worker(self, instance: PartitionInstance, seed: int) -> PartitionWorker:
        """A worker on ``instance``, wired to this path's latency oracle
        (per-architecture on mixed fleets) and runtime-state store."""
        latency_fn: LatencyFn = self._latency_fn
        if self._arch_estimators is not None:
            latency_fn = self._arch_estimators[instance.partition.architecture.name]
        return PartitionWorker(
            instance=instance,
            latency_fn=latency_fn,
            noise_std=self._noise,
            seed=seed,
            queued_work_cache=self._fast,
            columns=self._columns,
            write_through=self._write_through,
        )

    def _build_workers(self) -> None:
        self.workers = [
            self._new_worker(instance, self._seed + idx)
            for idx, instance in enumerate(self._instances)
        ]
        self._workers_by_id = {w.instance_id: w for w in self.workers}

    def _reset_run_state(self) -> None:
        self._clock = SimulationClock()
        # The event queue and where the arrival-announce flags live (indexed
        # by submission order).  Completion events carry the worker's
        # instance id on both queues.
        self._events: Union[EventQueue, TupleEventQueue]
        self._announced: array[int]
        if self._columns is not None:
            self._events = TupleEventQueue()
            self._announced = self._columns.announced
        else:
            self._events = EventQueue()
            self._announced = array("b")
        self._central_queue: Deque[Query] = deque()
        self._events_processed = 0
        self._context: Optional[SchedulingContext] = None
        # The scheduler's worker index (fast path): its roster hook is bound
        # when a run opens, and the index and its worker hook are replaced on
        # every roster change and dropped when the run closes.
        self._roster_hook: Optional[
            Callable[[Sequence[PartitionWorker]], Optional[WorkerIndex]]
        ] = None
        self._index: Optional[WorkerIndex] = None
        self._worker_hook: Optional[Callable[[PartitionWorker], None]] = None
        self._frontend_gap = (
            1.0 / self.frontend_capacity_qps if self.frontend_capacity_qps else 0.0
        )
        self._frontend_available = 0.0
        self._submitted: List[Query] = []
        self._retired_workers: List[PartitionWorker] = []
        self._draining_ids: Set[int] = set()
        self._held: List[Query] = []
        self._staged: Optional[_StagedReconfig] = None
        self._reconfig_log: List[ReconfigurationRecord] = []
        self._next_instance_id = 1 + max(i.instance_id for i in self._instances)
        # Fault-injection state: crashed workers by instance id (insertion =
        # crash order), queries that exhausted their retry budget, and
        # tombstones discarding the already-scheduled completion events of
        # aborted in-flight queries.  Keys are fully deterministic
        # (finish time, query id, instance id) — never object identity.
        self._crashed: Dict[int, PartitionWorker] = {}
        self._failed: List[Query] = []
        self._tombstones: Dict[Tuple[float, int, int], int] = {}

    def _rebind_handlers(self) -> None:
        """Pre-resolve the observer dispatch table into per-type attributes.

        The hot loop reads one attribute per event instead of a dictionary
        lookup per emission point; an empty tuple means "nobody listens —
        do not even construct the event".

        Columnar-capable observers (``columnar_capable`` attribute, e.g.
        :class:`~repro.sim.hooks.WindowedMetrics`) are bound to the run's
        columnar store on the fast path and subscribed through a
        reconfiguration-only view: their per-query events are never
        constructed — they digest the columns lazily instead.
        """
        delivered: List[SimulationObserver] = []
        for observer in self._observers:
            if (
                self._columns is not None
                and getattr(observer, "columnar_capable", False)
                and observer.attach_columns(self._columns, self)
            ):
                delivered.append(ReconfigEventsOnly(observer))
            else:
                delivered.append(observer)
        self._dispatch_table = build_dispatch_table(delivered)
        get = self._dispatch_table.get
        self._h_arrived = get(QueryArrived, ())
        self._h_dispatched = get(QueryDispatched, ())
        self._h_completed = get(QueryCompleted, ())
        self._h_sla = get(SlaViolated, ())
        self._h_idle = get(WorkerIdle, ())
        self._h_requeued = get(QueryRequeued, ())
        self._h_reconfig_started = get(ReconfigStarted, ())
        self._h_reconfig_finished = get(ReconfigFinished, ())
        self._h_failed = get(QueryFailed, ())
        self._h_crashed = get(WorkerCrashed, ())
        self._h_recovered = get(WorkerRecovered, ())
        #: With per-query handlers attached, columnar workers also write the
        #: query objects so handlers can read e.g. ``query.finish_time`` the
        #: moment the event fires.
        self._write_through = bool(
            self._h_arrived
            or self._h_dispatched
            or self._h_completed
            or self._h_sla
            or self._h_requeued
            or self._h_failed
        )

    def add_observer(self, observer: SimulationObserver) -> None:
        """Attach a lifecycle-event observer."""
        self._observers.append(observer)
        self._rebind_handlers()
        columns = self._columns
        if columns is not None and self._write_through:
            staged = self._staged.new_workers if self._staged is not None else ()
            for worker in (*self._all_workers(), *staged):
                worker.enable_write_through()
            # queries already dispatched before write-through turned on have
            # runtime state only in the columns; materialise it so the new
            # handlers read current timestamps, exactly like the naive path
            columns.write_back()

    def _reindex(self) -> None:
        """The live roster changed: ask the scheduler for a fresh index."""
        hook = self._roster_hook
        index = hook(self.workers) if hook is not None else None
        self._index = index
        self._worker_hook = index.worker_changed if index is not None else None
        self._context = None  # the next reused context carries the new index

    def _context_for(self, now: float) -> SchedulingContext:
        """The scheduling context at ``now``.

        The naive path builds a fresh snapshot (copied central queue) per
        scheduling moment.  The fast path reuses one object over live
        (read-only) views: the central queue is the simulator's own deque —
        documented read-only for schedulers — and only ``now`` changes
        between scheduling moments, so the frozen dataclass is rebuilt only
        when the worker list itself is swapped (a live reconfiguration) or
        the roster changed (:meth:`_reindex`).
        """
        if not self._fast:
            return SchedulingContext(
                now=now,
                workers=self.workers,
                central_queue=tuple(self._central_queue),
                estimator=self._latency_fn,
                estimators=self._arch_estimators,
            )
        context = self._context
        if context is None or context.workers is not self.workers:
            context = self._context = SchedulingContext(
                now=now,
                workers=self.workers,
                central_queue=self._central_queue,
                estimator=self._latency_fn,
                estimators=self._arch_estimators,
                index=self._index,
            )
        else:
            object.__setattr__(context, "now", now)
        return context

    def estimate_latency(self, model: str, batch: int, gpcs: int) -> float:
        """Profiled execution latency of (model, batch) on ``GPU(gpcs)``.

        Raises:
            KeyError: if the model was not profiled.
        """
        if self._estimator is not None:
            return self._estimator(model, batch, gpcs)
        if model not in self.profiles:
            raise KeyError(
                f"model {model!r} has no profile table; profiled models: "
                f"{sorted(self.profiles)}"
            )
        return self.profiles[model].latency(gpcs, batch)

    # ------------------------------------------------------------------ #
    # one-shot surface
    # ------------------------------------------------------------------ #
    def run(self, trace: QueryTrace) -> SimulationResult:
        """Replay ``trace`` and return the resulting statistics.

        The input trace is copied (with runtime state cleared) before the
        replay, so a single trace object can safely be reused across designs.
        """
        replay = trace.fresh_copy()
        self.begin()
        self.submit_trace(replay)
        self.run_until(None)
        return self.finish(offered_load_qps=replay.arrival_rate())

    # ------------------------------------------------------------------ #
    # streaming surface
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """True while a streaming run is open (``begin`` without ``finish``)."""
        return self._active

    @property
    def now(self) -> float:
        """Current simulation time of the open run, in seconds."""
        return self._clock.now

    @property
    def pending_events(self) -> int:
        """Number of simulation events not yet processed."""
        return len(self._events)

    @property
    def events_processed(self) -> int:
        """Simulation events processed since the run opened (arrivals,
        completions and reconfigurations — the replay benchmark's
        events/sec denominator)."""
        return self._events_processed

    @property
    def fast_path(self) -> bool:
        """Whether the optimised replay loop is enabled."""
        return self._fast

    @property
    def reconfiguring(self) -> bool:
        """True while the partition set is offline mid-reconfiguration."""
        return self._staged is not None

    @property
    def pending_instances(self) -> Tuple[PartitionInstance, ...]:
        """The partition instances staged by an in-flight reconfiguration.

        :meth:`reconfigure` reassigns instance ids so generations never
        collide; callers that keep their own view of the server (e.g. a
        session's deployment) must adopt these renumbered instances, or
        their ids will not match completion events and per-instance
        statistics.

        Raises:
            RuntimeError: when no reconfiguration is in flight.
        """
        if self._staged is None:
            raise RuntimeError("no reconfiguration is in progress")
        return tuple(worker.instance for worker in self._staged.new_workers)

    def begin(self) -> None:
        """Open a streaming run: fresh clock, queues, workers and scheduler.

        Raises:
            RuntimeError: when a streaming run is already open.
        """
        if self._active:
            raise RuntimeError("a streaming run is already open; call finish() first")
        self.scheduler.reset()
        if self._fast:
            self._columns = QueryColumns()
        # re-attach columnar-bound observers to the fresh store
        self._rebind_handlers()
        self._build_workers()
        self._reset_run_state()
        if self._fast:
            self._roster_hook = self.scheduler.on_roster_change
        self._reindex()
        self._active = True

    def submit(self, query: Query) -> None:
        """Inject one query into the open run (arrival at its own
        ``arrival_time``, which must not lie in the simulation's past)."""
        if not self._active:
            raise RuntimeError("submit() requires an open run; call begin() first")
        if query.arrival_time < self._clock.now:
            raise ValueError(
                f"query {query.query_id} arrives at {query.arrival_time}, "
                f"before the current simulation time {self._clock.now}"
            )
        if self._columns is not None:
            self._columns.add(query)
        else:
            query.index = len(self._submitted)
            self._announced.append(0)
        self._submitted.append(query)
        self._events.push(query.arrival_time, _ARRIVAL, query)

    def submit_trace(self, trace: QueryTrace) -> None:
        """Inject every query of ``trace`` (not copied — pass a fresh copy).

        On the fast path a whole-trace submission into an empty event queue
        is bulk-loaded: traces are sorted by arrival time, and a sorted batch
        of same-kind events is already a valid heap, so the per-query
        ``heappush`` walks disappear.
        """
        if not self._active:
            raise RuntimeError("submit() requires an open run; call begin() first")
        queries = list(trace)
        times = [query.arrival_time for query in queries]
        # Validate the bulk-load preconditions *before* touching any state:
        # QueryTrace guarantees sortedness, but duck-typed trace objects may
        # not, and a partial registration would leave phantom queries.
        bulk = (
            self._fast
            and queries
            and not self._events
            and all(a <= b for a, b in zip(times, times[1:]))
        )
        if not bulk:
            for query in queries:
                self.submit(query)
            return
        if times[0] < self._clock.now:
            # sorted, so the first query is the earliest
            raise ValueError(
                f"query {queries[0].query_id} arrives at {times[0]}, "
                f"before the current simulation time {self._clock.now}"
            )
        columns = self._columns
        for query in queries:
            columns.add(query)
        self._submitted.extend(queries)
        self._events.extend_sorted(times, _ARRIVAL, queries)

    def run_until(self, time: Optional[float] = None) -> float:
        """Process events up to and including ``time`` (``None`` = drain all).

        The clock ends on the last processed event, so the makespan reflects
        actual activity rather than the checkpoint grid.

        Returns:
            The simulation time after processing.
        """
        if not self._active:
            raise RuntimeError("run_until() requires an open run; call begin() first")
        if self._fast:
            return self._run_fast(time)
        return self._run_naive(time)

    def finish(self, offered_load_qps: Optional[float] = None) -> SimulationResult:
        """Drain every remaining event and close the run.

        Args:
            offered_load_qps: offered arrival rate to report; derived from
                the submitted queries when omitted.
        """
        if not self._active:
            raise RuntimeError("finish() requires an open run; call begin() first")
        self.run_until(None)
        return self._close(offered_load_qps)

    def abort(self, offered_load_qps: Optional[float] = None) -> SimulationResult:
        """Close the run *now*, without draining the pending events.

        The partial result digests exactly what has been simulated so far —
        in-flight and never-dispatched queries simply have no completion
        timestamps.  This is the cancellation surface: a serving daemon
        killing a tenant job mid-run reports the work done up to the
        cancellation instant instead of silently simulating to the end.

        Args:
            offered_load_qps: offered arrival rate to report; derived from
                the submitted queries when omitted.
        """
        if not self._active:
            raise RuntimeError("abort() requires an open run; call begin() first")
        return self._close(offered_load_qps)

    def _close(self, offered_load_qps: Optional[float]) -> SimulationResult:
        """Digest and seal the open run at the current simulation time."""
        self._active = False
        # Release the scheduler's index: it references every worker, and
        # through them every query of the run.
        self._roster_hook = None
        self._reindex()
        if offered_load_qps is None:
            offered_load_qps = self._observed_arrival_rate()
        if self._columns is not None:
            self._columns.write_back()
        per_instance = {
            worker.instance_id: len(worker.completed) for worker in self._all_workers()
        }
        return SimulationResult(
            statistics=self._digest(offered_load_qps),
            queries=list(self._submitted),
            per_instance_queries=per_instance,
            scheduler_name=self.scheduler.name,
            reconfigurations=tuple(self._reconfig_log),
        )

    def snapshot_statistics(self) -> ServerStatistics:
        """Digest the run *so far* (at the current simulation time).

        Unlike :meth:`finish` this leaves the run open; use it for live
        metrics mid-run.  On the fast path the digestion reads the columnar
        store directly — no object materialisation, no Python re-scan.
        """
        return self._digest(self._observed_arrival_rate())

    def _all_workers(self) -> List[PartitionWorker]:
        """Every worker of the run: retired, crashed, then live."""
        return self._retired_workers + list(self._crashed.values()) + self.workers

    def _digest(self, offered_load_qps: float) -> ServerStatistics:
        """Statistics of the run at the current simulation time: read from
        the columns, or scanned from the query objects on the naive path.

        Both digest functions are looked up in this module's namespace at
        call time, so a profiler that wraps them sees every digestion.
        """
        columns = self._columns
        if columns is not None:
            return compute_statistics_from_arrays(
                completed_arrays_from_columns(columns),
                self._all_workers(),
                self._clock.now,
                total_queries=len(self._submitted),
                offered_load_qps=offered_load_qps,
                failed=len(self._failed),
            )
        return compute_statistics(
            self._submitted,
            self._all_workers(),
            self._clock.now,
            offered_load_qps=offered_load_qps,
            failed=len(self._failed),
        )

    def _observed_arrival_rate(self) -> float:
        # submit() only forbids arrivals in the simulation's past, so the
        # submission order need not be arrival order — span over min/max.
        columns = self._columns
        if columns is not None:
            arrivals = np.frombuffer(columns.arrival, dtype=np.float64)
        else:
            arrivals = np.array([query.arrival_time for query in self._submitted])
        if arrivals.size < 2:
            return 0.0
        span = float(arrivals.max()) - float(arrivals.min())
        if span <= 0:
            return 0.0
        return (arrivals.size - 1) / span

    # ------------------------------------------------------------------ #
    # live reconfiguration
    # ------------------------------------------------------------------ #
    def reconfigure(
        self,
        instances: Sequence[PartitionInstance],
        reconfig_cost: float = 0.0,
    ) -> float:
        """Swap the partition set mid-run, modeling MIG reconfiguration.

        Semantics (the paper's observe → repartition → reconfigure loop):

        * old partitions stop accepting new work immediately; queries sitting
          in local queues or the central queue are *requeued* (they keep
          their original arrival times);
        * in-flight queries run to completion on the old partitions
          (MIG cannot reconfigure a busy instance);
        * once drained, the reconfiguration itself takes ``reconfig_cost``
          seconds during which the server executes nothing; arrivals are
          buffered at the frontend;
        * the new partitions come online together at
          ``drain_deadline + reconfig_cost`` and absorb the backlog.

        Args:
            instances: the new partition set (instance ids are reassigned so
                they never collide with earlier generations).
            reconfig_cost: modeled MIG reconfiguration downtime in seconds.

        Returns:
            The simulation time at which the new partitions come online.

        Raises:
            RuntimeError: outside an open run, or mid-reconfiguration.
            ValueError: for an empty instance set or negative cost.
        """
        if not self._active:
            raise RuntimeError(
                "reconfigure() requires an open streaming run; use "
                "begin()/submit()/run_until()"
            )
        if self._staged is not None:
            raise RuntimeError("a reconfiguration is already in progress")
        if not instances:
            raise ValueError("reconfigure() requires at least one partition instance")
        if reconfig_cost < 0:
            raise ValueError("reconfig_cost must be non-negative")

        now = self._clock.now
        old_ids = tuple(w.instance_id for w in self.workers)

        # A reconfiguration heals crashed workers: the whole partition set is
        # replaced, so the outage ends here.  Crashed workers hold no queued
        # or in-flight work (aborted at crash time) — they just retire.
        if self._crashed:
            recovered_handlers = self._h_recovered
            for crashed_id, crashed_worker in self._crashed.items():
                self._retired_workers.append(crashed_worker)
                if recovered_handlers:
                    recovered = WorkerRecovered(now, crashed_id, crashed_worker.gpcs)
                    for handler in recovered_handlers:
                        handler(recovered)
            self._crashed.clear()

        # Pull back every query that has not started executing (draining a
        # worker's queue clears the queries' dispatch state).
        requeue_handlers = self._h_requeued
        requeued: List[Query] = []
        for query in self._central_queue:
            for handler in requeue_handlers:
                handler(QueryRequeued(now, query, None))
            requeued.append(query)
        self._central_queue.clear()
        drain_deadline = now
        for worker in self.workers:
            for query in worker.drain_queue():
                for handler in requeue_handlers:
                    handler(QueryRequeued(now, query, worker.instance_id))
                requeued.append(query)
            if worker.current_finish_time is not None:
                drain_deadline = max(drain_deadline, worker.current_finish_time)
                # A busy worker stays accountable until its in-flight query
                # drains; an idle one retires the moment the swap starts.
                worker.retired_at = worker.current_finish_time
            else:
                worker.retired_at = now
            self._draining_ids.add(worker.instance_id)

        # Renumber the new instances so ids stay unique across generations
        # (per-instance statistics and completion events never collide).
        renumbered: List[PartitionInstance] = []
        for instance in sorted(instances, key=lambda i: (i.gpcs, i.instance_id)):
            renumbered.append(
                dataclasses.replace(instance, instance_id=self._next_instance_id)
            )
            self._next_instance_id += 1
        new_workers = [
            self._new_worker(instance, self._seed + instance.instance_id)
            for instance in renumbered
        ]

        self._retired_workers.extend(self.workers)
        self.workers = []
        self._reindex()
        self._staged = _StagedReconfig(
            started=now,
            drain_deadline=drain_deadline,
            new_workers=new_workers,
            requeued=requeued,
            old_instance_ids=old_ids,
        )
        for handler in self._h_reconfig_started:
            handler(ReconfigStarted(now, old_ids, len(requeued)))
        online_at = drain_deadline + reconfig_cost
        self._events.push(online_at, EventKind.RECONFIG)
        return online_at

    def _complete_reconfigure(self, now: float) -> None:
        staged = self._staged
        assert staged is not None
        new_workers = sorted(
            staged.new_workers, key=lambda w: (w.gpcs, w.instance_id)
        )
        self.workers = new_workers
        self._workers_by_id = {w.instance_id: w for w in new_workers}
        for worker in new_workers:
            worker.created_at = now
        self._reindex()
        self._draining_ids.clear()
        self._staged = None
        record = ReconfigurationRecord(
            started=staged.started,
            drain_completed=staged.drain_deadline,
            finished=now,
            requeued=len(staged.requeued),
            buffered_arrivals=len(self._held),
            old_instance_ids=staged.old_instance_ids,
            new_instance_ids=tuple(w.instance_id for w in new_workers),
        )
        self._reconfig_log.append(record)
        for handler in self._h_reconfig_finished:
            handler(
                ReconfigFinished(
                    now,
                    record.new_instance_ids,
                    downtime=record.downtime,
                )
            )
        # Re-inject the backlog (requeued + buffered arrivals) in arrival
        # order; each query re-enters through the frontend but keeps its
        # original arrival_time, so queueing delay includes the downtime.
        # With a rate-limited frontend the re-entries are pre-staggered one
        # dispatch slot apart — colliding the whole backlog at `now` would
        # make the serial frontend re-push every still-queued query per
        # admission, O(backlog^2) heap churn for the same simulated outcome.
        backlog = staged.requeued + self._held
        self._held = []
        backlog.sort(key=lambda q: (q.arrival_time, q.query_id))
        gap = self._frontend_gap
        start = max(now, self._frontend_available) if gap > 0 else now
        for position, query in enumerate(backlog):
            self._events.push(start + position * gap, _ARRIVAL, query)

    # ------------------------------------------------------------------ #
    # fault injection (worker crashes, stragglers)
    # ------------------------------------------------------------------ #
    @property
    def crashed_workers(self) -> Tuple[int, ...]:
        """Instance ids of currently crashed (not yet restored) workers."""
        return tuple(sorted(self._crashed))

    @property
    def failed_queries(self) -> Tuple[Query, ...]:
        """Queries that exhausted their retry budget, in failure order."""
        return tuple(self._failed)

    def crash_worker(
        self, instance_id: int, retry_policy: RetryPolicyLike
    ) -> Tuple[int, int]:
        """Crash a live partition worker at the current simulation time.

        The worker leaves the scheduling pool immediately.  Its in-flight
        query is aborted (the already-scheduled completion event is
        tombstoned and discarded when it pops) and, together with every
        locally queued query, is pushed back through the frontend as a fresh
        arrival after the policy's backoff — unless the query already burned
        its retry budget, in which case it becomes a first-class *failed*
        query (:class:`~repro.sim.hooks.QueryFailed`, counted in
        :attr:`~repro.sim.metrics.ServerStatistics.failed_queries`).

        Args:
            instance_id: the live worker to take down.
            retry_policy: retry budget + backoff for the displaced queries.

        Returns:
            ``(requeued, failed)`` — how many displaced queries were retried
            vs. failed.

        Raises:
            RuntimeError: outside an open run, mid-reconfiguration, or when
                the victim is the last live worker (an empty server cannot
                make progress; callers skip the event instead).
            KeyError: for an unknown or already-crashed instance id.
        """
        if not self._active:
            raise RuntimeError("crash_worker() requires an open run")
        if self._staged is not None:
            raise RuntimeError("cannot crash a worker mid-reconfiguration")
        worker = self._workers_by_id.get(instance_id)
        if worker is None or worker not in self.workers:
            raise KeyError(f"no live worker with instance id {instance_id}")
        if len(self.workers) <= 1:
            raise RuntimeError("cannot crash the last live worker")
        now = self._clock.now
        self.workers.remove(worker)  # in place: the reused context view stays live
        self._crashed[instance_id] = worker
        self._reindex()
        worker.retired_at = now
        handlers = self._h_crashed
        if handlers:
            crashed = WorkerCrashed(now, instance_id, worker.gpcs)
            for handler in handlers:
                handler(crashed)

        # Aborting and draining clear the displaced queries' dispatch and
        # start state in whichever store the worker writes.
        displaced: List[Query] = []
        in_flight_finish = worker.current_finish_time
        aborted = worker.abort_current(now)
        if aborted is not None and in_flight_finish is not None:
            key = (in_flight_finish, aborted.query_id, instance_id)
            self._tombstones[key] = self._tombstones.get(key, 0) + 1
            displaced.append(aborted)
        displaced.extend(worker.drain_queue())

        requeued = failed = 0
        for query in displaced:
            # retry counts live on the query object on both paths
            retries = query.retries
            if retries >= retry_policy.max_retries:
                failed += 1
                self._record_failure(query, now)
                fail_handlers = self._h_failed
                if fail_handlers:
                    failed_event = QueryFailed(now, query, instance_id, retries)
                    for handler in fail_handlers:
                        handler(failed_event)
                continue
            attempt = retries + 1
            query.retries = attempt
            requeued += 1
            requeue_handlers = self._h_requeued
            if requeue_handlers:
                requeue_event = QueryRequeued(now, query, instance_id)
                for handler in requeue_handlers:
                    handler(requeue_event)
            # Re-enters through the frontend as a regular arrival: the
            # arrival-announce flag is already raised, so observers still
            # see the query arrive exactly once.
            self._events.push(now + retry_policy.delay(attempt), _ARRIVAL, query)
        return requeued, failed

    def _record_failure(self, query: Query, now: float) -> None:
        """``query`` exhausted its retry budget at ``now``.  The fail time is
        written to the query object on both paths (this is its only writer)
        and to the fail-time column the lazy windowed metrics read."""
        query.fail_time = now
        if self._columns is not None:
            self._columns.fail_time[query.index] = now
        self._failed.append(query)

    def restore_worker(self, instance_id: int) -> None:
        """Bring a crashed worker back online at the current simulation time.

        The worker rejoins the scheduling pool (same instance id, same
        partition) and immediately offers itself to the central queue, like
        any worker going idle.

        Raises:
            RuntimeError: outside an open run or mid-reconfiguration.
            KeyError: when no crashed worker has ``instance_id``.
        """
        if not self._active:
            raise RuntimeError("restore_worker() requires an open run")
        if self._staged is not None:
            raise RuntimeError("cannot restore a worker mid-reconfiguration")
        worker = self._crashed.pop(instance_id, None)
        if worker is None:
            raise KeyError(f"no crashed worker with instance id {instance_id}")
        now = self._clock.now
        worker.retired_at = None
        self.workers.append(worker)
        self.workers.sort(key=lambda w: (w.gpcs, w.instance_id))  # in place
        self._workers_by_id[instance_id] = worker
        self._reindex()
        handlers = self._h_recovered
        if handlers:
            recovered = WorkerRecovered(now, instance_id, worker.gpcs)
            for handler in handlers:
                handler(recovered)
        # Offer the recovered worker backlog from the central queue, exactly
        # like the post-completion idle path.
        if self._central_queue:
            self._pull_central(worker, now)

    def set_worker_slowdown(self, instance_id: int, multiplier: float) -> None:
        """Scale a worker's service times by ``multiplier`` (straggler).

        The factor also scales the worker's queued-work estimates, so
        wait-aware schedulers route around the slow partition; the in-flight
        query (if any) keeps its already-committed finish time.  ``1.0``
        restores normal speed.

        Raises:
            RuntimeError: outside an open run.
            KeyError: for an unknown instance id.
            ValueError: for a multiplier below 1.
        """
        if not self._active:
            raise RuntimeError("set_worker_slowdown() requires an open run")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        worker = self._workers_by_id.get(instance_id)
        if worker is None:
            raise KeyError(f"no worker with instance id {instance_id}")
        worker.slow_factor = multiplier
        # A crashed worker is off the roster: its index must not hear of it.
        if self._worker_hook is not None and instance_id not in self._crashed:
            self._worker_hook(worker)

    def emit_event(self, event: SimEvent) -> None:
        """Deliver an externally constructed lifecycle event to observers.

        The serving session uses this to publish control-plane fault events
        (e.g. :class:`~repro.sim.hooks.ReconfigFailed`) through the same
        dispatch table as the simulator's own events.
        """
        for handler in self._dispatch_table.get(type(event), ()):
            handler(event)

    # ------------------------------------------------------------------ #
    # the two replay loops: one per event-queue representation
    # ------------------------------------------------------------------ #
    def _run_fast(self, until: Optional[float]) -> float:
        """Drain the tuple-keyed heap up to ``until``.

        Heap entries are ``(time, kind, seq, query, instance_id)`` tuples;
        the loop unpacks them directly — no Event objects, one clock write
        per event.  The heap's total order makes popped times
        non-decreasing, so the clock can be assigned without the
        monotonicity guard (push sites validate against the clock).
        """
        events = self._events
        assert isinstance(events, TupleEventQueue)
        heap = events._heap
        heappop = heapq.heappop
        clock = self._clock
        arrive = self._arrive
        complete = self._complete
        tombstones = self._tombstones
        processed = self._events_processed
        now = clock.now
        try:
            while heap:
                entry = heap[0]
                now = entry[0]
                if until is not None and now > until:
                    now = clock.now
                    break
                heappop(heap)
                processed += 1
                clock._now = now
                kind = entry[1]
                if kind == _ARRIVAL:
                    arrive(entry[3], now)
                elif kind == _COMPLETION:
                    instance_id = entry[4]
                    if tombstones and self._tombstoned(
                        now, entry[3].query_id, instance_id
                    ):
                        continue
                    complete(self._workers_by_id[instance_id], now)
                else:
                    self._complete_reconfigure(now)
        finally:
            self._events_processed = processed
        return now

    def _run_naive(self, until: Optional[float]) -> float:
        """Drain the reference :class:`~repro.sim.events.Event` queue up to
        ``until`` through the same handlers as :meth:`_run_fast`."""
        events = self._events
        assert isinstance(events, EventQueue)
        clock = self._clock
        while events:
            if until is not None and events.peek().time > until:
                break
            event = events.pop()
            clock.advance_to(event.time)
            self._events_processed += 1
            now = clock.now
            kind = event.kind
            if kind is _ARRIVAL:
                self._arrive(event.query, now)
            elif kind is _COMPLETION:
                if self._tombstones and self._tombstoned(
                    event.time, event.query.query_id, event.instance_id
                ):
                    continue
                self._complete(self._workers_by_id[event.instance_id], now)
            else:
                self._complete_reconfigure(now)
        return clock.now

    # ------------------------------------------------------------------ #
    # event handlers (both paths)
    # ------------------------------------------------------------------ #
    def _arrive(self, query: Query, now: float) -> None:
        """An arrival event fired: announce, hold, bounce or schedule it."""
        index = query.index
        announced = self._announced
        if not announced[index]:
            # First firing of this query's arrival event.  Frontend bounces,
            # reconfiguration buffering and crash retries re-enqueue the
            # query, so the flag is the QueryArrived dedupe — raised whether
            # or not anyone listens, so an observer attached later never
            # hears an arrival that already fired — and, on the fast path,
            # the "this arrival happened" marker the lazy metrics digestion
            # filters on.
            announced[index] = 1
            handlers = self._h_arrived
            if handlers:
                arrived = QueryArrived(now, query)
                for handler in handlers:
                    handler(arrived)
        if self._staged is not None:
            # Draining/reconfiguring: buffer at the frontend.
            self._held.append(query)
            return
        gap = self._frontend_gap
        if gap > 0.0:
            # The frontend dispatches queries serially; an arrival that
            # finds it busy retries when it frees.
            available = self._frontend_available
            if available > now + 1e-15:
                self._events.push(available, _ARRIVAL, query)
                return
            self._frontend_available = now + gap
        worker = self.scheduler.on_arrival(query, self._context_for(now))
        if worker is None:
            self._central_queue.append(query)
        else:
            self._dispatch(worker, query, now)

    def _complete(self, worker: PartitionWorker, now: float) -> None:
        """``worker``'s in-flight query finished: start its next local query,
        else offer it the central queue, else report it idle."""
        query = worker.complete_current(now)
        handlers = self._h_completed
        if handlers:
            completed = QueryCompleted(now, query, worker.instance_id)
            for handler in handlers:
                handler(completed)
        handlers = self._h_sla
        if handlers and query.sla_violated:
            violated = SlaViolated(now, query, worker.instance_id)
            for handler in handlers:
                handler(violated)

        if worker.instance_id in self._draining_ids:
            # A draining partition takes no further work; its local queue was
            # already requeued, so finishing the in-flight query empties it.
            return

        finish = worker.start_next(now)
        if self._worker_hook is not None:
            self._worker_hook(worker)
        if finish is not None:
            self._events.push(finish, _COMPLETION, worker.current_query, worker.instance_id)
            return
        if self._central_queue and self._pull_central(worker, now):
            return
        handlers = self._h_idle
        if handlers:
            idle = WorkerIdle(now, worker.instance_id)
            for handler in handlers:
                handler(idle)

    def _tombstoned(self, time: float, query_id: int, instance_id: int) -> bool:
        """Whether a crash aborted this completion's query (the event is
        stale); consumes the tombstone.  Fault-free runs never create one,
        so callers test the dict's truthiness first."""
        tombstones = self._tombstones
        key = (time, query_id, instance_id)
        count = tombstones.get(key)
        if not count:
            return False
        if count == 1:
            del tombstones[key]
        else:
            tombstones[key] = count - 1
        return True

    def _pull_central(self, worker: PartitionWorker, now: float) -> bool:
        """Offer idle ``worker`` a query from the central queue; True when
        the scheduler handed it one."""
        pulled = self.scheduler.on_worker_idle(worker, self._context_for(now))
        if pulled is None:
            return False
        queue = self._central_queue
        if queue[0] is pulled:
            # FIFO drain is the overwhelmingly common case; popping the head
            # avoids an O(queue) scan-and-remove.
            queue.popleft()
        else:
            queue.remove(pulled)
        self._dispatch(worker, pulled, now)
        return True

    def _dispatch(
        self,
        worker: PartitionWorker,
        query: Query,
        now: float,
    ) -> None:
        worker.enqueue(query, now)
        dispatch_handlers = self._h_dispatched
        if dispatch_handlers:
            dispatched = QueryDispatched(now, query, worker.instance_id)
            for handler in dispatch_handlers:
                handler(dispatched)
        finish = worker.start_next(now)
        if self._worker_hook is not None:
            self._worker_hook(worker)
        if finish is not None:
            self._events.push(finish, _COMPLETION, worker.current_query, worker.instance_id)

