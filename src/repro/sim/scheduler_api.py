"""Scheduler interface driven by the inference-server simulator.

A scheduler sees two kinds of moments:

* a new query arrives at the server frontend (:meth:`Scheduler.on_arrival`);
* a partition finishes its current query and has nothing queued locally
  (:meth:`Scheduler.on_worker_idle`).

Two queueing disciplines are expressible through this interface:

* *central queue* policies (the baseline FIFS of Triton-style servers):
  ``on_arrival`` returns ``None`` when no partition is idle, parking the
  query in the server-wide FIFO; idle partitions later pull from that FIFO
  via ``on_worker_idle``.
* *per-partition queue* policies (ELSA): ``on_arrival`` always picks a
  partition immediately, and ``on_worker_idle`` returns ``None`` because
  every query already sits in some partition's local queue.

A policy may also keep a per-run *index* over the workers
(:meth:`Scheduler.on_roster_change`).  The fast-path simulator asks for one
whenever its live worker set changes, passes it back to every decision as
:attr:`SchedulingContext.index`, and calls the index's ``worker_changed``
after every mutation of a roster worker's queue, in-flight query or
slowdown, so the index never has to rescan the workers.  It is only ever
called for workers of the roster the index was built from (a crashed
worker's slowdown is not reported).  This is the only worker index the
simulator holds; ELSA keeps its ``(architecture, size)`` groups there.  The
naive path never builds an index; policies must decide identically without
one.

Concrete policies live in :mod:`repro.core.schedulers` (FIFS and other
baselines) and :mod:`repro.core.elsa`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, Optional, Protocol, Sequence

from repro.sim.worker import LatencyFn, PartitionWorker
from repro.workload.query import Query


class WorkerIndex(Protocol):
    """A policy's per-run index over the live workers (fast path only)."""

    def worker_changed(self, worker: PartitionWorker) -> None:
        """``worker``'s queue, in-flight query or slowdown just changed."""
        ...


@dataclass(frozen=True)
class SchedulingContext:
    """Everything a scheduling decision may look at.

    Attributes:
        now: current simulation time in seconds.
        workers: all partition workers, sorted by ascending partition size
            then instance id (the iteration order ELSA's Step A expects).
        central_queue: read-only view of the queries currently parked in the
            server-wide FIFO (relevant to central-queue policies).  Must not
            be mutated — the fast-path simulator shares its live queue here
            instead of copying it per event.
        estimator: the profiled latency oracle (model, batch, gpcs) -> seconds,
            i.e. the ``T_estimated`` lookup of Section IV-C.  On a
            mixed-architecture fleet this is the *primary* architecture's
            oracle; use :meth:`oracle_for` to resolve the right oracle per
            worker.
        estimators: per-architecture latency oracles keyed by architecture
            name, set only on mixed-architecture fleets; ``None`` on
            single-architecture servers (every worker then shares
            ``estimator``).
        index: the scheduler's own index over ``workers``, as returned by
            its :meth:`Scheduler.on_roster_change` for the current roster
            and kept current through ``worker_changed``; ``None`` on the
            naive path, for hand-built contexts and for policies without
            one.
    """

    now: float
    workers: Sequence[PartitionWorker]
    central_queue: Sequence[Query]
    estimator: LatencyFn
    estimators: Optional[Mapping[str, LatencyFn]] = None
    index: Optional[WorkerIndex] = None

    def oracle_for(self, worker: PartitionWorker) -> LatencyFn:
        """The latency oracle matching ``worker``'s architecture.

        On single-architecture servers this is always :attr:`estimator`
        (same object, so worker-side queued-work caches keep their
        identity); on mixed fleets it is the worker's architecture's oracle.
        """
        estimators = self.estimators
        if estimators is None:
            return self.estimator
        return estimators.get(worker.arch_name, self.estimator)


class Scheduler(abc.ABC):
    """Abstract scheduling policy."""

    #: Human-readable policy name used in reports and experiment tables.
    name: str = "scheduler"

    @abc.abstractmethod
    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        """Decide where a newly arrived query goes.

        Returns:
            The worker whose local queue should receive the query, or
            ``None`` to park the query in the server-wide central queue.
        """

    def on_worker_idle(
        self, worker: PartitionWorker, context: SchedulingContext
    ) -> Optional[Query]:
        """Pick a query from the central queue for a newly idle worker.

        The returned query must be an element of ``context.central_queue``;
        the simulator removes it from the central queue and enqueues it on
        ``worker``.  The default implementation returns ``None`` (nothing to
        pull), which suits per-partition-queue policies.
        """
        del worker, context
        return None

    def reset(self) -> None:
        """Clear any internal state before a fresh simulation run."""

    def on_roster_change(
        self, workers: Sequence[PartitionWorker]
    ) -> Optional[WorkerIndex]:
        """Index a new live worker set, or return ``None`` for no index.

        The fast-path simulator calls this when a run opens and whenever a
        worker joins or leaves the pool (crash, restore, live
        reconfiguration); the returned index replaces the previous one and
        lives until the next roster change or the end of the run.  The
        default keeps no index, so policies that scan ``context.workers``
        pay nothing per event.
        """
        del workers
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
