"""Baseline scheduling policies.

* :class:`FifsScheduler` — first-idle first-serve, the policy of
  state-of-the-art multi-GPU inference servers such as NVIDIA Triton
  (Section III-C): an arriving query is dispatched to an idle GPU if one
  exists, otherwise it waits in a server-wide FIFO that idle GPUs drain in
  arrival order.
* :class:`LeastLoadedScheduler` — a heterogeneity-*unaware* load balancer
  that always picks the partition with the least outstanding work; a
  stronger-than-FIFS baseline useful for ablations.
* :class:`RandomDispatchScheduler` — dispatches uniformly at random; a lower
  bound sanity check.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.scheduler_api import Scheduler, SchedulingContext
from repro.sim.worker import PartitionWorker
from repro.workload.query import Query


class FifsScheduler(Scheduler):
    """First-idle first-serve (Triton-style) central-queue scheduler.

    Args:
        idle_preference: how to break ties when several partitions are idle:
            ``"round_robin"`` (default) rotates across instances,
            ``"smallest"`` / ``"largest"`` prefer the smallest / largest idle
            partition, ``"random"`` picks uniformly at random.
        seed: RNG seed for the ``"random"`` preference.
    """

    name = "fifs"
    _PREFERENCES = ("round_robin", "smallest", "largest", "random")

    def __init__(self, idle_preference: str = "round_robin", seed: int = 0) -> None:
        if idle_preference not in self._PREFERENCES:
            raise ValueError(
                f"idle_preference must be one of {self._PREFERENCES}, "
                f"got {idle_preference!r}"
            )
        self.idle_preference = idle_preference
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._dispatch_clock = 0
        self._last_pick: dict = {}

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        self._dispatch_clock = 0
        self._last_pick = {}

    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        idle = [worker for worker in context.workers if worker.is_idle]
        if not idle:
            return None  # park in the central FIFO
        return self._pick(idle)

    def on_worker_idle(
        self, worker: PartitionWorker, context: SchedulingContext
    ) -> Optional[Query]:
        # Strict FIFO drain of the central queue.
        if not context.central_queue:
            return None
        return context.central_queue[0]

    def _pick(self, idle: List[PartitionWorker]) -> PartitionWorker:
        if self.idle_preference == "smallest":
            return min(idle, key=lambda w: (w.gpcs, w.instance_id))
        if self.idle_preference == "largest":
            return max(idle, key=lambda w: (w.gpcs, -w.instance_id))
        if self.idle_preference == "random":
            return idle[int(self._rng.integers(len(idle)))]
        # Round robin over *instance ids*, not over the currently idle
        # subset: the old ``ordered[cursor % len(ordered)]`` pick indexed the
        # idle list directly, so the rotation skewed with the idle-set size
        # and could starve high-id instances under load.  Dispatching the
        # least-recently-dispatched idle instance (ids break ties, so a full
        # idle set rotates 0, 1, 2, ... exactly) keeps every instance in the
        # rotation whatever subset happens to be idle.
        chosen = min(
            idle,
            key=lambda w: (self._last_pick.get(w.instance_id, -1), w.instance_id),
        )
        self._dispatch_clock += 1
        self._last_pick[chosen.instance_id] = self._dispatch_clock
        return chosen


class LeastLoadedScheduler(Scheduler):
    """Dispatch to the partition with the least outstanding (estimated) work.

    Unlike FIFS this policy uses per-partition queues and the profiled
    latency estimator, but unlike ELSA it ignores both the SLA and the fact
    that the *same* query runs faster on a larger partition — it only
    minimises the queue backlog, so it still mis-schedules large batches onto
    small partitions under load.
    """

    name = "least-loaded"

    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        # oracle_for resolves the right per-architecture estimator on mixed
        # fleets; on single-architecture servers it is context.estimator
        # itself, preserving the workers' queued-work cache identity.
        return min(
            context.workers,
            key=lambda w: (
                w.estimated_wait(context.now, context.oracle_for(w)),
                w.instance_id,
            ),
        )


class RandomDispatchScheduler(Scheduler):
    """Dispatch every query to a uniformly random partition instance."""

    name = "random-dispatch"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        index = int(self._rng.integers(len(context.workers)))
        return context.workers[index]
