"""ELSA: the ELastic Scheduling Algorithm (Algorithm 2 of the paper).

ELSA is heterogeneity-aware: it knows, from the profiled lookup table, how
long a query would take on each partition size, and it tracks how much work
is already queued on every partition.  Scheduling a new query proceeds in two
steps:

* **Step A** — iterate the partitions from *smallest to largest*; the first
  partition whose predicted SLA slack is positive receives the query.
  Preferring the smallest feasible partition maximises GPU utilization
  (running a small batch on a big partition wastes its compute).
* **Step B** — if no partition can meet the SLA, send the query to the
  partition that will finish it soonest (minimum ``T_wait +
  T_estimated,new``), minimising the lingering damage the late query causes
  to subsequent ones.

Queries without an SLA target are treated as "SLA never violated"; they are
still placed with Step A's smallest-feasible-partition preference using the
slack of an infinite SLA, which degenerates to the smallest partition.  To
avoid pathological pile-up on the smallest instance, such queries instead use
Step B (fastest completion), which is also what a latency-optimising operator
would want when no SLA is defined.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.slack import SlackEstimator, SlackPrediction
from repro.perf.lookup import ProfileTable
from repro.sim.scheduler_api import Scheduler, SchedulingContext
from repro.sim.worker import LatencyFn, PartitionWorker
from repro.workload.query import Query

#: Groups of at most this many workers are scored by reading every member;
#: larger groups keep the lazy wait heaps of :class:`_Group`.
DIRECT_READ_MAX = 8


class _Group:
    """The workers of one ``(architecture, size)`` group.

    Execution time is constant within a group, so a group contributes at
    most one Step-A candidate (its least-loaded member) and one Step-B
    candidate (its fastest completion).  A direct-read group (``busy is
    None``) offers every member for scoring.  A larger group keeps two lazy
    heaps and offers only the members that can still win:

    * the **busy heap** holds ``(queued_work + current_finish_time, stamp,
      queued_work, worker)``.  The key does not move until the worker
      itself changes, and ``key - now`` is a lower bound of the worker's
      exact wait ``queued_work + max(finish - now, 0)``;
    * the **idle heap** holds ``(instance_id, stamp, worker)`` for members
      with nothing queued or running, whose wait is exactly 0, so its root
      is the group's best idle member.

    A change notification only marks the worker dirty; the group re-keys
    its dirty members the next time it is scored.  Every re-key takes a
    fresh stamp, and an entry whose stamp is no longer its worker's current
    one is stale: it is skipped, and popped once it reaches a root.
    """

    __slots__ = (
        "arch", "gpcs", "oracle", "members", "busy", "idle", "stamps", "dirty",
        "_stamp",
    )

    def __init__(
        self,
        arch: str,
        gpcs: int,
        oracle: LatencyFn,
        members: List[PartitionWorker],
        heaped: bool,
    ) -> None:
        self.arch = arch
        self.gpcs = gpcs
        self.oracle = oracle
        self.members = members
        self.busy: Optional[List[Tuple[float, int, float, PartitionWorker]]] = None
        self.idle: List[Tuple[int, int, PartitionWorker]] = []
        self.stamps: Dict[int, int] = {}
        self.dirty: Dict[int, PartitionWorker] = {}
        self._stamp = 0
        if heaped:
            self.busy = []
            self.dirty = {worker.instance_id: worker for worker in members}

    def _rekey(self, now: float) -> None:
        """Push a fresh entry for every dirty member."""
        busy = self.busy
        assert busy is not None
        idle, stamps, oracle = self.idle, self.stamps, self.oracle
        stamp = self._stamp
        for instance_id, worker in self.dirty.items():
            stamp += 1
            stamps[instance_id] = stamp
            finish = worker.current_finish_time
            if finish is None and not worker.queue:
                heappush(idle, (instance_id, stamp, worker))
                continue
            queued = worker.queued_work(oracle)
            # Queued work with nothing running waits `queued` from now on,
            # so keying it as if it started now keeps the bound.
            start = now if finish is None else finish
            heappush(busy, (queued + start, stamp, queued, worker))
        self._stamp = stamp
        self.dirty.clear()
        if len(busy) + len(idle) > 2 * len(self.members) + DIRECT_READ_MAX:
            # Too many stale entries: start over from the members.
            busy.clear()
            idle.clear()
            self.dirty = {worker.instance_id: worker for worker in self.members}
            self._rekey(now)

    def candidates(self, now: float, execution: float) -> List[PartitionWorker]:
        """Every member that can still win Step A or Step B at ``now``.

        The best idle member comes first; then the busy heap is walked from
        its root, skipping every subtree whose root key satisfies
        ``key - now > best + 1e-9 * (1 + |key| + execution)``.  ``best`` is
        the exact wait of the first candidate (0 for an idle one, else the
        busy root's ``queued + max(finish - now, 0)``), so the group's best
        wait is at most ``best``, while every worker in a skipped subtree
        waits at least ``key - now``: more than ``best`` by far more than
        the rounding of ``wait + execution``.  Such a worker can win neither
        Step A (smallest wait) nor Step B (smallest ``wait + execution``).
        """
        if self.dirty:
            self._rekey(now)
        busy = self.busy
        assert busy is not None
        idle, stamps = self.idle, self.stamps
        found: List[PartitionWorker] = []
        while idle:
            instance_id, stamp, worker = idle[0]
            if stamps[instance_id] == stamp:
                found.append(worker)
                break
            heappop(idle)
        while busy and stamps[busy[0][3].instance_id] != busy[0][1]:
            heappop(busy)
        size = len(busy)
        if not size:
            return found
        best = 0.0
        if not found:
            _, _, best, worker = busy[0]
            finish = worker.current_finish_time
            if finish is not None and finish > now:
                best += finish - now
        stack = [0]
        while stack:
            position = stack.pop()
            key, stamp, _, worker = busy[position]
            if key - now > best + 1e-9 * (1.0 + abs(key) + execution):
                continue
            if stamps[worker.instance_id] == stamp:
                found.append(worker)
            child = 2 * position + 1
            if child < size:
                stack.append(child)
                if child + 1 < size:
                    stack.append(child + 1)
        return found


class _GroupIndex:
    """A worker set grouped by ``(architecture, size)``, in Step-A order.

    ELSA builds one per roster change on the fast path (heaps on, kept
    current through :meth:`worker_changed`) and a throwaway direct-read one
    per decision otherwise.  Groups are ordered once: by size on a
    single-architecture estimator (ascending, or descending for the
    largest-first ablation).  A mixed-architecture estimator orders them per
    ``(model, batch)`` instead, least capable first, and :meth:`plan`
    memoizes that order with each group's execution time.
    """

    __slots__ = ("groups", "_by_id", "_plans", "_hetero", "_reverse")

    def __init__(
        self,
        scheduler: ElsaScheduler,
        workers: Sequence[PartitionWorker],
        heaped: bool = False,
    ) -> None:
        estimator = scheduler.estimator
        hetero = scheduler._hetero
        by_key: Dict[Tuple[str, int], List[PartitionWorker]] = {}
        for worker in workers:
            key = (worker.arch_name if hetero else "", worker.gpcs)
            members = by_key.get(key)
            if members is None:
                by_key[key] = [worker]
            else:
                members.append(worker)
        self.groups = [
            _Group(
                arch,
                gpcs,
                estimator.oracle_for(members[0]),
                members,
                heaped and len(members) > DIRECT_READ_MAX,
            )
            for (arch, gpcs), members in by_key.items()
        ]
        self._reverse = not scheduler.prefer_smallest
        self._hetero = hetero
        if not hetero:
            self.groups.sort(key=lambda group: group.gpcs, reverse=self._reverse)
        #: instance id -> its heaped group (direct-read groups need no news).
        self._by_id = {
            worker.instance_id: group
            for group in self.groups
            if group.busy is not None
            for worker in group.members
        }
        self._plans: Dict[Tuple[str, int], List[Tuple[float, _Group]]] = {}

    def worker_changed(self, worker: PartitionWorker) -> None:
        """Mark ``worker`` for re-keying before its group is next scored."""
        group = self._by_id.get(worker.instance_id)
        if group is not None:
            group.dirty[worker.instance_id] = worker

    def plan(self, model: str, batch: int) -> List[Tuple[float, _Group]]:
        """``(T_estimated, group)`` for every group, in Step-A order."""
        key = (model, batch)
        plan = self._plans.get(key)
        if plan is None:
            plan = [
                (group.oracle(model, batch, group.gpcs), group)
                for group in self.groups
            ]
            if self._hetero:
                # Least-capable-first: slowest execution first (reversed for
                # the largest-first ablation); ties by size, then
                # architecture name.
                plan.sort(
                    key=lambda entry: (-entry[0], entry[1].gpcs, entry[1].arch),
                    reverse=self._reverse,
                )
            self._plans[key] = plan
        return plan


class ElsaScheduler(Scheduler):
    """Heterogeneity-aware elastic scheduler (Algorithm 2).

    Args:
        profile: profiled lookup table of the primary served model (the
            ``T_estimated`` source).
        alpha: slack-predictor safety coefficient (Equation 2).
        beta: slack-predictor weight on the new query's execution time.
        prefer_smallest: iterate candidate partitions smallest-first in
            Step A (the paper's design).  Setting this to ``False`` iterates
            largest-first — exposed for the ablation study.
        profiles: per-model lookup tables for multi-model servers; queries of
            models absent from the mapping fall back to ``profile``.
        arch_profiles: per-architecture per-model lookup tables for
            mixed-architecture fleets (``architecture name -> model name ->
            table``).  With two or more architectures ELSA schedules
            heterogeneity-aware *across generations*: partitions group by
            ``(architecture, size)``, each group's ``T_estimated`` comes
            from its own architecture's table, and Step A's
            smallest-partition-first preference generalises to
            least-capable-first (slowest estimated execution first) so the
            cheapest slice that still meets the SLA wins.  ``None`` (or a
            single architecture) keeps the classic single-architecture
            behaviour bit-for-bit.
    """

    name = "elsa"

    def __init__(
        self,
        profile: ProfileTable,
        alpha: float = 1.0,
        beta: float = 1.0,
        prefer_smallest: bool = True,
        profiles: Optional[Mapping[str, ProfileTable]] = None,
        arch_profiles: Optional[Mapping[str, Mapping[str, ProfileTable]]] = None,
    ) -> None:
        self.estimator = SlackEstimator(
            profile, alpha=alpha, beta=beta, profiles=profiles,
            arch_profiles=arch_profiles,
        )
        self.prefer_smallest = prefer_smallest
        #: Plain bool read once per index build (cheaper than the property).
        self._hetero = self.estimator.heterogeneous

    def on_roster_change(
        self, workers: Sequence[PartitionWorker]
    ) -> Optional[_GroupIndex]:
        """Index the live workers; the simulator keeps it current."""
        return _GroupIndex(self, workers, heaped=True) if workers else None

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #
    def on_arrival(
        self, query: Query, context: SchedulingContext
    ) -> Optional[PartitionWorker]:
        # One pass over the (architecture, size) groups in Step-A order,
        # with no per-(query, worker) rows and no per-arrival sort, yet the
        # same float operations and the same decisions as walking
        # :meth:`predictions`:
        #
        # * within one group execution time is constant, so Step A only ever
        #   accepts the group's least-loaded member (smallest (T_wait, id)):
        #   if it misses the SLA slack, every sibling does;
        # * Step B's winner minimises (T_wait + T_estimated, gpcs, id), a
        #   total order independent of visit order.
        #
        # On a mixed fleet each group's T_estimated and queued work resolve
        # through its own architecture's table, so an H100 GPU(2) and an
        # A30 GPU(2) are scored by what *they* would actually take.
        index = context.index
        if not isinstance(index, _GroupIndex):
            # Naive path or a hand-built context: read every group directly.
            index = _GroupIndex(self, context.workers)
        now = context.now
        sla = query.sla_target
        alpha, beta = self.estimator.alpha, self.estimator.beta
        chosen = best_worker = None
        best_total = 0.0
        best_gpcs = best_id = 0
        for execution, group in index.plan(query.model, query.batch):
            oracle = group.oracle
            candidates = (
                group.members
                if group.busy is None
                else group.candidates(now, execution)
            )
            step_a = step_b = None
            a_wait = b_total = 0.0
            a_id = b_id = 0
            for worker in candidates:
                wait = worker.estimated_wait(now, oracle)
                instance_id = worker.instance_id
                if step_a is None or wait < a_wait or (
                    wait == a_wait and instance_id < a_id
                ):
                    step_a, a_wait, a_id = worker, wait, instance_id
                total = wait + execution
                if step_b is None or total < b_total or (
                    total == b_total and instance_id < b_id
                ):
                    step_b, b_total, b_id = worker, total, instance_id
            # Step A: the first group in order whose least-loaded member
            # still satisfies the SLA.
            if (
                chosen is None
                and sla is not None
                and sla - alpha * (a_wait + beta * execution) > 0.0
            ):
                chosen = step_a
            gpcs = group.gpcs
            if (
                best_worker is None
                or b_total < best_total
                or (
                    b_total == best_total
                    and (gpcs < best_gpcs or (gpcs == best_gpcs and b_id < best_id))
                )
            ):
                best_worker, best_total = step_b, b_total
                best_gpcs, best_id = gpcs, b_id
        if chosen is not None:
            return chosen
        # Step B: no partition satisfies the SLA (or the query carries no
        # SLA): pick the partition that completes the query the fastest.
        return best_worker

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def predictions(
        self, query: Query, context: SchedulingContext
    ) -> List[Tuple[SlackPrediction, PartitionWorker]]:
        """Slack predictions for ``query`` on every partition, in Step-A order.

        Groups are visited in :meth:`on_arrival`'s order: by size from the
        smallest upwards (Algorithm 2, line 3), or least capable first on a
        mixed-architecture fleet.  Within a group the least-loaded instance
        (smallest ``T_wait``, then instance id) comes first, so that
        equal-sized partitions share load instead of piling queries onto
        one queue.
        """
        scored: List[Tuple[SlackPrediction, PartitionWorker]] = []
        index = _GroupIndex(self, context.workers)
        for _, group in index.plan(query.model, query.batch):
            rows = [
                (
                    self.estimator.predict(
                        worker, query.batch, query.sla_target, context.now,
                        model=query.model,
                    ),
                    worker,
                )
                for worker in group.members
            ]
            rows.sort(key=lambda pw: (pw[0].wait_time, pw[1].instance_id))
            scored.extend(rows)
        return scored

    @property
    def profile(self) -> ProfileTable:
        """The profiled lookup table backing the slack estimator."""
        return self.estimator.profile
