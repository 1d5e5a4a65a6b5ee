"""Latency-bounded throughput measurement.

The paper's headline metric (Figures 11–13) is *latency-bounded throughput*:
the highest query arrival rate a design can sustain while its p95 tail
latency stays below a target (the SLA).  This module provides:

* :func:`measure_design` — replay one workload at one arrival rate and
  report throughput / p95 / SLA violations;
* :func:`sweep_rates` — the full throughput-vs-tail-latency curve of
  Figure 11;
* :func:`latency_bounded_throughput` — bracketed bisection search for the
  largest sustainable rate (the single number per design used in
  Figures 12/13): the upper bracket is verified (and exponentially expanded
  while it still meets the bound) before bisecting, so the answer is never
  silently capped by an optimistic capacity estimate;
* :class:`ParallelRunner` — a ``ProcessPoolExecutor`` fan-out that spreads
  independent replay points across cores with deterministic per-point seeds;
  every sweep accepts ``n_jobs`` and produces results identical to a serial
  run;
* :func:`run_scenario` — replay a time-varying
  :class:`~repro.workload.scenario.Scenario` on a deployment through a
  :class:`~repro.serving.session.ServingSession`, optionally with live
  repartition triggers.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from math import ceil
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.serving.deployment import Deployment
from repro.serving.session import (
    DEFAULT_RECONFIG_COST,
    ServingSession,
    SessionResult,
)
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.scenario import Scenario


@dataclass(frozen=True)
class DesignPointResult:
    """Measurement of one design at one offered load.

    ``sla_target`` is the bound the queries were judged against — the
    workload's target model's own derived SLA.
    """

    rate_qps: float
    throughput_qps: float
    p95_latency: float
    mean_latency: float
    sla_violation_rate: float
    mean_utilization: float
    sla_target: float = 0.0


@dataclass(frozen=True)
class ThroughputLatencyPoint:
    """One point of a Figure-11-style curve."""

    rate_qps: float
    throughput_qps: float
    p95_latency: float


#: Pool-worker global holding the unpickled ``(fn, shared)`` payload shipped
#: once per worker by the pool initializer (see ParallelRunner.map_shared).
_POOL_STATE: Optional[Tuple[Callable, Any]] = None


def _pool_initializer(payload: bytes) -> None:
    global _POOL_STATE
    _POOL_STATE = pickle.loads(payload)


def _invoke_shared(item: Any) -> Any:
    fn, shared = _POOL_STATE
    return fn(shared, item)


#: Below this much estimated per-point work (simulated queries, see
#: ``work_hint``) a process fan-out cannot amortise its spawn + pickle cost.
DEFAULT_MIN_FORK_WORK = 1000.0


@dataclass(eq=False)
class ParallelRunner:
    """Warm, deterministic fan-out of independent replay points across processes.

    Each item is handed to a picklable top-level function in a worker
    process; results come back in submission order, so a parallel run is
    indistinguishable from a serial one apart from wall time.  Seeds travel
    *inside* the items (one deterministic seed per point), never through
    process-global RNG state, which is what keeps ``n_jobs`` out of the
    simulated outcomes.

    The pool is **warm**: one ``ProcessPoolExecutor`` is created lazily and
    reused across ``map``/``map_shared`` calls (one pool per sweep, not one
    per point batch), and :meth:`map_shared` ships the heavy shared state —
    profiles, deployment, workload template — *once per worker* through the
    pool initializer instead of re-pickling it with every point.  Points are
    dispatched in chunks so a sweep costs a handful of IPC round trips.

    Fan-out auto-falls-back to inline execution when it cannot pay for
    itself: a single job, fewer than two items, a single-core machine, or
    per-point work below :attr:`min_fork_work` (see ``work_hint``).

    Args:
        n_jobs: worker processes. ``1`` (the default) runs inline with no
            pool at all; ``None`` or ``0`` uses every available core.
        min_fork_work: per-point work threshold (in simulated queries, the
            unit of ``work_hint``) below which the fan-out is skipped.
        force_spawn: spawn the pool even on a single-core machine or for
            tiny work items — for tests of the pool machinery and for
            measuring the fan-out's overhead honestly.
    """

    n_jobs: Optional[int] = 1
    min_fork_work: float = DEFAULT_MIN_FORK_WORK
    force_spawn: bool = False
    _pool: Optional[ProcessPoolExecutor] = field(default=None, init=False, repr=False)
    _pool_payload: Optional[bytes] = field(default=None, init=False, repr=False)
    _pool_shared: Any = field(default=None, init=False, repr=False)

    @property
    def effective_jobs(self) -> int:
        """The concrete worker count after resolving ``None``/``0``.

        Explicit requests are clamped to the machine's core count: workers
        beyond the physical cores add spawn and IPC tax without adding
        parallelism, which is how an oversubscribed "parallel" sweep ends up
        slower than serial.  ``force_spawn`` bypasses the clamp (tests of
        the pool machinery need a real pool on a 1-core box).
        """
        cores = os.cpu_count() or 1
        if not self.n_jobs:
            return cores
        requested = max(1, int(self.n_jobs))
        if self.force_spawn:
            return requested
        return min(requested, cores)

    @property
    def warm(self) -> bool:
        """True while a worker pool is alive and reusable."""
        return self._pool is not None

    def _should_fork(self, num_items: int, work_hint: Optional[float]) -> bool:
        if num_items < 2 or self.effective_jobs <= 1:
            return False
        if self.force_spawn:
            return True
        if (os.cpu_count() or 1) < 2:
            # a 1-core box pays the full spawn + pickle + IPC tax for zero
            # genuine parallelism
            return False
        return work_hint is None or work_hint >= self.min_fork_work

    def _ensure_pool(self, payload: Optional[bytes]) -> ProcessPoolExecutor:
        """The warm executor, (re)created only when the shared payload changes.

        ``payload=None`` (plain :meth:`map`) reuses whatever pool exists —
        the worker-global shared state is simply unused.
        """
        if self._pool is not None and (payload is None or payload == self._pool_payload):
            return self._pool
        self.close()
        if payload is None:
            self._pool = ProcessPoolExecutor(max_workers=self.effective_jobs)
        else:
            self._pool = ProcessPoolExecutor(
                max_workers=self.effective_jobs,
                initializer=_pool_initializer,
                initargs=(payload,),
            )
        self._pool_payload = payload
        return self._pool

    def _pool_map(self, fn: Callable, work: List[Any]) -> List[Any]:
        """Chunked dispatch over the warm pool, discarding it if it breaks.

        A worker death (OOM kill, segfault) permanently breaks a
        ``ProcessPoolExecutor``; dropping ours means the *next* call spawns
        a healthy pool instead of replaying ``BrokenProcessPool`` forever.
        """
        pool = self._pool
        jobs = min(self.effective_jobs, len(work))
        try:
            return list(pool.map(fn, work, chunksize=self._chunksize(len(work), jobs)))
        except BrokenProcessPool:
            self.close()
            raise

    @classmethod
    def _same_shared(cls, shared: Any, cached: Any) -> bool:
        """Cheap is-identity test so a warm reuse skips re-pickling the
        (potentially large) shared state.  Tuples compare element-wise (and
        recursively — ``sweep_rates`` rebuilds its ``(deployment, workload)``
        wrapper per call around the same stable objects); anything that is
        not identical falls back to the byte-compare respawn path, which is
        merely the old per-call cost, never wrong results."""
        if shared is cached:
            return True
        return (
            type(shared) is tuple
            and type(cached) is tuple
            and len(shared) == len(cached)
            and all(cls._same_shared(a, b) for a, b in zip(shared, cached))
        )

    @staticmethod
    def _chunksize(num_items: int, jobs: int) -> int:
        # a couple of chunks per worker: few IPC round trips, some slack for
        # uneven point runtimes
        return max(1, ceil(num_items / (jobs * 2)))

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        work_hint: Optional[float] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item, preserving order.

        Args:
            fn: picklable top-level function of one item.
            items: the work items (fully self-contained — prefer
                :meth:`map_shared` when they share heavy state).
            work_hint: estimated per-point work in simulated queries; below
                :attr:`min_fork_work` the fan-out is skipped.
        """
        work = list(items)
        if not self._should_fork(len(work), work_hint):
            return [fn(item) for item in work]
        self._ensure_pool(None)
        return self._pool_map(fn, work)

    def map_shared(
        self,
        fn: Callable[[Any, Any], Any],
        shared: Any,
        items: Iterable[Any],
        work_hint: Optional[float] = None,
    ) -> List[Any]:
        """Apply ``fn(shared, item)`` to every item, preserving order.

        ``shared`` (e.g. ``(deployment, workload)``) is pickled once and
        shipped to each worker by the pool initializer; the per-item
        messages carry only the point parameters (a rate and a seed), so a
        sweep's fan-out cost no longer scales with the deployment size.
        Re-using the runner with the same shared state keeps the pool warm
        across calls; new shared state respawns it.
        """
        work = list(items)
        if not self._should_fork(len(work), work_hint):
            return [fn(shared, item) for item in work]
        if self._pool is None or not self._same_shared((fn, shared), self._pool_shared):
            payload = pickle.dumps((fn, shared), protocol=pickle.HIGHEST_PROTOCOL)
            self._ensure_pool(payload)
            self._pool_shared = (fn, shared)
        return self._pool_map(_invoke_shared, work)

    def close(self) -> None:
        """Shut the warm pool down (idempotent; the runner stays usable)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_payload = None
            self._pool_shared = None

    def __getstate__(self) -> dict:
        """Pickle without the live pool (and the state tied to it).

        A runner referenced from shared state (e.g. a capacity planner
        shipped into its own workers) must not drag a live
        ``ProcessPoolExecutor`` — unpicklable, and meaningless in a child
        process — across the pool boundary.  The unpickled copy starts
        cold and lazily spawns its own pool if ever asked to fork.
        """
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_pool_payload"] = None
        state["_pool_shared"] = None
        return state

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-exit cleanup
        try:
            self.close()
        except Exception:
            pass


def _resolve_runner(runner: Optional[ParallelRunner], n_jobs: Optional[int]) -> ParallelRunner:
    if runner is not None:
        return runner
    return ParallelRunner(n_jobs=n_jobs)


def measure_design(
    deployment: Deployment,
    workload: WorkloadConfig,
    rate_qps: float,
    seed: int = 0,
) -> DesignPointResult:
    """Replay ``workload`` at ``rate_qps`` on ``deployment`` and summarise.

    The workload's SLA is set to *its target model's* derived SLA target
    (the primary model's on single-model deployments), so violation
    statistics always refer to the evaluated model's own SLA.
    """
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    sla = deployment.sla_target_for(workload.model)
    configured = replace(workload, rate_qps=rate_qps, sla_target=sla)
    trace = QueryGenerator(configured).generate()
    simulator = deployment.simulator(seed=seed)
    result = simulator.run(trace)
    stats = result.statistics
    return DesignPointResult(
        rate_qps=rate_qps,
        throughput_qps=stats.throughput_qps,
        p95_latency=stats.latency.p95,
        mean_latency=stats.latency.mean,
        sla_violation_rate=stats.latency.sla_violation_rate,
        mean_utilization=stats.utilization.mean,
        sla_target=sla,
    )


def run_scenario(
    deployment: Deployment,
    scenario: Scenario,
    triggers: Sequence[Any] = (),
    reconfig_cost: float = DEFAULT_RECONFIG_COST,
    window: float = 1.0,
    trigger_interval: Optional[float] = None,
    seed: int = 0,
    observers: Sequence[Any] = (),
) -> SessionResult:
    """Replay a time-varying scenario on ``deployment`` through a session.

    With ``triggers`` the session runs the paper's full elastic loop —
    observed drift or SLA pressure repartitions the server live, paying
    ``reconfig_cost`` seconds of modeled MIG downtime.  Without triggers this
    is the no-repartition control run over the same trace.

    Returns:
        The :class:`~repro.serving.session.SessionResult`, whose ``windows``
        series exposes the per-window throughput / violation trajectory.
    """
    session = ServingSession.from_deployment(
        deployment,
        triggers=triggers,
        reconfig_cost=reconfig_cost,
        window=window,
        trigger_interval=trigger_interval,
        observers=observers,
    )
    return session.run(scenario, seed=seed)


def capacity_estimate(deployment: Deployment, workload: WorkloadConfig) -> float:
    """Rough upper bound on the sustainable arrival rate (queries/second).

    Sums each instance's steady-state throughput at the workload's mean batch
    size; used to bracket the binary search and to choose sweep ranges.  On
    multi-model deployments the estimate uses the profile of the workload's
    target model; on mixed-architecture fleets each instance is rated by its
    own architecture's profile table.
    """
    generator = QueryGenerator(workload)
    pdf = generator.batch_pdf()
    mean_batch = max(1, round(sum(b * p for b, p in pdf.items())))
    total = 0.0
    for instance in deployment.instances:
        profile = deployment.profile_for_architecture(
            workload.model, instance.partition.architecture.name
        )
        total += profile.throughput(instance.gpcs, mean_batch)
    return total


def _measure_point_shared(
    shared: Tuple[Deployment, WorkloadConfig], point: Tuple[float, int]
) -> DesignPointResult:
    """Picklable shared-state worker: the deployment/workload ship once per
    pool worker, the per-point message is just ``(rate, seed)``."""
    deployment, workload = shared
    rate, seed = point
    return measure_design(deployment, workload, rate, seed=seed)


def point_seed(seed: int, index: int, seed_stride: int = 0) -> int:
    """Deterministic per-point seed of the ``index``-th replay point.

    With the default stride of 0 every point replays the same seeded trace
    (the historical behaviour, which keeps curves comparable point to
    point); a non-zero stride decorrelates the points.  Either way the seed
    is a pure function of (base seed, point index), so fanning points across
    processes cannot change any result.
    """
    return seed + index * seed_stride


def sweep_rates(
    deployment: Deployment,
    workload: WorkloadConfig,
    rates: Sequence[float],
    seed: int = 0,
    seed_stride: int = 0,
    n_jobs: Optional[int] = 1,
    runner: Optional[ParallelRunner] = None,
) -> List[ThroughputLatencyPoint]:
    """Measure the design at each offered rate (the Figure 11 curves).

    The points are independent full-trace replays, so they parallelise
    perfectly: pass ``n_jobs`` (or a shared :class:`ParallelRunner`, which
    keeps one warm pool across repeated sweeps of the same deployment) to
    spread them across cores.  The deployment and workload template ship to
    each pool worker once, not once per point.  Results are identical for
    any ``n_jobs``.
    """
    points = [
        (rate, point_seed(seed, index, seed_stride)) for index, rate in enumerate(rates)
    ]
    results = _resolve_runner(runner, n_jobs).map_shared(
        _measure_point_shared,
        (deployment, workload),
        points,
        work_hint=workload.num_queries,
    )
    return [
        ThroughputLatencyPoint(
            rate_qps=rate,
            throughput_qps=result.throughput_qps,
            p95_latency=result.p95_latency,
        )
        for rate, result in zip(rates, results)
    ]


def latency_bounded_throughput(
    deployment: Deployment,
    workload: WorkloadConfig,
    latency_bound: Optional[float] = None,
    max_rate: Optional[float] = None,
    iterations: int = 9,
    relative_tolerance: float = 0.02,
    seed: int = 0,
    max_expansions: int = 6,
) -> DesignPointResult:
    """Find the highest arrival rate whose p95 latency stays under the bound.

    The search is a *bracketed* bisection: the upper end of the bracket is
    measured first and exponentially expanded (rate doubling, up to
    ``max_expansions`` times) while it still satisfies the bound, so a
    design that outperforms its capacity estimate is never silently capped.
    Only once a genuinely violating rate brackets the answer does the
    bisection begin.

    Args:
        deployment: the design point to evaluate.
        workload: workload template (its ``rate_qps`` field is overridden).
        latency_bound: p95 latency bound in seconds; defaults to the
            workload's target model's derived SLA (the paper's vertical
            lines).
        max_rate: initial upper bracket of the search; defaults to twice the
            capacity estimate.
        iterations: number of bisection steps.
        relative_tolerance: stop early once the bracket is this tight.
        seed: trace generation / simulation seed.
        max_expansions: rate doublings allowed while the upper bracket still
            meets the bound.

    Returns:
        The measurement at the highest sustainable rate found.  If even a
        tiny offered load violates the bound, the lowest probed rate's
        measurement is returned (its ``p95_latency`` will exceed the bound,
        signalling an infeasible design).
    """
    bound = (
        latency_bound
        if latency_bound is not None
        else deployment.sla_target_for(workload.model)
    )
    if bound <= 0:
        raise ValueError("latency bound must be positive")
    high = max_rate if max_rate is not None else 2.0 * capacity_estimate(deployment, workload)
    if high <= 0:
        raise ValueError("max_rate must be positive")
    low = high / 256.0

    low_result = measure_design(deployment, workload, low, seed=seed)
    if low_result.p95_latency > bound:
        return low_result

    best = low_result
    # Bracket: make sure `high` actually violates the bound, expanding the
    # probe exponentially while it does not.  ``max_expansions=0`` skips the
    # verification and bisects straight against the given ceiling.
    for _ in range(max_expansions):
        high_result = measure_design(deployment, workload, high, seed=seed)
        if high_result.p95_latency > bound:
            break
        best = high_result
        low = high
        high *= 2.0
    else:
        if max_expansions > 0:
            # Never found a violating rate: the design sustains everything
            # we were willing to probe; report the highest sustained
            # measurement.
            return best

    for _ in range(iterations):
        if (high - low) <= relative_tolerance * high:
            break
        mid = 0.5 * (low + high)
        result = measure_design(deployment, workload, mid, seed=seed)
        if result.p95_latency <= bound:
            best = result
            low = mid
        else:
            high = mid
    return best
