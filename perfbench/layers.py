"""Where the benchmark attaches to each layer, and the per-layer metrics.

Two kinds of attachment, both made at run time from this package:

* :class:`Capture` (every run) keeps each finished simulation's result and
  its public event counters, so every operation's output can be checked;
* :func:`instrument` (traced runs only) wraps each layer's public functions
  in spans or call counters.

:func:`layer_metrics` turns one traced cycle into the per-layer metrics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from perfbench.simcount import EventsByKind, events_by_kind
from perfbench.tracing import Patcher, Span, SpanTotals, Tracer


@dataclass
class SimRecord:
    """One finished simulation, as seen through public counters."""

    result: Any  # repro.sim.cluster.SimulationResult
    events: int
    crashes: int = 0
    crash_requeued: int = 0
    aborted_in_flight: int = 0

    @property
    def submitted(self) -> int:
        return len(self.result.queries)

    @property
    def completed(self) -> int:
        return self.result.statistics.latency.count

    @property
    def failed(self) -> int:
        return self.result.statistics.failed_queries

    def by_kind(self) -> EventsByKind:
        reconfigs = self.result.reconfigurations
        return events_by_kind(
            self.events,
            self.submitted,
            self.completed,
            reinjected=sum(r.requeued + r.buffered_arrivals for r in reconfigs),
            crash_requeued=self.crash_requeued,
            aborted_in_flight=self.aborted_in_flight,
            reconfigs=len(reconfigs),
        )


class Capture:
    """Collects a :class:`SimRecord` for every simulation that finishes."""

    def __init__(self) -> None:
        self._patcher = Patcher()
        self._lock = threading.Lock()
        self._records: List[SimRecord] = []
        self._crashes: Dict[int, List[int]] = {}

    def install(self) -> None:
        from repro.sim.cluster import InferenceServerSimulator

        capture = self

        def closing(original):
            def close(sim, *args, **kwargs):
                result = original(sim, *args, **kwargs)
                with capture._lock:
                    crashes, requeued, aborted = capture._crashes.pop(id(sim), (0, 0, 0))
                    capture._records.append(
                        SimRecord(result, sim.events_processed, crashes, requeued, aborted)
                    )
                return result

            return close

        def crashing(original):
            def crash_worker(sim, instance_id, retry_policy):
                busy = any(
                    w.instance_id == instance_id and w.current_finish_time is not None
                    for w in sim.workers
                )
                requeued, failed = original(sim, instance_id, retry_policy)
                with capture._lock:
                    tally = capture._crashes.setdefault(id(sim), [0, 0, 0])
                    tally[0] += 1
                    tally[1] += requeued
                    tally[2] += int(busy)
                return requeued, failed

            return crash_worker

        self._patcher.patch(InferenceServerSimulator, "finish", closing)
        self._patcher.patch(InferenceServerSimulator, "abort", closing)
        self._patcher.patch(InferenceServerSimulator, "crash_worker", crashing)

    def take(self) -> List[SimRecord]:
        """The records collected since the last call."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def restore(self) -> None:
        self._patcher.restore()


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def instrument(tracer: Tracer, estimators: List[Any]) -> None:
    """Wrap every layer's public entry points (undo with ``tracer.restore``).

    Latency oracles created meanwhile are appended to ``estimators``.
    """
    from repro.autoscale.autoscaler import Autoscaler
    from repro.core.elsa import ElsaScheduler
    from repro.core.paris import FleetParis, Paris
    from repro.core.triggers import RepartitionTrigger
    from repro.daemon.tenants import TenantSession
    from repro.perf.lookup import CachedEstimator
    from repro.perf.profiler import Profiler
    from repro.serving.session import ServingSession
    from repro.sim import cluster
    from repro.sim.hooks import WindowedMetrics
    from repro.sim.worker import PartitionWorker
    from repro.workload.generator import QueryGenerator
    from repro.workload.scenario import Scenario

    wrap, count = tracer.wrap, tracer.wrap_count
    wrap(QueryGenerator, "generate", "workload.generate", size_of=len)
    wrap(Scenario, "generate", "workload.generate", size_of=len)
    wrap(Profiler, "profile", "perf.profile")
    count(CachedEstimator, "__call__", "perf.oracle_call")

    def tracking(original):
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            estimators.append(self)

        return __init__

    tracer.patch(CachedEstimator, "__init__", tracking)
    wrap(Paris, "plan", "core.plan")
    wrap(FleetParis, "plan", "core.plan")
    wrap(ElsaScheduler, "on_arrival", "core.on_arrival")
    count(PartitionWorker, "estimated_wait", "core.estimated_wait")
    for trigger in _subclasses(RepartitionTrigger):
        if "evaluate" in trigger.__dict__:
            wrap(trigger, "evaluate", "core.trigger")
    simulator = cluster.InferenceServerSimulator
    for attr in ("run", "run_until", "finish", "abort"):
        wrap(simulator, attr, "sim.replay")
    wrap(simulator, "reconfigure", "serving.reconfigure")
    wrap(cluster, "compute_statistics_from_arrays", "sim.digest")
    wrap(cluster, "compute_statistics", "sim.digest")
    for attr in ("series", "observed_batch_pdf", "recent_violation_stats"):
        wrap(WindowedMetrics, attr, "sim.digest")
    for attr in ("run", "run_until", "finish", "abort"):
        wrap(ServingSession, attr, "serving.session")
    wrap(Autoscaler, "evaluate", "autoscale.evaluate")
    wrap(TenantSession, "advance", "daemon.chunk", op_of=lambda args: args[0].name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span],
    counts: Dict[str, int],
    records: Sequence[SimRecord],
    estimators: Sequence[Any],
) -> Dict[str, float]:
    """Per-layer metrics of one traced set-up plus cycle (0 = layer unused)."""
    totals = SpanTotals(spans)
    own, calls, total = totals.self_time, totals.calls, totals.total
    queries = sum(r.submitted for r in records)
    completed = sum(r.completed for r in records)
    events = sum(r.events for r in records)
    kinds = [r.by_kind() for r in records]
    oracle_calls = counts.get("perf.oracle_call", 0)
    memo_entries = sum(e.cache_info()["entries"] for e in estimators)
    arrivals = calls["core.on_arrival"]
    generated = totals.size["workload.generate"]
    requeued_queries = [
        q for r in records for q in r.result.queries if q.retries > 0
    ]
    return {
        "workload.generate_s": _ratio(own["workload.generate"], generated / 1000.0),
        "perf.profile_s": total["perf.profile"],
        "perf.oracle_calls_per_query": _ratio(oracle_calls, queries),
        "perf.oracle_hit_ratio": _ratio(max(0, oracle_calls - memo_entries), oracle_calls),
        "core.plan_s": own["core.plan"],
        "core.plan_calls": calls["core.plan"],
        "core.on_arrival_us": _ratio(own["core.on_arrival"] * 1e6, arrivals),
        "core.on_arrival_calls": arrivals,
        "core.wait_calls_per_arrival": _ratio(counts.get("core.estimated_wait", 0), arrivals),
        "core.trigger_evals": calls["core.trigger"],
        "core.trigger_s": own["core.trigger"],
        "sim.events_per_query": _ratio(events, queries),
        "sim.bounces_per_query": _ratio(sum(k.bounces for k in kinds), queries),
        "sim.useful_event_ratio": _ratio(queries + completed, events),
        "sim.replay_self_s": own["sim.replay"],
        "sim.digest_s": own["sim.digest"],
        "serving.session_self_s": own["serving.session"],
        "serving.reconfigures": calls["serving.reconfigure"],
        "serving.reconfigure_s": total["serving.reconfigure"],
        "autoscale.evaluate_calls": calls["autoscale.evaluate"],
        "autoscale.evaluate_s": own["autoscale.evaluate"],
        "faults.crashes": sum(r.crashes for r in records),
        "faults.requeued": sum(r.crash_requeued for r in records),
        "faults.retry_success_ratio": _ratio(
            sum(1 for q in requeued_queries if q.finish_time is not None),
            len(requeued_queries),
        ),
        "faults.failed_share": _ratio(sum(r.failed for r in records), queries),
    }


def replay_shares(spans: Sequence[Span]) -> List[List[float]]:
    """Per operation span: the durations of its outermost replays, as
    shares of the operation's duration."""
    outer: Dict[str, List[float]] = {}
    for span in spans:
        if span.name != "sim.replay":
            continue
        if span.parent >= 0 and spans[span.parent].name == "sim.replay":
            continue
        outer.setdefault(span.op, []).append(span.duration)
    return [
        [d / span.duration for d in outer.get(span.op, [])]
        for span in spans
        if span.name == "op"
    ]
