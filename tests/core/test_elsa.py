"""Unit tests for the ELSA scheduler (Algorithm 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.elsa import ElsaScheduler
from repro.gpu.architecture import A30, A100
from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.sim.scheduler_api import SchedulingContext
from repro.sim.worker import PartitionWorker
from repro.workload.query import Query
from tests.sim.helpers import constant_profile


LATENCIES = {1: 3.0, 3: 2.0, 7: 1.0}
#: A second architecture whose GPU(1) beats the first one's and whose GPU(4)
#: beats its GPU(7): size order and least-capable-first order disagree.
A30_LATENCIES = {1: 2.0, 2: 1.5, 4: 0.5}


def make_workers(sizes=(1, 3, 7), arch=A100, latencies=LATENCIES, first_id=0):
    profile = constant_profile(latencies)
    workers = []
    for idx, size in enumerate(sorted(sizes), start=first_id):
        instance = PartitionInstance(idx, GPUPartition(size, arch))
        workers.append(
            PartitionWorker(
                instance,
                latency_fn=lambda model, batch, g: profile.latency(g, batch),
            )
        )
    return workers


def make_mixed_workers():
    """A100 GPU(1)/(3)/(7) plus A30 GPU(1)/(2)/(4), in instance-id order."""
    return make_workers() + make_workers(
        (1, 2, 4), arch=A30, latencies=A30_LATENCIES, first_id=3
    )


def make_context(workers, now=0.0):
    profile = constant_profile(LATENCIES)
    return SchedulingContext(
        now=now,
        workers=workers,
        central_queue=(),
        estimator=lambda model, batch, gpcs: profile.latency(gpcs, batch),
    )


def make_query(qid=0, batch=4, sla=None):
    return Query(query_id=qid, model="toy", batch=batch, arrival_time=0.0, sla_target=sla)


def make_scheduler(**kwargs):
    return ElsaScheduler(profile=constant_profile(LATENCIES), **kwargs)


def make_mixed_scheduler(**kwargs):
    return make_scheduler(
        arch_profiles={
            A100.name: {"toy": constant_profile(LATENCIES)},
            A30.name: {"toy": constant_profile(A30_LATENCIES)},
        },
        **kwargs,
    )


class TestStepA:
    def test_prefers_smallest_partition_that_meets_sla(self):
        workers = make_workers()
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=10.0), make_context(workers))
        assert chosen.gpcs == 1

    def test_skips_partitions_that_would_violate(self):
        workers = make_workers()
        scheduler = make_scheduler()
        # SLA of 2.5 s: GPU(1) (3 s) violates, GPU(3) (2 s) is the smallest fit.
        chosen = scheduler.on_arrival(make_query(sla=2.5), make_context(workers))
        assert chosen.gpcs == 3

    def test_accounts_for_queued_work(self):
        workers = make_workers()
        # Load the GPU(3) instance so its wait pushes it over the SLA.
        gpu3 = [w for w in workers if w.gpcs == 3][0]
        gpu3.enqueue(make_query(99), 0.0)
        gpu3.start_next(0.0)
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=2.5), make_context(workers))
        assert chosen.gpcs == 7

    def test_balances_load_across_equal_partitions(self):
        workers = make_workers(sizes=(1, 1))
        workers[0].enqueue(make_query(99), 0.0)
        workers[0].start_next(0.0)
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=100.0), make_context(workers))
        assert chosen is workers[1]

    def test_largest_first_ablation_flag(self):
        workers = make_workers()
        scheduler = make_scheduler(prefer_smallest=False)
        chosen = scheduler.on_arrival(make_query(sla=10.0), make_context(workers))
        assert chosen.gpcs == 7

    def test_alpha_tightens_admission(self):
        workers = make_workers()
        # With alpha=2 the effective cost on GPU(1) is 6 s > SLA 5 s.
        scheduler = make_scheduler(alpha=2.0)
        chosen = scheduler.on_arrival(make_query(sla=5.0), make_context(workers))
        assert chosen.gpcs == 3


class TestStepB:
    def test_falls_back_to_fastest_completion(self):
        workers = make_workers()
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=0.1), make_context(workers))
        assert chosen.gpcs == 7

    def test_fastest_completion_considers_queued_work(self):
        workers = make_workers()
        gpu7 = [w for w in workers if w.gpcs == 7][0]
        for i in range(5):
            gpu7.enqueue(make_query(100 + i), 0.0)
        gpu7.start_next(0.0)
        scheduler = make_scheduler()
        # GPU(7) now has ~6 s of work; GPU(3) (2 s) completes sooner.
        chosen = scheduler.on_arrival(make_query(sla=0.1), make_context(workers))
        assert chosen.gpcs == 3

    def test_queries_without_sla_use_fastest_completion(self):
        workers = make_workers()
        scheduler = make_scheduler()
        chosen = scheduler.on_arrival(make_query(sla=None), make_context(workers))
        assert chosen.gpcs == 7


class TestLeanArrivalMatchesPredictions:
    """on_arrival's lean scoring loop must equal walking predictions().

    The hot path inlines Algorithm 2 over plain tuples; this pins it to the
    introspectable :meth:`ElsaScheduler.predictions` reference so a future
    change to the slack formula cannot silently diverge the two, on one
    architecture and on a two-architecture worker set (where Step A visits
    groups least capable first, not by size).
    """

    @staticmethod
    def reference_pick(scheduler, query, context):
        predictions = scheduler.predictions(query, context)
        if query.sla_target is not None:
            for prediction, worker in predictions:
                if prediction.satisfies_sla:
                    return worker
        best = min(
            predictions,
            key=lambda pw: (pw[0].completion_time, pw[0].gpcs, pw[0].instance_id),
        )
        return best[1]

    @settings(max_examples=60, deadline=None)
    @given(
        mixed=st.booleans(),
        backlog=st.lists(st.integers(0, 4), min_size=6, max_size=6),
        batch=st.integers(1, 32),
        sla=st.one_of(st.none(), st.floats(0.05, 30.0, allow_nan=False)),
        alpha=st.floats(0.5, 2.5),
        beta=st.floats(0.5, 2.5),
        prefer_smallest=st.booleans(),
        now=st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_decisions_identical(
        self, mixed, backlog, batch, sla, alpha, beta, prefer_smallest, now
    ):
        workers = make_mixed_workers() if mixed else make_workers()
        for worker, queued in zip(workers, backlog):
            for i in range(queued):
                worker.enqueue(make_query(100 + i), 0.0)
            if queued:
                worker.start_next(0.0)
        scheduler = (make_mixed_scheduler if mixed else make_scheduler)(
            alpha=alpha, beta=beta, prefer_smallest=prefer_smallest
        )
        query = make_query(batch=batch, sla=sla)
        context = make_context(workers, now=now)
        assert scheduler.on_arrival(query, context) is self.reference_pick(
            scheduler, query, context
        )


class TestMisc:
    def test_never_returns_none(self):
        workers = make_workers()
        for worker in workers:
            worker.enqueue(make_query(50 + worker.instance_id), 0.0)
            worker.start_next(0.0)
        scheduler = make_scheduler()
        assert scheduler.on_arrival(make_query(sla=1.0), make_context(workers)) is not None

    def test_profile_property_exposed(self):
        scheduler = make_scheduler()
        assert scheduler.profile.latency(7, 4) == pytest.approx(1.0)

    def test_name(self):
        assert make_scheduler().name == "elsa"
