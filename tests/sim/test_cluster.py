"""Tests for the inference-server simulator."""

import gc
import weakref

import pytest

from repro.core.elsa import ElsaScheduler, _GroupIndex
from repro.core.schedulers import FifsScheduler, LeastLoadedScheduler
from repro.faults import RetryPolicy
from repro.sim.cluster import InferenceServerSimulator
from tests.sim.helpers import MODEL, constant_profile, linear_profile, make_instances, make_trace


def make_simulator(sizes=(1, 7), latencies=None, scheduler=None, **kwargs):
    latencies = latencies or {1: 2.0, 7: 1.0}
    profile = constant_profile(latencies)
    return InferenceServerSimulator(
        instances=make_instances(sizes),
        profiles={MODEL: profile},
        scheduler=scheduler or FifsScheduler(),
        **kwargs,
    )


class TestConstruction:
    def test_requires_instances_and_profiles(self):
        profile = constant_profile({1: 1.0})
        with pytest.raises(ValueError):
            InferenceServerSimulator([], {MODEL: profile}, FifsScheduler())
        with pytest.raises(ValueError):
            InferenceServerSimulator(make_instances([1]), {}, FifsScheduler())

    def test_unknown_model_raises_on_estimate(self):
        simulator = make_simulator()
        with pytest.raises(KeyError):
            simulator.estimate_latency("unknown", 1, 1)

    def test_invalid_frontend_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_simulator(frontend_capacity_qps=0.0)


class TestSingleWorkerBehaviour:
    def test_queries_serialise_on_one_partition(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        trace = make_trace([(0.0, 1), (0.0, 1), (0.0, 1)])
        result = simulator.run(trace)
        finishes = sorted(q.finish_time for q in result.queries)
        assert finishes == pytest.approx([1.0, 2.0, 3.0])
        assert result.statistics.completed_queries == 3

    def test_idle_gaps_are_respected(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        trace = make_trace([(0.0, 1), (5.0, 1)])
        result = simulator.run(trace)
        second = [q for q in result.queries if q.query_id == 1][0]
        assert second.start_time == pytest.approx(5.0)
        assert second.latency == pytest.approx(1.0)

    def test_all_queries_complete(self):
        simulator = make_simulator(sizes=(1, 7))
        trace = make_trace([(0.1 * i, 1 + i % 4) for i in range(50)])
        result = simulator.run(trace)
        assert result.statistics.completed_queries == 50
        assert all(q.completed for q in result.queries)


class TestFifsBehaviour:
    def test_waits_in_central_queue_until_idle(self):
        # One partition, two simultaneous queries: the second waits.
        simulator = make_simulator(sizes=(7,), latencies={7: 2.0})
        trace = make_trace([(0.0, 1), (0.0, 1)])
        result = simulator.run(trace)
        waits = sorted(q.queueing_delay for q in result.queries)
        assert waits == pytest.approx([0.0, 2.0])

    def test_uses_idle_partition_immediately(self):
        simulator = make_simulator(sizes=(1, 7), latencies={1: 2.0, 7: 2.0})
        trace = make_trace([(0.0, 1), (0.0, 1)])
        result = simulator.run(trace)
        assert {q.instance_id for q in result.queries} == {0, 1}
        assert all(q.queueing_delay == 0.0 for q in result.queries)


class TestReplayIsolation:
    def test_trace_is_not_mutated(self):
        simulator = make_simulator()
        trace = make_trace([(0.0, 1), (1.0, 2)])
        simulator.run(trace)
        assert all(not q.completed for q in trace)

    def test_same_trace_reusable_across_runs(self):
        simulator = make_simulator()
        trace = make_trace([(0.0, 1), (0.5, 2), (1.0, 4)])
        first = simulator.run(trace)
        second = simulator.run(trace)
        assert first.statistics.latency.p95 == pytest.approx(
            second.statistics.latency.p95
        )


class TestSchedulersOnCluster:
    def test_least_loaded_balances(self):
        simulator = make_simulator(
            sizes=(7, 7), latencies={7: 1.0}, scheduler=LeastLoadedScheduler()
        )
        trace = make_trace([(0.0, 1)] * 4)
        result = simulator.run(trace)
        assert set(result.per_instance_queries.values()) == {2}

    def test_execution_noise_changes_latencies_but_not_completion(self):
        noisy = make_simulator(execution_noise_std=0.2, seed=5)
        clean = make_simulator()
        trace = make_trace([(0.2 * i, 2) for i in range(20)])
        noisy_result = noisy.run(trace)
        clean_result = clean.run(trace)
        assert noisy_result.statistics.completed_queries == 20
        assert clean_result.statistics.completed_queries == 20
        assert noisy_result.statistics.latency.mean != pytest.approx(
            clean_result.statistics.latency.mean
        )


class TestFrontendBottleneck:
    def test_frontend_limits_dispatch_rate(self):
        # 10 simultaneous arrivals, frontend can dispatch 1 query per second,
        # plenty of workers: completion is staggered by the frontend.
        simulator = make_simulator(
            sizes=(7,) * 1, latencies={7: 0.001}, frontend_capacity_qps=1.0
        )
        trace = make_trace([(0.0, 1)] * 10)
        result = simulator.run(trace)
        makespan = result.statistics.makespan
        assert makespan >= 9.0  # last query cannot start before ~9 s

    def test_no_frontend_limit_by_default(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 0.001})
        trace = make_trace([(0.0, 1)] * 10)
        result = simulator.run(trace)
        assert result.statistics.makespan < 0.1


class TestLinearProfiles:
    def test_larger_batches_take_longer(self):
        profile = linear_profile({7: 0.5})
        simulator = InferenceServerSimulator(
            instances=make_instances([7]),
            profiles={MODEL: profile},
            scheduler=FifsScheduler(),
        )
        trace = make_trace([(0.0, 1), (10.0, 8)])
        result = simulator.run(trace)
        small = [q for q in result.queries if q.batch == 1][0]
        large = [q for q in result.queries if q.batch == 8][0]
        assert small.service_time == pytest.approx(0.5)
        assert large.service_time == pytest.approx(4.0)


class TestFastPathBookkeeping:
    def test_events_processed_counts_arrivals_and_completions(self):
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        trace = make_trace([(0.0, 1), (0.5, 1), (1.0, 1)])
        simulator.run(trace)
        assert simulator.events_processed == 6  # 3 arrivals + 3 completions

    def test_fast_path_flag_exposed(self):
        assert make_simulator().fast_path is True
        assert make_simulator(fast_path=False).fast_path is False

    def test_finished_fast_simulator_is_freed_without_cycle_collection(self):
        """The fast path holds no reference cycle through the simulator, so a
        replay sweep frees each finished run (its workers, columns and
        queries) the moment the caller drops it, not at the next cyclic GC
        pass."""
        simulator = make_simulator(
            sizes=(1, 1, 7),
            scheduler=ElsaScheduler(constant_profile({1: 2.0, 7: 1.0})),
            frontend_capacity_qps=4.0,
        )
        simulator.begin()
        simulator.submit_trace(make_trace([(0.25 * t, 1) for t in range(20)]))
        simulator.run_until(1.0)
        simulator.crash_worker(0, RetryPolicy())
        simulator.reconfigure(make_instances((1, 7)), reconfig_cost=0.5)
        simulator.finish()
        ref = weakref.ref(simulator)
        gc.disable()
        try:
            del simulator
            assert ref() is None
        finally:
            gc.enable()

    def test_reconfigured_utilization_uses_active_spans(self):
        """Fully busy worker retired halfway through the run reports ~1.0."""
        simulator = make_simulator(sizes=(7,), latencies={7: 1.0})
        simulator.begin()
        # Keep the single GPU(7) worker busy back to back over [0, 5].
        simulator.submit_trace(make_trace([(float(t), 1) for t in range(5)]))
        simulator.run_until(5.0)
        old_id = simulator.workers[0].instance_id
        simulator.reconfigure(make_instances((7,)), reconfig_cost=1.0)
        # New generation online at t=6; keep it busy over [6, 10].
        for query in make_trace([(6.0 + t, 1) for t in range(4)]):
            simulator.submit(query)
        result = simulator.finish()
        new_id = result.reconfigurations[0].new_instance_ids[0]
        utilization = result.statistics.utilization.per_instance
        assert result.statistics.makespan == pytest.approx(10.0)
        assert utilization[old_id] == pytest.approx(1.0)
        assert utilization[new_id] == pytest.approx(1.0)
        assert result.statistics.utilization.mean == pytest.approx(1.0)


class _WeakGroupIndex(_GroupIndex):
    """ELSA's index, made weak-referenceable (no ``__slots__``), that also
    records the id of every worker the simulator reports to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reported = []

    def worker_changed(self, worker):
        self.reported.append(worker.instance_id)
        super().worker_changed(worker)


class _TrackingElsa(ElsaScheduler):
    """ELSA that keeps a weak reference to every index it hands out."""

    def __init__(self):
        super().__init__(constant_profile({1: 2.0, 7: 1.0}))
        self.indexes = []

    def on_roster_change(self, workers):
        index = _WeakGroupIndex(self, workers, heaped=True)
        self.indexes.append(weakref.ref(index))
        return index


def signature(result):
    return [
        (q.query_id, q.dispatch_time, q.start_time, q.finish_time, q.instance_id)
        for q in result.queries
    ]


def crash_and_slow_worker_0(scheduler, fast_path=True):
    """Run 20 queries on (1, 1, 7) with worker 0 crashed at t=1 and then
    given a slowdown; return the open simulator and the crash time."""
    simulator = make_simulator(
        sizes=(1, 1, 7), scheduler=scheduler, fast_path=fast_path
    )
    simulator.begin()
    simulator.submit_trace(make_trace([(0.25 * t, 1) for t in range(20)]))
    simulator.run_until(1.0)
    crashed_at = simulator.now
    simulator.crash_worker(0, RetryPolicy())
    simulator.set_worker_slowdown(0, 2.0)
    return simulator, crashed_at


class TestSchedulerIndex:
    @pytest.mark.parametrize("preference", ["round_robin", "smallest", "largest", "random"])
    def test_fifs_never_dispatches_to_crashed_worker(self, preference):
        """A crashed worker is idle and can still be given a slowdown; FIFS
        must not dispatch to it again, on either path."""
        fast_sim, crashed_at = crash_and_slow_worker_0(FifsScheduler(preference))
        naive_sim, _ = crash_and_slow_worker_0(
            FifsScheduler(preference), fast_path=False
        )
        fast, naive = fast_sim.finish(), naive_sim.finish()
        assert signature(fast) == signature(naive)
        assert not [
            q
            for q in fast.queries
            if q.instance_id == 0 and q.dispatch_time >= crashed_at
        ]

    def test_crashed_worker_slowdown_not_reported_to_index(self):
        """``worker_changed`` only ever hears of the index's own roster."""
        scheduler = _TrackingElsa()
        simulator, _ = crash_and_slow_worker_0(scheduler)
        index = scheduler.indexes[-1]()  # built when worker 0 crashed
        assert 0 not in index.reported
        simulator.set_worker_slowdown(1, 2.0)
        assert index.reported[-1] == 1
        simulator.finish()

    @pytest.mark.parametrize("close", ["finish", "abort"])
    def test_roster_index_released_when_run_closes(self, close):
        scheduler = _TrackingElsa()
        simulator, _ = crash_and_slow_worker_0(scheduler)
        simulator.restore_worker(0)
        getattr(simulator, close)()
        gc.collect()
        assert len(scheduler.indexes) == 3  # begin, crash, restore
        assert [ref() for ref in scheduler.indexes] == [None, None, None]
