"""Properties pinning the fast-path contract: speed never changes outcomes.

Two families of invariants:

* the memoized / vectorised estimator surfaces of
  :class:`~repro.perf.lookup.CachedEstimator` agree **exactly** (``==`` on
  floats, not approx) with uncached :class:`~repro.perf.lookup.ProfileTable`
  lookups;
* a replay on the optimised simulator path produces a **bit-identical**
  :class:`~repro.sim.cluster.SimulationResult` to the naive reference path,
  for every scheduler family and for seeded random traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.elsa import ElsaScheduler
from repro.core.schedulers import FifsScheduler, LeastLoadedScheduler
from repro.perf.lookup import CachedEstimator, ProfileEntry, ProfileTable
from repro.sim.cluster import InferenceServerSimulator
from tests.sim.helpers import MODEL, constant_profile, make_instances, make_trace


# --------------------------------------------------------------------------- #
# estimator agreement
# --------------------------------------------------------------------------- #
@st.composite
def profile_tables(draw):
    """Random single-model tables with 1-3 partition sizes, 1-6 batches."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True))
    entries = []
    for gpcs in sizes:
        batches = draw(
            st.lists(st.integers(1, 64), min_size=1, max_size=6, unique=True)
        )
        for batch in batches:
            latency = draw(
                st.floats(1e-4, 10.0, allow_nan=False, allow_infinity=False)
            )
            entries.append(
                ProfileEntry(
                    gpcs=gpcs,
                    batch=batch,
                    latency_s=latency,
                    utilization=draw(st.floats(0.0, 1.0)),
                    throughput_qps=1.0 / latency,
                )
            )
    return ProfileTable("prop", entries)


@settings(max_examples=60, deadline=None)
@given(table=profile_tables(), batches=st.lists(st.integers(1, 96), min_size=1, max_size=12))
def test_cached_estimator_matches_uncached_lookups(table, batches):
    estimator = CachedEstimator({"prop": table})
    for gpcs in table.partition_sizes:
        for batch in batches:
            expected = table.latency(gpcs, batch)
            assert estimator("prop", batch, gpcs) == expected
            # repeat: the memoized answer must stay exact
            assert estimator("prop", batch, gpcs) == expected


@settings(max_examples=60, deadline=None)
@given(table=profile_tables(), batches=st.lists(st.integers(1, 96), min_size=1, max_size=12))
def test_vectorised_interpolation_matches_scalar(table, batches):
    estimator = CachedEstimator({"prop": table})
    query = np.asarray(batches, dtype=np.int64)
    for gpcs in table.partition_sizes:
        vectorised = estimator.batch_latencies("prop", gpcs, query)
        scalar = np.asarray([table.latency(gpcs, b) for b in batches])
        assert vectorised.shape == query.shape
        assert (vectorised == scalar).all()


@settings(max_examples=40, deadline=None)
@given(table=profile_tables(), batch=st.integers(1, 200))
def test_extrapolated_latency_stays_strictly_positive(table, batch):
    for gpcs in table.partition_sizes:
        assert table.latency(gpcs, batch) > 0.0
        assert table.throughput(gpcs, batch) > 0.0


# --------------------------------------------------------------------------- #
# replay identity: optimised vs naive path
# --------------------------------------------------------------------------- #
LATENCIES = {1: 0.9, 3: 0.5, 7: 0.2}


def query_signature(result):
    return [
        (q.query_id, q.dispatch_time, q.start_time, q.finish_time, q.instance_id)
        for q in result.queries
    ]


def run_both_paths(scheduler_factory, trace, sizes=(1, 3, 7, 7), **kwargs):
    """Replay ``trace`` on both paths: ``([fast, naive] results, [fast,
    naive] events processed)``."""
    results, events = [], []
    for fast in (True, False):
        simulator = InferenceServerSimulator(
            instances=make_instances(sizes),
            profiles={MODEL: constant_profile(LATENCIES)},
            scheduler=scheduler_factory(),
            fast_path=fast,
            **kwargs,
        )
        results.append(simulator.run(trace))
        events.append(simulator.events_processed)
    return results, events


def make_elsa(**kwargs):
    return ElsaScheduler(profile=constant_profile(LATENCIES), **kwargs)


SCHEDULER_FACTORIES = {
    "fifs-round-robin": lambda: FifsScheduler("round_robin"),
    "fifs-random": lambda: FifsScheduler("random", seed=7),
    "fifs-smallest": lambda: FifsScheduler("smallest"),
    "least-loaded": LeastLoadedScheduler,
    "elsa": make_elsa,
}


@settings(max_examples=25, deadline=None)
@given(
    spec=st.lists(
        st.tuples(st.floats(0.0, 5.0, allow_nan=False), st.integers(1, 32)),
        min_size=1,
        max_size=40,
    ),
    policy=st.sampled_from(sorted(SCHEDULER_FACTORIES)),
    sla=st.one_of(st.none(), st.floats(0.1, 5.0, allow_nan=False)),
)
def test_fast_and_naive_replays_are_bit_identical(spec, policy, sla):
    trace = make_trace(sorted(spec, key=lambda s: s[0]), sla=sla)
    (fast, naive), (fast_events, naive_events) = run_both_paths(
        SCHEDULER_FACTORIES[policy], trace
    )
    assert query_signature(fast) == query_signature(naive)
    assert fast.statistics == naive.statistics
    assert fast.per_instance_queries == naive.per_instance_queries
    assert fast_events == naive_events


@pytest.mark.parametrize("policy", sorted(SCHEDULER_FACTORIES))
def test_fast_and_naive_agree_with_frontend_limit(policy):
    trace = make_trace([(0.05 * i, 1 + i % 8) for i in range(60)], sla=1.5)
    (fast, naive), (fast_events, naive_events) = run_both_paths(
        SCHEDULER_FACTORIES[policy], trace, frontend_capacity_qps=30.0
    )
    assert query_signature(fast) == query_signature(naive)
    assert fast.statistics == naive.statistics
    # frontend bounces count as events on both paths alike
    assert fast_events == naive_events


def test_fast_and_naive_agree_across_live_reconfiguration():
    """Streaming runs with a mid-run repartition stay bit-identical too."""
    results, events = [], []
    for fast in (True, False):
        simulator = InferenceServerSimulator(
            instances=make_instances((1, 7)),
            profiles={MODEL: constant_profile(LATENCIES)},
            scheduler=FifsScheduler(),
            fast_path=fast,
        )
        simulator.begin()
        simulator.submit_trace(make_trace([(0.1 * i, 2) for i in range(30)]))
        simulator.run_until(1.0)
        simulator.reconfigure(make_instances((3, 3)), reconfig_cost=0.5)
        results.append(simulator.finish())
        events.append(simulator.events_processed)
    fast, naive = results
    assert query_signature(fast) == query_signature(naive)
    assert fast.statistics == naive.statistics
    assert fast.reconfigurations == naive.reconfigurations
    assert events[0] == events[1]


# --------------------------------------------------------------------------- #
# columnar-core identity: multi-model traces, live reconfigure, metrics views
# --------------------------------------------------------------------------- #
def _profile_named(name, latencies):
    entries = [
        ProfileEntry(
            gpcs=gpcs,
            batch=batch,
            latency_s=latency,
            utilization=0.9,
            throughput_qps=1.0 / latency,
        )
        for gpcs, latency in latencies.items()
        for batch in (1, 2, 4, 8, 16, 32)
    ]
    return ProfileTable(name, entries)


MULTI_PROFILES = {
    "small-model": _profile_named("small-model", {1: 0.3, 3: 0.15, 7: 0.05}),
    "large-model": _profile_named("large-model", {1: 1.4, 3: 0.8, 7: 0.3}),
}


def _multi_model_trace(spec):
    from repro.workload.query import Query
    from repro.workload.trace import QueryTrace

    models = sorted(MULTI_PROFILES)
    queries = tuple(
        Query(
            query_id=idx,
            model=models[pick % len(models)],
            batch=batch,
            arrival_time=arrival,
            sla_target=1.5,
        )
        for idx, (arrival, batch, pick) in enumerate(spec)
    )
    return QueryTrace(queries)


@settings(max_examples=25, deadline=None)
@given(
    spec=st.lists(
        st.tuples(
            st.floats(0.0, 5.0, allow_nan=False),
            st.integers(1, 32),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_multi_model_replays_are_bit_identical(spec):
    """Columnar fast path == naive path on mixed-model traces, down to the
    per-query latencies, utilization and violation statistics."""
    trace = _multi_model_trace(sorted(spec, key=lambda s: s[0]))
    primary = MULTI_PROFILES["small-model"]
    results, events = [], []
    for fast in (True, False):
        simulator = InferenceServerSimulator(
            instances=make_instances((1, 3, 7)),
            profiles=dict(MULTI_PROFILES),
            scheduler=ElsaScheduler(profile=primary, profiles=MULTI_PROFILES),
            fast_path=fast,
        )
        results.append(simulator.run(trace))
        events.append(simulator.events_processed)
    fast_result, naive_result = results
    assert events[0] == events[1]
    assert query_signature(fast_result) == query_signature(naive_result)
    # spell the headline statistics out (the dataclass == pins them anyway)
    fast_latencies = [q.latency for q in fast_result.queries]
    naive_latencies = [q.latency for q in naive_result.queries]
    assert fast_latencies == naive_latencies
    assert (
        fast_result.statistics.utilization == naive_result.statistics.utilization
    )
    assert (
        fast_result.statistics.latency.sla_violation_rate
        == naive_result.statistics.latency.sla_violation_rate
    )
    assert fast_result.statistics == naive_result.statistics


@settings(max_examples=20, deadline=None)
@given(
    spec=st.lists(
        st.tuples(st.floats(0.0, 4.0, allow_nan=False), st.integers(1, 16)),
        min_size=4,
        max_size=30,
    ),
    checkpoint=st.floats(0.2, 3.0, allow_nan=False),
    new_sizes=st.lists(st.sampled_from([1, 3, 7]), min_size=1, max_size=3),
    cost=st.floats(0.0, 1.0, allow_nan=False),
)
def test_live_reconfigure_is_bit_identical(spec, checkpoint, new_sizes, cost):
    """Mid-run repartitions (requeue + buffered arrivals + downtime) replay
    identically on the columnar and naive paths."""
    trace = make_trace(sorted(spec, key=lambda s: s[0]), sla=1.0)
    results, events = [], []
    for fast in (True, False):
        simulator = InferenceServerSimulator(
            instances=make_instances((1, 7)),
            profiles={MODEL: constant_profile(LATENCIES)},
            scheduler=FifsScheduler(),
            fast_path=fast,
        )
        simulator.begin()
        simulator.submit_trace(trace.fresh_copy())
        simulator.run_until(checkpoint)
        simulator.reconfigure(make_instances(tuple(new_sizes)), reconfig_cost=cost)
        results.append(simulator.finish())
        events.append(simulator.events_processed)
    fast_result, naive_result = results
    assert events[0] == events[1]
    assert query_signature(fast_result) == query_signature(naive_result)
    assert fast_result.statistics == naive_result.statistics
    assert fast_result.reconfigurations == naive_result.reconfigurations


@settings(max_examples=20, deadline=None)
@given(
    spec=st.lists(
        st.tuples(st.floats(0.0, 6.0, allow_nan=False), st.integers(1, 32)),
        min_size=1,
        max_size=40,
    ),
)
def test_windowed_metrics_columnar_counts_match_event_driven(spec):
    """The lazy columnar WindowedMetrics digestion reports exactly the same
    integer counts (and window bucketing) as the event-driven observer on
    the naive path; float summaries agree to numerical noise."""
    from repro.sim.hooks import WindowedMetrics

    trace = make_trace(sorted(spec, key=lambda s: s[0]), sla=1.0)
    series = {}
    for fast in (True, False):
        simulator = InferenceServerSimulator(
            instances=make_instances((1, 3, 7)),
            profiles={MODEL: constant_profile(LATENCIES)},
            scheduler=FifsScheduler(),
            fast_path=fast,
        )
        windowed = WindowedMetrics(window=0.5)
        simulator.add_observer(windowed)
        simulator.run(trace.fresh_copy())
        series[fast] = windowed.series()
        histogram = windowed.observed_batch_histogram(6.5, lookback_windows=13)
        violations = windowed.recent_violation_stats(6.5, lookback_windows=13)
        if fast:
            columnar_histogram, columnar_violations = histogram, violations
        else:
            assert histogram == columnar_histogram
            assert violations == columnar_violations
    fast_series, naive_series = series[True], series[False]
    assert len(fast_series) == len(naive_series)
    for fast_window, naive_window in zip(fast_series, naive_series):
        assert fast_window.index == naive_window.index
        assert fast_window.arrivals == naive_window.arrivals
        assert fast_window.completions == naive_window.completions
        assert fast_window.sla_count == naive_window.sla_count
        assert fast_window.violations == naive_window.violations
        assert fast_window.reconfiguring == naive_window.reconfiguring
        assert fast_window.mean_latency == pytest.approx(
            naive_window.mean_latency, rel=1e-12, abs=1e-15
        )
        assert fast_window.p95_latency == naive_window.p95_latency


# --------------------------------------------------------------------------- #
# PARIS plan memoization: the plan is a function of (PDF, budget), not rate
# --------------------------------------------------------------------------- #
@st.composite
def batch_pdfs(draw):
    batches = draw(
        st.lists(st.integers(1, 32), min_size=1, max_size=6, unique=True)
    )
    weights = [draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in batches]
    return dict(zip(batches, weights))


@settings(max_examples=30, deadline=None)
@given(pdf=batch_pdfs(), budget=st.integers(7, 24))
def test_paris_plan_memoized_across_rate_points(pdf, budget):
    """Replanning the same (PDF, budget) returns the *identical* plan object
    — a latency-bounded-throughput search replans nothing between its rate
    points — while a different PDF genuinely replans."""
    from repro.core.paris import Paris, shared_paris

    profile = _profile_named("memo-model", {1: 0.4, 3: 0.2, 7: 0.1})
    paris = Paris(profile)
    first = paris.plan(pdf, budget)
    for _ in range(3):  # one lookup per simulated bisection step
        assert paris.plan(pdf, budget) is first
    # the process-wide shared planner memoizes across independent builds too
    assert shared_paris(profile).plan(pdf, budget) is shared_paris(profile).plan(
        pdf, budget
    )
    shifted = {batch + 1: probability for batch, probability in pdf.items()}
    assert paris.plan(shifted, budget) is not first
