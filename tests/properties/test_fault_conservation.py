"""Property: fault injection conserves every query, on both sim paths.

Whatever crash/restart/straggler schedule is injected and whatever the
retry budget, every submitted query must end the run in exactly one of two
terminal states — *completed* (a finish time, no fail time) or *failed*
(a fail time, no finish time) — and the fast columnar path must reproduce
the naive object path bit-for-bit, retries and failures included, under
ELSA and under FIFS with every idle preference.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.specs import FifsSpec
from repro.faults import (
    FaultSchedule,
    RetryPolicy,
    StragglerEnd,
    StragglerStart,
    WorkerCrash,
    WorkerRestart,
)
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.workload.generator import WorkloadConfig

CONFIG = ServerConfig(model="mobilenet", gpc_budget=24, num_gpus=4)
FIFS_PREFERENCES = ("round_robin", "smallest", "largest", "random")


def _workload(seed):
    return WorkloadConfig(
        model="mobilenet", rate_qps=5000.0, num_queries=1200, seed=seed
    )


@st.composite
def fault_schedules(draw):
    times = st.floats(0.01, 0.4, allow_nan=False)
    workers = st.integers(0, 5)
    events = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["crash", "restart", "straggle", "recover"]))
        time = draw(times)
        worker = draw(workers)
        if kind == "crash":
            events.append(WorkerCrash(time=time, worker=worker))
        elif kind == "restart":
            events.append(WorkerRestart(time=time, worker=worker))
        elif kind == "straggle":
            multiplier = draw(st.floats(1.0, 8.0, allow_nan=False))
            events.append(
                StragglerStart(time=time, worker=worker, multiplier=multiplier)
            )
        else:
            events.append(StragglerEnd(time=time, worker=worker))
    return FaultSchedule(events)


@st.composite
def retry_policies(draw):
    return RetryPolicy(
        max_retries=draw(st.integers(0, 2)),
        backoff=draw(st.sampled_from([0.0, 0.02, 0.05])),
    )


@st.composite
def server_configs(draw):
    """CONFIG under ELSA, or under FIFS with a drawn idle preference."""
    if draw(st.booleans()):
        return CONFIG
    spec = FifsSpec(idle_preference=draw(st.sampled_from(FIFS_PREFERENCES)))
    return ServerConfig.from_specs(
        "mobilenet", scheduler=spec, gpc_budget=24, num_gpus=4
    )


def _run(config, schedule, policy, seed):
    session = ServingSession(
        config, window=0.25, faults=schedule, retry_policy=policy
    )
    return session.run(_workload(seed))


@settings(max_examples=15, deadline=None)
@given(schedule=fault_schedules(), policy=retry_policies(), seed=st.integers(0, 50))
def test_every_arrival_completes_or_fails_exactly_once(schedule, policy, seed):
    result = _run(CONFIG, schedule, policy, seed)
    stats = result.simulation.statistics
    queries = result.simulation.queries
    assert stats.total_queries == len(queries)
    completed = failed = 0
    for query in queries:
        if query.failed:
            failed += 1
            assert query.fail_time is not None
            assert query.finish_time is None
            assert query.retries <= policy.max_retries
        else:
            completed += 1
            assert query.finish_time is not None
            assert query.fail_time is None
    assert completed == stats.completed_queries
    assert failed == stats.failed_queries
    assert completed + failed == stats.total_queries


@settings(max_examples=20, deadline=None)
@given(
    config=server_configs(),
    schedule=fault_schedules(),
    policy=retry_policies(),
    seed=st.integers(0, 50),
)
def test_fast_path_reproduces_naive_path_under_faults(config, schedule, policy, seed):
    fast = _run(config, schedule, policy, seed)
    naive = _run(
        dataclasses.replace(config, fast_path=False), schedule, policy, seed
    )
    assert fast.fault_events == naive.fault_events

    def signature(result):
        return [
            (
                q.query_id,
                q.dispatch_time,
                q.start_time,
                q.finish_time,
                q.instance_id,
                q.retries,
                q.fail_time,
            )
            for q in result.simulation.queries
        ]

    assert signature(fast) == signature(naive)
    assert (
        fast.simulation.statistics.failed_queries
        == naive.simulation.statistics.failed_queries
    )
