"""Property: ELSA's worker index decides exactly like a full scan.

The fast path hands ELSA an index over the live workers: groups of more
than :data:`~repro.core.elsa.DIRECT_READ_MAX` workers keep lazy wait heaps
fed by the simulator's worker and roster notifications.  The naive path
passes no index, so every group reads all its members.  Replaying the same
streaming script on both paths must give the same per-query
``(dispatch, start, finish, instance_id)`` signature.

The fleets mix one to three architectures, always with a group large enough
to be heaped.  Latencies and arrivals sit on a 1/8 s grid, so many workers
tie on their waits and completions fall due at the same instant as
arrivals.  Workers mostly execute faster than ELSA's tables predict, so a
completion moves its worker's wait.  The script mixes SLA-less queries into
the trace, twice slows down the backlogged workers of the largest group,
crashes one worker and later crashes another while restoring the first
(same worker count, different roster), and repartitions live.
"""

from hypothesis import given, settings, strategies as st

from repro.core.elsa import DIRECT_READ_MAX, ElsaScheduler
from repro.faults import RetryPolicy
from repro.gpu.architecture import A30, A100, H100
from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.sim.cluster import InferenceServerSimulator
from repro.workload.query import Query
from tests.sim.helpers import MODEL, constant_profile

ARCHS = (A100, A30, H100)
SIZES = (1, 2, 4)
#: Per-architecture latencies on the 1/8 s grid; equal entries across
#: architectures make equal Step-B totals, so the tie-breaks matter.
TABLES = {
    A100.name: constant_profile({1: 1.0, 2: 0.5, 4: 0.25}),
    A30.name: constant_profile({1: 0.5, 2: 0.5, 4: 0.25}),
    H100.name: constant_profile({1: 0.75, 2: 0.25, 4: 0.25}),
}
#: What the workers actually take: mostly faster than ELSA predicts (a
#: completion then lowers its worker's key), A30 GPU(2) slower.
ACTUAL = {
    A100.name: constant_profile({1: 0.75, 2: 0.375, 4: 0.125}),
    A30.name: constant_profile({1: 0.375, 2: 0.625, 4: 0.125}),
    H100.name: constant_profile({1: 0.5, 2: 0.125, 4: 0.125}),
}
GRID = 0.125
RETRY = RetryPolicy(max_retries=1, backoff=GRID)


@st.composite
def layouts(draw, archs):
    """Worker counts per (architecture, size); one drawn group is heaped."""
    counts = {}
    for arch in archs:
        for gpcs in SIZES:
            counts[(arch, gpcs)] = draw(st.integers(0, 3))
    big = draw(st.sampled_from(sorted(counts, key=lambda k: (k[0].name, k[1]))))
    counts[big] = draw(st.integers(DIRECT_READ_MAX + 1, DIRECT_READ_MAX + 6))
    return counts


def instances_of(layout):
    instances = []
    for (arch, gpcs), count in sorted(layout.items(), key=lambda kv: (kv[0][0].name, kv[0][1])):
        for _ in range(count):
            instances.append(
                PartitionInstance(
                    instance_id=len(instances),
                    partition=GPUPartition(gpcs, arch),
                    physical_gpu=len(instances),
                )
            )
    return instances


@st.composite
def cases(draw):
    archs = draw(st.sampled_from((ARCHS[:1], ARCHS[:2], ARCHS)))
    arrivals = sorted(draw(st.lists(st.integers(0, 24), min_size=20, max_size=200)))
    queries = [
        (
            step * GRID,
            draw(st.sampled_from((1, 4, 16))),
            draw(st.sampled_from((None, 0.5, 1.0, 2.0))),
        )
        for step in arrivals
    ]
    # Control actions happen between grid points (never exactly on one),
    # in this order: two slowdowns, crash, crash + restore, repartition.
    times = sorted(draw(st.lists(st.integers(0, 23), min_size=5, max_size=5)))
    return {
        "archs": archs,
        "first": draw(layouts(archs)),
        "second": draw(layouts(archs)),
        "queries": queries,
        "times": [(t + 0.5) * GRID for t in times],
        "picks": draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=2)),
        "slowdowns": draw(st.lists(st.sampled_from((1.5, 2.0, 3.0)), min_size=2, max_size=2)),
        "prefer_smallest": draw(st.booleans()),
        "reconfig_cost": draw(st.sampled_from((0.0, GRID, 0.3))),
    }


def _pick(ids, n):
    return sorted(ids)[n % len(ids)]


def _tables(archs, tables):
    if len(archs) == 1:
        return None
    return {arch.name: {MODEL: tables[arch.name]} for arch in archs}


def _backlogged(sim):
    """The largest group's workers that have queries queued."""
    groups = {}
    for worker in sim.workers:
        groups.setdefault((worker.arch_name, worker.gpcs), []).append(worker)
    return [w.instance_id for w in max(groups.values(), key=len) if w.queue]


def replay(case, fast):
    archs = case["archs"]
    first = archs[0].name
    scheduler = ElsaScheduler(
        profile=TABLES[first],
        prefer_smallest=case["prefer_smallest"],
        arch_profiles=_tables(archs, TABLES),
    )
    sim = InferenceServerSimulator(
        instances=instances_of(case["first"]),
        profiles={MODEL: ACTUAL[first]},
        scheduler=scheduler,
        fast_path=fast,
        arch_profiles=_tables(archs, ACTUAL),
    )
    sim.begin()
    for query_id, (arrival, batch, sla) in enumerate(case["queries"]):
        sim.submit(Query(query_id, MODEL, batch, arrival, sla_target=sla))
    *slow_at, crash_at, swap_at, reconfig_at = case["times"]
    picks = case["picks"]

    for at, factor in zip(slow_at, case["slowdowns"]):
        sim.run_until(at)
        for instance_id in _backlogged(sim):
            sim.set_worker_slowdown(instance_id, factor)

    sim.run_until(crash_at)
    crashed = None
    if not sim.reconfiguring and len(sim.workers) > 1:
        crashed = _pick([w.instance_id for w in sim.workers], picks[0])
        sim.crash_worker(crashed, RETRY)

    sim.run_until(swap_at)
    if crashed is not None and len(sim.workers) > 1:
        # Same worker count before and after, different roster.
        victim = _pick([w.instance_id for w in sim.workers], picks[1])
        sim.crash_worker(victim, RETRY)
        sim.restore_worker(crashed)

    sim.run_until(reconfig_at)
    sim.reconfigure(instances_of(case["second"]), reconfig_cost=case["reconfig_cost"])
    result = sim.finish()
    return [
        (q.query_id, q.dispatch_time, q.start_time, q.finish_time, q.instance_id)
        for q in result.queries
    ], result.statistics.failed_queries


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_indexed_elsa_matches_full_scan(case):
    fast = replay(case, fast=True)
    naive = replay(case, fast=False)
    assert fast == naive


def test_slowdown_rekeys_a_heaped_worker():
    # Nine GPU(1) workers, staggered one query each, then one query queued
    # on each: the busy-heap keys are 2.0, 2.1, ..., 2.8 and worker 0 is the
    # root.  Slowing worker 0 down 3x makes it the slowest of the group, so
    # the next SLA-less query must go to worker 1, which a stale key for
    # worker 0 would prune.
    table = constant_profile({1: 1.0})
    instances = [
        PartitionInstance(instance_id=i, partition=GPUPartition(1), physical_gpu=i)
        for i in range(DIRECT_READ_MAX + 1)
    ]
    arrivals = [0.1 * i for i in range(9)] + [0.9] * 9 + [0.96]
    picks = []
    for fast in (True, False):
        sim = InferenceServerSimulator(
            instances=instances,
            profiles={MODEL: table},
            scheduler=ElsaScheduler(profile=table),
            fast_path=fast,
        )
        sim.begin()
        for query_id, arrival in enumerate(arrivals):
            sim.submit(Query(query_id, MODEL, 1, arrival, sla_target=None))
        sim.run_until(0.95)
        sim.set_worker_slowdown(0, 3.0)
        result = sim.finish()
        picks.append(result.queries[-1].instance_id)
    assert picks == [1, 1]
