"""ELSA's per-arrival work as the fleet grows: count the scans, not the time.

Replays resnet traces on fleets of W ≈ 10/45/160/640 workers, always split
evenly into the same five ``(architecture, size)`` groups, once on a
single-architecture A100 fleet and once on a mixed A100 + A30 fleet.  A
counting wrapper around :meth:`PartitionWorker.estimated_wait` records how
many workers each ``ElsaScheduler.on_arrival`` call scores:

* the naive replay passes no worker index, so ELSA scores every worker:
  the median is exactly W;
* the fast replay scores from its per-group index: the median stays at most
  twice the group count at every W, however large the groups grow.

Both replays must also agree query by query.  The counts and the replay
wall time per arrival (best of three, no counting wrapper) land in
``BENCH_elsa_scaling.json`` at the repository root.
"""

import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.elsa import ElsaScheduler
from repro.gpu.architecture import A30, A100
from repro.gpu.partition import GPUPartition, PartitionInstance
from repro.perf.profiler import cached_profile
from repro.serving.sla import derive_sla_target
from repro.sim.cluster import InferenceServerSimulator
from repro.sim.worker import PartitionWorker
from repro.workload.generator import QueryGenerator, WorkloadConfig

MODEL = "resnet"
#: Worker counts: the five groups hold 2, 9, 32 and 128 workers each, so the
#: smallest fleet is all direct-read groups and the others are all heaped.
FLEET_SIZES = (10, 45, 160, 640)
FLEETS = {
    "single-arch": ((A100, 1), (A100, 2), (A100, 3), (A100, 4), (A100, 7)),
    "mixed": ((A100, 1), (A100, 2), (A100, 7), (A30, 1), (A30, 4)),
}
NUM_QUERIES = 1000
LOAD = 1.3
ROUNDS = 3
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_elsa_scaling.json"


def _instances(groups, workers):
    per_group = workers // len(groups)
    instances = []
    for arch, gpcs in groups:
        for _ in range(per_group):
            instances.append(
                PartitionInstance(
                    instance_id=len(instances),
                    partition=GPUPartition(gpcs, arch),
                    physical_gpu=len(instances),
                )
            )
    return instances


def _case(groups, workers):
    """Instances, per-architecture tables and a trace at ``LOAD`` x capacity."""
    tables = {arch.name: cached_profile(MODEL, architecture=arch) for arch, _ in groups}
    instances = _instances(groups, workers)
    config = WorkloadConfig(
        model=MODEL,
        rate_qps=1.0,
        num_queries=NUM_QUERIES,
        seed=1,
        sla_target=derive_sla_target(tables[A100.name], max_batch=32),
    )
    batches = [query.batch for query in QueryGenerator(config).generate()]
    # Capacity: every worker serving the trace's batch mix back to back.
    capacity = sum(
        len(batches)
        / sum(
            tables[i.partition.architecture.name].latency(i.gpcs, b) for b in batches
        )
        for i in instances
    )
    trace = QueryGenerator(replace(config, rate_qps=LOAD * capacity)).generate()
    return instances, tables, trace


def _simulator(instances, tables, fast):
    arch_profiles = (
        {name: {MODEL: table} for name, table in tables.items()}
        if len(tables) > 1
        else None
    )
    return InferenceServerSimulator(
        instances=instances,
        profiles={MODEL: tables[A100.name]},
        scheduler=ElsaScheduler(
            profile=tables[A100.name], arch_profiles=arch_profiles
        ),
        fast_path=fast,
        arch_profiles=arch_profiles,
    )


def _signature(result):
    return [
        (q.query_id, q.dispatch_time, q.start_time, q.finish_time, q.instance_id)
        for q in result.queries
    ]


def _counted_replay(monkeypatch, instances, tables, trace, fast):
    """Replay once, recording the estimated_wait calls of every arrival."""
    waits = [0]
    per_arrival = []
    estimated_wait = PartitionWorker.estimated_wait
    on_arrival = ElsaScheduler.on_arrival

    def counting_wait(self, now, estimator):
        waits[0] += 1
        return estimated_wait(self, now, estimator)

    def counting_arrival(self, query, context):
        before = waits[0]
        worker = on_arrival(self, query, context)
        per_arrival.append(waits[0] - before)
        return worker

    with monkeypatch.context() as patch:
        patch.setattr(PartitionWorker, "estimated_wait", counting_wait)
        patch.setattr(ElsaScheduler, "on_arrival", counting_arrival)
        result = _simulator(instances, tables, fast).run(trace)
    return result, per_arrival


def _us_per_arrival(instances, tables, trace, fast):
    best = float("inf")
    for _ in range(ROUNDS):
        simulator = _simulator(instances, tables, fast)
        start = time.perf_counter()
        simulator.run(trace)
        best = min(best, time.perf_counter() - start)
    return best * 1e6 / len(trace)


@pytest.mark.perf_smoke
def test_elsa_scoring_work_is_flat_in_fleet_size(monkeypatch):
    rows = []
    for fleet, groups in FLEETS.items():
        for workers in FLEET_SIZES:
            instances, tables, trace = _case(groups, workers)
            fast, fast_counts = _counted_replay(monkeypatch, instances, tables, trace, True)
            naive, naive_counts = _counted_replay(
                monkeypatch, instances, tables, trace, False
            )
            assert _signature(fast) == _signature(naive), (
                f"{fleet} W={workers}: indexed ELSA diverged from the full scan"
            )
            rows.append(
                {
                    "fleet": fleet,
                    "workers": len(instances),
                    "groups": len(groups),
                    "arrivals": len(fast_counts),
                    "fast_waits_per_arrival_median": statistics.median(fast_counts),
                    "fast_waits_per_arrival_max": max(fast_counts),
                    "naive_waits_per_arrival_median": statistics.median(naive_counts),
                    "fast_replay_us_per_arrival": _us_per_arrival(
                        instances, tables, trace, True
                    ),
                    "naive_replay_us_per_arrival": _us_per_arrival(
                        instances, tables, trace, False
                    ),
                }
            )
    payload = {
        "benchmark": "elsa_scaling",
        "model": MODEL,
        "num_queries": NUM_QUERIES,
        "load": LOAD,
        "rounds": ROUNDS,
        "rows": rows,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    for row in rows:
        label = f"{row['fleet']} W={row['workers']}"
        assert row["naive_waits_per_arrival_median"] == row["workers"], label
        assert row["fast_waits_per_arrival_median"] <= 2 * row["groups"], (
            f"{label}: the fast path scored a median "
            f"{row['fast_waits_per_arrival_median']} workers per arrival "
            f"across {row['groups']} groups; see {BENCH_PATH.name}"
        )
