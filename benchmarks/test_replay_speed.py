"""Replay-speed benchmark: columnar hot path vs the naive reference path.

The fast-path work (tuple-keyed event heap, columnar per-query runtime state
with zero-copy digestion, memoized ``CachedEstimator``, incrementally
maintained queued-work totals, the scheduler's per-run worker index, reused
scheduling context) only counts if it (a) never changes simulated outcomes and
(b) actually moves events/second.  This benchmark pins both on a fixed
overloaded PARIS+ELSA workload — the regime the paper's
latency-bounded-throughput searches spend most of their replays in:

* the optimised replay must be **bit-identical** to the naive path (every
  query timestamp, every statistic);
* the optimised path must process at least ``MIN_SPEEDUP``x the events/sec
  of the naive path;
* a rate sweep over the warm ``ParallelRunner`` must return results
  identical to the serial sweep; on multi-core machines the warm pool must
  beat the serial sweep outright, and on single-core machines the
  auto-fallback must keep it from *losing* to serial (the pre-warm-pool
  pool respawned per call and re-pickled the deployment per point, making
  ``n_jobs=2`` ~15% slower than serial on one core).

Results land in ``BENCH_speed.json`` at the repository root; the small
``perf_smoke``-marked variant runs in CI on every push and writes
``BENCH_smoke.json`` for the baseline-comparison step.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.sweep import ParallelRunner, capacity_estimate, sweep_rates
from repro.workload.generator import QueryGenerator, WorkloadConfig

NUM_QUERIES = 6000
RATE_MULTIPLIER = 1.3
ROUNDS = 3
#: re-attempted with fresh interleaved rounds when a loaded machine smears a
#: measurement; a genuine regression fails every attempt
ATTEMPTS = 3
MIN_SPEEDUP = 8.0
SMOKE_NUM_QUERIES = 1500
SMOKE_MIN_SPEEDUP = 4.0

SWEEP_POINTS = 4
SWEEP_QUERIES = 2500
SWEEP_JOBS = 2
SWEEP_ROUNDS = 3
SMOKE_SWEEP_POINTS = 2
#: Per-point work at or above the runner's ``min_fork_work`` (1000 queries),
#: so on multi-core machines the smoke sweep really fans out: below it no
#: pool spawns and the warm-vs-serial ratio compares two identical inline
#: loops.
SMOKE_SWEEP_QUERIES = 2500
#: On a single core the runner's auto-fallback makes the "warm" sweep run
#: the very same inline loop as the serial sweep, so it may only trail by
#: measurement noise — never by a real margin.
SINGLE_CORE_MIN_RATIO = 0.9

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_speed.json"
SMOKE_PATH = Path(__file__).resolve().parent.parent / "BENCH_smoke.json"


def _pinned_workload(settings, deployment, num_queries):
    workload = WorkloadConfig(
        model="mobilenet",
        rate_qps=1.0,
        num_queries=num_queries,
        seed=1,
        sla_target=deployment.sla_target,
    )
    capacity = capacity_estimate(deployment, workload)
    from dataclasses import replace

    return replace(workload, rate_qps=RATE_MULTIPLIER * capacity)


def _query_signature(result):
    return [
        (q.query_id, q.dispatch_time, q.start_time, q.finish_time, q.instance_id)
        for q in result.queries
    ]


def _timed_replay(deployment, trace, fast):
    simulator = deployment.simulator(seed=0, fast_path=fast)
    start = time.perf_counter()
    result = simulator.run(trace)
    elapsed = time.perf_counter() - start
    return result, elapsed, simulator.events_processed


def _measure_speedup(deployment, trace, rounds):
    """Interleaved best-of-N of both paths, plus the identity check."""
    fast_times, naive_times = [], []
    fast_result = naive_result = None
    events = 0
    for _ in range(rounds):
        fast_result, fast_s, events = _timed_replay(deployment, trace, fast=True)
        naive_result, naive_s, _ = _timed_replay(deployment, trace, fast=False)
        fast_times.append(fast_s)
        naive_times.append(naive_s)
    identical = (
        _query_signature(fast_result) == _query_signature(naive_result)
        and fast_result.statistics == naive_result.statistics
        and fast_result.per_instance_queries == naive_result.per_instance_queries
    )
    return min(fast_times), min(naive_times), events, identical


def _run_gate(deployment, trace, min_speedup):
    best = None
    for _ in range(ATTEMPTS):
        fast_s, naive_s, events, identical = _measure_speedup(
            deployment, trace, ROUNDS
        )
        assert identical, "optimised replay diverged from the naive path"
        speedup = naive_s / fast_s
        if best is None or speedup > best[0]:
            best = (speedup, fast_s, naive_s, events)
        if speedup >= min_speedup:
            break
    return best


def _measure_sweep(deployment, workload, rates, n_jobs, rounds=SWEEP_ROUNDS):
    """One cold warm-pool sweep, then ``rounds`` interleaved serial/warm pairs.

    Interleaving the two timed paths (and keeping the best of each) is what
    makes the serial/warm ratio trustworthy on a noisy shared machine — the
    old single-sample measurement once reported the warm path "losing" 15%
    on a box where both paths ran the identical inline loop.
    """
    serial_times, warm_times = [], []
    serial_points = warm_points = None
    with ParallelRunner(n_jobs=n_jobs) as runner:
        start = time.perf_counter()
        cold_points = sweep_rates(deployment, workload, rates, runner=runner)
        cold_s = time.perf_counter() - start
        spawned = runner.warm
        for _ in range(rounds):
            start = time.perf_counter()
            serial_points = sweep_rates(deployment, workload, rates, n_jobs=1)
            serial_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            warm_points = sweep_rates(deployment, workload, rates, runner=runner)
            warm_times.append(time.perf_counter() - start)
    return {
        "serial_points": serial_points,
        "warm_points": warm_points,
        "cold_points": cold_points,
        "serial_s": min(serial_times),
        "warm_s": min(warm_times),
        "cold_s": cold_s,
        "spawned": spawned,
    }


def _sweep_gate(deployment, workload, rates, n_jobs):
    """Identity + never-lose-to-serial gate; returns the recorded payload."""
    cpu_count = os.cpu_count() or 1
    best = None
    for _ in range(ATTEMPTS):
        measured = _measure_sweep(deployment, workload, rates, n_jobs)
        serial = measured["serial_points"]
        assert measured["cold_points"] == serial, "n_jobs changed sweep results"
        assert measured["warm_points"] == serial, "warm pool changed sweep results"
        speedup = measured["serial_s"] / measured["warm_s"]
        if best is None or speedup > best[0]:
            best = (speedup, measured)
        if speedup > (1.0 if cpu_count >= 2 else SINGLE_CORE_MIN_RATIO):
            break
    speedup, measured = best
    if cpu_count >= 2:
        # with real cores available the sweep must fan out, and the warm
        # fan-out must pay for itself
        assert measured["spawned"], (
            f"no worker pool spawned for {len(rates)} points of "
            f"{workload.num_queries} queries on {cpu_count} cores"
        )
        assert speedup > 1.0, (
            f"warm parallel sweep ({measured['warm_s']:.2f}s) did not beat "
            f"the serial sweep ({measured['serial_s']:.2f}s) on "
            f"{cpu_count} cores"
        )
    else:
        assert speedup >= SINGLE_CORE_MIN_RATIO, (
            f"single-core fallback lost to serial: warm "
            f"{measured['warm_s']:.2f}s vs serial {measured['serial_s']:.2f}s "
            f"(ratio {speedup:.2f} < {SINGLE_CORE_MIN_RATIO})"
        )
    return {
        "points": len(rates),
        "n_jobs": n_jobs,
        "rounds": SWEEP_ROUNDS,
        "serial_s": measured["serial_s"],
        "parallel_cold_s": measured["cold_s"],
        "parallel_warm_s": measured["warm_s"],
        "parallel_speedup": speedup,
        "single_core_min_ratio": SINGLE_CORE_MIN_RATIO,
        "pool_spawned": measured["spawned"],
        "cpu_count": cpu_count,
        "results_identical": True,
    }


def test_replay_speedup_and_bit_identity(settings):
    """The headline gate: >= 8x events/sec, identical simulated outcomes."""
    deployment = settings.build("mobilenet", "paris", "elsa")
    workload = _pinned_workload(settings, deployment, NUM_QUERIES)
    trace = QueryGenerator(workload).generate()

    speedup, fast_s, naive_s, events = _run_gate(deployment, trace, MIN_SPEEDUP)

    # --- warm-pool sweep: identical results, wall time recorded --------- #
    sweep_workload = WorkloadConfig(
        model="mobilenet",
        rate_qps=1.0,
        num_queries=SWEEP_QUERIES,
        seed=1,
        sla_target=deployment.sla_target,
    )
    capacity = capacity_estimate(deployment, sweep_workload)
    rates = [capacity * fraction for fraction in (0.6, 0.9, 1.1, 1.3)][:SWEEP_POINTS]

    # The runner the analysis layer would use: warm pool on multi-core
    # machines, automatic serial fallback on one core.
    sweep_payload = _sweep_gate(deployment, sweep_workload, rates, SWEEP_JOBS)

    payload = {
        "benchmark": "replay_speed",
        "model": "mobilenet",
        "design": "paris+elsa",
        "num_queries": NUM_QUERIES,
        "rate_multiplier": RATE_MULTIPLIER,
        "rounds": ROUNDS,
        "events": events,
        "fast_best_s": fast_s,
        "naive_best_s": naive_s,
        "events_per_sec_fast": events / fast_s,
        "events_per_sec_naive": events / naive_s,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "bit_identical": True,
        "sweep": {"num_queries": SWEEP_QUERIES, **sweep_payload},
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"optimised path is only {speedup:.2f}x the naive events/sec "
        f"(bound {MIN_SPEEDUP}x); see {BENCH_PATH.name}"
    )


@pytest.mark.perf_smoke
def test_replay_speedup_smoke(settings):
    """CI smoke gate: small trace, same identity contract, relaxed bound.

    Writes ``BENCH_smoke.json`` so the CI compare step can judge events/sec
    against the committed ``BENCH_speed.json`` baseline (normalised by the
    naive path, which calibrates away machine-speed differences).
    """
    deployment = settings.build("mobilenet", "paris", "elsa")
    workload = _pinned_workload(settings, deployment, SMOKE_NUM_QUERIES)
    trace = QueryGenerator(workload).generate()
    speedup, fast_s, naive_s, events = _run_gate(deployment, trace, SMOKE_MIN_SPEEDUP)

    # The warm-pool gate, smoke-sized: with two or more cores the pool must
    # spawn and beat the serial sweep; on one core the serial fallback must
    # keep the warm path within noise of serial.
    sweep_workload = WorkloadConfig(
        model="mobilenet",
        rate_qps=1.0,
        num_queries=SMOKE_SWEEP_QUERIES,
        seed=1,
        sla_target=deployment.sla_target,
    )
    capacity = capacity_estimate(deployment, sweep_workload)
    rates = [capacity * fraction for fraction in (0.8, 1.2)][:SMOKE_SWEEP_POINTS]
    sweep_payload = _sweep_gate(deployment, sweep_workload, rates, SWEEP_JOBS)

    SMOKE_PATH.write_text(
        json.dumps(
            {
                "benchmark": "replay_speed_smoke",
                "num_queries": SMOKE_NUM_QUERIES,
                "events": events,
                "fast_best_s": fast_s,
                "naive_best_s": naive_s,
                "events_per_sec_fast": events / fast_s,
                "events_per_sec_naive": events / naive_s,
                "speedup": speedup,
                "min_speedup": SMOKE_MIN_SPEEDUP,
                "sweep": {"num_queries": SMOKE_SWEEP_QUERIES, **sweep_payload},
            },
            indent=2,
        )
        + "\n"
    )
    assert speedup >= SMOKE_MIN_SPEEDUP, (
        f"optimised path is only {speedup:.2f}x the naive events/sec "
        f"(smoke bound {SMOKE_MIN_SPEEDUP}x)"
    )
