"""Unit tests of the benchmark's helpers: percentiles, spans, open-loop
timing, event kinds and output checks."""

from __future__ import annotations

import itertools

import pytest

from perfbench.checks import check_queries, fingerprint
from perfbench.openloop import OpenLoop, Request, RequestLog
from perfbench.simcount import events_by_kind
from perfbench.stats import p95, percentile, samples_beyond
from perfbench.tracing import Patcher, Span, SpanTotals, Tracer, covered, self_times
from repro.workload.query import Query

# --------------------------------------------------------------------------- #
# p95 with >= 10 samples beyond
# --------------------------------------------------------------------------- #


def test_p95_needs_ten_samples_beyond_and_reports_the_count():
    assert samples_beyond(200, 95.0) == 10
    assert p95([1.0] * 190 + [5.0] * 10) == (1.0, 200)
    assert p95([float(i) for i in range(1, 1001)]) == (950.0, 1000)


def test_p95_rejects_nine_samples_beyond():
    assert samples_beyond(199, 95.0) == 9
    with pytest.raises(ValueError, match="fewer than 10 beyond p95"):
        p95([float(i) for i in range(1, 200)])
    with pytest.raises(ValueError, match="fewer than 10"):
        p95([])


def test_p95_is_order_independent():
    values = [float((i * 37) % 101) for i in range(500)]
    assert p95(values) == p95(sorted(values))


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.0
    assert percentile([3.0, 1.0, 2.0, 4.0], 100.0) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


# --------------------------------------------------------------------------- #
# self time
# --------------------------------------------------------------------------- #


def test_self_time_of_nested_spans():
    spans = [Span("a", 0.0, 10.0), Span("b", 2.0, 5.0, parent=0), Span("c", 3.0, 4.0, parent=1)]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("p", 0.0, 10.0),
        Span("x", 1.0, 4.0, parent=0),
        Span("y", 3.0, 6.0, parent=0),
        Span("z", 8.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_covered_unions_intervals():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.5, 4.0), (6.0, 7.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(-5.0, 20.0)]) == 10.0
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_span_totals_count_nested_same_name_work_once():
    spans = [
        Span("replay", 0.0, 10.0, size=5),
        Span("replay", 1.0, 9.0, parent=0, size=5),
        Span("digest", 2.0, 3.0, parent=1),
    ]
    totals = SpanTotals(spans)
    assert totals.calls["replay"] == 2
    assert totals.total["replay"] == 10.0
    assert totals.size["replay"] == 5
    assert totals.self_time["replay"] == pytest.approx(2.0 + 7.0)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _Base:
    def inherited(self) -> str:
        return "base"


class _Thing(_Base):
    def __init__(self, clock: _Clock) -> None:
        self.clock = clock

    def outer(self) -> int:
        self.clock.now += 1.0
        value = self.inner()
        self.clock.now += 1.0
        return value

    def inner(self) -> int:
        self.clock.now += 3.0
        return 7


def test_tracer_records_parents_ops_and_self_time():
    clock = _Clock()
    tracer = Tracer(clock)
    tracer.wrap(_Thing, "outer", "outer")
    tracer.wrap(_Thing, "inner", "inner", size_of=lambda result: result)
    tracer.wrap_count(_Thing, "inherited", "inherited")
    thing = _Thing(clock)
    try:
        tracer.op = "op-1"
        assert thing.outer() == 7
        assert thing.inherited() == "base"
        assert thing.inherited() == "base"
    finally:
        tracer.restore()
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.op) == ("outer", -1, "op-1")
    assert (inner.name, inner.parent, inner.op, inner.size) == ("inner", 0, "op-1", 7)
    assert (outer.duration, inner.duration) == (5.0, 3.0)
    assert self_times(tracer.spans) == [2.0, 3.0]
    assert tracer.counts() == {"inherited": 2}
    # restored: the class's own method is back, the inherited one is gone
    assert "inherited" not in _Thing.__dict__
    assert _Thing.inner.__name__ == "inner"
    assert not hasattr(_Thing.inner, "__wrapped__")
    thing.outer()
    assert len(tracer.spans) == 2


def test_tracer_op_of_overrides_the_current_op():
    tracer = Tracer(_Clock())
    tracer.wrap(_Thing, "inner", "inner", op_of=lambda args: "job-9")
    try:
        _Thing(_Clock()).inner()
    finally:
        tracer.restore()
    assert tracer.spans[0].op == "job-9"


def test_patcher_restores_module_attributes():
    import perfbench.stats as module

    original = module.median
    patcher = Patcher()
    patcher.patch(module, "median", lambda f: lambda values: -1.0)
    assert module.median([1.0]) == -1.0
    patcher.restore()
    assert module.median is original


# --------------------------------------------------------------------------- #
# open-loop due time and lag
# --------------------------------------------------------------------------- #


def test_open_loop_due_times():
    loop = OpenLoop(start=100.0, interval=0.5)
    assert [loop.due(i) for i in range(3)] == [100.0, 100.5, 101.0]
    with pytest.raises(ValueError):
        OpenLoop(0.0, 0.0)


def test_a_stall_is_charged_to_the_requests_behind_it():
    clock = _Clock()
    slept = []

    def sleep(seconds: float) -> None:
        slept.append(seconds)
        clock.now += seconds

    def call(cost: float):
        def run():
            clock.now += cost
            return "ok"

        return run

    log = RequestLog(OpenLoop(0.0, 0.010), clock=clock, sleep=sleep)
    log.send("a", call(0.001))  # due 0.000, done 0.001
    log.send("b", call(0.035))  # due 0.010 (waits), stalls until 0.045
    log.send("c", call(0.001))  # due 0.020, sent late at 0.045
    log.send("d", call(0.001))  # due 0.030, sent at 0.046
    first, stalled, late, later = log.requests
    assert slept == [pytest.approx(0.009)]
    assert first.latency == pytest.approx(0.001) and first.lag == 0.0
    assert stalled.latency == pytest.approx(0.035)
    assert stalled.lag == pytest.approx(0.0, abs=1e-12)
    assert late.lag == pytest.approx(0.025)
    assert late.latency == pytest.approx(0.026)  # from due, not from send
    assert later.latency == pytest.approx(0.017)
    assert log.max_lag == pytest.approx(0.025)
    assert log.latencies("c") == [pytest.approx(0.026)]


def test_failed_requests_are_recorded_and_excluded_from_latency():
    clock = _Clock()

    def refused():
        raise ConnectionRefusedError("down")

    log = RequestLog(OpenLoop(0.0, 1.0), clock=clock, sleep=lambda s: None)
    assert log.send("x", refused) is None
    assert log.failed == 1
    assert log.latencies() == []
    assert Request("x", 1.0, 0.5, 2.0).lag == 0.0


# --------------------------------------------------------------------------- #
# events by kind
# --------------------------------------------------------------------------- #


def test_plain_replay_has_two_events_per_query():
    kinds = events_by_kind(2000, 1000, 1000)
    assert (kinds.arrivals, kinds.completions, kinds.reconfigs, kinds.bounces) == (
        1000, 1000, 0, 0,
    )


def test_frontend_bounces_are_the_remainder():
    assert events_by_kind(2600, 1000, 1000).bounces == 600


def test_reinjections_crashes_and_reconfigs_are_not_bounces():
    kinds = events_by_kind(
        1000 + 990 + 30 + 4 + 3 + 2,
        1000,
        990,
        reinjected=30,
        crash_requeued=4,
        aborted_in_flight=3,
        reconfigs=2,
    )
    assert kinds.arrivals == 1034
    assert kinds.completions == 993
    assert kinds.reconfigs == 2
    assert kinds.bounces == 0


def test_counters_that_overexplain_the_events_are_rejected():
    with pytest.raises(ValueError, match="cannot hold"):
        events_by_kind(10, 6, 6)
    with pytest.raises(ValueError):
        events_by_kind(10, 2, 2, reconfigs=-1)


def _replay(frontend_qps, rate_qps, num_queries=300):
    from repro.analysis.experiments import ExperimentSettings
    from repro.analysis.sweep import measure_design
    from perfbench.layers import Capture

    settings = ExperimentSettings(num_queries=num_queries, frontend_qps=frontend_qps)
    deployment = settings.build("mobilenet", "paris", "elsa")
    capture = Capture()
    capture.install()
    try:
        measure_design(deployment, settings.workload("mobilenet"), rate_qps)
    finally:
        capture.restore()
    (record,) = capture.take()
    return record


def test_real_replay_without_frontend_has_no_bounces():
    record = _replay(None, 2000.0)
    kinds = record.by_kind()
    assert record.events == 2 * record.submitted
    assert kinds.bounces == 0


def test_real_saturated_frontend_bounces():
    record = _replay(2000.0, 8000.0)
    kinds = record.by_kind()
    assert kinds.arrivals == record.submitted == kinds.completions
    assert kinds.bounces > 0


# --------------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------------- #

_ids = itertools.count()


def _query(arrival, start=None, finish=None, fail=None):
    query = Query(next(_ids), "resnet", 1, arrival)
    query.start_time, query.finish_time, query.fail_time = start, finish, fail
    return query


def test_check_queries_accepts_a_consistent_replay():
    queries = [_query(0.0, 0.1, 0.2), _query(0.1, 0.1, 0.3), _query(0.2, fail=0.5)]
    assert check_queries(queries) == []


def test_check_queries_flags_lost_and_misordered_queries():
    lost = [_query(0.0, 0.1, 0.2), _query(0.1)]
    assert any("submitted" in f for f in check_queries(lost))
    early = [_query(1.0, 0.5, 2.0)]
    assert any("arrival 1.0" in f for f in check_queries(early))
    backwards = [_query(0.0, 0.3, 0.2)]
    assert check_queries(backwards)
    both = [_query(0.0, 0.1, 0.2, fail=0.2)]
    assert any("both" in f for f in check_queries(both))


def test_fingerprint_sees_any_timestamp_change():
    queries = [_query(0.0, 0.1, 0.2), _query(0.1, 0.1, 0.3)]
    base = fingerprint([queries])
    assert fingerprint([queries]) == base
    queries[1].finish_time = 0.30000000000000004
    assert fingerprint([queries]) != base
    assert fingerprint([queries], (1.0,)) != fingerprint([queries], (2.0,))
