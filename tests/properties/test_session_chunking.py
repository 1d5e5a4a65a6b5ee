"""Property: a session advanced in random ``run_until`` steps ≡ one-shot run.

Every control source the session drives — a repartition trigger, an
autoscaler, a preemption schedule and a fault schedule — shares one
due-time timeline.  Whichever subset of them is active, and however the
run is chopped into ``run_until`` steps, the chunked run must reproduce the
one-shot ``run()`` exactly: every query timestamp, window, trigger firing,
fleet event and fault record.
"""

from hypothesis import given, settings, strategies as st

from repro.autoscale.autoscaler import Autoscaler
from repro.autoscale.preemption import PreemptionEvent, PreemptionSchedule
from repro.faults import (
    FailedReconfigure,
    FaultSchedule,
    StragglerEnd,
    StragglerStart,
    WorkerCrash,
    WorkerRestart,
)
from repro.serving.config import ServerConfig
from repro.serving.session import ServingSession
from repro.workload.scenario import Phase, Scenario

UNIT = (1, "a100", 7)
CONFIG = ServerConfig(model="mobilenet", fleet=(UNIT, UNIT))

#: lull, burst, short lull, with a batch-size drift: the autoscaler scales
#: out and back in, the drift trigger fires, and the run drains just short
#: of a checkpoint at which the autoscaler would otherwise scale in again
SCENARIO = Scenario(
    name="burst-lull",
    model="mobilenet",
    phases=(
        Phase(duration=0.2, rate_qps=500.0, median_batch=2.0),
        Phase(duration=0.3, rate_qps=8000.0, median_batch=8.0),
        Phase(duration=0.2, rate_qps=300.0, median_batch=12.0),
    ),
    seed=11,
)

SOURCES = ("trigger", "autoscaler", "preemptions", "faults")


def session_for(sources):
    kwargs = {"window": 0.1, "reconfig_cost": 0.02}
    if "trigger" in sources:
        kwargs["triggers"] = [("pdf-drift", {"lookback_windows": 2})]
    if "autoscaler" in sources:
        kwargs["autoscaler"] = Autoscaler(
            UNIT,
            triggers=[
                ("scale-out-backlog", {"max_backlog": 8, "lookback_windows": 1}),
                (
                    "scale-in-idle",
                    {"max_violation_rate": 0.5, "max_backlog": 4, "lookback_windows": 2},
                ),
            ],
            max_servers=4,
            lead_time=0.05,
        )
    if "preemptions" in sources:
        kwargs["preemptions"] = PreemptionSchedule(
            [
                PreemptionEvent(time=0.45, server_index=1, notice=0.1),
                PreemptionEvent(time=0.5, server_index=0, notice=0.0),
            ]
        )
    if "faults" in sources:
        kwargs["faults"] = FaultSchedule(
            [
                FailedReconfigure(time=0.05, downtime=0.03),
                WorkerCrash(time=0.2, worker=1),
                StragglerStart(time=0.3, worker=2, multiplier=3.0),
                WorkerRestart(time=0.5, worker=0),
                StragglerEnd(time=0.9, worker=0),
            ]
        )
    return ServingSession(CONFIG, **kwargs)


def signature(result):
    return (
        [
            (q.query_id, q.dispatch_time, q.start_time, q.finish_time, q.fail_time)
            for q in result.simulation.queries
        ],
        result.simulation.statistics,
        result.windows,
        result.trigger_firings,
        result.reconfigurations,
        result.fleet_events,
        result.fleet_windows,
        result.fault_events,
        result.fault_windows,
    )


@settings(max_examples=16, deadline=None)
@given(
    sources=st.sets(st.sampled_from(SOURCES)),
    step=st.floats(0.005, 0.5, allow_nan=False),
)
def test_chunked_run_matches_one_shot(sources, step):
    one_shot = session_for(sources).run(SCENARIO)

    session = session_for(sources)
    session.begin(SCENARIO)
    target = step
    while session.pending_events:
        session.run_until(target)
        target += step
    chunked = session.finish()

    assert signature(chunked) == signature(one_shot)
