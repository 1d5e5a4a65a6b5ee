"""A checkpoint past the drain instant is outside the run's horizon.

When the simulator drains before the next trigger/autoscaler checkpoint,
that checkpoint lies beyond the last event and must fire nothing — the same
horizon rule due control actions follow.  Otherwise a one-shot ``run()``
evaluates the autoscaler once more after the final query (a spurious
scale-in) while a run advanced in small ``run_until`` steps, whose step
drains the simulator short of the checkpoint, never does.
"""

from repro.analysis.autoscaling import (
    iso_sla_autoscaler,
    iso_sla_scenario,
    iso_sla_template,
)
from repro.serving.session import ServingSession

SCENARIO = iso_sla_scenario(phase_duration=1.0, cycles=1)


def elastic_session(autoscaler=None):
    return ServingSession(
        iso_sla_template(),
        batch_pdf=SCENARIO.average_pdf(),
        window=0.05,
        autoscaler=autoscaler or iso_sla_autoscaler(),
        reconfig_cost=0.01,
    )


def test_one_shot_evaluates_no_checkpoint_after_the_drain():
    autoscaler = iso_sla_autoscaler()
    result = elastic_session(autoscaler).run(SCENARIO)
    last_event = max(q.finish_time for q in result.simulation.queries)
    assert autoscaler.decisions
    assert all(d.time <= last_event for d in autoscaler.decisions)


def test_small_steps_match_the_one_shot_run():
    one_shot = elastic_session().run(SCENARIO)

    session = elastic_session()
    session.begin(SCENARIO)
    target = step = 0.013
    while session.pending_events:
        session.run_until(target)
        target += step
    chunked = session.finish()

    assert chunked.fleet_events == one_shot.fleet_events
    assert chunked.fleet_windows == one_shot.fleet_windows
    assert chunked.windows == one_shot.windows
