"""elastic-session: the iso-SLA diurnal resnet scenario under the full
session control timeline.

A fresh ``ServingSession`` per operation runs the pinned iso-SLA scenario
(one diurnal cycle of 1 s phases, so one operation takes about 1.3 s) with the
pinned autoscaler, a ``pdf-drift`` trigger, a seeded crash/restart schedule
retried under ``RetryPolicy(max_retries=1)`` and 0.05 s metric windows.
The seed is the fault schedule's seed; the scenario itself stays pinned.
"""

from __future__ import annotations

from typing import Optional

from perfbench.checks import check_queries, fingerprint
from perfbench.harness import Cycle, Op, Stopwatch, Workload, closed_loop_cycle
from perfbench.tracing import Tracer

PHASE_DURATION = 1.0
CYCLES = 1
WINDOW = 0.05
RECONFIG_COST = 0.01
#: Mean worker crashes per simulated second and mean time to repair.
CRASH_RATE = 2.0
MTTR = 0.1


class ElasticSession(Workload):
    name = "elastic-session"

    def build(self) -> None:
        from repro.analysis.autoscaling import iso_sla_scenario
        from repro.faults import FaultSchedule

        self.scenario = iso_sla_scenario(phase_duration=PHASE_DURATION, cycles=CYCLES)
        self.faults = FaultSchedule.sample(
            64, self.scenario.duration, rate=CRASH_RATE, mttr=MTTR, seed=self.seed
        )
        self._session().deployment

    def _session(self):
        from repro.analysis.autoscaling import iso_sla_autoscaler, iso_sla_template
        from repro.faults import RetryPolicy
        from repro.serving.session import ServingSession

        return ServingSession(
            iso_sla_template(),
            batch_pdf=self.scenario.average_pdf(),
            window=WINDOW,
            autoscaler=iso_sla_autoscaler(),
            reconfig_cost=RECONFIG_COST,
            triggers=[("pdf-drift", {})],
            faults=self.faults,
            retry_policy=RetryPolicy(max_retries=1),
        )

    def run_cycle(self, capture, tracer: Optional[Tracer] = None) -> Cycle:
        with Stopwatch("session", tracer) as watch:
            result = self._session().run(self.scenario)
        records = capture.take()
        queries = result.simulation.queries
        failures = check_queries(queries, "session")
        if len(records) != 1:
            failures.append(f"session: expected one simulation, saw {len(records)}")
        if not result.fault_events:
            failures.append("session: the fault schedule injected nothing")
        op = Op(
            "session",
            watch.seconds,
            len(queries),
            fingerprint([queries], (result.fleet_cost, result.p95_latency)),
            failures,
        )
        outcome = {
            "sim_p95_ms": result.p95_latency * 1e3,
            "sim.violation_rate": result.sla_violation_rate,
            "autoscale.fleet_cost": result.fleet_cost,
            "autoscale.scale_events": len(result.fleet_events),
        }
        return closed_loop_cycle([op], [watch], outcome, records)
