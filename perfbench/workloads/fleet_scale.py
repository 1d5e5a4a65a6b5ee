"""fleet-scale: fixed-rate resnet replays on a 16-server mixed fleet.

6x(8, a100) + 4x(8, h100) + 6x(8, a30) — about 400 workers — with PARIS +
ELSA and no frontend model, replayed at 0.3x, 0.6x and 0.9x of
``capacity_estimate``.  Without a frontend every query costs exactly two
events, so ELSA's per-arrival scan over the workers dominates.  The seed is
the Poisson trace seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from perfbench.checks import check_queries, fingerprint
from perfbench.harness import Cycle, Op, Stopwatch, Workload, closed_loop_cycle
from perfbench.tracing import Tracer

FLEET = ((8, "a100"),) * 6 + ((8, "h100"),) * 4 + ((8, "a30"),) * 6
LOADS = (0.3, 0.6, 0.9)
NUM_QUERIES = 4000


class FleetScale(Workload):
    name = "fleet-scale"

    def build(self) -> None:
        from repro.analysis.experiments import ExperimentSettings
        from repro.analysis.sweep import capacity_estimate

        settings = ExperimentSettings(
            seed=self.seed, num_queries=NUM_QUERIES, frontend_qps=None
        )
        self.deployment = settings.build_fleet_design("resnet", FLEET)
        self.workload = settings.workload("resnet")
        self.capacity = capacity_estimate(self.deployment, self.workload)

    def run_cycle(self, capture, tracer: Optional[Tracer] = None) -> Cycle:
        from repro.analysis.sweep import measure_design

        ops: List[Op] = []
        watches = []
        records = []
        p95s, violations = [], []
        for load in LOADS:
            label = f"{load:g}x"
            with Stopwatch(label, tracer) as watch:
                result = measure_design(
                    self.deployment, self.workload, load * self.capacity, seed=self.seed
                )
            watches.append(watch)
            replays = capture.take()
            records.extend(replays)
            failures = [f for r in replays for f in check_queries(r.result.queries, label)]
            if len(replays) != 1:
                failures.append(f"{label}: expected one replay, saw {len(replays)}")
            ops.append(
                Op(
                    label,
                    watch.seconds,
                    sum(r.submitted for r in replays),
                    fingerprint((r.result.queries for r in replays), (result.p95_latency,)),
                    failures,
                )
            )
            p95s.append(result.p95_latency)
            violations.append(result.sla_violation_rate)
        outcome = {"sim_p95_ms": max(p95s) * 1e3, "sim.violation_rate": max(violations)}
        return closed_loop_cycle(ops, watches, outcome, records)

    def bypass_failures(self, layer: Dict[str, float]) -> List[str]:
        failures = []
        if layer.get("sim.bounces_per_query", 0.0) != 0.0:
            failures.append(
                f"fleet-scale: sim.bounces_per_query is "
                f"{layer['sim.bounces_per_query']}, expected 0 without a frontend"
            )
        if layer.get("sim.events_per_query", 2.0) != 2.0:
            failures.append(
                f"fleet-scale: sim.events_per_query is "
                f"{layer['sim.events_per_query']}, expected exactly 2.0"
            )
        # The scan reads exactly the live worker count today; an index may
        # read fewer, but ELSA must still consult the workers on every arrival.
        waits = layer.get("core.wait_calls_per_arrival")
        workers = len(self.deployment.instances)
        if waits is not None and not 0 < waits <= workers:
            failures.append(
                f"fleet-scale: core.wait_calls_per_arrival is {waits}, expected "
                f"at most the live worker count {workers} and more than 0"
            )
        return failures
