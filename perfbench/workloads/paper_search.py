"""paper-search: the paper's latency-bounded throughput search, closed loop.

One caller runs ``ExperimentSettings.measure`` back to back for mobilenet,
resnet and bert, each on the paper's 8xA100 server with PARIS + ELSA and the
default 12k qps frontend.  A search's path, and so its cost, depends on its
trace, so every cycle searches each model under ``TRACE_SEEDS`` trace seeds
made from the run's seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from perfbench.checks import check_queries, fingerprint
from perfbench.harness import Cycle, Op, Stopwatch, Workload, closed_loop_cycle
from perfbench.layers import replay_shares
from perfbench.stats import geomean
from perfbench.tracing import Tracer

MODELS = ("mobilenet", "resnet", "bert")
#: Queries per replayed trace, and trace seeds searched per model per cycle.
NUM_QUERIES = 600
TRACE_SEEDS = 12


class PaperSearch(Workload):
    name = "paper-search"

    def build(self) -> None:
        from repro.analysis.experiments import ExperimentSettings

        self.settings = [
            ExperimentSettings(seed=self.seed * TRACE_SEEDS + i, num_queries=NUM_QUERIES)
            for i in range(TRACE_SEEDS)
        ]
        self.deployments = {m: self.settings[0].build(m, "paris", "elsa") for m in MODELS}

    def run_cycle(self, capture, tracer: Optional[Tracer] = None) -> Cycle:
        ops: List[Op] = []
        watches = []
        records = []
        lbt: Dict[str, List[float]] = {m: [] for m in MODELS}
        p95s, violations = [], []
        for settings in self.settings:
            for model in MODELS:
                label = f"{model}/seed{settings.seed}"
                with Stopwatch(label, tracer) as watch:
                    result = settings.measure(self.deployments[model])
                watches.append(watch)
                replays = capture.take()
                records.extend(replays)
                failures = [
                    f
                    for index, r in enumerate(replays)
                    for f in check_queries(r.result.queries, f"{label} replay {index}")
                ]
                if not replays:
                    failures.append(f"{label}: the search replayed nothing")
                ops.append(
                    Op(
                        label,
                        watch.seconds,
                        sum(r.submitted for r in replays),
                        fingerprint(
                            (r.result.queries for r in replays),
                            (result.rate_qps, result.p95_latency),
                        ),
                        failures,
                    )
                )
                lbt[model].append(result.rate_qps)
                p95s.append(result.p95_latency)
                violations.append(result.sla_violation_rate)
        outcome = {f"analysis.lbt_qps.{m}": geomean(lbt[m]) for m in MODELS}
        outcome["analysis.lbt_qps"] = geomean(outcome[f"analysis.lbt_qps.{m}"] for m in MODELS)
        outcome["sim_p95_ms"] = max(p95s) * 1e3
        outcome["sim.violation_rate"] = max(violations)
        return closed_loop_cycle(ops, watches, outcome, records)

    def layer_extras(self, traced: Cycle, untraced, tracer: Tracer) -> Dict[str, float]:
        shares = replay_shares(tracer.spans)
        return {
            "analysis.replays_per_search": len(traced.records) / len(traced.ops),
            "analysis.max_replay_share": max(max(s) for s in shares if s),
        }

    def bypass_failures(self, layer: Dict[str, float]) -> List[str]:
        bounces = layer.get("sim.bounces_per_query")
        if bounces is not None and not bounces > 0:
            return [
                f"paper-search: sim.bounces_per_query is {bounces}; the "
                "upper-bracket probes no longer reach the frontend"
            ]
        return []
