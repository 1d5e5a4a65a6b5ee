"""Set-up, measured cycles, traced cycles and the result line.

Every workload repeats a fixed *cycle* of operations whose inputs are made
from the seed.  The measured phase runs whole cycles until ``--seconds``
have passed (at least two, so every operation runs twice and must
reproduce its first timeline exactly).  A traced run alternates untraced
and traced cycles over the same window; its per-layer metrics come from the
traced set-up plus the first traced cycle, whose simulated outputs must
match the untraced cycles exactly.

Times are reported in *reference seconds*.  The speed of a shared machine
drifts by tens of percent over seconds, so every timed block is bracketed by
a short fixed calibration loop, and its wall and CPU time are scaled by
``REFERENCE_S / calibration time``: the time the block would take on a
machine where the loop takes ``REFERENCE_S``.  A slower program still reads
slower; a slower machine does not.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench.layers import Capture, SimRecord, instrument, layer_metrics
from perfbench.stats import median
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Output directory inside the checkout (traces, daemon artifacts).
OUT_DIR = ROOT / ".perfbench"
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Minimum cycles of the measured phase.
MIN_CYCLES = 2
#: Calibration: iterations of one burst, bursts per calibration, and the
#: nominal burst time that defines a reference second.
CAL_LOOP = 60_000
CAL_BURSTS = 3
REFERENCE_S = 0.007


def _burst() -> None:
    table: Dict[int, int] = {}
    total = 0
    for i in range(CAL_LOOP):
        total += i * i % 7
        table[i & 255] = total


def calibrate() -> float:
    """Median wall time of ``CAL_BURSTS`` runs of the calibration loop."""
    samples = []
    for _ in range(CAL_BURSTS):
        start = time.perf_counter()
        _burst()
        samples.append(time.perf_counter() - start)
    return median(samples)


class Stopwatch:
    """Wall and CPU time of a block, scaled to reference seconds.

    Under a tracer the block is also an ``op`` span labelled ``label``.
    """

    def __init__(self, label: str = "", tracer: Optional[Tracer] = None) -> None:
        self.label = label
        self.tracer = tracer
        self.raw_wall = self.raw_cpu = 0.0
        self.scale = 1.0
        self._index = -1

    def __enter__(self) -> "Stopwatch":
        self._before = calibrate()
        if self.tracer is not None:
            self._index = self.tracer.open("op", self.label)
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc: object) -> None:
        self.raw_wall = time.perf_counter() - self._wall
        self.raw_cpu = time.process_time() - self._cpu
        if self.tracer is not None:
            self.tracer.close(self._index)
        self.scale = REFERENCE_S / ((self._before + calibrate()) / 2.0)

    @property
    def seconds(self) -> float:
        return self.raw_wall * self.scale

    @property
    def cpu(self) -> float:
        return self.raw_cpu * self.scale


@dataclass
class Op:
    """One operation of a cycle.  ``label`` is stable across cycles;
    ``seconds`` are reference seconds."""

    label: str
    seconds: float
    sim_queries: int
    fingerprint: str
    failures: List[str] = field(default_factory=list)


@dataclass
class Cycle:
    """One pass over the workload's operations.

    Attributes:
        wall_s: raw wall time of the operations (output checks excluded).
        busy_s: the reference seconds ``sim_qps`` divides by: the wall
            time of the operations for a closed loop, the process CPU time
            for an open loop, whose wall time its request schedule fixes.
        outcome: the deterministic simulated results the workload reports
            (``sim_p95_ms`` plus per-layer metrics named in BENCHMARK.json).
        records: every simulation that finished during the cycle.
        requests: scheduled requests sent (open-loop workloads).
        failed_requests: how many of them failed.
        samples: further per-cycle measurements for the per-layer metrics.
    """

    ops: List[Op]
    wall_s: float
    busy_s: float
    outcome: Dict[str, float]
    records: List[SimRecord] = field(default_factory=list)
    requests: int = 0
    failed_requests: int = 0
    samples: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base class: one named traffic mix over the simulator's public API."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        """Cold set-up (repeatable); timed as ``setup_s``."""
        raise NotImplementedError

    def start(self) -> None:
        """Prepare the measured phase after the set-up (not timed)."""

    def run_cycle(self, capture: Capture, tracer: Optional[Tracer] = None) -> Cycle:
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything :meth:`start` started."""

    def layer_extras(
        self, traced: Cycle, untraced: List[Cycle], tracer: Tracer
    ) -> Dict[str, float]:
        """Workload-specific per-layer metrics."""
        return {}

    def bypass_failures(self, layer: Dict[str, float]) -> List[str]:
        """Checks that the layer metrics still describe this workload."""
        return []


def closed_loop_cycle(
    ops: List[Op],
    watches: List[Stopwatch],
    outcome: Dict[str, float],
    records: List[SimRecord],
) -> Cycle:
    """A cycle of back-to-back operations, each timed by its own stopwatch."""
    return Cycle(
        ops,
        sum(w.raw_wall for w in watches),
        sum(w.seconds for w in watches),
        outcome,
        records,
    )


def spec_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``kind`` metrics of BENCHMARK.json
    (``"end_to_end"`` or ``"per_layer"``), in the order it lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def cold_caches() -> None:
    """Drop the process-wide profile and model caches before a set-up."""
    from repro.models.registry import clear_cache
    from repro.perf.profiler import clear_profile_cache

    clear_profile_cache()
    clear_cache()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mismatches(reference: Cycle, cycle: Cycle, what: str) -> None:
    """Mark ops whose timeline differs from the reference cycle's."""
    expected = {op.label: op.fingerprint for op in reference.ops}
    for op in cycle.ops:
        if expected.get(op.label) != op.fingerprint:
            op.failures.append(f"{op.label}: {what} timeline differs from the first cycle")


def _tally(cycles: List[Cycle]) -> Dict[str, int]:
    ops = [op for cycle in cycles for op in cycle.ops]
    return {
        "attempted": len(ops) + sum(c.requests for c in cycles),
        "failed": sum(1 for op in ops if op.failures) + sum(c.failed_requests for c in cycles),
    }


def _report_failures(cycles: List[Cycle], extra: List[str]) -> None:
    for cycle in cycles:
        for op in cycle.ops:
            for failure in op.failures:
                print(f"FAILED {failure}", file=sys.stderr)
    for failure in extra:
        print(f"FAILED {failure}", file=sys.stderr)


def _events_layer(records: List[SimRecord]) -> Dict[str, float]:
    queries = sum(r.submitted for r in records)
    if not queries:
        return {}
    return {
        "sim.events_per_query": sum(r.events for r in records) / queries,
        "sim.bounces_per_query": sum(r.by_kind().bounces for r in records) / queries,
    }


def measure(workload: Workload, seconds: float) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics."""
    capture = Capture()
    capture.install()
    bypass: List[str] = []
    try:
        setups = []
        for _ in range(SETUP_REPS):
            cold_caches()
            with Stopwatch() as watch:
                workload.build()
            setups.append(watch.seconds)
        capture.take()
        workload.start()
        cycles: List[Cycle] = []
        started = time.perf_counter()
        while len(cycles) < MIN_CYCLES or time.perf_counter() - started < seconds:
            cycle = workload.run_cycle(capture)
            if not cycles:
                bypass = workload.bypass_failures(_events_layer(cycle.records))
            cycle.records = []  # keep memory flat however many cycles run
            cycles.append(cycle)
            if len(cycles) == MIN_CYCLES:
                peak_rss = _peak_rss_mb()
    finally:
        workload.close()
        capture.restore()
    for cycle in cycles[1:]:
        _mismatches(cycles[0], cycle, "repeated")
    _report_failures(cycles, bypass)
    ops = [op for cycle in cycles for op in cycle.ops]
    values = {
        "setup_s": median(setups),
        "sim_qps": sum(op.sim_queries for op in ops) / sum(c.busy_s for c in cycles),
        "op_s.p50": median(op.seconds for op in ops),
        "peak_rss_mb": peak_rss,
        "sim_p95_ms": cycles[0].outcome["sim_p95_ms"],
    }
    metrics = {name: (values[name], unit) for name, unit in spec_units("end_to_end").items()}
    return _result(_tally(cycles), metrics, bypass)


def trace(workload: Workload, seconds: float, out: Path) -> Dict[str, Any]:
    """The traced run: per-layer metrics plus the tracing overhead."""
    capture = Capture()
    capture.install()
    tracer = Tracer()
    estimators: List[Any] = []
    untraced: List[Cycle] = []
    traced: List[Cycle] = []
    try:
        cold_caches()
        instrument(tracer, estimators)
        setup = tracer.open("setup")
        try:
            workload.build()
        finally:
            tracer.close(setup)
        tracer.restore()
        capture.take()
        workload.start()
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds:
            untraced.append(workload.run_cycle(capture))
            untraced[-1].records = []
            cycle_tracer = tracer if not traced else Tracer()
            instrument(cycle_tracer, estimators if not traced else [])
            try:
                traced.append(workload.run_cycle(capture, cycle_tracer))
            finally:
                cycle_tracer.restore()
            if len(traced) > 1:
                traced[-1].records = []
    finally:
        workload.close()
        capture.restore()
    for cycle in untraced[1:]:
        _mismatches(untraced[0], cycle, "repeated")
    for cycle in traced:
        _mismatches(untraced[0], cycle, "traced")
    first = traced[0]
    layer = layer_metrics(tracer.spans, tracer.counts(), first.records, estimators)
    layer.update((k, v) for k, v in first.outcome.items() if k != "sim_p95_ms")
    layer.update(workload.layer_extras(first, untraced, tracer))
    layer["trace.overhead_ratio"] = median(c.wall_s for c in traced) / median(
        c.wall_s for c in untraced
    )
    bypass = workload.bypass_failures(layer)
    cycles = untraced + traced
    _report_failures(cycles, bypass)
    tracer.dump(out)
    metrics = {
        name: (float(layer.get(name, 0.0)), unit)
        for name, unit in spec_units("per_layer").items()
    }
    return _result(_tally(cycles), metrics, bypass)


def _result(
    tally: Dict[str, int], metrics: Dict[str, Any], bypass: List[str]
) -> Dict[str, Any]:
    return {
        "correct": tally["failed"] == 0 and not bypass,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
