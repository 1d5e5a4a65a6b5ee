"""daemon-tenants: an in-process daemon serving three tenants, open loop.

One client thread submits a round of jobs from three tenants across the
``gold``, ``standard`` and ``best-effort`` classes to a ``DaemonThread`` over
the two-server smoke fleet, then sends ``GET /healthz`` and
``GET /jobs/{id}`` on a fixed schedule until every job is terminal.  Each
request is timed from its due time.  The seed is every job's trace seed.
"""

from __future__ import annotations

import functools
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench.checks import check_queries, fingerprint
from perfbench.harness import OUT_DIR, Cycle, Op, Stopwatch, Workload
from perfbench.openloop import OpenLoop, RequestLog
from perfbench.stats import median, p95, percentile
from perfbench.tracing import Tracer

SERVERS = ((2, "a100", 12), (2, "a100", 12))
TENANTS = ("acme", "globex", "initech")
CLASSES = ("gold", "standard", "best-effort")
SCENARIO = {
    "model": "mobilenet",
    "trough_qps": 500.0,
    "peak_qps": 2000.0,
    "phase_duration": 1.0,
}
WARMUP_SCENARIO = dict(SCENARIO, phase_duration=0.05)
QUOTA_GPCS = 8
#: Simulated seconds a job advances per event-loop turn.
CHUNK = 1.0
#: Seconds between scheduled requests (50 requests/s); every
#: ``SUBMIT_EVERY``-th slot submits the round's next job until all are in.
INTERVAL = 0.02
SUBMIT_EVERY = 15
ROUND_TIMEOUT = 120.0
TERMINAL = ("completed", "cancelled", "failed")


class _Daemon:
    """A running ``DaemonThread`` plus a client and its artifact root."""

    def __init__(self) -> None:
        from repro.daemon import DaemonClient, DaemonThread, FleetPool, JobManager
        from repro.serving.config import ServerConfig

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="daemon-", dir=OUT_DIR))

        def make_manager() -> JobManager:
            return JobManager(
                FleetPool(list(SERVERS)),
                ServerConfig(model="mobilenet", fleet=SERVERS),
                self.root,
                chunk=CHUNK,
                expected_tenants=len(TENANTS),
            )

        self.thread = DaemonThread(make_manager)
        try:
            self.client = DaemonClient(port=self.thread.start())
        except BaseException:
            shutil.rmtree(self.root, ignore_errors=True)
            raise

    def job(self, job_id: str) -> Any:
        assert self.thread.server is not None
        return self.thread.server.manager.get(job_id)

    def stop(self) -> None:
        try:
            self.client.shutdown()
            self.thread.stop()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def _wait_for(path: Path, timeout: float = 10.0) -> bool:
    """The daemon writes ``result.json`` just after a job turns terminal."""
    deadline = time.monotonic() + timeout
    while not path.is_file():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class DaemonTenants(Workload):
    name = "daemon-tenants"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.daemon: Optional[_Daemon] = None

    def build(self) -> None:
        daemon = _Daemon()
        try:
            job = daemon.client.submit(
                "warmup", "diurnal", options=WARMUP_SCENARIO, quota_gpcs=QUOTA_GPCS
            )
            daemon.client.wait(job["job_id"])
        finally:
            daemon.stop()

    def start(self) -> None:
        self.daemon = _Daemon()

    def close(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.stop()

    def _drive(self, client: Any, log: RequestLog) -> Dict[str, str]:
        """Send the round's schedule until every submitted job is terminal.

        Returns the label (``tenant/class``) of every accepted job by id.
        """
        specs = [(tenant, cls) for cls in CLASSES for tenant in TENANTS]
        labels: Dict[str, str] = {}
        states: Dict[str, str] = {}
        slot = 0
        while slot // SUBMIT_EVERY < len(specs) or any(
            states.get(i) not in TERMINAL for i in labels
        ):
            if slot * INTERVAL > ROUND_TIMEOUT:
                break
            index = slot // SUBMIT_EVERY
            if slot % SUBMIT_EVERY == 0 and index < len(specs):
                tenant, cls = specs[index]
                submit = functools.partial(
                    client.submit,
                    tenant,
                    "diurnal",
                    options=SCENARIO,
                    quota_gpcs=QUOTA_GPCS,
                    seed=self.seed * len(specs) + index,
                    sla_class=cls,
                )
                doc = log.send("submit", submit)
                if doc is not None:
                    labels[doc["job_id"]] = f"{tenant}/{cls}"
            elif slot % 2 or not labels:
                log.send("healthz", client.health)
            else:
                ids = list(labels)
                job_id = ids[(slot // 2) % len(ids)]
                doc = log.send("status", functools.partial(client.status, job_id))
                if doc is not None:
                    states[job_id] = doc["state"]
            slot += 1
        return labels

    def run_cycle(self, capture, tracer: Optional[Tracer] = None) -> Cycle:
        assert self.daemon is not None
        daemon = self.daemon
        with Stopwatch() as watch:
            log = RequestLog(OpenLoop(time.perf_counter(), INTERVAL))
            labels = self._drive(daemon.client, log)
        jobs = [daemon.job(i) for i in labels]
        ops = [self._op(job, labels[job.job_id], watch.scale) for job in jobs]
        expected = len(CLASSES) * len(TENANTS)
        if len(jobs) != expected:
            ops.append(Op("submit", 0.0, 0, "", [f"{expected - len(jobs)} submits failed"]))
        finished = [j.result for j in jobs if j.result is not None]
        outcome = {
            "sim_p95_ms": max((r.p95_latency for r in finished), default=0.0) * 1e3,
            "sim.violation_rate": max((r.sla_violation_rate for r in finished), default=0.0),
        }
        samples = {
            "log": log,
            "admission": [j.started_at - j.submitted_at for j in jobs if j.started_at],
            "run": [j.finished_at - j.started_at for j in jobs if j.started_at and j.finished_at],
            "max_lag": log.max_lag,
            "started": log.schedule.start,
        }
        # The schedule fixes the round's wall time, so sim_qps divides by CPU time.
        return Cycle(
            ops, watch.raw_wall, watch.cpu, outcome, capture.take(),
            requests=len(log.requests), failed_requests=log.failed, samples=samples,
        )

    def _op(self, job: Any, label: str, scale: float) -> Op:
        """One job, submit to terminal (daemon timestamps, reference seconds)."""
        failures = []
        if job.state.value != "completed":
            failures.append(f"{label}: job {job.job_id} ended {job.state.value} ({job.error})")
        if job.artifact_dir is None or not _wait_for(job.artifact_dir / "result.json"):
            failures.append(f"{label}: job {job.job_id} wrote no result.json")
        if job.result is None:
            return Op(label, 0.0, 0, "", failures or [f"{label}: no result"])
        queries = job.result.simulation.queries
        failures.extend(check_queries(queries, label))
        seconds = ((job.finished_at or job.submitted_at) - job.submitted_at) * scale
        return Op(label, seconds, len(queries), fingerprint([queries]), failures)

    def layer_extras(
        self, traced: Cycle, untraced: List[Cycle], tracer: Tracer
    ) -> Dict[str, float]:
        logs = [c.samples["log"] for c in untraced]
        latencies = [x * 1e3 for log in logs for x in log.latencies()]
        api_p95, api_samples = p95(latencies)
        since = traced.samples["started"]
        chunks = [
            s.duration for s in tracer.spans if s.name == "daemon.chunk" and s.start >= since
        ]
        extras = {
            "daemon.admission_wait_s.p50": median(
                w for c in untraced for w in c.samples["admission"]
            ),
            "daemon.run_s.p50": median(r for c in untraced for r in c.samples["run"]),
            "daemon.chunk_s.p50": median(chunks),
            "daemon.chunk_s.max": max(chunks),
            "daemon.api_ms.p50": median(latencies),
            "daemon.api_ms.p95": api_p95,
            "daemon.api_samples": api_samples,
            "client.send_lag_ms.max": max(log.max_lag for log in logs) * 1e3,
        }
        for endpoint in ("healthz", "status", "submit"):
            values = [x * 1e3 for log in logs for x in log.latencies(endpoint)]
            extras[f"daemon.api_ms.p95.{endpoint}"] = percentile(values, 95.0)
        return extras
