"""Per-figure / per-table experiment runners.

Every public function regenerates one table or figure of the paper's
evaluation and returns plain data rows (lists of dicts) that the benchmark
harnesses print with :func:`repro.analysis.reporting.format_table` and that
EXPERIMENTS.md records.

The experiments follow the paper's methodology (Section V):

* per-model GPC budgets of Table I (24/24/48/42/48 GPCs for ShuffleNet /
  MobileNet / ResNet / BERT / Conformer; homogeneous GPU(7) servers get the
  nearest achievable 28/28/56/42/56),
* log-normal batch sizes (sigma=0.9, max 32) and Poisson arrivals,
* SLA target = 1.5x the GPU(7) latency at the maximum batch size,
* latency-bounded throughput measured at the SLA as the headline metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.sweep import (
    DesignPointResult,
    ParallelRunner,
    latency_bounded_throughput,
    sweep_rates,
)
from repro.core.knee import derive_knees
from repro.core.paris import Paris, ParisConfig
from repro.models.registry import PAPER_MODELS, get_model
from repro.perf.latency_model import LatencyModel
from repro.perf.lookup import ProfileEntry, ProfileTable
from repro.perf.profiler import Profiler
from repro.core.registry import normalize_policy_name
from repro.serving.config import ServerConfig
from repro.serving.deployment import Deployment, build_deployment
from repro.workload.distributions import LogNormalBatchDistribution
from repro.workload.generator import WorkloadConfig

# --------------------------------------------------------------------------- #
# Methodology constants (Table I and Section V)
# --------------------------------------------------------------------------- #

#: GPC budget given to GPU(1,2,3), Random and PARIS designs, per model.
PAPER_GPC_BUDGETS: Dict[str, int] = {
    "shufflenet": 24,
    "mobilenet": 24,
    "resnet": 48,
    "bert": 42,
    "conformer": 48,
}

#: GPC budget given to the homogeneous GPU(7) design, per model (Table I).
PAPER_GPU7_BUDGETS: Dict[str, int] = {
    "shufflenet": 28,
    "mobilenet": 28,
    "resnet": 56,
    "bert": 42,
    "conformer": 56,
}

#: Number of physical A100 GPUs per model configuration (Table I).
PAPER_NUM_GPUS: Dict[str, int] = {
    "shufflenet": 4,
    "mobilenet": 4,
    "resnet": 8,
    "bert": 6,
    "conformer": 8,
}

#: The homogeneous partition sizes studied in the paper's evaluation.
HOMOGENEOUS_SIZES: Tuple[int, ...] = (1, 2, 3, 7)

# The $/GPC cost model moved to repro.gpu.cost in PR 7 so the autoscaler
# and capacity planner can import it without touching analysis code; these
# names stay re-exported here for backward compatibility.
from repro.gpu.cost import GPC_COST, fleet_gpc_cost  # noqa: F401

#: Default workload parameters (Section V).
DEFAULT_SIGMA = 0.9
DEFAULT_MAX_BATCH = 32
DEFAULT_MEDIAN_BATCH = 8.0
DEFAULT_SLA_MULTIPLIER = 1.5

#: Dispatch capacity of the serving frontend in queries/second.  The paper's
#: DeepRecInfra-based frontend supplies queries to the GPU workers at a
#: finite rate (Section V discusses configurations where it becomes the
#: bottleneck); this value keeps many-instance designs from scaling past what
#: a single frontend can feed.
DEFAULT_FRONTEND_QPS = 12000.0


@dataclass
class ExperimentSettings:
    """Knobs shared by all experiment runners.

    Attributes:
        num_queries: queries per simulated trace (larger = smoother tails,
            slower experiments).
        sigma: log-normal batch distribution sigma.
        max_batch: maximum batch size of the distribution.
        median_batch: median of the distribution.
        sla_multiplier: SLA target multiplier over the GPU(7) max-batch
            latency.
        search_iterations: bisection steps of the latency-bounded-throughput
            search.
        frontend_qps: frontend dispatch capacity in queries/second
            (``None`` disables the frontend model).
        seed: base RNG seed.
        n_jobs: worker processes the experiment runners may fan independent
            design-point replays across (``1`` = serial, ``None``/``0`` =
            every core).  Results are identical for any value.
    """

    num_queries: int = 800
    sigma: float = DEFAULT_SIGMA
    max_batch: int = DEFAULT_MAX_BATCH
    median_batch: float = DEFAULT_MEDIAN_BATCH
    sla_multiplier: float = DEFAULT_SLA_MULTIPLIER
    search_iterations: int = 8
    frontend_qps: Optional[float] = DEFAULT_FRONTEND_QPS
    seed: int = 0
    n_jobs: Optional[int] = 1
    _profiles: Dict[str, ProfileTable] = field(default_factory=dict, repr=False)
    _runner: Optional[ParallelRunner] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # shared building blocks
    # ------------------------------------------------------------------ #
    def profile(self, model: str) -> ProfileTable:
        """Profiled lookup table for ``model`` (cached)."""
        if model not in self._profiles:
            profiler = Profiler(batch_sizes=self._profile_batches())
            self._profiles[model] = profiler.profile(get_model(model))
        return self._profiles[model]

    def _profile_batches(self) -> Tuple[int, ...]:
        base = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
        base.add(self.max_batch)
        return tuple(sorted(b for b in base if b <= max(64, self.max_batch)))

    def batch_pdf(self, max_batch: Optional[int] = None, sigma: Optional[float] = None):
        """Analytical batch-size PDF of the workload distribution."""
        distribution = LogNormalBatchDistribution(
            sigma=sigma if sigma is not None else self.sigma,
            median=min(self.median_batch, float(max_batch or self.max_batch)),
            max_batch=max_batch or self.max_batch,
        )
        return distribution.pdf()

    def workload(self, model: str, max_batch: Optional[int] = None,
                 sigma: Optional[float] = None) -> WorkloadConfig:
        """Workload template for ``model`` (rate is filled in by the sweep)."""
        return WorkloadConfig(
            model=model,
            rate_qps=1.0,
            num_queries=self.num_queries,
            max_batch=max_batch or self.max_batch,
            sigma=sigma if sigma is not None else self.sigma,
            median_batch=self.median_batch,
            seed=self.seed,
        )

    def build(
        self,
        model: str,
        partitioning: str,
        scheduler: str,
        homogeneous_gpcs: int = 7,
        max_batch: Optional[int] = None,
        sigma: Optional[float] = None,
        sla_multiplier: Optional[float] = None,
        batch_pdf: Optional[Dict[int, float]] = None,
    ) -> Deployment:
        """Materialise one design point under the paper's methodology.

        ``partitioning`` and ``scheduler`` are policy registry names
        (``"paris"``, ``"homogeneous"``, ``"elsa"``, ... or any custom
        registered policy); the deprecated enums are also accepted.
        ``batch_pdf`` overrides the analytical workload PDF handed to the
        partitioner — e.g. a scenario's ``initial_pdf()`` when the
        deployment should be planned for the scenario's opening phase.
        """
        partitioning = normalize_policy_name(partitioning, "partitioning")
        scheduler = normalize_policy_name(scheduler, "scheduler")
        budget = PAPER_GPC_BUDGETS.get(model, 48)
        if partitioning == "homogeneous" and homogeneous_gpcs == 7:
            budget = PAPER_GPU7_BUDGETS.get(model, budget)
        # The physical box always has 8 GPUs (p4d.24xlarge); Table I's
        # "# of A100" column is how many of them the budget occupies.  Using
        # all 8 for packing keeps odd instance counts (e.g. 14x GPU(3))
        # placeable, exactly as the real server would.
        num_gpus = 8
        config = ServerConfig(
            model=model,
            partitioning=partitioning,
            scheduler=scheduler,
            gpc_budget=budget,
            num_gpus=num_gpus,
            homogeneous_gpcs=homogeneous_gpcs,
            sla_multiplier=sla_multiplier or self.sla_multiplier,
            max_batch=max_batch or self.max_batch,
            random_seed=self.seed,
            frontend_capacity_qps=self.frontend_qps,
        )
        pdf = (
            dict(batch_pdf)
            if batch_pdf is not None
            else self.batch_pdf(max_batch=max_batch, sigma=sigma)
        )
        return build_deployment(config, pdf, profile=self.profile(model))

    def measure(
        self,
        deployment: Deployment,
        max_batch: Optional[int] = None,
        sigma: Optional[float] = None,
    ) -> DesignPointResult:
        """Latency-bounded throughput of one deployment (the headline metric)."""
        workload = self.workload(
            deployment.config.model, max_batch=max_batch, sigma=sigma
        )
        return latency_bounded_throughput(
            deployment,
            workload,
            iterations=self.search_iterations,
            seed=self.seed,
        )

    def build_fleet_design(
        self,
        model: str,
        servers: Sequence,
        partitioning: str = "paris",
        scheduler: str = "elsa",
        max_batch: Optional[int] = None,
        sigma: Optional[float] = None,
        sla_multiplier: Optional[float] = None,
        batch_pdf: Optional[Dict[int, float]] = None,
    ) -> Deployment:
        """Materialise a fleet design point under the paper's methodology.

        Args:
            model: served model (registry name).
            servers: the fleet — ``(num_gpus, architecture[, gpc_budget])``
                tuples or :class:`~repro.gpu.fleet.FleetServerSpec` objects.
            partitioning / scheduler: policy registry names.
            max_batch / sigma: workload-distribution overrides.
            sla_multiplier: SLA multiplier override.
            batch_pdf: explicit planning PDF (defaults to the analytical
                log-normal PDF).

        Returns:
            The materialised fleet :class:`Deployment` (per-architecture
            profile tables come from the process-wide cache).
        """
        config = ServerConfig(
            model=model,
            partitioning=normalize_policy_name(partitioning, "partitioning"),
            scheduler=normalize_policy_name(scheduler, "scheduler"),
            fleet=tuple(servers),
            sla_multiplier=sla_multiplier or self.sla_multiplier,
            max_batch=max_batch or self.max_batch,
            random_seed=self.seed,
            frontend_capacity_qps=self.frontend_qps,
        )
        pdf = (
            dict(batch_pdf)
            if batch_pdf is not None
            else self.batch_pdf(max_batch=max_batch, sigma=sigma)
        )
        return build_deployment(config, pdf)

    def __getstate__(self):
        # Shipping settings into pool workers must not drag the (unpicklable)
        # warm process pool along; workers run their share inline anyway.
        state = self.__dict__.copy()
        state["_runner"] = None
        return state

    def runner(self) -> ParallelRunner:
        """The settings' shared :class:`~repro.analysis.sweep.ParallelRunner`.

        One warm runner per settings object, so consecutive experiment
        phases (e.g. figure11's searches and its rate sweeps) reuse the
        same process pool instead of respawning one per phase.
        """
        if self._runner is None or self._runner.n_jobs != self.n_jobs:
            self._runner = ParallelRunner(n_jobs=self.n_jobs)
        return self._runner


def _measure_deployment_shared(shared, deployment: Deployment) -> DesignPointResult:
    """Picklable shared-state worker: settings ship once per pool worker."""
    settings, max_batch, sigma = shared
    return settings.measure(deployment, max_batch=max_batch, sigma=sigma)


def measure_designs(
    settings: ExperimentSettings,
    deployments: Dict[str, Deployment],
    max_batch: Optional[int] = None,
    sigma: Optional[float] = None,
) -> Dict[str, DesignPointResult]:
    """Latency-bounded throughput of several independent design points.

    Each design's bisection search is sequential, but different designs are
    independent full-replay pipelines, so they fan out across
    ``settings.n_jobs`` processes (the settings — profiles included — ship
    once per pool worker); the result mapping (insertion order included) is
    identical to measuring each design serially.
    """
    names = list(deployments)
    # per point: the bracket probes + bisection steps each replay a trace
    work_hint = settings.num_queries * (settings.search_iterations + 2)
    results = settings.runner().map_shared(
        _measure_deployment_shared,
        (settings, max_batch, sigma),
        [deployments[name] for name in names],
        work_hint=work_hint,
    )
    return dict(zip(names, results))


# --------------------------------------------------------------------------- #
# Figure 3 — partition-size sweep at batch 8
# --------------------------------------------------------------------------- #
def figure3(
    models: Sequence[str] = ("mobilenet", "resnet", "bert"),
    batch: int = 8,
    partition_sizes: Sequence[int] = (1, 2, 3, 4, 7),
) -> List[dict]:
    """Utilization and latency versus GPU partition size (Figure 3).

    Returns one row per (model, partition size) with the utilization, the
    latency and the latency normalised to GPU(7).
    """
    latency_model = LatencyModel()
    rows = []
    for model_name in models:
        model = get_model(model_name)
        reference = latency_model.query_cost(model, batch, max(partition_sizes))
        for gpcs in partition_sizes:
            cost = latency_model.query_cost(model, batch, gpcs)
            rows.append(
                {
                    "model": model_name,
                    "gpcs": gpcs,
                    "batch": batch,
                    "utilization": cost.utilization,
                    "latency_ms": cost.latency_ms,
                    "normalized_latency": cost.latency_s / reference.latency_s,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 4 — batch-size sweep per partition size (+ MaxBatch_knee)
# --------------------------------------------------------------------------- #
def figure4(
    models: Sequence[str] = ("mobilenet", "resnet", "bert"),
    partition_sizes: Sequence[int] = (1, 2, 3, 4, 7),
    batch_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    knee_threshold: float = 0.8,
) -> List[dict]:
    """Utilization / latency versus batch size per partition size (Figure 4)."""
    latency_model = LatencyModel()
    profiler = Profiler(batch_sizes=batch_sizes, partition_sizes=partition_sizes)
    rows = []
    for model_name in models:
        model = get_model(model_name)
        profile = profiler.profile(model)
        knees = derive_knees(profile, partition_sizes, knee_threshold)
        for gpcs in partition_sizes:
            for batch in batch_sizes:
                cost = latency_model.query_cost(model, batch, gpcs)
                rows.append(
                    {
                        "model": model_name,
                        "gpcs": gpcs,
                        "batch": batch,
                        "utilization": cost.utilization,
                        "latency_ms": cost.latency_ms,
                        "is_knee": knees[gpcs].batch == batch,
                    }
                )
    return rows


# --------------------------------------------------------------------------- #
# Figure 8 — PARIS instance-ratio worked example
# --------------------------------------------------------------------------- #
def figure8_example() -> dict:
    """Reproduce the worked example of Figure 8 (Section IV-B).

    Two partition sizes (small=1 GPC, large=3 GPCs for concreteness); knees
    B1=2 and B2=4; batch size distribution {1: 20%, 2: 20%, 3: 40%, 4: 20%};
    profiled throughputs small:{1: 40, 2: 20} and large:{3: 30, 4: 20}
    queries/sec.  The paper derives 0.5 + 1.0 = 1.5 "small GPUs" and
    1.33 + 1.0 = 2.3 "large GPUs", i.e. an instance ratio of 1.5 : 2.3.
    """
    small, large = 1, 3
    throughput = {
        (small, 1): 40.0,
        (small, 2): 20.0,
        (large, 3): 30.0,
        (large, 4): 20.0,
    }
    pdf = {1: 0.2, 2: 0.2, 3: 0.4, 4: 0.2}
    # Utilization curves engineered so the knees land at B1=2 and B2=4.
    util = {
        (small, 1): 0.6,
        (small, 2): 0.85,
        (small, 3): 0.9,
        (small, 4): 0.95,
        (large, 1): 0.3,
        (large, 2): 0.5,
        (large, 3): 0.7,
        (large, 4): 0.85,
    }
    entries = []
    for (gpcs, batch), qps in throughput.items():
        entries.append(
            ProfileEntry(
                gpcs=gpcs,
                batch=batch,
                latency_s=1.0 / qps,
                utilization=util[(gpcs, batch)],
                throughput_qps=qps,
            )
        )
    # fill the unprofiled (size, batch) pairs so the table is rectangular
    for gpcs in (small, large):
        for batch in (1, 2, 3, 4):
            if (gpcs, batch) not in throughput:
                qps = 40.0 / batch if gpcs == small else 90.0 / batch
                entries.append(
                    ProfileEntry(
                        gpcs=gpcs,
                        batch=batch,
                        latency_s=1.0 / qps,
                        utilization=util[(gpcs, batch)],
                        throughput_qps=qps,
                    )
                )
    profile = ProfileTable("figure8-example", entries)
    paris = Paris(profile, ParisConfig(partition_sizes=(small, large)))
    plan = paris.plan(pdf, total_gpcs=8)
    segments = {seg.gpcs: seg for seg in plan.segments}
    ratio_small = segments[small].instance_ratio
    ratio_large = segments[large].instance_ratio
    return {
        "knees": plan.knees,
        "ratio_small": ratio_small,
        "ratio_large": ratio_large,
        "paper_ratio_small": 0.2 / 40.0 + 0.2 / 20.0,  # = 0.015 per query => 1.5 per 100
        "paper_ratio_large": 0.4 / 30.0 + 0.2 / 20.0,  # ~= 0.0233 per query => 2.3 per 100
        "plan": plan.to_dict(),
    }


# --------------------------------------------------------------------------- #
# Table I — server configurations
# --------------------------------------------------------------------------- #
def table1(
    models: Sequence[str] = PAPER_MODELS,
    settings: Optional[ExperimentSettings] = None,
) -> List[dict]:
    """Homogeneous and PARIS server configurations (Table I)."""
    settings = settings or ExperimentSettings()
    rows = []
    for model in models:
        budget = PAPER_GPC_BUDGETS[model]
        for gpcs in HOMOGENEOUS_SIZES:
            design_budget = PAPER_GPU7_BUDGETS[model] if gpcs == 7 else budget
            instances = design_budget // gpcs
            rows.append(
                {
                    "model": model,
                    "design": f"GPU({gpcs})",
                    "instances": instances,
                    "gpcs": instances * gpcs,
                    "num_gpus": PAPER_NUM_GPUS[model],
                    "description": f"{instances}xGPU({gpcs})",
                }
            )
        paris_deployment = settings.build(
            model, "paris", "elsa"
        )
        plan = paris_deployment.plan
        rows.append(
            {
                "model": model,
                "design": "PARIS",
                "instances": plan.total_instances,
                "gpcs": plan.used_gpcs,
                "num_gpus": PAPER_NUM_GPUS[model],
                "description": plan.describe(),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 11 — tail latency vs throughput curves
# --------------------------------------------------------------------------- #
def figure11(
    model: str,
    settings: Optional[ExperimentSettings] = None,
    num_points: int = 6,
    designs: Sequence[str] = ("gpu(7)+fifs", "gpu(max)+fifs", "paris+fifs", "paris+elsa"),
) -> List[dict]:
    """p95 tail latency versus offered load per design (Figure 11).

    Returns one row per (design, offered rate).
    """
    settings = settings or ExperimentSettings()
    deployments = named_designs(model, settings, designs)
    bounds = measure_designs(settings, deployments)
    rows = []
    for name, deployment in deployments.items():
        bound_result = bounds[name]
        peak = max(bound_result.rate_qps, 1e-3)
        rates = [peak * fraction for fraction in _spread(num_points)]
        workload = settings.workload(model)
        for point in sweep_rates(
            deployment, workload, rates, seed=settings.seed, runner=settings.runner()
        ):
            rows.append(
                {
                    "model": model,
                    "design": name,
                    "rate_qps": point.rate_qps,
                    "throughput_qps": point.throughput_qps,
                    "p95_latency_ms": point.p95_latency * 1e3,
                    "sla_ms": deployment.sla_target * 1e3,
                }
            )
    return rows


def _spread(num_points: int) -> List[float]:
    if num_points < 2:
        return [1.0]
    return [0.4 + 0.8 * idx / (num_points - 1) for idx in range(num_points)]


# --------------------------------------------------------------------------- #
# Figure 12 — latency-bounded throughput across all designs
# --------------------------------------------------------------------------- #
def figure12(
    models: Sequence[str] = PAPER_MODELS,
    settings: Optional[ExperimentSettings] = None,
    include_random: bool = True,
) -> List[dict]:
    """Latency-bounded throughput normalised to GPU(7)+FIFS (Figure 12)."""
    settings = settings or ExperimentSettings()
    rows: List[dict] = []
    for model in models:
        designs = _figure12_designs(include_random)
        deployments = named_designs(model, settings, designs)
        results = measure_designs(settings, deployments)
        baseline = results["gpu(7)+fifs"].throughput_qps or 1e-9
        for name, result in results.items():
            rows.append(
                {
                    "model": model,
                    "design": name,
                    "throughput_qps": result.throughput_qps,
                    "normalized_throughput": result.throughput_qps / baseline,
                    "p95_latency_ms": result.p95_latency * 1e3,
                    "mean_utilization": result.mean_utilization,
                    "plan": deployments[name].plan.describe(),
                }
            )
    return rows


def _figure12_designs(include_random: bool) -> List[str]:
    designs = [f"gpu({g})+fifs" for g in HOMOGENEOUS_SIZES]
    if include_random:
        designs += ["random+fifs", "random+elsa"]
    designs += ["paris+fifs", "paris+elsa"]
    return designs


# --------------------------------------------------------------------------- #
# Figure 13(a) — batch-size distribution variance sensitivity
# --------------------------------------------------------------------------- #
def figure13a(
    model: str = "resnet",
    sigmas: Sequence[float] = (0.3, 0.9, 1.8),
    settings: Optional[ExperimentSettings] = None,
    designs: Sequence[str] = (
        "gpu(7)+fifs",
        "gpu(3)+fifs",
        "gpu(2)+fifs",
        "gpu(1)+fifs",
        "paris+fifs",
        "paris+elsa",
    ),
) -> List[dict]:
    """Sensitivity to the log-normal variance (Figure 13a)."""
    settings = settings or ExperimentSettings()
    rows = []
    for sigma in sigmas:
        deployments = named_designs(model, settings, designs, sigma=sigma)
        results = measure_designs(settings, deployments, sigma=sigma)
        baseline = results["gpu(7)+fifs"].throughput_qps or 1e-9
        for name, result in results.items():
            rows.append(
                {
                    "model": model,
                    "sigma": sigma,
                    "design": name,
                    "throughput_qps": result.throughput_qps,
                    "normalized_throughput": result.throughput_qps / baseline,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 13(b) — max batch size sensitivity
# --------------------------------------------------------------------------- #
def figure13b(
    models: Sequence[str] = PAPER_MODELS,
    max_batches: Sequence[int] = (16, 32, 64),
    settings: Optional[ExperimentSettings] = None,
) -> List[dict]:
    """Sensitivity to the distribution's maximum batch size (Figure 13b).

    Compares GPU(max)+FIFS, PARIS+FIFS and PARIS+ELSA, normalised to
    GPU(max)+FIFS, per (model, max batch).
    """
    settings = settings or ExperimentSettings()
    rows = []
    for model in models:
        for max_batch in max_batches:
            # One fan-out over every candidate of this (model, max_batch)
            # pair — the homogeneous GPU(max) field and both PARIS designs —
            # instead of separate pools for the GPU(max) search and the
            # PARIS measurements.
            candidates = {
                f"gpu({gpcs})+fifs": settings.build(
                    model,
                    "homogeneous",
                    "fifs",
                    homogeneous_gpcs=gpcs,
                    max_batch=max_batch,
                )
                for gpcs in HOMOGENEOUS_SIZES
            }
            candidates["paris+fifs"] = settings.build(
                model, "paris", "fifs", max_batch=max_batch
            )
            candidates["paris+elsa"] = settings.build(
                model, "paris", "elsa", max_batch=max_batch
            )
            measured = measure_designs(settings, candidates, max_batch=max_batch)
            homogeneous = {
                name: measured[name]
                for name in (f"gpu({gpcs})+fifs" for gpcs in HOMOGENEOUS_SIZES)
            }
            gpu_max_name = _highest_throughput(homogeneous)
            gpu_max_result = homogeneous[gpu_max_name]
            results = {
                gpu_max_name: gpu_max_result,
                "paris+fifs": measured["paris+fifs"],
                "paris+elsa": measured["paris+elsa"],
            }
            baseline = gpu_max_result.throughput_qps or 1e-9
            for name, result in results.items():
                rows.append(
                    {
                        "model": model,
                        "max_batch": max_batch,
                        "design": name if name != gpu_max_name else f"gpu(max)={gpu_max_name}",
                        "throughput_qps": result.throughput_qps,
                        "normalized_throughput": result.throughput_qps / baseline,
                    }
                )
    return rows


# --------------------------------------------------------------------------- #
# Section VI-C — SLA multiplier sensitivity
# --------------------------------------------------------------------------- #
def sla_sensitivity(
    models: Sequence[str] = PAPER_MODELS,
    multipliers: Sequence[float] = (1.5, 2.0),
    settings: Optional[ExperimentSettings] = None,
) -> List[dict]:
    """Latency-bounded throughput of PARIS+ELSA vs GPU(7) and GPU(max) under
    different SLA multipliers (the Section VI-C sensitivity discussion)."""
    settings = settings or ExperimentSettings()
    rows = []
    for model in models:
        for multiplier in multipliers:
            gpu7 = settings.build(
                model,
                "homogeneous",
                "fifs",
                homogeneous_gpcs=7,
                sla_multiplier=multiplier,
            )
            gpu_max_name, gpu_max_result, _ = _best_homogeneous(
                model, settings, sla_multiplier=multiplier
            )
            paris_elsa = settings.build(
                model,
                "paris",
                "elsa",
                sla_multiplier=multiplier,
            )
            gpu7_result = settings.measure(gpu7)
            paris_result = settings.measure(paris_elsa)
            rows.append(
                {
                    "model": model,
                    "sla_multiplier": multiplier,
                    "gpu7_qps": gpu7_result.throughput_qps,
                    "gpu_max": gpu_max_name,
                    "gpu_max_qps": gpu_max_result.throughput_qps,
                    "paris_elsa_qps": paris_result.throughput_qps,
                    "speedup_vs_gpu7": paris_result.throughput_qps
                    / max(gpu7_result.throughput_qps, 1e-9),
                    "speedup_vs_gpu_max": paris_result.throughput_qps
                    / max(gpu_max_result.throughput_qps, 1e-9),
                    "paris_p95_ms": paris_result.p95_latency * 1e3,
                    "gpu_max_p95_ms": gpu_max_result.p95_latency * 1e3,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# dynamic scenarios — the observe -> repartition -> reconfigure loop
# --------------------------------------------------------------------------- #
def dynamic_scenario(
    scenario,
    settings: Optional[ExperimentSettings] = None,
    triggers: Sequence = (("pdf-drift", {"threshold": 0.2, "min_queries": 200}),),
    reconfig_cost: float = 2.0,
    window: float = 2.0,
    partitioning: str = "paris",
    scheduler: str = "elsa",
    seed: int = 0,
) -> List[dict]:
    """Windowed trajectory of a time-varying scenario, triggered vs control.

    Deploys the design for the scenario's *opening* phase (the operator's
    honest prior), then replays the scenario twice over the same trace:

    * ``triggered`` — with the given repartition triggers and a modeled MIG
      reconfiguration downtime of ``reconfig_cost`` seconds;
    * ``control`` — the same deployment left alone.

    Returns one row per (mode, window) with throughput, p95 latency, SLA
    violation rate and whether the window overlapped a reconfiguration — the
    dip-and-recover trajectory of the paper's elastic workflow.
    """
    from repro.analysis.sweep import run_scenario

    settings = settings or ExperimentSettings()
    deployment = settings.build(
        scenario.model,
        partitioning,
        scheduler,
        max_batch=max(phase.max_batch for phase in scenario.phases),
        batch_pdf=scenario.initial_pdf(),
    )
    runs = {
        "triggered": run_scenario(
            deployment,
            scenario,
            triggers=triggers,
            reconfig_cost=reconfig_cost,
            window=window,
            seed=seed,
        ),
        "control": run_scenario(
            deployment, scenario, window=window, seed=seed
        ),
    }
    rows: List[dict] = []
    for mode, result in runs.items():
        for stats in result.windows:
            rows.append(
                {
                    "mode": mode,
                    "window": stats.index,
                    "start_s": stats.start,
                    "throughput_qps": stats.throughput_qps,
                    "p95_latency_ms": stats.p95_latency * 1e3,
                    "violation_rate": stats.violation_rate,
                    "reconfiguring": stats.reconfiguring,
                    "plan": result.deployment.plan.describe(),
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# heterogeneous fleets — mixed-architecture serving at iso GPC-cost
# --------------------------------------------------------------------------- #

#: Default fleet designs of the heterogeneous-fleet experiment, all within
#: ~1.7% of the homogeneous baseline's GPC-cost of 48.0 (see
#: :data:`GPC_COST`): trading expensive A100 GPCs for a larger number of
#: cheap A30 GPCs, or for a few very fast H100 GPCs.
DEFAULT_FLEETS: Dict[str, Tuple] = {
    "a100-only": ((8, "a100", 48),),
    "a100+a30": ((4, "a100", 28), (11, "a30", 44)),
    "a100+h100": ((4, "a100", 28), (2, "h100", 8)),
}


def heterogeneous_fleet(
    model: str = "resnet",
    settings: Optional[ExperimentSettings] = None,
    fleets: Optional[Dict[str, Sequence]] = None,
    partitioning: str = "paris",
    scheduler: str = "elsa",
) -> List[dict]:
    """Compare homogeneous vs mixed-architecture fleets at iso GPC-cost.

    Every fleet is deployed with the same partitioner/scheduler pair (fleet
    PARIS + architecture-aware ELSA by default), its latency-bounded
    throughput is measured against the same workload and SLA methodology as
    Figures 11–13, and the designs are compared on *throughput per unit of
    GPC-cost* — the honest metric when the fleets deliberately buy different
    GPC counts for the same money.

    Args:
        model: served model (registry name).
        settings: experiment knobs (paper defaults when omitted).
        fleets: named fleet descriptions (:data:`DEFAULT_FLEETS` when
            omitted); each value is a sequence of ``(num_gpus,
            architecture[, gpc_budget])`` tuples.
        partitioning / scheduler: policy registry names shared by every
            design.

    Returns:
        One row per fleet with its cost, GPC count, plan, latency-bounded
        throughput, p95 latency and throughput-per-cost.
    """
    settings = settings or ExperimentSettings()
    fleets = fleets if fleets is not None else DEFAULT_FLEETS
    rows: List[dict] = []
    for name, servers in fleets.items():
        deployment = settings.build_fleet_design(
            model, servers, partitioning=partitioning, scheduler=scheduler
        )
        result = settings.measure(deployment)
        cost = fleet_gpc_cost(servers)
        plan = deployment.plan
        rows.append(
            {
                "fleet": name,
                "gpc_cost": round(cost, 2),
                "total_gpcs": plan.total_gpcs,
                "instances": plan.total_instances,
                "plan": plan.describe(),
                "throughput_qps": result.throughput_qps,
                "p95_latency_ms": result.p95_latency * 1e3,
                "violation_rate": result.sla_violation_rate,
                "sla_ms": result.sla_target * 1e3,
                "throughput_per_cost": (
                    result.throughput_qps / cost if cost > 0 else 0.0
                ),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #
def named_designs(
    model: str,
    settings: ExperimentSettings,
    designs: Sequence[str],
    max_batch: Optional[int] = None,
    sigma: Optional[float] = None,
) -> Dict[str, Deployment]:
    """Materialise named ``<partitioner>+<scheduler>`` design points.

    ``gpu(N)`` selects the homogeneous partitioner with N-GPC instances and
    ``gpu(max)+fifs`` the best homogeneous design in hindsight; any other
    ``partitioner+scheduler`` pair is resolved against the policy
    registries, so custom registered policies work here too (e.g.
    ``my-policy+elsa``).
    """
    deployments: Dict[str, Deployment] = {}
    for name in designs:
        if name == "gpu(max)+fifs":
            _, _, deployment = _best_homogeneous(
                model, settings, max_batch=max_batch, sigma=sigma
            )
            deployments[name] = deployment
            continue
        deployments[name] = _build_named(model, settings, name, max_batch, sigma)
    return deployments


#: Deprecated alias of :func:`named_designs`.
_named_designs = named_designs


def _build_named(
    model: str,
    settings: ExperimentSettings,
    name: str,
    max_batch: Optional[int] = None,
    sigma: Optional[float] = None,
) -> Deployment:
    partition_part, scheduler = name.split("+")
    if partition_part.startswith("gpu("):
        gpcs = int(partition_part[4:-1])
        return settings.build(
            model,
            "homogeneous",
            scheduler,
            homogeneous_gpcs=gpcs,
            max_batch=max_batch,
            sigma=sigma,
        )
    return settings.build(
        model,
        partition_part,
        scheduler,
        max_batch=max_batch,
        sigma=sigma,
    )


def _best_homogeneous(
    model: str,
    settings: ExperimentSettings,
    max_batch: Optional[int] = None,
    sigma: Optional[float] = None,
    sla_multiplier: Optional[float] = None,
) -> Tuple[str, DesignPointResult, Deployment]:
    """GPU(max): the homogeneous design with the best latency-bounded throughput."""
    deployments = {
        f"gpu({gpcs})+fifs": settings.build(
            model,
            "homogeneous",
            "fifs",
            homogeneous_gpcs=gpcs,
            max_batch=max_batch,
            sigma=sigma,
            sla_multiplier=sla_multiplier,
        )
        for gpcs in HOMOGENEOUS_SIZES
    }
    results = measure_designs(settings, deployments, max_batch=max_batch, sigma=sigma)
    best_name = _highest_throughput(results)
    return best_name, results[best_name], deployments[best_name]


def _highest_throughput(results: Dict[str, DesignPointResult]) -> str:
    """Name of the highest-throughput result (first wins ties, like max)."""
    best_name = ""
    best: Optional[DesignPointResult] = None
    for name, result in results.items():
        if best is None or result.throughput_qps > best.throughput_qps:
            best_name = name
            best = result
    if best is None:
        raise ValueError("no results to choose from")
    return best_name
