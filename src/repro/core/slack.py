"""ELSA's SLA slack predictor (Equations 1 and 2 of the paper).

For a newly arrived query considered for a target GPU partition::

    T_wait    = sum(T_estimated,queued) + T_remaining,current          (Eq. 1)
    SLA_slack = SLA_target - alpha * (T_wait + beta * T_estimated,new) (Eq. 2)

``T_estimated`` values come from the profiled lookup table (the one-time
profiling of Section IV-C); ``T_remaining,current`` is derived from the
timestamp of the query currently executing on the partition.  ``alpha`` and
``beta`` are configurable coefficients used to tune the predictor to a
deployment (conservative alpha > 1 guards against estimation error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.perf.lookup import CachedEstimator, ProfileTable
from repro.sim.worker import PartitionWorker


@dataclass(frozen=True)
class SlackPrediction:
    """The slack estimate for one (query, partition) pairing.

    Attributes:
        gpcs: candidate partition size.
        instance_id: candidate partition instance.
        wait_time: predicted queueing delay on that instance (``T_wait``).
        execution_time: estimated execution time of the new query there
            (``T_estimated,new``).
        slack: remaining SLA slack in seconds (Eq. 2); negative means a
            predicted SLA violation.
        completion_time: ``T_wait + T_estimated,new`` — the predicted service
            completion delay used by ELSA's Step B fallback.
    """

    gpcs: int
    instance_id: int
    wait_time: float
    execution_time: float
    slack: float
    completion_time: float

    @property
    def satisfies_sla(self) -> bool:
        """True when the predictor expects the SLA to be met on this instance."""
        return self.slack > 0.0


class SlackEstimator:
    """Profiling-based SLA slack estimator.

    Args:
        profile: profiled lookup table of the primary model (used for
            ``T_estimated`` of the new query and of queued queries).
        alpha: multiplicative safety coefficient applied to the whole
            predicted delay (Equation 2).
        beta: weight on the new query's own execution time (Equation 2).
        profiles: optional per-model lookup tables for multi-model servers;
            queries of models absent from the mapping fall back to the
            primary ``profile``.
        arch_profiles: per-architecture per-model lookup tables
            (``architecture name -> model name -> table``) for
            mixed-architecture fleets.  When two or more architectures are
            given the estimator becomes *heterogeneous*: every lookup
            resolves through the target worker's own architecture's oracle
            (:meth:`oracle_for`), so ``T_estimated`` of the same query
            differs between e.g. an A30 GPU(2) and an H100 GPU(2).  With
            ``None`` (or a single architecture) behaviour is exactly the
            classic single-architecture estimator.
    """

    def __init__(
        self,
        profile: ProfileTable,
        alpha: float = 1.0,
        beta: float = 1.0,
        profiles: Optional[Mapping[str, ProfileTable]] = None,
        arch_profiles: Optional[Mapping[str, Mapping[str, ProfileTable]]] = None,
    ) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.profile = profile
        self.profiles = dict(profiles or {})
        # the explicit primary profile wins over a same-model mapping entry,
        # matching build_deployment's precedence — every lookup path then
        # agrees on T_estimated for the primary model
        self.profiles[profile.model_name] = profile
        self.alpha = alpha
        self.beta = beta
        # One persistent memoized oracle for every T_estimated lookup.  The
        # stable identity matters as much as the memo: the partition workers
        # cache their summed queued work per estimator object, so handing
        # them the same callable on every poll is what makes ELSA's
        # per-arrival scan O(workers) instead of O(workers x queue).
        self.estimator = CachedEstimator(self.profiles, fallback=profile)
        # Mixed fleets get one persistent memoized oracle *per architecture*
        # (same identity argument, per architecture).  A single-architecture
        # mapping degenerates to the classic estimator above.
        self._arch_oracles: Optional[Dict[str, CachedEstimator]] = None
        if arch_profiles is not None and len(arch_profiles) > 1:
            self._arch_oracles = {}
            for arch_name, tables in arch_profiles.items():
                tables = dict(tables)
                fallback = tables.get(profile.model_name, profile)
                self._arch_oracles[arch_name] = CachedEstimator(
                    tables, fallback=fallback
                )

    @property
    def heterogeneous(self) -> bool:
        """True when per-architecture oracles are active (mixed fleet)."""
        return self._arch_oracles is not None

    def oracle_for(self, worker: PartitionWorker) -> CachedEstimator:
        """The memoized oracle answering for ``worker``'s architecture.

        On single-architecture servers this is always :attr:`estimator`
        (the same object, preserving worker-side queued-work cache
        identity); on mixed fleets it is the worker's architecture's
        dedicated oracle, falling back to the primary oracle for workers of
        an unprofiled architecture.
        """
        oracles = self._arch_oracles
        if oracles is None:
            return self.estimator
        return oracles.get(worker.arch_name, self.estimator)

    def estimated_execution_time(
        self, batch: int, gpcs: int, model: Optional[str] = None
    ) -> float:
        """``T_estimated`` of a query of ``batch`` samples on ``GPU(gpcs)``."""
        return self.estimator(model, batch, gpcs)

    def wait_time(self, worker: PartitionWorker, now: float) -> float:
        """``T_wait`` on ``worker`` at time ``now`` (Equation 1).

        On mixed fleets the queued work is estimated through the worker's
        own architecture's oracle.
        """
        return worker.estimated_wait(now, self.oracle_for(worker))

    def predict(
        self,
        worker: PartitionWorker,
        batch: int,
        sla_target: Optional[float],
        now: float,
        model: Optional[str] = None,
    ) -> SlackPrediction:
        """Predict the SLA slack of scheduling a new query onto ``worker``.

        Args:
            worker: candidate partition worker.
            batch: batch size of the new query.
            sla_target: the query's SLA in seconds; ``None`` yields a slack
                of ``+inf`` (no SLA to violate).
            now: current time (for the remaining-execution-time term).
            model: model of the new query (multi-model servers); ``None``
                uses the primary profile.
        """
        oracle = self.oracle_for(worker)
        wait = worker.estimated_wait(now, oracle)
        execution = oracle(model, batch, worker.gpcs)
        weighted = self.alpha * (wait + self.beta * execution)
        slack = float("inf") if sla_target is None else sla_target - weighted
        return SlackPrediction(
            gpcs=worker.gpcs,
            instance_id=worker.instance_id,
            wait_time=wait,
            execution_time=execution,
            slack=slack,
            completion_time=wait + execution,
        )
