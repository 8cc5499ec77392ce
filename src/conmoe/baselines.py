"""Matched-budget pruning and merging baselines, plus post-hoc fusion of a
remapping plan's clusters.

Each baseline is a scope-1 consolidation plan with the usage (`usage_topk`)
or REAP (`reap_topk`) selection; they differ only in what the unselected
slots become. Pruning drops them; merging keeps the nearest-core
assignment and fuses each core's cluster."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .calibration import CalibStats, frequency
from .geometry import DEFAULT_EPS
from .model import PROJECTIONS, MoEModel, Ref
from .plan import ConsolidationPlan
from .planner import ScopeConfig, consolidate


def _layer_plan(model: MoEModel, stats: CalibStats, rho: float, selection: str,
                policy: str, eps: float = DEFAULT_EPS) -> ConsolidationPlan:
    """Scope-1 consolidation with the given selection, relabelled `policy`."""
    plan = consolidate(model, stats, ScopeConfig(rho, 1, selection, eps))
    return replace(plan, policy=policy, metadata={})


def _prune(model: MoEModel, stats: CalibStats, rho: float, selection: str, policy: str) -> ConsolidationPlan:
    plan = _layer_plan(model, stats, rho, selection, policy)
    # pruning never remaps: every slot maps to itself, the unselected are dropped
    return replace(plan, assignment={ref: ref for ref in plan.assignment},
                   drop_mask=set(plan.assignment) - plan.distinct_prototypes())


def prune_frequency(model: MoEModel, stats: CalibStats, rho: float) -> ConsolidationPlan:
    """Keep the highest-frequency experts per layer; drop the rest."""
    return _prune(model, stats, rho, "usage_topk", "prune_frequency")


def prune_reap(model: MoEModel, stats: CalibStats, rho: float) -> ConsolidationPlan:
    """Keep the highest contribution-score experts per layer."""
    return _prune(model, stats, rho, "reap_topk", "prune_reap")


def merge_msmoe(
    model: MoEModel,
    stats: CalibStats,
    rho: float,
    eps: float = DEFAULT_EPS,
) -> tuple[ConsolidationPlan, MoEModel]:
    """Layer-local merging: high-usage cores, nearest-core assignment, and
    usage-weighted averaging of each core's cluster."""
    plan = _layer_plan(model, stats, rho, "usage_topk", "merge_msmoe", eps)
    fused = fuse_weighted_average(model, plan, stats)
    fused.metadata["fusion"] = "msmoe_usage_weighted"
    return plan, fused


def _fusion_weights(stats: CalibStats | None, cluster: list[Ref]) -> list[float]:
    counts = [frequency(stats, r) if stats is not None else 0 for r in cluster]
    total = sum(counts)
    if total == 0:
        return [1.0 / len(cluster)] * len(cluster)
    return [c / total for c in counts]


def fuse_weighted_average(model: MoEModel, plan: ConsolidationPlan, stats: CalibStats | None = None) -> MoEModel:
    """A copy of `model` whose prototypes hold the usage-weighted average of
    their clusters (uniform weights without stats), accumulated in float64
    in cluster order; the reassignment map is left unchanged.
    metadata["provenance"] lists each fused slot's (source, weight) pairs."""
    plan.check_covers(model)
    if stats is not None:
        stats.check_covers(model)
    if plan.is_pruning:
        raise ValueError("fusion requires a remapping plan, not a pruning plan")
    fused = model.copy()
    provenance = []
    for proto, members in plan.clusters().items():
        weights = _fusion_weights(stats, members)
        dst = fused.expert(proto)
        for proj in PROJECTIONS:
            acc = np.zeros(getattr(dst, proj).shape)
            for ref, w in zip(members, weights):
                acc += w * getattr(model.expert(ref), proj).astype(np.float64)
            getattr(dst, proj)[...] = acc
        provenance.append([list(proto), [[list(src), w] for src, w in zip(members, weights)]])
    fused.metadata["fusion"] = "weighted_average"
    fused.metadata["provenance"] = sorted(provenance)
    return fused
