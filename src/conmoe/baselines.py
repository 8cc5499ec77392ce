"""Matched-budget pruning and merging baselines, plus post-hoc fusion of a
remapping plan's clusters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibStats, contribution, frequency
from .geometry import DEFAULT_EPS, distance_matrix
from .model import PROJECTIONS, ExpertWeights, MoEModel, Ref
from .plan import ConsolidationPlan, Scope
from .planner import _top_k, assign, budget


@dataclass
class FusedModel:
    base: MoEModel
    # per fused slot: (source ref, fusion weight), weights summing to 1
    provenance: dict[Ref, list[tuple[Ref, float]]] = field(default_factory=dict)


def _prune_by(model: MoEModel, stats: CalibStats, rho: float, key, policy: str) -> ConsolidationPlan:
    stats.check_covers(model)
    if not (0.0 <= rho < 1.0):
        raise ValueError("rho must be in [0, 1)")
    n = model.spec.num_experts
    scopes: list[Scope] = []
    assignment: dict[Ref, Ref] = {}
    drop_mask: set[Ref] = set()
    for l in range(model.spec.num_layers):
        refs = [(l, i) for i in range(n)]
        keep = set(_top_k(refs, key, budget(rho, n)))
        scopes.append(Scope(layers=[l], prototypes=sorted(keep)))
        for ref in refs:
            assignment[ref] = ref  # pruning never remaps
            if ref not in keep:
                drop_mask.add(ref)
    plan = ConsolidationPlan(
        rho=rho,
        scope_size=1,
        policy=policy,
        scopes=scopes,
        assignment=assignment,
        drop_mask=drop_mask,
    )
    plan.validate()
    return plan


def prune_frequency(model: MoEModel, stats: CalibStats, rho: float) -> ConsolidationPlan:
    """Keep the highest-frequency experts per layer; drop the rest."""
    return _prune_by(model, stats, rho, lambda r: frequency(stats, r), "prune_frequency")


def prune_reap(model: MoEModel, stats: CalibStats, rho: float) -> ConsolidationPlan:
    """Keep the highest contribution-score experts per layer."""
    return _prune_by(model, stats, rho, lambda r: contribution(stats, r), "prune_reap")


def _fusion_weights(stats: CalibStats, cluster: list[Ref]) -> list[float]:
    counts = [frequency(stats, r) for r in cluster]
    total = sum(counts)
    if total == 0:
        return [1.0 / len(cluster)] * len(cluster)
    return [c / total for c in counts]


def _fuse_cluster(dst: ExpertWeights, model: MoEModel, cluster: list[Ref], weights: list[float]) -> None:
    """Write the weighted average of the cluster's experts in `model`,
    accumulated in float64 in cluster order, into dst."""
    for proj in PROJECTIONS:
        acc = np.zeros(getattr(dst, proj).shape)
        for ref, w in zip(cluster, weights):
            acc += w * getattr(model.expert(ref), proj).astype(np.float64)
        getattr(dst, proj)[...] = acc


def merge_msmoe(
    model: MoEModel,
    stats: CalibStats,
    rho: float,
    eps: float = DEFAULT_EPS,
) -> tuple[ConsolidationPlan, FusedModel]:
    """Layer-local merging: high-usage cores, nearest-core assignment, and
    usage-weighted averaging of each core's cluster."""
    stats.check_covers(model)
    if not (0.0 <= rho < 1.0):
        raise ValueError("rho must be in [0, 1)")
    n = model.spec.num_experts
    scopes: list[Scope] = []
    assignment: dict[Ref, Ref] = {}
    fused_base = model.copy()
    provenance: dict[Ref, list[tuple[Ref, float]]] = {}
    for l in range(model.spec.num_layers):
        refs = [(l, i) for i in range(n)]
        table = distance_matrix(model, refs, eps)
        cores = _top_k(refs, lambda r: frequency(stats, r), budget(rho, n))
        assignment.update(assign(cores, table))
        scopes.append(Scope(layers=[l], prototypes=sorted(cores)))
        clusters: dict[Ref, list[Ref]] = {c: [] for c in cores}
        for ref in refs:
            clusters[assignment[ref]].append(ref)
        for core, members in clusters.items():
            weights = _fusion_weights(stats, members)
            _fuse_cluster(fused_base.expert(core), model, members, weights)
            provenance[core] = list(zip(members, weights))
    plan = ConsolidationPlan(
        rho=rho,
        scope_size=1,
        policy="merge_msmoe",
        scopes=scopes,
        assignment=assignment,
    )
    plan.validate()
    fused_base.metadata["fusion"] = "msmoe_usage_weighted"
    return plan, FusedModel(base=fused_base, provenance=provenance)


def fuse_weighted_average(model: MoEModel, plan: ConsolidationPlan, stats: CalibStats) -> FusedModel:
    """Replace each prototype's weights with the usage-weighted average of
    its cluster; the reassignment map is left unchanged."""
    plan.check_covers(model)
    stats.check_covers(model)
    if plan.is_pruning:
        raise ValueError("fusion requires a remapping plan, not a pruning plan")
    fused_base = model.copy()
    provenance: dict[Ref, list[tuple[Ref, float]]] = {}
    for proto, members in plan.clusters().items():
        weights = _fusion_weights(stats, members)
        _fuse_cluster(fused_base.expert(proto), model, members, weights)
        provenance[proto] = list(zip(members, weights))
    fused_base.metadata["fusion"] = "weighted_average"
    return FusedModel(base=fused_base, provenance=provenance)
