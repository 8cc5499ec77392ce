"""Matched-budget pruning and merging baselines, plus post-hoc fusion of a
remapping plan's clusters.

Each baseline keeps, per layer, the slots that the planner's usage
(`usage_topk`) or REAP (`reap_topk`) key ranks highest, the pool of a
scope-1 `consolidate` with that policy; they differ only in what the other
slots become. Pruning drops them, ranking by each slot's `layer_places`
under the planner's key, with no distance table; merging keeps the
nearest-core assignment of `consolidate` and fuses each core's cluster."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .calibration import CalibStats
from .model import MoEModel, Ref, derive, per_slot
from .plan import ConsolidationPlan
from .planner import budget, consolidate, layer_places, policy_keys, select_prototypes


def _prune(model: MoEModel, stats: CalibStats, rho: float, selection: str, policy: str) -> ConsolidationPlan:
    """Each layer keeps its budget's largest `selection` keys, the
    planner's scope-1 pool; every slot keeps its own weights and the rest
    are dropped, so no distance table is built."""
    k = budget(rho, model.spec.num_experts)  # rho is checked before stats coverage
    stats.check_covers(model)
    slots = model.slots()
    kept = select_prototypes(layer_places(policy_keys(selection, stats, slots, None), slots), slots,
                             k * model.spec.num_layers)
    return ConsolidationPlan(rho=rho, scope_size=1, policy=policy, assignment=dict(zip(slots, slots)),
                             drop_mask=set(slots) - set(kept))


def prune_frequency(model: MoEModel, stats: CalibStats, rho: float) -> ConsolidationPlan:
    """Keep the highest-frequency experts per layer; drop the rest."""
    return _prune(model, stats, rho, "usage_topk", "prune_frequency")


def prune_reap(model: MoEModel, stats: CalibStats, rho: float) -> ConsolidationPlan:
    """Keep the highest contribution-score experts per layer."""
    return _prune(model, stats, rho, "reap_topk", "prune_reap")


def merge_msmoe(model: MoEModel, stats: CalibStats, rho: float) -> tuple[ConsolidationPlan, MoEModel]:
    """Layer-local merging: high-usage cores, nearest-core assignment, and
    usage-weighted averaging of each core's cluster, fused by
    fuse_weighted_average."""
    plan = consolidate(model, stats, rho, 1, "usage_topk")
    plan = replace(plan, policy="merge_msmoe", metadata={})
    fused = fuse_weighted_average(model, plan, stats)
    fused.metadata["fusion"] = "msmoe_usage_weighted"
    return plan, fused


def _fusion_weights(stats: CalibStats | None, cluster: list[Ref]) -> list[float]:
    counts = per_slot(stats.routed_count, cluster).tolist() if stats is not None else [0] * len(cluster)
    total = sum(counts)
    if total == 0:
        return [1.0 / len(cluster)] * len(cluster)
    return [c / total for c in counts]


def fuse_weighted_average(model: MoEModel, plan: ConsolidationPlan, stats: CalibStats | None = None) -> MoEModel:
    """A derived copy of `model` whose prototypes hold the usage-weighted
    average of their clusters (uniform weights without stats), accumulated
    in float64 in cluster order; the reassignment map is left unchanged.
    metadata["provenance"] lists each fused slot's (source, weight) pairs."""
    if stats is not None:
        stats.check_covers(model)
    plan.check_covers(model)  # before the stats are read by the plan's slots
    provenance = sorted(
        [list(proto), [[list(src), w] for src, w in zip(members, _fusion_weights(stats, members))]]
        for proto, members in plan.clusters().items())

    def block(l: int) -> np.ndarray:
        out = model.layers[l].block.copy()
        for (pl, pi), sources in provenance:
            if pl == l:
                out[pi] = sum(w * model.row(src).astype(np.float64) for src, w in sources)
        return out

    return derive(model, plan, block, fusion="weighted_average", provenance=provenance)
