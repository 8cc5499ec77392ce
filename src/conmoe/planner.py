"""Consolidation planner, in the paper's two steps per scope: keep the
prototypes a policy ranks highest within the budget, reading stats only
by the checked gather model.per_slot, then assign each slot its nearest
prototype in the one distance table the scope builds; plus the objective."""

from __future__ import annotations

import math

import numpy as np

from .calibration import CalibStats, contribution
from .geometry import DistanceTable, distance_matrix, minmax_norm, nearest
from .model import MoEModel, Ref, per_slot
from .plan import SELECTION_POLICIES, ConsolidationPlan, check_rho, scope_partition


def budget(rho: float, pool_size: int) -> int:
    """max(1, round((1 - rho) * pool)); round is half away from zero."""
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    check_rho(rho)
    return max(1, math.floor((1.0 - rho) * pool_size + 0.5))


def score(stats: CalibStats, table: DistanceTable) -> np.ndarray:
    """Per scope row, the product of min-max normalized contribution and
    replaceability, both normalized within the scope."""
    _, replace = nearest(table)
    return minmax_norm(per_slot(contribution(stats), table.scope)) * minmax_norm(replace)


def policy_keys(policy: str, stats: CalibStats, refs: list[Ref], table: DistanceTable | None):
    """The per-ref ranking key of a policy; the largest keys are kept. Only
    usage_topk and reap_topk rank without a table; a given table's scope is refs."""
    if table is not None and list(refs) != table.scope:
        raise ValueError(f"refs are not the scope of the {len(table.scope)}-expert distance table, in order")
    if policy == "usage_topk":
        return per_slot(stats.routed_count, refs)
    if policy == "reap_topk":
        return per_slot(contribution(stats), refs)
    if policy == "distance_only":
        return nearest(table)[1]
    if policy == "fixed_k":
        return layer_places(score(stats, table), refs)
    if policy == "adaptive":
        return score(stats, table)
    raise ValueError(f"unknown policy: {policy!r}")


def layer_places(keys, refs: list[Ref]) -> np.ndarray:
    """Minus each ref's rank within its own layer by key, largest first,
    ties to the lower index. Over whole layers, the k largest places keep
    k // layers refs per layer and one more in each of the earliest k % layers."""
    keys = [key for key, _ in zip(np.asarray(keys, dtype=np.float64).tolist(), refs, strict=True)]
    places = np.empty(len(refs))
    for layer in {r[0] for r in refs}:
        rows = sorted((i for i, r in enumerate(refs) if r[0] == layer), key=lambda i: (-keys[i], refs[i]))
        places[rows] = -np.arange(len(rows))
    return places


def select_prototypes(keys, refs: list[Ref], k: int) -> list[Ref]:
    """The k refs with the largest keys, ties to the lowest (layer, index)."""
    if k > len(refs):
        raise ValueError("budget exceeds scope pool size")
    ranked = sorted(zip((-np.asarray(keys, dtype=np.float64)).tolist(), refs, strict=True))
    return sorted(r for _, r in ranked[:k])


def assign(prototypes: list[Ref], table: DistanceTable) -> dict[Ref, Ref]:
    """Each slot to its nearest prototype; ties go to the ascending
    (layer, index) prototype. Prototypes map to themselves, also when an
    exact duplicate of one is a prototype too."""
    ordered = sorted(prototypes)
    cols, _ = nearest(table, [table.index_of(p) for p in ordered])
    chosen = set(ordered)
    return {
        ref: ref if ref in chosen else table.scope[c]
        for ref, c in zip(table.scope, cols)
    }


def consolidate(model: MoEModel, stats: CalibStats, rho: float, scope_size: int = 1,
                policy: str = "adaptive") -> ConsolidationPlan:
    """Full planner, per scope: keep the budget's prototypes by the
    policy's keys, then assign every slot to its nearest prototype in the
    same distance table. A scope whose budget keeps every expert maps to
    itself and builds no table, so rho and policy are checked up front."""
    check_rho(rho)
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"unknown policy: {policy!r}")
    stats.check_covers(model)
    assignment: dict[Ref, Ref] = {}
    for layers in scope_partition(model.spec.num_layers, scope_size):
        slots = model.slots(layers)
        k = budget(rho, len(slots))
        if k == len(slots):
            assignment.update(zip(slots, slots))
            continue
        table = distance_matrix(model, slots)
        keys = policy_keys(policy, stats, slots, table)
        prototypes = select_prototypes(keys, slots, k)
        assignment.update(assign(prototypes, table))
    return ConsolidationPlan(rho=rho, scope_size=scope_size, policy=policy, assignment=assignment)


def objective(prototypes: list[Ref], table: DistanceTable, weights: np.ndarray) -> float:
    """Importance-weighted sum of nearest-prototype distances, in row order."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(table.scope),):
        raise ValueError("weight vector does not match scope")
    _, dists = nearest(table, [table.index_of(p) for p in prototypes])
    total = 0.0
    for w, d in zip(weights.tolist(), dists.tolist()):
        total += w * d
    return total
