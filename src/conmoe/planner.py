"""Consolidation planner, in the paper's two steps: select the reduced
expert pool per scope (budgets, scoring, selection policies), then choose
the reuse structure (nearest-prototype assignment); plus the consolidation
objective with a brute-force oracle."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .calibration import CalibStats, contribution
from .geometry import EPS, DistanceTable, distance_matrix, minmax_norm, nearest
from .model import MoEModel, Ref
from .plan import SELECTION_POLICIES, ConsolidationPlan, Scope, scope_partition

# the most prototype sets brute_force_optimal enumerates
ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class ScopeConfig:
    rho: float
    scope_size: int = 1
    policy: str = "adaptive"

    def validate(self, num_layers: int):
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must be in [0, 1)")
        scope_partition(num_layers, self.scope_size)  # rejects a scope_size out of range
        if self.policy not in SELECTION_POLICIES:
            raise ValueError(f"unknown policy: {self.policy!r}")


def budget(rho: float, pool_size: int) -> int:
    """max(1, round((1 - rho) * pool)); round is half away from zero."""
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if not (0.0 <= rho < 1.0):
        raise ValueError("rho must be in [0, 1)")
    return max(1, math.floor((1.0 - rho) * pool_size + 0.5))


def importance_weights(stats: CalibStats, refs: list[Ref]) -> np.ndarray:
    """The objective's per-slot weights: each slot's contribution."""
    return contribution(stats)[tuple(zip(*refs))]


def score(stats: CalibStats, table: DistanceTable) -> np.ndarray:
    """Per scope row, the product of min-max normalized contribution and
    replaceability, both normalized within the scope."""
    _, replace = nearest(table)
    return minmax_norm(importance_weights(stats, table.scope)) * minmax_norm(replace)


# The policies that rank by the distance table; the others read only stats.
TABLE_POLICIES = ("adaptive", "fixed_k", "distance_only")


def _keys(policy: str, stats: CalibStats, refs: list[Ref], table: DistanceTable | None):
    """The per-ref ranking key of a policy; the largest keys are kept."""
    if policy == "usage_topk":
        return stats.routed_count[tuple(zip(*refs))]
    if policy == "reap_topk":
        return importance_weights(stats, refs)
    if policy == "distance_only":
        return nearest(table)[1]
    return score(stats, table)


def _top_k(keys: list[float], refs: list[Ref], k: int) -> list[Ref]:
    """Largest-k by key; ties broken by ascending (layer, index)."""
    ranked = sorted(zip(keys, refs), key=lambda kr: (-kr[0], kr[1]))
    return sorted(r for _, r in ranked[:k])


def select_prototypes(keys, refs: list[Ref], k: int, per_layer: bool = False) -> list[Ref]:
    """The k refs with the largest keys. With per_layer, each layer of refs
    keeps k // layers of its own, the remainder going to the earliest layers."""
    if k > len(refs):
        raise ValueError("budget exceeds scope pool size")
    keys = np.asarray(keys, dtype=np.float64).tolist()
    if not per_layer:
        return _top_k(keys, refs, k)
    layers = sorted({r[0] for r in refs})
    base, rem = divmod(k, len(layers))
    chosen: list[Ref] = []
    for pos, layer in enumerate(layers):
        rows = [i for i, r in enumerate(refs) if r[0] == layer]
        quota = base + (1 if pos < rem else 0)
        if quota > len(rows):
            raise ValueError("per-layer budget exceeds layer pool size")
        chosen.extend(_top_k([keys[i] for i in rows], [refs[i] for i in rows], quota))
    return sorted(chosen)


def select_pool(model: MoEModel, stats: CalibStats,
                config: ScopeConfig) -> list[tuple[Scope, DistanceTable | None]]:
    """The reduced expert pool: per scope, the Scope holding its retained
    prototypes and the distance table they were ranked by. The table is None
    when the policy reads only stats or the scope keeps every expert."""
    config.validate(model.spec.num_layers)
    stats.check_covers(model)
    pool = []
    for layers in scope_partition(model.spec.num_layers, config.scope_size):
        refs = [(l, i) for l in layers for i in range(model.spec.num_experts)]
        k = budget(config.rho, len(refs))
        if k == len(refs):
            pool.append((Scope(layers=list(layers), prototypes=refs), None))
            continue
        table = distance_matrix(model, refs) if config.policy in TABLE_POLICIES else None
        keys = _keys(config.policy, stats, refs, table)
        prototypes = select_prototypes(keys, refs, k, per_layer=config.policy == "fixed_k")
        pool.append((Scope(layers=list(layers), prototypes=prototypes), table))
    return pool


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


def consolidate(model: MoEModel, stats: CalibStats, config: ScopeConfig) -> ConsolidationPlan:
    """Full planner: select the reduced pool, then assign every slot to its
    nearest prototype, reusing the table the selection ranked by."""
    assignment: dict[Ref, Ref] = {}
    for scope, table in select_pool(model, stats, config):
        refs = [(l, i) for l in scope.layers for i in range(model.spec.num_experts)]
        if table is None and len(scope.prototypes) < len(refs):
            table = distance_matrix(model, refs)  # the policy read only stats
        assignment.update(zip(refs, refs) if table is None else assign(scope.prototypes, table))
    return ConsolidationPlan(
        rho=config.rho,
        scope_size=config.scope_size,
        policy=config.policy,
        assignment=assignment,
        metadata={
            "eps": EPS,
            "reap_score": "aliased to routing-conditioned contribution",
        },
    )


def objective(prototypes: list[Ref], table: DistanceTable, weights: np.ndarray) -> float:
    """Importance-weighted sum of nearest-prototype distances."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(table.scope),):
        raise ValueError("weight vector does not match scope")
    return _cost(table, [table.index_of(p) for p in prototypes], weights)


def _cost(table: DistanceTable, cols, weights) -> float:
    """Weighted sum of each row's distance to its nearest column in cols,
    added up row by row in scope order."""
    _, dists = nearest(table, cols)
    total = 0.0
    for w, d in zip(weights.tolist(), dists.tolist()):
        total += w * d
    return total


def brute_force_optimal(table: DistanceTable, k: int, weights: np.ndarray) -> tuple[list[Ref], float]:
    """Exhaustive search over all size-k prototype sets; ties resolved by
    lexicographically smallest set. Refuses to enumerate more than
    ENUMERATION_CAP sets."""
    n = len(table.scope)
    if not (1 <= k <= n):
        raise ValueError("k must be in [1, scope size]")
    if math.comb(n, k) > ENUMERATION_CAP:
        raise ValueError("enumeration cap exceeded")
    weights = np.asarray(weights, dtype=np.float64)
    best_set = None
    best_val = None
    for combo in itertools.combinations(range(n), k):
        val = _cost(table, combo, weights)
        if best_val is None or val < best_val:
            best_val = val
            best_set = combo
    return [table.scope[i] for i in best_set], best_val
