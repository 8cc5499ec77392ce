"""Consolidation planner: scope partitioning, prototype budgets, scoring,
selection policies, nearest-prototype assignment, and the consolidation
objective with a brute-force oracle."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibStats, contribution, frequency
from .geometry import DEFAULT_EPS, DistanceTable, distance_matrix, minmax_norm, nearest
from .model import MoEModel, Ref
from .plan import SELECTION_POLICIES, ConsolidationPlan, Scope, scope_partition


@dataclass(frozen=True)
class ScopeConfig:
    rho: float
    scope_size: int = 1
    policy: str = "adaptive"
    eps: float = DEFAULT_EPS

    def validate(self, num_layers: int):
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must be in [0, 1)")
        if not (1 <= self.scope_size <= num_layers):
            raise ValueError("scope_size must be in [1, num_layers]")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be finite and > 0")
        if self.policy not in SELECTION_POLICIES:
            raise ValueError(f"unknown policy: {self.policy!r}")


@dataclass
class ScoreRow:
    contribution: float
    replaceability: float
    contribution_norm: float
    replaceability_norm: float
    score: float


@dataclass
class ScoreTable:
    rows: dict[Ref, ScoreRow] = field(default_factory=dict)

    def score(self, ref: Ref) -> float:
        return self.rows[ref].score


def budget(rho: float, pool_size: int) -> int:
    """max(1, round((1 - rho) * pool)); round is half away from zero."""
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if not (0.0 <= rho < 1.0):
        raise ValueError("rho must be in [0, 1)")
    return max(1, math.floor((1.0 - rho) * pool_size + 0.5))


def score(stats: CalibStats, table: DistanceTable, eps: float = DEFAULT_EPS) -> ScoreTable:
    """Product of min-max normalized contribution and replaceability,
    both normalized within the scope."""
    refs = table.scope
    if len(refs) < 2:
        raise ValueError("scoring undefined for a singleton scope")
    contrib = np.array([contribution(stats, r) for r in refs])
    _, replace = nearest(table)
    contrib_n = minmax_norm(contrib, eps)
    replace_n = minmax_norm(replace, eps)
    out = ScoreTable()
    for idx, ref in enumerate(refs):
        out.rows[ref] = ScoreRow(
            contribution=float(contrib[idx]),
            replaceability=float(replace[idx]),
            contribution_norm=float(contrib_n[idx]),
            replaceability_norm=float(replace_n[idx]),
            score=float(contrib_n[idx] * replace_n[idx]),
        )
    return out


def _top_k(refs: list[Ref], key, k: int) -> list[Ref]:
    """Largest-k by key; ties broken by ascending (layer, index)."""
    ranked = sorted(refs, key=lambda r: (-key(r), r))
    return sorted(ranked[:k])


def select_prototypes(
    scores: ScoreTable,
    stats: CalibStats,
    table: DistanceTable,
    k: int,
    policy: str,
    layers: list[int] | None = None,
) -> list[Ref]:
    refs = table.scope
    if k > len(refs):
        raise ValueError("budget exceeds scope pool size")
    if policy == "adaptive":
        return _top_k(refs, scores.score, k)
    if policy == "fixed_k":
        if layers is None:
            layers = sorted({r[0] for r in refs})
        base, rem = divmod(k, len(layers))
        chosen: list[Ref] = []
        for pos, layer in enumerate(sorted(layers)):
            layer_refs = [r for r in refs if r[0] == layer]
            quota = base + (1 if pos < rem else 0)
            if quota > len(layer_refs):
                raise ValueError("per-layer budget exceeds layer pool size")
            chosen.extend(_top_k(layer_refs, scores.score, quota))
        return sorted(chosen)
    if policy == "usage_topk":
        return _top_k(refs, lambda r: frequency(stats, r), k)
    if policy == "reap_topk":
        return _top_k(refs, lambda r: contribution(stats, r), k)
    if policy == "distance_only":
        return _top_k(refs, lambda r: scores.rows[r].replaceability, k)
    raise ValueError(f"unknown policy: {policy!r}")


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
    """Full planner: partition into scopes, score, select under budget,
    and assign every slot to its nearest prototype."""
    config.validate(model.spec.num_layers)
    stats.check_covers(model)
    scopes: list[Scope] = []
    assignment: dict[Ref, Ref] = {}
    for layers in scope_partition(model.spec.num_layers, config.scope_size):
        refs = [(l, i) for l in layers for i in range(model.spec.num_experts)]
        k = budget(config.rho, len(refs))
        if k == len(refs):
            prototypes = list(refs)
            mapping = {r: r for r in refs}
        else:
            table = distance_matrix(model, refs, config.eps)
            scores = score(stats, table, config.eps)
            prototypes = select_prototypes(scores, stats, table, k, config.policy, layers)
            mapping = assign(prototypes, table)
        scopes.append(Scope(layers=list(layers), prototypes=prototypes))
        assignment.update(mapping)
    plan = ConsolidationPlan(
        rho=config.rho,
        scope_size=config.scope_size,
        policy=config.policy,
        scopes=scopes,
        assignment=assignment,
        metadata={
            "eps": config.eps,
            "reap_score": "aliased to routing-conditioned contribution",
        },
    )
    plan.validate()
    return plan


def importance_weights(stats: CalibStats, refs: list[Ref]) -> np.ndarray:
    """The objective's per-slot weights: each slot's contribution."""
    return np.array([contribution(stats, r) for r in refs])


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


def brute_force_optimal(
    table: DistanceTable,
    k: int,
    weights: np.ndarray,
    cap: int = 10**6,
) -> tuple[list[Ref], float]:
    """Exhaustive search over all size-k prototype sets; ties resolved by
    lexicographically smallest set. Refuses to enumerate past the cap."""
    n = len(table.scope)
    if not (1 <= k <= n):
        raise ValueError("k must be in [1, scope size]")
    if math.comb(n, k) > cap:
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
