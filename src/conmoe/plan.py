"""Consolidation plans: prototype sets per scope plus the deterministic
slot-to-prototype reassignment map."""

from __future__ import annotations

from dataclasses import dataclass, field

Ref = tuple[int, int]

PLAN_VERSION = 1

SELECTION_POLICIES = ("adaptive", "fixed_k", "usage_topk", "reap_topk", "distance_only")

POLICIES = ("identity", *SELECTION_POLICIES, "prune_frequency", "prune_reap", "merge_msmoe")


def scope_partition(num_layers: int, scope_size: int) -> list[list[int]]:
    """Consecutive non-overlapping layer groups; the last may be ragged."""
    if scope_size < 1:
        raise ValueError("scope_size must be >= 1")
    return [
        list(range(start, min(start + scope_size, num_layers)))
        for start in range(0, num_layers, scope_size)
    ]


@dataclass
class Scope:
    layers: list[int]
    prototypes: list[Ref]  # deduplicated, ascending (layer, index)


@dataclass
class ConsolidationPlan:
    rho: float
    scope_size: int
    policy: str
    scopes: list[Scope]
    assignment: dict[Ref, Ref]
    drop_mask: set[Ref] = field(default_factory=set)
    metadata: dict = field(default_factory=dict)
    version: int = PLAN_VERSION

    @property
    def is_pruning(self) -> bool:
        return bool(self.drop_mask)

    def slots(self) -> list[Ref]:
        return sorted(self.assignment)

    def clusters(self) -> dict[Ref, list[Ref]]:
        """Prototype-centered partition of all non-dropped slots."""
        out: dict[Ref, list[Ref]] = {}
        for scope in self.scopes:
            for p in scope.prototypes:
                out[p] = []
        for slot in self.slots():
            if slot in self.drop_mask:
                continue
            out[self.assignment[slot]].append(slot)
        return out

    def distinct_prototypes(self) -> set[Ref]:
        out: set[Ref] = set()
        for scope in self.scopes:
            out.update(scope.prototypes)
        return out

    def check_covers(self, model):
        """A plan built for a different pool shape is rejected on use."""
        expected = set(model.slots())
        if set(self.assignment) != expected:
            raise ValueError(
                "plan does not cover this model "
                f"({len(self.assignment)} slots, model has {len(expected)})"
            )

    def validate(self):
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must be in [0, 1)")
        if self.scope_size < 1:
            raise ValueError("scope_size must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy: {self.policy!r}")
        scope_of_layer: dict[int, Scope] = {}
        for scope in self.scopes:
            if len(set(scope.prototypes)) != len(scope.prototypes):
                raise ValueError("duplicate prototype reference in scope")
            if sorted(scope.prototypes) != scope.prototypes:
                raise ValueError("prototypes not in canonical order")
            for p in scope.prototypes:
                if p[0] not in scope.layers:
                    raise ValueError("prototype outside its scope's layers")
            overlap = scope_of_layer.keys() & set(scope.layers)
            if overlap:
                raise ValueError(f"layers {sorted(overlap)} appear in two scopes")
            scope_of_layer.update(dict.fromkeys(scope.layers, scope))
        scope_of_proto = {p: scope for scope in self.scopes for p in scope.prototypes}
        for slot, target in self.assignment.items():
            if slot[0] not in scope_of_layer:
                raise ValueError(f"slot {slot} outside all scopes")
            if slot in self.drop_mask:
                if target != slot:
                    raise ValueError("dropped slots must map to themselves")
                continue
            if scope_of_proto.get(target) is not scope_of_layer[slot[0]]:
                raise ValueError(f"dangling assignment: {slot} -> {target}")
        for p in scope_of_proto:
            if p not in self.drop_mask and self.assignment.get(p) != p:
                raise ValueError(f"prototype {p} does not map to itself")
        for ref in self.drop_mask:
            if ref not in self.assignment:
                raise ValueError(f"drop mask references unknown slot {ref}")
