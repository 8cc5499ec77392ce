"""Consolidation plans: the deterministic slot-to-prototype reassignment
map, from which the retained pool and its clusters are derived."""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Ref

SELECTION_POLICIES = ("adaptive", "fixed_k", "usage_topk", "reap_topk", "distance_only")

POLICIES = ("identity", *SELECTION_POLICIES, "prune_frequency", "prune_reap", "merge_msmoe")


def check_rho(rho: float) -> None:
    """The reduction ratio of every plan, config and budget."""
    if not (0.0 <= rho < 1.0):
        raise ValueError("rho must be in [0, 1)")


def scope_partition(num_layers: int, scope_size: int) -> list[list[int]]:
    """Consecutive groups of scope_size layers; the last may be ragged."""
    if not (1 <= scope_size <= num_layers):
        raise ValueError("scope_size must be in [1, num_layers]")
    return [
        list(range(start, min(start + scope_size, num_layers)))
        for start in range(0, num_layers, scope_size)
    ]


@dataclass
class ConsolidationPlan:
    """The reuse map: each (layer, expert) slot's prototype, plus the
    dropped slots. Validated on construction; the retained pool and its
    clusters are derived from the map."""

    rho: float
    scope_size: int
    policy: str
    assignment: dict[Ref, Ref]
    drop_mask: set[Ref] = field(default_factory=set)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    @property
    def is_pruning(self) -> bool:
        return bool(self.drop_mask)

    def clusters(self) -> dict[Ref, list[Ref]]:
        """Prototype-centered partition of all non-dropped slots, by
        ascending prototype."""
        out: dict[Ref, list[Ref]] = {}
        for slot in sorted(self.assignment):
            if slot not in self.drop_mask:
                out.setdefault(self.assignment[slot], []).append(slot)
        return dict(sorted(out.items()))

    def distinct_prototypes(self) -> set[Ref]:
        """The retained pool: the image of the non-dropped slots."""
        return {t for s, t in self.assignment.items() if s not in self.drop_mask}

    def check_covers(self, model):
        """A plan built for a different pool shape is rejected on use. Its keys
        are a full grid (validate), so their count and far corner fix its shape."""
        shape = (model.spec.num_layers, model.spec.num_experts)
        if len(self.assignment) != shape[0] * shape[1] or (shape[0] - 1, shape[1] - 1) not in self.assignment:
            grid = tuple(max(ref[k] for ref in self.assignment) + 1 for k in (0, 1))
            raise ValueError(f"plan does not cover this model (plan grid {grid}, model grid {shape})")

    def validate(self):
        check_rho(self.rho)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy: {self.policy!r}")
        slots = self.assignment
        num_layers = max(l for l, _ in slots) + 1 if slots else 0
        # distinct non-negative keys, as many as the largest key's grid holds
        if not slots or min(min(ref) for ref in slots) < 0 or len(slots) != (
                num_layers * (max(i for _, i in slots) + 1)):
            raise ValueError("assignment is not the full (layer, expert) grid")
        scope_of = {l: k for k, layers in enumerate(scope_partition(num_layers, self.scope_size))
                    for l in layers}
        for ref in self.drop_mask:
            if slots.get(ref) != ref:
                raise ValueError(f"dropped slot {ref} is not a slot that maps to itself")
        for slot, target in slots.items():
            if slot in self.drop_mask:
                continue
            # a retained prototype of the slot's own scope
            if (slots.get(target) != target or target in self.drop_mask
                    or scope_of[target[0]] != scope_of[slot[0]]):
                raise ValueError(f"dangling assignment: {slot} -> {target}")
