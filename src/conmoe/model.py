"""MoE model types, forward operators, and synthetic model generation.

The model is a residual stack of routed-expert layers: h <- h + MoE(h).
Routers, and only routers, decide which experts run; consolidation never
touches them. All summations run in a fixed order (ascending slot index)
so consolidated and materialized forwards can be compared bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SUPPORTED_ACTIVATIONS = ("silu",)

# (layer, expert index) slot reference
Ref = tuple[int, int]


@dataclass(frozen=True)
class ModelSpec:
    num_layers: int
    num_experts: int
    hidden_dim: int
    intermediate_dim: int
    top_k: int
    activation: str = "silu"

    def validate(self):
        if self.num_layers < 1:
            raise ValueError("empty model")
        if self.num_experts < 1:
            raise ValueError("need at least one expert per layer")
        if not (1 <= self.top_k <= self.num_experts):
            raise ValueError("top_k must satisfy 1 <= top_k <= num_experts")
        if self.hidden_dim < 1 or self.intermediate_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.activation not in SUPPORTED_ACTIVATIONS:
            raise ValueError(f"unsupported activation: {self.activation!r}")

    def to_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "num_experts": self.num_experts,
            "hidden_dim": self.hidden_dim,
            "intermediate_dim": self.intermediate_dim,
            "top_k": self.top_k,
            "activation": self.activation,
        }


@dataclass
class ExpertWeights:
    """The three projections of one gated FFN expert: the argument type of
    expert_forward and expert_distance. MoELayer.expert returns views."""

    gate: np.ndarray  # (intermediate, hidden)
    up: np.ndarray    # (intermediate, hidden)
    down: np.ndarray  # (hidden, intermediate)


PROJECTIONS = ("gate", "up", "down")


@dataclass
class MoELayer:
    """A layer's experts stacked per projection, float32: gate and up
    (num_experts, intermediate, hidden), down (num_experts, hidden,
    intermediate), router (num_experts, hidden)."""

    gate: np.ndarray
    up: np.ndarray
    down: np.ndarray
    router: np.ndarray

    def expert(self, i: int) -> ExpertWeights:
        return ExpertWeights(self.gate[i], self.up[i], self.down[i])

    def copy(self) -> "MoELayer":
        return MoELayer(self.gate.copy(), self.up.copy(), self.down.copy(), self.router.copy())

    def validate(self, spec: ModelSpec):
        n, f, h = spec.num_experts, spec.intermediate_dim, spec.hidden_dim
        shapes = {"gate": (n, f, h), "up": (n, f, h), "down": (n, h, f), "router": (n, h)}
        for name, shape in shapes.items():
            w = getattr(self, name)
            if w.shape != shape:
                raise ValueError(f"{name} shape {w.shape} does not match spec {shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"non-finite {name} weights")


@dataclass
class MoEModel:
    spec: ModelSpec
    layers: list[MoELayer]
    metadata: dict = field(default_factory=dict)

    def validate(self):
        self.spec.validate()
        if len(self.layers) != self.spec.num_layers:
            raise ValueError("layer count mismatch")
        for layer in self.layers:
            layer.validate(self.spec)

    def expert(self, ref: Ref) -> ExpertWeights:
        layer, idx = ref
        return self.layers[layer].expert(idx)

    def copy(self) -> "MoEModel":
        return MoEModel(self.spec, [layer.copy() for layer in self.layers], dict(self.metadata))

    def slots(self) -> list[Ref]:
        return [
            (l, i)
            for l in range(self.spec.num_layers)
            for i in range(self.spec.num_experts)
        ]

    def equal(self, other: "MoEModel") -> bool:
        return self.spec == other.spec and all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for a, b in zip(self.layers, other.layers)
            for name in (*PROJECTIONS, "router")
        )


@dataclass(frozen=True)
class TopKSelection:
    indices: tuple[int, ...]
    weights: tuple[float, ...]


def silu(x: np.ndarray) -> np.ndarray:
    # overflow-safe x * sigmoid(x)
    z = np.exp(-np.abs(x))
    return x * np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def expert_forward(e: ExpertWeights, h: np.ndarray) -> np.ndarray:
    """down @ (silu(gate @ h) * (up @ h)), computed in float64."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (e.gate.shape[1],):
        raise ValueError("hidden vector dimension mismatch")
    pre = e.gate.astype(np.float64) @ h
    lin = e.up.astype(np.float64) @ h
    return e.down.astype(np.float64) @ (silu(pre) * lin)


def _route(router: np.ndarray, h: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest router logits, descending (ties to the lower index):
    (slot indices, logits)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = router.shape[0]
    if k > n:
        raise ValueError("k exceeds expert count")
    logits = router.astype(np.float64) @ np.asarray(h, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite router logits")
    # descending by logit, ascending index on ties
    idx = np.lexsort((np.arange(n), -logits))[:k]
    return idx, logits[idx]


def _softmax(logits: np.ndarray) -> np.ndarray:
    ex = np.exp(logits - logits.max())
    return ex / ex.sum()


def router_topk(router: np.ndarray, h: np.ndarray, k: int) -> TopKSelection:
    """Pick the k largest router logits (ties to the lower index) and
    softmax-normalize over the selected logits."""
    idx, sel = _route(router, h, k)
    return TopKSelection(tuple(idx.tolist()), tuple(_softmax(sel).tolist()))


def moe_terms(model: MoEModel, layer_idx: int, h: np.ndarray, plan=None) -> list[tuple[int, float, np.ndarray]]:
    """Per-slot terms (slot, routing weight, expert output) of one MoE layer,
    in ascending slot order.

    Routing picks the top-k of the original slots; drop-masked slots are
    removed before the softmax, so the weights are a softmax over the
    surviving selected logits. Each surviving slot is evaluated with its
    plan prototype (with no plan, with itself).
    """
    layer = model.layers[layer_idx]
    idx, sel = _route(layer.router, h, model.spec.top_k)
    if plan is not None:
        keep = [j for j, i in enumerate(idx) if (layer_idx, int(i)) not in plan.drop_mask]
        if not keep:
            return []
        idx, sel = idx[keep], sel[keep]
    terms = []
    for i, w in sorted(zip(idx.tolist(), _softmax(sel).tolist())):
        expert = layer.expert(i) if plan is None else model.expert(plan.assignment_for((layer_idx, i)))
        terms.append((i, w, expert_forward(expert, h)))
    return terms


def sum_terms(terms: list[tuple[int, float, np.ndarray]], hidden_dim: int) -> np.ndarray:
    """Weighted sum of per-slot terms, in the order given (ascending slot)."""
    out = np.zeros(hidden_dim, dtype=np.float64)
    for _, w, y in terms:
        out = out + w * y
    return out


def moe_forward(model: MoEModel, layer_idx: int, h: np.ndarray, plan=None) -> np.ndarray:
    """One MoE layer. A plan redirects each selected slot to its prototype
    and drops masked slots; with no plan every slot is its own prototype.

    Summing per slot in ascending index keeps a plan forward bit-identical
    to a plain forward through the materialized model; grouping slots that
    share a prototype into one aggregated coefficient is the same sum
    mathematically (see aggregate_coefficients).
    """
    return sum_terms(moe_terms(model, layer_idx, h, plan), model.spec.hidden_dim)


def aggregate_coefficients(model: MoEModel, layer_idx: int, plan, h: np.ndarray) -> dict[Ref, float]:
    """Per-prototype coefficient: the sum of routing weights over selected
    slots assigned to that prototype."""
    coeffs: dict[Ref, float] = {}
    for i, w, _ in moe_terms(model, layer_idx, h, plan):
        proto = plan.assignment_for((layer_idx, i))
        coeffs[proto] = coeffs.get(proto, 0.0) + w
    return coeffs


def model_forward_trace(model: MoEModel, h0: np.ndarray, plan=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Residual stack h <- h + MoE(h) per layer: the final state and each
    layer's MoE output."""
    h = np.asarray(h0, dtype=np.float64)
    if h.shape != (model.spec.hidden_dim,):
        raise ValueError("hidden vector dimension mismatch")
    outputs = []
    for l in range(model.spec.num_layers):
        out = moe_forward(model, l, h, plan)
        outputs.append(out)
        h = h + out
    return h, outputs


def model_forward(model: MoEModel, h0: np.ndarray, plan=None) -> np.ndarray:
    """Final state of the residual stack (see model_forward_trace)."""
    return model_forward_trace(model, h0, plan)[0]


def materialize(model: MoEModel, plan) -> MoEModel:
    """Expand a plan into the original architecture by copying each slot's
    assigned prototype weights into the slot. Routers are untouched.
    Drop-masked slots get zero weights."""
    plan.check_covers(model)
    out = model.copy()
    zeroed = []
    for ref in model.slots():
        slot = out.expert(ref)
        if ref in plan.drop_mask:
            zeroed.append(list(ref))
            for w in (slot.gate, slot.up, slot.down):
                w[...] = 0.0
        else:
            _copy_expert(slot, model.expert(plan.assignment_for(ref)))
    out.metadata["materialized_from_policy"] = plan.policy
    if zeroed:
        out.metadata["zeroed_slots"] = zeroed
    return out


def _copy_expert(dst: ExpertWeights, src: ExpertWeights) -> None:
    for name in PROJECTIONS:
        getattr(dst, name)[...] = getattr(src, name)


@dataclass(frozen=True)
class DupConfig:
    """Planted redundancy for synthetic models.

    mode "within" copies the first half of each layer's experts into the
    second half (expert j duplicates expert j + N/2); "cross" copies each
    even layer's experts into the following layer; "both" does both (cross
    copies propagate the within-layer pairing). noise adds zero-mean
    gaussian perturbation of the given scale to every planted copy.
    """

    mode: str = "none"  # none | within | cross | both
    noise: float = 0.0

    def validate(self):
        if self.mode not in ("none", "within", "cross", "both"):
            raise ValueError(f"unknown dup mode: {self.mode!r}")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ValueError("dup noise must be finite and >= 0")


def _random_layer(rng: np.random.Generator, spec: ModelSpec, scale: float) -> MoELayer:
    """Each expert's gate, up and down, then the router, drawn in that order."""
    n, f, h = spec.num_experts, spec.intermediate_dim, spec.hidden_dim
    layer = MoELayer(
        gate=np.empty((n, f, h), dtype=np.float32),
        up=np.empty((n, f, h), dtype=np.float32),
        down=np.empty((n, h, f), dtype=np.float32),
        router=np.empty((n, h), dtype=np.float32),
    )
    for i in range(n):
        for w in (layer.gate, layer.up, layer.down):
            w[i] = rng.standard_normal(w.shape[1:]) * scale
    layer.router[...] = rng.standard_normal((n, h)) * scale
    return layer


def _plant_copy(rng: np.random.Generator, dst: ExpertWeights, src: ExpertWeights, noise: float) -> None:
    _copy_expert(dst, src)
    if noise > 0:
        for w in (dst.gate, dst.up, dst.down):
            w += (rng.standard_normal(w.shape) * noise).astype(np.float32)


def gen_synthetic(spec: ModelSpec, seed: int, dup: DupConfig = DupConfig()) -> tuple[MoEModel, dict[Ref, Ref]]:
    """Deterministic random model; returns (model, planted duplicate map).

    The duplicate map sends each planted copy to its source slot; with
    noise=0 the mapped pair is bit-identical.
    """
    spec.validate()
    dup.validate()
    if dup.mode in ("within", "both") and spec.num_experts < 2:
        raise ValueError("within-layer duplicates need at least 2 experts")
    if dup.mode in ("cross", "both") and spec.num_layers < 2:
        raise ValueError("cross-layer duplicates need at least 2 layers")

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(spec.hidden_dim)
    model = MoEModel(spec=spec, layers=[_random_layer(rng, spec, scale) for _ in range(spec.num_layers)])

    dup_map: dict[Ref, Ref] = {}
    if dup.mode in ("within", "both"):
        half = spec.num_experts // 2
        for l in range(spec.num_layers):
            for j in range(half):
                _plant_copy(rng, model.expert((l, j + half)), model.expert((l, j)), dup.noise)
                dup_map[(l, j + half)] = (l, j)
    if dup.mode in ("cross", "both"):
        for l in range(1, spec.num_layers, 2):
            for i in range(spec.num_experts):
                _plant_copy(rng, model.expert((l, i)), model.expert((l - 1, i)), dup.noise)
                dup_map[(l, i)] = (l - 1, i)

    model.validate()
    return model, dup_map


def gen_tokens(count: int, hidden_dim: int, seed: int) -> np.ndarray:
    """Synthetic calibration/eval hidden vectors, standard normal."""
    if count < 1:
        raise ValueError("token count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, hidden_dim))
