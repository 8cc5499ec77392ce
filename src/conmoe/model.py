"""MoE model types, forward operators, and synthetic model generation.

The model is a residual stack of routed-expert layers: h <- h + MoE(h).
Routers, and only routers, decide which experts run; consolidation never
touches them. The forward runs a batch of tokens one layer at a time,
grouped by slot, and sums each token's terms in ascending slot order, so
consolidated and materialized forwards can be compared bit-exactly.
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
    expert_distance. MoELayer.expert returns views."""

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
class PlanArrays:
    """A plan lowered to per-layer arrays, each (num_layers, num_experts):
    slot (l, i) runs expert (proto_layer[l, i], proto_index[l, i]) unless
    drop[l, i]."""

    proto_layer: np.ndarray
    proto_index: np.ndarray
    drop: np.ndarray


def lower_plan(model: MoEModel, plan=None) -> PlanArrays:
    """The arrays of a ConsolidationPlan; with no plan every slot runs
    itself. A PlanArrays passes through unchanged."""
    if isinstance(plan, PlanArrays):
        return plan
    num_layers, n = model.spec.num_layers, model.spec.num_experts
    proto_layer = np.repeat(np.arange(num_layers)[:, None], n, axis=1)
    proto_index = np.tile(np.arange(n), (num_layers, 1))
    drop = np.zeros((num_layers, n), dtype=bool)
    if plan is not None:
        plan.check_covers(model)
        for (l, i), (pl, pi) in plan.assignment.items():
            proto_layer[l, i], proto_index[l, i] = pl, pi
        for l, i in plan.drop_mask:
            drop[l, i] = True
    return PlanArrays(proto_layer, proto_index, drop)


def silu(x: np.ndarray) -> np.ndarray:
    # overflow-safe x * sigmoid(x)
    z = np.exp(-np.abs(x))
    return x * np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _token_batch(h: np.ndarray, hidden_dim: int) -> np.ndarray:
    """A (hidden,) token or a (count, hidden) batch, as a float64 batch."""
    x = np.asarray(h, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != hidden_dim:
        raise ValueError("hidden vector dimension mismatch")
    return x.reshape(-1, hidden_dim)


def slot_groups(model: MoEModel, layer_idx: int, x: np.ndarray, plan=None):
    """Route the (count, hidden) batch x through one layer and yield, per
    slot in ascending order, (slot, token rows, routing weights, outputs of
    the slot's prototype on those rows).

    Each token picks the top-k original slots by router logit (ties to the
    lower index). Drop-masked slots leave before the softmax, so the weights
    are a softmax over the surviving selected logits; a token whose every
    selected slot is dropped is in no group. Tokens are grouped by slot, not
    by prototype, so a plan forward issues the same GEMMs as a plain forward
    through the materialized model.
    """
    arrays = lower_plan(model, plan)
    layer = model.layers[layer_idx]
    logits = x @ layer.router.astype(np.float64).T
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite router logits")
    top = np.argsort(-logits, axis=1, kind="stable")[:, :model.spec.top_k]
    keep = ~arrays.drop[layer_idx][top]
    sel = np.where(keep, np.take_along_axis(logits, top, axis=1), -np.inf)
    peak = sel.max(axis=1, keepdims=True)
    peak[~keep.any(axis=1)] = 0.0  # nothing survives: every exp below is 0
    ex = np.exp(sel - peak)
    # a surviving row sums to >= 1 (its peak term is exp(0)); an empty one to 0
    weights = ex / np.maximum(ex.sum(axis=1, keepdims=True), 1.0)
    for i in range(model.spec.num_experts):
        # a token selects a slot at most once, so its rows come out unique and ascending
        tok, pos = np.nonzero((top == i) & keep)
        if tok.size == 0:
            continue
        src = model.layers[arrays.proto_layer[layer_idx, i]]
        j = arrays.proto_index[layer_idx, i]
        gate, up, down = (w[j].astype(np.float64) for w in (src.gate, src.up, src.down))
        xs = x[tok]
        yield i, tok, weights[tok, pos], (silu(xs @ gate.T) * (xs @ up.T)) @ down.T


def moe_forward(model: MoEModel, layer_idx: int, h: np.ndarray, plan=None) -> np.ndarray:
    """One MoE layer on a (hidden,) token or a (count, hidden) batch,
    returning the same shape. A plan (a ConsolidationPlan or its
    PlanArrays) redirects each selected slot to its prototype and drops
    masked slots; with no plan every slot is its own prototype.

    Each token sums its slot terms in ascending slot order, so a plan
    forward is bit-identical to a plain forward through the materialized
    model. A token's last bits can depend on which tokens share its slot
    groups.
    """
    x = _token_batch(h, model.spec.hidden_dim)
    out = np.zeros_like(x)
    for _, tok, w, y in slot_groups(model, layer_idx, x, plan):
        out[tok] = out[tok] + w[:, None] * y
    return out.reshape(np.shape(h))


def model_forward_trace(model: MoEModel, h0: np.ndarray, plan=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Residual stack h <- h + MoE(h) per layer on a token or a batch: the
    final state and each layer's MoE output, in the shape of h0."""
    x = _token_batch(h0, model.spec.hidden_dim)
    arrays = lower_plan(model, plan)
    outputs = []
    for l in range(model.spec.num_layers):
        out = moe_forward(model, l, x, arrays)
        outputs.append(out.reshape(np.shape(h0)))
        x = x + out
    return x.reshape(np.shape(h0)), outputs


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
            _copy_expert(slot, model.expert(plan.assignment[ref]))
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
