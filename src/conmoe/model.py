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


PROJECTIONS = ("gate", "up", "down")


@dataclass
class MoELayer:
    """A layer's experts in the checkpoint payload layout, float32: block
    (num_experts, 3, intermediate * hidden) holds each expert's gate
    (intermediate, hidden), up (intermediate, hidden) and down (hidden,
    intermediate), row-major, in turn; router is (num_experts, hidden).
    MoEModel.row reads one expert's row."""

    block: np.ndarray
    router: np.ndarray


@dataclass
class MoEModel:
    spec: ModelSpec
    layers: list[MoELayer]
    metadata: dict = field(default_factory=dict)

    def validate(self):
        self.spec.validate()
        if len(self.layers) != self.spec.num_layers:
            raise ValueError("layer count mismatch")
        n, f, h = self.spec.num_experts, self.spec.intermediate_dim, self.spec.hidden_dim
        for layer in self.layers:
            for name, shape in (("block", (n, 3, f * h)), ("router", (n, h))):
                w = getattr(layer, name)
                if w.shape != shape:
                    raise ValueError(f"{name} shape {w.shape} does not match spec {shape}")
            for k, name in enumerate(PROJECTIONS):
                if not np.all(np.isfinite(layer.block[:, k])):
                    raise ValueError(f"non-finite {name} weights")
            if not np.all(np.isfinite(layer.router)):
                raise ValueError("non-finite router weights")

    def row(self, ref: Ref) -> np.ndarray:
        """The slot's (3, intermediate * hidden) block row, a view: its gate,
        up and down. The one place that maps a slot to its stored row."""
        return self.layers[ref[0]].block[ref[1]]

    def copy(self) -> "MoEModel":
        layers = [MoELayer(layer.block.copy(), layer.router.copy()) for layer in self.layers]
        return MoEModel(self.spec, layers, dict(self.metadata))

    def slots(self) -> list[Ref]:
        return [
            (l, i)
            for l in range(self.spec.num_layers)
            for i in range(self.spec.num_experts)
        ]


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


def token_rows(tokens: np.ndarray, hidden_dim: int) -> np.ndarray:
    """A non-empty (count, hidden) batch of calibration or eval tokens, as float64."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] == 0:
        raise ValueError("tokens must be a non-empty (count, hidden) array")
    if tokens.shape[1] != hidden_dim:
        raise ValueError("token dimension mismatch")
    return tokens


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
    if plan is not None:
        plan.check_covers(model)
    slots = [(layer_idx, i) for i in range(model.spec.num_experts)]
    protos = slots if plan is None else [plan.assignment[s] for s in slots]
    dropped = np.array([plan is not None and s in plan.drop_mask for s in slots])
    layer = model.layers[layer_idx]
    logits = x @ layer.router.astype(np.float64).T
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite router logits")
    top = np.argsort(-logits, axis=1, kind="stable")[:, :model.spec.top_k]
    keep = ~dropped[top]
    sel = np.where(keep, np.take_along_axis(logits, top, axis=1), -np.inf)
    peak = sel.max(axis=1, keepdims=True)
    peak[~keep.any(axis=1)] = 0.0  # nothing survives: every exp below is 0
    ex = np.exp(sel - peak)
    # a surviving row sums to >= 1 (its peak term is exp(0)); an empty one to 0
    weights = ex / np.maximum(ex.sum(axis=1, keepdims=True), 1.0)
    for i, proto in enumerate(protos):
        # a token selects a slot at most once, so its rows come out unique and ascending
        tok, pos = np.nonzero((top == i) & keep)
        if tok.size == 0:
            continue
        gate, up, down = model.row(proto).astype(np.float64)
        h = model.spec.hidden_dim
        xs = x[tok]
        y = (silu(xs @ gate.reshape(-1, h).T) * (xs @ up.reshape(-1, h).T)) @ down.reshape(h, -1).T
        yield i, tok, weights[tok, pos], y


def moe_forward(model: MoEModel, layer_idx: int, h: np.ndarray, plan=None) -> np.ndarray:
    """One MoE layer on a (hidden,) token or a (count, hidden) batch,
    returning the same shape. A ConsolidationPlan redirects each selected
    slot to its prototype and drops masked slots; with no plan every slot
    is its own prototype.

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
    outputs = []
    for l in range(model.spec.num_layers):
        out = moe_forward(model, l, x, plan)
        outputs.append(out.reshape(np.shape(h0)))
        x = x + out
    return x.reshape(np.shape(h0)), outputs


def model_forward(model: MoEModel, h0: np.ndarray, plan=None) -> np.ndarray:
    """Final state of the residual stack (see model_forward_trace)."""
    return model_forward_trace(model, h0, plan)[0]


def nest_lineage(metadata: dict, keys: tuple[str, ...], prior: str) -> dict:
    """The metadata a derived checkpoint starts from: the source's, less
    `keys` and `prior`. A source derived the same way (it has keys[0])
    keeps its lineage: those of its keys it has move under `prior`,
    nesting one level per earlier derivation."""
    out = {k: v for k, v in metadata.items() if k not in (*keys, prior)}
    if keys[0] in metadata:
        out[prior] = {k: metadata[k] for k in (*keys, prior) if k in metadata}
    return out


def materialize(model: MoEModel, plan) -> MoEModel:
    """Expand a plan into the original architecture by copying each slot's
    assigned prototype weights into the slot. Routers are untouched.
    Drop-masked slots get zero weights. A materialized source's
    materialized_from_policy, zeroed_slots and prior_materialization move
    under metadata["prior_materialization"]."""
    plan.check_covers(model)
    out = model.copy()
    out.metadata = nest_lineage(model.metadata, ("materialized_from_policy", "zeroed_slots"),
                                "prior_materialization")
    zeroed = []
    for ref in model.slots():
        if ref in plan.drop_mask:
            zeroed.append(list(ref))
            out.row(ref)[...] = 0.0
        else:
            out.row(ref)[...] = model.row(plan.assignment[ref])
    out.metadata["materialized_from_policy"] = plan.policy
    if zeroed:
        out.metadata["zeroed_slots"] = zeroed
    return out


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
    block = np.empty((n, 3, f * h), dtype=np.float32)
    # one expert row per draw: a whole-layer draw would hold n rows of float64
    for row in block:
        row[...] = rng.standard_normal(row.shape) * scale
    return MoELayer(block, (rng.standard_normal((n, h)) * scale).astype(np.float32))


def _plant_copy(rng: np.random.Generator, dst: np.ndarray, src: np.ndarray, noise: float) -> None:
    dst[...] = src
    if noise > 0:
        dst += (rng.standard_normal(dst.shape) * noise).astype(np.float32)


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
                _plant_copy(rng, model.row((l, j + half)), model.row((l, j)), dup.noise)
                dup_map[(l, j + half)] = (l, j)
    if dup.mode in ("cross", "both"):
        for l in range(1, spec.num_layers, 2):
            for i in range(spec.num_experts):
                _plant_copy(rng, model.row((l, i)), model.row((l - 1, i)), dup.noise)
                dup_map[(l, i)] = (l - 1, i)

    model.validate()
    return model, dup_map


def gen_tokens(count: int, hidden_dim: int, seed: int) -> np.ndarray:
    """Synthetic calibration/eval hidden vectors, standard normal."""
    if count < 1:
        raise ValueError("token count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, hidden_dim))
