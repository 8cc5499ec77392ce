"""MoE model types, forward operators, and synthetic model generation.

The model is a pre-norm residual stack of routed-expert layers:
h <- h + MoE(h / rms(h)), with no learned gain. Routers, and only routers,
decide which experts run; consolidation never touches them. The forward
runs in float32, the checkpoint's own dtype, on a batch of tokens one layer
at a time, grouped by slot, and sums each token's terms in ascending slot
order, so consolidated and materialized forwards can be compared
bit-exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# (layer, expert index) slot reference
Ref = tuple[int, int]

# added to each token's mean square before the root in the pre-norm
NORM_EPS = 1e-6


@dataclass(frozen=True)
class ModelSpec:
    num_layers: int
    num_experts: int
    hidden_dim: int
    intermediate_dim: int
    top_k: int

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("empty model")
        if self.num_experts < 1:
            raise ValueError("need at least one expert per layer")
        if not (1 <= self.top_k <= self.num_experts):
            raise ValueError("top_k must satisfy 1 <= top_k <= num_experts")
        if self.hidden_dim < 1 or self.intermediate_dim < 1:
            raise ValueError("dimensions must be positive")


PROJECTIONS = ("gate", "up", "down")
DUP_MODES = ("none", "within", "cross", "both")


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
    layers: Sequence[MoELayer]  # a list, or a derived model's DerivedLayers
    metadata: dict = field(default_factory=dict)

    def validate(self):
        if len(self.layers) != self.spec.num_layers:
            raise ValueError("layer count mismatch")
        for layer in self.layers:
            self.check_layer(layer)

    def check_layer(self, layer: MoELayer) -> None:
        """Shapes, then finiteness: NaN propagates through min() and max()."""
        n, f, h = self.spec.num_experts, self.spec.intermediate_dim, self.spec.hidden_dim
        for name, shape in (("block", (n, 3, f * h)), ("router", (n, h))):
            w = getattr(layer, name)
            if w.shape != shape:
                raise ValueError(f"{name} shape {w.shape} does not match spec {shape}")
        for name, w in (*zip(PROJECTIONS, layer.block.transpose(1, 0, 2)), ("router", layer.router)):
            if not (np.isfinite(w.min()) and np.isfinite(w.max())):
                raise ValueError(f"non-finite {name} weights")

    def row(self, ref: Ref) -> np.ndarray:
        """The slot's (3, intermediate * hidden) block row, a view: its gate,
        up and down. The one place that maps a slot to its stored row."""
        return self.layers[ref[0]].block[ref[1]]

    def slots(self, layers: Sequence[int] | None = None) -> list[Ref]:
        """The slots of the given layers (None: every layer), ascending."""
        layers = range(self.spec.num_layers) if layers is None else layers
        return [(l, i) for l in layers for i in range(self.spec.num_experts)]


def check_slots(refs, shape: tuple[int, int]) -> None:
    """The one slot rule: refuse by name the first ref that is not a slot of a (layers, experts) grid."""
    for ref in refs:
        if not (0 <= ref[0] < shape[0] and 0 <= ref[1] < shape[1]):
            raise ValueError(f"expert {ref} is not a slot of the {shape[0]}x{shape[1]} model")


def per_slot(grid: np.ndarray, refs) -> np.ndarray:
    """grid[l, i] for each ref (l, i), checked by the slot rule first."""
    check_slots(refs, grid.shape)
    return grid[tuple(np.array(refs, dtype=np.intp).reshape(-1, 2).T)]


def silu(x: np.ndarray) -> np.ndarray:
    # Overflow-safe x * sigmoid(x), bit for bit the two-branch form
    # x * where(x >= 0, 1 / (1 + z), z / (1 + z)) with z = exp(-|x|):
    # exp(min(x, 0)) is exactly 1.0 where x >= 0 and exactly z elsewhere.
    return x * (np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x))))


def _token_batch(h: np.ndarray, hidden_dim: int) -> np.ndarray:
    """A (hidden,) token or a (count, hidden) batch, as a float32 batch."""
    x = np.asarray(h, dtype=np.float32)
    if x.ndim not in (1, 2) or x.shape[-1] != hidden_dim:
        raise ValueError("token dimension mismatch")
    return x.reshape(-1, hidden_dim)


def token_rows(tokens: np.ndarray, hidden_dim: int) -> np.ndarray:
    """A non-empty (count, hidden) batch of calibration or eval tokens, as float32."""
    if np.ndim(tokens) != 2 or len(tokens) == 0:
        raise ValueError("tokens must be a non-empty (count, hidden) array")
    return _token_batch(tokens, hidden_dim)


def finite(value, what: str, layer: int):
    """value, or the forward's one refusal of a non-finite one, by layer."""
    if not np.isfinite(value).all():
        raise ValueError(f"non-finite {what} at layer {layer}")
    return value


def slot_groups(model: MoEModel, layer_idx: int, x: np.ndarray, plan=None):
    """Normalise the (count, hidden) batch x, as float32, to unit RMS per
    token, route it through one layer and yield, per slot in ascending order,
    (slot, token rows, routing weights, outputs of the slot's prototype on
    those normalised rows), all float32.

    Each token picks the top-k original slots by router logit (ties to the
    lower index). Drop-masked slots leave before the softmax, so the weights
    are a softmax over the surviving selected logits; a token whose every
    selected slot is dropped is in no group. Tokens are grouped by slot, not
    by prototype, so a plan forward issues the same GEMMs as a plain forward
    through the materialized model. The router is copied once per call, the
    prototype once per group: a mapped checkpoint's rows may be unaligned,
    and NumPy multiplies unaligned float32 operands outside BLAS, with other
    bits than an aligned copy. A non-finite input norm, router logit or
    group output is refused by layer, under moe_forward's error state.
    """
    if plan is not None:
        plan.check_covers(model)
    slots = model.slots([layer_idx])
    protos = slots if plan is None else [plan.assignment[s] for s in slots]
    dropped = np.array([plan is not None and s in plan.drop_mask for s in slots])
    layer = model.layers[layer_idx]
    x = np.asarray(x, dtype=np.float32)
    mean_square = finite(np.mean(np.square(x), axis=1, keepdims=True), "input norm", layer_idx)
    x = x / np.sqrt(mean_square + NORM_EPS)
    logits = finite(x @ layer.router.astype(np.float32).T, "router logits", layer_idx)
    top = np.argsort(-logits, axis=1, kind="stable")[:, :model.spec.top_k].copy()
    keep = ~dropped[top]
    sel = np.where(keep, np.take_along_axis(logits, top, axis=1), -np.inf)
    del logits  # with the top-k copied, neither this nor the full sort outlives the routing
    peak = sel.max(axis=1, keepdims=True)
    peak[~keep.any(axis=1)] = 0.0  # nothing survives: every exp below is 0
    ex = np.exp(sel - peak)
    # a surviving row sums to >= 1 (its peak term is exp(0)); an empty one to 0
    weights = ex / np.maximum(ex.sum(axis=1, keepdims=True), 1.0)
    # One stable radix sort (slots as uint8, or uint16 above 256) groups the
    # kept flat (token, position) selections by slot, each group in flat order;
    # a token picks a slot at most once, so each group's tokens are ascending.
    flat = np.flatnonzero(keep)
    chosen = top.ravel()[flat].astype(np.min_scalar_type(len(slots) - 1))
    groups = np.split(flat[np.argsort(chosen, kind="stable")],
                      np.cumsum(np.bincount(chosen, minlength=len(slots)))[:-1])
    h = model.spec.hidden_dim
    for i, (proto, g) in enumerate(zip(protos, groups)):
        if g.size == 0:
            continue
        tok = g // model.spec.top_k
        gate, up, down = model.row(proto).astype(np.float32)
        xs = x[tok]
        y = (silu(xs @ gate.reshape(-1, h).T) * (xs @ up.reshape(-1, h).T)) @ down.reshape(h, -1).T
        yield i, tok, weights.ravel()[g], finite(y, "expert output", layer_idx)


def moe_forward(model: MoEModel, layer_idx: int, h: np.ndarray, plan=None, visit=None) -> np.ndarray:
    """One MoE layer on a (hidden,) token or a (count, hidden) batch,
    returning the same shape. A ConsolidationPlan redirects each selected
    slot to its prototype and drops masked slots; with no plan every slot
    is its own prototype. visit, if given, is called as visit(layer, slot,
    token rows, weights, outputs) on each slot group before it is added.

    Each token sums its slot terms in ascending slot order, so a plan
    forward is bit-identical to a plain forward through the materialized
    model. A token's last bits can depend on which tokens share its slot
    groups. One error state covers the layer, slot_groups and visit
    included: each overflow is refused by layer, with no warning.
    """
    x = _token_batch(h, model.spec.hidden_dim)
    out = np.zeros_like(x)
    with np.errstate(all="ignore"):
        for i, tok, w, y in slot_groups(model, layer_idx, x, plan):
            if visit is not None:
                visit(layer_idx, i, tok, w, y)
            out[tok] = out[tok] + w[:, None] * y
    return finite(out, "layer output", layer_idx).reshape(np.shape(h))


def model_forward(model: MoEModel, h0: np.ndarray, plan=None, visit=None) -> np.ndarray:
    """Final state of the residual stack h <- h + MoE(h / rms(h)), holding
    only the running state; visit goes to every layer's moe_forward."""
    x = _token_batch(h0, model.spec.hidden_dim)
    for l in range(model.spec.num_layers):
        x = x + moe_forward(model, l, x, plan, visit)
    return x.reshape(np.shape(h0))


class DerivedLayers(Sequence):
    """A derived model's layers, layer l built on access as build(l) from the
    unchanged source, read-only: a write could not outlive the layer. Only
    the last layer built is held, dropped before the next is built, so
    writing them in turn never holds two."""

    def __init__(self, count: int, build):
        self._count, self._build, self._held = count, build, (None, None)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, l: int) -> MoELayer:
        l = range(self._count)[l]  # an index out of range is an IndexError
        if self._held[0] != l:
            self._held = (None, None)
            layer = self._build(l)
            layer.block.flags.writeable = layer.router.flags.writeable = False
            self._held = (l, layer)
        return self._held[1]


def derive(model: MoEModel, plan, block, **keys) -> MoEModel:
    """The one builder of a derived model: layer l is block(l) and a copy of
    the source's router, as DerivedLayers over the unchanged source, and the
    source's metadata nests whole under metadata["derived_from"], next to
    keys. A pruning plan is refused: its dropped slots leave each token's
    softmax, which no weights under the untouched routers can do."""
    plan.check_covers(model)
    if plan.is_pruning:
        raise ValueError("a derived checkpoint requires a remapping plan, not a pruning plan")
    return MoEModel(model.spec, DerivedLayers(model.spec.num_layers, lambda l: MoELayer(
        block(l), model.layers[l].router.copy())), {"derived_from": dict(model.metadata), **keys})


def materialize(model: MoEModel, plan) -> MoEModel:
    """Expand a remapping plan into the original architecture by copying
    each slot's assigned prototype weights into the slot, through derive."""
    def block(l: int) -> np.ndarray:
        out = np.empty_like(model.layers[l].block)
        for proto, i in sorted((plan.assignment[(l, i)], i) for i in range(len(out))):
            out[i] = model.row(proto)  # by source layer: a derived source builds each about once
        return out

    return derive(model, plan, block, materialized_from_policy=plan.policy)


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
        with np.errstate(over="ignore"):  # an overflow is refused by gen_synthetic's validate
            dst += (rng.standard_normal(dst.shape) * noise).astype(np.float32)


def gen_synthetic(spec: ModelSpec, seed: int, dup: str = "none",
                  dup_noise: float = 0.0) -> tuple[MoEModel, dict[Ref, Ref]]:
    """Deterministic random model; returns (model, planted duplicate map).

    dup "within" copies each layer's expert j < N/2 into slot j + N/2; "cross"
    copies each even layer's experts into the next layer; "both" does both
    (cross copies propagate the within-layer pairing). dup_noise adds
    zero-mean gaussian noise of that scale to every copy, so it must be 0
    with dup "none". The map sends each copy to its source slot; with
    dup_noise=0 the pair is bit-identical.
    """
    if dup not in DUP_MODES:
        raise ValueError(f"unknown dup mode: {dup!r}")
    if not (np.isfinite(dup_noise) and dup_noise >= 0):
        raise ValueError("dup noise must be finite and >= 0")
    if dup == "none" and dup_noise > 0:
        raise ValueError("dup noise > 0 needs a dup mode: mode 'none' plants no copy")
    if dup in ("within", "both") and spec.num_experts < 2:
        raise ValueError("within-layer duplicates need at least 2 experts")
    if dup in ("cross", "both") and spec.num_layers < 2:
        raise ValueError("cross-layer duplicates need at least 2 layers")

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(spec.hidden_dim)
    model = MoEModel(spec=spec, layers=[_random_layer(rng, spec, scale) for _ in range(spec.num_layers)])

    dup_map: dict[Ref, Ref] = {}
    if dup in ("within", "both"):
        half = spec.num_experts // 2
        for l in range(spec.num_layers):
            for j in range(half):
                _plant_copy(rng, model.row((l, j + half)), model.row((l, j)), dup_noise)
                dup_map[(l, j + half)] = (l, j)
    if dup in ("cross", "both"):
        for l in range(1, spec.num_layers, 2):
            for i in range(spec.num_experts):
                _plant_copy(rng, model.row((l, i)), model.row((l - 1, i)), dup_noise)
                dup_map[(l, i)] = (l - 1, i)

    model.validate()
    return model, dup_map


def gen_tokens(count: int, hidden_dim: int, seed: int | Sequence[int]) -> np.ndarray:
    """Synthetic hidden vectors, standard normal, from seed: an int, or a
    sequence of ints for a stream apart from that int's, such as the
    held-out eval stream [seed, 1]."""
    if count < 1:
        raise ValueError("token count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, hidden_dim))
