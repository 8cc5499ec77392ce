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
    """The three projections of a gated FFN expert, stored as float32."""

    gate: np.ndarray  # (intermediate, hidden)
    up: np.ndarray    # (intermediate, hidden)
    down: np.ndarray  # (hidden, intermediate)

    def validate(self, spec: ModelSpec):
        f, h = spec.intermediate_dim, spec.hidden_dim
        if self.gate.shape != (f, h) or self.up.shape != (f, h):
            raise ValueError("gate/up projection shape mismatch")
        if self.down.shape != (h, f):
            raise ValueError("down projection shape mismatch")
        for w in (self.gate, self.up, self.down):
            if not np.all(np.isfinite(w)):
                raise ValueError("non-finite expert weights")

    def copy(self) -> "ExpertWeights":
        return ExpertWeights(self.gate.copy(), self.up.copy(), self.down.copy())

    def equal(self, other: "ExpertWeights") -> bool:
        return (
            np.array_equal(self.gate, other.gate)
            and np.array_equal(self.up, other.up)
            and np.array_equal(self.down, other.down)
        )


@dataclass
class MoELayer:
    experts: list[ExpertWeights]
    router: np.ndarray  # (num_experts, hidden)

    def validate(self, spec: ModelSpec):
        if len(self.experts) != spec.num_experts:
            raise ValueError("expert count mismatch")
        if self.router.shape != (spec.num_experts, spec.hidden_dim):
            raise ValueError("router shape mismatch")
        if not np.all(np.isfinite(self.router)):
            raise ValueError("non-finite router weights")
        for e in self.experts:
            e.validate(spec)


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
        return self.layers[layer].experts[idx]

    def slots(self) -> list[Ref]:
        return [
            (l, i)
            for l in range(self.spec.num_layers)
            for i in range(self.spec.num_experts)
        ]

    def equal(self, other: "MoEModel") -> bool:
        if self.spec != other.spec:
            return False
        for a, b in zip(self.layers, other.layers):
            if not np.array_equal(a.router, b.router):
                return False
            if any(not x.equal(y) for x, y in zip(a.experts, b.experts)):
                return False
        return True


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
        expert = layer.experts[i] if plan is None else model.expert(plan.assignment_for((layer_idx, i)))
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
    spec = model.spec
    layers = []
    zeroed: list[list[int]] = []
    for l in range(spec.num_layers):
        experts = []
        for i in range(spec.num_experts):
            ref = (l, i)
            if ref in plan.drop_mask:
                experts.append(
                    ExpertWeights(
                        gate=np.zeros((spec.intermediate_dim, spec.hidden_dim), dtype=np.float32),
                        up=np.zeros((spec.intermediate_dim, spec.hidden_dim), dtype=np.float32),
                        down=np.zeros((spec.hidden_dim, spec.intermediate_dim), dtype=np.float32),
                    )
                )
                zeroed.append([l, i])
            else:
                experts.append(model.expert(plan.assignment_for(ref)).copy())
        layers.append(MoELayer(experts=experts, router=model.layers[l].router.copy()))
    metadata = dict(model.metadata)
    metadata["materialized_from_policy"] = plan.policy
    if zeroed:
        metadata["zeroed_slots"] = zeroed
    return MoEModel(spec=spec, layers=layers, metadata=metadata)


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


def _random_expert(rng: np.random.Generator, spec: ModelSpec, scale: float) -> ExpertWeights:
    f, h = spec.intermediate_dim, spec.hidden_dim
    return ExpertWeights(
        gate=(rng.standard_normal((f, h)) * scale).astype(np.float32),
        up=(rng.standard_normal((f, h)) * scale).astype(np.float32),
        down=(rng.standard_normal((h, f)) * scale).astype(np.float32),
    )


def _perturbed_copy(rng: np.random.Generator, src: ExpertWeights, noise: float) -> ExpertWeights:
    out = src.copy()
    if noise > 0:
        for w in (out.gate, out.up, out.down):
            w += (rng.standard_normal(w.shape) * noise).astype(np.float32)
    return out


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
    layers = []
    for _ in range(spec.num_layers):
        experts = [_random_expert(rng, spec, scale) for _ in range(spec.num_experts)]
        router = (rng.standard_normal((spec.num_experts, spec.hidden_dim)) * scale).astype(np.float32)
        layers.append(MoELayer(experts=experts, router=router))

    dup_map: dict[Ref, Ref] = {}
    if dup.mode in ("within", "both"):
        half = spec.num_experts // 2
        for l in range(spec.num_layers):
            for j in range(half):
                layers[l].experts[j + half] = _perturbed_copy(rng, layers[l].experts[j], dup.noise)
                dup_map[(l, j + half)] = (l, j)
    if dup.mode in ("cross", "both"):
        for l in range(1, spec.num_layers, 2):
            for i in range(spec.num_experts):
                layers[l].experts[i] = _perturbed_copy(rng, layers[l - 1].experts[i], dup.noise)
                dup_map[(l, i)] = (l - 1, i)

    model = MoEModel(spec=spec, layers=layers)
    model.validate()
    return model, dup_map


def gen_tokens(count: int, hidden_dim: int, seed: int) -> np.ndarray:
    """Synthetic calibration/eval hidden vectors, standard normal."""
    if count < 1:
        raise ValueError("token count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, hidden_dim))
