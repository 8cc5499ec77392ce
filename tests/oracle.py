"""Reference implementations the tests compare conmoe against: the
per-token forward, the per-pair expert distance and the geometry queries,
the per-layer pruning and merging baselines, the identity plan, and model
equality; and an expert's three projections as named views of its row.
Nothing in conmoe imports them.

The oracle forward routes one token at a time: router_topk picks the top-k
slots, dropped slots leave before the softmax, and each surviving slot's
prototype output (expert_forward, one matrix-vector product per projection)
is summed in ascending slot order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from conmoe.calibration import CalibStats
from conmoe.geometry import distance_matrix, nearest, projection_distance
from conmoe.model import PROJECTIONS, silu
from conmoe.plan import ConsolidationPlan

# The batched forward groups its GEMMs and sums differently from these
# per-token loops, which moves outputs and stats in the last bits only:
# the largest relative difference seen (README and token-heavy shapes at
# seed 42 with 256 tokens, plain and under a REAP pruning plan, and the 20
# random_plan models of criterion 2) is 2.0e-12 for a layer output and
# 6.8e-13 for a weighted norm. Routing must agree exactly.
BATCH_RTOL = 1e-9


def assert_rows_close(got, want, rtol=BATCH_RTOL):
    """Each row of got is within rtol of want's row, relative to the L2
    norm of want's row; a zero row must be matched exactly."""
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    assert got.shape == want.shape
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= rtol * np.linalg.norm(want, axis=1)), err.max()


def assert_stats_close(got, want, rtol=BATCH_RTOL):
    """Equal counts and totals; weighted norms within rtol."""
    assert (got.token_total, got.top_k) == (want.token_total, want.top_k)
    np.testing.assert_array_equal(got.routed_count, want.routed_count)
    err = np.abs(got.sum_weighted_norm - want.sum_weighted_norm)
    assert np.all(err <= rtol * want.sum_weighted_norm), err.max()


@dataclass
class ExpertWeights:
    """The three projections of one gated FFN expert."""

    gate: np.ndarray  # (intermediate, hidden)
    up: np.ndarray    # (intermediate, hidden)
    down: np.ndarray  # (hidden, intermediate)


def expert(model, ref):
    """The slot's projections as views of model.row(ref), so a write
    through them lands in the model."""
    gate, up, down = model.row(ref)
    f, h = model.spec.intermediate_dim, model.spec.hidden_dim
    return ExpertWeights(gate.reshape(f, h), up.reshape(f, h), down.reshape(h, f))


@dataclass(frozen=True)
class TopKSelection:
    indices: tuple[int, ...]
    weights: tuple[float, ...]


def expert_forward(e, h):
    """down @ (silu(gate @ h) * (up @ h)), computed in float64."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (e.gate.shape[1],):
        raise ValueError("hidden vector dimension mismatch")
    pre = e.gate.astype(np.float64) @ h
    lin = e.up.astype(np.float64) @ h
    return e.down.astype(np.float64) @ (silu(pre) * lin)


def _softmax(logits):
    ex = np.exp(logits - logits.max())
    return ex / ex.sum()


def _route(router, h, k):
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
    idx = np.lexsort((np.arange(n), -logits))[:k]
    return idx, logits[idx]


def router_topk(router, h, k) -> TopKSelection:
    """Pick the k largest router logits (ties to the lower index) and
    softmax-normalize over the selected logits."""
    idx, sel = _route(router, h, k)
    return TopKSelection(tuple(idx.tolist()), tuple(_softmax(sel).tolist()))


def slot_weights(model, layer_idx, h, plan=None):
    """(slot, routing weight) of one token's surviving selected slots, in
    ascending slot order; the softmax runs over the survivors' logits."""
    idx, sel = _route(model.layers[layer_idx].router, h, model.spec.top_k)
    if plan is not None:
        keep = [j for j, i in enumerate(idx) if (layer_idx, int(i)) not in plan.drop_mask]
        if not keep:
            return []
        idx, sel = idx[keep], sel[keep]
    return sorted(zip(idx.tolist(), _softmax(sel).tolist()))


def moe_terms(model, layer_idx, h, plan=None):
    """(slot, weight, prototype output) per surviving selected slot."""
    terms = []
    for i, w in slot_weights(model, layer_idx, h, plan):
        ref = (layer_idx, i) if plan is None else plan.assignment[(layer_idx, i)]
        terms.append((i, w, expert_forward(expert(model, ref), h)))
    return terms


def moe_forward(model, layer_idx, h, plan=None):
    out = np.zeros(model.spec.hidden_dim)
    for _, w, y in moe_terms(model, layer_idx, h, plan):
        out = out + w * y
    return out


def trace(model, h0, plan=None):
    """One token through the residual stack: (final state, per-layer MoE
    outputs)."""
    h = np.asarray(h0, dtype=np.float64)
    outputs = []
    for l in range(model.spec.num_layers):
        out = moe_forward(model, l, h, plan)
        outputs.append(out)
        h = h + out
    return h, outputs


def calibrate(model, tokens):
    """Per-token calibration loop: route each layer with router_topk, record
    every selected expert's weight times its output norm, then take the
    residual step over the recorded outputs in ascending slot order."""
    shape = (model.spec.num_layers, model.spec.num_experts)
    counts, sums = np.zeros(shape, dtype=np.int64), np.zeros(shape)
    for h in np.asarray(tokens, dtype=np.float64):
        for l in range(model.spec.num_layers):
            terms = moe_terms(model, l, h)
            moe_out = np.zeros_like(h)
            for i, g, out in terms:
                counts[l, i] += 1
                sums[l, i] += g * float(np.linalg.norm(out))
                moe_out = moe_out + g * out
            h = h + moe_out
    return CalibStats(token_total=len(tokens), top_k=model.spec.top_k,
                      routed_count=counts, sum_weighted_norm=sums)


def aggregate_coefficients(model, layer_idx, plan, h):
    """Per-prototype coefficient: the sum of routing weights over selected
    slots assigned to that prototype."""
    coeffs = {}
    for i, w in slot_weights(model, layer_idx, h, plan):
        proto = plan.assignment[(layer_idx, i)]
        coeffs[proto] = coeffs.get(proto, 0.0) + w
    return coeffs


def expert_distance(e, f):
    """Mean projection distance over gate, up, down."""
    total = 0.0
    for proj in PROJECTIONS:
        total += projection_distance(getattr(e, proj), getattr(f, proj))
    return total / len(PROJECTIONS)


def nearest_neighbor(ref, table):
    """Closest other expert; ties broken by ascending (layer, index)."""
    i = table.index_of(ref)
    cols, dists = nearest(table)
    return table.scope[cols[i]], float(dists[i])


def replaceability(ref, table):
    """Nearest-neighbor distance within the scope."""
    return nearest_neighbor(ref, table)[1]


# The baselines as per-layer loops: each layer keeps its budget's top
# experts by a key (ties to the lower index); pruning drops the rest, and
# merging sends each to its nearest core and fuses every core's cluster.

def frequency(stats, ref):
    return int(stats.routed_count[ref])


def contribution(stats, ref):
    """One slot's mean weighted norm; zero when it was never routed."""
    count = frequency(stats, ref)
    return float(stats.sum_weighted_norm[ref]) / count if count else 0.0


def _keep(refs, key, rho):
    k = max(1, math.floor((1.0 - rho) * len(refs) + 0.5))
    return sorted(sorted(refs, key=lambda r: (-key(r), r))[:k])


def _layers(model):
    n = model.spec.num_experts
    return [[(l, i) for i in range(n)] for l in range(model.spec.num_layers)]


def prune(model, stats, rho, method):
    """prune_frequency (method "frequency") or prune_reap ("reap")."""
    key = {"frequency": frequency, "reap": contribution}[method]
    assignment, drop_mask = {}, set()
    for refs in _layers(model):
        keep = _keep(refs, lambda r: key(stats, r), rho)
        assignment.update((ref, ref) for ref in refs)
        drop_mask.update(ref for ref in refs if ref not in keep)
    return ConsolidationPlan(rho=rho, scope_size=1, policy=f"prune_{method}",
                             assignment=assignment, drop_mask=drop_mask)


def fuse(model, clusters, stats=None):
    """(fused model, provenance): each core's weights become the usage-
    weighted average of its cluster (uniform if the cluster was never
    routed or stats is None), accumulated in float64 in cluster order."""
    fused = model.copy()
    provenance = []
    for core, members in clusters.items():
        counts = [frequency(stats, r) if stats is not None else 0 for r in members]
        total = sum(counts)
        weights = [c / total for c in counts] if total else [1.0 / len(members)] * len(members)
        acc = np.zeros(model.row(core).shape)
        for ref, w in zip(members, weights):
            acc += w * model.row(ref).astype(np.float64)
        fused.row(core)[...] = acc
        provenance.append([list(core), [[list(r), w] for r, w in zip(members, weights)]])
    return fused, sorted(provenance)


def merge(model, stats, rho):
    """merge_msmoe: (plan, fused model, provenance)."""
    assignment, clusters = {}, {}
    for refs in _layers(model):
        table = distance_matrix(model, refs)
        cores = _keep(refs, lambda r: frequency(stats, r), rho)
        clusters.update((c, []) for c in cores)
        for ref in refs:
            core = ref if ref in cores else min(cores, key=lambda c: (table.distance(ref, c), c))
            assignment[ref] = core
            clusters[core].append(ref)
    plan = ConsolidationPlan(rho=rho, scope_size=1, policy="merge_msmoe", assignment=assignment)
    return (plan, *fuse(model, clusters, stats))


def identity_plan(num_layers, num_experts, scope_size=1):
    """Every slot is its own prototype."""
    slots = [(l, i) for l in range(num_layers) for i in range(num_experts)]
    return ConsolidationPlan(rho=0.0, scope_size=scope_size, policy="identity",
                             assignment=dict(zip(slots, slots)))


def models_equal(a, b):
    """Same spec and bitwise-equal weights and routers."""
    return a.spec == b.spec and all(
        np.array_equal(x.block, y.block) and np.array_equal(x.router, y.router)
        for x, y in zip(a.layers, b.layers)
    )
