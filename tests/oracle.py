"""Reference implementations the tests compare conmoe against: the
per-token forward, the per-pair expert distance, the index-pair distance
table and the geometry queries, the nested-list nearest-neighbor tally,
the per-layer quota selection (quota_select), the per-layer pruning and
merging baselines, the identity plan, model copies and equality and a
checkpoint payload's tensor index; an expert's three projections as named
views of its row; the two-branch SiLU; and the
batched layer's slot grouping by one scan per slot; and the two-trace
fidelity evaluation and scope sweep. Nothing in conmoe imports them.

Some queries only the tests ask live here too, on conmoe's own types: the
batched forward's whole trace (model_forward_trace), one table entry
(distance), a plan's per-scope prototype sets (scopes) and the exhaustive
objective minimum (brute_force_optimal, under ENUMERATION_CAP).

The oracle forward runs one float32 token at a time: rms_norm scales it to
unit RMS, router_topk picks the top-k slots on the normalised token,
dropped slots leave before the softmax, and each surviving slot's
prototype output on the normalised token (expert_forward, one
matrix-vector product per projection) is summed in ascending slot order;
the residual adds the sum to the un-normalised token.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from conmoe.analysis import FidelityReport, NNReport, reduction_accounting
from conmoe.calibration import CalibStats
from conmoe.geometry import (
    EPS,
    EXACT_RECOMPUTE_FRACTION,
    DistanceTable,
    distance_matrix,
    nearest,
    projection_distance,
)
from conmoe import model as batched
from conmoe.model import NORM_EPS, PROJECTIONS, MoELayer, MoEModel, token_rows
from conmoe.plan import ConsolidationPlan, scope_partition
from conmoe.planner import consolidate, objective

# The batched forward groups its float32 GEMMs and sums differently from
# these per-token loops, which moves outputs and stats in the last bits
# only: the largest relative difference seen (README and token-heavy shapes
# at seed 42 with 256 tokens, plain and under a REAP pruning plan, and the
# 20 random_plan models of criterion 2) is 2.7e-6 for a layer output and
# 6.3e-7 for a weighted norm, 23 and 6 float32 epsilons. Routing must agree
# exactly. 1e-4 is 840 float32 epsilons; the float64 forward's 1e-9 was
# 4.5e6 float64 epsilons.
BATCH_RTOL = 1e-4


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


def silu(x):
    """Overflow-safe x * sigmoid(x) by branch, with z = exp(-|x|)."""
    z = np.exp(-np.abs(x))
    return x * np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def rms_norm(h):
    """One token scaled to unit RMS, in float32."""
    h = np.asarray(h, dtype=np.float32)
    return h / np.sqrt(np.mean(np.square(h)) + NORM_EPS)


def expert_forward(e, h):
    """down @ (silu(gate @ h) * (up @ h)), computed in float32."""
    h = np.asarray(h, dtype=np.float32)
    if h.shape != (e.gate.shape[1],):
        raise ValueError("hidden vector dimension mismatch")
    pre = e.gate @ h
    lin = e.up @ h
    return e.down @ (silu(pre) * lin)


def _softmax(logits):
    ex = np.exp(logits - logits.max())
    return ex / ex.sum()


def _route(router, h, k):
    """The k largest float32 router logits, descending (ties to the lower
    index): (slot indices, logits)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = router.shape[0]
    if k > n:
        raise ValueError("k exceeds expert count")
    logits = router @ np.asarray(h, dtype=np.float32)
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
    ascending slot order, routed on rms_norm(h); the softmax runs over the
    survivors' logits."""
    idx, sel = _route(model.layers[layer_idx].router, rms_norm(h), model.spec.top_k)
    if plan is not None:
        keep = [j for j, i in enumerate(idx) if (layer_idx, int(i)) not in plan.drop_mask]
        if not keep:
            return []
        idx, sel = idx[keep], sel[keep]
    return sorted(zip(idx.tolist(), _softmax(sel).tolist()))


def moe_terms(model, layer_idx, h, plan=None):
    """(slot, weight, prototype output on rms_norm(h)) per surviving
    selected slot."""
    terms = []
    x = rms_norm(h)
    for i, w in slot_weights(model, layer_idx, h, plan):
        ref = (layer_idx, i) if plan is None else plan.assignment[(layer_idx, i)]
        terms.append((i, w, expert_forward(expert(model, ref), x)))
    return terms


def moe_forward(model, layer_idx, h, plan=None):
    out = np.zeros(model.spec.hidden_dim, dtype=np.float32)
    for _, w, y in moe_terms(model, layer_idx, h, plan):
        out = out + w * y
    return out


def trace(model, h0, plan=None):
    """One token through the residual stack: (final state, per-layer MoE
    outputs)."""
    h = np.asarray(h0, dtype=np.float32)
    outputs = []
    for l in range(model.spec.num_layers):
        out = moe_forward(model, l, h, plan)
        outputs.append(out)
        h = h + out
    return h, outputs


def calibrate(model, tokens):
    """Per-token calibration loop: route each layer with router_topk, record
    every selected expert's weight times its float64 output norm, summed
    into float64, then take the residual step over the recorded
    outputs in ascending slot order."""
    shape = (model.spec.num_layers, model.spec.num_experts)
    counts, sums = np.zeros(shape, dtype=np.int64), np.zeros(shape)
    for h in np.asarray(tokens, dtype=np.float32):
        for l in range(model.spec.num_layers):
            terms = moe_terms(model, l, h)
            moe_out = np.zeros_like(h)
            for i, g, out in terms:
                counts[l, i] += 1
                sums[l, i] += np.float32(g) * np.linalg.norm(out.astype(np.float64))
                moe_out = moe_out + g * out
            h = h + moe_out
    return CalibStats(token_total=len(tokens), top_k=model.spec.top_k,
                      routed_count=counts, sum_weighted_norm=sums)


def scan_slot_groups(model, layer_idx, x, plan=None):
    """model.slot_groups with one np.nonzero scan of the (token, position)
    selections per slot, and this module's silu: the same norm, routing,
    group order, float32 GEMMs and yields."""
    slots = [(layer_idx, i) for i in range(model.spec.num_experts)]
    protos = slots if plan is None else [plan.assignment[s] for s in slots]
    dropped = np.array([plan is not None and s in plan.drop_mask for s in slots])
    x = np.asarray(x, dtype=np.float32)
    x = x / np.sqrt(np.mean(np.square(x), axis=1, keepdims=True) + NORM_EPS)
    logits = x @ model.layers[layer_idx].router.astype(np.float32).T
    top = np.argsort(-logits, axis=1, kind="stable")[:, :model.spec.top_k]
    keep = ~dropped[top]
    sel = np.where(keep, np.take_along_axis(logits, top, axis=1), -np.inf)
    peak = sel.max(axis=1, keepdims=True)
    peak[~keep.any(axis=1)] = 0.0
    ex = np.exp(sel - peak)
    weights = ex / np.maximum(ex.sum(axis=1, keepdims=True), 1.0)
    h = model.spec.hidden_dim
    for i, proto in enumerate(protos):
        tok, pos = np.nonzero((top == i) & keep)
        if tok.size:
            gate, up, down = model.row(proto).astype(np.float32)
            xs = x[tok]
            y = (silu(xs @ gate.reshape(-1, h).T) * (xs @ up.reshape(-1, h).T)) @ down.reshape(h, -1).T
            yield i, tok, weights[tok, pos], y


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


def pair_distance_matrix(model, scope, cols=None):
    """distance_matrix over the upper triangle's index pairs: each pair
    reads its Gram entries by fancy indexing, and the pair values are
    mirrored into a zero matrix. Each Gram is summed over blocks of cols
    columns (None: the whole row), in column order."""
    scope = sorted(scope)
    rows = [model.row(ref) for ref in scope]
    n = len(scope)
    upper = np.triu_indices(n, 1)
    total = np.zeros(len(upper[0]))
    for k in range(len(PROJECTIONS)):
        total += _pair_projection_distances([row[k] for row in rows], upper, cols)
    values = np.zeros((n, n))
    values[upper] = total / len(PROJECTIONS)
    values[upper[::-1]] = values[upper]
    return DistanceTable(scope=scope, values=values)


def _pair_projection_distances(flat, pairs, cols=None):
    """One projection's distances for the index pairs (i, j), with the same
    per-entry operations as geometry._projection_distances."""
    stack = np.empty((len(flat), flat[0].size if flat else 0))
    for row, w in zip(stack, flat):
        row[:] = w
    cols = cols or stack.shape[1]
    blocks = [np.ascontiguousarray(stack[:, c:c + cols]) for c in range(0, stack.shape[1], cols)]
    gram = blocks[0] @ blocks[0].T
    for block in blocks[1:]:
        gram += block @ block.T
    sq = np.diag(gram)
    norms = np.sqrt(sq)
    i, j = pairs
    sq_sum = sq[i] + sq[j]
    d2 = np.maximum(sq_sum - 2.0 * gram[i, j], 0.0)
    dist = 2.0 * np.sqrt(d2) / (norms[i] + norms[j] + 2.0 * EPS)
    for k in np.flatnonzero(d2 < EXACT_RECOMPUTE_FRACTION * sq_sum):
        dist[k] = projection_distance(flat[i[k]], flat[j[k]])
    return dist


def cross_layer_nn(model, scope_size):
    """analysis.cross_layer_nn, tallied into nested lists of Python ints."""
    num_layers = model.spec.num_layers
    n = model.spec.num_experts
    counts = [[0] * num_layers for _ in range(num_layers)]
    for layers in scope_partition(num_layers, scope_size):
        table = distance_matrix(model, [(l, i) for l in layers for i in range(n)])
        cols, _ = nearest(table)
        for ref, c in zip(table.scope, cols):
            counts[ref[0]][table.scope[c][0]] += 1
    per_layer = [(sum(row) - row[l]) / sum(row) for l, row in enumerate(counts)]
    cross_total = sum(sum(row) - row[l] for l, row in enumerate(counts))
    return NNReport(counts=counts, per_layer_fraction=per_layer,
                    overall_fraction=cross_total / (num_layers * n))


def distance(table, a, b):
    """The table's entry for the slots a and b."""
    return float(table.values[table.index_of(a), table.index_of(b)])


# the most prototype sets brute_force_optimal enumerates
ENUMERATION_CAP = 10**6


def brute_force_optimal(table, k, weights):
    """Exhaustive search over all size-k prototype sets for the least
    planner objective; ties resolved by lexicographically smallest set.
    Refuses to enumerate more than ENUMERATION_CAP sets."""
    n = len(table.scope)
    if not (1 <= k <= n):
        raise ValueError("k must be in [1, scope size]")
    if math.comb(n, k) > ENUMERATION_CAP:
        raise ValueError("enumeration cap exceeded")
    weights = np.asarray(weights, dtype=np.float64)
    best_set = None
    best_val = None
    for combo in itertools.combinations(range(n), k):
        val = objective([table.scope[i] for i in combo], table, weights)
        if best_val is None or val < best_val:
            best_val = val
            best_set = combo
    return [table.scope[i] for i in best_set], best_val


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


def quota_select(keys, refs, k):
    """Per-layer quotas: each layer of refs keeps its own k // layers
    largest keys (ties to the lower index), one more in each of the
    earliest k % layers."""
    keys = np.asarray(keys, dtype=np.float64).tolist()
    layers = sorted({r[0] for r in refs})
    base, rem = divmod(k, len(layers))
    chosen = []
    for pos, layer in enumerate(layers):
        rows = sorted((i for i, r in enumerate(refs) if r[0] == layer), key=lambda i: (-keys[i], refs[i]))
        chosen.extend(refs[i] for i in rows[:base + (1 if pos < rem else 0)])
    return sorted(chosen)


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
    fused = copy_model(model)
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
            core = ref if ref in cores else min(cores, key=lambda c: (distance(table, ref, c), c))
            assignment[ref] = core
            clusters[core].append(ref)
    plan = ConsolidationPlan(rho=rho, scope_size=1, policy="merge_msmoe", assignment=assignment)
    return (plan, *fuse(model, clusters, stats))


def model_forward_trace(model, tokens, plan=None):
    """The batched forward's whole trace: (final state, every layer's MoE
    output), each (count, hidden) float32."""
    x = token_rows(tokens, model.spec.hidden_dim)
    outputs = []
    for l in range(model.spec.num_layers):
        out = batched.moe_forward(model, l, x, plan)
        outputs.append(out)
        x = x + out
    return x, outputs


def _mean_relative_error(got, want):
    want = np.asarray(want, dtype=np.float64)
    errors = np.linalg.norm(got - want, axis=1) / (np.linalg.norm(want, axis=1) + EPS)
    return float(errors.mean())


def evaluate_fidelity(model, plan, tokens, reference=None):
    """The two-trace fidelity evaluation: the original stack's whole trace
    (or reference, one computed earlier) and the plan stack's, then each
    layer's and the final state's mean per-token relative L2 error."""
    tokens = token_rows(tokens, model.spec.hidden_dim)
    plan.check_covers(model)
    want_final, want_outs = reference or model_forward_trace(model, tokens)
    got_final, got_outs = model_forward_trace(model, tokens, plan)
    return FidelityReport(
        per_layer_error=[_mean_relative_error(got, want) for got, want in zip(got_outs, want_outs)],
        end_to_end_error=_mean_relative_error(got_final, want_final),
        token_count=tokens.shape[0],
        achieved_reduction=reduction_accounting(plan),
        metadata={"policy": plan.policy, "rho": plan.rho, "scope_size": plan.scope_size},
    )


def scope_sweep(model, stats, rho, scope_sizes, tokens):
    """One reference trace, then each scope's plan evaluated against it."""
    reference = model_forward_trace(model, token_rows(tokens, model.spec.hidden_dim))
    return [evaluate_fidelity(model, consolidate(model, stats, rho, size),
                              tokens, reference)
            for size in scope_sizes]


@dataclass
class Scope:
    layers: list[int]
    prototypes: list[tuple[int, int]]  # deduplicated, ascending (layer, index)


def scopes(plan):
    """scope_partition of the plan's layers, each with the prototypes its
    non-dropped slots map to."""
    image = sorted(plan.distinct_prototypes())
    num_layers = max(l for l, _ in plan.assignment) + 1
    return [Scope(layers, [p for p in image if p[0] in layers])
            for layers in scope_partition(num_layers, plan.scope_size)]


def identity_plan(num_layers, num_experts, scope_size=1):
    """Every slot is its own prototype."""
    slots = [(l, i) for l in range(num_layers) for i in range(num_experts)]
    return ConsolidationPlan(rho=0.0, scope_size=scope_size, policy="identity",
                             assignment=dict(zip(slots, slots)))


def copy_model(model):
    """A model holding its own copy of every array and of the metadata."""
    layers = [MoELayer(layer.block.copy(), layer.router.copy()) for layer in model.layers]
    return MoEModel(model.spec, layers, dict(model.metadata))


def models_equal(a, b):
    """Same spec and bitwise-equal weights and routers."""
    return a.spec == b.spec and all(
        np.array_equal(x.block, y.block) and np.array_equal(x.router, y.router)
        for x, y in zip(a.layers, b.layers)
    )


def tensor_index(spec):
    """[name, shape, byte offset] of each tensor in a checkpoint payload:
    per layer, each expert's gate, up and down, then the router, packed.
    Older checkpoint headers carry exactly this list as `tensor_index`;
    the reader ignores it, since the spec fixes it."""
    f, h = spec.intermediate_dim, spec.hidden_dim
    shapes = {"gate": [f, h], "up": [f, h], "down": [h, f]}
    index, offset = [], 0
    for l in range(spec.num_layers):
        for i in range(spec.num_experts):
            for proj in PROJECTIONS:
                index.append([f"layers.{l}.experts.{i}.{proj}", shapes[proj], offset])
                offset += f * h * 4
        index.append([f"layers.{l}.router", [spec.num_experts, h], offset])
        offset += spec.num_experts * h * 4
    return index
