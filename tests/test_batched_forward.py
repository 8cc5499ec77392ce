"""The batched forward against the references in tests/oracle.py: against
the per-token oracle, routing counts agree exactly, outputs and weighted
norms within BATCH_RTOL; against the two-branch SiLU and the per-slot scan
grouping, bit for bit."""

import numpy as np
import pytest

import oracle
from conmoe import (ModelSpec, gen_synthetic, gen_tokens, materialize, model_forward, prune_reap,
                    run_calibration)
from conmoe.model import NORM_EPS, silu, slot_groups
from oracle import (
    assert_rows_close,
    assert_stats_close,
    identity_plan,
    model_forward_trace,
    rms_norm,
    router_topk,
    scan_slot_groups,
)
from test_acceptance import random_plan

SHAPES = {
    "readme": ModelSpec(8, 16, 32, 48, 2),
    "token-heavy": ModelSpec(8, 16, 64, 128, 4),
}


def check_trace(model, tokens, plan=None):
    final, outputs = model_forward_trace(model, tokens, plan)
    for t, h in enumerate(tokens):
        want_final, want_outputs = oracle.trace(model, h, plan)
        for got, want in zip(outputs, want_outputs):
            assert_rows_close(got[t], want)
        assert_rows_close(final[t], want_final)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_benchmark_shapes_match_oracle(shape):
    model, _ = gen_synthetic(SHAPES[shape], seed=42)
    tokens = gen_tokens(256, model.spec.hidden_dim, seed=42)
    stats = run_calibration(model, tokens)
    assert_stats_close(stats, oracle.calibrate(model, tokens))
    check_trace(model, tokens)
    # a pruning plan: dropped slots leave before the softmax
    check_trace(model, tokens, prune_reap(model, stats, 0.5))


def test_random_plans_match_oracle():
    for trial in range(20):
        model, stats, _, plan, tokens = random_plan(100 + trial)
        assert_stats_close(stats, oracle.calibrate(model, tokens))
        check_trace(model, tokens)
        check_trace(model, tokens, plan)


def test_silu_matches_two_branch_form_bit_for_bit():
    special = [0.0, 5e-324, 1e-310, 36.7, 709.78, 745.0, 1e308, np.inf]
    x = np.array(special + [-v for v in special])
    special32 = [0.0, 1e-45, 1e-40, 17.3, 88.7, 103.9, 3e38, np.inf]
    x32 = np.array(special32 + [-v for v in special32], dtype=np.float32)
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    bits32 = rng.integers(0, 2**32, size=100_000, dtype=np.uint64).astype(np.uint32).view(np.float32)
    for values in (x, bits[np.isfinite(bits)], x32, bits32[np.isfinite(bits32)]):
        with np.errstate(invalid="ignore"):  # -inf * sigmoid(-inf) is -inf * 0.0
            got, want = silu(values), oracle.silu(values)
        assert got.tobytes() == want.tobytes()
    nan = np.array([np.nan, -np.nan])
    assert np.all(np.isnan(silu(nan)))


def one_layer(num_experts, top_k, seed):
    model, _ = gen_synthetic(ModelSpec(1, num_experts, 8, 12, top_k), seed=seed)
    return model


def sparse_batch_with_drops():
    """Three tokens, top-2 of 8 slots, so at least two slots go unselected;
    token 0's selections are dropped and slot 1 runs slot 0's prototype."""
    model = one_layer(8, 2, 1)
    x = gen_tokens(3, 8, seed=2)
    plan = identity_plan(1, 8)
    plan.assignment[(0, 1)] = (0, 0)
    plan.drop_mask = {(0, i) for i in router_topk(model.layers[0].router, rms_norm(x[0]), 2).indices}
    return model, x, plan


def all_slots_selected():
    model = one_layer(6, 6, 3)
    plan = identity_plan(1, 6)
    plan.drop_mask = {(0, 2), (0, 5)}
    return model, gen_tokens(16, 8, seed=4), plan


def single_token_dropped():
    model, x, plan = sparse_batch_with_drops()
    return model, x[:1], plan


def shared_prototypes():
    """(0, 3) serves slots 0, 3 and 5, and (0, 1) serves slots 1, 4 and 6:
    each prototype is shared by non-adjacent slots, one before its own."""
    model = one_layer(8, 5, 5)
    plan = identity_plan(1, 8)
    plan.assignment.update({(0, 0): (0, 3), (0, 5): (0, 3), (0, 4): (0, 1), (0, 6): (0, 1)})
    return model, gen_tokens(64, 8, seed=8), plan


GROUPING_CASES = {
    "plain": lambda: (one_layer(8, 2, 5), gen_tokens(64, 8, seed=6), None),
    "shared_prototypes": shared_prototypes,
    "drops": sparse_batch_with_drops,
    "top_k_is_num_experts": all_slots_selected,
    "single_token": lambda: (one_layer(8, 2, 5), gen_tokens(1, 8, seed=7), None),
    "single_token_dropped": single_token_dropped,
}


@pytest.mark.parametrize("case", sorted(GROUPING_CASES))
def test_slot_groups_match_scan_grouping_bit_for_bit(case):
    model, x, plan = GROUPING_CASES[case]()
    got = list(slot_groups(model, 0, x, plan))
    want = list(scan_slot_groups(model, 0, x, plan))
    assert [g[0] for g in got] == [w[0] for w in want]
    for g, w in zip(got, want):
        for a, b in zip(g[1:], w[1:]):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if case == "drops":
        grouped = {int(t) for _, tok, _, _ in got for t in tok}
        assert 0 not in grouped and grouped
    if case == "top_k_is_num_experts":
        assert [g[0] for g in got] == [0, 1, 3, 4]
    if case == "single_token_dropped":
        assert got == []


@pytest.mark.parametrize("num_experts, key", [(16, np.uint8), (300, np.uint16)], ids=["uint8", "uint16"])
def test_slot_groups_are_each_slots_stable_topk_rows(num_experts, key):
    """On each side of the uint8 slot key, every slot's group is the
    ascending token rows whose stable full-row top-k of the logits selects
    it; at 300 experts slots above 255 are selected."""
    assert np.min_scalar_type(num_experts - 1) == key
    model = one_layer(num_experts, 8, 12)
    x = gen_tokens(512, 8, seed=13).astype(np.float32)
    x = x / np.sqrt(np.mean(np.square(x), axis=1, keepdims=True) + NORM_EPS)
    logits = x @ model.layers[0].router.astype(np.float32).T
    top = np.argsort(-logits, axis=1, kind="stable")[:, :8]
    want = {i: np.flatnonzero((top == i).any(axis=1)) for i in range(num_experts) if (top == i).any()}
    got = {i: tok for i, tok, _, _ in slot_groups(model, 0, x)}
    assert list(got) == sorted(want)
    assert all(np.array_equal(got[i], want[i]) for i in want)
    assert max(got) == num_experts - 1


def test_remapping_plan_beyond_256_slots_matches_its_materialized_forward():
    """Slots 256..299 run the prototypes of slots 0..43, and slots 100..199
    share slot 50's: the plan forward and the materialized forward agree
    bit for bit on a uint16-keyed layer."""
    model, _ = gen_synthetic(ModelSpec(2, 300, 8, 12, 8), seed=14)
    plan = identity_plan(2, 300)
    for l in range(2):
        plan.assignment.update({(l, i): (l, i - 256) for i in range(256, 300)})
        plan.assignment.update({(l, i): (l, 50) for i in range(100, 200)})
    tokens = gen_tokens(256, 8, seed=15)
    want = model_forward(materialize(model, plan), tokens)
    assert model_forward(model, tokens, plan).tobytes() == want.tobytes()
