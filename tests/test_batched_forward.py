"""The batched forward against the per-token oracle in tests/oracle.py:
routing counts agree exactly, outputs and weighted norms within
BATCH_RTOL."""

import numpy as np
import pytest

import oracle
from conmoe import ModelSpec, gen_synthetic, gen_tokens, prune_reap, run_calibration
from conmoe.model import model_forward_trace
from oracle import assert_rows_close, assert_stats_close
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
