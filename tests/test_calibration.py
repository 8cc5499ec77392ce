import re

import numpy as np
import pytest

from conmoe import (
    CalibStats,
    contribution,
    gen_synthetic,
    gen_tokens,
    prune_reap,
    run_calibration,
)
from conmoe.model import ModelSpec, MoEModel
from conmoe.store import stats_to_dict
from conftest import stack_layer
import oracle
from oracle import ExpertWeights, assert_stats_close


def stats_from_pairs(pairs):
    """pairs: list of (g, norm) observations for a single expert."""
    return CalibStats(token_total=max(1, len(pairs)), top_k=1,
                      routed_count=np.array([[len(pairs)]]),
                      sum_weighted_norm=np.array([[sum(g * n for g, n in pairs)]]))


NOT_A_BATCH = "tokens must be a non-empty (count, hidden) array"


class TestRunCalibration:
    def test_matches_reference_loop(self):
        for seed in range(8):
            rng = np.random.default_rng(500 + seed)
            num_experts = int(rng.integers(2, 9))
            spec = ModelSpec(
                num_layers=int(rng.integers(1, 5)),
                num_experts=num_experts,
                hidden_dim=int(rng.integers(4, 17)),
                intermediate_dim=int(rng.integers(4, 25)),
                top_k=int(rng.integers(1, num_experts + 1)),
            )
            model, _ = gen_synthetic(spec, seed=seed)
            tokens = gen_tokens(int(rng.integers(1, 12)), spec.hidden_dim, seed=seed + 1)
            assert_stats_close(run_calibration(model, tokens), oracle.calibrate(model, tokens))

    def test_one_token_selects_exactly_k(self, small_model):
        tokens = gen_tokens(1, small_model.spec.hidden_dim, seed=9)
        stats = run_calibration(small_model, tokens)
        for l in range(small_model.spec.num_layers):
            counts = stats.routed_count[l].tolist()
            assert sum(1 for c in counts if c == 1) == small_model.spec.top_k
            assert sum(1 for c in counts if c == 0) == small_model.spec.num_experts - small_model.spec.top_k

    def test_zero_experts_zero_norms(self):
        spec = ModelSpec(2, 3, 4, 6, 2)
        zero = ExpertWeights(
            gate=np.zeros((6, 4), dtype=np.float32),
            up=np.zeros((6, 4), dtype=np.float32),
            down=np.zeros((4, 6), dtype=np.float32),
        )
        rng = np.random.default_rng(0)
        model = MoEModel(spec=spec, layers=[
            stack_layer([zero] * 3,
                        router=rng.standard_normal((3, 4)).astype(np.float32))
            for _ in range(2)
        ])
        stats = run_calibration(model, gen_tokens(5, 4, seed=1))
        assert np.all(stats.sum_weighted_norm == 0.0)

    def test_additivity(self, small_model):
        t1 = gen_tokens(6, small_model.spec.hidden_dim, seed=2)
        doubled = np.concatenate([t1, t1])
        s1 = run_calibration(small_model, t1)
        s2 = run_calibration(small_model, doubled)
        assert s2.token_total == 2 * s1.token_total
        np.testing.assert_array_equal(s2.routed_count, 2 * s1.routed_count)
        np.testing.assert_allclose(s2.sum_weighted_norm, 2 * s1.sum_weighted_norm, rtol=1e-12)

    def test_per_layer_count_conservation(self, small_model, small_stats):
        spec = small_model.spec
        for l in range(spec.num_layers):
            total = small_stats.routed_count[l].sum()
            assert total == small_stats.token_total * spec.top_k

    def test_empty_tokens_rejected(self, small_model):
        with pytest.raises(ValueError, match=re.escape(NOT_A_BATCH)):
            run_calibration(small_model, np.empty((0, small_model.spec.hidden_dim)))

    @pytest.mark.parametrize("shape,message", [
        (lambda h: (h,), NOT_A_BATCH),
        (lambda h: (3, h + 1), "token dimension mismatch"),
    ], ids=["one_token_1d", "wrong_width"])
    def test_malformed_tokens_rejected(self, small_model, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_calibration(small_model, np.ones(shape(small_model.spec.hidden_dim)))

    def test_determinism(self, small_model, small_tokens, small_stats):
        again = run_calibration(small_model, small_tokens)
        assert stats_to_dict(again) == stats_to_dict(small_stats)


class TestScores:
    def test_never_routed_contribution_zero(self):
        stats = stats_from_pairs([])
        assert contribution(stats)[0, 0] == 0.0
        assert stats.routed_count[0, 0] == 0

    def test_single_observation(self):
        stats = stats_from_pairs([(0.5, 2.0)])
        assert contribution(stats)[0, 0] == pytest.approx(1.0)

    def test_mean_over_observations(self):
        stats = stats_from_pairs([(0.5, 2.0), (1.0, 4.0)])
        assert contribution(stats)[0, 0] == pytest.approx(2.5)

    def test_reap_aliases_contribution(self, small_model, small_stats):
        # the REAP baseline keeps, per layer, the experts of largest contribution
        plan = prune_reap(small_model, small_stats, 0.5)
        for scope in plan.scopes:
            refs = [(scope.layers[0], i) for i in range(small_model.spec.num_experts)]
            ranked = sorted(refs, key=lambda r: (-contribution(small_stats)[r], r))
            assert scope.prototypes == sorted(ranked[:len(scope.prototypes)])

    def test_contributions_nonnegative(self, small_model, small_stats):
        for ref in small_model.slots():
            a = contribution(small_stats)[ref]
            assert a >= 0.0
            assert (a == 0.0) == (small_stats.routed_count[ref] == 0 or a == 0.0)
