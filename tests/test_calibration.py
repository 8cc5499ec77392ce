import numpy as np
import pytest

from conmoe import (
    CalibStats,
    contribution,
    expert_forward,
    frequency,
    gen_synthetic,
    gen_tokens,
    prune_reap,
    router_topk,
    run_calibration,
)
from conmoe.calibration import ExpertStats
from conmoe.model import ModelSpec, MoEModel, ExpertWeights
from conmoe.store import canonical_json, stats_to_dict
from conftest import stack_layer


def stats_from_pairs(pairs):
    """pairs: list of (g, norm) observations for a single expert."""
    rec = ExpertStats(
        routed_count=len(pairs),
        sum_weighted_norm=sum(g * n for g, n in pairs),
    )
    return CalibStats(token_total=max(1, len(pairs)), top_k=1, records={(0, 0): rec})


def reference_calibration(model, tokens):
    """Independent per-token loop: route each layer with router_topk, record
    every selected expert's weight times its output norm, then take the
    residual step over the recorded outputs in ascending slot order."""
    records = {ref: ExpertStats() for ref in model.slots()}
    k = model.spec.top_k
    for h in np.asarray(tokens, dtype=np.float64):
        for l, layer in enumerate(model.layers):
            sel = router_topk(layer.router, h, k)
            outputs = {}
            for i, g in zip(sel.indices, sel.weights):
                out = expert_forward(layer.expert(i), h)
                outputs[i] = (g, out)
                rec = records[(l, i)]
                rec.routed_count += 1
                rec.sum_weighted_norm += g * float(np.linalg.norm(out))
            moe_out = np.zeros_like(h)
            for i in sorted(outputs):
                g, out = outputs[i]
                moe_out = moe_out + g * out
            h = h + moe_out
    return CalibStats(token_total=len(tokens), top_k=k, records=records)


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
            got = canonical_json(stats_to_dict(run_calibration(model, tokens)))
            want = canonical_json(stats_to_dict(reference_calibration(model, tokens)))
            assert got == want

    def test_one_token_selects_exactly_k(self, small_model):
        tokens = gen_tokens(1, small_model.spec.hidden_dim, seed=9)
        stats = run_calibration(small_model, tokens)
        for l in range(small_model.spec.num_layers):
            counts = [stats.records[(l, i)].routed_count for i in range(small_model.spec.num_experts)]
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
        assert all(r.sum_weighted_norm == 0.0 for r in stats.records.values())

    def test_additivity(self, small_model):
        t1 = gen_tokens(6, small_model.spec.hidden_dim, seed=2)
        doubled = np.concatenate([t1, t1])
        s1 = run_calibration(small_model, t1)
        s2 = run_calibration(small_model, doubled)
        assert s2.token_total == 2 * s1.token_total
        for ref, rec in s1.records.items():
            assert s2.records[ref].routed_count == 2 * rec.routed_count
            assert s2.records[ref].sum_weighted_norm == pytest.approx(2 * rec.sum_weighted_norm, rel=1e-12)

    def test_per_layer_count_conservation(self, small_model, small_stats):
        spec = small_model.spec
        for l in range(spec.num_layers):
            total = sum(small_stats.records[(l, i)].routed_count for i in range(spec.num_experts))
            assert total == small_stats.token_total * spec.top_k

    def test_empty_tokens_rejected(self, small_model):
        with pytest.raises(ValueError):
            run_calibration(small_model, np.empty((0, small_model.spec.hidden_dim)))

    def test_determinism(self, small_model, small_tokens, small_stats):
        again = run_calibration(small_model, small_tokens)
        assert again == small_stats


class TestScores:
    def test_never_routed_contribution_zero(self):
        stats = stats_from_pairs([])
        assert contribution(stats, (0, 0)) == 0.0
        assert frequency(stats, (0, 0)) == 0

    def test_single_observation(self):
        stats = stats_from_pairs([(0.5, 2.0)])
        assert contribution(stats, (0, 0)) == pytest.approx(1.0)

    def test_mean_over_observations(self):
        stats = stats_from_pairs([(0.5, 2.0), (1.0, 4.0)])
        assert contribution(stats, (0, 0)) == pytest.approx(2.5)

    def test_reap_aliases_contribution(self, small_model, small_stats):
        # the REAP baseline keeps, per layer, the experts of largest contribution
        plan = prune_reap(small_model, small_stats, 0.5)
        for scope in plan.scopes:
            refs = [(scope.layers[0], i) for i in range(small_model.spec.num_experts)]
            ranked = sorted(refs, key=lambda r: (-contribution(small_stats, r), r))
            assert scope.prototypes == sorted(ranked[:len(scope.prototypes)])

    def test_unknown_expert_rejected(self):
        stats = stats_from_pairs([(0.5, 2.0)])
        with pytest.raises(ValueError):
            frequency(stats, (5, 5))

    def test_contributions_nonnegative(self, small_model, small_stats):
        for ref in small_model.slots():
            a = contribution(small_stats, ref)
            assert a >= 0.0
            assert (a == 0.0) == (small_stats.records[ref].routed_count == 0 or a == 0.0)
