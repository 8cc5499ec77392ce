import numpy as np
import pytest

from conmoe import (
    DupConfig,
    ModelSpec,
    distance_matrix,
    gen_synthetic,
    materialize,
    model_forward,
    moe_forward,
)
from conmoe.model import MoEModel, slot_groups
from conftest import experts_equal, stack_layer
from oracle import (
    BATCH_RTOL,
    ExpertWeights,
    aggregate_coefficients,
    assert_rows_close,
    expert,
    expert_forward,
    identity_plan,
    models_equal,
    router_topk,
)

SILU_ONE = 1.0 / (1.0 + np.exp(-1.0))  # closed form, ~0.7310585786300049


def make_expert(inter, hidden, fill=0.0):
    return ExpertWeights(
        gate=np.full((inter, hidden), fill, dtype=np.float32),
        up=np.full((inter, hidden), fill, dtype=np.float32),
        down=np.full((hidden, inter), fill, dtype=np.float32),
    )


def one_layer_model(layer, k):
    n, hidden = layer.router.shape
    inter = layer.block.shape[2] // hidden
    return MoEModel(spec=ModelSpec(1, n, hidden, inter, k), layers=[layer])


def identity_padded(rows, cols):
    out = np.zeros((rows, cols), dtype=np.float32)
    np.fill_diagonal(out, 1.0)
    return out


class TestExpertForward:
    def test_zero_weights_give_zero(self):
        e = make_expert(6, 4)
        out = expert_forward(e, np.ones(4))
        assert np.array_equal(out, np.zeros(4))

    def test_identity_padded_silu(self):
        e = ExpertWeights(
            gate=identity_padded(6, 4), up=identity_padded(6, 4), down=identity_padded(4, 6)
        )
        h = np.zeros(4)
        h[0] = 1.0
        out = expert_forward(e, h)
        assert out[0] == pytest.approx(SILU_ONE, abs=1e-12)
        assert np.all(out[1:] == 0.0)

    def test_zero_input_gives_zero(self, rng):
        e = ExpertWeights(
            gate=rng.standard_normal((6, 4)).astype(np.float32),
            up=rng.standard_normal((6, 4)).astype(np.float32),
            down=rng.standard_normal((4, 6)).astype(np.float32),
        )
        assert np.array_equal(expert_forward(e, np.zeros(4)), np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expert_forward(make_expert(6, 4), np.ones(5))


class TestRouterTopK:
    def router_for(self, logits):
        # router @ e0 reproduces the requested logits
        r = np.zeros((len(logits), 2), dtype=np.float64)
        r[:, 0] = logits
        return r

    def test_equal_logits_tie_break(self):
        sel = router_topk(self.router_for([2.0, 2.0, -1.0]), np.array([1.0, 0.0]), 2)
        assert sel.indices == (0, 1)
        assert sel.weights == pytest.approx((0.5, 0.5))

    def test_k_one(self):
        sel = router_topk(self.router_for([1.0, 0.0]), np.array([1.0, 0.0]), 1)
        assert sel.indices == (0,)
        assert sel.weights == (1.0,)

    def test_softmax_closed_form(self):
        sel = router_topk(self.router_for([np.log(3.0), 0.0]), np.array([1.0, 0.0]), 2)
        assert sel.weights == pytest.approx((0.75, 0.25), abs=1e-12)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            router_topk(self.router_for([1.0]), np.array([1.0, 0.0]), 0)

    def test_nonfinite_logits_rejected(self):
        r = np.array([[np.inf, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            router_topk(r, np.array([1.0, 0.0]), 1)


class TestMoEForward:
    def test_k1_equals_argmax_expert(self, small_model):
        layer = small_model.layers[0]
        h = np.arange(small_model.spec.hidden_dim, dtype=np.float64) / 7.0
        sel = router_topk(layer.router, h, 1)
        out = moe_forward(one_layer_model(layer, 1), 0, h)
        assert np.array_equal(out, expert_forward(expert(small_model, (0, sel.indices[0])), h))

    def test_identical_experts_weight_sum(self, rng):
        e = ExpertWeights(
            gate=rng.standard_normal((6, 4)).astype(np.float32),
            up=rng.standard_normal((6, 4)).astype(np.float32),
            down=rng.standard_normal((4, 6)).astype(np.float32),
        )
        layer = stack_layer([e, e], router=rng.standard_normal((2, 4)).astype(np.float32))
        h = rng.standard_normal(4)
        out = moe_forward(one_layer_model(layer, 2), 0, h)
        single = expert_forward(e, h)
        assert out == pytest.approx(single, rel=1e-12)

    def test_all_zero_experts(self, rng):
        layer = stack_layer(
            [make_expert(6, 4) for _ in range(3)],
            router=rng.standard_normal((3, 4)).astype(np.float32),
        )
        assert np.array_equal(moe_forward(one_layer_model(layer, 2), 0, rng.standard_normal(4)), np.zeros(4))

    def test_terms_are_router_topk_in_ascending_slot_order(self, small_model, small_tokens):
        x = small_tokens[:8]
        terms = {t: [] for t in range(len(x))}
        for i, tok, w, y in slot_groups(small_model, 1, x):
            for t, g, out in zip(tok.tolist(), w.tolist(), y):
                terms[t].append((i, g))
                assert_rows_close(out, expert_forward(expert(small_model, (1, i)), x[t]))
        for t, h in enumerate(x):
            sel = router_topk(small_model.layers[1].router, h, small_model.spec.top_k)
            want = sorted(zip(sel.indices, sel.weights))
            assert [i for i, _ in terms[t]] == [i for i, _ in want]
            assert [g for _, g in terms[t]] == pytest.approx([g for _, g in want], rel=BATCH_RTOL)


class TestBatchedRouting:
    def test_equal_logits_tie_break(self):
        # router @ e0 gives logits 2, 2, -1: slots 0 and 1 at 0.5 each
        layer = stack_layer(
            [make_expert(6, 4) for _ in range(3)],
            router=np.array([[2.0, 0, 0, 0], [2.0, 0, 0, 0], [-1.0, 0, 0, 0]], dtype=np.float32),
        )
        groups = slot_groups(one_layer_model(layer, 2), 0, np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert [(i, w.tolist()) for i, _, w, _ in groups] == [(0, [0.5]), (1, [0.5])]

    def test_nonfinite_logits_rejected(self):
        layer = stack_layer(
            [make_expert(6, 4) for _ in range(2)],
            router=np.array([[np.inf, 0, 0, 0], [0, 0, 0, 0]], dtype=np.float32),
        )
        with pytest.raises(ValueError, match="non-finite router logits"):
            moe_forward(one_layer_model(layer, 1), 0, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_dimension_mismatch(self, small_model):
        hidden = small_model.spec.hidden_dim
        for shape in [(hidden + 1,), (2, hidden + 1), (1, 2, hidden)]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                model_forward(small_model, np.ones(shape))


class TestConsolidatedForward:
    def test_identity_plan_bit_identical(self, small_model, small_tokens):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        for t in small_tokens[:8]:
            a = model_forward(small_model, t, plan)
            b = model_forward(small_model, t)
            assert np.array_equal(a, b)

    def test_shared_prototype_aggregates(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        # map every slot of layer 0 to slot (0, 0)
        for i in range(small_model.spec.num_experts):
            plan.assignment[(0, i)] = (0, 0)
        h = np.linspace(-1, 1, small_model.spec.hidden_dim)
        out = moe_forward(small_model, 0, h, plan)
        coeffs = aggregate_coefficients(small_model, 0, plan, h)
        assert set(coeffs) == {(0, 0)}
        assert coeffs[(0, 0)] == pytest.approx(1.0, abs=1e-6)
        single = expert_forward(expert(small_model, (0, 0)), h)
        assert out == pytest.approx(coeffs[(0, 0)] * single, rel=1e-12)

    def test_all_selected_dropped_gives_zero(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        plan.drop_mask = {(0, i) for i in range(small_model.spec.num_experts)}
        h = np.ones(small_model.spec.hidden_dim)
        assert list(slot_groups(small_model, 0, h[None], plan)) == []
        assert np.array_equal(
            moe_forward(small_model, 0, h, plan),
            np.zeros(small_model.spec.hidden_dim),
        )
        batch = np.stack([h, -h, 2 * h])
        assert np.array_equal(moe_forward(small_model, 0, batch, plan), np.zeros_like(batch))

    def test_dropped_winner_far_above_survivor(self):
        # the survivor's logit is 1000 below the dropped winner's: its
        # weight, renormalized by division, would be 0.0 / 0.0
        layer = stack_layer(
            [make_expert(6, 4, fill=0.1 * (i + 1)) for i in range(3)],
            router=np.array([[1000.0, 0, 0, 0], [0, 0, 0, 0], [-1000.0, 0, 0, 0]],
                            dtype=np.float32),
        )
        model = one_layer_model(layer, 2)
        plan = identity_plan(1, 3)
        plan.drop_mask = {(0, 0)}
        h = np.array([1.0, 0.0, 0.0, 0.0])
        groups = slot_groups(model, 0, h[None], plan)
        assert [(i, tok.tolist(), w.tolist()) for i, tok, w, _ in groups] == [(1, [0], [1.0])]
        assert np.array_equal(moe_forward(model, 0, h, plan), expert_forward(expert(model, (0, 1)), h))

    def test_surviving_weights_are_softmax_of_surviving_logits(self):
        layer = stack_layer(
            [make_expert(6, 4) for _ in range(3)],
            router=np.array([[3.0, 0, 0, 0], [np.log(3.0), 0, 0, 0], [0, 0, 0, 0]]),
        )
        model = one_layer_model(layer, 3)
        plan = identity_plan(1, 3)
        plan.drop_mask = {(0, 0)}
        groups = list(slot_groups(model, 0, np.array([[1.0, 0.0, 0.0, 0.0]]), plan))
        assert [i for i, _, _, _ in groups] == [1, 2]
        assert [w[0] for _, _, w, _ in groups] == pytest.approx([0.75, 0.25], abs=1e-12)

    # fewer experts, fewer layers, and a superset of the model's slots
    @pytest.mark.parametrize("shape", [(4, 4), (3, 8), (5, 8)])
    def test_plan_from_another_shape_rejected(self, small_model, small_tokens, shape):
        plan = identity_plan(*shape)
        for h in (small_tokens[0], small_tokens[:4]):
            with pytest.raises(ValueError, match="plan does not cover this model"):
                moe_forward(small_model, 0, h, plan)
            with pytest.raises(ValueError, match="plan does not cover this model"):
                model_forward(small_model, h, plan)


class TestModelForward:
    def test_zero_model_residual_identity(self):
        spec = ModelSpec(2, 3, 4, 6, 2)
        layers = [
            stack_layer([make_expert(6, 4) for _ in range(3)],
                        router=np.zeros((3, 4), dtype=np.float32))
            for _ in range(2)
        ]
        model = MoEModel(spec=spec, layers=layers)
        h0 = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(model_forward(model, h0), h0)

    def test_token_and_one_row_batch_bit_identical(self, small_model, small_tokens):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        plan.assignment[(1, 3)] = (1, 0)
        for p in (None, plan):
            for t in small_tokens[:8]:
                one = model_forward(small_model, t, p)
                assert one.shape == t.shape
                assert one.tobytes() == model_forward(small_model, t[None], p).tobytes()

    def test_single_layer(self, small_model):
        spec = small_model.spec
        one = MoEModel(spec=ModelSpec(1, spec.num_experts, spec.hidden_dim,
                                      spec.intermediate_dim, spec.top_k),
                       layers=[small_model.layers[0]])
        h0 = np.linspace(0, 1, spec.hidden_dim)
        want = h0 + moe_forward(small_model, 0, h0)
        assert np.array_equal(model_forward(one, h0), want)


class TestMaterialize:
    def test_identity_plan_gives_equal_model(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        assert models_equal(materialize(small_model, plan), small_model)

    def test_all_to_slot_zero(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        for i in range(small_model.spec.num_experts):
            plan.assignment[(1, i)] = (1, 0)
        mat = materialize(small_model, plan)
        for i in range(small_model.spec.num_experts):
            assert experts_equal(expert(mat, (1, i)), expert(small_model, (1, 0)))

    def test_forward_equivalence(self, small_model, small_tokens):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        for i in range(small_model.spec.num_experts):
            plan.assignment[(2, i)] = (2, i // 2 * 2)
        mat = materialize(small_model, plan)
        for t in small_tokens[:8]:
            assert np.array_equal(model_forward(small_model, t, plan), model_forward(mat, t))


class TestGenSynthetic:
    def test_seed_determinism(self, small_spec):
        a, _ = gen_synthetic(small_spec, seed=11)
        b, _ = gen_synthetic(small_spec, seed=11)
        assert models_equal(a, b)

    def test_within_duplicates_zero_nn(self, small_spec):
        model, dup_map = gen_synthetic(small_spec, seed=5, dup=DupConfig("within"))
        assert len(dup_map) == small_spec.num_layers * small_spec.num_experts // 2
        refs = [(0, i) for i in range(small_spec.num_experts)]
        table = distance_matrix(model, refs)
        for copy, src in dup_map.items():
            if copy[0] == 0:
                assert table.distance(copy, src) == 0.0

    def test_cross_duplicates_live_in_previous_layer(self, small_spec):
        model, dup_map = gen_synthetic(small_spec, seed=5, dup=DupConfig("cross"))
        refs = [(l, i) for l in (0, 1) for i in range(small_spec.num_experts)]
        table = distance_matrix(model, refs)
        for i in range(small_spec.num_experts):
            assert dup_map[(1, i)] == (0, i)
            assert table.distance((1, i), (0, i)) == 0.0

    def test_dup_on_tiny_model_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(ModelSpec(1, 1, 4, 6, 1), seed=0, dup=DupConfig("within"))
