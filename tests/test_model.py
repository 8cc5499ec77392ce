import re
import tracemalloc

import numpy as np
import pytest

from conmoe import (
    DupConfig,
    ModelSpec,
    ScopeConfig,
    consolidate,
    distance_matrix,
    evaluate_fidelity,
    gen_synthetic,
    gen_tokens,
    materialize,
    model_forward,
    moe_forward,
    read_checkpoint,
    run_calibration,
    write_checkpoint,
)
from conmoe.model import DerivedLayers, MoELayer, MoEModel, slot_groups
from conftest import experts_equal, stack_layer
from oracle import (
    BATCH_RTOL,
    ExpertWeights,
    aggregate_coefficients,
    assert_rows_close,
    distance,
    expert,
    expert_forward,
    identity_plan,
    models_equal,
    rms_norm,
    router_topk,
    slot_weights,
)

# closed form in float32, ~0.7310586
SILU_ONE = np.float32(1.0) / (np.float32(1.0) + np.exp(np.float32(-1.0)))


def weighted_sum(terms):
    """sum of w * y over (weight, output) pairs, in order, in float32: the
    forward's per-token sum."""
    out = np.zeros_like(terms[0][1])
    for w, y in terms:
        out = out + w * y
    return out


def make_expert(inter, hidden, fill=0.0):
    return ExpertWeights(
        gate=np.full((inter, hidden), fill, dtype=np.float32),
        up=np.full((inter, hidden), fill, dtype=np.float32),
        down=np.full((hidden, inter), fill, dtype=np.float32),
    )


def mapped_with_alignment(model, path, aligned):
    """model written to path, its header padded so that the payload is (or
    is not) 4-byte aligned, and read back mapped."""
    for pad in range(4):
        model.metadata["pad"] = "x" * pad
        write_checkpoint(model, path)
        mapped = read_checkpoint(path)
        if mapped.layers[0].block.flags.aligned == aligned:
            return mapped
    raise AssertionError("no header length gives that alignment")


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
        sel = router_topk(layer.router, rms_norm(h), 1)
        out = moe_forward(one_layer_model(layer, 1), 0, h)
        assert np.array_equal(out, expert_forward(expert(small_model, (0, sel.indices[0])), rms_norm(h)))

    def test_identical_experts_weight_sum(self, rng):
        e = ExpertWeights(
            gate=rng.standard_normal((6, 4)).astype(np.float32),
            up=rng.standard_normal((6, 4)).astype(np.float32),
            down=rng.standard_normal((4, 6)).astype(np.float32),
        )
        layer = stack_layer([e, e], router=rng.standard_normal((2, 4)).astype(np.float32))
        h = rng.standard_normal(4)
        model = one_layer_model(layer, 2)
        out = moe_forward(model, 0, h)
        single = expert_forward(e, rms_norm(h))
        weights = [w for _, w in slot_weights(model, 0, h)]
        assert out == pytest.approx(weighted_sum([(w, single) for w in weights]), rel=1e-12)
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)

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
                assert_rows_close(out, expert_forward(expert(small_model, (1, i)), rms_norm(x[t])))
        for t, h in enumerate(x):
            sel = router_topk(small_model.layers[1].router, rms_norm(h), small_model.spec.top_k)
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

    def test_expert_overflow_names_the_layer(self):
        """Finite weights whose products pass float32's range: the forward
        and calibration refuse layer 1 by name, and no RuntimeWarning (an
        error in this suite) escapes the expert arithmetic."""
        model, _ = gen_synthetic(ModelSpec(2, 16, 32, 48, 2), seed=42)
        model.layers[1].block[:, :2] *= 1e20  # gate and up
        x = gen_tokens(64, 32, seed=1)
        for run in (model_forward, run_calibration):
            with pytest.raises(ValueError, match="^non-finite expert output at layer 1$"):
                run(model, x)

    def test_large_input_norm_names_the_layer(self):
        """Layer 0's down scaled by 1e20: its outputs stay finite, but their
        float32 norms and layer 1's mean square overflow. The forward refuses
        layer 1's input, which the norm would divide by inf to zeros, and
        calibration refuses layer 0's output norms; no RuntimeWarning (an
        error in this suite) escapes either."""
        model, _ = gen_synthetic(ModelSpec(2, 16, 32, 48, 2), seed=42)
        model.layers[0].block[:, 2] *= 1e20  # down
        x = gen_tokens(64, 32, seed=1)
        with pytest.raises(ValueError, match="^non-finite input norm at layer 1$"):
            model_forward(model, x)
        with pytest.raises(ValueError, match="^non-finite expert output norm at layer 0$"):
            run_calibration(model, x)

    @pytest.mark.parametrize("scale", [1.0, 1e20], ids=["returns", "raises"])
    def test_error_state_does_not_leak(self, scale):
        """Each forward entry point leaves NumPy's error state as it found
        it, both when it returns and when it refuses layer 1's gate and up
        scaled by 1e20."""
        model, _ = gen_synthetic(ModelSpec(2, 16, 32, 48, 2), seed=42)
        model.layers[1].block[:, :2] *= scale
        x, before = gen_tokens(64, 32, seed=1), np.geterr()
        for run in (lambda: moe_forward(model, 1, x), lambda: model_forward(model, x),
                    lambda: run_calibration(model, x),
                    lambda: evaluate_fidelity(model, identity_plan(2, 16), x)):
            if scale == 1.0:
                run()
            else:
                with pytest.raises(ValueError, match="^non-finite expert output at layer 1$"):
                    run()
            assert np.geterr() == before

    def test_dimension_mismatch(self, small_model):
        hidden = small_model.spec.hidden_dim
        for shape in [(hidden + 1,), (2, hidden + 1), (1, 2, hidden)]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                model_forward(small_model, np.ones(shape))


    def test_routing_sort_is_released(self):
        """One layer on a 10,000-token float32 batch of the README shape
        traces below 4.6 (tokens, hidden) float32 arrays: the normalised
        batch, the output, and one slot group's rows and products. The full
        routing sort and the logits are not held while the groups run;
        holding them traced 5.4 (4.1 without)."""
        model, _ = gen_synthetic(ModelSpec(8, 16, 32, 48, 2), seed=42)
        x = gen_tokens(10_000, 32, seed=1).astype(np.float32)
        tracemalloc.start()
        try:
            moe_forward(model, 0, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.6 * x.nbytes


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
        single = expert_forward(expert(small_model, (0, 0)), rms_norm(h))
        terms = [(w, single) for _, w in slot_weights(small_model, 0, h, plan)]
        assert out == pytest.approx(weighted_sum(terms), rel=1e-12)

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
        assert np.array_equal(moe_forward(model, 0, h, plan), expert_forward(expert(model, (0, 1)), rms_norm(h)))

    def test_surviving_weights_are_softmax_of_surviving_logits(self):
        # the token [16, 0, 0, 0] normalises to exactly [2, 0, 0, 0]: its mean
        # square 64 absorbs NORM_EPS in float32, so the logits are 2 * router
        layer = stack_layer(
            [make_expert(6, 4) for _ in range(3)],
            router=np.array([[1.5, 0, 0, 0], [np.log(3.0) / 2, 0, 0, 0], [0, 0, 0, 0]], dtype=np.float32),
        )
        model = one_layer_model(layer, 3)
        plan = identity_plan(1, 3)
        plan.drop_mask = {(0, 0)}
        groups = list(slot_groups(model, 0, np.array([[16.0, 0.0, 0.0, 0.0]]), plan))
        assert [i for i, _, _, _ in groups] == [1, 2]
        # the closed form 1 / (1 + z), z / (1 + z) with z = exp(-log 3), in float32
        z = np.exp(-2 * layer.router[1, 0])
        assert [w[0] for _, _, w, _ in groups] == pytest.approx([1 / (1 + z), z / (1 + z)], abs=1e-12)
        assert [w[0] for _, _, w, _ in groups] == pytest.approx([0.75, 0.25], abs=1e-6)

    # fewer experts, fewer layers, a superset of the model's slots, and as
    # many slots as the model's (4, 8) grid in another shape
    @pytest.mark.parametrize("shape", [(4, 4), (3, 8), (5, 8), (8, 4), (2, 16)])
    def test_plan_from_another_shape_rejected(self, small_model, small_tokens, shape):
        plan = identity_plan(*shape)
        message = re.escape(f"plan does not cover this model (plan grid {shape}, model grid (4, 8))")
        for h in (small_tokens[0], small_tokens[:4]):
            with pytest.raises(ValueError, match=message):
                moe_forward(small_model, 0, h, plan)
            with pytest.raises(ValueError, match=message):
                model_forward(small_model, h, plan)
        # the evaluation has no coverage check of its own; its plan forward refuses
        with pytest.raises(ValueError, match=message):
            evaluate_fidelity(small_model, plan, small_tokens[:4])


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

    @pytest.mark.parametrize("planned", [False, True], ids=["plain", "plan"])
    def test_visit_sees_every_slot_group_and_moves_no_bit(self, small_model, small_tokens, planned):
        """A visitor sees layers 0..L-1 in order, each layer's slot groups
        exactly as slot_groups yields them on that layer's input, and the
        final state has the same bytes as without it."""
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        plan.assignment[(1, 3)] = (1, 0)
        plan = plan if planned else None
        x = small_tokens.astype(np.float32)
        seen = []
        final = model_forward(small_model, x, plan, visit=lambda *group: seen.append(group))
        assert final.tobytes() == model_forward(small_model, x, plan).tobytes()
        want = []
        for l in range(small_model.spec.num_layers):
            want += [(l, *group) for group in slot_groups(small_model, l, x, plan)]
            x = x + moe_forward(small_model, l, x, plan)
        order = [(l, i) for l, i, *_ in seen]
        assert order == sorted(order) == [(l, i) for l, i, *_ in want]
        assert {l for l, _ in order} == set(range(small_model.spec.num_layers))
        for got, expected in zip(seen, want):
            assert [a.tobytes() for a in got[2:]] == [a.tobytes() for a in expected[2:]]

    def test_single_layer(self, small_model):
        spec = small_model.spec
        one = MoEModel(spec=ModelSpec(1, spec.num_experts, spec.hidden_dim,
                                      spec.intermediate_dim, spec.top_k),
                       layers=[small_model.layers[0]])
        h0 = np.linspace(0, 1, spec.hidden_dim, dtype=np.float32)
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

    @pytest.mark.parametrize("source_aligned", [False, True], ids=["unaligned_source", "aligned_source"])
    def test_forward_bit_identical_across_payload_alignment(self, tmp_path, source_aligned):
        """A mapped payload starts wherever its header ends, so its float32
        rows may be unaligned, and NumPy multiplies unaligned operands
        outside BLAS, with other bits. Whichever file is aligned, the plan
        forward on the source equals its materialized checkpoint's plain
        forward bit for bit, a token at a time and as one batch."""
        spec = ModelSpec(4, 16, 32, 48, 2)
        model, _ = gen_synthetic(spec, seed=5)
        tokens = gen_tokens(64, spec.hidden_dim, seed=6)
        plan = consolidate(model, run_calibration(model, tokens), ScopeConfig(rho=0.5, scope_size=2))
        source = mapped_with_alignment(model, tmp_path / "source.mckpt", source_aligned)
        mat = mapped_with_alignment(materialize(source, plan), tmp_path / "mat.mckpt", not source_aligned)
        for h in tokens[:16]:
            assert model_forward(source, h, plan).tobytes() == model_forward(mat, h).tobytes()
        assert model_forward(source, tokens, plan).tobytes() == model_forward(mat, tokens).tobytes()

    def test_derived_source_builds_each_layer_about_once(self):
        """Rows are copied in ascending prototype order, so a derived source,
        which holds one layer, is built about once per source layer a derived
        layer reads, not once per cross-layer row."""
        spec = ModelSpec(4, 32, 8, 12, 2)
        model, _ = gen_synthetic(spec, seed=3)
        stats = run_calibration(model, gen_tokens(64, spec.hidden_dim, seed=4))
        plan = consolidate(model, stats, ScopeConfig(rho=0.5, scope_size=4))
        builds = []

        def build(l):
            builds.append(l)
            return MoELayer(model.layers[l].block.copy(), model.layers[l].router.copy())

        derived = materialize(MoEModel(spec, DerivedLayers(spec.num_layers, build)), plan)
        got = [(derived.layers[l].block.copy(), derived.layers[l].router.copy()) for l in range(spec.num_layers)]
        assert len(builds) <= spec.num_layers * (plan.scope_size + 2)
        want = materialize(model, plan)
        assert models_equal(MoEModel(spec, [MoELayer(*pair) for pair in got]), want)


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
                assert distance(table, copy, src) == 0.0

    def test_cross_duplicates_live_in_previous_layer(self, small_spec):
        model, dup_map = gen_synthetic(small_spec, seed=5, dup=DupConfig("cross"))
        refs = [(l, i) for l in (0, 1) for i in range(small_spec.num_experts)]
        table = distance_matrix(model, refs)
        for i in range(small_spec.num_experts):
            assert dup_map[(1, i)] == (0, i)
            assert distance(table, (1, i), (0, i)) == 0.0

    def test_dup_on_tiny_model_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(ModelSpec(1, 1, 4, 6, 1), seed=0, dup=DupConfig("within"))
