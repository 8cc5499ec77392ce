import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from conmoe import (
    ConsolidationPlan,
    ModelSpec,
    consolidate,
    cross_layer_nn,
    evaluate_fidelity,
    gen_synthetic,
    gen_tokens,
    prune_frequency,
    reduction_accounting,
    run_calibration,
    scope_sweep,
)
from conmoe.analysis import _mean_relative_error, dump_nn_csvs
from conmoe.geometry import EPS
from conmoe.model import MoELayer, MoEModel
from conmoe.store import canonical_json
import oracle
from oracle import identity_plan


NOT_A_BATCH = "tokens must be a non-empty (count, hidden) array"


class TestEvaluateFidelity:
    def test_identity_plan_zero_errors(self, small_model, small_tokens):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        report = evaluate_fidelity(small_model, plan, small_tokens)
        assert report.end_to_end_error == 0.0
        assert all(e == 0.0 for e in report.per_layer_error)
        assert report.achieved_reduction == 0.0

    def test_exact_duplicates_zero_error_at_half(self):
        spec = ModelSpec(4, 8, 16, 24, 2)
        model, _ = gen_synthetic(spec, seed=17, dup="within")
        tokens = gen_tokens(24, spec.hidden_dim, seed=8)
        stats = run_calibration(model, tokens)
        plan = consolidate(model, stats, rho=0.5, scope_size=1)
        report = evaluate_fidelity(model, plan, tokens)
        assert report.end_to_end_error == 0.0
        assert report.achieved_reduction == pytest.approx(0.5)

    def test_pruning_differs_from_remapping(self, small_model, small_stats, small_tokens):
        remap = consolidate(small_model, small_stats, rho=0.5)
        prune = prune_frequency(small_model, small_stats, 0.5)
        r1 = evaluate_fidelity(small_model, remap, small_tokens)
        r2 = evaluate_fidelity(small_model, prune, small_tokens)
        assert r1.end_to_end_error != r2.end_to_end_error
        assert r1.metadata["policy"] != r2.metadata["policy"]

    def test_empty_tokens_rejected(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        with pytest.raises(ValueError, match=re.escape(NOT_A_BATCH)):
            evaluate_fidelity(small_model, plan, np.empty((0, small_model.spec.hidden_dim)))

    @pytest.mark.parametrize("shape,message", [
        (lambda h: (h,), NOT_A_BATCH),
        (lambda h: (3, h + 1), "token dimension mismatch"),
    ], ids=["one_token_1d", "wrong_width"])
    def test_malformed_tokens_rejected(self, small_model, shape, message):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_fidelity(small_model, plan, np.ones(shape(small_model.spec.hidden_dim)))


    def test_overflowing_end_to_end_norm_rescored(self):
        """Hidden size 1, top-1: the reference routes each token by the sign
        of its state to slot 0 or 1, each adding about -2.5e18 per layer; the
        plan sends both slots to the zero slot 2, so its state stays 1.0.
        Every layer's error is then 1.0. After 8 layers the reference's
        square passes float32's range, so a float32 final-state error would
        read inf / inf; in float64 it is 1.0 too."""
        block = np.array([[[10.0], [1.0], [-2.5e17]], [[-10.0], [-1.0], [-2.5e17]], [[0.0]] * 3],
                         dtype=np.float32)
        router = np.array([[1.0], [-1.0], [0.0]], dtype=np.float32)
        model = MoEModel(ModelSpec(8, 3, 1, 1, 1), [MoELayer(block, router) for _ in range(8)])
        plan = ConsolidationPlan(rho=0.5, scope_size=1, policy="adaptive",
                                 assignment={(l, i): (l, 2) for l in range(8) for i in range(3)})
        report = evaluate_fidelity(model, plan, np.ones((1, 1)))
        assert report.per_layer_error == [1.0] * 8
        assert report.end_to_end_error == 1.0

    def test_overflowing_reference_norm_not_read_as_zero(self):
        """One layer, hidden size 1, top-1: the token routes to slot 0, whose
        output is about -3e19; the plan sends it to slot 2, about -2.9e19.
        The reference's square overflows float32 but the difference's does
        not, so a float32 ratio would read x / inf = 0; in float64 both
        errors are about 1/30."""
        block = np.array([[[10.0], [1.0], [-3e18]], [[0.0]] * 3, [[10.0], [1.0], [-2.9e18]]],
                         dtype=np.float32)
        router = np.array([[1.0], [-1.0], [0.0]], dtype=np.float32)
        model = MoEModel(ModelSpec(1, 3, 1, 1, 1), [MoELayer(block, router)])
        plan = ConsolidationPlan(rho=1 / 3, scope_size=1, policy="adaptive",
                                 assignment={(0, 0): (0, 2), (0, 1): (0, 1), (0, 2): (0, 2)})
        report = evaluate_fidelity(model, plan, np.ones((1, 1)))
        assert report.per_layer_error == [pytest.approx(1 / 30, rel=1e-5)]
        assert report.end_to_end_error == pytest.approx(1 / 30, rel=1e-5)


    def test_overflowing_difference_scored(self):
        """One layer, hidden size 1, top-1: the token routes to slot 0, whose
        output is about +2e38; the plan sends it to slot 2, whose output is
        its exact negation. Both outputs and states are finite float32, but
        their float32 difference overflows; in float64 every error is 2.0,
        with no warning."""
        block = np.array([[[10.0], [1.0], [2e37]], [[0.0]] * 3, [[10.0], [1.0], [-2e37]]],
                         dtype=np.float32)
        router = np.array([[1.0], [-1.0], [0.0]], dtype=np.float32)
        model = MoEModel(ModelSpec(1, 3, 1, 1, 1), [MoELayer(block, router)])
        plan = ConsolidationPlan(rho=1 / 3, scope_size=1, policy="adaptive",
                                 assignment={(0, 0): (0, 2), (0, 1): (0, 1), (0, 2): (0, 2)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_fidelity(model, plan, np.ones((1, 1)))
        assert report.per_layer_error == [2.0]
        assert report.end_to_end_error == 2.0

    def test_error_of_rows_whose_float32_squares_overflow(self):
        """Rows of 16 entries near 2e19, whose float32 squares pass 3.4e38:
        the mean relative error equals a float64 reference exactly."""
        rng = np.random.default_rng(3)
        want = (rng.uniform(1.9e19, 2.1e19, (5, 16)) * rng.choice([-1, 1], (5, 16))).astype(np.float32)
        got = (want * rng.uniform(0.9, 1.1, want.shape)).astype(np.float32)
        with np.errstate(over="ignore"):
            assert np.isinf(np.square(want)).all()
        got64, want64 = got.astype(np.float64), want.astype(np.float64)
        errors = np.sqrt(np.square(got64 - want64).sum(axis=1)) / (np.sqrt(np.square(want64).sum(axis=1)) + EPS)
        assert _mean_relative_error(got, want) == errors.mean()


class TestReductionAccounting:
    def test_identity_zero(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        assert reduction_accounting(plan) == 0.0

    def test_half(self, small_model, small_stats):
        plan = consolidate(small_model, small_stats, rho=0.5)
        # 32 slots, 16 distinct prototypes
        assert len(plan.distinct_prototypes()) == 16
        assert reduction_accounting(plan) == pytest.approx(0.5)

    def test_shared_prototype_counts_once(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        for i in range(small_model.spec.num_experts):
            plan.assignment[(0, i)] = (0, 0)
        n_slots = len(plan.assignment)
        assert reduction_accounting(plan) == pytest.approx(1.0 - (n_slots - 7) / n_slots)


class TestCrossLayerNN:
    def test_sigma1_all_local(self, small_model):
        report = cross_layer_nn(small_model, 1)
        assert report.overall_fraction == 0.0
        assert all(f == 0.0 for f in report.per_layer_fraction)

    def test_planted_cross_copies_fraction_one(self):
        spec = ModelSpec(4, 6, 16, 24, 2)
        model, _ = gen_synthetic(spec, seed=19, dup="cross")
        report = cross_layer_nn(model, 2)
        assert report.overall_fraction == 1.0

    def test_row_sums_conserved(self, small_model):
        report = cross_layer_nn(small_model, 2)
        for row in report.counts:
            assert sum(row) == small_model.spec.num_experts

    @staticmethod
    def assert_matches_nested_tally(model, scope_size):
        got = cross_layer_nn(model, scope_size)
        want = oracle.cross_layer_nn(model, scope_size)
        assert got.counts == want.counts
        assert got.per_layer_fraction == want.per_layer_fraction
        assert got.overall_fraction == want.overall_fraction
        assert canonical_json(asdict(got)) == canonical_json(asdict(want))

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_nested_tally_every_scope_size(self, seed):
        # 5 layers: scope sizes 2, 3 and 4 leave a ragged last scope
        spec = ModelSpec(5, 6, 8, 12, 2)
        model, _ = gen_synthetic(spec, seed=seed)
        for scope_size in range(1, spec.num_layers + 1):
            self.assert_matches_nested_tally(model, scope_size)

    @pytest.mark.parametrize("dup", [("cross", 0.0), ("both", 0.0)])
    def test_matches_nested_tally_planted_copies(self, dup):
        spec = ModelSpec(4, 6, 8, 12, 2)
        model, _ = gen_synthetic(spec, 21, *dup)
        for scope_size in range(1, spec.num_layers + 1):
            self.assert_matches_nested_tally(model, scope_size)

    @pytest.mark.parametrize("scope_size", [2, 4])
    def test_matches_nested_tally_one_expert_per_layer(self, scope_size):
        model, _ = gen_synthetic(ModelSpec(4, 1, 4, 6, 1), seed=22)
        self.assert_matches_nested_tally(model, scope_size)

    def test_one_expert_ragged_singleton_scope_rejected(self):
        model, _ = gen_synthetic(ModelSpec(4, 1, 4, 6, 1), seed=22)
        for tally in (cross_layer_nn, oracle.cross_layer_nn):
            with pytest.raises(ValueError, match="singleton scope"):
                tally(model, 3)

    def test_csv_dump(self, small_model, tmp_path):
        report = cross_layer_nn(small_model, 2)
        hm, fr = tmp_path / "h.csv", tmp_path / "f.csv"
        dump_nn_csvs(report, hm, fr)
        n_layers = small_model.spec.num_layers
        assert len(hm.read_text().strip().splitlines()) == 1 + n_layers * n_layers
        assert fr.read_text().strip().splitlines()[-1].startswith("overall,")


class TestScopeSweep:
    def test_output_rows(self, small_model, small_stats, small_tokens):
        reports = scope_sweep(small_model, small_stats, 0.5, [1, 2, 4], small_tokens[:8])
        assert len(reports) == 3
        assert all(r.metadata["rho"] == 0.5 for r in reports)

    def test_whole_model_scope(self, small_model, small_stats, small_tokens):
        reports = scope_sweep(small_model, small_stats, 0.25, [small_model.spec.num_layers], small_tokens[:4])
        assert len(reports) == 1

    def test_duplicate_model_zero_everywhere(self):
        spec = ModelSpec(4, 8, 16, 24, 2)
        model, _ = gen_synthetic(spec, seed=23, dup="within")
        tokens = gen_tokens(12, spec.hidden_dim, seed=6)
        stats = run_calibration(model, tokens)
        reports = scope_sweep(model, stats, 0.5, [1], tokens)
        assert reports[0].end_to_end_error == 0.0


def error_bits(report):
    return np.array([*report.per_layer_error, report.end_to_end_error]).tobytes()


class TestOnePassMatchesTwoTraces:
    """evaluate_fidelity and scope_sweep step the original stack and every
    plan's stack together and keep no trace; each report must equal the
    two-trace evaluation kept in oracle.py bit for bit."""

    @staticmethod
    def assert_same(got, want):
        assert error_bits(got) == error_bits(want)
        assert canonical_json(asdict(got)) == canonical_json(asdict(want))

    def assert_matches_oracle(self, model, plan, tokens):
        self.assert_same(evaluate_fidelity(model, plan, tokens), oracle.evaluate_fidelity(model, plan, tokens))

    def test_identity_plan(self, small_model, small_tokens):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        self.assert_matches_oracle(small_model, plan, small_tokens)

    @pytest.mark.parametrize("scope_size", [1, 2])
    def test_consolidation_plan(self, small_model, small_stats, small_tokens, scope_size):
        plan = consolidate(small_model, small_stats, rho=0.5, scope_size=scope_size)
        self.assert_matches_oracle(small_model, plan, small_tokens)

    def test_pruning_plan_that_empties_some_tokens(self, small_model, small_tokens):
        spec = small_model.spec
        dropped = set(range(6))
        identity = identity_plan(spec.num_layers, spec.num_experts)
        plan = ConsolidationPlan(rho=0.75, scope_size=1, policy="prune_frequency",
                                 assignment=identity.assignment,
                                 drop_mask={(l, i) for l in range(spec.num_layers) for i in dropped})
        logits = small_tokens @ small_model.layers[0].router.astype(np.float64).T
        top = np.argsort(-logits, axis=1, kind="stable")[:, :spec.top_k]
        emptied = np.isin(top, list(dropped)).all(axis=1)
        assert emptied.any() and not emptied.all()
        self.assert_matches_oracle(small_model, plan, small_tokens)

    def test_four_scope_sweep(self, small_model, small_stats, small_tokens):
        got = scope_sweep(small_model, small_stats, 0.5, [1, 2, 3, 4], small_tokens)
        want = oracle.scope_sweep(small_model, small_stats, 0.5, [1, 2, 3, 4], small_tokens)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            self.assert_same(g, w)

    def test_single_token(self, small_model, small_stats, small_tokens):
        plan = consolidate(small_model, small_stats, rho=0.5, scope_size=2)
        self.assert_matches_oracle(small_model, plan, small_tokens[:1])

    def test_traced_peak_below_one_trace(self):
        """A trace is (L + 1) * T * H float32; the two-trace evaluation held
        two (2.4 traces, traced). One layer-by-layer pass holds the two
        stacks' states and a few (T, H) temporaries of the layer in flight
        (0.7)."""
        spec = ModelSpec(16, 8, 32, 32, 2)
        model, _ = gen_synthetic(spec, seed=5)
        tokens = gen_tokens(256, spec.hidden_dim, seed=6)
        plan = consolidate(model, run_calibration(model, tokens), rho=0.5, scope_size=2)
        trace_bytes = (spec.num_layers + 1) * tokens.size * 4
        tracemalloc.start()
        try:
            evaluate_fidelity(model, plan, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trace_bytes
