import numpy as np
import pytest

from conmoe import (
    DupConfig,
    ModelSpec,
    ScopeConfig,
    consolidate,
    cross_layer_nn,
    evaluate_fidelity,
    gen_synthetic,
    gen_tokens,
    identity_plan,
    prune_frequency,
    reduction_accounting,
    run_calibration,
    scope_sweep,
)
from conmoe.analysis import dump_nn_csvs


class TestEvaluateFidelity:
    def test_identity_plan_zero_errors(self, small_model, small_tokens):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        report = evaluate_fidelity(small_model, plan, small_tokens)
        assert report.end_to_end_error == 0.0
        assert all(e == 0.0 for e in report.per_layer_error)
        assert report.achieved_reduction == 0.0

    def test_exact_duplicates_zero_error_at_half(self):
        spec = ModelSpec(4, 8, 16, 24, 2)
        model, _ = gen_synthetic(spec, seed=17, dup=DupConfig("within"))
        tokens = gen_tokens(24, spec.hidden_dim, seed=8)
        stats = run_calibration(model, tokens)
        plan = consolidate(model, stats, ScopeConfig(rho=0.5, scope_size=1))
        report = evaluate_fidelity(model, plan, tokens)
        assert report.end_to_end_error == 0.0
        assert report.achieved_reduction == pytest.approx(0.5)

    def test_pruning_differs_from_remapping(self, small_model, small_stats, small_tokens):
        remap = consolidate(small_model, small_stats, ScopeConfig(rho=0.5))
        prune = prune_frequency(small_model, small_stats, 0.5)
        r1 = evaluate_fidelity(small_model, remap, small_tokens)
        r2 = evaluate_fidelity(small_model, prune, small_tokens)
        assert r1.end_to_end_error != r2.end_to_end_error
        assert r1.metadata["policy"] != r2.metadata["policy"]

    def test_empty_tokens_rejected(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        with pytest.raises(ValueError):
            evaluate_fidelity(small_model, plan, np.empty((0, small_model.spec.hidden_dim)))


class TestReductionAccounting:
    def test_identity_zero(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        assert reduction_accounting(plan) == 0.0

    def test_half(self, small_model, small_stats):
        plan = consolidate(small_model, small_stats, ScopeConfig(rho=0.5))
        # 32 slots, 16 distinct prototypes
        assert len(plan.distinct_prototypes()) == 16
        assert reduction_accounting(plan) == pytest.approx(0.5)

    def test_shared_prototype_counts_once(self, small_model):
        plan = identity_plan(small_model.spec.num_layers, small_model.spec.num_experts)
        plan.scopes[0].prototypes = [(0, 0)]
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
        model, _ = gen_synthetic(spec, seed=19, dup=DupConfig("cross"))
        report = cross_layer_nn(model, 2)
        assert report.overall_fraction == 1.0

    def test_row_sums_conserved(self, small_model):
        report = cross_layer_nn(small_model, 2)
        for row in report.counts:
            assert sum(row) == small_model.spec.num_experts

    def test_csv_dump(self, small_model, tmp_path):
        report = cross_layer_nn(small_model, 2)
        hm, fr = tmp_path / "h.csv", tmp_path / "f.csv"
        dump_nn_csvs(report, hm, fr)
        n_layers = small_model.spec.num_layers
        assert len(hm.read_text().strip().splitlines()) == 1 + n_layers * n_layers
        assert fr.read_text().strip().splitlines()[-1].startswith("overall,")


class TestScopeSweep:
    def test_output_rows(self, small_model, small_stats, small_tokens):
        reports = scope_sweep(small_model, small_stats, ScopeConfig(rho=0.5), [1, 2, 4], small_tokens[:8])
        assert len(reports) == 3
        assert all(r.metadata["rho"] == 0.5 for r in reports)

    def test_whole_model_scope(self, small_model, small_stats, small_tokens):
        reports = scope_sweep(small_model, small_stats, ScopeConfig(rho=0.25), [small_model.spec.num_layers], small_tokens[:4])
        assert len(reports) == 1

    def test_duplicate_model_zero_everywhere(self):
        spec = ModelSpec(4, 8, 16, 24, 2)
        model, _ = gen_synthetic(spec, seed=23, dup=DupConfig("within"))
        tokens = gen_tokens(12, spec.hidden_dim, seed=6)
        stats = run_calibration(model, tokens)
        reports = scope_sweep(model, stats, ScopeConfig(rho=0.5), [1], tokens)
        assert reports[0].end_to_end_error == 0.0
