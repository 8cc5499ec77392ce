import numpy as np
import pytest

import oracle
from conmoe import (
    CalibStats,
    ModelSpec,
    consolidate,
    fuse_weighted_average,
    gen_synthetic,
    gen_tokens,
    materialize,
    merge_msmoe,
    prune_frequency,
    prune_reap,
    reduction_accounting,
    run_calibration,
)
from conmoe.baselines import _fusion_weights
from conmoe.store import plan_to_dict
from conftest import experts_equal
from oracle import expert, scopes
from test_acceptance import random_plan


def stats_with_counts(model, per_layer_counts, norms=None):
    """Build stats where layer l, expert i has routed_count per_layer_counts[i]."""
    counts = np.array(per_layer_counts)
    sums = np.where(counts > 0, norms if norms else counts, 0.0)
    tile = (model.spec.num_layers, 1)
    return CalibStats(token_total=max(1, sum(per_layer_counts)), top_k=model.spec.top_k,
                      routed_count=np.tile(counts, tile), sum_weighted_norm=np.tile(sums, tile))


class TestPruning:
    def test_frequency_keeps_top(self, small_model):
        stats = stats_with_counts(small_model, [5, 3, 1, 0, 0, 0, 0, 0])
        plan = prune_frequency(small_model, stats, 0.75)
        for scope in scopes(plan):
            assert scope.prototypes == [(scope.layers[0], 0), (scope.layers[0], 1)]
        assert (0, 2) in plan.drop_mask and (0, 3) in plan.drop_mask

    def test_rho_zero_drops_nothing(self, small_model, small_stats):
        plan = prune_frequency(small_model, small_stats, 0.0)
        assert not plan.drop_mask

    def test_all_equal_counts_keep_lowest_indices(self, small_model):
        stats = stats_with_counts(small_model, [2] * 8)
        plan = prune_frequency(small_model, stats, 0.5)
        for scope in scopes(plan):
            l = scope.layers[0]
            assert scope.prototypes == [(l, 0), (l, 1), (l, 2), (l, 3)]

    def test_reap_ranks_by_score(self, small_model):
        stats = stats_with_counts(small_model, [1, 1, 1, 1, 0, 0, 0, 0],
                                  norms=[2.5, 0.1, 1.0, 0.9, 0, 0, 0, 0])
        plan = prune_reap(small_model, stats, 0.75)
        for scope in scopes(plan):
            l = scope.layers[0]
            assert scope.prototypes == [(l, 0), (l, 2)]

    def test_pruning_never_remaps(self, small_model, small_stats):
        plan = prune_reap(small_model, small_stats, 0.5)
        for slot, target in plan.assignment.items():
            assert slot == target

    def test_never_routed_rank_last(self, small_model):
        stats = stats_with_counts(small_model, [0, 3, 0, 2, 0, 1, 0, 4])
        plan = prune_reap(small_model, stats, 0.5)
        for scope in scopes(plan):
            assert all(ref[1] % 2 == 1 for ref in scope.prototypes)


class TestMergeMSMoE:
    def test_singleton_cluster_bit_exact(self, small_model, small_stats):
        plan, fused = merge_msmoe(small_model, small_stats, 0.0)
        assert oracle.models_equal(fused, small_model)
        assert not plan.drop_mask

    def test_usage_weighted_average(self, small_model):
        stats = stats_with_counts(small_model, [3, 1] + [0] * 6)
        plan, fused = merge_msmoe(small_model, stats, 0.875)  # keep 1 core per layer
        core = scopes(plan)[0].prototypes[0]
        assert core == (0, 0)
        for _, sources in fused.metadata["provenance"]:
            assert sum(w for _, w in sources) == pytest.approx(1.0, abs=1e-6)

    def test_two_member_blend(self, small_model):
        # 2 experts per layer keeps the arithmetic readable
        from conmoe.model import ModelSpec, gen_synthetic

        model, _ = gen_synthetic(ModelSpec(1, 2, 8, 12, 1), seed=21)
        stats = stats_with_counts(model, [3, 1])
        plan, fused = merge_msmoe(model, stats, 0.5)
        core = scopes(plan)[0].prototypes[0]
        assert core == (0, 0)
        want_gate = 0.75 * expert(model, (0, 0)).gate.astype(np.float64) + \
            0.25 * expert(model, (0, 1)).gate.astype(np.float64)
        assert expert(fused, core).gate == pytest.approx(want_gate.astype(np.float32))

    def test_duplicate_cores_map_to_themselves(self):
        from conmoe.model import ModelSpec, gen_synthetic

        # experts 0 and 2 are exact copies and both are kept as cores
        model, _ = gen_synthetic(ModelSpec(1, 4, 8, 12, 1), seed=23, dup="within")
        stats = stats_with_counts(model, [3, 1, 2, 0])
        plan, _ = merge_msmoe(model, stats, 0.5)
        assert scopes(plan)[0].prototypes == [(0, 0), (0, 2)]
        assert plan.assignment[(0, 0)] == (0, 0)
        assert plan.assignment[(0, 2)] == (0, 2)

    def test_zero_count_cluster_uniform(self, small_model):
        from conmoe.model import ModelSpec, gen_synthetic

        model, _ = gen_synthetic(ModelSpec(1, 2, 8, 12, 1), seed=22)
        stats = stats_with_counts(model, [0, 0])
        plan, fused = merge_msmoe(model, stats, 0.5)
        core = scopes(plan)[0].prototypes[0]
        provenance = {tuple(slot): sources for slot, sources in fused.metadata["provenance"]}
        weights = [w for _, w in provenance[core]]
        assert weights == pytest.approx([0.5, 0.5])


class TestFuseWeightedAverage:
    def test_singleton_clusters_keep_weights(self, small_model, small_stats):
        plan = consolidate(small_model, small_stats, rho=0.0)
        fused = fuse_weighted_average(small_model, plan, small_stats)
        assert oracle.models_equal(fused, small_model)

    def test_duplicate_cluster_preserves_weights(self):
        from conmoe.model import ModelSpec, gen_synthetic, gen_tokens
        from conmoe.calibration import run_calibration

        spec = ModelSpec(2, 8, 16, 24, 2)
        model, dup_map = gen_synthetic(spec, seed=31, dup="within")
        stats = run_calibration(model, gen_tokens(16, 16, seed=4))
        plan = consolidate(model, stats, rho=0.5)
        fused = fuse_weighted_average(model, plan, stats)
        for scope in scopes(plan):
            for p in scope.prototypes:
                cluster = [r for r, t in plan.assignment.items() if t == p]
                if all(experts_equal(expert(model, r), expert(model, p)) for r in cluster):
                    assert expert(fused, p).gate == pytest.approx(expert(model, p).gate)

    def test_convexity_for_pairs(self, small_model, small_stats):
        plan = consolidate(small_model, small_stats, rho=0.5, scope_size=2)
        fused = fuse_weighted_average(small_model, plan, small_stats)
        for proto, sources in fused.metadata["provenance"]:
            if len(sources) != 2:
                continue
            (a, wa), (b, wb) = sources
            for proj in ("gate", "up", "down"):
                lo = np.minimum(getattr(expert(small_model, a), proj), getattr(expert(small_model, b), proj))
                hi = np.maximum(getattr(expert(small_model, a), proj), getattr(expert(small_model, b), proj))
                f = getattr(expert(fused, proto), proj)
                assert np.all(f >= lo - 1e-6) and np.all(f <= hi + 1e-6)

    @pytest.mark.parametrize("prune", [prune_frequency, prune_reap], ids=["frequency", "reap"])
    @pytest.mark.parametrize("derive", [materialize, fuse_weighted_average], ids=["materialize", "fuse"])
    def test_pruning_plan_rejected(self, small_model, small_stats, derive, prune):
        """A dropped slot leaves each token's softmax, which no checkpoint
        under the same routers can do, so both derivations refuse it alike."""
        plan = prune(small_model, small_stats, 0.5)
        with pytest.raises(ValueError, match="^a derived checkpoint requires a remapping plan, not a pruning plan$"):
            derive(small_model, plan)

    @pytest.mark.parametrize("bad", [(-1, 0), (0, 8), (4, 0)])
    def test_fusion_weights_refuse_a_slot_outside_the_stats(self, small_stats, bad):
        """A negative index would weight a cluster by another slot's count."""
        with pytest.raises(ValueError, match=rf"^expert \({bad[0]}, {bad[1]}\) is not a slot of the 4x8 model$"):
            _fusion_weights(small_stats, [(0, 0), bad])

    @pytest.mark.parametrize("other", [(2, 4), (8, 16)], ids=["smaller", "larger"])
    def test_plan_of_another_grid_refused_before_the_stats_are_read(self, small_model, small_stats, other):
        """A larger plan's slots would index the stats out of bounds."""
        model, _ = gen_synthetic(ModelSpec(*other, 16, 24, 2), seed=1)
        plan = consolidate(model, run_calibration(model, gen_tokens(8, 16, seed=2)), rho=0.5)
        message = rf"^plan does not cover this model \(plan grid \({other[0]}, {other[1]}\), model grid \(4, 8\)\)$"
        with pytest.raises(ValueError, match=message):
            fuse_weighted_average(small_model, plan, small_stats)


class TestDerivedModels:
    @pytest.mark.parametrize("derivation", ["materialize", "fuse", "merge"])
    def test_layers_are_a_plain_sequence(self, small_model, small_stats, derivation):
        """A derived model's layers are sized, indexable and re-iterable,
        and equal their reference in any order of access."""
        plan = consolidate(small_model, small_stats, rho=0.5, scope_size=2)
        if derivation == "materialize":
            got = materialize(small_model, plan)
            want = oracle.copy_model(small_model)
            for slot, proto in plan.assignment.items():
                want.row(slot)[...] = small_model.row(proto)
        elif derivation == "fuse":
            got = fuse_weighted_average(small_model, plan, small_stats)
            want, _ = oracle.fuse(small_model, plan.clusters(), small_stats)
        else:
            _, got = merge_msmoe(small_model, small_stats, 0.5)
            _, want, _ = oracle.merge(small_model, small_stats, 0.5)
        num_layers = small_model.spec.num_layers
        assert len(got.layers) == num_layers
        got.validate()
        got.validate()
        with pytest.raises(IndexError):
            got.layers[num_layers]
        for l in (*reversed(range(num_layers)), -1):
            assert np.array_equal(got.layers[l].block, want.layers[l].block)
        assert oracle.models_equal(got, want)
        assert oracle.models_equal(oracle.copy_model(got), want)

    @staticmethod
    def derive(model, stats, derivation):
        plan = consolidate(model, stats, rho=0.5, scope_size=2)
        return {"materialize": lambda: materialize(model, plan),
                "fuse": lambda: fuse_weighted_average(model, plan, stats),
                "merge": lambda: merge_msmoe(model, stats, 0.5)[1]}[derivation]()

    @pytest.mark.parametrize("derivation", ["materialize", "fuse", "merge"])
    def test_layers_are_read_only(self, small_model, small_stats, derivation):
        """A write into a derived layer would be lost once another layer is
        built from the source, so it is refused."""
        got = self.derive(small_model, small_stats, derivation)
        with pytest.raises(ValueError, match="read-only"):
            got.row((0, 1))[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            got.layers[1].router[0] = 0.0

    @pytest.mark.parametrize("derivation", ["materialize", "fuse", "merge"])
    def test_source_metadata_nests_as_it_was(self, small_model, small_stats, derivation):
        model = oracle.copy_model(small_model)
        model.metadata = {"seed": 7}
        got = self.derive(model, small_stats, derivation)
        model.metadata["seed"] = 8
        assert got.metadata["derived_from"] == {"seed": 7}


class TestBudgetParity:
    def test_equal_logical_counts(self, small_model, small_stats):
        rho = 0.5
        conmoe = consolidate(small_model, small_stats, rho=rho)
        freq = prune_frequency(small_model, small_stats, rho)
        reap = prune_reap(small_model, small_stats, rho)
        msmoe, _ = merge_msmoe(small_model, small_stats, rho)
        counts = {len(p.distinct_prototypes()) for p in (conmoe, freq, reap, msmoe)}
        assert len(counts) == 1
        ratios = {reduction_accounting(p) for p in (conmoe, freq, reap, msmoe)}
        assert len(ratios) == 1


class TestSharedPool:
    """Each baseline keeps the pool of a scope-1 consolidation with its
    selection policy."""

    @pytest.fixture(scope="class")
    def readme(self):
        model, _ = gen_synthetic(ModelSpec(8, 16, 32, 48, 2), seed=42)
        return model, run_calibration(model, gen_tokens(256, model.spec.hidden_dim, seed=42))

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.9])
    def test_baselines_keep_the_scope1_pool(self, readme, rho):
        model, stats = readme
        usage, reap = (consolidate(model, stats, rho, 1, policy).distinct_prototypes()
                       for policy in ("usage_topk", "reap_topk"))
        assert prune_frequency(model, stats, rho).distinct_prototypes() == usage
        assert merge_msmoe(model, stats, rho)[0].distinct_prototypes() == usage
        assert prune_reap(model, stats, rho).distinct_prototypes() == reap


class TestAgainstOracle:
    """The planner-built baselines give the plans, fused stacks and
    provenance of the per-layer loops in tests/oracle.py."""

    SHAPES = {
        "readme": ModelSpec(8, 16, 32, 48, 2),
        "token-heavy": ModelSpec(8, 16, 64, 128, 4),
    }
    DUPS = {"none": ("none", 0.0), "within": ("within", 0.0), "both": ("both", 1e-7)}

    @staticmethod
    def check(model, stats, rho):
        for method, fn in (("frequency", prune_frequency), ("reap", prune_reap)):
            assert plan_to_dict(fn(model, stats, rho)) == plan_to_dict(oracle.prune(model, stats, rho, method))
        plan, fused = merge_msmoe(model, stats, rho)
        want_plan, want_fused, want_provenance = oracle.merge(model, stats, rho)
        assert plan_to_dict(plan) == plan_to_dict(want_plan)
        assert oracle.models_equal(fused, want_fused)
        assert fused.metadata["provenance"] == want_provenance

    @pytest.mark.parametrize("dup", sorted(DUPS))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_benchmark_shapes(self, shape, dup):
        model, _ = gen_synthetic(self.SHAPES[shape], 42, *self.DUPS[dup])
        stats = run_calibration(model, gen_tokens(256, model.spec.hidden_dim, seed=42))
        for rho in (0.0, 0.25, 0.5, 0.9):
            self.check(model, stats, rho)

    def test_random_plans(self):
        for trial in range(20):
            model, stats, config, plan, _ = random_plan(100 + trial)
            self.check(model, stats, config["rho"])
            clusters = {p: sorted(s for s, t in plan.assignment.items() if t == p)
                        for scope in scopes(plan) for p in scope.prototypes}
            for weights in (stats, None):
                fused = fuse_weighted_average(model, plan, weights)
                want_fused, want_provenance = oracle.fuse(model, clusters, weights)
                assert oracle.models_equal(fused, want_fused)
                assert fused.metadata["provenance"] == want_provenance
