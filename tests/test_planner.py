import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conmoe import (
    DupConfig,
    ModelSpec,
    ScopeConfig,
    assign,
    budget,
    consolidate,
    distance_matrix,
    gen_synthetic,
    gen_tokens,
    objective,
    prune_frequency,
    prune_reap,
    run_calibration,
    scope_partition,
    select_prototypes,
    score,
)
from conmoe import planner
from conmoe.geometry import DistanceTable
from conmoe.calibration import CalibStats
from conmoe.plan import SELECTION_POLICIES
from conmoe.planner import importance_weights
from conmoe.store import canonical_json, plan_to_dict
from oracle import brute_force_optimal, distance, scopes


def table_from(values, layer=0):
    n = len(values)
    return DistanceTable(scope=[(layer, i) for i in range(n)], values=np.asarray(values, dtype=np.float64))


def refs_of(n, layer=0):
    return [(layer, i) for i in range(n)]


def brute_objective(prototypes, table, weights):
    """Independent oracle: plain python double loop, no numpy mins."""
    total = 0.0
    for i, ref in enumerate(table.scope):
        best = None
        for p in prototypes:
            d = float(table.values[i][table.scope.index(p)])
            if best is None or d < best:
                best = d
        total += float(weights[i]) * best
    return total


class TestScopePartition:
    def test_even_split(self):
        assert scope_partition(8, 4) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_layer_local(self):
        assert scope_partition(8, 1) == [[i] for i in range(8)]

    def test_ragged_tail(self):
        assert scope_partition(10, 4) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            scope_partition(4, 0)

    def test_beyond_layers_rejected(self):
        with pytest.raises(ValueError, match=r"scope_size must be in \[1, num_layers\]"):
            scope_partition(4, 5)


class TestBudget:
    @pytest.mark.parametrize("rho,pool,want", [
        (0.25, 64, 48),
        (0.5, 64, 32),
        (0.99, 4, 1),
        (0.5, 7, 4),   # round half away from zero
        (0.0, 5, 5),
    ])
    def test_formula(self, rho, pool, want):
        assert budget(rho, pool) == want

    def test_floor_guard(self):
        assert budget(0.999, 2) == 1


class TestScore:
    def test_product_of_normalized(self, small_model, small_stats):
        refs = [(0, i) for i in range(small_model.spec.num_experts)]
        table = distance_matrix(small_model, refs)
        scores = score(small_stats, table)
        contrib = importance_weights(small_stats, refs)
        replace = np.array([min(distance(table, r, o) for o in refs if o != r) for r in refs])
        contrib_n = (contrib - contrib.min()) / (contrib.max() - contrib.min() + 1e-8)
        replace_n = (replace - replace.min()) / (replace.max() - replace.min() + 1e-8)
        assert np.all((0.0 <= contrib_n) & (contrib_n <= 1.0))
        assert np.all((0.0 <= replace_n) & (replace_n <= 1.0))
        assert scores == pytest.approx(contrib_n * replace_n)

    def test_all_equal_contributions_zero_scores(self, small_model):
        refs = [(0, i) for i in range(small_model.spec.num_experts)]
        shape = (small_model.spec.num_layers, small_model.spec.num_experts)
        stats = CalibStats(token_total=4, top_k=2, routed_count=np.ones(shape, dtype=np.int64),
                           sum_weighted_norm=np.full(shape, 2.0))
        table = distance_matrix(small_model, refs)
        scores = score(stats, table)
        assert np.all(scores == 0.0)

    def test_scale_invariance_of_selection(self, small_model, small_stats):
        refs = [(0, i) for i in range(small_model.spec.num_experts)]
        table = distance_matrix(small_model, refs)
        base = score(small_stats, table)
        scaled_stats = run_scaled(small_stats, 3.5)
        scaled = score(scaled_stats, table)
        for k in (2, 4, 6):
            a = select_prototypes(base, refs, k)
            b = select_prototypes(scaled, refs, k)
            assert a == b


def run_scaled(stats, factor):
    return CalibStats(
        token_total=stats.token_total,
        top_k=stats.top_k,
        routed_count=stats.routed_count,
        sum_weighted_norm=stats.sum_weighted_norm * factor,
    )


class TestSelectPrototypes:
    def test_adaptive_tie_break(self):
        got = select_prototypes([0.9, 0.1, 0.5, 0.5], refs_of(4), 2)
        assert got == [(0, 0), (0, 2)]

    def test_usage_topk(self, small_model):
        counts = np.array([[5, 3, 1, 0]])
        stats = CalibStats(token_total=9, top_k=1, routed_count=counts,
                           sum_weighted_norm=counts.astype(np.float64))
        got = select_prototypes(stats.routed_count[0], refs_of(4), 2)
        assert got == [(0, 0), (0, 1)]

    def test_fixed_k_equal_per_layer(self, small_stats, small_model):
        refs = [(l, i) for l in (0, 1) for i in range(4)]
        table = distance_matrix(small_model, refs)
        keys = planner.policy_keys("fixed_k", small_stats, refs, table)
        got = select_prototypes(keys, refs, 4)
        assert sum(1 for r in got if r[0] == 0) == 2
        assert sum(1 for r in got if r[0] == 1) == 2

    def test_fixed_k_remainder_to_earliest(self, small_stats, small_model):
        refs = [(l, i) for l in (0, 1) for i in range(4)]
        table = distance_matrix(small_model, refs)
        keys = planner.policy_keys("fixed_k", small_stats, refs, table)
        got = select_prototypes(keys, refs, 5)
        assert sum(1 for r in got if r[0] == 0) == 3
        assert sum(1 for r in got if r[0] == 1) == 2

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_layer_places_match_quota_reference(self, data):
        """Over 1-5 whole layers, the k largest layer places are the per-layer
        quota selection for every k; small integer keys make ties."""
        first, layers, experts = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        refs = [(first + l, i) for l in range(layers) for i in range(experts)]
        keys = data.draw(st.lists(st.integers(0, 3), min_size=len(refs), max_size=len(refs)))
        places = planner.layer_places(keys, refs)
        for k in range(1, len(refs) + 1):
            assert select_prototypes(places, refs, k) == oracle.quota_select(keys, refs, k)

    def test_budget_exceeds_pool(self):
        with pytest.raises(ValueError):
            select_prototypes([1.0, 0.5], refs_of(2), 3)


class TestAssign:
    def test_nearest(self):
        table = table_from([[0.0, 0.2, 0.7], [0.2, 0.0, 0.9], [0.7, 0.9, 0.0]])
        m = assign([(0, 1), (0, 2)], table)
        assert m[(0, 0)] == (0, 1)

    def test_prototype_maps_to_itself(self, small_model):
        refs = [(0, i) for i in range(small_model.spec.num_experts)]
        table = distance_matrix(small_model, refs)
        protos = [(0, 0), (0, 3), (0, 5)]
        m = assign(protos, table)
        for p in protos:
            assert m[p] == p

    def test_equidistant_tie_break(self):
        table = table_from([[0.0, 0.5, 0.5], [0.5, 0.0, 1.0], [0.5, 1.0, 0.0]])
        m = assign([(0, 1), (0, 2)], table)
        assert m[(0, 0)] == (0, 1)

    def test_exact_duplicate_prototypes_map_to_themselves(self):
        # (0, 0), (0, 1) and (0, 2) are exact duplicates; the first two are
        # prototypes, so the zero-distance tie may not pull (0, 1) onto (0, 0)
        table = table_from([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0],
                            [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
        m = assign([(0, 1), (0, 0), (0, 3)], table)
        assert m == {(0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 0), (0, 3): (0, 3)}


class TestConsolidate:
    def test_rho_zero_is_identity(self, small_model, small_stats):
        plan = consolidate(small_model, small_stats, ScopeConfig(rho=0.0))
        assert all(plan.assignment[r] == r for r in plan.assignment)
        for scope in scopes(plan):
            n = small_model.spec.num_experts
            assert len(scope.prototypes) == len(scope.layers) * n

    def test_duplicate_pairs_map_at_zero_distance(self):
        spec = ModelSpec(2, 8, 16, 24, 2)
        model, dup_map = gen_synthetic(spec, seed=13, dup=DupConfig("within"))
        tokens = gen_tokens(32, spec.hidden_dim, seed=5)
        stats = run_calibration(model, tokens)
        plan = consolidate(model, stats, ScopeConfig(rho=0.5, scope_size=1))
        for l in range(spec.num_layers):
            refs = [(l, i) for i in range(spec.num_experts)]
            table = distance_matrix(model, refs)
            protos = set(scopes(plan)[l].prototypes)
            for ref in refs:
                if ref not in protos:
                    assert distance(table, ref, plan.assignment[ref]) == 0.0

    def test_plan_bytes_deterministic(self, small_model, small_stats):
        a = consolidate(small_model, small_stats, ScopeConfig(rho=0.5, scope_size=2))
        b = consolidate(small_model, small_stats, ScopeConfig(rho=0.5, scope_size=2))
        assert canonical_json(plan_to_dict(a)) == canonical_json(plan_to_dict(b))

    def test_sigma1_adaptive_equals_fixed_k(self, small_model, small_stats):
        a = consolidate(small_model, small_stats, ScopeConfig(rho=0.5, scope_size=1, policy="adaptive"))
        b = consolidate(small_model, small_stats, ScopeConfig(rho=0.5, scope_size=1, policy="fixed_k"))
        assert a.assignment == b.assignment
        assert [s.prototypes for s in scopes(a)] == [s.prototypes for s in scopes(b)]

    def test_assignment_optimality(self, small_model, small_stats):
        plan = consolidate(small_model, small_stats, ScopeConfig(rho=0.5, scope_size=2))
        for scope in scopes(plan):
            refs = [(l, i) for l in scope.layers for i in range(small_model.spec.num_experts)]
            table = distance_matrix(small_model, refs)
            for ref in refs:
                best = min(distance(table, ref, p) for p in scope.prototypes)
                assert distance(table, ref, plan.assignment[ref]) == best


class TestTablesBuilt:
    """Pruning reads only stats and builds no distance table; consolidate
    builds one per reduced scope and reuses it for the assignment."""

    @pytest.fixture(scope="class")
    def readme(self):
        model, _ = gen_synthetic(ModelSpec(8, 16, 32, 48, 2), seed=42)
        return model, run_calibration(model, gen_tokens(256, model.spec.hidden_dim, seed=42))

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []

        def counting(model, scope):
            calls.append(len(scope))
            return distance_matrix(model, scope)

        monkeypatch.setattr(planner, "distance_matrix", counting)
        return calls

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_pruning_builds_none(self, readme, built, rho):
        model, stats = readme
        for method, fn in (("frequency", prune_frequency), ("reap", prune_reap)):
            got = fn(model, stats, rho)
            assert plan_to_dict(got) == plan_to_dict(oracle.prune(model, stats, rho, method))
        assert built == []

    @pytest.mark.parametrize("policy", SELECTION_POLICIES)
    @pytest.mark.parametrize("scope_size", [1, 2, 8])
    def test_consolidate_builds_one_per_reduced_scope(self, readme, built, policy, scope_size):
        model, stats = readme
        consolidate(model, stats, ScopeConfig(rho=0.0, scope_size=scope_size, policy=policy))
        assert built == []
        consolidate(model, stats, ScopeConfig(rho=0.5, scope_size=scope_size, policy=policy))
        assert built == [16 * len(layers) for layers in scope_partition(8, scope_size)]


class TestObjective:
    def test_full_scope_is_zero(self, small_model, small_stats):
        refs = [(0, i) for i in range(4)]
        table = distance_matrix(small_model, refs)
        w = np.ones(4)
        assert objective(refs, table, w) == 0.0

    def test_two_expert_scope(self):
        table = table_from([[0.0, 0.6], [0.6, 0.0]])
        assert objective([(0, 0)], table, np.ones(2)) == pytest.approx(0.6)

    def test_matches_independent_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 8))
            sym = rng.random((n, n))
            vals = (sym + sym.T) / 2
            np.fill_diagonal(vals, 0.0)
            table = table_from(vals)
            w = rng.random(n)
            k = int(rng.integers(1, n))
            protos = [table.scope[i] for i in sorted(rng.choice(n, size=k, replace=False))]
            got = objective(protos, table, w)
            want = brute_objective(protos, table, w)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_empty_prototypes_rejected(self):
        with pytest.raises(ValueError):
            objective([], table_from(np.zeros((2, 2))), np.ones(2))


class TestBruteForceOptimal:
    def test_full_budget_zero(self, rng):
        vals = rng.random((4, 4))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 0.0)
        table = table_from(vals)
        _, best = brute_force_optimal(table, 4, np.ones(4))
        assert best == 0.0

    def test_duplicates_plus_distant(self):
        # experts 0 and 1 are exact duplicates; expert 2 is far from both
        vals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        table = table_from(vals)
        protos, best = brute_force_optimal(table, 2, np.ones(3))
        assert (0, 2) in protos
        assert best == 0.0
        assert protos == [(0, 0), (0, 2)]  # lexicographic tie rule

    def test_planner_never_beats_oracle(self, small_model, small_stats):
        refs = [(0, i) for i in range(small_model.spec.num_experts)]
        table = distance_matrix(small_model, refs)
        scores = score(small_stats, table)
        w = importance_weights(small_stats, refs)
        for k in (1, 2, 4):
            protos = select_prototypes(scores, refs, k)
            _, best = brute_force_optimal(table, k, w)
            assert objective(protos, table, w) >= best - 1e-12

    def test_monotone_in_budget(self, small_model, small_stats):
        refs = [(0, i) for i in range(6)]
        table = distance_matrix(small_model, refs)
        w = np.ones(len(refs))
        values = [brute_force_optimal(table, k, w)[1] for k in range(1, 7)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_cap(self):
        # C(30, 15) = 155,117,520 sets, past ENUMERATION_CAP
        table = table_from(np.zeros((30, 30)))
        with pytest.raises(ValueError, match="cap"):
            brute_force_optimal(table, 15, np.ones(30))
