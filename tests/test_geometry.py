import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conmoe import (
    consolidate,
    merge_msmoe,
    ModelSpec,
    distance_matrix,
    gen_synthetic,
    gen_tokens,
    minmax_norm,
    nearest,
    projection_distance,
    run_calibration,
)
from conmoe import geometry
from conmoe.geometry import DistanceTable
from conmoe.plan import SELECTION_POLICIES
from conmoe.store import plan_to_dict
from oracle import (
    ExpertWeights,
    distance,
    expert,
    expert_distance,
    nearest_neighbor,
    pair_distance_matrix,
    replaceability,
)
from test_acceptance import random_plan

finite_f = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)


def small_matrix():
    return arrays(np.float64, (3, 4), elements=finite_f)


class TestProjectionDistance:
    def test_identical_is_zero(self, rng):
        a = rng.standard_normal((5, 3))
        assert projection_distance(a, a) == 0.0

    def test_triple_scaling(self, rng):
        # ||A - 3A|| = 2||A||, so the distance approaches 1 from below
        a = rng.standard_normal((5, 3))
        d = projection_distance(a, 3 * a)
        assert d == pytest.approx(1.0, abs=1e-6)
        assert d <= 1.0

    def test_orthogonal_equal_norm(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        a[0, 0] = 1.0
        b[1, 1] = 1.0
        assert projection_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            projection_distance(rng.standard_normal((2, 2)), rng.standard_normal((3, 2)))

    @given(a=small_matrix(), b=small_matrix())
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        d = projection_distance(a, b)
        assert 0.0 <= d < 2.0
        assert projection_distance(b, a) == d


class TestExpertDistance:
    def make(self, gate, up, down):
        return ExpertWeights(gate=gate, up=up, down=down)

    def test_identical_experts(self, rng):
        e = self.make(*(rng.standard_normal((4, 3)) for _ in range(2)), rng.standard_normal((3, 4)))
        assert expert_distance(e, e) == 0.0

    def test_mean_of_projection_distances(self, rng):
        e = self.make(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)), rng.standard_normal((3, 4)))
        f = self.make(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)), e.down.copy())
        want = (
            projection_distance(e.gate, f.gate)
            + projection_distance(e.up, f.up)
            + 0.0
        ) / 3.0
        assert expert_distance(e, f) == pytest.approx(want, rel=1e-12)

    def test_symmetry(self, rng):
        e = self.make(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)), rng.standard_normal((3, 4)))
        f = self.make(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)), rng.standard_normal((3, 4)))
        assert expert_distance(e, f) == expert_distance(f, e)


class TestDistanceMatrix:
    def test_identical_pair(self):
        model, _ = gen_synthetic(ModelSpec(1, 2, 4, 6, 1), seed=3, dup="within")
        table = distance_matrix(model, [(0, 0), (0, 1)])
        assert np.array_equal(table.values, np.zeros((2, 2)))

    def test_planted_duplicate_block_structure(self):
        model, dup_map = gen_synthetic(ModelSpec(2, 6, 8, 12, 2), seed=4, dup="within")
        refs = [(0, i) for i in range(6)]
        table = distance_matrix(model, refs)
        for copy, src in dup_map.items():
            if copy[0] == 0:
                assert distance(table, copy, src) == 0.0
        # non-duplicate pairs stay strictly positive
        assert distance(table, (0, 0), (0, 2)) > 0.0

    def test_symmetric_zero_diagonal(self, small_model):
        refs = [(l, i) for l in (0, 1) for i in range(4)]
        table = distance_matrix(small_model, refs)
        assert np.array_equal(table.values, table.values.T)
        assert np.array_equal(np.diag(table.values), np.zeros(len(refs)))

    def test_empty_scope_refused(self, small_model):
        with pytest.raises(ValueError, match="^empty scope: a distance table needs at least one expert$"):
            distance_matrix(small_model, [])

    @pytest.mark.parametrize("scope, message", [
        ([(0, 1), (0, 1), (0, 2)], r"^expert \(0, 1\) repeated in scope$"),
        ([(0, 9)], r"^expert \(0, 9\) is not a slot of the 2x4 model$"),
        ([(-1, 0), (0, 0)], r"^expert \(-1, 0\) is not a slot of the 2x4 model$"),
        ([(0, 0), (2, 0)], r"^expert \(2, 0\) is not a slot of the 2x4 model$"),
        ([(0, -1), (0, 0)], r"^expert \(0, -1\) is not a slot of the 2x4 model$"),
    ])
    def test_scope_outside_or_repeated_refused(self, scope, message):
        """A repeated slot would give the table a duplicate row; a slot
        outside the grid would raise IndexError, or, with a negative index,
        read another slot under its label."""
        model, _ = gen_synthetic(ModelSpec(2, 4, 4, 6, 1), seed=1)
        with pytest.raises(ValueError, match=message):
            distance_matrix(model, scope)


class TestDistanceTableChecks:
    """A table checks itself on construction: a repeated or unsorted scope
    would misalign index_of with the rows, and values of another shape
    would misread or break every query."""

    @pytest.mark.parametrize("scope, values, message", [
        ([], np.zeros((0, 0)), r"^empty scope: a distance table needs at least one expert$"),
        ([(0, 0), (0, 0), (0, 1)], np.zeros((3, 3)), r"^expert \(0, 0\) repeated in scope$"),
        ([(0, 0), (0, 2), (0, 1)], np.zeros((3, 3)), r"^expert \(0, 1\) out of order in scope$"),
        ([(1, 0), (0, 3)], np.zeros((2, 2)), r"^expert \(0, 3\) out of order in scope$"),
        ([(0, 0), (0, 1), (0, 2)], np.zeros((2, 2)), r"^distance values of shape \(2, 2\) for 3 experts$"),
        ([(0, 0), (0, 1)], np.zeros((2, 3)), r"^distance values of shape \(2, 3\) for 2 experts$"),
        ([(0, 0), (0, 1)], np.zeros(4), r"^distance values of shape \(4,\) for 2 experts$"),
    ])
    def test_malformed_table_refused(self, scope, values, message):
        with pytest.raises(ValueError, match=message):
            DistanceTable(scope=scope, values=values)

    @pytest.mark.parametrize("cols, span", [([-1], "-1, -1"), ([0, 3], "0, 3"), ([1, 2, 7, -2], "-2, 7")])
    def test_candidate_columns_outside_the_scope_refused(self, cols, span):
        """A column -1 would read the last column under the label -1; one
        past the end would raise IndexError."""
        table = DistanceTable(scope=[(0, 0), (0, 1), (0, 2)], values=np.zeros((3, 3)))
        with pytest.raises(ValueError, match=rf"^candidate columns \[{span}\] outside a scope of 3 experts$"):
            nearest(table, cols)


def reference_table(model, scope):
    """The scalar per-pair loop the Gram kernel replaced."""
    scope = sorted(scope)
    n = len(scope)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = expert_distance(expert(model, scope[i]), expert(model, scope[j]))
            values[i, j] = d
            values[j, i] = d
    return DistanceTable(scope=scope, values=values)


def whole_model(spec):
    return [(l, i) for l in range(spec.num_layers) for i in range(spec.num_experts)]


def block_cols(model, n):
    """The stack's block width for an n-expert scope: STACK_BYTES // (8n)
    columns, at least one, or the whole row when a block and the (n, n)
    partial would hold no less than the whole stack."""
    width = model.spec.hidden_dim * model.spec.intermediate_dim
    cols = max(1, geometry.STACK_BYTES // (8 * n))
    return width if cols + n >= width else cols


def assert_pair_kernel_bytes(model, scope):
    """The (n, n) table is the index-pair kernel's, at the same block
    width, bit for bit, and is bitwise symmetric with an all-zero diagonal."""
    got = distance_matrix(model, scope)
    want = pair_distance_matrix(model, scope, block_cols(model, len(scope)))
    assert got.scope == want.scope
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.tobytes() == np.ascontiguousarray(got.values.T).tobytes()
    assert np.diag(got.values).tobytes() == bytes(8 * len(scope))


class TestGramKernel:
    @pytest.mark.parametrize("shape", [(1, 1, 2, 3, 1), (1, 2, 1, 1, 1), (2, 5, 3, 7, 2),
                                       (3, 8, 16, 24, 2), (2, 12, 32, 8, 3)])
    def test_matches_scalar_loop(self, shape):
        spec = ModelSpec(*shape)
        model, _ = gen_synthetic(spec, seed=sum(shape))
        scope = whole_model(spec)
        got = distance_matrix(model, scope[::-1])
        want = reference_table(model, scope)
        assert got.scope == want.scope
        assert np.max(np.abs(got.values - want.values), initial=0.0) <= 1e-12
        assert np.array_equal(got.values, got.values.T)
        assert not np.diag(got.values).any()
        assert_pair_kernel_bytes(model, scope[::-1])

    def test_zero_experts(self):
        spec = ModelSpec(1, 4, 4, 6, 1)
        model, _ = gen_synthetic(spec, seed=1)
        for i in (0, 1):
            model.row((0, i))[...] = 0.0
        got = distance_matrix(model, whole_model(spec))
        want = reference_table(model, whole_model(spec))
        assert got.values[0, 1] == 0.0
        assert np.max(np.abs(got.values - want.values)) <= 1e-12
        assert_pair_kernel_bytes(model, whole_model(spec))

    @pytest.mark.parametrize("dup", [("within", 0.0), ("both", 1e-7)])
    def test_planted_pairs_exact(self, dup):
        spec = ModelSpec(4, 8, 16, 24, 2)
        model, dup_map = gen_synthetic(spec, 5, *dup)
        table = distance_matrix(model, whole_model(spec))
        for copy, src in dup_map.items():
            d = distance(table, copy, src)
            assert d == expert_distance(expert(model, copy), expert(model, src))
            assert d == 0.0 or dup[1] > 0
        assert_pair_kernel_bytes(model, whole_model(spec))

    @pytest.mark.parametrize("dup", [("none", 0.0), ("within", 0.0)])
    def test_pool_scope_bytes_match_pair_kernel(self, dup):
        spec = ModelSpec(4, 72, 8, 12, 2)  # one 288-expert scope
        model, _ = gen_synthetic(spec, 9, *dup)
        assert_pair_kernel_bytes(model, whole_model(spec))

    @pytest.mark.parametrize("dup", [("both", 0.0), ("both", 1e-7)])
    @pytest.mark.parametrize("row_block, shape", [(7, (2, 12, 8, 12, 2)), (None, (3, 100, 4, 6, 2))])
    def test_planted_pairs_straddle_row_blocks(self, monkeypatch, row_block, shape, dup):
        """A ragged last block (7 does not divide 24; 128 does not divide
        300), with exact and near twins on both sides of block boundaries."""
        if row_block is not None:
            monkeypatch.setattr(geometry, "ROW_BLOCK", row_block)
        block = geometry.ROW_BLOCK
        spec = ModelSpec(*shape)
        model, dup_map = gen_synthetic(spec, 11, *dup)
        scope = whole_model(spec)
        assert len(scope) > block and len(scope) % block
        table = distance_matrix(model, scope)
        straddling = 0
        for copy, src in dup_map.items():
            straddling += table.index_of(copy) // block != table.index_of(src) // block
            d = distance(table, copy, src)
            assert d == expert_distance(expert(model, copy), expert(model, src))
            assert d == 0.0 or dup[1] > 0
        assert straddling
        assert_pair_kernel_bytes(model, scope)

    def test_peak_memory_is_two_tables_and_a_stack(self):
        spec = ModelSpec(4, 256, 4, 8, 2)  # one thin 1,024-expert scope
        model, _ = gen_synthetic(spec, seed=12)
        n = spec.num_layers * spec.num_experts
        tracemalloc.start()
        try:
            distance_matrix(model, whole_model(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2.5 * n * n + n * spec.intermediate_dim * spec.hidden_dim)

    @pytest.mark.parametrize("dup", [("none", 0.0), ("within", 0.0), ("both", 1e-7)])
    @pytest.mark.parametrize("stack_bytes, shape", [(8 * 24 * 40, (2, 12, 8, 12, 2)),
                                                    (8 * 12 * 7, (4, 3, 4, 6, 2)),
                                                    (1, (2, 4, 3, 5, 1))])
    def test_column_blocks_match_scalar_loop(self, monkeypatch, stack_bytes, shape, dup):
        """A stack of 40 columns over rows of 96 (3 blocks, the last 16
        wide), 7 over 24 (4 blocks, the last 3 wide) and 1 over 15 (one
        column per block): within 1e-12 of the scalar loop, the pair
        kernel's bits at the same block width, bitwise symmetric, a zero
        diagonal, planted twins exactly 0.0, and every plan the one built
        on the scalar loop's tables."""
        monkeypatch.setattr(geometry, "STACK_BYTES", stack_bytes)
        spec = ModelSpec(*shape)
        model, dup_map = gen_synthetic(spec, 15, *dup)
        scope = whole_model(spec)
        width = spec.hidden_dim * spec.intermediate_dim
        cols = block_cols(model, len(scope))
        assert 2 * cols <= width and (width % cols or cols == 1)  # ragged, or one column each
        got = distance_matrix(model, scope)
        want = reference_table(model, scope)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12
        assert got.values.tobytes() == np.ascontiguousarray(got.values.T).tobytes()
        assert not np.diag(got.values).any()
        for copy, src in dup_map.items():
            d = distance(got, copy, src)
            assert d == expert_distance(expert(model, copy), expert(model, src))
            assert d == 0.0 or dup[1] > 0
        assert_pair_kernel_bytes(model, scope)

        stats = run_calibration(model, gen_tokens(32, spec.hidden_dim, 15))
        configs = [(rho, size, policy) for rho in (0.25, 0.5) for size in (1, spec.num_layers)
                   for policy in SELECTION_POLICIES]
        built = [plan_to_dict(consolidate(model, stats, *config)) for config in configs]
        tables = {}

        def cached_reference_table(model, scope):
            if tuple(scope) not in tables:
                tables[tuple(scope)] = reference_table(model, scope)
            return tables[tuple(scope)]

        monkeypatch.setattr("conmoe.planner.distance_matrix", cached_reference_table)
        assert [plan_to_dict(consolidate(model, stats, *config)) for config in configs] == built

    @pytest.mark.parametrize("stack_bytes", [None, 2**20, 2**16])
    @pytest.mark.parametrize("inter", [512, 2048])
    def test_peak_memory_is_a_bounded_stack_and_three_tables(self, monkeypatch, stack_bytes, inter):
        """An 8-expert scope of rows 131,072 or 524,288 wide: the traced
        peak is the stack's budget and three (n, n) arrays, whatever the
        width (the whole stack is 8.4 or 33.6 MB)."""
        if stack_bytes is not None:
            monkeypatch.setattr(geometry, "STACK_BYTES", stack_bytes)
        spec = ModelSpec(1, 8, 256, inter, 2)
        model, _ = gen_synthetic(spec, seed=17)
        n = spec.num_experts
        tracemalloc.start()
        try:
            distance_matrix(model, whole_model(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < geometry.STACK_BYTES + 8 * 3 * n * n + 2**15

    def test_plans_match_reference_table(self, monkeypatch):
        built = []
        for seed in range(100, 120):
            model, stats, config, plan, _ = random_plan(seed)
            merged, _ = merge_msmoe(model, stats, config["rho"])
            built.append((model, stats, config, plan, merged))
        monkeypatch.setattr("conmoe.planner.distance_matrix", reference_table)
        for model, stats, config, plan, merged in built:
            assert plan_to_dict(consolidate(model, stats, **config)) == plan_to_dict(plan)
            assert plan_to_dict(merge_msmoe(model, stats, config["rho"])[0]) == plan_to_dict(merged)


class TestReplaceability:
    def test_duplicate_pair_zero(self):
        model, _ = gen_synthetic(ModelSpec(1, 4, 4, 6, 1), seed=3, dup="within")
        table = distance_matrix(model, [(0, i) for i in range(4)])
        assert replaceability((0, 0), table) == 0.0
        assert replaceability((0, 1), table) == 0.0

    def test_min_of_row(self):
        table = DistanceTable(
            scope=[(0, 0), (0, 1), (0, 2)],
            values=np.array([[0.0, 0.4, 0.7], [0.4, 0.0, 0.2], [0.7, 0.2, 0.0]]),
        )
        assert replaceability((0, 0), table) == pytest.approx(0.4)

    def test_lower_bound_property(self, small_model):
        refs = [(0, i) for i in range(small_model.spec.num_experts)]
        table = distance_matrix(small_model, refs)
        for ref in refs:
            b = replaceability(ref, table)
            for other in refs:
                if other != ref:
                    assert b <= distance(table, ref, other)

    def test_singleton_scope_rejected(self):
        table = DistanceTable(scope=[(0, 0)], values=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="singleton"):
            replaceability((0, 0), table)

    def test_ref_outside_scope_rejected(self):
        table = DistanceTable(scope=[(0, 0), (0, 1)], values=np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"expert \(1, 0\) not in scope"):
            table.index_of((1, 0))


class TestNearestNeighbor:
    def test_duplicate_found_at_zero(self):
        model, dup_map = gen_synthetic(ModelSpec(1, 4, 4, 6, 1), seed=3, dup="within")
        table = distance_matrix(model, [(0, i) for i in range(4)])
        for copy, src in dup_map.items():
            ref, d = nearest_neighbor(copy, table)
            assert ref == src
            assert d == 0.0

    def test_tie_breaks_to_lower_ref(self):
        table = DistanceTable(
            scope=[(0, 0), (0, 1), (0, 2), (0, 3)],
            values=np.array([
                [0.0, 0.3, 0.3, 0.9],
                [0.3, 0.0, 0.5, 0.5],
                [0.3, 0.5, 0.0, 0.5],
                [0.9, 0.5, 0.5, 0.0],
            ]),
        )
        assert nearest_neighbor((0, 0), table)[0] == (0, 1)

    def test_consistent_with_replaceability(self, small_model):
        refs = [(l, i) for l in (0, 1) for i in range(4)]
        table = distance_matrix(small_model, refs)
        for ref in refs:
            _, d = nearest_neighbor(ref, table)
            assert d == replaceability(ref, table)


def first_minimum_scan(values, row, candidates):
    best = None
    for j in candidates:
        if best is None or values[row, j] < values[row, best]:
            best = j
    return best


class TestNearest:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_first_minimum_scan(self, data):
        # few distinct values, so exact ties (also at distance 0) are common
        n = data.draw(st.integers(1, 9))
        upper = data.draw(arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 0.25, 0.5, 1.5])))
        values = np.triu(upper, 1) + np.triu(upper, 1).T
        table = DistanceTable(scope=[(i // 3, i % 3) for i in range(n)], values=values)
        protos = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        cols, dists = nearest(table, protos)
        for i in range(n):
            best = first_minimum_scan(values, i, protos)
            assert (cols[i], dists[i]) == (best, values[i, best])
        if n < 2:
            with pytest.raises(ValueError, match="singleton"):
                nearest(table)
            return
        cols, dists = nearest(table)
        for i in range(n):
            best = first_minimum_scan(values, i, [j for j in range(n) if j != i])
            assert (cols[i], dists[i]) == (best, values[i, best])


def whole_array_nearest(values, cols=None):
    """The whole-array query: a copied table with an inf diagonal, or the
    gathered candidate columns, and one argmin over all rows."""
    if cols is None:
        values = values.copy()
        np.fill_diagonal(values, np.inf)
        cols = np.arange(len(values))
    else:
        values = values[:, cols]
    pos = values.argmin(axis=1)
    return cols[pos], values[np.arange(len(pos)), pos]


class TestNearestRowBlocks:
    @pytest.mark.parametrize("row_block, shape", [(7, (2, 12, 8, 12, 2)), (None, (3, 100, 4, 6, 2))])
    def test_matches_whole_array_query(self, monkeypatch, row_block, shape):
        """Exact twins at 0.0 tie with the diagonal across block boundaries,
        the last block is ragged (7 does not divide 24; 128 does not divide
        300), and no query writes the table."""
        if row_block is not None:
            monkeypatch.setattr(geometry, "ROW_BLOCK", row_block)
        block = geometry.ROW_BLOCK
        spec = ModelSpec(*shape)
        model, dup_map = gen_synthetic(spec, seed=13, dup="within")
        table = distance_matrix(model, whole_model(spec))
        n = len(table.scope)
        assert n > block and n % block
        assert any(table.index_of(c) // block != table.index_of(s) // block for c, s in dup_map.items())
        before = table.values.tobytes()
        subset = np.sort(np.random.default_rng(n).choice(n, n // 3, replace=False))
        for cols in (None, np.arange(0, n, 2), subset):
            got = nearest(table, cols)
            want = whole_array_nearest(table.values, cols)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert table.values.tobytes() == before
        assert not nearest(table)[1][[table.index_of(c) for c in dup_map]].any()

    def test_peak_memory_is_a_few_blocks(self):
        spec = ModelSpec(16, 256, 4, 8, 2)  # one thin 4,096-expert scope
        model, _ = gen_synthetic(spec, seed=14)
        table = distance_matrix(model, whole_model(spec))
        n = len(table.scope)
        for cols in (None, np.arange(1, n, 2)):
            tracemalloc.start()
            try:
                nearest(table, cols)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.25 * 8 * n * n


class TestMinMaxNorm:
    def test_basic(self):
        out = minmax_norm([2.0, 4.0, 6.0])
        assert out == pytest.approx([0.0, 0.5, 1.0], abs=1e-6)

    def test_all_equal(self):
        assert np.array_equal(minmax_norm([5.0, 5.0, 5.0]), np.zeros(3))

    def test_singleton(self):
        assert np.array_equal(minmax_norm([7.0]), np.zeros(1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="minmax_norm of empty input"):
            minmax_norm([])

    @given(vals=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_range_and_monotonicity(self, vals):
        out = minmax_norm(vals)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        order = np.argsort(vals, kind="stable")
        assert np.all(np.diff(out[order]) >= 0.0)
