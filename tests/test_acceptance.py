"""End-to-end acceptance checks. Each test prints one pass line so the
suite doubles as a release gate: `pytest tests/test_acceptance.py -s`."""

import json
import time

import numpy as np
import pytest

from conmoe import (
    DupConfig,
    ModelSpec,
    ScopeConfig,
    budget,
    consolidate,
    cross_layer_nn,
    distance_matrix,
    evaluate_fidelity,
    gen_synthetic,
    gen_tokens,
    materialize,
    merge_msmoe,
    model_forward,
    moe_forward,
    objective,
    projection_distance,
    prune_frequency,
    prune_reap,
    reduction_accounting,
    run_calibration,
    score,
    select_prototypes,
)
from conmoe.cli import main
from conftest import run_cli_subprocess
from oracle import aggregate_coefficients, brute_force_optimal, distance, expert, identity_plan, scopes
from conmoe.planner import importance_weights


def _pass(n, message):
    print(f"[PASS] criterion {n}: {message}")


def random_plan(seed):
    """A random consolidation setup on a random small model."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec(
        num_layers=int(rng.integers(2, 5)),
        num_experts=int(rng.integers(4, 9)),
        hidden_dim=int(rng.integers(8, 17)),
        intermediate_dim=int(rng.integers(8, 25)),
        top_k=int(rng.integers(1, 4)),
    )
    model, _ = gen_synthetic(spec, seed=seed)
    tokens = gen_tokens(int(rng.integers(4, 12)), spec.hidden_dim, seed=seed + 1)
    stats = run_calibration(model, tokens)
    config = ScopeConfig(
        rho=float(rng.uniform(0.0, 0.8)),
        scope_size=int(rng.integers(1, spec.num_layers + 1)),
        policy=["adaptive", "fixed_k", "usage_topk", "reap_topk", "distance_only"][int(rng.integers(5))],
    )
    return model, stats, config, consolidate(model, stats, config), tokens


def test_criterion_1_identity_pipeline(tmp_path):
    start = time.monotonic()
    model_path = tmp_path / "model.mckpt"
    stats_path = tmp_path / "stats.json"
    plan_path = tmp_path / "plan.json"
    report_path = tmp_path / "report.json"
    assert main(["gen", "--layers", "8", "--experts", "16", "--hidden", "32",
                 "--inter", "48", "--topk", "2", "--seed", "42", "-q",
                 "-o", str(model_path)]) == 0
    assert main(["calibrate", "--model", str(model_path), "--tokens", "256",
                 "--seed", "42", "-q", "-o", str(stats_path)]) == 0
    assert main(["consolidate", "--model", str(model_path), "--stats", str(stats_path),
                 "--rho", "0", "-q", "-o", str(plan_path)]) == 0
    assert main(["eval", "--model", str(model_path), "--plan", str(plan_path),
                 "--tokens", "256", "--seed", "42", "-q", "-o", str(report_path)]) == 0
    elapsed = time.monotonic() - start

    plan_doc = json.loads(plan_path.read_text())
    assert all(slot == target for slot, target in plan_doc["assignment"])
    report = json.loads(report_path.read_text())
    assert report["end_to_end_error"] == 0.0
    assert all(e == 0.0 for e in report["per_layer_error"])
    assert elapsed < 10.0
    _pass(1, f"rho=0 pipeline is the identity with zero error in {elapsed:.2f}s")


def test_criterion_2_materialization_equivalence():
    for trial in range(20):
        model, stats, config, plan, tokens = random_plan(100 + trial)
        # the plain forward is the plan forward with every slot its own prototype
        identity = identity_plan(model.spec.num_layers, model.spec.num_experts)
        for t in tokens:
            assert model_forward(model, t).tobytes() == model_forward(model, t, identity).tobytes()
        assert model_forward(model, tokens).tobytes() == model_forward(model, tokens, identity).tobytes()
        if plan.is_pruning:
            continue
        mat = materialize(model, plan)
        for t in tokens:
            a = model_forward(model, t, plan)
            b = model_forward(mat, t)
            assert np.array_equal(a, b)
        assert np.array_equal(model_forward(model, tokens, plan), model_forward(mat, tokens))
    _pass(2, "consolidated forward == materialized plain forward and plain forward == "
             "identity-plan forward, bit-exact, per token and per batch, 20 plans")


def test_criterion_3_exact_duplicate_recovery():
    spec = ModelSpec(4, 8, 16, 24, 2)
    model, dup_map = gen_synthetic(spec, seed=42, dup=DupConfig("within"))
    tokens = gen_tokens(64, spec.hidden_dim, seed=42)
    stats = run_calibration(model, tokens)
    plan = consolidate(model, stats, ScopeConfig(rho=0.5, scope_size=1))
    for l in range(spec.num_layers):
        refs = [(l, i) for i in range(spec.num_experts)]
        table = distance_matrix(model, refs)
        protos = set(scopes(plan)[l].prototypes)
        for ref in refs:
            if ref not in protos:
                target = plan.assignment[ref]
                assert distance(table, ref, target) == 0.0
    report = evaluate_fidelity(model, plan, tokens)
    assert report.end_to_end_error == 0.0
    _pass(3, "every dropped slot maps to its exact duplicate; fidelity error exactly 0")


def _oracle_objective(proto_idx, values, weights):
    # independent summation: pure python, no vectorized mins
    total = 0.0
    for i in range(len(weights)):
        best = min(values[i][j] for j in proto_idx)
        total += weights[i] * best
    return total


def test_criterion_4_objective_oracle():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(6, n - 1) + 1))
        sym = rng.random((n, n))
        values = (sym + sym.T) / 2.0
        np.fill_diagonal(values, 0.0)
        from conmoe.geometry import DistanceTable

        table = DistanceTable(scope=[(0, i) for i in range(n)], values=values)
        weights = rng.random(n)

        # objective vs independent summation on a random candidate set
        cand = sorted(rng.choice(n, size=k, replace=False))
        got = objective([table.scope[i] for i in cand], table, weights)
        want = _oracle_objective(cand, values.tolist(), weights.tolist())
        assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

        checked += 1

    # the planner's actual selection never beats the exhaustive optimum
    rng = np.random.default_rng(44)
    for trial in range(20):
        spec = ModelSpec(2, int(rng.integers(3, 7)), 8, 12, 2)
        model, _ = gen_synthetic(spec, seed=400 + trial)
        tokens = gen_tokens(6, spec.hidden_dim, seed=401 + trial)
        stats = run_calibration(model, tokens)
        refs = model.slots()
        table = distance_matrix(model, refs)
        scores = score(stats, table)
        weights = importance_weights(stats, refs)
        k = int(rng.integers(1, min(6, len(refs) - 1) + 1))
        selected = select_prototypes(scores, refs, k)
        sel_val = objective(selected, table, weights)
        best_set, best_val = brute_force_optimal(table, k, weights)
        assert sel_val >= best_val - 1e-12
        if selected == best_set:
            assert sel_val == pytest.approx(best_val, rel=1e-12, abs=1e-14)
    _pass(4, f"objective matches oracle on {checked} scopes; planner never beats the optimum")


def test_criterion_5_assignment_optimality():
    for trial in range(12):
        model, stats, config, plan, _ = random_plan(300 + trial)
        for scope in scopes(plan):
            refs = [(l, i) for l in scope.layers for i in range(model.spec.num_experts)]
            table = distance_matrix(model, refs)
            for ref in refs:
                if ref in plan.drop_mask:
                    continue
                best = min(distance(table, ref, p) for p in scope.prototypes)
                assert distance(table, ref, plan.assignment[ref]) == best
    _pass(5, "d(e, m(e)) == min over prototypes, exactly, for every generated plan")


def test_criterion_6_distance_formula_properties():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal((rows, cols))
        assert projection_distance(a, a) == 0.0
        d3 = projection_distance(a, 3.0 * a)
        assert 1.0 - 1e-6 <= d3 <= 1.0
        dab = projection_distance(a, b)
        assert 0.0 <= dab < 2.0
        assert projection_distance(b, a) == dab
    # orthonormal equal-norm pairs hit sqrt(2)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = np.outer(q[:, 0], q[:, 0])
        b = np.outer(q[:, 1], q[:, 1])
        assert projection_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-6)
    # whole tables stay symmetric with zero diagonal and entries in [0, 2)
    model, _ = gen_synthetic(ModelSpec(2, 6, 8, 12, 2), seed=6)
    table = distance_matrix(model, model.slots())
    assert np.array_equal(table.values, table.values.T)
    assert np.all(np.diag(table.values) == 0.0)
    assert np.all((table.values >= 0.0) & (table.values < 2.0))
    _pass(6, "distance formula properties hold over 1000 random matrices")


def test_criterion_7_coefficient_conservation():
    for trial in range(10):
        model, stats, config, plan, tokens = random_plan(700 + trial)
        if plan.is_pruning:
            continue
        for t in tokens:
            h = np.asarray(t, dtype=np.float64)
            for l in range(model.spec.num_layers):
                coeffs = aggregate_coefficients(model, l, plan, h)
                assert sum(coeffs.values()) == pytest.approx(1.0, abs=1e-6)
                h = h + moe_forward(model, l, h, plan)
    _pass(7, "per-layer aggregated coefficients sum to 1 within 1e-6")


def test_criterion_8_cross_layer_nn_oracle():
    spec = ModelSpec(4, 6, 16, 24, 2)
    model, _ = gen_synthetic(spec, seed=8, dup=DupConfig("cross"))
    sigma2 = cross_layer_nn(model, 2)
    assert sigma2.overall_fraction == 1.0
    sigma1 = cross_layer_nn(model, 1)
    assert sigma1.overall_fraction == 0.0
    for report in (sigma1, sigma2):
        for row in report.counts:
            assert sum(row) == spec.num_experts
    # fractions from full-scale pretrained checkpoints are out of reach for
    # synthetic desk-scale models and are deliberately not asserted here
    _pass(8, "planted cross-copies give fraction 1.0 at scope 2 and 0.0 at scope 1")


def test_criterion_9_budget_formula():
    assert budget(0.25, 64) == 48
    assert budget(0.5, 64) == 32
    assert budget(0.99, 4) == 1
    assert budget(0.5, 7) == 4
    for trial in range(10):
        model, stats, config, plan, _ = random_plan(900 + trial)
        achieved = reduction_accounting(plan)
        min_pool = min(
            len(scope.layers) * model.spec.num_experts for scope in scopes(plan)
        )
        assert abs(achieved - config.rho) <= 1.0 / min_pool + 1e-12
    _pass(9, "budget formula values and achieved-ratio rounding bound hold")


def test_criterion_10_baseline_parity():
    spec = ModelSpec(4, 8, 16, 24, 2)
    model, _ = gen_synthetic(spec, seed=10)
    tokens = gen_tokens(32, spec.hidden_dim, seed=10)
    stats = run_calibration(model, tokens)
    rho = 0.5
    conmoe_plan = consolidate(model, stats, ScopeConfig(rho=rho))
    freq = prune_frequency(model, stats, rho)
    reap = prune_reap(model, stats, rho)
    msmoe_plan, msmoe_fused = merge_msmoe(model, stats, rho)
    counts = [len(p.distinct_prototypes()) for p in (conmoe_plan, freq, reap, msmoe_plan)]
    assert len(set(counts)) == 1
    for plan in (freq, reap):
        assert all(slot == target for slot, target in plan.assignment.items())
        assert plan.drop_mask
    for core, sources in msmoe_fused.metadata["provenance"]:
        if len(sources) != 2:
            continue
        (a, _), (b, _) = sources
        for proj in ("gate", "up", "down"):
            lo = np.minimum(getattr(expert(model, a), proj), getattr(expert(model, b), proj))
            hi = np.maximum(getattr(expert(model, a), proj), getattr(expert(model, b), proj))
            fusedw = getattr(expert(msmoe_fused, core), proj)
            assert np.all(fusedw >= lo - 1e-6)
            assert np.all(fusedw <= hi + 1e-6)
    _pass(10, "all baselines match the logical budget; pruning never remaps; fusion is convex")


def test_criterion_11_determinism(tmp_path):
    def pipeline(tag):
        paths = [tmp_path / f"{tag}.{name}" for name in ("mckpt", "stats.json", "plan.json", "report.json")]
        model_path, stats_path, plan_path, report_path = (str(p) for p in paths)
        argvs = [
            ["gen", "--layers", "3", "--experts", "6", "--hidden", "12", "--inter", "16",
             "--topk", "2", "--seed", "42", "-o", model_path],
            ["calibrate", "--model", model_path, "--tokens", "24", "--seed", "42", "-o", stats_path],
            ["consolidate", "--model", model_path, "--stats", stats_path, "--rho", "0.5",
             "--scope", "3", "-o", plan_path],
            ["eval", "--model", model_path, "--plan", plan_path, "--tokens", "16",
             "--seed", "42", "-o", report_path],
        ]
        return [argv + ["-q"] for argv in argvs], paths

    def run_in_process(tag):
        argvs, paths = pipeline(tag)
        for argv in argvs:
            assert main(argv) == 0
        return tuple(p.read_bytes() for p in paths)

    def run_in_subprocess(tag, blas_threads):
        # the BLAS thread count is fixed when NumPy loads, so each setting
        # needs fresh interpreters
        argvs, paths = pipeline(tag)
        for argv in argvs:
            assert run_cli_subprocess(argv, blas_threads).returncode == 0
        return tuple(p.read_bytes() for p in paths)

    first = run_in_process("a")
    second = run_in_process("b")
    one_thread = run_in_subprocess("c", 1)
    two_threads = run_in_subprocess("d", 2)
    assert first == second == one_thread == two_threads
    _pass(11, "all artifacts byte-identical across reruns and BLAS thread counts")
