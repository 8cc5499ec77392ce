import gc
import json
import re
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conmoe.cli import main
from conmoe import (ConsolidationPlan, analysis, cli, gen_tokens, geometry, read_checkpoint, read_plan,
                    write_checkpoint, write_plan)
from conmoe.model import moe_forward
from conftest import run_cli_subprocess, run_python_subprocess
from oracle import tensor_index
from test_geometry import assert_pair_kernel_bytes, block_cols


GRID = "expected a non-empty grid of equal-length rows"


def share_across_layers(plan):
    """A slot of layer 1 sent to a prototype of layer 0, in a plan that
    says scope_size 1."""
    prototype = next(target for slot, target in plan["assignment"] if slot == target and slot[0] == 0)
    pair = next(pair for pair in plan["assignment"] if pair[0][0] == 1 and pair[0] != pair[1])
    pair[1] = prototype


def set_cell(grid, value):
    """A mutation that sets cell (0, 3) of a stats grid."""
    return lambda d: d[grid][0].__setitem__(3, value)


def put_nan_in_header(checkpoint):
    """A NaN in the checkpoint header's metadata, which a derived
    checkpoint would carry."""
    raw = checkpoint.read_bytes()
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    header["metadata"]["note"] = float("nan")
    checkpoint.write_bytes(json.dumps(header).encode() + raw[nl:])


def run(*argv):
    return main([str(a) for a in argv])


def lineage(metadata):
    """A checkpoint's metadata, then each source's in turn, down to the
    checkpoint that was derived from none."""
    levels = [metadata]
    while "derived_from" in levels[-1]:
        levels.append(levels[-1]["derived_from"])
    return levels


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.mckpt"
    assert run("gen", "--layers", 4, "--experts", 8, "--hidden", 16, "--inter", 24,
               "--topk", 2, "--seed", 7, "-o", path) == 0
    return path


@pytest.fixture
def stats_path(tmp_path, model_path):
    path = tmp_path / "stats.json"
    assert run("calibrate", "--model", model_path, "--tokens", 16, "--seed", 3,
               "-o", path) == 0
    return path


class TestGen:
    def test_writes_readable_checkpoint(self, model_path):
        model = read_checkpoint(model_path)
        assert model.spec.num_layers == 4
        assert model.metadata["seed"] == 7

    def test_idempotent(self, tmp_path):
        a, b = tmp_path / "a.mckpt", tmp_path / "b.mckpt"
        args = ["gen", "--layers", 2, "--experts", 4, "--hidden", 8, "--inter", 12,
                "--topk", 2, "--seed", 5, "-o"]
        assert run(*args, a) == 0
        assert run(*args, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dup_metadata(self, tmp_path):
        path = tmp_path / "dup.mckpt"
        assert run("gen", "--layers", 2, "--experts", 4, "--hidden", 8, "--inter", 12,
                   "--topk", 2, "--dup", "within", "-o", path) == 0
        model = read_checkpoint(path)
        assert model.metadata["planted_duplicates"]


class TestValidation:
    def test_rho_one_rejected(self, model_path, stats_path, tmp_path, capsys):
        code = run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "1.0", "-o", tmp_path / "p.json")
        assert code == 1
        assert "rho must be" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, model_path, tmp_path):
        assert run("gen", "--bogus", 1) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("calibrate", "--model", tmp_path / "nope.mckpt", "--tokens", 4,
                   "-o", tmp_path / "s.json") == 2


class TestPipeline:
    def test_rho_zero_identity_report(self, model_path, stats_path, tmp_path):
        plan_path = tmp_path / "plan.json"
        report_path = tmp_path / "report.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0", "-o", plan_path) == 0
        assert run("eval", "--model", model_path, "--plan", plan_path,
                   "--tokens", 8, "--seed", 3, "-o", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["end_to_end_error"] == 0.0
        assert all(e == 0.0 for e in report["per_layer_error"])

    def test_duplicate_model_golden_run(self, tmp_path):
        model_path = tmp_path / "dup.mckpt"
        assert run("gen", "--layers", 4, "--experts", 8, "--hidden", 16, "--inter", 24,
                   "--topk", 2, "--dup", "within", "--seed", 11, "-o", model_path) == 0
        stats_path = tmp_path / "stats.json"
        assert run("calibrate", "--model", model_path, "--tokens", 32, "--seed", 2,
                   "-o", stats_path) == 0
        plan_path = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "--scope", 1, "-o", plan_path) == 0
        report_path = tmp_path / "report.json"
        assert run("eval", "--model", model_path, "--plan", plan_path,
                   "--tokens", 16, "--seed", 5, "-o", report_path) == 0
        assert json.loads(report_path.read_text())["end_to_end_error"] == 0.0

    def test_prune_merge_fuse_materialize(self, model_path, stats_path, tmp_path):
        prune_path = tmp_path / "prune.json"
        assert run("prune", "--model", model_path, "--stats", stats_path,
                   "--method", "frequency", "--rho", "0.5", "-o", prune_path) == 0
        assert read_plan(prune_path).drop_mask

        merge_plan = tmp_path / "merge.json"
        fused_path = tmp_path / "fused.mckpt"
        assert run("merge", "--model", model_path, "--stats", stats_path, "--rho", "0.5",
                   "-o", merge_plan, "--fused-model", fused_path) == 0
        assert read_checkpoint(fused_path).metadata["fusion"] == "msmoe_usage_weighted"

        plan_path = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan_path) == 0
        fuse_out = tmp_path / "wavg.mckpt"
        assert run("fuse", "--model", model_path, "--plan", plan_path, "--stats", stats_path,
                   "-o", fuse_out) == 0
        assert read_checkpoint(fuse_out).metadata["fusion"] == "weighted_average"

        mat_path = tmp_path / "eval.mckpt"
        assert run("materialize", "--model", model_path, "--plan", plan_path,
                   "-o", mat_path) == 0
        assert read_checkpoint(mat_path).spec == read_checkpoint(model_path).spec

    def test_fusing_a_fused_checkpoint_keeps_its_lineage(self, model_path, stats_path, tmp_path):
        merged = tmp_path / "merged.mckpt"
        assert run("merge", "--model", model_path, "--stats", stats_path, "--rho", "0.5",
                   "-o", tmp_path / "merge.json", "--fused-model", merged) == 0
        plan_path = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan_path) == 0
        twice, thrice = tmp_path / "twice.mckpt", tmp_path / "thrice.mckpt"
        assert run("fuse", "--model", merged, "--plan", plan_path, "-o", twice) == 0
        assert run("fuse", "--model", twice, "--plan", plan_path, "--stats", stats_path,
                   "-o", thrice) == 0
        third, second, first, source = lineage(read_checkpoint(thrice).metadata)
        assert [read_checkpoint(p).metadata for p in (merged, twice)] == [first, second]
        for level in (first, second, third):
            assert sorted(level) == ["derived_from", "fusion", "provenance"]
        assert first["fusion"] == "msmoe_usage_weighted"
        assert second["fusion"] == third["fusion"] == "weighted_average"
        assert source == read_checkpoint(model_path).metadata and source["seed"] == 7

    def test_materializing_a_materialized_checkpoint_keeps_its_lineage(self, model_path, stats_path,
                                                                      tmp_path):
        reap, plan = tmp_path / "reap.json", tmp_path / "plan.json"
        once, twice, thrice = (tmp_path / f"{n}.mckpt" for n in ("once", "twice", "thrice"))
        assert run("consolidate", "--model", model_path, "--stats", stats_path, "--policy", "reap_topk",
                   "--rho", "0.5", "-o", reap) == 0
        assert run("materialize", "--model", model_path, "--plan", reap, "-o", once) == 0
        assert run("consolidate", "--model", once, "--stats", stats_path, "--rho", "0.75",
                   "-o", plan) == 0
        assert run("materialize", "--model", once, "--plan", plan, "-o", twice) == 0
        assert run("materialize", "--model", twice, "--plan", reap, "-o", thrice) == 0
        third, second, first, source = lineage(read_checkpoint(thrice).metadata)
        assert [read_checkpoint(p).metadata for p in (once, twice)] == [first, second]
        for level in (first, second, third):
            assert sorted(level) == ["derived_from", "materialized_from_policy"]
        assert first["materialized_from_policy"] == third["materialized_from_policy"] == "reap_topk"
        assert second["materialized_from_policy"] == "adaptive"
        assert source == read_checkpoint(model_path).metadata and source["seed"] == 7

    def test_consolidate_plan_metadata(self, model_path, stats_path, tmp_path):
        plan = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan) == 0
        doc = json.loads(plan.read_text())
        assert sorted(doc) == ["assignment", "drop_mask", "metadata", "policy", "rho", "scope_size", "version"]
        assert doc["metadata"] == {"seed": 42}

    def test_merge_outputs_must_differ(self, model_path, stats_path, tmp_path, capsys):
        out = tmp_path / "merged"
        assert run("merge", "--model", model_path, "--stats", stats_path, "--rho", "0.5",
                   "-o", out, "--fused-model", f"{tmp_path}/./merged") == 1
        assert "error: -o and --fused-model name the same file" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_and_sweep(self, model_path, stats_path, tmp_path):
        prefix = str(tmp_path / "out_")
        assert run("analyze", "nn", "--model", model_path, "--scope", 2, "-o", prefix) == 0
        assert (tmp_path / "out_nn_heatmap.csv").exists()
        assert (tmp_path / "out_nn_fractions.csv").exists()

        sweep_path = tmp_path / "sweep.json"
        assert run("sweep", "--model", model_path, "--stats", stats_path, "--rho", "0.25",
                   "--scopes", "1,2,4", "--tokens", 8, "-o", sweep_path) == 0
        doc = json.loads(sweep_path.read_text())
        assert [r["scope_size"] for r in doc["reports"]] == [1, 2, 4]


class TestTokenStreams:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("count", [1, 16, 64])
    def test_eval_and_sweep_score_held_out_tokens(self, model_path, tmp_path, monkeypatch, seed, count):
        """At one --seed and --tokens, calibrate draws gen_tokens' stream of
        the seed, and eval and sweep draw one other stream: no token they
        score was calibrated on."""
        drawn = {}

        def recording(name, fn):
            def record(*args):
                drawn[name] = args[-1]  # the tokens are the last argument
                return fn(*args)
            return record

        for module, name in ((cli, "run_calibration"), (analysis, "evaluate_fidelity"),
                             (analysis, "scope_sweep")):
            monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        stats, plan = tmp_path / "s.json", tmp_path / "p.json"
        common = ("--model", model_path, "--tokens", count, "--seed", seed)
        assert run("calibrate", *common, "-o", stats) == 0
        assert run("consolidate", "--model", model_path, "--stats", stats, "--rho", "0.5",
                   "-o", plan) == 0
        assert run("eval", *common, "--plan", plan, "-o", tmp_path / "r.json") == 0
        assert run("sweep", *common, "--stats", stats, "--rho", "0.5", "--scopes", "1,2",
                   "-o", tmp_path / "sweep.json") == 0
        calibrated, scored = drawn["run_calibration"], drawn["evaluate_fidelity"]
        assert np.array_equal(calibrated, gen_tokens(count, 16, seed))
        assert np.array_equal(drawn["scope_sweep"], scored)
        assert not (calibrated[:, None, :] == scored[None, :, :]).all(axis=2).any()


class TestDeterminism:
    def test_artifacts_byte_identical_across_threads(self, model_path, tmp_path):
        outs = []
        for threads in (1, 2):
            stats = tmp_path / f"s{threads}.json"
            plan = tmp_path / f"s{threads}.plan.json"
            for argv in (
                ["calibrate", "--model", model_path, "--tokens", 16, "--seed", 3, "-o", stats],
                ["consolidate", "--model", model_path, "--stats", stats, "--rho", "0.5",
                 "-o", plan],
            ):
                done = run_cli_subprocess(argv, threads)
                assert done.returncode == 0, done.stderr
            outs.append((stats.read_bytes(), plan.read_bytes()))
        assert outs[0] == outs[1]

    def test_pool_scope_byte_identical_across_threads(self, tmp_path):
        """One 256-expert scope: the table's symmetry comes from the BLAS
        Gram, so analyze nn and a whole-model consolidate must not move
        with the thread count."""
        model, stats = tmp_path / "pool.mckpt", tmp_path / "pool.json"
        assert run("gen", "--layers", 4, "--experts", 64, "--hidden", 16, "--inter", 24,
                   "--topk", 2, "--dup", "within", "--seed", 11, "-o", model) == 0
        assert run("calibrate", "--model", model, "--tokens", 32, "-o", stats) == 0
        outs = []
        for threads in (1, 2):
            prefix, plan = f"{tmp_path}/t{threads}_", tmp_path / f"t{threads}.plan.json"
            for argv in (
                ["analyze", "nn", "--model", model, "--scope", 4, "-o", prefix],
                ["consolidate", "--model", model, "--stats", stats, "--rho", "0.5",
                 "--scope", 4, "-o", plan],
            ):
                done = run_cli_subprocess(argv, threads)
                assert done.returncode == 0, done.stderr
            names = ("nn_report.json", "nn_heatmap.csv", "nn_fractions.csv")
            outs.append([Path(prefix + name).read_bytes() for name in names] + [plan.read_bytes()])
        assert outs[0] == outs[1]
        assert_pair_kernel_bytes(read_checkpoint(model), [(l, i) for l in range(4) for i in range(64)])


class TestStartupHeapFreeze:
    GEN = ["gen", "--layers", 1, "--experts", 4, "--hidden", 4, "--inter", 6, "--topk", 2]

    def test_cli_child_exits_with_a_frozen_heap(self, tmp_path):
        """Run as __main__, the CLI freezes its start-up heap, so the
        interpreter's exit collections skip it; the child still runs its
        atexit hooks and exits 0."""
        child = ("import atexit, gc, runpy; atexit.register(lambda: print(gc.get_freeze_count())); "
                 "runpy.run_module('conmoe.cli', run_name='__main__')")
        done = run_python_subprocess(["-c", child, *self.GEN, "-o", tmp_path / "m.mckpt"], blas_threads=1)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) > 0
        assert read_checkpoint(tmp_path / "m.mckpt").spec.num_experts == 4

    def test_console_script_exits_with_a_frozen_heap(self, tmp_path):
        """The installed `conmoe` script, called as a console-script wrapper
        calls it, takes the same path as python -m conmoe.cli and freezes too."""
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        module, function = re.search(r'^conmoe\s*=\s*"([\w.]+):(\w+)"', pyproject, re.M).groups()
        argv = ["conmoe", *map(str, self.GEN), "-o", str(tmp_path / "m.mckpt")]
        child = (f"import atexit, gc, sys; from {module} import {function}; "
                 "atexit.register(lambda: print(gc.get_freeze_count())); "
                 f"sys.argv = {argv!r}; sys.exit({function}())")
        done = run_python_subprocess(["-c", child], blas_threads=1)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) > 0
        assert read_checkpoint(tmp_path / "m.mckpt").spec.num_experts == 4

    def test_main_in_process_leaves_the_collector_as_it_was(self, tmp_path):
        before = (gc.get_freeze_count(), gc.isenabled())
        assert run(*self.GEN, "-o", tmp_path / "m.mckpt") == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before


class TestReadmeShapeRegressions:
    """README quick-start shape (8 layers x 16 experts, hidden 32, inter 48,
    top-2, 256 tokens, seed 42), where both of these once failed."""

    def readme_model(self, tmp_path, *extra):
        model = tmp_path / "model.mckpt"
        stats = tmp_path / "stats.json"
        assert run("gen", "--layers", 8, "--experts", 16, "--hidden", 32, "--inter", 48,
                   "--topk", 2, *extra, "-o", model) == 0
        assert run("calibrate", "--model", model, "--tokens", 256, "-o", stats) == 0
        return model, stats

    def test_eval_of_pruning_plan(self, tmp_path):
        # some tokens select only dropped experts whose logits dwarf the
        # survivors'; the survivors' renormalized weights must stay finite
        model, stats = self.readme_model(tmp_path)
        plan, report = tmp_path / "prune.json", tmp_path / "report.json"
        assert run("prune", "--model", model, "--stats", stats, "--method", "frequency",
                   "--rho", "0.5", "-o", plan) == 0
        assert run("eval", "--model", model, "--plan", plan, "--tokens", 256,
                   "-o", report) == 0
        doc = json.loads(report.read_text())
        assert doc["end_to_end_error"] >= 0.0

    @staticmethod
    def scope_1_report(tmp_path, model, stats):
        """Every value of the eval report of the model's rho-0.5 scope-1 plan."""
        plan, report = tmp_path / "plan.json", tmp_path / "report.json"
        assert run("consolidate", "--model", model, "--stats", stats, "--rho", "0.5",
                   "-o", plan) == 0
        assert run("eval", "--model", model, "--plan", plan, "--tokens", 256, "-o", report) == 0
        doc = json.loads(report.read_text())
        return [doc["end_to_end_error"], *doc["per_layer_error"]]

    def test_pre_norm_stack_stays_bounded(self, tmp_path):
        """Each layer's median MoE-output norm stays within 2x of layer 0's,
        every report value is finite and below 2, and the --dup within plan
        reports exactly 0.0. The stack without a norm grew that median to
        5.8e3 by layer 7 and reported 7.7e34."""
        model_path, stats = self.readme_model(tmp_path)
        model = read_checkpoint(model_path)
        x = gen_tokens(256, 32, 42).astype(np.float32)
        medians = []
        for l in range(8):
            out = moe_forward(model, l, x)
            x = x + out
            medians.append(np.median(np.linalg.norm(out, axis=1)))
        assert all(0.5 <= m / medians[0] <= 2.0 for m in medians), medians
        values = self.scope_1_report(tmp_path, model_path, stats)
        assert all(0.0 <= v < 2.0 for v in values), values
        dup = tmp_path / "dup"
        dup.mkdir()
        assert self.scope_1_report(dup, *self.readme_model(dup, "--dup", "within")) == [0.0] * 9

    def test_consolidate_keeps_duplicate_prototypes(self, tmp_path):
        # budgets above the number of distinct experts select both copies
        # of some planted duplicates; each copy must remain its own prototype
        model, stats = self.readme_model(tmp_path, "--dup", "within")
        for rho, scope in (("0.5", 2), ("0.25", 1)):
            path = tmp_path / f"plan-{rho}-{scope}.json"
            assert run("consolidate", "--model", model, "--stats", stats, "--rho", rho,
                       "--scope", scope, "-o", path) == 0
            plan = read_plan(path)
            for p in plan.distinct_prototypes():
                assert plan.assignment[p] == p

    def test_column_blocked_stack_writes_the_same_plans(self, tmp_path, monkeypatch):
        """With the stack held to 100 columns of a 128-expert scope, every
        scope's Gram is summed over 2 to 16 column blocks, and the plans
        keep every byte of the one-block default."""
        model, stats = self.readme_model(tmp_path)
        plans = {}
        for stack_bytes in (geometry.STACK_BYTES, 8 * 128 * 100):
            monkeypatch.setattr(geometry, "STACK_BYTES", stack_bytes)
            for scope in (1, 2, 8):
                plan = tmp_path / f"plan-{stack_bytes}-{scope}.json"
                assert run("consolidate", "--model", model, "--stats", stats, "--rho", "0.5",
                           "--scope", scope, "-o", plan) == 0
                plans.setdefault(scope, []).append(plan.read_bytes())
        assert [block_cols(read_checkpoint(model), 16 * scope) for scope in (1, 2, 8)] == [800, 400, 100]
        assert all(default == blocked for default, blocked in plans.values())

    def test_mixed_chains_keep_each_step_apart(self, tmp_path):
        """materialize then fuse, and fuse then materialize, with the same
        two remapping plans: the headers differ."""
        model_path, stats_path = self.readme_model(tmp_path)
        reap, plan = tmp_path / "reap.json", tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path, "--policy", "reap_topk",
                   "--rho", "0.5", "-o", reap) == 0
        assert run("consolidate", "--model", model_path, "--stats", stats_path, "--rho", "0.5",
                   "--scope", 2, "-o", plan) == 0
        steps = {"materialize": ("--plan", reap), "fuse": ("--plan", plan, "--stats", stats_path)}
        headers = []
        for order in (("materialize", "fuse"), ("fuse", "materialize")):
            source = model_path
            for step in order:
                out = tmp_path / f"{source.stem}-{step}.mckpt"
                assert run(step, "--model", source, *steps[step], "-o", out) == 0
                source = out
            headers.append(out.read_bytes().split(b"\n", 1)[0])
        assert headers[0] != headers[1]


class TestPaperShapes:
    def test_olmoe_pool_runs_without_warnings(self, tmp_path):
        """OLMoE-1B-7B's pool structure, 16 layers x 64 experts, top-8, at
        hidden 32 and inter 64: calibrate, consolidate and eval each exit 0
        in a fresh interpreter with no RuntimeWarning on stderr, and the
        report's values are finite and below 2."""
        model, stats, plan, report = (tmp_path / n for n in ("m.mckpt", "s.json", "p.json", "r.json"))
        assert run("gen", "--layers", 16, "--experts", 64, "--hidden", 32, "--inter", 64,
                   "--topk", 8, "-o", model) == 0
        for argv in (["calibrate", "--model", model, "--tokens", 256, "-o", stats],
                     ["consolidate", "--model", model, "--stats", stats, "--rho", "0.5", "-o", plan],
                     ["eval", "--model", model, "--plan", plan, "--tokens", 256, "-o", report]):
            done = run_cli_subprocess(argv, blas_threads=1)
            assert done.returncode == 0, done.stderr
            assert "RuntimeWarning" not in done.stderr
        doc = json.loads(report.read_text())
        values = [doc["end_to_end_error"], *doc["per_layer_error"]]
        assert all(0.0 <= v < 2.0 for v in values), values


# each subcommand with its required options, -o aside; only argparse reads them
REQUIRED = {
    "gen": ("gen", "--layers", 1, "--experts", 2, "--hidden", 2, "--inter", 2, "--topk", 1),
    "calibrate": ("calibrate", "--model", "m", "--tokens", 4),
    "consolidate": ("consolidate", "--model", "m", "--stats", "s", "--rho", "0.5"),
    "prune": ("prune", "--model", "m", "--stats", "s", "--method", "reap", "--rho", "0.5"),
    "merge": ("merge", "--model", "m", "--stats", "s", "--rho", "0.5", "--fused-model", "f"),
    "fuse": ("fuse", "--model", "m", "--plan", "p"),
    "materialize": ("materialize", "--model", "m", "--plan", "p"),
    "eval": ("eval", "--model", "m", "--plan", "p", "--tokens", 4),
    "analyze": ("analyze", "nn", "--model", "m", "--scope", 1),
    "sweep": ("sweep", "--model", "m", "--stats", "s", "--rho", "0.5", "--tokens", 4, "--scopes", "1"),
}


class TestArtifactBoundary:
    """Mismatched, malformed or out-of-range inputs end in exit 1 with an
    `error:` message, never in a traceback."""

    def assert_rejected(self, capsys, *argv, message):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "Traceback" not in err

    def test_plan_from_another_model_shape(self, model_path, stats_path, tmp_path, capsys):
        plan = tmp_path / "plan8.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan) == 0
        small = tmp_path / "model4.mckpt"
        assert run("gen", "--layers", 4, "--experts", 4, "--hidden", 16, "--inter", 24,
                   "--topk", 2, "-o", small) == 0
        for argv in (("eval", "--tokens", 4), ("materialize",), ("fuse",)):
            self.assert_rejected(capsys, *argv, "--model", small, "--plan", plan,
                                 "-o", tmp_path / "out", message="plan does not cover this model")

    @pytest.mark.parametrize("artifact,mutate,message", [
        ("plan", lambda d: d.pop("rho"), "plan: missing field 'rho'"),
        ("plan", lambda d: d.update(assignment=5), "plan: malformed field 'assignment'"),
        ("stats", lambda d: d.pop("sum_weighted_norm"), "stats: missing field 'sum_weighted_norm'"),
        ("checkpoint", lambda h: h.pop("spec"), "checkpoint header: missing field 'spec'"),
        # numbers of the wrong JSON type are rejected, not coerced
        ("stats", set_cell("routed_count", 2.7),
         "stats: malformed field 'routed_count': expected a JSON integer, got 2.7"),
        ("stats", set_cell("routed_count", True),
         "stats: malformed field 'routed_count': expected a JSON integer, got True"),
        ("stats", set_cell("routed_count", "2"),
         "stats: malformed field 'routed_count': expected a JSON integer, got '2'"),
        ("stats", set_cell("sum_weighted_norm", "0.5"),
         "stats: malformed field 'sum_weighted_norm': expected a JSON number, got '0.5'"),
        ("plan", lambda d: d.update(scope_size="2"),
         "plan: malformed field 'scope_size': expected a JSON integer, got '2'"),
        ("checkpoint", lambda h: h["spec"].update(hidden_dim=0.5),
         "expected a JSON integer, got 0.5"),
        ("checkpoint", lambda h: h["spec"].update(top_k=True),
         "checkpoint spec: malformed field 'top_k': expected a JSON integer, got True"),
        ("plan", lambda d: d.update(rho=False),
         "plan: malformed field 'rho': expected a JSON number, got False"),
        # versions must match, older ones included
        ("plan", lambda d: d.update(version=-7), "unsupported plan version: -7"),
        ("stats", lambda d: d.update(version=0), "unsupported stats version: 0"),
        # each stats field is one non-empty (layers, experts) grid, both of one shape
        ("stats", lambda d: d["routed_count"][1].pop(), f"stats: malformed field 'routed_count': {GRID}"),
        ("stats", lambda d: d["sum_weighted_norm"][0].append(0.0),
         f"stats: malformed field 'sum_weighted_norm': {GRID}"),
        ("stats", lambda d: d.update(routed_count=[]), GRID),
        ("stats", lambda d: d.update(routed_count=[[]] * 4), GRID),
        ("stats", lambda d: d.update(routed_count=d["routed_count"][0]), GRID),
        ("stats", lambda d: d["sum_weighted_norm"].pop(),
         "stats: grids differ in shape: routed_count (4, 8), sum_weighted_norm (3, 8)"),
        # a count no int64 holds is malformed, not a traceback
        ("stats", set_cell("routed_count", 2**64), "stats: malformed field 'routed_count'"),
        # an infinite norm would turn every score into NaN
        ("stats", set_cell("sum_weighted_norm", float("inf")), "infinite weighted norm for (0, 3)"),
        ("stats", set_cell("sum_weighted_norm", float("-inf")), "negative or NaN weighted norm for (0, 3)"),
        ("stats", set_cell("sum_weighted_norm", float("nan")), "negative or NaN weighted norm for (0, 3)"),
        # a slot no token selected has no weighted norm
        ("stats", set_cell("routed_count", 0), "inconsistent stats for (0, 3)"),
        # each slot is assigned once; a second entry would silently win
        ("plan", lambda d: d["assignment"].append(d["assignment"][1]),
         "slot [0, 1] is assigned twice"),
        # the assignment is the whole plan: its scopes are derived from it
        ("plan", share_across_layers, "dangling assignment: (1, "),
        ("plan", lambda d: d["assignment"].pop(5), "assignment is not the full (layer, expert) grid"),
        # a spec, plan or stats value out of its range
        ("checkpoint", lambda h: h["spec"].update(num_experts=0), "need at least one expert per layer"),
        ("checkpoint", lambda h: h["spec"].update(top_k=9),
         "top_k must satisfy 1 <= top_k <= num_experts"),
        ("checkpoint", lambda h: h["spec"].update(hidden_dim=0), "dimensions must be positive"),
        ("checkpoint", lambda h: h.update(spec=[]), "checkpoint spec: expected a JSON object"),
        ("checkpoint", lambda h: h.update(metadata=5),
         "checkpoint header: malformed field 'metadata': expected a JSON object, got 5"),
        ("plan", lambda d: d.update(rho=1.5), "rho must be in [0, 1)"),
        ("plan", lambda d: d.update(policy="bogus"), "unknown policy: 'bogus'"),
        ("plan", lambda d: d["drop_mask"].append(next(s for s, t in d["assignment"] if s != t)),
         "is not a slot that maps to itself"),
        ("stats", lambda d: d.update(token_total=-1), "negative token total"),
    ])
    def test_malformed_field(self, model_path, stats_path, tmp_path, capsys,
                             artifact, mutate, message):
        plan = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan) == 0
        paths = {"checkpoint": model_path, "plan": plan, "stats": stats_path}
        raw = paths[artifact].read_bytes()
        nl = raw.find(b"\n") if artifact == "checkpoint" else len(raw)
        doc = json.loads(raw[:nl])
        mutate(doc)
        paths[artifact].write_bytes(json.dumps(doc).encode() + raw[nl:])
        argv = {
            "checkpoint": ("calibrate", "--model", model_path, "--tokens", 4),
            "plan": ("eval", "--model", model_path, "--plan", plan, "--tokens", 4),
            "stats": ("consolidate", "--model", model_path, "--stats", stats_path, "--rho", "0.5"),
        }[artifact]
        self.assert_rejected(capsys, *argv, "-o", tmp_path / "out", message=message)

    @pytest.mark.parametrize("cut,message", [
        (lambda raw: raw[:raw.find(b"\n")], "malformed header: no newline terminator"),
        (lambda raw: raw[:raw.find(b"\n") + 5], "payload length mismatch"),
    ], ids=["header_without_newline", "ends_inside_length"])
    def test_truncated_checkpoint(self, model_path, tmp_path, capsys, cut, message):
        model_path.write_bytes(cut(model_path.read_bytes()))
        self.assert_rejected(capsys, "calibrate", "--model", model_path, "--tokens", 4,
                             "-o", tmp_path / "s.json", message=message)

    @pytest.mark.parametrize("argv,message", [
        (("gen", "--layers", 1, "--experts", 4, "--hidden", 4, "--inter", 4, "--topk", 2,
          "--dup", "cross"), "cross-layer duplicates need at least 2 layers"),
        (("calibrate", "--model", "MODEL", "--tokens", 0), "token count must be >= 1"),
        (("sweep", "--model", "MODEL", "--stats", "STATS", "--rho", 0.5, "--tokens", 4,
          "--scopes", ","), "empty scope list"),
    ], ids=["gen_cross_one_layer", "calibrate_no_tokens", "sweep_no_scopes"])
    def test_option_out_of_range(self, model_path, stats_path, tmp_path, capsys, argv, message):
        paths = {"MODEL": model_path, "STATS": stats_path}
        self.assert_rejected(capsys, *(paths.get(a, a) for a in argv), "-o", tmp_path / "out",
                             message=message)
        assert not (tmp_path / "out").exists()

    def test_plan_scope_size_beyond_its_layers(self, tmp_path, capsys):
        """A 2-layer scope-2 plan derives the same one scope under any larger
        scope_size, so only the layer-count bound tells the label is wrong."""
        model, stats, plan = (tmp_path / name for name in ("m.mckpt", "s.json", "p.json"))
        assert run("gen", "--layers", 2, "--experts", 4, "--hidden", 8, "--inter", 12,
                   "--topk", 2, "-o", model) == 0
        assert run("calibrate", "--model", model, "--tokens", 8, "-o", stats) == 0
        assert run("consolidate", "--model", model, "--stats", stats, "--rho", "0.5",
                   "--scope", 2, "-o", plan) == 0
        doc = json.loads(plan.read_text())
        doc["scope_size"] = 99
        plan.write_text(json.dumps(doc))
        self.assert_rejected(capsys, "eval", "--model", model, "--plan", plan, "--tokens", 4,
                             "-o", tmp_path / "r.json", message="scope_size must be in [1, num_layers]")

    @pytest.mark.parametrize("tensor,value,message", [
        ("layers.1.experts.5.down", "nan", "non-finite down weights"),
        ("layers.2.router", "inf", "non-finite router weights"),
    ])
    def test_non_finite_payload(self, model_path, tmp_path, capsys, tensor, value, message):
        offsets = {name: offset for name, _, offset in tensor_index(read_checkpoint(model_path).spec)}
        raw = bytearray(model_path.read_bytes())
        nl = raw.find(b"\n")
        pos = nl + 1 + 8 + offsets[tensor] + 4 * 7  # the tensor's eighth float32
        raw[pos:pos + 4] = struct.pack("<f", float(value))
        model_path.write_bytes(bytes(raw))
        self.assert_rejected(capsys, "calibrate", "--model", model_path, "--tokens", 4,
                             "-o", tmp_path / "s.json", message=message)

    @pytest.mark.parametrize("artifact,name", [
        ("checkpoint", "header"), ("plan", "plan"), ("stats", "stats"),
    ])
    def test_deeply_nested_json(self, model_path, stats_path, tmp_path, capsys, artifact, name):
        plan = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan) == 0
        # json.dumps cannot write a document this deep, so it is built as bytes
        deep = b"[" * 100_000 + b"]" * 100_000
        if artifact == "checkpoint":
            raw = model_path.read_bytes()
            model_path.write_bytes(deep + raw[raw.find(b"\n"):])
        else:
            (plan if artifact == "plan" else stats_path).write_bytes(deep)
        argv = {
            "checkpoint": ("calibrate", "--model", model_path, "--tokens", 4),
            "plan": ("eval", "--model", model_path, "--plan", plan, "--tokens", 4),
            "stats": ("consolidate", "--model", model_path, "--stats", stats_path, "--rho", "0.5"),
        }[artifact]
        self.assert_rejected(capsys, *argv, "-o", tmp_path / "out",
                             message=f"malformed {name}: maximum recursion depth exceeded")

    @pytest.mark.parametrize("argv", [
        ("consolidate", "--scope", 99),
        ("sweep", "--tokens", 4, "--scopes", "99,1"),
    ], ids=["consolidate", "sweep"])
    def test_rho_checked_before_scope(self, model_path, stats_path, tmp_path, capsys, argv):
        assert run(*argv, "--model", model_path, "--stats", stats_path, "--rho", "1.5",
                   "-o", tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: rho must be in [0, 1)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (("prune", "--method", "frequency", "--rho", "1.5"), "rho must be in [0, 1)"),
        (("consolidate", "--rho", "0.5", "--scope", 99), "calibration stats do not cover this model"),
        (("consolidate", "--rho", "1.5"), "rho must be in [0, 1)"),
        (("merge", "--rho", "1.5", "--fused-model", "fused.mckpt"), "rho must be in [0, 1)"),
        (("sweep", "--rho", "1.5", "--tokens", 4, "--scopes", "1"), "rho must be in [0, 1)"),
    ], ids=["prune_rho_before_coverage", "consolidate_coverage_before_scope",
            "consolidate_rho_before_coverage", "merge_rho_before_coverage", "sweep_rho_before_coverage"])
    def test_which_error_wins_with_other_grid_stats(self, model_path, tmp_path, monkeypatch, capsys, argv,
                                                    message):
        monkeypatch.chdir(tmp_path)  # merge's relative --fused-model, were it written
        small, stats = tmp_path / "model4.mckpt", tmp_path / "stats4.json"
        assert run("gen", "--layers", 4, "--experts", 4, "--hidden", 16, "--inter", 24,
                   "--topk", 2, "-o", small) == 0
        assert run("calibrate", "--model", small, "--tokens", 8, "-o", stats) == 0
        self.assert_rejected(capsys, *argv, "--model", model_path, "--stats", stats,
                             "-o", tmp_path / "out", message=message)
        assert not (tmp_path / "out").exists()

    @staticmethod
    def scaled_model(tmp_path, projections, router_row=None):
        """A one-layer 16x32x48 top-2 model, its rho-0.5 plan, and then the
        given block projections scaled by 1e20 and, if given, router row 0
        set to router_row: the weights stay finite, but their products pass
        float32's 3.4e38."""
        model, stats, plan = (tmp_path / n for n in ("m.mckpt", "s.json", "p.json"))
        assert run("gen", "--layers", 1, "--experts", 16, "--hidden", 32, "--inter", 48,
                   "--topk", 2, "-o", model) == 0
        assert run("calibrate", "--model", model, "--tokens", 64, "-o", stats) == 0
        assert run("consolidate", "--model", model, "--stats", stats, "--rho", "0.5",
                   "-o", plan) == 0
        huge = read_checkpoint(model)
        huge.layers[0].block[:, projections] *= 1e20  # the mapping is copy-on-write
        if router_row is not None:
            huge.layers[0].router[0] = router_row
        write_checkpoint(huge, model)
        return model, plan

    def test_overflowing_error_norm_rescored(self, tmp_path):
        """Down scaled by 1e20: the expert outputs stay finite, but their
        float32 error norms would overflow. eval takes them in float64 and
        exits 0 with nothing on stderr, and layer 0's error is the unscaled
        model's up to float32 rounding."""
        model, plan = self.scaled_model(tmp_path, 2)
        plain = tmp_path / "plain.mckpt"
        assert run("gen", "--layers", 1, "--experts", 16, "--hidden", 32, "--inter", 48,
                   "--topk", 2, "-o", plain) == 0
        errors = []
        for m in (model, plain):
            report = tmp_path / f"{m.stem}.json"
            done = run_cli_subprocess(["eval", "--model", m, "--plan", plan, "--tokens", 64,
                                       "-o", report], blas_threads=1)
            assert (done.returncode, done.stderr) == (0, "")
            errors.append(json.loads(report.read_text())["per_layer_error"])
        assert errors[0] == pytest.approx(errors[1], rel=1e-6)

    def test_expert_overflow_names_its_layer(self, tmp_path):
        """Gate and up scaled by 1e20: the expert outputs overflow, and
        calibrate and eval each exit 1 naming the layer, with nothing else
        on stderr, in a fresh interpreter."""
        model, plan = self.scaled_model(tmp_path, slice(0, 2))
        out = tmp_path / "out.json"
        for argv in (("calibrate",), ("eval", "--plan", plan)):
            done = run_cli_subprocess([*argv, "--model", model, "--tokens", 64, "-o", out],
                                      blas_threads=1)
            assert done.returncode == 1
            assert done.stderr == "error: non-finite expert output at layer 0\n"
            assert not out.exists()

    def test_router_logit_overflow_names_its_layer(self, tmp_path):
        """Router row 0 set to 3e38: the router logits overflow, and
        calibrate and eval each exit 1 naming the layer, with no NumPy
        warning on stderr."""
        model, plan = self.scaled_model(tmp_path, [], router_row=3e38)
        out = tmp_path / "out.json"
        for argv in (("calibrate",), ("eval", "--plan", plan)):
            done = run_cli_subprocess([*argv, "--model", model, "--tokens", 64, "-o", out],
                                      blas_threads=1)
            assert (done.returncode, done.stderr) == (1, "error: non-finite router logits at layer 0\n")
            assert not out.exists()

    def test_large_expert_output_norms_calibrate_in_float64(self, tmp_path):
        """Down scaled by 1e20: the expert outputs stay finite, and their
        float32 squares would overflow, but calibration takes their norms in
        float64. calibrate exits 0 with nothing on stderr, and each weighted
        norm is 1e20 times the unscaled model's within 1e-6 relative, about
        8 float32 epsilons (measured 3.9e-8)."""
        model, _ = self.scaled_model(tmp_path, 2)
        out = tmp_path / "stats.json"
        done = run_cli_subprocess(["calibrate", "--model", model, "--tokens", 64, "-o", out],
                                  blas_threads=1)
        assert (done.returncode, done.stderr) == (0, "")
        got, want = (np.array(json.loads(p.read_text())["sum_weighted_norm"])
                     for p in (out, tmp_path / "s.json"))
        np.testing.assert_allclose(got, 1e20 * want, rtol=1e-6)

    def test_input_norm_overflow_names_its_layer(self, tmp_path):
        """A 2-layer model whose layer 0 down is scaled by 1e20: layer 1's
        input is finite, but its float32 mean square overflows. eval exits
        1 naming layer 1, where the norm divided every token by inf and the
        report read 0.0. Layer 0's plan is the identity, so its error is
        0 / inf = 0 and passes, with no warning."""
        model, plan, report = tmp_path / "m.mckpt", tmp_path / "p.json", tmp_path / "r.json"
        assert run("gen", "--layers", 2, "--experts", 16, "--hidden", 32, "--inter", 48,
                   "--topk", 2, "-o", model) == 0
        folded = {(l, i): (l, i) for l in range(2) for i in range(16)}
        folded.update({(1, i): (1, 0) for i in range(1, 16)})
        write_plan(ConsolidationPlan(rho=15 / 32, scope_size=1, policy="adaptive",
                                     assignment=folded), plan)
        huge = read_checkpoint(model)
        huge.layers[0].block[:, 2] *= 1e20  # the mapping is copy-on-write
        write_checkpoint(huge, model)
        done = run_cli_subprocess(["eval", "--model", model, "--plan", plan, "--tokens", 64,
                                   "-o", report], blas_threads=1)
        assert (done.returncode, done.stderr) == (1, "error: non-finite input norm at layer 1\n")
        assert not report.exists()

    def test_non_finite_metadata_refused(self, model_path, stats_path, tmp_path, capsys):
        plan, out = tmp_path / "p.json", tmp_path / "reduced.mckpt"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan) == 0
        put_nan_in_header(model_path)
        self.assert_rejected(capsys, "materialize", "--model", model_path, "--plan", plan,
                             "-o", out, message="Out of range float values are not JSON compliant")
        assert not out.exists()

    def test_pruning_plan_refused_by_every_derivation(self, model_path, stats_path, tmp_path):
        """A pruning plan's forward drops slots from the softmax, which no
        checkpoint holds: materialize and fuse each exit 1 with the same
        one-line message, in a fresh interpreter, and leave no output and
        no `.tmp` file."""
        before = sorted(p.name for p in tmp_path.iterdir())
        for method in ("frequency", "reap"):
            plan = tmp_path / f"prune-{method}.json"
            assert run("prune", "--model", model_path, "--stats", stats_path, "--method", method,
                       "--rho", "0.5", "-o", plan) == 0
            for argv in (("materialize",), ("fuse", "--stats", stats_path)):
                done = run_cli_subprocess([*argv, "--model", model_path, "--plan", plan,
                                           "-o", tmp_path / "out.mckpt"], blas_threads=1)
                assert (done.returncode, done.stderr) == (
                    1, "error: a derived checkpoint requires a remapping plan, not a pruning plan\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [*before, "prune-frequency.json", "prune-reap.json"])

    def test_version_1_stats_refused(self, model_path, stats_path, tmp_path, capsys):
        """Stats of the per-record layout, version 1, exit 1 with a message."""
        doc = json.loads(stats_path.read_text())
        counts, sums = doc.pop("routed_count"), doc.pop("sum_weighted_norm")
        doc.update(version=1, experts=[
            {"ref": [l, i], "routed_count": c, "sum_weighted_norm": sums[l][i], "topk_count": c}
            for l, row in enumerate(counts) for i, c in enumerate(row)])
        stats_path.write_text(json.dumps(doc))
        self.assert_rejected(capsys, "consolidate", "--model", model_path, "--stats", stats_path,
                             "--rho", "0.5", "-o", tmp_path / "p.json",
                             message="unsupported stats version: 1")
        assert not (tmp_path / "p.json").exists()

    def test_huge_plan_slot_sizes_nothing(self, model_path, stats_path, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan) == 0
        doc = json.loads(plan.read_text())
        doc["assignment"].append([[10**12, 0], [10**12, 0]])
        plan.write_text(json.dumps(doc))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            self.assert_rejected(capsys, "eval", "--model", model_path, "--plan", plan, "--tokens", 4,
                                 "-o", tmp_path / "r.json",
                                 message="assignment is not the full (layer, expert) grid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 16 * 2**20

    def test_stats_top_k_must_match_model(self, model_path, stats_path, tmp_path, capsys):
        doc = json.loads(stats_path.read_text())
        doc["top_k"] = 3
        stats_path.write_text(json.dumps(doc))
        self.assert_rejected(capsys, "consolidate", "--model", model_path, "--stats", stats_path,
                             "--rho", "0.5", "-o", tmp_path / "p.json",
                             message="calibration stats top_k 3 does not match model top_k 2")

    def test_sweep_bad_rho_fails_before_any_forward(self, model_path, stats_path, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr("conmoe.analysis.moe_forward",
                            lambda *a, **k: pytest.fail("a forward ran before rho was checked"))
        self.assert_rejected(capsys, "sweep", "--model", model_path, "--stats", stats_path,
                             "--rho", "1.5", "--scopes", "1,2", "--tokens", 8,
                             "-o", tmp_path / "sweep.json", message="rho must be in [0, 1)")

    def test_sweep_bad_scope_fails_before_any_forward(self, model_path, stats_path, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr("conmoe.analysis.moe_forward",
                            lambda *a, **k: pytest.fail("a forward ran before every scope was checked"))
        self.assert_rejected(capsys, "sweep", "--model", model_path, "--stats", stats_path,
                             "--rho", "0.5", "--scopes", "1,99", "--tokens", 8,
                             "-o", tmp_path / "sweep.json",
                             message="scope_size must be in [1, num_layers]")
        assert not (tmp_path / "sweep.json").exists()

    def test_out_of_memory_is_an_error(self, model_path, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("cannot allocate the tokens")

        monkeypatch.setattr("conmoe.cli.gen_tokens", exhausted)
        self.assert_rejected(capsys, "calibrate", "--model", model_path, "--tokens", 10**11,
                             "-o", tmp_path / "s.json",
                             message="error: out of memory: cannot allocate the tokens")

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_dup_noise_not_finite(self, tmp_path, capsys, noise):
        path = tmp_path / "model.mckpt"
        self.assert_rejected(capsys, "gen", "--layers", 2, "--experts", 4, "--hidden", 4,
                             "--inter", 4, "--topk", 2, "--dup", "within", "--dup-noise", noise,
                             "-o", path, message="dup noise must be finite and >= 0")
        assert not path.exists()

    def test_dup_noise_overflow_prints_only_the_error(self, tmp_path):
        path = tmp_path / "model.mckpt"
        done = run_cli_subprocess(["gen", "--layers", 2, "--experts", 4, "--hidden", 4,
                                   "--inter", 4, "--topk", 2, "--dup", "within",
                                   "--dup-noise", "1e39", "-o", path], blas_threads=1)
        assert (done.returncode, done.stderr) == (1, "error: non-finite gate weights\n")
        assert not path.exists()

    @pytest.mark.parametrize("dup", [(), ("--dup", "none")], ids=["default", "none"])
    def test_dup_noise_without_dup_mode(self, tmp_path, capsys, dup):
        path = tmp_path / "model.mckpt"
        self.assert_rejected(capsys, "gen", "--layers", 2, "--experts", 4, "--hidden", 4,
                             "--inter", 4, "--topk", 2, *dup, "--dup-noise", "0.5", "-o", path,
                             message="dup noise > 0 needs a dup mode: mode 'none' plants no copy")
        assert not path.exists()

    def test_merge_with_refused_checkpoint_writes_nothing(self, tmp_path, capsys):
        model, stats = tmp_path / "m.mckpt", tmp_path / "s.json"
        plan, fused = tmp_path / "merge.json", tmp_path / "f.mckpt"
        assert run("gen", "--layers", 2, "--experts", 4, "--hidden", 4, "--inter", 6,
                   "--topk", 2, "-o", model) == 0
        assert run("calibrate", "--model", model, "--tokens", 8, "-o", stats) == 0
        put_nan_in_header(model)
        self.assert_rejected(capsys, "merge", "--model", model, "--stats", stats, "--rho", "0.5",
                             "-o", plan, "--fused-model", fused,
                             message="Out of range float values are not JSON compliant")
        assert not plan.exists()
        assert not fused.exists()

    def test_analyze_scope_beyond_layers(self, model_path, tmp_path, capsys):
        self.assert_rejected(capsys, "analyze", "nn", "--model", model_path, "--scope", 5,
                             "-o", tmp_path / "out_", message="scope_size must be in [1, num_layers]")

    @pytest.mark.parametrize("argv", [
        *[(*REQUIRED[c], "--eps", "1e-8") for c in ("gen", "calibrate", "prune", "materialize", "fuse")],
        (*REQUIRED["fuse"], "--method", "weighted-average"),
        # the distance, score and error stabiliser is the constant geometry.EPS
        *[(*REQUIRED[c], "--eps", "1e-8") for c in ("consolidate", "merge", "eval", "analyze", "sweep")],
        # every command prints its one success line: there is no quiet mode
        *[(*argv, flag) for argv in REQUIRED.values() for flag in ("-q", "--quiet")],
    ])
    def test_inert_flags_gone(self, tmp_path, capsys, argv):
        assert run(*argv, "-o", tmp_path / "out") == 1
        assert "unrecognized arguments" in capsys.readouterr().err


GRIDS = {"own": (2, 4), "larger": (4, 8), "smaller": (1, 2)}
PLAN_MISMATCH = "plan does not cover this model (plan grid {grid}, model grid (2, 4))"
STATS_MISMATCH = "calibration stats do not cover this model (stats grid {grid}, model grid (2, 4))"


@pytest.fixture(scope="module")
def grid_artifacts(tmp_path_factory):
    """For each grid of GRIDS, a checkpoint, its stats and its rho-0.5 plan."""
    root = tmp_path_factory.mktemp("grids")
    paths = {}
    for name, (layers, experts) in GRIDS.items():
        model, stats, plan = (root / f"{name}.{ext}" for ext in ("mckpt", "stats.json", "plan.json"))
        assert run("gen", "--layers", layers, "--experts", experts, "--hidden", 8, "--inter", 12,
                   "--topk", min(2, experts), "--seed", 5, "-o", model) == 0
        assert run("calibrate", "--model", model, "--tokens", 16, "-o", stats) == 0
        assert run("consolidate", "--model", model, "--stats", stats, "--rho", "0.5", "-o", plan) == 0
        paths[name] = {"model": model, "stats": stats, "plan": plan}
    return paths


class TestGridMismatchMatrix:
    """Every command that reads a plan or stats, given the plan or stats of
    a larger or a smaller grid than its model's: exit 1, one `error:` line
    and no traceback, and no output file. {plan} and {stats} are the other
    grid's; {own_plan} and {own_stats} the model's own."""

    @pytest.mark.parametrize("other", ["larger", "smaller"])
    @pytest.mark.parametrize("argv, message", [
        (("consolidate", "--stats", "{stats}", "--rho", "0.5"), STATS_MISMATCH),
        (("prune", "--stats", "{stats}", "--method", "frequency", "--rho", "0.5"), STATS_MISMATCH),
        (("prune", "--stats", "{stats}", "--method", "reap", "--rho", "0.5"), STATS_MISMATCH),
        (("merge", "--stats", "{stats}", "--rho", "0.5", "--fused-model", "{out}.fused"), STATS_MISMATCH),
        (("fuse", "--plan", "{plan}"), PLAN_MISMATCH),
        (("fuse", "--plan", "{plan}", "--stats", "{own_stats}"), PLAN_MISMATCH),
        (("fuse", "--plan", "{own_plan}", "--stats", "{stats}"), STATS_MISMATCH),
        (("materialize", "--plan", "{plan}"), PLAN_MISMATCH),
        (("eval", "--plan", "{plan}", "--tokens", 4), PLAN_MISMATCH),
        (("sweep", "--stats", "{stats}", "--rho", "0.5", "--tokens", 4, "--scopes", "1"), STATS_MISMATCH),
    ], ids=["consolidate", "prune_frequency", "prune_reap", "merge", "fuse", "fuse_own_stats",
            "fuse_own_plan", "materialize", "eval", "sweep"])
    def test_refused_with_one_error_line(self, grid_artifacts, tmp_path, capsys, other, argv, message):
        own, out = grid_artifacts["own"], tmp_path / "out"
        fields = {"out": out, "own_plan": own["plan"], "own_stats": own["stats"], **grid_artifacts[other]}
        assert run(*[str(a).format(**fields) for a in argv], "--model", own["model"], "-o", out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(grid=GRIDS[other])}\n"
        assert list(tmp_path.iterdir()) == []
