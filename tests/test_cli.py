import json
import struct
import time
import tracemalloc

import pytest

from conmoe.cli import main
from conmoe import read_checkpoint, read_plan
from conftest import run_cli_subprocess


GRID = "stats records are not the full ascending (layer, expert) grid"


def share_across_layers(plan):
    """Scopes 0 and 1 listed as one scope, with a slot of layer 1 sent to a
    prototype of layer 0, in a plan that says scope_size 1."""
    first, second = plan["scopes"][:2]
    plan["scopes"][:2] = [{"layers": [0, 1], "prototypes": first["prototypes"] + second["prototypes"]}]
    pair = next(pair for pair in plan["assignment"] if pair[0][0] == 1 and pair[0] != pair[1])
    pair[1] = first["prototypes"][0]


def list_an_unused_prototype(plan):
    """Layer 0's scope also lists a slot that maps elsewhere."""
    slot = next(s for s, t in plan["assignment"] if s != t)
    plan["scopes"][0]["prototypes"] = sorted(plan["scopes"][0]["prototypes"] + [slot])


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.mckpt"
    assert run("gen", "--layers", 4, "--experts", 8, "--hidden", 16, "--inter", 24,
               "--topk", 2, "--seed", 7, "-o", path, "-q") == 0
    return path


@pytest.fixture
def stats_path(tmp_path, model_path):
    path = tmp_path / "stats.json"
    assert run("calibrate", "--model", model_path, "--tokens", 16, "--seed", 3,
               "-o", path, "-q") == 0
    return path


class TestGen:
    def test_writes_readable_checkpoint(self, model_path):
        model = read_checkpoint(model_path)
        assert model.spec.num_layers == 4
        assert model.metadata["seed"] == 7

    def test_idempotent(self, tmp_path):
        a, b = tmp_path / "a.mckpt", tmp_path / "b.mckpt"
        args = ["gen", "--layers", 2, "--experts", 4, "--hidden", 8, "--inter", 12,
                "--topk", 2, "--seed", 5, "-q", "-o"]
        assert run(*args, a) == 0
        assert run(*args, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dup_metadata(self, tmp_path):
        path = tmp_path / "dup.mckpt"
        assert run("gen", "--layers", 2, "--experts", 4, "--hidden", 8, "--inter", 12,
                   "--topk", 2, "--dup", "within", "-o", path, "-q") == 0
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
                   "--rho", "0", "-o", plan_path, "-q") == 0
        assert run("eval", "--model", model_path, "--plan", plan_path,
                   "--tokens", 8, "--seed", 3, "-o", report_path, "-q") == 0
        report = json.loads(report_path.read_text())
        assert report["end_to_end_error"] == 0.0
        assert all(e == 0.0 for e in report["per_layer_error"])

    def test_duplicate_model_golden_run(self, tmp_path):
        model_path = tmp_path / "dup.mckpt"
        assert run("gen", "--layers", 4, "--experts", 8, "--hidden", 16, "--inter", 24,
                   "--topk", 2, "--dup", "within", "--seed", 11, "-o", model_path, "-q") == 0
        stats_path = tmp_path / "stats.json"
        assert run("calibrate", "--model", model_path, "--tokens", 32, "--seed", 2,
                   "-o", stats_path, "-q") == 0
        plan_path = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "--scope", 1, "-o", plan_path, "-q") == 0
        report_path = tmp_path / "report.json"
        assert run("eval", "--model", model_path, "--plan", plan_path,
                   "--tokens", 16, "--seed", 5, "-o", report_path, "-q") == 0
        assert json.loads(report_path.read_text())["end_to_end_error"] == 0.0

    def test_prune_merge_fuse_materialize(self, model_path, stats_path, tmp_path):
        prune_path = tmp_path / "prune.json"
        assert run("prune", "--model", model_path, "--stats", stats_path,
                   "--method", "frequency", "--rho", "0.5", "-o", prune_path, "-q") == 0
        assert read_plan(prune_path).drop_mask

        merge_plan = tmp_path / "merge.json"
        fused_path = tmp_path / "fused.mckpt"
        assert run("merge", "--model", model_path, "--stats", stats_path, "--rho", "0.5",
                   "-o", merge_plan, "--fused-model", fused_path, "-q") == 0
        assert read_checkpoint(fused_path).metadata["fusion"] == "msmoe_usage_weighted"

        plan_path = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan_path, "-q") == 0
        fuse_out = tmp_path / "wavg.mckpt"
        assert run("fuse", "--model", model_path, "--plan", plan_path, "--stats", stats_path,
                   "-o", fuse_out, "-q") == 0
        assert read_checkpoint(fuse_out).metadata["fusion"] == "weighted_average"

        mat_path = tmp_path / "eval.mckpt"
        assert run("materialize", "--model", model_path, "--plan", plan_path,
                   "-o", mat_path, "-q") == 0
        assert read_checkpoint(mat_path).spec == read_checkpoint(model_path).spec

    def test_fusing_a_fused_checkpoint_keeps_its_lineage(self, model_path, stats_path, tmp_path):
        merged = tmp_path / "merged.mckpt"
        assert run("merge", "--model", model_path, "--stats", stats_path, "--rho", "0.5",
                   "-o", tmp_path / "merge.json", "--fused-model", merged, "-q") == 0
        plan_path = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan_path, "-q") == 0
        twice, thrice = tmp_path / "twice.mckpt", tmp_path / "thrice.mckpt"
        assert run("fuse", "--model", merged, "--plan", plan_path, "-o", twice, "-q") == 0
        assert run("fuse", "--model", twice, "--plan", plan_path, "--stats", stats_path,
                   "-o", thrice, "-q") == 0
        first, second, third = (read_checkpoint(p).metadata for p in (merged, twice, thrice))
        assert "prior_fusion" not in first
        assert second["fusion"] == "weighted_average"
        assert second["prior_fusion"] == {"fusion": "msmoe_usage_weighted",
                                          "provenance": first["provenance"]}
        assert third["prior_fusion"] == {"fusion": "weighted_average",
                                         "provenance": second["provenance"],
                                         "prior_fusion": second["prior_fusion"]}
        assert third["seed"] == first["seed"]

    def test_materializing_a_materialized_checkpoint_keeps_its_lineage(self, model_path, stats_path,
                                                                      tmp_path):
        prune, plan = tmp_path / "prune.json", tmp_path / "plan.json"
        once, twice, thrice = (tmp_path / f"{n}.mckpt" for n in ("once", "twice", "thrice"))
        assert run("prune", "--model", model_path, "--stats", stats_path, "--method", "reap",
                   "--rho", "0.5", "-o", prune, "-q") == 0
        assert run("materialize", "--model", model_path, "--plan", prune, "-o", once, "-q") == 0
        assert run("consolidate", "--model", once, "--stats", stats_path, "--rho", "0.75",
                   "-o", plan, "-q") == 0
        assert run("materialize", "--model", once, "--plan", plan, "-o", twice, "-q") == 0
        assert run("materialize", "--model", twice, "--plan", prune, "-o", thrice, "-q") == 0
        first, second, third = (read_checkpoint(p).metadata for p in (once, twice, thrice))
        assert "prior_materialization" not in first and first["zeroed_slots"]
        # the slots the prune zeroed now hold prototype weights, so they are not listed
        assert second["materialized_from_policy"] == "adaptive" and "zeroed_slots" not in second
        assert second["prior_materialization"] == {"materialized_from_policy": "prune_reap",
                                                   "zeroed_slots": first["zeroed_slots"]}
        assert third["zeroed_slots"] == first["zeroed_slots"]
        assert third["prior_materialization"] == {
            "materialized_from_policy": "adaptive",
            "prior_materialization": second["prior_materialization"]}
        assert third["seed"] == first["seed"]

    def test_consolidate_plan_metadata(self, model_path, stats_path, tmp_path):
        plan = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan, "-q") == 0
        assert json.loads(plan.read_text())["metadata"] == {
            "eps": 1e-08, "reap_score": "aliased to routing-conditioned contribution", "seed": 42}

    def test_merge_outputs_must_differ(self, model_path, stats_path, tmp_path, capsys):
        out = tmp_path / "merged"
        assert run("merge", "--model", model_path, "--stats", stats_path, "--rho", "0.5",
                   "-o", out, "--fused-model", f"{tmp_path}/./merged", "-q") == 1
        assert "error: -o and --fused-model name the same file" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_and_sweep(self, model_path, stats_path, tmp_path):
        prefix = str(tmp_path / "out_")
        assert run("analyze", "nn", "--model", model_path, "--scope", 2, "-o", prefix, "-q") == 0
        assert (tmp_path / "out_nn_heatmap.csv").exists()
        assert (tmp_path / "out_nn_fractions.csv").exists()

        sweep_path = tmp_path / "sweep.json"
        assert run("sweep", "--model", model_path, "--stats", stats_path, "--rho", "0.25",
                   "--scopes", "1,2,4", "--tokens", 8, "-o", sweep_path, "-q") == 0
        doc = json.loads(sweep_path.read_text())
        assert [r["scope_size"] for r in doc["reports"]] == [1, 2, 4]


class TestDeterminism:
    def test_artifacts_byte_identical_across_threads(self, model_path, tmp_path):
        outs = []
        for threads in (1, 2):
            stats = tmp_path / f"s{threads}.json"
            plan = tmp_path / f"s{threads}.plan.json"
            for argv in (
                ["calibrate", "--model", model_path, "--tokens", 16, "--seed", 3, "-o", stats, "-q"],
                ["consolidate", "--model", model_path, "--stats", stats, "--rho", "0.5",
                 "-o", plan, "-q"],
            ):
                done = run_cli_subprocess(argv, threads)
                assert done.returncode == 0, done.stderr
            outs.append((stats.read_bytes(), plan.read_bytes()))
        assert outs[0] == outs[1]


class TestReadmeShapeRegressions:
    """README quick-start shape (8 layers x 16 experts, hidden 32, inter 48,
    top-2, 256 tokens, seed 42), where both of these once failed."""

    def readme_model(self, tmp_path, *extra):
        model = tmp_path / "model.mckpt"
        stats = tmp_path / "stats.json"
        assert run("gen", "--layers", 8, "--experts", 16, "--hidden", 32, "--inter", 48,
                   "--topk", 2, *extra, "-o", model, "-q") == 0
        assert run("calibrate", "--model", model, "--tokens", 256, "-o", stats, "-q") == 0
        return model, stats

    def test_eval_of_pruning_plan(self, tmp_path):
        # some tokens select only dropped experts whose logits dwarf the
        # survivors'; the survivors' renormalized weights must stay finite
        model, stats = self.readme_model(tmp_path)
        plan, report = tmp_path / "prune.json", tmp_path / "report.json"
        assert run("prune", "--model", model, "--stats", stats, "--method", "frequency",
                   "--rho", "0.5", "-o", plan, "-q") == 0
        assert run("eval", "--model", model, "--plan", plan, "--tokens", 256,
                   "-o", report, "-q") == 0
        doc = json.loads(report.read_text())
        assert doc["end_to_end_error"] >= 0.0

    def test_consolidate_keeps_duplicate_prototypes(self, tmp_path):
        # budgets above the number of distinct experts select both copies
        # of some planted duplicates; each copy must remain its own prototype
        model, stats = self.readme_model(tmp_path, "--dup", "within")
        for rho, scope in (("0.5", 2), ("0.25", 1)):
            path = tmp_path / f"plan-{rho}-{scope}.json"
            assert run("consolidate", "--model", model, "--stats", stats, "--rho", rho,
                       "--scope", scope, "-o", path, "-q") == 0
            plan = read_plan(path)
            for p in plan.distinct_prototypes():
                assert plan.assignment[p] == p


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
                   "--rho", "0.5", "-o", plan, "-q") == 0
        small = tmp_path / "model4.mckpt"
        assert run("gen", "--layers", 4, "--experts", 4, "--hidden", 16, "--inter", 24,
                   "--topk", 2, "-o", small, "-q") == 0
        for argv in (("eval", "--tokens", 4), ("materialize",), ("fuse",)):
            self.assert_rejected(capsys, *argv, "--model", small, "--plan", plan,
                                 "-o", tmp_path / "out", message="plan does not cover this model")

    @pytest.mark.parametrize("artifact,mutate,message", [
        ("plan", lambda d: d.pop("rho"), "plan: missing field 'rho'"),
        ("plan", lambda d: d.update(assignment=5), "plan: malformed field 'assignment'"),
        ("stats", lambda d: d["experts"][3].pop("sum_weighted_norm"),
         "stats record [0, 3]: missing field 'sum_weighted_norm'"),
        ("checkpoint", lambda h: h.pop("spec"), "checkpoint header: missing field 'spec'"),
        ("checkpoint", lambda h: h["tensor_index"][2].__delitem__(slice(1, None)),
         "checkpoint tensor_index entry"),
        # numbers of the wrong JSON type are rejected, not coerced
        ("stats", lambda d: d["experts"][3].update(routed_count=2.7, topk_count="2"),
         "stats record [0, 3]: malformed field 'routed_count': expected a JSON integer, got 2.7"),
        ("plan", lambda d: d.update(scope_size="2"),
         "plan: malformed field 'scope_size': expected a JSON integer, got '2'"),
        ("checkpoint", lambda h: h["tensor_index"][1].__setitem__(2, 0.5),
         "expected a JSON integer, got 0.5"),
        ("checkpoint", lambda h: h["spec"].update(top_k=True),
         "checkpoint spec: malformed field 'top_k': expected a JSON integer, got True"),
        ("plan", lambda d: d.update(rho=False),
         "plan: malformed field 'rho': expected a JSON number, got False"),
        # versions must match, older ones included
        ("plan", lambda d: d.update(version=-7), "unsupported plan version: -7"),
        ("stats", lambda d: d.update(version=0), "unsupported stats version: 0"),
        # stats records must be the full ascending (layer, expert) grid
        ("stats", lambda d: d["experts"].insert(0, d["experts"].pop(1)), GRID),
        ("stats", lambda d: d["experts"].pop(5), GRID),
        ("stats", lambda d: d["experts"].insert(5, d["experts"][5]), GRID),
        ("stats", lambda d: d["experts"][-1].update(ref=[-2, -2]), GRID),
        # a count no int64 holds is malformed, not a traceback
        ("stats", lambda d: d["experts"][3].update(routed_count=2**64, topk_count=2**64),
         "stats record [0, 3]: malformed field 'routed_count'"),
        # an infinite norm would turn every score into NaN
        ("stats", lambda d: d["experts"][3].update(sum_weighted_norm=float("inf")),
         "infinite weighted norm for (0, 3)"),
        # each slot is assigned once; a second entry would silently win
        ("plan", lambda d: d["assignment"].append(d["assignment"][1]),
         "slot [0, 1] is assigned twice"),
        # the assignment is the whole plan: scopes are derived from it
        ("plan", share_across_layers, "dangling assignment: (1, "),
        ("plan", list_an_unused_prototype, "plan: field 'scopes' does not match"),
        ("plan", lambda d: d["assignment"].pop(5), "assignment is not the full (layer, expert) grid"),
    ])
    def test_malformed_field(self, model_path, stats_path, tmp_path, capsys,
                             artifact, mutate, message):
        plan = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan, "-q") == 0
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

    def test_plan_scope_size_beyond_its_layers(self, tmp_path, capsys):
        """A 2-layer scope-2 plan derives the same one scope under any larger
        scope_size, so only the layer-count bound tells the label is wrong."""
        model, stats, plan = (tmp_path / name for name in ("m.mckpt", "s.json", "p.json"))
        assert run("gen", "--layers", 2, "--experts", 4, "--hidden", 8, "--inter", 12,
                   "--topk", 2, "-o", model, "-q") == 0
        assert run("calibrate", "--model", model, "--tokens", 8, "-o", stats, "-q") == 0
        assert run("consolidate", "--model", model, "--stats", stats, "--rho", "0.5",
                   "--scope", 2, "-o", plan, "-q") == 0
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
        raw = bytearray(model_path.read_bytes())
        nl = raw.find(b"\n")
        offsets = {name: offset for name, _, offset in json.loads(raw[:nl])["tensor_index"]}
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
                   "--rho", "0.5", "-o", plan, "-q") == 0
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

    def test_non_finite_report_refused(self, tmp_path):
        """Ten layers of the unnormalised residual stack overflow the
        end-to-end error to inf; a report cannot hold it as strict JSON.
        eval runs in a subprocess, where the overflow's RuntimeWarning is
        not an error."""
        model, stats, plan, report = (tmp_path / n for n in ("m.mckpt", "s.json", "p.json", "r.json"))
        assert run("gen", "--layers", 10, "--experts", 16, "--hidden", 32, "--inter", 48,
                   "--topk", 2, "-o", model, "-q") == 0
        assert run("calibrate", "--model", model, "--tokens", 64, "-o", stats, "-q") == 0
        assert run("consolidate", "--model", model, "--stats", stats, "--rho", "0.5",
                   "-o", plan, "-q") == 0
        done = run_cli_subprocess(["eval", "--model", model, "--plan", plan, "--tokens", 64,
                                   "-o", report, "-q"], blas_threads=1)
        assert done.returncode == 1
        assert "error: Out of range float values are not JSON compliant" in done.stderr
        assert "Traceback" not in done.stderr
        assert not report.exists()

    def test_non_finite_metadata_refused(self, model_path, stats_path, tmp_path, capsys):
        plan, out = tmp_path / "p.json", tmp_path / "reduced.mckpt"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan, "-q") == 0
        raw = model_path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["metadata"]["note"] = float("nan")
        model_path.write_bytes(json.dumps(header).encode() + raw[nl:])
        self.assert_rejected(capsys, "materialize", "--model", model_path, "--plan", plan,
                             "-o", out, message="Out of range float values are not JSON compliant")
        assert not out.exists()

    def test_huge_stats_ref_sizes_nothing(self, model_path, stats_path, tmp_path, capsys):
        doc = json.loads(stats_path.read_text())
        doc["experts"].append({**doc["experts"][-1], "ref": [0, 10**12]})
        stats_path.write_text(json.dumps(doc))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            self.assert_rejected(capsys, "consolidate", "--model", model_path, "--stats", stats_path,
                                 "--rho", "0.5", "-o", tmp_path / "p.json", message=GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 16 * 2**20

    def test_huge_plan_slot_sizes_nothing(self, model_path, stats_path, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert run("consolidate", "--model", model_path, "--stats", stats_path,
                   "--rho", "0.5", "-o", plan, "-q") == 0
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

    def test_analyze_scope_beyond_layers(self, model_path, tmp_path, capsys):
        self.assert_rejected(capsys, "analyze", "nn", "--model", model_path, "--scope", 5,
                             "-o", tmp_path / "out_", message="scope_size must be in [1, num_layers]")

    @pytest.mark.parametrize("argv", [
        ("gen", "--layers", 1, "--experts", 2, "--hidden", 2, "--inter", 2, "--topk", 1,
         "--eps", "1e-8"),
        ("calibrate", "--model", "m", "--tokens", 4, "--eps", "1e-8"),
        ("prune", "--model", "m", "--stats", "s", "--method", "reap", "--rho", "0.5",
         "--eps", "1e-8"),
        ("materialize", "--model", "m", "--plan", "p", "--eps", "1e-8"),
        ("fuse", "--model", "m", "--plan", "p", "--eps", "1e-8"),
        ("fuse", "--model", "m", "--plan", "p", "--method", "weighted-average"),
        # the distance, score and error stabiliser is the constant geometry.EPS
        ("consolidate", "--model", "m", "--stats", "s", "--rho", "0.5", "--eps", "1e-8"),
        ("merge", "--model", "m", "--stats", "s", "--rho", "0.5", "--fused-model", "f",
         "--eps", "1e-8"),
        ("eval", "--model", "m", "--plan", "p", "--tokens", 4, "--eps", "1e-8"),
        ("analyze", "nn", "--model", "m", "--scope", 1, "--eps", "1e-8"),
        ("sweep", "--model", "m", "--stats", "s", "--rho", "0.5", "--tokens", 4, "--scopes", "1",
         "--eps", "1e-8"),
    ])
    def test_inert_flags_gone(self, tmp_path, capsys, argv):
        assert run(*argv, "-o", tmp_path / "out") == 1
        assert "unrecognized arguments" in capsys.readouterr().err
