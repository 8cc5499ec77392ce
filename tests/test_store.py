import json
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from conmoe import (
    CalibStats,
    ConsolidationPlan,
    DupConfig,
    MoELayer,
    ModelSpec,
    Scope,
    ScopeConfig,
    consolidate,
    fuse_weighted_average,
    gen_synthetic,
    gen_tokens,
    materialize,
    read_checkpoint,
    read_plan,
    read_stats,
    run_calibration,
    write_checkpoint,
    write_plan,
    write_stats,
)
from conmoe.cli import main
from conmoe.model import PROJECTIONS
from conmoe.store import _tensor_index, stats_from_dict, stats_to_dict
from oracle import identity_plan, models_equal


@pytest.fixture
def model():
    m, _ = gen_synthetic(ModelSpec(2, 4, 8, 12, 2), seed=1)
    return m


class TestCheckpoint:
    def test_round_trip_identity(self, model, tmp_path):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        loaded = read_checkpoint(path)
        assert models_equal(loaded, model)
        assert loaded.spec == model.spec

    def test_canonical_bytes(self, model, tmp_path):
        a, b = tmp_path / "a.mckpt", tmp_path / "b.mckpt"
        write_checkpoint(model, a)
        write_checkpoint(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_model_rejected(self, model, tmp_path):
        from conmoe.model import MoEModel

        empty = MoEModel(spec=ModelSpec(0, 4, 8, 12, 2), layers=[])
        with pytest.raises(ValueError, match="empty model"):
            write_checkpoint(empty, tmp_path / "never.mckpt")

    def test_truncated_payload(self, model, tmp_path):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(ValueError, match="payload length mismatch"):
            read_checkpoint(path)

    def test_bad_magic(self, model, tmp_path):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["magic"] = "NOPE"
        doctored = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(doctored + raw[nl:])
        with pytest.raises(ValueError, match="bad magic"):
            read_checkpoint(path)

    def test_unknown_activation(self, model, tmp_path):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["spec"]["activation"] = "gelu"
        doctored = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(doctored + raw[nl:])
        with pytest.raises(ValueError, match="unsupported activation"):
            read_checkpoint(path)

    def test_payload_length_header_field(self, model, tmp_path):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        (declared,) = struct.unpack("<Q", raw[nl + 1 : nl + 9])
        assert declared == len(raw) - nl - 9

    def test_float32_truncation(self, tmp_path):
        model, _ = gen_synthetic(ModelSpec(1, 2, 4, 6, 1), seed=2)
        # values already f32; bump one weight via float64 math and round-trip
        model.layers[0].expert(0).gate[0, 0] = np.float32(1.0 / 3.0)
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        loaded = read_checkpoint(path)
        assert loaded.layers[0].expert(0).gate.dtype == np.float32
        assert loaded.layers[0].expert(0).gate[0, 0] == np.float32(1.0 / 3.0)


def rewrite_header(path, edit):
    """Apply edit(header) to a checkpoint's JSON header, payload untouched."""
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    path.write_bytes(json.dumps(header).encode() + raw[nl:])


def assert_index_rejected(model, tmp_path, capsys, edit):
    """A checkpoint whose tensor_index went through edit() is a ValueError
    for the reader and exit 1 for the CLI."""
    path = tmp_path / "m.mckpt"
    write_checkpoint(model, path)
    rewrite_header(path, lambda h: edit(h["tensor_index"]))
    with pytest.raises(ValueError, match="checkpoint tensor_index entry"):
        read_checkpoint(path)
    assert main(["calibrate", "--model", str(path), "--tokens", "2",
                 "-o", str(tmp_path / "s.json")]) == 1
    assert "checkpoint tensor_index entry" in capsys.readouterr().err


def swap_names(index, a, b):
    index[a][0], index[b][0] = index[b][0], index[a][0]


class TestTensorNames:
    """Names come from the spec's canonical index; a header that names a
    tensor any other way is rejected."""

    @pytest.mark.parametrize("name,expected", [
        ("layers.0.experts.3.gate", (0, 3, "gate")),
        ("layers.12.experts.0.down", (12, 0, "down")),
        ("layers.4.router", (4, None, None)),
    ])
    def test_grammar_accepts(self, name, expected):
        layer, expert, proj = expected
        per_layer = 3 * 4 + 1  # 4 experts' gate, up, down, then the router
        pos = layer * per_layer + (per_layer - 1 if expert is None else 3 * expert + PROJECTIONS.index(proj))
        assert _tensor_index(ModelSpec(13, 4, 8, 12, 2))[pos][0] == name

    @pytest.mark.parametrize("name", [
        "layers.0.experts.3.bias",
        "layer.0.experts.1.gate",
        "layers.0.router.extra",
        "layers.-1.router",
        "embeddings",
    ])
    def test_grammar_rejects(self, model, tmp_path, capsys, name):
        assert_index_rejected(model, tmp_path, capsys, lambda ix: ix[0].__setitem__(0, name))


class TestTensorIndex:
    """The header's tensor_index must be the canonical one for its spec."""

    @pytest.mark.parametrize("edit", [
        # same shapes and offsets: a reader that trusted names would swap gate and up
        pytest.param(lambda ix: swap_names(ix, 0, 1), id="swapped"),
        pytest.param(lambda ix: ix.append(["layers.0.experts.9.gate", [12, 8], ix[-1][2]]), id="extra"),
        pytest.param(lambda ix: ix.pop(), id="missing"),
    ])
    def test_non_canonical_index_rejected(self, model, tmp_path, capsys, edit):
        assert_index_rejected(model, tmp_path, capsys, edit)

    def test_huge_spec_rejected_before_index(self, model, tmp_path, capsys):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        rewrite_header(path, lambda h: h["spec"].update(num_layers=100000))
        with pytest.raises(ValueError, match="payload length mismatch"):
            read_checkpoint(path)
        assert main(["calibrate", "--model", str(path), "--tokens", "2",
                     "-o", str(tmp_path / "s.json")]) == 1
        assert "payload length mismatch" in capsys.readouterr().err

    def test_reads_one_copy_of_the_payload(self, model, tmp_path):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        loaded = read_checkpoint(path)
        # gate, up and down are views of the one block read from the file,
        # and a copy keeps that layout
        for layer in (loaded.layers[0], loaded.copy().layers[0]):
            block = layer.gate.base
            assert block.nbytes == layer.gate.nbytes * 3
            assert layer.up.base is block and layer.down.base is block

    def test_layers_hold_the_payload_layout(self, tmp_path):
        spec = ModelSpec(2, 4, 8, 12, 2)
        model, _ = gen_synthetic(spec, seed=1, dup=DupConfig("within"))
        stats = run_calibration(model, gen_tokens(16, spec.hidden_dim, seed=2))
        plan = consolidate(model, stats, ScopeConfig(rho=0.5))
        assert [f.name for f in fields(MoELayer)] == ["block", "router"]
        path = tmp_path / "m.mckpt"
        for m in (model, materialize(model, plan), fuse_weighted_average(model, plan, stats)):
            write_checkpoint(m, path)
            raw = path.read_bytes()
            payload = raw[raw.find(b"\n") + 9:]
            size = len(payload) // spec.num_layers
            for l, layer in enumerate(m.layers):
                assert layer.block.tobytes() + layer.router.tobytes() == payload[l * size:(l + 1) * size]
                assert all(w.base is layer.block for w in (layer.gate, layer.up, layer.down))


class TestPlanIO:
    def test_identity_round_trip(self, tmp_path):
        plan = identity_plan(2, 4)
        path = tmp_path / "p.plan.json"
        write_plan(plan, path)
        assert read_plan(path) == plan

    def test_canonical_bytes(self, tmp_path):
        plan = identity_plan(3, 4, scope_size=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_plan(plan, a)
        write_plan(plan, b)
        assert a.read_bytes() == b.read_bytes()

    def test_scopes_derive_from_the_map(self):
        assert [f.name for f in fields(ConsolidationPlan)] == [
            "rho", "scope_size", "policy", "assignment", "drop_mask", "metadata", "version"]
        plan = identity_plan(3, 2, scope_size=2)
        plan.assignment[(1, 1)] = (0, 1)
        plan.drop_mask = {(2, 0)}
        assert plan.scopes == [Scope([0, 1], [(0, 0), (0, 1), (1, 0)]), Scope([2], [(2, 1)])]
        assert plan.clusters() == {(0, 0): [(0, 0)], (0, 1): [(0, 1), (1, 1)],
                                   (1, 0): [(1, 0)], (2, 1): [(2, 1)]}

    def test_dangling_assignment_rejected(self, tmp_path):
        # a target that does not map to itself, one of another scope, one dropped
        for slot, target, drop in (((0, 1), (0, 3), set()), ((1, 0), (0, 0), set()),
                                   ((0, 1), (0, 0), {(0, 0)})):
            plan = identity_plan(2, 4)
            plan.assignment[(0, 3)] = (0, 2)
            plan.assignment[slot] = target
            plan.drop_mask = drop
            with pytest.raises(ValueError, match=re.escape(f"dangling assignment: {slot} -> {target}")):
                write_plan(plan, tmp_path / "bad.json")

    def test_unknown_version_rejected(self, tmp_path):
        plan = identity_plan(1, 2)
        path = tmp_path / "p.json"
        write_plan(plan, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported plan version"):
            read_plan(path)


class TestStatsIO:
    def make_stats(self):
        return CalibStats(token_total=3, top_k=1, routed_count=np.array([[3, 0]]),
                          sum_weighted_norm=np.array([[1.5, 0.0]]))

    def test_round_trip(self, tmp_path):
        stats = self.make_stats()
        path = tmp_path / "s.stats.json"
        write_stats(stats, path)
        again = read_stats(path)
        assert stats_to_dict(again) == stats_to_dict(stats)
        assert (again.routed_count.dtype, again.sum_weighted_norm.dtype) == (np.int64, np.float64)

    def test_inconsistent_stats_rejected(self, tmp_path):
        stats = self.make_stats()
        stats.sum_weighted_norm[0, 1] = 0.25
        with pytest.raises(ValueError, match="inconsistent stats"):
            write_stats(stats, tmp_path / "s.json")

    def test_topk_count_must_equal_routed_count(self):
        doc = stats_to_dict(self.make_stats())
        assert all(rec["topk_count"] == rec["routed_count"] for rec in doc["experts"])
        doc["experts"][0]["topk_count"] = 2
        with pytest.raises(ValueError, match="topk_count differs from routed_count"):
            stats_from_dict(doc)

    def test_nan_weighted_norm_rejected(self):
        doc = stats_to_dict(self.make_stats())
        doc["experts"][0]["sum_weighted_norm"] = float("nan")
        with pytest.raises(ValueError, match="negative or NaN weighted norm"):
            stats_from_dict(doc)

    def test_invalid_stats_rejected_at_construction(self):
        with pytest.raises(ValueError, match=re.escape("negative counts for (0, 1)")):
            CalibStats(token_total=3, top_k=1, routed_count=np.array([[3, -1]]),
                       sum_weighted_norm=np.array([[1.5, 0.0]]))

    def test_negative_counts_rejected(self, tmp_path):
        stats = self.make_stats()
        stats.routed_count[0, 0] = -1
        with pytest.raises(ValueError):
            write_stats(stats, tmp_path / "s.json")

    def test_wrong_pool_rejected_on_use(self, model):
        stats = self.make_stats()
        with pytest.raises(ValueError, match="do not cover"):
            stats.check_covers(model)
