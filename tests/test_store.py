import json
import struct

import numpy as np
import pytest

from conmoe import (
    CalibStats,
    ModelSpec,
    gen_synthetic,
    identity_plan,
    read_checkpoint,
    read_plan,
    read_stats,
    write_checkpoint,
    write_plan,
    write_stats,
)
from conmoe.calibration import ExpertStats
from conmoe.store import parse_tensor_name, stats_from_dict, stats_to_dict


@pytest.fixture
def model():
    m, _ = gen_synthetic(ModelSpec(2, 4, 8, 12, 2), seed=1)
    return m


class TestCheckpoint:
    def test_round_trip_identity(self, model, tmp_path):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        loaded = read_checkpoint(path)
        assert loaded.equal(model)
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
        model.layers[0].experts[0].gate[0, 0] = np.float32(1.0 / 3.0)
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        loaded = read_checkpoint(path)
        assert loaded.layers[0].experts[0].gate.dtype == np.float32
        assert loaded.layers[0].experts[0].gate[0, 0] == np.float32(1.0 / 3.0)


class TestTensorNames:
    @pytest.mark.parametrize("name,expected", [
        ("layers.0.experts.3.gate", (0, 3, "gate")),
        ("layers.12.experts.0.down", (12, 0, "down")),
        ("layers.4.router", (4, None, None)),
    ])
    def test_grammar_accepts(self, name, expected):
        assert parse_tensor_name(name) == expected

    @pytest.mark.parametrize("name", [
        "layers.0.experts.3.bias",
        "layer.0.experts.1.gate",
        "layers.0.router.extra",
        "layers.-1.router",
        "embeddings",
    ])
    def test_grammar_rejects(self, name):
        with pytest.raises(ValueError):
            parse_tensor_name(name)


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

    def test_dangling_assignment_rejected(self, tmp_path):
        plan = identity_plan(1, 4)
        plan.scopes[0].prototypes = [(0, 0), (0, 1), (0, 2)]
        plan.assignment[(0, 3)] = (0, 3)  # (0, 3) no longer a prototype
        with pytest.raises(ValueError, match="dangling assignment"):
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
        records = {
            (0, 0): ExpertStats(routed_count=3, sum_weighted_norm=1.5),
            (0, 1): ExpertStats(routed_count=0, sum_weighted_norm=0.0),
        }
        return CalibStats(token_total=3, top_k=1, records=records)

    def test_round_trip(self, tmp_path):
        stats = self.make_stats()
        path = tmp_path / "s.stats.json"
        write_stats(stats, path)
        assert read_stats(path) == stats

    def test_inconsistent_stats_rejected(self, tmp_path):
        stats = self.make_stats()
        stats.records[(0, 1)].sum_weighted_norm = 0.25
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

    def test_negative_counts_rejected(self, tmp_path):
        stats = self.make_stats()
        stats.records[(0, 0)].routed_count = -1
        with pytest.raises(ValueError):
            write_stats(stats, tmp_path / "s.json")

    def test_wrong_pool_rejected_on_use(self, model):
        stats = self.make_stats()
        with pytest.raises(ValueError, match="do not cover"):
            stats.check_covers(model)
