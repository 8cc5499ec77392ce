import json
import mmap
import os
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conmoe import (
    CalibStats,
    ConsolidationPlan,
    MoELayer,
    ModelSpec,
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
from conmoe import store
from conmoe.analysis import cross_layer_nn, dump_nn_csvs
from conmoe.cli import main
from conmoe.model import PROJECTIONS
from conmoe.store import stats_from_dict, stats_to_dict
from oracle import Scope, copy_model, expert, identity_plan, models_equal, scopes, tensor_index


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

    def test_header_holds_only_what_it_cannot_derive(self, model, tmp_path):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        raw = path.read_bytes()
        assert sorted(json.loads(raw[:raw.find(b"\n")])) == ["magic", "metadata", "spec"]

    def test_canonical_bytes(self, model, tmp_path):
        a, b = tmp_path / "a.mckpt", tmp_path / "b.mckpt"
        write_checkpoint(model, a)
        write_checkpoint(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_model_rejected(self):
        # a spec is frozen and checked when it is built, so no empty model exists to write
        with pytest.raises(ValueError, match="empty model"):
            ModelSpec(0, 4, 8, 12, 2)

    def test_unknown_dup_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown dup mode: 'mirror'"):
            gen_synthetic(ModelSpec(2, 4, 8, 12, 2), seed=1, dup="mirror")

    @pytest.mark.parametrize("fault,message", [
        (lambda m: setattr(m.layers[1], "block", m.layers[1].block[:, :, :-1]),
         "block shape (4, 3, 95) does not match spec (4, 3, 96)"),
        (lambda m: setattr(m.layers[0], "router", m.layers[0].router[:-1]),
         "router shape (3, 8) does not match spec (4, 8)"),
        (lambda m: m.layers.pop(), "layer count mismatch"),
        (lambda m: m.row((1, 2))[0].__setitem__(5, np.nan), "non-finite gate weights"),
        (lambda m: m.row((0, 3))[1].__setitem__(0, np.nan), "non-finite up weights"),
    ], ids=["block_shape", "router_shape", "layer_count", "gate_nan", "up_nan"])
    def test_invalid_model_rejected(self, model, tmp_path, fault, message):
        fault(model)
        with pytest.raises(ValueError, match=re.escape(message)):
            model.validate()
        path = tmp_path / "never.mckpt"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_checkpoint(model, path)
        assert not path.exists()

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
        expert(model, (0, 0)).gate[0, 0] = np.float32(1.0 / 3.0)
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        loaded = read_checkpoint(path)
        assert expert(loaded, (0, 0)).gate.dtype == np.float32
        assert expert(loaded, (0, 0)).gate[0, 0] == np.float32(1.0 / 3.0)


def tensor_offset(spec, name):
    """Byte offset of a named tensor's eighth float32 in a checkpoint file's
    payload (the header's length not included)."""
    return {n: offset for n, _, offset in tensor_index(spec)}[name] + 4 * 7


FINITENESS_CASES = [
    pytest.param(tensor, value, f"non-finite {tensor.rsplit('.', 1)[1]} weights", id=f"{tensor}={value}")
    for tensor in ("layers.1.experts.2.gate", "layers.0.experts.3.up", "layers.1.experts.0.down",
                   "layers.1.router")
    for value in (-np.inf, np.inf, np.nan)
]


class TestFiniteness:
    """A NaN, +inf or -inf anywhere in a projection or a router is refused
    with that tensor's message, by the writer and by the reader."""

    @staticmethod
    def poke(model, tensor, value):
        parts = tensor.split(".")
        layer = model.layers[int(parts[1])]
        if parts[2] == "router":
            layer.router[1, 3] = value
        else:
            layer.block[int(parts[3]), PROJECTIONS.index(parts[4]), 7] = value

    @pytest.mark.parametrize("tensor,value,message", FINITENESS_CASES)
    def test_write_refuses(self, model, tmp_path, tensor, value, message):
        self.poke(model, tensor, value)
        with pytest.raises(ValueError, match=re.escape(message)):
            write_checkpoint(model, tmp_path / "m.mckpt")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("tensor,value,message", FINITENESS_CASES)
    def test_read_refuses(self, model, tmp_path, tensor, value, message):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        pos = raw.find(b"\n") + 9 + tensor_offset(model.spec, tensor)
        raw[pos:pos + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(message)):
            read_checkpoint(path)

    def test_first_fault_in_payload_order_is_named(self, model, tmp_path):
        """Layer by layer, gate, up, down, then the router."""
        for faults, message in ((("layers.1.router", "layers.1.experts.3.down", "layers.1.experts.0.up"), "up"),
                                (("layers.1.experts.0.gate", "layers.0.router"), "router")):
            m = copy_model(model)
            for tensor in faults:
                self.poke(m, tensor, np.nan)
            with pytest.raises(ValueError, match=f"non-finite {message} weights"):
                m.validate()


class TestMapping:
    """A read checkpoint's arrays are mapped copy-on-write from its file."""

    def test_rows_view_the_mapped_payload(self, tmp_path):
        model, _ = gen_synthetic(ModelSpec(2, 16, 64, 128, 2), seed=1)
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        tracemalloc.start()
        try:
            loaded = read_checkpoint(path)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = path.stat().st_size - path.read_bytes().find(b"\n") - 9
        assert traced < payload // 10
        mappings = {id(layer.block.base) for layer in loaded.layers}
        assert len(mappings) == 1 and isinstance(loaded.layers[0].block.base, mmap.mmap)
        for layer in loaded.layers:
            assert not layer.block.flags.owndata and layer.router.base is layer.block.base
            assert np.shares_memory(loaded.row((0, 1)), loaded.layers[0].block)

    def test_writes_into_a_loaded_model_stay_private(self, model, tmp_path):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        before = path.read_bytes()
        loaded = read_checkpoint(path)
        loaded.row((1, 2))[...] = 0.5
        loaded.layers[0].router[...] = -1.0
        assert path.read_bytes() == before
        assert models_equal(read_checkpoint(path), model)

    @pytest.mark.parametrize("command", ["materialize", "fuse"])
    def test_derived_checkpoint_written_over_its_source(self, model, tmp_path, command):
        source = tmp_path / "m.mckpt"
        write_checkpoint(model, source)
        stats = run_calibration(model, gen_tokens(16, model.spec.hidden_dim, seed=2))
        plan = tmp_path / "p.json"
        write_plan(consolidate(model, stats, rho=0.5, scope_size=2), plan)
        argv = [command, "--plan", str(plan)]
        assert main([*argv, "--model", str(source), "-o", str(tmp_path / "other.mckpt")]) == 0
        assert main([*argv, "--model", str(source), "-o", str(source)]) == 0
        assert source.read_bytes() == (tmp_path / "other.mckpt").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["m.mckpt", "other.mckpt", "p.json"]


def rewrite_header(path, edit):
    """Apply edit(header) to a checkpoint's JSON header, payload untouched."""
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    path.write_bytes(json.dumps(header).encode() + raw[nl:])


def swap_names(index, a, b):
    index[a][0], index[b][0] = index[b][0], index[a][0]


class TestTensorNames:
    """The canonical tensor index, a function of the spec, names each
    tensor of the payload in order."""

    @pytest.mark.parametrize("name,expected", [
        ("layers.0.experts.3.gate", (0, 3, "gate")),
        ("layers.12.experts.0.down", (12, 0, "down")),
        ("layers.4.router", (4, None, None)),
    ])
    def test_grammar_accepts(self, name, expected):
        layer, expert, proj = expected
        per_layer = 3 * 4 + 1  # 4 experts' gate, up, down, then the router
        pos = layer * per_layer + (per_layer - 1 if expert is None else 3 * expert + PROJECTIONS.index(proj))
        assert tensor_index(ModelSpec(13, 4, 8, 12, 2))[pos][0] == name


class TestTensorIndex:
    """The payload layout follows from the spec alone: the header carries no
    tensor index, and one an older header still carries is ignored."""

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda ix: None, id="canonical"),
        # same shapes and offsets: a reader that trusted names would swap gate and up
        pytest.param(lambda ix: swap_names(ix, 0, 1), id="swapped"),
        pytest.param(lambda ix: ix.append(["layers.0.experts.9.gate", [12, 8], ix[-1][2]]), id="extra"),
        pytest.param(lambda ix: ix.pop(), id="missing"),
        pytest.param(lambda ix: ix[1].__setitem__(2, 0.5), id="bad_offset"),
        # names outside the grammar, which the reader once rejected
        *(pytest.param(lambda ix, name=name: ix[0].__setitem__(0, name), id=name) for name in (
            "layers.0.experts.3.bias", "layer.0.experts.1.gate", "layers.0.router.extra",
            "layers.-1.router", "embeddings")),
    ])
    def test_stale_index_ignored(self, model, tmp_path, edit):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        index = tensor_index(model.spec)
        edit(index)
        rewrite_header(path, lambda h: h.update(tensor_index=index))
        loaded = read_checkpoint(path)
        assert models_equal(loaded, model) and loaded.metadata == model.metadata

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
        # each expert's row is a view of the one block read from the file,
        # and a copy keeps that layout
        for m in (loaded, copy_model(loaded)):
            layer = m.layers[0]
            assert m.row((0, 1)).base is layer.block
            assert layer.block.nbytes == m.row((0, 1)).nbytes * m.spec.num_experts

    def test_layers_hold_the_payload_layout(self, tmp_path):
        spec = ModelSpec(2, 4, 8, 12, 2)
        model, _ = gen_synthetic(spec, seed=1, dup="within")
        stats = run_calibration(model, gen_tokens(16, spec.hidden_dim, seed=2))
        plan = consolidate(model, stats, rho=0.5)
        assert [f.name for f in fields(MoELayer)] == ["block", "router"]
        path = tmp_path / "m.mckpt"
        for m in (model, materialize(model, plan), fuse_weighted_average(model, plan, stats)):
            write_checkpoint(m, path)
            raw = path.read_bytes()
            payload = raw[raw.find(b"\n") + 9:]
            size = len(payload) // spec.num_layers
            for l, layer in enumerate(m.layers):
                assert layer.block.tobytes() + layer.router.tobytes() == payload[l * size:(l + 1) * size]
                assert all(m.row((l, i)).base is layer.block for i in range(spec.num_experts))


class TestPlanIO:
    def test_identity_round_trip(self, tmp_path):
        # an identity plan, and one built in memory with a shared prototype and
        # a dropped slot: the writer sets the format version, so both read back
        shared = ConsolidationPlan(rho=0.5, scope_size=2, policy="adaptive",
                                   assignment={(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (1, 1)},
                                   drop_mask={(1, 1)})
        for plan in (identity_plan(2, 4), shared):
            path = tmp_path / "p.plan.json"
            write_plan(plan, path)
            assert read_plan(path) == plan
            assert json.loads(path.read_text())["version"] == store.PLAN_VERSION

    def test_canonical_bytes(self, tmp_path):
        plan = identity_plan(3, 4, scope_size=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_plan(plan, a)
        write_plan(plan, b)
        assert a.read_bytes() == b.read_bytes()

    def test_stale_scopes_ignored(self, tmp_path):
        """A plan keeps only its map; the `scopes` list an older plan still
        carries is ignored."""
        plan = identity_plan(3, 2, scope_size=2)
        plan.assignment[(1, 1)] = (0, 1)
        path = tmp_path / "p.plan.json"
        write_plan(plan, path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["assignment", "drop_mask", "metadata", "policy", "rho", "scope_size", "version"]
        doc["scopes"] = [{"layers": s.layers, "prototypes": [list(r) for r in s.prototypes]}
                         for s in scopes(plan)]
        path.write_text(json.dumps(doc))
        assert read_plan(path) == plan

    def test_scopes_derive_from_the_map(self):
        assert [f.name for f in fields(ConsolidationPlan)] == [
            "rho", "scope_size", "policy", "assignment", "drop_mask", "metadata"]
        plan = identity_plan(3, 2, scope_size=2)
        plan.assignment[(1, 1)] = (0, 1)
        plan.drop_mask = {(2, 0)}
        assert scopes(plan) == [Scope([0, 1], [(0, 0), (0, 1), (1, 0)]), Scope([2], [(2, 1)])]
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

    def test_two_grids(self):
        assert stats_to_dict(self.make_stats()) == {
            "version": 2, "token_total": 3, "top_k": 1, "routed_count": [[3, 0]],
            "sum_weighted_norm": [[1.5, 0.0]], "metadata": {}}

    def test_nan_weighted_norm_rejected(self):
        doc = stats_to_dict(self.make_stats())
        doc["sum_weighted_norm"][0][0] = float("nan")
        with pytest.raises(ValueError, match="negative or NaN weighted norm"):
            stats_from_dict(doc)

    def test_invalid_stats_rejected_at_construction(self):
        with pytest.raises(ValueError, match=re.escape("negative counts for (0, 1)")):
            CalibStats(token_total=3, top_k=1, routed_count=np.array([[3, -1]]),
                       sum_weighted_norm=np.array([[1.5, 0.0]]))
        # grids of two shapes would broadcast into a wrong contribution grid
        with pytest.raises(ValueError, match=re.escape(
                "stats: grids differ in shape: routed_count (2, 2), sum_weighted_norm (1, 2)")):
            CalibStats(token_total=4, top_k=1, routed_count=np.array([[1, 3], [2, 2]]),
                       sum_weighted_norm=np.array([[0.5, 0.7]]))

    def test_negative_counts_rejected(self, tmp_path):
        stats = self.make_stats()
        stats.routed_count[0, 0] = -1
        with pytest.raises(ValueError):
            write_stats(stats, tmp_path / "s.json")

    def test_wrong_pool_rejected_on_use(self, model):
        stats = self.make_stats()
        with pytest.raises(ValueError, match="do not cover"):
            stats.check_covers(model)


class DiskFull:
    """A binary file whose writes fail with ENOSPC once `budget` bytes are
    written, after writing the part of the chunk that fits."""

    def __init__(self, path, mode, budget):
        self.f, self.budget = open(path, mode), budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        if len(data) > self.budget:
            self.f.write(data[:self.budget])
            raise OSError(28, "No space left on device")
        self.budget -= len(data)
        return self.f.write(data)


class TestAtomicWrites:
    """Each artifact is written to a sibling temp file and renamed over its
    path: a write that fails part way leaves the previous file
    byte-identical and no other file behind."""

    def writers(self, model):
        other, _ = gen_synthetic(model.spec, seed=2)
        stats = CalibStats(token_total=3, top_k=2, routed_count=np.full((2, 4), 1),
                           sum_weighted_norm=np.full((2, 4), 0.5))
        return {
            "checkpoint": (lambda p: write_checkpoint(model, p), lambda p: write_checkpoint(other, p)),
            "plan": (lambda p: write_plan(identity_plan(2, 4), p),
                     lambda p: write_plan(identity_plan(2, 4, scope_size=2), p)),
            "stats": (lambda p: write_stats(stats, p),
                      lambda p: write_stats(CalibStats(4, 2, stats.routed_count, stats.sum_weighted_norm), p)),
        }

    @pytest.mark.parametrize("artifact", ["checkpoint", "plan", "stats"])
    def test_failed_write_keeps_previous_file(self, model, tmp_path, monkeypatch, artifact):
        first, second = self.writers(model)[artifact]
        path = tmp_path / "artifact"
        first(path)
        before = path.read_bytes()
        # for a checkpoint, half the file is well inside the payload
        budget = len(before) // 2
        with monkeypatch.context() as m:
            m.setattr(store, "open", lambda p, mode: DiskFull(p, mode, budget), raising=False)
            with pytest.raises(OSError, match="No space left on device"):
                second(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["artifact"]
        second(path)
        assert path.read_bytes() != before and os.listdir(tmp_path) == ["artifact"]

    @pytest.mark.parametrize("failing", ["heatmap", "fractions"])
    def test_failed_csv_write_keeps_previous_file(self, model, tmp_path, monkeypatch, failing):
        """analyze nn's CSVs, rendered by csv.writer with its \\r\\n line ends,
        go through the same writer, one file at a time."""
        paths = {"heatmap": tmp_path / "h.csv", "fractions": tmp_path / "f.csv"}
        dump_nn_csvs(cross_layer_nn(model, 1), *paths.values())
        before = {name: path.read_bytes() for name, path in paths.items()}
        assert before["heatmap"].startswith(b"source_layer,target_layer,count\r\n0,0,4\r\n")
        opened = []

        def fail_on(path, mode):
            opened.append(path)
            return DiskFull(path, mode, 0 if len(opened) == list(paths).index(failing) + 1 else 1 << 20)

        with monkeypatch.context() as m:
            m.setattr(store, "open", fail_on, raising=False)
            with pytest.raises(OSError, match="No space left on device"):
                dump_nn_csvs(cross_layer_nn(model, 2), *paths.values())
        assert paths[failing].read_bytes() == before[failing]
        assert sorted(os.listdir(tmp_path)) == ["f.csv", "h.csv"]
        dump_nn_csvs(cross_layer_nn(model, 2), *paths.values())
        assert paths["fractions"].read_bytes() != before["fractions"]

    def test_refused_header_opens_no_file(self, model, tmp_path, monkeypatch):
        model.metadata["note"] = float("nan")
        monkeypatch.setattr(store, "open", lambda *a: pytest.fail("a file was opened"), raising=False)
        with pytest.raises(ValueError, match="Out of range float values"):
            write_checkpoint(model, tmp_path / "m.mckpt")
        with pytest.raises(ValueError, match="Out of range float values"):
            store.write_json(tmp_path / "r.json", {"x": float("inf")})
        # a derivation chain nests one level per step, deeper than the encoder recurses
        deep: dict = {}
        for _ in range(5000):
            deep = {"derived_from": deep}
        with pytest.raises(ValueError, match="cannot encode JSON: maximum recursion depth exceeded"):
            store.write_json(tmp_path / "d.json", deep)
        assert os.listdir(tmp_path) == []

    def test_file_mode_is_unchanged(self, model, tmp_path):
        """The temp file is opened like any other file, so the umask sets
        its mode as it did for a file written in place."""
        write_checkpoint(model, tmp_path / "m.mckpt")
        (tmp_path / "plain").write_bytes(b"")
        assert (tmp_path / "m.mckpt").stat().st_mode == (tmp_path / "plain").stat().st_mode


class TestDerivedCheckpointMemory:
    """materialize, fuse and merge map their source and write the derived
    checkpoint one layer at a time, so neither checkpoint is held whole."""

    @pytest.fixture(scope="class")
    def pool(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pool")
        model, _ = gen_synthetic(ModelSpec(4, 64, 64, 128, 4), seed=3)
        stats = run_calibration(model, gen_tokens(16, 64, seed=4))
        write_checkpoint(model, tmp / "m.mckpt")
        write_stats(stats, tmp / "s.json")
        write_plan(consolidate(model, stats, rho=0.5, scope_size=4), tmp / "p.json")
        return tmp

    @pytest.mark.parametrize("command", ["materialize", "fuse", "merge"])
    def test_traced_peak_below_one_and_a_half_layers(self, pool, command):
        """The mapped source is not traced, and neither the writer nor the
        layer generator keeps a layer once it is written: below 1.5 layers'
        bytes (a fused layer adds one prototype's float64 sum), where a
        source read into memory and a whole derived model would trace eight."""
        spec = ModelSpec(4, 64, 64, 128, 4)
        layer_bytes = spec.num_experts * (3 * spec.intermediate_dim + 1) * spec.hidden_dim * 4
        argv = {
            "materialize": ["--plan", f"{pool}/p.json"],
            "fuse": ["--plan", f"{pool}/p.json", "--stats", f"{pool}/s.json"],
            "merge": ["--stats", f"{pool}/s.json", "--rho", "0.5", "--fused-model", f"{pool}/merged.mckpt"],
        }[command]
        tracemalloc.start()
        try:
            assert main([command, "--model", f"{pool}/m.mckpt", *argv, "-o", f"{pool}/{command}.out"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * layer_bytes

    @pytest.mark.parametrize("derive", [
        lambda m: m,
        lambda m: materialize(m, identity_plan(m.spec.num_layers, m.spec.num_experts)),
    ], ids=["list", "derived"])
    def test_refused_last_layer_keeps_previous_file(self, model, tmp_path, derive):
        path = tmp_path / "m.mckpt"
        write_checkpoint(model, path)
        before = path.read_bytes()
        bad = copy_model(model)
        bad.row((1, 3))[2, 5] = np.nan
        bad = derive(bad)
        with pytest.raises(ValueError, match="non-finite down weights"):
            write_checkpoint(bad, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.mckpt"]
