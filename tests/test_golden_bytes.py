"""Pinned checkpoint and plan bytes.

Each output here is built without BLAS (random draws, copies, sorts and
elementwise sums only), so its sha256 is the same on every machine. A
change to the `.mckpt` layout, the tensor order, the header, the
generator's draw order, or how stats are read and ranked changes a hash.
Each checkpoint's payload, the bytes after the header line, is pinned on
its own too, so a change to the header alone shows as such.
"""

import hashlib
import json

import pytest

from conmoe import read_checkpoint, write_checkpoint
from conmoe.cli import main
from conmoe.store import canonical_json
from oracle import tensor_index

README_SHAPE = ["--layers", "8", "--experts", "16", "--hidden", "32", "--inter", "48", "--topk", "2"]

# flags, file sha256, payload sha256
GEN = {
    "none": (["--dup", "none"],
             "04c1ba514bb58ebe00daeb748bbc03a692dfaaeefe59ac6ce5c9ff540a70e334",
             "34461b19f08c84fb0d5b6eb50cd31ff87d35f25d763b6b42a577836fa5916797"),
    "within": (["--dup", "within"],
               "8d8dfb423a1c50948c8618fef3c2883e3367dc1cd473e346d386890b59a476fa",
               "4f77dbbaaee4ac192fb2854787dbd1a46d8cd34f73a0d9ea697a1b3b8ccdcc7b"),
    "both": (["--dup", "both", "--dup-noise", "1e-7"],
             "7603ddba8f5b1d137e4249d7e695c4ee4e67dda94f330c5dc6c04890826b39e7",
             "8836352fefc50b2d452fab01d377d02f3ee27e2afb7ddfb91be48d9dd0964d64"),
}
# the same checkpoints with the header's older `tensor_index` entry, as
# earlier versions wrote them; they still read to the same model
WITH_TENSOR_INDEX = {
    "none": "8b5ed5cd8685d2d55fe55019f9cb09a60b49f0a35a1981cf7339b15c7fad42b8",
    "within": "a81f9570598c61858b15bfa979db17481e383d4778df990f58348615294885fe",
    "both": "8c839c11c4eed2c71d4838b53d26bda971ec67e7dd10b33c7d6dc5a18aaf08e2",
}
# file sha256, payload sha256
MATERIALIZED = ("3957a1d5e576f61dcbf46734c327266505d16db042f915c68f13e78b8ef23f4c",
                "85401a3385a2f1d2f51e0f5ddd2e89035a1f5ff17f684894c688cf8247f80e30")
FUSED = ("237216de1efbb0ecdab95d2dc266ba8e658c76c80695e54e2f4cde746fcbc95b",
         "e0ebc49f650693675c4df5ccb282409e732a43111c25c0a6dd157706732f3b2b")
# from the hand-written stats of hand_stats: the stats reader, contribution,
# the selection and the fusion weights, none of which uses BLAS
PRUNED = {
    "frequency": "26967bd5faf6b2fe023bb00bc9e7e938a17261abdb82a89c03eec56630842dcc",
    "reap": "5eee00db7dda28b0ed2be7a4ce794f9a0eadfc32bafd2c5b3a74e30bd6def1b9",
}
FUSED_STATS = ("d3b5d5140eb7360c52e73ee7a765ac0e023fd23afc6baff5e890390b4b83bbca",
               "315924a380fa38adbf627c25c86759b00b2d02582ed235f18cea72cc23c345f6")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def split_header(raw: bytes) -> tuple[dict, bytes]:
    """A checkpoint's parsed header and the bytes after its line."""
    nl = raw.find(b"\n")
    return json.loads(raw[:nl]), raw[nl + 1:]


def assert_checkpoint_hashes(path, digest, payload):
    assert sha256(path) == digest
    assert hashlib.sha256(split_header(path.read_bytes())[1]).hexdigest() == payload


def run(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def base_model(workdir):
    path = workdir / "none.mckpt"
    run("gen", *README_SHAPE, *GEN["none"][0], "--seed", 42, "-o", path)
    return path


def hand_plan(path, dropped):
    """Scope 1; every slot of layer 0 maps to expert 0, the other layers
    keep their own experts; `dropped` slots of layer 0 map to themselves."""
    assignment = []
    for l in range(8):
        for i in range(16):
            target = [l, i] if l > 0 or i in dropped else [0, 0]
            assignment.append([[l, i], target])
    plan = {
        "version": 1, "rho": 0.5, "scope_size": 1, "policy": "identity", "assignment": assignment,
        "drop_mask": [[0, i] for i in dropped], "metadata": {},
    }
    path.write_text(json.dumps(plan))
    return path


@pytest.mark.parametrize("dup", sorted(GEN))
def test_gen(workdir, dup):
    flags, digest, payload = GEN[dup]
    path = workdir / f"gen-{dup}.mckpt"
    run("gen", *README_SHAPE, *flags, "--seed", 42, "-o", path)
    assert_checkpoint_hashes(path, digest, payload)


@pytest.mark.parametrize("dup", sorted(GEN))
def test_header_with_tensor_index_reads_the_same(workdir, dup):
    path = workdir / f"gen-{dup}.mckpt"
    run("gen", *README_SHAPE, *GEN[dup][0], "--seed", 42, "-o", path)
    header, rest = split_header(path.read_bytes())
    header["tensor_index"] = tensor_index(read_checkpoint(path).spec)
    older = workdir / f"older-{dup}.mckpt"
    older.write_bytes(canonical_json(header) + b"\n" + rest)
    assert sha256(older) == WITH_TENSOR_INDEX[dup]
    again = workdir / f"again-{dup}.mckpt"
    write_checkpoint(read_checkpoint(older), again)
    assert again.read_bytes() == path.read_bytes()


def test_materialize(workdir, base_model):
    """The remapping hand plan is pinned; its pruning variant, whose forward
    no checkpoint holds, exits 1 and writes no file."""
    plan = hand_plan(workdir / "materialize.plan.json", dropped=[])
    out = workdir / "materialized.mckpt"
    run("materialize", "--model", base_model, "--plan", plan, "-o", out)
    assert_checkpoint_hashes(out, *MATERIALIZED)
    plan = hand_plan(workdir / "drop.plan.json", dropped=[5])
    out = workdir / "pruned.mckpt"
    assert main(["materialize", "--model", str(base_model), "--plan", str(plan), "-o", str(out)]) == 1
    assert not out.exists()


def test_fuse_uniform(workdir, base_model):
    plan = hand_plan(workdir / "remap.plan.json", dropped=[])
    out = workdir / "fused.mckpt"
    run("fuse", "--model", base_model, "--plan", plan, "-o", out)
    assert_checkpoint_hashes(out, *FUSED)


def hand_stats(path):
    """README-shape stats from a fixed formula: some slots never routed,
    and contribution ranks the slots differently from the counts."""
    counts = [[(5 * l + 7 * i) % 11 * 3 for i in range(16)] for l in range(8)]
    sums = [[c * 0.25 * (1 + (3 * l + i) % 7) for i, c in enumerate(row)] for l, row in enumerate(counts)]
    stats = {"version": 2, "token_total": 256, "top_k": 2, "routed_count": counts,
             "sum_weighted_norm": sums, "metadata": {}}
    path.write_text(json.dumps(stats))
    return path


@pytest.mark.parametrize("method", sorted(PRUNED))
def test_prune_from_hand_stats(workdir, base_model, method):
    stats = hand_stats(workdir / "hand.stats.json")
    out = workdir / f"prune-{method}.plan.json"
    run("prune", "--model", base_model, "--stats", stats, "--method", method,
        "--rho", "0.5", "-o", out)
    assert sha256(out) == PRUNED[method]


def test_fuse_with_hand_stats(workdir, base_model):
    stats = hand_stats(workdir / "hand.stats.json")
    plan = hand_plan(workdir / "remap.plan.json", dropped=[])
    out = workdir / "fused-stats.mckpt"
    run("fuse", "--model", base_model, "--plan", plan, "--stats", stats, "-o", out)
    assert_checkpoint_hashes(out, *FUSED_STATS)
