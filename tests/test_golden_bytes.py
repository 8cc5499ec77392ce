"""Pinned checkpoint and plan bytes.

Each output here is built without BLAS (random draws, copies, sorts and
elementwise sums only), so its sha256 is the same on every machine. A
change to the `.mckpt` layout, the tensor order, the header, the
generator's draw order, or how stats are read and ranked changes a hash.
"""

import hashlib
import json

import pytest

from conmoe.cli import main

README_SHAPE = ["--layers", "8", "--experts", "16", "--hidden", "32", "--inter", "48", "--topk", "2"]

GEN = {
    "none": (["--dup", "none"],
             "8b5ed5cd8685d2d55fe55019f9cb09a60b49f0a35a1981cf7339b15c7fad42b8"),
    "within": (["--dup", "within"],
               "a81f9570598c61858b15bfa979db17481e383d4778df990f58348615294885fe"),
    "both": (["--dup", "both", "--dup-noise", "1e-7"],
             "8c839c11c4eed2c71d4838b53d26bda971ec67e7dd10b33c7d6dc5a18aaf08e2"),
}
MATERIALIZED = "bfa448bd2bdacd6b4a5e57e39e936cee8bb2ed3c5f3b07d5af192e3e3e9ba8cf"
FUSED = "e5835af8ae8ee988e4e978a9823e2acaeb3ba6e76b14c48a3771100d4088d60b"
# from the hand-written stats of hand_stats: the stats reader, contribution,
# the selection and the fusion weights, none of which uses BLAS
PRUNED = {
    "frequency": "f9754725d8cacd5d7a8c975a5afd9ce2d2ac1460cd7b36768d0062f31a6e4239",
    "reap": "4fa091e5e3bfb429d50ac90fc566d252d7d2cc6359bd4cbca0d63aa01ea2d657",
}
FUSED_STATS = "4d66b7ff2a2d9da92f0fbf873bd686cfb87e5f670981504625a9b116bc893536"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def base_model(workdir):
    path = workdir / "none.mckpt"
    run("gen", *README_SHAPE, *GEN["none"][0], "--seed", 42, "-o", path, "-q")
    return path


def hand_plan(path, dropped):
    """Scope 1; every slot of layer 0 maps to expert 0, the other layers
    keep their own experts; `dropped` slots of layer 0 map to themselves."""
    assignment, scopes = [], []
    for l in range(8):
        protos = [[0, 0]] if l == 0 else [[l, i] for i in range(16)]
        scopes.append({"layers": [l], "prototypes": protos})
        for i in range(16):
            target = [l, i] if l > 0 or i in dropped else [0, 0]
            assignment.append([[l, i], target])
    plan = {
        "version": 1, "rho": 0.5, "scope_size": 1, "policy": "identity",
        "scopes": scopes, "assignment": assignment,
        "drop_mask": [[0, i] for i in dropped], "metadata": {},
    }
    path.write_text(json.dumps(plan))
    return path


@pytest.mark.parametrize("dup", sorted(GEN))
def test_gen(workdir, dup):
    flags, digest = GEN[dup]
    path = workdir / f"gen-{dup}.mckpt"
    run("gen", *README_SHAPE, *flags, "--seed", 42, "-o", path, "-q")
    assert sha256(path) == digest


def test_materialize(workdir, base_model):
    plan = hand_plan(workdir / "drop.plan.json", dropped=[5])
    out = workdir / "materialized.mckpt"
    run("materialize", "--model", base_model, "--plan", plan, "-o", out, "-q")
    assert sha256(out) == MATERIALIZED


def test_fuse_uniform(workdir, base_model):
    plan = hand_plan(workdir / "remap.plan.json", dropped=[])
    out = workdir / "fused.mckpt"
    run("fuse", "--model", base_model, "--plan", plan, "-o", out, "-q")
    assert sha256(out) == FUSED


def hand_stats(path):
    """README-shape stats from a fixed formula: some slots never routed,
    and contribution ranks the slots differently from the counts."""
    experts = []
    for l in range(8):
        for i in range(16):
            count = (5 * l + 7 * i) % 11 * 3
            experts.append({"ref": [l, i], "routed_count": count, "topk_count": count,
                            "sum_weighted_norm": count * 0.25 * (1 + (3 * l + i) % 7)})
    stats = {"version": 1, "token_total": 256, "top_k": 2, "experts": experts, "metadata": {}}
    path.write_text(json.dumps(stats))
    return path


@pytest.mark.parametrize("method", sorted(PRUNED))
def test_prune_from_hand_stats(workdir, base_model, method):
    stats = hand_stats(workdir / "hand.stats.json")
    out = workdir / f"prune-{method}.plan.json"
    run("prune", "--model", base_model, "--stats", stats, "--method", method,
        "--rho", "0.5", "-o", out, "-q")
    assert sha256(out) == PRUNED[method]


def test_fuse_with_hand_stats(workdir, base_model):
    stats = hand_stats(workdir / "hand.stats.json")
    plan = hand_plan(workdir / "remap.plan.json", dropped=[])
    out = workdir / "fused-stats.mckpt"
    run("fuse", "--model", base_model, "--plan", plan, "--stats", stats, "-o", out, "-q")
    assert sha256(out) == FUSED_STATS
