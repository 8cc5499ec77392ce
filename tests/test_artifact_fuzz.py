"""Fuzz of the artifact boundary: a checkpoint header, plan or stats file
with a deleted key, a retyped value or truncated bytes is fed to every
command that reads it. Each command must return 0, 1 or 2; no exception may
escape `cli.main`."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from conmoe.cli import main

RETYPED = (None, True, -1, 0, 3, 2.5, "x", [], [0], [0, 0, 0], {}, {"k": 1})

COMMANDS = {
    "calibrate": "calibrate --model {model} --tokens 3",
    "consolidate": "consolidate --model {model} --stats {stats} --rho 0.5",
    "prune": "prune --model {model} --stats {stats} --method reap --rho 0.5",
    "merge": "merge --model {model} --stats {stats} --rho 0.5 --fused-model {out}.fused",
    "fuse": "fuse --model {model} --plan {plan} --stats {stats}",
    "materialize": "materialize --model {model} --plan {plan}",
    "eval": "eval --model {model} --plan {plan} --tokens 2",
    "analyze": "analyze nn --model {model} --scope 2",
    "sweep": "sweep --model {model} --stats {stats} --rho 0.25 --scopes 1,2 --tokens 2",
}

# artifact -> the commands that read it
CONSUMERS = {
    "model": tuple(COMMANDS),
    "plan": ("fuse", "materialize", "eval"),
    "stats": ("consolidate", "prune", "merge", "fuse", "sweep"),
}


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid artifacts of a 2-layer, 4-expert model: name -> (path, bytes)."""
    d = tmp_path_factory.mktemp("fuzz")
    paths = {"model": d / "model.mckpt", "stats": d / "stats.json", "plan": d / "plan.json"}
    assert run("gen", "--layers", 2, "--experts", 4, "--hidden", 4, "--inter", 4, "--topk", 2,
               "--dup", "within", "-o", paths["model"]) == 0
    assert run("calibrate", "--model", paths["model"], "--tokens", 8,
               "-o", paths["stats"]) == 0
    assert run("consolidate", "--model", paths["model"], "--stats", paths["stats"],
               "--rho", "0.5", "-o", paths["plan"]) == 0
    return d, {name: path.read_bytes() for name, path in paths.items()}


def json_paths(node, prefix=()):
    """Key paths of every value below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutations(draw, raw: bytes, is_checkpoint: bool) -> bytes:
    """The artifact with one key deleted, one value retyped, or its JSON
    text (a checkpoint's header) truncated."""
    end = raw.find(b"\n") if is_checkpoint else len(raw)
    text, rest = raw[:end], raw[end:]
    kind = draw(st.sampled_from(["delete", "retype", "truncate"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))] + rest
    doc = json.loads(text)
    path = draw(st.sampled_from(list(json_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(RETYPED))
    return json.dumps(doc).encode() + rest


@pytest.mark.parametrize("artifact", list(CONSUMERS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_artifact_never_escapes(valid, artifact, data):
    d, originals = valid
    mutated = d / f"mutated.{artifact}"
    mutated.write_bytes(data.draw(mutations(originals[artifact], artifact == "model")))
    fields = {name: d / f"{name}{'.mckpt' if name == 'model' else '.json'}" for name in originals}
    fields[artifact] = mutated
    fields["out"] = d / "out"
    for name in CONSUMERS[artifact]:
        argv = [token.format(**fields) for token in COMMANDS[name].split()]
        assert run(*argv, "-o", fields["out"]) in (0, 1, 2), argv
