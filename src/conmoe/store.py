"""Bit-exact file formats: `.mckpt` checkpoints, `.plan.json` plans, and
`.stats.json` calibration statistics, one record per slot in the full
ascending (layer, expert) grid.

A checkpoint is a single file: canonical UTF-8 JSON header, one newline,
an 8-byte little-endian payload length, then the raw float32
little-endian tensor payload: per layer, each expert's gate, up and down,
then the router. The header's tensor_index must be exactly the canonical
index of its spec. Everything JSON is serialized canonically (sorted keys,
compact separators) so identical values produce identical bytes.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .calibration import CalibStats
from .model import PROJECTIONS, MoELayer, MoEModel, ModelSpec
from .plan import PLAN_VERSION, ConsolidationPlan, Scope

MAGIC = "MCKPT1"
STATS_VERSION = 1


# what a missing, mistyped or malformed JSON value raises on conversion
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)
_REQUIRED = object()


def canonical_json(obj) -> bytes:
    """Sorted, compact, strict JSON: a NaN or an infinity is a ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def write_json(path, obj) -> None:
    """A JSON artifact: its canonical bytes and one newline."""
    Path(path).write_bytes(canonical_json(obj) + b"\n")


def _load_json(data: bytes, artifact: str):
    """Parse UTF-8 JSON; bytes that do not decode or parse, or nest too
    deeply to parse, are a ValueError naming the artifact."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed {artifact}: {exc}") from None


def _field(artifact: str, d, key: str, convert, default=_REQUIRED):
    """convert(d[key]); any missing or malformed field is a ValueError that
    names the artifact and the field."""
    if not isinstance(d, dict):
        raise ValueError(f"{artifact}: expected a JSON object")
    value = d.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"{artifact}: missing field {key!r}")
    try:
        return convert(value)
    except _MALFORMED as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"{artifact}: malformed field {key!r}: {detail}") from None


def _int(v) -> int:
    # bool is a subclass of int, but true/false is not a JSON integer
    if type(v) is not int:
        raise TypeError(f"expected a JSON integer, got {v!r}")
    return v


def _float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a JSON number, got {v!r}")
    return float(v)


def _object(v) -> dict:
    if not isinstance(v, dict):
        raise TypeError(f"expected a JSON object, got {v!r}")
    return v


def _payload_length(spec: ModelSpec) -> int:
    return spec.num_layers * spec.num_experts * (3 * spec.intermediate_dim + 1) * spec.hidden_dim * 4


def _tensor_index(spec: ModelSpec) -> list:
    """The header's tensor_index, [name, shape, byte offset] per tensor:
    per layer, each expert's gate, up and down, then the router, packed."""
    f, h = spec.intermediate_dim, spec.hidden_dim
    shapes = {"gate": [f, h], "up": [f, h], "down": [h, f]}
    index = []
    offset = 0
    for l in range(spec.num_layers):
        for i in range(spec.num_experts):
            for proj in PROJECTIONS:
                index.append([f"layers.{l}.experts.{i}.{proj}", shapes[proj], offset])
                offset += f * h * 4
        index.append([f"layers.{l}.router", [spec.num_experts, h], offset])
        offset += spec.num_experts * h * 4
    return index


def write_checkpoint(model: MoEModel, path) -> None:
    model.validate()
    # built before the file is opened, so a header that is refused leaves no file
    header = canonical_json({
        "magic": MAGIC,
        "spec": asdict(model.spec),
        "tensor_index": _tensor_index(model.spec),
        "metadata": model.metadata,
    })
    with open(path, "wb") as f:
        f.write(header)
        f.write(b"\n")
        f.write(struct.pack("<Q", _payload_length(model.spec)))
        for layer in model.layers:
            f.write(np.ascontiguousarray(layer.block, dtype="<f4"))
            f.write(np.ascontiguousarray(layer.router, dtype="<f4"))


def _read_into(f, arr: np.ndarray) -> np.ndarray:
    if f.readinto(arr) != arr.nbytes:
        raise ValueError("payload length mismatch")
    return arr


def read_checkpoint(path) -> MoEModel:
    with open(path, "rb") as f:
        line = f.readline()
        if not line.endswith(b"\n"):
            raise ValueError("malformed header: no newline terminator")
        header = _load_json(line, "header")
        if not isinstance(header, dict) or header.get("magic") != MAGIC:
            raise ValueError("bad magic")
        spec = _field("checkpoint header", header, "spec", _spec_from_dict)
        length = f.read(8)
        if len(length) < 8:
            raise ValueError("payload length mismatch")
        (declared_len,) = struct.unpack("<Q", length)
        # checked in O(1) before anything is sized from the untrusted spec
        if not declared_len == _payload_length(spec) == os.fstat(f.fileno()).st_size - f.tell():
            raise ValueError("payload length mismatch")

        index = _field("checkpoint header", header, "tensor_index", list)
        for entry in index:
            try:
                for number in (*entry[1], entry[2]):
                    _int(number)
            except _MALFORMED as exc:
                raise ValueError(f"checkpoint tensor_index entry {entry!r}: {exc}") from None
        for k, (got, want) in enumerate(zip_longest(index, _tensor_index(spec))):
            if got != want:
                raise ValueError(f"checkpoint tensor_index entry {k} is {got!r}, expected {want!r}")

        n, inter, h = spec.num_experts, spec.intermediate_dim, spec.hidden_dim
        layers = [MoELayer(_read_into(f, np.empty((n, 3, inter * h), dtype="<f4")),
                           _read_into(f, np.empty((n, h), dtype="<f4")))
                  for _ in range(spec.num_layers)]
    metadata = _field("checkpoint header", header, "metadata", _object, {})
    model = MoEModel(spec=spec, layers=layers, metadata=metadata)
    model.validate()
    return model


def _spec_from_dict(d) -> ModelSpec:
    def count(key):
        return _field("checkpoint spec", d, key, _int)

    spec = ModelSpec(
        num_layers=count("num_layers"),
        num_experts=count("num_experts"),
        hidden_dim=count("hidden_dim"),
        intermediate_dim=count("intermediate_dim"),
        top_k=count("top_k"),
        activation=_field("checkpoint spec", d, "activation", str),
    )
    spec.validate()
    return spec


def _ref_to_list(ref) -> list[int]:
    return [int(ref[0]), int(ref[1])]


def _ref_from_list(v) -> tuple[int, int]:
    if len(v) != 2:
        raise ValueError(f"bad expert reference: {v!r}")
    return (_int(v[0]), _int(v[1]))


def plan_to_dict(plan: ConsolidationPlan) -> dict:
    return {
        "version": plan.version,
        "rho": plan.rho,
        "scope_size": plan.scope_size,
        "policy": plan.policy,
        "scopes": [{"layers": scope.layers, "prototypes": [_ref_to_list(p) for p in scope.prototypes]}
                   for scope in plan.scopes],
        "assignment": [
            [_ref_to_list(slot), _ref_to_list(plan.assignment[slot])]
            for slot in sorted(plan.assignment)
        ],
        "drop_mask": [_ref_to_list(r) for r in sorted(plan.drop_mask)],
        "metadata": plan.metadata,
    }


def _scope_from_dict(s) -> Scope:
    return Scope(
        layers=_field("plan scope", s, "layers", lambda v: [_int(l) for l in v]),
        prototypes=_field("plan scope", s, "prototypes", lambda v: [_ref_from_list(p) for p in v]),
    )


def _assignment_from_list(v) -> dict:
    assignment = {}
    for slot, target in v:
        ref = _ref_from_list(slot)
        if ref in assignment:
            raise ValueError(f"slot {list(ref)} is assigned twice")
        assignment[ref] = _ref_from_list(target)
    return assignment


def plan_from_dict(d: dict) -> ConsolidationPlan:
    version = _field("plan", d, "version", _int)
    if version != PLAN_VERSION:
        raise ValueError(f"unsupported plan version: {version}")
    scopes = _field("plan", d, "scopes", lambda v: [_scope_from_dict(s) for s in v])
    plan = ConsolidationPlan(
        rho=_field("plan", d, "rho", _float),
        scope_size=_field("plan", d, "scope_size", _int),
        policy=_field("plan", d, "policy", str),
        assignment=_field("plan", d, "assignment", _assignment_from_list),
        drop_mask=_field("plan", d, "drop_mask", lambda v: {_ref_from_list(r) for r in v}, []),
        metadata=_field("plan", d, "metadata", _object, {}),
        version=version,
    )
    if scopes != plan.scopes:
        raise ValueError("plan: field 'scopes' does not match the scopes its assignment derives")
    return plan


def write_plan(plan: ConsolidationPlan, path) -> None:
    plan.validate()
    write_json(path, plan_to_dict(plan))


def read_plan(path) -> ConsolidationPlan:
    return plan_from_dict(_load_json(Path(path).read_bytes(), "plan"))


def stats_to_dict(stats: CalibStats) -> dict:
    counts, sums = stats.routed_count.tolist(), stats.sum_weighted_norm.tolist()
    return {
        "version": STATS_VERSION,
        "token_total": stats.token_total,
        "top_k": stats.top_k,
        "experts": [
            {
                "ref": [l, i],
                "routed_count": counts[l][i],
                "sum_weighted_norm": sums[l][i],
                # always equal to routed_count; kept so stats files keep their bytes
                "topk_count": counts[l][i],
            }
            for l, i in np.ndindex(stats.routed_count.shape)
        ],
        "metadata": stats.metadata,
    }


def stats_from_dict(d: dict) -> CalibStats:
    version = _field("stats", d, "version", _int)
    if version != STATS_VERSION:
        raise ValueError(f"unsupported stats version: {version}")
    records = _field("stats", d, "experts", list)
    refs = [_field("stats record", rec, "ref", _ref_from_list) for rec in records]
    # the shape comes from the last ref; the record count is checked
    # against it before anything is sized from it
    shape = (refs[-1][0] + 1, refs[-1][1] + 1) if refs else (0, 0)
    if not (min(shape) > 0 and len(refs) == shape[0] * shape[1] and refs == list(np.ndindex(shape))):
        raise ValueError("stats records are not the full ascending (layer, expert) grid")
    counts, sums = [], []
    for ref, rec in zip(refs, records):
        artifact = f"stats record {list(ref)}"
        routed = _field(artifact, rec, "routed_count", lambda v: np.int64(_int(v)))
        if _field(artifact, rec, "topk_count", _int) != routed:
            raise ValueError(f"{artifact}: topk_count differs from routed_count")
        counts.append(routed)
        sums.append(_field(artifact, rec, "sum_weighted_norm", _float))
    return CalibStats(
        token_total=_field("stats", d, "token_total", _int),
        top_k=_field("stats", d, "top_k", _int),
        routed_count=np.array(counts, dtype=np.int64).reshape(shape),
        sum_weighted_norm=np.array(sums).reshape(shape),
        metadata=_field("stats", d, "metadata", _object, {}),
    )


def write_stats(stats: CalibStats, path) -> None:
    stats.validate()
    write_json(path, stats_to_dict(stats))


def read_stats(path) -> CalibStats:
    return stats_from_dict(_load_json(Path(path).read_bytes(), "stats"))
