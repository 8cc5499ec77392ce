"""Bit-exact file formats: `.mckpt` checkpoints, `.plan.json` plans, and
`.stats.json` calibration statistics.

A checkpoint is a single file: canonical UTF-8 JSON header, one newline,
an 8-byte little-endian payload length, then the raw float32
little-endian tensor payload. Everything JSON is serialized canonically
(sorted keys, compact separators) so identical values produce identical
bytes.
"""

from __future__ import annotations

import json
import re
import struct
from pathlib import Path

import numpy as np

from .calibration import CalibStats, ExpertStats
from .model import ExpertWeights, MoELayer, MoEModel, ModelSpec
from .plan import PLAN_VERSION, ConsolidationPlan, Scope

MAGIC = "MCKPT1"
STATS_VERSION = 1

_TENSOR_NAME = re.compile(
    r"^layers\.(\d+)\.(?:experts\.(\d+)\.(gate|up|down)|router)$"
)


# what a missing, mistyped or malformed JSON value raises on conversion
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)
_REQUIRED = object()


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


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


def parse_tensor_name(name: str) -> tuple[int, int | None, str | None]:
    """Returns (layer, expert, projection); expert/projection are None for
    router tensors. Rejects anything outside the naming grammar."""
    m = _TENSOR_NAME.match(name)
    if not m:
        raise ValueError(f"invalid tensor name: {name!r}")
    layer = int(m.group(1))
    if m.group(2) is None:
        return layer, None, None
    return layer, int(m.group(2)), m.group(3)


def _tensor_order(spec: ModelSpec):
    """Canonical tensor iteration: per layer, experts (gate/up/down) then
    the router."""
    for l in range(spec.num_layers):
        for i in range(spec.num_experts):
            for proj in ("gate", "up", "down"):
                yield f"layers.{l}.experts.{i}.{proj}", (l, i, proj)
        yield f"layers.{l}.router", (l, None, None)


def write_checkpoint(model: MoEModel, path) -> None:
    model.validate()
    if model.spec.num_layers == 0:
        raise ValueError("empty model")

    def tensor_for(l, i, proj):
        if i is None:
            return model.layers[l].router
        return getattr(model.layers[l].experts[i], proj)

    tensors = [(name, tensor_for(*key)) for name, key in _tensor_order(model.spec)]
    index = []
    offset = 0
    for name, arr in tensors:
        index.append([name, list(arr.shape), offset])
        offset += arr.size * 4
    header = {
        "magic": MAGIC,
        "spec": model.spec.to_dict(),
        "tensor_index": index,
        "metadata": model.metadata,
    }
    with open(path, "wb") as f:
        f.write(canonical_json(header))
        f.write(b"\n")
        f.write(struct.pack("<Q", offset))
        for _, arr in tensors:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_checkpoint(path) -> MoEModel:
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError("malformed header: no newline terminator")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed header: {exc}") from None
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise ValueError("bad magic")
    spec = _field("checkpoint header", header, "spec", _spec_from_dict)
    if len(raw) < nl + 9:
        raise ValueError("payload length mismatch")
    (declared_len,) = struct.unpack("<Q", raw[nl + 1 : nl + 9])
    payload = memoryview(raw)[nl + 9 :]
    if len(payload) != declared_len:
        raise ValueError("payload length mismatch")

    index = _field("checkpoint header", header, "tensor_index", list)
    expected = {name: key for name, key in _tensor_order(spec)}
    seen: set[str] = set()
    offset = 0
    tensors: dict[str, np.ndarray] = {}
    for entry in index:
        try:
            name, shape, byte_offset = entry[0], tuple(_int(x) for x in entry[1]), _int(entry[2])
            parse_tensor_name(name)
        except _MALFORMED as exc:
            raise ValueError(f"checkpoint tensor_index entry {entry!r}: {exc}") from None
        if name in seen:
            raise ValueError(f"duplicate tensor entry: {name}")
        seen.add(name)
        if name not in expected:
            raise ValueError(f"tensor {name!r} not declared by spec")
        if byte_offset != offset:
            raise ValueError("shape/offset mismatch: non-contiguous tensor index")
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 4
        if byte_offset + nbytes > declared_len:
            raise ValueError("shape/offset mismatch: tensor exceeds payload")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=byte_offset)
        tensors[name] = arr.reshape(shape).copy()
        offset += nbytes
    if offset != declared_len:
        raise ValueError("shape/offset mismatch: payload not fully covered")
    missing = set(expected) - seen
    if missing:
        raise ValueError(f"missing tensor entries: {sorted(missing)[:3]}")

    layers = []
    for l in range(spec.num_layers):
        experts = [
            ExpertWeights(
                gate=tensors[f"layers.{l}.experts.{i}.gate"],
                up=tensors[f"layers.{l}.experts.{i}.up"],
                down=tensors[f"layers.{l}.experts.{i}.down"],
            )
            for i in range(spec.num_experts)
        ]
        layers.append(MoELayer(experts=experts, router=tensors[f"layers.{l}.router"]))
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
        "scopes": [
            {
                "layers": list(scope.layers),
                "prototypes": [_ref_to_list(p) for p in scope.prototypes],
            }
            for scope in plan.scopes
        ],
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


def plan_from_dict(d: dict) -> ConsolidationPlan:
    version = _field("plan", d, "version", _int)
    if version > PLAN_VERSION:
        raise ValueError(f"unsupported plan version: {version}")
    plan = ConsolidationPlan(
        rho=_field("plan", d, "rho", _float),
        scope_size=_field("plan", d, "scope_size", _int),
        policy=_field("plan", d, "policy", str),
        scopes=_field("plan", d, "scopes", lambda v: [_scope_from_dict(s) for s in v]),
        assignment=_field("plan", d, "assignment", lambda v: {
            _ref_from_list(slot): _ref_from_list(target) for slot, target in v
        }),
        drop_mask=_field("plan", d, "drop_mask", lambda v: {_ref_from_list(r) for r in v}, []),
        metadata=_field("plan", d, "metadata", _object, {}),
        version=version,
    )
    plan.validate()
    return plan


def write_plan(plan: ConsolidationPlan, path) -> None:
    plan.validate()
    Path(path).write_bytes(canonical_json(plan_to_dict(plan)) + b"\n")


def read_plan(path) -> ConsolidationPlan:
    return plan_from_dict(json.loads(Path(path).read_text("utf-8")))


def stats_to_dict(stats: CalibStats) -> dict:
    return {
        "version": STATS_VERSION,
        "token_total": stats.token_total,
        "top_k": stats.top_k,
        "experts": [
            {
                "ref": _ref_to_list(ref),
                "routed_count": rec.routed_count,
                "sum_weighted_norm": rec.sum_weighted_norm,
                # always equal to routed_count; kept so stats files keep their bytes
                "topk_count": rec.routed_count,
            }
            for ref, rec in sorted(stats.records.items())
        ],
        "metadata": stats.metadata,
    }


def stats_from_dict(d: dict) -> CalibStats:
    version = _field("stats", d, "version", _int)
    if version > STATS_VERSION:
        raise ValueError(f"unsupported stats version: {version}")
    records = {}
    for rec in _field("stats", d, "experts", list):
        ref = _field("stats record", rec, "ref", _ref_from_list)
        if ref in records:
            raise ValueError(f"duplicate stats record for {ref}")
        artifact = f"stats record {list(ref)}"
        routed = _field(artifact, rec, "routed_count", _int)
        if _field(artifact, rec, "topk_count", _int) != routed:
            raise ValueError(f"{artifact}: topk_count differs from routed_count")
        records[ref] = ExpertStats(
            routed_count=routed,
            sum_weighted_norm=_field(artifact, rec, "sum_weighted_norm", _float),
        )
    stats = CalibStats(
        token_total=_field("stats", d, "token_total", _int),
        top_k=_field("stats", d, "top_k", _int),
        records=records,
        metadata=_field("stats", d, "metadata", _object, {}),
    )
    stats.validate()
    return stats


def write_stats(stats: CalibStats, path) -> None:
    stats.validate()
    Path(path).write_bytes(canonical_json(stats_to_dict(stats)) + b"\n")


def read_stats(path) -> CalibStats:
    return stats_from_dict(json.loads(Path(path).read_text("utf-8")))
