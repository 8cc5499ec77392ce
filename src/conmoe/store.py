"""Bit-exact file formats: `.mckpt` checkpoints, `.plan.json` plans, and
`.stats.json` calibration statistics. Each holds only what it cannot derive.

A checkpoint is a single file: a canonical UTF-8 JSON header (magic, spec,
metadata), one newline, an 8-byte little-endian payload length, then the
raw float32 little-endian tensor payload: per layer, each expert's gate, up
and down, then the router, so every offset follows from the spec. A plan is
its assignment pairs, drop mask and scalar fields; stats are two (layers,
experts) grids. JSON is canonical (sorted keys, compact separators), so
identical values produce identical bytes. Each file is written to a sibling
`<name>.tmp` and then renamed over its path. A checkpoint is written a layer
at a time, each checked first, and read by mapping its file copy-on-write.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .calibration import CalibStats
from .model import MoELayer, MoEModel, ModelSpec
from .plan import ConsolidationPlan

MAGIC = "MCKPT1"
ACTIVATION = "silu"  # the one expert activation; every header names it
PLAN_VERSION = 1
STATS_VERSION = 2


# what a missing, mistyped or malformed JSON value raises on conversion
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)
_REQUIRED = object()


def canonical_json(obj) -> bytes:
    """Sorted, compact, strict JSON: a NaN or an infinity, or a value that
    nests too deeply to encode, is a ValueError."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")
    except RecursionError as exc:
        raise ValueError(f"cannot encode JSON: {exc}") from None


def _write_atomic(path, write) -> None:
    """write(f) into a sibling `<name>.tmp`, then rename it over path; on
    any failure the temp file is removed and path is left untouched."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_bytes(path, data: bytes) -> None:
    _write_atomic(path, lambda f: f.write(data))


def write_json(path, obj) -> None:
    """A JSON artifact: its canonical bytes and one newline."""
    write_bytes(path, canonical_json(obj) + b"\n")


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


def write_checkpoint(model: MoEModel, path) -> None:
    # checked before the file is opened, so a header that is refused leaves no file
    spec = {**asdict(model.spec), "activation": ACTIVATION}
    header = canonical_json({"magic": MAGIC, "spec": spec, "metadata": model.metadata})
    if len(model.layers) != model.spec.num_layers:
        raise ValueError("layer count mismatch")

    def write(f):
        f.write(header)
        f.write(b"\n")
        f.write(struct.pack("<Q", _payload_length(model.spec)))
        for l in range(model.spec.num_layers):  # not an iterator: it holds the last layer
            layer = model.layers[l]
            model.check_layer(layer)
            f.write(np.ascontiguousarray(layer.block, dtype="<f4"))
            f.write(np.ascontiguousarray(layer.router, dtype="<f4"))
            del layer  # a derived layer is released before the next one is built

    _write_atomic(path, write)


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
        offset = f.tell()
        # checked in O(1) before anything is sized from the untrusted spec
        if not declared_len == _payload_length(spec) == os.fstat(f.fileno()).st_size - offset:
            raise ValueError("payload length mismatch")
        mapping = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)

    # one np.ndarray(buffer=...) per array, so each block is the base of its rows
    n, inter, h = spec.num_experts, spec.intermediate_dim, spec.hidden_dim
    step, block_bytes = declared_len // spec.num_layers, n * 3 * inter * h * 4
    layers = [MoELayer(np.ndarray((n, 3, inter * h), "<f4", mapping, offset + l * step),
                       np.ndarray((n, h), "<f4", mapping, offset + l * step + block_bytes))
              for l in range(spec.num_layers)]
    metadata = _field("checkpoint header", header, "metadata", _object, {})
    model = MoEModel(spec=spec, layers=layers, metadata=metadata)
    model.validate()
    return model


def _spec_from_dict(d) -> ModelSpec:
    """Every ModelSpec field, in declaration order, each a required integer;
    then the activation, which must be ACTIVATION."""
    spec = ModelSpec(**{f.name: _field("checkpoint spec", d, f.name, _int) for f in fields(ModelSpec)})
    activation = _field("checkpoint spec", d, "activation", str)
    if activation != ACTIVATION:
        raise ValueError(f"unsupported activation: {activation!r}")
    return spec


def _ref_to_list(ref) -> list[int]:
    return [int(ref[0]), int(ref[1])]


def _ref_from_list(v) -> tuple[int, int]:
    if len(v) != 2:
        raise ValueError(f"bad expert reference: {v!r}")
    return (_int(v[0]), _int(v[1]))


def plan_to_dict(plan: ConsolidationPlan) -> dict:
    return {
        "version": PLAN_VERSION,
        "rho": plan.rho,
        "scope_size": plan.scope_size,
        "policy": plan.policy,
        "assignment": [
            [_ref_to_list(slot), _ref_to_list(plan.assignment[slot])]
            for slot in sorted(plan.assignment)
        ],
        "drop_mask": [_ref_to_list(r) for r in sorted(plan.drop_mask)],
        "metadata": plan.metadata,
    }


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
    return ConsolidationPlan(
        rho=_field("plan", d, "rho", _float),
        scope_size=_field("plan", d, "scope_size", _int),
        policy=_field("plan", d, "policy", str),
        assignment=_field("plan", d, "assignment", _assignment_from_list),
        drop_mask=_field("plan", d, "drop_mask", lambda v: {_ref_from_list(r) for r in v}, []),
        metadata=_field("plan", d, "metadata", _object, {}),
    )


def write_plan(plan: ConsolidationPlan, path) -> None:
    plan.validate()
    write_json(path, plan_to_dict(plan))


def read_plan(path) -> ConsolidationPlan:
    return plan_from_dict(_load_json(Path(path).read_bytes(), "plan"))


def stats_to_dict(stats: CalibStats) -> dict:
    return {
        "version": STATS_VERSION,
        "token_total": stats.token_total,
        "top_k": stats.top_k,
        "routed_count": stats.routed_count.tolist(),
        "sum_weighted_norm": stats.sum_weighted_norm.tolist(),
        "metadata": stats.metadata,
    }


def _grid(convert, dtype):
    """A non-empty list of equal-length, non-empty rows as a 2-D array,
    each element checked by convert."""
    def read(v):
        if not (type(v) is list and v and all(type(r) is list and len(r) == len(v[0]) > 0 for r in v)):
            raise ValueError("expected a non-empty grid of equal-length rows")
        return np.array([[convert(x) for x in row] for row in v], dtype=dtype)
    return read


def stats_from_dict(d: dict) -> CalibStats:
    version = _field("stats", d, "version", _int)
    if version != STATS_VERSION:
        raise ValueError(f"unsupported stats version: {version}")
    counts = _field("stats", d, "routed_count", _grid(_int, np.int64))
    sums = _field("stats", d, "sum_weighted_norm", _grid(_float, np.float64))
    return CalibStats(
        token_total=_field("stats", d, "token_total", _int),
        top_k=_field("stats", d, "top_k", _int),
        routed_count=counts,
        sum_weighted_norm=sums,
        metadata=_field("stats", d, "metadata", _object, {}),
    )


def write_stats(stats: CalibStats, path) -> None:
    stats.validate()
    write_json(path, stats_to_dict(stats))


def read_stats(path) -> CalibStats:
    return stats_from_dict(_load_json(Path(path).read_bytes(), "stats"))
