"""Spans recorded from outside conmoe, around the public entry points of
each module, and the per-layer metrics derived from them.

Hooks name only what `conmoe/__init__.py` exports. A hook is installed by
replacing every reference to the exported function in the loaded conmoe
modules (or, for a method, the class attribute), so calls made between
modules are spanned too. A target that no longer exists is skipped and
reported as missing.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations

# layer -> exported names whose calls become spans named "<layer>.<name>"
HOOKS = {
    "store": ("read_checkpoint", "write_checkpoint", "read_plan", "write_plan",
              "read_stats", "write_stats"),
    "calibration": ("run_calibration",),
    "model": ("moe_forward", "consolidated_moe_forward", "materialize"),
    "geometry": ("distance_matrix",),
    "planner": ("consolidate", "assign"),
    "baselines": ("merge_msmoe", "prune_frequency", "prune_reap", "fuse_weighted_average"),
    "analysis": ("evaluate_fidelity", "cross_layer_nn", "scope_sweep"),
    "plan": ("ConsolidationPlan.validate",),
}

# Spans called once per token and layer; the span file rolls them up per
# parent instead of listing each one.
ROLLED_UP = ("model.moe_forward", "model.consolidated_moe_forward")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "store.read_checkpoint_s": "s",
    "store.write_checkpoint_s": "s",
    "store.checkpoint_bytes": "B",
    "store.read_MBps": "MB/s",
    "store.write_MBps": "MB/s",
    "store.json_rw_s": "s",
    "calibration.run_s": "s",
    "calibration.tok_per_s": "tok/s",
    "calibration.pass_share": "1",
    "model.forward_tok_per_s": "tok/s",
    "model.plan_forward_tok_per_s": "tok/s",
    "model.materialize_s": "s",
    "model.pass_share": "1",
    "geometry.distance_s": "s",
    "geometry.pairs": "count",
    "geometry.pairs_per_s": "pairs/s",
    "geometry.bytes_computed": "B",
    "geometry.unique_pair_ratio": "1",
    "geometry.pass_share": "1",
    "planner.consolidate_s": "s",
    "planner.self_s": "s",
    "planner.assign_s": "s",
    "planner.prototypes": "count",
    "baselines.merge_s": "s",
    "baselines.prune_s": "s",
    "baselines.fuse_s": "s",
    "analysis.eval_self_s": "s",
    "analysis.nn_s": "s",
    "analysis.sweep_s": "s",
    "analysis.forward_calls": "count",
    "analysis.ref_forward_reuse_ratio": "1",
    "plan.validate_s": "s",
    "plan.validate_calls": "count",
    "trace.overhead_s": "s",
}


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory in start order; a span's parent is the span
    open when it started."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        # filled by annotators: distinct work seen, and pairs computed in total
        self.distinct_pairs: set = set()
        self.distinct_references: set = set()
        self.pairs_computed = 0

    def _begin(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else None, 0.0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, fn, name: str, annotate=None):
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if annotate:
                try:
                    span.attrs = annotate(self, result, signature.bind(*args, **kwargs).arguments)
                except (KeyError, TypeError, AttributeError) as exc:
                    # a renamed parameter or field costs the counts, not the command
                    span.attrs = {"annotate_error": repr(exc)}
            return result

        return traced


# Annotators run after a successful call, outside its span, and receive the
# call's arguments by their public parameter names.

def _model_key(model) -> str:
    digest = hashlib.sha1(repr(model.spec).encode())
    for layer in model.layers:
        digest.update(layer.router.tobytes())
    return digest.hexdigest()


def _checkpoint_bytes(tracer, result, args) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _calibration_tokens(tracer, result, args) -> dict:
    return {"tokens": len(args["tokens"])}


def _distance_pairs(tracer, result, args) -> dict:
    model, scope = args["model"], sorted(args["scope"])
    key = _model_key(model)
    pairs = [(key, a, b) for a, b in combinations(scope, 2)]
    tracer.distinct_pairs.update(pairs)
    tracer.pairs_computed += len(pairs)
    spec = model.spec
    expert_bytes = 3 * spec.hidden_dim * spec.intermediate_dim * 4  # float32 gate, up, down
    return {"pairs": len(pairs), "bytes": len(pairs) * 2 * expert_bytes}


def _reference_tokens(tracer, result, args) -> dict:
    key = _model_key(args["model"])
    tokens = args["tokens"]
    tracer.distinct_references.update((key, hashlib.sha1(t.tobytes()).hexdigest()) for t in tokens)
    return {"tokens": len(tokens)}


def _prototypes(tracer, result, args) -> dict:
    return {"prototypes": len(result.distinct_prototypes())}


ANNOTATE = {
    "read_checkpoint": _checkpoint_bytes,
    "write_checkpoint": _checkpoint_bytes,
    "run_calibration": _calibration_tokens,
    "distance_matrix": _distance_pairs,
    "evaluate_fidelity": _reference_tokens,
    "consolidate": _prototypes,
}


def install_hooks(tracer: Tracer, package, modules=None):
    """Wrap every HOOKS target found in `package`. Returns (restore, missing):
    calling restore() puts the original functions back."""
    if modules is None:
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
    patches = []
    missing = []
    for layer, names in HOOKS.items():
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(package, owner_name, None) if owner_name else package
            fn = getattr(owner, attr, None)
            if not callable(fn):
                missing.append(name)
                continue
            wrapped = tracer.wrap(fn, f"{layer}.{attr}", ANNOTATE.get(name))
            if owner_name:
                targets = [(owner, attr)]
            else:
                targets = [(m, key) for m in modules for key, value in vars(m).items() if value is fn]
            for target, key in targets:
                patches.append((target, key, fn))
                setattr(target, key, wrapped)

    def restore():
        for target, key, fn in reversed(patches):
            setattr(target, key, fn)

    return restore, missing


def children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(i)
    return kids


def foreign_time(spans: list[Span], kids: dict[int, list[int]], i: int) -> float:
    """Time inside span i spent in descendants of another layer, counting
    each such descendant once at its outermost level."""
    layer = spans[i].layer
    total = 0.0
    for c in kids.get(i, ()):
        total += spans[c].duration if spans[c].layer != layer else foreign_time(spans, kids, c)
    return total


def self_time(spans: list[Span], kids: dict[int, list[int]], i: int) -> float:
    """A span's duration minus the part its other-layer descendants cover."""
    return spans[i].duration - foreign_time(spans, kids, i)


def covered_time(spans: list[Span], match) -> float:
    """Wall time covered by spans for which match(span) holds; nested
    matches are counted once, at the outermost one."""
    return sum(
        span.duration for span in spans
        if match(span) and not any(match(a) for a in _ancestors(spans, span))
    )


def _ancestors(spans: list[Span], span: Span):
    parent = span.parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def rollup(spans: list[Span]) -> list[dict]:
    """Span records for the span file, times in seconds from the first
    span's start: every span, except that ROLLED_UP spans become one record
    per (parent, name) with a count and total."""
    origin = spans[0].start if spans else 0.0
    out = []
    groups: dict[tuple, dict] = {}
    for i, span in enumerate(spans):
        if span.name in ROLLED_UP:
            group = groups.get((span.parent, span.name))
            if group is None:
                group = groups[(span.parent, span.name)] = {
                    "name": span.name, "parent": span.parent, "count": 0, "total_s": 0.0}
                out.append(group)
            group["count"] += 1
            group["total_s"] += span.duration
        else:
            out.append({"id": i, "name": span.name, "parent": span.parent,
                        "start_s": span.start - origin, "end_s": span.end - origin,
                        **(span.attrs or {})})
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(tracer: Tracer, num_layers: int, pass_s: float,
                      untraced_pass_s: float, startup_s: float) -> dict[str, float]:
    """Every PER_LAYER_UNITS metric from one traced pass. A layer the pass
    never entered reports 0.

    Forward rates count per-layer MoE calls over num_layers as tokens.
    analysis.forward_calls counts per-layer MoE calls (plain and plan) made
    under analysis spans; analysis.ref_forward_reuse_ratio is the distinct
    (model, token) references evaluated over the reference forwards run,
    1.0 when none is recomputed. geometry.unique_pair_ratio is the same
    ratio for expert pairs. The *.pass_share metrics are the share of the
    traced pass's wall time the layer's spans cover.
    """
    spans = tracer.spans
    kids = children(spans)

    def named(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def total(*names):
        return sum(spans[i].duration for i in named(*names))

    def attr_sum(key, *names):
        return sum((spans[i].attrs or {}).get(key, 0) for i in named(*names))

    def layer_time(layer):
        return covered_time(spans, lambda s: s.layer == layer)

    read_s = total("store.read_checkpoint")
    write_s = total("store.write_checkpoint")
    read_b = attr_sum("bytes", "store.read_checkpoint")
    write_b = attr_sum("bytes", "store.write_checkpoint")
    calib_s = total("calibration.run_calibration")
    plain_s = total("model.moe_forward")
    plan_s = total("model.consolidated_moe_forward")
    distance_s = total("geometry.distance_matrix")
    pairs = tracer.pairs_computed
    analysis_forwards = [
        s.name for s in spans
        if s.name in ROLLED_UP and any(a.layer == "analysis" for a in _ancestors(spans, s))
    ]
    reference_runs = analysis_forwards.count("model.moe_forward") / num_layers
    return {
        "cli.startup_s": startup_s,
        "store.read_checkpoint_s": read_s,
        "store.write_checkpoint_s": write_s,
        "store.checkpoint_bytes": read_b + write_b,
        "store.read_MBps": _ratio(read_b / 1e6, read_s),
        "store.write_MBps": _ratio(write_b / 1e6, write_s),
        "store.json_rw_s": total("store.read_plan", "store.write_plan",
                                 "store.read_stats", "store.write_stats"),
        "calibration.run_s": calib_s,
        "calibration.tok_per_s": _ratio(attr_sum("tokens", "calibration.run_calibration"), calib_s),
        "calibration.pass_share": _ratio(layer_time("calibration"), pass_s),
        "model.forward_tok_per_s": _ratio(len(named("model.moe_forward")) / num_layers, plain_s),
        "model.plan_forward_tok_per_s": _ratio(
            len(named("model.consolidated_moe_forward")) / num_layers, plan_s),
        "model.materialize_s": total("model.materialize"),
        "model.pass_share": _ratio(layer_time("model"), pass_s),
        "geometry.distance_s": distance_s,
        "geometry.pairs": pairs,
        "geometry.pairs_per_s": _ratio(pairs, distance_s),
        "geometry.bytes_computed": attr_sum("bytes", "geometry.distance_matrix"),
        "geometry.unique_pair_ratio": _ratio(len(tracer.distinct_pairs), pairs),
        "geometry.pass_share": _ratio(layer_time("geometry"), pass_s),
        "planner.consolidate_s": total("planner.consolidate"),
        "planner.self_s": sum(self_time(spans, kids, i) for i in named("planner.consolidate")),
        "planner.assign_s": total("planner.assign"),
        "planner.prototypes": attr_sum("prototypes", "planner.consolidate"),
        "baselines.merge_s": total("baselines.merge_msmoe"),
        "baselines.prune_s": total("baselines.prune_frequency", "baselines.prune_reap"),
        "baselines.fuse_s": total("baselines.fuse_weighted_average"),
        "analysis.eval_self_s": sum(self_time(spans, kids, i)
                                    for i in named("analysis.evaluate_fidelity")),
        "analysis.nn_s": total("analysis.cross_layer_nn"),
        "analysis.sweep_s": total("analysis.scope_sweep"),
        "analysis.forward_calls": len(analysis_forwards),
        "analysis.ref_forward_reuse_ratio": _ratio(len(tracer.distinct_references), reference_runs),
        "plan.validate_s": covered_time(spans, lambda s: s.name == "plan.validate"),
        "plan.validate_calls": len(named("plan.validate")),
        "trace.overhead_s": pass_s - untraced_pass_s,
    }

