"""Plan evaluation: output fidelity against the original model, logical
reduction accounting, cross-layer nearest-neighbor structure, and the
scope-size sweep."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .geometry import EPS, distance_matrix, nearest
from .model import MoEModel, finite, moe_forward, token_rows
from .plan import ConsolidationPlan
from .planner import ScopeConfig, consolidate, scope_partition
from .store import write_bytes


@dataclass
class FidelityReport:
    per_layer_error: list[float]
    end_to_end_error: float
    token_count: int
    achieved_reduction: float
    metadata: dict = field(default_factory=dict)


@dataclass
class NNReport:
    counts: list[list[int]]          # counts[source_layer][target_layer]
    per_layer_fraction: list[float]  # cross-layer fraction per source layer
    overall_fraction: float


def _mean_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """The per-token relative L2 errors of float32 (count, hidden) rows,
    averaged in float64."""
    errors = np.linalg.norm(got - want, axis=1) / (np.linalg.norm(want, axis=1) + EPS)
    return float(errors.mean(dtype=np.float64))


def _fidelity_pass(model: MoEModel, plans: list[ConsolidationPlan], tokens: np.ndarray) -> list[FidelityReport]:
    """Step the original stack and every plan's stack together, one layer at
    a time, on the same tokens. Each layer's per-token relative L2 errors
    are averaged as soon as both outputs exist, so only the current states
    are held (plans + 1 of them), never a trace."""
    tokens = token_rows(tokens, model.spec.hidden_dim)
    reference, states = tokens, [tokens] * len(plans)
    per_layer = [[] for _ in plans]
    with np.errstate(all="ignore"):  # a non-finite error is refused; 0 / inf = 0 is not
        for l in range(model.spec.num_layers):
            want = moe_forward(model, l, reference)
            reference = reference + want
            for k, plan in enumerate(plans):
                got = moe_forward(model, l, states[k], plan)
                states[k] = states[k] + got
                per_layer[k].append(finite(_mean_relative_error(got, want), "error norm", l))
                del got  # no output outlives its error: the next forward runs without it
            del want
        end_to_end = [_mean_relative_error(state, reference) for state in states]
    if not np.isfinite(end_to_end).all():
        raise ValueError("non-finite end-to-end error")
    return [
        FidelityReport(
            per_layer_error=errors,
            end_to_end_error=error,
            token_count=tokens.shape[0],
            achieved_reduction=reduction_accounting(plan),
            metadata={"policy": plan.policy, "rho": plan.rho, "scope_size": plan.scope_size},
        )
        for plan, errors, error in zip(plans, per_layer, end_to_end)
    ]


def evaluate_fidelity(model: MoEModel, plan: ConsolidationPlan, tokens: np.ndarray) -> FidelityReport:
    """Run the original and consolidated stacks on the same tokens and
    average the relative L2 error of each layer's output and of the final
    state."""
    return _fidelity_pass(model, [plan], tokens)[0]


def reduction_accounting(plan: ConsolidationPlan) -> float:
    """1 - distinct prototypes / original slots. A prototype shared by many
    slots counts once."""
    total = len(plan.assignment)
    distinct = len(plan.distinct_prototypes())
    return 1.0 - distinct / total


def cross_layer_nn(model: MoEModel, scope_size: int) -> NNReport:
    """For each expert, find its nearest neighbor inside its scope and tally
    whether it sits in the same layer or a different one."""
    num_layers = model.spec.num_layers
    n = model.spec.num_experts
    counts = np.zeros((num_layers, num_layers), dtype=np.int64)
    for layers in scope_partition(num_layers, scope_size):
        table = distance_matrix(model, [(l, i) for l in layers for i in range(n)])
        cols, _ = nearest(table)
        layer = np.array([l for l, _ in table.scope])
        np.add.at(counts, (layer, layer[cols]), 1)
    # each row tallies its layer's n experts
    cross = n - np.diag(counts)
    return NNReport(
        counts=counts.tolist(),
        per_layer_fraction=(cross / n).tolist(),
        overall_fraction=float(cross.sum() / (num_layers * n)),
    )


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    write_bytes(path, buf.getvalue().encode())


def dump_nn_csvs(report: NNReport, heatmap_path, fractions_path) -> None:
    _write_csv(heatmap_path, ["source_layer", "target_layer", "count"],
               ([src, tgt, c] for src, row in enumerate(report.counts) for tgt, c in enumerate(row)))
    fractions = [[l, repr(frac)] for l, frac in enumerate(report.per_layer_fraction)]
    _write_csv(fractions_path, ["layer", "cross_layer_fraction"],
               [*fractions, ["overall", repr(report.overall_fraction)]])


def scope_sweep(
    model: MoEModel,
    stats,
    rho: float,
    scope_sizes: list[int],
    tokens: np.ndarray,
) -> list[FidelityReport]:
    """Consolidate at every scope size with rho and the adaptive policy, then
    evaluate all the plans in one pass against one reference forward."""
    plans = [consolidate(model, stats, ScopeConfig(rho, size)) for size in scope_sizes]
    return _fidelity_pass(model, plans, tokens)
