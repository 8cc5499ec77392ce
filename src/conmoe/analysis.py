"""Plan evaluation: output fidelity against the original model, logical
reduction accounting, cross-layer nearest-neighbor structure, and the
scope-size sweep."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import DEFAULT_EPS, distance_matrix, nearest
from .model import MoEModel, model_forward_trace
from .plan import ConsolidationPlan
from .planner import ScopeConfig, consolidate, scope_partition


@dataclass
class FidelityReport:
    per_layer_error: list[float]
    end_to_end_error: float
    token_count: int
    achieved_reduction: float
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_layer_error": self.per_layer_error,
            "end_to_end_error": self.end_to_end_error,
            "token_count": self.token_count,
            "achieved_reduction": self.achieved_reduction,
            "metadata": self.metadata,
        }


@dataclass
class NNReport:
    counts: list[list[int]]          # counts[source_layer][target_layer]
    per_layer_fraction: list[float]  # cross-layer fraction per source layer
    overall_fraction: float

    def to_dict(self) -> dict:
        return {
            "counts": self.counts,
            "per_layer_fraction": self.per_layer_fraction,
            "overall_fraction": self.overall_fraction,
        }


def _relative_errors(got: np.ndarray, want: np.ndarray, eps: float) -> np.ndarray:
    """Per-token relative L2 error of (count, hidden) rows."""
    return np.linalg.norm(got - want, axis=1) / (np.linalg.norm(want, axis=1) + eps)


def evaluate_fidelity(
    model: MoEModel,
    plan: ConsolidationPlan,
    tokens: np.ndarray,
    eps: float = DEFAULT_EPS,
    reference: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> FidelityReport:
    """Run the original and consolidated stacks on the same tokens and
    average the relative L2 error of each layer's output and of the final
    state. reference, if given, is the original stack's
    model_forward_trace of the tokens."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] == 0:
        raise ValueError("tokens must be a non-empty (count, hidden) array")
    plan.validate()
    plan.check_covers(model)
    if reference is None:
        reference = model_forward_trace(model, tokens)
    orig_final, orig_outs = reference
    plan_final, plan_outs = model_forward_trace(model, tokens, plan)
    return FidelityReport(
        per_layer_error=[
            float(_relative_errors(got, want, eps).mean()) for got, want in zip(plan_outs, orig_outs)
        ],
        end_to_end_error=float(_relative_errors(plan_final, orig_final, eps).mean()),
        token_count=tokens.shape[0],
        achieved_reduction=reduction_accounting(plan),
        metadata={"policy": plan.policy, "rho": plan.rho, "scope_size": plan.scope_size},
    )


def reduction_accounting(plan: ConsolidationPlan) -> float:
    """1 - distinct prototypes / original slots. A prototype shared by many
    slots counts once."""
    total = len(plan.assignment)
    distinct = len(plan.distinct_prototypes())
    return 1.0 - distinct / total


def cross_layer_nn(model: MoEModel, scope_size: int, eps: float = DEFAULT_EPS) -> NNReport:
    """For each expert, find its nearest neighbor inside its scope and tally
    whether it sits in the same layer or a different one."""
    num_layers = model.spec.num_layers
    n = model.spec.num_experts
    if not (1 <= scope_size <= num_layers):
        raise ValueError("scope_size must be in [1, num_layers]")
    counts = [[0] * num_layers for _ in range(num_layers)]
    for layers in scope_partition(num_layers, scope_size):
        table = distance_matrix(model, [(l, i) for l in layers for i in range(n)], eps)
        cols, _ = nearest(table)
        for ref, c in zip(table.scope, cols):
            counts[ref[0]][table.scope[c][0]] += 1
    per_layer = [
        (sum(row) - row[l]) / sum(row)
        for l, row in enumerate(counts)
    ]
    cross_total = sum(
        sum(row) - row[l] for l, row in enumerate(counts)
    )
    return NNReport(
        counts=counts,
        per_layer_fraction=per_layer,
        overall_fraction=cross_total / (num_layers * n),
    )


def dump_nn_csvs(report: NNReport, heatmap_path, fractions_path) -> None:
    with open(heatmap_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["source_layer", "target_layer", "count"])
        for src, row in enumerate(report.counts):
            for tgt, c in enumerate(row):
                writer.writerow([src, tgt, c])
    with open(fractions_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["layer", "cross_layer_fraction"])
        for l, frac in enumerate(report.per_layer_fraction):
            writer.writerow([l, repr(frac)])
        writer.writerow(["overall", repr(report.overall_fraction)])


def scope_sweep(
    model: MoEModel,
    stats,
    config: ScopeConfig,
    scope_sizes: list[int],
    tokens: np.ndarray,
) -> list[FidelityReport]:
    """Consolidate and evaluate at each scope size with config's rho, policy
    and eps, against one reference trace of the original model."""
    reference = model_forward_trace(model, tokens)
    reports = []
    for size in scope_sizes:
        plan = consolidate(model, stats, replace(config, scope_size=size))
        reports.append(evaluate_fidelity(model, plan, tokens, config.eps, reference))
    return reports
