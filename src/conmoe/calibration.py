"""Calibration: forward synthetic tokens through the residual stack and
collect per-expert routing statistics, from which the saliency scores
(contribution, which the REAP baselines rank by, and frequency) are derived."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import MoEModel, Ref, moe_terms, sum_terms


@dataclass
class ExpertStats:
    routed_count: int = 0
    sum_weighted_norm: float = 0.0


@dataclass
class CalibStats:
    token_total: int
    top_k: int
    records: dict[Ref, ExpertStats]
    metadata: dict = field(default_factory=dict)

    def validate(self):
        if self.token_total < 0:
            raise ValueError("negative token total")
        for ref, rec in self.records.items():
            if rec.routed_count < 0:
                raise ValueError(f"negative counts for {ref}")
            if rec.routed_count > self.token_total:
                raise ValueError(f"routed_count exceeds token_total for {ref}")
            if not rec.sum_weighted_norm >= 0:
                raise ValueError(f"negative or NaN weighted norm for {ref}")
            if rec.routed_count == 0 and rec.sum_weighted_norm != 0:
                raise ValueError(f"inconsistent stats for {ref}")

    def record_for(self, ref: Ref) -> ExpertStats:
        try:
            return self.records[ref]
        except KeyError:
            raise ValueError(f"no calibration record for expert {ref}") from None

    def check_covers(self, model: MoEModel):
        """Stats computed for a different pool shape are rejected on use."""
        expected = set(model.slots())
        if set(self.records) != expected:
            raise ValueError(
                "calibration stats do not cover this model "
                f"({len(self.records)} records, {len(expected)} slots)"
            )


def run_calibration(model: MoEModel, tokens: np.ndarray) -> CalibStats:
    """For each token, at the point an expert is selected, record its
    routing weight times the L2 norm of its raw output."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] == 0:
        raise ValueError("tokens must be a non-empty (count, hidden) array")
    if tokens.shape[1] != model.spec.hidden_dim:
        raise ValueError("token dimension mismatch")

    records: dict[Ref, ExpertStats] = {ref: ExpertStats() for ref in model.slots()}
    for h in tokens:
        for l in range(model.spec.num_layers):
            terms = moe_terms(model, l, h)
            for i, g, out in terms:
                rec = records[(l, i)]
                rec.routed_count += 1
                rec.sum_weighted_norm += g * float(np.linalg.norm(out))
            # the residual step reuses the recorded outputs
            h = h + sum_terms(terms, model.spec.hidden_dim)
    stats = CalibStats(token_total=tokens.shape[0], top_k=model.spec.top_k, records=records)
    stats.validate()
    return stats


def contribution(stats: CalibStats, ref: Ref) -> float:
    """Mean routing-weight-scaled output norm over tokens that selected the
    expert; zero when it was never selected."""
    rec = stats.record_for(ref)
    if rec.routed_count == 0:
        return 0.0
    return rec.sum_weighted_norm / rec.routed_count


def frequency(stats: CalibStats, ref: Ref) -> int:
    return stats.record_for(ref).routed_count
