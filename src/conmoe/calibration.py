"""Calibration: forward synthetic tokens through the residual stack and
collect per-expert routing statistics, from which the saliency scores
(contribution, which the REAP baselines rank by, and frequency) are derived."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import MoEModel, Ref, slot_groups


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

    shape = (model.spec.num_layers, model.spec.num_experts)
    counts = np.zeros(shape, dtype=np.int64)
    sums = np.zeros(shape)
    h = tokens
    for l in range(model.spec.num_layers):
        out = np.zeros_like(h)
        for i, tok, g, y in slot_groups(model, l, h):
            counts[l, i] = tok.size
            # summed in token order, one token at a time
            np.add.at(sums[l], np.full(tok.size, i), g * np.linalg.norm(y, axis=1))
            out[tok] = out[tok] + g[:, None] * y
        # the residual step reuses the recorded outputs
        h = h + out
    records = {
        (l, i): ExpertStats(int(counts[l, i]), float(sums[l, i]))
        for l, i in model.slots()
    }
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
