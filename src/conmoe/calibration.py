"""Calibration: forward synthetic tokens through the residual stack and
collect per-slot routing statistics, from which the saliency scores
(contribution, which the REAP baselines rank by, and usage) are derived."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import MoEModel, model_forward, token_rows


@dataclass(eq=False)  # array fields make the generated == raise
class CalibStats:
    """Per (layer, expert) slot: routed_count, the tokens that selected it
    (int64), and sum_weighted_norm, the sum over those tokens of routing
    weight times output norm (float64); both (num_layers, num_experts)."""

    token_total: int
    top_k: int
    routed_count: np.ndarray
    sum_weighted_norm: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self):
        counts, sums = self.routed_count, self.sum_weighted_norm
        if counts.shape != sums.shape:
            raise ValueError(f"stats: grids differ in shape: routed_count {counts.shape}, "
                             f"sum_weighted_norm {sums.shape}")
        if self.token_total < 0:
            raise ValueError("negative token total")
        for bad, message in (
            (counts < 0, "negative counts for"),
            (counts > self.token_total, "routed_count exceeds token_total for"),
            (~(sums >= 0), "negative or NaN weighted norm for"),
            (np.isinf(sums), "infinite weighted norm for"),
            ((counts == 0) & (sums != 0), "inconsistent stats for"),
        ):
            if bad.any():
                ref = tuple(int(i) for i in np.argwhere(bad)[0])
                raise ValueError(f"{message} {ref}")

    def check_covers(self, model: MoEModel):
        """Stats computed for a different pool shape or top-k are rejected on use."""
        shape = (model.spec.num_layers, model.spec.num_experts)
        if self.routed_count.shape != shape:
            raise ValueError(
                "calibration stats do not cover this model "
                f"(stats grid {self.routed_count.shape}, model grid {shape})"
            )
        if self.top_k != model.spec.top_k:
            raise ValueError(
                f"calibration stats top_k {self.top_k} does not match model top_k {model.spec.top_k}"
            )


def run_calibration(model: MoEModel, tokens: np.ndarray) -> CalibStats:
    """Run the forward on the tokens and, at the point an expert is
    selected, add its routing weight times the float64 L2 norm of its raw
    output (every norm of the forward's outputs is float64) to the grid."""
    tokens = token_rows(tokens, model.spec.hidden_dim)
    shape = (model.spec.num_layers, model.spec.num_experts)
    counts = np.zeros(shape, dtype=np.int64)
    sums = np.zeros(shape)

    def record(l, i, tok, g, y):
        counts[l, i] = tok.size
        # summed in token order, one token at a time
        np.add.at(sums[l], np.full(tok.size, i), g * np.linalg.norm(y.astype(np.float64), axis=1))

    model_forward(model, tokens, visit=record)
    return CalibStats(token_total=tokens.shape[0], top_k=model.spec.top_k,
                      routed_count=counts, sum_weighted_norm=sums)


def contribution(stats: CalibStats) -> np.ndarray:
    """Per slot, the mean routing-weight-scaled output norm over the tokens
    that selected it; zero where it was never selected."""
    counts = stats.routed_count
    return np.divide(stats.sum_weighted_norm, counts, out=np.zeros(counts.shape), where=counts > 0)
