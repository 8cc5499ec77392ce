"""Normalized expert distances and scope-level geometry helpers.

Each projection distance is a norm-balanced relative Frobenius distance in
[0, 2); the expert distance averages it over the gate/up/down projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PROJECTIONS, ExpertWeights, MoEModel, Ref

DEFAULT_EPS = 1e-8


def projection_distance(a: np.ndarray, b: np.ndarray, eps: float = DEFAULT_EPS) -> float:
    if a.shape != b.shape:
        raise ValueError("projection shape mismatch")
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    num = 2.0 * np.linalg.norm(a64 - b64)
    den = np.linalg.norm(a64) + np.linalg.norm(b64) + 2.0 * eps
    return float(num / den)


def expert_distance(e: ExpertWeights, f: ExpertWeights, eps: float = DEFAULT_EPS) -> float:
    """Mean projection distance over gate, up, down."""
    total = 0.0
    for proj in PROJECTIONS:
        total += projection_distance(getattr(e, proj), getattr(f, proj), eps)
    return total / len(PROJECTIONS)


@dataclass
class DistanceTable:
    scope: list[Ref]          # ascending (layer, index)
    values: np.ndarray        # symmetric, zero diagonal
    eps: float = DEFAULT_EPS
    _index: dict[Ref, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {ref: i for i, ref in enumerate(self.scope)}

    def index_of(self, ref: Ref) -> int:
        try:
            return self._index[ref]
        except KeyError:
            raise ValueError(f"expert {ref} not in scope") from None

    def distance(self, a: Ref, b: Ref) -> float:
        return float(self.values[self.index_of(a), self.index_of(b)])


def distance_matrix(model: MoEModel, scope: list[Ref], eps: float = DEFAULT_EPS) -> DistanceTable:
    """Full pairwise table from one Gram matrix per projection; the upper
    triangle is computed and mirrored, so the matrix is symmetric with a
    zero diagonal by construction."""
    scope = sorted(scope)
    experts = [model.expert(ref) for ref in scope]
    n = len(scope)
    upper = np.triu_indices(n, 1)
    total = np.zeros(len(upper[0]))
    for proj in PROJECTIONS:
        total += _projection_distances(experts, proj, upper, eps)
    values = np.zeros((n, n))
    values[upper] = total / len(PROJECTIONS)
    values[upper[::-1]] = values[upper]
    return DistanceTable(scope=scope, values=values, eps=eps)


# A pair whose Gram-expanded squared distance falls below this fraction of
# ||a||^2 + ||b||^2 has lost most of its significant bits to cancellation.
# It is recomputed by exact difference, so bitwise-equal projections are
# exactly 0.0 and near-duplicates are never ranked by rounding noise.
EXACT_RECOMPUTE_FRACTION = 1e-6


def _projection_distances(experts: list[ExpertWeights], proj: str, pairs, eps: float) -> np.ndarray:
    """projection_distance of one projection for the index pairs (i, j),
    via ||a - b||^2 = ||a||^2 + ||b||^2 - 2<a, b> over a float64 stack."""
    size = getattr(experts[0], proj).size if experts else 0
    stack = np.empty((len(experts), size))
    for row, e in zip(stack, experts):
        row[:] = getattr(e, proj).ravel()
    gram = stack @ stack.T
    del stack
    sq = np.diag(gram)
    norms = np.sqrt(sq)
    i, j = pairs
    sq_sum = sq[i] + sq[j]
    d2 = np.maximum(sq_sum - 2.0 * gram[i, j], 0.0)
    dist = 2.0 * np.sqrt(d2) / (norms[i] + norms[j] + 2.0 * eps)
    for k in np.flatnonzero(d2 < EXACT_RECOMPUTE_FRACTION * sq_sum):
        dist[k] = projection_distance(getattr(experts[i[k]], proj), getattr(experts[j[k]], proj), eps)
    return dist


def nearest(table: DistanceTable, cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Per scope row, the nearest candidate column and the distance to it.

    The candidates are the given column indices, or every other expert when
    cols is None. The first minimum wins, so with candidates in ascending
    (layer, index) order ties go to the lowest reference.
    """
    if cols is None:
        if len(table.scope) < 2:
            raise ValueError("nearest neighbor undefined for a singleton scope")
        values = table.values.copy()
        np.fill_diagonal(values, np.inf)
        cols = np.arange(len(table.scope))
    else:
        cols = np.asarray(cols, dtype=np.intp)
        if cols.size == 0:
            raise ValueError("empty candidate set")
        values = table.values[:, cols]
    pos = values.argmin(axis=1)
    return cols[pos], values[np.arange(len(pos)), pos]


def minmax_norm(values, eps: float = DEFAULT_EPS) -> np.ndarray:
    """(x - min) / (max - min + eps) over the whole scope."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("minmax_norm of empty input")
    lo = values.min()
    hi = values.max()
    return (values - lo) / (hi - lo + eps)

