"""Normalized expert distances and scope-level geometry helpers.

Each projection distance is a norm-balanced relative Frobenius distance in
[0, 2); the expert distance averages it over the gate/up/down projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PROJECTIONS, MoEModel, Ref

# Stabiliser of every ratio (distances, min-max scores, relative errors).
EPS = 1e-8


def projection_distance(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError("projection shape mismatch")
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    num = 2.0 * np.linalg.norm(a64 - b64)
    den = np.linalg.norm(a64) + np.linalg.norm(b64) + 2.0 * EPS
    return float(num / den)


@dataclass
class DistanceTable:
    scope: list[Ref]          # ascending (layer, index)
    values: np.ndarray        # symmetric, zero diagonal
    _index: dict[Ref, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {ref: i for i, ref in enumerate(self.scope)}

    def index_of(self, ref: Ref) -> int:
        try:
            return self._index[ref]
        except KeyError:
            raise ValueError(f"expert {ref} not in scope") from None


def distance_matrix(model: MoEModel, scope: list[Ref]) -> DistanceTable:
    """Full pairwise table: the mean over the projections of each one's
    (n, n) distances. Symmetric with a zero diagonal by construction."""
    if not scope:
        raise ValueError("empty scope: a distance table needs at least one expert")
    scope = sorted(scope)
    rows = [model.row(ref) for ref in scope]
    total = sum(_projection_distances([row[k] for row in rows]) for k in range(len(PROJECTIONS)))
    return DistanceTable(scope=scope, values=total / len(PROJECTIONS))


# A pair whose Gram-expanded squared distance falls below this fraction of
# ||a||^2 + ||b||^2 has lost most of its significant bits to cancellation.
# It is recomputed by exact difference, so bitwise-equal projections are
# exactly 0.0 and near-duplicates are never ranked by rounding noise.
EXACT_RECOMPUTE_FRACTION = 1e-6


def _projection_distances(flat: list[np.ndarray]) -> np.ndarray:
    """projection_distance of one projection, given per expert as a flat
    row, between every two experts: one (n, n) expression over the Gram of
    a float64 stack, via ||a - b||^2 = ||a||^2 + ||b||^2 - 2<a, b>. The Gram
    of a stack with itself is exactly symmetric (one SYRK call), so each
    entry equals its mirror and a diagonal d2 is 2||a||^2 - 2||a||^2 = 0."""
    stack = np.stack(flat, dtype=np.float64)
    gram = stack @ stack.T
    del stack
    sq = np.diag(gram).copy()  # not a view, so that del gram frees the Gram
    norms = np.sqrt(sq)
    d2 = np.maximum(sq[:, None] + sq - 2.0 * gram, 0.0)
    del gram
    close = np.triu(d2 < EXACT_RECOMPUTE_FRACTION * (sq[:, None] + sq), 1)
    dist = 2.0 * np.sqrt(d2) / (norms[:, None] + norms + 2.0 * EPS)
    for i, j in zip(*np.nonzero(close)):
        dist[i, j] = dist[j, i] = projection_distance(flat[i], flat[j])
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


def minmax_norm(values) -> np.ndarray:
    """(x - min) / (max - min + EPS) over the whole scope."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("minmax_norm of empty input")
    lo = values.min()
    hi = values.max()
    return (values - lo) / (hi - lo + EPS)

