"""Normalized expert distances and scope-level geometry helpers.

Each projection distance is a norm-balanced relative Frobenius distance in
[0, 2); the expert distance averages it over the gate/up/down projections.
A scope's table reuses one float64 stack, one Gram and one running total
for the three projections, and turns each Gram into distances in place,
ROW_BLOCK rows at a time. The Gram is computed whole, by one SYRK call,
because that makes it, and so the table, exactly symmetric. nearest reads
the table ROW_BLOCK rows at a time too, and never copies it whole.
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
    stack = np.empty((len(rows), rows[0].shape[1]))
    gram = np.empty((len(rows), len(rows)))
    total = np.zeros_like(gram)
    for k in range(len(PROJECTIONS)):
        total += _projection_distances([row[k] for row in rows], stack, gram)
    total /= len(PROJECTIONS)
    return DistanceTable(scope=scope, values=total)


# A pair whose Gram-expanded squared distance falls below this fraction of
# ||a||^2 + ||b||^2 has lost most of its significant bits to cancellation.
# It is recomputed by exact difference, so bitwise-equal projections are
# exactly 0.0 and near-duplicates are never ranked by rounding noise.
EXACT_RECOMPUTE_FRACTION = 1e-6
ROW_BLOCK = 128  # table rows computed, or queried by nearest, at a time


def _projection_distances(flat: list[np.ndarray], stack: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """projection_distance of one projection, given per expert as a flat
    row, between every two experts, written over gram, via ||a - b||^2 =
    ||a||^2 + ||b||^2 - 2<a, b>. Each Gram entry equals its mirror, and
    a diagonal d2 is 2||a||^2 - 2||a||^2 = 0. A pair lost to cancellation is
    recomputed after the last block, as its mirror is still a Gram entry."""
    np.stack(flat, out=stack)
    np.matmul(stack, stack.T, out=gram)
    sq = np.diag(gram).copy()  # not a view: the blocks overwrite the diagonal
    norms = np.sqrt(sq)
    close = []
    for r in range(0, len(sq), ROW_BLOCK):
        block, s = gram[r:r + ROW_BLOCK], sq[r:r + ROW_BLOCK, None] + sq
        np.subtract(s, 2.0 * block, out=block)
        np.maximum(block, 0.0, out=block)
        i, j = np.nonzero(block < EXACT_RECOMPUTE_FRACTION * s)
        close.append((i[j > i + r] + r, j[j > i + r]))
        np.sqrt(block, out=block)
        block *= 2.0
        block /= norms[r:r + ROW_BLOCK, None] + norms + 2.0 * EPS
    for i, j in zip(*np.concatenate(close, axis=1)):
        gram[i, j] = gram[j, i] = projection_distance(flat[i], flat[j])
    return gram


def nearest(table: DistanceTable, cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Per scope row, the nearest candidate column and the distance to it.

    The candidates are the given column indices, or every other expert when
    cols is None. The first minimum wins, so with candidates in ascending
    (layer, index) order ties go to the lowest reference. Each block of
    rows is a private copy, so the table is never written.
    """
    n = len(table.scope)
    if cols is None:
        if n < 2:
            raise ValueError("nearest neighbor undefined for a singleton scope")
        take = slice(None)  # a slice: gathering by arange(n) is ~4x slower
    else:
        take = cols = np.asarray(cols, dtype=np.intp)
        if cols.size == 0:
            raise ValueError("empty candidate set")
    pos = np.empty(n, dtype=np.intp)
    for r in range(0, n, ROW_BLOCK):
        block = table.values[r:r + ROW_BLOCK, take].copy()
        if cols is None:
            np.fill_diagonal(block[:, r:], np.inf)  # each row's own column
        pos[r:r + ROW_BLOCK] = block.argmin(axis=1)
    hit = pos if cols is None else cols[pos]
    return hit, table.values[np.arange(n), hit]


def minmax_norm(values) -> np.ndarray:
    """(x - min) / (max - min + EPS) over the whole scope."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("minmax_norm of empty input")
    lo = values.min()
    hi = values.max()
    return (values - lo) / (hi - lo + EPS)

