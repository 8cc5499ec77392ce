"""Normalized expert distances and scope-level geometry helpers.

Each projection distance is a norm-balanced relative Frobenius distance in
[0, 2); the expert distance averages it over the gate/up/down projections.
A DistanceTable checks its scope and shape when built; distance_matrix checks
its slots by model.check_slots and fills it from one float64 stack and one
Gram, turned into distances in place ROW_BLOCK rows at a time, per
projection. The stack holds at most STACK_BYTES of a projection's columns;
each block's Gram is one exactly symmetric SYRK call, so the table is too.
nearest reads the table ROW_BLOCK rows at a time and never copies it whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PROJECTIONS, MoEModel, Ref, check_slots

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
    scope: list[Ref]          # non-empty, strictly ascending (layer, index); checked on construction
    values: np.ndarray        # (n, n), checked on construction; symmetric, zero diagonal
    _index: dict[Ref, int] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.scope:
            raise ValueError("empty scope: a distance table needs at least one expert")
        for prev, ref in zip(self.scope, self.scope[1:]):
            if not prev < ref:
                raise ValueError(f"expert {ref} {'repeated in' if ref == prev else 'out of order in'} scope")
        if np.shape(self.values) != (len(self.scope),) * 2:
            raise ValueError(f"distance values of shape {np.shape(self.values)} for {len(self.scope)} experts")
        self._index = {ref: i for i, ref in enumerate(self.scope)}

    def index_of(self, ref: Ref) -> int:
        try:
            return self._index[ref]
        except KeyError:
            raise ValueError(f"expert {ref} not in scope") from None


def distance_matrix(model: MoEModel, scope: list[Ref]) -> DistanceTable:
    """Full pairwise table: the mean over the projections of each one's
    (n, n) distances. Symmetric with a zero diagonal by construction."""
    table = DistanceTable(scope=sorted(scope), values=np.zeros((len(scope), len(scope))))
    check_slots(table.scope, (model.spec.num_layers, model.spec.num_experts))
    rows = [model.row(ref) for ref in table.scope]
    n, width = len(rows), rows[0].shape[1]
    cols = max(1, STACK_BYTES // (8 * n))
    if cols + n >= width:  # a block and a partial would hold no less than the whole stack
        cols = width
    stack = np.empty(n * cols)
    gram = np.empty((n, n))
    for k in range(len(PROJECTIONS)):
        table.values += _projection_distances([row[k] for row in rows], stack, gram)
    table.values /= len(PROJECTIONS)
    return table


# A pair whose Gram-expanded squared distance falls below this fraction of
# ||a||^2 + ||b||^2 has lost most of its significant bits to cancellation.
# It is recomputed by exact difference, so bitwise-equal projections are
# exactly 0.0 and near-duplicates are never ranked by rounding noise.
EXACT_RECOMPUTE_FRACTION = 1e-6
ROW_BLOCK = 128  # table rows computed, or queried by nearest, at a time
STACK_BYTES = 8 * 2**20  # the float64 stack: a projection's columns cast at a time


def _projection_distances(flat: list[np.ndarray], stack: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """projection_distance of one projection, given per expert as a flat
    row, between every two experts, written over gram, via ||a - b||^2 =
    ||a||^2 + ||b||^2 - 2<a, b>. The rows are cast into the flat stack
    len(stack) // n columns at a time: the first block's Gram is written to
    gram, and each later block's to one (n, n) partial, added to gram. Each
    block's Gram is one SYRK call and exactly symmetric, so is their sum,
    and a diagonal d2 is 2||a||^2 - 2||a||^2 = 0. A pair lost to
    cancellation is recomputed after the last row block, as its mirror is
    still a Gram entry."""
    n, width = len(flat), flat[0].size
    cols = len(stack) // n
    partial = None
    for c in range(0, width, cols):
        block = stack[:n * min(cols, width - c)].reshape(n, -1)
        np.stack([row[c:c + cols] for row in flat], out=block)
        if c == 0:
            np.matmul(block, block.T, out=gram)
        else:
            partial = np.matmul(block, block.T, out=partial)
            gram += partial
    sq = np.diag(gram).copy()  # not a view: the row blocks overwrite the diagonal
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
        if cols.min() < 0 or cols.max() >= n:
            raise ValueError(f"candidate columns [{cols.min()}, {cols.max()}] outside a scope of {n} experts")
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

