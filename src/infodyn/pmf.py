"""Sparse joint probability mass functions over discrete symbol tuples.

A PMF is stored as (support indices, probabilities) rather than a dense
array because downstream subset enumeration builds joints of dimension
M+1, where dense storage (bins**(M+1)) blows up quickly. Rows are counted
by their int64 row-major cell code (`_count_codes`), so estimates and
marginals take memory in proportion to the samples or support rows, not the
cells. The constructor is the one place a support is tallied: every
JointPMF holds distinct rows in lexicographic order, duplicate rows summed.
`_marginal_walk` derives a whole lattice of marginals from one such tally,
each from its parent, without building a JointPMF per marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["JointPMF", "marginalize", "condition"]


@dataclass(frozen=True, eq=False)
class JointPMF:
    """Joint PMF over a tuple of discrete variables.

    dims     -- alphabet size per dimension, stored as a tuple of ints
    indices  -- (n_support, ndim) integer symbol tuples with nonzero mass;
                stored distinct and in lexicographic order, the masses (and
                counts) of rows given more than once summed
    probs    -- (n_support,) probabilities, strictly positive, summing to 1
    edges    -- optional per-dimension bin edges (kept when the PMF came
                from binning a real-valued signal; needed for rescaling)
    counts   -- optional (n_support,) positive integer sample counts that
                `probs` normalizes (kept by `from_counts`); marginal counts
                are exact integer sums, whatever order they are summed in

    Two PMFs are equal when their dims, support rows and probabilities are;
    edges and counts are not compared.
    """

    dims: tuple[int, ...]
    indices: np.ndarray
    probs: np.ndarray
    edges: tuple[np.ndarray, ...] | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        idx = np.atleast_2d(np.asarray(self.indices, dtype=np.int64))
        p = np.asarray(self.probs, dtype=float)
        if idx.shape[0] != p.shape[0]:
            raise ValueError("indices/probs length mismatch")
        if idx.shape[1] != len(self.dims):
            raise ValueError("indices width does not match dims")
        outside = ((idx < 0) | (idx >= np.asarray(self.dims, dtype=np.int64))).any(axis=0)
        if outside.any():
            d = int(np.flatnonzero(outside)[0])
            raise ValueError(f"dimension {d}: index outside [0, {self.dims[d]})")
        if np.any(p <= 0):
            raise ValueError("stored masses must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"total mass {p.sum()} not 1")
        if self.counts is not None:
            c = np.asarray(self.counts)
            if c.shape != p.shape or not np.issubdtype(c.dtype, np.integer) or np.any(c <= 0):
                raise ValueError("counts must be one positive integer per support row")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        codes = _cell_codes(idx.T, self.dims)
        n_cells = math.prod(self.dims)
        cells, p = _count_codes(codes, p, n_cells)
        if self.counts is not None:
            object.__setattr__(self, "counts", _count_codes(codes, c, n_cells)[1])
        object.__setattr__(self, "indices", np.column_stack(np.unravel_index(cells, self.dims)))
        # exact-ish renormalization so the 1e-12 invariant holds downstream
        object.__setattr__(self, "probs", p / p.sum())

    def __eq__(self, other):
        if not isinstance(other, JointPMF):
            return NotImplemented
        return (self.dims == other.dims and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.probs, other.probs))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def support_count(self) -> int:
        return self.indices.shape[0]

    @property
    def mass(self) -> dict[tuple[int, ...], float]:
        """Mapping symbol tuple -> probability (zeros omitted)."""
        return {tuple(row): float(p) for row, p in zip(self.indices, self.probs)}

    @classmethod
    def from_mapping(cls, mapping, dims, edges=None) -> "JointPMF":
        idx = np.array(list(mapping), dtype=np.int64)
        if idx.ndim == 1:
            idx = idx[:, None]
        p = np.array(list(mapping.values()), dtype=float)
        keep = p > 0
        return cls(tuple(dims), idx[keep], p[keep], edges)

    @classmethod
    def from_dense(cls, array, edges=None) -> "JointPMF":
        a = np.asarray(array, dtype=float)
        idx = np.argwhere(a > 0)
        return cls(tuple(a.shape), idx, a[a > 0], edges)

    @classmethod
    def from_counts(cls, indices, counts, dims, edges=None) -> "JointPMF":
        """PMF normalizing `counts`; integer counts are kept as `counts`."""
        counts = np.asarray(counts)
        kept = counts if np.issubdtype(counts.dtype, np.integer) else None
        return cls(tuple(dims), indices, counts / counts.sum(), edges, kept)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dims)
        out[tuple(self.indices.T)] = self.probs
        return out

    def prob(self, symbol) -> float:
        """Mass at one symbol tuple (0 if off-support)."""
        symbol = np.asarray(symbol, dtype=np.int64)
        hit = np.all(self.indices == symbol, axis=1)
        return float(self.probs[hit].sum())


def marginalize(pmf: JointPMF, keep) -> JointPMF:
    """Sum out every dimension not listed in `keep` (order preserved)."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be non-empty")
    if len(set(keep)) != len(keep):
        raise ValueError("keep indices must be distinct")
    for k in keep:
        if not 0 <= k < pmf.ndim:
            raise ValueError(f"invalid dimension index {k}")
    edges = None
    if pmf.edges is not None:
        edges = tuple(pmf.edges[k] for k in keep)
    return JointPMF(tuple(pmf.dims[k] for k in keep), pmf.indices[:, keep], pmf.probs, edges)


def _cell_codes(columns, dims) -> np.ndarray:
    """Row-major int64 cell codes of the tuples zip(*columns) over alphabets
    `dims`; code order is the tuples' lexicographic order."""
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) > np.iinfo(np.int64).max:
        raise ValueError(f"joint over dims {dims} has {math.prod(dims)} cells, more than "
                         "the 2**63-1 that int64 cell codes can index")
    return np.ravel_multi_index(tuple(columns), dims)


def _count_codes(codes, weights=None, n_cells=None):
    """Distinct cell codes in increasing order, each with the summed
    `weights` of its rows (its row count when `weights` is None). Counts
    densely when there are no more cells (`n_cells`) than rows, else by a
    stable sort of the codes, so memory follows the rows. Either way each
    cell's weights are summed one by one in input order, so float totals
    are reproducible; integer or absent weights give exact int64 totals."""
    if n_cells is not None and n_cells <= len(codes):
        totals = np.bincount(codes, weights)
        cells = np.flatnonzero(totals)
        totals = totals[cells]
    else:
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        first = np.concatenate(([True], codes[1:] != codes[:-1]))
        cells = codes[first]
        totals = np.bincount(np.cumsum(first) - 1, None if weights is None else weights[order])
    if weights is None or np.issubdtype(weights.dtype, np.integer):
        totals = totals.astype(np.int64)
    return cells, totals


def _code_tally(pmf: JointPMF):
    """The PMF's support as (int64 cell codes, weights), its codes distinct
    and increasing: the integer counts when the PMF keeps them, else its
    probabilities. `_marginal_walk` starts from it."""
    weights = pmf.counts if pmf.counts is not None else pmf.probs
    return _cell_codes(pmf.indices.T, pmf.dims), weights


def _marginal_walk(cells, weights, dims, removable, depth):
    """Depth-first walk over the marginals of the tally (cells, weights) on
    alphabets `dims` that sum out at most `depth` of the dimensions in
    `removable`. Yields (removed, cells, weights) for each one, with
    `removed` the bitmask of summed-out dimensions and `cells` the codes
    with those digits set to 0: the tally of the kept columns, in
    lexicographic order. A child is counted from its parent's occupied
    cells by zeroing one digit; digits are removed in decreasing order, so
    each subset is reached by one path, and at most depth + 1 tallies are
    alive at a time."""
    strides = [math.prod(dims[d + 1:]) for d in range(len(dims))]
    removable = sorted(removable)

    def walk(cells, weights, removed, below, depth):
        yield removed, cells, weights
        if depth > 0:
            for d in removable:
                if d >= below:
                    break
                s, b = strides[d], dims[d]
                child = _count_codes(cells - cells // s % b * s, weights)
                yield from walk(*child, removed | 1 << d, d, depth - 1)

    yield from walk(cells, weights, 0, len(dims), depth)


def condition(pmf: JointPMF, given) -> JointPMF:
    """Restrict to the event {dim_k = symbol_k for (k, symbol_k) in given},
    renormalize, and drop the conditioned dimensions."""
    given = list(given)
    if not given:
        raise ValueError("given must be non-empty")
    cond_dims = [d for d, _ in given]
    if len(set(cond_dims)) != len(cond_dims):
        raise ValueError("duplicate conditioning dimension")
    mask = np.ones(pmf.support_count, dtype=bool)
    for d, s in given:
        if not 0 <= d < pmf.ndim:
            raise ValueError(f"invalid dimension index {d}")
        mask &= pmf.indices[:, d] == s
    total = pmf.probs[mask].sum()
    if total <= 0:
        raise ValueError("impossible condition: event has zero probability")
    rest = [d for d in range(pmf.ndim) if d not in cond_dims]
    if not rest:
        raise ValueError("cannot condition on every dimension")
    edges = None
    if pmf.edges is not None:
        edges = tuple(pmf.edges[d] for d in rest)
    return JointPMF(
        tuple(pmf.dims[d] for d in rest),
        pmf.indices[mask][:, rest],
        pmf.probs[mask] / total,
        edges,
    )
