"""Sparse joint probability mass functions over discrete symbol tuples.

A PMF is stored as (support cell codes, probabilities) rather than a dense
array because downstream subset enumeration builds joints of dimension
M+1, where dense storage (bins**(M+1)) blows up quickly. A cell's code is
its int64 row-major index (`_cell_codes`), and one kernel, `_count_codes`,
tallies every support: a JointPMF holds distinct codes in increasing order,
duplicate rows summed, in memory that follows the rows, not the cells.
`_marginal_walk` derives a whole lattice of marginals from one such tally,
each from its parent, without building a JointPMF per marginal; count
marginals with no more cells than rows, nor than 1024 per occupied cell,
are held as dense arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["JointPMF", "marginalize"]

DENSE_CELLS_PER_ROOT_CELL = 1024  # the dense tail's bound per occupied cell of the root tally


@dataclass(frozen=True, eq=False, init=False)
class JointPMF:
    """Joint PMF over a tuple of discrete variables.

    dims     -- alphabet size per dimension, stored as a tuple of ints
    codes    -- (n_support,) distinct int64 cell codes, increasing
    probs    -- (n_support,) probabilities, strictly positive, summing to 1
    counts   -- (n_support,) positive integer sample counts that `probs`
                normalizes, or None for a PMF given by its probabilities

    The constructor takes the support as (n_rows, ndim) integer symbol
    tuples in any order, with one weight per row: probabilities that sum
    to 1, or positive integer sample counts. It sums the weights of
    repeated rows; `indices` gives the rows back, in code order. Two PMFs
    are equal when their dims, codes and probabilities are; counts are not
    compared.
    """

    dims: tuple[int, ...]
    codes: np.ndarray
    probs: np.ndarray
    counts: np.ndarray | None

    def __init__(self, dims, indices, weights):
        dims = tuple(int(d) for d in dims)
        idx = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        w = np.asarray(weights)
        if idx.shape[0] != w.shape[0]:
            raise ValueError("indices/weights length mismatch")
        if idx.shape[1] != len(dims):
            raise ValueError("indices width does not match dims")
        outside = ((idx < 0) | (idx >= np.asarray(dims, dtype=np.int64))).any(axis=0)
        if outside.any():
            d = int(np.flatnonzero(outside)[0])
            raise ValueError(f"dimension {d}: index outside [0, {dims[d]})")
        if np.any(w <= 0):
            raise ValueError("stored weights must be strictly positive")
        if not np.issubdtype(w.dtype, np.integer):  # integer weights are counts
            w = w.astype(float)
            if abs(w.sum() - 1.0) > 1e-9:
                raise ValueError(f"total mass {w.sum()} not 1")
        self._tally(dims, _cell_codes(idx.T, dims), w)

    @classmethod
    def _from_codes(cls, dims, codes, weights=None) -> "JointPMF":
        """PMF of the rows with cell codes `codes` over `dims` (see _tally)."""
        pmf = object.__new__(cls)
        pmf._tally(tuple(int(d) for d in dims), codes, weights)
        return pmf

    def _tally(self, dims, codes, weights=None):
        """Store the distinct `codes`, increasing, with their rows' summed
        `weights`: float masses, or integer counts (one per row when
        `weights` is None) kept as `counts` and normalized into `probs`."""
        cells, totals = _count_codes(codes, weights, math.prod(dims))
        counts = totals if totals.dtype == np.int64 else None
        probs = totals if counts is None else counts / counts.sum()
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "codes", cells)
        # exact-ish renormalization so the 1e-12 invariant holds downstream
        object.__setattr__(self, "probs", probs / probs.sum())
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other):
        if not isinstance(other, JointPMF):
            return NotImplemented
        return (self.dims == other.dims and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.probs, other.probs))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def support_count(self) -> int:
        return self.codes.shape[0]

    @property
    def indices(self) -> np.ndarray:
        return np.column_stack(np.unravel_index(self.codes, self.dims))

    @property
    def mass(self) -> dict[tuple[int, ...], float]:
        """Mapping symbol tuple -> probability (zeros omitted)."""
        return {tuple(row): float(p) for row, p in zip(self.indices, self.probs)}

    @classmethod
    def from_mapping(cls, mapping, dims) -> "JointPMF":
        idx = np.array(list(mapping), dtype=np.int64)
        if idx.ndim == 1:
            idx = idx[:, None]
        p = np.array(list(mapping.values()), dtype=float)
        keep = p > 0
        return cls(tuple(dims), idx[keep], p[keep])

    @classmethod
    def from_dense(cls, array) -> "JointPMF":
        a = np.asarray(array, dtype=float)
        idx = np.argwhere(a > 0)
        return cls(tuple(a.shape), idx, a[a > 0])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(math.prod(self.dims))
        out[self.codes] = self.probs
        return out.reshape(self.dims)


def _digits(codes, dims, keep) -> list[np.ndarray]:
    """The symbols of dimensions `keep` in the cells `codes` over `dims`."""
    return [codes // math.prod(dims[d + 1:]) % dims[d] for d in keep]


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
    dims = tuple(pmf.dims[k] for k in keep)
    return JointPMF._from_codes(dims, _cell_codes(_digits(pmf.codes, pmf.dims, keep), dims),
                                pmf.probs)


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
    sort of the codes, so memory follows the rows. Float weights are summed
    one by one in input order (the sort is stable), so float totals are
    reproducible; integer or absent weights give exact int64 totals, which
    no order of equal codes changes, so their sort need not be stable."""
    exact = weights is None or np.issubdtype(weights.dtype, np.integer)
    if n_cells is not None and n_cells <= len(codes):
        totals = np.bincount(codes, weights)
        cells = np.flatnonzero(totals)
        totals = totals[cells]
    else:
        if weights is None:
            codes = np.sort(codes)
        else:
            order = np.argsort(codes, kind=None if exact else "stable")
            codes, weights = codes[order], weights[order]
        first = np.concatenate(([True], codes[1:] != codes[:-1]))
        cells = codes[first]
        totals = np.bincount(np.cumsum(first) - 1, weights)
    if exact:
        totals = totals.astype(np.int64)
    return cells, totals


def _weights_entropy(weights) -> float:
    """Entropy (bits) of the distribution proportional to positive `weights`
    (counts or masses): -sum(p log2 p) with p = weights / sum(weights). A
    single cell has entropy +0.0 (0.0 - 0.0, where negating would give -0.0)."""
    p = weights / np.add.reduce(weights)
    return float(0.0 - np.add.reduce(p * np.log2(p)))


def _marginal_walk(cells, weights, dims, removable, depth):
    """Depth-first walk over the marginals of the tally (cells, weights) on
    alphabets `dims` that sum out at most `depth` of the dimensions in
    `removable`. Yields (removed, cells, weights) for each one, with
    `removed` the bitmask of summed-out dimensions and (cells, weights) the
    tally of the kept columns: `cells` their codes over their own
    alphabets, increasing. Digits are removed in decreasing order, so each
    subset is reached by one path, dimension d is still axis d of its
    parent, and at most depth + 1 tallies are alive at a time.

    A child is counted from its parent's occupied cells with digit d taken
    out of the codes. Integer counts sum exactly in any order, so a count
    marginal with no more cells than the tally counts rows (the rule of
    `_count_codes`), nor than DENSE_CELLS_PER_ROOT_CELL per occupied cell
    of the tally, is held as a dense array, and each of its children is
    one axis sum; its nonzero entries in row-major order are the sparse
    tally, in code order. Float masses keep the sparse walk, whose sums
    are ordered."""
    removable = sorted(removable)
    dense_cells = (min(int(weights.sum()), DENSE_CELLS_PER_ROOT_CELL * len(weights))
                   if np.issubdtype(weights.dtype, np.integer) else -1)

    def children(shape, below):
        """(d, prod(shape[:d]), prod(shape[d + 1:])) of each digit d to remove."""
        for d in removable:
            if d >= below:
                break
            yield d, math.prod(shape[:d]), math.prod(shape[d + 1:])

    def tally(codes, weights, shape, removed, below, depth):
        n_cells = math.prod(shape)
        if n_cells <= dense_cells:
            counts = np.bincount(codes, weights, n_cells).astype(np.int64)
            return dense(counts, shape, removed, below, depth)
        return sparse(*_count_codes(codes, weights), shape, removed, below, depth)

    def sparse(cells, weights, shape, removed, below, depth):
        yield removed, cells, weights
        if depth > 0:
            for d, _, s in children(shape, below):
                codes = cells // (s * shape[d]) * s + cells % s
                yield from tally(codes, weights, shape[:d] + shape[d + 1:], removed | 1 << d, d,
                                 depth - 1)

    def dense(counts, shape, removed, below, depth):
        cells = counts.nonzero()[0]
        yield removed, cells, counts[cells]
        if depth > 0:
            for d, a, c in children(shape, below):
                # einsum sums axis d in one pass however few cells follow it,
                # where ndarray.sum(axis=d) slows down several times
                child = np.einsum("abc->ac", counts.reshape(a, shape[d], c)).reshape(-1)
                yield from dense(child, shape[:d] + shape[d + 1:], removed | 1 << d, d, depth - 1)

    dims = tuple(dims)
    root = tally if math.prod(dims) <= dense_cells else sparse  # a sparse root is a tally already
    yield from root(cells, weights, dims, 0, len(dims), depth)
