"""Phase-space partitioning of real-valued signals and plug-in PMF
estimation from symbol co-occurrence counts."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .params import SCHEMES
from .pmf import JointPMF, _cell_codes
from .signals import SignalMatrix

__all__ = ["PartitionSpec", "SymbolSeries", "OccupancyWarning", "discretize", "estimate_joint_pmf"]

DEFAULT_BINS = 8


@dataclass(frozen=True)
class PartitionSpec:
    """Finite partition of each variable's range into disjoint cells.

    scheme             -- "equiprobable-quantile" (default), "uniform-width",
                          or "explicit-edges"
    bins_per_variable  -- int or per-variable list of bin counts
    edges              -- per-variable edge arrays for "explicit-edges"
    """

    scheme: str = "equiprobable-quantile"
    bins_per_variable: int | tuple[int, ...] = DEFAULT_BINS
    edges: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "explicit-edges":
            if self.edges is None:
                raise ValueError("explicit-edges scheme requires edges")
            for e in self.edges:
                e = np.asarray(e, dtype=float)
                if e.size < 3:
                    raise ValueError("each edge list needs at least 2 bins")
                if not np.all(np.diff(e) > 0):  # NaN edges fail it too
                    raise ValueError("edges must be strictly increasing")
        else:
            for b in np.atleast_1d(self.bins_per_variable):
                if int(b) < 2:
                    raise ValueError("need at least 2 bins per variable")

    def bins_for(self, n_variables: int) -> list[int]:
        if self.scheme == "explicit-edges":
            if len(self.edges) != n_variables:
                raise ValueError("edges count does not match variable count")
            return [len(e) - 1 for e in self.edges]
        b = self.bins_per_variable
        if np.isscalar(b):
            return [int(b)] * n_variables
        if len(b) != n_variables:
            raise ValueError("bins_per_variable length does not match variable count")
        return [int(x) for x in b]


@dataclass(frozen=True, eq=False)
class SymbolSeries:
    """Integer symbol codes, one column per variable; compared by identity."""

    codes: np.ndarray
    alphabet: tuple[int, ...]

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.codes, dtype=np.int64))
        if c.shape[1] != len(self.alphabet):
            raise ValueError("alphabet length does not match column count")
        for v, a in enumerate(self.alphabet):
            col = c[:, v]
            if col.min() < 0 or col.max() >= a:
                raise ValueError(f"variable {v}: code outside [0, {a})")
        object.__setattr__(self, "codes", c)
        object.__setattr__(self, "alphabet", tuple(self.alphabet))

    @property
    def n_samples(self) -> int:
        return self.codes.shape[0]

    @property
    def n_variables(self) -> int:
        return self.codes.shape[1]


def _quantile_codes(x: np.ndarray, n_bins: int) -> np.ndarray:
    # Equal-count binning via stable rank: ties broken by sample order so
    # repeated values fill lower bins first, and any strictly increasing
    # transform of x yields identical codes. Without ties every sort gives
    # that rank, so the stable one runs only when neighbours in sorted
    # order are not strictly increasing.
    if x.max() == x.min():
        raise ValueError("degenerate variable: constant column under quantile scheme")
    order = np.argsort(x)
    ranked = x[order]
    if not (ranked[1:] > ranked[:-1]).all():
        order = np.argsort(x, kind="stable")
    codes = np.empty(x.shape[0], dtype=np.int64)
    codes[order] = np.arange(x.shape[0], dtype=np.int64) * n_bins // x.shape[0]
    return codes


def _edge_codes(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # half-open cells [e_k, e_{k+1}), top cell closed; samples out of range
    # fall into the end cells (NaN into the top one). Searching the inner
    # edges is clip(searchsorted(edges, x, "right") - 1, 0, len(edges) - 2)
    # in one pass.
    return np.searchsorted(edges[1:-1], x, side="right")


def discretize(signal: SignalMatrix, spec: PartitionSpec | None = None) -> SymbolSeries:
    """Map each variable to integer bin codes under the partition spec."""
    spec = spec or PartitionSpec()
    bins = spec.bins_for(signal.n_variables)
    cols = []
    for v in range(signal.n_variables):
        x = signal.values[:, v]
        if spec.scheme == "equiprobable-quantile":
            cols.append(_quantile_codes(x, bins[v]))
        elif spec.scheme == "uniform-width":
            edges = np.linspace(x.min(), x.max(), bins[v] + 1)
            if edges[0] == edges[-1]:
                cols.append(np.zeros(x.shape[0], dtype=np.int64))
            else:
                cols.append(_edge_codes(x, edges))
        else:
            cols.append(_edge_codes(x, np.asarray(spec.edges[v], dtype=float)))
    return SymbolSeries(np.column_stack(cols), tuple(bins))


class OccupancyWarning(UserWarning):
    """A joint PMF estimated with more occupied cells than 10% of its samples."""


def _warn_if_sparse(occupied: int, n_samples: int, stacklevel: int):
    """OccupancyWarning when `occupied` cells exceed 10% of `n_samples`
    (over 100). `stacklevel` is that of warnings.warn as seen from the
    function calling this one."""
    if occupied > 0.1 * n_samples and n_samples > 100:
        warnings.warn(
            f"occupied cells ({occupied}) exceed 10% of sample count "
            f"({n_samples}); PMF estimate may be unreliable",
            OccupancyWarning,
            stacklevel=stacklevel + 1,
        )


def estimate_joint_pmf(symbols: SymbolSeries, selection) -> JointPMF:
    """Plug-in joint PMF over lagged symbol tuples, keeping its integer
    counts.

    `selection` is a list of (variable_index, time_lag) pairs; the joint is
    estimated from the tuples (codes[t + lag_1, v_1], ...) over all t for
    which every lagged index is valid.
    """
    selection = list(selection)
    if not selection:
        raise ValueError("selection must be non-empty")
    max_lag = max(lag for _, lag in selection)
    if min(lag for _, lag in selection) < 0:
        raise ValueError("lags must be >= 0")
    n_valid = symbols.n_samples - max_lag
    if n_valid < 1:
        raise ValueError(f"max lag {max_lag} leaves no valid samples")
    dims = []
    cols = []
    for v, lag in selection:
        if not 0 <= v < symbols.n_variables:
            raise ValueError(f"invalid variable index {v}")
        dims.append(symbols.alphabet[v])
        cols.append(symbols.codes[lag : lag + n_valid, v])
    pmf = JointPMF._from_codes(dims, _cell_codes(cols, dims))
    _warn_if_sparse(pmf.support_count, n_valid, stacklevel=2)
    return pmf
