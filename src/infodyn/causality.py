"""Information fluxes among observable variables.

The flux from a subset of past variables to a future target is the
alternating-sign sum of conditional entropies of the target given every
reduced conditioning set. All terms are marginals of one joint PMF over
(target at +lag, all variables at lag 0), which makes the decomposition
identity  sum(fluxes) + leak = H(target future)  hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import infocore
from .discretization import SymbolSeries, estimate_joint_pmf
from .pmf import JointPMF
from .signals import SignalMatrix

__all__ = [
    "FluxQuery",
    "FluxReport",
    "CausalityMap",
    "information_flux",
    "information_leak",
    "flux_report",
    "flux_report_from_pmf",
    "causality_map",
    "correlation_map",
]

SUBSET_CAP = 2**20


@dataclass(frozen=True)
class FluxQuery:
    """Target variable, lag (in samples), and maximum subset order."""

    symbols: SymbolSeries
    target: int
    lag: int = 1
    max_order: int | None = None

    def __post_init__(self):
        if not 0 <= self.target < self.symbols.n_variables:
            raise ValueError(f"invalid target index {self.target}")
        if self.lag < 1:
            raise ValueError("lag must be >= 1")
        order = self.max_order if self.max_order is not None else self.symbols.n_variables
        if not 1 <= order <= self.symbols.n_variables:
            raise ValueError("max_order out of range")
        object.__setattr__(self, "max_order", order)


@dataclass
class FluxReport:
    """All subset fluxes to one target, plus leak and normalizations."""

    target: int
    lag: int
    fluxes: dict[tuple[int, ...], float]
    leak: float
    target_entropy: float

    @property
    def normalized(self) -> dict[tuple[int, ...], float]:
        return {s: t / self.target_entropy for s, t in self.fluxes.items()}

    @property
    def normalized_leak(self) -> float:
        return self.leak / self.target_entropy


def _check_lattice_size(n_variables: int, order: int):
    n_sets = sum(comb(n_variables, k) for k in range(order + 1))
    if n_sets > SUBSET_CAP:
        raise ValueError(f"flux lattice ({n_sets} conditioning sets) exceeds cap {SUBSET_CAP}")


def _flux_lattice(joint: JointPMF, variables, order: int):
    """Fluxes to dim 0 of `joint` from every subset of `variables` with
    1..order members (present variable v lives at dim v + 1), and the leak.

    For each subset A (keyed by bitmask) h[A] = H(target | every present
    variable outside A) is computed once. These subsets are closed under
    removal, so an in-place Moebius transform over them turns h[S] into the
    flux of S and leaves h[empty] = H(target | all present variables), the
    leak.
    """
    _check_lattice_size(len(variables), order)
    n = joint.ndim - 1
    subsets = [s for k in range(order + 1) for s in combinations(variables, k)]
    masks = [sum(1 << v for v in s) for s in subsets]
    h = {m: infocore.conditional_entropy(joint, [0], [v + 1 for v in range(n) if not m >> v & 1])
         for m in masks}
    leak = h[0]
    for v in variables:
        bit = 1 << v
        for m in h:
            if m & bit:
                h[m] -= h[m ^ bit]
    return {s: h[m] for s, m in zip(subsets[1:], masks[1:])}, leak


def _joint(query: FluxQuery) -> JointPMF:
    selection = [(query.target, query.lag)] + [(v, 0) for v in range(query.symbols.n_variables)]
    return estimate_joint_pmf(query.symbols, selection)


def information_flux(query: FluxQuery, subset) -> float:
    """Information flux T (bits) from the past of `subset` to the target's
    future: the information exclusively contributed by the joint effect of
    all subset variables. May be negative for odd subset sizes >= 3."""
    subset = tuple(sorted(subset))
    if not subset:
        raise ValueError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset indices must be distinct")
    for v in subset:
        if not 0 <= v < query.symbols.n_variables:
            raise ValueError(f"invalid variable index {v}")
    return _flux_lattice(_joint(query), subset, len(subset))[0][subset]


def information_leak(query: FluxQuery) -> float:
    """H(target future | all present variables): information in the target's
    future unexplained by every observed variable."""
    return _flux_lattice(_joint(query), (), 0)[1]


def flux_report(query: FluxQuery) -> FluxReport:
    """Fluxes from every subset up to max_order, leak, and normalizations.

    With max_order == n_variables the report satisfies
    sum(fluxes) + leak == target entropy to machine precision.
    """
    # refuse an oversized lattice before estimating the joint
    _check_lattice_size(query.symbols.n_variables, query.max_order)
    return flux_report_from_pmf(_joint(query), query.target, query.lag, query.max_order)


def flux_report_from_pmf(joint: JointPMF, target: int = 0, lag: int = 1, max_order: int | None = None) -> FluxReport:
    """Flux report computed from an exact joint PMF whose dimension 0 is
    the target's future and dimensions 1..N are the present variables.
    `target` and `lag` only label the report."""
    n = joint.ndim - 1
    fluxes, leak = _flux_lattice(joint, tuple(range(n)), n if max_order is None else max_order)
    return FluxReport(
        target=target,
        lag=lag,
        fluxes=fluxes,
        leak=leak,
        target_entropy=infocore.entropy(joint, [0]),
    )


@dataclass
class CausalityMap:
    """Subset-to-target flux values for every target.

    values[s, j] is the flux from subsets[s] to target j. self_flux marks
    entries whose subset contains the target; they are computed and stored,
    masking is purely a display concern.
    """

    order: int
    lag: int
    subsets: list[tuple[int, ...]]
    values: np.ndarray
    self_flux: np.ndarray

    def to_matrix(self) -> np.ndarray:
        """(n_vars, n_vars) matrix of singleton fluxes T_{i -> j}."""
        n = self.values.shape[1]
        out = np.full((n, n), np.nan)
        for s, subset in enumerate(self.subsets):
            if len(subset) == 1:
                out[subset[0], :] = self.values[s, :]
        return out

    @classmethod
    def from_reports(cls, reports, order: int) -> "CausalityMap":
        """Map read from one FluxReport per target, in target order, each
        holding every subset of size <= order. `reports` may be a generator:
        it is consumed only after `order` is checked."""
        if order not in (1, 2, 3):
            raise ValueError("order must be 1, 2, or 3")
        reports = list(reports)
        n = len(reports)
        subsets = [s for k in range(1, order + 1) for s in combinations(range(n), k)]
        values = np.array([[rep.fluxes[s] for rep in reports] for s in subsets])
        self_flux = np.array([[j in subset for j in range(n)] for subset in subsets])
        return cls(order=order, lag=reports[0].lag, subsets=subsets, values=values, self_flux=self_flux)


def causality_map(symbols: SymbolSeries, lag: int = 1, order: int = 1) -> CausalityMap:
    """Flux from every subset of size <= order to every target variable."""
    n = symbols.n_variables
    reports = (flux_report(FluxQuery(symbols, target=j, lag=lag, max_order=min(order, n)))
               for j in range(n))
    return CausalityMap.from_reports(reports, order)


def correlation_map(signal: SignalMatrix, lag: int = 1) -> np.ndarray:
    """Non-centered lagged cross-correlation baseline C[i, j] from variable i
    at time t to variable j at time t + lag; the legacy 'causality' measure
    the flux map is contrasted against."""
    if lag < 0:
        raise ValueError("lag must be >= 0")
    x = signal.values
    norms = np.sqrt((x**2).sum(axis=0))
    if np.any(norms == 0):
        raise ValueError("zero-norm column")
    head = x[: x.shape[0] - lag if lag else None]
    tail = x[lag:]
    return (head.T @ tail) / np.outer(norms, norms)
