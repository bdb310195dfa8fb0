"""Information fluxes among observable variables.

The flux from a subset of past variables to a future target is the
alternating-sign sum of conditional entropies of the target given every
reduced conditioning set. All terms are marginals of one joint PMF over
(target at +lag, all variables at lag 0), which makes the decomposition
identity  sum(fluxes) + leak = H(target future)  hold by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .discretization import OccupancyWarning, SymbolSeries, _warn_if_sparse, estimate_joint_pmf
from .pmf import JointPMF, _count_codes, _marginal_walk, _weights_entropy
from .signals import SignalMatrix

__all__ = [
    "FluxReport",
    "CausalityMap",
    "information_flux",
    "flux_report",
    "flux_reports",
    "flux_report_from_pmf",
    "causality_map",
    "correlation_map",
]

SUBSET_CAP = 2**20


@dataclass
class FluxReport:
    """All subset fluxes to one target, plus leak and normalizations: each
    flux and the leak as a share of the target's entropy, 0.0 for a target
    with zero entropy, which has nothing to apportion."""

    target: int
    lag: int
    fluxes: dict[tuple[int, ...], float]
    leak: float
    target_entropy: float

    @property
    def normalized(self) -> dict[tuple[int, ...], float]:
        return {s: self._share(t) for s, t in self.fluxes.items()}

    @property
    def normalized_leak(self) -> float:
        return self._share(self.leak)

    def _share(self, bits: float) -> float:
        return bits / self.target_entropy if self.target_entropy else 0.0


def _checked_order(n_variables: int, max_order: int | None, target: int = 0, lag: int = 1) -> int:
    """`max_order` (None: every variable), once the target, the lag, the
    order and the size of the lattice over `n_variables` are checked."""
    if not 0 <= target < n_variables:
        raise ValueError(f"invalid target index {target}")
    if lag < 1:
        raise ValueError("lag must be >= 1")
    order = n_variables if max_order is None else max_order
    if not 1 <= order <= n_variables:
        raise ValueError("max_order out of range")
    n_sets = sum(math.comb(n_variables, k) for k in range(order + 1))
    if n_sets > SUBSET_CAP:
        raise ValueError(f"flux lattice ({n_sets} conditioning sets) exceeds cap {SUBSET_CAP}")
    return order


def _flux_lattice(joint: JointPMF, variables, order: int, target: int = 0, lag: int = 1,
                  present=None):
    """FluxReport of the fluxes to dim 0 of `joint` from every subset of
    `variables` with 1..order members, labelled `target` and `lag`, and the
    {A: H(C)} table it used.

    For each subset A of `variables` with at most `order` members (keyed by
    bitmask; present variable v lives at dim v + 1), C is every present
    variable outside A, and h[A] = H(target | C) = H(target, C) - H(C). Both
    entropy tables come from walks over the joint's tally, on integer
    counts when the joint keeps them. The {A: H(C)} table is then the same,
    bit for bit, for every target of one SymbolSeries (the same rows,
    counted exactly), so a caller holding it passes it as `present`. The
    subsets are closed under removal, so an in-place Moebius transform over
    them turns h[S] into the flux of S and leaves h[empty] = H(target | all
    present variables), the leak.
    """
    cells, weights = joint.codes, (joint.probs if joint.counts is None else joint.counts)
    removable = [v + 1 for v in variables]
    target_stride = math.prod(joint.dims[1:])  # cells % stride zeroes the target digit

    def entropies(cells, weights, dims):
        # the entropy of each marginal, keyed by the summed-out present variables
        return {removed >> 1: _weights_entropy(w)
                for removed, _, w in _marginal_walk(cells, weights, dims, removable, order)}

    if present is None:
        # the present variables' tally; its target digit is always 0, so the
        # walk takes that alphabet as 1 and sizes marginals by present cells
        present = entropies(*_count_codes(cells % target_stride, weights),
                            (1,) + joint.dims[1:])
    h = entropies(cells, weights, joint.dims)
    for m in h:
        h[m] -= present[m]
    leak = h[0]
    for v in variables:
        bit = 1 << v
        for m in h:
            if m & bit:
                h[m] -= h[m ^ bit]
    fluxes = {s: h[sum(1 << v for v in s)]
              for k in range(1, order + 1) for s in combinations(variables, k)}
    target_entropy = _weights_entropy(_count_codes(cells // target_stride, weights)[1])
    return FluxReport(target, lag, fluxes, leak, target_entropy), present


def _fluxes(symbols: SymbolSeries, targets, lag: int, variables, order: int) -> list[FluxReport]:
    """The _flux_lattice report of each of `targets`, `lag` samples on, from
    the subsets of `variables` with 1..order members, all read from one
    joint per target over (target at +lag, every variable at lag 0).

    The {A: H(C)} table of the present variables is computed once and
    shared by every target. The occupancy warning of the joint estimates is
    given once, for the joint with the most occupied cells (they all count
    the same rows), at the line that called the public function calling
    this one."""
    selection = [(v, 0) for v in range(symbols.n_variables)]
    reports, present, occupied = [], None, 0
    for target in targets:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OccupancyWarning)
            joint = estimate_joint_pmf(symbols, [(target, lag)] + selection)
        occupied = max(occupied, joint.support_count)
        report, present = _flux_lattice(joint, variables, order, target, lag, present)
        reports.append(report)
    _warn_if_sparse(occupied, symbols.n_samples - lag, stacklevel=3)
    return reports


def information_flux(symbols: SymbolSeries, target: int, subset, lag: int = 1) -> float:
    """Information flux T (bits) from the past of `subset` to the future of
    variable `target`, `lag` samples on: the information exclusively
    contributed by the joint effect of all subset variables. May be
    negative for odd subset sizes >= 3."""
    _checked_order(symbols.n_variables, 1, target, lag)  # the target and the lag
    subset = tuple(sorted(subset))
    if not subset:
        raise ValueError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset indices must be distinct")
    for v in subset:
        if not 0 <= v < symbols.n_variables:
            raise ValueError(f"invalid variable index {v}")
    _checked_order(len(subset), None)  # the size of the lattice
    return _fluxes(symbols, [target], lag, subset, len(subset))[0].fluxes[subset]


def flux_report(symbols: SymbolSeries, target: int, lag: int = 1,
                max_order: int | None = None) -> FluxReport:
    """Fluxes to variable `target`, `lag` samples on, from every subset of
    up to max_order variables (None: all), leak, and normalizations.

    With max_order == n_variables the report satisfies
    sum(fluxes) + leak == target entropy to machine precision.
    """
    # refuse an oversized lattice before estimating the joint
    order = _checked_order(symbols.n_variables, max_order, target, lag)
    return _fluxes(symbols, [target], lag, range(symbols.n_variables), order)[0]


def flux_reports(symbols: SymbolSeries, lag: int = 1, max_order: int | None = None) -> list[FluxReport]:
    """flux_report of every target variable in turn, equal to it bit for bit,
    with one occupancy warning for them all (see _fluxes)."""
    n = symbols.n_variables
    return _fluxes(symbols, range(n), lag, range(n), _checked_order(n, max_order, lag=lag))


def flux_report_from_pmf(joint: JointPMF, target: int = 0, lag: int = 1, max_order: int | None = None) -> FluxReport:
    """Flux report computed from an exact joint PMF whose dimension 0 is
    the target's future and dimensions 1..N are the present variables.
    `target` and `lag` only label the report."""
    order = _checked_order(joint.ndim - 1, max_order)
    return _flux_lattice(joint, range(joint.ndim - 1), order, target, lag)[0]


@dataclass
class CausalityMap:
    """Subset-to-target flux values for every target.

    values[s, j] is the flux from subsets[s] to target j, also for a
    subset that contains the target.
    """

    order: int
    lag: int
    subsets: list[tuple[int, ...]]
    values: np.ndarray

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
        _check_map_order(order)
        reports = list(reports)
        n = len(reports)
        subsets = [s for k in range(1, order + 1) for s in combinations(range(n), k)]
        values = np.array([[rep.fluxes[s] for rep in reports] for s in subsets])
        return cls(order=order, lag=reports[0].lag, subsets=subsets, values=values)


def _check_map_order(order: int):
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")


def causality_map(symbols: SymbolSeries, lag: int = 1, order: int = 1) -> CausalityMap:
    """Flux from every subset of size <= order to every target variable."""
    _check_map_order(order)  # before any joint is estimated
    n = symbols.n_variables
    reports = _fluxes(symbols, range(n), lag, range(n), _checked_order(n, min(order, n), lag=lag))
    return CausalityMap.from_reports(reports, order)


def correlation_map(signal: SignalMatrix, lag: int = 1) -> np.ndarray:
    """Non-centered lagged cross-correlation baseline C[i, j] from variable i
    at time t to variable j at time t + lag; the legacy 'causality' measure
    the flux map is contrasted against."""
    if lag < 0:
        raise ValueError("lag must be >= 0")
    if lag >= signal.n_samples:
        raise ValueError(f"lag {lag} must be < n_samples = {signal.n_samples}")
    x = signal.values
    norms = np.sqrt((x**2).sum(axis=0))
    if np.any(norms == 0):
        raise ValueError("zero-norm column")
    head = x[: x.shape[0] - lag if lag else None]
    tail = x[lag:]
    return (head.T @ tail) / np.outer(norms, norms)
