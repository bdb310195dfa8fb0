"""Information-theoretic bounds on reduced-order model error and KL-based
parameter fitting.

The bounds relate the mutual information between a truth variable and its
model prediction to the smallest achievable error probability (a
generalized Fano inequality), the expected error magnitude (via Markov's
inequality), and the L1 distance between their distributions (Pinsker).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import infocore
from .descent import minimize
from .discretization import (PartitionSpec, SymbolSeries, _warn_if_sparse, discretize,
                             estimate_joint_pmf)
from .pmf import JointPMF

__all__ = [
    "ModelAssessment",
    "ModelParams",
    "fano_error_probability_bound",
    "expected_error_lower_bound",
    "pinsker_statistical_bound",
    "kl_descent",
    "kl_fit",
    "AffineNoise",
    "ml_equivalence_check",
    "MLEquivalenceReport",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ModelAssessment:
    """Inputs to the error bounds: entropy of the truth variable, mutual
    information between truth and model prediction, error tolerance epsilon,
    partition cell size delta_q, and state count n_states."""

    truth_entropy: float
    model_mutual_info: float
    epsilon: float
    delta_q: float
    n_states: int

    def __post_init__(self):
        if self.epsilon <= 0 or self.delta_q <= 0:
            raise ValueError("epsilon and delta_q must be positive")
        if self.n_states < 2:
            raise ValueError("need at least 2 states")
        if self.epsilon / self.delta_q >= self.n_states:
            raise ValueError("tolerance exceeds state space")


@dataclass(frozen=True)
class ModelParams:
    """Coefficient vector of a parametric model with per-coefficient
    closed-interval bounds."""

    theta: np.ndarray
    bounds: np.ndarray | None = None

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.theta, dtype=float))
        b = None
        if self.bounds is not None:
            b = np.asarray(self.bounds, dtype=float).reshape(-1, 2)
            if b.shape[0] != t.size:
                raise ValueError("bounds shape does not match theta")
            if np.any(t < b[:, 0]) or np.any(t > b[:, 1]):
                raise ValueError("theta outside bounds")
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "bounds", b)


def _fano_raw(a: ModelAssessment) -> float:
    log_ratio = math.log2(a.epsilon / a.delta_q)
    denom = math.log2(a.n_states) - log_ratio
    if denom <= 0:
        raise ValueError("tolerance exceeds state space")
    return (a.truth_entropy - a.model_mutual_info - log_ratio - 1.0) / denom


def fano_error_probability_bound(a: ModelAssessment) -> float:
    """Lower bound on the probability that the model errs by more than
    epsilon, clamped into [0, 1]."""
    return min(1.0, max(0.0, _fano_raw(a)))


def expected_error_lower_bound(a: ModelAssessment) -> float:
    """Lower bound on E[|truth - prediction|] in state units: epsilon times
    the unclamped-above Fano bound (Markov's inequality)."""
    return a.epsilon * max(0.0, _fano_raw(a))


def pinsker_statistical_bound(p: JointPMF, q: JointPMF) -> float:
    """sqrt(2 ln2 * KL(p, q)); an upper bound on the L1 distance |p - q|_1.
    Infinite when the KL divergence is (support mismatch)."""
    kl = infocore.kl_divergence(p, q)
    if math.isinf(kl):
        return float("inf")
    return math.sqrt(2.0 * LN2 * kl)


def kl_descent(model_pmf, reference: JointPMF, init: ModelParams, options=None):
    """Fit model parameters by descending KL(reference, model_pmf(theta)).

    model_pmf maps a theta vector to a JointPMF on the reference's
    partition and must be deterministic (common random numbers keep the
    finite-difference gradient meaningful); it is evaluated only within
    init.bounds. options: tol (default 1e-6 bits), max_iters (200), epsilon
    (KL floor for off-support cells, default None = infinite KL
    propagates), initial_step (0.05). Returns (ModelParams at the best-seen
    theta, trace).
    """
    options = options or {}
    # the search options given go through to minimize, which defaults the rest
    search = {k: options[k] for k in ("tol", "max_iters", "initial_step") if k in options}

    def objective(theta):
        return infocore.kl_divergence(reference, model_pmf(theta), epsilon=options.get("epsilon"))

    best_theta, _, trace = minimize(objective, init.theta, bounds=init.bounds, **search)
    return ModelParams(best_theta, init.bounds), trace


def kl_fit(simulate, reference: JointPMF, observable_spec: PartitionSpec, init: ModelParams, options=None):
    """kl_descent over the lag-0 histograms of simulated observables.

    simulate maps ModelParams to a SignalMatrix and must be deterministic
    for fixed theta. Its observables are discretized by observable_spec
    and estimated as a lag-0 joint PMF, so sample order is ignored: draw
    any noise once, outside simulate, rather than on every evaluation. A
    family whose histogram is cheaper to count than to sample passes its
    own model_pmf to kl_descent (see AffineNoise). options as kl_descent.
    """

    def model_pmf(theta):
        symbols = discretize(simulate(ModelParams(theta, init.bounds)), observable_spec)
        return estimate_joint_pmf(symbols, [(v, 0) for v in range(symbols.n_variables)])

    return kl_descent(model_pmf, reference, init, options)


class AffineNoise:
    """The affine-noise family x = theta[0] + theta[1] * g over one noise
    draw g, as lag-0 histograms on explicit edges.

    The draw is sorted in place when the model is built (a float64 array
    is taken without a copy); a lag-0 histogram is blind to sample order.
    Over sorted g the samples are monotone in their index for any theta,
    nondecreasing for theta[1] >= 0 and nonincreasing below, because each
    IEEE operation rounds monotonically. So the count of samples below an
    inner edge is one binary search that evaluates theta[0] + theta[1] *
    g[i] at about log2(n) indices, with the two operations NumPy applies to
    the whole array: counts and PMFs are bitwise those of `discretize` +
    `estimate_joint_pmf` on the samples, at O(bins log n) per PMF instead
    of O(n). With bins near n the search is the slower of the two.
    """

    def __init__(self, noise):
        self.noise = np.asarray(noise, dtype=float)
        self.noise.sort()

    def _samples(self, theta, index):
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples are refused
            return theta[0] + theta[1] * self.noise[index]

    def span(self, theta) -> tuple[float, float]:
        """The smallest and the largest sample at theta. A ValueError when
        any sample is NaN or infinite: with x monotone, the two end samples
        are finite exactly when every sample is."""
        theta = np.asarray(theta, dtype=float)
        first, last = self._samples(theta, [0, -1])
        if not (np.isfinite(first) and np.isfinite(last)):
            raise ValueError("values contain NaN or Inf")
        return (first, last) if theta[1] >= 0 else (last, first)

    def counts(self, theta, edges) -> np.ndarray:
        """Samples per cell of `edges` at theta, as `discretize` bins them:
        half-open cells [e_k, e_k+1), samples out of range in the end cells."""
        theta = np.asarray(theta, dtype=float)
        self.span(theta)  # refuses non-finite samples
        n = self.noise.size
        inner = np.asarray(edges, dtype=float)[1:-1]
        rising = bool(theta[1] >= 0)
        # Per edge, the length of the run of samples from index 0 that lie
        # on the near side of the edge: below it while x rises, at or above
        # it while x falls. All edges are searched at once, one bit of the
        # length per pass, from the highest.
        run = np.zeros(inner.size, dtype=np.int64)
        step = 1 << (n.bit_length() - 1)
        while step:
            longer = run + step
            fits = longer <= n
            x = self._samples(theta, np.minimum(longer, n) - 1)
            run += step * (fits & ((x < inner) == rising))
            step >>= 1
        below = run if rising else n - run
        return np.diff(below, prepend=0, append=n)

    def pmf(self, theta, spec: PartitionSpec) -> JointPMF:
        """The lag-0 PMF of x at theta on the one variable of the
        explicit-edges `spec`, with its counts; an OccupancyWarning as
        `estimate_joint_pmf` gives."""
        spec.bins_for(1)  # refuses a spec of other than one variable
        counts = self.counts(theta, spec.edges[0])
        cells = np.flatnonzero(counts)
        pmf = JointPMF.from_counts(cells[:, None], counts[cells], (counts.size,))
        _warn_if_sparse(pmf.support_count, self.noise.size, stacklevel=2)
        return pmf


@dataclass(frozen=True)
class MLEquivalenceReport:
    kl_argmin_index: int
    likelihood_argmax_index: int
    kl_values: np.ndarray
    log_likelihoods: np.ndarray

    @property
    def agree(self) -> bool:
        return self.kl_argmin_index == self.likelihood_argmax_index


def ml_equivalence_check(samples: SymbolSeries, family, theta_grid) -> MLEquivalenceReport:
    """Verify that minimizing KL(empirical, family(theta)) over the grid
    picks the same theta as maximizing the sample log-likelihood.

    The two criteria differ by the (theta-independent) empirical entropy,
    so they agree exactly; with equal-frequency samples the KL reference
    reduces to the uniform distribution. family maps a ModelParams (or
    plain theta vector) to a JointPMF on the sample alphabet.
    """
    theta_grid = list(theta_grid)
    if len(theta_grid) < 1:
        raise ValueError("empty theta grid")
    selection = [(v, 0) for v in range(samples.n_variables)]
    empirical = estimate_joint_pmf(samples, selection)
    kl_values = np.empty(len(theta_grid))
    log_liks = np.empty(len(theta_grid))
    for k, theta in enumerate(theta_grid):
        pmf = family(theta)
        if pmf.dims != tuple(samples.alphabet):
            raise ValueError("family PMF dims do not match sample alphabet")
        kl_values[k] = infocore.kl_divergence(empirical, pmf)
        dense = pmf.to_dense()
        cell_p = dense[tuple(samples.codes.T)]
        log_liks[k] = np.sum(np.log(cell_p)) if np.all(cell_p > 0) else -np.inf
    if np.ptp(log_liks) == 0 and len(theta_grid) > 1:
        raise ValueError("degenerate family: constant over the grid")
    return MLEquivalenceReport(
        kl_argmin_index=int(np.argmin(kl_values)),
        likelihood_argmax_index=int(np.argmax(log_liks)),
        kl_values=kl_values,
        log_likelihoods=log_liks,
    )
