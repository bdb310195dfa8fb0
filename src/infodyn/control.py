"""Information-theoretic control analysis and controller optimization.

Covers open/closed-loop classification, channel capacity of the
sensor-actuator link, observability/controllability scores, the missing
information they imply, construction of the moment-matched auxiliary
target, and the three-step KL-minimizing search over controller
parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import infocore
from .descent import OptimizationTrace, checked_start, minimize
from .discretization import PartitionSpec, SymbolSeries, discretize, estimate_joint_pmf
from .params import resolve
from .pmf import JointPMF, marginalize
from .signals import SignalMatrix
from .systems import NumericalBlowup

__all__ = [
    "ControllerParams",
    "ControlTarget",
    "LoopReport",
    "classify_loop",
    "bootstrap_mi_floor",
    "channel_capacity",
    "observability",
    "controllability",
    "missing_information",
    "noisy_observability_bound",
    "build_auxiliary_target",
    "kl_objective",
    "optimize_controller",
    "padded_edges",
    "rollout",
]

EXACT_MI_THRESHOLD = 1e-9

# histogram objectives are piecewise constant at fine scales: the
# finite-difference step must exceed the bin-crossing granularity
FD_STEP = 0.05
REJECTED_SCORE = 1e6  # a controller search probe whose rollout blows up


@dataclass(frozen=True)
class ControllerParams:
    """The opposition law's two numbers: the sensing delay theta_s and the
    gain theta_aa, each a one-entry block with optional (1, 2) bounds.
    ControllerParams() is the uncontrolled plant: at zero gain the state
    never reads the sensor, so no delay changes it."""

    theta_s: np.ndarray = (0.0,)
    theta_aa: np.ndarray = (0.0,)
    bounds_s: np.ndarray | None = None
    bounds_aa: np.ndarray | None = None

    def __post_init__(self):
        for block, box in (("theta_s", "bounds_s"), ("theta_aa", "bounds_aa")):
            t = np.asarray(getattr(self, block), dtype=float)
            if t.size != 1:
                raise ValueError(f"{block} must hold one entry, got {t.tolist()}")
            t, b = checked_start(t, getattr(self, box), (block, box))
            object.__setattr__(self, block, t)
            object.__setattr__(self, box, b)

    def packed(self) -> np.ndarray:
        return np.concatenate([self.theta_s, self.theta_aa])


@dataclass(frozen=True)
class ControlTarget:
    """Desired mean and 1x1 variance of the one controlled variable J, plus
    the relaxation factors blending them with the current moments, from
    which the controller search starts; factors left at None take their
    defaults from the parameter table, which checks the others."""

    mu: np.ndarray
    sigma: np.ndarray
    relax_mu: float = None
    relax_sigma: float = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if mu.size != 1:
            raise ValueError(f"mu must hold one entry, got {mu.tolist()}")
        if sig.shape != (1, 1):
            raise ValueError(f"sigma shape must be (1, 1), got {sig.shape}")
        if sig[0, 0] < 0:
            raise ValueError("sigma must be nonnegative")
        relax = resolve("target", {k: getattr(self, k) for k in ("relax_mu", "relax_sigma")
                                   if getattr(self, k) is not None})
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "relax_mu", relax["relax_mu"])
        object.__setattr__(self, "relax_sigma", relax["relax_sigma"])


# ---------------------------------------------------------------------------
# loop classification

@dataclass(frozen=True)
class LoopReport:
    label: str
    mi_actuator_state: float
    mi_sensor_state: float
    threshold: float


def bootstrap_mi_floor(joint_codes: np.ndarray, dims, n_boot: int = 20, seed: int = 0) -> float:
    """Estimator-noise floor for I(col 0; col 1): mean MI after shuffling
    the second column, which destroys any real dependence."""
    rng = np.random.default_rng(seed)
    codes = np.asarray(joint_codes, dtype=np.int64)
    total = 0.0
    for _ in range(n_boot):
        shuffled = codes.copy()
        rng.shuffle(shuffled[:, 1])
        pmf = estimate_joint_pmf(SymbolSeries(shuffled, tuple(dims)), [(0, 0), (1, 0)])
        total += infocore.mutual_information(pmf, [0], [1])
    return total / n_boot


def classify_loop(joint: JointPMF, threshold: float | None = None, assume_no_actuator_noise: bool = False) -> LoopReport:
    """Open/closed classification of a control loop from the joint PMF over
    (state proxy Q, sensor S, actuator A), dims in that order.

    Open means the actuation carries no information about the state:
    I(A;Q) <= threshold (default 1e-9 bits, appropriate for exact PMFs;
    pass 3x bootstrap_mi_floor for sampled ones).
    """
    if joint.ndim != 3:
        raise ValueError("classify_loop needs a (Q, S, A) joint")
    thr = EXACT_MI_THRESHOLD if threshold is None else threshold
    mi_aq = infocore.mutual_information(joint, [2], [0])
    mi_sq = infocore.mutual_information(joint, [1], [0])
    if assume_no_actuator_noise and mi_aq > mi_sq + 1e-10:
        raise AssertionError(
            f"I(A;Q) = {mi_aq} exceeds I(S;Q) = {mi_sq}: actuation cannot "
            "contain more state information than the sensor it reads"
        )
    label = "open" if mi_aq <= thr else "closed"
    return LoopReport(label, mi_aq, mi_sq, thr)


# ---------------------------------------------------------------------------
# channel capacity

def channel_capacity(channel: np.ndarray, tol: float = 1e-9, max_iters: int = 100000) -> float:
    """Capacity in bits of a discrete memoryless channel given as the row-
    stochastic matrix channel[s, a] = p(a | s).

    Alternating multiplicative updates on the input distribution; stops
    when the gap between the Arimoto upper and lower capacity bounds (the
    max-log-ratio criterion) drops below tol.
    """
    P = np.asarray(channel, dtype=float)
    if P.ndim != 2 or np.any(P < 0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("non-stochastic channel rows")
    n_in = P.shape[0]
    r = np.full(n_in, 1.0 / n_in)
    logP = np.where(P > 0, np.log2(np.where(P > 0, P, 1.0)), 0.0)
    for _ in range(max_iters):
        q = r @ P
        with np.errstate(divide="ignore"):
            logq = np.where(q > 0, np.log2(np.where(q > 0, q, 1.0)), 0.0)
        # D[s] = KL(p(.|s) || q) in bits
        D = ((P * (logP - logq)) * (P > 0)).sum(axis=1)
        lower = float(r @ D)
        upper = float(D.max())
        if upper - lower < tol:
            return max(0.0, lower)
        r = r * np.exp2(D - D.max())
        r /= r.sum()
    warnings.warn(f"capacity iteration hit max_iters with gap {upper - lower}", stacklevel=2)
    return max(0.0, lower)


# ---------------------------------------------------------------------------
# observability / controllability

def _normalized_mi(joint: JointPMF, what: str) -> float:
    if joint.ndim != 2:
        raise ValueError(f"{what} needs a 2-variable joint PMF")
    h = infocore.entropy(joint, [0])
    if h <= 0.0:
        raise ValueError("target carries no information")
    score = infocore.mutual_information(joint, [0], [1]) / h
    return float(np.clip(score, 0.0, 1.0))


def observability(joint: JointPMF) -> float:
    """O_J = I(J;S)/H(J) in [0,1] for a joint PMF over (J, S); 1 exactly
    when the sensor determines the target."""
    return _normalized_mi(joint, "observability")


def controllability(joint: JointPMF) -> float:
    """C_J = I(J_future; A)/H(J_future) in [0,1] for a joint over
    (J_future, A); the caller asserts reachability of the target states."""
    return _normalized_mi(joint, "controllability")


def missing_information(entropy_bits: float, score: float) -> float:
    """(1 - score) * H: information still needed for a perfect score."""
    if not -1e-12 <= score <= 1 + 1e-12:
        raise ValueError("score out of range [0, 1]")
    return (1.0 - min(1.0, max(0.0, score))) * entropy_bits


def noisy_observability_bound(joint: JointPMF) -> float:
    """Upper bound 1 - I(W;S)/H(J) on observability for a joint PMF over
    (J, S, W) with W the sensor-noise variable."""
    if joint.ndim != 3:
        raise ValueError("noisy bound needs a (J, S, W) joint")
    h_j = infocore.entropy(joint, [0])
    if h_j <= 0.0:
        raise ValueError("target carries no information")
    bound = 1.0 - infocore.mutual_information(joint, [2], [1]) / h_j
    o_j = observability(marginalize(joint, [0, 1]))
    if o_j > bound + 1e-10:
        raise AssertionError(f"observability {o_j} exceeds noisy bound {bound}")
    return bound


# ---------------------------------------------------------------------------
# auxiliary target and controller optimization

def _binned(samples: SignalMatrix, edges) -> JointPMF:
    """PMF of a one-column sample on one explicit edge array; out-of-range
    samples fall into the end cells."""
    symbols = discretize(samples, PartitionSpec("explicit-edges", edges=(np.asarray(edges, dtype=float),)))
    return estimate_joint_pmf(symbols, [(0, 0)])


def build_auxiliary_target(samples: SignalMatrix, target: ControlTarget, relax, reference_edges) -> JointPMF:
    """PMF of the moment-corrected target J_hat = gamma J + b on the
    reference partition, one edge array (an array or a list), for samples
    of the one column J.

    gamma and b rescale the current samples of J so their mean and
    variance match the relaxed targets
    mu_rel = xi_mu * mu_hat + (1 - xi_mu) * mu_D (same for the variance):
    at xi = 1 the auxiliary target is the current distribution, at the
    xi -> 0 floor it is fully moment-matched to the desired one.
    """
    xi_mu, xi_sigma = relax
    x = samples.values
    mu_hat, var_hat = x.mean(axis=0), x.var(axis=0)
    mu_rel = xi_mu * mu_hat + (1.0 - xi_mu) * target.mu
    var_rel = xi_sigma * var_hat + (1.0 - xi_sigma) * np.diag(target.sigma)
    if np.any((var_hat == 0) & (var_rel > 0)):
        raise ValueError("degenerate rescale: zero current variance with nonzero target variance")
    gamma = np.sqrt(np.divide(var_rel, var_hat, out=np.ones_like(var_rel), where=var_hat > 0))
    b = mu_rel - gamma * mu_hat
    return _binned(SignalMatrix(x * gamma + b, samples.names, samples.dt), reference_edges)


def rollout(plant, params: ControllerParams, n_steps: int, transient: int, seed: int) -> SignalMatrix:
    """Closed-loop trajectory under the opposition law A = -theta_aa * S,
    recorded as columns (J, S, A) with J the state x: the plant's
    closed_loop (see LinearPlant.closed_loop) at sensing delay theta_s,
    steps transient..n_steps-1, noise seeded by `seed`. ControllerParams()
    rolls out the uncontrolled plant."""
    rows = plant.closed_loop(float(params.theta_aa[0]), params.theta_s[0], n_steps, transient, seed)
    return SignalMatrix(rows, ("J", "S", "A"))


def padded_edges(uncontrolled: SignalMatrix, bins: int) -> np.ndarray:
    """Edges of the reference partition: bins equal cells over the range of
    J in the uncontrolled trajectory, padded by 10% of the span each side."""
    j = uncontrolled.column("J")
    span = j.max() - j.min()
    return np.linspace(j.min() - 0.1 * span, j.max() + 0.1 * span, bins + 1)


def kl_objective(traj: SignalMatrix, target: ControlTarget, relax, reference_edges,
                 kl_floor: float) -> float:
    """KL(p(J), p(J_hat)) of a closed-loop trajectory: the distance between
    the achieved target-state distribution and its moment-corrected
    auxiliary at relaxation `relax`, both binned on the reference edges,
    with q's empty cells floored at kl_floor. optimize_controller descends
    it over rollouts; a grid-search oracle composes it with rollout alike.
    """
    j = traj.select(["J"])
    q = build_auxiliary_target(j, target, relax, reference_edges)
    return infocore.kl_divergence(_binned(j, reference_edges), q, epsilon=kl_floor)


def _mi_objective(traj, bins, pair):
    """I(pair[0]; pair[1]) in bits between two named columns of a
    trajectory, each quantile-coded into `bins` cells; 0 for a constant one."""
    try:
        symbols = discretize(traj.select(pair), PartitionSpec(bins_per_variable=bins))
    except ValueError:
        return 0.0  # constant column (e.g. zero gain makes A identically 0)
    return infocore.mutual_information(estimate_joint_pmf(symbols, [(0, 0), (1, 0)]), [0], [1])


def optimize_controller(plant, target: ControlTarget, init: ControllerParams, options=None):
    """Three-step iterative controller search.

    Per outer iteration: (1) holding theta_aa fixed, ascend the sensor
    information I(J;S) over theta_s; (2) holding it fixed, descend the KL
    objective over theta_aa; (3) tighten the relaxation factors toward the
    floor. Steps 1 and 2 are one block step: `minimize` over one rollout
    per probe, where a rollout that blows up scores REJECTED_SCORE and
    pulls the block's bounds halfway toward the point it started from.
    The relaxation starts at the target's (relax_mu, relax_sigma) and is
    multiplied by relax_decay each iteration, down to relax_floor. Each
    iteration records one rollout of its controller; the search stops at
    the first record whose KL does not fall below the last accepted one,
    or that blows up. plant_failure marks an iteration with a blow-up.
    The parameter table checks and defaults `options`. Returns (the
    controller of the last accepted record, or init; OptimizationTrace).
    """
    opts = resolve("control.options", options or {})
    edges, steps = opts["reference_edges"], (opts["n_steps"], opts["transient"], opts["seed"])
    if edges is None:  # reference partition from the uncontrolled plant
        edges = padded_edges(rollout(plant, ControllerParams(), *steps), opts["bins"])

    trace = OptimizationTrace()
    current = best_params = init
    relax = (target.relax_mu, target.relax_sigma)
    last_accepted = np.inf
    blowups = []  # the controllers whose rollouts blew up

    def run(params):
        """The rollout at params, or None when the plant blows up."""
        try:
            return rollout(plant, params, *steps)
        except NumericalBlowup:
            blowups.append(params)
            return None

    blocks = (("s", lambda traj: -_mi_objective(traj, opts["bins"], ("J", "S"))),
              ("aa", lambda traj: kl_objective(traj, target, relax, edges, opts["kl_floor"])))
    for outer in range(opts["outer_iters"]):
        iteration_start = len(blowups)
        for block, objective in blocks:
            start, bounds = getattr(current, "theta_" + block), getattr(current, "bounds_" + block)
            block_start = len(blowups)

            def score(t):
                traj = run(replace(current, **{"theta_" + block: t}))
                return REJECTED_SCORE if traj is None else objective(traj)

            theta, _, _ = minimize(score, start, bounds=bounds, tol=opts["inner_tol"],
                                   max_iters=opts["inner_iters"],
                                   initial_step=opts["initial_step"], fd_step=FD_STEP)
            if len(blowups) > block_start and bounds is not None:  # halve the box about the start
                bounds = start[:, None] + 0.5 * (bounds - start[:, None])
                theta = np.clip(theta, bounds[:, 0], bounds[:, 1])
            current = replace(current, **{"theta_" + block: theta, "bounds_" + block: bounds})

        traj = run(current)  # one rollout for the iteration's record
        if traj is None:
            kl_now, obs_mi, ctrl_mi = REJECTED_SCORE, np.nan, np.nan
        else:
            kl_now = kl_objective(traj, target, relax, edges, opts["kl_floor"])
            obs_mi = _mi_objective(traj, opts["bins"], ("J", "S"))
            ctrl_mi = _mi_objective(traj, opts["bins"], ("J", "A"))
        accepted = traj is not None and kl_now < last_accepted
        trace.add(iteration=outer, value=kl_now, theta=current.packed(), step=0.0,
                  obs_mi=obs_mi, ctrl_mi=ctrl_mi, relax=relax, accepted=accepted,
                  plant_failure=len(blowups) > iteration_start)
        if not accepted:
            trace.converged = True
            break
        best_params, last_accepted = current, kl_now
        relax = tuple(max(opts["relax_floor"], r * opts["relax_decay"]) for r in relax)
    return best_params, trace
