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
from .descent import OptimizationTrace, minimize
from .discretization import PartitionSpec, SymbolSeries, discretize, estimate_joint_pmf
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

# optimize_controller's options when not given
CONTROLLER_DEFAULTS = {
    "n_steps": 4000, "transient": 500, "seed": 0, "bins": 8,
    "inner_tol": 1e-6, "inner_iters": 40, "outer_iters": 8,
    "relax_init": 0.6, "relax_decay": 0.5, "relax_floor": 1e-3,
    "reference_edges": None, "initial_step": 0.05, "kl_floor": 1e-9,
    # histogram objectives are piecewise constant at fine scales: the
    # finite-difference step must exceed the bin-crossing granularity
    "fd_step": 0.05,
}


@dataclass(frozen=True)
class ControllerParams:
    """Controller parameters split into sensor (theta_s), passive actuator
    (theta_pa), and active actuator (theta_aa) blocks, with per-block
    bounds as (n, 2) arrays."""

    theta_s: np.ndarray = ()
    theta_pa: np.ndarray = ()
    theta_aa: np.ndarray = ()
    bounds_s: np.ndarray | None = None
    bounds_pa: np.ndarray | None = None
    bounds_aa: np.ndarray | None = None

    def __post_init__(self):
        for block, bounds in (("theta_s", "bounds_s"), ("theta_pa", "bounds_pa"), ("theta_aa", "bounds_aa")):
            t = np.asarray(getattr(self, block), dtype=float).reshape(-1)
            b = getattr(self, bounds)
            if b is not None:
                b = np.asarray(b, dtype=float).reshape(-1, 2)
                if b.shape[0] != t.size:
                    raise ValueError(f"{bounds} shape does not match {block}")
                if np.any(b[:, 0] > b[:, 1]):
                    raise ValueError(f"{bounds}: empty interval")
                if np.any(t < b[:, 0]) or np.any(t > b[:, 1]):
                    raise ValueError(f"{block} outside bounds")
            object.__setattr__(self, block, t)
            object.__setattr__(self, bounds, b)

    def replace(self, **kwargs) -> "ControllerParams":
        return replace(self, **kwargs)

    def packed(self) -> np.ndarray:
        return np.concatenate([self.theta_s, self.theta_pa, self.theta_aa])


@dataclass(frozen=True)
class ControlTarget:
    """Desired first and second moments of the target variable, plus the
    relaxation factors blending them with the current moments."""

    mu_target: np.ndarray
    sigma_target: np.ndarray
    relax_mu: float = 0.6
    relax_sigma: float = 0.6

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu_target, dtype=float))
        sig = np.atleast_2d(np.asarray(self.sigma_target, dtype=float))
        if sig.shape != (mu.size, mu.size):
            raise ValueError("sigma_target shape does not match mu_target")
        if np.any(np.diag(sig) < 0):
            raise ValueError("sigma_target diagonal must be nonnegative")
        for xi in (self.relax_mu, self.relax_sigma):
            if not 0 < xi <= 1:
                raise ValueError("relaxation factors must lie in (0, 1]")
        object.__setattr__(self, "mu_target", mu)
        object.__setattr__(self, "sigma_target", sig)


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

def build_auxiliary_target(samples: SignalMatrix, target: ControlTarget, relax=None, reference_edges=None) -> JointPMF:
    """PMF of the moment-corrected target J_hat = Gamma J + b on the
    reference partition.

    Gamma and b rescale the current samples of the target variable so
    their mean and variance match the relaxed targets
    mu_rel = xi_mu * mu_hat + (1 - xi_mu) * mu_D (same for the variance):
    at xi = 1 the auxiliary target is the current distribution, at the
    xi -> 0 floor it is fully moment-matched to the desired one.
    """
    xi_mu, xi_sigma = relax if relax is not None else (target.relax_mu, target.relax_sigma)
    x = samples.values
    if x.shape[1] != target.mu_target.size:
        raise ValueError("sample dimension does not match target moments")
    mu_hat = x.mean(axis=0)
    var_hat = x.var(axis=0)
    mu_rel = xi_mu * mu_hat + (1.0 - xi_mu) * target.mu_target
    var_rel = xi_sigma * var_hat + (1.0 - xi_sigma) * np.diag(target.sigma_target)
    if np.any((var_hat == 0) & (var_rel > 0)):
        raise ValueError("degenerate rescale: zero current variance with nonzero target variance")
    gamma = np.sqrt(np.divide(var_rel, var_hat, out=np.ones_like(var_rel), where=var_hat > 0))
    b = mu_rel - gamma * mu_hat
    transformed = x * gamma + b
    if reference_edges is None:
        raise ValueError("reference_edges required to place the auxiliary PMF on a partition")
    edges = reference_edges if isinstance(reference_edges, (tuple, list)) else (reference_edges,)
    spec = PartitionSpec("explicit-edges", edges=tuple(np.asarray(e, dtype=float) for e in edges))
    symbols = discretize(SignalMatrix(transformed, samples.names, samples.dt), spec)
    return estimate_joint_pmf(symbols, [(v, 0) for v in range(symbols.n_variables)])


def rollout(plant, params: ControllerParams, n_steps: int, transient: int, seed: int) -> SignalMatrix:
    """Closed-loop trajectory under the proportional-opposition law
    A = -theta_aa[0] * S, recorded as columns (J, S, A) with J the state x.
    The plant must provide closed_loop (see LinearPlant.closed_loop); its
    per-step state (reset/sense/step) is not advanced."""
    gain = float(params.theta_aa[0]) if params.theta_aa.size else 0.0
    rows = plant.closed_loop(gain, params.theta_s[0], n_steps, transient, seed)
    return SignalMatrix(rows, ("J", "S", "A"))


def padded_edges(uncontrolled: SignalMatrix, bins: int) -> np.ndarray:
    """Edges of the reference partition: bins equal cells over the range of
    J in the uncontrolled trajectory, padded by 10% of the span each side."""
    j = uncontrolled.column("J")
    span = j.max() - j.min()
    return np.linspace(j.min() - 0.1 * span, j.max() + 0.1 * span, bins + 1)


def kl_objective(plant, params: ControllerParams, target: ControlTarget, relax, reference_edges,
                 n_steps: int = 4000, transient: int = 500, seed: int = 0,
                 kl_floor: float = 1e-9) -> float:
    """KL(p(J), p(J_hat)) for one closed-loop rollout: the distance between
    the achieved target-state distribution and its moment-corrected
    auxiliary, both binned on the reference partition. This exact function
    is what optimize_controller descends and what a grid-search oracle
    should evaluate.
    """
    return _trajectory_kl(rollout(plant, params, n_steps, transient, seed), target, relax,
                          reference_edges, kl_floor)


def _trajectory_kl(traj, target, relax, reference_edges, kl_floor):
    edges = np.asarray(reference_edges, dtype=float)
    p_j = infocore.binned_pmf(traj.column("J"), edges)
    aux = build_auxiliary_target(traj.select(["J"]), target, relax, edges)
    return infocore.kl_divergence(p_j, aux, epsilon=kl_floor)


def _mi_objective(traj, bins, pair):
    try:
        symbols = discretize(traj, PartitionSpec(bins_per_variable=bins))
    except ValueError:
        return 0.0  # constant column (e.g. zero gain makes A identically 0)
    pmf = estimate_joint_pmf(symbols, [(pair[0], 0), (pair[1], 0)])
    return infocore.mutual_information(pmf, [0], [1])


def optimize_controller(plant, target: ControlTarget, init: ControllerParams, options=None):
    """Three-step iterative controller search.

    Per outer iteration: (1) holding theta_aa fixed, ascend the sensor
    information I(J;S) over theta_s and the actuation information I(J;A)
    over theta_pa; (2) holding those fixed, descend the KL objective over
    theta_aa; (3) tighten the relaxation factors toward the floor. The
    outer loop stops when the accepted KL stops decreasing. Plant failures
    reject the iterate and contract the actuator bounds toward the last
    good point. Returns (best ControllerParams, OptimizationTrace).
    """
    opts = {**CONTROLLER_DEFAULTS, **(options or {})}
    edges = opts["reference_edges"]
    if edges is None:  # reference partition from the uncontrolled plant
        edges = padded_edges(rollout(plant, init.replace(theta_aa=np.zeros_like(init.theta_aa)),
                                        opts["n_steps"], opts["transient"], opts["seed"]),
                                opts["bins"])
    edges = np.asarray(edges, dtype=float)

    trace = OptimizationTrace()
    current = init
    bounds_aa = None if init.bounds_aa is None else init.bounds_aa.copy()
    relax = (opts["relax_init"], opts["relax_init"])
    best_params, best_kl = current, np.inf
    last_accepted = np.inf

    def run(params):
        return rollout(plant, params, opts["n_steps"], opts["transient"], opts["seed"])

    for outer in range(opts["outer_iters"]):
        # step 1: information ascent of the sensing block, I(J;S), and the
        # passive block, I(J;A)
        for block, pair in (("s", (0, 1)), ("pa", (0, 2))):
            theta0 = getattr(current, "theta_" + block)
            if theta0.size:
                theta, _, _ = minimize(
                    lambda t: _mi_objective(run(current.replace(**{"theta_" + block: t})),
                                            opts["bins"], pair),
                    theta0, bounds=getattr(current, "bounds_" + block), tol=opts["inner_tol"],
                    max_iters=opts["inner_iters"], initial_step=opts["initial_step"], sign=-1.0,
                    fd_step=opts["fd_step"])
                current = current.replace(**{"theta_" + block: theta})

        # step 2: KL descent of the active actuation block
        failure = False

        def aa_objective(t):
            nonlocal failure
            try:
                return _trajectory_kl(run(current.replace(theta_aa=t, bounds_aa=bounds_aa)),
                                      target, relax, edges, opts["kl_floor"])
            except NumericalBlowup:
                failure = True
                return 1e6  # rejected iterate; bounds contracted below

        theta_aa, kl_val, _ = minimize(
            aa_objective, current.theta_aa, bounds=bounds_aa, tol=opts["inner_tol"],
            max_iters=opts["inner_iters"], initial_step=opts["initial_step"],
            fd_step=opts["fd_step"])
        if failure and bounds_aa is not None:
            # pull the search interval halfway toward the last good point
            center = current.theta_aa
            bounds_aa = np.column_stack([
                center + 0.5 * (bounds_aa[:, 0] - center),
                center + 0.5 * (bounds_aa[:, 1] - center),
            ])
        current = current.replace(theta_aa=theta_aa, bounds_aa=bounds_aa)

        traj = run(current)  # one rollout for the iteration's record
        kl_now = _trajectory_kl(traj, target, relax, edges, opts["kl_floor"])
        obs_mi = _mi_objective(traj, opts["bins"], (0, 1))
        ctrl_mi = _mi_objective(traj, opts["bins"], (0, 2))
        accepted = kl_now < last_accepted
        trace.add(iteration=outer, value=kl_now, theta=current.packed(), step=0.0,
                  obs_mi=obs_mi, ctrl_mi=ctrl_mi, relax=relax, accepted=accepted,
                  plant_failure=failure)
        if kl_now < best_kl:
            best_kl, best_params = kl_now, current
        if not accepted:
            trace.converged = True
            break
        last_accepted = kl_now
        relax = tuple(max(opts["relax_floor"], r * opts["relax_decay"]) for r in relax)
    return best_params, trace
