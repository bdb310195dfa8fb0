"""The benchmark's workloads: the `infodyn` job each one runs, the configs
it writes from the workload seed, and the checks each report must pass.

Each workload stresses the layer that one ROADMAP item will optimise:
causality-lattice the entropy lattice (`pmf.marginalize`), cascade-goy the
GOY RK4 stepper, control-search the closed-loop rollout, and fit-affine
the dense estimation path that the lattice rewrite must not slow down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

IDENTITY_TOL = 1e-10
THETA_TOL = 1e-2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    input_samples: str  # what one job reads or generates
    # seed -> one job config per variant; a run cycles through the variants
    configs: Callable[[int], list[dict]]
    check: Callable[[dict], list[str]]
    # per-layer metrics that make up the job's dominant layer
    dominant: tuple[str, ...]
    # seed -> config of the `infodyn simulate` job that set-up runs, if any
    simulate: Callable[[int], dict] | None = None


def check_causality(report: dict) -> list[str]:
    errors = []
    if not report["identity_ok"]:
        errors.append("identity_ok is not set")
    residuals = report["identity_residuals"]
    if not residuals:
        errors.append("identity_residuals is empty")
    for name, value in residuals.items():
        if not abs(value) <= IDENTITY_TOL:
            errors.append(f"identity residual of {name} is {value!r} > {IDENTITY_TOL}")
    return errors


def check_control(report: dict) -> list[str]:
    errors = []
    if not report["controlled_variance"] < report["uncontrolled_variance"]:
        errors.append(f"controlled variance {report['controlled_variance']!r} is not below "
                      f"uncontrolled {report['uncontrolled_variance']!r}")
    accepted = report["accepted_kl"]
    if not accepted:
        errors.append("accepted_kl is empty")
    if not all(a > b for a, b in zip(accepted, accepted[1:])):
        errors.append(f"accepted_kl is not strictly decreasing: {accepted!r}")
    return errors


def check_fit(report: dict) -> list[str]:
    errors = []
    if not report["converged"]:
        errors.append("converged is not set")
    errors += [f"theta_error[{i}] = {e!r} is not below {THETA_TOL}"
               for i, e in enumerate(report["theta_error"]) if not e < THETA_TOL]
    if not report["ml_check"]["agree"]:
        errors.append("ml_check.agree is not set")
    return errors


def check_report(workload: Workload, report) -> list[str]:
    """Errors found in one job's report; a report missing a field the check
    reads counts as malformed."""
    try:
        return workload.check(report)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


# Lorenz-96, 7 sites: the full-order flux report per target builds 2^7
# conditioning sets, so np.unique(axis=0) in pmf.marginalize dominates.
L96_SITES = 7
L96_SAMPLES = 5000
L96_TRANSIENT = 500

# GOY shell model at the README's dt; 25k kept RK4 steps sampled every 5th.
GOY_STEPS = 30000
GOY_TRANSIENT = 5000

# fit-affine: the BB descent needs 9 to 14 iterations depending on the data
# seed (9 to 29 at 250k samples), so each run cycles through FIT_VARIANTS
# data seeds and job_s averages over them; one seed per run would make job_s
# jump with the seed. The scale theta[1] is bounded below so that the fit is
# identifiable (the noise is symmetric, so -1.2 fits as well as 1.2), and no
# parameter has an upper bound: with the CLI test's bounds about one data
# seed in 30 exits 2 ("theta outside bounds"), because descent.fd_gradient
# probes past an upper bound the search has reached. Once that is fixed,
# return to the CLI test's bounds so that this workload can catch it again.
FIT_SAMPLES = 1_000_000
FIT_VARIANTS = 10

WORKLOADS = {w.name: w for w in (
    Workload(
        name="causality-lattice",
        why="full-order flux_report on a 7-site Lorenz-96 CSV: pmf.marginalize (np.unique axis=0) "
            "dominates and systems does no work in the job; ROADMAP item 2 acts here",
        subcommand="causality",
        input_samples=f"{L96_SAMPLES} samples x {L96_SITES} variables read from CSV",
        simulate=lambda seed: {"system": {
            "kind": "lorenz96", "parameters": {"n_sites": L96_SITES},
            "n_steps": L96_SAMPLES + L96_TRANSIENT, "transient_steps": L96_TRANSIENT,
            "seed": seed, "dt": 0.01}},
        configs=lambda seed: [{"input": "sim/signal.csv", "bins": 4, "lag": 1, "order": 1}],
        check=check_causality,
        dominant=("pmf.marginalize_s",),
    ),
    Workload(
        name="cascade-goy",
        why="GOY shell-model RK4 stepping is almost the whole job and the joint has few occupied "
            "cells; ROADMAP item 4 acts here and item 2 should leave it unchanged",
        subcommand="causality",
        input_samples=f"{GOY_STEPS} RK4 steps, {(GOY_STEPS - GOY_TRANSIENT) // 5} samples x 4 variables",
        configs=lambda seed: [{
            "system": {"kind": "goy-shell", "n_steps": GOY_STEPS, "transient_steps": GOY_TRANSIENT,
                       "seed": seed, "dt": 2e-4},
            "bins": 8, "lag": 40, "order": 1}],
        check=check_causality,
        dominant=("systems.simulate_s",),
    ),
    Workload(
        name="control-search",
        # The plant seed stays at the CLI test's 0 for every benchmark seed:
        # many other plant seeds end in "theta_aa outside bounds" (exit 2),
        # for the same descent.fd_gradient defect, and the rollout count
        # varies 37 to 140 with the plant seed. Once the defect is fixed,
        # take the plant seed from the benchmark seed.
        why="the CLI test's controller search, seed-independent (plant seed 0): Python-level plant "
            "steps in control.rollout take almost all of the job; ROADMAP item 3 acts here",
        subcommand="control",
        input_samples="2000 plant steps per rollout, plant seed 0",
        configs=lambda seed: [{
            "target": {"mu": [0.0], "sigma": [[0.25]]},
            "init": {"theta_s": [0.0], "theta_aa": [0.1]},
            "options": {"n_steps": 2000, "transient": 300}}],
        check=check_control,
        dominant=("control.rollout_s",),
    ),
    Workload(
        name="fit-affine",
        why="KL fit on a 1-D 1M-sample series where a dense bincount over 32 cells is right; "
            "guards against a sort-based estimator slowing it, and runs modeling.kl_fit",
        subcommand="fit",
        input_samples=f"{FIT_SAMPLES} samples x 1 variable per objective evaluation",
        configs=lambda seed: [{
            "true_theta": [0.5, 1.2], "init_theta": [0.0, 0.8],
            "bounds": [[-math.inf, math.inf], [0.1, math.inf]],
            "n_samples": FIT_SAMPLES, "bins": 32,
            "seed": FIT_VARIANTS * seed + v,
            "ml_check": {"p_true": 0.3, "n_samples": 2000, "seed": FIT_VARIANTS * seed + v}}
            for v in range(FIT_VARIANTS)],
        check=check_fit,
        dominant=("discretization.discretize_s", "discretization.estimate_joint_pmf_s"),
    ),
)}
