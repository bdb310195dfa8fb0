"""Command-line front end.

Subcommands: simulate | causality | fit | control | fixtures. Each reads a
JSON config, writes CSV and JSON reports into a run directory, and exits
with 0 on success, 1 when the causality decomposition identity check
fails, 2 on config or input errors, 3 when a fit fails to converge, 4 on
a numerical blow-up of any simulator and 5 on any other error. A command
line is the command, --config and --out: a value reaches a command only
through its config key. Configs are checked against the parameter table
(params) before any work, and a refusal names the key by its config
path. Reports embed the resolved config and repeat byte for byte for a
config and seed. Each command imports the modules it runs when it
starts, so a job compiles only those.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import params

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PLANT_FAILURE = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    pass


def _write_report(out_dir: Path, payload: dict):
    text = json.dumps(payload, sort_keys=True, indent=2,
                      default=lambda x: x.tolist() if isinstance(x, np.ndarray) else x.item())
    (out_dir / "report.json").write_text(text + "\n")


def _built(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError refused as a config error led by `path`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from exc


# Each command takes the config as given (see main), the same config
# resolved by the parameter table, and the run directory.
def cmd_simulate(given: dict, cfg: dict, out_dir: Path) -> int:
    from . import systems
    from .signals import write_csv

    spec = systems.SystemSpec(**given["system"])  # the report keeps the parameters as given
    signal = systems.simulate(spec)
    write_csv(signal, out_dir / "signal.csv")
    _write_report(out_dir, {
        "command": "simulate",
        "config": {"system": dataclasses.asdict(spec)},
        "n_samples": signal.n_samples,
        "names": list(signal.names),
        "column_means": signal.values.mean(axis=0),
        "column_variances": signal.values.var(axis=0),
    })
    return EXIT_OK


def _load_signal(given: dict, cfg: dict):
    if cfg["input"] is not None and cfg["system"] is not None:
        raise ConfigError("causality reads either 'input' or 'system', not both")
    if cfg["input"] is not None:
        from .signals import read_csv

        path = Path(cfg["input"])
        if not path.exists():
            raise ConfigError(f"input file {path} does not exist")
        return read_csv(path)
    if cfg["system"] is not None:
        from . import systems

        return systems.simulate(systems.SystemSpec(**given["system"]))
    raise ConfigError("causality needs either 'input' or 'system'")


def cmd_causality(given: dict, cfg: dict, out_dir: Path) -> int:
    import logging

    from . import causality
    from .discretization import PartitionSpec, discretize

    lag, order, bins, tol = cfg["lag"], cfg["order"], cfg["bins"], cfg["identity_tolerance"]
    signal = _load_signal(given, cfg)
    symbols = discretize(signal, PartitionSpec(scheme=cfg["scheme"], bins_per_variable=bins))

    # one full-order report per target gives the map and the identity check
    reports = causality.flux_reports(symbols, lag)
    cmap = causality.CausalityMap.from_reports(reports, order)
    with (out_dir / "flux_map.csv").open("w") as fh:
        fh.write("subset," + ",".join(f"to_{n}" for n in signal.names) + "\n")
        for s, subset in enumerate(cmap.subsets):
            label = "+".join(signal.names[v] for v in subset)
            fh.write(label + "," + ",".join(repr(float(v)) for v in cmap.values[s]) + "\n")

    log = logging.getLogger(__name__)
    leaks = {}
    residuals = {}
    for name, rep in zip(signal.names, reports):
        residuals[name] = abs(sum(rep.fluxes.values()) + rep.leak - rep.target_entropy)
        leaks[name] = rep.normalized_leak
        log.info("leak fraction %s: %.6f", name, leaks[name])
    identity_ok = all(r <= tol for r in residuals.values())
    _write_report(out_dir, {
        "command": "causality",
        "config": {"lag": lag, "order": order, "bins": bins, "scheme": cfg["scheme"],
                   "identity_tolerance": tol,
                   "source": cfg["input"] if cfg["input"] is not None else given["system"]},
        "names": list(signal.names),
        "leak_fractions": leaks,
        "identity_residuals": residuals,
        "identity_ok": identity_ok,
        "subsets": [list(s) for s in cmap.subsets],
        "flux_values": cmap.values,
    })
    return EXIT_OK if identity_ok else EXIT_IDENTITY


def cmd_fit(given: dict, cfg: dict, out_dir: Path) -> int:
    from . import modeling
    from .discretization import PartitionSpec

    family, n_samples, seed, bins = cfg["family"], cfg["n_samples"], cfg["seed"], cfg["bins"]
    true_theta, init_theta = (np.asarray(cfg[k], dtype=float) for k in ("true_theta", "init_theta"))
    for key, theta in (("true_theta", true_theta), ("init_theta", init_theta)):
        if theta.shape != (2,):
            raise ConfigError(f"{family} needs {key} with exactly 2 entries, got {theta.tolist()}")
    init = _built("init_theta and bounds: ", modeling.ModelParams, init_theta, cfg["bounds"])

    # One noise draw serves the reference and every evaluation (common random
    # numbers). The model sorts it in place and counts each histogram by
    # bisection into it (see modeling.AffineNoise), in O(bins log n_samples)
    # rather than O(n_samples); the reference edges span its samples with a margin.
    model = modeling.AffineNoise(np.random.default_rng(seed).standard_normal(n_samples))
    low, high = model.span(true_theta)
    spec = PartitionSpec("explicit-edges", edges=(np.linspace(low - 1.0, high + 1.0, bins + 1),))
    model_pmf = lambda theta: model.pmf(theta, spec)
    fitted, trace = modeling.kl_descent(model_pmf, model_pmf(true_theta), init, cfg["options"])
    trace.write_csv(out_dir / "trace.csv")

    report = {
        "command": "fit",
        "config": {"family": family, "true_theta": true_theta, "init_theta": init_theta,
                   "bounds": cfg["bounds"], "n_samples": n_samples, "seed": seed, "bins": bins,
                   # the options as given, over the KL floor the fit uses
                   "options": {"epsilon": cfg["options"]["epsilon"], **given["options"]}},
        "fitted_theta": fitted.theta,
        "theta_error": np.abs(fitted.theta - true_theta),
        "converged": trace.converged,
        "n_iterations": len(trace.records),
        "best_kl": trace.best()["value"],
    }
    mc = cfg["ml_check"]
    if mc is not None:
        report["ml_check"] = _run_ml_check(
            mc["p_true"], np.ravel(np.asarray(mc["p_grid"], dtype=float)).tolist(),
            mc["n_samples"], seed if mc["seed"] is None else mc["seed"])
    _write_report(out_dir, report)
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def _run_ml_check(p_true, p_grid, n_samples, seed):
    from . import modeling
    from .discretization import SymbolSeries
    from .pmf import JointPMF

    rng = np.random.default_rng(seed)
    codes = (rng.random(n_samples) < p_true).astype(np.int64)[:, None]
    family = lambda p: JointPMF.from_mapping({(0,): 1 - p, (1,): p}, (2,))
    report = modeling.ml_equivalence_check(SymbolSeries(codes, (2,)), family, p_grid)
    return {
        "p_grid": p_grid,
        "kl_argmin": p_grid[report.kl_argmin_index],
        "likelihood_argmax": p_grid[report.likelihood_argmax_index],
        "agree": report.agree,
    }


def cmd_control(given: dict, cfg: dict, out_dir: Path) -> int:
    from . import control, systems

    plant = systems.LinearPlant(**cfg["plant"])
    target = _built("target.", control.ControlTarget, **cfg["target"])
    init = _built("init.", control.ControllerParams, **cfg["init"])
    opts = dict(cfg["options"])  # the search reads the resolved options
    steps = opts["n_steps"], opts["transient"], opts["seed"]
    uncontrolled = control.rollout(plant, control.ControllerParams(), *steps)
    if opts["reference_edges"] is None:  # the search would roll out the same trajectory
        opts["reference_edges"] = control.padded_edges(uncontrolled, opts["bins"])
    best, trace = control.optimize_controller(plant, target, init, opts)
    controlled = control.rollout(plant, best, *steps)
    trace.write_csv(out_dir / "trace.csv")
    _write_report(out_dir, {
        "command": "control",
        # the sections as given
        "config": {k: given[k] for k in ("plant", "target", "init", "options")},
        "best_theta_s": best.theta_s,
        "best_theta_aa": best.theta_aa,
        "best_kl": trace.best()["value"],
        "uncontrolled_variance": float(uncontrolled.column("J").var()),
        "controlled_variance": float(controlled.column("J").var()),
        "accepted_kl": [r["value"] for r in trace.records if r["accepted"]],
        "n_outer_iterations": len(trace.records),
    })
    return EXIT_OK


def cmd_fixtures(given: dict, cfg: dict, out_dir: Path) -> int:
    from . import infocore, systems

    catalog = {}
    for name, fx in sorted(systems.symbolic_map_suite().items()):
        catalog[name] = {
            "variables": list(fx.names),
            "alphabet": list(fx.alphabet),
            "target": fx.target,
            "joint_entropy_bits": infocore.entropy(fx.exact_joint),
            "support_count": fx.exact_joint.support_count,
        }
    _write_report(out_dir, {"command": "fixtures", "config": given, "catalog": catalog})
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "causality": cmd_causality,
    "fit": cmd_fit,
    "control": cmd_control,
    "fixtures": cmd_fixtures,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="infodyn", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="run", help="output directory")
    args = parser.parse_args(argv)

    try:
        config = {}
        if args.config is not None:
            path = Path(args.config)
            if not path.exists():
                raise ConfigError(f"config file {path} does not exist")
            try:
                config = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed JSON config: {exc}") from exc
            if not isinstance(config, dict):
                raise ConfigError("config root must be a JSON object")
        # a section left out is {} where the table defaults it to {}, as reports embed it
        given = {k: {} for k, (_, default, _) in params.SECTIONS[args.command].items()
                 if default == {}}
        given.update(config)
        cfg = params.resolve(args.command, given)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](given, cfg, out_dir)
    except (ValueError, OSError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # only a command that imported the simulators can raise their blow-up
        systems = sys.modules.get(f"{__package__}.systems")
        if systems is not None and isinstance(exc, systems.NumericalBlowup):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PLANT_FAILURE
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)  # a fault of the program
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
