"""Command-line front end.

Subcommands: simulate | causality | fit | control | fixtures. Each reads a
JSON config, writes CSV and JSON reports into a run directory, and exits
with 0 on success, 1 when the causality decomposition identity check
fails, 2 on config or input errors, 3 when a fit fails to converge, and 4
on a numerical blow-up of any simulator. Reports embed the resolved config and
are byte-identical across repeated runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import causality, control, infocore, modeling, systems
from .discretization import PartitionSpec, discretize, estimate_joint_pmf
from .modeling import ModelParams
from .signals import SignalMatrix, read_csv, write_csv
from .systems import NumericalBlowup, SystemSpec

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PLANT_FAILURE = 4


class ConfigError(ValueError):
    pass


# allowed keys per config section; unknown keys are rejected up front
SCHEMAS = {
    "simulate": {
        "system": {"kind", "parameters", "n_steps", "transient_steps", "seed", "dt"},
        "output_format": None,
    },
    "causality": {
        "input": None,
        "system": {"kind", "parameters", "n_steps", "transient_steps", "seed", "dt"},
        "lag": None,
        "order": None,
        "bins": None,
        "scheme": None,
        "identity_tolerance": None,
    },
    "fit": {
        "family": None,
        "true_theta": None,
        "init_theta": None,
        "bounds": None,
        "n_samples": None,
        "seed": None,
        "bins": None,
        "options": {"tol", "max_iters", "epsilon", "initial_step"},
        "ml_check": {"p_true", "p_grid", "n_samples", "seed"},
    },
    "control": {
        "plant": set(systems.PLANT_KEYS),
        "target": {"mu", "sigma", "relax_mu", "relax_sigma"},
        "init": {"theta_s", "theta_aa", "bounds_s", "bounds_aa"},
        "options": {
            "n_steps", "transient", "seed", "bins", "inner_tol", "inner_iters",
            "outer_iters", "relax_init", "relax_decay", "relax_floor",
            "reference_edges", "initial_step", "kl_floor",
        },
    },
    "fixtures": {"name": None, "n_samples": None, "seed": None},
}


def _validate(config: dict, command: str) -> dict:
    schema = SCHEMAS[command]
    for key, value in config.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        sub = schema[key]
        if sub is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            for k in value:
                if k not in sub:
                    raise ConfigError(f"unknown config key {key}.{k}")
    return config


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool):  # before int, of which bool is a subclass
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_report(out_dir: Path, payload: dict):
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    (out_dir / "report.json").write_text(text)


def _config_int(value, key: str) -> int:
    """An integer config value. A bool, a string or a non-integral number is
    refused: int() would read true as 1 and truncate 100.5 to 100."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _system_spec(cfg: dict, args) -> SystemSpec:
    cfg = dict(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        return SystemSpec(
            kind=cfg["kind"],
            parameters=cfg.get("parameters", {}),
            n_steps=_config_int(cfg.get("n_steps", 10000), "n_steps"),
            transient_steps=_config_int(cfg.get("transient_steps", 1000), "transient_steps"),
            seed=_config_int(cfg.get("seed", 0), "seed"),
            dt=float(cfg.get("dt", 1e-3)),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid system config: {exc}") from exc


def cmd_simulate(config: dict, args, out_dir: Path) -> int:
    if "system" not in config:
        raise ConfigError("simulate needs a 'system' section")
    spec = _system_spec(config["system"], args)
    signal = systems.simulate(spec)
    write_csv(signal, out_dir / "signal.csv")
    _write_report(out_dir, {
        "command": "simulate",
        "config": {"system": {
            "kind": spec.kind, "parameters": spec.parameters, "n_steps": spec.n_steps,
            "transient_steps": spec.transient_steps, "seed": spec.seed, "dt": spec.dt,
        }},
        "n_samples": signal.n_samples,
        "names": list(signal.names),
        "column_means": signal.values.mean(axis=0),
        "column_variances": signal.values.var(axis=0),
    })
    return EXIT_OK


def _load_signal(config: dict, args) -> SignalMatrix:
    if "input" in config:
        path = Path(config["input"])
        if not path.exists():
            raise ConfigError(f"input file {path} does not exist")
        try:
            return read_csv(path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "system" in config:
        return systems.simulate(_system_spec(config["system"], args))
    raise ConfigError("causality needs either 'input' or 'system'")


def cmd_causality(config: dict, args, out_dir: Path) -> int:
    signal = _load_signal(config, args)
    lag = _config_int(args.lag if args.lag is not None else config.get("lag", 1), "lag")
    order = _config_int(args.order if args.order is not None else config.get("order", 1), "order")
    bins = _config_int(args.bins if args.bins is not None else config.get("bins", 8), "bins")
    scheme = config.get("scheme", "equiprobable-quantile")
    tol = float(config.get("identity_tolerance", 1e-10))
    symbols = discretize(signal, PartitionSpec(scheme=scheme, bins_per_variable=bins))

    # one full-order report per target gives the map and the identity check
    reports = [causality.flux_report(causality.FluxQuery(symbols, target=j, lag=lag))
               for j in range(signal.n_variables)]
    cmap = causality.CausalityMap.from_reports(reports, order)
    with (out_dir / "flux_map.csv").open("w") as fh:
        fh.write("subset," + ",".join(f"to_{n}" for n in signal.names) + "\n")
        for s, subset in enumerate(cmap.subsets):
            label = "+".join(signal.names[v] for v in subset)
            fh.write(label + "," + ",".join(repr(float(v)) for v in cmap.values[s]) + "\n")

    leaks = {}
    residuals = {}
    for name, rep in zip(signal.names, reports):
        residuals[name] = abs(sum(rep.fluxes.values()) + rep.leak - rep.target_entropy)
        leaks[name] = rep.normalized_leak
        log.info("leak fraction %s: %.6f", name, leaks[name])
    identity_ok = all(r <= tol for r in residuals.values())
    _write_report(out_dir, {
        "command": "causality",
        "config": {"lag": lag, "order": order, "bins": bins, "scheme": scheme,
                   "identity_tolerance": tol,
                   "source": config.get("input", config.get("system"))},
        "names": list(signal.names),
        "leak_fractions": leaks,
        "identity_residuals": residuals,
        "identity_ok": identity_ok,
        "subsets": [list(s) for s in cmap.subsets],
        "flux_values": cmap.values,
    })
    return EXIT_OK if identity_ok else EXIT_IDENTITY


FIT_FAMILIES = ("affine-noise",)


def _affine_noise_signal(theta, g):
    # two-parameter location/scale family: x = theta0 + theta1 * g
    return SignalMatrix((theta[0] + theta[1] * g)[:, None], ("x",))


def _reference_pmf(true_theta, g, bins):
    # the reference histogram on edges spanning its samples with a margin;
    # the samples themselves are dropped on return
    x = _affine_noise_signal(true_theta, g)
    edges = np.linspace(x.values.min() - 1.0, x.values.max() + 1.0, bins + 1)
    spec = PartitionSpec("explicit-edges", edges=(edges,))
    return estimate_joint_pmf(discretize(x, spec), [(0, 0)]), spec


def cmd_fit(config: dict, args, out_dir: Path) -> int:
    family = config.get("family", "affine-noise")
    if family not in FIT_FAMILIES:
        raise ConfigError(f"unknown family {family!r}; known: {FIT_FAMILIES}")
    try:
        true_theta = np.asarray(config["true_theta"], dtype=float)
        init_theta = np.asarray(config["init_theta"], dtype=float)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"fit config needs numeric true_theta and init_theta: {exc}") from exc
    for key, theta in (("true_theta", true_theta), ("init_theta", init_theta)):
        if theta.shape != (2,):
            raise ConfigError(f"{family} needs {key} with exactly 2 entries, got {theta.tolist()}")
    bounds = config.get("bounds")
    n_samples = _config_int(config.get("n_samples", 200000), "n_samples")
    seed = _config_int(args.seed if args.seed is not None else config.get("seed", 0), "seed")
    bins = _config_int(args.bins if args.bins is not None else config.get("bins", 32), "bins")
    options = {"epsilon": 1e-9}
    options.update(config.get("options", {}))

    # One noise draw serves the reference and every evaluation (common random
    # numbers). The objective is a lag-0 histogram, blind to sample order, so
    # the draw is sorted: theta0 + theta1*g stays monotone, and the bin search
    # over monotone samples is about three times faster.
    g = np.sort(np.random.default_rng(seed).standard_normal(n_samples))
    reference, spec = _reference_pmf(true_theta, g, bins)
    simulate = lambda p: _affine_noise_signal(p.theta, g)
    fitted, trace = modeling.kl_fit(simulate, reference, spec, ModelParams(init_theta, bounds), options)
    trace.write_csv(out_dir / "trace.csv")

    report = {
        "command": "fit",
        "config": {"family": family, "true_theta": true_theta, "init_theta": init_theta,
                   "bounds": bounds, "n_samples": n_samples, "seed": seed, "bins": bins,
                   "options": options},
        "fitted_theta": fitted.theta,
        "theta_error": np.abs(fitted.theta - true_theta),
        "converged": trace.converged,
        "n_iterations": len(trace.records),
        "best_kl": trace.best()["value"],
    }
    if "ml_check" in config:
        mc = config["ml_check"]
        report["ml_check"] = _run_ml_check(
            float(mc.get("p_true", 0.3)),
            [float(p) for p in mc.get("p_grid", [i / 10 for i in range(1, 10)])],
            _config_int(mc.get("n_samples", 1000), "ml_check.n_samples"),
            _config_int(mc.get("seed", seed), "ml_check.seed"),
        )
    _write_report(out_dir, report)
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def _run_ml_check(p_true, p_grid, n_samples, seed):
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


def cmd_control(config: dict, args, out_dir: Path) -> int:
    plant_cfg = config.get("plant", {})
    plant = systems.LinearPlant(**{k: float(v) for k, v in plant_cfg.items()})
    tgt_cfg = config.get("target", {})
    mu = np.atleast_1d(np.asarray(tgt_cfg.get("mu", [0.0]), dtype=float))
    sigma = np.atleast_2d(np.asarray(tgt_cfg.get("sigma", [[0.25]]), dtype=float))
    target = control.ControlTarget(mu, sigma,
                                   float(tgt_cfg.get("relax_mu", 0.6)),
                                   float(tgt_cfg.get("relax_sigma", 0.6)))
    init_cfg = config.get("init", {})
    init = control.ControllerParams(
        theta_s=init_cfg.get("theta_s", [0.0]),
        theta_aa=init_cfg.get("theta_aa", [0.0]),
        bounds_s=init_cfg.get("bounds_s", [[0.0, 4.0]]),
        bounds_aa=init_cfg.get("bounds_aa", [[0.0, 1.0]]),
    )
    options = dict(config.get("options", {}))
    if args.seed is not None:
        options["seed"] = args.seed
    if args.bins is not None:
        options["bins"] = args.bins
    # the search runs on the defaults overlaid by the options; the report
    # keeps the options as given
    opts = {**control.CONTROLLER_DEFAULTS, **options}
    for key in ("seed", "n_steps", "transient", "bins"):
        opts[key] = _config_int(opts[key], f"options.{key}")
    steps = opts["n_steps"], opts["transient"], opts["seed"]
    uncontrolled = control.rollout(plant, init.replace(theta_aa=np.zeros_like(init.theta_aa)), *steps)
    if opts["reference_edges"] is None:  # the search would roll out the same trajectory
        opts["reference_edges"] = control.padded_edges(uncontrolled, opts["bins"])
    best, trace = control.optimize_controller(plant, target, init, opts)
    controlled = control.rollout(plant, best, *steps)
    trace.write_csv(out_dir / "trace.csv")
    _write_report(out_dir, {
        "command": "control",
        "config": {"plant": plant_cfg, "target": tgt_cfg, "init": init_cfg, "options": options},
        "best_theta_s": best.theta_s,
        "best_theta_aa": best.theta_aa,
        "best_kl": trace.best()["value"],
        "uncontrolled_variance": float(uncontrolled.column("J").var()),
        "controlled_variance": float(controlled.column("J").var()),
        "accepted_kl": [r["value"] for r in trace.records if r["accepted"]],
        "n_outer_iterations": len(trace.records),
    })
    return EXIT_OK


def cmd_fixtures(config: dict, args, out_dir: Path) -> int:
    suite = systems.symbolic_map_suite()
    catalog = {}
    for name, fx in sorted(suite.items()):
        catalog[name] = {
            "variables": list(fx.names),
            "alphabet": list(fx.alphabet),
            "target": fx.target,
            "joint_entropy_bits": infocore.entropy(fx.exact_joint),
            "support_count": fx.exact_joint.support_count,
        }
    payload = {"command": "fixtures", "config": config, "catalog": catalog}
    name = config.get("name")
    if name is not None:
        if name not in suite:
            raise ConfigError(f"unknown fixture {name!r}; known: {sorted(suite)}")
        fx = suite[name]
        n = _config_int(config.get("n_samples", 1000), "n_samples")
        seed = _config_int(args.seed if args.seed is not None else config.get("seed", 0), "seed")
        series = fx.sample(n, seed)
        write_csv(SignalMatrix(series.codes.astype(float), fx.names), out_dir / "samples.csv")
        payload["sampled"] = {"name": name, "n_samples": n, "seed": seed}
    _write_report(out_dir, payload)
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
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--bins", type=int, default=None)
    parser.add_argument("--lag", type=int, default=None)
    parser.add_argument("--order", type=int, default=None)
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
        _validate(config, args.command)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, args, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBlowup as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLANT_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
