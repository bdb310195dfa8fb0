"""Span tracing of infodyn's layers, driven from outside the package.

`install()` wraps every public function of every infodyn module in every
namespace that bound it (`infocore.marginalize`, `cli.estimate_joint_pmf`,
`control.minimize`, ...), so calls made inside the package are seen too.
Each call becomes a span (name, start, end, parent, counts, error) kept in
memory; `layer_metrics()` turns one job's spans into the per-layer metrics
listed in BENCHMARK.json.

Run as a script, this module is the traced form of the `infodyn` CLI:

    python3 bench/tracing.py SPANS.json causality --config job.json --out out

It installs the wrappers, runs `infodyn.cli.main` on the remaining
arguments, writes the spans to SPANS.json and exits with the CLI's code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import sys
import time

# name given to the objective callbacks that descent.minimize evaluates; it is
# not a module, so its time is kept apart from every module's self time
OBJECTIVE = "objective"

_spans: list[list] = []   # [name, start, end, parent, counts, error]
_stack: list[int] = []
_originals: list[tuple[object, str, object]] = []


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _objective_wrapper(f):
    @functools.wraps(f)
    def traced(*args, **kwargs):
        return _call(OBJECTIVE, f, args, kwargs)
    return traced


def _minimize_args(args, kwargs):
    if args:
        return (_objective_wrapper(args[0]),) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=_objective_wrapper(kwargs["f"]))


# per-function extras: "before" rewrites the arguments, "counts" returns
# work counts taken from the arguments and the result
HOOKS = {
    "pmf.marginalize": {
        "counts": lambda a, k, r: {"rows": int(_arg(a, k, 0, "pmf").indices.shape[0])}},
    "systems.simulate": {
        "counts": lambda a, k, r: {"steps": int(_arg(a, k, 0, "spec").n_steps)}},
    "control.rollout": {
        "counts": lambda a, k, r: {"steps": int(_arg(a, k, 2, "n_steps"))}},
    "discretization.estimate_joint_pmf": {
        "counts": lambda a, k, r: {"support": int(r.support_count),
                                   "dense": int(math.prod(r.dims))}},
    "descent.minimize": {
        "before": _minimize_args,
        "counts": lambda a, k, r: {"iterations": len(r[2].records)}},
}


def _call(name, func, args, kwargs, hook=None):
    parent = _stack[-1] if _stack else -1
    index = len(_spans)
    span = [name, time.perf_counter(), None, parent, None, False]
    _spans.append(span)
    _stack.append(index)
    try:
        if hook and "before" in hook:
            args, kwargs = hook["before"](args, kwargs)
        result = func(*args, **kwargs)
    except BaseException:
        span[5] = True
        raise
    finally:
        span[2] = time.perf_counter()
        _stack.pop()
    if hook and "counts" in hook:
        span[4] = hook["counts"](args, kwargs, result)
    return result


def _wrap(func, name):
    hook = HOOKS.get(name)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        return _call(name, func, args, kwargs, hook)
    return traced


def install() -> int:
    """Wrap the public functions of every infodyn module in every infodyn
    namespace that holds them. Returns the number of bindings replaced."""
    package = importlib.import_module("infodyn")
    namespaces = [package]
    for info in pkgutil.iter_modules(package.__path__):
        namespaces.append(importlib.import_module(f"infodyn.{info.name}"))
    names = {}
    for module in namespaces[1:]:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                names[obj] = f"{short}.{attr}"
    wrappers = {func: _wrap(func, name) for func, name in names.items()}
    for module in namespaces:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                _originals.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    return len(_originals)


def uninstall():
    """Restore every binding `install` replaced and drop recorded spans."""
    while _originals:
        module, attr, obj = _originals.pop()
        setattr(module, attr, obj)
    _spans.clear()
    _stack.clear()


def spans() -> list[dict]:
    return [{"name": n, "start": s, "end": e, "parent": p, "counts": c or {}, "error": err}
            for n, s, e, p, c, err in _spans]


# ---------------------------------------------------------------------------
# span arithmetic


def module_of(name: str) -> str:
    return name.rsplit(".", 1)[0] if "." in name else name


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover
    (children are clipped to the parent and overlaps merged)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"]) - covered)
    return out


def inclusive_time(spans: list[dict], name: str) -> float:
    """Total duration of spans called `name`, counting a recursive call only
    at its outermost span."""
    total = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p >= 0 and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p < 0:
            total += s["end"] - s["start"]
    return total


def _count(spans, name, parent_module=None, error=None):
    n = 0
    for s in spans:
        if s["name"] != name:
            continue
        if parent_module is not None and (
                s["parent"] < 0 or module_of(spans[s["parent"]]["name"]) != parent_module):
            continue
        if error is not None and s["error"] != error:
            continue
        n += 1
    return n


def _sum_counts(spans, name, key):
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def _module_self(spans, selfs, module):
    return sum(t for s, t in zip(spans, selfs) if module_of(s["name"]) == module)


def _per_step_us(seconds, steps):
    return seconds / steps * 1e6 if steps else 0.0


# What each per-layer metric should move: the end-to-end metric and workload.
LATTICE = "job_s on causality-lattice; no change on cascade-goy"
SIMULATE = "job_s on cascade-goy; setup_s on causality-lattice"
ROLLOUT = "job_s on control-search"
DENSE = "job_s on fit-affine"

# Per-layer metrics: name -> (unit, what it should move, function of
# (spans, self_times)).
LAYER_METRICS = {
    "pmf.marginalize_s": ("s", LATTICE,
                          lambda sp, st: inclusive_time(sp, "pmf.marginalize")),
    "pmf.marginalize_calls": ("count", LATTICE,
                              lambda sp, st: _count(sp, "pmf.marginalize")),
    "pmf.marginalize_rows": ("count", LATTICE,
                             lambda sp, st: _sum_counts(sp, "pmf.marginalize", "rows")),
    "infocore.self_s": ("s", LATTICE,
                        lambda sp, st: _module_self(sp, st, "infocore")),
    "infocore.entropy_calls": ("count", LATTICE,
                               lambda sp, st: _count(sp, "infocore.entropy")),
    "infocore.kl_divergence_s": ("s", "job_s on control-search and fit-affine",
                                 lambda sp, st: inclusive_time(sp, "infocore.kl_divergence")),
    "infocore.kl_divergence_calls": ("count", "job_s on control-search and fit-affine",
                                     lambda sp, st: _count(sp, "infocore.kl_divergence")),
    "causality.flux_report_s": ("s", LATTICE,
                                lambda sp, st: inclusive_time(sp, "causality.flux_report")),
    "causality.causality_map_s": ("s", LATTICE,
                                  lambda sp, st: inclusive_time(sp, "causality.causality_map")),
    "causality.self_s": ("s", LATTICE,
                         lambda sp, st: _module_self(sp, st, "causality")),
    "causality.joints_built": ("count", LATTICE,
                               lambda sp, st: _count(sp, "discretization.estimate_joint_pmf",
                                                     parent_module="causality")),
    "causality.conditional_entropies": ("count", LATTICE,
                                        lambda sp, st: _count(sp, "infocore.conditional_entropy",
                                                              parent_module="causality")),
    "systems.simulate_s": ("s", SIMULATE,
                           lambda sp, st: inclusive_time(sp, "systems.simulate")),
    "systems.us_per_step": ("us", SIMULATE,
                            lambda sp, st: _per_step_us(inclusive_time(sp, "systems.simulate"),
                                                        _sum_counts(sp, "systems.simulate", "steps"))),
    "control.optimize_controller_s": ("s", ROLLOUT,
                                      lambda sp, st: inclusive_time(sp, "control.optimize_controller")),
    "control.rollout_s": ("s", ROLLOUT,
                          lambda sp, st: inclusive_time(sp, "control.rollout")),
    "control.rollout_calls": ("count", ROLLOUT,
                              lambda sp, st: _count(sp, "control.rollout")),
    "control.rollout_steps": ("count", ROLLOUT,
                              lambda sp, st: _sum_counts(sp, "control.rollout", "steps")),
    "control.rollout_us_per_step": ("us", ROLLOUT,
                                    lambda sp, st: _per_step_us(inclusive_time(sp, "control.rollout"),
                                                                _sum_counts(sp, "control.rollout", "steps"))),
    "control.rollout_failures": ("count", ROLLOUT,
                                 lambda sp, st: _count(sp, "control.rollout", error=True)),
    "control.self_s": ("s", ROLLOUT,
                       lambda sp, st: _module_self(sp, st, "control")),
    "descent.minimize_calls": ("count", ROLLOUT,
                               lambda sp, st: _count(sp, "descent.minimize")),
    "descent.iterations": ("count", ROLLOUT,
                           lambda sp, st: _sum_counts(sp, "descent.minimize", "iterations")),
    "descent.objective_evals": ("count", ROLLOUT,
                                lambda sp, st: _count(sp, OBJECTIVE)),
    "descent.self_s": ("s", ROLLOUT,
                       lambda sp, st: _module_self(sp, st, "descent")),
    "descent.objective_self_s": ("s", DENSE,
                                 lambda sp, st: _module_self(sp, st, OBJECTIVE)),
    "discretization.discretize_s": ("s", DENSE,
                                    lambda sp, st: inclusive_time(sp, "discretization.discretize")),
    "discretization.discretize_calls": ("count", DENSE,
                                        lambda sp, st: _count(sp, "discretization.discretize")),
    "discretization.estimate_joint_pmf_s": ("s", DENSE,
                                            lambda sp, st: inclusive_time(
                                                sp, "discretization.estimate_joint_pmf")),
    "discretization.estimate_joint_pmf_calls": ("count", DENSE,
                                                lambda sp, st: _count(
                                                    sp, "discretization.estimate_joint_pmf")),
    "discretization.support_cells": ("count", DENSE,
                                     lambda sp, st: _sum_counts(
                                         sp, "discretization.estimate_joint_pmf", "support")),
    # computed from dims (prod per call), not measured
    "discretization.dense_cells_computed": ("count", "job_s on fit-affine; peak_rss_mib where prod(dims) is large",
                                            lambda sp, st: _sum_counts(
                                                sp, "discretization.estimate_joint_pmf", "dense")),
    "modeling.kl_fit_s": ("s", DENSE,
                          lambda sp, st: inclusive_time(sp, "modeling.kl_fit")),
    "modeling.ml_equivalence_check_s": ("s", DENSE,
                                        lambda sp, st: inclusive_time(sp, "modeling.ml_equivalence_check")),
    "signals.read_csv_s": ("s", LATTICE,
                           lambda sp, st: inclusive_time(sp, "signals.read_csv")),
    "cli.self_s": ("s", "job_s on every workload",
                   lambda sp, st: _module_self(sp, st, "cli")),
}

# measured by the runner (traced job_s minus untraced job_s), not from spans
OVERHEAD_METRIC = ("trace.overhead_s", "s", "none: the cost of tracing itself")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """One job's per-layer metrics."""
    selfs = self_times(spans)
    return {name: float(fn(spans, selfs)) for name, (_, _, fn) in LAYER_METRICS.items()}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracing.py SPANS.json <infodyn cli arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    install()
    import infodyn.cli
    try:
        code = infodyn.cli.main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump(spans(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
