"""The parameter table: every config key's type, default and range.

SECTIONS maps each key of a section to (type, default, detail). The detail
is a range for the numeric types (conditions joined by " and "), the
allowed values of a name, or the section a section key resolves; KIND
names the section after the sibling `kind` (a system's parameters, checked
only when given). `resolve` is the one check behind the CLI, `SystemSpec`,
`simulate`, `LinearPlant`, `ControlTarget` and `optimize_controller`.
Checks that relate two keys stay with the code that owns them.
"""

from __future__ import annotations

import math
import operator

import numpy as np

INT, FLOAT, INT_LIST, FLOAT_LIST, MATRIX, NAME, PATH, SECTION = (
    "int", "float", "int list", "float list", "matrix", "name", "path", "section")
REQUIRED = "required"  # the default of a key that must be given
KIND = "kind"  # a section key whose section is named by the sibling `kind`

COMMANDS = ("simulate", "causality", "fit", "control", "fixtures")
KINDS = ("coupled-logistic", "lorenz96", "goy-shell", "linear-plant", "symbolic-map")
# the names of systems.symbolic_map_suite(), and the partition schemes
FIXTURES = ("markov_pair", "noise_target", "redundant_pair", "rotation4", "rotation_pair", "xor")
SCHEMES = ("equiprobable-quantile", "uniform-width", "explicit-edges")

PLANT = {"a": (FLOAT, 0.9, "finite"), "noise_std": (FLOAT, 0.5, "finite and >= 0"),
         "sensor_noise_std": (FLOAT, 0.1, "finite and >= 0"),
         "max_delay": (FLOAT, 4.0, "finite and >= 0")}

SECTIONS = {
    "simulate": {"system": (SECTION, REQUIRED, "system")},
    "causality": {
        "input": (PATH, None, None), "system": (SECTION, None, "system"),
        "lag": (INT, 1, ">= 1"), "order": (INT, 1, ">= 1 and <= 3"), "bins": (INT, 8, ">= 2"),
        "scheme": (NAME, "equiprobable-quantile", SCHEMES[:2]),  # a config gives no edges
        "identity_tolerance": (FLOAT, 1e-10, ">= 0")},
    "fit": {
        "family": (NAME, "affine-noise", ("affine-noise",)),
        "true_theta": (FLOAT_LIST, REQUIRED, None), "init_theta": (FLOAT_LIST, REQUIRED, None),
        "bounds": (MATRIX, None, None), "n_samples": (INT, 200000, ">= 2"),
        "seed": (INT, 0, ">= 0"), "bins": (INT, 32, ">= 2"),
        "options": (SECTION, {}, "fit.options"), "ml_check": (SECTION, None, "ml_check")},
    "fit.options": {
        "tol": (FLOAT, 1e-6, ">= 0"), "max_iters": (INT, 200, ">= 1"),
        "epsilon": (FLOAT, 1e-9, "> 0"), "initial_step": (FLOAT, 0.05, "> 0")},
    "ml_check": {
        "p_true": (FLOAT, 0.3, ">= 0 and <= 1"),
        "p_grid": (FLOAT_LIST, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), ">= 0 and <= 1"),
        "n_samples": (INT, 1000, ">= 1"),
        "seed": (INT, None, ">= 0")},  # none: the fit's seed
    "control": {
        "plant": (SECTION, {}, "plant"), "target": (SECTION, {}, "target"),
        "init": (SECTION, {}, "init"), "options": (SECTION, {}, "control.options")},
    "plant": PLANT,
    "target": {
        "mu": (FLOAT_LIST, (0.0,), None), "sigma": (MATRIX, ((0.25,),), None),
        "relax_mu": (FLOAT, 0.6, "> 0 and <= 1"), "relax_sigma": (FLOAT, 0.6, "> 0 and <= 1")},
    "init": {
        "theta_s": (FLOAT_LIST, (0.0,), None), "theta_aa": (FLOAT_LIST, (0.0,), None),
        "bounds_s": (MATRIX, ((0.0, 4.0),), None), "bounds_aa": (MATRIX, ((0.0, 1.0),), None)},
    "control.options": {
        "n_steps": (INT, 4000, None), "transient": (INT, 500, ">= 0"), "seed": (INT, 0, ">= 0"),
        "bins": (INT, 8, ">= 2"), "inner_tol": (FLOAT, 1e-6, ">= 0"),
        "inner_iters": (INT, 40, ">= 1"), "outer_iters": (INT, 8, ">= 1"),
        # the search starts from the target's relaxation and tightens it
        "relax_decay": (FLOAT, 0.5, "> 0 and <= 1"), "relax_floor": (FLOAT, 1e-3, "> 0 and <= 1"),
        "reference_edges": (FLOAT_LIST, None, None),  # none: from the uncontrolled rollout
        "initial_step": (FLOAT, 0.05, "> 0"), "kl_floor": (FLOAT, 1e-9, "> 0")},
    "fixtures": {},
    "system": {
        "kind": (NAME, REQUIRED, KINDS), "parameters": (SECTION, {}, KIND),
        "n_steps": (INT, 10000, ">= 1"), "transient_steps": (INT, 1000, ">= 0"),
        "seed": (INT, 0, ">= 0"), "dt": (FLOAT, 1e-3, "finite and > 0")},
    "coupled-logistic": {"coupling": (FLOAT, 0.4, None)},
    # Lorenz-96 sites i-2, i-1, i and i+1 must be distinct
    "lorenz96": {"n_sites": (INT, 8, ">= 4"), "forcing": (FLOAT, 8.0, None)},
    "goy-shell": {
        # the interaction weights of the two lowest shells are fixed
        "n_shells": (INT, 19, ">= 2"), "lam": (FLOAT, 2.0, None), "k0": (FLOAT, 0.0625, None),
        "nu": (FLOAT, 1e-7, None), "f_amp": (FLOAT, 5e-3, None),
        "forced_shell": (INT, 3, ">= 0"), "eps": (FLOAT, 0.5, None),
        "sample_every": (INT, 5, ">= 1"),
        # shell indices bounding the scales at which the interscale energy
        # transfer is recorded, and the smoothing time of the recorded signals
        "cuts": (INT_LIST, (6, 8, 10, 12), ">= 0"), "smooth_time": (FLOAT, 1.6, None)},
    "linear-plant": {**PLANT, "theta_s": (FLOAT, 0.0, None)},  # theta_s: the sensing delay
    "symbolic-map": {"name": (NAME, REQUIRED, FIXTURES)},
}

_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def resolve(section: str, given: dict) -> dict:
    """The `given` values of `section`, checked and laid over its defaults.

    Refuses an unknown or missing key, a wrong type and a value out of
    range with a ValueError naming the key: by its path in a CLI config, or
    after `section`. Ints come back as int and floats as float(value); the
    other values as given. A null is absent for a key whose default is none.
    """
    if not isinstance(given, dict):
        raise ValueError(f"{section} must be an object, got {given!r}")
    return _resolve(section, given, "" if section in COMMANDS else f"{section}.")


def _resolve(section, given, prefix):
    table = SECTIONS[section]
    for key in given:
        if key not in table:
            raise ValueError(f"{prefix}{key} is not a known key; known: {', '.join(table) or 'none'}")
    out = {}
    for key, (kind, default, detail) in table.items():
        value, path = given.get(key), prefix + key
        if value is None and (key not in given or default is None):  # absent
            if default == REQUIRED:
                raise ValueError(f"{path} is required")
            if kind == SECTION and default == {}:
                out[key] = {} if detail == KIND else _resolve(detail, {}, f"{path}.")
            else:
                out[key] = default
        elif kind != SECTION:
            out[key] = _value(kind, value, detail, path)
        elif not isinstance(value, dict):
            raise ValueError(f"{path} must be an object, got {value!r}")
        else:
            name = out["kind"] if detail == KIND else detail
            out[key] = _resolve(name, value, f"{name}." if detail == KIND else f"{path}.")
    return out


def _value(kind, value, detail, path):
    if kind == INT:
        # a bool, a string or a non-integral number is refused: int() would
        # read True as 1 and truncate 100.5 to 100
        if isinstance(value, (bool, np.bool_)) or not (
                isinstance(value, (int, np.integer))
                or isinstance(value, (float, np.floating)) and float(value).is_integer()):
            raise ValueError(f"{path} must be an integer, got {value!r}")
        return _in_range(int(value), detail, path)
    if kind == INT_LIST:  # dtype=object keeps each entry's own type, so a bool or a float is seen
        return [_value(INT, v, detail, f"{path}[{i}]")
                for i, v in enumerate(np.ravel(np.array(value, dtype=object)))]
    if kind == FLOAT:
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{path} must be a number, got {value!r}") from None
        return _in_range(number, detail, path)
    if kind in (FLOAT_LIST, MATRIX):
        try:
            numbers = np.ravel(np.asarray(value, dtype=float)).tolist()
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{path} must be a {kind} of numbers, got {value!r}") from None
        for i, number in enumerate(numbers):  # each entry in range, as for an INT_LIST
            _in_range(number, detail, f"{path}[{i}]")
    elif kind == NAME and not (isinstance(value, str) and value in detail):
        raise ValueError(f"{path} must be one of {list(detail)}, got {value!r}")
    elif kind == PATH and not isinstance(value, str):
        raise ValueError(f"{path} must be a path string, got {value!r}")
    return value


def _in_range(number, detail, path):
    """`number`, refused unless it meets every condition of the range `detail`,
    and refused as NaN (which fails any range) where there is no range."""
    for condition in detail.split(" and ") if detail else ():
        op, _, bound = condition.partition(" ")
        if not (math.isfinite(number) if op == "finite" else _OPS[op](number, float(bound))):
            raise ValueError(f"{path} must be {detail}, got {number!r}")
    if math.isnan(number):
        raise ValueError(f"{path} must be a number, got {number!r}")
    return number
