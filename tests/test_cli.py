import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import causality, cli, control, discretization, modeling, params, systems
from infodyn.cli import main
from infodyn.discretization import PartitionSpec, discretize, estimate_joint_pmf
from infodyn.modeling import ModelParams
from infodyn.signals import SignalMatrix, read_csv, write_csv


def run(tmp_path, command, config, out="run", extra=()):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / out
    code = main([command, "--config", str(cfg), "--out", str(out_dir), *extra])
    return code, out_dir


def test_simulate_writes_signal_and_report(tmp_path):
    code, out = run(tmp_path, "simulate", {
        "system": {"kind": "coupled-logistic", "n_steps": 2000, "transient_steps": 200, "seed": 1},
    })
    assert code == 0
    assert (out / "signal.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["names"] == ["x", "y"]
    assert report["n_samples"] == 1800


def test_unknown_config_key_exits_2(tmp_path):
    code, _ = run(tmp_path, "simulate", {"system": {"kind": "lorenz96"}, "bogus": 1})
    assert code == 2


def test_missing_config_file_exits_2(tmp_path):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_malformed_json_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_causality_from_system(tmp_path):
    code, out = run(tmp_path, "causality", {
        "system": {"kind": "coupled-logistic", "n_steps": 20000, "transient_steps": 1000, "seed": 2},
        "bins": 4, "lag": 1, "order": 2,
    })
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["identity_ok"] is True
    assert all(v < 1e-10 for v in report["identity_residuals"].values())
    header = (out / "flux_map.csv").read_text().splitlines()[0]
    assert header == "subset,to_x,to_y"


def test_causality_identity_failure_exits_1(tmp_path, capsys, monkeypatch):
    # A tolerance below 0 is refused, and this run's residuals are 0, so the
    # failure comes from leaks moved by 1e-9 bits, past the default 1e-10
    flux_reports = causality.flux_reports

    def leaks_moved(symbols, lag):
        reports = flux_reports(symbols, lag)
        for rep in reports:
            rep.leak += 1e-9
        return reports

    monkeypatch.setattr(causality, "flux_reports", leaks_moved)
    code, out = run(tmp_path, "causality", {
        "system": {"kind": "coupled-logistic", "n_steps": 5000, "transient_steps": 500, "seed": 2},
        "bins": 4,
    })
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["identity_ok"] is False
    # leak fractions go to the report alone, not to stdout
    assert capsys.readouterr().out == ""
    assert sorted(report["leak_fractions"]) == ["x", "y"]


def test_causality_warns_once_for_the_fullest_joint(tmp_path):
    # 3 variables at 8 bins on 300 samples: every target's joint fills more
    # than 10% of its cells; the run warns once, for the fullest joint
    rng = np.random.default_rng(2)
    path = tmp_path / "signal.csv"
    write_csv(SignalMatrix(rng.standard_normal((300, 3)), ("a", "b", "c")), path)
    symbols = discretize(read_csv(path), PartitionSpec(bins_per_variable=8))
    with pytest.warns(discretization.OccupancyWarning):
        occupied = max(estimate_joint_pmf(symbols, [(j, 1), (0, 0), (1, 0), (2, 0)]).support_count
                       for j in range(3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, "causality", {"input": str(path), "bins": 8})
    assert code == 0
    assert [str(w.message) for w in caught] == [
        f"occupied cells ({occupied}) exceed 10% of sample count (299); "
        "PMF estimate may be unreliable"]


def test_causality_refuses_order_before_any_joint(tmp_path, capsys):
    # the input of the occupancy-warning test above: a run that estimated
    # its joints would warn before reaching the order check
    path = tmp_path / "signal.csv"
    write_csv(SignalMatrix(np.random.default_rng(2).standard_normal((300, 3)), ("a", "b", "c")),
              path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, "causality", {"input": str(path), "bins": 8, "order": 4})
    assert code == 2
    assert capsys.readouterr().err == "error: order must be >= 1 and <= 3, got 4\n"
    assert not [w for w in caught if issubclass(w.category, discretization.OccupancyWarning)]


def test_causality_from_csv_input(tmp_path):
    sim_code, sim_out = run(tmp_path, "simulate", {
        "system": {"kind": "coupled-logistic", "n_steps": 5000, "transient_steps": 500, "seed": 3},
    }, out="simrun")
    assert sim_code == 0
    code, out = run(tmp_path, "causality", {
        "input": str(sim_out / "signal.csv"), "bins": 4,
    }, out="causrun")
    assert code == 0


def test_causality_missing_source_exits_2(tmp_path):
    code, _ = run(tmp_path, "causality", {"bins": 4})
    assert code == 2


@pytest.mark.parametrize("config, zero_entropy_targets", [
    # two samples at lag 58: every target is constant
    pytest.param({"system": {"kind": "lorenz96", "n_steps": 60, "transient_steps": 0,
                             "parameters": {"n_sites": 4}}, "lag": 58},
                 ["x0", "x1", "x2", "x3"], id="lorenz96 lag 58"),
    # the uncontrolled plant's action A is constant, one uniform-width bin
    pytest.param({"system": {"kind": "linear-plant", "n_steps": 58, "transient_steps": 0},
                  "lag": 34, "scheme": "uniform-width"}, ["A"], id="linear-plant lag 34"),
])
def test_causality_of_a_target_with_zero_entropy_exits_0(tmp_path, config, zero_entropy_targets):
    # these exited 5 with "error: ZeroDivisionError: float division by zero"
    code, out = run(tmp_path, "causality", config)
    assert code == 0
    leaks = json.loads((out / "report.json").read_text())["leak_fractions"]
    assert [leaks[name] for name in zero_entropy_targets] == [0.0] * len(zero_entropy_targets)


# small runs of every system kind that no draw below can make blow up
CAUSALITY_SYSTEMS = {
    "lorenz96": st.fixed_dictionaries({"n_sites": st.integers(4, 6),
                                       "forcing": st.floats(-10.0, 10.0)}),
    "coupled-logistic": st.fixed_dictionaries({"coupling": st.floats(0.0, 1.0)}),
    "goy-shell": st.fixed_dictionaries({"n_shells": st.integers(13, 19),
                                        "sample_every": st.integers(1, 5)}),
    "linear-plant": st.fixed_dictionaries({"a": st.floats(-0.95, 0.95),
                                           "theta_s": st.floats(0.0, 4.0)}),
    "symbolic-map": st.fixed_dictionaries({"name": st.sampled_from(params.FIXTURES)}),
}


@st.composite
def system_configs(draw):
    kind = draw(st.sampled_from(sorted(CAUSALITY_SYSTEMS)))
    return {"kind": kind, "n_steps": draw(st.integers(12, 400)),
            "transient_steps": draw(st.integers(0, 10)), "seed": draw(st.integers(0, 3)),
            "parameters": draw(CAUSALITY_SYSTEMS[kind])}


@st.composite
def causality_configs(draw):
    system = draw(system_configs())
    return {"system": system,
            "lag": draw(st.integers(1, system["n_steps"])), "order": draw(st.integers(1, 3)),
            "bins": draw(st.integers(2, 12)),
            "scheme": draw(st.sampled_from(params.SECTIONS["causality"]["scheme"][2]))}


def run_quietly(command, config):
    """Exit code and stderr of one CLI run in a scratch directory."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", discretization.OccupancyWarning)
        cfg = Path(d) / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([command, "--config", str(cfg), "--out", str(Path(d) / "out")])
    err = err.getvalue()
    assert len([line for line in err.splitlines() if line.startswith("error:")]) <= 1, err
    assert "Traceback" not in err
    return code, err


@settings(max_examples=100, deadline=None)
@given(causality_configs())
def test_causality_on_any_small_system_exits_with_a_documented_code(config):
    # 0 (run), 1 (identity check failed) or 2 (refused), in one line at most
    code, err = run_quietly("causality", config)
    assert code in (0, 1, 2), (config, err)


# the sizes that keep a run under 0.5 s, always given: the defaults (fit's
# 200000 samples, control's 4000 steps and 8 x 40 iterations) take longer
SIZES = {"n_samples": 20_000, "n_steps": 800, "inner_iters": 3, "outer_iters": 2}


def numbers(detail, integral, cap=40):
    """A number within the range `detail` in seven draws of eight, else any:
    integers from -1 to `cap`, floats within +-3, NaN and the infinities."""
    low, high, low_open, high_open = -3.0, 3.0, False, False
    for condition in detail.split(" and ") if detail else ():
        op, _, bound = condition.partition(" ")
        if op in (">=", ">"):
            low, low_open = float(bound), op == ">"
        elif op in ("<=", "<"):
            high, high_open = float(bound), op == "<"
    if integral:
        usual = st.integers(int(low) + low_open if detail else -1, cap)
        rare = st.integers(-1, cap)
    else:
        usual = st.floats(low, high, exclude_min=low_open, exclude_max=high_open)
        rare = st.floats(-3.0, 3.0) | st.sampled_from([math.nan, math.inf, -math.inf])
    return st.tuples(st.integers(0, 7), usual, rare).map(lambda t: t[2] if t[0] == 0 else t[1])


def section_configs(section):
    """Each key of params.SECTIONS[section] drawn by its type, given or left
    out; a required key and a key of SIZES are always given."""
    always, optional = {}, {}
    for key, (kind, default, detail) in params.SECTIONS[section].items():
        if kind == params.INT:
            strategy = numbers(detail, True, SIZES.get(key, 40))
        elif kind == params.FLOAT:
            strategy = numbers(detail, False)
        elif kind == params.FLOAT_LIST:
            strategy = st.lists(numbers(detail, False), min_size=1, max_size=2)
        elif kind == params.MATRIX:
            strategy = st.lists(st.lists(numbers(detail, False), min_size=1, max_size=2),
                                min_size=1, max_size=2)
        elif kind == params.NAME:
            strategy = st.sampled_from(detail)
        else:  # the sections of fit and control
            strategy = section_configs(detail)
        (always if default == params.REQUIRED or key in SIZES else optional)[key] = strategy
    return st.fixed_dictionaries(always, optional=optional)


# each key of the command's section in params.SECTIONS, given or left out
# (simulate's one key, system, is required; fixtures has none)
COMMAND_CONFIGS = {
    "simulate": st.fixed_dictionaries({"system": system_configs()}),
    "fixtures": st.just({}),
    "fit": section_configs("fit"),
    "control": section_configs("control"),
}
# 0 (run), 2 (refused), 3 (a fit that did not converge), 4 (blow-up)
EXITS = {"simulate": (0, 2, 4), "fixtures": (0, 2), "fit": (0, 2, 3), "control": (0, 2, 4)}


def run_any_config(command, data):
    """A drawn config of `command`: a documented exit, in one line at most."""
    config = data.draw(COMMAND_CONFIGS[command])
    code, err = run_quietly(command, config)
    assert code in EXITS[command], (config, err)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["fixtures", "simulate"]), st.data())
def test_simulate_and_fixtures_with_any_config_exit_with_a_documented_code(command, data):
    run_any_config(command, data)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["control", "fit"]), st.data())
def test_fit_and_control_with_any_keys_exit_with_a_documented_code(command, data):
    run_any_config(command, data)


def test_causality_refuses_both_input_and_system(tmp_path, capsys):
    # the system was ignored, and the report's source read the CSV path
    write_csv(SignalMatrix(np.random.default_rng(0).standard_normal((50, 2)), ("x", "y")),
              tmp_path / "signal.csv")
    code, out = run(tmp_path, "causality", {"input": str(tmp_path / "signal.csv"),
                                            "system": {"kind": "coupled-logistic"}})
    assert code == 2
    assert capsys.readouterr().err == "error: causality reads either 'input' or 'system', not both\n"
    assert not (out / "report.json").exists()


def test_fit_converges_and_reports(tmp_path):
    code, out = run(tmp_path, "fit", {
        "true_theta": [0.5, 1.2], "init_theta": [0.0, 0.8],
        "bounds": [[-2, 2], [0.1, 3]], "n_samples": 50000, "bins": 32,
        "ml_check": {"p_true": 0.3, "n_samples": 2000}, "options": {"max_iters": 200.0},
    })
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # the options as given, not as the search read them
    assert report["config"]["options"] == {"epsilon": 1e-9, "max_iters": 200.0}
    assert report["converged"] is True
    assert max(report["theta_error"]) < 1e-2
    assert report["ml_check"]["agree"] is True
    assert (out / "trace.csv").exists()


def test_fit_unknown_family_exits_2(tmp_path):
    code, _ = run(tmp_path, "fit", {"family": "spline", "true_theta": [0.0], "init_theta": [0.0]})
    assert code == 2


@pytest.mark.parametrize("key", ["true_theta", "init_theta"])
def test_fit_refuses_theta_without_two_entries(tmp_path, capsys, key):
    config = {"true_theta": [0.5, 1.2], "init_theta": [0.0, 0.8], "n_samples": 1000}
    config[key] = [0.5]
    code, _ = run(tmp_path, "fit", config)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: affine-noise needs {key} with exactly 2 entries")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("bins", -2, "bins must be >= 2, got -2"),  # was "Number of samples, -1, must be non-negative"
    ("n_samples", -5, "n_samples must be >= 2, got -5"),  # was "negative dimensions are not allowed"
    ("n_samples", 1, "n_samples must be >= 2, got 1"),
    # was "empty trace", from a search that made no step
    ("options", {"max_iters": 0}, "options.max_iters must be >= 1, got 0"),
])
def test_fit_refuses_out_of_range_sizes(tmp_path, capsys, key, value, message):
    config = {"true_theta": [0.5, 1.2], "init_theta": [0.0, 0.8], "n_samples": 1000, key: value}
    code, _ = run(tmp_path, "fit", config)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


FIT = {"true_theta": [0.5, 1.2], "init_theta": [0.0, 0.8], "n_samples": 1000}


@pytest.mark.parametrize("command, config, message", [
    # each was an exit 1 with a TypeError traceback
    ("fit", {**FIT, "options": {"tol": "abc"}}, "options.tol must be a number, got 'abc'"),
    ("fit", {**FIT, "options": {"initial_step": "x"}},
     "options.initial_step must be a number, got 'x'"),
    ("control", {"options": {"relax_decay": "x"}}, "options.relax_decay must be a number, got 'x'"),
    ("control", {"options": {"inner_tol": "x"}}, "options.inner_tol must be a number, got 'x'"),
    ("simulate", {"system": {"kind": "goy-shell", "parameters": {"smooth_time": "x"}}},
     "goy-shell.smooth_time must be a number, got 'x'"),
    ("simulate", {"system": {"kind": "goy-shell", "parameters": {"lam": "x"}}},
     "goy-shell.lam must be a number, got 'x'"),
    # an exit 1 with a _UFuncNoLoopError traceback
    ("fit", {**FIT, "options": {"epsilon": "x"}}, "options.epsilon must be a number, got 'x'"),
    # each was an exit 2 in NumPy's or internal wording, naming no key
    ("fit", {**FIT, "ml_check": {"n_samples": 0}}, "ml_check.n_samples must be >= 1, got 0"),
    ("control", {"options": {"outer_iters": 0}}, "options.outer_iters must be >= 1, got 0"),
    ("control", {"options": {"bins": 1}}, "options.bins must be >= 2, got 1"),
    ("control", {"plant": {"a": "x"}}, "plant.a must be a number, got 'x'"),
    ("simulate", {"system": {"kind": "goy-shell", "parameters": {"eps": [1, 2]}}},
     "goy-shell.eps must be a number, got [1, 2]"),
    ("simulate", {"system": {"kind": "linear-plant", "parameters": {"noise_std": -1}}},
     "linear-plant.noise_std must be finite and >= 0, got -1.0"),
    ("causality", {"input": "x.csv", "identity_tolerance": "x"},
     "identity_tolerance must be a number, got 'x'"),
    # read by nothing, now unknown
    ("simulate", {"system": {"kind": "coupled-logistic"}, "output_format": "csv"},
     "output_format is not a known key; known: system"),
    # fixtures writes only its catalog: simulate with kind symbolic-map samples a fixture
    pytest.param("fixtures", {"seed": -1}, "seed is not a known key; known: none",
                 id="negative fixtures seed"),
    # each was an exit 2 in NumPy's "expected non-negative integer"
    pytest.param("simulate", {"system": {"kind": "coupled-logistic", "seed": -1}},
                 "system.seed must be >= 0, got -1", id="negative system seed"),
    # each was an exit 2 in internal wording that named no key
    # "need at least 2 bins per variable"
    pytest.param("causality", {"system": {"kind": "coupled-logistic"}, "bins": 1},
                 "bins must be >= 2, got 1", id="causality bins 1"),
    # "need at least 2 time samples"
    pytest.param("control", {"options": {"n_steps": 0, "transient": 0}},
                 "n_steps must be >= transient + 2 = 2, got 0", id="control no samples"),
    pytest.param("control", {"options": {"n_steps": 501}},
                 "n_steps must be >= transient + 2 = 502, got 501", id="control one sample"),
    # "need at least 1 variable"
    pytest.param("simulate", {"system": {"kind": "goy-shell", "parameters": {"cuts": []}}},
                 "goy-shell.cuts must list at least 1 shell, got []", id="goy-shell no cuts"),
    # a zero or negative KL floor divided by zero: fit ended in "values
    # contain NaN or Inf", control in a blow-up at step 1 (exit 4)
    pytest.param("fit", {**FIT, "options": {"epsilon": 0}}, "options.epsilon must be > 0, got 0.0",
                 id="fit epsilon 0"),
    pytest.param("fit", {**FIT, "options": {"epsilon": -1}}, "options.epsilon must be > 0, got -1.0",
                 id="fit epsilon -1"),
    pytest.param("control", {"options": {"kl_floor": 0}}, "options.kl_floor must be > 0, got 0.0",
                 id="control kl_floor 0"),
    pytest.param("control", {"options": {"kl_floor": -1}}, "options.kl_floor must be > 0, got -1.0",
                 id="control kl_floor -1"),
    # each exited 0: no step at all, an uphill first step, a negative relaxation
    pytest.param("control", {"options": {"inner_iters": -3}}, "options.inner_iters must be >= 1, got -3",
                 id="control inner_iters -3"),
    pytest.param("control", {"options": {"initial_step": -1}},
                 "options.initial_step must be > 0, got -1.0", id="control initial_step -1"),
    pytest.param("fit", {**FIT, "options": {"initial_step": -1}},
                 "options.initial_step must be > 0, got -1.0", id="fit initial_step -1"),
    pytest.param("control", {"options": {"relax_decay": -2}},
                 "options.relax_decay must be > 0 and <= 1, got -2.0", id="control relax_decay -2"),
    pytest.param("control", {"options": {"relax_floor": -1}},
                 "options.relax_floor must be > 0 and <= 1, got -1.0", id="control relax_floor -1"),
    # the search starts from target.relax_mu and target.relax_sigma
    pytest.param("control", {"options": {"relax_init": 5.0}},
                 "options.relax_init is not a known key; known: n_steps, transient, seed, bins, "
                 "inner_tol, inner_iters, outer_iters, relax_decay, relax_floor, reference_edges, "
                 "initial_step, kl_floor", id="control relax_init"),
    # each was "need at least 2 time samples", naming no key
    pytest.param("simulate", {"system": {"kind": "lorenz96", "n_steps": 101, "transient_steps": 100}},
                 "system.n_steps must be >= transient_steps + 2 = 102, got 101",
                 id="lorenz96 one sample"),
    pytest.param("simulate", {"system": {"kind": "goy-shell", "n_steps": 109, "transient_steps": 100}},
                 "goy-shell.sample_every must be <= (n_steps - transient_steps) // 2 = 4, got 5",
                 id="goy-shell one sample"),
    pytest.param("simulate", {"system": {"kind": "goy-shell", "n_steps": 1000, "transient_steps": 0,
                                         "parameters": {"sample_every": 999}}},
                 "goy-shell.sample_every must be <= (n_steps - transient_steps) // 2 = 500, got 999",
                 id="goy-shell sample_every 999"),
    # an infinite max_delay was an exit 1 with an OverflowError traceback
    pytest.param("control", {"plant": {"max_delay": math.inf}},
                 "plant.max_delay must be finite and >= 0, got inf", id="control max_delay inf"),
    pytest.param("simulate", {"system": {"kind": "linear-plant", "parameters": {"max_delay": math.inf}}},
                 "linear-plant.max_delay must be finite and >= 0, got inf", id="linear-plant max_delay inf"),
    # each was an exit 4 with a blow-up at step 1
    pytest.param("control", {"plant": {"a": math.nan}}, "plant.a must be finite, got nan",
                 id="control plant a nan"),
    pytest.param("control", {"plant": {"noise_std": math.inf}},
                 "plant.noise_std must be finite and >= 0, got inf", id="control noise_std inf"),
    pytest.param("simulate", {"system": {"kind": "linear-plant",
                                         "parameters": {"sensor_noise_std": math.inf}}},
                 "linear-plant.sensor_noise_std must be finite and >= 0, got inf",
                 id="linear-plant sensor_noise_std inf"),
    # was "cannot convert float NaN to integer", naming no key
    pytest.param("control", {"init": {"theta_s": [math.nan]}},
                 "init.theta_s[0] must be a number, got nan", id="control theta_s nan"),
    # was an exit 4 with a blow-up at step 1
    pytest.param("control", {"init": {"theta_aa": [math.nan]}},
                 "init.theta_aa[0] must be a number, got nan", id="control theta_aa nan"),
    # NaN in a key with no range: the first exited 0 with a report, the
    # next three 4 with a blow-up at step 0, the last two 2 with "values
    # contain NaN or Inf", naming no key
    pytest.param("control", {"options": {"reference_edges": [-5, math.nan, 0, 5]}},
                 "options.reference_edges[1] must be a number, got nan",
                 id="control reference_edges nan"),
    pytest.param("simulate", {"system": {"kind": "lorenz96", "parameters": {"forcing": math.nan}}},
                 "lorenz96.forcing must be a number, got nan", id="lorenz96 forcing nan"),
    pytest.param("simulate", {"system": {"kind": "goy-shell", "parameters": {"nu": math.nan}}},
                 "goy-shell.nu must be a number, got nan", id="goy-shell nu nan"),
    pytest.param("simulate", {"system": {"kind": "coupled-logistic",
                                         "parameters": {"coupling": math.nan}}},
                 "coupled-logistic.coupling must be a number, got nan",
                 id="coupled-logistic coupling nan"),
    pytest.param("fit", {**FIT, "bounds": [[math.nan, 5], [0.1, 3]]},
                 "bounds[0] must be a number, got nan", id="fit bounds nan"),
    pytest.param("control", {"target": {"mu": [math.nan]}}, "target.mu[0] must be a number, got nan",
                 id="control target mu nan"),
    # was an exit 2 from discretize for every run: the command gives no edges
    pytest.param("causality", {"system": {"kind": "coupled-logistic"}, "scheme": "explicit-edges"},
                 "scheme must be one of ['equiprobable-quantile', 'uniform-width'], got 'explicit-edges'",
                 id="causality scheme explicit-edges"),
    # every run exited 1: no residual is below a negative tolerance
    pytest.param("causality", {"system": {"kind": "coupled-logistic"}, "identity_tolerance": -1},
                 "identity_tolerance must be >= 0, got -1.0", id="causality identity_tolerance -1"),
    # was accepted, and the check then read agree: true at 0.9
    pytest.param("fit", {**FIT, "ml_check": {"p_true": 1.5}},
                 "ml_check.p_true must be >= 0 and <= 1, got 1.5", id="fit ml_check p_true 1.5"),
    # was "total mass 1.5 not 1", naming no key
    pytest.param("fit", {**FIT, "ml_check": {"p_grid": [1.5, -0.5]}},
                 "ml_check.p_grid[0] must be >= 0 and <= 1, got 1.5", id="fit ml_check p_grid 1.5"),
    pytest.param("fit", {**FIT, "ml_check": {"p_grid": [0.5, -0.5]}},
                 "ml_check.p_grid[1] must be >= 0 and <= 1, got -0.5", id="fit ml_check p_grid -0.5"),
    # each named a constructor field, not the config path
    pytest.param("control", {"target": {"sigma": [[0.25, 0.1]]}},
                 "target.sigma shape must be (1, 1), got (1, 2)", id="control target sigma row"),
    pytest.param("control", {"init": {"bounds_aa": [[1.0, 0.0]]}},
                 "init.bounds_aa: empty interval", id="control empty gain bounds"),
    pytest.param("fit", {**FIT, "init_theta": [3, 0.8], "bounds": [[0, 1], [0, 2]]},
                 "init_theta and bounds: theta outside bounds", id="fit theta outside bounds"),
    pytest.param("fit", {**FIT, "bounds": [[0, 1]]},
                 "init_theta and bounds: bounds must be one [low, high] row per entry of theta, "
                 "got [[0.0, 1.0]]", id="fit one bounds row"),
])
def test_refuses_a_bad_field_in_one_line_naming_it(tmp_path, capsys, command, config, message):
    code, _ = run(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--bins", "4"], ["--lag", "1"],
                                  ["--order", "1"]], ids=lambda flag: flag[0][2:])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_former_flag_is_refused_by_the_parser(tmp_path, command, flag):
    # a value reaches a command only through its config key
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, VALID[command], extra=flag)
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flag_key", [("fit", "seed"), ("simulate", "system.seed")])
def test_seed_flag_refuses_a_negative_seed(tmp_path, capsys, command, flag_key):
    # the parser refuses the former --seed flag before any value is read,
    # and the config key that replaces it refuses -1 naming its path
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, VALID[command], extra=["--seed", "-1"])
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()
    capsys.readouterr()
    config = json.loads(json.dumps(VALID[command]))
    *sections, key = flag_key.split(".")
    target = config
    for section in sections:
        target = target[section]
    target[key] = -1
    code, _ = run(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == f"error: {flag_key} must be >= 0, got -1\n"


@pytest.mark.parametrize("key, theta", [
    ("true_theta", [0.5, 1e308]),  # the scale overflows the samples
    ("true_theta", [math.inf, 1.2]),
    ("init_theta", [1.7976e308, 1e-300]),  # the finite-difference probe of theta[0] overflows
])
def test_fit_refuses_non_finite_samples_in_one_line(tmp_path, capsys, key, theta):
    code, _ = run(tmp_path, "fit", {**FIT, key: theta})
    assert code == 2
    assert capsys.readouterr().err == "error: values contain NaN or Inf\n"


def test_fit_from_a_flat_start_does_not_converge(tmp_path):
    # the histogram objective is flat at the finite-difference scale at
    # init_theta: the search stopped there at once and reported success
    code, out = run(tmp_path, "fit", {**FIT, "init_theta": [0, 0.8]})
    report = json.loads((out / "report.json").read_text())
    assert code == 3 and report["converged"] is False
    assert report["fitted_theta"] == [0.0, 0.8] and report["n_iterations"] == 1


# Single-field violations of every key in the parameter table, laid over a
# small valid config of each command: wrong types, and values just past a
# range bound.
WRONG_TYPES = {
    params.INT: ["x", True, [1], {"a": 1}, 1.5],
    params.FLOAT: ["abc", [1.0], {"a": 1}],
    params.INT_LIST: ["x", [1.5], [True], {"a": 1}],
    params.FLOAT_LIST: ["abc", ["x"], {"a": 1}],
    params.MATRIX: ["abc", [["x"]], {"a": 1}],
    params.NAME: ["nope", 5, ["x"], {"a": 1}],
    params.PATH: [5, True, ["x"], {"a": 1}],
    params.SECTION: ["x", 5, [1], True],
}
VALID = {
    "simulate": {"system": {"kind": "coupled-logistic"}},
    "causality": {"system": {"kind": "coupled-logistic"}},
    "fit": {"true_theta": [0.5, 1.2], "init_theta": [0.0, 0.8]},
    "control": {},
    "fixtures": {},
}
KIND_PARAMETERS = {"symbolic-map": {"name": "xor"}}


def _past_bounds(kind, detail):
    """Values just outside each condition of the range `detail`."""
    if kind not in (params.INT, params.FLOAT, params.INT_LIST, params.FLOAT_LIST) or not detail:
        return []
    integral = kind in (params.INT, params.INT_LIST)
    out = []
    for condition in detail.split(" and "):
        if condition == "finite":
            out.append(math.inf)
            continue
        op, bound = condition.split()
        bound = float(bound)
        down, up = (bound - 1, bound + 1) if integral else (
            math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf))
        out.append({">=": down, ">": bound, "<=": up, "<": bound}[op])
    if integral:
        out = [int(v) for v in out]
    return [[v] for v in out] if kind in (params.INT_LIST, params.FLOAT_LIST) else out


def _violations():
    """(command, valid config, key path, bad value) for every table key."""
    cases = []

    def walk(command, config, section, path):
        for key, (kind, _, detail) in params.SECTIONS[section].items():
            for bad in WRONG_TYPES[kind] + _past_bounds(kind, detail):
                cases.append((command, config, path + (key,), bad))
            if kind == params.SECTION and detail != params.KIND:
                walk(command, config, detail, path + (key,))
        if section == "system":  # every kind's parameters
            for k in params.KINDS:
                cfg = json.loads(json.dumps(config))
                system = cfg if not path else cfg[path[0]]
                system.update(kind=k, parameters=KIND_PARAMETERS.get(k, {}))
                walk(command, cfg, k, path + ("parameters",))

    for command, config in VALID.items():
        walk(command, config, command, ())
    return cases


VIOLATIONS = _violations()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(VIOLATIONS))
def test_any_single_bad_field_is_refused_before_any_work(case):
    command, config, path, bad = case
    config = json.loads(json.dumps(config))
    section = config
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = bad
    err = io.StringIO()
    reached = mock.Mock(side_effect=AssertionError("a command body ran"))
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(err), \
            mock.patch.dict(cli.COMMANDS, {c: reached for c in cli.COMMANDS}):
        cfg = Path(d) / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([command, "--config", str(cfg), "--out", str(Path(d) / "out")])
    lines = err.getvalue().splitlines()
    assert code == 2, (config, lines)
    assert len(lines) == 1 and lines[0].startswith("error: ") and path[-1] in lines[0], lines
    assert "Traceback" not in err.getvalue()


def test_violations_cover_every_table_key():
    keys = {path[-1] for _, _, path, _ in VIOLATIONS}
    assert keys == {key for section in params.SECTIONS.values() for key in section}


def _readme_default(default):
    if default == params.REQUIRED:
        return "required"
    if default is None:
        return "none"
    return re.sub(r"e-0(\d)", r"e-\1", json.dumps(default))


def test_readme_parameter_table_matches_params():
    text = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = text.index("| section | key | type | default | range |") + 2
    rows = []
    for line in text[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().replace("`", "") for cell in line.strip("|").split("|")])
    expected = []
    for section, table in params.SECTIONS.items():
        for key, (kind, default, detail) in table.items():
            if kind == params.NAME:
                detail = ", ".join(detail)
            elif detail == params.KIND:
                detail = "the kind's"
            expected.append([section, key, kind, _readme_default(default), detail or ""])
    assert rows == expected


def test_readme_options_are_the_command_line():
    # a command line is the command, --config and --out, as README's command
    # line and parameters sections name them
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sections = {text.split("\n", 1)[0]: text for text in readme.split("\n## ")}
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*",
                           sections["Command line"] + sections["Parameters"]))
    for command in cli.COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main([command, "--help"])
        options = out.getvalue().split("\noptions:\n")[1]
        listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", options))
        assert listed == {"-h", "--help", "--config", "--out"}, command
        assert named <= listed, command


def test_table_names_match_the_code():
    assert params.FIXTURES == tuple(sorted(systems.symbolic_map_suite()))
    assert params.COMMANDS == tuple(cli.COMMANDS)


@pytest.mark.parametrize("n_samples", [
    0,  # was "zero-size array to reduction operation minimum which has no identity"
    -5,  # was "negative dimensions are not allowed"
])
def test_simulate_of_a_fixture_refuses_out_of_range_sample_counts(tmp_path, capsys, n_samples):
    code, _ = run(tmp_path, "simulate", {"system": {
        "kind": "symbolic-map", "parameters": {"name": "xor"}, "n_steps": n_samples,
        "transient_steps": 0}})
    assert code == 2
    assert capsys.readouterr().err == f"error: system.n_steps must be >= 1, got {n_samples}\n"


@pytest.mark.parametrize("system, message", [pytest.param(*case[1:], id=case[0]) for case in [
    ("system0-cut 50 outside", {"kind": "goy-shell", "parameters": {"cuts": [50]}},
     "goy-shell.cuts[0] must be < n_shells = 19, got 50"),
    ("system1-cut -1 outside", {"kind": "goy-shell", "parameters": {"cuts": [-1, 6]}},
     "goy-shell.cuts[0] must be >= 0, got -1"),
    ("system2-unknown coupled-logistic", {"kind": "coupled-logistic", "parameters": {"bogus": 3}},
     "coupled-logistic.bogus is not a known key; known: coupling"),
    ("system3-forced_shell 40 outside", {"kind": "goy-shell", "parameters": {"forced_shell": 40}},
     "goy-shell.forced_shell must be < n_shells = 19, got 40"),
    ("system4-sample_every 0 is not >= 1",
     {"kind": "goy-shell", "parameters": {"sample_every": 0}},
     "goy-shell.sample_every must be >= 1, got 0"),
    ("system5-known parameters['name'], got 'nope'; known: ['markov_pair'",
     {"kind": "symbolic-map", "parameters": {"name": "nope"}},
     "symbolic-map.name must be one of ['markov_pair', 'noise_target', 'redundant_pair', "
     "'rotation4', 'rotation_pair', 'xor'], got 'nope'"),
    ("system6-n_steps must be an integer, got 100.5", {"kind": "coupled-logistic", "n_steps": 100.5},
     "system.n_steps must be an integer, got 100.5"),
    ("system7-seed must be an integer, got True", {"kind": "coupled-logistic", "seed": True},
     "system.seed must be an integer, got True"),
    # one shell ran: the two-entry interaction weights broadcast it to two
    ("system8-goy-shell n_shells 1 is not >= 2",
     {"kind": "goy-shell", "parameters": {"n_shells": 1, "cuts": [0], "forced_shell": 0}},
     "goy-shell.n_shells must be >= 2, got 1"),
    ("system9-goy-shell n_shells must be an integer, got 19.5",
     {"kind": "goy-shell", "parameters": {"n_shells": 19.5}},
     "goy-shell.n_shells must be an integer, got 19.5"),
    ("system10-goy-shell forced_shell must be an integer, got 2.5",
     {"kind": "goy-shell", "parameters": {"forced_shell": 2.5}},
     "goy-shell.forced_shell must be an integer, got 2.5"),
    ("system11-goy-shell cut must be an integer, got 6.7",
     {"kind": "goy-shell", "parameters": {"cuts": [6.7, 8]}},
     "goy-shell.cuts[0] must be an integer, got 6.7"),
    ("system12-goy-shell cut must be an integer, got True",
     {"kind": "goy-shell", "parameters": {"cuts": [True, 8]}},
     "goy-shell.cuts[0] must be an integer, got True"),
    # NumPy's "negative dimensions are not allowed" was printed for these two
    ("system13-lorenz96 n_sites -3 is not >= 4", {"kind": "lorenz96", "parameters": {"n_sites": -3}},
     "lorenz96.n_sites must be >= 4, got -3"),
    ("system14-linear-plant max_delay -3.0 is not >= 0",
     {"kind": "linear-plant", "parameters": {"max_delay": -3}},
     "linear-plant.max_delay must be finite and >= 0, got -3.0"),
    # a Lorenz-96 dt of -1 blew up at step 100 (exit 4), and "nan" at step 0
    ("system15-dt must be finite and > 0, got -1.0", {"kind": "lorenz96", "dt": -1},
     "system.dt must be finite and > 0, got -1.0"),
    ("system16-dt must be finite and > 0, got nan", {"kind": "lorenz96", "dt": "nan"},
     "system.dt must be finite and > 0, got nan"),
]])
def test_simulate_refuses_bad_system_parameters(tmp_path, capsys, system, message):
    code, _ = run(tmp_path, "simulate", {"system": {"n_steps": 300, "transient_steps": 0,
                                                    **system}})
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")  # no NumPy overflow warning on stderr either
@pytest.mark.parametrize("system, step", [
    ({"kind": "coupled-logistic", "parameters": {"coupling": 3.0}, "n_steps": 300}, 100),
    ({"kind": "lorenz96", "dt": 5.0, "n_steps": 300}, 100),
    # diverges after the last periodic check, caught on the final state
    ({"kind": "goy-shell", "dt": 50, "n_steps": 60, "parameters": {"sample_every": 1}}, 59),
])
def test_simulate_blowup_of_any_kind_exits_4(tmp_path, capsys, system, step):
    code, _ = run(tmp_path, "simulate", {"system": {**system, "transient_steps": 0}})
    assert code == 4
    err = capsys.readouterr().err
    assert err == f"error: numerical blow-up at step {step} in {system['kind']}\n"


def _cmd_fit_redraw(config, args, out_dir):
    # The former fit path, kept as the oracle: the noise is drawn afresh, in
    # draw order, on every objective evaluation, and samples are binned by the
    # three-pass edge formula. Configs given to it carry no ml_check.
    def signal(theta, n_samples, seed):
        g = np.random.default_rng(seed).standard_normal(n_samples)
        return SignalMatrix((theta[0] + theta[1] * g)[:, None], ("x",))

    true_theta = np.asarray(config["true_theta"], dtype=float)
    init_theta = np.asarray(config["init_theta"], dtype=float)
    bounds = config.get("bounds")
    n_samples = int(config["n_samples"])
    seed = int(config["seed"])
    bins = int(config["bins"])
    options = {"epsilon": 1e-9}
    reference_signal = signal(true_theta, n_samples, seed)
    edges = np.linspace(reference_signal.values.min() - 1.0,
                        reference_signal.values.max() + 1.0, bins + 1)
    spec = PartitionSpec("explicit-edges", edges=(edges,))
    reference = estimate_joint_pmf(discretize(reference_signal, spec), [(0, 0)])
    fitted, trace = modeling.kl_fit(lambda p: signal(p.theta, n_samples, seed), reference, spec,
                                    ModelParams(init_theta, bounds), options)
    trace.write_csv(out_dir / "trace.csv")
    cli._write_report(out_dir, {
        "command": "fit",
        "config": {"family": "affine-noise", "true_theta": true_theta, "init_theta": init_theta,
                   "bounds": bounds, "n_samples": n_samples, "seed": seed, "bins": bins,
                   "options": options},
        "fitted_theta": fitted.theta,
        "theta_error": np.abs(fitted.theta - true_theta),
        "converged": trace.converged,
        "n_iterations": len(trace.records),
        "best_kl": trace.best()["value"],
    })
    return cli.EXIT_OK if trace.converged else cli.EXIT_NO_CONVERGENCE


@pytest.mark.parametrize("seed", [0, 3, 26])
@pytest.mark.parametrize("init_theta, bounds", [
    ([0.0, 0.8], [[-2, 2], [0.1, 3]]),
    ([0.0, -0.8], [[-2, 2], [-3, -0.1]]),  # negative scale: reverse-sorted samples
])
def test_fit_on_one_sorted_draw_matches_redraw_oracle(tmp_path, monkeypatch, seed, init_theta,
                                                      bounds):
    config = {"true_theta": [0.5, 1.2], "init_theta": init_theta, "bounds": bounds,
              "n_samples": 50000, "bins": 32, "seed": seed}
    code, out = run(tmp_path, "fit", config, out="sorted")
    with monkeypatch.context() as m:
        m.setitem(cli.COMMANDS, "fit", _cmd_fit_redraw)
        m.setattr(discretization, "_edge_codes", lambda x, e: np.clip(
            np.searchsorted(e, x, side="right") - 1, 0, len(e) - 2))
        oracle_code, oracle_out = run(tmp_path, "fit", config, out="redraw")
    assert code == oracle_code
    for name in ("report.json", "trace.csv"):
        assert (out / name).read_bytes() == (oracle_out / name).read_bytes()


def test_fit_peak_heap_below_two_sample_arrays(tmp_path):
    # the noise draw, sorted in place, is the one sample-sized array: every
    # histogram, the reference's included, is counted without building samples
    n = 200_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code, _ = run(tmp_path, "fit", {
            "true_theta": [0.5, 1.2], "init_theta": [0.0, 0.8],
            "bounds": [[-2, 2], [0.1, 3]], "n_samples": n, "bins": 32, "seed": 3})
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 8 * n, f"peak {peak / (8 * n):.2f} sample arrays"


def test_control_reduces_variance(tmp_path):
    code, out = run(tmp_path, "control", {
        "target": {"mu": [0.0], "sigma": [[0.25]]},
        "init": {"theta_s": [0.0], "theta_aa": [0.1]},
        "options": {"n_steps": 2000, "transient": 300},
    })
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["controlled_variance"] < report["uncontrolled_variance"]
    assert (out / "trace.csv").exists()


@pytest.mark.parametrize("seed", [8, 12])
def test_control_search_survives_an_unstable_probe(tmp_path, seed):
    # at these plant seeds a probe of the control-search config blows up
    code, out = run(tmp_path, "control", {
        "target": {"mu": [0.0], "sigma": [[0.25]]},
        "init": {"theta_s": [0.0], "theta_aa": [0.1]},
        "options": {"n_steps": 2000, "transient": 300, "seed": seed},
    })
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["controlled_variance"] < report["uncontrolled_variance"]
    kl = report["accepted_kl"]
    assert kl and all(b < a for a, b in zip(kl, kl[1:]))
    with (out / "trace.csv").open() as fh:
        assert any(row["plant_failure"] == "True" for row in csv.DictReader(fh))


def test_control_rolls_out_the_uncontrolled_plant_once(tmp_path, monkeypatch):
    # the reference edges come from the zero-gain rollout the report uses
    gains = []
    rollout = control.rollout

    def counted(plant, params, *args):
        gains.append(params.theta_aa.tolist())
        return rollout(plant, params, *args)

    monkeypatch.setattr(control, "rollout", counted)
    code, _ = run(tmp_path, "control", {
        "init": {"theta_s": [0.0], "theta_aa": [0.1]},
        "options": {"n_steps": 600, "transient": 100, "bins": 4, "outer_iters": 1,
                    "inner_iters": 2}})
    assert code == 0
    assert gains[0] == [0.0] and [0.0] not in gains[1:]


def test_control_runs_when_the_gain_bounds_exclude_zero(tmp_path):
    # the uncontrolled rollout is ControllerParams(), not init at zero gain
    # (which kept init's bounds and was refused: "theta_aa outside bounds")
    code, out = run(tmp_path, "control", {
        "init": {"theta_aa": [0.1], "bounds_aa": [[0.05, 1.0]]},
        "options": {"n_steps": 600, "transient": 100}})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["controlled_variance"] < report["uncontrolled_variance"]


@pytest.mark.parametrize("config, message", [
    # was an IndexError traceback, exit 1
    pytest.param({"init": {"theta_s": [], "bounds_s": []}},
                 "init.theta_s must hold one entry, got []", id="no delay"),
    # the second gain was searched, then ignored
    pytest.param({"init": {"theta_aa": [0.1, 0.2], "bounds_aa": [[0.0, 1.0], [0.0, 1.0]]}},
                 "init.theta_aa must hold one entry, got [0.1, 0.2]", id="two gains"),
    # was NumPy's "cannot reshape array of size 3 into shape (2)"
    pytest.param({"init": {"bounds_s": [[0.0, 1.0, 2.0]]}},
                 "init.bounds_s must be one [low, high] row per entry of theta_s, "
                 "got [[0.0, 1.0, 2.0]]",
                 id="three-value bounds row"),
    # was refused only after 6 rollouts
    pytest.param({"target": {"mu": [0, 1], "sigma": [[0.25, 0.0], [0.0, 0.25]]}},
                 "target.mu must hold one entry, got [0.0, 1.0]", id="two-variable target"),
    # a noiseless plant stays at 0: was "degenerate rescale: ...", or with no sensor
    # noise and a zero target variance "edges must be strictly increasing", after rollouts
    pytest.param({"plant": {"noise_std": 0.0}, "options": {"n_steps": 600, "transient": 100}},
                 "plant.noise_std must be > 0 for control, got 0.0", id="noiseless plant"),
    pytest.param({"plant": {"noise_std": 0.0, "sensor_noise_std": 0.0},
                  "target": {"sigma": [[0.0]]}, "options": {"n_steps": 600, "transient": 100}},
                 "plant.noise_std must be > 0 for control, got 0.0",
                 id="noiseless plant and sensor"),
])
def test_control_refuses_another_controller_shape_before_any_rollout(tmp_path, capsys, monkeypatch,
                                                                     config, message):
    monkeypatch.setattr(control, "rollout", mock.Mock(side_effect=AssertionError("a rollout ran")))
    code, _ = run(tmp_path, "control", config)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    control.rollout.assert_not_called()


def test_any_other_error_exits_5_in_one_line(tmp_path, capsys, monkeypatch):
    def broken(given, cfg, out_dir):
        raise IndexError("index 0 is out of bounds for axis 0 with size 0")

    monkeypatch.setitem(cli.COMMANDS, "fixtures", broken)
    code, _ = run(tmp_path, "fixtures", {})
    assert code == cli.EXIT_INTERNAL == 5
    assert capsys.readouterr().err == (
        "error: IndexError: index 0 is out of bounds for axis 0 with size 0\n")


# A child process that caps its own address space at 2 GiB before it imports
# infodyn, so that an allocation of terabytes fails on any host
CAPPED = """import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 2**31 if hard == resource.RLIM_INFINITY else min(2**31, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
"""
CAPPED_MAIN = CAPPED + """from infodyn.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command, config, size", [
    # np.empty of the kept rows in systems._integrate
    pytest.param("simulate", {"system": {"kind": "lorenz96", "n_steps": 10**12}}, "58.2 TiB",
                 id="lorenz96 1e12 steps"),
    pytest.param("simulate", {"system": {"kind": "goy-shell", "n_steps": 10**12}}, "5.82 TiB",
                 id="goy-shell 1e12 steps"),
    # the sampler's rng.integers
    pytest.param("simulate", {"system": {"kind": "symbolic-map", "parameters": {"name": "xor"},
                                         "n_steps": 10**12, "transient_steps": 0}}, "14.6 TiB",
                 id="xor 1e12 samples"),
])
def test_huge_allocation_exits_5_in_one_line(tmp_path, command, config, size):
    # these exited 1, the identity-check code, with NumPy's _ArrayMemoryError traceback
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", CAPPED_MAIN, command, "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == cli.EXIT_INTERNAL == 5
    assert done.stderr.startswith(f"error: MemoryError: Unable to allocate {size} for an array ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


# A child process that runs the CLI, then prints the infodyn modules loaded,
# and logging if it was imported
LOADED_BY_MAIN = """import sys
from infodyn.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("infodyn.") or m == "logging")))
sys.exit(code)
"""


@pytest.mark.parametrize("command, config, not_loaded", [
    ("simulate", {"system": {"kind": "coupled-logistic", "n_steps": 300, "transient_steps": 0}},
     {"causality", "control", "descent", "modeling"}),
    ("causality", {"input": "signal.csv", "bins": 2},
     {"control", "descent", "infocore", "logging", "modeling", "systems"}),
    ("fit", {"true_theta": [0.5, 1.2], "init_theta": [0.0, 0.8], "bounds": [[-2, 2], [0.1, 3]],
             "n_samples": 50000, "ml_check": {}}, {"causality", "control", "systems"}),
    ("control", {"options": {"n_steps": 400, "transient": 100, "outer_iters": 1,
                             "inner_iters": 1}}, {"causality", "modeling"}),
    ("fixtures", {}, {"causality", "control", "descent", "modeling"}),
], ids=["simulate", "causality from a CSV", "fit", "control", "fixtures"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command, config, not_loaded):
    # each module is compiled at start-up when no bytecode is cached
    write_csv(SignalMatrix(np.random.default_rng(0).standard_normal((50, 2)), ("x", "y")),
              tmp_path / "signal.csv")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", LOADED_BY_MAIN, command, "--config", str(cfg),
                           "--out", "out"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = {m.removeprefix("infodyn.") for m in done.stdout.split()}
    assert "cli" in loaded and loaded & not_loaded == set()


def test_control_search_starts_from_the_target_relaxation(tmp_path):
    options = {"n_steps": 1000, "transient": 200}
    traces = []
    for name, target in (("default", {}), ("relaxed", {"relax_mu": 0.05, "relax_sigma": 1.0})):
        code, out = run(tmp_path, "control", {"target": target, "options": options}, out=name)
        assert code == 0
        traces.append((out / "trace.csv").read_text())
    first = next(csv.DictReader(io.StringIO(traces[1])))
    assert first["relax"] == "(0.05, 1.0)"
    assert traces[0] != traces[1]


def test_control_options_must_be_integers(tmp_path, capsys):
    code, _ = run(tmp_path, "control", {"options": {"n_steps": 600.5}})
    assert code == 2
    assert capsys.readouterr().err == "error: options.n_steps must be an integer, got 600.5\n"


def test_fixtures_catalog(tmp_path):
    code, out = run(tmp_path, "fixtures", {})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["catalog"]) == list(params.FIXTURES)
    assert report["catalog"]["xor"]["alphabet"] == [2, 2, 2]
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


def test_fixtures_unknown_name_exits_2(tmp_path):
    code, _ = run(tmp_path, "fixtures", {"name": "nonesuch"})
    assert code == 2


@pytest.mark.parametrize("name", params.FIXTURES)
def test_simulate_samples_a_fixture_as_its_sampler(tmp_path, name):
    # the one way to sample a fixture: its codes, in its variables' order
    fx = systems.symbolic_map_suite()[name]
    for n, seed in ((2, 0), (500, 7)):
        code, out = run(tmp_path, "simulate", {"system": {
            "kind": "symbolic-map", "parameters": {"name": name}, "n_steps": n,
            "transient_steps": 0, "seed": seed}}, out=f"{n}-{seed}")
        assert code == 0
        signal = read_csv(out / "signal.csv")
        assert tuple(signal.names) == fx.names
        assert np.array_equal(signal.values, fx.sample(n, seed).codes)
