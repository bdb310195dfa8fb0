import json
import logging
import tracemalloc

import numpy as np
import pytest

from infodyn import cli, control, discretization, modeling
from infodyn.cli import main
from infodyn.discretization import PartitionSpec, discretize, estimate_joint_pmf
from infodyn.modeling import ModelParams
from infodyn.signals import SignalMatrix


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


def test_causality_identity_failure_exits_1(tmp_path, capsys, caplog):
    caplog.set_level(logging.INFO, logger="infodyn.cli")
    code, out = run(tmp_path, "causality", {
        "system": {"kind": "coupled-logistic", "n_steps": 5000, "transient_steps": 500, "seed": 2},
        "bins": 4, "identity_tolerance": -1,
    })
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["identity_ok"] is False
    # leak fractions go to the report and the log, not to stdout
    assert capsys.readouterr().out == ""
    assert "leak fraction x:" in caplog.text and "leak fraction y:" in caplog.text


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


def test_fit_converges_and_reports(tmp_path):
    code, out = run(tmp_path, "fit", {
        "true_theta": [0.5, 1.2], "init_theta": [0.0, 0.8],
        "bounds": [[-2, 2], [0.1, 3]], "n_samples": 50000, "bins": 32,
        "ml_check": {"p_true": 0.3, "n_samples": 2000},
    })
    assert code == 0
    report = json.loads((out / "report.json").read_text())
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


@pytest.mark.parametrize("system, message", [
    ({"kind": "goy-shell", "parameters": {"cuts": [50]}}, "cut 50 outside"),
    ({"kind": "goy-shell", "parameters": {"cuts": [-1, 6]}}, "cut -1 outside"),
    ({"kind": "coupled-logistic", "parameters": {"bogus": 3}}, "unknown coupled-logistic"),
    ({"kind": "goy-shell", "parameters": {"forced_shell": 40}}, "forced_shell 40 outside"),
    ({"kind": "goy-shell", "parameters": {"sample_every": 0}}, "sample_every 0 is not >= 1"),
    ({"kind": "symbolic-map", "parameters": {"name": "nope"}},
     "known parameters['name'], got 'nope'; known: ['markov_pair'"),
    ({"kind": "coupled-logistic", "n_steps": 100.5}, "n_steps must be an integer, got 100.5"),
    ({"kind": "coupled-logistic", "seed": True}, "seed must be an integer, got True"),
])
def test_simulate_refuses_bad_system_parameters(tmp_path, capsys, system, message):
    code, _ = run(tmp_path, "simulate", {"system": {"n_steps": 300, "transient_steps": 0,
                                                    **system}})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


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


def test_fit_peak_heap_below_five_sample_arrays(tmp_path):
    # the noise draw, one model sample and its codes are live at once; the
    # reference samples are not kept through the fit
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
    assert peak < 5 * 8 * n, f"peak {peak / (8 * n):.2f} sample arrays"


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


def test_control_options_must_be_integers(tmp_path, capsys):
    code, _ = run(tmp_path, "control", {"options": {"n_steps": 600.5}})
    assert code == 2
    assert capsys.readouterr().err == "error: options.n_steps must be an integer, got 600.5\n"


def test_fixtures_catalog_and_samples(tmp_path):
    code, out = run(tmp_path, "fixtures", {"name": "xor", "n_samples": 500})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "xor" in report["catalog"]
    assert report["catalog"]["xor"]["alphabet"] == [2, 2, 2]
    assert (out / "samples.csv").exists()


def test_fixtures_unknown_name_exits_2(tmp_path):
    code, _ = run(tmp_path, "fixtures", {"name": "nonesuch"})
    assert code == 2


def test_seed_flag_overrides_config(tmp_path):
    _, out_a = run(tmp_path, "simulate", {
        "system": {"kind": "coupled-logistic", "n_steps": 1000, "transient_steps": 100, "seed": 1},
    }, out="a", extra=["--seed", "9"])
    _, out_b = run(tmp_path, "simulate", {
        "system": {"kind": "coupled-logistic", "n_steps": 1000, "transient_steps": 100, "seed": 9},
    }, out="b")
    assert (out_a / "signal.csv").read_bytes() == (out_b / "signal.csv").read_bytes()
