import json
import logging

import numpy as np
import pytest

from infodyn.cli import main


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
