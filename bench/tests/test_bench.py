"""Self-tests of the benchmark: span arithmetic, the wrappers, and the
report checks. Run from the root of a checkout:

    python3 -m pytest bench/tests -q
"""

import copy
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402


def span(name, start, end, parent=-1, counts=None, error=False):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "counts": counts or {}, "error": error}


def test_self_time_subtracts_merged_and_clipped_children():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("causality.flux_report", 1.0, 4.0, parent=0),
        span("causality.flux_report", 3.0, 6.0, parent=0),   # overlaps the one before
        span("pmf.marginalize", 2.0, 3.0, parent=1),
        span("infocore.entropy", 9.0, 12.0, parent=0),        # runs past its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    selfs = tracing.self_times(spans)
    assert tracing._module_self(spans, selfs, "causality") == pytest.approx(5.0)


def test_inclusive_time_counts_recursion_once():
    spans = [
        span("infocore.co_information", 0.0, 8.0),
        span("infocore.co_information", 1.0, 3.0, parent=0),
        span("infocore.co_information", 4.0, 7.0, parent=0),
        span("pmf.marginalize", 5.0, 6.0, parent=2, counts={"rows": 7}),
        span("infocore.co_information", 9.0, 10.0),
    ]
    assert tracing.inclusive_time(spans, "infocore.co_information") == pytest.approx(9.0)
    metrics = tracing.layer_metrics(spans)
    assert metrics["pmf.marginalize_s"] == pytest.approx(1.0)
    assert metrics["pmf.marginalize_rows"] == 7
    assert metrics["infocore.self_s"] == pytest.approx(9.0 - 1.0)


@pytest.fixture
def traced():
    tracing.install()
    try:
        yield
    finally:
        tracing.uninstall()


def test_wrappers_see_calls_made_inside_the_package(traced):
    from infodyn import infocore
    from infodyn.pmf import JointPMF

    joint = JointPMF.from_mapping({(0, 0): 0.5, (1, 1): 0.25, (1, 0): 0.25}, (2, 2))
    infocore.conditional_entropy(joint, [0], [1])
    spans = tracing.spans()
    names = [s["name"] for s in spans]
    assert names[0] == "infocore.conditional_entropy"
    # entropy is reached through conditional_entropy's module globals, and
    # marginalize through infocore's `from .pmf import marginalize`
    entropies = [i for i, s in enumerate(spans) if s["name"] == "infocore.entropy"]
    assert len(entropies) == 2
    assert all(spans[i]["parent"] == 0 for i in entropies)
    marginals = [s for s in spans if s["name"] == "pmf.marginalize"]
    assert {s["parent"] for s in marginals} == set(entropies)
    assert all(s["counts"]["rows"] == 3 for s in marginals)


def test_wrappers_trace_objectives_and_uninstall_restores(traced):
    from infodyn import descent, infocore

    descent.minimize(lambda t: float((t - 0.3) @ (t - 0.3)), np.array([1.0]), max_iters=5)
    metrics = tracing.layer_metrics(tracing.spans())
    assert metrics["descent.minimize_calls"] == 1
    assert 1 <= metrics["descent.iterations"] <= 5
    # one base point and one probe per iteration
    assert metrics["descent.objective_evals"] == 2 * metrics["descent.iterations"]
    tracing.uninstall()
    assert not hasattr(infocore.entropy, "__wrapped__")
    assert not hasattr(descent.minimize, "__wrapped__")


def test_layer_metrics_cover_every_listed_metric():
    metrics = tracing.layer_metrics([span("cli.main", 0.0, 1.0)])
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["cli.self_s"] == pytest.approx(1.0)


GOOD_REPORTS = {
    "causality-lattice": {"identity_ok": 1, "identity_residuals": {"x0": 0.0, "x1": 4e-16}},
    "cascade-goy": {"identity_ok": 1, "identity_residuals": {"sigma1": 1e-15}},
    "control-search": {"controlled_variance": 0.3, "uncontrolled_variance": 1.2,
                       "accepted_kl": [0.02, 0.01, 0.005]},
    "fit-affine": {"converged": 1, "theta_error": [1e-4, 2e-5], "ml_check": {"agree": 1}},
}

CORRUPTIONS = {
    "causality-lattice": [("identity_ok", 0), ("identity_residuals", {"x0": 2e-10}),
                          ("identity_residuals", {"x0": float("nan")}),
                          ("identity_residuals", {})],
    "cascade-goy": [("identity_ok", False), ("identity_residuals", {"sigma1": 1e-3})],
    "control-search": [("controlled_variance", 1.2), ("accepted_kl", [0.02, 0.02]),
                       ("accepted_kl", [0.01, 0.02]), ("accepted_kl", [])],
    "fit-affine": [("converged", 0), ("theta_error", [1e-4, 0.01]),
                   ("ml_check", {"agree": 0})],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_good_and_reject_corrupted_reports(name):
    workload = WORKLOADS[name]
    good = GOOD_REPORTS[name]
    assert check_report(workload, good) == []
    for key, value in CORRUPTIONS[name]:
        report = copy.deepcopy(good)
        report[key] = value
        assert check_report(workload, report), (key, value)
    for key in good:
        report = {k: v for k, v in good.items() if k != key}
        assert check_report(workload, report)[0].startswith("malformed report")


def test_reference_comparison_allows_rounding_only():
    report = {"fluxes": [0.5, -1e-17], "ok": 1, "names": ["x"], "leak": {"x": 0.25}}
    reference = {"sha256": "", "fields": dict(run.numeric_fields(report))}
    assert run.reference_errors(report, reference) == []
    nudged = copy.deepcopy(report)
    nudged["fluxes"][0] += 1e-13
    assert run.reference_errors(nudged, reference) == []
    for corrupt in ({"fluxes": [0.5 + 1e-6, -1e-17]}, {"ok": 0}, {"leak": {}}):
        assert run.reference_errors({**report, **corrupt}, reference)


def test_stored_reference_covers_every_variant():
    reference = json.loads(run.REFERENCE.read_text())
    for name, workload in WORKLOADS.items():
        assert len(reference[name]) == len(workload.configs(run.DEFAULT_SEED))


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = dict(tracing.LAYER_METRICS)
    layers[tracing.OVERHEAD_METRIC[0]] = tracing.OVERHEAD_METRIC[1:]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: entry[0] for name, entry in layers.items()}


def test_readme_lists_what_each_layer_metric_should_move():
    readme = (BENCH / "README.md").read_text()
    table = readme[readme.index("## Per-layer metrics"):]
    listed = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`"):
            continue
        for name in re.findall(r"`([^`]+)`", cells[0]):
            assert name not in listed, name
            listed[name] = cells[1].replace("`", "")
    moves = {name: entry[1] for name, entry in tracing.LAYER_METRICS.items()}
    moves[tracing.OVERHEAD_METRIC[0]] = tracing.OVERHEAD_METRIC[2]
    assert listed == moves


@pytest.fixture
def helpers():
    with run.Spawner() as spawner, run.Probe() as probe:
        run.HELPERS.update(spawner=spawner, probe=probe)
        yield
    run.HELPERS.clear()


def test_spawned_child_reports_its_own_peak_rss(tmp_path, helpers):
    ballast = np.ones(25_000_000)  # the runner grows by ~200 MiB
    child = run.spawn([sys.executable, "-c", "pass"], tmp_path, tmp_path / "log", 0)
    assert ballast.sum() > 0
    assert child["exit_code"] == 0
    assert child["peak_rss_mib"] < 100
    assert child["wall_s"] > 0


def test_child_runs_on_the_cpu_the_probe_samples(tmp_path, helpers):
    cpus = sorted(os.sched_getaffinity(0))
    child = run.spawn([sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
                      tmp_path, tmp_path / "log", 1)
    cpu = cpus[1 % len(cpus)]
    assert child["exit_code"] == 0
    assert child["cpu"] == cpu
    assert (tmp_path / "log").read_text().strip() == f"[{cpu}]"
    assert child["probe_samples"] >= 1
    assert 0 < child["probe_mean_rate"] <= 1 / child["probe_min_ns"]


def test_sensitivity_is_the_slope_within_each_variant():
    jobs = [{"variant": v, "cpu_slowdown": c, "wall_s": base * c ** 0.8}
            for v, base in ((0, 2.0), (1, 5.0)) for c in (1.1, 1.4, 1.9)]
    assert run.sensitivity(jobs) == pytest.approx(0.8)
    assert run.sensitivity(jobs[:1] + jobs[3:4]) is None  # one job per variant
