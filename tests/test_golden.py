"""Golden numbers: each benchmark workload's default-seed jobs, run in
process through `cli.main`, pass the workload's own report check and match
every numeric report field stored in bench/reference.json, within the
benchmark's own tolerances (bench/run.py's `reference_errors`). The
benchmark files are read, never written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from infodyn import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)  # run.py puts bench/ on sys.path for its sibling modules
REFERENCE = json.loads(run.REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_reports_match_the_reference(name, tmp_path, monkeypatch):
    workload, reference = run.WORKLOADS[name], REFERENCE[name]
    monkeypatch.chdir(tmp_path)  # a job config names its input relative to the run directory
    if workload.simulate is not None:
        Path("sim.json").write_text(json.dumps(workload.simulate(run.DEFAULT_SEED)))
        assert cli.main(["simulate", "--config", "sim.json", "--out", "sim"]) == 0
    configs = workload.configs(run.DEFAULT_SEED)
    assert len(configs) == len(reference)
    for v, config in enumerate(configs):
        Path(f"job{v}.json").write_text(json.dumps(config))
        assert cli.main([workload.subcommand, "--config", f"job{v}.json", "--out", f"out{v}"]) == 0
        report = json.loads(Path(f"out{v}", "report.json").read_text())
        assert run.check_report(workload, report) == []
        assert run.reference_errors(report, reference[v]) == []
