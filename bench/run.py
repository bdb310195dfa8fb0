"""Benchmark of `infodyn` CLI jobs.

Run from the root of a checkout:

    python3 bench/run.py --workload causality-lattice --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all [--seconds 25] [--out BENCH.json]
    python3 bench/run.py --write-reference

One run sets the workload up SETUP_REPEATS times (writing its configs from
the seed, building its input CSV where it has one, and warming the
interpreter), then runs jobs until one ends past --seconds. Each job is one
`python -m infodyn.cli` child process, started through bench/spawner.py;
jobs run one at a time, each pinned to one CPU that bench/probe.py samples
meanwhile, with BLAS threads pinned to 1. A job fails if it exits non-zero,
fails its workload's report check or, for the default seed, differs from
the stored reference values.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each round runs one data seed's job untraced and traced (through
bench/tracing.py) and the last line carries the per-layer metrics. The line
before it is the full record of the run: environment, every job, and each
metric with its sample count.

--all runs every workload untraced and traced and prints every metric by
name with its unit. --write-reference stores the default seed's report
values in bench/reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 120
# report values may move by float rounding (summation order) and no more
REF_ABS_TOL = 1e-10
REF_REL_TOL = 1e-9

END_TO_END = {
    "job_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "job_ok_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Helper:
    """A helper script of bench/ that answers one JSON line per request
    line; it exits when its stdin closes."""

    def __init__(self, script: str):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / script)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.proc.args[1]} exited with {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()


class Spawner(Helper):
    """bench/spawner.py, which starts every child, so that each child's peak
    RSS is its own. Start it before the run records grow."""

    def __init__(self):
        super().__init__("spawner.py")

    def run(self, argv: list[str], cwd: Path, log: Path, cpu: int | None) -> dict:
        self.send(json.dumps({"argv": argv, "cwd": str(cwd), "env": job_env(), "log": str(log),
                              "timeout": JOB_TIMEOUT_S, "cpu": cpu}))
        return self.reply()


class Probe(Helper):
    """bench/probe.py, which samples the speed of the CPU a job runs on."""

    def __init__(self):
        super().__init__("probe.py")

    def start(self, cpu: int) -> None:
        self.send(f"start {cpu}")

    def stop(self) -> list[int]:
        self.send("stop")
        return self.reply()


HELPERS: dict[str, Helper] = {}  # the running spawner and probe, set by main()


def spawn(argv: list[str], cwd: Path, log: Path, index: int) -> dict:
    """Run one child process to completion, pinned to a CPU chosen by
    `index`, whose speed is sampled while the child runs. Returns its wall
    time from spawn to exit, its own peak RSS (from wait4), its exit code,
    the fastest sample (ns per probe unit), the mean rate (probe units per
    ns) and the sample count."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[index % len(cpus)]
    probe = HELPERS["probe"]
    probe.start(cpu)
    try:
        child = HELPERS["spawner"].run(argv, cwd, log, cpu=cpu)
    finally:
        samples = probe.stop()
    return {**child, "cpu": cpu, "probe_min_ns": min(samples), "probe_samples": len(samples),
            "probe_mean_rate": statistics.fmean(1.0 / x for x in samples)}


def infodyn_argv(subcommand: str, config: str, out: str, spans: Path | None) -> list[str]:
    args = [subcommand, "--config", config, "--out", out]
    if spans is None:
        return [sys.executable, "-m", "infodyn.cli", *args]
    return [sys.executable, str(BENCH / "tracing.py"), str(spans), *args]


def tail(path: Path, lines: int = 5) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


# ---------------------------------------------------------------------------
# set-up and jobs


def set_up(workload, seed: int, directory: Path, traced: bool, index: int = 0) -> dict:
    """Write the workload's configs (and its input CSV) into `directory`
    and warm the interpreter; returns timing and, if traced, the spans."""
    start = time.perf_counter()
    directory.mkdir(parents=True)
    for v, config in enumerate(workload.configs(seed)):
        (directory / f"job{v}.json").write_text(json.dumps(config, sort_keys=True))
    spans_path = directory / "setup_spans.json" if traced else None
    if workload.simulate is not None:
        (directory / "sim.json").write_text(json.dumps(workload.simulate(seed), sort_keys=True))
        argv = infodyn_argv("simulate", "sim.json", "sim", spans_path)
    else:
        argv = [sys.executable, "-c", "import infodyn.cli"]
        spans_path = None
    child = spawn(argv, directory, directory / "setup.log", index)
    if child["exit_code"] != 0:
        raise BenchError(f"set-up of {workload.name} exited {child['exit_code']}:\n"
                         f"{tail(directory / 'setup.log')}")
    result = {"seconds": time.perf_counter() - start, "child": child}
    if spans_path is not None:
        result["spans"] = json.loads(spans_path.read_text())
    return result


def numeric_fields(obj, prefix: str = ""):
    """Flatten a report into (path, number) pairs; booleans count as 0/1."""
    if isinstance(obj, (bool, int, float)):
        yield prefix, float(obj)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from numeric_fields(obj[key], f"{prefix}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from numeric_fields(value, f"{prefix}/{i}")


def reference_errors(report: dict, reference: dict) -> list[str]:
    got = dict(numeric_fields(report))
    want = reference["fields"]
    errors = [f"field {k} missing" for k in want if k not in got]
    errors += [f"unexpected field {k}" for k in got if k not in want]
    for key, expected in want.items():
        value = got.get(key)
        if value is None or value == expected:
            continue
        if not abs(value - expected) <= REF_ABS_TOL + REF_REL_TOL * abs(expected):
            errors.append(f"{key} = {value!r}, reference {expected!r}")
    return errors[:10]


def execute_job(workload, directory: Path, variant: int, index: int,
                traced: bool) -> tuple[dict, dict | None]:
    """Run one job; returns its record and its parsed report (None if the
    job failed before producing one)."""
    out = f"out{index}"
    spans_path = directory / f"spans{index}.json" if traced else None
    log = directory / f"job{index}.log"
    child = spawn(infodyn_argv(workload.subcommand, f"job{variant}.json", out, spans_path),
                  directory, log, index)
    job = {"variant": variant, "traced": traced, **child, "errors": [], "report_sha256": None}
    report = None
    report_path = directory / out / "report.json"
    if child["exit_code"] != 0:
        job["errors"].append(f"exited {child['exit_code']}: {tail(log)}")
    elif not report_path.is_file():
        job["errors"].append("no report.json")
    else:
        raw = report_path.read_bytes()
        job["report_sha256"] = hashlib.sha256(raw).hexdigest()
        try:
            report = json.loads(raw)
        except ValueError as exc:
            job["errors"].append(f"report.json is not JSON: {exc}")
    if spans_path is not None and spans_path.is_file():
        job["layers"] = tracing.layer_metrics(json.loads(spans_path.read_text()))
        spans_path.unlink()
    shutil.rmtree(directory / out, ignore_errors=True)
    return job, report


def run_job(workload, directory: Path, variant: int, index: int, traced: bool,
            reference: list | None) -> dict:
    job, report = execute_job(workload, directory, variant, index, traced)
    if report is not None:
        job["errors"] += check_report(workload, report)
        if reference is not None:
            job["errors"] += reference_errors(report, reference[variant])
            job["matches_reference_sha256"] = job["report_sha256"] == reference[variant]["sha256"]
    job["ok"] = not job["errors"]
    return job


# ---------------------------------------------------------------------------
# one run


def summarize(values: list[float]) -> dict:
    values = sorted(values)
    out = {"median": statistics.median(values), "min": values[0], "max": values[-1],
           "samples": len(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


def over_variants(jobs: list[dict], value) -> tuple[float, int]:
    """Mean over variants of each variant's median; and the sample count."""
    by_variant: dict[int, list[float]] = {}
    for job in jobs:
        by_variant.setdefault(job["variant"], []).append(value(job))
    medians = [statistics.median(v) for _, v in sorted(by_variant.items())]
    return statistics.fmean(medians), sum(len(v) for v in by_variant.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    reference = None
    if seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(name)
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = [set_up(workload, seed, work / f"setup{i}", trace, i)
                  for i in range(1 if trace else SETUP_REPEATS)]
        directory = work / f"setup{len(setups) - 1}"
        n_variants = len(workload.configs(seed))

        jobs: list[dict] = []
        start = time.perf_counter()
        rounds = 0
        # a round is one job, cycling through the variants, or with tracing
        # one variant untraced and traced, alternating which of the pair goes
        # first; the run ends with the first round that ends past --seconds,
        # but not before an untraced run has run every variant
        min_rounds = 1 if trace else n_variants
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            variant = rounds % n_variants
            if trace:
                order = (False, True) if (rounds // n_variants) % 2 == 0 else (True, False)
            else:
                order = (False,)
            for traced in order:
                jobs.append(run_job(workload, directory, variant, len(jobs), traced, reference))
            rounds += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [j for j in jobs if not j["ok"]]
    # reports of one config must be byte-identical, traced or not
    hashes: dict[int, set] = {}
    for job in jobs:
        if job["report_sha256"]:
            hashes.setdefault(job["variant"], set()).add(job["report_sha256"])
    repeatable = all(len(h) == 1 for h in hashes.values())

    # child time at full CPU speed, taken as the median over the run's jobs
    # of each job's fastest sample (the run's single fastest sample varies
    # far more from run to run); the samples are evenly spaced in time, so
    # their mean rate is the child's time-average speed
    fastest = statistics.median(j["probe_min_ns"] for j in jobs)
    for child in jobs + [s["child"] for s in setups]:
        child["cpu_slowdown"] = 1.0 / (fastest * child["probe_mean_rate"])
    for job in jobs:
        job["job_s"] = job["wall_s"] / job["cpu_slowdown"]
    for setup in setups:
        child = setup["child"]
        setup["setup_s"] = setup["seconds"] - child["wall_s"] * (1 - 1 / child["cpu_slowdown"])
    plain = [j for j in jobs if not j["traced"] and j["ok"]]
    metrics: dict[str, dict] = {}
    if plain:
        job_s, n = over_variants(plain, lambda j: j["job_s"])
        rss, _ = over_variants(plain, lambda j: j["peak_rss_mib"])
        metrics["job_s"] = {
            "value": job_s, "unit": "s", "samples": n,
            "distribution": summarize([j["job_s"] for j in plain]),
            "wall_s": summarize([j["wall_s"] for j in plain]),
            "cpu_slowdown": summarize([j["cpu_slowdown"] for j in plain]),
            "sensitivity": sensitivity(plain)}
        metrics["peak_rss_mib"] = {"value": rss, "unit": "MiB", "samples": n,
                                   "distribution": summarize([j["peak_rss_mib"] for j in plain])}
    if not trace:
        setup_times = [s["setup_s"] for s in setups]
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s",
                              "samples": len(setup_times), "distribution": summarize(setup_times)}
        metrics["job_ok_ratio"] = {"value": (len(jobs) - len(failed)) / len(jobs),
                                   "unit": "ratio", "samples": len(jobs)}
        result_metrics = {k: metrics[k] for k in END_TO_END if k in metrics}
    else:
        result_metrics = layer_result(jobs, setups[0])
        metrics.update(result_metrics)

    correct = not failed and repeatable and len(result_metrics) == (
        len(END_TO_END) if not trace else len(tracing.LAYER_METRICS) + 1)
    return {
        "workload": {"name": name, "why": workload.why, "subcommand": workload.subcommand,
                     "input_samples": workload.input_samples, "variants": n_variants},
        "environment": environment(seed),
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "attempted": len(jobs),
        "failed": len(failed),
        "failures": [{"variant": j["variant"], "errors": j["errors"]} for j in failed][:5],
        "reports_repeat_byte_identical": repeatable,
        "compared_to_reference": reference is not None,
        "jobs": jobs,
        "metrics": metrics,
        "result": {
            "correct": correct,
            "attempted": len(jobs),
            "failed": len(failed),
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result_metrics.items()},
        },
    }


def sensitivity(jobs: list[dict]) -> float | None:
    """How job wall time follows the sampled CPU slowdown in this run: the
    least-squares slope of log wall_s on log cpu_slowdown within each
    variant. job_s assumes 1; a value far from 1 means job_s misreads the
    time at full speed by cpu_slowdown ** (sensitivity - 1)."""
    by_variant: dict[int, list[tuple[float, float]]] = {}
    for job in jobs:
        by_variant.setdefault(job["variant"], []).append(
            (math.log(job["cpu_slowdown"]), math.log(job["wall_s"])))
    sxy = sxx = 0.0
    for points in by_variant.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
    return sxy / sxx if sxx > 0 else None


def layer_result(jobs: list[dict], setup: dict) -> dict:
    traced = [j for j in jobs if j["traced"] and j["ok"] and "layers" in j]
    plain = [j for j in jobs if not j["traced"] and j["ok"]]
    if not traced or not plain:
        return {}
    # a layer the job never enters is reported from the set-up, if set-up
    # entered it (causality-lattice simulates its CSV there)
    setup_layers = tracing.layer_metrics(setup["spans"]) if "spans" in setup else {}
    out = {}
    for name, (unit, moves, _) in tracing.LAYER_METRICS.items():
        value, n = over_variants(traced, lambda j: j["layers"][name])
        source = "job"
        if value == 0 and setup_layers.get(name):
            value, n, source = setup_layers[name], 1, "setup"
        out[name] = {"value": value, "unit": unit, "samples": n, "source": source, "moves": moves}
    traced_s, n_traced = over_variants(traced, lambda j: j["job_s"])
    plain_s, _ = over_variants(plain, lambda j: j["job_s"])
    name, unit, moves = tracing.OVERHEAD_METRIC
    out[name] = {"value": traced_s - plain_s, "unit": unit, "samples": n_traced, "moves": moves,
                 "traced_job_s": traced_s, "untraced_job_s": plain_s,
                 "traced_wall_s": over_variants(traced, lambda j: j["wall_s"])[0]}
    return out


# ---------------------------------------------------------------------------
# environment


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "infodyn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# commands


def write_reference() -> None:
    """Store the default seed's report fields and hashes, one per variant."""
    reference = {}
    for name, workload in WORKLOADS.items():
        work = WORK / f"reference-{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            set_up(workload, DEFAULT_SEED, work, traced=False)
            reference[name] = []
            for v in range(len(workload.configs(DEFAULT_SEED))):
                job, report = execute_job(workload, work, v, v, False)
                errors = job["errors"] + (check_report(workload, report) if report else [])
                if errors:
                    raise BenchError(f"{name} variant {v} failed: {errors}")
                reference[name].append({"sha256": job["report_sha256"],
                                        "fields": dict(numeric_fields(report))})
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"reference: {name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def print_all(seed: int, seconds: float, out: Path | None) -> int:
    records = []
    correct = True
    for name in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, seed, seconds, trace)
            records.append(record)
            correct &= record["result"]["correct"]
            print(f"\n{name} ({'traced' if trace else 'untraced'}): "
                  f"correct={record['result']['correct']} attempted={record['attempted']} "
                  f"failed={record['failed']}")
            for metric, m in record["metrics"].items():
                note = " (from set-up)" if m.get("source") == "setup" else ""
                moves = f"  moves: {m['moves']}" if "moves" in m else ""
                if "sensitivity" in m:
                    moves = (f"  wall_s median {m['wall_s']['median']:.4g}, cpu_slowdown median "
                             f"{m['cpu_slowdown']['median']:.3g}, sensitivity {m['sensitivity']}")
                print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']:6s} "
                      f"n={m['samples']}{note}{moves}")
            if trace:
                for metric, share in layer_shares(record).items():
                    print(f"  share {metric:36s} {share:>16.1%}")
    if out is not None:
        out.write_text(json.dumps(records, indent=1) + "\n")
    return 0 if correct else 1


def layer_shares(record: dict) -> dict[str, float]:
    """Share of the traced jobs' wall time taken by the workload's dominant
    layer (spans are wall time, not scaled like job_s)."""
    metrics = record["metrics"]
    overhead = metrics.get(tracing.OVERHEAD_METRIC[0])
    if overhead is None:
        return {}
    names = WORKLOADS[record["workload"]["name"]].dominant
    return {"+".join(names): sum(metrics[n]["value"] for n in names) / overhead["traced_wall_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    parser.add_argument("--out", type=Path, help="with --all: write every run's record here")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "infodyn" / "cli.py").is_file():
        print(f"error: no infodyn sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not (args.write_reference or args.all or args.workload):
        parser.error("--workload, --all or --write-reference is required")
    try:
        with Spawner() as spawner, Probe() as probe:
            HELPERS.update(spawner=spawner, probe=probe)
            if args.write_reference:
                write_reference()
                return 0
            if args.all:
                return print_all(args.seed, args.seconds, args.out)
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in record["failures"]:
        print(f"job failed: {failure}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
