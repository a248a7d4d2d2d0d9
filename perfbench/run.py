"""Pipeline benchmark: `adiapack converge` and `superpose` end to end.

    python3 perfbench/run.py
        every workload, untraced and then traced, with all metrics printed
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload; the last line of stdout is a JSON result

Each CLI study runs as its own child process, built from `src/` of the
checkout the script sits in, one child at a time.  An untraced run first
measures set-up (import of `adiapack.cli` plus `load_config`) in
SETUP_SAMPLES children, then repeats the whole command until S seconds have
passed, and reports medians of:

    wall_s       wall time of the command, set-up included
    setup_s      import plus load_config, timed inside its own child
    cpu_s        user plus system CPU time of the command's child
    peak_rss_mb  peak resident memory of the command's child

A traced run runs the command once untraced and once under
`perfbench/tracer.py`, and reports per-layer calls, self time and work
counts.  It checks that the two runs wrote byte-identical CSVs and that the
traced NLS step count equals the count computed here from the config.

An operation is one ε sub-run.  A requested ε missing from `report.json`
(or every ε, when the command exits non-zero) counts as failed.  The inputs
are the shipped configs with fixed ε overrides; they are deterministic and
no seed reaches them, so `--seed` only labels the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import adiapack.cli\n"
    "adiapack.cli.load_config(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    epsilons: tuple
    check: object


# The ε lists keep one command at 20-35 s on a 2-core host, so that 70 runs
# of the three workloads (two sets of ten each, plus traced runs) fit in an
# hour; perfbench/README.md gives the figures.
WORKLOADS = {
    "rotating_converge": Workload(
        "converge", "configs/rotating.json", (0.015625, 0.0078125),
        checks.check_converge),
    "superpose_pair": Workload(
        "superpose", "configs/superposition.json", (0.03125, 0.015625),
        checks.check_superpose_pair),
    "crossing_control": Workload(
        "superpose", "configs/crossing_control.json", (0.015625,),
        checks.check_crossing_control),
}


@dataclass
class Round:
    """One child process: exit code, resources and where it wrote."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    out: Path
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    results: list = field(default_factory=list)  # (description, ok, detail)

    @property
    def correct(self):
        return all(ok for _, ok, _ in self.results)

    def check(self, description, ok, detail=""):
        self.results.append((description, bool(ok), detail))


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, workdir: Path, deadline: float) -> Round:
    """Run argv to its end (killed at the deadline) and collect its rusage."""
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "stdout.txt", "wb") as so, \
            open(workdir / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=so,
                                stderr=se, stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Round(code=proc.returncode, wall=wall,
                 cpu=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, out=workdir / "result",
                 stdout=(workdir / "stdout.txt").read_text("utf-8", "replace"),
                 stderr=(workdir / "stderr.txt").read_text("utf-8", "replace"))


def cli_args(w: Workload, out: Path):
    return [w.command, "--config", str(ROOT / w.config), "--epsilon-override",
            ",".join(repr(e) for e in w.epsilons), "--out", str(out)]


def setup_sample(w: Workload, workdir: Path, deadline: float) -> float:
    r = run_child([sys.executable, "-c", SETUP_CODE, str(ROOT / w.config)],
                  workdir, deadline)
    if r.code != 0:
        raise RuntimeError(f"set-up child exited {r.code}: {r.stderr.strip()}")
    return float(r.stdout.strip().splitlines()[-1])


def command_round(w: Workload, workdir: Path, deadline: float,
                  spans: Path | None = None) -> Round:
    out = workdir / "result"
    if spans is None:
        argv = [sys.executable, "-m", "adiapack.cli"] + cli_args(w, out)
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans)] \
            + cli_args(w, out)
    return run_child(argv, workdir, deadline)


def account(w: Workload, r: Round, tally: Tally, raw: dict):
    """Count the round's ε sub-runs and check what it wrote."""
    report_path = r.out / "report.json"
    report = json.loads(report_path.read_text("utf-8")) \
        if report_path.exists() else None
    reported = set(report["epsilons"]) if report and r.code == 0 else set()
    tally.attempted += len(w.epsilons)
    tally.failed += sum(1 for e in w.epsilons if e not in reported)
    if reported:
        for description, ok, detail in w.check(raw, report, list(w.epsilons),
                                               r.stderr):
            tally.check(description, ok, detail)


def untraced_run(w: Workload, rundir: Path, seconds: float, started: float,
                 tally: Tally, raw: dict):
    deadline = started + RUN_LIMIT_S
    setups = [setup_sample(w, rundir / f"setup{i}", deadline)
              for i in range(SETUP_SAMPLES)]
    rounds = []
    while True:
        r = command_round(w, rundir / f"round{len(rounds)}", deadline)
        account(w, r, tally, raw)
        rounds.append(r)
        elapsed = time.perf_counter() - started
        if elapsed >= seconds or elapsed + r.wall >= RUN_LIMIT_S:
            break
    metrics = {
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(r.cpu for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in rounds), "MB"),
    }
    return metrics, rounds


_WORK_UNITS = {"points": "count", "steps": "count", "node_steps": "count",
               "point_steps": "count", "bytes": "bytes"}


def layer_metrics(spans_path: Path):
    """Per-layer calls, self time and work counts from the traced child's spans."""
    trace = json.loads(spans_path.read_text("utf-8"))
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    names = trace["names"]
    per_name = {}
    root_time = 0.0
    for (index, parent, start, end, work), covered in zip(spans, child_time):
        calls, self_s, total = per_name.get(names[index], (0, 0.0, 0))
        per_name[names[index]] = (calls + 1, self_s + (end - start) - covered,
                                  total + work)
        if parent < 0:
            root_time += end - start
    metrics = {}
    for module_name, qualname, work_name, _, _ in tracer.TARGETS:
        name = f"{module_name}.{qualname}"
        calls, self_s, total = per_name.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        if work_name is not None:
            metrics[f"{name}.{work_name}"] = (total, _WORK_UNITS[work_name])
    return metrics, root_time, trace["missing"]


def _csv_files(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def traced_run(w: Workload, rundir: Path, started: float, tally: Tally,
               raw: dict, baseline):
    """One traced command; `baseline` holds untraced rounds of the same run."""
    deadline = started + RUN_LIMIT_S
    if not baseline:
        r = command_round(w, rundir / "untraced", deadline)
        account(w, r, tally, raw)
        baseline = [r]
    spans = rundir / "spans.json"
    r = command_round(w, rundir / "traced", deadline, spans=spans)
    account(w, r, tally, raw)
    metrics, root_time, missing = layer_metrics(spans)
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    metrics["untraced_s"] = (r.wall - self_total, "s")
    metrics["trace_overhead_s"] = (
        r.wall - statistics.median(b.wall for b in baseline), "s")
    for name in missing:
        print(f"note: {name} not found; recorded as 0 calls", file=sys.stderr)

    csvs = _csv_files(r.out)
    tally.check("traced CSVs byte-identical to untraced",
                csvs and csvs == _csv_files(baseline[0].out), ", ".join(csvs))
    expected = checks.expected_nls_steps(raw, w.epsilons)
    steps = metrics["nls.NLSPropagator.step.calls"][0]
    tally.check("traced NLS steps equal the count from the config",
                steps == expected, f"{steps} vs {expected}")
    tally.check("self times plus untraced_s add up to traced wall",
                abs(self_total - root_time) <= 1e-6 * max(1.0, root_time)
                and 0.0 <= root_time <= r.wall,
                f"self {self_total:.4f} s, spans {root_time:.4f} s, "
                f"wall {r.wall:.4f} s")
    return metrics


def host_facts():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)),
            "loadavg": [round(v, 2) for v in os.getloadavg()],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": threads}


def _print_result(title, metrics, tally):
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(f"  attempted = {tally.attempted} operations, failed = {tally.failed}")
    for description, ok, detail in tally.results:
        print(f"  {'PASS' if ok else 'FAIL'} {description}"
              + (f" ({detail})" if detail else ""))


def _as_json(tally, metrics):
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def one_run(name, seconds, trace):
    w = WORKLOADS[name]
    raw = json.loads((ROOT / w.config).read_text("utf-8"))
    rundir = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    started = time.perf_counter()
    tally = Tally()
    try:
        if trace:
            metrics = traced_run(w, rundir, started, tally, raw, None)
        else:
            metrics, _ = untraced_run(w, rundir, seconds, started, tally, raw)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    _print_result(f"{name} ({'traced' if trace else 'untraced'})", metrics, tally)
    return _as_json(tally, metrics)


def all_runs(seconds):
    """Every workload untraced, then every workload traced."""
    summary = {"host": host_facts(), "workloads": {}}
    print("host:", json.dumps(summary["host"]))
    ok = True
    rundirs = {name: OUT / f"{name}-{os.getpid()}" for name in WORKLOADS}
    baselines = {}
    try:
        for traced in (False, True):
            for name, w in WORKLOADS.items():
                raw = json.loads((ROOT / w.config).read_text("utf-8"))
                tally = Tally()
                if traced:
                    metrics = traced_run(w, rundirs[name], time.perf_counter(),
                                         tally, raw, baselines[name])
                else:
                    shutil.rmtree(rundirs[name], ignore_errors=True)
                    metrics, baselines[name] = untraced_run(
                        w, rundirs[name], seconds, time.perf_counter(), tally,
                        raw)
                kind = "traced" if traced else "untraced"
                _print_result(f"{name} ({kind})", metrics, tally)
                summary["workloads"].setdefault(name, {})[kind] = \
                    _as_json(tally, metrics)
                ok = ok and tally.correct and tally.failed == 0
    finally:
        for rundir in rundirs.values():
            shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ["src/adiapack/cli.py"]
               + [w.config for w in WORKLOADS.values()]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an adiapack checkout, missing {missing}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return all_runs(args.seconds)
    print("host:", json.dumps(host_facts()))
    print(f"seed {args.seed}: the inputs are the shipped configs, which no "
          f"seed reaches")
    print(json.dumps(one_run(args.workload, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
