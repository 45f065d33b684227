"""Benchmark of the nmavc CLI: one workload per run, jobs in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the program is taken from ./src).  A job is
the workload's CLI invocations, each a fresh process; one job is in
flight at a time and the next starts when it ends.  With --trace 0 the
loop runs jobs for up to --seconds and reports medians of the end-to-end
metrics, each time scaled by the reference process timed beside it;
with --trace 1 it runs one untraced and two traced jobs and reports the
per-layer metrics.  Every job's verdict is checked after timing.  The
last stdout line is the JSON result; a record with the environment and
every sample goes to .perfbench_out/.  See perfbench/NOTES.md.
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
from importlib import metadata
from pathlib import Path

import traced
from workloads import DEFAULT_SEED, WORKLOADS, Context

HERE = Path(__file__).resolve().parent
#: Fresh `nmavc --version` processes timed per run for setup_s.
SETUP_REPEATS = 7
#: Calibrated times are seconds on a box that runs reference.py in this long.
CALIBRATION_REF_S = 1.0
#: Every child is killed this long after the run started, so the run
#: ends within its 180-second limit.
HARD_LIMIT_S = 165.0


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_codes: list[int]
    reports: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: `scale` of the reference times around the job.
    scale: float = 1.0


def calibration_s(runner: Runner) -> float:
    """Wall time of one fresh reference.py process (see its docstring)."""
    wall, _, _, code = runner.process([sys.executable, str(HERE / "reference.py")])
    if code != 0:
        raise SystemExit(f"error: reference.py exited with {code}")
    return wall


def scale(before: float, after: float) -> float:
    """CALIBRATION_REF_S over the mean reference time around a timed process."""
    return 2 * CALIBRATION_REF_S / (before + after)


class Runner:
    def __init__(self, root: Path, work: Path, started: float) -> None:
        self.root = root
        self.work = work
        self.deadline = started + HARD_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "NMAVC_THREADS"}
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def process(self, argv: list[str]) -> tuple[float, float, float, int]:
        """Run one child to completion: (wall s, cpu s, peak RSS MiB, exit code)."""
        with open(self.work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)

    def cli(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "nmavc.cli", *args]

    def job(self, steps, trace_run: str = "") -> Sample:
        """One job: its steps in order, reports read back after each."""
        sample = Sample(0.0, 0.0, 0.0, [])
        for i, step in enumerate(steps):
            report = self.work / step.report
            report.unlink(missing_ok=True)
            if trace_run:
                argv = [sys.executable, str(HERE / "traced.py"),
                        f"spans-{trace_run}-{i}.tsv", trace_run, "--", *step.args]
            else:
                argv = self.cli(step.args)
            wall, cpu, rss, code = self.process(argv)
            sample.wall_s += wall
            sample.cpu_s += cpu
            sample.rss_mb = max(sample.rss_mb, rss)
            sample.exit_codes.append(code)
            if code != 0:
                tail = (self.work / "stderr.txt").read_text(errors="replace").strip()
                sample.problems.append(f"{step.args[0]} exited {code}: {tail[-300:]}")
            try:
                sample.reports.append(json.loads(report.read_text(encoding="utf-8")))
            except (OSError, ValueError) as exc:
                sample.problems.append(f"{step.args[0]}: no report ({exc})")
        return sample

    def check_import(self) -> None:
        """The children must run the program in this checkout (also warms .pyc)."""
        out = subprocess.run(
            [sys.executable, "-c", "import nmavc.cli; print(nmavc.cli.__file__)"],
            cwd=self.work, env=self.env, capture_output=True, text=True, timeout=120)
        where = out.stdout.strip()
        if out.returncode != 0 or Path(where).resolve().parent.parent != self.root / "src":
            raise SystemExit(f"error: nmavc does not import from {self.root / 'src'}: "
                             f"{where or out.stderr.strip()[-300:]}")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


def gate(workload, samples: list[Sample], ctx: Context) -> None:
    """Attach verdict problems to every sample (after all timing)."""
    first = None
    for sample in samples:
        if sample.problems:
            continue
        try:
            verdict = workload.verdict(sample.reports)
            sample.problems += workload.check(sample.reports, ctx)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            sample.problems.append(f"malformed report: {exc!r}")
            continue
        if first is None:
            first = verdict
        elif verdict != first:
            sample.problems.append("verdict differs from the run's first job")


def environment(root: Path) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "loadavg_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "PYTHONHASHSEED": "0",
        "NMAVC_THREADS": "unset",
    }


def end_to_end(runner: Runner, workload, ctx: Context, seconds: float):
    # The setup block and every job sit between two reference processes.
    calibrations = [calibration_s(runner)]
    setup = []
    for _ in range(1 if ctx.smoke else SETUP_REPEATS):
        wall, _, _, code = runner.process(runner.cli(["--version"]))
        if code != 0:
            raise SystemExit(f"error: nmavc --version exited with {code}")
        setup.append(wall)
    calibrations.append(calibration_s(runner))
    setup_scale = scale(*calibrations)
    steps = workload.steps(ctx)
    samples: list[Sample] = []
    start = time.monotonic()
    # Start another job only if a typical one still ends inside the window.
    while not samples or (
            time.monotonic() - start + statistics.median(s.wall_s for s in samples)
            + calibrations[-1] <= seconds and time.monotonic() < runner.deadline):
        samples.append(runner.job(steps))
        calibrations.append(calibration_s(runner))
        samples[-1].scale = scale(*calibrations[-2:])
    gate(workload, samples, ctx)
    passed = [s for s in samples if not s.problems]
    raw = {
        "wall_s": [s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "setup_s": setup,
    }
    factors = {"wall_s": [s.scale for s in samples], "cpu_s": [s.scale for s in samples],
               "setup_s": [setup_scale] * len(setup)}
    spread = {name: quartiles([v * f for v, f in zip(raw[name], factors[name])])
              for name in raw}
    spread["peak_rss_mb"] = quartiles([s.rss_mb for s in samples])
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    metrics = {name: {"value": spread[name]["median"], "unit": unit}
               for name, unit in units.items()}
    fail_ratio = 1 - len(passed) / len(samples)
    lines = [f"{name} = {spread[name]['median']:.4f} {unit} (q1 {spread[name]['q1']:.4f}, "
             f"q3 {spread[name]['q3']:.4f}, n={spread[name]['n']}"
             + (f"; uncalibrated median {statistics.median(raw[name]):.4f})"
                if name in raw else ")")
             for name, unit in units.items()]
    lines.append(f"reference.py: median {statistics.median(calibrations):.4f} s, "
                 f"min {min(calibrations):.4f} s, max {max(calibrations):.4f} s "
                 f"(reference {CALIBRATION_REF_S} s)")
    lines.append(f"fail_ratio = {fail_ratio:.4f} 1 ({len(samples) - len(passed)} "
                 f"of {len(samples)} jobs failed the gate)")
    extra = {"spread": spread, "fail_ratio": fail_ratio, "calibrations_s": calibrations,
             "setup_raw_s": setup, "setup_scale": setup_scale}
    return samples, metrics, extra, lines


def per_layer(runner: Runner, workload, ctx: Context):
    steps = workload.steps(ctx)
    plain = runner.job(steps)
    run_ids = [f"{workload.name}-{ctx.seed}-{i}" for i in (1, 2)]
    traced_jobs = [runner.job(steps, trace_run=run_id) for run_id in run_ids]
    samples = [plain, *traced_jobs]
    gate(workload, samples, ctx)
    stats = []
    for run_id, sample in zip(run_ids, traced_jobs):
        files = sorted(runner.work.glob(f"spans-{run_id}-*.tsv"))
        if len(files) != len(steps):
            sample.problems.append(f"{len(files)} span files for {len(steps)} steps")
        stats.append(traced.aggregate(files))
    calls = [{name: entry["calls"] for name, entry in s.items()} for s in stats]
    if calls[0] != calls[1]:
        diff = sorted(n for n in set(calls[0]) | set(calls[1])
                      if calls[0].get(n) != calls[1].get(n))
        traced_jobs[1].problems.append(f"call counts differ between traced runs: {diff}")

    def mean(name, key):
        return statistics.fmean(s.get(name, {}).get(key, 0) for s in stats)

    values = {}
    for name in traced.SPAN_NAMES:
        values[f"{name}.calls"] = (calls[0].get(name, 0), "count")
        values[f"{name}.self_s"] = (mean(name, "self_s"), "s")
    values["cli.self_s"] = (mean(traced.ROOT, "self_s"), "s")
    lp_calls = mean(traced.LP, "calls")
    values[f"{traced.LP}.rows_mean"] = (mean(traced.LP, "rows") / lp_calls if lp_calls else 0, "count")
    values[f"{traced.LP}.cols_mean"] = (mean(traced.LP, "cols") / lp_calls if lp_calls else 0, "count")
    profiles = mean("verifier.tamper_map", "calls")
    values["verifier.lp_per_profile"] = (lp_calls / profiles if profiles else 0, "1")
    overhead = statistics.fmean(s.wall_s for s in traced_jobs) - plain.wall_s
    values["trace.overhead_s"] = (overhead, "s")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    lines = [f"{name} = {v:.6g} {unit}" for name, (v, unit) in values.items()]
    lines.append(f"verifier.lp_per_profile base: {lp_calls:.0f} solve_min calls / "
                 f"{profiles:.0f} tamper_map calls")
    lines.append(f"trace.overhead_s = traced {traced_jobs[0].wall_s:.3f} s, "
                 f"{traced_jobs[1].wall_s:.3f} s vs untraced {plain.wall_s:.3f} s")
    extra = {"calls_repeat": calls[0] == calls[1], "traced_wall_s": [s.wall_s for s in traced_jobs],
             "untraced_wall_s": plain.wall_s}
    return samples, metrics, extra, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy input sizes, for the benchmark's own test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="shift every reference value, to show the gate fails")
    args = parser.parse_args(argv)

    started = time.monotonic()
    # One core for this process and its children: reference.py then
    # measures the core the jobs run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = HERE.parent
    if not (root / "src" / "nmavc" / "cli.py").is_file():
        print(f"error: no nmavc sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = environment(root)
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work, started)
        runner.check_import()
        workload = WORKLOADS[args.workload]
        ctx = Context(root, work, args.seed, args.smoke, args.corrupt_reference)
        if args.trace:
            samples, metrics, extra, lines = per_layer(runner, workload, ctx)
        else:
            samples, metrics, extra, lines = end_to_end(runner, workload, ctx, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s.problems)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "samples": [{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mb": s.rss_mb,
                     "scale": s.scale, "exit_codes": s.exit_codes, "problems": s.problems}
                    for s in samples],
        "metrics": metrics, **extra,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{workload.name} seed {args.seed}: {len(samples)} jobs, {failed} failed")
    for s in samples:
        for problem in s.problems[:5]:
            print(f"  gate: {problem}")
    for line in lines:
        print(f"  {line}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
