"""The verify-suite workload: `cnskit verify --suite all` as a fresh CLI process.

The timed runs are at --jobs 1.  Each is timed from spawn to exit, less
the time its speed samples took (see cli_child.py), and its peak
resident memory is read from os.wait4.  After them one run at --jobs 2,
never more than the two cores the benchmark is sized for, is checked
but not timed: with both cores busy its wall time follows the host's
load more than the program (see README.md).  Every run's verdicts, exit
code, stderr and report are checked, and its stdout and report must
equal the first --jobs 1 run's except for elapsed_ms.

A traced run times one --jobs 1 and one --jobs 2 run untraced, then runs
the CLI twice under tracing, at --jobs 1 because pool workers would run
outside the traced process.  The two traces must agree on every count.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import speed
from spans import Profile, median_metrics

HERE = Path(__file__).resolve().parent


@dataclass
class CliRun:
    wall: float  # from spawn to exit, less the speed samples
    sampled: float  # seconds the speed samples took
    factor: float  # speed factor, from the samples
    rss_mib: float
    ok: bool
    stdout: str
    report: list
    trace: dict | None

    @property
    def scaled(self) -> float:
        return self.wall * self.factor


def run_cli(ctx, jobs: int, trace_path: Path | None = None) -> CliRun:
    """Run `cnskit verify --suite all` once in a fresh process and check it."""
    ctx.cli_runs += 1
    stem = ctx.tmp_dir / f"verify-{ctx.cli_runs}"
    report_path = stem.with_suffix(".jsonl")
    argv = ["verify", "--suite", "all", "--seed", str(ctx.seed), "--jobs", str(jobs),
            "--report", str(report_path), *ctx.sizes.verify_args]
    speed_path = stem.with_suffix(".speed")
    if trace_path is not None:
        trace_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "cli_child.py"), str(speed_path),
               str(trace_path or "-"), *argv]
    with open(stem.with_suffix(".out"), "w+", encoding="utf-8") as out, \
            open(stem.with_suffix(".err"), "w+", encoding="utf-8") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=ctx.root, env=ctx.env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read()
    samples = json.loads(speed_path.read_text()) if speed_path.exists() else []
    factor = speed.INTERPRETER_SAMPLE.mean_factor(samples) or speed.INTERPRETER.now()
    report = []
    if report_path.exists():
        report = checks.report_without_timing(report_path.read_text().splitlines())
    trace = None
    if trace_path is not None and trace_path.exists():
        trace = json.loads(trace_path.read_text())
    ok = (checks.verify_run_ok(proc.returncode, stdout, report, ctx.sizes.verify_failing)
          and not stderr and (trace_path is None or trace is not None))
    return CliRun(wall - sum(samples), sum(samples), factor, usage.ru_maxrss / 1024, ok,
                  stdout, report, trace)


def agree(tally, run: CliRun, reference: CliRun) -> None:
    """Count one check: run is right and matches the reference run."""
    tally.record(run.ok and reference.ok and run.stdout == reference.stdout
                 and run.report == reference.report)


def run_verify(ctx, tally) -> tuple[dict, dict]:
    if ctx.trace:
        return traced_verify(ctx, tally)
    runs: list[CliRun] = []
    started = time.perf_counter()
    while (len(runs) < ctx.sizes.verify_min_runs
           or time.perf_counter() - started + runs[-1].wall <= ctx.seconds):
        runs.append(run_cli(ctx, 1))
        agree(tally, runs[-1], runs[0])
    j2 = run_cli(ctx, 2)
    agree(tally, j2, runs[0])
    scaled = [run.scaled for run in runs]
    walls = [run.wall for run in runs]
    metrics = {"latency_p50_ms": statistics.median(scaled) * 1e3,
               "ops_per_s": len(scaled) / sum(scaled),
               "peak_rss_mb": statistics.median(run.rss_mib for run in runs)}
    info = {"walls_s": walls, "factors": [run.factor for run in runs],
            "rss_mib": [run.rss_mib for run in runs], "j2_s": j2.wall, "j2_factor": j2.factor,
            "raw": {"latency_p50_ms": statistics.median(walls) * 1e3,
                    "ops_per_s": len(walls) / sum(walls)}}
    return metrics, info


def params_of(report: list, check_id: str) -> dict:
    return next(entry["params"] for entry in report if entry["check_id"] == check_id)


def traced_metrics(run: CliRun, untraced_j1: CliRun) -> dict:
    prof = Profile(run.trace["stats"])
    values = {"verify.table_s": prof.total("verify.table"),
              "verify.table_entries": prof.units("verify.table")}
    checks_s = 0.0
    for check_id in checks.SUITE_ORDER:
        seconds = prof.total("verify.check." + check_id)
        values[f"verify.check.{check_id}_s"] = seconds
        checks_s += seconds
    # the lookups each check makes are fixed by its probe plan: lam() is
    # asked 3 times per probed pair, plus 7 + 2g times around the grid;
    # length() 4 times per probed pair; a miss is a traced library call
    lam = params_of(run.report, "lambda_bounds")
    grid, samples = 2 * lam["grid_bound"], lam["samples"]
    lam_attempts = 3 * (grid * grid + samples) + 7 + grid
    lam_misses = prof.calls("penney.leading_digit_length", under="verify.check.lambda_bounds")
    add = params_of(run.report, "additive_bounds")
    grid, samples = 2 * add["grid_bound"], add["samples"]
    length_attempts = 4 * (grid * grid + samples)
    length_misses = prof.calls("cns.length", under="verify.check.additive_bounds")
    # the spans include the speed samples taken while they ran
    overhead = run.wall + run.sampled - prof.total("verify.run_suite")
    values.update({
        "verify.lam_cache_hit_ratio": 1 - lam_misses / lam_attempts,
        "verify.length_cache_hit_ratio": 1 - length_misses / length_attempts,
        "cns.length_calls": prof.calls("cns.length"),
        "cns.length_self_s": prof.self_time("cns.length"),
        "cns.encode_calls": prof.calls("cns.encode"),
        "cns.encode_self_s": prof.self_time("cns.encode"),
        "cns.digits_emitted": prof.units("cns.encode") + prof.units("cns.length"),
        "penney.convert_us": prof.mean("penney.convert") * 1e6,
        "penney.build_scheme_us": prof.mean("penney.build_scheme") * 1e6,
        "trinomial.seq_a_calls": prof.calls("trinomial.seq_a",
                                            under="verify.check.pair_subsequences"),
        "cli.overhead_s": overhead,
        "trace_overhead_ratio": run.scaled / untraced_j1.scaled,
        # not a metric: the share of the wall time the phases account for
        "accounted_share": ((values["verify.table_s"] + checks_s + overhead)
                            / (run.wall + run.sampled)),
    })
    return speed.scale_times(values, run.factor)


def traced_verify(ctx, tally) -> tuple[dict, dict]:
    j1 = run_cli(ctx, 1)
    agree(tally, j1, j1)
    j2 = run_cli(ctx, 2)
    agree(tally, j2, j1)
    traced = []
    for k in range(2):
        path = ctx.out_dir / f"trace-{ctx.workload}-seed{ctx.seed}-{k}.json"
        run = run_cli(ctx, 1, trace_path=path)
        agree(tally, run, j1)
        traced.append(run)
    if not all(run.ok for run in traced):
        return {}, {"error": "a traced run failed its checks"}
    counts = [Profile(run.trace["stats"]).counts() for run in traced]
    tally.record(counts[0] == counts[1])
    per_run = [traced_metrics(run, j1) for run in traced]
    metrics = median_metrics(per_run)
    info = {"j1_s": j1.wall, "j2_s": j2.wall, "traced_s": [run.wall for run in traced],
            "accounted_share": metrics.pop("accounted_share"),
            "counters": {name: metrics[name] for name in (
                "verify.table_entries", "cns.length_calls", "cns.encode_calls",
                "cns.digits_emitted", "trinomial.seq_a_calls")}}
    metrics["verify.parallel_efficiency"] = j1.scaled / (2 * j2.scaled)
    return metrics, info
