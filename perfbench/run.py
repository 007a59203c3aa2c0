"""The cnskit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cnskit source tree.  cnskit is imported from
src/ there and from nowhere else, so in a directory without that source
the command exits with code 2 and prints no result.  The workloads are
verify-suite, encode-mix and bigint; README.md says what each measures.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; a per-layer metric of a layer the workload does not reach
reads 0.  The line before records the machine and the run.  Scratch
files and traces go to .bench_out/ in the source tree.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import checks
import library
import speed
import suite

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


@dataclass(frozen=True)
class Sizes:
    verify_args: tuple[str, ...] = ()
    verify_failing: frozenset = checks.DEFAULT_FAILING
    verify_min_runs: int = 3
    mix_ops: int = 2000
    bigint_labels: tuple[int, ...] = (1024, 4096, 16384)
    bigint_shift: int = 0  # an integer labelled b has b >> bigint_shift bits
    bigint_per_size: int = 8
    setup_runs: int = 15


# what a fresh process imports and builds before a workload's first call
SETUP = {
    "verify-suite": "import cnskit.cli\ncnskit.cli.build_parser()\ncnskit.penney_standard()",
    "encode-mix": ("import cnskit\np2 = cnskit.IntPoly((2, 2, 1))\n"
                   "for p in (p2, cnskit.compose_x_power(p2, 2), cnskit.IntPoly((2, -2, 1))):\n"
                   "    cnskit.CnsBase(p)\ncnskit.penney_standard()"),
    "bigint": "import cnskit\ncnskit.CnsBase(cnskit.IntPoly((2, 2, 1)))\ncnskit.penney_standard()",
}

WORKLOADS = {
    "verify-suite": suite.run_verify,
    "encode-mix": library.run_mix,
    "bigint": library.run_bigint,
}


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    cnskit: object
    root: Path
    env: dict
    out_dir: Path
    tmp_dir: Path
    cli_runs: int = 0


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(ctx: Context, code: str) -> tuple[float, float]:
    """Median seconds a fresh process takes to import cnskit and build
    what the workload uses, at reference speed and unscaled.  Each
    process times the calibration loop on its core right before and
    right after; a first, untimed process compiles the bytecode."""
    loop = speed.INTERPRETER
    # the loop's source is inlined, so that nothing cnskit imports is
    # imported before the timed region
    program = (f"import time\n{inspect.getsource(loop.run)}\n"
               "def _loop():\n    start = time.perf_counter()\n"
               f"    {loop.run.__name__}({loop.steps})\n    return time.perf_counter() - start\n"
               f"_before = _loop()\n_t0 = time.perf_counter()\n{code}\n"
               "_t1 = time.perf_counter()\nprint(_t1 - _t0, (_before + _loop()) / 2)")
    scaled, raw = [], []
    for i in range(ctx.sizes.setup_runs + 1):
        done = subprocess.run([sys.executable, "-c", program], cwd=ctx.root, env=ctx.env,
                              capture_output=True, text=True, check=True)
        if i:
            seconds, loop_s = map(float, done.stdout.split())
            raw.append(seconds)
            scaled.append(seconds * loop.factor(loop_s))
    return statistics.median(scaled), statistics.median(raw)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = Sizes()) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the run record."""
    import cnskit

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    ctx = Context(workload, seed, seconds, trace, sizes, cnskit, ROOT, child_env(),
                  OUT_DIR, tmp_dir)
    tally = checks.Tally()
    run = WORKLOADS[workload]
    load_start = os.getloadavg()
    try:
        setup = None if trace else measure_setup(ctx, SETUP[workload])
        values, info = run(ctx, tally)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if setup is not None:
        values["setup_s"], info.setdefault("raw", {})["setup_s"] = setup
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = [name for name in units if name not in values]
    if missing and not trace:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              "commit": git_commit(ROOT), "loadavg_start": load_start,
              "loadavg_end": os.getloadavg(),
              "error_rate": tally.failed / max(1, tally.attempted), **info}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "cnskit" / "__init__.py").is_file():
        print("error: no cnskit source in src/ beside the benchmark; "
              "run it from a cnskit source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cnskit
    if Path(cnskit.__file__).resolve().parent != (SRC / "cnskit").resolve():
        print(f"error: imported cnskit from {cnskit.__file__}, not from src/", file=sys.stderr)
        return 2
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
