"""measureboost benchmark: the entry point.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs with one worker
in fresh interpreters started here: SETUPS processes that only set up (their
median start-to-ready time is setup_s), the last of which also runs the
timed iterations.  Every call's output is checked; a failed check, an
exception or a call over the time cap counts as a failed operation.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of the traced run with --trace 1.  The line before it is a JSON
report with the machine, the seed, every metric that applies to the
workload (diagram and train phases, accuracy, fail rate) and, when traced,
each layer's share of the iteration time.
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
import time
from pathlib import Path

import numpy
import scipy

from layers import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
DEADLINE_S = 170.0  # the whole run, all processes included, ends before this
# end-to-end metrics every workload reports on the last line; the report
# line adds the ones that apply to some workloads only
GATED = ("setup_s", "run_s", "peak_rss_mb", "success_rate")


def machine_info(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def start_worker(args, workdir: Path, tag: str, setup_only: bool, timeout: float):
    """Run one worker process to completion; returns (spawn time, result or None, error)."""
    result = workdir / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir / "data"), "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return t_spawn, None, f"{tag}: over the {timeout:.0f} s time cap"
    if code != 0 or not result.is_file():
        return t_spawn, None, f"{tag}: exit code {code}"
    return t_spawn, json.loads(result.read_text()), None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "measureboost" / "__init__.py").is_file():
        print(f"no measureboost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_begin = time.perf_counter()
    runs = ROOT / ".perfbench_runs"
    workdir = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setups, results, errors = [], [], []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        left = DEADLINE_S - (time.perf_counter() - t_begin)
        timeout = left if last else min(left, 30.0)
        t_spawn, res, err = start_worker(args, workdir, f"setup{i}" if not last else "main", not last, timeout)
        if err:
            errors.append(err)
            continue
        setups.append(res["t_ready"] - t_spawn)
        results.append(res)

    main_res = results[-1] if results and "peak_rss_mb" in results[-1] else None
    attempted = sum(r["attempted"] for r in results) + len(errors)
    failed = sum(r["failed"] for r in results) + len(errors)
    problems = errors + [p for r in results for p in r["problems"]]
    attempted = max(attempted, 1)

    e2e, per_layer, report_extra = {}, {}, {}
    if main_res is not None:
        e2e["setup_s"] = (statistics.median(setups), "s")
        if args.trace:
            per_layer = {k: (main_res["layers"][k], u) for k, u in metric_units().items()}
            report_extra = {"shares": main_res["shares"], "passes": main_res["passes"]}
            (runs / f"{workdir.name}.spans.json").write_text(json.dumps(main_res["spans"]))
        else:
            e2e["run_s"] = (main_res["run_s"], "s")
            for key, unit in (("diagrams_s", "s"), ("train_s", "s"), ("accuracy", "fraction")):
                if key in main_res["extras"]:
                    e2e[key] = (main_res["extras"][key], unit)
            e2e["peak_rss_mb"] = (main_res["peak_rss_mb"], "MB")
            report_extra = {"run_s_samples": main_res["samples"]}
    e2e["fail_rate"] = (failed / attempted, "fraction")
    e2e["success_rate"] = (1.0 - failed / attempted, "fraction")

    correct = failed == 0 and main_res is not None
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "variants": main_res["variants"] if main_res else None,
        "setup_s_samples": setups,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        **report_extra,
        "problems": problems,
    }
    for name, (value, unit) in {**e2e, **per_layer}.items():
        print(f"{args.workload:>14}  {name:<36} {value:>14.6g} {unit}")
    print(json.dumps(report))
    (runs / f"{workdir.name}.json").write_text(json.dumps(report, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)

    gated = per_layer if args.trace else {k: e2e[k] for k in GATED if k in e2e}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
