"""One benchmark process: set up a workload, run it for the given time and
check every output.  run.py starts it in a fresh interpreter and reads the
result file it writes.

  python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
      --workdir DIR --result FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, variants_for  # noqa: E402

OP_CAP_S = 60.0  # a call running longer than this is stopped and counted as failed
MAX_PROBLEMS = 20


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"call exceeded {OP_CAP_S:.0f} s")


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(what)


def call_cli(cli, argv, cap=None) -> str:
    """Run `measureboost <argv>` in this process; returns what it printed."""
    cap = OP_CAP_S if cap is None else cap
    buf = io.StringIO()
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return buf.getvalue()


def run_ops(cli, ops, tally, reference, tracer=None):
    """Run a list of ops, then check each; returns (seconds in calls, extras).

    Only the calls are timed; a traced pass wraps them in one root span.
    """
    outputs = []
    restore = spans.install(tracer, layers.TARGETS) if tracer else None
    root = tracer.open(layers.ROOT_SPAN) if tracer else None
    t0 = time.perf_counter()
    try:
        for op in ops:
            try:
                outputs.append((call_cli(cli, op.argv), None))
            except Exception as exc:  # a failing call is a result, not the end of the run
                outputs.append((None, f"{' '.join(op.argv[:2])}: {exc!r}"))
                traceback.print_exc(file=sys.stderr)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
            restore()
    extras = {}
    for i, (op, (out, error)) in enumerate(zip(ops, outputs)):
        what = f"{' '.join(op.argv[:2])} (call {i})"
        if error is not None:
            tally.record(False, error)
            continue
        try:
            ok = op.fingerprint(out) == reference[i]
            if not ok:
                what += ": output differs from the reference"
            elif op.verify is not None and not op.verify(out):
                ok, what = False, what + ": independent check failed"
            if ok and op.extras is not None:
                extras.update(op.extras())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, what = False, f"{what}: {exc!r}"
        tally.record(ok, what)
    return elapsed, extras


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import measureboost
    from measureboost import cli

    if Path(measureboost.__file__).resolve().parent != SRC / "measureboost":
        print(f"measureboost imported from {measureboost.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    ctx = Path(args.workdir)
    ctx.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    variants = variants_for(args.seed, wl.per_run)
    wl.write_configs(ctx)
    for v in variants:
        run_ops(cli, wl.setup_ops(ctx, v), tally, reference[str(v)]["setup"])
    t_ready = time.perf_counter()
    result = {"t_ready": t_ready, "variants": variants}
    if not args.setup_only:
        loop = traced_loop if args.trace else untraced_loop
        result.update(loop(cli, wl, ctx, variants, reference, tally, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    Path(args.result).write_text(json.dumps(result))
    return 0


def mean_of_medians(samples: dict) -> float:
    """Mean over variants of each variant's median: machine noise is damped by
    the median, and every variant weighs the same however often it ran."""
    return statistics.fmean(statistics.median(xs) for xs in samples.values())


def untraced_loop(cli, wl, ctx, variants, reference, tally, seconds):
    """Cycle over the variants, each at least once, until the next iteration
    would overrun `seconds`."""
    samples = {v: [] for v in variants}
    extras = {v: {} for v in variants}
    n = 0
    start = time.perf_counter()
    while True:
        v = variants[n % len(variants)]
        dt, ex = run_ops(cli, wl.ops(ctx, v), tally, reference[str(v)]["ops"])
        samples[v].append(dt)
        for key, val in ex.items():
            extras[v].setdefault(key, []).append(val)
        n += 1
        elapsed = time.perf_counter() - start
        if n >= len(variants) and elapsed * (1 + 1 / n) > seconds:
            break
    keys = set(extras[variants[0]]).intersection(*extras.values())
    return {
        "run_s": mean_of_medians(samples),
        "extras": {k: mean_of_medians({v: extras[v][k] for v in variants}) for k in sorted(keys)},
        "samples": {str(v): xs for v, xs in samples.items()},
    }


def traced_loop(cli, wl, ctx, variants, reference, tally, seconds):
    """Passes of one untraced iteration on the first variant, then every
    variant traced once; the overhead is traced over untraced time on the
    first variant.

    Counts must repeat exactly from pass to pass; a pass whose counts differ
    from the first counts as a failed operation.
    """
    tracer = spans.Tracer()
    ratios, first_counts, passes = [], None, 0
    first = variants[0]
    start = time.perf_counter()
    while True:
        before = dict(tracer.counts)
        plain, _ = run_ops(cli, wl.ops(ctx, first), tally, reference[str(first)]["ops"])
        for v in variants:
            traced, _ = run_ops(cli, wl.ops(ctx, v), tally, reference[str(v)]["ops"], tracer)
            if v == first:
                ratios.append(traced / plain)
        passes += 1
        counts = {k: n - before.get(k, 0) for k, n in tracer.counts.items()}
        if first_counts is None:
            first_counts = counts
        else:
            tally.record(counts == first_counts, f"counts of pass {passes} differ from pass 1")
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / passes) > seconds:
            break
    values = layers.per_layer(tracer.spans, tracer.counts, passes, statistics.median(ratios))
    return {
        "layers": values,
        "shares": layers.shares(values),
        "passes": passes,
        "spans": [[sp.name, sp.start, sp.end, sp.parent] for sp in tracer.spans],
    }


if __name__ == "__main__":
    sys.exit(main())
