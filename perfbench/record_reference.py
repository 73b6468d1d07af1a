"""Record the output fingerprints that benchmark runs are checked against.

  python3 perfbench/record_reference.py [--workload NAME ...]

Runs the setup and iteration calls of every variant once, checks bottleneck
values independently, and stores each call's fingerprint in reference.json.
The file pins the outputs of the commit that recorded it: re-record only in
a change that is meant to alter program outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from worker import HERE, call_cli  # worker puts the checkout's src/ on sys.path
from workloads import N_VARIANTS, WORKLOADS


def record(cli, wl, ctx, v) -> dict:
    entry = {}
    for key, ops in (("setup", wl.setup_ops(ctx, v)), ("ops", wl.ops(ctx, v))):
        prints = []
        for op in ops:
            out = call_cli(cli, op.argv, cap=600.0)
            if op.verify is not None and not op.verify(out):
                raise SystemExit(f"variant {v}: independent check failed for {op.argv}")
            prints.append(op.fingerprint(out))
        entry[key] = prints
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    from measureboost import cli

    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        ctx = HERE.parent / ".perfbench_runs" / f"record-{name}"
        shutil.rmtree(ctx, ignore_errors=True)
        ctx.mkdir(parents=True)
        wl.write_configs(ctx)
        reference[name] = {str(v): record(cli, wl, ctx, v) for v in range(N_VARIANTS)}
        shutil.rmtree(ctx)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {N_VARIANTS} variants recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
