"""Benchmark workloads: the configs and inputs each variant generates, the
CLI calls one iteration makes, and what each call's output must match.

Every program call goes through `measureboost.cli.main`.  A workload has
N_VARIANTS input variants (variant v runs with program seed v); a run draws
`per_run` of them from its seed, and the reference file holds a fingerprint of
every call's output for every variant.  Sizes are cut down from the recipe
defaults so that one iteration takes a few seconds on two cores, and a
workload whose cost varies more between inputs draws more variants per run;
RATIONALE.md gives the reasons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import bottleneck_ok, digest_dir, digest_files, read_diagram

N_VARIANTS = 32


def variants_for(seed: int, per_run: int) -> list[int]:
    """The variants a run with this seed uses, spread over the variant range."""
    step = N_VARIANTS // per_run
    return [(seed + i * step) % N_VARIANTS for i in range(per_run)]


@dataclass
class Op:
    """One CLI call and how to judge what it produced.

    fingerprint(stdout) must equal the recorded reference; verify(stdout),
    when given, is an independent check; extras() reads phase timings and
    accuracy from the files the call wrote.
    """

    argv: list
    fingerprint: Callable[[str], str]
    verify: Callable[[str], bool] | None = None
    extras: Callable[[], dict] | None = None


class Workload:
    name = ""
    per_run = 2  # variants per run
    configs: dict = {}  # config file name -> INI text

    def write_configs(self, ctx: Path) -> None:
        for fname, text in self.configs.items():
            (ctx / fname).write_text(text)

    def setup_ops(self, ctx: Path, v: int) -> list:
        """Calls that prepare variant v's inputs; they run before timing starts."""
        return []

    def ops(self, ctx: Path, v: int) -> list:
        """Calls that make up one timed iteration on variant v."""
        raise NotImplementedError


def _recipe_extras(out: Path) -> dict:
    timings = json.loads((out / "timings.json").read_text())
    metrics = json.loads((out / "metrics.json").read_text())
    return {"diagrams_s": timings["diagrams"], "train_s": timings["train"], "accuracy": metrics["accuracy"]}


class Recipe(Workload):
    def __init__(self, name, recipe, config, per_run):
        self.name, self.recipe, self.per_run = name, recipe, per_run
        self.configs = {f"{name}.ini": config}

    def ops(self, ctx, v):
        out = ctx / f"{self.name}-v{v}"
        argv = ["recipe", self.recipe, "--config", str(ctx / f"{self.name}.ini"),
                "--outdir", str(out), "--seed", str(v), "--workers", "1"]
        return [Op(argv, lambda _out: digest_dir(out), extras=lambda: _recipe_extras(out))]


class Limits(Workload):
    """limit-check in degree 0, limit-check in degree 1, rademacher-scaling."""

    name = "limits"
    # (command, tag, config, program seed or None for the variant's own)
    runs = (
        ("limit-check", "limit-check-k0", "[data]\nn_seeds = 2\nn_mc = 500\n", None),
        # sizes (200,): the default 2000 does not finish in degree 1, where the
        # Cech build enumerates every 4-point subset.  The cloud is the same in
        # every run: its cost grows as the fourth power of the points left
        # after trimming, so it varies about 50% from one cloud to the next.
        ("limit-check", "limit-check-k1", "[setup]\nk = 1\n\n[data]\nsizes = 200\nn_seeds = 1\nn_mc = 100\n", 0),
        ("rademacher", "rademacher", "[data]\nsizes = 50 100 200\nn_draws = 100\n", None),
    )
    configs = {f"{tag}.ini": text for _cmd, tag, text, _seed in runs}

    def ops(self, ctx, v):
        ops = []
        for cmd, tag, _text, seed in self.runs:
            out = ctx / f"{tag}-v{v}"
            seed = v if seed is None else seed
            argv = [cmd, "--config", str(ctx / f"{tag}.ini"), "--outdir", str(out), "--seed", str(seed), "--workers", "1"]
            ops.append(Op(argv, lambda _out, out=out: digest_dir(out)))
        return ops


class Bottleneck(Workload):
    """H0 and H1 bottleneck distances of a near pair (two tori) and a far
    pair (torus, sphere); the diagrams are computed in setup."""

    name = "bottleneck"
    per_run = 4  # the matcher's time varies about 20% between variants
    n_points = 100
    max_value = 3.5  # high enough that no H1 class of these clouds is essential
    clouds = (("a", "torus", 10_000), ("b", "torus", 20_000), ("c", "sphere", 30_000))

    def _paths(self, ctx, v, tag):
        return ctx / f"{tag}-v{v}.jsonl", ctx / f"{tag}-v{v}-dgm.jsonl"

    def setup_ops(self, ctx, v):
        ops = []
        for tag, kind, seed_base in self.clouds:
            pts, dgm = self._paths(ctx, v, tag)
            gen = ["gen", "--generator", kind, "--out", str(pts), "--n-points", str(self.n_points),
                   "--seed", str(seed_base + v)]
            if kind == "sphere":
                gen += ["--radius", "6.0"]
            ph = ["ph", "--input", str(pts), "--output", str(dgm), "--max-dim", "2",
                  "--max-value", str(self.max_value)]
            ops.append(Op(gen, lambda _out, p=pts: digest_files([p])))
            ops.append(Op(ph, lambda _out, p=dgm: digest_files([p])))
        return ops

    def ops(self, ctx, v):
        a = self._paths(ctx, v, "a")[1]
        ops = []
        for dim in (0, 1):
            for tag in ("b", "c"):
                other = self._paths(ctx, v, tag)[1]
                argv = ["bottleneck", str(a), str(other), "--dim", str(dim)]
                ops.append(Op(
                    argv,
                    fingerprint=lambda out: out.strip(),
                    verify=lambda out, other=other, dim=dim: bottleneck_ok(
                        read_diagram(a, dim), read_diagram(other, dim), float(out)
                    ),
                ))
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        Recipe("torus-sphere", "torus-vs-sphere", "[data]\nn_train = 2\nn_test = 2\n", per_run=2),
        # k-means convergence makes a variant's train time vary about 12%
        Recipe("orbit-5class", "orbit-5class-reduced", "[data]\nn_train_per_class = 2\nn_test_per_class = 1\n", per_run=3),
        Limits(),
        Bottleneck(),
    )
}
