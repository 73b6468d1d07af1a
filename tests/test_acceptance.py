"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `CRITERION <n> ... PASS|FAIL` line before its
assertion so the suite output doubles as a scoreboard.  These run the full
recipes and take a few minutes; `-k "not acceptance"` skips them during
development.

Criterion 8 checks the limit-measure trend in two halves.  In degree 0
both the rescaled count and its Monte-Carlo limit are identically zero
(all degree-0 births sit at 0, below any admissible rectangle, and the
degree-0 Betti indicator is monotone in the scale, so the integrand
cancels exactly); that half asserts the exact zeros on both geometries.
The other half runs the square in degree 1 on rectangles inside the
sparse range and asserts that the mean gap between count and limit
shrinks strictly from n = 200 to n = 2000.
"""

import hashlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from measureboost.limits import Rectangle, mu_k_montecarlo, r_n_schedule, xi_count
from measureboost.ph import cech_filtration, persistence
from measureboost.ph.bottleneck import bottleneck, bottleneck_bruteforce
from measureboost.ph.diagrams import PersistenceDiagram
from measureboost.ph.persistence import betti_oracle
from measureboost.recipes import run_experiment

from membership import persistent_betti


def report(n, ok, detail):
    line = f"\nCRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # also bypass pytest's capture
        print(line, file=sys.__stdout__)
    return ok


def test_criterion_1_ppp_vs_gpp(tmp_path):
    t0 = time.perf_counter()
    accs = []
    for seed in range(5):
        rep, _ = run_experiment(
            "ppp-vs-gpp",
            overrides={("seeds", "base"): seed, ("output", "dir"): str(tmp_path / f"s{seed}")},
            workers=4,
        )
        accs.append(rep.accuracy)
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(accs))
    ok = mean >= 0.90 and elapsed <= 600
    assert report(
        1, ok, f"point-process recipe mean accuracy {mean:.3f} over 5 seeds "
        f"(each {np.round(accs, 3).tolist()}), {elapsed:.0f}s"
    )


def test_criterion_2_torus_vs_sphere(tmp_path):
    t0 = time.perf_counter()
    rep, _ = run_experiment(
        "torus-vs-sphere",
        overrides={("output", "dir"): str(tmp_path)},
        workers=4,
    )
    elapsed = time.perf_counter() - t0
    ok = rep.accuracy >= 0.95 and elapsed <= 900
    assert report(
        2, ok, f"torus-vs-sphere accuracy {rep.accuracy:.3f}, {elapsed:.0f}s"
    )


def test_criterion_3_boosting_beats_single_weak(tmp_path):
    # randomized-size variant at a reduced cloud budget (the comparison is a
    # property of the method, not of the cloud size)
    ens_accs, weak_accs = [], []
    for seed in range(5):
        rep, weak = run_experiment(
            "torus-vs-sphere",
            overrides={
                ("data", "randomized_size"): True,
                ("data", "n_train"): 60,
                ("data", "n_test"): 60,
                ("data", "n_points"): 250,
                ("seeds", "base"): seed,
                ("output", "dir"): str(tmp_path / f"s{seed}"),
            },
            workers=4,
        )
        ens_accs.append(rep.accuracy)
        weak_accs.append(weak)
    mean_ens, mean_weak = float(np.mean(ens_accs)), float(np.mean(weak_accs))
    ok = mean_ens >= mean_weak - 1e-12
    assert report(
        3, ok, f"randomized-size task: ensemble {mean_ens:.3f} vs single weak "
        f"{mean_weak:.3f} over 5 seeds"
    )


def test_criterion_4_orbit_reduced(tmp_path):
    rep = run_experiment(
        "orbit-5class-reduced",
        overrides={("output", "dir"): str(tmp_path)},
        workers=4,
    )
    ok = rep.accuracy >= 0.65
    assert report(4, ok, f"5-class orbit proxy accuracy {rep.accuracy:.3f}")


def test_criterion_5_persistence_oracle_equivalence():
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        d = int(rng.choice([2, 3]))
        pts = rng.uniform(0, 1, size=(n, d))
        fc = cech_filtration(pts, max_dim=min(d + 1, 3), max_value=np.inf)
        dgms = persistence(fc, include_zero_length=True)
        for dg in dgms:
            for r in np.linspace(0.05, 1.3, 6):
                if persistent_betti(dg, r) != betti_oracle(fc, r, dg.dim):
                    mismatches += 1
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    d1 = next(
        d for d in persistence(cech_filtration(tri, 2, np.inf)) if d.dim == 1
    )
    golden = (
        abs(d1.pairs[0, 0] - 0.5) <= 1e-9
        and abs(d1.pairs[0, 1] - 1 / np.sqrt(3)) <= 1e-9
    )
    ok = mismatches == 0 and golden
    assert report(
        5, ok, f"diagram/Betti-oracle mismatches {mismatches}/200 clouds, "
        f"triangle golden values {'match' if golden else 'differ'}"
    )


def test_criterion_6_bottleneck_matches_bruteforce():
    rng = np.random.default_rng(1)
    worst = 0.0
    inf_disagreements = 0
    for _ in range(200):
        dgs = []
        for _ in range(2):
            m = int(rng.integers(0, 6))
            b = rng.uniform(0, 1, size=m)
            dth = b + rng.uniform(0, 1, size=m)
            dth[rng.uniform(size=m) < 0.1] = np.inf
            dgs.append(PersistenceDiagram(1, np.column_stack([b, dth]).reshape(-1, 2)))
        fast, slow = bottleneck(*dgs), bottleneck_bruteforce(*dgs)
        if np.isinf(slow) or np.isinf(fast):
            inf_disagreements += int(np.isinf(slow) != np.isinf(fast))
        else:
            worst = max(worst, abs(fast - slow))
    ok = worst <= 1e-12 and inf_disagreements == 0
    assert report(
        6, ok, f"bottleneck vs brute force: worst gap {worst:.2e}, "
        f"{inf_disagreements} infinite-case disagreements over 200 pairs"
    )


def test_criterion_7_rademacher_rate(tmp_path):
    t0 = time.perf_counter()
    rows = run_experiment(
        "rademacher-scaling", overrides={("output", "dir"): str(tmp_path)}
    )
    elapsed = time.perf_counter() - t0
    ns = np.array([r[0] for r in rows], dtype=float)
    ests = np.array([r[1] for r in rows])
    slope = float(np.polyfit(np.log(ns), np.log(ests), 1)[0])
    ok = -0.65 <= slope <= -0.35 and elapsed <= 300
    assert report(7, ok, f"complexity log-log slope {slope:.3f}, {elapsed:.0f}s")


# degree-1 rectangles with v <= 1, inside the sparse range where 3-point
# cycles dominate (the recipe defaults reach v = 2.5, beyond it)
DEGREE_1_RECTANGLES = {
    "r1": (0.05, 0.7, 0.7, 0.85),
    "r2": (0.05, 0.8, 0.8, 1.0),
    "r3": (0.3, 0.7, 0.7, 1.0),
}


def test_criterion_8_limit_measure_trend(tmp_path):
    failures = []
    # degree 0, recipe defaults: every birth is 0, below s, and the
    # Monte-Carlo integrand cancels, so the count and its limit are exactly 0
    for setup in ("circle", "square"):
        rows = run_experiment(
            "limit-check",
            overrides={
                ("setup", "name"): setup,
                ("output", "dir"): str(tmp_path / setup),
            },
        )
        nonzero = [row for row in rows if any(x != 0.0 for x in row[5:8])]
        if nonzero:
            failures.append(f"{setup}/k=0: {len(nonzero)} rows with non-zero xi or mu")
    # degree 1 on the square: the rescaled count approaches the limit as n
    # grows; n_mc = 20000 because 2000 samples leave the limit within 3
    # standard errors of 0 on these rectangles
    rows = run_experiment(
        "limit-check",
        overrides={
            ("setup", "name"): "square",
            ("setup", "k"): 1,
            ("data", "n_mc"): 20000,
            **{("rectangles", name): r for name, r in DEGREE_1_RECTANGLES.items()},
            ("output", "dir"): str(tmp_path / "square-k1"),
        },
    )
    gaps, limits = {}, {}
    for _, n, _, rect, _, xi, mu, se in rows:
        gaps.setdefault((rect, n), []).append(abs(xi - mu))
        limits[rect] = (mu, se)
    trend = []
    for rect in sorted(DEGREE_1_RECTANGLES):
        # the trend means something only where the limit is resolved from 0
        mu, se = limits[rect]
        if not mu > 3 * se:
            failures.append(f"square/k=1/{rect}: limit {mu:.3g} within 3 stderr ({se:.3g}) of 0")
        g200 = float(np.mean(gaps[(rect, 200)]))
        g2000 = float(np.mean(gaps[(rect, 2000)]))
        trend.append(f"{rect} {g200:.3g}->{g2000:.3g}")
        if not g2000 < g200:
            failures.append(f"square/k=1/{rect}: {g2000:.3g} !< {g200:.3g}")
    ok = not failures
    assert report(
        8, ok,
        f"degree 0 identically zero; degree-1 gap shrinks strictly ({', '.join(trend)})"
        if ok
        else f"failed: {failures}",
    )


def test_supplementary_limit_trend_degree_1():
    # non-acceptance companion to criterion 8: in degree 1 the estimators are
    # not degenerate, and the empirical count approaches the Monte-Carlo
    # limit as n grows
    k, d = 1, 2
    rect = Rectangle(0.05, 0.7, 0.7, 0.85)
    mu, _ = mu_k_montecarlo(1.0, k, d, rect, n_mc=20000, seed=0)
    assert mu > 0
    gaps = {}
    for n in (200, 2000):
        r_n = r_n_schedule(n, k, d)
        vals = []
        for s in range(10):
            rng = np.random.default_rng(7919 * s + n)
            pts = rng.uniform(0, 1, size=(n, 2))
            margin = 3 * r_n * rect.v
            pts = pts[np.all((pts >= margin) & (pts <= 1 - margin), axis=1)]
            fc = cech_filtration(pts / r_n, max_dim=2, max_value=rect.v)
            dgms = persistence(fc)
            dg = next(
                (x for x in dgms if x.dim == k), PersistenceDiagram(k, np.zeros((0, 2)))
            )
            vals.append(abs(xi_count(dg, rect, n, r_n, k, d) - mu))
        gaps[n] = float(np.mean(vals))
    assert gaps[2000] < gaps[200]


def _hash_outputs(outdir):
    digests = {}
    for p in sorted(Path(outdir).rglob("*")):
        if p.is_file() and p.name != "timings.json":  # wall clock, excluded
            digests[str(p.relative_to(outdir))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


SMALL_CONFIGS = {
    "ppp-vs-gpp": {("data", "n_train"): 20, ("data", "n_test"): 10},
    "torus-vs-sphere": {
        ("data", "n_train"): 8,
        ("data", "n_test"): 8,
        ("data", "n_points"): 60,
    },
    "orbit-5class-reduced": {
        ("data", "n_train_per_class"): 4,
        ("data", "n_test_per_class"): 2,
        ("data", "orbit_length"): 80,
    },
    "graph-hks-demo": {("data", "n_train"): 10, ("data", "n_test"): 6},
    "limit-check": {
        ("data", "sizes"): (50, 100),
        ("data", "n_seeds"): 2,
        ("data", "n_mc"): 100,
    },
    "rademacher-scaling": {("data", "sizes"): (20, 40), ("data", "n_draws"): 40},
}


def test_criterion_9_determinism(tmp_path):
    unstable = []
    for name, overrides in SMALL_CONFIGS.items():
        hashes = []
        for run in range(2):
            outdir = tmp_path / f"{name}-{run}"
            run_experiment(
                name,
                overrides={**overrides, ("output", "dir"): str(outdir)},
                workers=1,
            )
            hashes.append(_hash_outputs(outdir))
        if hashes[0] != hashes[1] or not hashes[0]:
            unstable.append(name)
    ok = not unstable
    assert report(
        9, ok,
        "all recipes bit-identical across two single-worker runs"
        if ok
        else f"outputs differ between runs for {unstable}",
    )
