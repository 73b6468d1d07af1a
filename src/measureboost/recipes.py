"""End-to-end experiment recipes: generate data, compute diagrams, train a
boosted region classifier, evaluate, and write all artifacts to disk.

Every recipe is a pure function of its config (all seeds explicit), so
fixed-seed single-worker runs produce bit-identical output files.  Wall
clock timings go to a separate timings.json that is excluded from the
reproducibility guarantee.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from configparser import ConfigParser

import numpy as np

from . import datagen
from .boosting import (
    Ensemble,
    OneVsOneModel,
    adaboost_fit,
    ensemble_predict,
    one_vs_one_fit,
    one_vs_one_predict,
    staged_training_error,
)
from .graphs import Graph, graph_hks, graph_sublevel_diagrams
from .limits import Rectangle, feature_matrix, mu_k_montecarlo, r_n_schedule, rademacher_estimate, xi_count
from .measures import LabeledDataset, Measure, mass_matrix
from .metrics import evaluate
from .ph import cech_filtration, persistence
from .ph.diagrams import PersistenceDiagram, diagram_to_measure, save_diagrams_jsonl
from .regions import AxisRect, Ball
from .weak import GridSpec, exhaustive_search, kmeans_centers

__all__ = ["RunConfig", "run_experiment", "emit_rectangle_trace", "RECIPES"]


# ---------------------------------------------------------------------------
# run configuration


class RunConfig:
    """Sectioned key/value run configuration with strict key validation.

    Built from a recipe's defaults; an INI file may override values but may
    not introduce sections or keys the recipe does not declare.
    """

    def __init__(self, defaults: dict):
        self.sections = {s: dict(kv) for s, kv in defaults.items()}

    def override_from_file(self, path) -> "RunConfig":
        cp = ConfigParser()
        with open(path) as fh:
            cp.read_file(fh)
        for sec in cp.sections():
            if sec not in self.sections:
                raise KeyError(f"unknown config section [{sec}]")
            for key, raw in cp.items(sec):
                if key not in self.sections[sec]:
                    raise KeyError(f"unknown config key [{sec}] {key}")
                default = self.sections[sec][key]
                self.sections[sec][key] = _parse_like(raw, default)
        return self

    def __getitem__(self, section):
        return self.sections[section]


def _parse_like(raw: str, default):
    """Parse a raw string with the type of the default value."""
    if isinstance(default, bool):
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, (tuple, list)):
        items = [x for x in raw.replace(",", " ").split() if x]
        elem = default[0] if len(default) else 0.0
        return tuple(type(elem)(x) for x in items)
    return raw


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _map(fn, jobs, workers):
    """[fn(job) for job in jobs], across a process pool when workers > 1;
    results keep input order, so worker count does not change the output."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, jobs, chunksize=4))
    return [fn(j) for j in jobs]


def _cloud_diagrams(args):
    pts, max_dim, max_value = args
    fc = cech_filtration(np.asarray(pts), max_dim=max_dim, max_value=max_value)
    return persistence(fc)


def compute_diagrams(clouds, max_dim, max_value, workers=1):
    """Čech diagrams per cloud, optionally across a process pool."""
    return _map(_cloud_diagrams, [(np.asarray(c), max_dim, max_value) for c in clouds], workers)


def _graph_diagrams(args):
    g, hks_time = args
    return graph_sublevel_diagrams(g, graph_hks(g, hks_time))


def diagrams_to_feature_measure(dgms, dims, truncation, scale=1.0, gap=1.0, raw=None) -> Measure:
    """Rotated diagram points of the selected dims, times `scale`, as one measure.

    With several channels (several dims, or the point cloud `raw` next to
    the diagrams) each rides on its own plane of a trailing tag coordinate,
    so regions can tell them apart: dim * gap for a diagram; the raw cloud
    comes first, on the plane above the highest selected dim but never
    below 2 * gap.
    """
    tag = len(dims) > 1 or raw is not None
    raw_tag = max(2, max(dims, default=0) + 1) * gap
    feats = [] if raw is None else [np.column_stack([raw, np.full(len(raw), float(raw_tag))])]
    for dg in dgms:
        if dg.dim not in dims:
            continue
        m = diagram_to_measure(dg, truncation=truncation, rotate=True)
        if len(m) == 0:
            continue
        pts = m.points * scale
        if tag:
            pts = np.column_stack([pts, np.full(len(pts), float(dg.dim) * gap)])
        feats.append(pts)
    d = 3 if tag else 2
    return Measure(np.vstack(feats) if feats else np.zeros((0, d)))


def build_ball_grid(train: LabeledDataset, n_centers, radius_quantiles, seed) -> GridSpec:
    """Candidate balls: k-means centers of the pooled training support,
    radii at fixed quantiles of the center-to-point distances."""
    allpts = np.vstack([m.points for m in train.measures if len(m)])
    sub = allpts[:: max(1, len(allpts) // 20000)]  # cap the clustering input
    centers = kmeans_centers(sub, min(n_centers, len(sub)), seed=seed)
    dsub = allpts[:: max(1, len(allpts) // 4000)]
    d = np.linalg.norm(dsub[None, :, :] - np.asarray(centers)[:, None, :], axis=2)
    radii = np.unique(np.quantile(d, radius_quantiles))
    radii = radii[radii > 0]
    return GridSpec.balls(centers, radii)


def make_cached_learner(grid: GridSpec, train: LabeledDataset):
    """Exhaustive-search learner over train's one mass matrix on the grid: a
    dataset of train's own Measure objects (a one-vs-one pair, a subsample)
    gets its columns; any other measure raises ValueError."""
    masses = mass_matrix(train.measures, grid.regions)
    index = {id(mu): i for i, mu in enumerate(train.measures)}  # valid while train lives

    def learner(data, w, rng):
        cols = [index.get(id(mu), -1) for mu in data.measures]
        if any(i < 0 or train.measures[i] is not mu for i, mu in zip(cols, data.measures)):
            raise ValueError("the learner got a measure that is not in its training set")
        return exhaustive_search(data, grid, w, masses=masses[:, cols])

    return learner


def fit_classifier(train: LabeledDataset, n_centers, radius_quantiles, rounds, seed):
    """Boosted ball-mass classifier: one AdaBoost ensemble for two classes,
    one-vs-one ensembles for more."""
    grid = build_ball_grid(train, n_centers, radius_quantiles, seed + 7)
    learner = make_cached_learner(grid, train)
    if len(train.label_set) > 2:
        return one_vs_one_fit(train, rounds, learner, seed=seed + 11)
    return adaboost_fit(train, rounds, learner, seed=seed + 11)


def classifier_predict(model, mu: Measure) -> int:
    """Label predicted by a `fit_classifier` model of either kind."""
    if isinstance(model, OneVsOneModel):
        return one_vs_one_predict(model, mu)
    return ensemble_predict(model, mu)


def emit_rectangle_trace(ensemble, path) -> None:
    """One CSV row per boosting stage with its region geometry."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["stage", "alpha", "sign", "kind", "center", "radius", "mins", "maxs", "threshold"])
        for i, (h, alpha) in enumerate(ensemble.stages):
            A = h.region
            if isinstance(A, Ball):
                row = [i, repr(alpha), h.sign, "ball", json.dumps(A.center.tolist()), repr(A.radius), "", "", repr(h.threshold)]
            elif isinstance(A, AxisRect):
                row = [i, repr(alpha), h.sign, "rect", "", "", json.dumps(A.mins.tolist()), json.dumps(A.maxs.tolist()), repr(h.threshold)]
            else:
                row = [i, repr(alpha), h.sign, type(A).__name__, "", "", "", "", repr(h.threshold)]
            wr.writerow(row)


def _save_cloud_diagrams(per_cloud, labels, path):
    flat, metas = [], []
    for i, (dgms, lab) in enumerate(zip(per_cloud, labels)):
        for dg in dgms:
            flat.append(dg)
            metas.append({"cloud": i, "label": int(lab)})
    save_diagrams_jsonl(flat, path, metas)


def _classify(cfg, n_classes, n_train, n_test, generate, workers, diagrams=None, featurize=None):
    """generate -> diagrams -> features -> boost -> evaluate, shared by every
    classification recipe.

    generate(class_id, index, seed) makes one item; per class the first
    n_train items train and the next n_test test.  diagrams(items, workers)
    gives each item's diagrams, by default the Čech diagrams of
    cfg["filtration"]; featurize(item, diagrams) gives its feature measure,
    by default that section's dims and truncation.  Returns the report,
    plus for two classes the accuracy of the first weak classifier alone.
    """
    outdir = cfg["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    seed = cfg["seeds"]["base"]
    flt = cfg["filtration"]
    if diagrams is None:
        diagrams = lambda clouds, w: compute_diagrams(clouds, flt["max_dim"], flt["max_value"], w)
    if featurize is None:
        featurize = lambda _, dgms: diagrams_to_feature_measure(dgms, tuple(flt["dims"]), flt["truncation"])
    per = n_train + n_test
    timings = {}

    t0 = time.perf_counter()
    items = [generate(c, j, seed + 100003 * c + 13 * j) for c in range(n_classes) for j in range(per)]
    labels = np.repeat(np.arange(n_classes), per)
    timings["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    per_item = diagrams(items, workers)
    timings["diagrams"] = time.perf_counter() - t0

    meas = [featurize(x, dgms) for x, dgms in zip(items, per_item)]
    splits = {
        "train": [c * per + j for c in range(n_classes) for j in range(n_train)],
        "test": [c * per + n_train + j for c in range(n_classes) for j in range(n_test)],
    }
    for name, idx in splits.items():
        _save_cloud_diagrams([per_item[i] for i in idx], labels[idx], f"{outdir}/{name}_diagrams.jsonl")
    train, test = (LabeledDataset(tuple(meas[i] for i in idx), labels[idx]) for idx in splits.values())

    t0 = time.perf_counter()
    lrn = cfg["learner"]
    model = fit_classifier(train, lrn["n_centers"], lrn["radius_quantiles"], cfg["boosting"]["rounds"], seed)
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    preds = [classifier_predict(model, m) for m in test.measures]
    binary = isinstance(model, Ensemble)
    if binary:
        h0 = model.stages[0][0]
        weak_preds = np.array(model.labels)[h0.predict_masses(mass_matrix(test.measures, (h0.region,))[0])]
        weak_acc = float(np.mean(weak_preds == test.labels))
    timings["evaluate"] = time.perf_counter() - t0

    report = evaluate(
        test.labels,
        preds,
        labels=tuple(range(n_classes)),
        staged_errors=staged_training_error(model, train) if binary else (),
        timings=timings,
    )
    with open(f"{outdir}/model.json", "w") as fh:
        json.dump(model.to_json(), fh, indent=2)
    emit_rectangle_trace(model if binary else model.models[min(model.models)], f"{outdir}/rectangles.csv")
    obj = report.to_json()
    obj.pop("timings")
    if binary:
        obj["weak_accuracy"] = weak_acc
    with open(f"{outdir}/metrics.json", "w") as fh:
        json.dump(obj, fh, indent=2)
    with open(f"{outdir}/timings.json", "w") as fh:
        json.dump(timings, fh, indent=2)
    return (report, weak_acc) if binary else report


# ---------------------------------------------------------------------------
# recipes


def ppp_vs_gpp_defaults():
    return {
        "data": {"n_train": 400, "n_test": 200, "mean_count": 30, "radius": 1.0},
        "filtration": {"max_dim": 2, "max_value": 2.0, "dims": (0, 1), "truncation": 2.0},
        "learner": {"n_centers": 25, "radius_quantiles": (0.05, 0.15, 0.3, 0.5)},
        "boosting": {"rounds": 15},
        "seeds": {"base": 0},
        "output": {"dir": "out/ppp-vs-gpp"},
    }


def run_ppp_vs_gpp(cfg: RunConfig, workers=1):
    d = cfg["data"]

    def gen(c, j, s):
        if c == 0:
            return datagen.sample_ppp_disk(d["mean_count"], d["radius"], s)
        return datagen.sample_ginibre(d["mean_count"], s, d["radius"])

    return _classify(cfg, 2, d["n_train"] // 2, d["n_test"] // 2, gen, workers)


def torus_vs_sphere_defaults():
    return {
        "data": {
            "n_train": 100,
            "n_test": 100,
            "n_points": 500,
            "outer_radius": 4.0,
            "inner_radius": 2.0,
            "sphere_radius": 6.0,
            "noise": 0.0,
            "randomized_size": False,
        },
        "filtration": {"max_dim": 2, "max_value": 1.5, "dims": (1,), "truncation": 1.5},
        "learner": {"n_centers": 15, "radius_quantiles": (0.05, 0.15, 0.3)},
        "boosting": {"rounds": 15},
        "seeds": {"base": 0},
        "output": {"dir": "out/torus-vs-sphere"},
    }


def run_torus_vs_sphere(cfg: RunConfig, workers=1):
    d = cfg["data"]

    def gen(c, j, s):
        rng = np.random.default_rng(s + 55609)
        if c == 0:
            if d["randomized_size"]:
                outer = rng.uniform(3.0, 5.0)
                inner = outer / 2.0
            else:
                outer, inner = d["outer_radius"], d["inner_radius"]
            pts = datagen.sample_torus(d["n_points"], outer, inner, s)
        else:
            radius = rng.uniform(4.0, 7.0) if d["randomized_size"] else d["sphere_radius"]
            pts = datagen.sample_sphere(d["n_points"], radius, s)
        if d["noise"] > 0:
            pts = datagen.add_gaussian_noise(pts, d["noise"], s + 1)
        return pts

    return _classify(cfg, 2, d["n_train"] // 2, d["n_test"] // 2, gen, workers)


def _thin_cloud(pts, res, cap):
    """Keep at most `cap` points per res-sized grid cell.

    Orbits that collapse onto periodic attractors produce hundreds of
    near-duplicate points whose Čech complex is combinatorially huge;
    thinning bounds the local density without changing the shape.
    """
    counts = {}
    keep = []
    for i, p in enumerate(pts):
        key = tuple((p // res).astype(int))
        c = counts.get(key, 0)
        if c < cap:
            counts[key] = c + 1
            keep.append(i)
    return pts[np.array(keep)]


def orbit_defaults():
    return {
        "data": {
            "rhos": (2.5, 3.5, 4.0, 4.1, 4.3),
            "n_train_per_class": 100,
            "n_test_per_class": 50,
            "orbit_length": 300,
            "thin_resolution": 0.02,
            "thin_cap": 2,
        },
        "filtration": {"max_dim": 2, "max_value": 0.08, "dims": (0, 1), "truncation": 0.08},
        "features": {"include_raw": True, "diagram_scale": 10.0, "channel_gap": 10.0},
        "learner": {"n_centers": 60, "radius_quantiles": (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)},
        "boosting": {"rounds": 20},
        "seeds": {"base": 0},
        "output": {"dir": "out/orbit-5class"},
    }


def run_orbit_5class(cfg: RunConfig, workers=1):
    d, flt, feat = cfg["data"], cfg["filtration"], cfg["features"]
    rhos = tuple(d["rhos"])

    def gen(c, j, s):
        pts = datagen.orbit(rhos[c], d["orbit_length"], s)
        return _thin_cloud(pts, d["thin_resolution"], d["thin_cap"])

    def featurize(pts, dgms):
        # at 300-point orbits the raw occupancy pattern carries most of the
        # class signal and the diagrams refine it
        return diagrams_to_feature_measure(
            dgms,
            tuple(flt["dims"]),
            flt["truncation"],
            scale=feat["diagram_scale"],
            gap=feat["channel_gap"],
            raw=pts if feat["include_raw"] else None,
        )

    return _classify(
        cfg, len(rhos), d["n_train_per_class"], d["n_test_per_class"], gen, workers, featurize=featurize
    )


def graph_hks_defaults():
    return {
        "data": {"n_train": 80, "n_test": 40, "n_vertices": 20, "hks_time": 10.0},
        "filtration": {"truncation": 1.5},
        "learner": {"n_centers": 15, "radius_quantiles": (0.05, 0.15, 0.3, 0.5)},
        "boosting": {"rounds": 10},
        "seeds": {"base": 0},
        "output": {"dir": "out/graph-hks"},
    }


def _random_graph(n, p, seed) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n) if rng.uniform() < p]
    # keep it connected so the two classes differ by structure, not components
    order = rng.permutation(n)
    edge_set = set(edges)
    for a, b in zip(order[:-1], order[1:]):
        key = (min(a, b), max(a, b))
        edge_set.add((int(key[0]), int(key[1])))
    return Graph(n, tuple(sorted(edge_set)))


def _ring_of_cliques(n_cliques, clique_size) -> Graph:
    edges = []
    n = n_cliques * clique_size
    for c in range(n_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        nxt = ((c + 1) % n_cliques) * clique_size
        edges.append((min(base, nxt), max(base, nxt)))
    return Graph(n, tuple(sorted(set(edges))))


def run_graph_hks_demo(cfg: RunConfig, workers=1):
    d = cfg["data"]

    def gen(c, j, s):
        if c == 0:
            return _random_graph(d["n_vertices"], 0.25, s)
        g = _ring_of_cliques(5, d["n_vertices"] // 5)
        # sprinkle a few random chords so the class is not a single graph
        extra = _random_graph(g.n, 0.02, s + 1).edges
        return Graph(g.n, tuple(sorted(set(g.edges) | set(extra))))

    return _classify(
        cfg,
        2,
        d["n_train"] // 2,
        d["n_test"] // 2,
        gen,
        workers,
        diagrams=lambda graphs, w: _map(_graph_diagrams, [(g, d["hks_time"]) for g in graphs], w),
        featurize=lambda _, dgms: diagrams_to_feature_measure(dgms, (0, 1), cfg["filtration"]["truncation"]),
    )


def limit_check_defaults():
    return {
        "setup": {"name": "square", "k": 0, "d": 2},
        "data": {"sizes": (200, 2000), "n_seeds": 10, "n_mc": 2000},
        "rectangles": {
            "r1": (0.5, 1.0, 1.0, 2.0),
            "r2": (0.3, 0.8, 0.9, 1.5),
            "r3": (0.6, 1.2, 1.3, 2.5),
        },
        "seeds": {"base": 0},
        "output": {"dir": "out/limit-check"},
    }


def _limit_cloud(setup, n, seed):
    rng = np.random.default_rng(seed)
    if setup == "circle":
        theta = rng.uniform(0.0, 2 * np.pi, size=n)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if setup == "square":
        return rng.uniform(0.0, 1.0, size=(n, 2))
    raise ValueError(f"unknown setup {setup!r}")


def _density_moment(setup, k):
    if setup == "circle":  # length 2*pi, density 1/(2*pi) w.r.t. arc length
        return 2 * np.pi * (1 / (2 * np.pi)) ** (k + 2)
    return 1.0  # unit density on the unit square


def run_limit_check(cfg: RunConfig, workers=1):
    outdir = cfg["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    setup = cfg["setup"]["name"]
    k, d = cfg["setup"]["k"], cfg["setup"]["d"]
    rects = {name: Rectangle(*vals) for name, vals in cfg["rectangles"].items()}
    base = cfg["seeds"]["base"]
    v_max = max(r.v for r in rects.values())
    moment = _density_moment(setup, k)

    mu_hat = {
        name: mu_k_montecarlo(moment, k, d, r, cfg["data"]["n_mc"], base + 31 + i)
        for i, (name, r) in enumerate(sorted(rects.items()))
    }

    rows = []
    for n in cfg["data"]["sizes"]:
        r_n = r_n_schedule(n, k, d)
        for s in range(cfg["data"]["n_seeds"]):
            pts = _limit_cloud(setup, n, base + 7919 * s + n)
            if setup == "square":
                # trim the boundary layer where the limit does not apply
                margin = 3 * r_n * v_max
                keep = np.all((pts >= margin) & (pts <= 1 - margin), axis=1)
                pts = pts[keep]
            scaled = pts / r_n
            # H_k needs simplices up to dimension k+1 only
            fc = cech_filtration(scaled, max_dim=min(k + 1, 3), max_value=v_max)
            dgms = persistence(fc)
            dg = next((x for x in dgms if x.dim == k), PersistenceDiagram(k, np.zeros((0, 2))))
            for name, r in sorted(rects.items()):
                xi = xi_count(dg, r, n, r_n, k, d)
                est, se = mu_hat[name]
                rows.append((setup, n, s, name, r_n, xi, est, se))

    with open(f"{outdir}/limit_check.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["setup", "n", "seed", "rect", "r_n", "xi", "mu_hat", "mu_stderr"])
        for row in rows:
            wr.writerow([row[0], row[1], row[2], row[3], repr(row[4]), repr(row[5]), repr(row[6]), repr(row[7])])
    return rows


def rademacher_defaults():
    return {
        "data": {"sizes": (50, 100, 200, 400, 800, 1600), "n_draws": 300},
        "learner": {"grid_side": 8, "radii": (0.1, 0.2, 0.35)},
        "seeds": {"base": 0},
        "output": {"dir": "out/rademacher"},
    }


def run_rademacher_scaling(cfg: RunConfig, workers=1):
    """Estimate vs sample size for the ball-mass class on unit-mass measures."""
    outdir = cfg["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    base = cfg["seeds"]["base"]
    side = cfg["learner"]["grid_side"]
    xs = (np.arange(side) + 0.5) / side
    centers = [(x, y) for x in xs for y in xs]
    regions = [Ball(np.array(c), r) for c in centers for r in cfg["learner"]["radii"]]

    rows = []
    for i, n in enumerate(cfg["data"]["sizes"]):
        rng = np.random.default_rng(base + 17 * i)
        sample = [Measure(rng.uniform(0, 1, size=(1, 2))) for _ in range(n)]
        values = feature_matrix(regions, sample)
        est, se = rademacher_estimate(values, cfg["data"]["n_draws"], base + 23 + i)
        rows.append((n, est, se))

    with open(f"{outdir}/rademacher.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["N", "estimate", "stderr"])
        for n, est, se in rows:
            wr.writerow([n, repr(est), repr(se)])
    return rows


RECIPES = {
    "ppp-vs-gpp": (ppp_vs_gpp_defaults, run_ppp_vs_gpp),
    "torus-vs-sphere": (torus_vs_sphere_defaults, run_torus_vs_sphere),
    "orbit-5class-reduced": (orbit_defaults, run_orbit_5class),
    "graph-hks-demo": (graph_hks_defaults, run_graph_hks_demo),
    "limit-check": (limit_check_defaults, run_limit_check),
    "rademacher-scaling": (rademacher_defaults, run_rademacher_scaling),
}


def run_experiment(name, config_path=None, overrides=None, workers=1):
    """Look up a recipe, apply config-file and in-memory overrides, run it."""
    if name not in RECIPES:
        raise KeyError(f"unknown recipe {name!r}; known: {sorted(RECIPES)}")
    defaults_fn, runner = RECIPES[name]
    cfg = RunConfig(defaults_fn())
    if config_path is not None:
        cfg.override_from_file(config_path)
    for (sec, key), val in (overrides or {}).items():
        if sec not in cfg.sections or key not in cfg.sections[sec]:
            raise KeyError(f"unknown config key [{sec}] {key}")
        cfg.sections[sec][key] = val
    return runner(cfg, workers=workers)
