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
from .ph.diagrams import diagram_to_measure, save_diagrams_jsonl
from .weak import ball_grid, grid_learner, kmeans_centers

__all__ = ["ConfigError", "run_experiment", "emit_rectangle_trace", "RECIPES"]


# ---------------------------------------------------------------------------
# run configuration


class ConfigError(KeyError):
    """Unknown recipe, section or key, or a value unlike its default's type."""


def load_config(defaults: dict, config_path=None, overrides=None) -> dict:
    """A recipe's {section: {key: value}} config: a copy of its defaults, then
    the values of the INI file at config_path, then the in-memory overrides,
    {(section, key): value}.  Neither may add a section or a key."""
    cfg = {sec: dict(kv) for sec, kv in defaults.items()}
    if config_path is not None:
        cp = ConfigParser(default_section="")  # no INI section has this name: [DEFAULT] is unknown
        with open(config_path) as fh:
            cp.read_file(fh)
        for sec in cp.sections():
            _override(cfg, sec, cp.items(sec), parse=True)
    for (sec, key), val in (overrides or {}).items():
        _override(cfg, sec, [(key, val)])
    return cfg


def _override(cfg, sec, items, parse=False):
    """cfg[sec][key] = value for each (key, value) of items; with parse, the
    values are raw INI strings, read with the type of the key's default."""
    if sec not in cfg:
        raise ConfigError(f"unknown config section [{sec}]")
    for key, val in items:
        if key not in cfg[sec]:
            raise ConfigError(f"unknown config key [{sec}] {key}")
        if parse:
            try:
                val = _parse_like(val, cfg[sec][key])
            except (KeyError, ValueError):
                raise ConfigError(f"bad value for [{sec}] {key}: {val!r}") from None
        cfg[sec][key] = val


def _parse_like(raw: str, default):
    """Parse a raw string with the type of the default value."""
    if isinstance(default, bool):
        return ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
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


def _graph_diagrams(g):
    return graph_sublevel_diagrams(g, graph_hks(g))


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
        m = diagram_to_measure(dg, truncation)
        if len(m) == 0:
            continue
        pts = m.points * scale
        if tag:
            pts = np.column_stack([pts, np.full(len(pts), float(dg.dim) * gap)])
        feats.append(pts)
    d = 3 if tag else 2
    return Measure(np.vstack(feats) if feats else np.zeros((0, d)))


def build_ball_grid(train: LabeledDataset, n_centers, radius_quantiles, seed) -> tuple:
    """Candidate balls: k-means centers of the pooled training support,
    radii at fixed quantiles of the center-to-point distances."""
    supports = [m.points for m in train.measures if len(m)]
    if not supports:
        raise ValueError("no training measure has a support point to place balls on")
    allpts = np.vstack(supports)
    sub = allpts[:: max(1, len(allpts) // 20000)]  # cap the clustering input
    centers = kmeans_centers(sub, min(n_centers, len(sub)), seed=seed)
    dsub = allpts[:: max(1, len(allpts) // 4000)]
    d = np.linalg.norm(dsub[None, :, :] - np.asarray(centers)[:, None, :], axis=2)
    radii = np.unique(np.quantile(d, radius_quantiles))
    radii = radii[radii > 0]
    if not len(radii):
        raise ValueError("every ball radius is 0: the training support points all sit on k-means centers")
    return ball_grid(centers, radii)


def fit_classifier(train: LabeledDataset, n_centers, radius_quantiles, rounds, seed, timings=None):
    """Boosted ball-mass classifier: one AdaBoost ensemble for two classes,
    one-vs-one ensembles for more.  `timings` gets the seconds spent on the
    grid and its mass matrix (train_grid) and on boosting (train_boost).

    The grid's mass matrix over train is computed once; each fit (each
    one-vs-one pair) boosts a `grid_learner` over its columns."""
    t0 = time.perf_counter()
    grid = build_ball_grid(train, n_centers, radius_quantiles, seed + 7)
    masses = mass_matrix(train.measures, grid)
    t1 = time.perf_counter()
    if len(train.label_set) > 2:
        model = one_vs_one_fit(train, rounds, lambda cols: grid_learner(grid, masses[:, cols]))
    else:
        model = adaboost_fit(train, rounds, grid_learner(grid, masses))
    if timings is not None:
        timings.update(train_grid=t1 - t0, train_boost=time.perf_counter() - t1)
    return model


def classifier_predict(model, measures) -> np.ndarray:
    """Labels predicted by a `fit_classifier` model of either kind."""
    predict = one_vs_one_predict if isinstance(model, OneVsOneModel) else ensemble_predict
    return predict(model, measures)


def emit_rectangle_trace(ensemble, path) -> None:
    """One CSV row per boosting stage with its ball; the mins and maxs
    columns of the file's layout stay empty."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["stage", "alpha", "sign", "kind", "center", "radius", "mins", "maxs", "threshold"])
        for i, (h, alpha) in enumerate(ensemble.stages):
            A = h.region
            wr.writerow([i, repr(alpha), h.sign, "ball", json.dumps(A.center.tolist()), repr(A.radius), "", "", repr(h.threshold)])


def save_cloud_diagrams(per_cloud, labels, path):
    """Each cloud's diagrams as diagrams JSONL, with {"cloud", "label"} metas:
    the cloud's position in per_cloud and its label."""
    flat = [dg for dgms in per_cloud for dg in dgms]
    metas = [{"cloud": i, "label": int(lab)} for i, (dgms, lab) in enumerate(zip(per_cloud, labels)) for _ in dgms]
    save_diagrams_jsonl(flat, path, metas)


def _classify(cfg, n_classes, n_train, n_test, generate, workers, diagrams=None, featurize=None):
    """generate -> diagrams -> features -> boost -> evaluate, shared by every
    classification recipe.

    generate(class_id, index, seed) makes one item; per class the first
    n_train items train and the next n_test test.  diagrams(items, workers)
    gives each item's diagrams, by default the Čech diagrams of
    cfg["filtration"], built up to dimension max(dims) + 1 (H_k dies by
    (k+1)-simplices); featurize(item, diagrams) gives its feature measure,
    by default that section's dims and truncation.  Returns the report,
    plus for two classes the accuracy of the first weak classifier alone.
    """
    flt = cfg["filtration"]
    if diagrams is None:
        if not flt["dims"] or not all(0 <= k <= 2 for k in flt["dims"]):
            raise ConfigError(f"bad value for [filtration] dims: {flt['dims']!r} must list degrees from 0 to 2")
        if not flt["max_value"] >= 0:  # also NaN
            raise ConfigError(f"bad value for [filtration] max_value: {flt['max_value']!r} must be a number >= 0")
        diagrams = lambda clouds, w: compute_diagrams(clouds, max(flt["dims"]) + 1, flt["max_value"], w)
    outdir = cfg["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    seed = cfg["seeds"]["base"]
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
        save_cloud_diagrams([per_item[i] for i in idx], labels[idx], f"{outdir}/{name}_diagrams.jsonl")
    train, test = (LabeledDataset(tuple(meas[i] for i in idx), labels[idx]) for idx in splits.values())

    lrn = cfg["learner"]
    model = fit_classifier(train, lrn["n_centers"], lrn["radius_quantiles"], cfg["boosting"]["rounds"], seed, timings)
    timings["train"] = timings["train_grid"] + timings["train_boost"]

    t0 = time.perf_counter()
    preds = classifier_predict(model, test.measures)
    binary = isinstance(model, Ensemble)
    if binary:
        weak_preds = np.array(model.labels)[model.stages[0][0].predict(test.measures)]
        weak_acc = float(np.mean(weak_preds == test.labels))
    timings["evaluate"] = time.perf_counter() - t0

    report = evaluate(
        test.labels,
        preds,
        labels=tuple(range(n_classes)),
        staged_errors=staged_training_error(model, train) if binary else (),
    )
    with open(f"{outdir}/model.json", "w") as fh:
        json.dump(model.to_json(), fh, indent=2)
    emit_rectangle_trace(model if binary else model.models[min(model.models)], f"{outdir}/rectangles.csv")
    obj = report.to_json()
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
        "data": {"n_train": 400, "n_test": 200},
        "filtration": {"max_value": 2.0, "dims": (0, 1), "truncation": 2.0},
        "learner": {"n_centers": 25, "radius_quantiles": (0.05, 0.15, 0.3, 0.5)},
        "boosting": {"rounds": 15},
        "seeds": {"base": 0},
        "output": {"dir": "out/ppp-vs-gpp"},
    }


def run_ppp_vs_gpp(cfg: dict, workers=1):
    d = cfg["data"]

    def gen(c, j, s):  # 30 points expected in the unit disk
        if c == 0:
            return datagen.sample_ppp_disk(30, 1.0, s)
        return datagen.sample_ginibre(30, s, 1.0)

    return _classify(cfg, 2, d["n_train"] // 2, d["n_test"] // 2, gen, workers)


def torus_vs_sphere_defaults():
    return {
        "data": {
            "n_train": 100,
            "n_test": 100,
            "n_points": 500,
            "noise": 0.0,
            "randomized_size": False,
        },
        "filtration": {"max_value": 1.5, "dims": (1,), "truncation": 1.5},
        "learner": {"n_centers": 15, "radius_quantiles": (0.05, 0.15, 0.3)},
        "boosting": {"rounds": 15},
        "seeds": {"base": 0},
        "output": {"dir": "out/torus-vs-sphere"},
    }


def run_torus_vs_sphere(cfg: dict, workers=1):
    d = cfg["data"]

    def gen(c, j, s):
        # a torus of radii R and R / 2 with R = 4 or, randomized, R in [3, 5];
        # a sphere of radius 6 or, randomized, in [4, 7]
        rng = np.random.default_rng(s + 55609)
        if c == 0:
            outer = rng.uniform(3.0, 5.0) if d["randomized_size"] else 4.0
            pts = datagen.sample_torus(d["n_points"], outer, outer / 2.0, s)
        else:
            radius = rng.uniform(4.0, 7.0) if d["randomized_size"] else 6.0
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
    return pts[np.array(keep, dtype=int)]


# the orbit parameters of ORBIT5K (Adams et al., Persistence images, JMLR 2017), one class each
_ORBIT5K_RHOS = (2.5, 3.5, 4.0, 4.1, 4.3)


def orbit_defaults():
    return {
        "data": {"n_train_per_class": 100, "n_test_per_class": 50, "orbit_length": 300},
        "filtration": {"max_value": 0.08, "dims": (0, 1), "truncation": 0.08},
        "learner": {"n_centers": 60, "radius_quantiles": (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)},
        "boosting": {"rounds": 20},
        "seeds": {"base": 0},
        "output": {"dir": "out/orbit-5class"},
    }


def run_orbit_5class(cfg: dict, workers=1):
    d, flt = cfg["data"], cfg["filtration"]

    def gen(c, j, s):
        return _thin_cloud(datagen.orbit(_ORBIT5K_RHOS[c], d["orbit_length"], s), 0.02, 2)

    def featurize(pts, dgms):
        # at 300-point orbits the raw occupancy pattern carries most of the
        # class signal and the diagrams, scaled by 10, refine it
        return diagrams_to_feature_measure(dgms, tuple(flt["dims"]), flt["truncation"], scale=10.0, gap=10.0, raw=pts)

    n_classes = len(_ORBIT5K_RHOS)
    return _classify(cfg, n_classes, d["n_train_per_class"], d["n_test_per_class"], gen, workers, featurize=featurize)


def graph_hks_defaults():
    return {
        "data": {"n_train": 80, "n_test": 40},
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


def run_graph_hks_demo(cfg: dict, workers=1):
    d = cfg["data"]

    def gen(c, j, s):  # 20-vertex graphs: random, or a ring of 5 cliques of 4 with a few chords
        if c == 0:
            return _random_graph(20, 0.25, s)
        g = _ring_of_cliques(5, 4)
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
        diagrams=lambda graphs, w: _map(_graph_diagrams, graphs, w),
        featurize=lambda _, dgms: diagrams_to_feature_measure(dgms, (0, 1), cfg["filtration"]["truncation"]),
    )


def limit_check_defaults():
    return {
        "setup": {"name": "square", "k": 0},
        "data": {"sizes": (200, 2000), "n_seeds": 10, "n_mc": 2000},
        "rectangles": {
            "r1": (0.5, 1.0, 1.0, 2.0),
            "r2": (0.3, 0.8, 0.9, 1.5),
            "r3": (0.6, 1.2, 1.3, 2.5),
        },
        "seeds": {"base": 0},
        "output": {"dir": "out/limit-check"},
    }


_SETUP_DIM = {"circle": 1, "square": 2}  # dimension of the set each setup samples


def _limit_cloud(setup, n, seed):
    rng = np.random.default_rng(seed)
    if setup == "circle":
        theta = rng.uniform(0.0, 2 * np.pi, size=n)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    return rng.uniform(0.0, 1.0, size=(n, 2))  # the square


def _density_moment(setup, k):
    if setup == "circle":  # length 2*pi, density 1/(2*pi) w.r.t. arc length
        return 2 * np.pi * (1 / (2 * np.pi)) ** (k + 2)
    return 1.0  # unit density on the unit square


def run_limit_check(cfg: dict, workers=1):
    setup = cfg["setup"]["name"]
    if setup not in _SETUP_DIM:
        raise ConfigError(f"bad value for [setup] name: {setup!r}")
    k, d = cfg["setup"]["k"], _SETUP_DIM[setup]
    if k not in (0, 1, 2):
        raise ConfigError(f"bad value for [setup] k: {k!r} must be in 0..2")
    if k == 2:  # every setup lies in the plane
        raise ValueError(
            f"k = 2 needs a 3-D setup: {setup!r} lies in the plane, where every degree-2 count and limit is 0"
        )
    for name, vals in cfg["rectangles"].items():
        if len(vals) != 4:
            raise ConfigError(f"bad value for [rectangles] {name}: {vals!r} is not the four numbers s t u v")
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
            fc = cech_filtration(scaled, max_dim=k + 1, max_value=v_max)
            dg = persistence(fc)[k]
            for name, r in sorted(rects.items()):
                xi = xi_count(dg, r, n, r_n, k, d)
                est, se = mu_hat[name]
                rows.append((setup, n, s, name, r_n, xi, est, se))

    outdir = cfg["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    with open(f"{outdir}/limit_check.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["setup", "n", "seed", "rect", "r_n", "xi", "mu_hat", "mu_stderr"])
        for row in rows:
            wr.writerow([row[0], row[1], row[2], row[3], repr(row[4]), repr(row[5]), repr(row[6]), repr(row[7])])
    return rows


def rademacher_defaults():
    return {
        "data": {"sizes": (50, 100, 200, 400, 800, 1600), "n_draws": 300},
        "seeds": {"base": 0},
        "output": {"dir": "out/rademacher"},
    }


def run_rademacher_scaling(cfg: dict, workers=1):
    """Estimate vs sample size for the ball-mass class on unit-mass measures:
    balls of radius 0.1, 0.2 and 0.35 around the cell centers of an 8 x 8
    grid on the unit square."""
    outdir = cfg["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    base = cfg["seeds"]["base"]
    xs = (np.arange(8) + 0.5) / 8
    centers = [(x, y) for x in xs for y in xs]
    regions = ball_grid(centers, (0.1, 0.2, 0.35))

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
        raise ConfigError(f"unknown recipe {name!r}; known: {sorted(RECIPES)}")
    defaults_fn, runner = RECIPES[name]
    return runner(load_config(defaults_fn(), config_path, overrides), workers=workers)
