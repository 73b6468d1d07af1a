import csv
import json

import numpy as np
import pytest

from measureboost import boosting, limits, measures, recipes, weak
from measureboost.boosting import adaboost_fit
from measureboost.cli import main
from measureboost.limits import Rectangle, xi_count
from measureboost.measures import LabeledDataset, Measure, mass_matrix
from measureboost.ph import cech_filtration, persistence
from measureboost.ph.diagrams import PersistenceDiagram, load_diagrams_jsonl
from measureboost.recipes import (
    RECIPES,
    _limit_cloud,
    _thin_cloud,
    build_ball_grid,
    compute_diagrams,
    diagrams_to_feature_measure,
    emit_rectangle_trace,
    fit_classifier,
    load_config,
    run_experiment,
)
from measureboost.weak import ball_grid, grid_learner
from weak_search import search


def test_runconfig_lookup_and_defaults():
    defaults = {"data": {"n": 5, "rho": 2.5}, "output": {"dir": "out"}}
    cfg = load_config(defaults, overrides={("data", "n"): 7})
    assert cfg == {"data": {"n": 7, "rho": 2.5}, "output": {"dir": "out"}}
    assert defaults["data"]["n"] == 5  # the defaults are copied, not changed


def test_runconfig_file_override_types(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[data]\nn = 9\nrho = 3.5\nsizes = 10, 20 30\nflag = yes\nname = abc\n"
    )
    cfg = load_config(
        {"data": {"n": 5, "rho": 2.5, "sizes": (1, 2), "flag": False, "name": "x"}}, ini
    )
    d = cfg["data"]
    assert d["n"] == 9 and isinstance(d["n"], int)
    assert d["rho"] == 3.5
    assert d["sizes"] == (10, 20, 30)
    assert d["flag"] is True
    assert d["name"] == "abc"


def test_runconfig_rejects_unknown_keys(tmp_path):
    defaults = {"data": {"n": 5}}
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[nope]\n")
    with pytest.raises(KeyError, match=r"unknown config section \[nope\]"):
        load_config(defaults, bad_section)
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[data]\nm = 1\n")
    with pytest.raises(KeyError, match=r"unknown config key \[data\] m"):
        load_config(defaults, bad_key)
    # in-memory overrides pass the same checks
    with pytest.raises(KeyError, match=r"unknown config section \[nope\]"):
        load_config(defaults, overrides={("nope", "n"): 1})
    with pytest.raises(KeyError, match=r"unknown config key \[data\] m"):
        load_config(defaults, overrides={("data", "m"): 1})


def test_compute_diagrams_worker_count_is_invisible():
    rng = np.random.default_rng(0)
    clouds = [rng.uniform(size=(12, 2)) for _ in range(6)]
    serial = compute_diagrams(clouds, max_dim=2, max_value=1.0, workers=1)
    parallel = compute_diagrams(clouds, max_dim=2, max_value=1.0, workers=3)
    assert len(serial) == len(parallel) == 6
    for a, b in zip(serial, parallel):
        assert [d.dim for d in a] == [d.dim for d in b]
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.pairs, db.pairs)


def test_feature_measure_tags_dimension():
    dgms = [
        PersistenceDiagram(0, np.array([[0.0, 0.4]])),
        PersistenceDiagram(1, np.array([[0.2, 0.5]])),
    ]
    m = diagrams_to_feature_measure(dgms, dims=(0, 1), truncation=1.0)
    assert m.points.shape == (2, 3)
    assert set(m.points[:, 2]) == {0.0, 1.0}
    m2 = diagrams_to_feature_measure(dgms, dims=(1,), truncation=1.0)
    assert m2.points.shape == (1, 2)
    np.testing.assert_allclose(m2.points[0], [0.2, 0.3])  # rotated (birth, pers)


def test_feature_measure_empty():
    m = diagrams_to_feature_measure([], dims=(0, 1), truncation=1.0)
    assert len(m) == 0 and m.points.shape[1] == 3


def test_feature_measure_raw_channel_scale_and_gap():
    dgms = [
        PersistenceDiagram(0, np.array([[0.0, 0.5]])),
        PersistenceDiagram(1, np.array([[0.25, 0.75]])),
        PersistenceDiagram(2, np.array([[0.5, 1.0]])),  # not a selected dim
    ]
    raw = np.array([[0.1, 0.2], [0.3, 0.4]])
    m = diagrams_to_feature_measure(dgms, dims=(0, 1), truncation=1.0, scale=4.0, gap=3.0, raw=raw)
    expected = np.array(
        [
            [0.1, 0.2, 6.0],  # raw cloud first, tagged 2 * gap
            [0.3, 0.4, 6.0],
            [0.0, 2.0, 0.0],  # rotated (birth, persistence) * scale, tagged dim * gap
            [1.0, 2.0, 3.0],
        ]
    )
    np.testing.assert_array_equal(m.points, expected)


def test_feature_measure_raw_tag_clears_every_diagram_tag():
    dgms = [PersistenceDiagram(k, np.array([[0.1 * k, 0.5]])) for k in (0, 1, 2)]
    raw = np.array([[0.1, 0.2], [0.3, 0.4]])
    m = diagrams_to_feature_measure(dgms, dims=(0, 1, 2), truncation=1.0, gap=2.0, raw=raw)
    raw_tags, diagram_tags = set(m.points[:2, 2]), set(m.points[2:, 2])
    assert diagram_tags == {0.0, 2.0, 4.0}
    assert raw_tags == {6.0}


def test_build_ball_grid_shapes():
    rng = np.random.default_rng(1)
    ms = tuple(Measure(rng.uniform(size=(10, 2))) for _ in range(6))
    data = LabeledDataset(ms, np.array([0, 1] * 3))
    grid = build_ball_grid(data, n_centers=4, radius_quantiles=(0.1, 0.5), seed=0)
    assert len(grid) == 8
    assert all(r.radius > 0 for r in grid)


def test_cached_learner_matches_uncached():
    rng = np.random.default_rng(2)
    ms = tuple(Measure(rng.uniform(size=(5, 2))) for _ in range(10))
    data = LabeledDataset(ms, rng.integers(0, 2, size=10))
    grid = ball_grid([np.full(2, 0.3), np.full(2, 0.5), np.full(2, 0.7)], [0.3, 0.6])
    masses = mass_matrix(data.measures, grid)
    # one learner per fit, over the fit's columns of one matrix, for several
    # rounds with new weights: ranks gone stale across rounds, or columns
    # out of step with the fit's data, differ from a freshly ranked search
    for cols in (np.arange(10), np.array([1, 4, 5, 8]), np.array([0, 2, 3, 6, 7, 9]), np.array([0, 3, 7, 9])):
        sub = data.subset(cols)
        learner = grid_learner(grid, masses[:, cols])
        for w in [np.full(len(sub), 1 / len(sub))] + [rng.dirichlet(np.ones(len(sub))) for _ in range(3)]:
            h1, e1, row1 = learner(sub, w)
            h2, e2, row2 = search(sub, grid, w)
            assert e1 == e2
            assert h1.to_json() == h2.to_json()
            np.testing.assert_array_equal(row1, row2)


def _three_class_train():
    rng = np.random.default_rng(4)
    ms = tuple(Measure(rng.normal(loc=c, size=(6, 2))) for c in range(3) for _ in range(8))
    return LabeledDataset(ms, np.repeat(np.arange(3), 8))


def test_fit_classifier_one_mass_matrix_for_every_pair(monkeypatch):
    train = _three_class_train()
    grids = []
    build = recipes.build_ball_grid
    monkeypatch.setattr(recipes, "build_ball_grid", lambda *a: grids.append(build(*a)) or grids[-1])
    grid_calls = []
    plain = measures.mass_matrix

    def counting(ms, regions):
        regions = tuple(regions)
        if grids and len(regions) == len(grids[0]) and all(
            a is b for a, b in zip(regions, grids[0])
        ):
            grid_calls.append(len(ms))
        return plain(ms, regions)

    for module in (measures, weak, boosting, limits, recipes):
        monkeypatch.setattr(module, "mass_matrix", counting)
    model = fit_classifier(train, n_centers=4, radius_quantiles=(0.2, 0.6), rounds=3, seed=5)
    assert grid_calls == [len(train)]
    monkeypatch.undo()
    (grid,) = grids
    expected = boosting.one_vs_one_fit(train, 3, lambda cols: lambda d, w: search(d, grid, w))
    assert model.to_json() == expected.to_json()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_classes", [2, 3])
def test_fit_classifier_rounds_read_the_one_grid_matrix(monkeypatch, seed, n_classes):
    # one grid mass matrix per fit and no per-round predict, yet the same
    # model as boosting a plain uncached search on the same grid
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=30)
    ms = tuple(Measure(rng.normal(loc=0.6 * y, size=(int(rng.integers(0, 8)), 2))) for y in labels)
    train = LabeledDataset(ms, labels)
    grids, matrices, predicts = [], [], []
    build = recipes.build_ball_grid
    monkeypatch.setattr(recipes, "build_ball_grid", lambda *a: grids.append(build(*a)) or grids[-1])
    plain = measures.mass_matrix
    for module in (measures, weak, boosting, limits, recipes):
        monkeypatch.setattr(module, "mass_matrix", lambda m, r: matrices.append(len(r)) or plain(m, r))
    predict = weak.WeakClassifier.predict
    monkeypatch.setattr(weak.WeakClassifier, "predict", lambda h, m: predicts.append(h) or predict(h, m))
    model = fit_classifier(train, n_centers=5, radius_quantiles=(0.1, 0.4, 0.8), rounds=6, seed=seed)
    monkeypatch.undo()
    (grid,) = grids
    assert matrices == [len(grid)] and predicts == []
    learner = lambda d, w: search(d, grid, w)
    if n_classes > 2:
        expected = boosting.one_vs_one_fit(train, 6, lambda cols: learner)
    else:
        expected = adaboost_fit(train, 6, learner)
    assert model.to_json() == expected.to_json()


def test_thin_cloud_cap():
    pts = np.vstack([np.full((50, 2), 0.5005), np.array([[0.9, 0.9]])])
    out = _thin_cloud(pts, res=0.02, cap=2)
    assert len(out) == 3  # 2 from the dense cell + the lone point
    sparse = np.random.default_rng(0).uniform(size=(30, 2))
    np.testing.assert_array_equal(_thin_cloud(sparse, res=0.02, cap=2), sparse)
    assert _thin_cloud(np.zeros((0, 2)), res=0.02, cap=2).shape == (0, 2)  # an empty orbit flows on


def test_emit_rectangle_trace_schema(tmp_path):
    rng = np.random.default_rng(3)
    ms, ys = [], []
    for _ in range(12):
        ms.append(Measure(rng.uniform(0, 1, size=(4, 2))))
        ys.append(0)
        ms.append(Measure(rng.uniform(0.5, 1.5, size=(4, 2))))
        ys.append(1)
    data = LabeledDataset(tuple(ms), np.array(ys))
    grid = ball_grid([np.full(2, 0.3), np.full(2, 1.2)], [0.4, 0.8])
    ens = adaboost_fit(data, rounds=4, learner=grid_learner(grid, mass_matrix(data.measures, grid)))
    path = tmp_path / "trace.csv"
    emit_rectangle_trace(ens, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["stage", "alpha", "sign", "kind", "center", "radius", "mins", "maxs", "threshold"]
    assert len(body) == len(ens.stages)
    for i, ((h, alpha), row) in enumerate(zip(ens.stages, body)):
        assert int(row[0]) == i
        assert float(row[1]) == alpha  # repr() round-trips exactly
        assert int(row[2]) == h.sign
        assert row[3] == "ball" and row[6:8] == ["", ""]
        np.testing.assert_array_equal(json.loads(row[4]), h.region.center)
        assert float(row[8]) == h.threshold


def test_run_experiment_unknown_name():
    with pytest.raises(KeyError):
        run_experiment("no-such-recipe")


def test_recipe_registry_names():
    assert {
        "ppp-vs-gpp",
        "torus-vs-sphere",
        "orbit-5class-reduced",
        "graph-hks-demo",
        "limit-check",
        "rademacher-scaling",
    } <= set(RECIPES)
    for defaults_fn, runner in RECIPES.values():
        d = defaults_fn()
        assert isinstance(d, dict) and "output" in d
        assert callable(runner)


RECIPE_KEYS = {
    "ppp-vs-gpp": {
        ("data", "n_train"), ("data", "n_test"),
        ("filtration", "max_value"), ("filtration", "dims"), ("filtration", "truncation"),
        ("learner", "n_centers"), ("learner", "radius_quantiles"),
        ("boosting", "rounds"), ("seeds", "base"), ("output", "dir"),
    },
    "torus-vs-sphere": {
        ("data", "n_train"), ("data", "n_test"), ("data", "n_points"), ("data", "noise"), ("data", "randomized_size"),
        ("filtration", "max_value"), ("filtration", "dims"), ("filtration", "truncation"),
        ("learner", "n_centers"), ("learner", "radius_quantiles"),
        ("boosting", "rounds"), ("seeds", "base"), ("output", "dir"),
    },
    "orbit-5class-reduced": {
        ("data", "n_train_per_class"), ("data", "n_test_per_class"), ("data", "orbit_length"),
        ("filtration", "max_value"), ("filtration", "dims"), ("filtration", "truncation"),
        ("learner", "n_centers"), ("learner", "radius_quantiles"),
        ("boosting", "rounds"), ("seeds", "base"), ("output", "dir"),
    },
    "graph-hks-demo": {
        ("data", "n_train"), ("data", "n_test"), ("filtration", "truncation"),
        ("learner", "n_centers"), ("learner", "radius_quantiles"),
        ("boosting", "rounds"), ("seeds", "base"), ("output", "dir"),
    },
    "limit-check": {
        ("setup", "name"), ("setup", "k"), ("data", "sizes"), ("data", "n_seeds"), ("data", "n_mc"),
        ("rectangles", "r1"), ("rectangles", "r2"), ("rectangles", "r3"), ("seeds", "base"), ("output", "dir"),
    },
    "rademacher-scaling": {("data", "sizes"), ("data", "n_draws"), ("seeds", "base"), ("output", "dir")},
}


def test_recipe_config_keys_are_pinned():
    # every key is a setting some caller makes; the count is a tracked number
    keys = {name: {(sec, key) for sec, kv in fn().items() for key in kv} for name, (fn, _) in RECIPES.items()}
    assert keys == RECIPE_KEYS
    assert sum(map(len, keys.values())) == 56


def test_rademacher_recipe_end_to_end(tmp_path):
    # smallest recipe: runs in seconds and exercises the output contract
    result = run_experiment(
        "rademacher-scaling",
        overrides={
            ("data", "sizes"): (20, 40, 80),
            ("data", "n_draws"): 60,
            ("output", "dir"): str(tmp_path),
        },
    )
    csv_path = tmp_path / "rademacher.csv"
    assert csv_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "estimate", "stderr"]
    ests = [float(r[1]) for r in rows[1:]]
    assert len(ests) == 3
    assert ests[0] > ests[-1]  # complexity shrinks with sample size


def test_limit_check_recipe_end_to_end(tmp_path):
    run_experiment(
        "limit-check",
        overrides={
            ("setup", "name"): "circle",
            ("setup", "k"): 0,
            ("data", "sizes"): (50, 100),
            ("data", "n_seeds"): 2,
            ("data", "n_mc"): 50,
            ("output", "dir"): str(tmp_path),
        },
    )
    csv_path = tmp_path / "limit_check.csv"
    assert csv_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "setup"
    assert len(rows) > 1
    # the circle is a curve: its scale follows d = 1 without a d key
    assert all(r[4] == repr(limits.r_n_schedule(int(r[1]), 0, 1)) for r in rows[1:])


def test_limit_check_degree_1_matches_full_build(tmp_path):
    # the recipe builds simplices up to dimension k+1 only; a build one
    # dimension higher must give the same degree-k counts
    k, d = 1, 2
    rects = {"r1": (0.05, 0.7, 0.7, 0.85), "r2": (0.05, 0.8, 0.8, 1.0), "r3": (0.3, 0.7, 0.7, 1.0)}
    rows = run_experiment(
        "limit-check",
        overrides={
            ("setup", "k"): k,
            ("data", "sizes"): (60, 120),
            ("data", "n_seeds"): 2,
            ("data", "n_mc"): 50,
            **{("rectangles", name): r for name, r in rects.items()},
            ("output", "dir"): str(tmp_path),
        },
    )
    assert len(rows) == 2 * 2 * 3
    assert any(row[5] > 0 for row in rows)
    v_max = max(r[3] for r in rects.values())
    diagrams = {}
    for _, n, s, name, r_n, xi, _, _ in rows:
        if (n, s) not in diagrams:
            pts = _limit_cloud("square", n, 7919 * s + n)
            margin = 3 * r_n * v_max
            pts = pts[np.all((pts >= margin) & (pts <= 1 - margin), axis=1)]
            fc = cech_filtration(pts / r_n, max_dim=k + 2, max_value=v_max)
            diagrams[n, s] = next(x for x in persistence(fc) if x.dim == k)
        assert xi == xi_count(diagrams[n, s], Rectangle(*rects[name]), n, r_n, k, d)


def test_cli_train_reproduces_recipe_model(tmp_path):
    # the recipe and `measureboost train` fit through the same path
    out = tmp_path / "ppp"
    seed = 3
    run_experiment(
        "ppp-vs-gpp",
        overrides={
            ("data", "n_train"): 20,
            ("data", "n_test"): 10,
            ("seeds", "base"): seed,
            ("output", "dir"): str(out),
        },
    )
    d = RECIPES["ppp-vs-gpp"][0]()
    model = tmp_path / "model.json"
    argv = [
        "train", "--input", str(out / "train_diagrams.jsonl"), "--out", str(model),
        "--dims", *map(str, d["filtration"]["dims"]),
        "--truncation", str(d["filtration"]["truncation"]),
        "--rounds", str(d["boosting"]["rounds"]),
        "--n-centers", str(d["learner"]["n_centers"]),
        "--radius-quantiles", *map(str, d["learner"]["radius_quantiles"]),
        "--seed", str(seed),
    ]
    assert main(argv) == 0
    expected = json.loads((out / "model.json").read_text())
    assert json.loads(model.read_text()) == expected


def test_graph_hks_demo_writes_diagrams_and_weak_accuracy(tmp_path):
    report, weak = run_experiment(
        "graph-hks-demo",
        overrides={("data", "n_train"): 10, ("data", "n_test"): 6, ("output", "dir"): str(tmp_path)},
    )
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["weak_accuracy"] == weak and 0.0 <= weak <= 1.0
    assert metrics["accuracy"] == report.accuracy
    for split, n in (("train", 10), ("test", 6)):
        diagrams, metas = load_diagrams_jsonl(tmp_path / f"{split}_diagrams.jsonl")
        assert [dg.dim for dg in diagrams] == [0, 1] * n
        assert [m["label"] for m in metas] == [0] * n + [1] * n


def test_graph_hks_demo_worker_count_is_invisible(tmp_path, monkeypatch):
    pools = []
    serial_map = recipes._map
    monkeypatch.setattr(recipes, "_map", lambda fn, jobs, w: pools.append((fn.__name__, w)) or serial_map(fn, jobs, w))
    for workers in (1, 2):
        run_experiment(
            "graph-hks-demo",
            overrides={("data", "n_train"): 10, ("data", "n_test"): 6, ("output", "dir"): str(tmp_path / f"w{workers}")},
            workers=workers,
        )
    assert pools == [("_graph_diagrams", 1), ("_graph_diagrams", 2)]
    files = {p.name for p in (tmp_path / "w1").iterdir()} - {"timings.json"}
    assert files == {p.name for p in (tmp_path / "w2").iterdir()} - {"timings.json"}
    for name in sorted(files):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes(), name
