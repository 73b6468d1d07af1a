import csv
import json

import numpy as np
import pytest

from measureboost import boosting, limits, measures, recipes, weak
from measureboost.boosting import adaboost_fit
from measureboost.cli import main
from measureboost.limits import Rectangle, xi_count
from measureboost.measures import LabeledDataset, Measure
from measureboost.ph import cech_filtration, persistence
from measureboost.ph.diagrams import PersistenceDiagram, load_diagrams_jsonl
from measureboost.recipes import (
    RECIPES,
    RunConfig,
    _limit_cloud,
    _thin_cloud,
    build_ball_grid,
    compute_diagrams,
    diagrams_to_feature_measure,
    emit_rectangle_trace,
    fit_classifier,
    make_cached_learner,
    run_experiment,
)
from measureboost.weak import GridSpec, exhaustive_search


def test_runconfig_lookup_and_defaults():
    cfg = RunConfig({"data": {"n": 5, "rho": 2.5}, "output": {"dir": "out"}})
    assert cfg["data"]["n"] == 5
    assert cfg["output"]["dir"] == "out"


def test_runconfig_file_override_types(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[data]\nn = 9\nrho = 3.5\nsizes = 10, 20 30\nflag = yes\nname = abc\n"
    )
    cfg = RunConfig(
        {"data": {"n": 5, "rho": 2.5, "sizes": (1, 2), "flag": False, "name": "x"}}
    )
    cfg.override_from_file(ini)
    d = cfg["data"]
    assert d["n"] == 9 and isinstance(d["n"], int)
    assert d["rho"] == 3.5
    assert d["sizes"] == (10, 20, 30)
    assert d["flag"] is True
    assert d["name"] == "abc"


def test_runconfig_rejects_unknown_keys(tmp_path):
    cfg = RunConfig({"data": {"n": 5}})
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[nope]\nx = 1\n")
    with pytest.raises(KeyError):
        RunConfig({"data": {"n": 5}}).override_from_file(bad_section)
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[data]\nm = 1\n")
    with pytest.raises(KeyError):
        cfg.override_from_file(bad_key)


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
    assert len(grid.regions) == 8
    assert all(r.radius > 0 for r in grid.regions)


def test_cached_learner_matches_uncached():
    from measureboost.weak import exhaustive_search

    rng = np.random.default_rng(2)
    ms = tuple(Measure(rng.uniform(size=(5, 2))) for _ in range(10))
    data = LabeledDataset(ms, rng.integers(0, 2, size=10))
    grid = GridSpec.balls([np.full(2, 0.5)], [0.3, 0.6])
    learner = make_cached_learner(grid, data)
    w = np.full(10, 0.1)
    h1, e1 = learner(data, w, None)
    h2, e2 = exhaustive_search(data, grid, w)
    assert e1 == e2
    assert h1.to_json() == h2.to_json()


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
        if grids and len(regions) == len(grids[0].regions) and all(
            a is b for a, b in zip(regions, grids[0].regions)
        ):
            grid_calls.append(len(ms))
        return plain(ms, regions)

    for module in (measures, weak, boosting, limits, recipes):
        monkeypatch.setattr(module, "mass_matrix", counting)
    model = fit_classifier(train, n_centers=4, radius_quantiles=(0.2, 0.6), rounds=3, seed=5)
    assert grid_calls == [len(train)]
    monkeypatch.undo()
    (grid,) = grids
    for pair_idx, ((a, b), ens) in enumerate(model.models.items()):
        pair = train.subset(np.nonzero(np.isin(train.labels, (a, b)))[0])
        expected = adaboost_fit(pair, 3, lambda d, w, r: exhaustive_search(d, grid, w), seed=5 + 11 + 7919 * pair_idx)
        assert ens.to_json() == expected.to_json()


def test_cached_learner_rejects_a_measure_not_in_train():
    train = _three_class_train()
    learner = make_cached_learner(GridSpec.balls([np.zeros(2)], [1.0]), train)
    twin = Measure(train.measures[0].points)  # equal values, another object
    data = LabeledDataset((twin,) + train.measures[1:2], np.array([0, 1]))
    with pytest.raises(ValueError):
        learner(data, np.full(2, 0.5), None)


def test_thin_cloud_cap():
    pts = np.vstack([np.full((50, 2), 0.5005), np.array([[0.9, 0.9]])])
    out = _thin_cloud(pts, res=0.02, cap=2)
    assert len(out) == 3  # 2 from the dense cell + the lone point
    sparse = np.random.default_rng(0).uniform(size=(30, 2))
    np.testing.assert_array_equal(_thin_cloud(sparse, res=0.02, cap=2), sparse)


def test_emit_rectangle_trace_schema(tmp_path):
    rng = np.random.default_rng(3)
    ms, ys = [], []
    for _ in range(12):
        ms.append(Measure(rng.uniform(0, 1, size=(4, 2))))
        ys.append(0)
        ms.append(Measure(rng.uniform(0.5, 1.5, size=(4, 2))))
        ys.append(1)
    data = LabeledDataset(tuple(ms), np.array(ys))
    grid = GridSpec.balls([np.full(2, 0.3), np.full(2, 1.2)], [0.4, 0.8])
    learner = make_cached_learner(grid, data)
    ens = adaboost_fit(data, rounds=4, learner=lambda d, w, r: learner(d, w, r))
    path = tmp_path / "trace.csv"
    emit_rectangle_trace(ens, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[:4] == ["stage", "alpha", "sign", "kind"]
    assert len(body) == len(ens.stages)
    for i, ((h, alpha), row) in enumerate(zip(ens.stages, body)):
        assert int(row[0]) == i
        assert float(row[1]) == alpha  # repr() round-trips exactly
        assert int(row[2]) == h.sign
        assert row[3] == "ball"
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
            ("setup", "d"): 1,
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
    assert json.loads(model.read_text()) == {"kind": "binary", **expected}


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
