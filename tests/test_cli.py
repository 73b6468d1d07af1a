import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import measureboost
from measureboost.boosting import OneVsOneModel
from measureboost.cli import _features, main
from measureboost.measures import LabeledDataset, Measure, load_dataset_jsonl, save_dataset_jsonl
from measureboost.ph.diagrams import load_diagrams_jsonl
from measureboost.recipes import classifier_predict, fit_classifier


def run(argv):
    return main(argv)


def test_gen_dataset(tmp_path):
    out = tmp_path / "data.jsonl"
    code = run(
        ["gen", "--generator", "sphere", "--out", str(out), "--count", "3",
         "--n-points", "20", "--radius", "2.0", "--label", "1", "--seed", "5"]
    )
    assert code == 0
    data = load_dataset_jsonl(out)
    assert len(data) == 3
    assert set(data.labels.tolist()) == {1}
    np.testing.assert_allclose(
        np.linalg.norm(data.measures[0].points, axis=1), 2.0, atol=1e-9
    )


def test_full_pipeline_train_predict_eval(tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    # two separable classes: tight blob vs wide blob (H0 structure differs)
    for path, seed0 in ((train, 0), (test, 1000)):
        run(["gen", "--generator", "ppp", "--out", str(tmp_path / "a.jsonl"),
             "--count", "6", "--mean-count", "15", "--radius", "0.2",
             "--label", "0", "--seed", str(seed0)])
        run(["gen", "--generator", "ppp", "--out", str(tmp_path / "b.jsonl"),
             "--count", "6", "--mean-count", "15", "--radius", "2.0",
             "--label", "1", "--seed", str(seed0 + 500)])
        lines = (tmp_path / "a.jsonl").read_text().splitlines()
        lines += (tmp_path / "b.jsonl").read_text().splitlines()
        path.write_text("\n".join(lines) + "\n")

    for split in ("train", "test"):
        assert run(["ph", "--input", str(tmp_path / f"{split}.jsonl"),
                    "--output", str(tmp_path / f"{split}_dgms.jsonl"),
                    "--max-dim", "1", "--max-value", "2.0"]) == 0

    model = tmp_path / "model.json"
    assert run(["train", "--input", str(tmp_path / "train_dgms.jsonl"),
                "--out", str(model), "--rounds", "5", "--n-centers", "8",
                "--dims", "0", "--truncation", "2.0"]) == 0
    obj = json.loads(model.read_text())
    assert set(obj) == {"labels", "stages"}  # the binary Ensemble's own JSON

    preds = tmp_path / "preds.jsonl"
    assert run(["predict", "--model", str(model),
                "--input", str(tmp_path / "test_dgms.jsonl"),
                "--out", str(preds), "--dims", "0"]) == 0
    rows = [json.loads(l) for l in preds.read_text().splitlines()]
    assert len(rows) == 12
    assert all(r["prediction"] in (0, 1) for r in rows)

    report = tmp_path / "report.json"
    assert run(["eval", "--model", str(model),
                "--input", str(tmp_path / "test_dgms.jsonl"),
                "--out", str(report), "--dims", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy ")
    acc = float(out.split()[-1])
    saved = json.loads(report.read_text())
    assert saved["accuracy"] == pytest.approx(acc, abs=5e-5)
    assert acc >= 0.9  # trivially separable task


def test_ph_meta_carries_cloud_and_label(tmp_path):
    data = tmp_path / "d.jsonl"
    run(["gen", "--generator", "orbit", "--out", str(data), "--count", "2",
         "--n-points", "30", "--label", "3"])
    dgms = tmp_path / "dg.jsonl"
    run(["ph", "--input", str(data), "--output", str(dgms),
         "--max-dim", "1", "--max-value", "0.5"])
    _, metas = load_diagrams_jsonl(dgms)
    assert {m["cloud"] for m in metas} == {0, 1}
    assert all(m["label"] == 3 for m in metas)


def test_bottleneck_command(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    run(["gen", "--generator", "sphere", "--out", str(data), "--count", "1",
         "--n-points", "25", "--radius", "1.0", "--seed", "2"])
    dgms = tmp_path / "dg.jsonl"
    run(["ph", "--input", str(data), "--output", str(dgms), "--max-dim", "2",
         "--max-value", "1.5"])
    assert run(["bottleneck", str(dgms), str(dgms), "--dim", "1"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_bottleneck_of_a_file_with_two_diagrams_of_dim_is_value_error(tmp_path, capsys):
    # comparing only the first diagram would print 0.0
    two, one = tmp_path / "two.jsonl", tmp_path / "one.jsonl"
    two.write_text('{"dim": 1, "pairs": [[0.1, 0.5]]}\n{"dim": 1, "pairs": [[0.1, 3.5]]}\n')
    one.write_text('{"dim": 1, "pairs": [[0.1, 0.5]]}\n')
    assert run(["bottleneck", str(two), str(one), "--dim", "1"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(two) in captured.err and "2 diagrams of dim 1" in captured.err


def test_missing_input_is_io_error(tmp_path):
    assert run(["ph", "--input", str(tmp_path / "nope.jsonl"),
                "--output", str(tmp_path / "x.jsonl")]) == 4


def test_bad_recipe_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nonsense]\nx = 1\n")
    assert run(["recipe", "rademacher-scaling", "--config", str(bad),
                "--outdir", str(tmp_path)]) == 3


def test_default_only_config_is_config_error(tmp_path, capsys):
    # [DEFAULT] is no recipe section: its keys would otherwise go unused
    cfg = tmp_path / "default.ini"
    cfg.write_text("[DEFAULT]\nn_draws = 5\n")
    assert run(["rademacher", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 3
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "recipe, text, key, raw",
    [
        ("rademacher-scaling", "[data]\nn_draws = lots\n", "[data] n_draws", "lots"),
        # small sizes, so that a run that reads the value as False ends quickly
        ("torus-vs-sphere", "[data]\nn_train = 2\nn_test = 2\nn_points = 20\nrandomized_size = maybe\n",
         "[data] randomized_size", "maybe"),
        # the Čech recipes build up to dimension max(dims) + 1: dims must list degrees 0 to 2
        ("torus-vs-sphere", "[filtration]\ndims =\n", "[filtration] dims", "()"),
        ("ppp-vs-gpp", "[filtration]\ndims = 0 3\n", "[filtration] dims", "(0, 3)"),
        ("orbit-5class-reduced", "[filtration]\ndims = -1\n", "[filtration] dims", "(-1,)"),
        ("torus-vs-sphere", "[filtration]\nmax_value = -1\n", "[filtration] max_value", "-1.0"),
        ("ppp-vs-gpp", "[filtration]\nmax_value = nan\n", "[filtration] max_value", "nan"),
        ("limit-check", "[setup]\nname = disk\n", "[setup] name", "'disk'"),
        ("limit-check", "[rectangles]\nr1 = 0.5 1.0 2.0\n", "[rectangles] r1", "(0.5, 1.0, 2.0)"),
    ],
)
def test_malformed_config_value_is_config_error(tmp_path, capsys, recipe, text, key, raw):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run(["recipe", recipe, "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert key in err and raw in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "recipe, text, message",
    [
        # max_dim is max(dims) + 1, and the orbit features are fixed
        ("torus-vs-sphere", "[filtration]\nmax_dim = 3\n", "unknown config key [filtration] max_dim"),
        ("orbit-5class-reduced", "[features]\ninclude_raw = no\n", "unknown config section [features]"),
    ],
)
def test_removed_config_key_is_config_error(tmp_path, capsys, recipe, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run(["recipe", recipe, "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_torus_vs_sphere_trains_on_h2(tmp_path, capsys):
    # dims = 2 builds up to tetrahedra, so the H2 diagrams are not empty
    cfg = tmp_path / "h2.ini"
    cfg.write_text("[data]\nn_train = 4\nn_test = 4\nn_points = 150\n\n"
                   "[filtration]\nmax_value = 3.0\ntruncation = 3.0\ndims = 2\n")
    assert run(["recipe", "torus-vs-sphere", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("accuracy ")
    diagrams, _ = load_diagrams_jsonl(tmp_path / "out" / "train_diagrams.jsonl")
    assert [dg.dim for dg in diagrams] == [0, 1, 2] * 4
    assert all(len(dg) for dg in diagrams if dg.dim == 2)


def test_empty_orbits_are_a_computation_error(tmp_path, capsys):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("[data]\nn_train_per_class = 2\nn_test_per_class = 1\norbit_length = 0\n")
    assert run(["recipe", "orbit-5class-reduced", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 5
    assert "no training measure has a support point" in capsys.readouterr().err


def _drop_field(path, field):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[-1].pop(field)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _orbit_diagrams(tmp_path):
    data = tmp_path / "d.jsonl"
    run(["gen", "--generator", "orbit", "--out", str(data), "--count", "2", "--n-points", "20"])
    dgms = tmp_path / "dg.jsonl"
    run(["ph", "--input", str(data), "--output", str(dgms), "--max-dim", "1", "--max-value", "0.5"])
    return data, dgms


@pytest.mark.parametrize(
    "reader, field",
    [("dataset", "label"), ("dataset", "points"), ("diagrams", "pairs"), ("diagrams", "dim"), ("groups", "cloud")],
)
def test_record_without_required_field_is_input_error(tmp_path, capsys, reader, field):
    data, dgms = _orbit_diagrams(tmp_path)
    capsys.readouterr()
    if reader == "dataset":  # load_dataset_jsonl
        bad, argv = data, ["ph", "--input", str(data), "--output", str(tmp_path / "out.jsonl")]
    elif reader == "diagrams":  # load_diagrams_jsonl
        bad, argv = dgms, ["bottleneck", str(dgms), str(dgms)]
    else:  # _group_diagrams, under train, predict and eval
        bad, argv = dgms, ["train", "--input", str(dgms), "--out", str(tmp_path / "model.json")]
    _drop_field(bad, field)
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert str(bad) in err and repr(field) in err


@pytest.mark.parametrize(
    "command, line, field",
    [
        ("ph", "5", None),
        ("ph", "null", None),
        ("train", "5", None),
        ("bottleneck", '{"dim": 1, "pairs": 3}', "pairs"),
        ("ph", '{"points": [[0, "x"]], "label": 0}', "points"),
        ("ph", '{"points": [[0, 1]], "label": "a"}', "label"),
        ("ph", '{"points": [[], [], []], "label": 0}', "points"),  # three points without coordinates
    ],
    ids=["ph-int", "ph-null", "train-int", "bottleneck-pairs", "ph-points", "ph-label", "ph-points-no-coordinates"],
)
def test_malformed_record_is_input_error(tmp_path, capsys, command, line, field):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n" + line + "\n")  # the blank line is not a record
    argv = {
        "ph": ["ph", "--input", str(bad), "--output", str(tmp_path / "out.jsonl")],
        "train": ["train", "--input", str(bad), "--out", str(tmp_path / "model.json")],
        "bottleneck": ["bottleneck", str(bad), str(bad)],
    }[command]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert str(bad) in err and "record 1 " in err
    if field is not None:
        assert repr(field) in err


@pytest.mark.parametrize(
    "command, lines, index, field",
    [
        ("ph", ['{"points": [[0, 1]], "label": 0, "weights": "abc"}'], 1, "weights"),
        ("ph", ['{"points": [[0, 1]], "label": 0, "weights": [-1]}'], 1, "weights"),
        ("ph", ['{"points": [[0, 1], [1, 1]], "label": 0, "weights": [1]}'], 1, "weights"),
        ("bottleneck", ['{"dim": 1, "pairs": [[1, 0]]}'], 1, "pairs"),
        ("ph", ['{"points": [[0, 1]], "label": 0}', '{"points": [], "label": 0}',
                '{"points": [[0, 1, 2]], "label": 0}'], 3, "points"),
        ("bottleneck", ['{"dim": 1, "pairs": [[0.1, 0.4]]}', '{"dim": 1, "pairs": [[NaN, 1.0], [0.2, 0.5]]}'], 2, "pairs"),
        ("bottleneck", ['{"dim": 1, "pairs": [[-Infinity, 1.0]]}'], 1, "pairs"),
        ("bottleneck", ['{"dim": 1, "pairs": [[0.2, NaN]]}'], 1, "pairs"),
        ("train", ['{"dim": 1, "pairs": [[0.1, 0.4]], "cloud": 0, "label": 0}',
                   '{"dim": 1, "pairs": [[NaN, 1.0], [0.2, 0.5]], "cloud": 1, "label": 1}'], 2, "pairs"),
        ("train", ['{"dim": 0, "pairs": [[0.0, 0.4]], "cloud": 0, "label": 0}',
                   '{"dim": 0, "pairs": [[0.0, 0.5]], "cloud": 1, "label": 1}',
                   '{"dim": 1, "pairs": [[0.1, 0.4]], "cloud": 0, "label": 1}'], 3, "label"),
    ],
    ids=["weights-string", "weights-negative", "weights-length", "birth-after-death", "mixed-dimensions",
         "birth-nan", "birth-minus-inf", "death-nan", "train-birth-nan", "train-conflicting-labels"],
)
def test_malformed_field_names_file_record_and_field(tmp_path, capsys, command, lines, index, field):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(line + "\n" for line in lines))
    argv = {
        "ph": ["ph", "--input", str(bad), "--output", str(tmp_path / "out.jsonl")],
        "bottleneck": ["bottleneck", str(bad), str(bad)],
        "train": ["train", "--input", str(bad), "--out", str(tmp_path / "model.json")],
    }[command]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert str(bad) in err and f"record {index} " in err and repr(field) in err


def test_labels_are_required_to_train_and_evaluate_only(tmp_path, capsys):
    _, dgms = _orbit_diagrams(tmp_path)
    model = tmp_path / "model.json"
    assert run(["train", "--input", str(dgms), "--out", str(model), "--rounds", "2",
                "--n-centers", "3", "--dims", "0"]) == 0
    rows = [json.loads(line) for line in dgms.read_text().splitlines()]
    for r in rows:
        r.pop("label")
    dgms.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    for argv in (["train", "--input", str(dgms), "--out", str(tmp_path / "m2.json")],
                 ["eval", "--model", str(model), "--input", str(dgms), "--dims", "0"]):
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert str(dgms) in err and "'label'" in err
    preds = tmp_path / "preds.jsonl"
    assert run(["predict", "--model", str(model), "--input", str(dgms), "--out", str(preds),
                "--dims", "0"]) == 0
    assert [json.loads(line)["cloud"] for line in preds.read_text().splitlines()] == [0, 1]


def test_predict_keeps_the_input_cloud_ids(tmp_path):
    _, dgms = _orbit_diagrams(tmp_path)
    model = tmp_path / "model.json"
    assert run(["train", "--input", str(dgms), "--out", str(model), "--rounds", "2",
                "--n-centers", "3", "--dims", "0"]) == 0
    contiguous = tmp_path / "contiguous.jsonl"
    assert run(["predict", "--model", str(model), "--input", str(dgms), "--out", str(contiguous),
                "--dims", "0"]) == 0
    rows = [json.loads(line) for line in dgms.read_text().splitlines()]
    for r in rows:
        r["cloud"] = {0: 9, 1: 7}[r["cloud"]]
    dgms.write_text("".join(json.dumps(r) + "\n" for r in rows))
    renamed = tmp_path / "renamed.jsonl"
    assert run(["predict", "--model", str(model), "--input", str(dgms), "--out", str(renamed),
                "--dims", "0"]) == 0
    want = [json.loads(line) for line in contiguous.read_text().splitlines()]
    got = [json.loads(line) for line in renamed.read_text().splitlines()]
    # one row per cloud in increasing id, each with the prediction of its diagrams
    assert [r["cloud"] for r in got] == [7, 9]
    assert [r["prediction"] for r in got] == [want[1]["prediction"], want[0]["prediction"]]


def test_recipe_multiclass_model_predicts_and_evaluates(tmp_path, capsys):
    # a one-vs-one model.json as the recipes write it, with no key but its
    # per-pair models to tell it from a binary one
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(3), 5)
    dgms = tmp_path / "dg.jsonl"
    dgms.write_text("".join(
        json.dumps({"dim": 0, "pairs": [[0, d] for d in (0.3 * c + rng.uniform(0, 0.2, 3)).tolist()] + [[0, "inf"]],
                    "cloud": i, "label": int(c)}) + "\n"
        for i, c in enumerate(labels)
    ))
    _, meas, _ = _features(dgms, [0], 2.0)
    model = fit_classifier(LabeledDataset(tuple(meas), labels), 4, (0.2, 0.6), 3, 0)
    assert isinstance(model, OneVsOneModel)
    path = tmp_path / "model.json"
    with open(path, "w") as fh:
        json.dump(model.to_json(), fh, indent=2)
    old = tmp_path / "old-model.json"  # a "kind" key, as older `train` runs wrote it, still loads
    old.write_text(json.dumps({"kind": "one-vs-one", **model.to_json()}))
    want = classifier_predict(model, meas)
    for model_file in (path, old):
        preds = tmp_path / "preds.jsonl"
        assert run(["predict", "--model", str(model_file), "--input", str(dgms), "--out", str(preds), "--dims", "0"]) == 0
        assert [json.loads(line)["prediction"] for line in preds.read_text().splitlines()] == want.tolist()
        capsys.readouterr()
        assert run(["eval", "--model", str(model_file), "--input", str(dgms), "--dims", "0"]) == 0
        assert capsys.readouterr().out == f"accuracy {np.mean(want == labels):.4f}\n"


def _three_class_diagrams(path, classes):
    rng = np.random.default_rng(0)
    path.write_text("".join(
        json.dumps({"dim": 0, "pairs": [[0, d] for d in (0.3 * i + rng.uniform(0, 0.2, 3)).tolist()],
                    "cloud": 5 * i + j, "label": c}) + "\n"
        for i, c in enumerate(classes) for j in range(5)
    ))


def test_negative_labels_round_trip_through_the_model_file(tmp_path, capsys):
    # labels -2, -1 and 0 give the one-vs-one keys "-2--1", "-2-0" and "-1-0"
    dgms, model, preds = tmp_path / "dg.jsonl", tmp_path / "model.json", tmp_path / "preds.jsonl"
    _three_class_diagrams(dgms, (-2, -1, 0))
    assert run(["train", "--input", str(dgms), "--out", str(model), "--rounds", "3", "--n-centers", "4",
                "--dims", "0"]) == 0
    assert sorted(json.loads(model.read_text())["models"]) == ["-1-0", "-2--1", "-2-0"]
    assert run(["predict", "--model", str(model), "--input", str(dgms), "--out", str(preds), "--dims", "0"]) == 0
    got = [json.loads(line)["prediction"] for line in preds.read_text().splitlines()]
    assert set(got) <= {-2, -1, 0}
    capsys.readouterr()
    assert run(["eval", "--model", str(model), "--input", str(dgms), "--dims", "0"]) == 0
    assert capsys.readouterr().out == f"accuracy {np.mean(np.array(got) == np.repeat([-2, -1, 0], 5)):.4f}\n"


@pytest.mark.parametrize("key", ["0-1-2", "0", "a-b", "0--", "1.5-2"])
def test_model_key_that_is_not_two_labels_is_io_error(tmp_path, capsys, key):
    dgms, model = tmp_path / "dg.jsonl", tmp_path / "model.json"
    _three_class_diagrams(dgms, (0, 1, 2))
    assert run(["train", "--input", str(dgms), "--out", str(model), "--rounds", "2", "--n-centers", "3",
                "--dims", "0"]) == 0
    obj = json.loads(model.read_text())
    obj["models"][key] = obj["models"].pop("0-1")
    model.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["eval", "--model", str(model), "--input", str(dgms), "--dims", "0"]) == 4
    assert f"model key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("dims, cause", [("1", "sit on k-means centers"), ("2", "no training measure has a support point")])
def test_degenerate_training_set_names_the_cause(tmp_path, capsys, dims, cause):
    # four clouds with the one H1 pair (0.5, 1.5): at --dims 1 every support
    # point is the same point, so every radius is 0; at --dims 2 there is none
    dgms = tmp_path / "dg.jsonl"
    dgms.write_text("".join(
        json.dumps({"dim": 1, "pairs": [[0.5, 1.5]], "cloud": i, "label": i % 2}) + "\n" for i in range(4)
    ))
    argv = ["train", "--input", str(dgms), "--out", str(tmp_path / "m.json"), "--dims", dims, "--truncation", "0.1"]
    assert run(argv) == 5
    assert cause in capsys.readouterr().err


def test_train_rejects_zero_centers(tmp_path, capsys):
    _, dgms = _orbit_diagrams(tmp_path)
    capsys.readouterr()
    argv = ["train", "--input", str(dgms), "--out", str(tmp_path / "m.json"), "--n-centers", "0", "--dims", "0"]
    assert run(argv) == 5
    assert "error: k = 0 must be between 1" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_bad_model_json_is_io_error(tmp_path):
    model = tmp_path / "model.json"
    model.write_text("{not json")
    dgms = tmp_path / "dg.jsonl"
    data = tmp_path / "d.jsonl"
    run(["gen", "--generator", "orbit", "--out", str(data), "--count", "1",
         "--n-points", "20"])
    run(["ph", "--input", str(data), "--output", str(dgms), "--max-dim", "1",
         "--max-value", "0.5"])
    assert run(["predict", "--model", str(model), "--input", str(dgms),
                "--out", str(tmp_path / "p.jsonl")]) == 4


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_model_that_is_not_an_object_is_io_error(tmp_path, capsys, command):
    model = tmp_path / "model.json"
    model.write_text("[1, 2]")
    dgms = tmp_path / "dg.jsonl"
    dgms.write_text(json.dumps({"dim": 0, "pairs": [[0, 0.5]], "cloud": 0, "label": 0}) + "\n")
    out = tmp_path / "out.json"
    assert run([command, "--model", str(model), "--input", str(dgms), "--out", str(out), "--dims", "0"]) == 4
    assert "a model must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def _ph_peak(tmp_path, pts, *options):
    """Exit code and tracemalloc peak of CLI ph on one cloud at the default --max-value inf."""
    import scipy.spatial  # the build imports it lazily: keep that import out of the peak

    data = tmp_path / "d.jsonl"
    save_dataset_jsonl(LabeledDataset((Measure(pts),), np.array([0])), data)
    tracemalloc.start()
    try:
        code = run(["ph", "--input", str(data), "--output", str(tmp_path / "dg.jsonl"), *options])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_ph_over_budget_fails_before_allocating(tmp_path, capsys):
    # C(400, 3) > 10^7 candidate triangles; the guard must fire before their
    # arrays (hundreds of MB) exist.  Rips keeps every candidate, and Cech
    # does too on collinear points, where Qhull fails.  On 110 points the
    # C(110, 4) > 5 * 10^6 tetrahedra are counted from the triangle join
    uniform = np.random.default_rng(0).uniform(0, 1, size=(400, 3))
    collinear = np.linspace(0, 1, 400)[:, None] * np.array([1.0, 2.0, -1.0])
    rips = ["--complex", "rips"]
    for pts, options in ((uniform, rips), (collinear, []), (uniform[:110], [*rips, "--max-dim", "3"])):
        code, peak = _ph_peak(tmp_path, pts, *options)
        assert code == 5
        assert "budget" in capsys.readouterr().err
        assert peak < 100e6


def test_ph_cech_builds_400_points_at_inf(tmp_path):
    # the Delaunay faces are the only Cech candidates in general position
    pts = np.random.default_rng(0).uniform(0, 1, size=(400, 3))
    code, peak = _ph_peak(tmp_path, pts)
    assert code == 0
    assert peak < 100e6


def test_ph_edge_budget_fails_before_allocating(tmp_path, capsys):
    # C(4000, 2) > 5 * 10^6 candidate edges at inf, counted before any edge array exists
    pts = np.random.default_rng(0).uniform(0, 1, size=(4000, 2))
    code, peak = _ph_peak(tmp_path, pts, "--max-dim", "1")
    assert code == 5
    assert "budget" in capsys.readouterr().err
    assert peak < 100e6


def test_ph_sparse_build_holds_no_distance_matrix(tmp_path):
    # a 20000 x 20000 distance matrix alone would take 3.2 GB; at this radius
    # the KD-tree finds about 63k edges
    pts = np.random.default_rng(0).uniform(0, 1, size=(20_000, 2))
    code, peak = _ph_peak(tmp_path, pts, "--max-dim", "1", "--max-value", "0.005")
    assert code == 0
    assert peak < 100e6


@pytest.mark.parametrize("setup", ["circle", "square"])
def test_limit_check_degree_2_needs_a_3d_setup(tmp_path, capsys, setup):
    # both setups lie in the plane, where degree 2 reads 0 whatever the cloud
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[setup]\nname = {setup}\nk = 2\n\n[data]\nsizes = 50\nn_seeds = 1\nn_mc = 10\n")
    assert run(["limit-check", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 5
    assert f"error: k = 2 needs a 3-D setup: {setup!r} lies in the plane" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", [-1, 3])
def test_limit_check_above_degree_2_fails_before_writing(tmp_path, capsys, k):
    # a degree outside 0..2 is a config error, refused before the output directory exists
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[setup]\nk = {k}\n\n[data]\nsizes = 50\nn_seeds = 1\nn_mc = 10\n")
    assert run(["limit-check", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 3
    assert f"bad value for [setup] k: {k}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ph_max_dim_out_of_range_fails_before_writing(tmp_path, capsys):
    # degree k needs max_dim k + 1; ph takes max_dim directly, in the range 0..3
    data, _ = _orbit_diagrams(tmp_path)
    capsys.readouterr()
    for max_dim in ("-1", "4"):
        out = tmp_path / f"dg{max_dim}.jsonl"
        assert run(["ph", "--input", str(data), "--output", str(out), "--max-dim", max_dim]) == 5
        assert "error: max_dim must be between 0 and 3" in capsys.readouterr().err
        assert not out.exists()


def test_ph_rejects_nan_max_value(tmp_path, capsys):
    # against NaN or a negative bound every edge test fails, which kept only
    # the vertices, each an essential H0 class born above the bound
    data, _ = _orbit_diagrams(tmp_path)
    capsys.readouterr()
    for bound in ("nan", "-1"):
        out = tmp_path / f"dg{bound}.jsonl"
        assert run(["ph", "--input", str(data), "--output", str(out), "--max-value", bound]) == 5
        assert f"error: max_value must be a number >= 0, got {float(bound)}" in capsys.readouterr().err
        assert not out.exists()
    # 0 keeps only the vertices, each an essential H0 class born at its bound
    assert run(["ph", "--input", str(data), "--output", str(tmp_path / "dg0.jsonl"), "--max-value", "0"]) == 0


def test_nan_truncation_names_the_flag(tmp_path, capsys):
    # the truncation replaces the infinite death of each H0 diagram
    dgms = tmp_path / "dg.jsonl"
    dgms.write_text("".join(
        json.dumps({"dim": 0, "pairs": [[0, 0.1 * (i + 1)], [0, "inf"]], "cloud": i, "label": i % 2}) + "\n"
        for i in range(6)
    ))
    model = tmp_path / "m.json"
    assert run(["train", "--input", str(dgms), "--out", str(model), "--n-centers", "2", "--dims", "0"]) == 0
    capsys.readouterr()
    for command in ("train", "predict", "eval"):
        out = tmp_path / f"{command}.out"
        argv = [command, "--input", str(dgms), "--out", str(out), "--dims", "0", "--truncation", "nan"]
        if command != "train":
            argv += ["--model", str(model)]
        assert run(argv) == 5
        assert "error: truncation must be finite to replace infinite deaths, got nan" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("rect", ["0.5 1.0 2.0", "0.5 1.0 1.0 2.0 3.0"])
def test_limit_check_rectangle_needs_four_numbers(tmp_path, capsys, rect):
    # s t u v: a rectangle with another count of numbers is a config error
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[rectangles]\nr1 = {rect}\n\n[data]\nsizes = 50\nn_seeds = 1\nn_mc = 10\n")
    assert run(["limit-check", "--config", str(cfg), "--outdir", str(tmp_path)]) == 3
    vals = tuple(map(float, rect.split()))
    assert f"config error: 'bad value for [rectangles] r1: {vals!r}" in capsys.readouterr().err
    assert not (tmp_path / "limit_check.csv").exists()


@pytest.mark.parametrize("setup, key", [("name = circle\nd = 2", "[setup] d"), ("name = triangle", "[setup] name")])
def test_limit_check_setup_config_errors(tmp_path, capsys, setup, key):
    # d follows from the setup name, so it is not a key
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[setup]\n{setup}\n")
    assert run(["limit-check", "--config", str(cfg), "--outdir", str(tmp_path)]) == 3
    assert key in capsys.readouterr().err


def test_bottleneck_missing_dim_is_value_error(tmp_path):
    data = tmp_path / "d.jsonl"
    run(["gen", "--generator", "orbit", "--out", str(data), "--count", "1",
         "--n-points", "20"])
    dgms = tmp_path / "dg.jsonl"
    run(["ph", "--input", str(data), "--output", str(dgms), "--max-dim", "1",
         "--max-value", "0.5"])
    assert run(["bottleneck", str(dgms), str(dgms), "--dim", "7"]) == 5


def test_argparse_error_exit_code(tmp_path):
    # argparse exits 2 before any command runs, so no file is written
    out = str(tmp_path / "x")
    for argv in (
        ["gen", "--generator", "not-a-generator", "--out", out],
        ["gen", "--generator", "torus", "--out", out, "--count", "-2"],
        ["gen", "--generator", "torus", "--out", out, "--count", "0"],
        ["recipe", "torus-vs-sphere", "--workers", "0", "--outdir", out],
        ["recipe", "torus-vs-sphere", "--workers", "-4", "--outdir", out],
        ["limit-check", "--workers", "0", "--outdir", out],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert not os.path.exists(out)


def test_recipe_alias_rademacher(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[data]\nsizes = 20 40\nn_draws = 40\n")
    assert run(["rademacher", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "rademacher.csv").exists()


def test_cli_import_loads_no_scipy():
    # scipy takes about half a second to import, so ph/ imports it only in
    # the functions that use it; every CLI start would pay it otherwise
    src = os.path.dirname(os.path.dirname(measureboost.__file__))
    code = "import sys, measureboost.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"
