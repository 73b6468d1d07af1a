import json

import numpy as np
import pytest

from measureboost import boosting
from measureboost.boosting import (
    Ensemble,
    OneVsOneModel,
    adaboost_fit,
    ensemble_predict,
    one_vs_one_fit,
    one_vs_one_predict,
    staged_training_error,
)
from measureboost.measures import LabeledDataset, Measure
from measureboost.regions import Ball, region_to_json
from measureboost.weak import WeakClassifier, ball_grid
from weak_search import search


def unit(points):
    return Measure(np.asarray(points, dtype=float))


def grid_learner(grid, thresholds=None):
    # thresholds: one row per region of the grid, or None for the default rows
    return lambda data, w: search(data, grid, w, thresholds=thresholds)


def pair_learners(grid):
    # one_vs_one_fit's learner_for: each pair's search derives its own masses
    return lambda cols: grid_learner(grid)


def separable_data():
    rng = np.random.default_rng(0)
    ms, ys = [], []
    for _ in range(8):
        ms.append(Measure(rng.uniform(0, 1, size=(4, 2))))
        ys.append(1)
        ms.append(Measure(rng.uniform(2, 3, size=(4, 2))))
        ys.append(0)
    return LabeledDataset(tuple(ms), np.array(ys))


def xor_like_data(seed=0):
    # label depends on masses in two disjoint balls: 1 iff the counts differ
    rng = np.random.default_rng(seed)
    ms, ys = [], []
    for _ in range(40):
        a = rng.integers(0, 3)
        b = rng.integers(0, 3)
        pts = np.vstack(
            [
                rng.normal(0.0, 0.05, size=(a, 2)),
                rng.normal(5.0, 0.05, size=(b, 2)) if b else np.zeros((0, 2)),
                rng.uniform(10, 11, size=(1, 2)),  # filler so no measure is empty
            ]
        )
        ms.append(Measure(pts))
        ys.append(int(a != b))
    return LabeledDataset(tuple(ms), np.array(ys))


def test_perfect_learner_stops_after_one_stage():
    data = separable_data()
    grid = ball_grid([np.array([0.5, 0.5])], [1.0])
    ens = adaboost_fit(data, rounds=10, learner=grid_learner(grid, [[0.5]]))
    assert len(ens.stages) == 1
    assert staged_training_error(ens, data)[-1] == 0.0


def test_constant_labels_give_constant_stage():
    ms = tuple(unit([[0.0, 0.0]]) for _ in range(4))
    data = LabeledDataset(ms, np.ones(4, dtype=int))
    grid = ball_grid([np.zeros(2)], [1.0])
    ens = adaboost_fit(data, rounds=5, learner=grid_learner(grid, [[0.5]]))
    assert len(ens.stages) == 1
    assert ensemble_predict(ens, ms).tolist() == [1, 1, 1, 1]


def test_useless_first_round_is_kept_with_negative_alpha():
    # empty measures have mass 0 everywhere: both orientations predict 0 and
    # miss the three 1-labels, so round 0's error is 0.75
    ms = tuple(Measure(np.zeros((0, 2))) for _ in range(4))
    data = LabeledDataset(ms, np.array([0, 1, 1, 1]))
    grid = ball_grid([np.zeros(2)], [1.0])
    ens = adaboost_fit(data, rounds=5, learner=grid_learner(grid))
    assert len(ens.stages) == 1
    assert ens.stages[0][1] == pytest.approx(0.5 * np.log(0.25 / 0.75))
    assert ensemble_predict(ens, ms).tolist() == [1, 1, 1, 1]
    assert staged_training_error(ens, data) == [0.25]


def test_boosting_beats_single_weak_on_xor():
    data = xor_like_data()
    centers = [np.zeros(2), np.array([5.0, 5.0])]
    radii = [1.0]
    grid = ball_grid(centers, radii)
    learner = grid_learner(grid)
    h, single_err, _ = learner(data, np.full(len(data), 1 / len(data)))
    ens = adaboost_fit(data, rounds=10, learner=learner)
    boosted_err = staged_training_error(ens, data)[-1]
    assert boosted_err <= single_err + 1e-12


def test_training_error_never_above_stage_one():
    for seed in range(3):
        data = xor_like_data(seed)
        grid = ball_grid([np.zeros(2), np.array([5.0, 5.0])], [1.0, 2.0])
        ens = adaboost_fit(data, rounds=8, learner=grid_learner(grid))
        errs = staged_training_error(ens, data)
        assert errs[-1] <= errs[0] + 1e-12


def test_alphas_finite_and_capped():
    data = separable_data()
    grid = ball_grid([np.array([0.5, 0.5])], [1.0])
    ens = adaboost_fit(data, rounds=3, learner=grid_learner(grid, [[0.5]]))
    for _, alpha in ens.stages:
        assert np.isfinite(alpha)
        assert alpha <= 0.5 * np.log((1 - 1e-10) / 1e-10) + 1e-9


def test_tie_score_resolves_to_first_label():
    h = WeakClassifier(Ball(np.zeros(2), 1.0), 10.0, 1)  # always predicts 0
    hflip = WeakClassifier(Ball(np.zeros(2), 1.0), -10.0, 1)  # always predicts 1
    ens = Ensemble(((h, 1.0), (hflip, 1.0)), labels=(0, 1))
    assert ensemble_predict(ens, [unit([[0.0, 0.0]]), Measure(np.zeros((0, 2)))]).tolist() == [0, 0]


def test_ensemble_json_roundtrip():
    data = separable_data()
    grid = ball_grid([np.array([0.5, 0.5])], [1.0, 2.0])
    ens = adaboost_fit(data, rounds=4, learner=grid_learner(grid))
    back = Ensemble.from_json(ens.to_json())
    assert back.labels == ens.labels
    assert len(back.stages) == len(ens.stages)
    np.testing.assert_array_equal(ensemble_predict(back, data.measures), ensemble_predict(ens, data.measures))


def three_class_data():
    rng = np.random.default_rng(2)
    ms, ys = [], []
    anchors = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (0.0, 5.0)}
    for c, (ax, ay) in anchors.items():
        for _ in range(6):
            ms.append(Measure(rng.normal((ax, ay), 0.2, size=(4, 2))))
            ys.append(c)
    return LabeledDataset(tuple(ms), np.array(ys))


def test_one_vs_one_multiclass():
    data = three_class_data()
    grid = ball_grid(
        [np.zeros(2), np.array([5.0, 0.0]), np.array([0.0, 5.0])], [1.0]
    )
    model = one_vs_one_fit(data, rounds=4, learner_for=pair_learners(grid))
    assert len(model.models) == 3
    np.testing.assert_array_equal(one_vs_one_predict(model, data.measures), data.labels)


def test_one_vs_one_asks_each_pair_for_its_learner():
    # learner_for gets the pair's positions in the data, in class-pair order
    data = three_class_data()
    grid = ball_grid([np.zeros(2), np.array([5.0, 0.0])], [1.0])
    asked = []
    model = one_vs_one_fit(data, rounds=2, learner_for=lambda cols: asked.append(cols) or grid_learner(grid))
    assert list(model.models) == [(0, 1), (0, 2), (1, 2)]
    for cols, pair in zip(asked, model.models):
        np.testing.assert_array_equal(cols, np.flatnonzero(np.isin(data.labels, pair)))


def _reference_vote(ens, mu):
    # one measure at a time, the stage votes summed by Python in stage order
    score = sum(alpha * (2 * int(h.predict([mu])[0]) - 1) for h, alpha in ens.stages)
    return ens.labels[1] if score > 0 else ens.labels[0]


def test_one_vs_one_predict_is_one_mass_matrix_pass(monkeypatch):
    data = three_class_data()
    grid = ball_grid([np.zeros(2), np.array([5.0, 0.0]), np.array([0.0, 5.0])], [1.0, 3.0])
    fitted = one_vs_one_fit(data, rounds=4, learner_for=pair_learners(grid))
    # every class wins one pair, (0, 1) by an exact zero score, so every
    # measure is a three-way tie that goes to class 0
    always = lambda y: WeakClassifier(Ball(np.zeros(2), 1.0), -1.0, 1 if y else -1)
    cyclic = OneVsOneModel(
        {(1, 2): Ensemble(((always(0), 0.7),), (1, 2)),
         (0, 2): Ensemble(((always(1), 0.4),), (0, 2)),
         (0, 1): Ensemble(((always(1), 0.2), (always(0), 0.2)), (0, 1))},
        (2, 1, 0),
    )
    ms = data.measures + (Measure(np.zeros((0, 2))),)
    for model in (fitted, cyclic):
        expected = []
        for mu in ms:
            votes = {c: 0 for c in model.labels}
            for ens in model.models.values():
                votes[_reference_vote(ens, mu)] += 1
            expected.append(max(sorted(votes), key=lambda c: votes[c]))
        calls = []
        plain = boosting.mass_matrix
        monkeypatch.setattr(boosting, "mass_matrix", lambda m, r: calls.append(len(r)) or plain(m, r))
        preds = one_vs_one_predict(model, ms)
        monkeypatch.undo()
        regions = {json.dumps(region_to_json(h.region)) for e in model.models.values() for h, _ in e.stages}
        assert calls == [len(regions)]  # one row per distinct stage region
        assert preds.tolist() == expected
    assert set(preds.tolist()) == {0}


def test_ensemble_predict_matches_per_measure_votes():
    for seed in range(3):
        data = xor_like_data(seed)
        ens = adaboost_fit(data, rounds=8, learner=grid_learner(ball_grid([np.zeros(2), np.array([5.0, 5.0])], [1.0, 2.0])))
        assert ensemble_predict(ens, data.measures).tolist() == [_reference_vote(ens, mu) for mu in data.measures]
        errors = staged_training_error(ens, data)
        assert errors[-1] == np.mean(ensemble_predict(ens, data.measures) != data.labels)


def test_one_vs_one_json_roundtrip():
    data = three_class_data()
    grid = ball_grid([np.zeros(2), np.array([5.0, 0.0])], [1.0])
    model = one_vs_one_fit(data, rounds=2, learner_for=pair_learners(grid))
    back = OneVsOneModel.from_json(model.to_json())
    np.testing.assert_array_equal(one_vs_one_predict(back, data.measures), one_vs_one_predict(model, data.measures))


def test_one_vs_one_needs_two_classes():
    ms = tuple(unit([[0.0, 0.0]]) for _ in range(3))
    data = LabeledDataset(ms, np.zeros(3, dtype=int))
    grid = ball_grid([np.zeros(2)], [1.0])
    with pytest.raises(ValueError):
        one_vs_one_fit(data, rounds=2, learner_for=pair_learners(grid))


def test_fit_is_deterministic():
    data = xor_like_data(9)
    grid = ball_grid([np.zeros(2), np.array([5.0, 5.0])], [1.0, 2.0])
    e1 = adaboost_fit(data, rounds=5, learner=grid_learner(grid))
    e2 = adaboost_fit(data, rounds=5, learner=grid_learner(grid))
    assert e1.to_json() == e2.to_json()
