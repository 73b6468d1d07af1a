"""Command-line interface: data generation, diagram computation, training,
prediction, evaluation, distances, and the bundled experiment recipes.

Exit codes: 0 success, 2 argument errors (argparse), 3 config errors,
4 input/output errors (malformed JSONL records and model files too), 5 computation errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import datagen
from .boosting import Ensemble, OneVsOneModel
from .measures import LabeledDataset, Measure, _malformed, load_dataset_jsonl, require_fields, save_dataset_jsonl
from .metrics import evaluate
from .ph import cech_filtration, persistence, rips_filtration
from .ph.bottleneck import bottleneck
from .ph.diagrams import load_diagrams_jsonl
from .recipes import (
    RECIPES, ConfigError, classifier_predict, diagrams_to_feature_measure, fit_classifier, run_experiment, save_cloud_diagrams
)


def _gen(args) -> int:
    kind = args.generator
    measures, labels = [], []
    for j in range(args.count):
        s = args.seed + 13 * j
        if kind == "torus":
            pts = datagen.sample_torus(args.n_points, args.outer_radius, args.inner_radius, s)
        elif kind == "sphere":
            pts = datagen.sample_sphere(args.n_points, args.radius, s)
        elif kind == "ppp":
            pts = datagen.sample_ppp_disk(args.mean_count, args.radius, s)
        elif kind == "ginibre":
            pts = datagen.sample_ginibre(args.mean_count, s, args.radius)
        else:  # orbit
            pts = datagen.orbit(args.rho, args.n_points, s)
        if args.noise > 0:
            pts = datagen.add_gaussian_noise(pts, args.noise, s + 1)
        measures.append(Measure(pts))
        labels.append(args.label)
    save_dataset_jsonl(LabeledDataset(tuple(measures), np.array(labels)), args.out)
    return 0


def _ph(args) -> int:
    data = load_dataset_jsonl(args.input)
    build = rips_filtration if args.complex == "rips" else cech_filtration
    fcs = (build(mu.points, max_dim=args.max_dim, max_value=args.max_value) for mu in data.measures)
    per_cloud = [persistence(fc, include_zero_length=args.include_zero_length) for fc in fcs]
    save_cloud_diagrams(per_cloud, data.labels, args.output)
    return 0


_LABELED = {"cloud": int, "label": int}  # the meta fields of training and evaluation diagrams


def _group_diagrams(path, fields):
    """Diagrams JSONL with cloud (and label) meta -> (cloud ids, per-cloud
    diagram lists, labels), in increasing cloud id.

    `fields` are the meta keys every record must carry, with their
    converters; the records of one cloud must agree on a required label.
    """
    diagrams, metas = load_diagrams_jsonl(path)
    groups, labels = {}, {}
    for index, (dg, meta) in enumerate(zip(diagrams, metas), 1):
        require_fields(meta, fields, path, index)
        cloud = meta["cloud"]
        groups.setdefault(cloud, []).append(dg)
        if "label" in fields and labels.setdefault(cloud, meta["label"]) != meta["label"]:
            raise _malformed(path, index, "label", f"cloud {cloud} has label {labels[cloud]} in an earlier record")
    ids = sorted(groups)
    return ids, [groups[i] for i in ids], [labels.get(i) for i in ids]


def _features(path, dims, truncation, fields=_LABELED):
    ids, per_cloud, labels = _group_diagrams(path, fields)
    meas = [diagrams_to_feature_measure(d, tuple(dims), truncation) for d in per_cloud]
    return ids, meas, labels


def _train(args) -> int:
    _, meas, labels = _features(args.input, args.dims, args.truncation)
    data = LabeledDataset(tuple(meas), np.array(labels))
    model = fit_classifier(data, args.n_centers, args.radius_quantiles, args.rounds, args.seed)
    with open(args.out, "w") as fh:
        json.dump(model.to_json(), fh, indent=2)
    return 0


def _load_model(path):
    """A `train` or recipe model.json: one-vs-one iff it holds per-pair models."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise KeyError(f"{path}: a model must be a JSON object")
    return OneVsOneModel.from_json(obj) if "models" in obj else Ensemble.from_json(obj)


def _predict(args) -> int:
    model = _load_model(args.model)
    ids, meas, _ = _features(args.input, args.dims, args.truncation, {"cloud": int})
    preds = classifier_predict(model, meas)
    with open(args.out, "w") as fh:
        for cloud, y in zip(ids, preds):
            fh.write(json.dumps({"cloud": cloud, "prediction": int(y)}) + "\n")
    return 0


def _eval(args) -> int:
    model = _load_model(args.model)
    _, meas, labels = _features(args.input, args.dims, args.truncation)
    report = evaluate(np.array(labels), classifier_predict(model, meas))
    if args.out:
        report.save(args.out)
    print(f"accuracy {report.accuracy:.4f}")
    return 0


def _bottleneck(args) -> int:
    paths = (args.first, args.second)
    found = [[d for d in load_diagrams_jsonl(path)[0] if d.dim == args.dim] for path in paths]
    for path, ds in zip(paths, found):
        if len(ds) != 1:
            raise ValueError(f"{path} holds {len(ds)} diagrams of dim {args.dim}; bottleneck compares exactly one per file")
    print(bottleneck(found[0][0], found[1][0]))
    return 0


def _recipe(args) -> int:
    overrides = {}
    if args.outdir:
        overrides[("output", "dir")] = args.outdir
    if args.seed is not None:
        overrides[("seeds", "base")] = args.seed
    result = run_experiment(args.name, config_path=args.config, overrides=overrides, workers=args.workers)
    if isinstance(result, tuple) and hasattr(result[0], "accuracy"):
        print(f"accuracy {result[0].accuracy:.4f} weak {result[1]:.4f}")
    elif hasattr(result, "accuracy"):
        print(f"accuracy {result.accuracy:.4f}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="measureboost")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic point clouds")
    g.add_argument("--generator", required=True, choices=["torus", "sphere", "ppp", "ginibre", "orbit"])
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=_positive_int, default=1)
    g.add_argument("--n-points", type=int, default=100)
    g.add_argument("--label", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--outer-radius", type=float, default=4.0)
    g.add_argument("--inner-radius", type=float, default=2.0)
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--mean-count", type=int, default=30)
    g.add_argument("--rho", type=float, default=4.1)
    g.set_defaults(func=_gen)

    h = sub.add_parser("ph", help="persistence diagrams of a point-cloud dataset")
    h.add_argument("--input", required=True)
    h.add_argument("--output", required=True)
    h.add_argument("--complex", choices=["cech", "rips"], default="cech")
    h.add_argument("--max-dim", type=int, default=2)
    h.add_argument("--max-value", type=float, default=float("inf"))
    h.add_argument("--include-zero-length", action="store_true")
    h.set_defaults(func=_ph)

    def add_feature_flags(sp):
        sp.add_argument("--dims", type=int, nargs="+", default=[0, 1])
        sp.add_argument("--truncation", type=float, default=2.0)

    t = sub.add_parser("train", help="boost region classifiers on diagram features")
    t.add_argument("--input", required=True)
    t.add_argument("--out", required=True)
    add_feature_flags(t)
    t.add_argument("--rounds", type=int, default=15)
    t.add_argument("--n-centers", type=int, default=25)
    t.add_argument("--radius-quantiles", type=float, nargs="+", default=[0.05, 0.15, 0.3, 0.5])
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=_train)

    pr = sub.add_parser("predict", help="predict labels for diagram features")
    pr.add_argument("--model", required=True)
    pr.add_argument("--input", required=True)
    pr.add_argument("--out", required=True)
    add_feature_flags(pr)
    pr.set_defaults(func=_predict)

    e = sub.add_parser("eval", help="evaluate a model on labeled diagram features")
    e.add_argument("--model", required=True)
    e.add_argument("--input", required=True)
    e.add_argument("--out", default=None)
    add_feature_flags(e)
    e.set_defaults(func=_eval)

    b = sub.add_parser("bottleneck", help="bottleneck distance between two diagrams")
    b.add_argument("first")
    b.add_argument("second")
    b.add_argument("--dim", type=int, default=1)
    b.set_defaults(func=_bottleneck)

    for command, recipe in (("recipe", None), ("limit-check", "limit-check"), ("rademacher", "rademacher-scaling")):
        if recipe is None:
            r = sub.add_parser(command, help="run a bundled experiment recipe")
            r.add_argument("name", choices=sorted(RECIPES))
        else:
            r = sub.add_parser(command, help=f"shortcut for `recipe {recipe}`")
            r.set_defaults(name=recipe)
        r.add_argument("--config", default=None)
        r.add_argument("--outdir", default=None)
        r.add_argument("--seed", type=int, default=None)
        r.add_argument("--workers", type=_positive_int, default=1)
        r.set_defaults(func=_recipe)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
