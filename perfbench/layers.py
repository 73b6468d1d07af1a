"""The measureboost functions the traced mode wraps, grouped into layers named
after the modules, and the per-layer metrics derived from their spans."""

from __future__ import annotations

import statistics
from collections import Counter

from spans import busy_time, self_times, tail

ROOT_SPAN = "bench.iteration"


def _simplices(tr, fc, args, kwargs):
    by_size = Counter(len(verts) for verts, _value in fc.simplices)
    tr.counts["ph.complexes.simplices"] += len(fc.simplices)
    for d in (1, 2, 3):
        tr.counts[f"ph.complexes.simplices.d{d}"] += by_size[d + 1]


def _pairs(tr, diagrams, args, kwargs):
    tr.counts["ph.persistence.pairs"] += sum(len(dg) for dg in diagrams)


def _points_in(tr, _value, args, kwargs):
    tr.counts["ph.bottleneck.points_in"] += len(args[0]) + len(args[1])


def _cells(key):
    def count(tr, out, args, kwargs):
        tr.counts[key] += int(out.size)

    return count


def _rounds(tr, ensemble, args, kwargs):
    tr.counts["boosting.fit.rounds"] += len(ensemble.stages)


def _argument(key, pos, name):
    def count(tr, _out, args, kwargs):
        tr.counts[key] += int(args[pos] if len(args) > pos else kwargs[name])

    return count


def _traced_learner(tr, args, kwargs):
    # adaboost_fit(data, rounds, learner, ...): span every weak-learner call
    if len(args) > 2:
        args = (*args[:2], tr.wrap("boosting.learner", args[2]), *args[3:])
    else:
        kwargs = {**kwargs, "learner": tr.wrap("boosting.learner", kwargs["learner"])}
    return args, kwargs


_DATAGEN = ("sample_torus", "sample_sphere", "add_gaussian_noise", "orbit", "sample_ppp_disk", "sample_ginibre")

# (module, attribute, span name, count, wrap_args)
TARGETS = [
    ("measureboost.ph.complexes", "cech_filtration", "ph.complexes", _simplices, None),
    ("measureboost.ph.complexes", "rips_filtration", "ph.complexes", _simplices, None),
    ("measureboost.ph.persistence", "persistence", "ph.persistence", _pairs, None),
    ("measureboost.ph.persistence", "betti_oracle", "ph.betti_oracle", None, None),
    ("measureboost.ph.bottleneck", "bottleneck", "ph.bottleneck", _points_in, None),
    ("measureboost.ph.diagrams", "diagram_to_measure", "ph.diagrams", None, None),
    ("measureboost.ph.diagrams", "save_diagrams_jsonl", "ph.diagrams", None, None),
    ("measureboost.ph.diagrams", "load_diagrams_jsonl", "ph.diagrams", None, None),
    *[("measureboost.datagen", fn, "datagen", None, None) for fn in _DATAGEN],
    ("measureboost.weak", "mass_matrix", "weak.mass_matrix", _cells("weak.mass_matrix.cells"), None),
    ("measureboost.weak", "exhaustive_search", "weak.exhaustive_search", None, None),
    ("measureboost.weak", "kmeans_centers", "weak.kmeans", None, None),
    ("measureboost.weak", "WeakClassifier.predict", "weak.predict", None, None),
    ("measureboost.boosting", "adaboost_fit", "boosting.fit", _rounds, _traced_learner),
    ("measureboost.boosting", "one_vs_one_fit", "boosting.fit_ovo", None, None),
    ("measureboost.boosting", "ensemble_predict", "boosting.predict", None, None),
    ("measureboost.boosting", "one_vs_one_predict", "boosting.predict", None, None),
    ("measureboost.boosting", "staged_training_error", "boosting.staged_error", None, None),
    ("measureboost.limits", "mu_k_montecarlo", "limits.mu_k", _argument("limits.mu_k.samples", 4, "n_mc"), None),
    ("measureboost.limits", "rademacher_estimate", "limits.rademacher", _argument("limits.rademacher.draws", 1, "n_draws"), None),
    ("measureboost.limits", "feature_matrix", "limits.feature_matrix", _cells("limits.feature_matrix.cells"), None),
    ("measureboost.recipes", "run_experiment", "recipes", None, None),
    ("measureboost.metrics", "evaluate", "metrics", None, None),
    ("measureboost.cli", "main", "cli", None, None),
]

LAYERS = {
    "ph.complexes": ("ph.complexes",),
    "ph.persistence": ("ph.persistence", "ph.betti_oracle"),
    "ph.bottleneck": ("ph.bottleneck",),
    "ph.diagrams": ("ph.diagrams",),
    "datagen": ("datagen",),
    "weak": ("weak.mass_matrix", "weak.exhaustive_search", "weak.kmeans", "weak.predict"),
    "boosting": ("boosting.fit", "boosting.fit_ovo", "boosting.learner", "boosting.predict", "boosting.staged_error"),
    "limits": ("limits.mu_k", "limits.rademacher", "limits.feature_matrix"),
    "recipes": ("recipes",),
    "metrics": ("metrics",),
    "cli": ("cli",),
}

# span names whose per-call durations are reported as percentiles
_CALL_TIMES = {"ph.complexes": True, "ph.persistence": True, "ph.bottleneck": False}  # name -> with tail

COUNTS = (
    "ph.complexes.simplices", "ph.complexes.simplices.d1", "ph.complexes.simplices.d2",
    "ph.complexes.simplices.d3", "ph.persistence.pairs", "ph.bottleneck.points_in",
    "weak.mass_matrix.cells", "boosting.fit.rounds", "limits.mu_k.samples",
    "limits.rademacher.draws", "limits.feature_matrix.cells",
)
CALLS = (
    "ph.complexes", "ph.persistence", "ph.betti_oracle", "ph.bottleneck", "datagen",
    "weak.mass_matrix", "weak.exhaustive_search", "weak.predict", "boosting.fit",
    "boosting.learner", "limits.mu_k",
)
BUSY = (
    "ph.complexes", "ph.persistence", "ph.betti_oracle", "ph.bottleneck", "ph.diagrams", "datagen",
    "weak.mass_matrix", "weak.exhaustive_search", "weak.kmeans", "weak.predict", "boosting.fit",
    "boosting.learner", "boosting.predict", "limits.mu_k", "limits.rademacher",
    "limits.feature_matrix", "metrics",
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["boosting.fit.self_s"] = "s"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name in BUSY:
        units[f"{name}.busy_s"] = "s"
    for name, with_tail in _CALL_TIMES.items():
        units[f"{name}.call_ms.p50"] = "ms"
        if with_tail:
            units[f"{name}.call_ms.tail"] = "ms"
            units[f"{name}.call_ms.tail_pct"] = "%"
            units[f"{name}.call_ms.n"] = "count"
    for key in COUNTS:
        units[key] = "count"
    units["trace.iteration_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def per_layer(spans, counts, passes: int, overhead: float) -> dict:
    """Per-layer metrics of `passes` traced passes over a run's variants.

    Times and counts are per pass (every pass does the same work), call
    percentiles pool the calls of all passes.
    """
    own = self_times(spans)
    values = {}
    for layer, names in LAYERS.items():
        values[f"{layer}.self_s"] = sum(t for sp, t in zip(spans, own) if sp.name in names) / passes
    values["boosting.fit.self_s"] = sum(t for sp, t in zip(spans, own) if sp.name == "boosting.fit") / passes
    calls = Counter(sp.name for sp in spans)
    for name in CALLS:
        values[f"{name}.calls"] = calls[name] // passes
    for name in BUSY:
        values[f"{name}.busy_s"] = busy_time(spans, (name,)) / passes
    for name, with_tail in _CALL_TIMES.items():
        ms = [1000.0 * (sp.end - sp.start) for sp in spans if sp.name == name]
        values[f"{name}.call_ms.p50"] = statistics.median(ms) if ms else 0.0
        if with_tail:
            value, pct, n = tail(ms)
            values[f"{name}.call_ms.tail"] = value
            values[f"{name}.call_ms.tail_pct"] = pct
            values[f"{name}.call_ms.n"] = n
    for key in COUNTS:
        values[key] = counts[key] // passes
    values["trace.iteration_s"] = busy_time(spans, (ROOT_SPAN,)) / passes
    values["trace.overhead"] = overhead
    return values


def shares(values: dict) -> dict:
    """Each layer's self time as a share of the traced iteration time; the
    rest ("bench") is the harness's own time, counting included."""
    total = values["trace.iteration_s"]
    out = {layer: values[f"{layer}.self_s"] / total for layer in LAYERS}
    out["bench"] = 1.0 - sum(out.values())
    return out
