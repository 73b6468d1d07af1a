"""Tests of the benchmark's own logic: span analysis, the tail rule, output
checks and failure counting.

  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import spans
import worker  # puts the checkout's src/ on sys.path
from workloads import N_VARIANTS, WORKLOADS, Op, variants_for

HERE = Path(__file__).resolve().parent


def _tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has a child [2, 3]
    return [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.inner", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
    ]


def test_self_time_subtracts_children_only():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    tree = [spans.Span("root", 0.0, 10.0, -1), spans.Span("x", 1.0, 6.0, 0), spans.Span("y", 4.0, 8.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_busy_time_is_the_union_of_named_spans():
    tree = _tree()
    assert spans.busy_time(tree, ("a", "a.inner")) == 3.0
    assert spans.busy_time(tree, ("a", "b")) == 7.0
    assert spans.busy_time(tree, ("missing",)) == 0.0


@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, (990.0, 99.0, 1000)),  # p99 leaves exactly ten beyond it
        (100, (90.0, 90.0, 100)),  # p99 leaves one, p90 leaves ten
        (20, (10.0, 50.0, 20)),
        (15, (0.0, 0.0, 15)),  # even the median has only seven beyond it
        (0, (0.0, 0.0, 0)),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    samples = [float(x) for x in range(1, n + 1)]
    rng = np.random.default_rng(n)
    rng.shuffle(samples)
    assert spans.tail(samples) == expected


def test_tracer_records_nesting_counts_and_restores():
    import measureboost.ph as ph
    from measureboost import limits
    from measureboost.ph import complexes

    orig = complexes.cech_filtration
    tracer = spans.Tracer()
    restore = spans.install(tracer, layers.TARGETS)
    try:
        assert limits.cech_filtration is not orig and ph.cech_filtration is not orig
        root = tracer.open(layers.ROOT_SPAN)
        fc = ph.cech_filtration(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), max_dim=2, max_value=5.0)
        ph.persistence(fc)
        tracer.close(root)
    finally:
        restore()
    assert complexes.cech_filtration is orig and limits.cech_filtration is orig and ph.cech_filtration is orig
    names = [sp.name for sp in tracer.spans]
    count = spans.COUNT_SPAN
    assert names == [layers.ROOT_SPAN, "ph.complexes", count, "ph.persistence", count]
    assert all(sp.parent == 0 for sp in tracer.spans[1:])
    assert tracer.counts["ph.complexes.simplices"] == 7
    assert [tracer.counts[f"ph.complexes.simplices.d{d}"] for d in (1, 2, 3)] == [3, 1, 0]
    values = layers.per_layer(tracer.spans, tracer.counts, passes=1, overhead=1.0)
    assert values["ph.complexes.calls"] == 1 and values["ph.persistence.calls"] == 1
    assert set(values) == set(layers.metric_units())


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.metric_units()
    import run

    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == set(run.GATED)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_variants_are_a_function_of_the_seed():
    for wl in WORKLOADS.values():
        assert variants_for(3, wl.per_run) == variants_for(3, wl.per_run)
        assert len(set(variants_for(5, wl.per_run))) == wl.per_run
        assert all(0 <= v < N_VARIANTS for s in (-7, 0, 10**9) for v in variants_for(s, wl.per_run))


def test_mean_of_medians_weighs_each_variant_once():
    assert worker.mean_of_medians({0: [1.0, 9.0, 2.0], 1: [4.0]}) == 3.0


# --- failure counting ---------------------------------------------------------


def _bottleneck_inputs():
    from measureboost.ph.diagrams import PersistenceDiagram

    rng = np.random.default_rng(7)

    def diagram(n):
        b = rng.uniform(0, 1, n)
        return PersistenceDiagram(1, np.column_stack([b, b + rng.uniform(0.01, 0.5, n)]))

    return diagram(6), diagram(5)


def test_bottleneck_check_accepts_the_distance_and_rejects_others():
    from measureboost.ph.bottleneck import bottleneck_bruteforce

    a, b = _bottleneck_inputs()
    value = bottleneck_bruteforce(a, b)
    assert checks.bottleneck_ok(a.pairs, b.pairs, value)
    assert not checks.bottleneck_ok(a.pairs, b.pairs, value * 1.5)
    assert not checks.bottleneck_ok(a.pairs, b.pairs, value * 0.5)
    inf_a = np.vstack([a.pairs, [[0.0, np.inf]]])
    assert checks.bottleneck_ok(inf_a, b.pairs, float("inf"))
    assert not checks.bottleneck_ok(inf_a, b.pairs, value)


class FakeCli:
    """Stands in for measureboost.cli: main(argv) runs a per-test action."""

    def __init__(self, action):
        self.action = action

    def main(self, argv):
        return self.action(argv)


def _run(action, op, reference):
    tally = worker.Tally()
    worker.run_ops(FakeCli(action), [op], tally, [reference])
    return tally


def _write_outputs(out: Path):
    out.mkdir(exist_ok=True)
    (out / "model.json").write_text('{"stages": []}')
    (out / "timings.json").write_text('{"train": %r}' % time.perf_counter())


def test_matching_outputs_pass(tmp_path):
    _write_outputs(tmp_path / "ref")
    ref = checks.digest_dir(tmp_path / "ref")
    op = Op(["recipe", "x"], lambda _out: checks.digest_dir(tmp_path / "out"))
    tally = _run(lambda argv: _write_outputs(tmp_path / "out") or 0, op, ref)
    assert (tally.attempted, tally.failed) == (1, 0)  # timings.json differs and is not hashed


def test_corrupted_output_file_is_a_failed_operation(tmp_path):
    _write_outputs(tmp_path / "ref")
    ref = checks.digest_dir(tmp_path / "ref")

    def corrupting(argv):
        _write_outputs(tmp_path / "out")
        (tmp_path / "out" / "model.json").write_text('{"stages": [1]}')
        return 0

    op = Op(["recipe", "x"], lambda _out: checks.digest_dir(tmp_path / "out"))
    tally = _run(corrupting, op, ref)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "differs" in tally.problems[0]


def test_wrong_bottleneck_value_is_a_failed_operation():
    from measureboost.ph.bottleneck import bottleneck

    a, b = _bottleneck_inputs()
    wrong = repr(bottleneck(a, b) * 1.01)

    def printing(argv):
        print(wrong)
        return 0

    # the recorded value agrees, so only the independent check can catch it
    op = Op(["bottleneck", "a"], lambda out: out.strip(),
            verify=lambda out: checks.bottleneck_ok(a.pairs, b.pairs, float(out)))
    tally = _run(printing, op, wrong)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "independent check" in tally.problems[0]


def test_raised_exception_and_nonzero_exit_are_failed_operations():
    def raising(argv):
        raise MemoryError("boom")

    op = Op(["recipe", "x"], lambda out: out)
    assert _run(raising, op, "").failed == 1
    assert _run(lambda argv: 5, op, "").failed == 1


def test_call_over_the_time_cap_is_stopped_and_failed(monkeypatch):
    monkeypatch.setattr(worker, "OP_CAP_S", 0.2)

    def sleeping(argv):
        time.sleep(5)
        return 0

    tally = worker.Tally()
    t0 = time.perf_counter()
    ops = [Op(["recipe", "slow"], lambda out: out)]
    worker.run_ops(FakeCli(sleeping), ops, tally, [""])
    assert time.perf_counter() - t0 < 2.0
    assert (tally.attempted, tally.failed) == (1, 1)
