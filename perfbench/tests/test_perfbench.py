"""Tests of the benchmark's own arithmetic and of the traced run's exact counts.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
from spans import Span, Tracer, self_times, summarize  # noqa: E402


# -- span self time ---------------------------------------------------------------

def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "a.x", 1.5, 2.5, 1),
        Span(3, "b", 5.0, 9.0, 0),
        Span(4, "b.y", 5.0, 6.0, 3),
        Span(5, "b.z", 7.0, 9.0, 3),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(4.0 - 1.0 - 2.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(2.0)
    # Self times of a tree add up to the root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span(0, "p", 0.0, 10.0, None),
        Span(1, "c1", 2.0, 6.0, 0),
        Span(2, "c2", 4.0, 8.0, 0),  # overlaps c1: covered is [2, 8]
        Span(3, "c3", 9.0, 12.0, 0),  # runs past the parent: clipped to [9, 10]
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_groups_by_name_and_counts_propagate_to_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        for _ in range(3):
            with tracer.span("inner"):
                tracer.count("event", 2)
    summary = summarize(tracer.spans)
    assert summary["outer"].calls == 1
    assert summary["inner"].calls == 3
    assert summary["outer"].counts["event"] == 6
    assert summary["outer"].counts["span:inner"] == 3
    assert tracer.root_counts["span:outer"] == 1
    assert tracer.root_counts["event"] == 6
    outer = summary["outer"]
    assert outer.self_s == pytest.approx(outer.total_s - summary["inner"].total_s)


# -- percentiles --------------------------------------------------------------------

def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.median([1.0, 2.0, 3.0, 4.0]) == 2.5


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10000, 99.0)],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n, wanted=99.0) == expected


def test_supported_percentile_refuses_tiny_samples():
    with pytest.raises(ValueError):
        stats.supported_percentile(19)


def test_tail_reports_percentile_count_and_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    tail = stats.tail(samples, 99.0)
    assert tail.percentile == 99.0
    assert tail.samples == 1000
    assert tail.value == pytest.approx(990.01)
    assert tail.beyond == 10
    short = stats.tail(samples[:500], 99.0)
    assert short.percentile == 95.0
    assert short.beyond >= stats.MIN_TAIL


# -- traced run ----------------------------------------------------------------------

@pytest.fixture
def tiny_benchmark(monkeypatch, tmp_path):
    """The traced run at a size that takes seconds: a 40-sentence corpus,
    one epoch, 60 held-out sentences, no F1 floor, pins not compared."""
    importlib.import_module("slotie.cli")
    monkeypatch.setattr(run, "CORPUS_SENTENCES", 40)
    schedule = list(run.SCHEDULE)
    schedule[schedule.index("--epochs") + 1] = "1"
    monkeypatch.setattr(run, "SCHEDULE", tuple(schedule))
    monkeypatch.setattr(run, "F1_FLOOR", {20: 0.0, 100: 0.0})
    monkeypatch.setattr(run, "check_pins", lambda wl, seed, inputs, work, tally: inputs.digests)
    return run.Workload("tiny", 20, 60), tmp_path


def traced_metrics(workload, tmp_path, name):
    tally = run.Tally()
    result = {}
    metrics = run.run_traced(workload, 3, tmp_path / name, tally, result, tmp_path / f"{name}.jsonl.gz")
    assert tally.failed == 0, tally.problems
    return metrics


def test_exact_counts_repeat_across_two_traced_runs(tiny_benchmark):
    workload, tmp_path = tiny_benchmark
    first = traced_metrics(workload, tmp_path, "a")
    second = traced_metrics(workload, tmp_path, "b")
    exact = ["matching.lsa_calls_per_solve", "autodiff.tensors_per_sent", "model.decode_kept_ratio"]
    exact += [name for name in first if name.startswith("calls.")]
    for name in exact:
        assert first[name] == second[name], name
    assert first["autodiff.tensors_per_sent"] == 53.0
    assert first["matching.lsa_calls_per_solve"] >= 1.0
    assert 0.0 <= first["model.decode_kept_ratio"] <= 1.0


def test_tracing_restores_every_wrapped_callable(tiny_benchmark):
    workload, tmp_path = tiny_benchmark
    import slotie.cli
    import slotie.matching
    import slotie.model
    import slotie.scoring

    before = (slotie.cli.tokenize, slotie.matching.hungarian_max, slotie.model.SlotTagger.__dict__["forward"],
              dict(slotie.scoring.SCHEMES), slotie.model.DetectionHead.__dict__["__call__"])
    traced_metrics(workload, tmp_path, "c")
    after = (slotie.cli.tokenize, slotie.matching.hungarian_max, slotie.model.SlotTagger.__dict__["forward"],
             dict(slotie.scoring.SCHEMES), slotie.model.DetectionHead.__dict__["__call__"])
    assert before == after


def test_pins_mismatch_fails_loudly(monkeypatch, tmp_path):
    importlib.import_module("slotie.cli")
    pins = tmp_path / "pins.json"
    pins.write_text(run.PINS.read_text(encoding="utf-8").replace('"corpus_tsv": "', '"corpus_tsv": "0'),
                    encoding="utf-8")
    monkeypatch.setattr(run, "PINS", pins)
    workload = run.WORKLOADS["train-n20"]
    tally = run.Tally()
    inputs = run.make_inputs(workload, run.DEFAULT_SEED, tmp_path / "inputs", tally)
    with pytest.raises(run.Abort):
        run.check_pins(workload, run.DEFAULT_SEED, inputs, tmp_path, tally)
    assert tally.failed == 1


def test_every_wrapped_span_reports_a_call_count():
    importlib.import_module("slotie.cli")
    functions, methods, schemes, _, _ = run.trace_targets([])
    cli_spans = {"cli.train", "cli.extract", "cli.score", *run.SETUP_SPANS}
    assert set(functions) | set(methods) | set(schemes) | cli_spans == set(run.TRACED_SPANS)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import json

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == ["train-n20", "extract-score"]
    assert set(run.WORKLOADS) == {"train-n20", "extract-score", "train-n100"}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = run.per_layer_metrics({}, {}, {}, 0.0, 1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.per_layer_unit(name) for name in per_layer}
