"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_each_level_of_nested_children():
    # predict_rankings [0, 10]
    #   labels.class_vectors [1, 7]
    #     core.unbind [2, 6]
    #       core.bind [3, 5]
    #   core.bind [8, 9]          (a second child of predict_rankings)
    spans = [
        Span(3, 2, 0, "core.bind", 3.0, 5.0),
        Span(2, 1, 0, "core.unbind", 2.0, 6.0),
        Span(1, 0, 0, "labels.class_vectors", 1.0, 7.0),
        Span(4, 0, 0, "core.bind", 8.0, 9.0),
        Span(0, None, 0, "trainer.predict_rankings", 0.0, 10.0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({
        "trainer.predict_rankings": 10.0 - 6.0 - 1.0,
        "labels.class_vectors": 6.0 - 4.0,
        "core.unbind": 4.0 - 2.0,
        "core.bind": 2.0 + 1.0,
    })
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(0, None, 0, "parent", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 5.0),
        Span(2, 0, 0, "b", 4.0, 6.0),   # overlaps a by one second
        Span(3, 0, 0, "c", 2.0, 3.0),   # inside a
        Span(4, 0, 0, "d", 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)["parent"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_patches_every_importer_and_restores_them():
    from hrrkit import capacity, core, labels, vsa

    originals = (core.bind, capacity.vsa_bind, labels.LabelSpace.class_vectors)
    tracer = Tracer(workloads.TRACED_MODULES, workloads.COUNTERS)
    tracer.install()
    try:
        assert capacity.vsa_bind is not originals[1]
        space = labels.make_label_space(10, 16, seed=3)
        rows = space.class_vectors([1, 2, 2])
        core.unbind(rows, space.p)
    finally:
        tracer.uninstall()
    assert (core.bind, capacity.vsa_bind, labels.LabelSpace.class_vectors) == originals

    by_id = {s.id: s for s in tracer.spans}
    unbind = next(s for s in tracer.spans if s.name == "core.unbind")
    bind_parents = {by_id[s.parent].name for s in tracer.spans if s.name == "core.bind"}
    assert "core.unbind" in bind_parents
    assert by_id[unbind.id].parent is None
    counts = workloads.round_counts(tracer)
    # Each top-level call is its own request: 10 rows (all distinct) build
    # the space's all-classes sum, then 3 requested rows hold 2 distinct.
    assert counts["labels.class_vectors.rows"] == 13
    assert counts["labels.class_vectors.distinct"] == 10 + 2
    assert counts["core.unbind.rows"] == 3
    assert counts["labels.make_label_space.calls"] == 1


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER


def test_regen_ratio_and_missing_layers_read_as_zero():
    counts = {"labels.class_vectors.rows": 8, "labels.class_vectors.distinct": 4}
    assert workloads.layer_value("labels.regen_useful_ratio", {}, counts) == 0.5
    assert workloads.layer_value("vsa.vsa_bind.self_s", {}, counts) == 0.0
    assert workloads.layer_value("vsa.rows", {}, counts) == 0
    assert workloads._rows(np.zeros((4, 3, 8)), np.zeros(8)) == 12


def test_setup_timer_puts_the_run_modules_back_after_timing_imports():
    modules = [m for m in sys.modules if m == "hrrkit" or m.startswith("hrrkit.")]
    kept = {m: sys.modules[m] for m in modules}
    calls = []

    class Inputs:
        def setup(self):
            calls.append(sys.modules["hrrkit.cli"])

    timer = run.SetupTimer(Inputs(), modules)
    timer.sample(2, 1)
    assert len(timer.times["import"]) == 2 and len(timer.times["inputs"]) == 1
    assert all(t > 0 for t in timer.times["import"])
    # Inputs are made with the run's own modules, which are back in place.
    assert calls == [kept["hrrkit.cli"]]
    assert {m: sys.modules[m] for m in modules} == kept
