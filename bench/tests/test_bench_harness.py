"""Tests of the benchmark itself, on tiny workloads that run in milliseconds."""

import json
import os
import pathlib
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from taggnn import autodiff, data  # noqa: E402

TINY = {
    "train": workloads.Workload(name="tiny_train", kind="train", n_items=60, n_queries=40,
                                n_tags=20, queries_per_item=3, tags_per_item=3,
                                split=(40, 10, 10)),
    "serve": workloads.Workload(name="tiny_serve", kind="serve", n_items=60, n_queries=40,
                                n_tags=20, queries_per_item=3, tags_per_item=3,
                                split=(40, 10, 10)),
}


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(pathlib.Path(directory).iterdir())}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    w = TINY["train"]
    a = _files(workloads.generate(w, 5, str(tmp_path / "a")))
    b = _files(workloads.generate(w, 5, str(tmp_path / "b")))
    c = _files(workloads.generate(w, 6, str(tmp_path / "c")))
    assert a == b
    assert a != c
    assert set(a) == set(data.DATASET_FILES.values())
    ds = data.load_dataset(str(tmp_path / "a"))
    assert len(ds.items) == w.n_items
    assert len(ds.qi) == w.n_items * w.queries_per_item
    assert len(ds.it) == w.n_items * w.tags_per_item


@pytest.mark.parametrize("kind", ["train", "serve"])
def test_traced_run_reproduces_untraced_outputs(kind, tmp_path):
    w = TINY[kind]
    data_dir = workloads.generate(w, 1, str(tmp_path / "data"))
    bench = harness.make_bench(w, 1, data_dir, str(tmp_path))
    bench.setup()
    plain = harness.run_loop(bench, 0.0, None)
    originals = (autodiff.matmul, autodiff.Adam.step, data.build_graph)
    tracer = Tracer()
    tracer.install()
    try:
        bench.setup()
        bench.rounds = 0   # the serving step draws the same predict item again
        traced = harness.run_loop(bench, 0.0, None, tracer)
    finally:
        tracer.uninstall()
    assert (autodiff.matmul, autodiff.Adam.step, data.build_graph) == originals
    assert plain.failed == traced.failed == 0
    assert plain.outputs == traced.outputs
    names = {span[0] for span in tracer.spans}
    assert "autodiff.matmul.fwd" in names and "graph.build_graph" in names
    assert ("autodiff.backward" in names) == (kind == "train")


@pytest.mark.parametrize("kind", ["train", "serve"])
def test_reference_gate(kind, tmp_path):
    w = TINY[kind]
    data_dir = workloads.generate(w, 2, str(tmp_path / "data"))
    bench = harness.make_bench(w, 2, data_dir, str(tmp_path))
    bench.setup()
    reference = json.loads(json.dumps(bench.record()))

    result, _ = harness.run_workload(w, 2, 0.0, 0, reference=reference)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    key = sorted(reference)[0]
    if kind == "train":
        reference[key][0] *= 1 + 1e-6
    else:
        reference[key] += " "
    result, lines = harness.run_workload(w, 2, 0.0, 0, reference=reference)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any(line.startswith("failed_share") and float(line.split()[1]) > 0 for line in lines)


def test_benchmark_json_names_match_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for kind, w in TINY.items():
        untraced, _ = harness.run_workload(w, 0, 0.0, 0, reference=None)
        traced, _ = harness.run_workload(w, 0, 0.0, 1, reference=None)
        assert set(untraced["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
        for metrics, listed in ((untraced["metrics"], spec["end_to_end"]),
                                (traced["metrics"], spec["per_layer"])):
            assert all(metrics[m["name"]]["unit"] == m["unit"] for m in listed)
