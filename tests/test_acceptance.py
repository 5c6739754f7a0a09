"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np

from taggnn import autodiff as ad
from taggnn import data as dm
from taggnn import synthetic
from taggnn.autodiff import Tensor, finite_difference_check
from taggnn.evaluation import Predictor, evaluate, precision_at_k, report_to_json
from taggnn.graph import Vocabulary
from taggnn.model import LayerParams, ModelVariant, TagGNNModel, pack_edges
from taggnn.training import TrainConfig, combined_loss, train

import oracle
from conftest import random_tiny_graph, token_graph


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _train_synthetic(ds, splits, **config_overrides):
    vocab = Vocabulary.from_texts(ds.texts(), min_count=1)
    graph = dm.dataset_to_graph(ds, vocab, splits=splits)
    cfg = TrainConfig(**config_overrides)
    result = train(graph, splits, cfg, n_words=len(vocab))
    return result, graph, vocab


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    graph, model, item_idx, labels = synthetic.gradcheck_instance(dim=6, n_layers=2)
    assert (graph.n_queries, graph.n_items, graph.n_tags) == (3, 4, 5)
    assert model.variant.kind == "full" and model.gamma == 1.0

    def loss_fn():
        total, _, _ = combined_loss(graph, model, item_idx, labels)
        return total

    err = finite_difference_check(loss_fn, model.parameters(), eps=1e-5)
    elapsed = time.perf_counter() - started
    _verdict(1, err < 1e-4 and elapsed < 10.0,
             f"max rel error {err:.2e} < 1e-4, {elapsed:.1f}s < 10s")


def test_criterion_2_attention_normalization():
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for trial in range(100):
        graph, _ = random_tiny_graph(rng)
        edges = pack_edges(graph, "full")
        centers = edges.pattern.rows
        if len(centers) == 0:
            continue
        layer = LayerParams.init(3, np.random.default_rng(trial))
        H = Tensor(rng.normal(size=(graph.n_nodes, 3)))
        Wh = ad.matmul(H, layer.attn_proj)
        raw = ad.edge_scores(Wh, layer.attn_context, edges.pattern)
        attn = ad.segment_softmax(ad.leaky_relu(raw, 0.2), edges.pattern).data[:, 0]
        assert np.all(edges.multipliers > 0)
        for c in np.unique(centers):
            worst = max(worst, abs(attn[centers == c].sum() - 1.0))
        checked += 1
    _verdict(2, worst < 1e-10 and checked >= 90,
             f"{checked} graphs, worst pre-scaling sum deviation {worst:.2e} < 1e-10")


def test_criterion_3_isolated_node_invariance():
    graph = token_graph([[1], [2]], [[3], [4], [5]], [[1], [2]],
                        [(0, 0, 2.0), (1, 0, 1.0)], [(0, 0), (0, 1)])  # items 1, 2: no edges
    ok = True
    for n_layers in (1, 2, 3, 4):
        model = TagGNNModel.init(6, graph.n_tags, 5, ModelVariant(kind="full", n_layers=n_layers),
                                 rng=np.random.default_rng([n_layers, 0]))
        out = model.forward(graph)
        for item in (1, 2):
            ok = ok and out.item_reps.data[item].tobytes() == \
                out.initial_item_reps.data[item].tobytes()
    _verdict(3, ok, "degree-0 items bit-identical through 1-4 layers")


def test_criterion_4_overfit_capacity():
    started = time.perf_counter()
    ds, splits = synthetic.overfit_dataset(n_items=50, n_tags=20, n_queries=30, seed=0)
    result, graph, _ = _train_synthetic(ds, splits, dim=200, n_layers=2,
                                        max_epochs=300, seed=0)
    predictor = Predictor(result.model, graph)
    p1 = float(np.mean([precision_at_k(predictor.topk(i, 1), graph.item_tags(i), 1)
                        for i in range(graph.n_items)]))
    elapsed = time.perf_counter() - started
    _verdict(4, p1 >= 0.99 and elapsed < 60.0,
             f"training P@1 {p1:.3f} >= 0.99 within {result.epochs_trained} epochs, "
             f"{elapsed:.1f}s < 60s")


def test_criterion_5_dual_loss_cold_start():
    def cold_p1(seed, gamma):
        ds, splits = synthetic.cold_start_dataset(seed=seed)
        result, graph, _ = _train_synthetic(ds, splits, dim=48, n_layers=2, max_epochs=300,
                                            seed=seed, variant="it", gamma=gamma, dropout=0.3)
        report = evaluate(result.model, graph, splits, ks=(1,), subset="test")
        return report["without_tags"]["p@1"]

    diffs = [cold_p1(seed, 1.0) - cold_p1(seed, 0.0) for seed in range(5)]
    margin = float(np.mean(diffs))
    _verdict(5, margin >= 0.2,
             f"dual-loss cold-start margin {margin:.3f} >= 0.2 "
             f"(per seed {[round(d, 2) for d in diffs]})")


def test_criterion_6_query_signal_effect():
    def full_pred_p1(seed, variant):
        ds, splits = synthetic.query_signal_dataset(seed=seed)
        result, graph, _ = _train_synthetic(ds, splits, dim=48, n_layers=2, max_epochs=300,
                                            seed=seed, variant=variant, dropout=0.3)
        report = evaluate(result.model, graph, splits, ks=(1,), subset="test")
        return report["without_tags"]["p@1"]

    diffs = [full_pred_p1(seed, "full") - full_pred_p1(seed, "it") for seed in range(5)]
    margin = float(np.mean(diffs))
    _verdict(6, margin >= 0.1,
             f"tripartite-over-item-tag margin {margin:.3f} >= 0.1 "
             f"(per seed {[round(d, 2) for d in diffs]})")


def test_criterion_7_existing_tags_effect():
    ds, splits = synthetic.clustered_tags_dataset(seed=0)
    vocab = Vocabulary.from_texts(ds.texts(), min_count=1)
    graph = dm.dataset_to_graph(ds, vocab, splits=splits)
    cfg = TrainConfig(dim=48, n_layers=2, max_epochs=200, seed=0, variant="it", dropout=0.3)
    result = train(graph, splits, cfg, n_words=len(vocab))
    with_known = evaluate(result.model, graph, splits, ks=(1,),
                          subset="test")["partial_tags"]["p@1"]
    # relabelled as full-prediction items, the completion items lose their known tag edges too
    as_full = {r: r.replace("_comp", "_full") for r in dm.ROLES}
    stripped = dm.dataset_to_graph(ds, vocab, splits=dm.SplitAssignment(
        roles={i: as_full[r] for i, r in splits.roles.items()}, truth=splits.truth))
    without_known = evaluate(result.model, stripped, splits, ks=(1,),
                             subset="test")["partial_tags"]["p@1"]
    _verdict(7, with_known > without_known,
             f"completion P@1 with known edges {with_known:.3f} > removed {without_known:.3f}")


def test_criterion_8_metric_oracle():
    rng = np.random.default_rng(888)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        preds = list(rng.permutation(n))
        truth = set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        k = int(rng.integers(1, n + 1))
        hits = 0
        for p in preds[:k]:
            if p in truth:
                hits += 1
        if precision_at_k(preds, truth, k) != hits / k:
            mismatches += 1
    _verdict(8, mismatches == 0, f"1000 random instances, {mismatches} oracle mismatches")


def test_criterion_9_determinism(toydata_dir):
    def run_once():
        dataset = dm.load_dataset(toydata_dir)
        splits = dm.make_splits(dataset, (8, 2, 2), seed=11)
        vocab = Vocabulary.from_texts(dataset.texts(), min_count=1)
        graph = dm.dataset_to_graph(dataset, vocab, splits=splits)
        cfg = TrainConfig(dim=12, n_layers=2, max_epochs=12, patience=5, seed=11)
        result = train(graph, splits, cfg, n_words=len(vocab))
        report = evaluate(result.model, graph, splits, ks=(1, 3, 5), subset="test",
                          meta={"config_hash": cfg.sha256(), "seed": cfg.seed,
                                "epochs_trained": result.epochs_trained})
        return report_to_json(report).encode("utf-8")

    first, second = run_once(), run_once()
    _verdict(9, first == second,
             f"two train+eval runs produced byte-identical {len(first)}-byte reports")


def test_criterion_10_pipeline_on_documented_format(tmp_path):
    # The published benchmark numbers for the real ad/app datasets are out of
    # reach at desk scale (private data, unpublished preprocessing); what must
    # hold is that any dataset in the documented TSV format flows end to end
    # through filter -> split -> train -> eval and yields the fixed report
    # shape.  README.md carries the explicit statement.
    rng = np.random.default_rng(10)
    n_items, n_tags, n_queries = 60, 12, 25
    tags = [(f"t{j}", f"kw{j}") for j in range(n_tags)]
    items, it, qi = [], [], []
    for n in range(n_items):
        mine = sorted(rng.choice(n_tags, size=4, replace=False))
        items.append((f"ad{n}", " ".join(f"kw{j}" for j in mine)))
        it.extend((f"ad{n}", f"t{j}") for j in mine)
    queries = [(f"q{m}", f"qw{m % 9}") for m in range(n_queries)]
    for m in range(n_queries):
        for n in sorted(rng.choice(n_items, size=6, replace=False)):
            qi.append((f"q{m}", f"ad{n}", float(rng.integers(1, 30))))
    dataset = oracle.dataset_from_rows(items=items, queries=queries, tags=tags, qi=qi, it=it)
    dm.save_dataset(dataset, tmp_path)

    loaded = dm.load_dataset(tmp_path)
    filtered = dm.preprocess_filter(
        loaded, dm.FilterThresholds(item_query=1, query_item=1, item_tag=2,
                                    tag_item=2, min_count=1))
    splits = dm.make_splits(filtered, (len(filtered.item_ids) - 20, 10, 10), seed=0)
    vocab = dm.build_vocabulary(filtered, min_count=1)
    graph = dm.dataset_to_graph(filtered, vocab, splits=splits)
    cfg = TrainConfig(dim=16, n_layers=2, max_epochs=10, seed=0)
    result = train(graph, splits, cfg, n_words=len(vocab))
    report = evaluate(result.model, graph, splits, ks=(1, 3, 5), subset="test",
                      meta={"config_hash": cfg.sha256(), "seed": 0,
                            "epochs_trained": result.epochs_trained})
    shape_ok = all(set(report[s]) == {"p@1", "p@3", "p@5", "items"}
                   for s in ("without_tags", "partial_tags"))

    import os
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read().lower()
    statement_ok = "not reproducible" in readme
    _verdict(10, shape_ok and statement_ok,
             "documented-format pipeline ran end to end; README states the "
             "published numbers are not reproducible at desk scale")
