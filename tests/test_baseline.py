import json
import os

import numpy as np
import pytest

from taggnn import autodiff as ad
from taggnn import data as dm
from taggnn import synthetic
from taggnn.autodiff import Tensor
from taggnn.baseline import MODES, BaselineModel, item_feature_tokens, train_baseline
from taggnn.data import SplitAssignment
from taggnn.evaluation import Predictor, precision_at_k, subset_precision
from taggnn.graph import Vocabulary
from taggnn.training import TrainConfig, validation_p1

import oracle
from conftest import token_graph

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _graph(ds, splits=None):
    vocab = Vocabulary.from_texts(ds.texts(), min_count=1)
    return dm.dataset_to_graph(ds, vocab, splits=splits), vocab


def _separable_dataset(n_per_class=10):
    # one word per tag, titles name the tag exactly: trivially separable
    tags = [("t0", "apple"), ("t1", "banana"), ("t2", "cherry")]
    items, it = [], []
    for j, (tag_id, word) in enumerate(tags):
        for n in range(n_per_class):
            iid = f"i{j}_{n}"
            items.append((iid, f"{word} {word}"))
            it.append((iid, tag_id))
    ds = oracle.dataset_from_rows(items=items, queries=[], tags=tags, qi=[], it=it)
    splits = SplitAssignment(roles={i: "train" for i, _ in items})
    return ds, splits


def test_linearly_separable_data_is_memorized():
    ds, splits = _separable_dataset()
    graph, vocab = _graph(ds, splits)
    cfg = TrainConfig(dim=16, max_epochs=60, seed=0)
    model = train_baseline(graph, "item", cfg, splits, len(vocab)).model
    predictor = Predictor(model, graph)
    hits = [precision_at_k(predictor.topk(n, 1), graph.item_tags(n), 1)
            for n in range(graph.n_items)]
    assert np.mean(hits) == 1.0


def test_query_mode_beats_title_mode_on_query_signal_data():
    ds, splits = synthetic.query_signal_dataset(seed=0)
    graph, vocab = _graph(ds, splits)
    cfg = TrainConfig(dim=24, max_epochs=80, seed=0)

    def test_p1(mode):
        model = train_baseline(graph, mode, cfg, splits, len(vocab)).model
        return subset_precision(model, graph, splits, ("test_full",), ks=(1,))["test_full"]["p@1"]

    qi = test_p1("item_queries")
    title_only = test_p1("item")
    assert qi > title_only


def test_both_modes_match_the_golden_log():
    # query-signal data with its test items validating: the title mode stops early on a
    # flat metric, the query mode improves and restores its best epoch
    ds, test_split = synthetic.query_signal_dataset(seed=0)
    splits = SplitAssignment(roles={i: "val_full" if r == "test_full" else r
                                    for i, r in test_split.roles.items()},
                             truth=test_split.truth)
    graph, vocab = _graph(ds, splits)
    cfg = TrainConfig(dim=16, max_epochs=10, seed=0)
    with open(os.path.join(GOLDEN, "baseline_losses.json")) as fh:
        golden = json.load(fh)
    for mode in MODES:
        result = train_baseline(graph, mode, cfg, splits, len(vocab))
        want = golden[mode]
        np.testing.assert_allclose([r["loss"] for r in result.log], want["losses"], rtol=1e-9)
        assert [r["val_p1"] for r in result.log] == want["val_p1"]
        assert result.best_epoch == want["best_epoch"]


def test_one_loss_term_scored_once_per_epoch(monkeypatch):
    # no dual term: fit's combined_loss hands back the primary loss as both terms
    ds, splits = _separable_dataset(3)
    graph, vocab = _graph(ds, splits)
    calls = []
    bce = ad.bce_with_logits

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return bce(*args, **kwargs)

    monkeypatch.setattr(ad, "bce_with_logits", counted)
    result = train_baseline(graph, "item", TrainConfig(dim=4, max_epochs=3), splits, len(vocab))
    assert calls == [(graph.n_items, 4)] * 3
    assert all(r["loss"] == r["l1"] == r["l2"] for r in result.log)


def test_early_stops_on_macro_validation_p1(toy_setup):
    _, splits, vocab, graph = toy_setup
    cfg = TrainConfig(dim=8, max_epochs=30, patience=3, seed=1)
    result = train_baseline(graph, "item_queries", cfg, splits, len(vocab))
    assert result.best_val_p1 == max(r["val_p1"] for r in result.log)
    assert validation_p1(result.model, graph, splits)["val_p1"] == result.best_val_p1
    model = result.model
    assert model.named_parameters() == [("words", model.words), ("weight", model.weight),
                                        ("bias", model.bias)]


def test_empty_features_predict_deterministically():
    model = BaselineModel(
        words=Tensor(np.zeros((3, 4)), requires_grad=True),
        weight=Tensor(np.zeros((4, 3)), requires_grad=True),
        bias=Tensor(np.zeros(3), requires_grad=True),
        mode="item")
    graph = token_graph([], [[]], [[1], [2], [3]], [], [])  # one item, empty title
    predictor = Predictor(model, graph)
    # uniform logits: ties broken by ascending tag index
    assert predictor.topk(0, 2) == [0, 1]
    assert predictor.topk(0, 2, exclude={0}) == [1, 2]


def test_top_ten_queries_by_weight():
    queries = [(f"q{m}", f"qw{m}") for m in range(12)]
    qi = [(f"q{m}", "i0", float(m)) for m in range(12)]  # q11 heaviest
    ds = oracle.dataset_from_rows(items=[("i0", "title")], queries=queries,
                                  tags=[("t0", "x")], qi=qi, it=[("i0", "t0")])
    graph, vocab = _graph(ds)
    [toks] = oracle.token_lists(item_feature_tokens(graph, "item_queries"))
    assert toks[0] == vocab.token_to_id["title"]
    picked = {vocab.id_to_token[t] for t in toks[1:]}
    assert picked == {f"qw{m}" for m in range(2, 12)}  # the ten heaviest

    # an item with no queries falls back to its title
    ds2 = oracle.dataset_from_rows(items=[("i0", "title")], queries=queries, tags=[("t0", "x")],
                                   qi=[], it=[("i0", "t0")])
    graph2, vocab2 = _graph(ds2)
    assert oracle.token_lists(item_feature_tokens(graph2, "item_queries")) == \
        [[vocab2.token_to_id["title"]]]


def test_unknown_mode_rejected():
    ds, _ = _separable_dataset(2)
    graph, _ = _graph(ds)
    with pytest.raises(ValueError, match="unknown baseline mode"):
        item_feature_tokens(graph, "frobnicate")
