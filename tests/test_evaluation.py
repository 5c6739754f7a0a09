import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taggnn import autodiff as ad
from taggnn import evaluation
from taggnn.autodiff import NumericalError, Tensor
from taggnn.baseline import MODES, BaselineModel
from taggnn.data import RawDataset, SplitAssignment, dataset_to_graph
from taggnn.evaluation import (Predictor, evaluate, item_rows, precision_at_k, rank_topk,
                               report_to_json, subset_precision)
from taggnn.graph import Vocabulary, build_graph
from taggnn.model import ModelVariant, TagGNNModel
from taggnn.training import TrainConfig, train

from conftest import random_tiny_graph, token_graph


class TestPrecisionAtK:
    def test_partial_overlap(self):
        assert precision_at_k(["t1", "t2", "t3"], {"t1", "t3"}, 3) == pytest.approx(2 / 3)

    def test_top_hit(self):
        assert precision_at_k(["t1", "t2"], {"t1"}, 1) == 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="empty ground-truth"):
            precision_at_k(["t1"], set(), 1)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k(["t1"], {"t1"}, 0)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, data):
        n = data.draw(st.integers(1, 20))
        preds = data.draw(st.permutations(range(n)))
        truth = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        k = data.draw(st.integers(1, n))
        # brute force: walk the first k predictions, count membership
        hits = 0
        for p in list(preds)[:k]:
            if p in truth:
                hits += 1
        assert precision_at_k(list(preds), truth, k) == hits / k


class _StubPredictor:
    """Predictor stand-in with a fixed score matrix (items x tags)."""

    def __init__(self, scores):
        self.scores_matrix = np.asarray(scores, dtype=float)

    def score_rows(self, item_indices):
        return self.scores_matrix[item_indices]

    def topk(self, item_index, k, exclude=()):
        return rank_topk(self.scores_matrix[item_index], k, exclude)


def _lexsort_oracle(scores, k, exclude):
    # rank every index by (descending score, ascending index), then filter
    order = np.lexsort((np.arange(len(scores)), -np.asarray(scores, dtype=float)))
    return [int(t) for t in order if int(t) not in exclude][:k]


class TestRankTopK:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_raises(self, bad):
        with pytest.raises(NumericalError):
            rank_topk([0.1, bad, 0.2], 1)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort_oracle(self, data):
        n = data.draw(st.integers(1, 30))
        # few distinct values, so ties are common; signed zeros tie too
        values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.25, 1.0, 3.0])
        scores = data.draw(st.lists(values | st.floats(-5, 5), min_size=n, max_size=n))
        exclude = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        k = data.draw(st.integers(1, n + 3))
        assert rank_topk(scores, k, exclude) == _lexsort_oracle(scores, k, exclude)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_blocks_match_lexsort_oracle(self, data):
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40))
        values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])
        rows = st.lists(values | st.floats(-5, 5), min_size=n, max_size=n)
        scores = np.array(data.draw(st.lists(rows, min_size=m, max_size=m)))
        excludes = data.draw(st.lists(st.sets(st.integers(0, n - 1), max_size=n),
                                      min_size=m, max_size=m))
        k = data.draw(st.integers(1, n + 3))
        # small groups, so the group-minimum bound prunes candidates, ties across groups too
        group = data.draw(st.integers(1, 8))
        with mock.patch.object(evaluation, "RANK_GROUP", group):
            got = rank_topk(scores, k, excludes)
            assert rank_topk(scores, k) == [_lexsort_oracle(row, k, ()) for row in scores]
        assert got == [_lexsort_oracle(row, k, e) for row, e in zip(scores, excludes)]

    def test_nonfinite_score_in_a_block_raises(self):
        scores = np.zeros((3, 4))
        scores[2, 1] = np.nan
        with pytest.raises(NumericalError):
            rank_topk(scores, 2, [(), (), (1,)])


class TestTopK:
    def _trained(self, toy_setup):
        _, splits, vocab, graph = toy_setup
        cfg = TrainConfig(dim=12, n_layers=1, max_epochs=8, seed=2)
        result = train(graph, splits, cfg, n_words=len(vocab))
        return result.model, graph

    def test_highest_similarity_first(self):
        assert rank_topk([0.9, 0.1], 1) == [0]

    def test_tie_breaks_by_lower_index(self):
        assert rank_topk([0.5, 0.7, 0.7], 2) == [1, 2]
        assert rank_topk([0.7, 0.7, 0.5], 2) == [0, 1]

    def test_exclusion_shrinks_candidates(self, toy_setup):
        model, graph = self._trained(toy_setup)
        pred = Predictor(model, graph)
        exclude = set(range(graph.n_tags - 1))
        out = pred.topk(0, 3, exclude=exclude)
        assert out == [graph.n_tags - 1]

    def test_k_must_be_positive(self, toy_setup):
        model, graph = self._trained(toy_setup)
        with pytest.raises(ValueError):
            Predictor(model, graph).topk(0, 0)

    def test_rescaling_tag_reps_preserves_order(self, toy_setup):
        model, graph = self._trained(toy_setup)
        pred = Predictor(model, graph)
        before = [pred.topk(i, graph.n_tags) for i in range(graph.n_items)]
        pred._tags_t = pred._tags_t * 7.5
        after = [pred.topk(i, graph.n_tags) for i in range(graph.n_items)]
        assert before == after


def _baseline(graph, n_words, dim=8, seed=4):
    rng = np.random.default_rng(seed)
    return BaselineModel(words=Tensor(rng.normal(size=(n_words, dim)), requires_grad=True),
                         weight=Tensor(rng.normal(size=(dim, graph.n_tags)), requires_grad=True),
                         bias=Tensor(rng.normal(size=graph.n_tags), requires_grad=True),
                         mode="item_queries")


class TestTapeFreeForward:
    @pytest.mark.parametrize("kind", ["it", "qi", "full", "baseline"])
    def test_outputs_byte_equal_to_the_taped_forward(self, toy_setup, kind):
        _, _, vocab, graph = toy_setup
        if kind == "baseline":
            model = _baseline(graph, len(vocab))
        else:
            model = TagGNNModel.init(len(vocab), graph.n_tags, 8, ModelVariant(kind=kind),
                                     rng=np.random.default_rng([3, 0]))
        taped = model.forward(graph)
        assert taped.item_reps._backward is not None
        with ad.no_grad():
            free = model.forward(graph)
        for name in ("item_reps", "tags"):
            want, got = getattr(taped, name), getattr(free, name)
            assert got.inputs == () and got._backward is None
            assert got.data.tobytes() == want.data.tobytes()
        assert free.bias is taped.bias
        # the predictor keeps the item rows, the C-ordered (d x tags) tag side and a copy
        # of the bias
        predictor = Predictor(model, graph)
        assert predictor._item_reps.tobytes() == free.item_reps.data.tobytes()
        assert predictor._tags_t.flags.c_contiguous
        assert predictor._tags_t.tobytes() == free.tags.data.T.tobytes()
        weight = model.weight if kind == "baseline" else model.head_weight
        if weight is None:
            assert free.bias is None and predictor._bias is None
        else:
            # a head is scored in its own layout, from a copy
            assert predictor._tags_t.shape == (weight.shape[0], graph.n_tags)
            assert predictor._tags_t.tobytes() == weight.data.tobytes()
            assert not np.shares_memory(predictor._tags_t, weight.data)
            assert predictor._bias.tobytes() == free.bias.data.tobytes()
            assert not np.shares_memory(predictor._bias, free.bias.data)


class TestScoreTiles:
    """A score row's bytes never depend on which other items are scored with it, or where."""

    @pytest.mark.parametrize("dim", [8, 17, 50, 64])
    @pytest.mark.parametrize("kind", ["full", "qi", "baseline"])
    def test_rows_byte_equal_alone_in_a_block_in_any_order_and_tile_position(
            self, multi_tile_setup, kind, dim):
        _, vocab, graph = multi_tile_setup
        if kind == "baseline":
            model = _baseline(graph, len(vocab), dim=dim)
        else:
            model = TagGNNModel.init(len(vocab), graph.n_tags, dim, ModelVariant(kind=kind),
                                     rng=np.random.default_rng([dim, 7]))
        predictor = Predictor(model, graph)
        items = np.arange(graph.n_items)
        alone = np.stack([predictor.score_rows([i])[0] for i in items])
        order = np.random.default_rng(dim).permutation(items)
        assert predictor.score_rows(items).tobytes() == alone.tobytes()
        assert predictor.score_rows(order).tobytes() == alone[order].tobytes()
        for shift in (1, 17, 63):       # every item at another position in its tile
            block = predictor.score_rows(np.concatenate((order[:shift], items)))
            assert block[shift:].tobytes() == alone.tobytes()
        restricted = Predictor(model, graph, items=order[:100])
        assert restricted.score_rows(order[:100]).tobytes() == alone[order[:100]].tobytes()


class TestItemRestrictedPredictor:
    """A predictor built for some items scores them exactly as the all-items one does."""

    @staticmethod
    def _item_sets(graph, splits):
        roles = [("train",), ("val_full", "val_comp"), ("test_full", "test_comp"),
                 ("test_comp",)]
        sets = [item_rows(graph, splits, r) for r in roles]
        return sets + [[i] for i in range(graph.n_items)] + [list(range(graph.n_items))[::-1]]

    @pytest.mark.parametrize("dim", [8, 17, 50, 64])
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("heterogeneous", [True, False])
    @pytest.mark.parametrize("kind", ["it", "qi", "full"])
    def test_scores_byte_equal_to_the_all_items_forward(self, toy_setup, kind, heterogeneous,
                                                        n_layers, dim):
        _, splits, vocab, graph = toy_setup
        variant = ModelVariant(kind=kind, heterogeneous=heterogeneous, n_layers=n_layers)
        model = TagGNNModel.init(len(vocab), graph.n_tags, dim, variant,
                                 rng=np.random.default_rng([n_layers, 5]))
        self._assert_scores_byte_equal(model, graph, self._item_sets(graph, splits))

    @staticmethod
    def _assert_scores_byte_equal(model, graph, item_sets):
        reference = Predictor(model, graph)
        for items in item_sets:
            predictor = Predictor(model, graph, items=items)
            block = predictor.score_rows(items)
            assert block.tobytes() == reference.score_rows(items).tobytes()
            for row, i in zip(block, items):
                assert predictor.score_rows([i])[0].tobytes() == row.tobytes() == \
                    reference.score_rows([i])[0].tobytes()

    def test_the_fixture_covers_isolated_and_completion_items(self, toy_setup):
        _, splits, _, graph = toy_setup
        comp = item_rows(graph, splits, ("test_comp", "val_comp"))
        assert len(comp) and all(len(graph.item_tags(i)) for i in comp)
        # full-prediction items lost every tag edge: isolated under the "it" variant
        full = item_rows(graph, splits, ("test_full", "val_full"))
        assert len(full) and not any(len(graph.item_tags(i)) for i in full)

    @pytest.mark.parametrize("kind", ["it", "qi", "full"])
    def test_items_without_any_edge(self, kind):
        rng = np.random.default_rng(12)
        for trial in range(10):
            graph, n_words = random_tiny_graph(rng)
            isolated = int(rng.integers(graph.n_items))
            keep = graph.qi_item != isolated
            graph = build_graph(graph.query_tokens, graph.item_tokens, graph.tag_tokens,
                                np.stack([graph.qi_query[keep], graph.qi_item[keep],
                                          graph.qi_weight[keep]], axis=1),
                                [(i, t) for i, t in zip(graph.it_item, graph.it_tag)
                                 if i != isolated])
            model = TagGNNModel.init(n_words, graph.n_tags, 4, ModelVariant(kind=kind),
                                     rng=np.random.default_rng([trial, 0]))
            reference = Predictor(model, graph)
            for items in ([isolated], list(range(graph.n_items))):
                predictor = Predictor(model, graph, items=items)
                for i in items:
                    assert predictor.score_rows([i])[0].tobytes() == \
                        reference.score_rows([i])[0].tobytes()

    @pytest.mark.parametrize("dim", [8, 17, 50, 64])
    def test_baseline_scores_byte_equal(self, toy_setup, dim):
        _, splits, vocab, graph = toy_setup
        model = _baseline(graph, len(vocab), dim=dim)
        self._assert_scores_byte_equal(model, graph, self._item_sets(graph, splits))

    def test_a_one_item_qi_predictor_holds_no_all_items_score_block(self):
        # the head scores only the items read: a one-item predictor never writes an
        # items x tags block, which here outweighs everything else the forward holds
        rng = np.random.default_rng(0)
        n_queries, n_items, n_tags = 300, 3000, 1000
        graph = token_graph([[int(w)] for w in rng.integers(1, 50, n_queries)],
                            [[int(w)] for w in rng.integers(1, 50, n_items)],
                            [[int(w)] for w in rng.integers(1, 50, n_tags)],
                            [(int(q), i, 1.0) for i, q in
                             enumerate(rng.integers(0, n_queries, n_items))],
                            [(i, i % n_tags) for i in range(n_items)], n_words=50)
        model = TagGNNModel.init(50, n_tags, 8, ModelVariant(kind="qi"),
                                 rng=np.random.default_rng(0))
        Predictor(model, graph, items=[7])  # the graph's edge caches are built once, here
        tracemalloc.start()
        try:
            Predictor(model, graph, items=[7]).score_rows([7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_items * n_tags * 8 / 4

    def test_an_item_it_was_not_built_for_raises(self, toy_setup):
        _, _, vocab, graph = toy_setup
        model = TagGNNModel.init(len(vocab), graph.n_tags, 8, ModelVariant(),
                                 rng=np.random.default_rng(0))
        predictor = Predictor(model, graph, items=[1, 4])
        predictor.topk(4, 2)
        with pytest.raises(ValueError, match="not among"):
            predictor.topk(2, 2)

    def test_forward_exposes_only_final_rows(self, toy_setup):
        _, _, vocab, graph = toy_setup
        model = TagGNNModel.init(len(vocab), graph.n_tags, 8, ModelVariant(kind="qi"),
                                 rng=np.random.default_rng(0))
        full = model.forward(graph)
        out = model.forward(graph, items=[5, 2])
        assert set(vars(out)) == {"item_reps", "initial_item_reps", "tags", "bias"}
        assert out.item_reps.data.tobytes() == full.item_reps.data[[5, 2]].tobytes()
        assert out.initial_item_reps.data.tobytes() == \
            full.initial_item_reps.data[[5, 2]].tobytes()
        assert out.tags.data.tobytes() == model.head_weight.data.T.tobytes()
        assert out.bias is model.head_bias
        with pytest.raises(ValueError, match="item rows"):
            model.forward(graph, items=[graph.n_items])


class TestEvaluate:
    def test_oracle_scores_score_perfectly(self, toy_setup):
        dataset, splits, vocab, graph = toy_setup
        assert graph.tag_ids == dataset.tag_ids
        labels = np.zeros((graph.n_items, graph.n_tags))
        labels[dataset.it_item, dataset.it_tag] = 1.0
        oracle = _StubPredictor(labels)
        out = subset_precision(oracle, graph, splits,
                               roles=("test_full", "test_comp"), ks=(1, 3))
        # every fixture item has three tags: P@K = 1 wherever |truth| >= K
        assert out["test_full"]["p@1"] == 1.0
        assert out["test_full"]["p@3"] == 1.0
        assert out["test_comp"]["p@1"] == 1.0   # truth is the held-out pair

    def test_completion_ceiling_at_k5(self, toy_setup):
        dataset, splits, vocab, graph = toy_setup
        tag_pos = {t: n for n, t in enumerate(graph.tag_ids)}
        labels = np.zeros((graph.n_items, graph.n_tags))
        for item_id in splits.known:
            for t in splits.truth[item_id]:     # a completion item's truth is its held-out pair
                labels[dataset.item_index[item_id], tag_pos[t]] = 1.0
        oracle = _StubPredictor(labels)
        out = subset_precision(oracle, graph, splits, roles=("test_comp",), ks=(5,))
        assert out["test_comp"]["p@5"] == pytest.approx(2 / 5)  # perfect model, |truth| = 2

    def test_known_tags_never_counted(self, toy_setup):
        dataset, splits, vocab, graph = toy_setup
        tag_pos = {t: n for n, t in enumerate(graph.tag_ids)}
        # adversarial model that puts all mass on the known tags
        scores = np.zeros((graph.n_items, graph.n_tags))
        for item_id, known in splits.known.items():
            for t in known:
                scores[dataset.item_index[item_id], tag_pos[t]] = 10.0
        out = subset_precision(_StubPredictor(scores), graph, splits,
                               roles=("test_comp",), ks=(1,))
        comp_items = [i for i, r in splits.roles.items() if r == "test_comp"]
        for item_id in comp_items:
            idx = dataset.item_index[item_id]
            ranked = _StubPredictor(scores).topk(idx, graph.n_tags,
                                                 exclude={tag_pos[t] for t in splits.known[item_id]})
            assert not {graph.tag_ids[t] for t in ranked} & splits.known[item_id]
        assert out["test_comp"]["p@1"] is not None

    def test_chunked_ranking_matches_one_item_at_a_time(self, toy_setup):
        _, splits, vocab, graph = toy_setup
        model = TagGNNModel.init(len(vocab), graph.n_tags, 8, ModelVariant(),
                                 rng=np.random.default_rng(6))
        roles = ("test_full", "test_comp", "val_full", "val_comp")
        predictor = Predictor(model, graph, items=item_rows(graph, splits, roles))
        tag_pos = {t: n for n, t in enumerate(graph.tag_ids)}
        want = {}
        for role in roles:
            rows = item_rows(graph, splits, (role,))
            ranked = [predictor.topk(i, 5, exclude={tag_pos[t] for t in splits.known.get(
                graph.item_ids[i], ())} if role.endswith("_comp") else set()) for i in rows]
            truths = [{tag_pos[t] for t in splits.truth[graph.item_ids[i]]} for i in rows]
            want[role] = {f"p@{k}": float(np.mean([precision_at_k(r, t, k) for r, t
                                                    in zip(ranked, truths)])) for k in (1, 3, 5)}
            want[role]["items"] = len(rows)
        sizes = []
        score_rows = predictor.score_rows

        def recording(item_indices):
            sizes.append(len(item_indices))
            return score_rows(item_indices)

        predictor.score_rows = recording
        for chunk in (1, 3, 1000):
            sizes.clear()
            with mock.patch.object(evaluation, "SCORE_CHUNK", chunk):
                got = subset_precision(predictor, graph, splits, roles, ks=(1, 3, 5))
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
            assert sizes and max(sizes) <= chunk

    def test_report_shape_and_determinism(self, toy_setup):
        _, splits, vocab, graph = toy_setup
        cfg = TrainConfig(dim=12, n_layers=1, max_epochs=6, seed=4)
        model = train(graph, splits, cfg, n_words=len(vocab)).model
        meta = {"config_hash": cfg.sha256(), "seed": cfg.seed, "epochs_trained": 6}
        r1 = evaluate(model, graph, splits, ks=(1, 3, 5), meta=meta)
        r2 = evaluate(model, graph, splits, ks=(1, 3, 5), meta=meta)
        assert report_to_json(r1) == report_to_json(r2)
        for section in ("without_tags", "partial_tags"):
            assert set(r1[section]) == {"p@1", "p@3", "p@5", "items"}
        assert r1["meta"]["config_hash"] == cfg.sha256()


@st.composite
def completion_case(draw):
    """A small random dataset, its split with at least one ``test_comp`` item, a
    ``qi`` model or a baseline of random parameters, and the ``k`` to rank with."""
    n_items, n_tags, n_queries = draw(st.integers(1, 6)), draw(st.integers(3, 7)), draw(
        st.integers(0, 3))
    text = st.lists(st.sampled_from(("w0", "w1", "w2", "w3")), max_size=3).map(" ".join)
    tags_of = [sorted(draw(st.sets(st.integers(0, n_tags - 1), max_size=n_tags)))
               for _ in range(n_items)]
    tags_of[0] = sorted(set(tags_of[0]) | {0, 1, 2})  # item 0 can always be a completion item
    qi = draw(st.lists(st.tuples(st.integers(0, n_queries - 1), st.integers(0, n_items - 1),
                                 st.integers(0, 5)), max_size=8)) if n_queries else []
    ds = RawDataset([f"i{n}" for n in range(n_items)], [draw(text) for _ in range(n_items)],
                    [f"q{m}" for m in range(n_queries)], [draw(text) for _ in range(n_queries)],
                    [f"t{j}" for j in range(n_tags)], [draw(text) for _ in range(n_tags)],
                    [q for q, _, _ in qi], [i for _, i, _ in qi], [float(w) for _, _, w in qi],
                    [n for n, tags in enumerate(tags_of) for _ in tags],
                    [t for tags in tags_of for t in tags])
    roles, truth, known = {}, {}, {}
    for n, tags in enumerate(tags_of):
        item_id, ids = f"i{n}", [f"t{j}" for j in tags]
        roles[item_id] = "test_comp" if n == 0 else draw(st.sampled_from(
            ("train", "test_full", "test_comp")[:1 + (len(ids) >= 1) + (len(ids) >= 3)]))
        if roles[item_id] == "test_comp":
            held = draw(st.permutations(ids))[:2]
            truth[item_id], known[item_id] = frozenset(held), frozenset(ids) - frozenset(held)
        elif roles[item_id] == "test_full":
            truth[item_id] = frozenset(ids)
    splits = SplitAssignment(roles=roles, truth=truth, known=known)
    vocab = Vocabulary.from_texts(ds.texts())
    graph = dataset_to_graph(ds, vocab, splits=splits)
    if draw(st.booleans()):
        model = TagGNNModel.init(len(vocab), n_tags, 4,
                                 ModelVariant(kind="qi", n_layers=draw(st.integers(0, 2))),
                                 rng=np.random.default_rng(draw(st.integers(0, 99))))
    else:
        model = _baseline(graph, len(vocab), dim=4, seed=draw(st.integers(0, 99)))
        model.mode = draw(st.sampled_from(MODES))
    return graph, splits, model, draw(st.integers(1, n_tags))


class TestKnownTagsNeverRanked:
    """For the models that read no item-tag edge (``qi`` and the baselines), only the
    ranking keeps a completion item's known tags out of its top K."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=completion_case())
    def test_known_tags_never_appear_in_a_completion_ranking(self, case):
        graph, splits, model, k = case
        rankings = []

        def recording(scores, k, exclude=()):
            ranked = rank_topk(scores, k, exclude)
            rankings.extend(ranked)
            return ranked

        with mock.patch.object(evaluation, "rank_topk", recording):
            subset_precision(model, graph, splits, roles=("test_comp",), ks=(k,))
        rows = item_rows(graph, splits, ("test_comp",))
        assert len(rankings) == len(rows) >= 1
        for row, ranked in zip(rows, rankings):
            known = splits.known[graph.item_ids[row]]
            ranked_ids = [graph.tag_ids[t] for t in ranked]
            assert not set(ranked_ids) & known
            # every other tag is a candidate: the list is as long as they allow
            assert len(set(ranked_ids)) == len(ranked_ids) == min(k, graph.n_tags - len(known))


def test_reproduces_golden_report(toydata_dir):
    # golden file generated by this implementation after the finite-difference
    # gradient sign-off; guards against silent numeric drift
    import os

    from taggnn import data as dmod
    from taggnn.graph import Vocabulary as V

    dataset = dmod.load_dataset(toydata_dir)
    splits = dmod.make_splits(dataset, (8, 2, 2), seed=11)
    vocab = V.from_texts(dataset.texts(), min_count=1)
    graph = dmod.dataset_to_graph(dataset, vocab, splits=splits)
    cfg = TrainConfig(dim=12, n_layers=2, max_epochs=12, patience=5, seed=11)
    result = train(graph, splits, cfg, n_words=len(vocab))
    report = evaluate(result.model, graph, splits, ks=(1, 3, 5), subset="test",
                      meta={"config_hash": cfg.sha256(), "seed": cfg.seed,
                            "epochs_trained": result.epochs_trained})
    golden = open(os.path.join(os.path.dirname(__file__), "golden",
                               "toydata_report.json"), encoding="utf-8").read()
    assert report_to_json(report) == golden
