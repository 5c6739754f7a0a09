import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taggnn import autodiff as ad
from taggnn import graph as g
from taggnn.autodiff import Tensor
from taggnn.graph import (EmbeddingTable, Vocabulary, build_graph, mean_token_rows, standardize,
                          standardize_edge_weights, token_pattern)
from taggnn.model import ModelVariant, TagGNNModel, pack_edges

import oracle
from conftest import random_tiny_graph, token_graph


# texts of words, unknown words, <unk> itself, empty and whitespace-only texts, and
# runs of ASCII and non-ASCII whitespace
TEXTS = st.lists(st.lists(st.sampled_from(["a", "b", "ab", "<unk>", " ", "  ", "\u00a0",
                                           "\u3000", "\x1c", "\t"]), max_size=10).map("".join),
                 max_size=8)


def _encoded(vocab, texts):
    return oracle.token_lists(vocab.encode_texts(texts))


class TestVocabulary:
    def test_known_tokens(self):
        vocab = Vocabulary.from_texts(["pikachu game", "pikachu go"], min_count=1)
        [ids] = _encoded(vocab, ["pikachu game"])
        assert ids == [vocab.token_to_id["pikachu"], vocab.token_to_id["game"]]
        assert 0 not in ids

    def test_unseen_token_maps_to_unk(self):
        vocab = Vocabulary.from_texts(["pikachu game"], min_count=1)
        assert _encoded(vocab, ["zzzz"]) == [[g.UNK_ID]]

    def test_empty_text(self):
        vocab = Vocabulary.from_texts(["pikachu"], min_count=1)
        assert _encoded(vocab, [""]) == [[]]

    def test_min_count_threshold(self):
        vocab = Vocabulary.from_texts(["a a a b", "a b c"], min_count=3)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id  # 2 < 3
        assert _encoded(vocab, ["b c"]) == [[g.UNK_ID, g.UNK_ID]]

    def test_ids_are_dense(self):
        vocab = Vocabulary.from_texts(["x y z"], min_count=1)
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))

    @given(texts=TEXTS, corpus=TEXTS, min_count=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_encode_texts_matches_per_token_lookup(self, texts, corpus, min_count):
        vocab = Vocabulary.from_texts(corpus, min_count=min_count)
        got = vocab.encode_texts(texts)
        want = token_pattern(oracle.encode_texts(vocab, texts), len(vocab))
        assert got.shape == want.shape
        for a, b in ((got.rows, want.rows), (got.cols, want.cols), (got.indptr, want.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @given(corpus=TEXTS, min_count=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_from_texts_matches_the_per_token_count(self, corpus, min_count):
        vocab = Vocabulary.from_texts(corpus, min_count=min_count)
        assert vocab.id_to_token == [g.UNK_TOKEN] + oracle.vocabulary_tokens(corpus, min_count)


class TestEdgeWeightStandardization:
    def test_z_scores(self):
        out = standardize([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, [-1.224744871391589, 0.0, 1.224744871391589],
                                   atol=1e-12)

    @pytest.mark.parametrize("weight", [7.0, 0.1, 4 * 0.37, 1e-3])
    def test_equal_weights_map_to_log2(self, weight):
        # the float mean of three 0.1s is not 0.1, so their sigma comes out an ulp above zero
        out = standardize_edge_weights([weight] * 3)
        np.testing.assert_allclose(out, math.log(2.0))

    def test_single_edge(self):
        np.testing.assert_allclose(standardize_edge_weights([5.0]), [math.log(2.0)])

    @pytest.mark.parametrize("scale", [1e-3, 0.37, 7.0, 1e6])
    @given(st.lists(st.integers(1, 100), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_scaling_every_weight_keeps_the_multipliers(self, scale, raw):
        # metamorphic: the z-score is scale-free.  Rounding w * scale moves z by about
        # eps * max(w) / sigma, so count-like weights stay well inside the bound
        w = np.array(raw, dtype=np.float64)
        diff = standardize_edge_weights(w * scale) - standardize_edge_weights(w)
        assert np.abs(diff).max() <= 1e-12

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_multipliers_positive(self, raw):
        out = standardize_edge_weights(raw)
        assert np.all(out > 0)

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=30, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_multipliers_increase_with_raw_weight(self, raw):
        # query-log weights are count-like; denormal-scale floats are out of scope
        out = standardize_edge_weights([float(w) for w in raw])
        order = np.argsort(raw)
        assert np.all(np.diff(out[order]) > 0)


def degrees(graph):
    """Per-row degree (queries | items | tags) in the full variant's packed adjacency."""
    return np.diff(pack_edges(graph, "full").pattern.indptr).tolist()


class TestBuildGraph:
    def test_tiny_chain_degrees(self):
        graph = token_graph([[1]], [[2]], [[3]], [(0, 0, 1.0)], [(0, 0)])
        assert degrees(graph) == [1, 2, 1]  # query, item, tag

    def test_duplicate_edges_merge_with_summed_weights(self):
        graph = token_graph([[1]], [[2]], [], [(0, 0, 1.5), (0, 0, 2.0)], [])
        assert len(graph.qi_weight) == 1
        assert graph.qi_weight[0] == pytest.approx(3.5)

    def test_empty_item_tag_edges_is_valid(self):
        graph = token_graph([[1]], [[2]], [[3]], [(0, 0, 1.0)], [])
        assert degrees(graph) == [1, 1, 0]

    def test_dangling_edge_raises(self):
        with pytest.raises(ValueError, match="unknown item"):
            token_graph([[1]], [[2]], [[3]], [(0, 5, 1.0)], [])

    @pytest.mark.parametrize("qi, it, message", [
        ([(0.5, 0, 1.0)], [], "query-item edge (0.5, 0.0, 1.0) has an index that is not an "
                              "integer"),
        ([(0, float("nan"), 1.0)], [], "query-item edge (0.0, nan, 1.0) has an index that is not "
                                       "an integer"),
        ([(0, 0, float("nan"))], [], "non-finite edge weight nan on query-item edge (0, 0)"),
        ([(0, 0, float("inf"))], [], "non-finite edge weight inf on query-item edge (0, 0)"),
        ([(0, 0, -float("inf"))], [], "negative edge weight -inf on query-item edge (0, 0)"),
        ([], [(0, 0.25)], "item-tag edge (0.0, 0.25) has an index that is not an integer"),
        ([], [(float("inf"), 0)], "item-tag edge (inf, 0.0) has an index that is not an integer"),
    ])
    def test_non_integer_index_or_non_finite_weight_raises(self, qi, it, message):
        # before, the fractional and NaN indices were truncated and NaN or inf weights kept
        with pytest.raises(ValueError) as got:
            token_graph([[1]], [[2]], [[3]], qi, it)
        assert str(got.value) == message

    def test_patterns_over_different_vocabularies_raise(self):
        with pytest.raises(ValueError, match=r"different vocabulary sizes \[4, 5\]"):
            build_graph(token_pattern([[1]], 4), token_pattern([[2]], 5), token_pattern([[3]], 4),
                        [], [])

    def test_adjacency_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            graph, _ = random_tiny_graph(rng)
            pattern = pack_edges(graph, "full").pattern
            entries = set(zip(pattern.rows.tolist(), pattern.cols.tolist()))
            assert entries == {(c, r) for r, c in entries}

    def test_deterministic_rebuild(self):
        args = ([[1], [2]], [[3]], [[4]], [(0, 0, 2.0), (1, 0, 1.0)], [(0, 0)])
        g1, g2 = token_graph(*args), token_graph(*args)
        np.testing.assert_array_equal(g1.qi_query, g2.qi_query)
        np.testing.assert_array_equal(g1.qi_weight, g2.qi_weight)
        np.testing.assert_array_equal(g1.it_item, g2.it_item)
        e1, e2 = pack_edges(g1, "full"), pack_edges(g2, "full")
        for a, b in ((e1.pattern.rows, e2.pattern.rows), (e1.pattern.cols, e2.pattern.cols),
                     (e1.multipliers, e2.multipliers)):
            assert a.tobytes() == b.tobytes()


# sums of these depend on the order of addition: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
WEIGHT = st.sampled_from((0.1, 0.2, 0.3, 1e16, 1.0, 0.0))


NAN, INF = float("nan"), float("inf")


@st.composite
def edge_lists(draw):
    """Node counts and edge lists with many duplicates; in one draw of three, up
    to three edges with an index one past either end, or not a whole number,
    or a negative or non-finite weight (or a valid edge of whole floats)."""
    nq, ni, nt = (draw(st.integers(1, 3)) for _ in range(3))
    qi = draw(st.lists(st.tuples(st.integers(0, nq - 1), st.integers(0, ni - 1), WEIGHT),
                       max_size=12))
    it = draw(st.lists(st.tuples(st.integers(0, ni - 1), st.integers(0, nt - 1)), max_size=12))
    if draw(st.sampled_from((False, False, True))):
        bad_qi = st.sampled_from([(0, 0, -0.5), (-1, 0, 1.0), (nq - 1, ni - 1, -0.1),
                                  (nq, 0, 1.0), (0, -1, 1.0), (0, ni, 0.1), (nq, ni, -1.0),
                                  (0, 0, NAN), (0, ni - 1, INF), (0, 0, -INF), (nq, 0, NAN),
                                  (0.5, 0, 1.0), (0, ni - 0.5, 1.0), (NAN, 0, 1.0),
                                  (0, INF, 1.0), (-0.5, 0, NAN), (float(nq - 1), 0.0, 1.0)])
        bad_it = st.sampled_from([(-1, 0), (ni, 0), (0, -1), (0, nt), (ni, nt), (0.5, 0),
                                  (0, nt - 0.5), (NAN, 0), (0, -INF), (ni, NAN)])
        for edges, bad in draw(st.lists(st.sampled_from([(qi, bad_qi), (it, bad_it)]),
                                        min_size=1, max_size=3)):
            edges.insert(draw(st.integers(0, len(edges))), draw(bad))
    return nq, ni, nt, qi, it


class TestEdgeBuildMatchesDictMerge:
    """``build_graph``'s edge arrays against the dict merge in ``oracle``."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=edge_lists())
    def test_same_arrays_or_same_message(self, case):
        nq, ni, nt, qi, it = case
        nodes = ([[1]] * nq, [[1]] * ni, [[1]] * nt)
        try:
            want = oracle.build_edges(nq, ni, nt, qi, it)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                token_graph(*nodes, qi, it)
            assert str(got.value) == str(exc)
            return
        graph = token_graph(*nodes, qi, it)
        for name, array in want.items():
            assert getattr(graph, name).dtype == array.dtype, name
            assert getattr(graph, name).tobytes() == array.tobytes(), name


class TestInitialRepresentation:
    def _model(self, words, graph):
        words = np.asarray(words, dtype=np.float64)
        table = EmbeddingTable.init(words.shape[0], graph.n_tags, words.shape[1],
                                    np.random.default_rng(0))
        table.words.data[...] = words
        return TagGNNModel(table, [], ModelVariant(n_layers=0))

    def _rep(self, model, graph):
        # every graph here has one node, so its vector is row 0
        return model.initial_representations(graph).data[0]

    def test_item_mean(self):
        graph = token_graph([], [[1, 2]], [], [], [])
        model = self._model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], graph)
        np.testing.assert_allclose(self._rep(model, graph), [0.5, 0.5])

    def test_tag_adds_id_embedding(self):
        graph = token_graph([], [], [[1, 2]], [], [])
        model = self._model([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], graph)
        np.testing.assert_allclose(self._rep(model, graph),
                                   np.array([0.5, 0.5]) + model.embeddings.tag_ids.data[0])

    def test_tag_without_tokens_uses_id_alone(self):
        graph = token_graph([], [], [[]], [], [])
        model = self._model([[0.0, 0.0], [1.0, 0.0]], graph)
        np.testing.assert_array_equal(self._rep(model, graph), model.embeddings.tag_ids.data[0])

    def test_item_with_no_tokens_is_zero(self):
        graph = token_graph([], [[]], [], [], [])
        model = self._model([[0.0, 0.0], [1.0, 0.0]], graph)
        np.testing.assert_array_equal(self._rep(model, graph), np.zeros(2))

    def test_item_with_only_unknown_tokens_is_zero(self):
        # UNK embedding row is pinned to zero, so the mean stays zero
        graph = token_graph([], [[g.UNK_ID, g.UNK_ID]], [], [], [], n_words=2)
        model = self._model([[0.0, 0.0], [1.0, 0.0]], graph)
        np.testing.assert_array_equal(self._rep(model, graph), np.zeros(2))

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_words_scales_item_reps(self, c):
        rng = np.random.default_rng(9)
        words = rng.normal(size=(4, 3))
        words[0] = 0.0
        graph = token_graph([], [[1, 2, 3]], [], [], [])
        model = self._model(words, graph)
        base = self._rep(model, graph)
        model.embeddings.words.data *= c
        np.testing.assert_allclose(self._rep(model, graph), c * base, rtol=1e-12)

    def test_unk_row_initialized_to_zero(self):
        table = EmbeddingTable.init(5, 2, 4, np.random.default_rng(1))
        np.testing.assert_array_equal(table.words.data[g.UNK_ID], np.zeros(4))
        assert np.all(table.words.data[1:] != 0)


def _gather_scatter_mean(words, token_lists):
    """Mean token rows by gathering word rows and summing them with ``np.add.at``."""
    flat = [t for toks in token_lists for t in toks]
    owners = [row for row, toks in enumerate(token_lists) for _ in toks]
    inv = np.array([[1.0 / len(toks) if toks else 0.0] for toks in token_lists])
    gathered = ad.gather_rows(words, np.asarray(flat, dtype=np.int64))
    return ad.mul(ad.scatter_add_rows(gathered, np.asarray(owners, dtype=np.int64),
                                      len(token_lists)), inv)


def test_mean_token_rows_bit_identical_to_gather_scatter(toy_setup):
    _, _, vocab, graph = toy_setup
    rng = np.random.default_rng(5)
    tags = oracle.token_lists(graph.tag_tokens) + [[]]
    cases = [(graph.query_tokens, oracle.token_lists(graph.query_tokens)),
             (graph.item_tokens, oracle.token_lists(graph.item_tokens)),
             (token_pattern(tags, len(vocab)), tags)]
    for pattern, lists in cases:
        initial = rng.normal(size=(len(vocab), 4))
        w = rng.normal(size=(len(lists), 4))
        results = []
        for mean_rows in (lambda words: mean_token_rows(words, pattern),
                          lambda words: _gather_scatter_mean(words, lists)):
            words = Tensor(initial.copy(), requires_grad=True)
            out = mean_rows(words)
            ad.backward(oracle.mean(ad.mul(out, w)))
            results.append((out.data.tobytes(), words.grad.tobytes()))
        assert results[0] == results[1]
