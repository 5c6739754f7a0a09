import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taggnn import autodiff as ad
from taggnn import synthetic
from taggnn.autodiff import Tensor
from taggnn.data import dataset_to_graph
from taggnn.evaluation import item_rows
from taggnn.graph import Vocabulary, build_graph, standardize_edge_weights
from taggnn.model import (CENTER_CACHE_SIZE, LEAKY_SLOPE, LayerParams, ModelVariant,
                          TagGNNModel, center_edges, pack_edges, propagate_layer)

import oracle
from conftest import random_tiny_graph, token_graph


def make_layer(dim, seed=0, heterogeneous=True):
    return LayerParams.init(dim, np.random.default_rng(seed), heterogeneous=heterogeneous)


def zero_gate(layer):
    layer.gate_new.data[...] = 0.0
    layer.gate_old.data[...] = 0.0
    layer.gate_bias.data[...] = 0.0


def layer_attention(graph, H, layer, kind, row):
    """The vectorized layer's attention weights at one row, multipliers applied."""
    edges = pack_edges(graph, kind)
    Wh = ad.matmul(Tensor(H), layer.attn_proj)
    scores = ad.leaky_relu(ad.edge_scores(Wh, layer.attn_context, edges.pattern), LEAKY_SLOPE)
    alpha = ad.segment_softmax(scores, edges.pattern).data[:, 0] * edges.multipliers
    return alpha[edges.pattern.indptr[row]:edges.pattern.indptr[row + 1]]


def one_edge_graph():
    """One item (row 0) linked to one tag (row 1)."""
    return token_graph([], [[1]], [[1]], [], [(0, 0)])


def one_edge_candidates(H, layer):
    """Fused candidates of the one-edge graph's rows (each attends to the other with weight 1)."""
    W = layer.attn_proj.data
    hat_item = np.maximum((H[0] + np.maximum(H[1] @ W, 0.0)) @ layer.update_item.data, 0.0)
    hat_tag = np.maximum((H[1] + np.maximum(H[0] @ W, 0.0)) @ layer.update_tag.data, 0.0)
    return np.stack([hat_item, hat_tag])


class TestAttentionCoefficients:
    def test_single_neighbor(self):
        graph = one_edge_graph()
        layer = make_layer(2)
        H = np.random.default_rng(0).normal(size=(graph.n_nodes, 2))
        np.testing.assert_allclose(layer_attention(graph, H, layer, "it", 0), [1.0])

    def test_identical_neighbors_split_evenly(self):
        graph = token_graph([], [[1]], [[1], [1]], [], [(0, 0), (0, 1)])
        layer = make_layer(3)
        H = np.random.default_rng(1).normal(size=(graph.n_nodes, 3))
        H[2] = H[1]  # the two tag nodes look the same
        np.testing.assert_allclose(layer_attention(graph, H, layer, "it", 0), [0.5, 0.5])

    def test_scalar_multipliers_scale_softmax(self):
        # raw weights 1 and 3 standardize to -1 and +1, then softplus
        graph = token_graph([[1], [1]], [[2]], [], [(0, 0, 1.0), (1, 0, 3.0)], [])
        layer = make_layer(3, seed=2)
        H = np.random.default_rng(2).normal(size=(graph.n_nodes, 3))
        H[1] = H[0]  # equal scores for both query neighbors
        alpha = layer_attention(graph, H, layer, "qi", graph.n_queries)
        np.testing.assert_allclose(alpha, 0.5 * np.log1p(np.exp([-1.0, 1.0])))


class TestAggregateMessage:
    # the item row of a one-item graph read through a saturated open gate with an
    # identity update and a zero attention context (uniform attention): with
    # H[item] = 0 the output is the layer's message itself
    def _message(self, neighbor_rows, proj):
        k, d = neighbor_rows.shape
        graph = token_graph([], [[1]], [[1]] * k, [], [(0, t) for t in range(k)])
        layer = make_layer(d)
        zero_gate(layer)
        layer.gate_bias.data[...] = 50.0
        layer.attn_context.data[...] = 0.0
        layer.attn_proj.data[...] = proj
        layer.update_item.data[...] = np.eye(d)
        H = np.vstack([np.zeros(d), neighbor_rows])
        return propagate_layer(graph, Tensor(H), layer, kind="it").data[0]

    def test_identity_passthrough(self):
        h = np.array([[0.3, 1.2]])
        np.testing.assert_allclose(self._message(h, np.eye(2)), h[0])

    def test_zero_projection(self):
        out = self._message(np.ones((2, 3)), np.zeros((3, 3)))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_relu_after_sum(self):
        out = self._message(np.array([[1.0, -2.0], [3.0, 0.0]]), np.eye(2))
        np.testing.assert_allclose(out, [2.0, 0.0])


class TestGatedUpdate:
    def test_zero_gate_params_blend_halfway(self):
        # one query-item edge: each side attends to the other with the lone
        # edge's multiplier ln 2, and moves halfway toward its candidate
        graph = token_graph([[1]], [[2]], [], [(0, 0, 1.0)], [])
        layer = make_layer(2, seed=3)
        zero_gate(layer)
        H = np.array([[0.4, -0.2], [0.1, 0.3]])
        out = propagate_layer(graph, Tensor(H), layer, kind="qi").data
        W = layer.attn_proj.data
        msg = np.maximum(np.log(2.0) * (H[::-1] @ W), 0.0)
        hat = np.stack([np.maximum((H[0] + msg[0]) @ layer.update_query.data, 0.0),
                        np.maximum((H[1] + msg[1]) @ layer.update_item.data, 0.0)])
        np.testing.assert_allclose(out, 0.5 * (hat + H))

    def test_saturated_open_gate_returns_candidate(self):
        layer = make_layer(2, seed=4)
        zero_gate(layer)
        layer.gate_bias.data[...] = 50.0
        H = np.array([[0.4, -0.2], [0.1, 0.3]])
        out = propagate_layer(one_edge_graph(), Tensor(H), layer, kind="it").data
        np.testing.assert_allclose(out, one_edge_candidates(H, layer), atol=1e-12)

    def test_saturated_closed_gate_keeps_previous(self):
        layer = make_layer(2, seed=5)
        zero_gate(layer)
        layer.gate_bias.data[...] = -50.0
        H = np.array([[0.4, 0.2], [0.1, 0.3]])
        out = propagate_layer(one_edge_graph(), Tensor(H), layer, kind="it").data
        np.testing.assert_allclose(out, H, atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_output_between_previous_and_candidate(self, seed):
        layer = make_layer(3, seed=seed)
        H = np.random.default_rng(seed).normal(size=(2, 3))
        out = propagate_layer(one_edge_graph(), Tensor(H), layer, kind="it").data
        hat = one_edge_candidates(H, layer)
        assert np.all(out >= np.minimum(H, hat) - 1e-12)
        assert np.all(out <= np.maximum(H, hat) + 1e-12)


class TestPropagateLayer:
    def test_fully_isolated_graph_is_identity(self):
        graph = token_graph([[1]], [[2]], [[3]], [], [])
        layer = make_layer(4, seed=6)
        H = np.random.default_rng(6).normal(size=(graph.n_nodes, 4))
        out = propagate_layer(graph, Tensor(H), layer, kind="full")
        assert out.data.tobytes() == H.tobytes()

    def test_matches_per_node_reference(self):
        # the vectorized layer must equal the per-node oracle on every variant
        rng = np.random.default_rng(7)
        for trial in range(8):
            graph, _ = random_tiny_graph(rng)
            dim = 3
            layer = make_layer(dim, seed=trial)
            H = rng.normal(size=(graph.n_nodes, dim))
            for kind in ("it", "qi", "full"):
                out = propagate_layer(graph, Tensor(H), layer, kind=kind).data
                expect = oracle.propagate(graph, H, layer, kind=kind)
                np.testing.assert_allclose(out, expect, rtol=1e-10, atol=1e-12)
                for v in range(graph.n_nodes):
                    if not oracle.neighbours(graph, v, kind):
                        np.testing.assert_array_equal(out[v], H[v])

    def test_half_blend_example(self):
        # one item linked to one tag, zero gate params: both nodes move
        # halfway toward their fused candidate
        layer = make_layer(2, seed=8)
        zero_gate(layer)
        H = np.array([[0.5, -0.3], [0.2, 0.9]])
        out = propagate_layer(one_edge_graph(), Tensor(H), layer, kind="it").data
        np.testing.assert_allclose(out, 0.5 * (one_edge_candidates(H, layer) + H))

    def test_homogeneous_equals_tied_heterogeneous(self):
        rng = np.random.default_rng(9)
        graph, _ = random_tiny_graph(rng)
        homo = make_layer(3, seed=20, heterogeneous=False)
        hetero = make_layer(3, seed=21, heterogeneous=True)
        for t in ("attn_proj", "attn_context", "gate_new", "gate_old", "gate_bias"):
            getattr(hetero, t).data[...] = getattr(homo, t).data
        shared = homo.update_query.data
        hetero.update_query.data[...] = shared
        hetero.update_item.data[...] = shared
        hetero.update_tag.data[...] = shared
        H = rng.normal(size=(graph.n_nodes, 3))
        out_homo = propagate_layer(graph, Tensor(H), homo, kind="full").data
        out_hetero = propagate_layer(graph, Tensor(H), hetero, kind="full").data
        np.testing.assert_array_equal(out_homo, out_hetero)

    def test_homogeneous_layer_shares_one_tensor(self):
        layer = make_layer(3, heterogeneous=False)
        assert layer.update_query is layer.update_item is layer.update_tag
        assert len(layer.named_parameters()) == 6


class TestForward:
    def _model(self, graph, n_words, dim=4, n_layers=2, kind="full", seed=0):
        variant = ModelVariant(kind=kind, n_layers=n_layers)
        return TagGNNModel.init(n_words, graph.n_tags, dim, variant,
                                rng=np.random.default_rng([seed, 0]))

    def test_zero_layers_returns_initial(self):
        rng = np.random.default_rng(10)
        graph, n_words = random_tiny_graph(rng)
        model = self._model(graph, n_words, n_layers=0)
        out = model.forward(graph)
        H0 = model.initial_representations(graph).data
        nq, ni = graph.n_queries, graph.n_items
        assert out.item_reps.data.tobytes() == out.initial_item_reps.data.tobytes() == \
            H0[nq:nq + ni].tobytes()
        assert out.tags.data.tobytes() == H0[nq + ni:].tobytes() and out.bias is None

    def test_isolated_item_unchanged_for_any_depth(self):
        graph = token_graph([[1]], [[2], [3]], [[1]], [(0, 0, 2.0)], [(0, 0)])  # item 1: no edges
        for n_layers in (1, 2, 3, 4):
            model = self._model(graph, 4, n_layers=n_layers, seed=n_layers)
            out = model.forward(graph)
            assert out.item_reps.data[1].tobytes() == out.initial_item_reps.data[1].tobytes()

    def test_vectorized_initial_matches_per_node(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            graph, n_words = random_tiny_graph(rng)
            for names, ids in ((True, True), (False, True), (True, False)):
                variant = ModelVariant(use_tag_names=names, use_tag_ids=ids)
                model = TagGNNModel.init(n_words, graph.n_tags, 4, variant,
                                         rng=np.random.default_rng([trial, 0]))
                H0 = model.initial_representations(graph).data
                for v in range(graph.n_nodes):
                    np.testing.assert_array_equal(H0[v], oracle.initial_row(graph, model, v))

    def test_tag_name_toggle(self):
        graph = token_graph([], [[1]], [[2]], [], [(0, 0)])
        variant = ModelVariant(kind="it", use_tag_names=False, n_layers=1)
        model = TagGNNModel.init(3, 1, 4, variant, rng=np.random.default_rng(0))
        H0 = model.initial_representations(graph).data
        row = graph.n_queries + graph.n_items
        np.testing.assert_array_equal(H0[row], model.embeddings.tag_ids.data[0])

    def test_dropout_needs_rng(self):
        graph = token_graph([], [[1]], [[1]], [], [(0, 0)])
        model = self._model(graph, 2, kind="it")
        with pytest.raises(ValueError, match="dropout needs an rng"):
            model.forward(graph, dropout_p=0.5)

    def test_only_the_qi_variant_returns_a_head(self):
        graph = token_graph([[1]], [[2]], [[3]], [(0, 0, 1.0)], [(0, 0)])
        for kind in ("it", "qi", "full"):
            model = self._model(graph, 4, kind=kind)
            out = model.forward(graph)
            if kind == "qi":
                assert out.tags.data.tobytes() == model.head_weight.data.T.tobytes()
                assert out.bias is model.head_bias
            else:
                assert out.tags.shape == (graph.n_tags, model.dim) and out.bias is None

    @pytest.mark.parametrize("dropout_p", [0.5, 0.0])
    def test_qi_forward_never_applies_its_head(self, monkeypatch, dropout_p):
        graph = token_graph([[1]], [[2]], [[3]], [(0, 0, 1.0)], [])
        model = self._model(graph, 4, kind="qi")
        right_operands = []
        matmul = ad.matmul

        def recording(a, b, **kwargs):
            right_operands.append(b)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(ad, "matmul", recording)
        model.forward(graph, dropout_p=dropout_p, rng=np.random.default_rng(0))
        assert right_operands and not any(b is model.head_weight for b in right_operands)

    def test_head_presence_tied_to_variant(self):
        qi = TagGNNModel.init(3, 2, 4, ModelVariant(kind="qi"), rng=np.random.default_rng(0))
        full = TagGNNModel.init(3, 2, 4, ModelVariant(kind="full"), rng=np.random.default_rng(0))
        assert qi.head_weight is not None and full.head_weight is None
        with pytest.raises(ValueError):
            TagGNNModel(qi.embeddings, qi.layers, ModelVariant(kind="qi"))  # head missing
        with pytest.raises(ValueError):
            TagGNNModel(full.embeddings, full.layers, ModelVariant(kind="full"),
                        head_weight=qi.head_weight, head_bias=qi.head_bias)


class TestTapeFreeRows:
    """A forward without a tape, for any items, gives the rows of the taped forward over the
    whole adjacency (:func:`oracle.full_forward`), bit for bit."""

    @staticmethod
    def _item_sets(graph, splits):
        roles = [("train",), ("val_full", "val_comp"), ("test_full", "test_comp"),
                 ("test_comp",)]
        singles = [[i] for i in range(graph.n_items)]
        pairs = [[i, j] for i in range(graph.n_items) for j in range(i + 1, graph.n_items)]
        return [None] + [item_rows(graph, splits, r) for r in roles] + singles + pairs

    @pytest.mark.parametrize("dim", [8, 17, 50, 64])
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("heterogeneous", [True, False])
    @pytest.mark.parametrize("kind", ["it", "qi", "full"])
    def test_outputs_byte_equal_to_the_taped_full_row_forward(self, toy_setup, kind,
                                                              heterogeneous, n_layers, dim):
        _, splits, vocab, graph = toy_setup
        variant = ModelVariant(kind=kind, heterogeneous=heterogeneous, n_layers=n_layers)
        model = TagGNNModel.init(len(vocab), graph.n_tags, dim, variant,
                                 rng=np.random.default_rng([n_layers, dim]))
        H, _ = oracle.full_forward(graph, model)
        assert H._backward is not None
        nq, ni = graph.n_queries, graph.n_items
        taped_items, taped_tags = H.data[nq:nq + ni], H.data[nq + ni:]
        if kind == "qi":    # scored against its head, not the propagated tag rows
            taped_tags = model.head_weight.data.T
        assert model.forward(graph).item_reps.data.tobytes() == taped_items.tobytes()
        for items in self._item_sets(graph, splits):
            with ad.no_grad():
                free = model.forward(graph, items=items)
            read = slice(None) if items is None else items
            assert free.item_reps.data.tobytes() == taped_items[read].tobytes()
            assert free.tags.data.tobytes() == taped_tags.tobytes()

    @pytest.mark.parametrize("dim", [8, 17, 50, 64])
    @pytest.mark.parametrize("kind", ["it", "qi", "full"])
    def test_multi_tile_rows_byte_equal_to_the_taped_full_row_forward(self, multi_tile_setup,
                                                                      kind, dim):
        # every node type spans several tiles, so a restricted last layer computes a row
        # in another tile, at another position in it, than the full forward does
        splits, vocab, graph = multi_tile_setup
        model = TagGNNModel.init(len(vocab), graph.n_tags, dim, ModelVariant(kind=kind),
                                 rng=np.random.default_rng([dim, 9]))
        H, _ = oracle.full_forward(graph, model)
        nq, ni = graph.n_queries, graph.n_items
        taped_items = H.data[nq:nq + ni]
        taped_tags = model.head_weight.data.T if kind == "qi" else H.data[nq + ni:]
        rng = np.random.default_rng(dim)
        roles = [("train",), ("test_full", "test_comp"), ("val_comp",)]
        item_sets = ([item_rows(graph, splits, r) for r in roles]
                     + [[int(i)] for i in rng.choice(ni, 5, replace=False)]
                     + [rng.choice(ni, 100, replace=False)])
        for items in item_sets:
            with ad.no_grad():
                free = model.forward(graph, items=items)
            assert free.item_reps.data.tobytes() == taped_items[items].tobytes()
            assert free.tags.data.tobytes() == taped_tags.tobytes()

    def test_a_lone_row_is_widened_past_its_type(self):
        # a qi forward for the only item: its last layer attends at that one row, and
        # its dense half computes that row in a zero-padded tile (a one-row product
        # would round differently here)
        graph = token_graph([[1], [2]], [[2]], [[1], [3]], [(0, 0, 2.0)], [(0, 1)])
        model = TagGNNModel.init(4, graph.n_tags, 64, ModelVariant(kind="qi", n_layers=1),
                                 rng=np.random.default_rng(1))
        H, _ = oracle.full_forward(graph, model)
        with ad.no_grad():
            free = model.forward(graph, items=[0])
        nq, ni = graph.n_queries, graph.n_items
        assert free.item_reps.data.tobytes() == H.data[nq:nq + ni].tobytes()
        assert free.tags.data.tobytes() == model.head_weight.data.T.tobytes()

    def test_only_rows_with_edges_reach_the_dense_half(self, monkeypatch):
        # only query 0, item 0 and the tag have edges: the dense half gets every node
        # type's rows with or without a tape, and the rows without edges pass through
        # unchanged
        graph = token_graph([[1], [2], [3]], [[2], [3], [1]], [[1]], [(0, 0, 2.0)], [(0, 0)])
        layer = make_layer(4, seed=3)
        H = np.random.default_rng(3).normal(size=(graph.n_nodes, 4))
        spans = []
        gated_update = ad.gated_update

        def recording(H, message, blocks, *args):
            spans.append((H.shape[0], [(lo, hi) for lo, hi, _ in blocks]))
            return gated_update(H, message, blocks, *args)

        monkeypatch.setattr(ad, "gated_update", recording)
        every_row = [(graph.n_nodes, [(0, 3), (3, 6), (6, 7)])]
        taped = propagate_layer(graph, H, layer).data
        assert spans == every_row
        spans.clear()
        with ad.no_grad():
            free = propagate_layer(graph, H, layer).data
        assert spans == every_row
        assert free.tobytes() == taped.tobytes()
        assert free[[1, 2, 4, 5]].tobytes() == H[[1, 2, 4, 5]].tobytes()


class TestFusedDenseHalf:
    """``ad.gated_update`` against the composition of small ops it replaced
    (``oracle.gated_update``): the same forward bytes and the same bytes in every
    input gradient."""

    @staticmethod
    def _run(update, sizes, dim, heterogeneous, held, mask_kind="random"):
        """The output bytes and every leaf's gradient bytes of one taped update.

        ``held``: an op made after the update also reads ``H``, so ``H`` already holds
        a gradient when the update's backward step adds its four parts (layer 1's
        ``H0`` and the initial item rows' gather).  ``mask_kind``: ``random`` (7 rows
        in 10), ``every-row``, ``tile-gaps`` (every row but each third run of
        ``ad.TILE_ROWS``) or ``no-row``.
        """
        rng = np.random.default_rng([dim, *sizes])
        n = sum(sizes)
        layer = make_layer(dim, seed=dim, heterogeneous=heterogeneous)
        layer.gate_bias.data[...] = rng.normal(size=dim)    # initialized to zeros
        H = Tensor(rng.normal(size=(n, dim)), requires_grad=True)
        message = Tensor(rng.normal(size=(n, dim)), requires_grad=True)
        bounds = np.cumsum([0, *sizes])
        updates = (layer.update_query, layer.update_item, layer.update_tag)
        blocks = [(lo, hi, W) for lo, hi, W in zip(bounds[:-1], bounds[1:], updates) if hi > lo]
        mask = rng.random(n) < 0.7
        if mask_kind != "random":
            runs = np.arange(n) // ad.TILE_ROWS
            mask = {"every-row": runs >= 0, "tile-gaps": runs % 3 != 1,
                    "no-row": runs < 0}[mask_kind]
        weights = rng.normal(size=(n, dim))
        weights[rng.random(weights.shape) < 0.1] = -0.0    # signed zeros reach every part
        out = update(H, message, blocks, layer.gate_new, layer.gate_old, layer.gate_bias, mask)
        loss = oracle.mean(ad.mul(out, weights))
        if held:
            loss = ad.add(loss, oracle.mean(ad.gather_rows(H, rng.integers(0, n, size=5))))
        ad.backward(loss)
        leaves = [H, message] + [p for _, p in layer.named_parameters()][2:]
        assert H.grad is not None and message.grad is not None
        return out.data.tobytes(), [None if p.grad is None else p.grad.tobytes() for p in leaves]

    @pytest.mark.parametrize("dim", [8, 17, 50, 64])
    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("heterogeneous", [True, False])
    @pytest.mark.parametrize("sizes", [(30, 70, 40), (0, 70, 40), (30, 70, 0), (0, 70, 0)],
                             ids=["three-types", "no-queries", "no-tags", "one-type"])
    def test_bytes_equal_to_the_composed_ops(self, sizes, heterogeneous, held, dim):
        fused = self._run(ad.gated_update, sizes, dim, heterogeneous, held)
        assert fused == self._run(oracle.gated_update, sizes, dim, heterogeneous, held)

    @pytest.mark.parametrize("dim", [8, 17, 50, 64])
    @pytest.mark.parametrize("mask_kind", ["random", "every-row", "tile-gaps", "no-row"])
    @pytest.mark.parametrize("heterogeneous", [True, False])
    @pytest.mark.parametrize("sizes", [(130, 200, 70), (64, 128, 65)],
                             ids=["partial-tiles", "whole-tiles"])
    def test_bytes_equal_to_the_composed_ops_over_several_tiles(self, sizes, heterogeneous,
                                                                mask_kind, dim):
        # each type spans more than one tile; whole tiles of consecutive masked rows are
        # read in place, the others gathered, and the last one of a type is padded
        fused = self._run(ad.gated_update, sizes, dim, heterogeneous, True, mask_kind)
        assert fused == self._run(oracle.gated_update, sizes, dim, heterogeneous, True,
                                  mask_kind)

    def test_blocks_must_span_the_rows_in_order(self):
        layer = make_layer(3)
        H = np.zeros((5, 3))
        rest = (layer.gate_new, layer.gate_old, layer.gate_bias, np.ones(5, dtype=bool))
        W = layer.update_item
        for blocks in ([], [(0, 4, W)], [(0, 2, W), (3, 5, W)], [(2, 5, W), (0, 2, W)]):
            with pytest.raises(ValueError, match="span the rows"):
                ad.gated_update(H, H, blocks, *rest)

    def test_forward_tape_at_most_half_the_composed_ops(self, monkeypatch):
        # T: what a taped forward holds once it returns, over the same graph and model
        ds, splits = synthetic.overfit_dataset(n_items=300, n_tags=60, n_queries=300, seed=0)
        vocab = Vocabulary.from_texts(ds.texts(), min_count=1)
        graph = dataset_to_graph(ds, vocab, splits=splits)
        model = TagGNNModel.init(len(vocab), graph.n_tags, 32, ModelVariant(n_layers=2),
                                 rng=np.random.default_rng(0))

        def tape():
            model.forward(graph)        # first, so the edge caches are built
            tracemalloc.start()
            try:
                out = model.forward(graph)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del out
            return held

        fused = tape()
        monkeypatch.setattr(ad, "gated_update", oracle.gated_update)
        assert fused <= 0.5 * tape()


class TestCenterEdges:
    def test_keeps_the_rows_entries_order_and_multipliers(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            graph, _ = random_tiny_graph(rng)
            centers = np.flatnonzero(rng.random(graph.n_nodes) < 0.5)
            for kind in ("it", "qi", "full"):
                full, sub = pack_edges(graph, kind), center_edges(graph, kind, centers)
                keep = np.isin(full.pattern.rows, centers)
                np.testing.assert_array_equal(sub.pattern.rows, full.pattern.rows[keep])
                np.testing.assert_array_equal(sub.pattern.cols, full.pattern.cols[keep])
                assert sub.multipliers.tobytes() == full.multipliers[keep].tobytes()
                assert center_edges(graph, kind, centers) is sub

    def test_cache_stays_within_its_bound(self, toy_setup):
        _, _, vocab, graph = toy_setup
        model = TagGNNModel.init(len(vocab), graph.n_tags, 4, ModelVariant(),
                                 rng=np.random.default_rng(0))
        reference = model.forward(graph).item_reps.data
        rng = np.random.default_rng(22)
        seen = set()
        while len(seen) < 100:
            items = np.flatnonzero(rng.random(graph.n_items) < 0.5)
            if tuple(items) in seen:
                continue
            seen.add(tuple(items))
            out = model.forward(graph, items=items)
            assert out.item_reps.data.tobytes() == reference[items].tobytes()
            assert len(graph._pack_cache["full", "centers"]) <= CENTER_CACHE_SIZE

    def test_no_layers_builds_no_restricted_pattern(self, toy_setup):
        _, _, vocab, graph = toy_setup
        model = TagGNNModel.init(len(vocab), graph.n_tags, 4, ModelVariant(n_layers=0),
                                 rng=np.random.default_rng(0))
        out = model.forward(graph, items=[2, 0])
        assert out.item_reps.data.tobytes() == model.forward(graph).item_reps.data[[2, 0]].tobytes()
        assert ("full", "centers") not in graph._pack_cache


class TestPackEdges:
    def test_bare_graph_packs_softplus_multipliers(self):
        # two queries share item 0; weights 1 and 3 standardize to -1 and +1
        graph = token_graph([[1], [2]], [[3]], [], [(0, 0, 1.0), (1, 0, 3.0)], [])
        edges = pack_edges(graph, "qi")
        softplus = np.log1p(np.exp([-1.0, 1.0]))
        np.testing.assert_allclose(standardize_edge_weights(graph.qi_weight), softplus,
                                   rtol=1e-15)
        # rows: query 0 -> item, query 1 -> item, then the item -> queries 0 and 1
        np.testing.assert_array_equal(edges.pattern.rows, [0, 1, 2, 2])
        np.testing.assert_array_equal(edges.pattern.cols, [2, 2, 0, 1])
        np.testing.assert_array_equal(edges.multipliers,
                                      np.tile(standardize_edge_weights(graph.qi_weight), 2))

    @pytest.mark.parametrize("kind", ["it", "qi", "full"])
    def test_order_matches_a_lexsort_by_center_then_neighbour(self, kind):
        rng = np.random.default_rng(21)
        for trial in range(40):
            graph, _ = random_tiny_graph(rng, with_queries=trial % 4 != 0)
            if trial % 5 == 1:      # no item-tag edges
                graph = build_graph(graph.query_tokens, graph.item_tokens, graph.tag_tokens,
                                    np.stack([graph.qi_query, graph.qi_item, graph.qi_weight],
                                             axis=1), [])
            elif trial % 5 == 2:    # no query-item edges
                graph = build_graph(graph.query_tokens, graph.item_tokens, graph.tag_tokens,
                                    [], np.stack([graph.it_item, graph.it_tag], axis=1))
            edges = pack_edges(graph, kind)
            rows, cols = edges.pattern.rows, edges.pattern.cols
            order = np.lexsort((cols, rows))
            np.testing.assert_array_equal(order, np.arange(len(rows)))
            # the same directed edges as the graph's edge arrays, each once
            nq, ni = graph.n_queries, graph.n_items
            want = []
            if kind != "it":
                q, i = graph.qi_query, graph.qi_item + nq
                want += list(zip(q, i, graph.qi_mult)) + list(zip(i, q, graph.qi_mult))
            if kind != "qi":
                i, t = graph.it_item + nq, graph.it_tag + nq + ni
                want += [(a, b, 1.0) for a, b in zip(i, t)] + [(b, a, 1.0) for a, b in zip(i, t)]
            assert sorted(want) == list(zip(rows, cols, edges.multipliers))
