import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taggnn import autodiff as ad
from taggnn.autodiff import Tensor
from taggnn.graph import (NodeRef, NodeType, build_graph, initial_node_representation,
                          standardize_edge_weights)
from taggnn.model import (LayerParams, ModelVariant, TagGNNModel,
                          aggregate_message, attention_coefficients,
                          gated_update, pack_edges, propagate_layer)

from conftest import random_tiny_graph


def make_layer(dim, seed=0, heterogeneous=True):
    return LayerParams.init(dim, np.random.default_rng(seed), heterogeneous=heterogeneous)


def zero_gate(layer):
    layer.gate_new.data[...] = 0.0
    layer.gate_old.data[...] = 0.0
    layer.gate_bias.data[...] = 0.0


class TestAttentionCoefficients:
    def test_single_neighbor(self):
        graph = build_graph([], [[1]], [[1]], [], [(0, 0)])
        layer = make_layer(2)
        H = np.random.default_rng(0).normal(size=(graph.n_nodes, 2))
        alpha = attention_coefficients(NodeRef(NodeType.ITEM, 0), H, layer, graph, kind="it")
        np.testing.assert_allclose(alpha, [1.0])

    def test_identical_neighbors_split_evenly(self):
        graph = build_graph([], [[1]], [[1], [1]], [], [(0, 0), (0, 1)])
        layer = make_layer(3)
        H = np.random.default_rng(1).normal(size=(graph.n_nodes, 3))
        H[2] = H[1]  # the two tag nodes look the same
        alpha = attention_coefficients(NodeRef(NodeType.ITEM, 0), H, layer, graph, kind="it")
        np.testing.assert_allclose(alpha, [0.5, 0.5])

    def test_scalar_multipliers_scale_softmax(self):
        graph = build_graph([[1], [1]], [[2]], [], [(0, 0, 1.0), (1, 0, 1.0)], [])
        graph.qi_mult = np.array([2.0, 1.0])  # as if softplus produced 2 and 1
        layer = make_layer(3, seed=2)
        H = np.random.default_rng(2).normal(size=(graph.n_nodes, 3))
        H[1] = H[0]  # equal scores for both query neighbors
        alpha = attention_coefficients(NodeRef(NodeType.ITEM, 0), H, layer, graph, kind="qi")
        np.testing.assert_allclose(alpha, [1.0, 0.5])

    def test_isolated_center_rejected(self):
        graph = build_graph([], [[1]], [[1]], [], [])
        layer = make_layer(2)
        with pytest.raises(ValueError):
            attention_coefficients(NodeRef(NodeType.ITEM, 0), np.zeros((2, 2)), layer,
                                   graph, kind="it")


class TestAggregateMessage:
    def test_identity_passthrough(self):
        h = np.array([[0.3, 1.2]])
        out = aggregate_message([1.0], h, np.eye(2))
        np.testing.assert_allclose(out, h[0])

    def test_zero_projection(self):
        out = aggregate_message([0.5, 0.5], np.ones((2, 3)), np.zeros((3, 3)))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_relu_after_sum(self):
        out = aggregate_message([0.5, 0.5], np.array([[1.0, -2.0], [3.0, 0.0]]), np.eye(2))
        np.testing.assert_allclose(out, [2.0, 0.0])


class TestGatedUpdate:
    def test_zero_gate_params_blend_halfway(self):
        layer = make_layer(2, seed=3)
        zero_gate(layer)
        h_v = np.array([0.4, -0.2])
        h_m = np.array([0.1, 0.3])
        W = layer.update_item.data
        hat = np.maximum((h_v + h_m) @ W, 0.0)
        out = gated_update(h_v, h_m, NodeType.ITEM, layer)
        np.testing.assert_allclose(out, 0.5 * (hat + h_v))

    def test_saturated_open_gate_returns_candidate(self):
        layer = make_layer(2, seed=4)
        zero_gate(layer)
        layer.gate_bias.data[...] = 50.0
        h_v = np.array([0.4, -0.2])
        h_m = np.array([0.1, 0.3])
        hat = np.maximum((h_v + h_m) @ layer.update_item.data, 0.0)
        out = gated_update(h_v, h_m, NodeType.ITEM, layer)
        np.testing.assert_allclose(out, hat, atol=1e-12)

    def test_saturated_closed_gate_keeps_previous(self):
        layer = make_layer(2, seed=5)
        zero_gate(layer)
        layer.gate_bias.data[...] = -50.0
        layer.update_item.data[...] = np.eye(2)
        h_v = np.array([0.4, 0.2])
        out = gated_update(h_v, np.zeros(2), NodeType.ITEM, layer)
        np.testing.assert_allclose(out, h_v, atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_output_between_previous_and_candidate(self, seed):
        rng = np.random.default_rng(seed)
        layer = make_layer(3, seed=seed)
        h_v = rng.normal(size=3)
        h_m = rng.normal(size=3)
        hat = np.maximum((h_v + h_m) @ layer.update_item.data, 0.0)
        out = gated_update(h_v, h_m, NodeType.ITEM, layer)
        lo = np.minimum(h_v, hat) - 1e-12
        hi = np.maximum(h_v, hat) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


class TestPropagateLayer:
    def test_fully_isolated_graph_is_identity(self):
        graph = build_graph([[1]], [[2]], [[3]], [], [])
        layer = make_layer(4, seed=6)
        H = np.random.default_rng(6).normal(size=(graph.n_nodes, 4))
        out = propagate_layer(graph, Tensor(H), layer, kind="full")
        assert out.data.tobytes() == H.tobytes()

    def test_matches_per_node_reference(self):
        # the vectorized layer must equal composing the per-node ops, in any
        # node processing order (synchronous semantics)
        rng = np.random.default_rng(7)
        for trial in range(8):
            graph, _ = random_tiny_graph(rng)
            dim = 3
            layer = make_layer(dim, seed=trial)
            H = rng.normal(size=(graph.n_nodes, dim))
            out = propagate_layer(graph, Tensor(H), layer, kind="full").data

            for v in rng.permutation(graph.n_nodes):
                ref = graph.ref_of(int(v))
                entries = graph.adjacency(int(v))
                if not entries:
                    np.testing.assert_array_equal(out[v], H[v])
                    continue
                alpha = attention_coefficients(ref, H, layer, graph, kind="full")
                nbr = np.stack([H[nb] for nb, _, _ in entries])
                h_m = aggregate_message(alpha, nbr, layer.attn_proj)
                expect = gated_update(H[v], h_m, ref.node_type, layer)
                np.testing.assert_allclose(out[v], expect, rtol=1e-10, atol=1e-12)

    def test_half_blend_example(self):
        # one item linked to one tag, zero gate params: both nodes move
        # halfway toward their fused candidate
        graph = build_graph([], [[1]], [[1]], [], [(0, 0)])
        layer = make_layer(2, seed=8)
        zero_gate(layer)
        H = np.array([[0.5, -0.3], [0.2, 0.9]])
        out = propagate_layer(graph, Tensor(H), layer, kind="it").data
        W = layer.attn_proj.data
        msg_item = np.maximum(H[1] @ W, 0.0)   # alpha = 1 for the single neighbor
        msg_tag = np.maximum(H[0] @ W, 0.0)
        hat_item = np.maximum((H[0] + msg_item) @ layer.update_item.data, 0.0)
        hat_tag = np.maximum((H[1] + msg_tag) @ layer.update_tag.data, 0.0)
        np.testing.assert_allclose(out[0], 0.5 * (hat_item + H[0]))
        np.testing.assert_allclose(out[1], 0.5 * (hat_tag + H[1]))

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
        assert out.reps is out.initial

    def test_isolated_item_unchanged_for_any_depth(self):
        graph = build_graph([[1]], [[2], [3]], [[1]], [(0, 0, 2.0)], [(0, 0)])  # item 1: no edges
        for n_layers in (1, 2, 3, 4):
            model = self._model(graph, 4, n_layers=n_layers, seed=n_layers)
            out = model.forward(graph)
            row = graph.global_index(NodeRef(NodeType.ITEM, 1))
            assert out.reps.data[row].tobytes() == out.initial.data[row].tobytes()

    def test_vectorized_initial_matches_per_node(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            graph, n_words = random_tiny_graph(rng)
            model = self._model(graph, n_words, seed=trial)
            H0 = model.initial_representations(graph).data
            for v in range(graph.n_nodes):
                ref = graph.ref_of(v)
                expect = initial_node_representation(ref, graph, model.embeddings)
                np.testing.assert_array_equal(H0[v], expect)

    def test_tag_name_toggle(self):
        graph = build_graph([], [[1]], [[2]], [], [(0, 0)])
        variant = ModelVariant(kind="it", use_tag_names=False, n_layers=1)
        model = TagGNNModel.init(3, 1, 4, variant, rng=np.random.default_rng(0))
        H0 = model.initial_representations(graph).data
        row = graph.global_index(NodeRef(NodeType.TAG, 0))
        np.testing.assert_array_equal(H0[row], model.embeddings.tag_ids.data[0])

    def test_train_mode_needs_rng(self):
        graph = build_graph([], [[1]], [[1]], [], [(0, 0)])
        model = self._model(graph, 2, kind="it")
        with pytest.raises(ValueError):
            model.forward(graph, train_mode=True)

    def test_qi_variant_has_head_logits(self):
        graph = build_graph([[1]], [[2]], [[3]], [(0, 0, 1.0)], [])
        model = self._model(graph, 4, kind="qi")
        out = model.forward(graph)
        assert out.head_logits.shape == (1, graph.n_tags)

    def test_train_mode_qi_forward_tapes_no_head_matmul(self, monkeypatch):
        graph = build_graph([[1]], [[2]], [[3]], [(0, 0, 1.0)], [])
        model = self._model(graph, 4, kind="qi")
        right_operands = []
        matmul = ad.matmul

        def recording(a, b, **kwargs):
            right_operands.append(b)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(ad, "matmul", recording)
        out = model.forward(graph, train_mode=True, rng=np.random.default_rng(0))
        assert out.head_logits is None
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


class TestPackEdges:
    def test_bare_graph_packs_softplus_multipliers(self):
        # two queries share item 0; weights 1 and 3 standardize to -1 and +1
        graph = build_graph([[1], [2]], [[3]], [], [(0, 0, 1.0), (1, 0, 3.0)], [])
        edges = pack_edges(graph, "qi")
        softplus = np.log1p(np.exp([-1.0, 1.0]))
        np.testing.assert_allclose(standardize_edge_weights(graph.qi_weight), softplus,
                                   rtol=1e-15)
        # rows: query 0 -> item, query 1 -> item, then the item -> queries 0 and 1
        np.testing.assert_array_equal(edges.pattern.rows, [0, 1, 2, 2])
        np.testing.assert_array_equal(edges.pattern.cols, [2, 2, 0, 1])
        np.testing.assert_array_equal(edges.multipliers,
                                      np.tile(standardize_edge_weights(graph.qi_weight), 2))


class TestAttentionNormalization:
    def test_softmax_part_sums_to_one_over_random_graphs(self):
        rng = np.random.default_rng(12)
        for trial in range(25):
            graph, _ = random_tiny_graph(rng)
            edges = pack_edges(graph, "full")
            centers = edges.pattern.rows
            if len(centers) == 0:
                continue
            layer = make_layer(3, seed=trial)
            H = Tensor(rng.normal(size=(graph.n_nodes, 3)))
            Wh = ad.matmul(H, layer.attn_proj)
            hc = ad.gather_rows(Wh, centers)
            hn = ad.gather_rows(Wh, edges.pattern.cols)
            raw = ad.matmul(ad.concat([hc, hn], axis=1), layer.attn_context)
            attn = ad.segment_softmax(ad.leaky_relu(raw, 0.2), edges.pattern).data[:, 0]
            for c in np.unique(centers):
                assert abs(attn[centers == c].sum() - 1.0) < 1e-10
            assert np.all(edges.multipliers > 0)
