import contextlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from taggnn import autodiff as ad
from taggnn import data as dm
from taggnn import evaluation
from taggnn import synthetic
from taggnn import training
from taggnn.autodiff import Tensor
from taggnn.baseline import train_baseline
from taggnn.graph import Vocabulary
from taggnn.model import ModelVariant, TagGNNModel
from taggnn.training import (NumericalError, TrainConfig, combined_loss, fit, label_matrix,
                             link_prediction_loss, train)

import oracle
from conftest import positives, random_tiny_graph, token_graph

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class TestLinkPredictionLoss:
    def test_zero_logits_give_log2(self):
        items = Tensor(np.zeros((3, 4)))
        tags = Tensor(np.zeros((5, 4)))
        loss = link_prediction_loss(items, tags, positives(np.eye(3, 5)))
        assert loss.data == pytest.approx(math.log(2.0), abs=1e-12)

    def test_separated_logits_vanish(self):
        items = Tensor(np.array([[50.0], [-50.0]]))
        tags = Tensor(np.array([[1.0], [-1.0]]))
        labels = positives([[1.0, 0.0], [0.0, 1.0]])
        loss = link_prediction_loss(items, tags, labels)
        assert loss.data < 1e-10

    def test_hand_evaluated_pair(self):
        # logits [1, -1] against labels [1, 0]: both terms are log(1 + e^-1)
        items = Tensor(np.array([[1.0]]))
        tags = Tensor(np.array([[1.0], [-1.0]]))
        loss = link_prediction_loss(items, tags, positives([[1.0, 0.0]]))
        assert loss.data == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-12)

    def test_zero_items_rejected(self):
        with pytest.raises(ValueError):
            link_prediction_loss(Tensor(np.zeros((0, 3))), Tensor(np.zeros((2, 3))),
                                 positives(np.zeros((0, 2))))


class TestHeadScoredLinkLoss:
    """The ``qi`` head and the baseline score through the same loss: ``tags`` is the
    transposed head weight, with the head bias."""

    def test_zero_head_gives_log2(self):
        loss = link_prediction_loss(Tensor(np.ones((2, 3))),
                                    ad.transpose(Tensor(np.zeros((3, 4)))),
                                    positives(np.zeros((2, 4))), Tensor(np.zeros(4)))
        assert loss.data == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_evaluated_example(self):
        # head output d = [0, 2] against y = [1, 0]
        loss = link_prediction_loss(Tensor(np.zeros((1, 2))),
                                    ad.transpose(Tensor(np.zeros((2, 2)))),
                                    positives([[1.0, 0.0]]), Tensor(np.array([0.0, 2.0])))
        expect = (math.log(2.0) + math.log1p(math.exp(2.0))) / 2.0
        assert loss.data == pytest.approx(expect, abs=1e-12)
        assert loss.data == pytest.approx(1.410037595801459, abs=1e-10)

    def test_head_weights_equal_to_tag_reps_match_link_loss(self):
        rng = np.random.default_rng(0)
        items = rng.normal(size=(3, 4))
        tags = rng.normal(size=(5, 4))
        labels = positives(rng.random((3, 5)) < 0.4)
        lp = link_prediction_loss(Tensor(items), Tensor(tags), labels)
        nc = link_prediction_loss(Tensor(items), ad.transpose(Tensor(tags.T)), labels,
                                  Tensor(np.zeros(5)))
        assert lp.data == pytest.approx(nc.data, abs=1e-14)


class TestCombinedLoss:
    def test_gamma_zero_is_exactly_primary(self):
        graph, model, item_idx, labels = synthetic.gradcheck_instance(dim=4, n_layers=1)
        model.gamma = 0.0
        total, l1, l2 = combined_loss(graph, model, item_idx, labels)
        assert total is l1

    def test_gamma_zero_dual_loss_is_logged_without_a_tape(self, monkeypatch):
        graph, model, item_idx, labels = synthetic.gradcheck_instance(dim=4, n_layers=1)
        model.gamma = 0.0
        wants, block = [], ad._bce_block
        monkeypatch.setattr(ad, "_bce_block", lambda *a: wants.append(a[-1]) or block(*a))
        total, l1, l2 = combined_loss(graph, model, item_idx, labels)
        assert l1.requires_grad and not l2.requires_grad and l2._backward is None
        assert wants == [(True, True, False), (False, False, False)]
        _, _, taped_l2 = oracle.combined_loss_all_items(graph, model, item_idx, labels)
        assert l2.data.tobytes() == taped_l2.data.tobytes()

    def test_isolated_items_make_dual_equal_primary(self):
        # no edges at all: initial and final representations coincide
        graph = token_graph([], [[1], [2]], [[3], [1]], [], [])
        model = TagGNNModel.init(4, 2, 3, ModelVariant(kind="it", n_layers=2), gamma=0.7,
                                 rng=np.random.default_rng(0))
        labels = positives(np.eye(2))
        total, l1, l2 = combined_loss(graph, model, np.arange(2), labels)
        assert l1.data.tobytes() == l2.data.tobytes()
        assert total.data == pytest.approx((1 + 0.7) * float(l1.data), rel=1e-15)

    def test_dual_loss_ignores_item_side_propagation(self):
        # tags isolated (query-item edges only): the dual loss sees initial
        # item reps and un-propagated tag reps, so no layer parameter can
        # receive gradient through it
        graph = token_graph([[1]], [[2], [3]], [[1], [2]],
                            [(0, 0, 1.0), (0, 1, 2.0)], [])
        model = TagGNNModel.init(4, 2, 3, ModelVariant(kind="full", n_layers=2),
                                 rng=np.random.default_rng(1))
        labels = positives(np.eye(2))
        _, _, l2 = combined_loss(graph, model, np.arange(2), labels)
        ad.backward(l2)
        for layer in model.layers:
            for _, p in layer.named_parameters():
                assert p.grad is None or not np.any(p.grad)
        assert model.embeddings.words.grad is not None

    def test_gradcheck_through_both_branches(self):
        graph, model, item_idx, labels = synthetic.gradcheck_instance(dim=3, n_layers=1)
        params = model.parameters()

        def loss_fn():
            total, _, _ = combined_loss(graph, model, item_idx, labels)
            return total

        assert ad.finite_difference_check(loss_fn, params) < 1e-4

    def test_released_tapes_leave_gradcheck_and_the_no_grad_forward_unchanged(self):
        graph, model, item_idx, labels = synthetic.gradcheck_instance(dim=3, n_layers=1)

        def loss_fn():
            return combined_loss(graph, model, item_idx, labels)[0]

        def scores():
            with ad.no_grad():
                out = model.forward(graph)
            return out.item_reps.data.tobytes() + out.tags.data.tobytes()

        before = scores()
        errors = [ad.finite_difference_check(loss_fn, model.parameters()) for _ in range(2)]
        assert errors[0] == errors[1] < 1e-4
        assert scores() == before

    def test_backward_frees_the_tape_as_it_runs(self):
        # T is the forward tape of one combined_loss.  A backward that kept the tape would
        # peak about 0.95 T above it and leave about 1.95 T alive; released, what stays is
        # the parameter gradients.
        ds, splits = synthetic.overfit_dataset(n_items=300, n_tags=60, n_queries=300, seed=0)
        vocab = Vocabulary.from_texts(ds.texts(), min_count=1)
        graph = dm.dataset_to_graph(ds, vocab, splits=splits)
        model = TagGNNModel.init(len(vocab), graph.n_tags, 32, ModelVariant(n_layers=2),
                                 rng=np.random.default_rng(0))
        rows = evaluation.item_rows(graph, splits, ("train",))
        labels = label_matrix(graph, rows)
        rng = np.random.default_rng(1)

        def loss():
            return combined_loss(graph, model, rows, labels, dropout_p=0.5, rng=rng)[0]

        ad.backward(loss())     # first, so lazy set-up (edge cache, BCE threads) is done
        ad.zero_grads(model.parameters())
        tracemalloc.start()
        try:
            total = loss()
            tape = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(total)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - tape < 0.25 * tape
        assert held < 0.1 * tape


def _toy_training_setup(seed=0, n_items=20):
    ds, splits = synthetic.overfit_dataset(n_items=n_items, n_tags=8, n_queries=10, seed=seed)
    vocab = Vocabulary.from_texts(ds.texts(), min_count=1)
    graph = dm.dataset_to_graph(ds, vocab, splits=splits)
    return ds, splits, vocab, graph


class TestTrainLoop:
    @pytest.mark.parametrize("kind,heterogeneous", [("it", True), ("qi", True), ("full", True),
                                                    ("full", False)])
    def test_item_restricted_forward_trains_bit_identically(self, kind, heterogeneous,
                                                            monkeypatch):
        _, splits, vocab, graph = _toy_training_setup(seed=5, n_items=60)
        cfg = TrainConfig(dim=12, n_layers=2, max_epochs=4, patience=4, seed=1, variant=kind,
                          heterogeneous=heterogeneous)

        def trained():
            model = TagGNNModel.init(len(vocab), graph.n_tags, cfg.dim, cfg.model_variant(),
                                     rng=np.random.default_rng([cfg.seed, 0]))
            assert fit(model, graph, splits, cfg).epochs_trained == 4
            return [p.data.tobytes() for p in model.parameters()]

        restricted = trained()
        monkeypatch.setattr(training, "combined_loss", oracle.combined_loss_all_items)
        assert restricted == trained()

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("kind,heterogeneous", [("it", True), ("qi", False), ("full", True),
                                                    ("full", False)])
    def test_fused_dense_half_and_untaped_dual_loss_train_bit_identically(
            self, kind, heterogeneous, gamma, monkeypatch):
        # against the composed dense half and a taped dual loss, as training ran before both
        _, splits, vocab, graph = _toy_training_setup(seed=6, n_items=40)
        cfg = TrainConfig(dim=12, n_layers=2, max_epochs=3, patience=3, seed=2, variant=kind,
                          heterogeneous=heterogeneous, gamma=gamma, dropout=0.3)

        def trained():
            result = train(graph, splits, cfg, n_words=len(vocab))
            log = [{k: v for k, v in r.items() if k != "seconds"} for r in result.log]
            return log, [(p.data.tobytes(), p.grad.tobytes()) for p in result.model.parameters()]

        fused = trained()
        monkeypatch.setattr(ad, "gated_update", oracle.gated_update)
        monkeypatch.setattr(training, "combined_loss", oracle.combined_loss_all_items)
        assert fused == trained()

    def test_same_seed_reproduces_losses_exactly(self):
        _, splits, vocab, graph = _toy_training_setup()
        cfg = TrainConfig(dim=16, n_layers=1, max_epochs=5, seed=3)
        log1 = train(graph, splits, cfg, n_words=len(vocab)).log
        log2 = train(graph, splits, cfg, n_words=len(vocab)).log
        assert [r["loss"] for r in log1] == [r["loss"] for r in log2]
        assert [r["l2"] for r in log1] == [r["l2"] for r in log2]

    def test_patience_zero_stops_at_first_flat_epoch(self, toy_setup):
        _, splits, vocab, graph = toy_setup
        cfg = TrainConfig(dim=8, n_layers=1, max_epochs=50, patience=0, seed=0)
        result = train(graph, splits, cfg, n_words=len(vocab))
        vals = [r["val_p1"] for r in result.log]
        assert result.epochs_trained < 50
        # every epoch before the last strictly improved on the running best
        best = -1.0
        for v in vals[:-1]:
            assert v > best
            best = v
        assert vals[-1] <= best

    def test_returned_model_is_best_epoch(self, toy_setup):
        _, splits, vocab, graph = toy_setup
        cfg = TrainConfig(dim=16, n_layers=1, max_epochs=25, patience=4, seed=1)
        result = train(graph, splits, cfg, n_words=len(vocab))
        best_logged = max(r["val_p1"] for r in result.log)
        assert result.best_val_p1 == pytest.approx(best_logged)
        from taggnn.evaluation import subset_precision
        val = subset_precision(result.model, graph, splits,
                               roles=("val_full", "val_comp"), ks=(1,))
        parts = [val[r]["p@1"] for r in ("val_full", "val_comp") if val[r]["items"]]
        assert float(np.mean(parts)) == pytest.approx(best_logged)

    def test_nonfinite_loss_aborts(self):
        _, splits, vocab, graph = _toy_training_setup()
        cfg = TrainConfig(dim=8, n_layers=1, max_epochs=3, seed=0)
        model = TagGNNModel.init(len(vocab), graph.n_tags, cfg.dim, cfg.model_variant(),
                                 rng=np.random.default_rng(0))
        model.embeddings.words.data[1, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="epoch 0"):
            fit(model, graph, splits, cfg)

    def test_nonfinite_gradient_aborts_before_the_step(self, monkeypatch):
        # the loss p * sum(c) is 6e8, but its gradient sum(c) overflows to inf
        class Model:
            p = Tensor([1e-300], requires_grad=True)

            def named_parameters(self):
                return [("p", self.p)]

            def zero_frozen_grads(self):
                pass

        model = Model()

        def poisoned(*args, **kwargs):
            loss = ad.mul(oracle.mean(ad.mul(model.p, np.full(4, 1.5e308))), 4.0)
            return loss, loss, loss

        _, splits, _, graph = _toy_training_setup()
        monkeypatch.setattr(training, "combined_loss", poisoned)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="gradient of p at epoch 0"):
            fit(model, graph, splits, TrainConfig(max_epochs=2))
        assert model.p.data[0] == 1e-300

    def test_tape_free_validation_changes_no_gradient_or_log(self, toy_setup, monkeypatch):
        _, splits, vocab, graph = toy_setup
        cfg = TrainConfig(dim=12, n_layers=2, max_epochs=6, seed=5)

        def run():
            result = train(graph, splits, cfg, n_words=len(vocab))
            # the gradients left are the last epoch's; the data are the best epoch's
            state = [(p.data.tobytes(), p.grad.tobytes()) for p in result.model.parameters()]
            return [{k: v for k, v in r.items() if k != "seconds"} for r in result.log], state

        free = run()
        monkeypatch.setattr(evaluation, "no_grad", contextlib.nullcontext)
        taped = run()
        assert free == taped

    def test_no_training_items_rejected(self, toy_setup):
        _, splits, vocab, graph = toy_setup
        cfg = TrainConfig(dim=8, max_epochs=1)
        empty = type(splits)(roles={i: "test_full" for i in list(splits.roles)[:2]},
                             truth={i: frozenset({"t_game"}) for i in list(splits.roles)[:2]})
        with pytest.raises(ValueError, match="no training items"):
            train(graph, empty, cfg, n_words=len(vocab))

    def test_n_words_must_match_the_graph_vocabulary(self, toy_setup):
        _, splits, vocab, graph = toy_setup
        cfg = TrainConfig(dim=8, max_epochs=1)
        for n_words in (len(vocab) + 1, len(vocab) - 1):
            want = f"n_words is {n_words}, but the graph's token patterns span {len(vocab)} words"
            with pytest.raises(ValueError, match=want):
                train(graph, splits, cfg, n_words=n_words)
            with pytest.raises(ValueError, match=want):
                train_baseline(graph, "item", cfg, splits, n_words)

    def test_first_ten_epochs_match_golden_log(self):
        ds, splits = synthetic.overfit_dataset(seed=0)
        vocab = Vocabulary.from_texts(ds.texts(), min_count=1)
        graph = dm.dataset_to_graph(ds, vocab, splits=splits)
        cfg = TrainConfig(dim=200, n_layers=2, max_epochs=10, seed=0)
        losses = [r["loss"] for r in train(graph, splits, cfg, n_words=len(vocab)).log]
        assert all(a >= b for a, b in zip(losses, losses[1:]))
        with open(os.path.join(GOLDEN, "overfit_first10_losses.json")) as fh:
            golden = json.load(fh)
        np.testing.assert_allclose(losses, golden, rtol=1e-9)


class TestConfig:
    def test_roundtrip(self):
        cfg = TrainConfig(dim=32, gamma=0.5, variant="it")
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            TrainConfig.from_dict({"dim": 8, "typo": 1})

    def test_hash_changes_with_content(self):
        assert TrainConfig(dim=8).sha256() != TrainConfig(dim=9).sha256()


class TestLabelMatrix:
    def test_matches_graph_edges(self):
        graph = token_graph([], [[1], [2]], [[3], [1], [2]], [], [(0, 0), (0, 2), (1, 1)])
        y = label_matrix(graph, np.array([0, 1]))
        assert y.shape == (2, 3)
        np.testing.assert_array_equal(y.rows, [0, 0, 1])
        np.testing.assert_array_equal(y.cols, [0, 2, 1])

    def test_any_row_order_matches_item_tags(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            graph, _ = random_tiny_graph(rng)
            items = rng.integers(0, graph.n_items, size=int(rng.integers(0, 7)))
            y = label_matrix(graph, items)
            assert y.shape == (len(items), graph.n_tags)
            assert [sorted(y.cols[y.rows == r]) for r in range(len(items))] == \
                   [list(graph.item_tags(i)) for i in items]
