import contextlib
import math
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taggnn import autodiff as ad
from taggnn import graph as graph_mod
from taggnn.autodiff import Adam, Tensor

import oracle
from conftest import positives


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    loss = ad.mul(x, x)
    ad.backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_matmul_column_sums():
    A = Tensor([[1.0, 2.0], [3.0, 4.0]])
    x = Tensor([[1.0], [1.0]], requires_grad=True)
    loss = ad.mul(oracle.mean(ad.matmul(A, x)), 2.0)  # sum of A @ x
    ad.backward(loss)
    np.testing.assert_allclose(x.grad.ravel(), [4.0, 6.0])


def test_shared_subexpression_accumulates():
    x = Tensor(2.0, requires_grad=True)
    y = Tensor(-4.0, requires_grad=True)
    q = ad.mul(ad.add(x, y), ad.add(x, 1.0))
    ad.backward(q)
    assert x.grad == pytest.approx((2.0 - 4.0) + (2.0 + 1.0))
    assert y.grad == pytest.approx(3.0)


def test_a_first_part_is_kept_only_when_its_op_marks_it_fresh(monkeypatch):
    # add hands its one incoming gradient to a and b, both still without a grad, so each
    # must get its own copy: the part from matmul(a, w) that reaches a later is added
    # into a's grad alone.  matmul's parts are fresh, so w keeps its first one.
    first = {}
    accumulate = Tensor.accumulate_grad

    def recording(self, g):
        first.setdefault(id(self), g)
        accumulate(self, g)

    monkeypatch.setattr(Tensor, "accumulate_grad", recording)
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    w = Tensor(np.full((3, 1), 2.0), requires_grad=True)
    through_a = ad.matmul(a, w)
    ad.backward(oracle.mean(ad.add(through_a, ad.matmul(ad.add(a, b), w))))
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 1.0))
    assert isinstance(first[id(w)], ad._Fresh) and w.grad is first[id(w)].part
    assert not isinstance(first[id(b)], ad._Fresh)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x))


def test_unreachable_parameter_keeps_zero_grad():
    x = Tensor(1.0, requires_grad=True)
    other = Tensor(5.0, requires_grad=True)
    ad.backward(ad.mul(x, x))
    assert other.grad is None  # treated as zero by the optimizer


class TestReleasedTape:
    @staticmethod
    def _layer():
        x = Tensor(np.arange(6.0).reshape(3, 2) - 2.0, requires_grad=True)
        w = Tensor([[1.0, -0.5], [0.25, 2.0]], requires_grad=True)
        return x, w, ad.relu(ad.matmul(x, w))

    def test_backward_releases_every_op_output_and_leaves_keep_their_grads(self):
        x, w, h = self._layer()
        loss = oracle.mean(ad.mul(h, h))
        ad.backward(loss)
        for t in (h, loss):
            assert t.inputs == () and t.grad is None
        np.testing.assert_allclose(w.grad, x.data.T @ (2 * h.data / h.data.size))
        assert x.grad is not None

    def test_a_second_backward_on_the_same_loss_raises(self):
        x, w, h = self._layer()
        loss = oracle.mean(ad.mul(h, h))
        ad.backward(loss)
        before = [x.grad.tobytes(), w.grad.tobytes()]
        with pytest.raises(RuntimeError, match="released tape"):
            ad.backward(loss)
        assert [x.grad.tobytes(), w.grad.tobytes()] == before

    def test_a_loss_sharing_a_released_op_output_raises_before_touching_a_grad(self):
        x, w, h = self._layer()
        ad.backward(oracle.mean(h))
        before = [x.grad.tobytes(), w.grad.tobytes()]
        b = Tensor(np.ones((3, 2)), requires_grad=True)     # reached only by the second loss
        second = oracle.mean(ad.add(ad.mul(h, h), b))
        with pytest.raises(RuntimeError, match="released tape"):
            ad.backward(second)
        assert [x.grad.tobytes(), w.grad.tobytes()] == before
        assert b.grad is None and second.grad is None


def _segments(ids):
    """A pattern whose rows are the given sorted segment ids, one entry per id."""
    ids = np.asarray(ids, dtype=np.int64)
    n_rows = int(ids.max()) + 1 if len(ids) else 0
    return ad.SparsePattern(ids, np.arange(len(ids)), (n_rows, len(ids)))


def _scatter_softmax(scores, segments, g):
    """Forward and input gradient of a segment softmax reduced with ``np.ufunc.at``."""
    nseg = int(segments.max()) + 1
    seg_max = np.full(nseg, -np.inf)
    np.maximum.at(seg_max, segments, scores)
    e = np.exp(scores - seg_max[segments])
    denom = np.zeros(nseg)
    np.add.at(denom, segments, e)
    y = e / denom[segments]
    seg_dot = np.zeros(nseg)
    np.add.at(seg_dot, segments, g * y)
    return y, y * (g - seg_dot[segments])


class TestSegmentSoftmax:
    def test_symmetry(self):
        out = ad.segment_softmax(Tensor([0.0, 0.0]), _segments([0, 0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_ratio_forced_by_log2(self):
        out = ad.segment_softmax(Tensor([math.log(2.0), 0.0]), _segments([0, 0]))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3])

    def test_single_element_segment(self):
        out = ad.segment_softmax(Tensor([17.3]), _segments([0]))
        np.testing.assert_allclose(out.data, [1.0])

    def test_empty_input(self):
        out = ad.segment_softmax(Tensor(np.empty(0)), _segments([]))
        assert out.data.size == 0

    def test_empty_pattern_passes_an_empty_gradient_back(self):
        # rows with no entries: the upstream ops still get a (zero) gradient
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        context = Tensor(np.ones((4, 1)), requires_grad=True)
        pattern = ad.SparsePattern([], [], (3, 3))
        alpha = ad.segment_softmax(ad.leaky_relu(ad.edge_scores(x, context, pattern), 0.2), pattern)
        ad.backward(oracle.mean(ad.spmm(alpha, pattern, x)))
        assert not x.grad.any() and not context.grad.any()

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ad.segment_softmax(Tensor([1.0, 2.0]), _segments([0]))

    def test_large_scores_stable(self):
        out = ad.segment_softmax(Tensor([1e4, 1e4 - 1.0]), _segments([0, 0]))
        assert np.all(np.isfinite(out.data))
        assert out.data.sum() == pytest.approx(1.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30), st.data())
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_per_segment(self, scores, data):
        # sorted ids drawn from a wider range than needed, so some rows stay empty
        segs = np.sort([data.draw(st.integers(0, 8)) for _ in scores])
        out = ad.segment_softmax(Tensor(scores), _segments(segs)).data
        assert np.all(out > 0) and np.all(out <= 1.0)
        for s in np.unique(segs):
            assert abs(out[segs == s].sum() - 1.0) < 1e-12

    def test_bit_identical_to_scatter_reduction(self):
        # rows 0, 2 and 5 are empty; row 3 has 20 entries, past numpy's
        # 8-element pairwise-summation block
        rng = np.random.default_rng(3)
        segs = np.repeat(np.arange(7), [0, 3, 0, 20, 1, 0, 9])
        scores = rng.normal(scale=4.0, size=len(segs))
        g = rng.normal(size=len(segs))
        x = Tensor(scores[:, None], requires_grad=True)
        out = ad.segment_softmax(x, _segments(segs))
        ad.backward(oracle.mean(ad.mul(out, g[:, None])))  # upstream gradient (1/n) * g
        y, gx = _scatter_softmax(scores, segs, (1.0 / len(segs)) * g)
        assert out.data[:, 0].tobytes() == y.tobytes()
        assert x.grad[:, 0].tobytes() == gx.tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=7), requires_grad=True)
        segs = _segments([0, 0, 1, 1, 1, 3, 3])
        w = rng.normal(size=7)

        def loss_fn():
            return oracle.mean(ad.mul(ad.segment_softmax(x, segs), w))

        assert ad.finite_difference_check(loss_fn, [x]) < 1e-8


def _bce(logit, label):
    """The op on a single logit: ``a @ b`` with ``a = [[logit]]`` and ``b = [[1]]``."""
    return ad.bce_with_logits(Tensor([[logit]]), Tensor([[1.0]]), positives([[label]]))


def _dense_bce(a, w, bias, y):
    """Loss and gradients of the mean BCE of ``a @ w + bias``, written out densely."""
    x = a @ w + bias
    loss = np.mean(np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x))))
    g = (1.0 / (1.0 + np.exp(-x)) - y) / x.size
    return loss, g @ w.T, a.T @ g, g.sum(axis=0)


def test_sigmoid_saturates_to_0_and_1_without_a_floating_point_warning():
    x = np.array([800.0, -800.0, 1e308, -1e308, np.inf, -np.inf])
    with np.errstate(all="raise"):
        y = ad._sigmoid(x)
        z = x.copy()
        ad._sigmoid(z, out=z)
    assert np.array_equal(y, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    assert z.tobytes() == y.tobytes()


class TestBceWithLogits:
    def test_logit_zero(self):
        assert _bce(0.0, 1.0).data == pytest.approx(math.log(2.0), abs=1e-12)

    def test_logit_one_label_zero(self):
        assert _bce(1.0, 0.0).data == pytest.approx(math.log1p(math.e), abs=1e-12)

    def test_saturated(self):
        assert _bce(50.0, 1.0).data < 1e-20

    def test_label_validation(self):
        # a repeated positive would count twice
        labels = ad.SparsePattern([0, 0], [1, 1], (1, 2))
        with pytest.raises(ValueError, match="duplicate label entry"):
            ad.bce_with_logits(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 3))), labels)

    def test_unsorted_labels_checked_for_duplicates(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3)))
        with pytest.raises(ValueError, match="duplicate label entry"):
            ad.bce_with_logits(a, b, ad.SparsePattern([0, 0, 0, 1], [3, 1, 3, 0], (2, 4)))
        unsorted = ad.bce_with_logits(a, b, ad.SparsePattern([0, 0, 1], [3, 1, 0], (2, 4)))
        in_order = ad.bce_with_logits(a, b, ad.SparsePattern([0, 0, 1], [1, 3, 0], (2, 4)))
        assert unsorted.data == in_order.data

    def test_shape_mismatch_rejected(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3)))
        with pytest.raises(ValueError, match="label pattern"):
            ad.bce_with_logits(a, b, positives(np.zeros((2, 3))))
        with pytest.raises(ValueError, match="label pattern"):
            ad.bce_with_logits(a, b, positives(np.zeros((4, 2))))  # the logits are a @ b.T

    @given(st.floats(-1e4, 1e4), st.sampled_from([0.0, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_finite_on_wide_logit_range(self, logit, label):
        assert np.isfinite(_bce(logit, label).data)

    def test_gradient_matches_finite_differences(self, monkeypatch):
        rng = np.random.default_rng(1)
        y = positives(rng.random((5, 4)) < 0.5)
        for block_rows, tag_rows in ((5, False), (5, True), (2, False), (2, True)):
            monkeypatch.setattr(ad, "_BCE_BLOCK_ELEMENTS", block_rows * 4)
            a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
            # the tags as rows, or as the columns of a head weight read through transpose
            b = Tensor(rng.normal(size=(4, 3) if tag_rows else (3, 4)), requires_grad=True)
            bias = Tensor(rng.normal(size=4), requires_grad=True)

            def loss_fn():
                return ad.bce_with_logits(a, b if tag_rows else ad.transpose(b), y, bias=bias)

            assert ad.finite_difference_check(loss_fn, [a, b, bias]) < 1e-8

    @given(st.integers(1, 13), st.integers(1, 6), st.integers(1, 5), st.integers(1, 3),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_formula(self, n_rows, n_cols, block_rows, d, tag_rows, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(n_rows, d)) * 3, requires_grad=True)
        w = rng.normal(size=(d, n_cols))
        b = Tensor(w.T.copy() if tag_rows else w, requires_grad=True)
        bias = Tensor(rng.normal(size=n_cols), requires_grad=True)
        y = (rng.random((n_rows, n_cols)) < 0.3).astype(float)
        y[0] = 0.0                 # a row with no positives
        y[-1] = 1.0                # and one that is all positives (the same row if only one)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_BCE_BLOCK_ELEMENTS", block_rows * n_cols)
            loss = ad.bce_with_logits(a, b if tag_rows else ad.transpose(b), positives(y),
                                      bias=bias)
        ad.backward(ad.mul(loss, 0.7))
        want, da, dw, dbias = _dense_bce(a.data, w, bias.data, y)
        assert float(loss.data) == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(a.grad, 0.7 * da, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(b.grad, 0.7 * (dw.T if tag_rows else dw),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(bias.grad, 0.7 * dbias, rtol=1e-12, atol=1e-15)

    def test_constant_inputs_give_the_loss_only(self):
        out = ad.bce_with_logits(np.zeros((2, 1)), np.ones((3, 1)), positives(np.eye(2, 3)))
        assert not out.requires_grad
        assert out.data == pytest.approx(math.log(2.0), abs=1e-15)

    def test_no_grad_forms_no_gradient_part(self, monkeypatch):
        wants, block = [], ad._bce_block

        def recording(*args):
            wants.append(args[-1])
            return block(*args)

        monkeypatch.setattr(ad, "_bce_block", recording)
        (a, b, bias), _, labels = _bce_case(0)
        taped = ad.bce_with_logits(a, b, labels, bias=bias)
        with ad.no_grad():
            free = ad.bce_with_logits(a, b, labels, bias=bias)
        assert wants == [(True, True, True), (False, False, False)]
        assert free.data.tobytes() == taped.data.tobytes()

    def test_peak_memory_is_blocked(self):
        # one forward and backward at 2,000 x 4,000 logits (d = 16) must stay far
        # below a single dense 2,000 x 4,000 float64 array (64 MB)
        rng = np.random.default_rng(0)
        n, n_tags, d = 2000, 4000, 16
        a = Tensor(rng.normal(size=(n, d)) * 0.1, requires_grad=True)
        b = Tensor(rng.normal(size=(n_tags, d)) * 0.1, requires_grad=True)
        rows = np.repeat(np.arange(n), 3)
        labels = ad.SparsePattern(rows, (7 * rows + np.tile([0, 1, 2], n)) % n_tags, (n, n_tags))
        tracemalloc.start()
        try:
            ad.backward(ad.bce_with_logits(a, b, labels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.grad.shape == (n, d) and b.grad.shape == (n_tags, d)
        assert peak < n * n_tags * 8 / 2


def _bce_case(seed, with_bias=True, tag_rows=True, n_rows=9, n_cols=7, d=3):
    """Op inputs with every gradient wanted, as tensors and as the raw arrays.

    ``b`` holds the tags as rows, or without ``tag_rows`` as the columns of a
    head weight, which the op reads through :func:`autodiff.transpose`.
    """
    rng = np.random.default_rng(seed)
    arrays = (rng.normal(size=(n_rows, d)) * 3,
              rng.normal(size=(n_cols, d) if tag_rows else (d, n_cols)),
              rng.normal(size=n_cols) if with_bias else None)
    labels = positives(rng.random((n_rows, n_cols)) < 0.3)
    tensors = [None if x is None else Tensor(x, requires_grad=True) for x in arrays]
    return tensors, arrays, labels


def _block_start(a, a_rows):
    """The first row of ``a`` that the block view ``a_rows`` covers."""
    return (a_rows.ctypes.data - a.ctypes.data) // a.strides[0]


class TestBceBlocksInFlight:
    @pytest.mark.parametrize("block_rows", [9, 5, 4, 2])   # 1, 2, 3 and 5 blocks of 9 rows
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("tag_rows", [False, True])
    def test_bit_identical_to_sequential_blocks(self, monkeypatch, block_rows, with_bias,
                                                tag_rows):
        # a head weight's gradient, (x.T @ a).T through transpose, has the bytes of a.T @ x
        monkeypatch.setattr(ad, "_BCE_BLOCK_ELEMENTS", block_rows * 7)
        (a, b, bias), arrays, labels = _bce_case(block_rows, with_bias, tag_rows)
        loss = ad.bce_with_logits(a, b if tag_rows else ad.transpose(b), labels, bias=bias)
        ad.backward(loss)
        want, da, db, dbias = oracle.bce_blocks(*arrays[:2], labels, block_rows * 7,
                                                bias=arrays[2], transpose_b=tag_rows)
        assert float(loss.data) == want
        assert np.array_equal(a.grad, da) and np.array_equal(b.grad, db)
        assert bias is None or np.array_equal(bias.grad, dbias)

    def test_blocks_finishing_out_of_order_fold_in_block_order(self, monkeypatch):
        monkeypatch.setattr(ad, "_BCE_BLOCK_ELEMENTS", 2 * 7)     # 5 blocks of 9 rows
        (a, b, bias), arrays, labels = _bce_case(2)
        block, lock, ends = ad._bce_block, threading.Lock(), []

        def slow_first(a_rows, *args):
            start = _block_start(a.data, a_rows)
            time.sleep(0.2 if start == 0 else 0.0)
            try:
                return block(a_rows, *args)
            finally:
                with lock:
                    ends.append(start)

        monkeypatch.setattr(ad, "_bce_block", slow_first)
        loss = ad.bce_with_logits(a, b, labels, bias=bias)
        ad.backward(loss)
        assert ends.index(0) > ends.index(2)
        want, da, db, dbias = oracle.bce_blocks(*arrays[:2], labels, 2 * 7, bias=arrays[2],
                                                transpose_b=True)
        assert float(loss.data) == want
        assert np.array_equal(a.grad, da) and np.array_equal(b.grad, db)
        assert np.array_equal(bias.grad, dbias)

    def test_at_most_two_blocks_run_and_each_waits_for_the_fold_four_back(self, monkeypatch):
        monkeypatch.setattr(ad, "_BCE_BLOCK_ELEMENTS", 7)         # 9 blocks of 1 row
        (a, b, bias), _, labels = _bce_case(0)
        block, lock, events, running, most = ad._bce_block, threading.Lock(), [], [0], [0]

        def watched(a_rows, *args):
            start = _block_start(a.data, a_rows)
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
                events.append(("start", start))
            time.sleep(0.2 if start == 0 else 0.01)
            try:
                return block(a_rows, *args)
            finally:
                with lock:
                    running[0] -= 1
                    events.append(("end", start))

        monkeypatch.setattr(ad, "_bce_block", watched)
        ad.bce_with_logits(a, b, labels, bias=bias)
        assert most[0] == 2 and running[0] == 0
        assert sorted(s for kind, s in events if kind == "start") == list(range(9))
        # while the first block runs, the other worker gets through the three queued behind it
        assert events.index(("end", 3)) < events.index(("end", 0))
        for lo in range(4, 9):  # a block starts only after the block four before it was folded
            assert events.index(("end", lo - 4)) < events.index(("start", lo))

    def test_a_failing_block_raises_and_the_next_call_is_unharmed(self, monkeypatch):
        monkeypatch.setattr(ad, "_BCE_BLOCK_ELEMENTS", 2 * 7)
        (a, b, bias), arrays, labels = _bce_case(1)
        block, lock, running, error = ad._bce_block, threading.Lock(), [0], MemoryError("block")

        def failing(a_rows, *args):
            start = _block_start(a.data, a_rows)
            with lock:
                running[0] += 1
            try:
                # the block after the failing one is already running when it fails
                time.sleep({2: 0.02, 4: 0.1}.get(start, 0.0))
                if start == 2:
                    raise error
                return block(a_rows, *args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(ad, "_bce_block", failing)
        with pytest.raises(MemoryError) as raised:
            ad.bce_with_logits(a, b, labels, bias=bias)
        assert raised.value is error
        assert running[0] == 0          # the block in flight beside it was drained
        monkeypatch.setattr(ad, "_bce_block", block)
        loss = ad.bce_with_logits(a, b, labels, bias=bias)
        ad.backward(loss)
        want, da, db, dbias = oracle.bce_blocks(*arrays[:2], labels, 2 * 7, bias=arrays[2],
                                                transpose_b=True)
        assert float(loss.data) == want
        assert np.array_equal(a.grad, da) and np.array_equal(b.grad, db)
        assert np.array_equal(bias.grad, dbias)


def test_a_forked_child_starts_its_own_bce_workers():
    # the parent's workers are running; the child inherits the pool but not its threads
    (a, b, bias), _, labels = _bce_case(3)
    want = ad.bce_with_logits(a, b, labels, bias=bias).data.tobytes()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:                        # the child: one call, ended by SIGALRM if it hangs
        code = 1
        try:
            os.close(read_end)
            signal.alarm(5)
            os.write(write_end, ad.bce_with_logits(a, b, labels, bias=bias).data.tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        got = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == want


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        p = Tensor(1.0, requires_grad=True)
        p.grad = np.asarray(0.5)
        Adam([p], lr=0.001).step()
        assert p.data == pytest.approx(0.999, abs=1e-8)

    def test_zero_gradient_is_identity(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([p])
        before = p.data.copy()
        opt.step()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_constant_gradient_decreases_monotonically(self):
        p = Tensor(1.0, requires_grad=True)
        opt = Adam([p], lr=0.01)
        values = [float(p.data)]
        for _ in range(2):
            p.grad = np.asarray(0.7)
            opt.step()
            values.append(float(p.data))
        assert values[0] > values[1] > values[2]

    def test_step_counter(self):
        p = Tensor(1.0, requires_grad=True)
        opt = Adam([p])
        assert opt.t == 0
        p.grad = np.asarray(1.0)
        opt.step()
        assert opt.t == 1

    def test_step_applies_assigned_gradient(self):
        p = Tensor(1.0, requires_grad=True)
        state = Adam([p], lr=0.001)
        p.grad = np.asarray(0.5)
        state.step()
        assert p.data == pytest.approx(0.999, abs=1e-8)


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        err = ad.finite_difference_check(lambda: oracle.mean(ad.mul(x, x)), [x])
        assert err < 1e-9

    def test_corrupted_gradient_is_caught(self):
        x = Tensor(3.0, requires_grad=True)

        def loss_fn():
            return ad.mul(x, x)

        loss = loss_fn()
        ad.backward(loss)
        corrupted = [x.grad * 2.0]
        err = ad.finite_difference_check(loss_fn, [x], analytic=corrupted)
        assert err == pytest.approx(0.5, abs=1e-4)

    def test_nonfinite_loss_raises(self):
        x = Tensor(np.inf, requires_grad=True)
        with pytest.raises(FloatingPointError):
            ad.finite_difference_check(lambda: ad.mul(x, 1.0), [x])

    def test_a_one_entry_loss_of_any_shape_reads_as_its_0d_form(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        w = rng.normal(size=(3, 1))

        def loss_fn():
            return ad.matmul(ad.mul(x, x), w)      # a (1, 1) loss

        assert loss_fn().shape == (1, 1)
        err = ad.finite_difference_check(loss_fn, [x])
        assert err == ad.finite_difference_check(lambda: oracle.mean(loss_fn()), [x]) < 1e-8

    def test_fortran_ordered_parameter_is_perturbed_in_place(self):
        # reshape(-1) of a Fortran-ordered array is a copy: a perturbation written there
        # never reaches the loss, and an exact gradient would read as wrong
        rng = np.random.default_rng(5)
        x = Tensor(np.asfortranarray(rng.normal(size=(3, 4))), requires_grad=True)
        w = rng.normal(size=(4, 3))
        assert not x.data.flags.c_contiguous
        err = ad.finite_difference_check(lambda: oracle.mean(ad.mul(ad.transpose(x), w)), [x])
        assert err < 1e-9


def _fd(loss_fn, params, tol=1e-7):
    assert ad.finite_difference_check(loss_fn, params) < tol


class TestOpGradients:
    """Central-difference checks for every op the models compose."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_matmul(self):
        a = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 2)), requires_grad=True)
        _fd(lambda: oracle.mean(ad.matmul(a, b)), [a, b])

    def test_add_broadcast_bias(self):
        a = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(self.rng.normal(size=4), requires_grad=True)
        _fd(lambda: oracle.mean(ad.add(a, b)), [a, b])

    def test_mul_broadcast_column(self):
        a = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        c = Tensor(self.rng.normal(size=(3, 1)), requires_grad=True)
        _fd(lambda: oracle.mean(ad.mul(a, c)), [a, c])

    def test_concat(self):
        a = Tensor(self.rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(3, 3)), requires_grad=True)
        w = self.rng.normal(size=(5, 3))
        _fd(lambda: oracle.mean(ad.mul(ad.concat([a, b]), w)), [a, b])

    def test_activations(self):
        # offsets keep values away from the kinks at zero
        x = Tensor(self.rng.normal(size=(3, 3)) + 0.1, requires_grad=True)
        _fd(lambda: oracle.mean(ad.relu(x)), [x])
        _fd(lambda: oracle.mean(ad.leaky_relu(x, 0.2)), [x])
        _fd(lambda: oracle.mean(ad.sigmoid(x)), [x])

    def test_gather_and_scatter(self):
        x = Tensor(self.rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        _fd(lambda: oracle.mean(ad.gather_rows(x, idx)), [x])
        w = self.rng.normal(size=(3, 3))
        block = ad.gather_rows(x, slice(1, 4))
        assert not np.shares_memory(block.data, x.data)
        _fd(lambda: oracle.mean(ad.mul(ad.gather_rows(x, slice(1, 4)), w)), [x])
        v = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        _fd(lambda: oracle.mean(ad.scatter_add_rows(v, idx, 5)), [v])

    def test_gather_gradient_has_the_bytes_of_add_at(self):
        # repeated rows add up in gather order; -0.0 parts add into zeros as np.add.at adds them
        x = Tensor(self.rng.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([4, 1, 4, 0, 4, 1])
        g = self.rng.normal(size=(6, 3)) * 1e16
        g[self.rng.random(g.shape) < 0.3] = -0.0
        for part in (g, np.asfortranarray(g)):
            x.zero_grad()
            ad.gather_rows(x, idx)._backward(part)
            want = np.zeros_like(x.data)
            np.add.at(want, idx, part)
            assert x.grad.tobytes() == want.tobytes()

    def test_transpose(self):
        x = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        for data in (x.data, np.asfortranarray(x.data)):
            t = ad.transpose(data)
            assert np.array_equal(t.data, data.T) and not np.shares_memory(t.data, data)
            # the copy keeps the input's layout, so t.data.T reads the input's bytes in order
            assert t.data.T.tobytes(order="A") == data.tobytes(order="A")
        w = self.rng.normal(size=(4, 3))
        _fd(lambda: oracle.mean(ad.mul(ad.transpose(x), w)), [x])

    def test_spmm(self):
        # row 1 is empty; row 2 lists its columns out of order, with a repeat
        rows = np.array([0, 0, 2, 2, 2, 3])
        cols = np.array([1, 3, 4, 0, 4, 2])
        pattern = ad.SparsePattern(rows, cols, (4, 5))
        v = Tensor(self.rng.normal(size=6), requires_grad=True)
        x = Tensor(self.rng.normal(size=(5, 3)), requires_grad=True)
        dense = np.zeros((4, 5))
        np.add.at(dense, (rows, cols), v.data)
        np.testing.assert_allclose(ad.spmm(v, pattern, x).data, dense @ x.data, rtol=1e-15)
        w = self.rng.normal(size=(4, 3))
        _fd(lambda: oracle.mean(ad.mul(ad.spmm(v, pattern, x), w)), [v, x])
        column = Tensor(v.data[:, None], requires_grad=True)  # attention weights arrive as (E, 1)
        _fd(lambda: oracle.mean(ad.mul(ad.spmm(column, pattern, x), w)), [column, x])

    def test_edge_scores(self):
        x = Tensor(self.rng.normal(size=(5, 3)), requires_grad=True)
        context = Tensor(self.rng.normal(size=(6, 1)), requires_grad=True)
        centers = np.array([0, 0, 1, 3, 3, 4])
        neighbors = np.array([2, 4, 0, 1, 4, 3])
        pattern = ad.SparsePattern(centers, neighbors, (5, 5))
        concat = np.concatenate([x.data[centers], x.data[neighbors]], axis=1) @ context.data
        np.testing.assert_allclose(ad.edge_scores(x, context, pattern).data, concat, rtol=1e-14)
        w = self.rng.normal(size=(6, 1))
        _fd(lambda: oracle.mean(ad.mul(ad.edge_scores(x, context, pattern), w)), [x, context])
        with pytest.raises(ValueError):
            ad.edge_scores(x, context, ad.SparsePattern(centers, neighbors, (5, 6)))

    def test_edge_scores_sums_each_node_once_per_backward_step(self, monkeypatch):
        x = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        context = Tensor(self.rng.normal(size=(6, 1)), requires_grad=True)
        loss = oracle.mean(ad.edge_scores(x, context, ad.SparsePattern([0, 1, 3], [1, 0, 2], (4, 4))))
        calls, bincount = [], np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
        ad.backward(loss)
        assert len(calls) == 2      # one per endpoint, shared by the x and context parts
        assert x.grad is not None and context.grad is not None

    @pytest.mark.parametrize("shared", [False, True])
    def test_gated_update(self, shared):
        # rows 0-1, 2-4 and 5-6 are three node types; row 3 passes through
        n, d = 7, 3
        H = Tensor(self.rng.normal(size=(n, d)), requires_grad=True)
        message = Tensor(self.rng.normal(size=(n, d)) + 0.3, requires_grad=True)
        W = [Tensor(self.rng.normal(size=(d, d)), requires_grad=True) for _ in range(3)]
        if shared:
            W = [W[0]] * 3
        gates = [Tensor(self.rng.normal(size=(d, d)), requires_grad=True) for _ in range(2)]
        bias = Tensor(self.rng.normal(size=d), requires_grad=True)
        blocks = [(0, 2, W[0]), (2, 5, W[1]), (5, 7, W[2])]
        mask = np.arange(n) != 3
        w = self.rng.normal(size=(n, d))
        _fd(lambda: oracle.mean(ad.mul(ad.gated_update(H, message, blocks, *gates, bias, mask), w)),
            [H, message, *dict.fromkeys(W), *gates, bias])

    def test_where_rows(self):
        a = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        mask = np.array([True, False, True, False])
        _fd(lambda: oracle.mean(ad.where_rows(mask, a, b)), [a, b])

    def test_dropout(self):
        x = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        w = self.rng.normal(size=(4, 3))
        mask = ad.dropout(x, 0.5, np.random.default_rng(0)).data != 0
        assert mask.any() and not mask.all()
        # a fresh generator per evaluation, so every evaluation drops the same entries
        _fd(lambda: oracle.mean(ad.mul(ad.dropout(x, 0.5, np.random.default_rng(0)), w)), [x])

    def test_dropout_scales_kept_entries(self):
        x = Tensor(np.ones((100, 4)), requires_grad=True)
        out = ad.dropout(x, 0.5, np.random.default_rng(3))
        kept = out.data[out.data != 0]
        assert np.all(kept == 2.0)
        ad.backward(oracle.mean(out))
        assert set(np.unique(x.grad)) <= {0.0, 2.0 / x.data.size}

    def test_dropout_tape_holds_a_boolean_mask(self):
        x = Tensor(np.ones((1000, 64)), requires_grad=True)
        tracemalloc.start()
        try:
            out = ad.dropout(x, 0.5, np.random.default_rng(0))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert held < 1.2 * x.data.nbytes      # the output, and one byte per entry for the mask


class TestFromOp:
    """One backward step per op: only inputs that want a gradient get one, in input order."""

    def test_an_input_without_grad_never_runs_its_gradient(self, monkeypatch):
        # mean_token_rows multiplies by constant ones: their SDDMM gradient must not run
        def forbidden(*args):
            raise AssertionError("gradient formed for a constant input")

        monkeypatch.setattr(ad, "_sddmm", forbidden)
        words = Tensor(np.random.default_rng(0).normal(size=(5, 3)), requires_grad=True)
        pattern = graph_mod.token_pattern([[1, 2, 2], [], [4]], 5)
        ad.backward(oracle.mean(graph_mod.mean_token_rows(words, pattern)))
        assert words.grad is not None and words.grad[[1, 2, 4]].all()

    @pytest.mark.parametrize("op", [ad.add, ad.mul,
                                    lambda a, b: ad.where_rows(np.array([True, False]), a, b)],
                             ids=["add", "mul", "where_rows"])
    def test_constant_operands_keep_no_grad(self, op):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        for a, b in ((x, Tensor(rng.normal(size=(2, 3)))), (Tensor(rng.normal(size=(2, 3))), x)):
            x.zero_grad()
            ad.backward(oracle.mean(op(a, b)))
            constant = b if a is x else a
            assert x.grad is not None and constant.grad is None

    @pytest.mark.parametrize("uses", [2, 3])
    def test_an_input_used_twice_gets_every_part_in_input_order(self, uses):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = rng.normal(size=(2 * uses, 3))
        ad.backward(oracle.mean(ad.mul(ad.concat([x] * uses), w)))
        g = np.full(w.shape, 1.0 / w.size) * w          # the gradient reaching the concat
        want = g[:2].copy()
        for k in range(1, uses):
            want += g[2 * k:2 * k + 2]
        assert x.grad.tobytes() == want.tobytes()

    def test_mul_of_an_input_with_itself(self):
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3)), requires_grad=True)
        ad.backward(oracle.mean(ad.mul(x, x)))
        part = np.full(x.shape, 1.0 / x.data.size) * x.data
        assert x.grad.tobytes() == (part + part).tobytes()


def _spmm_case(n_rows, n_cols, rows, cols, d, seed):
    """An ``spmm`` whose inputs both want gradients, and a loss whose gradient
    into the product is ``G`` (``mean(A @ x * w)`` gives ``G = w / size``)."""
    rng = np.random.default_rng(seed)
    pattern = ad.SparsePattern(rows, cols, (n_rows, n_cols))
    v = Tensor(rng.normal(size=len(rows)), requires_grad=True)
    x = Tensor(rng.normal(size=(n_cols, d)), requires_grad=True)
    w = rng.normal(size=(n_rows, d))
    loss = oracle.mean(ad.mul(ad.spmm(v, pattern, x), w))
    return v, x, loss, np.full(w.shape, 1.0 / w.size) * w


class TestSddmm:
    # rows 1 and 4 are empty; columns repeat and are unsorted within a row
    ROWS = np.array([0, 0, 0, 2, 2, 2, 2, 3, 5, 5, 5])
    COLS = np.array([4, 1, 4, 0, 3, 3, 2, 1, 4, 0, 4])

    # entries per block: more than the 11 entries, exactly 11, 5 + 5 + 1, 4 + 4 + 3, 1 each
    @pytest.mark.parametrize("block_entries", [20, 11, 5, 4, 1])
    @pytest.mark.parametrize("d", [3, 64, 8193])   # 8193: wider than einsum's buffer
    def test_values_gradient_bit_identical_to_unblocked(self, monkeypatch, block_entries, d):
        monkeypatch.setattr(ad, "_SDDMM_BLOCK_ELEMENTS", block_entries * d)
        v, x, loss, G = _spmm_case(6, 5, self.ROWS, self.COLS, d, seed=block_entries)
        ad.backward(loss)
        assert np.array_equal(v.grad, oracle.sddmm(G, x.data, self.ROWS, self.COLS))

    def test_peak_memory_is_blocked(self):
        # one backward at 140,800 entries x d64 over 4,300 nodes, in 275 default
        # blocks of 512 entries; the two whole E x d gathers take 144 MB
        rng = np.random.default_rng(0)
        n, n_entries, d = 4300, 140_800, 64
        rows = np.sort(rng.integers(0, n, n_entries))
        cols = rng.integers(0, n, n_entries)
        v, x, loss, G = _spmm_case(n, n, rows, cols, d, seed=1)
        tracemalloc.start()
        try:
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.array_equal(v.grad, oracle.sddmm(G, x.data, rows, cols))


def _random_pattern(rng, n_rows, n_cols):
    """Sorted rows and repeated, unsorted columns; at least two rows and two columns stay empty."""
    n_entries = int(rng.integers(1, 4 * n_rows))
    rows = np.sort(rng.choice(rng.permutation(n_rows)[:n_rows - 2], n_entries))
    cols = rng.choice(rng.permutation(n_cols)[:n_cols - 2], n_entries)
    return rows, cols


class TestTransposeProduct:
    """``A.T @ g`` in the ``spmm`` backward adds every output row in entry
    order: byte-equal to a per-entry sequential add, whatever scipy's kernel."""

    @pytest.mark.parametrize("d", [1, 7, 64, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_spmm_input_gradient_is_a_sequential_add(self, d, seed):
        rng = np.random.default_rng([seed, d])
        n_rows, n_cols = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        rows, cols = _random_pattern(rng, n_rows, n_cols)
        v, x, loss, G = _spmm_case(n_rows, n_cols, rows, cols, d, seed)
        v.data *= 10.0 ** rng.uniform(-8, 8, size=v.shape)   # values over 16 decades
        ad.backward(loss)
        want = oracle.transpose_product(v.data, rows, cols, G, n_cols)
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 7, 64, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_mean_token_rows_word_gradient_is_a_sequential_add(self, d, seed):
        rng = np.random.default_rng([seed, d, 1])
        n_lists, n_words = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        rows, cols = _random_pattern(rng, n_lists, n_words)
        pattern = ad.SparsePattern(rows, cols, (n_lists, n_words))
        words = Tensor(rng.normal(size=(n_words, d)), requires_grad=True)
        w = rng.normal(size=(n_lists, d))
        ad.backward(oracle.mean(ad.mul(graph_mod.mean_token_rows(words, pattern), w)))
        lengths = np.bincount(rows, minlength=n_lists)
        inv = np.zeros((n_lists, 1))
        inv[lengths > 0, 0] = 1.0 / lengths[lengths > 0]
        G = np.full(w.shape, 1.0 / w.size) * w * inv
        want = oracle.transpose_product(np.ones(len(rows)), rows, cols, G, n_words)
        assert words.grad.tobytes() == want.tobytes()


def _taped():
    """Whether an op called now records its backward step."""
    return ad.mul(Tensor(1.0, requires_grad=True), 2.0)._backward is not None


class TestNoGrad:
    def _ops(self, rng):
        """One output of every op the models compose, from inputs that want gradients."""
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        context = Tensor(rng.normal(size=(6, 1)), requires_grad=True)
        pattern = ad.SparsePattern([0, 0, 1, 3], [1, 2, 0, 2], (4, 4))
        h = ad.matmul(x, w)
        alpha = ad.segment_softmax(ad.leaky_relu(ad.edge_scores(h, context, pattern), 0.2), pattern)
        m = ad.relu(ad.spmm(alpha, pattern, h))
        z = ad.sigmoid(ad.add(ad.add(ad.mul(m, 0.5), 1.0), ad.mul(x, -1.0)))
        y = ad.where_rows(np.array([True, False, True, True]), z, x)
        y = ad.concat([ad.gather_rows(y, [3, 1]), ad.gather_rows(y, slice(0, 2))])
        loss = ad.bce_with_logits(y, w, positives(np.eye(4, 3)))
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        gated = ad.gated_update(x, m, [(0, 1, w), (1, 4, w)], w, w, bias,
                                np.array([True, False, True, True]))
        return [h, alpha, m, z, y, loss, ad.transpose(h),
                oracle.mean(ad.dropout(y, 0.5, np.random.default_rng(0))), gated]

    def test_every_tensor_made_inside_is_a_constant_with_the_taped_value(self, monkeypatch):
        taped = self._ops(np.random.default_rng(1))
        made, init = [], Tensor.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording)
        with ad.no_grad():
            free = self._ops(np.random.default_rng(1))
        assert made
        for t in made:
            assert t.inputs == () and t._backward is None
        for a, b in zip(taped, free):
            assert a.data.tobytes() == b.data.tobytes()
            assert not b.requires_grad

    def test_a_taped_loss_runs_backward_inside_the_block_too(self):
        grads = []
        for context in (contextlib.nullcontext, ad.no_grad):
            x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
            loss = ad.bce_with_logits(x, ad.relu(x), positives(np.eye(2)))
            with context():
                ad.backward(loss)
            grads.append(x.grad.tobytes())
        assert grads[0] == grads[1]

    def test_backward_from_a_constant_loss_is_a_no_op(self):
        p = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            loss = oracle.mean(ad.mul(p, p))
        ad.backward(loss)
        assert p.grad is None

    def test_state_is_restored_after_an_exception_also_when_nested(self):
        assert _taped()
        with pytest.raises(KeyError):
            with ad.no_grad():
                with pytest.raises(ValueError):
                    with ad.no_grad():
                        raise ValueError("inner")
                assert not _taped()     # the inner exit restored the outer block's state
                raise KeyError("outer")
        assert _taped()
