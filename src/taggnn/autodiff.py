"""Reverse-mode automatic differentiation over float64 arrays.

A small tape-based engine: every operation produces a new :class:`Tensor`
that remembers its inputs and, for each input, a function mapping the
output's gradient to that input's gradient.  :func:`_from_op` alone decides
which inputs get one (those with ``requires_grad``) and adds it into their
``.grad`` in input order.
:func:`backward` releases each op output's part of the tape as soon as it
has used it, so a training step's peak is about one tape, and a released
tape raises ``RuntimeError`` if a later backward reaches it.
Inside :func:`no_grad` no tape is recorded: op outputs are constants, so
inference holds only the arrays it still names.
The op set is deliberately tiny -- just what the tagging models need.
Two ops are fused chains: :func:`bce_with_logits`, the loss, and
:func:`gated_update`, a layer's dense half; a fused op keeps fewer arrays on
the tape and runs its backward in stages (:func:`_in_stages`).
:func:`gated_update` computes its forward products in zero-padded tiles of
``TILE_ROWS`` rows, as :class:`evaluation.Predictor` does its scores, so a
row's bits never depend on which other rows are computed.
An op marks a gradient part it made for one input alone (:class:`_Fresh`),
and an input with no gradient yet keeps that part instead of a copy.
Tensors are dense; sparse ops (:func:`spmm`, :func:`segment_softmax`,
:func:`edge_scores`) take a :class:`SparsePattern`, the fixed CSR layout of
a graph's adjacency or token lists, and run through scipy's CSR kernels.
The ``spmm`` backward reads ``A.T`` as scipy's CSC view of the same arrays
and forms its per-entry gradient over cache-sized entry blocks
(:func:`_sddmm`).  :func:`bce_with_logits` takes its positive labels as a
pattern too.  Everything is float64.  Only :func:`bce_with_logits` uses
threads: it computes two row blocks at once and folds them in block order,
so a fixed seed reproduces a training run bit for bit on any core count.
"""

import collections
import concurrent.futures
import contextlib
import functools
import itertools

import numpy as np
import scipy.sparse
from scipy.special import expit

_ids = itertools.count()
_grad_enabled = True          # cleared inside no_grad()
_RELEASED = object()          # the _backward of an op output that backward has released
TILE_ROWS = 64                # rows per tile of the dense half's and the scores' products


class NumericalError(RuntimeError):
    """A loss or a score came out non-finite."""


class Tensor:
    """A float64 array plus its node in the recorded computation graph.

    Leaf tensors created with ``requires_grad=True`` are trainable
    parameters; everything else is either a constant or an op output.
    ``grad`` is allocated lazily during :func:`backward`, which releases an
    op output once it has used it: ``_backward`` then holds the release marker.
    """

    __slots__ = ("data", "grad", "op", "inputs", "requires_grad", "_backward", "_id")

    def __init__(self, data, requires_grad=False, op="leaf", inputs=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.op = op
        self.inputs = tuple(inputs)
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    def accumulate_grad(self, g):
        """Add the gradient part ``g`` into ``grad``; a first part marked :class:`_Fresh`
        becomes ``grad`` itself, any other first part is copied."""
        fresh = isinstance(g, _Fresh)
        if fresh:
            g = g.part
        if self.grad is None:
            self.grad = g if fresh else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    # the two operators the losses use: ``a + b`` is add, ``a * b`` and ``c * a`` are mul
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


class _Fresh:
    """A float64 gradient part that its op made for one input and never touches again,
    so the input may keep it as its ``grad`` without a copy."""

    __slots__ = ("part",)

    def __init__(self, part):
        self.part = np.asarray(part)    # a reduction to a numpy scalar becomes a 0-d array


def _fresh(*grads):
    """The ``grads`` of :func:`_from_op`, each of whose parts is marked :class:`_Fresh`."""
    return [lambda g, grad=grad: _Fresh(grad(g)) for grad in grads]


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every op output is a constant.

    Each op still computes its output, but keeps neither its inputs nor its
    backward closure, so an intermediate is freed as soon as its last name
    goes away.  On exit, also after an exception, the previous state comes
    back, so blocks nest.  The flag is module-level, not per thread: the only
    other threads are the BCE workers, and they create no tensors.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _gets_grad(t):
    """Whether an op called now records a backward step that gives input ``t`` (``None``
    for an absent one) a gradient: never inside :func:`no_grad`."""
    return _grad_enabled and t is not None and t.requires_grad


def _from_op(data, op, inputs, grads):
    """The output tensor of an op; ``grads[k]`` maps its gradient to ``inputs[k]``'s.

    The backward step runs ``grads[k]`` only for the inputs with
    ``requires_grad`` and accumulates the results in input order, so an input
    used twice gets both parts, the first one first.
    """
    if not _grad_enabled:
        return Tensor(data, op=op)
    out = Tensor(data, requires_grad=any(map(_gets_grad, inputs)), op=op, inputs=inputs)
    if out.requires_grad:
        def back(g):
            for t, grad in zip(inputs, grads):
                if t.requires_grad:
                    t.accumulate_grad(grad(g))
        out._backward = back
    return out


def _in_stages(stages, n_inputs):
    """The ``grads`` of :func:`_from_op` for a backward step written as one generator.

    ``stages(g)`` yields every input's gradient part in input order, so parts
    can share their intermediates and free them once used.  ``grads[k]``
    runs the generator on to part ``k`` and drops the parts it passes, those
    of inputs that get no gradient, so the stages do not depend on which
    inputs want one.
    """
    running = []

    def grad(k, g):
        if not running:
            running.append(enumerate(stages(g)))
        for j, part in running[0]:
            if j == k:
                return part
        raise RuntimeError(f"a staged backward yielded no part for input {k}")

    return [functools.partial(grad, k) for k in range(n_inputs)]


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    return _from_op(a.data + b.data, "add", (a, b),
                    (lambda g: _unbroadcast(g, a.data.shape),
                     lambda g: _unbroadcast(g, b.data.shape)))


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    return _from_op(a.data * b.data, "mul", (a, b),
                    _fresh(lambda g: _unbroadcast(g * b.data, a.data.shape),
                           lambda g: _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    return _from_op(a.data @ b.data, "matmul", (a, b),
                    _fresh(lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def concat(tensors):
    """Stack tensors along their first axis."""
    tensors = tuple(_wrap(t) for t in tensors)
    if not tensors:
        raise ValueError("concat of zero tensors")
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])
    return _from_op(np.concatenate([t.data for t in tensors]), "concat", tensors,
                    [lambda g, lo=lo, hi=hi: g[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])])


def relu(x):
    x = _wrap(x)
    return _from_op(np.maximum(x.data, 0.0), "relu", (x,), _fresh(lambda g: g * (x.data > 0)))


def leaky_relu(x, negative_slope):
    x = _wrap(x)
    return _from_op(np.where(x.data > 0, x.data, negative_slope * x.data), "leaky_relu", (x,),
                    _fresh(lambda g: g * np.where(x.data > 0, 1.0, negative_slope)))


def sigmoid(x):
    x = _wrap(x)
    data = expit(x.data)
    return _from_op(data, "sigmoid", (x,), _fresh(lambda g: g * data * (1.0 - data)))


def segment_softmax(scores, pattern):
    """Softmax normalized independently within each row of a :class:`SparsePattern`.

    ``scores`` is a vector (or column vector) with one entry per pattern
    entry, in entry order.  Within every row the outputs are positive and sum
    to 1; the row max is subtracted before exponentiation for numerical
    stability, and each row is summed in entry order.
    """
    scores = _wrap(scores)
    flat = scores.data.reshape(-1)
    if flat.shape[0] != pattern.nnz:
        raise ValueError(f"{flat.shape[0]} scores for a pattern of {pattern.nnz} entries")
    rows, n_rows = pattern.rows, pattern.shape[0]
    starts = pattern.indptr[:-1]
    nonempty = starts < pattern.indptr[1:]
    row_max = np.full(n_rows, -np.inf)
    row_max[nonempty] = np.maximum.reduceat(flat, starts[nonempty])
    e = np.exp(flat - row_max[rows])
    y = e / np.bincount(rows, weights=e, minlength=n_rows)[rows]

    def grad(g):
        gf = g.reshape(-1)
        return (y * (gf - np.bincount(rows, weights=gf * y, minlength=n_rows)[rows])
                ).reshape(scores.data.shape)

    return _from_op(y.reshape(scores.data.shape), "segment_softmax", (scores,), _fresh(grad))


_BCE_BLOCK_ELEMENTS = 2**19   # logits per row block of bce_with_logits
_BCE_WORKERS = 2              # row blocks of bce_with_logits in flight at once


@functools.cache
def _bce_pool():
    """The worker threads of :func:`bce_with_logits`, started on its first call."""
    return concurrent.futures.ThreadPoolExecutor(_BCE_WORKERS, thread_name_prefix="taggnn-bce")


def _bce_block(a_rows, w, bias, r, c, scale, wants):
    """One row block of :func:`bce_with_logits`: the logits ``a_rows @ w (+ bias)``
    with positives at ``(r, c)``.

    Returns the block's two partial loss sums and, for each input whose flag
    in ``wants`` is set, its gradient part at scale ``scale``: the block's
    rows of ``da``, its ``db`` term and its ``dbias`` term (``None`` otherwise).
    The work is numpy and BLAS calls that mostly release the GIL, so two
    blocks run on two cores.
    """
    x = a_rows @ w
    if bias is not None:
        x += bias
    loss = np.maximum(x, 0.0)
    loss[r, c] -= x[r, c]
    hinge = loss.sum()
    np.abs(x, out=loss)                 # then log1p(exp(-|x|)), in place
    np.negative(loss, out=loss)
    np.exp(loss, out=loss)
    np.log1p(loss, out=loss)
    soft = loss.sum()
    del loss                            # freed before the gradient products
    if not any(wants):
        return hinge, soft, None, None, None
    want_a, want_b, want_bias = wants
    expit(x, out=x)                     # x becomes the gradient (sigmoid(x) - y) * scale
    x[r, c] -= 1.0
    x *= scale
    return (hinge, soft,
            x @ w.T if want_a else None,
            x.T @ a_rows if want_b else None,
            x.sum(axis=0) if want_bias else None)


def bce_with_logits(a, b, labels, bias=None):
    """Mean binary cross-entropy of the logits ``a @ b.T (+ bias)`` against sparse 0/1 labels.

    ``b`` holds one row per logit column (a tag's vector).
    ``labels`` is a :class:`SparsePattern` shaped like the logits whose
    entries are the positives; every other logit is a negative.  Each
    entry's loss is ``max(x,0) - x*y + log1p(exp(-|x|))``, finite for any
    logit.  The forward pass cuts the logits into row blocks of about
    ``2**19`` logits.  Two worker threads compute two blocks at a time: each
    sums its losses and, when an input needs a gradient, forms
    ``(sigmoid(x) - y) / N`` and multiplies it out into its gradient parts.
    The calling thread folds the blocks strictly in block order, so no whole
    logit matrix is ever held and the result does not depend on scheduling
    or core count.  The backward pass only scales the folded gradients.
    """
    a, b = _wrap(a), _wrap(b)
    bias = None if bias is None else _wrap(bias)
    inputs = (a, b) if bias is None else (a, b, bias)
    w = b.data.T
    n_rows, n_cols = a.data.shape[0], w.shape[1]
    if labels.shape != (n_rows, n_cols):
        raise ValueError(f"a {labels.shape} label pattern for {n_rows} x {n_cols} logits")
    if n_rows * n_cols == 0:
        raise ValueError("no logits to score")
    keys = labels.rows * n_cols + labels.cols
    # strictly increasing keys (the usual sorted labels) cannot repeat; else count the distinct
    if not (keys[1:] > keys[:-1]).all() and np.unique(keys).size != labels.nnz:
        raise ValueError("duplicate label entry")
    da, db, dbias = (np.zeros_like(t.data) if _gets_grad(t) else None for t in (a, b, bias))
    wants = (da is not None, db is not None, dbias is not None)
    scale = 1.0 / (n_rows * n_cols)
    step = max(1, _BCE_BLOCK_ELEMENTS // n_cols)
    starts = iter(range(0, n_rows, step))

    def submit(lo):
        hi = min(lo + step, n_rows)
        span = slice(labels.indptr[lo], labels.indptr[hi])
        future = _bce_pool().submit(
            _bce_block, a.data[lo:hi], w, None if bias is None else bias.data,
            labels.rows[span] - lo, labels.cols[span], scale, wants)
        return slice(lo, hi), future

    total = 0.0
    pending = collections.deque()       # (rows, future) of the blocks in flight, in block order
    try:
        for lo in itertools.islice(starts, _BCE_WORKERS):
            pending.append(submit(lo))
        while pending:
            rows, future = pending.popleft()
            hinge, soft, da_rows, db_part, dbias_part = future.result()
            lo = next(starts, None)
            if lo is not None:
                pending.append(submit(lo))
            total += hinge
            total += soft
            if da is not None:
                da[rows] += da_rows
            if db is not None:
                db += db_part
            if dbias is not None:
                dbias += dbias_part
    finally:
        # on an error, let no block outlive the call
        for _, future in pending:
            future.cancel()
        concurrent.futures.wait([future for _, future in pending])
    return _from_op(np.asarray(total / (n_rows * n_cols)), "bce_with_logits", inputs,
                    _fresh(*(lambda g, part=part: part * g for part in (da, db, dbias))))


def dropout(x, p, rng):
    """Inverted dropout: zero with probability ``p``, scale kept entries by 1/(1-p)."""
    x = _wrap(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    kept = rng.random(x.data.shape) >= p     # the tape keeps this boolean mask, not the scale
    return _from_op(x.data * (kept / (1.0 - p)), "dropout", (x,),
                    _fresh(lambda g: g * (kept / (1.0 - p))))


def gather_rows(x, index):
    """Rows ``x[index]`` for an index array or a ``slice``.

    The forward always copies, so the output never aliases ``x``.  A slice
    assigns its gradient block; an index array adds repeated rows up.
    """
    x = _wrap(x)
    block = isinstance(index, slice)
    if block:
        data = x.data[index].copy()
    else:
        index = np.asarray(index, dtype=np.int64)
        data = x.data[index]

    def grad(g):
        gx = np.zeros_like(x.data)
        if block:
            gx[index] = g
        else:
            np.add.at(gx, index, g)
        return gx

    return _from_op(data, "gather_rows", (x,), _fresh(grad))


def transpose(x):
    """``x.T`` as a copy in the transposed layout, so, like :func:`gather_rows`, it never
    aliases ``x``, and ``transpose(x).data.T`` reads ``x``'s bytes in their own order."""
    x = _wrap(x)
    return _from_op(x.data.T.copy(order="K"), "transpose", (x,), (lambda g: g.T,))


def scatter_add_rows(values, index, num_rows):
    """Sum value rows into ``num_rows`` output rows grouped by ``index``."""
    values = _wrap(values)
    index = np.asarray(index, dtype=np.int64)
    if index.shape[0] != values.data.shape[0]:
        raise ValueError("one index per value row required")
    data = np.zeros((num_rows,) + values.data.shape[1:])
    np.add.at(data, index, values.data)
    return _from_op(data, "scatter_add_rows", (values,), _fresh(lambda g: g[index]))


class SparsePattern:
    """The entry layout of an ``n_rows x n_cols`` sparse matrix, in CSR order.

    ``rows`` must be non-decreasing; entries keep their given order within a
    row, and ``cols`` may repeat or be unsorted.  ``matrix(values).T`` is
    scipy's CSC view of the same arrays, so both ``A @ x`` and ``A.T @ g``
    add up every output row in entry order, exactly as ``np.add.at`` over the
    entries would.  Build one per graph and reuse it.
    """

    def __init__(self, rows, cols, shape):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        n_rows, n_cols = shape
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be 1-D and of equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows
                          or cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError(f"entry index outside a {n_rows} x {n_cols} matrix")
        if np.any(rows[1:] < rows[:-1]):
            raise ValueError("rows must be sorted")
        self.shape = (n_rows, n_cols)
        self.rows, self.cols = rows, cols
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))

    @property
    def nnz(self):
        return len(self.rows)

    def matrix(self, values):
        """The CSR matrix holding ``values`` (one per entry, in entry order)."""
        return scipy.sparse.csr_matrix((values, self.cols, self.indptr), shape=self.shape)


_SDDMM_BLOCK_ELEMENTS = 2**15  # gathered floats per operand in one entry block of the spmm backward
_EINSUM_BUFFER = 8192          # einsum sums a longer row in pieces when it is alone in a call


def _sddmm(g, x, rows, cols):
    """The row dots ``g[r] . x[c]`` for every entry ``(r, c)``, in entry order.

    Entries are taken in consecutive blocks of ``2**15 // d`` entries, so
    each block's two gathered row sets (256 KB each) stay in cache and reuse
    freed memory instead of faulting in two whole E x d gathers.  Every entry
    is the same ``einsum`` row dot, so the result does not depend on the
    block size.  Rows longer than einsum's buffer would round differently in
    a one-entry block, so at such widths all entries form one block.
    ``np.take`` gathers the same rows as fancy indexing, in less time.
    """
    out = np.empty(len(rows))
    d = max(1, g.shape[1])
    step = max(1, _SDDMM_BLOCK_ELEMENTS // d if d <= _EINSUM_BUFFER else len(rows))
    for lo in range(0, len(rows), step):
        block = slice(lo, lo + step)
        np.einsum("ij,ij->i", np.take(g, rows[block], 0), np.take(x, cols[block], 0), out=out[block])
    return out


def spmm(values, pattern, x):
    """Sparse-dense product ``A @ x``, where ``A`` holds ``values`` at ``pattern``'s entries.

    Rows of ``A`` without entries give zero rows.  The backward pass is
    ``dx = A.T @ g``, read through the CSC view of the forward's matrix, and,
    per entry ``(r, c)``, ``dvalue = g[r] . x[c]`` (a sampled dense-dense
    product, computed by :func:`_sddmm`).
    """
    values, x = _wrap(values), _wrap(x)
    v = values.data.reshape(-1)
    if v.shape[0] != pattern.nnz:
        raise ValueError(f"{v.shape[0]} values for a pattern of {pattern.nnz} entries")
    if x.data.ndim != 2 or x.data.shape[0] != pattern.shape[1]:
        raise ValueError(f"cannot multiply a {pattern.shape} pattern by shape {x.data.shape}")
    a = pattern.matrix(v)
    rows, cols = pattern.rows, pattern.cols
    return _from_op(a @ x.data, "spmm", (values, x),
                    _fresh(lambda g: _sddmm(g, x.data, rows, cols).reshape(values.shape),
                           lambda g: a.T @ g))


def edge_scores(x, context, pattern):
    """Per-entry score ``concat([x[r], x[c]]) @ context`` of a square pattern, as an (E, 1) column.

    ``context`` is a (2d, 1) vector whose halves a1 and a2 score the row
    (center) and the column (neighbor) node.  The score is computed as
    ``(x@a1)[r] + (x@a2)[c]``, so no E x 2d block is built; the backward
    pass sums each node's entry gradients with ``np.bincount``.
    """
    x, context = _wrap(x), _wrap(context)
    n, d = x.data.shape
    if context.data.shape != (2 * d, 1):
        raise ValueError(f"context must have shape ({2 * d}, 1), got {context.data.shape}")
    if pattern.shape != (n, n):
        raise ValueError(f"a {pattern.shape} pattern cannot score the rows of {n} nodes")
    rows, cols = pattern.rows, pattern.cols
    halves = context.data.reshape(2, d).T   # columns a1, a2
    node_scores = x.data @ halves
    data = (node_scores[rows, 0] + node_scores[cols, 1])[:, None]

    def stages(g):
        # each node's summed entry gradients as a row (center) and as a column (neighbor)
        gf = g.reshape(-1)
        per_node = np.stack([np.bincount(rows, weights=gf, minlength=n),
                             np.bincount(cols, weights=gf, minlength=n)], axis=1)
        yield _Fresh(per_node @ halves.T)
        yield _Fresh((x.data.T @ per_node).T.reshape(2 * d, 1))

    return _from_op(data, "edge_scores", (x, context), _in_stages(stages, 2))


def where_rows(mask, a, b):
    """Row-wise select: rows of ``a`` where ``mask`` holds, rows of ``b`` elsewhere.

    ``a`` and ``b`` share a shape.  Unselected rows are copied bit for bit,
    which is what lets isolated graph nodes pass through a propagation layer
    exactly unchanged.
    """
    a, b = _wrap(a), _wrap(b)
    mask = np.asarray(mask, dtype=bool)
    if a.data.shape != b.data.shape:
        raise ValueError("branches must share a shape")
    if mask.shape != (a.data.shape[0],):
        raise ValueError("mask must have one entry per row")
    col = mask[:, None] if a.data.ndim > 1 else mask
    return _from_op(np.where(col, a.data, b.data), "where_rows", (a, b),
                    _fresh(lambda g: np.where(col, g, 0.0), lambda g: np.where(col, 0.0, g)))


def gated_update(H, message, blocks, gate_new, gate_old, gate_bias, mask):
    """A propagation layer's dense half: the gated, per-node-type update of every row.

    With ``fused = H + relu(message)``, each ``(lo, hi, W)`` of ``blocks``
    (the non-empty node types, in row order, together spanning every row)
    gives its rows of the candidate ``hat = relu(fused[lo:hi] @ W)``.  The
    gate ``z = sigmoid(hat @ gate_new + H @ gate_old + gate_bias)`` blends
    ``z * hat + (1 - z) * H`` at the rows where ``mask`` holds; every other
    row is ``H``'s, bit for bit.  The forward computes only the rows where
    ``mask`` holds, one node type at a time, in zero-padded tiles of
    ``TILE_ROWS`` of them: a tile of consecutive rows is read in place, any
    other is gathered.  Every product has the same tile shape, so a row's bits
    never depend on which other rows are computed.  The forward evaluates the
    expressions of the composition of :func:`relu`, :func:`gather_rows`,
    :func:`matmul`, :func:`concat`, :func:`sigmoid`, :func:`mul`, :func:`add`
    and :func:`where_rows` in the same order, with each product in those
    tiles, and the backward adds every gradient part in the order that
    composition's tape adds it: ``H`` is listed once per part, and a shared
    ``W`` once per block, tag block first.  So values and gradients are
    bit-identical to it.  A taped op keeps only ``hat`` and ``z``, zero
    outside ``mask``; the backward recomputes ``fused`` and frees ``z`` and
    ``hat`` as soon as it has used them.  An untaped one keeps neither.
    """
    H, message, gate_new, gate_old, gate_bias = map(_wrap, (H, message, gate_new, gate_old,
                                                            gate_bias))
    blocks = [(lo, hi, _wrap(W)) for lo, hi, W in blocks]
    h = H.data
    mask = np.asarray(mask, dtype=bool)
    if message.data.shape != h.shape or h.ndim != 2:
        raise ValueError("H and message must be matrices of one shape")
    if mask.shape != (h.shape[0],):
        raise ValueError("mask must have one entry per row")
    if [lo for lo, _, _ in blocks] + [h.shape[0]] != [0] + [hi for _, hi, _ in blocks]:
        raise ValueError("blocks must span the rows in order")
    inputs = (H, H, gate_bias, gate_old, H, gate_new, *(W for _, _, W in reversed(blocks)),
              H, message)
    taped = any(map(_gets_grad, inputs))
    out = h.copy()
    if taped:
        hat, z = np.zeros_like(h), np.zeros_like(h)
    h_buf, m_buf, fused, hat_t, z_t, out_t = (np.zeros((TILE_ROWS, h.shape[1])) for _ in range(6))
    for lo, hi, W in blocks:
        rows = lo + np.flatnonzero(mask[lo:hi])
        for start in range(0, len(rows), TILE_ROWS):
            at = rows[start:start + TILE_ROWS]
            n = len(at)
            if n == TILE_ROWS and at[-1] - at[0] == n - 1:
                at = slice(at[0], at[0] + n)
                h_t, m_t = h[at], message.data[at]
            else:
                h_t, m_t = h_buf, m_buf
                np.take(h, at, axis=0, out=h_t[:n])
                np.take(message.data, at, axis=0, out=m_t[:n])
                h_t[n:] = m_t[n:] = 0.0
            np.maximum(m_t, 0.0, out=fused)
            fused += h_t
            np.matmul(fused, W.data, out=hat_t)
            np.maximum(hat_t, 0.0, out=hat_t)
            np.matmul(hat_t, gate_new.data, out=z_t)
            z_t += np.matmul(h_t, gate_old.data, out=fused)
            z_t += gate_bias.data
            expit(z_t, out=z_t)
            np.multiply(z_t, -1.0, out=out_t)   # 1 - z, as the tape's 1.0 + (z * -1.0)
            out_t += 1.0
            out_t *= h_t
            out_t += np.multiply(z_t, hat_t, out=fused)
            out[at] = out_t[:n]
            if taped:
                hat[at], z[at] = hat_t[:n], z_t[:n]
    if not taped:
        return _from_op(out, "gated_update", inputs, ())
    col = mask[:, None]
    saved = {"z": z, "hat": hat}        # popped by the backward, which frees each once used

    def stages(g):
        yield _Fresh(np.where(col, 0.0, g))             # H: the rows passed through
        gu = np.where(col, g, 0.0)
        z = saved.pop("z")
        part = z * -1.0
        part += 1.0
        part *= gu
        yield part                                      # H: times (1 - z)
        hat = saved.pop("hat")
        gz = gu * h
        gz *= -1.0
        np.multiply(gu, hat, out=part)
        gz += part
        gu *= z                                         # gu is now the gradient of hat
        gz *= z
        np.subtract(1.0, z, out=part)
        gz *= part                                      # gz is now the gradient of z's logit
        del z, part
        yield _Fresh(_unbroadcast(gz, gate_bias.data.shape))    # gate_bias
        yield _Fresh(h.T @ gz)                          # gate_old
        yield gz @ gate_old.data.T                      # H: through gate_old
        yield _Fresh(hat.T @ gz)                        # gate_new
        gu += gz @ gate_new.data.T
        del gz
        gu *= hat > 0                                   # gu is now the gradient of fused @ W
        del hat
        fused = np.maximum(message.data, 0.0)
        fused += h
        for lo, hi, _ in reversed(blocks):
            yield _Fresh(fused[lo:hi].T @ gu[lo:hi])    # W, tag block first
        del fused
        gf = np.zeros_like(h)           # the tape's gathers added into zeros: -0.0 -> 0.0
        for lo, hi, W in blocks:
            gf[lo:hi] += gu[lo:hi] @ W.data.T
        del gu
        yield gf                                        # H: through fused
        gf *= message.data > 0
        yield _Fresh(gf)                                # message

    return _from_op(out, "gated_update", inputs, _in_stages(stages, len(inputs)))


def backward(loss):
    """Run reverse-mode accumulation from a scalar loss node, releasing the tape as it goes.

    Every parameter reachable from ``loss`` receives its exact gradient in
    ``.grad``; unreachable parameters are simply left untouched (treated as
    zero).  Accumulation order is fixed by tensor creation order, so repeated
    runs are bit-identical.  Right after an op output's backward step its
    ``grad``, its inputs and its backward closure (with the forward arrays
    that closure kept) are dropped, and so is the output itself unless the
    caller still names it.  The tape shrinks while backward runs and is gone
    when it returns; leaves keep their ``.grad``.  So a graph runs backward
    once: a second ``backward`` on the same loss, or on a loss that shares
    any op output with one already run, raises ``RuntimeError`` before any
    ``.grad`` is touched.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    seen = {loss._id}
    nodes = [loss]
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._backward is _RELEASED:
            raise RuntimeError(f"backward reached a released tape (a {node.op!r} output that an "
                               "earlier backward already used); build the loss again")
        for parent in node.inputs:
            if parent.requires_grad and parent._id not in seen:
                seen.add(parent._id)
                nodes.append(parent)
                stack.append(parent)

    loss.accumulate_grad(_Fresh(np.ones_like(loss.data)))
    nodes.sort(key=lambda t: t._id)
    while nodes:                # popped, so each output's data goes once its consumers have run
        node = nodes.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward, node.inputs, node.grad = _RELEASED, (), None


def zero_grads(params):
    for p in params:
        p.zero_grad()


class Adam:
    """Bias-corrected Adam (moment decays 0.9 and 0.999, epsilon 1e-8) over a fixed
    parameter list; updates in place.

    With zero gradients the update is exactly zero, so the optimizer is the
    identity on untouched parameters.
    """

    def __init__(self, params, lr=0.003):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = 0.9, 0.999
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else 0.0
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * np.square(g)
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def finite_difference_check(loss_fn, params, eps=1e-5, analytic=None):
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must be a deterministic closure over ``params`` returning a
    scalar Tensor (dropout off).  The error at each coordinate is
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.  Pass
    ``analytic`` to check externally supplied gradients instead of the
    engine's own.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a finite number > 0, got {eps!r}")
    if analytic is None:
        zero_grads(params)
        loss = loss_fn()
        if loss.data.size != 1:
            raise ValueError("loss_fn must return a scalar")
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite loss in gradient check")
        backward(loss)
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    max_err = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.flat  # writes reach p.data in any memory order, indexed in C order
        aflat = np.asarray(a, dtype=np.float64).reshape(-1)
        for i in range(p.data.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn().data.item()   # any one-entry shape, as backward takes
            flat[i] = orig - eps
            f_minus = loss_fn().data.item()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError("non-finite loss in gradient check")
            numeric = (f_plus - f_minus) / (2 * eps)
            err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]), abs(numeric))
            if err > max_err:
                max_err = err
    return max_err
