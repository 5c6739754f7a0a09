"""Losses and the full-batch training loop with early stopping.

The objective pairs a primary loss on propagated item representations with a
gamma-weighted dual loss that scores the *unpropagated* item vectors against
the same propagated tag side, so the trained model keeps working for items
with no edges at all.  The loss reads only the training items' final rows, so
its forward passes them as ``items``.  :func:`fit` is the one training loop:
it runs :func:`combined_loss` for the graph models and the baseline alike.
"""

import contextlib
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import evaluation
from .autodiff import Adam, NumericalError
from .model import ModelVariant, TagGNNModel

VAL_ROLES = ("val_full", "val_comp")


@dataclass
class TrainConfig:
    learning_rate: float = 0.003
    dropout: float = 0.5
    dim: int = 200
    n_layers: int = 2
    gamma: float = 1.0
    max_epochs: int = 200
    patience: int = 5
    seed: int = 0
    variant: str = "full"
    heterogeneous: bool = True
    use_tag_names: bool = True
    use_tag_ids: bool = True

    def __post_init__(self):
        """Reject a wrongly typed or out-of-range field with a ValueError that names it."""
        def check(name, ok, rule):
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"config field {name} must be {rule}, got {value!r}")

        def finite(v):
            return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

        for name, low in (("dim", 1), ("n_layers", 0), ("max_epochs", 0), ("patience", 0),
                          ("seed", 0)):
            check(name, lambda v: type(v) is int and v >= low, f"an integer >= {low}")
        check("learning_rate", lambda v: finite(v) and v > 0, "a finite number > 0")
        check("gamma", lambda v: finite(v) and v >= 0, "a finite number >= 0")
        check("dropout", lambda v: finite(v) and 0 <= v < 1, "a number in [0, 1)")
        for name in ("heterogeneous", "use_tag_names", "use_tag_ids"):
            check(name, lambda v: type(v) is bool, "true or false")
        self.model_variant()

    def model_variant(self):
        return ModelVariant(kind=self.variant, heterogeneous=self.heterogeneous,
                            use_tag_names=self.use_tag_names, use_tag_ids=self.use_tag_ids,
                            n_layers=self.n_layers)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**d)

    def sha256(self):
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()


def link_prediction_loss(item_reps, tags, labels, bias=None):
    """Mean BCE of every item-against-every-tag score ``item_reps @ tags.T (+ bias)``.

    ``labels`` is the :func:`label_matrix` pattern of the positive links.
    """
    if item_reps.shape[0] == 0:
        raise ValueError("link prediction needs at least one item")
    return ad.bce_with_logits(item_reps, tags, labels, bias=bias)


def combined_loss(graph, model, item_indices, labels, dropout_p=0.0, rng=None):
    """Primary plus gamma-weighted dual loss over the given item rows.

    Returns ``(total, l1, l2)``.  The forward, given ``dropout_p`` and ``rng``,
    reads only ``item_indices`` (its ``items``), so the last layer runs only at
    those items' rows and the tag rows.  With ``gamma == 0`` the total *is* the
    primary loss tensor, so the two are equal to the last bit, and ``l2``, which
    then only gets logged, is computed without a tape; a forward whose initial item
    rows are its final ones (the baseline's) has ``l2`` *be* ``l1``.
    """
    out = model.forward(graph, items=item_indices, dropout_p=dropout_p, rng=rng)
    l1 = link_prediction_loss(out.item_reps, out.tags, labels, out.bias)
    if out.initial_item_reps is out.item_reps:
        l2 = l1
    else:
        with ad.no_grad() if model.gamma == 0.0 else contextlib.nullcontext():
            l2 = link_prediction_loss(out.initial_item_reps, out.tags, labels, out.bias)
    total = l1 if model.gamma == 0.0 else l1 + model.gamma * l2
    return total, l1, l2


def label_matrix(graph, item_indices):
    """The graph's item-tag links of the given items, as a (items x tags) :class:`SparsePattern`.

    Row ``r`` holds the tags of item ``item_indices[r]`` in ascending order;
    it relies on the graph's ``it_item``/``it_tag`` arrays being sorted.
    """
    items = np.asarray(item_indices, dtype=np.int64)
    starts = np.searchsorted(graph.it_item, items, side="left")
    counts = np.searchsorted(graph.it_item, items, side="right") - starts
    picks = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    return ad.SparsePattern(np.repeat(np.arange(len(items)), counts), graph.it_tag[picks],
                            (len(items), graph.n_tags))


@dataclass
class TrainResult:
    model: object           # TagGNNModel, or BaselineModel from train_baseline
    log: list               # one record per epoch, as written to train_log.jsonl
    best_epoch: int
    best_val_p1: float      # None without validation items
    epochs_trained: int


def check_n_words(graph, n_words):
    """Reject an ``n_words`` other than the vocabulary size of the graph's token patterns."""
    if n_words != graph.item_tokens.shape[1]:
        raise ValueError(f"n_words is {n_words}, but the graph's token patterns span "
                         f"{graph.item_tokens.shape[1]} words")


def train(graph, splits, config, n_words, log_stream=None):
    """Initialise a TagGNN model from ``config`` and train it with :func:`fit`.

    ``n_words``, the graph's vocabulary size, sets the rows of the word table.
    """
    check_n_words(graph, n_words)
    model = TagGNNModel.init(n_words, graph.n_tags, config.dim, config.model_variant(),
                             gamma=config.gamma, rng=np.random.default_rng([config.seed, 0]))
    return fit(model, graph, splits, config, log_stream=log_stream)


def validation_p1(model, graph, splits):
    """P@1 on each validation subset and their macro mean (None where a subset is empty)."""
    val = evaluation.subset_precision(model, graph, splits, roles=VAL_ROLES, ks=(1,))
    full, comp = (val[r]["p@1"] for r in VAL_ROLES)
    parts = [p for p in (full, comp) if p is not None]
    return {"val_p1_full": full, "val_p1_comp": comp,
            "val_p1": float(np.mean(parts)) if parts else None}


def fit(model, graph, splits, config, log_stream=None):
    """Full-batch Adam on :func:`combined_loss` with early stopping on validation P@1.

    The one trainer for every model, which exposes the ``named_parameters()``
    registry, ``zero_frozen_grads()``, the dual-loss weight ``gamma`` and
    ``forward(graph, items=, dropout_p=, rng=)``.  Every epoch scores the
    training items against their :func:`label_matrix` links, with dropout
    ``config.dropout`` drawn from one stream seeded ``[config.seed, 1]``, and
    logs the total and both loss terms.  A non-finite loss, or a non-finite
    gradient (named by its registry entry), raises :class:`NumericalError`
    before the Adam step.  After every epoch :func:`validation_p1` scores the
    model (the macro mean over the full-prediction and completion subsets).
    Training stops when that metric has not improved for ``patience``
    consecutive epochs, and the parameters from the best epoch are restored.
    Without validation items the loop simply runs to ``max_epochs``.
    """
    rows = evaluation.item_rows(graph, splits, ("train",))
    if len(rows) == 0:
        raise ValueError("no training items in the split assignment")
    labels = label_matrix(graph, rows)
    dropout_rng = np.random.default_rng([config.seed, 1])
    named = model.named_parameters()
    params = [p for _, p in named]
    optimizer = Adam(params, lr=config.learning_rate)
    has_val = any(r in VAL_ROLES for r in splits.roles.values())
    best_val, best_epoch, best_state, bad_epochs = -np.inf, -1, None, 0
    log = []

    for epoch in range(config.max_epochs):
        started = time.perf_counter()
        ad.zero_grads(params)
        total, l1, l2 = combined_loss(graph, model, rows, labels, dropout_p=config.dropout,
                                      rng=dropout_rng)
        parts = {"l1": float(l1.data), "l2": float(l2.data)}
        if not np.isfinite(total.data):
            raise NumericalError(f"non-finite loss at epoch {epoch}: l1={l1.data} l2={l2.data}")
        ad.backward(total)
        model.zero_frozen_grads()
        for name, p in named:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient of {name} at epoch {epoch}")
        optimizer.step()

        record = {"epoch": epoch, "loss": float(total.data), **parts}
        if has_val:
            record.update(validation_p1(model, graph, splits))
        else:
            record.update(val_p1_full=None, val_p1_comp=None, val_p1=None)
        record["seconds"] = time.perf_counter() - started
        log.append(record)
        if log_stream is not None:
            log_stream.write(json.dumps(record) + "\n")

        if record["val_p1"] is not None:
            if record["val_p1"] > best_val:
                best_val, best_epoch, bad_epochs = record["val_p1"], epoch, 0
                best_state = [p.data.copy() for p in params]
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:  # patience 0: first flat epoch stops
                    break

    epochs_trained = len(log)
    if best_state is not None:
        for p, a in zip(params, best_state):
            p.data[...] = a
    else:
        best_epoch = epochs_trained - 1
        best_val = None
    return TrainResult(model=model, log=log, best_epoch=best_epoch,
                       best_val_p1=best_val, epochs_trained=epochs_trained)
