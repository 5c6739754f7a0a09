"""Averaged-word-embedding linear classifier baselines.

Two input modes: item titles alone, or titles concatenated with the contents
of the item's ten heaviest queries.  The baseline reads the same tripartite
graph as the graph models and trains through the same :func:`training.fit`
loop, so it early-stops on the same validation metric: the macro mean of
P@1 over the full-prediction and completion validation subsets.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import UNK_ID, mean_token_rows, token_pattern
from .model import ForwardResult
from .training import check_n_words, fit

MODES = ("item", "item_queries")
TOP_QUERIES = 10


def item_feature_tokens(graph, mode):
    """The (items x vocabulary) token pattern of every item's features in the chosen mode.

    In ``item`` mode that is the graph's item pattern.  In ``item_queries``
    mode each row is the title followed by the contents of the item's top-10
    queries by descending interaction weight (ties broken by query order);
    items with no queries fall back to the title alone.
    """
    if mode not in MODES:
        raise ValueError(f"unknown baseline mode {mode!r}")
    titles, queries = graph.item_tokens, graph.query_tokens
    if mode == "item":
        return titles

    def row(pattern, r):
        return pattern.cols[pattern.indptr[r]:pattern.indptr[r + 1]]

    by_item = [[] for _ in range(graph.n_items)]
    for q, i, w in zip(graph.qi_query, graph.qi_item, graph.qi_weight):
        by_item[i].append((-w, q))
    feats = []
    for i, linked in enumerate(by_item):
        top = [row(queries, q) for _, q in sorted(linked)[:TOP_QUERIES]]
        feats.append(np.concatenate([row(titles, i)] + top))
    return token_pattern(feats, titles.shape[1])


class BaselineModel:
    """Word table + linear head over tags.

    Its features are averaged word vectors, never propagated, so its
    ``initial_item_reps`` are its ``item_reps`` and it has no dual term
    (``gamma`` is 0).  It takes no feature dropout.
    """

    gamma = 0.0

    def __init__(self, words, weight, bias, mode):
        self.words = words
        self.weight = weight
        self.bias = bias
        self.mode = mode
        self._features = (None, None)  # (graph, pattern): graphs are immutable

    def named_parameters(self):
        return [("words", self.words), ("weight", self.weight), ("bias", self.bias)]

    def zero_frozen_grads(self):
        # the unknown-token row never trains; all-empty features never touch the table
        if self.words.grad is not None:
            self.words.grad[UNK_ID] = 0.0

    def features(self, graph):
        """:func:`item_feature_tokens` of ``graph`` in this model's mode, computed once
        per graph."""
        if self._features[0] is not graph:
            self._features = (graph, item_feature_tokens(graph, self.mode))
        return self._features[1]

    def forward(self, graph, items=None, dropout_p=0.0, rng=None):
        """Averaged feature vectors of the graph item rows ``items`` (``None``: every
        item), in order, scored against the transposed head weight plus its bias;
        ``dropout_p`` and ``rng`` are unused."""
        feats = mean_token_rows(self.words, self.features(graph))
        if items is not None:
            feats = ad.gather_rows(feats, items)
        return ForwardResult(item_reps=feats, initial_item_reps=feats,
                             tags=ad.transpose(self.weight), bias=self.bias)


def train_baseline(graph, mode, config, splits, n_words):
    """Initialise the linear baseline in ``mode`` and train it with :func:`training.fit`.

    Its loss is :func:`training.combined_loss`'s primary term alone, one BCE
    per epoch; ``config.gamma`` and ``config.dropout`` do not apply.
    """
    check_n_words(graph, n_words)
    rng = np.random.default_rng([config.seed, 2])
    words = rng.uniform(-0.05, 0.05, size=(n_words, config.dim))
    words[UNK_ID] = 0.0
    model = BaselineModel(
        words=Tensor(words, requires_grad=True),
        weight=Tensor(rng.uniform(-0.05, 0.05, size=(config.dim, graph.n_tags)),
                      requires_grad=True),
        bias=Tensor(np.zeros(graph.n_tags), requires_grad=True),
        mode=mode,
    )
    return fit(model, graph, splits, config)
