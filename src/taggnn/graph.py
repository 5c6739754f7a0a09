"""The query-item-tag tripartite graph and the word pooling behind its initial node vectors.

Each node type's texts are held as one token :class:`autodiff.SparsePattern`
(row ``r``: node ``r``'s token ids, in text order), the layout the pooling
reads; query-item edges carry weights that are standardized and pushed
through a softplus so the per-edge attention multipliers stay positive.
The graph is immutable once built.
"""

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

UNK_ID = 0
UNK_TOKEN = "<unk>"


class Vocabulary:
    """Token-to-id map with a frequency threshold.

    Ids are dense ``0..V-1`` with id 0 reserved for the unknown token; any
    token seen fewer than ``min_count`` times maps to it.  The unknown
    token's embedding is pinned to zero by the models, so nodes whose every
    token is out-of-vocabulary keep a zero initial representation.
    """

    def __init__(self, tokens, min_count=1):
        self.min_count = min_count
        self.id_to_token = [UNK_TOKEN] + list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @classmethod
    def from_texts(cls, texts, min_count=1):
        """Build from an iterable of whitespace-tokenized strings.

        Kept tokens get ids in first-occurrence order, which makes the
        vocabulary deterministic for a fixed corpus ordering.
        """
        counts = Counter(chain.from_iterable(map(str.split, texts)))  # first-occurrence order
        return cls([tok for tok, n in counts.items() if n >= min_count and tok != UNK_TOKEN],
                   min_count=min_count)

    def encode_texts(self, texts):
        """The (texts x ``len(self)``) token pattern of a sequence of strings.

        Row ``r`` holds the ids of text ``r``'s whitespace-split tokens, in
        order (``UNK_ID`` for unknown ones), as :func:`token_pattern` would.
        """
        lengths = np.fromiter(map(len, map(str.split, texts)), dtype=np.int64, count=len(texts))
        ids = np.fromiter(map(self.token_to_id.get, " ".join(texts).split(), repeat(UNK_ID)),
                          dtype=np.int64, count=int(lengths.sum()))
        return _rows_pattern(lengths, ids, len(self))

    def __len__(self):
        return len(self.id_to_token)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token

    def sha256(self):
        h = hashlib.sha256()
        for tok in self.id_to_token:
            h.update(tok.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def standardize(weights):
    """Z-score over the given weights (population sigma; all zeros when they are all equal)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        return w.copy()
    mu = w.mean()
    sigma = w.std()
    if sigma == 0.0 or (w == w[0]).all():   # equal weights' mean can miss them by an ulp
        return np.zeros_like(w)
    return (w - mu) / sigma


def standardize_edge_weights(weights):
    """Standardize raw weights, then softplus so every multiplier is positive.

    The softplus keeps the scalar edge multiplier strictly positive and
    strictly increasing in the raw weight; equal raw weights all map to ln 2.
    """
    z = standardize(weights)
    # stable softplus: log(1 + e^z) without overflowing for large z
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def distinct_pairs(a, b, n_b):
    """The distinct ``(a, b)`` rows of two int64 row columns (``b`` below ``n_b``), sorted."""
    return np.divmod(np.unique(a * n_b + b), max(n_b, 1))


def check_rows(checks, error=ValueError, where=lambda n: ""):
    """Raise ``error`` for the first row failing one of ``checks``, an ordered list of
    ``(mask of failing rows, row -> message)`` pairs; a row reports the first check
    it fails, its message prefixed with ``where(row)``."""
    hits = [(int(failing.argmax()), k) for k, (failing, _) in enumerate(checks) if failing.any()]
    if hits:
        n, k = min(hits)
        raise error(where(n) + checks[k][1](n))


def _whole(x):
    """Mask of the entries of a float array that are finite whole numbers."""
    return np.isfinite(x) & (x == np.floor(x))


class TripartiteGraph:
    """Undirected tripartite graph over query, item and tag nodes.

    Construct through :func:`build_graph`.  Node rows are ordered queries |
    items | tags.  Edges are held as parallel arrays (``qi_query``/
    ``qi_item``/``qi_weight`` and ``it_item``/``it_tag``), deduplicated and
    sorted by endpoint, so any floating-point accumulation over them is
    deterministic.
    """

    def __init__(self, query_tokens, item_tokens, tag_tokens, qi_edges, it_edges,
                 query_ids=None, item_ids=None, tag_ids=None):
        n_words = {p.shape[1] for p in (query_tokens, item_tokens, tag_tokens)}
        if len(n_words) != 1:
            raise ValueError(f"token patterns span different vocabulary sizes {sorted(n_words)}")
        self.query_tokens, self.item_tokens, self.tag_tokens = query_tokens, item_tokens, tag_tokens
        nq, ni, nt = self.n_queries, self.n_items, self.n_tags
        self.query_ids = list(query_ids) if query_ids is not None else [str(i) for i in range(nq)]
        self.item_ids = list(item_ids) if item_ids is not None else [str(i) for i in range(ni)]
        self.tag_ids = list(tag_ids) if tag_ids is not None else [str(i) for i in range(nt)]

        qi = np.asarray(qi_edges, dtype=np.float64).reshape(-1, 3)
        q, i, w = qi.T
        check_rows([
            (~(_whole(q) & _whole(i)), lambda n: f"query-item edge {tuple(qi[n].tolist())} "
                                                 "has an index that is not an integer"),
            ((q < 0) | (q >= nq),
             lambda n: f"query-item edge references unknown query index {int(q[n])}"),
            ((i < 0) | (i >= ni),
             lambda n: f"query-item edge references unknown item index {int(i[n])}"),
            (~((0 <= w) & (w < np.inf)), lambda n: (
                f"{'negative' if w[n] < 0 else 'non-finite'} edge weight {w[n]} "
                f"on query-item edge ({int(q[n])}, {int(i[n])})"))])
        keys, inverse = np.unique(q.astype(np.int64) * ni + i.astype(np.int64),
                                  return_inverse=True)
        self.qi_query, self.qi_item = np.divmod(keys, max(ni, 1))
        # np.bincount adds each key's weights in input order, starting from 0.0;
        # with no edges it returns int64
        self.qi_weight = np.bincount(inverse, weights=w, minlength=len(keys)).astype(np.float64)

        it = np.asarray(it_edges, dtype=np.float64).reshape(-1, 2)
        item, tag = it.T
        check_rows([
            (~(_whole(item) & _whole(tag)), lambda n: f"item-tag edge {tuple(it[n].tolist())} "
                                                      "has an index that is not an integer"),
            ((item < 0) | (item >= ni),
             lambda n: f"item-tag edge references unknown item index {int(item[n])}"),
            ((tag < 0) | (tag >= nt),
             lambda n: f"item-tag edge references unknown tag index {int(tag[n])}")])
        self.it_item, self.it_tag = distinct_pairs(item.astype(np.int64), tag.astype(np.int64), nt)

        self._pack_cache = {}
        self.standardize_weights()

    # -- sizes --------------------------------------------------------------

    @property
    def n_queries(self):
        return self.query_tokens.shape[0]

    @property
    def n_items(self):
        return self.item_tokens.shape[0]

    @property
    def n_tags(self):
        return self.tag_tokens.shape[0]

    @property
    def n_nodes(self):
        return self.n_queries + self.n_items + self.n_tags

    # -- edges --------------------------------------------------------------

    def standardize_weights(self):
        """Fill per-edge attention multipliers from the raw query-item weights (run on build)."""
        self.qi_mult = standardize_edge_weights(self.qi_weight)
        self._pack_cache.clear()
        return self.qi_mult

    def item_tags(self, index):
        """Ascending tag indices linked to item ``index``, as one slice of ``it_tag``."""
        lo, hi = np.searchsorted(self.it_item, [index, index + 1])
        return self.it_tag[lo:hi]


def build_graph(queries, items, tags, qi_edges, it_edges,
                query_ids=None, item_ids=None, tag_ids=None):
    """Assemble a deduplicated undirected tripartite graph.

    ``queries``/``items``/``tags`` are the node types' token patterns
    (:meth:`Vocabulary.encode_texts` or :func:`token_pattern`), one row per
    node and all over one vocabulary size (else ``ValueError``), kept as
    given.  ``qi_edges`` is an (E, 3) array-like of (query, item, weight)
    rows and ``it_edges`` an (E, 2) one of (item, tag) rows; lists of tuples
    work.  Duplicate query-item edges are merged with their weights summed in
    input order; duplicate item-tag edges collapse to one.  Indices that are
    not whole numbers or dangle, and weights that are negative or not
    finite, raise ``ValueError`` naming the first offending edge.
    """
    return TripartiteGraph(queries, items, tags, qi_edges, it_edges,
                           query_ids=query_ids, item_ids=item_ids, tag_ids=tag_ids)


@dataclass
class EmbeddingTable:
    """Learnable word and tag-id embeddings sharing one model dimension."""

    words: Tensor
    tag_ids: Tensor
    dim: int

    @classmethod
    def init(cls, n_words, n_tags, dim, rng):
        words = rng.uniform(-0.05, 0.05, size=(n_words, dim))
        words[UNK_ID] = 0.0  # unknown token stays a zero vector
        tag_ids = rng.uniform(-0.05, 0.05, size=(n_tags, dim))
        return cls(words=Tensor(words, requires_grad=True),
                   tag_ids=Tensor(tag_ids, requires_grad=True),
                   dim=dim)


def token_pattern(token_lists, n_words):
    """The (lists x ``n_words``) count matrix of token-id lists as an :class:`autodiff.SparsePattern`.

    Row ``r`` holds one entry per token of list ``r``, in list order.  Build
    one per token-list collection and reuse it.
    """
    lengths = np.array([len(toks) for toks in token_lists], dtype=np.int64)
    tokens = np.fromiter(chain.from_iterable(token_lists), dtype=np.int64,
                         count=int(lengths.sum()))
    return _rows_pattern(lengths, tokens, n_words)


def _rows_pattern(lengths, tokens, n_words):
    """The pattern whose row ``r`` holds the next ``lengths[r]`` entries of ``tokens``."""
    return ad.SparsePattern(np.repeat(np.arange(len(lengths)), lengths), tokens,
                            (len(lengths), n_words))


def mean_token_rows(words, pattern):
    """Mean word embedding of each row of a :func:`token_pattern` as an (n, d) Tensor.

    Empty lists give zero rows.  Each row is summed in token order, so the
    result and the gradient into ``words`` are bit-identical to gathering the
    rows and adding them up with ``np.add.at``.
    """
    if not pattern.nnz:
        return Tensor(np.zeros((pattern.shape[0], words.shape[1])))
    lengths = np.diff(pattern.indptr)
    inv = np.zeros((pattern.shape[0], 1))
    inv[lengths > 0, 0] = 1.0 / lengths[lengths > 0]
    return ad.mul(ad.spmm(np.ones(pattern.nnz), pattern, words), inv)

