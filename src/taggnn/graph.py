"""The query-item-tag tripartite graph and the word pooling behind its initial node vectors.

Nodes carry token-id lists; query-item edges carry weights that are
standardized and pushed through a softplus so the per-edge attention
multipliers stay positive.  The graph is immutable once built.
"""

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class NodeType(Enum):
    QUERY = "query"
    ITEM = "item"
    TAG = "tag"


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
        counts = Counter()
        order = []
        for text in texts:
            for tok in text.split():
                if tok not in counts:
                    order.append(tok)
                counts[tok] += 1
        kept = [tok for tok in order if counts[tok] >= min_count and tok != UNK_TOKEN]
        return cls(kept, min_count=min_count)

    def encode_texts(self, texts):
        """Per text, its whitespace-split tokens' ids (``UNK_ID`` for unknown ones)."""
        get = self.token_to_id.get
        return [[get(tok, UNK_ID) for tok in text.split()] for text in texts]

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
    """Z-score over the given weights (population sigma; all zeros when sigma=0)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        return w.copy()
    mu = w.mean()
    sigma = w.std()
    if sigma == 0.0:
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
        self.query_tokens = list(query_tokens)
        self.item_tokens = list(item_tokens)
        self.tag_tokens = list(tag_tokens)
        self.query_ids = list(query_ids) if query_ids is not None else [str(i) for i in range(len(query_tokens))]
        self.item_ids = list(item_ids) if item_ids is not None else [str(i) for i in range(len(item_tokens))]
        self.tag_ids = list(tag_ids) if tag_ids is not None else [str(i) for i in range(len(tag_tokens))]

        nq, ni, nt = len(self.query_tokens), len(self.item_tokens), len(self.tag_tokens)
        qi = np.asarray(qi_edges, dtype=np.float64).reshape(-1, 3)
        q, i, w = qi[:, 0], qi[:, 1], qi[:, 2]
        bad = (q < 0) | (q >= nq) | (i < 0) | (i >= ni) | (w < 0)
        if bad.any():
            n = int(bad.argmax())
            q, i, w = int(q[n]), int(i[n]), float(w[n])
            if not 0 <= q < nq:
                raise ValueError(f"query-item edge references unknown query index {q}")
            if not 0 <= i < ni:
                raise ValueError(f"query-item edge references unknown item index {i}")
            raise ValueError(f"negative edge weight {w} on query-item edge ({q}, {i})")
        keys, inverse = np.unique(q.astype(np.int64) * ni + i.astype(np.int64),
                                  return_inverse=True)
        self.qi_query, self.qi_item = np.divmod(keys, max(ni, 1))
        # np.bincount adds each key's weights in input order, starting from 0.0;
        # with no edges it returns int64
        self.qi_weight = np.bincount(inverse, weights=w, minlength=len(keys)).astype(np.float64)

        it = np.asarray(it_edges, dtype=np.int64).reshape(-1, 2)
        i, t = it[:, 0], it[:, 1]
        bad = (i < 0) | (i >= ni) | (t < 0) | (t >= nt)
        if bad.any():
            i, t = (int(x) for x in it[bad.argmax()])
            if not 0 <= i < ni:
                raise ValueError(f"item-tag edge references unknown item index {i}")
            raise ValueError(f"item-tag edge references unknown tag index {t}")
        self.it_item, self.it_tag = np.divmod(np.unique(i * nt + t), max(nt, 1))

        self._pack_cache = {}
        self._pooling_cache = {}
        self.standardize_weights()

    # -- sizes and token pooling -------------------------------------------

    @property
    def n_queries(self):
        return len(self.query_tokens)

    @property
    def n_items(self):
        return len(self.item_tokens)

    @property
    def n_tags(self):
        return len(self.tag_tokens)

    @property
    def n_nodes(self):
        return self.n_queries + self.n_items + self.n_tags

    def token_pooling(self, node_type, n_words):
        """:func:`token_pattern` of one node type's token lists, built on first use."""
        key = (node_type, n_words)
        pattern = self._pooling_cache.get(key)
        if pattern is None:
            lists = {NodeType.QUERY: self.query_tokens, NodeType.ITEM: self.item_tokens,
                     NodeType.TAG: self.tag_tokens}[node_type]
            pattern = self._pooling_cache[key] = token_pattern(lists, n_words)
        return pattern

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

    ``queries``/``items``/``tags`` are token-id lists per node, kept as given
    (not copied), so they must not change afterwards.  ``qi_edges``
    is an (E, 3) array-like of (query, item, weight) rows and ``it_edges`` an
    (E, 2) one of (item, tag) rows; lists of tuples work.  Duplicate
    query-item edges are merged with their weights summed in input order;
    duplicate item-tag edges collapse to one.  Dangling indices and negative
    weights raise, naming the first offending edge.
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
    tokens = np.fromiter(itertools.chain.from_iterable(token_lists), dtype=np.int64,
                         count=int(lengths.sum()))
    owners = np.repeat(np.arange(len(lengths)), lengths)
    return ad.SparsePattern(owners, tokens, (len(lengths), n_words))


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

