"""Attention-based message passing over the tripartite graph.

One layer = neighbor attention, weighted aggregation, and a gated
per-node-type update, the last one fused op (:func:`autodiff.gated_update`).
Layers run synchronously: every node's new
representation is computed from the previous layer's matrix, and nodes
without edges pass through bit for bit.  A forward told which items the
caller reads (``items``, every item by default) runs its last layer only
at those items' rows and the tag rows, with the same results there.  Every
dense product (per-type update, gate) runs in fixed, zero-padded tiles of
``autodiff.TILE_ROWS`` rows, taped or not, so a row's bits never depend on
which rows are read.
No score is formed here: the forward hands the items and their tag side to whoever scores.
"""

import collections
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import EmbeddingTable, mean_token_rows

LEAKY_SLOPE = 0.2
CENTER_CACHE_SIZE = 4   # row-restricted patterns kept per graph and variant (training reads two)

VARIANT_KINDS = ("it", "qi", "full")


@dataclass
class ModelVariant:
    """Which slice of the tripartite graph the model propagates over.

    ``it`` uses item-tag edges and the link-prediction score, ``qi`` uses
    query-item edges with a classification head, ``full`` uses both edge
    families with link prediction.
    """

    kind: str = "full"
    heterogeneous: bool = True
    use_tag_names: bool = True
    use_tag_ids: bool = True
    n_layers: int = 2

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.kind != "qi" and not (self.use_tag_names or self.use_tag_ids):
            raise ValueError("tag nodes need name embeddings, id embeddings, or both")

    @property
    def needs_head(self):
        return self.kind == "qi"


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass
class LayerParams:
    """Per-layer parameters: shared attention, per-type update, shared gate."""

    attn_proj: Tensor       # d x d, shared across node types
    attn_context: Tensor    # 2d x 1 scoring vector
    update_query: Tensor    # d x d
    update_item: Tensor     # d x d
    update_tag: Tensor      # d x d
    gate_new: Tensor        # d x d
    gate_old: Tensor        # d x d
    gate_bias: Tensor       # d

    @classmethod
    def init(cls, dim, rng, heterogeneous=True):
        attn_proj = Tensor(_glorot(rng, dim, dim), requires_grad=True)
        attn_context = Tensor(_glorot(rng, 2 * dim, 1), requires_grad=True)
        upd = Tensor(_glorot(rng, dim, dim), requires_grad=True)
        if heterogeneous:
            upd_q, upd_i, upd_t = (upd,
                                   Tensor(_glorot(rng, dim, dim), requires_grad=True),
                                   Tensor(_glorot(rng, dim, dim), requires_grad=True))
        else:
            # one shared matrix: the same tensor object serves all three types
            upd_q = upd_i = upd_t = upd
        return cls(
            attn_proj=attn_proj,
            attn_context=attn_context,
            update_query=upd_q,
            update_item=upd_i,
            update_tag=upd_t,
            gate_new=Tensor(_glorot(rng, dim, dim), requires_grad=True),
            gate_old=Tensor(_glorot(rng, dim, dim), requires_grad=True),
            gate_bias=Tensor(np.zeros(dim), requires_grad=True),
        )

    def named_parameters(self):
        """(name, tensor) pairs; a homogeneous layer's one update matrix is ``update_shared``."""
        if self.update_query is self.update_item is self.update_tag:
            updates = [("update_shared", self.update_query)]
        else:
            updates = [("update_query", self.update_query), ("update_item", self.update_item),
                       ("update_tag", self.update_tag)]
        return [("attn_proj", self.attn_proj), ("attn_context", self.attn_context), *updates,
                ("gate_new", self.gate_new), ("gate_old", self.gate_old),
                ("gate_bias", self.gate_bias)]


@dataclass
class PackedEdges:
    """Directed edges for one variant: the (center, neighbor) adjacency in CSR order."""

    pattern: ad.SparsePattern  # rows are centers (the nodes updated), columns neighbors
    multipliers: np.ndarray    # positive scalar per directed edge, in entry order


def pack_edges(graph, kind):
    """Flatten the variant's undirected edges into a directed adjacency, cached per graph."""
    key = kind
    cached = graph._pack_cache.get(key)
    if cached is not None:
        return cached

    qoff, ioff, toff = 0, graph.n_queries, graph.n_queries + graph.n_items
    cs, ns, ms = [], [], []
    if kind in ("qi", "full") and len(graph.qi_query):
        q = graph.qi_query + qoff
        i = graph.qi_item + ioff
        m = graph.qi_mult
        cs += [q, i]
        ns += [i, q]
        ms += [m, m]
    if kind in ("it", "full") and len(graph.it_item):
        i = graph.it_item + ioff
        t = graph.it_tag + toff
        ones = np.ones(len(i))  # item-tag edges keep an exact multiplier of 1
        cs += [i, t]
        ns += [t, i]
        ms += [ones, ones]

    if cs:
        centers = np.concatenate(cs)
        neighbors = np.concatenate(ns)
        mult = np.concatenate(ms)
        # the edge arrays are sorted by endpoint, so within each center the parts above
        # already list neighbours in ascending order: a stable sort by center suffices
        order = np.argsort(centers, kind="stable")
        centers, neighbors, mult = centers[order], neighbors[order], mult[order]
    else:
        centers = neighbors = np.empty(0, dtype=np.int64)
        mult = np.empty(0, dtype=np.float64)

    n = graph.n_nodes
    packed = PackedEdges(pattern=ad.SparsePattern(centers, neighbors, (n, n)), multipliers=mult)
    graph._pack_cache[key] = packed
    return packed


def center_edges(graph, kind, centers):
    """The rows ``centers`` (sorted node rows) of :func:`pack_edges`, cached per graph.

    Every other row is left without entries.  The kept rows hold the same
    entries in the same order with the same multipliers, sliced and never
    standardized again, so attention and aggregation at those rows are
    bit-identical to the full adjacency's.  At most ``CENTER_CACHE_SIZE``
    row sets are kept per graph and variant, the least recently used going first.
    """
    full = pack_edges(graph, kind)
    cache = graph._pack_cache.setdefault((kind, "centers"), collections.OrderedDict())
    key = np.asarray(centers, dtype=np.int64).tobytes()
    packed = cache.get(key)
    if packed is not None:
        cache.move_to_end(key)
        return packed
    is_center = np.zeros(graph.n_nodes, dtype=bool)
    is_center[centers] = True
    keep = is_center[full.pattern.rows]
    pattern = ad.SparsePattern(full.pattern.rows[keep], full.pattern.cols[keep],
                               full.pattern.shape)
    packed = cache[key] = PackedEdges(pattern=pattern, multipliers=full.multipliers[keep])
    if len(cache) > CENTER_CACHE_SIZE:
        cache.popitem(last=False)
    return packed


def propagate_layer(graph, H, params, kind="full", edges=None):
    """One synchronous propagation layer over the whole node matrix.

    ``H`` is the (n_nodes, d) representation Tensor from the previous layer;
    rows without edges under this variant's edge set are copied through
    exactly.  ``edges`` replaces ``pack_edges(graph, kind)``: given some rows
    of it (:func:`center_edges`), the layer works only there, and every other
    row passes through like an isolated node.  The dense half (the per-type
    update, the gate and the blend) is one :func:`autodiff.gated_update`, which
    computes the rows with edges in fixed row tiles, with or without a tape, so
    a row's result never depends on which other rows are computed.
    """
    if not isinstance(H, Tensor):
        H = Tensor(H)
    if edges is None:
        edges = pack_edges(graph, kind)
    pattern = edges.pattern
    if pattern.nnz == 0:
        return H

    Wh = ad.matmul(H, params.attn_proj)
    raw = ad.edge_scores(Wh, params.attn_context, pattern)
    scores = ad.leaky_relu(raw, LEAKY_SLOPE)
    attn = ad.segment_softmax(scores, pattern)
    alpha = ad.mul(attn, edges.multipliers[:, None])

    message = ad.spmm(alpha, pattern, Wh)
    bounds = (0, graph.n_queries, graph.n_queries + graph.n_items, graph.n_nodes)
    updates = (params.update_query, params.update_item, params.update_tag)
    blocks = [(lo, hi, W) for lo, hi, W in zip(bounds[:-1], bounds[1:], updates) if hi > lo]
    return ad.gated_update(H, message, blocks, params.gate_new, params.gate_old,
                           params.gate_bias, np.diff(pattern.indptr) > 0)


@dataclass
class ForwardResult:
    """What the losses and :class:`evaluation.Predictor` read from one forward pass."""

    item_reps: Tensor           # final rows of the items read (every item by default), in order
    initial_item_reps: Tensor   # initial (post-dropout) rows of the same items
    tags: Tensor                # (tags x d): every model scores item_reps @ tags.T (+ bias)
    bias: Tensor                # per-tag bias, or None


class TagGNNModel:
    """All learnable state for one tagging model plus its forward pass."""

    def __init__(self, embeddings, layers, variant, gamma=1.0, head_weight=None, head_bias=None):
        if variant.needs_head != (head_weight is not None):
            raise ValueError("classification head present iff variant is 'qi'")
        self.embeddings = embeddings
        self.layers = list(layers)
        self.variant = variant
        self.gamma = gamma
        self.head_weight = head_weight
        self.head_bias = head_bias

    @classmethod
    def init(cls, n_words, n_tags, dim, variant, gamma=1.0, rng=None):
        if rng is None:
            rng = np.random.default_rng([0, 0])
        embeddings = EmbeddingTable.init(n_words, n_tags, dim, rng)
        layers = [LayerParams.init(dim, rng, heterogeneous=variant.heterogeneous)
                  for _ in range(variant.n_layers)]
        head_w = head_b = None
        if variant.needs_head:
            head_w = Tensor(_glorot(rng, dim, n_tags), requires_grad=True)
            head_b = Tensor(np.zeros(n_tags), requires_grad=True)
        return cls(embeddings, layers, variant, gamma=gamma, head_weight=head_w, head_bias=head_b)

    @property
    def dim(self):
        return self.embeddings.dim

    def named_parameters(self):
        """The parameter registry: (name, tensor) pairs in save order, each tensor once."""
        out = [("embeddings.words", self.embeddings.words),
               ("embeddings.tag_ids", self.embeddings.tag_ids)]
        for n, layer in enumerate(self.layers):
            out += [(f"layers.{n}.{name}", t) for name, t in layer.named_parameters()]
        if self.head_weight is not None:
            out += [("head.weight", self.head_weight), ("head.bias", self.head_bias)]
        return out

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def zero_frozen_grads(self):
        # the unknown-token row never trains; it anchors the zero fallback
        if self.embeddings.words.grad is not None:
            self.embeddings.words.grad[0] = 0.0

    # -- forward -------------------------------------------------------------

    def initial_representations(self, graph):
        """Stacked initial vectors for every node, in (queries, items, tags) order."""
        words = self.embeddings.words
        blocks = []
        if graph.n_queries:
            blocks.append(mean_token_rows(words, graph.query_tokens))
        if graph.n_items:
            blocks.append(mean_token_rows(words, graph.item_tokens))
        if graph.n_tags:
            tag_block = None
            if self.variant.use_tag_names:
                tag_block = mean_token_rows(words, graph.tag_tokens)
            if self.variant.use_tag_ids:
                if self.embeddings.tag_ids.shape[0] != graph.n_tags:
                    raise ValueError("tag-id table does not match the graph's tag count")
                tag_block = self.embeddings.tag_ids if tag_block is None \
                    else ad.add(tag_block, self.embeddings.tag_ids)
            if tag_block is None:
                tag_block = Tensor(np.zeros((graph.n_tags, self.dim)))
            blocks.append(tag_block)
        return ad.concat(blocks) if len(blocks) > 1 else blocks[0]

    def forward(self, graph, items=None, dropout_p=0.0, rng=None):
        """Initial representations, optional feature dropout, then the layer stack.

        Dropout of rate ``dropout_p`` runs on the initial representations iff
        ``dropout_p > 0``, drawing its mask from ``rng``, which it then
        requires.  ``items`` are the graph item rows whose final vectors the caller
        reads (``None``: every item).  Each final vector depends on every
        tag's, so only the last layer narrows: it runs at those items' rows
        and, for link prediction, at every tag row, and all other rows pass
        it through.  ``item_reps``
        holds exactly ``items``, in the given order, bit-identical at any
        width whichever other items are read.  ``tags`` is the final tag block,
        or the transposed head weight of a ``qi`` model, whose ``bias`` is the head's.
        """
        nq, ni = graph.n_queries, graph.n_items
        kind = self.variant.kind
        items = np.arange(ni) if items is None else np.asarray(items, dtype=np.int64)
        if len(items) and (items.min() < 0 or items.max() >= ni):
            raise ValueError(f"item rows must lie in [0, {ni})")
        item_rows = nq + items
        centers = np.unique(item_rows)
        if kind != "qi":
            centers = np.concatenate((centers, np.arange(nq + ni, graph.n_nodes)))
        # built before the tape: a cached array allocated amid the tape stops glibc from
        # handing the freed tape back, which raised the wide workload's peak RSS
        last_edges = center_edges(graph, kind, centers) if self.layers else None

        H0 = self.initial_representations(graph)
        if dropout_p > 0.0:
            if rng is None:
                raise ValueError("feature dropout needs an rng")
            H0 = ad.dropout(H0, dropout_p, rng)
        H = H0
        for n, layer in enumerate(self.layers, 1):
            H = propagate_layer(graph, H, layer, kind=kind,
                                edges=last_edges if n == len(self.layers) else None)

        if self.head_weight is not None:
            tags, bias = ad.transpose(self.head_weight), self.head_bias
        else:
            tags, bias = ad.gather_rows(H, slice(nq + ni, graph.n_nodes)), None
        return ForwardResult(item_reps=ad.gather_rows(H, item_rows),
                             initial_item_reps=ad.gather_rows(H0, item_rows), tags=tags, bias=bias)
