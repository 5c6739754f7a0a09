"""Loop-at-a-time references for the vectorized code, in plain Python and numpy.

- The vocabulary and the token-id lists of a text column, per token, and a
  token pattern's rows as those lists.
- The TagGNN layer and initial vectors, per node.  They read the graph's
  edge arrays directly, so they share no code with the vectorized path they
  check (``pack_edges`` and the sparse autodiff ops).  Rows are ordered
  queries | items | tags, as in the model.
- The dataset and ``splits.tsv`` readers and the graph's edge build, per line
  and per edge.  They keep the checks and their order that fix which
  ``file:line`` message a malformed file gets.
- A :class:`RawDataset` built from lists of id tuples, and the degree filter
  run to its fixed point over Python sets of those tuples.
- The fused BCE op as one sequential loop over its row blocks.
- The fused dense half of a layer (``autodiff.gated_update``) as the
  composition of small tape ops it replaces, every product in the fused op's
  fixed row tiles over every row, and one product per gradient.
- The ``spmm`` values gradient (a sampled dense-dense product) as one
  unblocked row dot over whole E x d gathers, and its input gradient
  ``A.T @ g`` as one add per entry, in entry order.
- :func:`mean`, the tests' loss reduction, as a tape op.
"""

import os

import numpy as np

from taggnn import autodiff as ad
from taggnn.data import (COMPLETION_ROLES, DATASET_FILES, FULL_ROLES, ROLES, DataFormatError,
                         FilterThresholds, RawDataset)
from taggnn.graph import UNK_ID, UNK_TOKEN


def vocabulary_tokens(texts, min_count=1):
    """The tokens a ``Vocabulary.from_texts`` keeps after ``<unk>``, in first-occurrence
    order: those seen at least ``min_count`` times, other than ``<unk>`` itself."""
    counts, order = {}, []
    for text in texts:
        for tok in text.split():
            if tok not in counts:
                order.append(tok)
                counts[tok] = 0
            counts[tok] += 1
    return [tok for tok in order if counts[tok] >= min_count and tok != UNK_TOKEN]


def encode_texts(vocab, texts):
    """Per text, its whitespace-split tokens' ids (``UNK_ID`` for unknown ones)."""
    return [[vocab.token_to_id.get(tok, UNK_ID) for tok in text.split()] for text in texts]


def token_lists(pattern):
    """A token pattern's rows as lists of Python ints, one per row."""
    return [pattern.cols[lo:hi].tolist() for lo, hi in zip(pattern.indptr, pattern.indptr[1:])]


def neighbours(graph, v, kind="full"):
    """Sorted ``(neighbour row, edge multiplier)`` pairs of row ``v`` under ``kind``'s edges."""
    nq, ni = graph.n_queries, graph.n_items
    ends = []
    if kind in ("qi", "full"):
        ends += [(q, nq + i, m) for q, i, m in zip(graph.qi_query, graph.qi_item, graph.qi_mult)]
    if kind in ("it", "full"):
        ends += [(nq + i, nq + ni + t, 1.0) for i, t in zip(graph.it_item, graph.it_tag)]
    return sorted([(b, m) for a, b, m in ends if a == v] + [(a, m) for a, b, m in ends if b == v])


def propagate(graph, H, layer, kind="full"):
    """One synchronous layer, node by node; nodes without edges keep their row.

    Attention is a softmax over leaky-ReLU (slope 0.2) scores, scaled by the
    edge multipliers; the gate blends the fused candidate with the old row.
    """
    W, a = layer.attn_proj.data, layer.attn_context.data[:, 0]
    updates = (layer.update_query, layer.update_item, layer.update_tag)
    out = H.copy()
    for v in range(graph.n_nodes):
        nbrs = neighbours(graph, v, kind)
        if not nbrs:
            continue
        s = np.array([np.concatenate([H[v] @ W, H[u] @ W]) @ a for u, _ in nbrs])
        s = np.where(s > 0, s, 0.2 * s)
        e = np.exp(s - s.max())
        alpha = np.array([m for _, m in nbrs]) * e / e.sum()
        message = np.maximum(sum(w * (H[u] @ W) for (u, _), w in zip(nbrs, alpha)), 0.0)
        node_type = (v >= graph.n_queries) + (v >= graph.n_queries + graph.n_items)
        hat = np.maximum((H[v] + message) @ updates[node_type].data, 0.0)
        z = 1.0 / (1.0 + np.exp(-(hat @ layer.gate_new.data + H[v] @ layer.gate_old.data
                                  + layer.gate_bias.data)))
        out[v] = z * hat + (1.0 - z) * H[v]
    return out


def initial_row(graph, model, v):
    """Initial vector of row ``v``: the mean word embedding (zero without tokens);
    tags add their id embedding and keep the names only if the variant does."""
    words, variant = model.embeddings.words.data, model.variant
    tag = v - graph.n_queries - graph.n_items
    pattern, row = ((graph.query_tokens, v) if v < graph.n_queries else
                    (graph.item_tokens, v - graph.n_queries) if tag < 0 else (graph.tag_tokens, tag))
    tokens = pattern.cols[pattern.indptr[row]:pattern.indptr[row + 1]]
    mean = words[tokens].sum(axis=0) * (1.0 / len(tokens)) if len(tokens) else np.zeros(model.dim)
    if tag < 0:
        return mean
    rep = mean if variant.use_tag_names else np.zeros(model.dim)
    return rep + model.embeddings.tag_ids.data[tag] if variant.use_tag_ids else rep


def _read_rows(path, min_cols, max_cols):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if not min_cols <= len(cols) <= max_cols:
                raise DataFormatError(
                    f"{os.path.basename(path)}:{lineno}: expected "
                    f"{min_cols}-{max_cols} tab-separated columns, got {len(cols)}")
            rows.append((lineno, cols))
    return rows


def load_dataset(directory):
    """The five dataset files as ``(items, queries, tags, qi, it)`` lists of tuples.

    Raises :class:`DataFormatError` with the message ``data.load_dataset`` must give.
    """
    paths = {k: os.path.join(directory, v) for k, v in DATASET_FILES.items()}
    for k, p in paths.items():
        if not os.path.exists(p):
            raise DataFormatError(f"missing dataset file {DATASET_FILES[k]} in {directory}")

    def entity(key):
        rows = _read_rows(paths[key], 1, 2)
        for lineno, cols in rows:
            if key == "tags" and "," in cols[0]:
                raise DataFormatError(f"{DATASET_FILES[key]}:{lineno}: tag id '{cols[0]}' "
                                      "contains ','")
        return [(cols[0], cols[1] if len(cols) == 2 else "") for _, cols in rows]

    items = entity("items")
    queries = entity("queries")
    tags = entity("tags")
    item_ids = {i for i, _ in items}
    query_ids = {q for q, _ in queries}
    tag_ids = {t for t, _ in tags}

    qi = []
    for lineno, cols in _read_rows(paths["qi"], 2, 3):
        q, i = cols[0], cols[1]
        if q not in query_ids:
            raise DataFormatError(f"{DATASET_FILES['qi']}:{lineno}: unknown query '{q}'")
        if i not in item_ids:
            raise DataFormatError(f"{DATASET_FILES['qi']}:{lineno}: unknown item '{i}'")
        if len(cols) == 3:
            try:
                w = float(cols[2])
            except ValueError:
                raise DataFormatError(
                    f"{DATASET_FILES['qi']}:{lineno}: bad weight '{cols[2]}'") from None
        else:
            w = 1.0
        if w < 0 or not np.isfinite(w):
            raise DataFormatError(f"{DATASET_FILES['qi']}:{lineno}: weight must be finite and >= 0")
        qi.append((q, i, w))

    it = []
    for lineno, cols in _read_rows(paths["it"], 2, 2):
        i, t = cols
        if i not in item_ids:
            raise DataFormatError(f"{DATASET_FILES['it']}:{lineno}: unknown item '{i}'")
        if t not in tag_ids:
            raise DataFormatError(f"{DATASET_FILES['it']}:{lineno}: unknown tag '{t}'")
        it.append((i, t))

    for name, rows in (("items", items), ("queries", queries), ("tags", tags)):
        ids = [r[0] for r in rows]
        if len(ids) != len(set(ids)):
            raise DataFormatError(f"duplicate ids in {name}")
    return items, queries, tags, qi, it


def load_splits(path, items, it):
    """``splits.tsv`` as ``(roles, truth, known)`` dicts, over the tag sets of
    ``items``/``it`` as :func:`load_dataset` returns them; a completion item's
    truth is its held-out pair."""
    tag_map = {i: set() for i, _ in items}
    for i, t in it:
        tag_map[i].add(t)
    name = os.path.basename(path)
    roles, truth, known = {}, {}, {}
    for lineno, cols in _read_rows(path, 2, 3):
        item_id, role = cols[0], cols[1]
        if item_id not in tag_map:
            raise DataFormatError(f"{name}:{lineno}: unknown item '{item_id}'")
        if role not in ROLES:
            raise DataFormatError(f"{name}:{lineno}: unknown role '{role}'")
        if item_id in roles:
            raise DataFormatError(f"{name}:{lineno}: duplicate item '{item_id}'")
        roles[item_id] = role
        if role in COMPLETION_ROLES:
            if len(cols) != 3 or not cols[2]:
                raise DataFormatError(f"{name}:{lineno}: completion role needs held-out tags")
            held = frozenset(cols[2].split(","))
            if len(held) != 2:
                raise DataFormatError(f"{name}:{lineno}: exactly two held-out tags required")
            if not held <= tag_map[item_id]:
                raise DataFormatError(f"{name}:{lineno}: held-out tags not linked to item")
            if held == tag_map[item_id]:
                raise DataFormatError(f"{name}:{lineno}: item '{item_id}' keeps no known tag; "
                                      "completion needs >= 3 tags")
            known[item_id] = frozenset(tag_map[item_id]) - held
            truth[item_id] = held
        elif role in FULL_ROLES:
            if not tag_map[item_id]:
                raise DataFormatError(f"{name}:{lineno}: item '{item_id}' has no tags; "
                                      "cannot evaluate it")
            truth[item_id] = frozenset(tag_map[item_id])
    return roles, truth, known


def dataset_from_rows(items, queries, tags, qi, it):
    """A :class:`RawDataset` from lists of tuples: ``(id, text)`` per node,
    ``(query, item, weight)`` and ``(item, tag)`` per edge."""
    (item_ids, item_texts), (query_ids, query_texts), (tag_ids, tag_texts) = (
        ([r[0] for r in rows], [r[1] for r in rows]) for rows in (items, queries, tags))
    item, query, tag = ({k: n for n, k in enumerate(ids)} for ids in (item_ids, query_ids, tag_ids))
    return RawDataset(item_ids, item_texts, query_ids, query_texts, tag_ids, tag_texts,
                      [query[q] for q, _, _ in qi], [item[i] for _, i, _ in qi],
                      [w for _, _, w in qi], [item[i] for i, _ in it], [tag[t] for _, t in it])


def preprocess_filter(dataset, thresholds=None):
    """``data.preprocess_filter`` over sets of id tuples, one fixed-point round at a time."""
    th = thresholds or FilterThresholds()
    items = {i for i, _ in dataset.items}
    queries = set(dataset.query_ids)
    tags = set(dataset.tag_ids)
    qi_pairs = {(q, i) for q, i, _ in dataset.qi}
    it_pairs = set(dataset.it)

    while True:
        qi_pairs = {(q, i) for q, i in qi_pairs if q in queries and i in items}
        it_pairs = {(i, t) for i, t in it_pairs if i in items and t in tags}
        item_q = {}
        query_i = {}
        item_t = {}
        tag_i = {}
        for q, i in qi_pairs:
            item_q[i] = item_q.get(i, 0) + 1
            query_i[q] = query_i.get(q, 0) + 1
        for i, t in it_pairs:
            item_t[i] = item_t.get(i, 0) + 1
            tag_i[t] = tag_i.get(t, 0) + 1

        bad_items = {i for i in items
                     if item_q.get(i, 0) < th.item_query or item_t.get(i, 0) < th.item_tag}
        bad_queries = {q for q in queries if query_i.get(q, 0) < th.query_item}
        bad_tags = {t for t in tags if tag_i.get(t, 0) < th.tag_item}
        if not (bad_items or bad_queries or bad_tags):
            break
        items -= bad_items
        queries -= bad_queries
        tags -= bad_tags

    if not items:
        raise ValueError("preprocessing removed every item; thresholds too strict for this data")

    kept_items = [r for r in dataset.items if r[0] in items]
    kept_queries = [r for r in zip(dataset.query_ids, dataset.query_texts) if r[0] in queries]
    kept_tags = [r for r in zip(dataset.tag_ids, dataset.tag_texts) if r[0] in tags]

    counts = {}
    for _, text in kept_queries + kept_items + kept_tags:
        for tok in text.split():
            counts[tok] = counts.get(tok, 0) + 1

    def remap(rows):
        out = []
        for rid, text in rows:
            toks = [tok if counts[tok] >= th.min_count or tok == UNK_TOKEN else UNK_TOKEN
                    for tok in text.split()]
            out.append((rid, " ".join(toks)))
        return out

    return dataset_from_rows(
        items=remap(kept_items),
        queries=remap(kept_queries),
        tags=remap(kept_tags),
        qi=[r for r in dataset.qi if (r[0], r[1]) in qi_pairs],
        it=[r for r in dataset.it if (r[0], r[1]) in it_pairs],
    )


def _whole(x):
    """Whether the float ``x`` is a finite whole number."""
    return np.isfinite(x) and x == int(x)


def build_edges(nq, ni, nt, qi_edges, it_edges):
    """The graph's ``qi_query``/``qi_item``/``qi_weight``/``it_item``/``it_tag``, by
    a dict merge of the edges in input order and a ``sorted`` of its keys.

    Raises ``ValueError`` for the first bad edge, as ``TripartiteGraph`` must.
    """
    merged = {}
    for q, i, w in qi_edges:
        q, i, w = float(q), float(i), float(w)
        if not (_whole(q) and _whole(i)):
            raise ValueError(f"query-item edge ({q}, {i}, {w}) has an index that is not an "
                             "integer")
        q, i = int(q), int(i)
        if not 0 <= q < nq:
            raise ValueError(f"query-item edge references unknown query index {q}")
        if not 0 <= i < ni:
            raise ValueError(f"query-item edge references unknown item index {i}")
        if w < 0:
            raise ValueError(f"negative edge weight {w} on query-item edge ({q}, {i})")
        if not np.isfinite(w):
            raise ValueError(f"non-finite edge weight {w} on query-item edge ({q}, {i})")
        merged[(q, i)] = merged.get((q, i), 0.0) + w
    keys = sorted(merged)
    out = {"qi_query": np.array([k[0] for k in keys], dtype=np.int64),
           "qi_item": np.array([k[1] for k in keys], dtype=np.int64),
           "qi_weight": np.array([merged[k] for k in keys], dtype=np.float64)}
    seen = set()
    for i, t in it_edges:
        i, t = float(i), float(t)
        if not (_whole(i) and _whole(t)):
            raise ValueError(f"item-tag edge ({i}, {t}) has an index that is not an integer")
        i, t = int(i), int(t)
        if not 0 <= i < ni:
            raise ValueError(f"item-tag edge references unknown item index {i}")
        if not 0 <= t < nt:
            raise ValueError(f"item-tag edge references unknown tag index {t}")
        seen.add((i, t))
    keys = sorted(seen)
    out["it_item"] = np.array([k[0] for k in keys], dtype=np.int64)
    out["it_tag"] = np.array([k[1] for k in keys], dtype=np.int64)
    return out


def bce_blocks(a, b, labels, block_elements, bias=None, transpose_b=False):
    """``bce_with_logits``'s loss and its ``a``/``b``/``bias`` gradients (``None`` without
    a bias), one row block of ``block_elements // n_cols`` rows after the other on
    the calling thread, each block folded in as soon as it is done."""
    w = b.T if transpose_b else b
    n_rows, n_cols = a.shape[0], w.shape[1]
    da, db = np.zeros_like(a), np.zeros_like(b)
    dbias = None if bias is None else np.zeros_like(bias)
    scale = 1.0 / (n_rows * n_cols)
    total = 0.0
    step = max(1, block_elements // n_cols)
    for lo in range(0, n_rows, step):
        rows = slice(lo, min(lo + step, n_rows))
        span = slice(labels.indptr[rows.start], labels.indptr[rows.stop])
        r, c = labels.rows[span] - lo, labels.cols[span]
        x = a[rows] @ w
        if bias is not None:
            x += bias
        loss = np.maximum(x, 0.0)
        loss[r, c] -= x[r, c]
        total += loss.sum()
        total += np.log1p(np.exp(-np.abs(x))).sum()
        with np.errstate(over="ignore", under="ignore"):
            g = 1.0 / (1.0 + np.exp(-x))
        g[r, c] -= 1.0
        g *= scale
        da[rows] += g @ w.T
        db += g.T @ a[rows] if transpose_b else a[rows].T @ g
        if dbias is not None:
            dbias += g.sum(axis=0)
    return total / (n_rows * n_cols), da, db, dbias


def tiled_matmul(a, b):
    """``ad.matmul`` whose forward multiplies every ``ad.TILE_ROWS`` consecutive rows of
    ``a`` as one tile, the last one zero-padded; its backward is one product per input."""
    a, b = ad._wrap(a), ad._wrap(b)
    n, tile = a.data.shape[0], ad.TILE_ROWS
    padded = np.zeros((-(-n // tile) * tile, a.data.shape[1]))
    padded[:n] = a.data
    data = np.concatenate([padded[lo:lo + tile] @ b.data
                           for lo in range(0, len(padded), tile)])[:n]
    return ad._from_op(data, "matmul", (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def gated_update(H, message, blocks, gate_new, gate_old, gate_bias, mask):
    """``autodiff.gated_update`` composed of small tape ops, each keeping its output until
    backward, with its three products in tiles (:func:`tiled_matmul`) over every row:
    the values and gradient parts, in their order, that the fused op reproduces."""
    fused = ad.add(H, ad.relu(message))
    parts = [tiled_matmul(ad.gather_rows(fused, slice(lo, hi)), W) for lo, hi, W in blocks]
    hat = ad.relu(ad.concat(parts) if len(parts) > 1 else parts[0])
    z = ad.sigmoid(ad.add(ad.add(tiled_matmul(hat, gate_new), tiled_matmul(H, gate_old)),
                          gate_bias))
    updated = ad.add(ad.mul(z, hat), ad.mul(ad.add(1.0, ad.mul(z, -1.0)), H))
    return ad.where_rows(mask, updated, H)


def sddmm(g, x, rows, cols):
    """Per entry ``(r, c)`` the row dot ``g[r] . x[c]``, from two whole E x d gathers."""
    return np.einsum("ij,ij->i", g[rows], x[cols])


def transpose_product(values, rows, cols, g, n_cols):
    """``A.T @ g`` for ``A`` holding ``values`` at entries ``(rows, cols)``: each
    entry adds ``values[k] * g[rows[k]]`` into row ``cols[k]``, one entry at a time."""
    out = np.zeros((n_cols, g.shape[1]))
    for value, r, c in zip(values, rows, cols):
        out[c] += value * g[r]
    return out


def full_forward(graph, model, dropout_p=0.0, rng=None):
    """``(H, H0)``: every node's final and initial rows, taped, from a forward that runs
    every layer over the whole adjacency; what every item-restricted forward must
    reproduce bit for bit at the rows it reads."""
    from taggnn.model import propagate_layer

    H0 = model.initial_representations(graph)
    if dropout_p > 0.0:
        H0 = ad.dropout(H0, dropout_p, rng)
    H = H0
    for layer in model.layers:
        H = propagate_layer(graph, H, layer, kind=model.variant.kind)
    return H, H0


def combined_loss_all_items(graph, model, item_indices, labels, **forward_kw):
    """``training.combined_loss`` on :func:`full_forward`, the item rows then gathered:
    ``(total, l1, l2)``, which the item-restricted forward must reproduce bit for bit."""
    from taggnn.training import link_prediction_loss

    H, H0 = full_forward(graph, model, **forward_kw)
    nq, ni = graph.n_queries, graph.n_items
    items = slice(nq, nq + ni)
    final_items = ad.gather_rows(ad.gather_rows(H, items), item_indices)
    initial_items = ad.gather_rows(ad.gather_rows(H0, items), item_indices)
    if model.head_weight is not None:
        tags, bias = ad.transpose(model.head_weight), model.head_bias
    else:
        tags, bias = ad.gather_rows(H, slice(nq + ni, graph.n_nodes)), None
    l1 = link_prediction_loss(final_items, tags, labels, bias)
    l2 = link_prediction_loss(initial_items, tags, labels, bias)
    return (l1 if model.gamma == 0.0 else l1 + model.gamma * l2), l1, l2


def mean(x):
    """The mean of ``x``'s entries as a tape op: each entry's gradient is ``g / size``."""
    x = ad._wrap(x)
    return ad._from_op(np.mean(x.data), "mean", (x,),
                       (lambda g: np.full_like(x.data, g / x.data.size),))
