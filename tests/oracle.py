"""A per-node reference for the TagGNN layer and initial vectors, in plain numpy.

It loops over nodes and reads the graph's edge arrays directly, so it shares
no code with the vectorized path it checks (``pack_edges`` and the sparse
autodiff ops).  Rows are ordered queries | items | tags, as in the model.
"""

import numpy as np


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
    tokens = (graph.query_tokens + graph.item_tokens + graph.tag_tokens)[v]
    mean = words[tokens].sum(axis=0) * (1.0 / len(tokens)) if tokens else np.zeros(model.dim)
    tag = v - graph.n_queries - graph.n_items
    if tag < 0:
        return mean
    rep = mean if variant.use_tag_names else np.zeros(model.dim)
    return rep + model.embeddings.tag_ids.data[tag] if variant.use_tag_ids else rep
