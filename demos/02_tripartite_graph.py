#!/usr/bin/env python3
# Build the query-item-tag graph from the bundled toy dataset and poke at
# its pieces: vocabulary, edge-weight standardization, initial node vectors,
# and one node's attention weights.

import os

import numpy as np

from taggnn import autodiff as ad
from taggnn import data as dm
from taggnn.graph import Vocabulary, standardize_edge_weights
from taggnn.model import LEAKY_SLOPE, ModelVariant, TagGNNModel, pack_edges

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "tests", "fixtures", "toydata")

dataset = dm.load_dataset(DATA)
print(f"loaded {len(dataset.item_ids)} items, {len(dataset.query_ids)} queries, "
      f"{len(dataset.tag_ids)} tags")

vocab = Vocabulary.from_texts(dataset.texts(), min_count=1)
print(f"vocabulary: {len(vocab)} tokens (id 0 is the pinned-to-zero unknown)")

graph = dm.dataset_to_graph(dataset, vocab)
print(f"graph: {len(graph.qi_query)} query-item edges, {len(graph.it_item)} item-tag edges")

# raw interaction counts become positive attention multipliers
raw = graph.qi_weight[:6]
print("\nraw weights          :", raw)
print("softplus multipliers :", np.round(standardize_edge_weights(graph.qi_weight)[:6], 4))

# initial representations: mean word embedding, tags add their id embedding;
# node rows are ordered queries | items | tags
model = TagGNNModel.init(len(vocab), graph.n_tags, dim=8,
                         variant=ModelVariant(kind="full", n_layers=1))
H = model.initial_representations(graph)
item0, tag0 = graph.n_queries, graph.n_queries + graph.n_items
print(f"\nitem '{graph.item_ids[0]}' initial vector:", np.round(H.data[item0], 3))
print(f"tag  '{graph.tag_ids[0]}' initial vector:", np.round(H.data[tag0], 3))

# attention over one item's neighborhood (queries and tags mixed): the first
# layer's softmax over each row of the packed adjacency, times the multipliers
layer = model.layers[0]
edges = pack_edges(graph, "full")
Wh = ad.matmul(H, layer.attn_proj)
scores = ad.leaky_relu(ad.edge_scores(Wh, layer.attn_context, edges.pattern), LEAKY_SLOPE)
alpha = ad.segment_softmax(scores, edges.pattern).data[:, 0] * edges.multipliers
lo, hi = edges.pattern.indptr[item0], edges.pattern.indptr[item0 + 1]
kinds = ["query"] * graph.n_queries + ["item"] * graph.n_items + ["tag"] * graph.n_tags
names = graph.query_ids + graph.item_ids + graph.tag_ids
print(f"\nattention at item '{graph.item_ids[0]}':")
for row, a in zip(edges.pattern.cols[lo:hi], alpha[lo:hi]):
    print(f"  {kinds[row]:5s} {names[row]:8s} alpha = {a:.4f}")
print("(query edges carry their softplus multiplier, tag edges exactly 1)")
