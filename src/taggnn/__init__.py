"""Item tagging as link prediction on a query-item-tag tripartite graph.

The package is layered bottom-up: a small reverse-mode autodiff engine, the
tripartite graph with its initial representations, attention-based
propagation layers, the primary-dual training objective, dataset plumbing,
and a Precision@K evaluation harness with an averaged-embedding baseline.
"""

from .autodiff import (Adam, NumericalError, Tensor, backward, bce_with_logits,
                       finite_difference_check, segment_softmax)
from .baseline import BaselineModel, train_baseline
from .data import (FilterThresholds, RawDataset, SplitAssignment, build_vocabulary,
                   dataset_to_graph, load_dataset, load_splits, make_splits,
                   mask_completion_tags, preprocess_filter, save_dataset, save_splits)
from .evaluation import Predictor, evaluate, precision_at_k, rank_topk, report_to_json
from .graph import (EmbeddingTable, TripartiteGraph, Vocabulary, build_graph, mean_token_rows,
                    standardize, standardize_edge_weights, token_pattern)
from .model import ForwardResult, LayerParams, ModelVariant, TagGNNModel, propagate_layer
from .serialization import load_model, save_model
from .training import (TrainConfig, TrainResult, combined_loss, fit, label_matrix,
                       link_prediction_loss, train)

__version__ = "0.1.0"
