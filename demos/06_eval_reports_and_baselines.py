#!/usr/bin/env python3
# End-to-end on the bundled toy dataset: split, train, emit the JSON report,
# and compare against the averaged-embedding linear baselines (title-only vs
# title-plus-queries).

import os

from taggnn import data as dm
from taggnn.baseline import train_baseline
from taggnn.evaluation import evaluate, report_to_json, subset_precision
from taggnn.graph import Vocabulary
from taggnn.synthetic import query_signal_dataset
from taggnn.training import TrainConfig, train

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "tests", "fixtures", "toydata")

# --- the main model on the toy fixture --------------------------------------
dataset = dm.load_dataset(DATA)
splits = dm.make_splits(dataset, (8, 2, 2), seed=11)
vocab = Vocabulary.from_texts(dataset.texts(), min_count=1)
graph = dm.dataset_to_graph(dataset, vocab, splits=splits)

config = TrainConfig(dim=12, n_layers=2, max_epochs=12, seed=11)
result = train(graph, splits, config, n_words=len(vocab))
report = evaluate(result.model, graph, splits, ks=(1, 3, 5), subset="test",
                  meta={"config_hash": config.sha256(), "seed": config.seed,
                        "epochs_trained": result.epochs_trained})
print("toy-fixture report (the byte-stable JSON the eval command writes):")
print(report_to_json(report))

# --- baselines on data where queries matter ----------------------------------
ds, qsplits = query_signal_dataset(seed=0)
qvocab = Vocabulary.from_texts(ds.texts(), min_count=1)
qgraph = dm.dataset_to_graph(ds, qvocab, splits=qsplits)
bconfig = TrainConfig(dim=24, max_epochs=80, seed=0)

print("averaged-embedding linear baselines on query-signal data:")
for mode in ("item", "item_queries"):
    model = train_baseline(qgraph, mode, bconfig, qsplits, len(qvocab)).model
    p1 = subset_precision(model, qgraph, qsplits, ("test_full",), ks=(1,))["test_full"]["p@1"]
    print(f"  mode {mode:13s}: test P@1 = {p1:.3f}")
print("concatenating the top-10 queries' text lifts the text-only classifier,")
print("the same direction the graph models take much further.")
