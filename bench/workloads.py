"""Benchmark workloads and the seeded generator that writes their inputs.

A workload is a dataset shape plus the model settings it is run with.  The
generator turns (shape, seed) into the five TSV files of a taggnn dataset
directory; the program under test sees nothing else.  Query and tag
popularity follow a Zipf law because the size skew of the segments
(neighbourhoods) is what gather/scatter aggregation is sensitive to.
"""

import os
from dataclasses import dataclass

import numpy as np

ZIPF_EXPONENT = 1.0
N_GENERAL_WORDS = 3000
TITLE_WORDS = (2, 6)      # general words per item title, inclusive range
QUERY_WORDS = (1, 3)      # general words per query text, inclusive range
MAX_CLICKS = 20           # query-item weights are click counts in 1..MAX_CLICKS
EPOCHS_PER_CALL = 3       # epochs per training.train call; epoch 0 of each is timed apart


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "train" or "serve"
    n_items: int
    n_queries: int
    n_tags: int
    queries_per_item: int
    tags_per_item: int
    split: tuple              # train, val, test item counts

    def config_dict(self, seed):
        """TrainConfig fields: the full variant at dim 64, all other defaults kept.

        ``patience`` equals ``max_epochs`` so early stopping never ends a
        call early and every call trains the same number of epochs.
        """
        return {"variant": "full", "dim": 64, "max_epochs": EPOCHS_PER_CALL,
                "patience": EPOCHS_PER_CALL, "seed": seed}


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train_query_dense", kind="train",
            n_items=2000, n_queries=2000, n_tags=300,
            queries_per_item=30, tags_per_item=6, split=(1600, 200, 200)),
        Workload(
            name="train_wide_tags", kind="train",
            n_items=4000, n_queries=1000, n_tags=4000,
            queries_per_item=1, tags_per_item=3, split=(3200, 100, 700)),
        Workload(
            name="serve_eval_predict", kind="serve",
            n_items=8000, n_queries=2000, n_tags=2000,
            queries_per_item=4, tags_per_item=5, split=(4000, 800, 3200)),
    )
}


def _zipf_probs(n, rng):
    """Zipf popularity over ``n`` ids, randomly permuted so rank is not id order."""
    p = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    p /= p.sum()
    return p[rng.permutation(n)]


def _distinct(rng, n, k, p):
    return np.sort(rng.choice(n, size=k, replace=False, p=p))


def generate(workload, seed, directory):
    """Write the workload's dataset directory for ``seed``; same seed, same bytes."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    word_p = _zipf_probs(N_GENERAL_WORDS, rng)
    tag_p = _zipf_probs(workload.n_tags, rng)
    query_p = _zipf_probs(workload.n_queries, rng)

    def words(lo_hi):
        k = int(rng.integers(lo_hi[0], lo_hi[1] + 1))
        return [f"w{int(j)}" for j in rng.choice(N_GENERAL_WORDS, size=k, p=word_p)]

    # tag names share a small word pool so titles and names overlap
    tag_words = max(8, workload.n_tags // 2)
    tags = [(f"t{j}", " ".join(f"tw{int(x)}" for x in
                               rng.choice(tag_words, size=int(rng.integers(1, 3)), replace=False)))
            for j in range(workload.n_tags)]
    queries = [(f"q{m}", " ".join(words(QUERY_WORDS))) for m in range(workload.n_queries)]

    items, qi, it = [], [], []
    for n in range(workload.n_items):
        mine = _distinct(rng, workload.n_tags, workload.tags_per_item, tag_p)
        hint = tags[int(rng.choice(mine))][1].split()
        items.append((f"i{n}", " ".join(hint + words(TITLE_WORDS))))
        it.extend((f"i{n}", f"t{int(j)}") for j in mine)
        clicks = rng.integers(1, MAX_CLICKS + 1, size=workload.queries_per_item)
        for m, c in zip(_distinct(rng, workload.n_queries, workload.queries_per_item, query_p),
                        clicks):
            qi.append((f"q{int(m)}", f"i{n}", float(c)))

    os.makedirs(directory, exist_ok=True)
    files = {"items.tsv": items, "queries.tsv": queries, "tags.tsv": tags,
             "query_item_edges.tsv": qi, "item_tag_edges.tsv": it}
    for name, rows in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write("\t".join(repr(c) if isinstance(c, float) else c for c in row) + "\n")
    return directory
