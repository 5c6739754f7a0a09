"""Seeded synthetic datasets for capability checks and demos.

Each generator returns a :class:`RawDataset` plus a ready
:class:`SplitAssignment`, built so one specific effect is easy to measure:
overfitting capacity, cold-start behavior of the dual loss, the value of
query edges, and the value of visible tags during completion.  Node ids are
formatted from the rows the generators loop over, so they write the dataset's
columns directly, with edges as integer rows.
"""

import numpy as np

from .autodiff import SparsePattern
from .data import RawDataset, SplitAssignment, mask_completion_tags
from .graph import Vocabulary
from .model import ModelVariant, TagGNNModel
from .training import label_matrix
from . import data as data_mod


def _ids(prefix, n):
    return [f"{prefix}{k}" for k in range(n)]


def _test_full_split(item_ids, test_rows, truth):
    """Rows ``test_rows`` are ``test_full`` items with ``truth`` tag ids; the others train."""
    roles = dict.fromkeys(item_ids, "train")
    test_rows = sorted(test_rows)
    for n in test_rows:
        roles[item_ids[n]] = "test_full"
    return SplitAssignment(roles=roles, truth={item_ids[n]: truth[n] for n in test_rows})


def overfit_dataset(n_items=50, n_tags=20, n_queries=30, seed=0):
    """Small fully-connected-ish dataset a capable model should memorize."""
    rng = np.random.default_rng(seed)
    item_texts, it_item, it_tag = [], [], []
    for n in range(n_items):
        k = int(rng.integers(2, 5))
        mine = sorted(rng.choice(n_tags, size=k, replace=False))
        item_texts.append(" ".join(f"tagword{j}" for j in mine))
        it_item += [n] * k
        it_tag += mine
    qi_query, qi_item, qi_weight = [], [], []
    for m in range(n_queries):
        for n in sorted(rng.choice(n_items, size=4, replace=False)):
            qi_query.append(m)
            qi_item.append(n)
            qi_weight.append(float(rng.integers(1, 6)))
    item_ids = _ids("i", n_items)
    return (RawDataset(item_ids, item_texts,
                       _ids("q", n_queries), [f"queryword{m % 7}" for m in range(n_queries)],
                       _ids("t", n_tags), _ids("tagword", n_tags),
                       qi_query, qi_item, qi_weight, it_item, it_tag),
            SplitAssignment(roles=dict.fromkeys(item_ids, "train")))


def cold_start_dataset(n_items=150, n_tags=40, n_test=30, seed=0):
    """Titles predict tags exactly; test items are full-prediction and isolated.

    There are no queries at all, so under the item-tag variant a test item
    with hidden tag edges has no edges whatsoever -- the cold-start case the
    dual loss exists for.  The tag space is wide enough that a model trained
    without the dual loss sits near chance on these items.
    """
    rng = np.random.default_rng(seed)
    item_texts, it_item, it_tag, truth = [], [], [], []
    for n in range(n_items):
        mine = sorted(rng.choice(n_tags, size=2, replace=False))
        item_texts.append(" ".join(f"tagword{j}" for j in mine))
        it_item += [n, n]
        it_tag += mine
        truth.append(frozenset(f"t{j}" for j in mine))

    item_ids = _ids("i", n_items)
    ds = RawDataset(item_ids, item_texts, [], [], _ids("t", n_tags), _ids("tagword", n_tags),
                    [], [], [], it_item, it_tag)
    return ds, _test_full_split(item_ids, rng.choice(n_items, size=n_test, replace=False), truth)


def query_signal_dataset(n_items=100, n_tags=10, n_test=30, queries_per_tag=6,
                         links_per_item=4, seed=0):
    """Tags are recoverable only through query co-occurrence.

    Item titles are empty; each tag owns a group of queries whose text names
    the tag, and an item links four of its tag's queries.  Test items keep
    their query edges (transductive), so a model that propagates over them
    can recover the tag while a text-only or item-tag model cannot.
    """
    rng = np.random.default_rng(seed)
    query_ids = [f"q{j}_{m}" for j in range(n_tags) for m in range(queries_per_tag)]
    query_texts = [f"queryword{j}" for j in range(n_tags) for _ in range(queries_per_tag)]

    it_tag, qi_query, qi_item, qi_weight, truth = [], [], [], [], []
    for n in range(n_items):
        j = int(rng.integers(0, n_tags))
        it_tag.append(j)
        truth.append(frozenset({f"t{j}"}))
        for m in sorted(rng.choice(queries_per_tag, size=links_per_item, replace=False)):
            qi_query.append(j * queries_per_tag + m)
            qi_item.append(n)
            qi_weight.append(float(rng.integers(1, 4)))

    item_ids = _ids("i", n_items)
    ds = RawDataset(item_ids, [""] * n_items, query_ids, query_texts,
                    _ids("t", n_tags), _ids("tagname", n_tags),
                    qi_query, qi_item, qi_weight, range(n_items), it_tag)
    return ds, _test_full_split(item_ids, rng.choice(n_items, size=n_test, replace=False), truth)


def clustered_tags_dataset(n_items=90, n_clusters=5, cluster_size=4, n_test=30, seed=0):
    """Tags co-occur in clusters; completion items reveal their cluster.

    Every item takes three tags from one cluster, so two held-out tags leave
    one known tag whose edges point straight at the right cluster.  Titles
    are shared noise - the visible tag edges are the only useful signal.
    """
    rng = np.random.default_rng(seed)
    n_tags = n_clusters * cluster_size
    item_texts, it_item, it_tag, tags_of = [], [], [], []
    for n in range(n_items):
        c = int(rng.integers(0, n_clusters))
        members = np.arange(c * cluster_size, (c + 1) * cluster_size)
        mine = sorted(rng.choice(members, size=3, replace=False))
        item_texts.append(" ".join(f"noise{int(w)}" for w in rng.integers(0, 4, size=2)))
        it_item += [n] * 3
        it_tag += mine
        tags_of.append([f"t{j}" for j in mine])

    item_ids = _ids("i", n_items)
    ds = RawDataset(item_ids, item_texts, [], [], _ids("t", n_tags), _ids("tagword", n_tags),
                    [], [], [], it_item, it_tag)
    roles, truth, known = dict.fromkeys(item_ids, "train"), {}, {}
    for n in sorted(rng.choice(n_items, size=n_test, replace=False)):
        i = item_ids[n]
        roles[i] = "test_comp"
        known[i], truth[i] = mask_completion_tags(tags_of[n], rng)
    return ds, SplitAssignment(roles=roles, truth=truth, known=known)


def gradcheck_instance(dim=6, n_layers=2, seed=7):
    """The fixed tiny tripartite instance used for finite-difference checks.

    3 queries, 4 items, 5 tags; item 3 is fully isolated so the check also
    exercises the pass-through path and the dual loss on an unpropagated
    item.  Returns (graph, model, train item indices, label pattern).
    """
    ds = RawDataset(_ids("i", 4), ["alpha beta", "beta gamma", "delta", "epsilon zeta"],
                    _ids("q", 3), ["alpha", "gamma delta", "beta"],
                    _ids("t", 5), ["alpha", "beta", "gamma", "delta", "eta"],
                    [0, 0, 1, 1, 2, 2], [0, 1, 1, 2, 0, 2], [2.0, 1.0, 3.0, 1.0, 1.0, 2.0],
                    [0, 0, 1, 1, 2, 2], [0, 1, 1, 2, 3, 4])
    vocab = Vocabulary.from_texts(ds.texts(), min_count=1)
    graph = data_mod.dataset_to_graph(ds, vocab)

    variant = ModelVariant(kind="full", n_layers=n_layers)
    model = TagGNNModel.init(len(vocab), graph.n_tags, dim, variant, gamma=1.0,
                             rng=np.random.default_rng([seed, 0]))
    item_idx = np.arange(graph.n_items)
    labels = label_matrix(graph, item_idx)
    # the isolated item, the last row, still has a target tag
    labels = SparsePattern(np.append(labels.rows, 3), np.append(labels.cols, 4), labels.shape)
    return graph, model, item_idx, labels
