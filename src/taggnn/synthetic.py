"""Seeded synthetic datasets for capability checks and demos.

Each generator returns a :class:`RawDataset` plus a ready
:class:`SplitAssignment`, built so one specific effect is easy to measure:
overfitting capacity, cold-start behavior of the dual loss, the value of
query edges, and the value of visible tags during completion.
"""

import numpy as np

from .autodiff import SparsePattern
from .data import RawDataset, SplitAssignment, mask_completion_tags
from .graph import Vocabulary
from .model import ModelVariant, TagGNNModel
from .training import label_matrix
from . import data as data_mod


def overfit_dataset(n_items=50, n_tags=20, n_queries=30, seed=0):
    """Small fully-connected-ish dataset a capable model should memorize."""
    rng = np.random.default_rng(seed)
    tags = [(f"t{j}", f"tagword{j}") for j in range(n_tags)]
    items, it = [], []
    for n in range(n_items):
        k = int(rng.integers(2, 5))
        mine = sorted(rng.choice(n_tags, size=k, replace=False))
        items.append((f"i{n}", " ".join(f"tagword{j}" for j in mine)))
        it.extend((f"i{n}", f"t{j}") for j in mine)
    queries = [(f"q{m}", f"queryword{m % 7}") for m in range(n_queries)]
    qi = []
    for m in range(n_queries):
        for n in sorted(rng.choice(n_items, size=4, replace=False)):
            qi.append((f"q{m}", f"i{n}", float(rng.integers(1, 6))))
    return (RawDataset(items, queries, tags, qi, it),
            SplitAssignment(roles={i: "train" for i, _ in items}))


def cold_start_dataset(n_items=150, n_tags=40, n_test=30, seed=0):
    """Titles predict tags exactly; test items are full-prediction and isolated.

    There are no queries at all, so under the item-tag variant a test item
    with hidden tag edges has no edges whatsoever -- the cold-start case the
    dual loss exists for.  The tag space is wide enough that a model trained
    without the dual loss sits near chance on these items.
    """
    rng = np.random.default_rng(seed)
    tags = [(f"t{j}", f"tagword{j}") for j in range(n_tags)]
    items, it = [], []
    truth = {}
    for n in range(n_items):
        mine = sorted(rng.choice(n_tags, size=2, replace=False))
        items.append((f"i{n}", " ".join(f"tagword{j}" for j in mine)))
        it.extend((f"i{n}", f"t{j}") for j in mine)
        truth[f"i{n}"] = frozenset(f"t{j}" for j in mine)

    test_ids = {f"i{n}" for n in rng.choice(n_items, size=n_test, replace=False)}
    roles, truth_map = {}, {}
    for i, _ in items:
        if i in test_ids:
            roles[i] = "test_full"
            truth_map[i] = truth[i]
        else:
            roles[i] = "train"
    ds = RawDataset(items, [], tags, [], it)
    return ds, SplitAssignment(roles=roles, truth=truth_map)


def query_signal_dataset(n_items=100, n_tags=10, n_test=30, queries_per_tag=6,
                         links_per_item=4, seed=0):
    """Tags are recoverable only through query co-occurrence.

    Item titles are empty; each tag owns a group of queries whose text names
    the tag, and an item links four of its tag's queries.  Test items keep
    their query edges (transductive), so a model that propagates over them
    can recover the tag while a text-only or item-tag model cannot.
    """
    rng = np.random.default_rng(seed)
    tags = [(f"t{j}", f"tagname{j}") for j in range(n_tags)]
    queries = []
    for j in range(n_tags):
        for m in range(queries_per_tag):
            queries.append((f"q{j}_{m}", f"queryword{j}"))

    items, it, qi = [], [], []
    truth = {}
    for n in range(n_items):
        j = int(rng.integers(0, n_tags))
        items.append((f"i{n}", ""))
        it.append((f"i{n}", f"t{j}"))
        truth[f"i{n}"] = frozenset({f"t{j}"})
        for m in sorted(rng.choice(queries_per_tag, size=links_per_item, replace=False)):
            qi.append((f"q{j}_{m}", f"i{n}", float(rng.integers(1, 4))))

    test_ids = {f"i{n}" for n in rng.choice(n_items, size=n_test, replace=False)}
    roles, truth_map = {}, {}
    for i, _ in items:
        if i in test_ids:
            roles[i] = "test_full"
            truth_map[i] = truth[i]
        else:
            roles[i] = "train"
    ds = RawDataset(items, queries, tags, qi, it)
    return ds, SplitAssignment(roles=roles, truth=truth_map)


def clustered_tags_dataset(n_items=90, n_clusters=5, cluster_size=4, n_test=30, seed=0):
    """Tags co-occur in clusters; completion items reveal their cluster.

    Every item takes three tags from one cluster, so two held-out tags leave
    one known tag whose edges point straight at the right cluster.  Titles
    are shared noise - the visible tag edges are the only useful signal.
    """
    rng = np.random.default_rng(seed)
    n_tags = n_clusters * cluster_size
    tags = [(f"t{j}", f"tagword{j}") for j in range(n_tags)]
    items, it = [], []
    cluster_of = {}
    for n in range(n_items):
        c = int(rng.integers(0, n_clusters))
        members = np.arange(c * cluster_size, (c + 1) * cluster_size)
        mine = sorted(rng.choice(members, size=3, replace=False))
        items.append((f"i{n}", " ".join(f"noise{int(w)}" for w in rng.integers(0, 4, size=2))))
        it.extend((f"i{n}", f"t{j}") for j in mine)
        cluster_of[f"i{n}"] = c

    ds = RawDataset(items, [], tags, [], it)
    tag_map = ds.item_tag_map()
    test_ids = [f"i{n}" for n in sorted(rng.choice(n_items, size=n_test, replace=False))]
    roles, heldout, truth, known = {}, {}, {}, {}
    for i, _ in items:
        roles[i] = "train"
    for i in test_ids:
        roles[i] = "test_comp"
        kn, held = mask_completion_tags(tag_map[i], rng)
        heldout[i], known[i], truth[i] = held, kn, held
    return ds, SplitAssignment(roles=roles, heldout=heldout, truth=truth, known=known)


def gradcheck_instance(dim=6, n_layers=2, seed=7):
    """The fixed tiny tripartite instance used for finite-difference checks.

    3 queries, 4 items, 5 tags; item 3 is fully isolated so the check also
    exercises the pass-through path and the dual loss on an unpropagated
    item.  Returns (graph, model, train item indices, label pattern).
    """
    items = [("i0", "alpha beta"), ("i1", "beta gamma"), ("i2", "delta"), ("i3", "epsilon zeta")]
    queries = [("q0", "alpha"), ("q1", "gamma delta"), ("q2", "beta")]
    tags = [("t0", "alpha"), ("t1", "beta"), ("t2", "gamma"), ("t3", "delta"), ("t4", "eta")]
    qi = [("q0", "i0", 2.0), ("q0", "i1", 1.0), ("q1", "i1", 3.0),
          ("q1", "i2", 1.0), ("q2", "i0", 1.0), ("q2", "i2", 2.0)]
    it = [("i0", "t0"), ("i0", "t1"), ("i1", "t1"), ("i1", "t2"), ("i2", "t3"), ("i2", "t4")]
    ds = RawDataset(items, queries, tags, qi, it)
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
