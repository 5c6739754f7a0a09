import os
from itertools import chain

import numpy as np
import pytest

from taggnn import data as data_mod
from taggnn import synthetic
from taggnn.autodiff import SparsePattern
from taggnn.graph import Vocabulary, build_graph, token_pattern

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def toydata_dir():
    return os.path.join(FIXTURES, "toydata")


@pytest.fixture
def toy_dataset(toydata_dir):
    return data_mod.load_dataset(toydata_dir)


@pytest.fixture
def toy_setup(toy_dataset):
    """Dataset, splits, vocab and masked graph for the committed toy fixture."""
    splits = data_mod.make_splits(toy_dataset, (8, 2, 2), seed=11)
    vocab = Vocabulary.from_texts(toy_dataset.texts(), min_count=1)
    graph = data_mod.dataset_to_graph(toy_dataset, vocab, splits=splits)
    return toy_dataset, splits, vocab, graph


@pytest.fixture(scope="session")
def multi_tile_setup():
    """Splits, vocab and masked graph of a generated dataset in which every node type
    spans several ``autodiff.TILE_ROWS``-row tiles (200 queries, 300 items, 150 tags)."""
    dataset, _ = synthetic.overfit_dataset(n_items=300, n_tags=150, n_queries=200, seed=4)
    splits = data_mod.make_splits(dataset, (200, 40, 60), seed=4)
    vocab = Vocabulary.from_texts(dataset.texts(), min_count=1)
    return splits, vocab, data_mod.dataset_to_graph(dataset, vocab, splits=splits)


def token_graph(queries, items, tags, qi_edges, it_edges, n_words=None, **ids):
    """``build_graph`` over per-node token-id lists, each node type's lists held as a
    ``token_pattern`` of ``n_words`` columns (default: one past the largest id)."""
    if n_words is None:
        n_words = 1 + int(max(chain.from_iterable(queries + items + tags), default=0))
    return build_graph(*(token_pattern(lists, n_words) for lists in (queries, items, tags)),
                       qi_edges, it_edges, **ids)


def random_tiny_graph(rng, with_queries=True):
    """A small random tripartite graph over ``n_words`` word ids, for property tests."""
    nq = int(rng.integers(1, 4)) if with_queries else 0
    ni = int(rng.integers(2, 5))
    nt = int(rng.integers(2, 5))
    n_words = int(rng.integers(4, 9))

    def toks():
        return list(rng.integers(1, n_words, size=rng.integers(1, 4)))

    queries = [toks() for _ in range(nq)]
    items = [toks() for _ in range(ni)]
    tags = [toks() for _ in range(nt)]

    qi = []
    for q in range(nq):
        for i in range(ni):
            if rng.random() < 0.5:
                qi.append((q, i, float(rng.integers(1, 6))))
    it = []
    for i in range(ni):
        for t in range(nt):
            if rng.random() < 0.5:
                it.append((i, t))
    return token_graph(queries, items, tags, qi, it, n_words=n_words), n_words


def positives(y):
    """The nonzero entries of a dense 0/1 label array as a label :class:`SparsePattern`."""
    y = np.asarray(y)
    return SparsePattern(*np.nonzero(y), y.shape)
