"""Engine-level property: analytic gradients match central differences on
100 random small model instances (all variants, dropout off, float64)."""

import numpy as np

from taggnn.autodiff import finite_difference_check
from taggnn.model import ModelVariant, TagGNNModel
from taggnn.training import combined_loss, label_matrix

from conftest import positives, random_tiny_graph


def _random_instance(rng, trial):
    graph, n_words = random_tiny_graph(rng)
    kind = ("it", "qi", "full")[trial % 3]
    n_layers = 1 if trial % 4 else 2
    variant = ModelVariant(kind=kind, heterogeneous=trial % 2 == 0, n_layers=n_layers)
    model = TagGNNModel.init(n_words, graph.n_tags, 2, variant,
                             gamma=float(rng.choice([0.0, 0.5, 1.0])),
                             rng=np.random.default_rng([trial, 5]))
    item_idx = np.arange(graph.n_items)
    base = label_matrix(graph, item_idx)
    y = np.zeros(base.shape)
    y[base.rows, base.cols] = 1.0
    # sprinkle extra positives so items without visible tags still pull gradient;
    # one already linked stays a single entry
    for i in range(graph.n_items):
        y[i, int(rng.integers(0, graph.n_tags))] = 1.0
    return graph, model, item_idx, positives(y)


def test_hundred_random_instances_match_finite_differences():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for trial in range(100):
        graph, model, item_idx, labels = _random_instance(rng, trial)

        def loss_fn():
            total, _, _ = combined_loss(graph, model, item_idx, labels)
            return total

        err = finite_difference_check(loss_fn, model.parameters(), eps=1e-5)
        worst = max(worst, err)
        assert err < 1e-4, f"trial {trial}: max relative error {err:.3e}"
    assert worst < 1e-4
