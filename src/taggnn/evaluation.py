"""Top-K tag inference and the Precision@K harness.

A trained model is frozen into a :class:`Predictor` (one dropout-free
forward pass); items are scored ``TILE_ROWS`` at a time, each zero-padded tile
one product with the forward's tag side (the propagated tag vectors, or the
head weight of the query-item variant and the baseline) as a C-ordered
(d x tags) matrix, plus the bias.  Every
ranking goes through :func:`rank_topk`, which ranks one score vector or a
block of score rows; Precision@K scores and ranks ``SCORE_CHUNK`` items at a
time, so no score matrix over every item is held.  Completion items never see
their known tags among the candidates.  A predictor is built for the items it
will score (``items``), so its forward computes final vectors for those items
only.
"""

import json

import numpy as np

from .autodiff import TILE_ROWS, NumericalError, no_grad

RANK_GROUP = 64     # score columns per group whose minimum bounds rank_topk's candidates
SCORE_CHUNK = 256   # items scored and ranked together by _subset_scores


def precision_at_k(predicted, truth, k):
    """Fraction of the first ``k`` predictions that are in ``truth`` (a set, list or array)."""
    if k <= 0:
        raise ValueError("k must be positive")
    if not len(truth):
        raise ValueError("empty ground-truth set")
    hits = sum(1 for p in predicted[:k] if p in truth)
    return hits / k


def rank_topk(scores, k, exclude=()):
    """Indices of the ``k`` highest scores, best first; ties go to the lower index.

    ``scores`` is one score vector, with ``exclude`` the indices to leave
    out, or a block of score rows, with ``exclude`` one such collection per
    row (or none at all); a block gives one list per row.  Excluded indices
    never appear, so fewer than ``k`` come back when fewer candidates remain.
    A non-finite score raises :class:`NumericalError`.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        return rank_topk(scores[None], k, [exclude])[0]
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite tag scores; the model parameters are corrupt")
    m, n = scores.shape
    groups = -(-n // RANK_GROUP)
    # negated scores, excluded entries and the padding to whole groups at +inf
    neg = np.full((m, groups * RANK_GROUP), np.inf)
    np.negative(scores, out=neg[:, :n])
    excluded = [np.asarray(list(e), dtype=np.int64) for e in exclude]
    if excluded:
        lengths = [len(e) for e in excluded]
        neg[:, :n][np.repeat(np.arange(m), lengths), np.concatenate(excluded)] = np.inf
    # the k-th smallest group minimum bounds each row's k-th best candidate from above,
    # so only the entries at or below it, all in groups whose minimum is too, can make the list
    blocks = neg.reshape(m, groups, RANK_GROUP)
    group_min = blocks.min(axis=2)
    bound = np.full(m, np.finfo(np.float64).max)
    if k < groups:
        np.minimum(bound, np.partition(group_min, k - 1, axis=1)[:, k - 1], out=bound)
    group_rows, group_cols = np.nonzero(group_min <= bound[:, None])
    picked, at = np.nonzero(blocks[group_rows, group_cols] <= bound[group_rows, None])
    rows, cols = group_rows[picked], group_cols[picked] * RANK_GROUP + at
    order = np.lexsort((cols, neg[rows, cols], rows))
    cols = cols[order].tolist()
    starts = np.searchsorted(rows[order], np.arange(m + 1)).tolist()
    return [cols[lo:min(hi, lo + k)] for lo, hi in zip(starts[:-1], starts[1:])]


class Predictor:
    """Frozen model + graph: caches one eval-mode forward for repeated ranking.

    The forward records no tape (:func:`autodiff.no_grad`), so no intermediate
    outlives its use.  ``items`` (graph item rows, ``None`` for all) are the
    only items it can score; the forward computes final vectors for just
    those, and their scores are bit-identical to an all-items predictor's.
    Every model is scored the same way, against the forward's ``tags``, kept
    as one C-ordered (d x tags) matrix, plus its ``bias``, if any.  ``tags``
    is a forward output, never a parameter, and the bias is copied, so later
    training steps leave the predictor's scores as they were.
    """

    def __init__(self, model, graph, items=None):
        with no_grad():
            out = model.forward(graph, items=items)
        self._item_reps = out.item_reps.data
        self._tags_t = np.ascontiguousarray(out.tags.data.T)
        self._bias = None if out.bias is None else out.bias.data.copy()
        self._position = None if items is None else {int(r): n for n, r in enumerate(items)}

    def score_rows(self, item_indices):
        """Scores of several items (graph item rows) against every tag, one row each.

        The item rows are gathered ``TILE_ROWS`` at a time into one
        zero-padded tile, and each tile is one product with the (d x tags)
        tag side; the bias, if there is one, is added afterwards.  So a row's
        scores never depend on which other items are scored, or where.
        """
        positions = np.array([self._row(int(i)) for i in item_indices], dtype=np.int64)
        out = np.empty((len(positions), self._tags_t.shape[1]))
        tile = np.empty((TILE_ROWS, self._tags_t.shape[0]))
        for lo in range(0, len(positions), TILE_ROWS):
            at = positions[lo:lo + TILE_ROWS]
            np.take(self._item_reps, at, axis=0, out=tile[:len(at)])
            if len(at) == TILE_ROWS:
                np.matmul(tile, self._tags_t, out=out[lo:lo + TILE_ROWS])
            else:
                tile[len(at):] = 0.0
                out[lo:] = (tile @ self._tags_t)[:len(at)]
        if self._bias is not None:
            out += self._bias
        return out

    def topk(self, item_index, k, exclude=()):
        """Indices of one item's best-scoring tags, by :func:`rank_topk`."""
        return rank_topk(self.score_rows([item_index])[0], k, exclude)

    def _row(self, item_index):
        if self._position is None:
            return item_index
        if item_index not in self._position:
            raise ValueError(f"item row {item_index} is not among this predictor's items")
        return self._position[item_index]


def item_rows(graph, splits, roles):
    """Sorted graph rows of the items whose split role is in ``roles``."""
    pos = {item_id: i for i, item_id in enumerate(graph.item_ids)}
    rows = [pos[item_id] for item_id, role in splits.roles.items()
            if role in roles and item_id in pos]
    return np.array(sorted(rows), dtype=np.int64)


def _subset_scores(predictor, graph, splits, role, ks):
    """Macro-averaged P@K for one role; completion items exclude known tags.

    Items are scored and ranked ``SCORE_CHUNK`` at a time, so no score matrix
    over every item is ever held.
    """
    tag_pos = {tag_id: t for t, tag_id in enumerate(graph.tag_ids)}
    completion = role.endswith("_comp")
    rows = item_rows(graph, splits, (role,))
    truths, excludes = [], []
    for index in rows:
        item_id = graph.item_ids[index]
        truth_ids = splits.truth.get(item_id)
        if not truth_ids:
            raise ValueError(f"no ground-truth tags recorded for item {item_id!r}")
        truths.append({tag_pos[t] for t in truth_ids})
        excludes.append([tag_pos[t] for t in splits.known.get(item_id, ())] if completion else [])
    per_k = {k: [] for k in ks}
    for lo in range(0, len(rows), SCORE_CHUNK):
        chunk = slice(lo, lo + SCORE_CHUNK)
        scores = predictor.score_rows(rows[chunk])
        for ranked, truth in zip(rank_topk(scores, max(ks), excludes[chunk]), truths[chunk]):
            for k in ks:
                per_k[k].append(precision_at_k(ranked, truth, k))
    out = {f"p@{k}": (float(np.mean(per_k[k])) if len(rows) else None) for k in ks}
    out["items"] = len(rows)
    return out


def subset_precision(model, graph, splits, roles, ks=(1, 3, 5)):
    """P@K per role over the given split roles (shared forward pass).

    ``model`` may be anything with a Predictor-style ``score_rows``; a model
    (graph or baseline) is frozen into a :class:`Predictor` of those roles' items here.
    """
    predictor = model if hasattr(model, "score_rows") else Predictor(
        model, graph, items=item_rows(graph, splits, roles))
    return {role: _subset_scores(predictor, graph, splits, role, ks) for role in roles}


def evaluate(model, graph, splits, ks=(1, 3, 5), subset="test", meta=None):
    """Assemble the fixed-shape report over the full-prediction and completion subsets.

    ``subset`` picks the split pair ("test" or "val").  ``meta`` entries
    (config hash, seed, epochs) are copied into the report verbatim.
    """
    roles = (f"{subset}_full", f"{subset}_comp")
    scored = subset_precision(model, graph, splits, roles, ks=ks)
    report = {
        "without_tags": scored[roles[0]],
        "partial_tags": scored[roles[1]],
        "meta": dict(meta or {}),
    }
    return report


def report_to_json(report):
    """Canonical byte-stable JSON for golden-file comparisons."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
