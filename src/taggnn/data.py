"""Dataset files, preprocessing filters, and deterministic splits.

Everything on disk is tab-separated UTF-8 with ``#`` comment lines.  The
split assignment decides, per item, whether its tag edges are visible in the
graph: training items keep all of them, completion items keep everything but
their two held-out tags, and full-prediction items keep none.  Query edges
are never hidden.
"""

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, repeat

import numpy as np

from .graph import UNK_TOKEN, Vocabulary, build_graph, check_rows, distinct_pairs

DATASET_FILES = {
    "items": "items.tsv",
    "queries": "queries.tsv",
    "tags": "tags.tsv",
    "qi": "query_item_edges.tsv",
    "it": "item_tag_edges.tsv",
}

ROLES = ("train", "val_full", "val_comp", "test_full", "test_comp")
FULL_ROLES = ("val_full", "test_full")
COMPLETION_ROLES = ("val_comp", "test_comp")


class DataFormatError(ValueError):
    """A dataset file failed validation; the message names file and line."""


class RawDataset:
    """Parsed but otherwise untouched dataset contents, in file order, held as columns.

    Each node type keeps parallel id and text lists (``item_ids``/``item_texts``,
    ``query_ids``/``query_texts``, ``tag_ids``/``tag_texts``).  Edges are int64
    rows into those lists: ``qi_query``/``qi_item`` with float64 ``qi_weight``,
    and ``it_item``/``it_tag``.  ``items``, ``qi`` and ``it`` are read-only
    views that rebuild the rows as lists of tuples on each access; nothing in
    this package reads them.
    """

    def __init__(self, item_ids, item_texts, query_ids, query_texts, tag_ids, tag_texts,
                 qi_query, qi_item, qi_weight, it_item, it_tag):
        self.item_ids, self.item_texts = item_ids, item_texts
        self.query_ids, self.query_texts = query_ids, query_texts
        self.tag_ids, self.tag_texts = tag_ids, tag_texts
        self.item_index = _index(item_ids)
        self.query_index = _index(query_ids)
        self.tag_index = _index(tag_ids)
        for name, ids, index in (("items", item_ids, self.item_index),
                                 ("queries", query_ids, self.query_index),
                                 ("tags", tag_ids, self.tag_index)):
            if len(index) != len(ids):
                raise DataFormatError(f"duplicate ids in {name}")
        self.qi_query = np.asarray(qi_query, dtype=np.int64)
        self.qi_item = np.asarray(qi_item, dtype=np.int64)
        self.qi_weight = np.asarray(qi_weight, dtype=np.float64)
        self.it_item = np.asarray(it_item, dtype=np.int64)
        self.it_tag = np.asarray(it_tag, dtype=np.int64)

    @property
    def items(self):
        return list(zip(self.item_ids, self.item_texts))        # (item_id, title text)

    @property
    def qi(self):
        q, i = self.query_ids, self.item_ids                    # (query_id, item_id, weight)
        return [(q[a], i[b], w) for a, b, w in
                zip(self.qi_query.tolist(), self.qi_item.tolist(), self.qi_weight.tolist())]

    @property
    def it(self):
        i, t = self.item_ids, self.tag_ids                      # (item_id, tag_id)
        return [(i[a], t[b]) for a, b in zip(self.it_item.tolist(), self.it_tag.tolist())]

    def _tags_by_item(self, rows=None):
        """Per item row of ``rows`` (every item by default), the list of its linked tag ids
        in file order; only the edges of those rows are read."""
        item, tag = self.it_item, self.it_tag
        if rows is None:
            rows = np.arange(len(self.item_ids))
        else:
            keep = np.isin(item, rows)
            item, tag = item[keep], tag[keep]
        order = np.argsort(item, kind="stable")
        item = item[order]
        bounds = zip(np.searchsorted(item, rows).tolist(),
                     np.searchsorted(item, rows, side="right").tolist())
        tags = [self.tag_ids[t] for t in tag[order].tolist()]
        return [tags[a:b] for a, b in bounds]

    def texts(self):
        """All node texts, in the fixed order used to build vocabularies."""
        yield from self.query_texts
        yield from self.item_texts
        yield from self.tag_texts


def _index(ids):
    """Id -> row; a repeated id keeps its last row."""
    return dict(zip(ids, range(len(ids))))


def _rows(index, keys):
    """int64 rows of ``keys`` in ``index``, -1 where a key is unknown."""
    return np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))


def _read_table(path, min_cols, max_cols, pad=""):
    """A TSV file's checker and its data lines as ``max_cols`` column lists.

    The file is read whole and split once on tabs; blank and ``#`` lines are
    skipped.  A line short of ``max_cols`` columns (by the one optional
    column every table here has at most) gets ``pad`` appended first.
    ``check`` is :func:`graph.check_rows` over them, raising ``file:line`` errors.
    """
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "" in lines or text.startswith("#") or "\n#" in text:
        linenos = [n for n, line in enumerate(lines, start=1) if line and line[0] != "#"]
        lines = [lines[n - 1] for n in linenos]
    else:
        linenos = range(1, len(lines) + 1)
    check = partial(check_rows, error=DataFormatError, where=lambda n: f"{name}:{linenos[n]}: ")
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64, count=len(lines))
    check([((tabs < min_cols - 1) | (tabs > max_cols - 1), lambda n: (
        f"expected {min_cols}-{max_cols} tab-separated columns, got {tabs[n] + 1}"))])
    short = tabs < max_cols - 1
    if short.any():
        lines = [line + pad if s else line for line, s in zip(lines, short.tolist())]
    fields = "\t".join(lines).split("\t") if lines else []
    return check, [fields[c::max_cols] for c in range(max_cols)]


def _weight(text):
    try:
        return float(text)
    except ValueError:
        return None


def load_dataset(directory):
    """Read and validate the five dataset files from ``directory``.

    Each file's checks form one ordered list of column masks; the error names
    the first failing line and the first of its checks that fails, in the
    order listed here per file: column count, then for tags a ``,`` in the
    id (the held-out tag separator of ``splits.tsv``), for query-item edges
    unknown query, unknown item, unparsable weight, negative or non-finite
    weight, and for item-tag edges unknown item, unknown tag.  Duplicate
    node ids are reported last.
    """
    paths = {k: os.path.join(directory, v) for k, v in DATASET_FILES.items()}
    for k, p in paths.items():
        if not os.path.exists(p):
            raise DataFormatError(f"missing dataset file {DATASET_FILES[k]} in {directory}")

    # an entity line without its text column gets an empty text
    item_ids, item_texts = _read_table(paths["items"], 1, 2, pad="\t")[1]
    query_ids, query_texts = _read_table(paths["queries"], 1, 2, pad="\t")[1]
    check, (tag_ids, tag_texts) = _read_table(paths["tags"], 1, 2, pad="\t")
    check([(np.array(["," in t for t in tag_ids], dtype=bool),
            lambda n: f"tag id '{tag_ids[n]}' contains ','")])
    item_index, query_index, tag_index = _index(item_ids), _index(query_ids), _index(tag_ids)

    # a missing weight column defaults to 1
    check, (q, i, w) = _read_table(paths["qi"], 2, 3, pad="\t1.0")
    qi_query, qi_item = _rows(query_index, q), _rows(item_index, i)
    try:
        qi_weight = np.fromiter(map(float, w), dtype=np.float64, count=len(w))
    except ValueError:   # NaN, from None, where a weight does not parse
        qi_weight = np.array(list(map(_weight, w)), dtype=np.float64)
    check([(qi_query < 0, lambda n: f"unknown query '{q[n]}'"),
           (qi_item < 0, lambda n: f"unknown item '{i[n]}'"),
           (~((0 <= qi_weight) & (qi_weight < np.inf)), lambda n: f"bad weight '{w[n]}'"
            if _weight(w[n]) is None else "weight must be finite and >= 0")])

    check, (i, t) = _read_table(paths["it"], 2, 2)
    it_item, it_tag = _rows(item_index, i), _rows(tag_index, t)
    check([(it_item < 0, lambda n: f"unknown item '{i[n]}'"),
           (it_tag < 0, lambda n: f"unknown tag '{t[n]}'")])

    return RawDataset(item_ids, item_texts, query_ids, query_texts, tag_ids, tag_texts,
                      qi_query, qi_item, qi_weight, it_item, it_tag)


def save_dataset(dataset, directory):
    """Write the five dataset files; weights as the ``repr`` of each float."""
    os.makedirs(directory, exist_ok=True)
    q, i, t = dataset.query_ids, dataset.item_ids, dataset.tag_ids
    rows = {
        "items": zip(i, dataset.item_texts),
        "queries": zip(q, dataset.query_texts),
        "tags": zip(t, dataset.tag_texts),
        "qi": ((q[a], i[b], repr(w)) for a, b, w in zip(
            dataset.qi_query.tolist(), dataset.qi_item.tolist(), dataset.qi_weight.tolist())),
        "it": ((i[a], t[b]) for a, b in zip(dataset.it_item.tolist(), dataset.it_tag.tolist())),
    }
    for key, lines in rows.items():
        with open(os.path.join(directory, DATASET_FILES[key]), "w", encoding="utf-8") as fh:
            fh.writelines("\t".join(row) + "\n" for row in lines)


@dataclass
class FilterThresholds:
    """Minimum distinct-degree constraints enforced to a fixed point."""

    item_query: int = 20   # queries per item
    query_item: int = 20   # items per query
    item_tag: int = 5      # tags per item
    tag_item: int = 15     # items per tag
    min_count: int = 5     # word frequency threshold for the vocabulary


def preprocess_filter(dataset, thresholds=None):
    """Drop nodes violating the degree constraints until none remain.

    Degrees count distinct neighbours, so a repeated edge line counts once.
    Removing one node can push a neighbor below its own threshold, so the
    pass iterates per-type keep masks to a fixed point; re-running on the
    output is the identity.  Every edge line between kept nodes is kept,
    repeats included.  Words rarer than ``min_count`` across the surviving
    texts are rewritten to the reserved unknown token, so the emitted dataset
    is self-contained; every kept text is re-joined with single spaces.
    """
    th = thresholds or FilterThresholds()
    ni, nq, nt = len(dataset.item_ids), len(dataset.query_ids), len(dataset.tag_ids)
    qi_q, qi_i = distinct_pairs(dataset.qi_query, dataset.qi_item, ni)
    it_i, it_t = distinct_pairs(dataset.it_item, dataset.it_tag, nt)
    keep_i, keep_q, keep_t = np.ones(ni, bool), np.ones(nq, bool), np.ones(nt, bool)
    while True:
        qi = keep_q[qi_q] & keep_i[qi_i]
        it = keep_i[it_i] & keep_t[it_t]
        bad_i = keep_i & ((np.bincount(qi_i[qi], minlength=ni) < th.item_query)
                          | (np.bincount(it_i[it], minlength=ni) < th.item_tag))
        bad_q = keep_q & (np.bincount(qi_q[qi], minlength=nq) < th.query_item)
        bad_t = keep_t & (np.bincount(it_t[it], minlength=nt) < th.tag_item)
        if not (bad_i.any() or bad_q.any() or bad_t.any()):
            break
        keep_i &= ~bad_i
        keep_q &= ~bad_q
        keep_t &= ~bad_t

    if not keep_i.any():
        raise ValueError("preprocessing removed every item; thresholds too strict for this data")

    kept = [list(compress(column, keep.tolist())) for column, keep in (
        (dataset.item_ids, keep_i), (dataset.item_texts, keep_i),
        (dataset.query_ids, keep_q), (dataset.query_texts, keep_q),
        (dataset.tag_ids, keep_t), (dataset.tag_texts, keep_t))]
    counts = Counter(tok for texts in kept[1::2] for text in texts for tok in text.split())
    rare = {tok for tok, n in counts.items() if n < th.min_count}
    for texts in kept[1::2]:
        texts[:] = [" ".join([UNK_TOKEN if tok in rare else tok for tok in text.split()])
                    for text in texts]

    row_i, row_q, row_t = (np.cumsum(keep) - 1 for keep in (keep_i, keep_q, keep_t))
    qi = keep_q[dataset.qi_query] & keep_i[dataset.qi_item]
    it = keep_i[dataset.it_item] & keep_t[dataset.it_tag]
    return RawDataset(*kept, row_q[dataset.qi_query[qi]], row_i[dataset.qi_item[qi]],
                      dataset.qi_weight[qi], row_i[dataset.it_item[it]], row_t[dataset.it_tag[it]])


def build_vocabulary(dataset, min_count=5):
    return Vocabulary.from_texts(dataset.texts(), min_count=min_count)


@dataclass
class SplitAssignment:
    """Per-item role plus the evaluation items' tags; ``known`` holds exactly the
    completion items, and each one's ``truth`` is its held-out tag pair."""

    roles: dict                      # item_id -> role
    truth: dict = field(default_factory=dict)     # item_id -> ground-truth tag ids (eval roles)
    known: dict = field(default_factory=dict)     # item_id -> visible tag ids (completion roles)

    def __post_init__(self):
        for item_id, role in self.roles.items():
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r} for item {item_id!r}")
        for item_id, known in self.known.items():
            if item_id not in self.truth:
                raise ValueError(f"completion item {item_id!r} has no held-out tags")
            if self.truth[item_id] & known:
                raise ValueError(f"held-out and known tags overlap for item {item_id!r}")


def mask_completion_tags(tag_set, rng):
    """Uniformly hold out two tags, drawn from the Generator ``rng``; the rest stay known.
    At least three tags are required, so a completion item keeps a visible tag edge."""
    tags = sorted(tag_set)
    if len(tags) < 3:
        raise ValueError(f"tag completion needs >= 3 tags, got {len(tags)}")
    picked = rng.choice(len(tags), size=2, replace=False)
    held = frozenset(tags[j] for j in picked)
    return frozenset(tags) - held, held


def make_splits(dataset, counts, seed):
    """Random role partition: ``counts`` items for train, validation, test.

    Each of the validation and test groups is split half/half into
    full-prediction and completion roles; completion slots go to items with
    at least three tags (so the two held-out tags leave one known).
    """
    n_train, n_val, n_test = counts
    for name, n in zip(("train", "val", "test"), counts):
        if n < 0:
            raise ValueError(f"split count {name}={n} is negative")
    item_ids = dataset.item_ids
    if n_train + n_val + n_test > len(item_ids):
        raise ValueError(f"split counts {counts} exceed {len(item_ids)} items")
    tag_map = dict(zip(item_ids, map(set, dataset._tags_by_item())))   # distinct tags per item

    rng = np.random.default_rng(seed)
    order = [item_ids[j] for j in rng.permutation(len(item_ids))]
    groups = {
        "train": order[:n_train],
        "val": order[n_train:n_train + n_val],
        "test": order[n_train + n_val:n_train + n_val + n_test],
    }

    roles, truth, known = {}, {}, {}
    for item_id in groups["train"]:
        roles[item_id] = "train"
    for group, full_role, comp_role in (("val", "val_full", "val_comp"),
                                        ("test", "test_full", "test_comp")):
        members = groups[group]
        n_comp = len(members) // 2
        eligible = [i for i in members if len(tag_map[i]) >= 3]
        if len(eligible) < n_comp:
            raise ValueError(
                f"{group}: need {n_comp} completion-eligible items (>= 3 tags), "
                f"only {len(eligible)} available")
        comp = set(eligible[:n_comp])
        for item_id in members:
            if item_id in comp:
                roles[item_id] = comp_role
                known[item_id], truth[item_id] = mask_completion_tags(tag_map[item_id], rng)
            else:
                roles[item_id] = full_role
                if not tag_map[item_id]:
                    raise ValueError(f"item {item_id!r} has no tags; cannot evaluate it")
                truth[item_id] = frozenset(tag_map[item_id])

    return SplitAssignment(roles=roles, truth=truth, known=known)


def save_splits(splits, path):
    with open(path, "w", encoding="utf-8") as fh:
        for item_id in splits.roles:
            role = splits.roles[item_id]
            held = ",".join(sorted(splits.truth[item_id])) if item_id in splits.known else ""
            fh.write(f"{item_id}\t{role}\t{held}\n" if held else f"{item_id}\t{role}\n")


def load_splits(path, dataset):
    """Rebuild a SplitAssignment from splits.tsv plus the dataset's tag sets.

    The checks form one ordered list of line masks, as in :func:`load_dataset`;
    a failure names the first failing line and the first of its checks that
    fails: column count, unknown item, unknown role, repeated item, then for
    completion roles a missing, not-two or not-linked held-out tag pair, or
    one that leaves no known tag, then no tags at all for any evaluation role.
    """
    check, (items, roles, held) = _read_table(path, 2, 3, pad="\t")
    rows = _rows(dataset.item_index, items)
    role = _rows(_index(ROLES), roles)                     # -1 for an unknown role
    repeated = np.ones(len(items), dtype=bool)
    repeated[np.unique(rows, return_index=True)[1]] = False
    evaluation = (rows >= 0) & (role > 0)
    evaluated = np.flatnonzero(evaluation).tolist()
    linked = dict(zip(evaluated, map(frozenset, dataset._tags_by_item(rows[evaluated]))))
    pairs = {n: frozenset(held[n].split(",")) for n in evaluated if roles[n] in COMPLETION_ROLES}

    def failing(fails):                      # a mask over the completion lines
        mask = np.zeros(len(items), dtype=bool)
        mask[list(pairs)] = [fails(n) for n in pairs]
        return mask

    check([
        (rows < 0, lambda n: f"unknown item '{items[n]}'"),
        (role < 0, lambda n: f"unknown role '{roles[n]}'"),
        (repeated, lambda n: f"duplicate item '{items[n]}'"),
        (failing(lambda n: not held[n]), lambda n: "completion role needs held-out tags"),
        (failing(lambda n: len(pairs[n]) != 2), lambda n: "exactly two held-out tags required"),
        (failing(lambda n: not pairs[n] <= linked[n]),
         lambda n: "held-out tags not linked to item"),
        (failing(lambda n: pairs[n] == linked[n]),
         lambda n: f"item '{items[n]}' keeps no known tag; completion needs >= 3 tags"),
        (evaluation & ~np.isin(rows, dataset.it_item),
         lambda n: f"item '{items[n]}' has no tags; cannot evaluate it")])
    return SplitAssignment(roles=dict(zip(items, roles)),
                           truth={items[n]: pairs.get(n, linked[n]) for n in evaluated},
                           known={items[n]: linked[n] - pair for n, pair in pairs.items()})


def _hidden_tag_edges(dataset, splits):
    """Mask over the dataset's item-tag edges of those the split roles hide: every
    edge of a full-prediction item, and each completion item's held-out pair."""
    full = _rows(dataset.item_index, [i for i, r in splits.roles.items() if r in FULL_ROLES])
    pairs = [(i, t) for i in splits.known for t in splits.truth[i]]
    held_item = _rows(dataset.item_index, [i for i, _ in pairs])
    held_tag = _rows(dataset.tag_index, [t for _, t in pairs])
    linked = (held_item >= 0) & (held_tag >= 0)
    n_tags = len(dataset.tag_ids)
    return np.isin(dataset.it_item, full) | np.isin(dataset.it_item * n_tags + dataset.it_tag,
                                                    held_item[linked] * n_tags + held_tag[linked])


def dataset_to_graph(dataset, vocab, splits=None):
    """Tokenize and assemble the graph, hiding evaluation items' target tag edges.

    Full-prediction items lose all their tag edges; completion items lose the
    held-out pair.  Query edges always stay.
    """
    it_item, it_tag = dataset.it_item, dataset.it_tag
    if splits is not None:
        visible = ~_hidden_tag_edges(dataset, splits)
        it_item, it_tag = it_item[visible], it_tag[visible]
    return build_graph(vocab.encode_texts(dataset.query_texts),
                       vocab.encode_texts(dataset.item_texts),
                       vocab.encode_texts(dataset.tag_texts),
                       np.column_stack((dataset.qi_query, dataset.qi_item, dataset.qi_weight)),
                       np.column_stack((it_item, it_tag)),
                       query_ids=dataset.query_ids, item_ids=dataset.item_ids,
                       tag_ids=dataset.tag_ids)
