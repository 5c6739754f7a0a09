"""Dataset files, preprocessing filters, and deterministic splits.

Everything on disk is tab-separated UTF-8 with ``#`` comment lines.  The
split assignment decides, per item, whether its tag edges are visible in the
graph: training items keep all of them, completion items keep everything but
their two held-out tags, and full-prediction items keep none.  Query edges
are never hidden.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .graph import UNK_TOKEN, Vocabulary, build_graph

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


@dataclass
class RawDataset:
    """Parsed but otherwise untouched dataset contents, in file order."""

    items: list            # (item_id, title text)
    queries: list          # (query_id, query text)
    tags: list             # (tag_id, name text)
    qi: list               # (query_id, item_id, weight)
    it: list               # (item_id, tag_id)

    def __post_init__(self):
        for name, rows in (("items", self.items), ("queries", self.queries), ("tags", self.tags)):
            ids = [r[0] for r in rows]
            if len(ids) != len(set(ids)):
                raise DataFormatError(f"duplicate ids in {name}")
        self.item_index = {i: n for n, (i, _) in enumerate(self.items)}
        self.query_index = {q: n for n, (q, _) in enumerate(self.queries)}
        self.tag_index = {t: n for n, (t, _) in enumerate(self.tags)}

    def item_tag_map(self):
        out = {i: set() for i, _ in self.items}
        for i, t in self.it:
            out[i].add(t)
        return out

    def texts(self):
        """All node texts, in the fixed order used to build vocabularies."""
        for _, text in self.queries:
            yield text
        for _, text in self.items:
            yield text
        for _, text in self.tags:
            yield text


def _read_rows(path, min_cols, max_cols):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if not min_cols <= len(cols) <= max_cols:
                raise DataFormatError(
                    f"{os.path.basename(path)}:{lineno}: expected "
                    f"{min_cols}-{max_cols} tab-separated columns, got {len(cols)}")
            rows.append((lineno, cols))
    return rows


def load_dataset(directory):
    """Read and validate the five dataset files from ``directory``."""
    paths = {k: os.path.join(directory, v) for k, v in DATASET_FILES.items()}
    for k, p in paths.items():
        if not os.path.exists(p):
            raise DataFormatError(f"missing dataset file {DATASET_FILES[k]} in {directory}")

    def entity(path):
        out = []
        for _, cols in _read_rows(path, 1, 2):
            out.append((cols[0], cols[1] if len(cols) == 2 else ""))
        return out

    items = entity(paths["items"])
    queries = entity(paths["queries"])
    tags = entity(paths["tags"])
    item_ids = {i for i, _ in items}
    query_ids = {q for q, _ in queries}
    tag_ids = {t for t, _ in tags}

    qi = []
    for lineno, cols in _read_rows(paths["qi"], 2, 3):
        q, i = cols[0], cols[1]
        if q not in query_ids:
            raise DataFormatError(f"{DATASET_FILES['qi']}:{lineno}: unknown query '{q}'")
        if i not in item_ids:
            raise DataFormatError(f"{DATASET_FILES['qi']}:{lineno}: unknown item '{i}'")
        if len(cols) == 3:
            try:
                w = float(cols[2])
            except ValueError:
                raise DataFormatError(
                    f"{DATASET_FILES['qi']}:{lineno}: bad weight '{cols[2]}'") from None
        else:
            w = 1.0  # missing weight column defaults to 1
        if w < 0 or not np.isfinite(w):
            raise DataFormatError(f"{DATASET_FILES['qi']}:{lineno}: weight must be finite and >= 0")
        qi.append((q, i, w))

    it = []
    for lineno, cols in _read_rows(paths["it"], 2, 2):
        i, t = cols
        if i not in item_ids:
            raise DataFormatError(f"{DATASET_FILES['it']}:{lineno}: unknown item '{i}'")
        if t not in tag_ids:
            raise DataFormatError(f"{DATASET_FILES['it']}:{lineno}: unknown tag '{t}'")
        it.append((i, t))

    return RawDataset(items=items, queries=queries, tags=tags, qi=qi, it=it)


def save_dataset(dataset, directory):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, DATASET_FILES["items"]), "w", encoding="utf-8") as fh:
        for i, text in dataset.items:
            fh.write(f"{i}\t{text}\n")
    with open(os.path.join(directory, DATASET_FILES["queries"]), "w", encoding="utf-8") as fh:
        for q, text in dataset.queries:
            fh.write(f"{q}\t{text}\n")
    with open(os.path.join(directory, DATASET_FILES["tags"]), "w", encoding="utf-8") as fh:
        for t, text in dataset.tags:
            fh.write(f"{t}\t{text}\n")
    with open(os.path.join(directory, DATASET_FILES["qi"]), "w", encoding="utf-8") as fh:
        for q, i, w in dataset.qi:
            fh.write(f"{q}\t{i}\t{w!r}\n")
    with open(os.path.join(directory, DATASET_FILES["it"]), "w", encoding="utf-8") as fh:
        for i, t in dataset.it:
            fh.write(f"{i}\t{t}\n")


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

    Removing one node can push a neighbor below its own threshold, so the
    pass iterates to a fixed point; re-running on the output is the identity.
    Words rarer than ``min_count`` across the surviving texts are rewritten
    to the reserved unknown token, so the emitted dataset is self-contained.
    """
    th = thresholds or FilterThresholds()
    items = {i for i, _ in dataset.items}
    queries = {q for q, _ in dataset.queries}
    tags = {t for t, _ in dataset.tags}
    qi_pairs = {(q, i) for q, i, _ in dataset.qi}
    it_pairs = set(dataset.it)

    while True:
        qi_pairs = {(q, i) for q, i in qi_pairs if q in queries and i in items}
        it_pairs = {(i, t) for i, t in it_pairs if i in items and t in tags}
        item_q = {}
        query_i = {}
        item_t = {}
        tag_i = {}
        for q, i in qi_pairs:
            item_q[i] = item_q.get(i, 0) + 1
            query_i[q] = query_i.get(q, 0) + 1
        for i, t in it_pairs:
            item_t[i] = item_t.get(i, 0) + 1
            tag_i[t] = tag_i.get(t, 0) + 1

        bad_items = {i for i in items
                     if item_q.get(i, 0) < th.item_query or item_t.get(i, 0) < th.item_tag}
        bad_queries = {q for q in queries if query_i.get(q, 0) < th.query_item}
        bad_tags = {t for t in tags if tag_i.get(t, 0) < th.tag_item}
        if not (bad_items or bad_queries or bad_tags):
            break
        items -= bad_items
        queries -= bad_queries
        tags -= bad_tags

    if not items:
        raise ValueError("preprocessing removed every item; thresholds too strict for this data")

    kept_items = [r for r in dataset.items if r[0] in items]
    kept_queries = [r for r in dataset.queries if r[0] in queries]
    kept_tags = [r for r in dataset.tags if r[0] in tags]

    counts = {}
    for _, text in kept_queries + kept_items + kept_tags:
        for tok in text.split():
            counts[tok] = counts.get(tok, 0) + 1

    def remap(rows):
        out = []
        for rid, text in rows:
            toks = [tok if counts[tok] >= th.min_count or tok == UNK_TOKEN else UNK_TOKEN
                    for tok in text.split()]
            out.append((rid, " ".join(toks)))
        return out

    return RawDataset(
        items=remap(kept_items),
        queries=remap(kept_queries),
        tags=remap(kept_tags),
        qi=[r for r in dataset.qi if (r[0], r[1]) in qi_pairs],
        it=[r for r in dataset.it if (r[0], r[1]) in it_pairs],
    )


def build_vocabulary(dataset, min_count=5):
    return Vocabulary.from_texts(dataset.texts(), min_count=min_count)


@dataclass
class SplitAssignment:
    """Per-item role plus, for completion items, the held-out tag pair."""

    roles: dict                      # item_id -> role
    heldout: dict = field(default_factory=dict)   # item_id -> frozenset of 2 tag ids
    truth: dict = field(default_factory=dict)     # item_id -> ground-truth tag ids (eval roles)
    known: dict = field(default_factory=dict)     # item_id -> visible tag ids (completion roles)

    def __post_init__(self):
        for item_id, role in self.roles.items():
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r} for item {item_id!r}")
        for item_id, held in self.heldout.items():
            known = self.known.get(item_id, frozenset())
            if held & known:
                raise ValueError(f"held-out and known tags overlap for item {item_id!r}")


def mask_completion_tags(tag_set, rng):
    """Uniformly hold out two tags; the rest stay known.

    ``rng`` may be a seed or a Generator.  At least three tags are required
    so a completion item always keeps one visible tag edge.
    """
    tags = sorted(tag_set)
    if len(tags) < 3:
        raise ValueError(f"tag completion needs >= 3 tags, got {len(tags)}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
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
    item_ids = [i for i, _ in dataset.items]
    if n_train + n_val + n_test > len(item_ids):
        raise ValueError(f"split counts {counts} exceed {len(item_ids)} items")
    tag_map = dataset.item_tag_map()

    rng = np.random.default_rng(seed)
    order = [item_ids[j] for j in rng.permutation(len(item_ids))]
    groups = {
        "train": order[:n_train],
        "val": order[n_train:n_train + n_val],
        "test": order[n_train + n_val:n_train + n_val + n_test],
    }

    roles, heldout, truth, known = {}, {}, {}, {}
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
                kn, held = mask_completion_tags(tag_map[item_id], rng)
                heldout[item_id] = held
                known[item_id] = kn
                truth[item_id] = held
            else:
                roles[item_id] = full_role
                if not tag_map[item_id]:
                    raise ValueError(f"item {item_id!r} has no tags; cannot evaluate it")
                truth[item_id] = frozenset(tag_map[item_id])

    return SplitAssignment(roles=roles, heldout=heldout, truth=truth, known=known)


def save_splits(splits, path):
    with open(path, "w", encoding="utf-8") as fh:
        for item_id in splits.roles:
            role = splits.roles[item_id]
            held = ",".join(sorted(splits.heldout.get(item_id, ()))) if role in COMPLETION_ROLES else ""
            fh.write(f"{item_id}\t{role}\t{held}\n" if held else f"{item_id}\t{role}\n")


def load_splits(path, dataset):
    """Rebuild a SplitAssignment from splits.tsv plus the dataset's tag sets."""
    tag_map = dataset.item_tag_map()
    roles, heldout, truth, known = {}, {}, {}, {}
    for lineno, cols in _read_rows(path, 2, 3):
        item_id, role = cols[0], cols[1]
        if item_id not in tag_map:
            raise DataFormatError(f"{os.path.basename(path)}:{lineno}: unknown item '{item_id}'")
        if role not in ROLES:
            raise DataFormatError(f"{os.path.basename(path)}:{lineno}: unknown role '{role}'")
        if item_id in roles:
            raise DataFormatError(f"{os.path.basename(path)}:{lineno}: duplicate item '{item_id}'")
        roles[item_id] = role
        if role in COMPLETION_ROLES:
            if len(cols) != 3 or not cols[2]:
                raise DataFormatError(
                    f"{os.path.basename(path)}:{lineno}: completion role needs held-out tags")
            held = frozenset(cols[2].split(","))
            if len(held) != 2:
                raise DataFormatError(
                    f"{os.path.basename(path)}:{lineno}: exactly two held-out tags required")
            if not held <= tag_map[item_id]:
                raise DataFormatError(
                    f"{os.path.basename(path)}:{lineno}: held-out tags not linked to item")
            heldout[item_id] = held
            known[item_id] = frozenset(tag_map[item_id]) - held
            truth[item_id] = held
        elif role in FULL_ROLES:
            truth[item_id] = frozenset(tag_map[item_id])
    return SplitAssignment(roles=roles, heldout=heldout, truth=truth, known=known)


def dataset_to_graph(dataset, vocab, splits=None, include_known_tags=True):
    """Tokenize and assemble the graph, hiding evaluation items' target tag edges.

    Full-prediction items lose all their tag edges; completion items lose the
    held-out pair (and, with ``include_known_tags=False``, the known ones too,
    which is the degraded condition for measuring how much visible tags help).
    Query edges always stay.
    """
    queries = [vocab.encode(text) for _, text in dataset.queries]
    items = [vocab.encode(text) for _, text in dataset.items]
    tags = [vocab.encode(text) for _, text in dataset.tags]

    qi_edges = [(dataset.query_index[q], dataset.item_index[i], w) for q, i, w in dataset.qi]

    it_edges = []
    for i, t in dataset.it:
        if splits is not None:
            role = splits.roles.get(i)
            if role in FULL_ROLES:
                continue
            if role in COMPLETION_ROLES:
                if t in splits.heldout.get(i, ()):
                    continue
                if not include_known_tags:
                    continue
        it_edges.append((dataset.item_index[i], dataset.tag_index[t]))

    return build_graph(queries, items, tags, qi_edges, it_edges,
                       query_ids=[q for q, _ in dataset.queries],
                       item_ids=[i for i, _ in dataset.items],
                       tag_ids=[t for t, _ in dataset.tags])
