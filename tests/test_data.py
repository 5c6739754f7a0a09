import itertools
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taggnn import data as dm
from taggnn.data import (DataFormatError, FilterThresholds, load_dataset,
                         load_splits, make_splits, mask_completion_tags,
                         preprocess_filter, save_dataset, save_splits)
from taggnn.graph import UNK_ID, UNK_TOKEN, Vocabulary

import oracle


def _tuples(ds):
    """A dataset's rows as the five lists of tuples the oracle readers return."""
    return (ds.items, list(zip(ds.query_ids, ds.query_texts)),
            list(zip(ds.tag_ids, ds.tag_texts)), ds.qi, ds.it)


class TestLoadDataset:
    def test_fixture_counts(self, toy_dataset):
        assert len(toy_dataset.items) == 12
        assert len(toy_dataset.query_ids) == 8
        assert len(toy_dataset.tag_ids) == 6
        assert len(toy_dataset.qi) == 23
        assert len(toy_dataset.it) == 36

    def test_roundtrip(self, toy_dataset, tmp_path):
        save_dataset(toy_dataset, tmp_path)
        again = load_dataset(tmp_path)
        assert again.items == toy_dataset.items
        assert (again.query_ids, again.query_texts) == (toy_dataset.query_ids,
                                                        toy_dataset.query_texts)
        assert (again.tag_ids, again.tag_texts) == (toy_dataset.tag_ids, toy_dataset.tag_texts)
        assert again.qi == toy_dataset.qi
        assert again.it == toy_dataset.it

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="missing dataset file"):
            load_dataset(tmp_path)

    def _write(self, tmp_path, **overrides):
        files = {
            "items.tsv": "i1\talpha\n",
            "queries.tsv": "q1\tbeta\n",
            "tags.tsv": "t1\tgamma\n",
            "query_item_edges.tsv": "q1\ti1\t2.0\n",
            "item_tag_edges.tsv": "i1\tt1\n",
        }
        files.update(overrides)
        for name, content in files.items():
            (tmp_path / name).write_text(content, encoding="utf-8")
        return tmp_path

    def test_dangling_edge_names_file_and_line(self, tmp_path):
        self._write(tmp_path, **{"item_tag_edges.tsv": "# header\ni1\tt1\nix\tt1\n"})
        with pytest.raises(DataFormatError, match=r"item_tag_edges\.tsv:3: unknown item 'ix'"):
            load_dataset(tmp_path)

    def test_missing_weight_defaults_to_one(self, tmp_path):
        self._write(tmp_path, **{"query_item_edges.tsv": "q1\ti1\n"})
        ds = load_dataset(tmp_path)
        assert ds.qi == [("q1", "i1", 1.0)]

    def test_bad_weight_rejected(self, tmp_path):
        self._write(tmp_path, **{"query_item_edges.tsv": "q1\ti1\tmany\n"})
        with pytest.raises(DataFormatError, match="bad weight"):
            load_dataset(tmp_path)

    def test_duplicate_entity_id_rejected(self, tmp_path):
        self._write(tmp_path, **{"items.tsv": "i1\talpha\ni1\tbeta\n"})
        with pytest.raises(DataFormatError, match="duplicate ids"):
            load_dataset(tmp_path)

    def test_comma_in_a_tag_id_rejected(self, tmp_path):
        # splits.tsv separates a completion item's held-out tags with a comma
        self._write(tmp_path, **{"tags.tsv": "# tags\nt1\tone\n\nt,game\tgame\nt,2\ttwo\n"})
        with pytest.raises(DataFormatError, match="^tags.tsv:4: tag id 't,game' contains ','$"):
            load_dataset(tmp_path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        self._write(tmp_path, **{"tags.tsv": "# tags\n\nt1\tgamma\n"})
        ds = load_dataset(tmp_path)
        assert (ds.tag_ids, ds.tag_texts) == (["t1"], ["gamma"])


ITEMS, QUERIES, TAGS = ("i0", "i1", "i2", "i3"), ("q0", "q1", "q2"), ("t0", "t1", "t2", "t3")
# mostly valid values, so that many drawn files parse and the rest fail in many ways
GOOD_WEIGHTS = ("1", "0.5", "2.0", "0", "-0.0", "3e2", "1_0", " 2 ", "7")
BAD_WEIGHTS = ("nan", "-1", "1e400", "x", "", "inf")
TEXT = st.text(alphabet="ab #\x0c\u2028", max_size=4)
NOISE = st.sampled_from(("", "# note", "#\tx\ty"))
ONE_IN_FOUR = st.sampled_from((False, False, False, True))
EOL = st.sampled_from(("\n", "\r\n"))


def _ids(pool, unknown):
    return st.sampled_from(pool * 3 + (unknown,))


def _extras(faults):
    """Extra lines at drawn places: comment and blank lines, then one or two of ``faults``."""
    return (st.lists(st.tuples(st.integers(0, 12), NOISE), max_size=3),
            st.lists(st.tuples(st.integers(0, 12), st.sampled_from(faults)),
                     min_size=1, max_size=2))


def _layout(draw, lines, extras, faulty=ONE_IN_FOUR):
    """``lines`` with drawn extra lines, faults only in a ``faulty`` share of
    files, joined by LF or CRLF, with or without a final line break."""
    noise, faults = extras
    for pos, line in draw(noise) + (draw(faults) if draw(faulty) else []):
        lines.insert(min(pos, len(lines)), line)
    eol = draw(EOL)
    return eol.join(lines) + (eol if lines and draw(st.booleans()) else "")


def _file(rows, faults):
    extras = _extras(faults)
    return st.composite(lambda draw: _layout(draw, list(draw(rows)), extras))()


def _entity_file(ids, faults=()):
    rows = st.lists(st.tuples(st.booleans(), TEXT), min_size=len(ids), max_size=len(ids)).map(
        lambda drawn: [i if bare else f"{i}\t{text}" for i, (bare, text) in zip(ids, drawn)])
    return _file(rows, (f"{ids[0]}\tagain", "a\tb\tc") + faults)


QI_ROW = st.builds(lambda q, i, w: f"{q}\t{i}" if w is None else f"{q}\t{i}\t{w}",
                   _ids(QUERIES, "qx"), _ids(ITEMS, "ix"),
                   st.one_of(st.none(), st.sampled_from(GOOD_WEIGHTS * 2 + BAD_WEIGHTS)))
IT_ROW = st.builds(lambda i, t: f"{i}\t{t}", _ids(ITEMS, "ix"), _ids(TAGS, "tx"))

# file name -> contents of a dataset directory
DATASET_FILES = st.fixed_dictionaries({
    "items.tsv": _entity_file(ITEMS),
    "queries.tsv": _entity_file(QUERIES),
    "tags.tsv": _entity_file(TAGS, ("t0,t1\tc", "t,")),
    "query_item_edges.tsv": _file(st.lists(QI_ROW, max_size=6),
                                  (" ", "q0", "q0\ti0\t1\t1", "qx\tix\tx", "q0\tix\t-1")),
    "item_tag_edges.tsv": _file(st.lists(IT_ROW, max_size=10),
                                (" ", "i0", "i0\tt0\tt1", "ix\ttx")),
})
SPLITS_FAULTS = (" ", "i0", "i0\ttrain\t\tx", "ix\tbogus", "i3\tbogus", "i0\ttrain",
                 "i1\ttest_comp", "i1\tval_comp\tt0", "i1\tval_comp\tt0,t0",
                 "i1\ttest_comp\tt0,t1,t2", "i2\ttest_comp\tt0,tx", "i3\ttest_full")
SPLITS_EXTRAS = _extras(SPLITS_FAULTS)


@st.composite
def splits_case(draw):
    """A valid dataset's item-tag links, and a splits.tsv over its items: each
    item at most once, completion roles only with two linked tags held out
    (a fault when they are all the item's tags), plus faults in half of the
    files."""
    it = draw(st.lists(st.tuples(st.sampled_from(ITEMS), st.sampled_from(TAGS)), max_size=12))
    rows = []
    for item in draw(st.permutations(ITEMS))[:draw(st.integers(0, len(ITEMS)))]:
        linked = sorted({t for i, t in it if i == item})
        role = draw(st.sampled_from(dm.ROLES if len(linked) >= 2 else dm.ROLES[:2]))
        if role in dm.COMPLETION_ROLES:
            rows.append(f"{item}\t{role}\t{','.join(draw(st.permutations(linked))[:2])}")
        else:
            rows.append(f"{item}\t{role}")
    return it, _layout(draw, rows, SPLITS_EXTRAS, faulty=st.booleans())


def _write(directory, files):
    for name, content in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(content)


def _outcome(load, *args):
    try:
        return load(*args)
    except DataFormatError as exc:
        return f"DataFormatError: {exc}"


class TestLoaderMatchesPerLineReference:
    """The loaders against the per-line readers in ``oracle``: the same parsed
    contents, or the same ``DataFormatError`` message for the first bad line."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(files=DATASET_FILES)
    def test_load_dataset(self, files):
        with tempfile.TemporaryDirectory() as directory:
            _write(directory, files)
            want = _outcome(oracle.load_dataset, directory)
            got = _outcome(load_dataset, directory)
        if not isinstance(got, str):
            got = _tuples(got)
        assert got == want

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=splits_case())
    def test_load_splits(self, case):
        self._check_splits(*case)

    @pytest.mark.parametrize("fault", SPLITS_FAULTS)
    def test_load_splits_one_fault(self, fault):
        it = [("i0", "t0"), ("i0", "t1"), ("i0", "t2"), ("i1", "t1"), ("i1", "t2"), ("i1", "t3"),
              ("i2", "t3")]
        rows = ["i0\ttest_comp\tt1,t0", "i1\tval_full", "i2\ttrain"]
        for at in (0, len(rows)):
            self._check_splits(it, "\n".join(rows[:at] + [fault] + rows[at:]))

    @staticmethod
    def _check_splits(it, splits):
        with tempfile.TemporaryDirectory() as directory:
            _write(directory, {
                "items.tsv": "\n".join(ITEMS), "queries.tsv": "", "tags.tsv": "\n".join(TAGS),
                "query_item_edges.tsv": "",
                "item_tag_edges.tsv": "".join(f"{i}\t{t}\n" for i, t in it),
                "splits.tsv": splits})
            path = os.path.join(directory, "splits.tsv")
            want = _outcome(oracle.load_splits, path, [(i, "") for i in ITEMS], it)
            got = _outcome(load_splits, path, load_dataset(directory))
        if not isinstance(got, str):
            got = (got.roles, got.truth, got.known)
        assert got == want


@st.composite
def filter_case(draw):
    """A small dataset and thresholds for the degree filter: repeated edge lines,
    isolated nodes, texts holding the unknown token or runs of spaces, and
    thresholds low enough that some cascades take several rounds."""
    word = st.sampled_from(("a", "b", "c", "d", "e", UNK_TOKEN))
    text = st.builds(lambda lead, words, gap: lead + gap.join(words) + lead,
                     st.sampled_from(("", " ")), st.lists(word, max_size=4),
                     st.sampled_from((" ", "  ", "   ")))

    def nodes(prefix):
        return [(f"{prefix}{k}", draw(text)) for k in range(draw(st.integers(0, 6)))]

    items, queries, tags = nodes("i"), nodes("q"), nodes("t")
    qi = draw(st.lists(st.tuples(st.sampled_from([q for q, _ in queries]),
                                 st.sampled_from([i for i, _ in items]),
                                 st.sampled_from((0.0, 1.0, 2.5))),
                       max_size=40)) if queries and items else []
    it = draw(st.lists(st.tuples(st.sampled_from([i for i, _ in items]),
                                 st.sampled_from([t for t, _ in tags])),
                       max_size=40)) if items and tags else []
    # repeat some lines outright, at drawn places
    for edges in (qi, it):
        for pos, line in draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 23)),
                                       max_size=4)):
            if edges:
                edges.insert(pos, edges[line % len(edges)])
    degree = st.sampled_from((0, 0, 0, 1, 1, 1, 2, 2, 3, 4))
    thresholds = FilterThresholds(item_query=draw(degree), query_item=draw(degree),
                                  item_tag=draw(degree), tag_item=draw(degree),
                                  min_count=draw(st.integers(1, 4)))
    return oracle.dataset_from_rows(items, queries, tags, qi, it), thresholds


def _filtered(preprocess, dataset, thresholds):
    try:
        out = preprocess(dataset, thresholds)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return _tuples(out)


class TestPreprocessFilter:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case=filter_case())
    def test_matches_set_reference(self, case):
        assert _filtered(preprocess_filter, *case) == _filtered(oracle.preprocess_filter, *case)

    def test_satisfying_dataset_is_fixed_point(self, toy_dataset):
        th = FilterThresholds(item_query=1, query_item=1, item_tag=1, tag_item=1,
                              min_count=1)
        out = preprocess_filter(toy_dataset, th)
        assert out.items == toy_dataset.items
        assert out.qi == toy_dataset.qi
        assert out.it == toy_dataset.it

    def test_cascade_removal(self):
        # the weak item falls below item_tag >= 2; its only tag then loses
        # its only item and cascades away
        ds = oracle.dataset_from_rows(
            items=[("strong", "a"), ("weak", "b")],
            queries=[("q", "c")],
            tags=[("t1", "d"), ("t2", "e"), ("lonely", "f")],
            qi=[("q", "strong", 1.0), ("q", "weak", 1.0)],
            it=[("strong", "t1"), ("strong", "t2"), ("weak", "lonely")],
        )
        th = FilterThresholds(item_query=1, query_item=1, item_tag=2, tag_item=1,
                              min_count=1)
        out = preprocess_filter(ds, th)
        assert [i for i, _ in out.items] == ["strong"]
        assert out.tag_ids == ["t1", "t2"]

    def test_rare_words_rewritten_to_unknown_token(self):
        ds = oracle.dataset_from_rows(
            items=[("i1", "common rare common"), ("i2", "common common")],
            queries=[("q", "common")],
            tags=[("t", "common")],
            qi=[("q", "i1", 1.0), ("q", "i2", 1.0)],
            it=[("i1", "t"), ("i2", "t")],
        )
        th = FilterThresholds(item_query=1, query_item=1, item_tag=1, tag_item=1,
                              min_count=5)
        out = preprocess_filter(ds, th)
        assert out.items[0][1] == "common <unk> common"  # "rare" appears once
        assert out.items[1][1] == "common common"        # "common" appears 6 times

    def test_rerun_is_identity(self):
        # a stable core plus a fringe that the filter strips in one pass
        core_items = [(f"c{k}", "w") for k in range(4)]
        ds = oracle.dataset_from_rows(
            items=core_items + [("w0", "w")],
            queries=[("Q1", "x"), ("Q2", "x"), ("Q3", "x")],
            tags=[("T1", "y"), ("T2", "y"), ("T3", "y"), ("T4", "y")],
            qi=[(q, i, 1.0) for q in ("Q1", "Q2") for i, _ in core_items] + [("Q3", "w0", 1.0)],
            it=[(i, t) for i, _ in core_items for t in ("T1", "T2", "T3")] + [("w0", "T4")],
        )
        th = FilterThresholds(item_query=2, query_item=2, item_tag=3, tag_item=3,
                              min_count=1)
        once = preprocess_filter(ds, th)
        assert [i for i, _ in once.items] == [f"c{k}" for k in range(4)]
        twice = preprocess_filter(once, th)
        assert once.items == twice.items and once.qi == twice.qi and once.it == twice.it

    def test_everything_removed_raises(self, toy_dataset):
        with pytest.raises(ValueError, match="every item"):
            preprocess_filter(toy_dataset, FilterThresholds())  # defaults far too strict here

    def test_rare_word_maps_to_unk(self):
        vocab = Vocabulary.from_texts(["rare common common common"], min_count=3)
        rare, common = oracle.token_lists(vocab.encode_texts(["rare", "common"]))
        assert rare == [UNK_ID] and common != [UNK_ID]


class TestMakeSplits:
    def test_deterministic(self, toy_dataset):
        s1 = make_splits(toy_dataset, (6, 2, 2), seed=7)
        s2 = make_splits(toy_dataset, (6, 2, 2), seed=7)
        assert (s1.roles, s1.truth, s1.known) == (s2.roles, s2.truth, s2.known)

    def test_roles_partition_items(self, toy_dataset):
        s = make_splits(toy_dataset, (8, 2, 2), seed=0)
        assert len(s.roles) == 12
        counts = {r: sum(1 for v in s.roles.values() if v == r) for r in dm.ROLES}
        assert counts == {"train": 8, "val_full": 1, "val_comp": 1,
                          "test_full": 1, "test_comp": 1}

    def test_completion_requires_three_tags(self):
        ds = oracle.dataset_from_rows(items=[(f"i{k}", "w") for k in range(4)], queries=[],
                                      tags=[("t1", "x"), ("t2", "y")], qi=[],
                                      it=[(f"i{k}", t) for k in range(4) for t in ("t1", "t2")])
        with pytest.raises(ValueError, match="completion-eligible"):
            make_splits(ds, (2, 2, 0), seed=0)

    def test_pure_validation_dataset(self, toy_dataset):
        s = make_splits(toy_dataset, (0, 12, 0), seed=1)
        assert all(r.startswith("val") for r in s.roles.values())

    def test_counts_exceeding_items_rejected(self, toy_dataset):
        with pytest.raises(ValueError, match="exceed"):
            make_splits(toy_dataset, (10, 5, 5), seed=0)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_repeated_tag_line_changes_nothing(self, toydata_dir, tmp_path, seed):
        # a tag edge written twice is one link: eligibility and the held-out
        # draw see each item's distinct tags
        want = make_splits(load_dataset(toydata_dir), (4, 4, 4), seed=seed)
        with open(os.path.join(toydata_dir, "item_tag_edges.tsv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        for n, line in enumerate(lines):
            shutil.copytree(toydata_dir, tmp_path / str(n))
            (tmp_path / str(n) / "item_tag_edges.tsv").write_text(
                "".join(lines[:n + 1] + [line] + lines[n + 1:]), encoding="utf-8")
            got = make_splits(load_dataset(tmp_path / str(n)), (4, 4, 4), seed=seed)
            assert (got.roles, got.truth, got.known) == (want.roles, want.truth, want.known), line

    @pytest.mark.parametrize("counts, name", [((10, -4, 2), "val=-4"), ((-1, 2, 2), "train=-1"),
                                              ((4, 2, -2), "test=-2")])
    def test_negative_count_rejected(self, toy_dataset, counts, name):
        # (10, -4, 2) sums to 8 of 12 items, but would overlap the test and train slices
        with pytest.raises(ValueError, match=f"split count {name} is negative"):
            make_splits(toy_dataset, counts, seed=0)


class TestMaskCompletionTags:
    def test_three_tags(self):
        known, held = mask_completion_tags({"a", "b", "c"}, np.random.default_rng(0))
        assert len(held) == 2 and len(known) == 1
        assert held | known == {"a", "b", "c"} and not held & known

    def test_same_seed_identical(self):
        assert mask_completion_tags({"a", "b", "c", "d"}, np.random.default_rng(42)) == \
               mask_completion_tags({"a", "b", "c", "d"}, np.random.default_rng(42))

    def test_too_few_tags(self):
        with pytest.raises(ValueError, match=">= 3"):
            mask_completion_tags({"a", "b"}, np.random.default_rng(0))

    def test_two_subsets_drawn_uniformly(self):
        rng = np.random.default_rng(123)
        counts = {frozenset(p): 0 for p in itertools.combinations("abcd", 2)}
        trials = 10_000
        for _ in range(trials):
            _, held = mask_completion_tags({"a", "b", "c", "d"}, rng)
            counts[held] += 1
        for held, n in counts.items():
            assert abs(n / trials - 1 / 6) < 0.02, (held, n)


class TestSplitAssignment:
    @pytest.mark.parametrize("fields, message", [
        ({"roles": {"i": "bogus"}}, "unknown role 'bogus' for item 'i'"),
        ({"roles": {"i": "test_comp"}, "truth": {"i": frozenset("ab")},
          "known": {"i": frozenset("bc")}}, "held-out and known tags overlap for item 'i'"),
        ({"roles": {"i": "test_comp"}, "known": {"i": frozenset("c")}},
         "completion item 'i' has no held-out tags"),
    ])
    def test_inconsistent_assignment_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dm.SplitAssignment(**fields)


class TestSplitsRoundtrip:
    def test_save_load_lossless(self, toy_dataset, tmp_path):
        splits = make_splits(toy_dataset, (8, 2, 2), seed=5)
        path = tmp_path / "splits.tsv"
        save_splits(splits, path)
        again = load_splits(path, toy_dataset)
        assert again.roles == splits.roles
        assert again.truth == splits.truth
        assert again.known == splits.known

    def test_heldout_must_link_to_item(self, toy_dataset, tmp_path):
        path = tmp_path / "splits.tsv"
        path.write_text("i01\ttest_comp\tt_news,t_video\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="not linked"):
            load_splits(path, toy_dataset)


class TestGraphMasking:
    def test_eval_edges_hidden(self, toy_setup):
        dataset, splits, vocab, graph = toy_setup
        tag_pos = {t: n for n, t in enumerate(graph.tag_ids)}
        for item_id, role in splits.roles.items():
            idx = dataset.item_index[item_id]
            visible = set(graph.item_tags(idx).tolist())
            if role in dm.FULL_ROLES:
                assert visible == set()
            elif role in dm.COMPLETION_ROLES:
                held = {tag_pos[t] for t in splits.truth[item_id]}
                known = {tag_pos[t] for t in splits.known[item_id]}
                assert visible == known and not visible & held
            else:
                assert visible == set(dataset.it_tag[dataset.it_item == idx].tolist())

    def test_query_edges_always_retained(self, toy_setup):
        dataset, splits, vocab, graph = toy_setup
        assert len(graph.qi_query) == len({(q, i) for q, i, _ in dataset.qi})
