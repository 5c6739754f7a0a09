import itertools

import numpy as np
import pytest

from taggnn import data as dm
from taggnn.data import (DataFormatError, FilterThresholds, RawDataset, load_dataset,
                         load_splits, make_splits, mask_completion_tags,
                         preprocess_filter, save_dataset, save_splits)
from taggnn.graph import UNK_ID, Vocabulary


class TestLoadDataset:
    def test_fixture_counts(self, toy_dataset):
        assert len(toy_dataset.items) == 12
        assert len(toy_dataset.queries) == 8
        assert len(toy_dataset.tags) == 6
        assert len(toy_dataset.qi) == 23
        assert len(toy_dataset.it) == 36

    def test_roundtrip(self, toy_dataset, tmp_path):
        save_dataset(toy_dataset, tmp_path)
        again = load_dataset(tmp_path)
        assert again.items == toy_dataset.items
        assert again.queries == toy_dataset.queries
        assert again.tags == toy_dataset.tags
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

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        self._write(tmp_path, **{"tags.tsv": "# tags\n\nt1\tgamma\n"})
        ds = load_dataset(tmp_path)
        assert ds.tags == [("t1", "gamma")]


def _dataset(items, queries, tags, qi, it):
    return RawDataset(items=items, queries=queries, tags=tags, qi=qi, it=it)


class TestPreprocessFilter:
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
        ds = _dataset(
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
        assert [t for t, _ in out.tags] == ["t1", "t2"]

    def test_rare_words_rewritten_to_unknown_token(self):
        ds = _dataset(
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
        ds = _dataset(
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
        assert vocab.encode("rare") == [UNK_ID]
        assert vocab.encode("common") != [UNK_ID]


class TestMakeSplits:
    def test_deterministic(self, toy_dataset):
        s1 = make_splits(toy_dataset, (6, 2, 2), seed=7)
        s2 = make_splits(toy_dataset, (6, 2, 2), seed=7)
        assert s1.roles == s2.roles and s1.heldout == s2.heldout

    def test_roles_partition_items(self, toy_dataset):
        s = make_splits(toy_dataset, (8, 2, 2), seed=0)
        assert len(s.roles) == 12
        counts = {r: sum(1 for v in s.roles.values() if v == r) for r in dm.ROLES}
        assert counts == {"train": 8, "val_full": 1, "val_comp": 1,
                          "test_full": 1, "test_comp": 1}

    def test_completion_requires_three_tags(self):
        ds = _dataset(items=[(f"i{k}", "w") for k in range(4)], queries=[],
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


class TestMaskCompletionTags:
    def test_three_tags(self):
        known, held = mask_completion_tags({"a", "b", "c"}, 0)
        assert len(held) == 2 and len(known) == 1
        assert held | known == {"a", "b", "c"} and not held & known

    def test_same_seed_identical(self):
        assert mask_completion_tags({"a", "b", "c", "d"}, 42) == \
               mask_completion_tags({"a", "b", "c", "d"}, 42)

    def test_too_few_tags(self):
        with pytest.raises(ValueError, match=">= 3"):
            mask_completion_tags({"a", "b"}, 0)

    def test_two_subsets_drawn_uniformly(self):
        rng = np.random.default_rng(123)
        counts = {frozenset(p): 0 for p in itertools.combinations("abcd", 2)}
        trials = 10_000
        for _ in range(trials):
            _, held = mask_completion_tags({"a", "b", "c", "d"}, rng)
            counts[held] += 1
        for held, n in counts.items():
            assert abs(n / trials - 1 / 6) < 0.02, (held, n)


class TestSplitsRoundtrip:
    def test_save_load_lossless(self, toy_dataset, tmp_path):
        splits = make_splits(toy_dataset, (8, 2, 2), seed=5)
        path = tmp_path / "splits.tsv"
        save_splits(splits, path)
        again = load_splits(path, toy_dataset)
        assert again.roles == splits.roles
        assert again.heldout == splits.heldout
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
        tag_sets = graph.item_tag_sets()
        tag_pos = {t: n for n, t in enumerate(graph.tag_ids)}
        for item_id, role in splits.roles.items():
            idx = dataset.item_index[item_id]
            if role in dm.FULL_ROLES:
                assert tag_sets[idx] == set()
            elif role in dm.COMPLETION_ROLES:
                held = {tag_pos[t] for t in splits.heldout[item_id]}
                known = {tag_pos[t] for t in splits.known[item_id]}
                assert tag_sets[idx] == known and not tag_sets[idx] & held
            else:
                assert tag_sets[idx] == {tag_pos[t] for t in dataset.item_tag_map()[item_id]}

    def test_query_edges_always_retained(self, toy_setup):
        dataset, splits, vocab, graph = toy_setup
        assert len(graph.qi_query) == len({(q, i) for q, i, _ in dataset.qi})

    def test_known_tags_can_be_dropped(self, toy_setup):
        dataset, splits, vocab, graph = toy_setup
        bare = dm.dataset_to_graph(dataset, vocab, splits=splits, include_known_tags=False)
        tag_sets = bare.item_tag_sets()
        for item_id, role in splits.roles.items():
            if role in dm.COMPLETION_ROLES:
                assert tag_sets[dataset.item_index[item_id]] == set()
