"""The synthetic generators against recorded digests of what they built.

``tests/golden/synthetic_datasets.json`` holds, for each generator at its
defaults, the sha256 of ``repr`` of the dataset's rows as five lists of tuples
(items, queries, tags, query-item and item-tag edges) and of its split
(roles, held-out pairs, truth and known tags, frozensets as sorted lists, so
the digest does not depend on string hashing), and for ``gradcheck_instance``
the digests of its graph's edge arrays and of its token patterns' rows as
lists.  Run this file as a script to print the digests.
"""

import hashlib
import json
import os

from taggnn import synthetic

import oracle

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "synthetic_datasets.json")
GENERATORS = ("overfit_dataset", "cold_start_dataset", "query_signal_dataset",
              "clustered_tags_dataset")


def _sha(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _sorted_sets(mapping):
    return {k: sorted(v) for k, v in mapping.items()}


def digests():
    out = {}
    for name in GENERATORS:
        ds, splits = getattr(synthetic, name)()
        out[name] = {
            "dataset": _sha((ds.items, list(zip(ds.query_ids, ds.query_texts)),
                             list(zip(ds.tag_ids, ds.tag_texts)), ds.qi, ds.it)),
            # the held-out pairs, recorded as their own dict: each completion item's truth
            "splits": _sha((splits.roles, {i: sorted(splits.truth[i]) for i in splits.known},
                            _sorted_sets(splits.truth), _sorted_sets(splits.known))),
        }
    graph = synthetic.gradcheck_instance()[0]
    out["gradcheck_instance"] = {
        "edges": hashlib.sha256(b"".join(
            a.tobytes() for a in (graph.qi_query, graph.qi_item, graph.qi_weight,
                                  graph.it_item, graph.it_tag))).hexdigest(),
        "tokens": _sha(tuple(oracle.token_lists(p) for p in (graph.query_tokens, graph.item_tokens,
                                                              graph.tag_tokens))),
    }
    return out


def test_generators_match_recorded_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        assert digests() == json.load(fh)


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))
