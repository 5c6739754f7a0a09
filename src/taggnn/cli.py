"""Command-line interface: preprocess, split, train, eval, predict, gradcheck, ablate.

Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

import argparse
import json
import os
import sys

from . import data as data_mod
from . import evaluation, serialization, synthetic
from .autodiff import NumericalError, finite_difference_check
from .data import DataFormatError, FilterThresholds
from .training import TrainConfig, combined_loss, train

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is usage text + exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _counts(text):
    """The ``--counts`` value of ``split`` and ``train``: three integers ``train,val,test``."""
    try:
        counts = tuple(int(c) for c in text.split(","))
    except ValueError:
        counts = ()
    if len(counts) != 3:
        raise argparse.ArgumentTypeError(f"must be train,val,test (three integers), got {text!r}")
    return counts


def _ks(text):
    """The ``--k`` value of ``eval`` and ``ablate``: comma-separated positive integers."""
    try:
        ks = tuple(int(k) for k in text.split(","))
    except ValueError:
        ks = ()
    if not ks or min(ks) <= 0:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated positive integers, got {text!r}")
    return ks


def _load_config(path):
    if path is None:
        return TrainConfig()
    with open(path, encoding="utf-8") as fh:
        return TrainConfig.from_dict(json.load(fh))


def cmd_preprocess(args):
    dataset = data_mod.load_dataset(args.data)
    th = FilterThresholds(item_query=args.item_query, query_item=args.query_item,
                          item_tag=args.item_tag, tag_item=args.tag_item,
                          min_count=args.min_count)
    filtered = data_mod.preprocess_filter(dataset, th)
    data_mod.save_dataset(filtered, args.out)
    print(f"kept {len(filtered.item_ids)} items, {len(filtered.query_ids)} queries, "
          f"{len(filtered.tag_ids)} tags -> {args.out}")
    return 0


def cmd_split(args):
    dataset = data_mod.load_dataset(args.data)
    splits = data_mod.make_splits(dataset, args.counts, args.seed)
    data_mod.save_splits(splits, args.out)
    print(f"wrote {args.out}")
    return 0


def _training_inputs(args):
    """Config, splits, vocabulary and masked graph for ``train`` and ``ablate``."""
    config = _load_config(args.config)
    dataset = data_mod.load_dataset(args.data)
    if args.splits:
        splits = data_mod.load_splits(args.splits, dataset)
    elif "counts" not in args:              # ablate takes no --counts
        raise DataFormatError("--splits must name a splits file")
    elif args.counts:
        splits = data_mod.make_splits(dataset, args.counts, config.seed)
    else:
        raise DataFormatError("provide --splits or --counts to derive a split")
    vocab = data_mod.build_vocabulary(dataset, min_count=args.min_count)
    return config, splits, vocab, data_mod.dataset_to_graph(dataset, vocab, splits=splits)


def cmd_train(args):
    config, splits, vocab, graph = _training_inputs(args)

    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log_stream:
        result = train(graph, splits, config, n_words=len(vocab), log_stream=log_stream)
    meta = {"config_hash": config.sha256(), "seed": config.seed,
            "epochs_trained": result.epochs_trained, "best_epoch": result.best_epoch}
    serialization.save_model(result.model, vocab, args.out, graph.tag_ids, meta=meta)
    data_mod.save_splits(splits, os.path.join(args.out, "splits.tsv"))
    with open(os.path.join(args.out, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    best = f"{result.best_val_p1:.4f}" if result.best_val_p1 is not None else "n/a"
    print(f"trained {result.epochs_trained} epochs (best epoch {result.best_epoch}, "
          f"val P@1 {best}); model saved to {args.out}")
    return 0


def _rebuild_for_eval(model_dir, data_dir, splits_path=None):
    model, vocab, manifest = serialization.load_model(model_dir)
    dataset = data_mod.load_dataset(data_dir)
    if dataset.tag_ids != manifest["tags"]:
        raise DataFormatError("dataset tag list does not match the trained model")
    splits_path = splits_path or os.path.join(model_dir, "splits.tsv")
    splits = data_mod.load_splits(splits_path, dataset)
    graph = data_mod.dataset_to_graph(dataset, vocab, splits=splits)
    return model, vocab, manifest, dataset, splits, graph


def cmd_eval(args):
    model, _, manifest, _, splits, graph = _rebuild_for_eval(args.model, args.data, args.splits)
    report = evaluation.evaluate(model, graph, splits, ks=args.k, subset=args.subset,
                                 meta=manifest["meta"])
    payload = evaluation.report_to_json(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload)
    sys.stdout.write(payload)
    return 0


def cmd_predict(args):
    model, vocab, manifest, dataset, splits, graph = _rebuild_for_eval(
        args.model, args.data, args.splits)
    if args.item_id not in dataset.item_index:
        raise DataFormatError(f"unknown item id {args.item_id!r}")
    index = dataset.item_index[args.item_id]
    predictor = evaluation.Predictor(model, graph, items=[index])
    ranked = predictor.topk(index, args.k, exclude=graph.item_tags(index))
    for t in ranked:
        print(graph.tag_ids[t])
    return 0


def cmd_gradcheck(args):
    graph, model, item_idx, labels = synthetic.gradcheck_instance()
    params = model.parameters()

    def loss_fn():
        total, _, _ = combined_loss(graph, model, item_idx, labels)
        return total

    err = finite_difference_check(loss_fn, params, eps=args.eps)
    print(f"max relative gradient error: {err:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if err < GRADCHECK_TOLERANCE else 2


def cmd_ablate(args):
    config, splits, vocab, graph = _training_inputs(args)

    def run(name, **overrides):
        cfg = TrainConfig.from_dict({**config.to_dict(), **overrides})
        result = train(graph, splits, cfg, n_words=len(vocab))
        report = evaluation.evaluate(result.model, graph, splits, ks=args.k, subset=args.subset,
                                     meta={"config_hash": cfg.sha256(), "seed": cfg.seed,
                                           "epochs_trained": result.epochs_trained})
        print(f"{name}: without_tags p@1="
              f"{report['without_tags']['p@1']} partial_tags p@1={report['partial_tags']['p@1']}")
        return {"name": name, "overrides": overrides, "report": report}

    rows = [
        run("base"),
        run("no_dual", gamma=0.0),
        run("no_dual_no_tag_names", gamma=0.0, use_tag_names=False),
        run("homogeneous", heterogeneous=False),
    ]
    layer_rows = [run(f"layers_{n}", n_layers=n) for n in (1, 2, 3, 4)]
    payload = json.dumps({"variants": rows, "layer_sweep": layer_rows},
                         indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def build_parser():
    parser = _Parser(prog="taggnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="apply degree filters to a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--item-query", type=int, default=20, dest="item_query")
    p.add_argument("--query-item", type=int, default=20, dest="query_item")
    p.add_argument("--item-tag", type=int, default=5, dest="item_tag")
    p.add_argument("--tag-item", type=int, default=15, dest="tag_item")
    p.add_argument("--min-count", type=int, default=5, dest="min_count")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("split", help="write a random train/val/test split")
    p.add_argument("--data", required=True)
    p.add_argument("--counts", required=True, type=_counts, help="train,val,test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model and save the model directory")
    p.add_argument("--config", help="JSON file mirroring TrainConfig")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--splits", help="existing splits.tsv (else derived from --counts)")
    p.add_argument("--counts", type=_counts, help="train,val,test if no --splits given")
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="Precision@K report for a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--splits")
    p.add_argument("--k", default="1,3,5", type=_ks)
    p.add_argument("--subset", default="test", choices=("test", "val"))
    p.add_argument("--report", help="write the JSON report here as well as stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="top-K tags for one item")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--splits")
    p.add_argument("--item-id", required=True, dest="item_id")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check on the tiny fixed instance")
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="dual-loss / tag-name / homogeneity / layer-count grid")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--k", default="1,3,5", type=_ks)
    p.add_argument("--subset", default="test", choices=("test", "val"))
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    return parser


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    # OSError: a bad path; MemoryError: a config or input whose arrays do not fit
    except (DataFormatError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (NumericalError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


def main(argv=None):
    raise SystemExit(cli_main(argv))


if __name__ == "__main__":
    main()
