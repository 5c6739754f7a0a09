"""In-memory spans around the public functions of each taggnn layer.

The tracer patches module attributes and class methods from the outside,
where the callers look them up, and restores them on :meth:`Tracer.uninstall`.
Nothing in the program is changed.  A span records its name, start, end,
parent span and the operation (set-up, epoch or command) it belongs to.
"""

import json
import time
import weakref
from collections import Counter, defaultdict

AUTODIFF_OPS = ("matmul", "gather_rows", "scatter_add_rows", "concat", "mul", "add",
                "segment_softmax", "sigmoid", "relu", "leaky_relu", "where_rows",
                "bce_with_logits", "dropout")

# spans timed per call (once per set-up or command) rather than per operation
PER_CALL = ("data.load_dataset", "data.load_splits", "data.make_splits",
            "data.build_vocabulary", "data.dataset_to_graph", "graph.build_graph",
            "graph.standardize_weights", "serialization.save_model",
            "serialization.load_model")

# spans timed per operation (epoch or command) of the measured loop
PER_OP = ("autodiff.backward", "autodiff.adam_step", "model.forward",
          "model.initial_representations", "model.propagate_layer", "training.combined_loss",
          "training.val_eval", "training.label_matrix", "evaluation.predictor_init",
          "evaluation.topk", "evaluation.evaluate")

SPARSE_OPS = ("gather_rows", "scatter_add_rows", "concat", "mul")


class _Proxy:
    """A module stand-in whose named attributes are overridden."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, op index]
        self.ops = []         # op index -> kind ("setup", "epoch", "eval", "predict")
        self.pack_hits = 0
        self.out_bytes = Counter()
        self._stack = []
        self._undo = []
        self._packed = {}

    # -- recording ---------------------------------------------------------

    def start_op(self, kind):
        self.ops.append(kind)

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, len(self.ops) - 1])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def _wrap_op(self, op, fn):
        fwd, bwd = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"

        def traced(*args, **kwargs):
            index = self.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            if any(out is a for a in args):   # dropout(p=0) hands back its input
                return out
            self.out_bytes[op, len(self.ops) - 1] += out.data.nbytes
            back = out._backward
            if back is not None:
                def timed_back(g):
                    j = self.begin(bwd)
                    try:
                        back(g)
                    finally:
                        self.end(j)
                out._backward = timed_back
            return out
        return traced

    def _wrap_pack_edges(self, fn):
        traced = self.wrap("model.pack_edges", fn)

        def counted(graph, kind):
            out = traced(graph, kind)
            key = (id(graph), kind)
            prev = self._packed.get(key)
            if prev is not None and prev[0]() is graph and prev[1] is out:
                self.pack_hits += 1
            self._packed[key] = (weakref.ref(graph), out)
            return out
        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        from taggnn import autodiff, data, evaluation, graph, model, serialization, training

        for op in AUTODIFF_OPS:
            self._patch(autodiff, op, self._wrap_op(op, getattr(autodiff, op)))
        self._patch(autodiff, "backward", self.wrap("autodiff.backward", autodiff.backward))
        self._patch(autodiff.Adam, "step", self.wrap("autodiff.adam_step", autodiff.Adam.step))

        cls = model.TagGNNModel
        self._patch(cls, "forward", self.wrap("model.forward", cls.forward))
        self._patch(cls, "initial_representations",
                    self.wrap("model.initial_representations", cls.initial_representations))
        self._patch(model, "propagate_layer",
                    self.wrap("model.propagate_layer", model.propagate_layer))
        self._patch(model, "pack_edges", self._wrap_pack_edges(model.pack_edges))

        self._patch(training, "combined_loss",
                    self.wrap("training.combined_loss", training.combined_loss))
        self._patch(training, "label_matrix",
                    self.wrap("training.label_matrix", training.label_matrix))
        # training reaches validation through its own `evaluation` name
        self._patch(training, "evaluation", _Proxy(evaluation, subset_precision=self.wrap(
            "training.val_eval", evaluation.subset_precision)))

        pred = evaluation.Predictor
        self._patch(pred, "__init__", self.wrap("evaluation.predictor_init", pred.__init__))
        self._patch(pred, "topk", self.wrap("evaluation.topk", pred.topk))
        self._patch(evaluation, "evaluate", self.wrap("evaluation.evaluate", evaluation.evaluate))

        for name in ("load_dataset", "load_splits", "make_splits", "build_vocabulary",
                     "dataset_to_graph"):
            self._patch(data, name, self.wrap(f"data.{name}", getattr(data, name)))
        # data imports build_graph by name, so patch it where data looks it up
        self._patch(data, "build_graph", self.wrap("graph.build_graph", data.build_graph))
        tg = graph.TripartiteGraph
        self._patch(tg, "standardize_weights",
                    self.wrap("graph.standardize_weights", tg.standardize_weights))

        for name in ("save_model", "load_model"):
            self._patch(serialization, name,
                        self.wrap(f"serialization.{name}", getattr(serialization, name)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Seconds per span: its duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, loop_kinds, params_mb):
        """Per-layer metrics: per operation of ``loop_kinds``, or per call (``PER_CALL``)."""
        n_ops = sum(1 for k in self.ops if k in loop_kinds) or 1
        total = defaultdict(float)
        calls = Counter()
        call_total = defaultdict(float)
        call_count = Counter()
        out_bytes = Counter()
        for name, start, end, _, op in self.spans:
            call_total[name] += end - start
            call_count[name] += 1
            if op >= 0 and self.ops[op] in loop_kinds:
                total[name] += end - start
                calls[name] += 1
        metrics = {}
        for op in AUTODIFF_OPS:
            base = f"autodiff.{op}"
            metrics[f"{base}.fwd_s"] = (total[base + ".fwd"] / n_ops, "s")
            metrics[f"{base}.bwd_s"] = (total[base + ".bwd"] / n_ops, "s")
            metrics[f"{base}.calls"] = (calls[base + ".fwd"] / n_ops, "count")
        for name in PER_OP:
            metrics[f"{name}_s"] = (total[name] / n_ops, "s")
        metrics["model.propagate_layer.calls"] = (calls["model.propagate_layer"] / n_ops, "count")
        metrics["model.pack_edges.calls"] = (calls["model.pack_edges"] / n_ops, "count")
        pack_calls = call_count["model.pack_edges"]
        metrics["model.pack_edges.hit_ratio"] = (
            self.pack_hits / pack_calls if pack_calls else 0.0, "ratio")
        metrics["evaluation.topk.calls"] = (calls["evaluation.topk"] / n_ops, "count")
        for name in PER_CALL:
            n = call_count[name]
            metrics[f"{name}_s"] = (call_total[name] / n if n else 0.0, "s")
        metrics["serialization.params_mb"] = (params_mb, "MB")
        for (op, index), nbytes in self.out_bytes.items():
            if index >= 0 and self.ops[index] in loop_kinds:
                out_bytes[op] += nbytes
        for op in AUTODIFF_OPS:
            metrics[f"autodiff.{op}.out_mb"] = (out_bytes[op] / n_ops / 1e6, "MB")
        return metrics

    def shares(self, loop_kinds, roots):
        """Self-time share of each span name over the loop's root spans."""
        selfs = self.self_times()
        by_name = defaultdict(float)
        wall = 0.0
        for span, s in zip(self.spans, selfs):
            name, start, end, _, op = span
            if op < 0 or self.ops[op] not in loop_kinds:
                continue
            by_name[name] += s
            if name in roots:
                wall += end - start
        return {k: v / wall for k, v in by_name.items()} if wall else {}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "op_kind": self.ops[op] if op >= 0 else None}) + "\n")
