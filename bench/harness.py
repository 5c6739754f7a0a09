"""Set-up, timed loop, correctness gates and metrics for one benchmark workload.

Every call into the program goes through its public API: ``data`` loaders
and splits, ``training.train``, ``serialization.save_model`` and
``cli.cli_main``.  Timings use the benchmark's own clock.  References live
in ``references/<workload>.json`` and are recorded by ``run.py --record``.
"""

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata

import numpy as np
from taggnn import cli, data, serialization, training  # run.py puts src/ on the path
from taggnn.model import TagGNNModel

import workloads
from tracer import AUTODIFF_OPS, SPARSE_OPS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "references")
INSTANCES = 16          # input instances per workload; --seed picks seed % INSTANCES
SETUP_SECONDS = 1.0     # set-ups before each step: at least one, more while under this
PREDICT_POOL = 6        # distinct items the predict requests cycle through
CAL_REF_S = {"python": 0.02, "numpy": 0.1}   # kernel seconds timings are scaled to
RTOL = 1e-9             # the repository's golden-log tolerance; never loosen

_clock = time.perf_counter


class _EpochClock:
    """Log stream for ``training.train``: stamps the end of every epoch."""

    def __init__(self, epochs, tracer=None):
        self.stamps = []
        self.epochs = epochs
        self.tracer = tracer

    def write(self, _line):
        self.stamps.append(_clock())
        if self.tracer is not None:
            self.tracer.start_op("epoch" if len(self.stamps) < self.epochs else "train_end")


class TrainBench:
    """A training workload: one step is one ``training.train`` call of E epochs.

    Epoch 0 of each call also pays for the call's model init, label matrix
    and optimizer set-up, so it is checked like every epoch but timed apart
    (kind ``epoch0``) and left out of the per-epoch figures.
    """

    loop_kinds = ("epoch",)
    roots = ("training.train",)

    def __init__(self, workload, instance, data_dir, work_dir):
        self.w, self.instance, self.data_dir = workload, instance, data_dir
        self.config = training.TrainConfig.from_dict(workload.config_dict(instance))
        self.ops_per_step = self.config.max_epochs

    def setup(self):
        ds = data.load_dataset(self.data_dir)
        self.splits = data.make_splits(ds, self.w.split, self.instance)
        self.vocab = data.build_vocabulary(ds, min_count=1)
        self.graph = data.dataset_to_graph(ds, self.vocab, splits=self.splits)
        cfg = self.config   # the same init training.train makes; timed here as set-up
        TagGNNModel.init(len(self.vocab), self.graph.n_tags, cfg.dim, cfg.model_variant(),
                         gamma=cfg.gamma, rng=np.random.default_rng([cfg.seed, 0]))

    def step(self, tracer=None):
        """Returns (kind, seconds, key, output) for each epoch of one call."""
        clock = _EpochClock(self.config.max_epochs, tracer)
        if tracer is not None:
            tracer.start_op("epoch")
            span = tracer.begin("training.train")
        started = _clock()
        try:
            result = training.train(self.graph, self.splits, self.config,
                                    n_words=len(self.vocab), log_stream=clock)
        finally:
            if tracer is not None:
                tracer.end(span)
        self.params_mb = sum(p.data.nbytes for p in result.model.parameters()) / 1e6
        ends = [started] + clock.stamps
        outputs = [[r["loss"], r["l1"], r["l2"], r["val_p1"]] for r in result.log]
        outputs[-1].append(result.best_val_p1)
        return [("epoch" if i else "epoch0", b - a, f"epoch {i}", out)
                for i, (a, b, out) in enumerate(zip(ends, ends[1:], outputs))]

    def record(self):
        return {key: out for _, _, key, out in self.step()}

    @staticmethod
    def matches(key, output, ref):
        want = ref.get(key)
        return want is not None and len(output) == len(want) and all(
            (g is None and e is None) or
            (g is not None and e is not None and bool(np.isclose(g, e, rtol=RTOL, atol=0)))
            for g, e in zip(output, want))


class ServeBench:
    """The serving workload: one step is an ``eval`` command then a ``predict`` command."""

    loop_kinds = ("eval", "predict")
    roots = ("cli.eval", "cli.predict")

    def __init__(self, workload, instance, data_dir, work_dir):
        self.w, self.instance, self.data_dir = workload, instance, data_dir
        self.model_dir = os.path.join(work_dir, "model")
        self.config = training.TrainConfig.from_dict(workload.config_dict(instance))
        rng = np.random.default_rng([instance, 2])
        picks = rng.choice(workload.n_items, size=PREDICT_POOL, replace=False)
        self.pool = [f"i{int(n)}" for n in picks]
        self.rounds = 0
        self.ops_per_step = 2

    def setup(self):
        ds = data.load_dataset(self.data_dir)
        splits = data.make_splits(ds, self.w.split, self.instance)
        vocab = data.build_vocabulary(ds, min_count=1)
        graph = data.dataset_to_graph(ds, vocab, splits=splits)
        cfg = self.config
        model = TagGNNModel.init(len(vocab), graph.n_tags, cfg.dim, cfg.model_variant(),
                                 gamma=cfg.gamma, rng=np.random.default_rng([cfg.seed, 0]))
        serialization.save_model(model, vocab, self.model_dir, graph.tag_ids,
                                 meta={"seed": cfg.seed, "workload": self.w.name})
        data.save_splits(splits, os.path.join(self.model_dir, "splits.tsv"))
        self.params_mb = sum(p.data.nbytes for p in model.parameters()) / 1e6

    def _command(self, argv, tracer):
        buf, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.start_op(argv[0])
            span = tracer.begin(f"cli.{argv[0]}")
        started = _clock()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.cli_main(argv)
        finally:
            if tracer is not None:
                tracer.end(span)
        seconds = _clock() - started
        if code != 0:
            raise RuntimeError(f"taggnn {argv[0]} exited {code}: {err.getvalue().strip()}")
        return seconds, buf.getvalue()

    def eval(self, tracer=None):
        return self._command(["eval", "--model", self.model_dir, "--data", self.data_dir],
                             tracer)

    def predict(self, item, tracer=None):
        return self._command(["predict", "--model", self.model_dir, "--data", self.data_dir,
                              "--item-id", item], tracer)

    def step(self, tracer=None):
        item = self.pool[self.rounds % len(self.pool)]
        self.rounds += 1
        s_eval, out_eval = self.eval(tracer)
        s_pred, out_pred = self.predict(item, tracer)
        return [("eval", s_eval, "eval", out_eval),
                ("predict", s_pred, f"predict {item}", out_pred)]

    def record(self):
        ref = {"eval": self.eval()[1]}
        for item in self.pool:
            ref[f"predict {item}"] = self.predict(item)[1]
        return ref

    @staticmethod
    def matches(key, output, ref):
        return ref.get(key) == output


def make_bench(workload, instance, data_dir, work_dir):
    cls = TrainBench if workload.kind == "train" else ServeBench
    return cls(workload, instance, data_dir, work_dir)


class Calibration:
    """Two fixed kernels, timed once per operation, that track the machine's speed.

    On a shared host every process speeds up and slows down together, by
    20-40% over tens of seconds.  The kernels do the program's kinds of work
    without calling it: ``python`` parses TSV lines as a set-up does, and
    ``numpy`` does a row gather, a scatter-add, a BLAS matmul and a
    transcendental ufunc on fresh large arrays, as an epoch or a command
    does.  Dividing set-up times by the first kernel's median time in the
    same run, and operation times by the second's, cancels most of that
    drift, while a change to the program still shows in full.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((20000, 64))
        self.rows = rng.integers(0, len(self.x), 60000)
        self.a = rng.standard_normal((1600, 64))
        self.b = rng.standard_normal((64, 2000))
        self.tsv = "\n".join(f"q{i}\ti{i * 7 % 5000}\t{i % 20 + 1}.0" for i in range(30000))

    def __call__(self):
        started = _clock()
        edges = {}
        for line in self.tsv.split("\n"):
            query, item, weight = line.split("\t")
            edges[query + item] = float(weight)
        parsed = _clock()
        gathered = self.x[self.rows]
        summed = np.zeros_like(self.x)
        np.add.at(summed, self.rows[:12000], gathered[:12000])
        product = self.a @ self.b
        np.logaddexp(0.0, product[:, :1000])
        return {"python": parsed - started, "numpy": _clock() - parsed}


class Loop:
    """Outcome of one timed loop: samples, step times, outputs and failures."""

    def __init__(self):
        self.samples = []     # (kind, seconds) for every operation
        self.steps = []       # wall seconds of every step
        self.calibration = []  # seconds of each calibration kernel, once per operation
        self.outputs = {}     # key -> output of the first step that produced it
        self.attempted = 0
        self.failed = 0
        self.errors = []


def run_setups(bench, times):
    """Set up once, then again while under SETUP_SECONDS; appends each time.

    A collection before each set-up starts every one from the same heap.
    """
    started = _clock()
    while True:
        gc.collect()
        t0 = _clock()
        bench.setup()
        times.append(_clock() - t0)
        if _clock() - started >= SETUP_SECONDS:
            return


def run_loop(bench, seconds, reference, tracer=None, first_outputs=None, setups=None):
    """Run whole rounds, at least one, while half a mean round still fits in ``seconds``.

    A round is one step, preceded by timed set-ups when ``setups`` is a list,
    so that set-up times are sampled across the whole run, and by one run of
    the calibration kernel per operation of the step.  Each operation
    counts as attempted; it fails on an exception, on a mismatch with the
    reference, or when its output differs from an earlier one with the same
    key (``first_outputs`` carries those across loops).
    """
    loop = Loop()
    calibrate = Calibration()
    seen = first_outputs if first_outputs is not None else loop.outputs
    started = _clock()
    rounds = 0
    while not rounds or (_clock() - started) * (rounds + 0.5) / rounds <= seconds:
        rounds += 1
        if setups is not None:
            run_setups(bench, setups)
        loop.calibration.extend(calibrate() for _ in range(bench.ops_per_step))
        t0 = _clock()
        try:
            ops = bench.step(tracer)
        except Exception as exc:  # a failed step is counted, the loop goes on
            loop.steps.append(_clock() - t0)
            loop.attempted += bench.ops_per_step
            loop.failed += bench.ops_per_step
            loop.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        loop.steps.append(_clock() - t0)
        for kind, secs, key, output in ops:
            loop.samples.append((kind, secs))
            loop.attempted += 1
            expected = seen.setdefault(key, output)
            if expected != output or (reference is not None
                                      and not bench.matches(key, output, reference)):
                loop.failed += 1
                loop.errors.append(f"output mismatch for {key}")
    return loop


def environment():
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "blas": blas.get("name"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS")}


def load_reference(workload, instance):
    path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["instances"].get(str(instance))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else None


def summarize(bench, loop):
    """Median seconds per operation, plus the figures a user of the workload knows by name.

    The operation is an epoch on training workloads and an eval-then-predict
    round on the serving workload.
    """
    by_kind = {}
    for kind, secs in loop.samples:
        by_kind.setdefault(kind, []).append(secs)
    named = {}
    if isinstance(bench, TrainBench):
        epochs = by_kind.get("epoch", [])
        op_s = _median(epochs)
        named["epoch_s_p50"] = (op_s, "s")
        named.update(_tail("epoch_s_tail", epochs))
        n_epochs = len(epochs) + len(by_kind.get("epoch0", []))
        named["train_item_epochs_per_s"] = (bench.w.split[0] * n_epochs / sum(loop.steps),
                                            "1/s")
    else:
        op_s = _median(loop.steps)
        named["eval_s_p50"] = (_median(by_kind.get("eval", [])), "s")
        named["predict_s_p50"] = (_median(by_kind.get("predict", [])), "s")
        named.update(_tail("predict_s_tail", by_kind.get("predict", [])))
    named["failed_share"] = (loop.failed / loop.attempted, "ratio")
    return op_s, named


def _tail(name, values):
    """The highest percentile with at least ten samples beyond it, if there are 11+."""
    n = len(values)
    if n < 11:
        return {f"{name}(n={n})": (None, "s")}
    return {f"{name}(p{int(100 * (n - 10) / n)},n={n})": (sorted(values)[n - 11], "s")}


@contextlib.contextmanager
def _instance(workload, instance):
    """The workload's bench over freshly generated inputs, deleted afterwards."""
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        data_dir = workloads.generate(workload, instance, os.path.join(work_dir, "data"))
        yield make_bench(workload, instance, data_dir, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_workload(workload, seed, seconds, trace, reference="recorded", out_dir=None):
    """Generate inputs, set up, measure; returns (result dict, human-readable lines)."""
    instance = seed % INSTANCES
    if reference == "recorded":
        reference = load_reference(workload, instance)
    with _instance(workload, instance) as bench:
        if trace:
            return _traced(bench, seconds, reference, out_dir, seed)
        return _untraced(bench, seconds, reference)


def _calibration(loop, kernel):
    return statistics.median(times[kernel] for times in loop.calibration)


def _scaled(seconds, loop, kernel):
    """Seconds on a machine where the calibration ``kernel`` takes CAL_REF_S[kernel]."""
    if seconds is None:
        return None
    return seconds * CAL_REF_S[kernel] / _calibration(loop, kernel)


def _untraced(bench, seconds, reference):
    setups = []
    loop = run_loop(bench, seconds, reference, setups=setups)
    op_s, named = summarize(bench, loop)
    setup_s = statistics.median(setups)
    metrics = {"setup_s": (_scaled(setup_s, loop, "python"), "s"),
               "op_s_p50": (_scaled(op_s, loop, "numpy"), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    named = {"setup_s_unscaled": (setup_s, "s"), "op_s_p50_unscaled": (op_s, "s"),
             **{f"calibration.{k}_s_p50": (_calibration(loop, k), "s") for k in CAL_REF_S},
             **named}
    correct = reference is not None and loop.failed == 0
    lines = [f"{k} {_fmt(v)} {u}" for k, (v, u) in {**metrics, **named}.items()]
    if reference is None:
        lines.append("no recorded reference for this instance; outputs unchecked")
    lines += loop.errors[:5]
    return _result(correct, loop.attempted, loop.failed, metrics), lines


def _traced(bench, seconds, reference, out_dir, seed):
    """Half the time untraced, half traced, same process and inputs."""
    bench.setup()
    plain = run_loop(bench, seconds / 2, reference)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_op("setup")
        bench.setup()
        traced = run_loop(bench, seconds / 2, reference, tracer, first_outputs=plain.outputs)
    finally:
        tracer.uninstall()
    loop_kinds = bench.loop_kinds
    metrics = tracer.layer_metrics(loop_kinds, bench.params_mb)
    plain_op, traced_op = (_scaled(summarize(bench, loop)[0], loop, "numpy")
                           for loop in (plain, traced))
    overhead = None if None in (plain_op, traced_op) else traced_op - plain_op
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (None if overhead is None else overhead / plain_op, "ratio")

    shares = tracer.shares(loop_kinds, bench.roots)
    lines = [f"{k} {_fmt(v)} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"op_s_p50 untraced {_fmt(plain_op)} s, traced {_fmt(traced_op)} s")
    groups = {
        "sparse ops (gather_rows, scatter_add_rows, concat, mul)":
            [f"autodiff.{op}.{d}" for op in SPARSE_OPS for d in ("fwd", "bwd")],
        "bce_with_logits + matmul":
            [f"autodiff.{op}.{d}" for op in ("bce_with_logits", "matmul") for d in ("fwd", "bwd")],
        "all autodiff ops": [f"autodiff.{op}.{d}" for op in AUTODIFF_OPS for d in ("fwd", "bwd")],
        "evaluation.topk": ["evaluation.topk"],
    }
    for label, names in groups.items():
        lines.append(f"self-time share {label}: {sum(shares.get(n, 0.0) for n in names):.3f}")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1])[:12]:
        lines.append(f"self-time share {name}: {share:.3f}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{bench.w.name}-seed{seed}.jsonl")
        tracer.write(path)
        lines.append(f"spans written to {os.path.relpath(path, ROOT)}")

    failed = plain.failed + traced.failed
    lines += (plain.errors + traced.errors)[:5]
    correct = reference is not None and failed == 0
    return _result(correct, plain.attempted + traced.attempted, failed, metrics), lines


def _result(correct, attempted, failed, metrics):
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def record_references(workload, instances=INSTANCES, log=sys.stderr):
    """Record each instance's reference outputs from the program at this commit."""
    recorded = {}
    for instance in range(instances):
        with _instance(workload, instance) as bench:
            bench.setup()
            recorded[str(instance)] = bench.record()
        log.write(f"recorded {workload.name} instance {instance}\n")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, f"{workload.name}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "instances": recorded}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
