import json
import os

import numpy as np
import pytest

from taggnn.cli import cli_main
from taggnn.data import build_vocabulary, load_dataset, make_splits, save_splits
from taggnn.evaluation import Predictor
from taggnn.model import ModelVariant, TagGNNModel
from taggnn.serialization import load_model, save_model
from taggnn.training import TrainConfig, train


@pytest.fixture
def trained(toy_setup):
    dataset, splits, vocab, graph = toy_setup
    cfg = TrainConfig(dim=10, n_layers=2, max_epochs=4, seed=6)
    result = train(graph, splits, cfg, n_words=len(vocab))
    return result.model, vocab, graph


def test_roundtrip_is_bitwise(trained, tmp_path):
    model, vocab, graph = trained
    save_model(model, vocab, tmp_path, graph.tag_ids, meta={"seed": 6})
    loaded, vocab2, manifest = load_model(tmp_path)
    assert vocab2 == vocab
    assert manifest["meta"] == {"seed": 6}
    assert manifest["tags"] == graph.tag_ids
    originals = model.parameters()
    restored = loaded.parameters()
    assert len(originals) == len(restored)
    for a, b in zip(originals, restored):
        assert a.data.tobytes() == b.data.tobytes()


def test_loaded_model_predicts_identically(trained, tmp_path):
    model, vocab, graph = trained
    save_model(model, vocab, tmp_path, graph.tag_ids)
    loaded, _, _ = load_model(tmp_path)
    out1 = model.forward(graph)
    out2 = loaded.forward(graph)
    for name in ("item_reps", "tags", "initial_item_reps"):
        assert getattr(out1, name).data.tobytes() == getattr(out2, name).data.tobytes()


def test_binary_layout_is_little_endian_f64(trained, tmp_path):
    model, vocab, graph = trained
    save_model(model, vocab, tmp_path, graph.tag_ids)
    with open(os.path.join(tmp_path, "manifest.json")) as fh:
        manifest = json.load(fh)
    blob = open(os.path.join(tmp_path, "params.bin"), "rb").read()
    entry = manifest["tensors"][0]
    assert entry["name"] == "embeddings.words"
    count = int(np.prod(entry["shape"]))
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=entry["offset"])
    assert arr.reshape(entry["shape"]).tobytes() == model.embeddings.words.data.tobytes()
    total = sum(int(np.prod(e["shape"])) for e in manifest["tensors"])
    assert len(blob) == 8 * total


def test_vocab_hash_mismatch_detected(trained, tmp_path):
    model, vocab, graph = trained
    save_model(model, vocab, tmp_path, graph.tag_ids)
    vpath = os.path.join(tmp_path, "vocab.json")
    with open(vpath) as fh:
        vdata = json.load(fh)
    vdata["tokens"][0] = "tampered"
    with open(vpath, "w") as fh:
        json.dump(vdata, fh)
    with pytest.raises(ValueError, match="hash mismatch"):
        load_model(tmp_path)


@pytest.mark.parametrize("extra", [1, -1])
def test_a_word_table_that_is_not_the_vocabulary_size_is_rejected(toy_setup, tmp_path, extra):
    _, _, vocab, graph = toy_setup
    model = TagGNNModel.init(len(vocab) + extra, graph.n_tags, 4, ModelVariant(),
                             rng=np.random.default_rng(0))
    save_model(model, vocab, tmp_path, graph.tag_ids)
    with pytest.raises(ValueError, match=f"manifest.json n_words is {len(vocab) + extra}, "
                                         f"but vocab.json holds {len(vocab)} words"):
        load_model(tmp_path)


def test_homogeneous_model_roundtrips_shared_matrix(toy_setup, tmp_path):
    _, splits, vocab, graph = toy_setup
    cfg = TrainConfig(dim=8, n_layers=1, max_epochs=2, seed=0, heterogeneous=False)
    model = train(graph, splits, cfg, n_words=len(vocab)).model
    save_model(model, vocab, tmp_path, graph.tag_ids)
    loaded, _, _ = load_model(tmp_path)
    layer = loaded.layers[0]
    assert layer.update_query is layer.update_item is layer.update_tag


@pytest.mark.parametrize("kind", ["it", "qi", "full"])
@pytest.mark.parametrize("heterogeneous", [True, False])
def test_roundtrip_every_variant(toy_setup, tmp_path, kind, heterogeneous):
    _, splits, vocab, graph = toy_setup
    cfg = TrainConfig(dim=6, n_layers=2, max_epochs=2, seed=3, variant=kind,
                      heterogeneous=heterogeneous)
    model = train(graph, splits, cfg, n_words=len(vocab)).model
    save_model(model, vocab, tmp_path, graph.tag_ids)
    loaded, _, _ = load_model(tmp_path)
    assert loaded.variant == model.variant
    assert [n for n, _ in loaded.named_parameters()] == [n for n, _ in model.named_parameters()]
    for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    assert Predictor(loaded, graph).topk(0, 3) == Predictor(model, graph).topk(0, 3)


def test_registry_names_are_the_manifest_format():
    # the tensor table of manifest.json is the registry: names and order are format
    het = TagGNNModel.init(5, 3, 2, ModelVariant(kind="qi", n_layers=1))
    assert [n for n, _ in het.named_parameters()] == [
        "embeddings.words", "embeddings.tag_ids", "layers.0.attn_proj",
        "layers.0.attn_context", "layers.0.update_query", "layers.0.update_item",
        "layers.0.update_tag", "layers.0.gate_new", "layers.0.gate_old", "layers.0.gate_bias",
        "head.weight", "head.bias"]
    hom = TagGNNModel.init(5, 3, 2, ModelVariant(heterogeneous=False, n_layers=1))
    assert [n for n, _ in hom.named_parameters()][2:] == [
        "layers.0.attn_proj", "layers.0.attn_context", "layers.0.update_shared",
        "layers.0.gate_new", "layers.0.gate_old", "layers.0.gate_bias"]


def _edit_manifest(edit):
    def corrupt(path):
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
    return corrupt


def _edit_blob(edit):
    def corrupt(path):
        (path / "params.bin").write_bytes(edit((path / "params.bin").read_bytes()))
    return corrupt


def _delete(name):
    return lambda path: (path / name).unlink()


CORRUPTIONS = {
    "missing_tensor": (_edit_manifest(lambda m: m["tensors"].pop()), "missing .*gate_bias"),
    "extra_tensor": (_edit_manifest(lambda m: m["tensors"].append(
        {"name": "extra", "shape": [1], "offset": 0})), "unexpected .*extra"),
    "reordered_tensors": (_edit_manifest(lambda m: m["tensors"].reverse()), "out of order"),
    "wrong_dim": (_edit_manifest(lambda m: m.update(dim=m["dim"] + 1)), "shape"),
    "huge_dim": (_edit_manifest(lambda m: m.update(dim=10**9)), "exceed"),
    "wrong_n_layers": (_edit_manifest(lambda m: m["variant"].update(n_layers=1)),
                       "unexpected .*'layers.1.attn_proj'"),
    "wrong_shape_entry": (_edit_manifest(lambda m: m["tensors"][2].update(shape=[6, 4])),
                          "shape"),
    "extra_bytes": (_edit_blob(lambda b: b + bytes(8)), "params.bin holds"),
    "truncated_bytes": (_edit_blob(lambda b: b[:-8]), "params.bin holds"),
    "missing_params": (_delete("params.bin"), "no params.bin"),
    "missing_manifest": (_delete("manifest.json"), "no manifest.json"),
    "missing_vocab": (_delete("vocab.json"), "no vocab.json"),
    "missing_dim_key": (_edit_manifest(lambda m: m.pop("dim")), "missing 'dim'"),
    "missing_variant_key": (_edit_manifest(lambda m: m["variant"].pop("n_layers")),
                            "missing 'n_layers'"),
    "not_json": (lambda path: (path / "manifest.json").write_text("{"), "manifest.json"),
    # a byte of the right length flipped, or a valid but edited flag, fails params_sha256
    "flipped_param_byte": (_edit_blob(lambda b: b[:100] + bytes([b[100] ^ 1]) + b[101:]),
                           "params.bin and the variant flags do not match"),
    "edited_variant_flag": (_edit_manifest(lambda m: m["variant"].update(use_tag_names=False)),
                            "params.bin and the variant flags do not match"),
    "missing_params_hash": (_edit_manifest(lambda m: m.pop("params_sha256")),
                            "missing 'params_sha256'"),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_model_directory_rejected(toy_setup, tmp_path, name):
    _, _, vocab, graph = toy_setup
    model = TagGNNModel.init(len(vocab), graph.n_tags, 4, ModelVariant(n_layers=2))
    save_model(model, vocab, tmp_path, graph.tag_ids)
    corrupt, message = CORRUPTIONS[name]
    corrupt(tmp_path)
    with pytest.raises(ValueError, match=message):
        load_model(tmp_path)


def test_hash_mismatch_exits_one_naming_params_bin(toy_setup, toydata_dir, tmp_path, capsys):
    _, splits, vocab, graph = toy_setup
    model = TagGNNModel.init(len(vocab), graph.n_tags, 4, ModelVariant(n_layers=1))
    save_model(model, vocab, tmp_path, graph.tag_ids)
    save_splits(splits, tmp_path / "splits.tsv")
    CORRUPTIONS["flipped_param_byte"][0](tmp_path)
    assert cli_main(["eval", "--model", str(tmp_path), "--data", toydata_dir]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: params.bin ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_failed_save_leaves_the_previous_one_whole(toy_setup, tmp_path, monkeypatch, failing):
    _, _, vocab, graph = toy_setup
    old = TagGNNModel.init(len(vocab), graph.n_tags, 4, ModelVariant(n_layers=1),
                           rng=np.random.default_rng(1))
    save_model(old, vocab, tmp_path, graph.tag_ids)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    opened = []

    class FailingFile:
        """Writes half of what it is given, then runs out of space."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, content):
            self.fh.write(content[:len(content) // 2])
            raise OSError(28, "No space left on device")

    def failing_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        opened.append(path)
        return FailingFile(fh) if len(opened) == failing + 1 else fh

    monkeypatch.setattr("taggnn.serialization.open", failing_open, raising=False)
    new = TagGNNModel.init(len(vocab), graph.n_tags, 4, ModelVariant(n_layers=1),
                           rng=np.random.default_rng(2))
    with pytest.raises(OSError, match="No space"):
        save_model(new, vocab, tmp_path, graph.tag_ids)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    loaded, _, _ = load_model(tmp_path)
    for a, b in zip(loaded.parameters(), old.parameters()):
        assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("edit", [lambda ids: ids[1:], lambda ids: ids + ["t_extra"],
                                  lambda ids: ids[:-1] + [7]],
                         ids=["one_short", "one_more", "not_a_string"])
def test_tag_ids_that_are_not_n_tags_strings_write_nothing(toy_setup, tmp_path, edit):
    _, _, vocab, graph = toy_setup
    old = TagGNNModel.init(len(vocab), graph.n_tags, 4, ModelVariant(n_layers=1),
                           rng=np.random.default_rng(1))
    save_model(old, vocab, tmp_path, graph.tag_ids)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new = TagGNNModel.init(len(vocab), graph.n_tags, 4, ModelVariant(n_layers=1),
                           rng=np.random.default_rng(2))
    tag_ids = edit(graph.tag_ids)
    with pytest.raises(ValueError, match=f"^tag_ids must be n_tags = {graph.n_tags} strings, "
                                         f"got {len(tag_ids)} ids$"):
        save_model(new, vocab, tmp_path, tag_ids)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# values of the wrong JSON type: (file, edit of its JSON, the key the message names)
WRONG_TYPES = {
    "token_not_a_string": ("vocab.json", lambda v: v["tokens"].append(7), "tokens"),
    "tokens_null": ("vocab.json", lambda v: v.update(tokens=None), "tokens"),
    "min_count_null": ("vocab.json", lambda v: v.update(min_count=None), "min_count"),
    "min_count_false": ("vocab.json", lambda v: v.update(min_count=False), "min_count"),
    "meta_not_an_object": ("manifest.json", lambda m: m.update(meta=["seed"]), "meta"),
    "tensors_not_a_list": ("manifest.json", lambda m: m.update(tensors={}), "tensors"),
    "gamma_null": ("manifest.json", lambda m: m.update(gamma=None), "gamma"),
    "gamma_true": ("manifest.json", lambda m: m.update(gamma=True), "gamma"),
    "dim_true": ("manifest.json", lambda m: m.update(dim=True),
                 "dim, n_words, n_tags and n_layers"),
    "use_tag_names_null": ("manifest.json", lambda m: m["variant"].update(use_tag_names=None),
                           "variant.use_tag_names"),
    "use_tag_ids_zero": ("manifest.json", lambda m: m["variant"].update(use_tag_ids=0),
                         "variant.use_tag_ids"),
    "heterogeneous_no": ("manifest.json", lambda m: m["variant"].update(heterogeneous="no"),
                         "variant.heterogeneous"),
    "tags_one_short": ("manifest.json", lambda m: m["tags"].pop(), "tags"),
    "tags_one_extra": ("manifest.json", lambda m: m["tags"].append("t_extra"), "tags"),
    "tag_not_a_string": ("manifest.json", lambda m: m["tags"].__setitem__(0, 7), "tags"),
    "tags_an_object": ("manifest.json", lambda m: m.update(tags={}), "tags"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_wrong_json_type_exits_one_naming_the_file(toy_setup, toydata_dir, tmp_path, capsys,
                                                   case):
    _, splits, vocab, graph = toy_setup
    model = TagGNNModel.init(len(vocab), graph.n_tags, 4, ModelVariant(n_layers=1))
    save_model(model, vocab, tmp_path, graph.tag_ids)
    save_splits(splits, tmp_path / "splits.tsv")
    name, edit, key = WRONG_TYPES[case]
    content = json.loads((tmp_path / name).read_text())
    edit(content)
    (tmp_path / name).write_text(json.dumps(content))
    assert cli_main(["eval", "--model", str(tmp_path), "--data", toydata_dir]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} {key} must be ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_tags_shorter_than_n_tags_exit_one(toydata_dir, tmp_path, capsys, command):
    # a qi model of six tags whose manifest was edited to name five, over a dataset of
    # those five: the names match the dataset, but a sixth score column names no tag
    data = tmp_path / "data"
    os.makedirs(data)
    for name in os.listdir(toydata_dir):
        with open(os.path.join(toydata_dir, name), encoding="utf-8") as fh:
            lines = [line for line in fh if "t_news" not in line]
        (data / name).write_text("".join(lines), encoding="utf-8")
    dataset = load_dataset(data)
    vocab = build_vocabulary(dataset, min_count=1)
    variant = ModelVariant(kind="qi", use_tag_names=False, use_tag_ids=False, n_layers=1)
    model = TagGNNModel.init(len(vocab), len(dataset.tag_ids) + 1, 4, variant)
    model_dir = tmp_path / "model"
    save_model(model, vocab, model_dir, dataset.tag_ids + ["t_news"])
    manifest = json.loads((model_dir / "manifest.json").read_text(encoding="utf-8"))
    manifest["tags"] = dataset.tag_ids     # params_sha256 does not cover the tag list
    (model_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    save_splits(make_splits(dataset, (8, 2, 2), seed=4), model_dir / "splits.tsv")
    extra = ["--item-id", dataset.item_ids[0], "--k", "6"] if command == "predict" else []
    assert cli_main([command, "--model", str(model_dir), "--data", str(data), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: manifest.json tags must be a list of n_tags = 6 strings\n"
