import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import taggnn
from taggnn.cli import cli_main
from taggnn.data import load_dataset
from taggnn.model import TagGNNModel
from taggnn.serialization import load_model, save_model

from conftest import FIXTURES


@pytest.fixture
def workspace(toydata_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(toydata_dir, data)
    return tmp_path, str(data)


def _config(tmp_path, **overrides):
    cfg = {"dim": 10, "n_layers": 1, "max_epochs": 4, "patience": 2, "seed": 9}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_split_train_eval_pipeline(workspace, capsys):
    tmp_path, data = workspace
    splits = str(tmp_path / "splits.tsv")
    model_dir = str(tmp_path / "model")
    report = str(tmp_path / "report.json")

    assert cli_main(["split", "--data", data, "--counts", "8,2,2",
                     "--seed", "11", "--out", splits]) == 0
    assert cli_main(["train", "--config", _config(tmp_path), "--data", data,
                     "--splits", splits, "--out", model_dir]) == 0
    assert os.path.exists(os.path.join(model_dir, "manifest.json"))
    assert os.path.exists(os.path.join(model_dir, "train_log.jsonl"))

    assert cli_main(["eval", "--model", model_dir, "--data", data,
                     "--k", "1,3,5", "--report", report]) == 0
    out = json.loads(open(report, encoding="utf-8").read())
    for section in ("without_tags", "partial_tags"):
        assert {"p@1", "p@3", "p@5"} <= set(out[section])
    assert "config_hash" in out["meta"]
    capsys.readouterr()


def test_predict_excludes_linked_tags(workspace, capsys):
    tmp_path, data = workspace
    splits = str(tmp_path / "splits.tsv")
    model_dir = str(tmp_path / "model")
    cli_main(["split", "--data", data, "--counts", "10,1,1", "--seed", "3", "--out", splits])
    cli_main(["train", "--config", _config(tmp_path), "--data", data,
              "--splits", splits, "--out", model_dir])
    capsys.readouterr()
    # i01 keeps tags t_game, t_puzzle, t_music unless it landed in an eval role
    assert cli_main(["predict", "--model", model_dir, "--data", data,
                     "--item-id", "i01", "--k", "3"]) == 0
    predicted = capsys.readouterr().out.split()
    assert len(predicted) == 3
    roles = dict(line.split("\t")[:2] for line in open(splits, encoding="utf-8"))
    if roles["i01"] == "train":
        assert not set(predicted) & {"t_game", "t_puzzle", "t_music"}


def test_gradcheck_command(capsys):
    assert cli_main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out


@pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
def test_gradcheck_rejects_a_bad_eps_with_exit_one(capsys, eps):
    assert cli_main(["gradcheck", f"--eps={eps}"]) == 1
    err = capsys.readouterr().err
    assert "eps must be a finite number > 0" in err and "Traceback" not in err


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["train", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("config, named", [
    ({"dim": "8"}, "dim"), ({"dim": 0}, "dim"), ({"patience": None}, "patience"),
    ({"seed": True}, "seed"), ({"learning_rate": 0}, "learning_rate"),
    ({"gamma": float("nan")}, "gamma"), ({"dropout": 1.0}, "dropout"),
    ({"heterogeneous": 1}, "heterogeneous"), ({"variant": "graph"}, "variant"),
    (8, "JSON object"),
])
def test_bad_config_value_exits_one(workspace, capsys, config, named):
    tmp_path, data = workspace
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["train", "--config", str(path), "--data", data, "--counts", "8,2,2",
                     "--out", str(tmp_path / "model")]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_a_shape_that_would_exhaust_memory_exits_one(workspace):
    # a child process with its address space capped at 3 GiB: the 168 GB word table of
    # dim 10**9 is refused there, and the host's memory is never touched
    tmp_path, data = workspace
    code = ("import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "cap = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "from taggnn.cli import cli_main\n"
            "sys.exit(cli_main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(taggnn.__file__)),
               OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", code, "train", "--data", data,
                            "--config", _config(tmp_path, dim=10**9), "--counts", "8,2,2",
                            "--out", str(tmp_path / "model")],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1


def test_unknown_item_exits_one(workspace, capsys):
    tmp_path, data = workspace
    splits = str(tmp_path / "splits.tsv")
    model_dir = str(tmp_path / "model")
    cli_main(["split", "--data", data, "--counts", "10,1,1", "--seed", "3", "--out", splits])
    cli_main(["train", "--config", _config(tmp_path), "--data", data,
              "--splits", splits, "--out", model_dir])
    capsys.readouterr()
    assert cli_main(["predict", "--model", model_dir, "--data", data,
                     "--item-id", "nope", "--k", "2"]) == 1


def test_bad_data_exits_one(tmp_path, capsys):
    assert cli_main(["split", "--data", str(tmp_path), "--counts", "1,0,0",
                     "--out", str(tmp_path / "s.tsv")]) == 1
    assert "error" in capsys.readouterr().err


def test_split_rejects_a_comma_in_a_tag_id(workspace, capsys):
    # splits.tsv joins held-out tags with commas, so such an id could never be read back
    tmp_path, data = workspace
    for name in ("tags.tsv", "item_tag_edges.tsv"):
        path = os.path.join(data, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("t_game", "t,game"))
    out = str(tmp_path / "splits.tsv")
    assert cli_main(["split", "--data", data, "--counts", "4,4,4", "--seed", "0",
                     "--out", out]) == 1
    assert capsys.readouterr().err == "error: tags.tsv:1: tag id 't,game' contains ','\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["split", "train"])
def test_negative_split_count_exits_one(workspace, capsys, command):
    tmp_path, data = workspace
    out = str(tmp_path / ("splits.tsv" if command == "split" else "model"))
    extra = ["--config", _config(tmp_path)] if command == "train" else []
    assert cli_main([command, *extra, "--data", data, "--counts=10,-4,2", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: split count val=-4 is negative\n"
    assert not os.path.exists(out)


def test_preprocess_writes_filtered_dataset(workspace, capsys):
    tmp_path, data = workspace
    out = str(tmp_path / "filtered")
    assert cli_main(["preprocess", "--data", data, "--out", out,
                     "--item-query", "1", "--query-item", "1",
                     "--item-tag", "1", "--tag-item", "1", "--min-count", "1"]) == 0
    assert os.path.exists(os.path.join(out, "items.tsv"))
    capsys.readouterr()


def test_ablate_without_a_splits_file_exits_one(workspace, capsys):
    _, data = workspace
    assert cli_main(["ablate", "--data", data, "--splits", ""]) == 1
    err = capsys.readouterr().err
    assert err == "error: --splits must name a splits file\n"


def test_ablate_report_shape(workspace, capsys):
    tmp_path, data = workspace
    splits = str(tmp_path / "splits.tsv")
    out = str(tmp_path / "ablation.json")
    cli_main(["split", "--data", data, "--counts", "8,2,2", "--seed", "11", "--out", splits])
    cfg = _config(tmp_path, max_epochs=2, dim=6)
    assert cli_main(["ablate", "--config", cfg, "--data", data, "--splits", splits,
                     "--k", "1", "--out", out]) == 0
    capsys.readouterr()
    payload = json.loads(open(out, encoding="utf-8").read())
    names = [row["name"] for row in payload["variants"]]
    assert names == ["base", "no_dual", "no_dual_no_tag_names", "homogeneous"]
    assert [row["name"] for row in payload["layer_sweep"]] == \
           ["layers_1", "layers_2", "layers_3", "layers_4"]


@pytest.mark.parametrize("counts", ["8,2", "8,2,x"])
@pytest.mark.parametrize("command", ["split", "train"])
def test_malformed_split_counts_exit_one_naming_the_flag(workspace, capsys, command, counts):
    tmp_path, data = workspace
    out = str(tmp_path / ("splits.tsv" if command == "split" else "model"))
    assert cli_main([command, "--data", data, f"--counts={counts}", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --counts: must be train,val,test "
                                 f"(three integers), got '{counts}'\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("ks", ["1,,3", "x", "0"])
@pytest.mark.parametrize("command", [["eval", "--model", "m"], ["ablate", "--splits", "s"]])
def test_malformed_k_exits_one_naming_the_flag(workspace, capsys, command, ks):
    tmp_path, data = workspace
    assert cli_main(command + ["--data", data, f"--k={ks}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: taggnn ")
    assert captured.err.endswith(f"error: argument --k: must be comma-separated positive "
                                 f"integers, got '{ks}'\n")


def _trained_model_dir(tmp_path, data):
    splits = str(tmp_path / "splits.tsv")
    model_dir = tmp_path / "model"
    cli_main(["split", "--data", data, "--counts", "8,2,2", "--seed", "11", "--out", splits])
    cli_main(["train", "--config", _config(tmp_path), "--data", data,
              "--splits", splits, "--out", str(model_dir)])
    return model_dir


def test_nonfinite_parameters_exit_two(workspace, capsys):
    tmp_path, data = workspace
    model_dir = _trained_model_dir(tmp_path, data)
    # saved with NaN parameters, so params_sha256 matches and the scores are what fails
    model, vocab, manifest = load_model(model_dir)
    for tensor in model.parameters():
        tensor.data[...] = np.nan
    save_model(model, vocab, model_dir, manifest["tags"], meta=manifest["meta"])
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert cli_main(["eval", "--model", str(model_dir), "--data", data]) == 2
        assert cli_main(["predict", "--model", str(model_dir), "--data", data,
                         "--item-id", "i01", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err


def test_nonfinite_gradient_exits_two(workspace, capsys, monkeypatch):
    tmp_path, data = workspace
    splits = str(tmp_path / "splits.tsv")
    cli_main(["split", "--data", data, "--counts", "8,2,2", "--seed", "11", "--out", splits])
    frozen = TagGNNModel.zero_frozen_grads

    def poisoned(model):
        frozen(model)
        model.layers[0].gate_bias.grad[0] = np.nan

    monkeypatch.setattr(TagGNNModel, "zero_frozen_grads", poisoned)
    capsys.readouterr()
    assert cli_main(["train", "--config", _config(tmp_path), "--data", data,
                     "--splits", splits, "--out", str(tmp_path / "model")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite gradient of layers.0.gate_bias at epoch 0" in captured.err
    assert not (tmp_path / "model" / "params.bin").exists()


def test_corrupt_model_directory_exits_one(workspace, capsys):
    tmp_path, data = workspace
    model_dir = _trained_model_dir(tmp_path, data)
    manifest = json.loads((model_dir / "manifest.json").read_text())
    del manifest["dim"]
    (model_dir / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli_main(["eval", "--model", str(model_dir), "--data", data]) == 1
    assert "missing 'dim'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def served_model(tmp_path_factory):
    """A trained model directory for the serving commands, shared by the tests below."""
    return _trained_model_dir(tmp_path_factory.mktemp("served"),
                              os.path.join(FIXTURES, "toydata"))


@pytest.mark.parametrize("argv, named", [
    (["train", "--config", "{tmp}/missing.json", "--counts", "8,2,2", "--out", "{tmp}/m"],
     "{tmp}/missing.json"),
    (["train", "--splits", "{tmp}/missing.tsv", "--out", "{tmp}/m"], "{tmp}/missing.tsv"),
    (["train", "--splits", "{tmp}", "--out", "{tmp}/m"], "{tmp}"),
    (["train", "--counts", "8,2,2", "--out", "{data}/items.tsv"], "{data}/items.tsv"),
    (["split", "--counts", "8,2,2", "--out", "{tmp}/missing/s.tsv"], "{tmp}/missing/s.tsv"),
    (["eval", "--model", "{model}", "--report", "{tmp}/missing/r.json"], "{tmp}/missing/r.json"),
], ids=["train-config", "train-splits", "train-splits-dir", "train-out-file", "split-out",
        "eval-report"])
def test_a_path_that_cannot_be_read_or_written_exits_one(workspace, served_model, capsys,
                                                         argv, named):
    tmp_path, data = workspace
    paths = {"tmp": str(tmp_path), "data": data, "model": str(served_model)}
    argv = [arg.format(**paths) for arg in argv]
    capsys.readouterr()
    assert cli_main([argv[0], "--data", data, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ") and captured.err.count("\n") == 1
    assert repr(named.format(**paths)) in captured.err


@pytest.mark.parametrize("command", [["eval"], ["predict", "--item-id", "i01"]],
                         ids=["eval", "predict"])
@pytest.mark.parametrize("bad_file, bad_line, message", [
    ("query_item_edges.tsv", "q1\ti01\tmany", "query_item_edges.tsv:24: bad weight 'many'"),
    ("splits.tsv", "i01\tbogus", "splits.tsv:13: unknown role 'bogus'"),
], ids=["qi", "splits"])
def test_bad_serving_input_exits_one_naming_the_line(workspace, served_model, capsys,
                                                     command, bad_file, bad_line, message):
    tmp_path, data = workspace
    splits = tmp_path / "splits.tsv"
    shutil.copy(served_model / "splits.tsv", splits)
    target = splits if bad_file == "splits.tsv" else os.path.join(data, bad_file)
    with open(target, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    capsys.readouterr()
    assert cli_main([command[0], "--model", str(served_model), "--data", data,
                     "--splits", str(splits), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_repeated_item_tag_lines_change_no_report_or_prediction(workspace, served_model,
                                                                capsys):
    # metamorphic: an item-tag edge listed again is the same edge
    tmp_path, data = workspace
    repeated = tmp_path / "repeated"
    shutil.copytree(data, repeated)
    edges = repeated / "item_tag_edges.tsv"
    lines = edges.read_text(encoding="utf-8").splitlines(keepends=True)
    edges.write_text("".join(line * 2 for line in lines) + "".join(lines[::3]),
                     encoding="utf-8")

    def outputs(data_dir):
        capsys.readouterr()
        assert cli_main(["eval", "--model", str(served_model), "--data", data_dir]) == 0
        out = [capsys.readouterr().out]
        for item_id in load_dataset(data_dir).item_ids:
            assert cli_main(["predict", "--model", str(served_model), "--data", data_dir,
                             "--item-id", item_id, "--k", "5"]) == 0
            out.append(capsys.readouterr().out)
        return out

    assert outputs(str(repeated)) == outputs(data)
