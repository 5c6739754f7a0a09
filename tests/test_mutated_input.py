"""Mutated input through the command line: ``eval``, ``predict`` and ``train``
exit 0, 1 or 2 on it and let no exception escape.

A seeded search applies one mutation to one of the toy dataset's five TSV
files or to a trained model's ``splits.tsv``: truncation, an inserted tab,
newline, NUL or non-UTF-8 bytes, ``nan``, ``inf`` or ``1e400`` in place of a
field, or a duplicated or deleted line.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taggnn.cli import cli_main

from conftest import FIXTURES

TOYDATA = os.path.join(FIXTURES, "toydata")
TARGETS = sorted(os.listdir(TOYDATA)) + ["splits.tsv"]
CONFIG = {"dim": 4, "n_layers": 1, "max_epochs": 1, "seed": 3}
INSERTS = {"tab": b"\t", "newline": b"\n", "nul": b"\0", "non_utf8": b"\xff\xc3"}
FIELDS = ("nan", "inf", "1e400")
KINDS = ("truncate", *INSERTS, *FIELDS, "duplicate", "delete")
SCORES = {"items", "p@1", "p@3", "p@5"}


def mutate(data, kind, at, column):
    """``data`` (a file's bytes) with one ``kind`` of mutation at byte or line
    ``at`` (taken modulo the size), in field ``column`` of that line for a
    field mutation."""
    if kind == "truncate":
        return data[:at % (len(data) + 1)]
    if kind in INSERTS:
        at %= len(data) + 1
        return data[:at] + INSERTS[kind] + data[at:]
    lines = data.split(b"\n")
    at %= len(lines)
    if kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "delete":
        del lines[at]
    else:
        fields = lines[at].split(b"\t")
        fields[column % len(fields)] = kind.encode()
        lines[at] = b"\t".join(fields)
    return b"\n".join(lines)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A config file and the model directory trained with it on the toy dataset."""
    root = tmp_path_factory.mktemp("mutated")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    argv = ["train", "--config", str(config), "--data", TOYDATA, "--counts", "8,2,2",
            "--out", str(root / "model")]
    assert _run(argv)[0] == 0
    return str(config), str(root / "model")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(target=st.sampled_from(TARGETS), kind=st.sampled_from(KINDS),
       at=st.integers(0, 10**4), column=st.integers(0, 2))
def test_mutated_input_exits_cleanly(trained, target, kind, at, column):
    config, model = trained
    with tempfile.TemporaryDirectory() as root:
        data, splits = os.path.join(root, "data"), os.path.join(root, "splits.tsv")
        shutil.copytree(TOYDATA, data)
        shutil.copy(os.path.join(model, "splits.tsv"), splits)
        path = splits if target == "splits.tsv" else os.path.join(data, target)
        with open(path, "rb") as fh:
            mutated = mutate(fh.read(), kind, at, column)
        with open(path, "wb") as fh:
            fh.write(mutated)

        inputs = ["--data", data, "--splits", splits]
        for argv in (["eval", "--model", model, *inputs],
                     ["predict", "--model", model, *inputs, "--item-id", "i01"],
                     ["train", "--config", config, *inputs, "--out", os.path.join(root, "m")]):
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv[0], code, err)
            assert "Traceback" not in err
            if argv[0] == "eval" and code == 0:
                report = json.loads(out)
                assert set(report) == {"without_tags", "partial_tags", "meta"}
                assert set(report["without_tags"]) == set(report["partial_tags"]) == SCORES
