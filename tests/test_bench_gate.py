"""The benchmark's correctness gate, run on every workload at its smallest setting.

``bench/run.py`` compares each workload's outputs (training losses, eval
reports and predictions) with the references recorded in
``bench/references/``, byte for byte.  With ``--seconds 0`` it runs one round,
so a change that moves any output is caught here and not only by a timed
benchmark run.  The test only reads ``bench/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload, trace", [("train_query_dense", 0), ("train_wide_tags", 0),
                                             ("serve_eval_predict", 0),
                                             ("train_query_dense", 1), ("train_wide_tags", 1),
                                             ("serve_eval_predict", 1)])
def test_outputs_match_the_recorded_references(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    if trace and workload.startswith("train_"):
        # the tracer reaches the loss and its labels through training's module names,
        # which fit calls every run
        for name in ("training.combined_loss_s", "training.label_matrix_s"):
            assert result["metrics"][name]["value"] > 0, name
