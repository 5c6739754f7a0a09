import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, text=True, timeout=120)


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def test_demo01_runs():
    proc = _run_demo("01_autodiff_and_gradcheck.py")
    assert proc.returncode == 0, proc.stderr


def test_demo02_stdout_matches_golden():
    proc = _run_demo("02_tripartite_graph.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _golden("demo02_stdout.txt")


def test_demo03_stdout_matches_golden():
    proc = _run_demo("03_overfit_tiny_dataset.py")
    assert proc.returncode == 0, proc.stderr
    # the one wall-clock line is dropped; every other line is deterministic
    timed = re.compile(r"^trained \d+ epochs in [\d.]+s\n", re.MULTILINE)
    assert len(timed.findall(proc.stdout)) == 1
    assert timed.sub("", proc.stdout) == _golden("demo03_stdout.txt")


def test_demo04_stdout_matches_golden():
    proc = _run_demo("04_cold_start_dual_loss.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _golden("demo04_stdout.txt")


def test_demo05_stdout_matches_golden():
    proc = _run_demo("05_query_signal.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _golden("demo05_stdout.txt")


def test_demo06_stdout_matches_golden():
    proc = _run_demo("06_eval_reports_and_baselines.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _golden("demo06_stdout.txt")
