import os
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


def test_demo01_runs():
    proc = _run_demo("01_autodiff_and_gradcheck.py")
    assert proc.returncode == 0, proc.stderr


def test_demo02_stdout_matches_golden():
    proc = _run_demo("02_tripartite_graph.py")
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(GOLDEN, "demo02_stdout.txt"), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()
