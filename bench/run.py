"""taggnn benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --seconds S --trace 0|1     # every workload
    python3 bench/run.py --record [--workload NAME]           # re-record references

One workload runs in this process and prints human-readable lines followed
by one JSON result line.  Without ``--workload`` every workload runs in its
own child process, so each peak RSS belongs to one workload.  Run it from
the root of a checkout; it reads and writes only inside that checkout.
"""

import os

# pinned before numpy is imported: the program is documented as single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import taggnn  # noqa: E402

if not os.path.abspath(taggnn.__file__).startswith(SRC + os.sep):
    sys.exit(f"taggnn was imported from {taggnn.__file__}, not from {SRC}")

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACE_DIR = os.path.join(ROOT, ".bench_out")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="record reference outputs from the program at this commit")
    return p.parse_args(argv)


def _run_all(args):
    """Each workload in a child process; prints every line and a combined summary."""
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(f"  {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps(results, sort_keys=True))
    return 0 if ok else 1


def main(argv=None):
    args = _parse(argv)
    if args.record:
        names = [args.workload] if args.workload else list(WORKLOADS)
        for name in names:
            harness.record_references(WORKLOADS[name])
        return 0
    if args.workload is None:
        return _run_all(args)
    for key, value in harness.environment().items():
        print(f"env {key} {value}")
    result, lines = harness.run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                         args.trace, out_dir=TRACE_DIR)
    for line in lines:
        print(line)
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
