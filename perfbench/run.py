"""Campaign benchmark: set-up and campaign throughput on the inline engine.

Usage, from the repository root::

    python3 perfbench/run.py --workload batched-campaign --seed 7 \\
        --seconds 15 --trace 0

One invocation is one fresh process measuring one workload (see
``phases.py`` for the workloads and ``README.md`` for the method):

* ``--trace 0`` prints the end-to-end metrics ``setup_s`` (median of
  several set-ups into an empty golden cache), ``trials_per_s``
  (median over campaigns run on the warm cache for ``--seconds``),
  both timed in reference seconds (``refclock.py``), and
  ``peak_rss_mb``;
* ``--trace 1`` wraps the public call into each layer in a span (see
  ``layers.py``) and prints the per-layer metrics instead.

Every measured journal is hashed and compared with a reference digest
for the same seed (``phases.reference_digest``); a mismatch fails the
campaign's trials, and a ``harness_error`` trial fails itself.  One
line before the result records the host, the digests and the plain
wall-clock figures; the last line of standard output is the JSON
result.  Without the program's
sources beside this directory the benchmark exits with status 2 and
prints no result.
"""

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")


def host_fingerprint():
    """CPU model, usable CPUs, Python version and load at start."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print("perfbench: the program's sources (src/repro) are missing "
              "next to %s" % HERE, file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCES)
    from layers import BenchmarkBug
    from phases import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    host = host_fingerprint()
    scratch_root = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
                  work_dir)
        try:
            metrics = run.traced() if args.trace else run.untraced()
        except BenchmarkBug as bug:
            print("perfbench: benchmark bug: %s" % bug, file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(dict(host=host, workload=args.workload, seed=args.seed,
                          trace=args.trace, **run.record())))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
