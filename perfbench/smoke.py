"""Smoke test of the benchmark itself, with the shortest measuring time.

Usage, from the repository root::

    python3 perfbench/smoke.py [--seed N] [--seconds S]

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py``
in fresh processes, as the benchmark is meant to be run -- once
untraced and twice traced -- and asserts that:

* each run is correct and prints every end-to-end (untraced) or
  per-layer (traced) metric of ``BENCHMARK.json``, with its unit;
* the exact per-layer counts repeat across the two traced runs;
* the traced and untraced runs journal the same bytes as their
  reference, and ``scalar-campaign`` and ``batched-campaign`` journal
  the same bytes for the trials they have in common.

Exits 0 when every check holds, 1 otherwise.  Takes a few minutes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from layers import EXACT  # noqa: E402  (needs the paths above)

SHARED_DIGEST = ("batched-campaign", "scalar-campaign")


def bench(workload, seed, seconds, trace):
    """One benchmark process; returns (run-info line, result line)."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    expect(completed.returncode == 0, "%s trace=%d exited %d:\n%s" % (
        workload, trace, completed.returncode, completed.stderr))
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_metrics(label, result, expected):
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1,
           "%s: output check failed: %r" % (label, result))
    printed = {name: value["unit"]
               for name, value in result["metrics"].items()}
    wanted = {entry["name"]: entry["unit"] for entry in expected}
    expect(printed == wanted,
           "%s: metrics %r, want %r" % (label, printed, wanted))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    common = {}
    failures = []
    for entry in spec["workloads"]:
        name = entry["name"]
        try:
            infos = []
            counts = []
            for trace in (0, 1, 1):
                info, result = bench(name, args.seed, args.seconds, trace)
                check_metrics("%s trace=%d" % (name, trace), result,
                              spec["per_layer" if trace else "end_to_end"])
                infos.append(info)
                if trace:
                    counts.append({key: result["metrics"][key]["value"]
                                   for key in EXACT})
            digests = {info["reference"] for info in infos}
            for info in infos:
                digests.update(info["digests"])
            expect(len(digests) == 1, "%s: traced and untraced digests "
                   "differ: %r" % (name, digests))
            expect(counts[0] == counts[1], "%s: exact counts differ "
                   "across runs: %r" % (name, counts))
            common[name] = {digest for info in infos
                            for digest in info["common_digests"]}
            print("ok   %s  digest %s" % (name, digests.pop()))
        except AssertionError as error:
            failures.append(str(error))
            print("FAIL %s: %s" % (name, error))
    shared = [common.get(name) for name in SHARED_DIGEST]
    if not failures and (len(shared[0]) != 1 or shared[0] != shared[1]):
        failures.append("batched and scalar differ on their common trials: "
                        "%r" % shared)
        print("FAIL %s" % failures[-1])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
