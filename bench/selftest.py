"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics run.py
reports; that a tiny run of every workload, untraced and traced, passes its
gate (fail_frac == 0) and reports every metric; that the traced counts repeat
exactly between two runs of one seed; and that a deliberately wrong expected
value is counted as a failure, which shows each gate is live.  Exits 1 on
any problem.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEED = 7
SECONDS = 0.2
COUNT_SUFFIXES = (".calls", ".term_pairs", ".terms_in")


def wrong_digest(wl):
    wl.digest = "0" * 64


def wrong_stdout(wl):
    wl.expected[0] = "not what the CLI prints\n"


def wrong_falling_factorial(wl):
    exact = wl.falling
    wl.falling = lambda g, length: exact(g, length) + 1


TAMPER = {
    "verify-sweep": wrong_digest,
    "cli-queries": wrong_stdout,
    "library-mix": wrong_falling_factorial,
}


def main() -> int:
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        if {m["name"]: m["unit"] for m in spec[key]} != units:
            problems.append(f"BENCHMARK.json {key} metrics differ from run.py")

    for workload in run.WORKLOAD_NAMES:
        counts = []
        for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS), (True, None)):
            result = run.measure(workload, SEED, SECONDS, trace)["result"]
            label = f"{workload} trace={int(trace)}"
            if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
                problems.append(f"{label}: {result['failed']}/{result['attempted']} operations failed")
            if units is not None and set(result["metrics"]) != set(units):
                problems.append(f"{label}: reported metrics differ from the declared ones")
            if trace:
                counts.append({k: m["value"] for k, m in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ between two runs of seed {SEED}")
        tampered = run.measure(workload, SEED, SECONDS, False, prepare=TAMPER[workload])["result"]
        if tampered["failed"] < 1 or tampered["correct"]:
            problems.append(f"{workload}: a wrong expected value was not counted as a failure")
        print(f"{workload}: checked", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
