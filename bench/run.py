"""cdcalc benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cdcalc is imported from `src/`,
nothing is installed.  Workloads (see BENCHMARK.json for why each exists):

  verify-sweep  repeated run_all(5, 120) + report_json(include_timing=False)
  cli-queries   `python -m cdcalc.cli ...` subprocess calls at g <= 12
  library-mix   in-process pair / pushpull / parse-format / eval_top / contains

With --trace 0 the run measures end to end, tracing off.  It makes passes
over the workload's pool of operations until --seconds have gone by (at
least one whole pass) and takes each operation's median over its repeats.
The host's speed drifts, so a reference task is interleaved with the work
and every time below is scaled to a nominal host speed (hostspeed.py); the
summary also prints the unscaled figures.

  setup_s      median over 7 fresh interpreters of the time from spawn to
               ready (import cdcalc, generate the inputs)
  peak_rss_mb  peak resident memory of any process of the run
  op_ms_p50    median over the pool of one operation's time: a whole sweep
               (sweep_s), one CLI subprocess (cli_ms_p50), one library call
               (lib_us_p50)
  op_ms_tail   the highest of p50/p75/p90/p95/p99/p99.9 over the pool with at
               least 10 operations beyond it (p50 below 20 operations)
  work_per_s   checks per second of sweep time (checks_per_s), calls per
               second of call time (lib_ops_per_s) otherwise

With --trace 1 the run alternates untraced and traced passes over the same
operations (the CLI stream runs in-process through cli.main there) and
reports per-layer self times and exact counts per pass, plus the tracing
overhead; the spans of the first traced pass are written to
bench/out/trace-<workload>.json.

Every output is gated (workloads.py); `failed` counts wrong or failing
operations, so fail_frac = failed / attempted.  The last stdout line is the
JSON result; the lines before it are a human-readable summary with the
environment stamp (Python, nproc, platform, git commit, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import ceil

from hostspeed import NOMINAL_NS, Probe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
CLI_PROBES = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "work_per_s": "1/s",
}

# Per-layer metrics: self time per pass (.us), exact counts per pass, the CLI
# start-up probes, and the tracing overhead.
PER_LAYER_UNITS = {
    "nsring.mul.us": "us",
    "nsring.mul.calls": "count",
    "nsring.mul.term_pairs": "count",
    "nsring.pair.us": "us",
    "nsring.init.calls": "count",
    "nsring.eval_top.us": "us",
    "nsring.format_class.us": "us",
    "cli.parse_class.us": "us",
    "checks.report_json.us": "us",
    "catalog.pushpull.us": "us",
    "catalog.pushpull.calls": "count",
    "catalog.pushpull.terms_in": "count",
    "catalog.binom.calls": "count",
    "catalog.subordinate_class.us": "us",
    "catalog.dm_class.us": "us",
    "catalog.chern_character.us": "us",
    "checks.run_all.us": "us",
    "checks.pencil-pairings.us": "us",
    "checks.pushpull-closed-form.us": "us",
    "checks.kernel-decomposition.us": "us",
    "checks.mult-chern.us": "us",
    "checks.plane-quintic.us": "us",
    "conelab.contains.us": "us",
    "conelab.general_effective_cone_gm2.us": "us",
    "cli.interp_floor_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.us": "us",
    "cli.build_parser.us": "us",
    "cli.resolve_class.us": "us",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

WORKLOAD_NAMES = ("verify-sweep", "cli-queries", "library-mix")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_workloads():
    """Import cdcalc from the checkout's src/ (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "cdcalc", "__init__.py")):
        fail(f"no cdcalc sources under {SRC}; run from a source checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cdcalc

    if os.path.dirname(os.path.dirname(os.path.abspath(cdcalc.__file__))) != SRC:
        fail(f"imported cdcalc from {cdcalc.__file__}, expected it under {SRC}")
    import workloads

    return workloads


# -- statistics -----------------------------------------------------------------

def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values):
    """(p, value) for the highest ladder percentile with >= 10 samples beyond it."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        if n - max(1, ceil(p / 100 * n)) >= 10:
            return p, percentile(sorted_values, p)
    return 50.0, statistics.median(sorted_values)


# -- probes in fresh interpreters -------------------------------------------------

def measure_setup(workload: str, seed: int, probe) -> list[float]:
    """Seconds from spawning an interpreter to its inputs being ready, per probe.

    Each set-up probe is followed by a sample of the host-speed `probe`.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            fail(f"set-up probe failed (exit {code})")
        times.append(elapsed)
        probe.sample()
    return times


def measure_cli_startup(env: dict) -> tuple[float, float]:
    """Median ms of a bare interpreter, and of `import cdcalc.cli` beyond it."""
    floor, imported = [], []
    for _ in range(CLI_PROBES):
        for code, sink in (("pass", floor), ("import cdcalc.cli", imported)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            sink.append((time.perf_counter() - start) * 1000)
    floor_ms = statistics.median(floor)
    return floor_ms, statistics.median(imported) - floor_ms


# -- runs -------------------------------------------------------------------------

ERROR = object()


class Tally:
    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def gate(self, i, out) -> None:
        self.attempted += 1
        try:
            ok = out is not ERROR and self.wl.check(i, out)
        except Exception:  # a gate that cannot evaluate the output counts the op as wrong
            ok = False
        if not ok:
            self.failed += 1


def invoke(fn, i):
    try:
        return fn(i)
    except Exception:  # counted as a failed operation by the gate
        return ERROR


@contextlib.contextmanager
def checkpoints(points, probe):
    """Sample `probe` after every call to the library functions `points`.

    A long operation is then paired with reference samples taken while it
    runs.  The functions are replaced where they are defined, so calls the
    library makes through its own module globals are seen; one that no longer
    exists is skipped, and the probe is then sampled between operations only.
    """
    saved = []
    for module, attr in points:
        fn = getattr(module, attr, None)
        if not callable(fn):
            continue

        def wrapper(*args, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            probe.checkpoint()
            return out

        saved.append((module, attr, fn))
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def run_untraced(wl, seconds: float, tally: Tally, probe):
    """Passes over the pool until `seconds` have gone by, at least one whole pass.

    Returns, by pool index, the ns each repeat of an operation took scaled to
    nominal host speed, the same unscaled, and the work units of each
    operation.  The host-speed `probe` is sampled between operations and at
    the workload's checkpoints inside them, in step with the time they take.
    """
    scaled = [[] for _ in range(wl.size)]
    raw = [[] for _ in range(wl.size)]
    work = [0] * wl.size
    probe.warm_up()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    i = 0
    with checkpoints(wl.checkpoints, probe):
        while i < wl.size or time.perf_counter_ns() < deadline:
            index = i % wl.size
            probe.begin()
            out = invoke(wl.call, index)
            elapsed, factor = probe.end()
            scaled[index].append(elapsed * factor)
            raw[index].append(elapsed)
            tally.gate(index, out)
            if out is not ERROR:
                work[index] = wl.work(out)
            i += 1
    return scaled, raw, work


def run_pass(wl, tally: Tally, tracer=None) -> int:
    """One in-process pass over the pool, gated after the timed region; returns ns."""
    clock = time.perf_counter_ns
    outs = []
    if tracer is not None:
        tracer.install()
    try:
        start = clock()
        for index in range(wl.size):
            if tracer is not None:
                tracer.op_id = index
            outs.append(invoke(wl.call_inprocess, index))
        elapsed = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.recording = False
    for index, out in enumerate(outs):
        tally.gate(index, out)
    return elapsed


def pool_metrics(per_op: list[float], work: list[int]):
    """op_ms_p50, op_ms_tail, work_per_s and the tail percentile from per-operation ns."""
    ordered = sorted(per_op)
    tail_p, tail_ns = tail(ordered)
    return statistics.median(ordered) / 1e6, tail_ns / 1e6, sum(work) / (sum(ordered) / 1e9), tail_p


def end_to_end(wl, seconds, setup_times, setup_probe, probe, summary):
    tally = Tally(wl)
    scaled, raw, work = run_untraced(wl, seconds, tally, probe)
    rusage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    p50, tail_ms, per_s, tail_p = pool_metrics([statistics.median(t) for t in scaled], work)
    setup_s = statistics.median(setup_times)
    metrics = {
        "setup_s": setup_s * setup_probe.scale(),
        "peak_rss_mb": rusage / 1024,
        "op_ms_p50": p50,
        "op_ms_tail": tail_ms,
        "work_per_s": per_s,
    }
    fewest = min(len(times) for times in scaled)
    summary.append(
        f"samples: {tally.attempted} operations, each of the {wl.size} in the pool "
        f"repeated at least {fewest} times; tail percentile p{tail_p:g}"
    )
    for label, used in (("run", probe), ("set-up", setup_probe)):
        summary.append(
            f"host speed ({label}): {len(used.samples)} {used.kind} reference samples, "
            f"median {statistics.median(used.samples) / 1e6:.4g} ms, "
            f"nominal {NOMINAL_NS[used.kind] / 1e6:g} ms"
        )
    unscaled = pool_metrics([statistics.median(t) for t in raw], work)
    summary.append(
        f"unscaled: setup_s = {setup_s:.6g}, op_ms_p50 = {unscaled[0]:.6g}, "
        f"op_ms_tail = {unscaled[1]:.6g}, work_per_s = {unscaled[2]:.6g}"
    )
    return tally, metrics, END_TO_END_UNITS


def traced(wl, seconds, workload, stamp, summary, child_env):
    from tracer import Tracer

    tally = Tally(wl)
    tracer = Tracer()
    plain, with_trace = [], []
    deadline = time.perf_counter() + seconds
    while not with_trace or time.perf_counter() < deadline:
        plain.append(run_pass(wl, tally))
        tracer.recording = not with_trace
        with_trace.append(run_pass(wl, tally, tracer))
    passes = len(with_trace)
    floor_ms, import_ms = measure_cli_startup(child_env)

    def layer(name):
        base, _, field = name.rpartition(".")
        if field == "us":
            return tracer.self_ns.get(base, 0) / 1000 / passes
        if field == "calls":
            return tracer.calls.get(base, 0) / passes
        return tracer.sizes.get(name, 0) / passes

    untraced_ms = statistics.median(plain) / 1e6
    traced_ms = statistics.median(with_trace) / 1e6
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name == "cli.interp_floor_ms":
            metrics[name] = floor_ms
        elif name == "cli.import_ms":
            metrics[name] = import_ms
        elif name == "trace.overhead_ms":
            metrics[name] = traced_ms - untraced_ms
        elif name == "trace.overhead_pct":
            metrics[name] = (traced_ms - untraced_ms) / untraced_ms * 100
        else:
            metrics[name] = layer(name)
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{workload}.json"), stamp, passes)
    summary.append(
        f"passes: {passes} untraced + {passes} traced of {wl.size} operations; "
        f"untraced {untraced_ms:.3f} ms, traced {traced_ms:.3f} ms per pass"
    )
    return tally, metrics, PER_LAYER_UNITS


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(workload: str, seed: int, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


# Names the summary also prints for the generic metrics, per workload.
ALIASES = {
    "verify-sweep": {"op_ms_p50": ("sweep_s", 1e-3, "s"), "work_per_s": ("checks_per_s", 1, "1/s")},
    "cli-queries": {"op_ms_p50": ("cli_ms_p50", 1, "ms"), "op_ms_tail": ("cli_ms_tail", 1, "ms")},
    "library-mix": {"op_ms_p50": ("lib_us_p50", 1e3, "us"), "op_ms_tail": ("lib_us_tail", 1e3, "us"),
                    "work_per_s": ("lib_ops_per_s", 1, "1/s")},
}


def measure(workload: str, seed: int, seconds: float, trace: bool, prepare=None) -> dict:
    """Set up, run and gate one workload; returns the result object.

    `prepare(wl)` may adjust the workload before it runs (used by the self-test).
    """
    workloads = load_workloads()
    if not trace:
        env = workloads.cli_env(ROOT)
        setup_probe = Probe("spawn", env, ROOT)
        setup_times = measure_setup(workload, seed, setup_probe)
    wl = workloads.WORKLOADS[workload](seed, ROOT)
    if prepare is not None:
        prepare(wl)
    stamped = stamp(workload, seed, trace)
    summary = [f"env: {json.dumps(stamped, sort_keys=True)}"]
    if trace:
        tally, metrics, units = traced(wl, seconds, workload, stamped, summary, workloads.cli_env(ROOT))
    else:
        probe = Probe(wl.reference, env, ROOT)
        tally, metrics, units = end_to_end(wl, seconds, setup_times, setup_probe, probe, summary)
    for name, value in metrics.items():
        line = f"{name} = {value:.6g} {units[name]}"
        alias = ALIASES.get(workload, {}).get(name)
        if alias and not trace:
            line += f"  ({alias[0]} = {value * alias[1]:.6g} {alias[2]})"
        summary.append(line)
    summary.append(f"fail_frac = {tally.failed / tally.attempted:g} ({tally.failed}/{tally.attempted})")
    return {
        "summary": summary,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        workloads = load_workloads()
        workloads.WORKLOADS[args.workload](args.seed, ROOT)
        print("ready", flush=True)
        return 0
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be a positive number")
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome["summary"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
