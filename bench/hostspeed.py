"""Host-speed probes that the end-to-end timings are scaled by.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over tens of seconds as other tenants' load comes and goes.
A run therefore interleaves a fixed reference task with the operations it
times, and scales each time it measures to a nominal host speed:

    scaled = measured * nominal / (median time of the nearby reference samples)

where the nearby samples are those taken while the operation ran and right
after it, or the last LOCAL samples if there are fewer than that.

There is one reference task for each kind of work the benchmark times:

  cpu    exact arithmetic defined here (products of polynomials with Fraction
         coefficients, evaluated with falling factorials), independent of
         cdcalc; for in-process calls,
  spawn  a bare interpreter, `python -c pass` in the CLI's environment; for
         the CLI subprocesses and the set-up probes.

A task's nominal time is its median on the 2-vCPU VM the benchmark was tuned
on, when that VM was quiet, so scaled figures read as that VM's times.  A
change to cdcalc moves the measured times and not the reference tasks, so it
moves a scaled figure by the same share as the unscaled one.  (A change to
process-wide interpreter state, such as garbage-collector settings made on
import, would move the cpu task too; the summary prints the unscaled figures
beside the scaled ones.)
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

NOMINAL_NS = {"cpu": 450_000, "spawn": 55_000_000}

# Reference time to spend per unit of timed work: enough samples to follow the
# host's drift, spread evenly through the run.
SHARE = {"cpu": 0.1, "spawn": 0.4}

# The fewest reference samples a time is scaled by.
LOCAL = 9


def _polynomial(rng: random.Random, degree: int) -> dict:
    return {
        (i, degree - i): Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 12))
        for i in range(degree + 1)
    }


def _cases():
    rng = random.Random("cdcalc-bench-reference")  # fixed: the same task in every run
    cases = []
    for _ in range(3):
        g, d = rng.randint(20, 60), rng.randint(6, 14)
        p = rng.randint(1, d - 1)
        cases.append((g, d, _polynomial(rng, p), _polynomial(rng, d - p)))
    return cases


CASES = _cases()


def _falling(g: int, length: int) -> int:
    product = 1
    for factor in range(g - length + 1, g + 1):
        product *= factor
    return product


def cpu_task() -> Fraction:
    total = Fraction(0)
    for g, d, a, b in CASES:
        product: dict = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                product[key] = product.get(key, 0) + c1 * c2
        for (i, _j), c in product.items():
            total += c * _falling(g, d - i)
    return total


class Probe:
    """Samples one reference task, interleaved with the work being timed.

    The timed work is bracketed by `begin()` and `end()`; the task is sampled
    until it has run for `share` of the time the work has taken, at `end()`
    and at every `checkpoint()` a long operation passes.  Samples taken inside
    an operation are left out of its time.
    """

    def __init__(self, kind: str, env: dict, cwd: str):
        self.kind = kind
        self.share = SHARE[kind]
        if kind == "cpu":
            self.task = cpu_task
        else:
            argv = [sys.executable, "-c", "pass"]
            self.task = lambda: subprocess.run(argv, cwd=cwd, env=env, check=True)
        self.samples: list[int] = []
        self.spent = 0
        self.busy = 0
        self._start = self._spent_at_start = self._first = 0

    def _run(self) -> int:
        start = time.perf_counter_ns()
        self.task()
        elapsed = time.perf_counter_ns() - start
        self.samples.append(elapsed)
        return elapsed

    def warm_up(self) -> None:
        """Take LOCAL samples before any work, so the first times have their own."""
        for _ in range(LOCAL):
            self._run()

    def sample(self) -> None:
        self.spent += self._run()

    def _keep_up(self, busy: int) -> None:
        while self.spent < self.share * busy:
            self.sample()

    def _elapsed(self) -> int:
        return time.perf_counter_ns() - self._start - (self.spent - self._spent_at_start)

    def begin(self) -> None:
        self._first = len(self.samples)
        self._start, self._spent_at_start = time.perf_counter_ns(), self.spent

    def checkpoint(self) -> None:
        self._keep_up(self.busy + self._elapsed())

    def end(self) -> tuple[int, float]:
        """The ns since `begin()`, less the samples taken in between, and the
        factor that takes it to nominal host speed."""
        elapsed = self._elapsed()
        self.busy += elapsed
        self._keep_up(self.busy)
        nearby = self.samples[self._first:]
        if len(nearby) < LOCAL:
            nearby = self.samples[-LOCAL:]
        return elapsed, NOMINAL_NS[self.kind] / statistics.median(nearby)

    def scale(self) -> float:
        """The factor that takes the times of this whole run to nominal host speed."""
        return NOMINAL_NS[self.kind] / statistics.median(self.samples)
