"""The benchmark's workloads: seeded inputs, the operation to time, the gate.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Inputs come only from the seed; the
program under test sees the generated inputs and never a workload name.

A workload exposes
  * `size`                 -- the number of distinct operations in its pool,
  * `call(i)`              -- operation i as users run it (timed end to end),
  * `call_inprocess(i)`    -- the same operation in this process, for tracing,
  * `check(i, out)`        -- the output gate, run outside the timed region,
  * `work(out)`            -- units of work the output stands for,
  * `reference`            -- the host-speed reference task its times are
                              scaled by (hostspeed.py),
  * `checkpoints`          -- (module, function) pairs an operation calls,
                              after which the reference task may be sampled.
The library is always reached through module attributes at call time, so
the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

from cdcalc import catalog, checks, cli, conelab, nsring

# SHA-256 of report_json(run_all(5, 120), include_timing=False) for cdcalc
# 0.1.0: the byte-identical gate on the masked verification report.
VERIFY_SWEEP_DIGEST = "2320c07d2d6adbe3b1382b5c6ef3b57de1aa5453addb63720027eca5a6b9f967"
VERIFY_RANGE = (5, 120)


def falling(g: int, length: int) -> int:
    """g (g-1) ... (g-length+1): the value of x^k theta^(d-k) for length d-k."""
    product = 1
    for factor in range(g - length + 1, g + 1):
        product *= factor
    return product


def cli_env(root: str) -> dict:
    """The environment for a CLI subprocess: cdcalc from the checkout's src/."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 12))


def dense(rng: random.Random, amb, degrees) -> "nsring.NSClass":
    """A class with a random nonzero coefficient on every monomial of the given degrees."""
    terms = {(i, k - i): _coeff(rng) for k in degrees for i in range(k + 1)}
    return nsring.NSClass(amb, terms)


# -- verify-sweep -------------------------------------------------------------

class VerifySweep:
    """The batch path: one run_all(5, 120) plus the masked JSON report."""

    name = "verify-sweep"
    size = 1
    reference = "cpu"
    # A sweep runs for a second or more; the host's speed is sampled between its checks.
    checkpoints = tuple((checks, fn) for fn in (
        "check_pencil_pairings", "check_kernel_decomposition", "check_pushpull_closed_form",
        "check_mult_and_chern", "check_plane_quintic",
    ))

    def __init__(self, seed: int, root: str):
        # The sweep range is fixed; the seed has nothing to choose.
        self.digest = VERIFY_SWEEP_DIGEST

    def call(self, i):
        report = checks.run_all(*VERIFY_RANGE)
        return report.failed, report.total, checks.report_json(report, include_timing=False)

    call_inprocess = call

    def check(self, i, out) -> bool:
        failed, _total, text = out
        return failed == 0 and hashlib.sha256(text.encode()).hexdigest() == self.digest

    def work(self, out) -> int:
        return out[1]


# -- cli-queries --------------------------------------------------------------

def _ref(name: str, *args: int) -> str:
    return "<" + " ".join([name, *map(str, args)]) + ">"


class CliQueries:
    """A stream of `python -m cdcalc.cli ...` subprocess calls at g <= 12."""

    name = "cli-queries"
    reference = "spawn"
    checkpoints = ()
    KINDS = ("class", "eval", "pair", "pushpull", "cone") * 8 + ("cone-bounds",) * 4 + ("verify",) * 2

    def __init__(self, seed: int, root: str):
        rng = random.Random(f"cli-queries:{seed}")
        kinds = list(self.KINDS)
        rng.shuffle(kinds)
        self.queries = [getattr(self, "_gen_" + kind.replace("-", "_"))(rng) for kind in kinds]
        self.size = len(self.queries)
        self.expected: dict[int, str] = {}
        self.env = cli_env(root)
        self.root = root

    # Each generator returns (argv, expected-stdout thunk, masks micros?).

    def _gen_class(self, rng):
        g = rng.randint(5, 12)
        name = rng.choice(("gamma", "diagonal", "c1d", "canonical", "dm", "system-c1", "ch", "rho", "mult-class"))
        amb_d = rng.randint(2, g)
        argv = ["class", "--name", name, "--g", str(g)]
        if name == "gamma":
            d, r = amb_d, rng.randint(0, amb_d)
            n = rng.randint(d, 2 * g)
            argv += ["--d", str(d), "--n", str(n), "--r", str(r)]
            build = lambda: catalog.subordinate_class(nsring.Ambient(g, d), catalog.LinearSeries(n, r))
        elif name == "diagonal":
            d = amb_d
            argv += ["--d", str(d)]
            build = lambda: catalog.diagonal_class(nsring.Ambient(g, d))
        elif name == "c1d":
            d = rng.randint((g + 2) // 2, g)
            argv += ["--d", str(d)]
            build = lambda: catalog.c1d_class(nsring.Ambient(g, d))
        elif name == "canonical":
            d = amb_d
            argv += ["--d", str(d)]
            build = lambda: nsring.canonical_class(nsring.Ambient(g, d))
        elif name == "dm":
            m = rng.randint(1, (g - 2) // 2)
            argv += ["--m", str(m)]
            build = lambda: catalog.dm_class(g, m)
        elif name == "system-c1":
            d, rank, f = amb_d, rng.randint(1, 3), rng.randint(0, 3 * g)
            argv += ["--d", str(d), "--rank", str(rank), "--f", str(f), "--dim-v", str(rank * d)]
            build = lambda: catalog.system_c1(nsring.Ambient(g, d), catalog.SystemData(rank, f, rank * d))
        elif name == "ch":
            d, rank, f, top = amb_d, rng.randint(1, 3), rng.randint(0, 3 * g), rng.randint(0, amb_d)
            argv += ["--d", str(d), "--rank", str(rank), "--f", str(f), "--max-degree", str(top)]
            build = lambda: catalog.chern_character(nsring.Ambient(g, d), rank, f, top)
        elif name == "rho":
            r, d = rng.randint(0, 3), rng.randint(1, 2 * g)
            argv += ["--r", str(r), "--d", str(d)]
            return argv, lambda: f"{catalog.brill_noether_rho(g, r, d)}\n", False
        else:  # mult-class
            d = rng.randint(2, g - 1)
            r = -(-d // (g - d)) + rng.randint(0, 2)
            argv += ["--d", str(d), "--r", str(r)]
            build = lambda: catalog.mult_degeneracy_class(g, d, r)
        return argv, lambda: nsring.format_class(build()) + "\n", False

    def _gen_eval(self, rng):
        g = rng.randint(3, 12)
        d = rng.randint(1, g)
        amb = nsring.Ambient(g, d)
        if rng.random() < 0.3:
            n = rng.randint(d, 2 * g)
            expr = _ref("gamma", g, d, n, 0)
            build = lambda: catalog.subordinate_class(amb, catalog.LinearSeries(n, 0))
        else:
            cls = dense(rng, amb, [d])
            expr = nsring.format_class(cls)
            build = lambda: cls
        argv = ["eval", "--g", str(g), "--d", str(d), "--expr", expr]
        return argv, lambda: nsring.format_rational(nsring.eval_top(build())) + "\n", False

    def _gen_pair(self, rng):
        g = rng.randint(5, 12)
        d = rng.randint(2, g)
        amb = nsring.Ambient(g, d)
        variant = rng.randrange(3)
        if variant == 0:  # inline a against a subordinate-locus reference
            r = rng.randint(1, d - 1)
            n = rng.randint(d, 2 * g)
            a = dense(rng, amb, [r])
            a_text, b_text = nsring.format_class(a), _ref("gamma", g, d, n, r)
            b_build = lambda: catalog.subordinate_class(amb, catalog.LinearSeries(n, r))
            a_build = lambda: a
        elif variant == 1:  # diagonal reference against an inline class
            b = dense(rng, amb, [d - 1])
            a_text, b_text = _ref("diagonal", g, d), nsring.format_class(b)
            a_build = lambda: catalog.diagonal_class(amb)
            b_build = lambda: b
        else:
            p = rng.randint(1, d - 1)
            a, b = dense(rng, amb, [p]), dense(rng, amb, [d - p])
            a_text, b_text = nsring.format_class(a), nsring.format_class(b)
            a_build, b_build = (lambda: a), (lambda: b)
        argv = ["pair", "--g", str(g), "--d", str(d), "--a", a_text, "--b", b_text]
        return argv, lambda: nsring.format_rational(nsring.pair(a_build(), b_build())) + "\n", False

    def _gen_pushpull(self, rng):
        g = rng.randint(5, 12)
        d = rng.randint(2, g)
        k = rng.randint(1, d - 1)
        amb = nsring.Ambient(g, d)
        cls = dense(rng, amb, sorted(rng.sample(range(d + 1), min(3, d + 1))))
        argv = ["pushpull", "--g", str(g), "--d", str(d), "--k", str(k), "--expr", nsring.format_class(cls)]
        return argv, lambda: nsring.format_class(catalog.pushpull(cls, k)) + "\n", False

    def _gen_cone(self, rng):
        g = rng.randint(5, 12)
        amb = nsring.Ambient(g, g - 2)
        if rng.random() < 0.25:  # a multiple of the non-diagonal boundary ray
            scale = rng.randint(1, 9)
            query = nsring.NSClass(amb, {(0, 1): scale * (g - 2), (1, 0): -scale * g})
        else:
            query = dense(rng, amb, [1])
        argv = ["cone", "--curve", "general", "--g", str(g), "--d", str(g - 2),
                "--query", nsring.format_class(query)]

        def expect():
            cone = conelab.general_effective_cone_gm2(g)
            inside = "true" if conelab.contains(cone, query) else "false"
            return f"ray: {cone.ray1}\nray: {cone.ray2}\ncontains: {inside}\n"

        return argv, expect, False

    def _gen_cone_bounds(self, rng):
        g = rng.randint(6, 12)
        curve, d = rng.choice([
            ("hyperelliptic", g - 2), ("hyperelliptic", g - 1), ("trigonal", g - 2),
            # d = g-2 would print the full general cone instead of a catalogue entry
            ("general", g - 2 * rng.randint(2, (g - 2) // 2)), ("planeQuintic", 4),
        ])
        if curve == "planeQuintic":
            g = 6
        argv = ["cone", "--curve", curve, "--g", str(g), "--d", str(d)]

        def expect():
            return "".join(
                f"{e.curve.value} g={e.g} d={e.d}: {e.ray} [{e.status.value}]\n"
                for e in conelab.known_bounds(conelab.CurveClass(curve), g, d)
            )

        return argv, expect, False

    def _gen_verify(self, rng):
        g_max = rng.randint(5, 7)
        argv = ["verify", "--g-min", "5", "--g-max", str(g_max), "--format", "json"]
        return argv, lambda: checks.report_json(checks.run_all(5, g_max), include_timing=False), True

    # -- operation and gate ----------------------------------------------------

    def call(self, i):
        argv = self.queries[i][0]
        proc = subprocess.run(
            [sys.executable, "-m", "cdcalc.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def call_inprocess(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.queries[i][0]))
        return code, out.getvalue()

    def expect(self, i) -> str:
        if i not in self.expected:
            self.expected[i] = self.queries[i][1]()
        return self.expected[i]

    def check(self, i, out) -> bool:
        code, stdout = out
        if code != 0:
            return False
        if self.queries[i][2]:  # per-check timings are the only nondeterministic field
            try:
                payload = json.loads(stdout)
            except ValueError:
                return False
            for entry in payload.get("checks", ()):
                entry["micros"] = 0
            stdout = json.dumps(payload, indent=2) + "\n"
        return stdout == self.expect(i)

    def work(self, out) -> int:
        return 1


# -- library-mix --------------------------------------------------------------

class Strata:
    """Stratified integer draws, one stream per named size of an operation kind.

    Over `count` draws of one name each of `count` equal slices of [0, 1) is
    used once, in a seeded order: every seed spreads the sizes of the pool
    evenly over their ranges, and only their combination, their order and
    the coefficients vary with the seed.
    """

    def __init__(self, rng: random.Random, count: int):
        self.rng, self.count, self.streams = rng, count, {}

    def randint(self, name: str, lo: int, hi: int) -> int:
        stream = self.streams.get(name)
        if stream is None:
            stream = [(k + self.rng.random()) / self.count for k in range(self.count)]
            self.rng.shuffle(stream)
            self.streams[name] = stream
        return lo + int(stream.pop() * (hi - lo + 1))


class LibraryMix:
    """In-process calls on dense random classes, in a fixed round-robin of five kinds."""

    name = "library-mix"
    reference = "cpu"
    checkpoints = ()
    POOL = 3000
    KINDS = ("pair", "pushpull", "roundtrip", "eval_top", "contains")

    def __init__(self, seed: int, root: str):
        rng = random.Random(f"library-mix:{seed}")
        strata = {kind: Strata(rng, self.POOL // len(self.KINDS)) for kind in self.KINDS}
        self.ops = []
        for n in range(self.POOL):
            kind = self.KINDS[n % len(self.KINDS)]
            self.ops.append(getattr(self, "_gen_" + kind)(rng, strata[kind]))
        self.size = len(self.ops)
        self.first: dict[int, object] = {}
        self.falling = falling

    def _gen_pair(self, rng, size):
        g = size.randint("g", 8, 60)
        d = size.randint("d", 2, min(g, 30))
        p = size.randint("p", 1, d - 1)
        amb = nsring.Ambient(g, d)
        return ("pair", dense(rng, amb, [p]), dense(rng, amb, [d - p]))

    def _gen_pushpull(self, rng, size):
        k = size.randint("k", 1, 3)
        g = size.randint("g", 8, 60)
        d = size.randint("d", k + 2, 12)
        return ("pushpull", dense(rng, nsring.Ambient(g, d), range(d + 1)), k)

    def _gen_roundtrip(self, rng, size):
        g = size.randint("g", 8, 60)
        d = size.randint("d", 2, 12)
        return ("roundtrip", dense(rng, nsring.Ambient(g, d), range(d + 1)))

    def _gen_eval_top(self, rng, size):
        g = size.randint("g", 200, 3000)
        d = size.randint("d", 1, 4)
        return ("eval_top", dense(rng, nsring.Ambient(g, d), [d]))

    def _gen_contains(self, rng, size):
        g = size.randint("g", 5, 60)
        amb = nsring.Ambient(g, g - 2)
        if size.randint("boundary", 0, 3) == 0:  # on a boundary ray: theta - g/(g-2) x, or the diagonal
            scale = rng.randint(1, 9)
            terms = rng.choice(({(0, 1): g - 2, (1, 0): -g}, {(0, 1): -1, (1, 0): 2 * g - 3}))
            query = nsring.NSClass(amb, {key: scale * c for key, c in terms.items()})
        else:
            query = dense(rng, amb, [1])
        return ("contains", g, query)

    def call(self, i):
        op = self.ops[i]
        kind = op[0]
        if kind == "pair":
            return nsring.pair(op[1], op[2])
        if kind == "pushpull":
            return catalog.pushpull(op[1], op[2])
        if kind == "roundtrip":
            c = op[1]
            return cli.parse_class(nsring.format_class(c), c.ambient)
        if kind == "eval_top":
            return nsring.eval_top(op[1])
        return conelab.contains(conelab.general_effective_cone_gm2(op[1]), op[2])

    call_inprocess = call

    def relation(self, i, out) -> bool:
        """An identity the output must satisfy, computed independently of the call."""
        op = self.ops[i]
        kind = op[0]
        if kind == "pair":
            a, b = op[1], op[2]
            g, d = a.ambient.g, a.ambient.d
            ref = Fraction(0)
            for (i1, _j1), c1 in a.terms().items():
                for (i2, _j2), c2 in b.terms().items():
                    ref += c1 * c2 * self.falling(g, d - i1 - i2)
            return out == ref
        if kind == "pushpull":
            # Semigroup law: pushpull(pushpull(c, k), 1) == comb(k+1, k) pushpull(c, k+1).
            c, k = op[1], op[2]
            return catalog.pushpull(out, 1) == comb(k + 1, k) * catalog.pushpull(c, k + 1)
        if kind == "roundtrip":
            return out == op[1] and nsring.format_class(out) == nsring.format_class(op[1])
        if kind == "eval_top":
            c = op[1]
            ref = Fraction(0)
            for (i1, _j), coeff in c.terms().items():
                ref += coeff * self.falling(c.ambient.g, c.ambient.d - i1)
            return out == ref
        # contains: orientation test against the two rays, diagonal and theta - g/(g-2) x.
        g, query = op[1], op[2]
        a, b = query.coefficient(0, 1), query.coefficient(1, 0)
        r1, r2 = (Fraction(-1), Fraction(2 * g - 3)), (Fraction(1), Fraction(-g, g - 2))
        cross = lambda u, v: u[0] * v[1] - u[1] * v[0]
        turn = cross(r1, r2)
        return out == (cross(r1, (a, b)) * turn >= 0 and cross((a, b), r2) * turn >= 0)

    def check(self, i, out) -> bool:
        if i not in self.first:
            self.first[i] = (out, self.relation(i, out))
        first, verdict = self.first[i]
        return verdict and out == first

    def work(self, out) -> int:
        return 1


WORKLOADS = {w.name: w for w in (VerifySweep, CliQueries, LibraryMix)}
