"""Dual-path verification of the exact identities behind the cone bounds.

Every check computes its target along two genuinely different code paths —
a closed-form expression on one side, an independent expansion on the other
(raw push-pull summation, alternating factorial sums, or kernel-bundle
dimension bookkeeping) — and passes only on exact rational agreement.
Each `check_*` returns `(lhs, rhs, passed)` with both sides exact, and
`run_all` times and renders them; a failure never aborts a run.

Report ordering is fixed and planned, not sorted: `_rows` runs the checks by
id in sorted order and each id's rows ascending in the parameters (g, then
m), and yields each row as it is computed.  One writer per format (text, CSV,
JSON) writes the rows to a file object as they arrive and counts the
failures; `report_json`, `report_csv` and `cdcalc verify` all use them, so a
sweep is never held as one string.  Text and CSV read a row's params through
one `k=v` view, `_params`.  The JSON rendering is byte-deterministic once
per-check timings are masked.  `_write_json` fills a fixed template with each
field's JSON text (strings through the C escaper `json` itself uses, ints
through `str`) and writes exactly what `json.dumps(payload, indent=2)` would,
without `json.dumps`'s pure-Python encoder, which it runs whenever an indent
is set.
"""

import csv
import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb
from operator import attrgetter
from time import perf_counter_ns

from . import _EXPORTS, __version__
from .catalog import (
    KernelBundleData,
    LinearSeries,
    SystemData,
    c1d_class,
    dm_class,
    kernel_twist_h1,
    mult_degeneracy_class,
    chern_character,
    pushpull,
    subordinate_class,
    system_c1,
    twisted_kernel_class,
)
from .nsring import Ambient, NSClass, Record, _of, _pair, _require_ints, format_class, format_rational, pair

__all__ = list(_EXPORTS["checks"])


class CheckResult(Record):
    """One row of a report; `check_id`, `lhs` and `rhs` are strs, `params` maps str to int, `passed`
    is a bool and `micros` an int >= 0, the domain `report.schema.json` allows.  The row keeps its
    own copy of `params`, so a later change to the caller's dict leaves it as checked.
    `checks._run` builds its rows unchecked."""

    __slots__ = ("check_id", "params", "lhs", "rhs", "passed", "micros")

    def __init__(self, *values):
        super().__init__(*values)
        for name in ("check_id", "lhs", "rhs"):
            if type(text := getattr(self, name)) is not str:
                raise TypeError(f"CheckResult field {name} must be a str, got {text!r}")
        params, passed, micros = self.params, self.passed, self.micros
        if type(params) is not dict or not all(type(key) is str and type(value) is int
                                                for key, value in params.items()):
            raise TypeError(f"CheckResult field params must map str to int, got {params!r}")
        if type(passed) is not bool:
            raise TypeError(f"CheckResult field passed must be a bool, got {passed!r}")
        _require_ints("CheckResult field", micros=micros)
        if micros < 0:
            raise ValueError(f"CheckResult field micros must be nonnegative, got {micros}")
        super().__init__(values[0], dict(params), *values[2:])  # keep a copy of the checked params


class Report(Record):
    """A verification run: the package version, the genus range (each end at least 5) and the rows,
    in report order."""

    __slots__ = ("version", "g_min", "g_max", "checks")

    def __init__(self, version: str, g_min: int, g_max: int,
                 checks: list[CheckResult] | None = None):
        checks = [] if checks is None else checks
        if type(version) is not str:
            raise TypeError(f"Report field version must be a str, got {version!r}")
        _require_ints("Report field", g_min=g_min, g_max=g_max)
        for name, genus in (("g_min", g_min), ("g_max", g_max)):
            if genus < 5:
                raise ValueError(f"Report field {name} must be at least 5, got {genus}")
        if type(checks) is not list or not set(map(type, checks)) <= {CheckResult}:
            raise TypeError(f"Report field checks must be a list of CheckResult, got {checks!r}")
        super().__init__(version, g_min, g_max, checks)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(map(attrgetter("passed"), self.checks))  # each row's `passed` is a bool

    @property
    def failed(self) -> int:
        return len(self.checks) - self.passed


def _render(value) -> str:
    """One side of a check as text: a class, a scalar, or a tuple or list of them in parentheses."""
    if isinstance(value, NSClass):
        return format_class(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(map(_render, value)) + ")"
    return format_rational(value)


# -- closed-form oracles ------------------------------------------------------

def pairing_sum_theta(g: int) -> Fraction:
    """Alternating factorial sum equal to theta . (pencil-subordinate curve) = g.

    sum_{j=0}^{g-3} (-1)^j (j+1) g! / ((j+2)! (g-3-j)!), computed with no
    ring arithmetic at all, as an oracle independent of the class expansion.
    Each term is an integer, g!/((j+2)!(g-3-j)!) = binom(g, j+2) (g-2-j), so
    the sum runs in integers, over the signed binomial b_j = (-1)^j binom(g, j+2), kept
    running by b_{j+1} = -b_j (g-2-j)/(j+3) (an exact division).
    """
    total, signed = 0, comb(g, 2)
    for j in range(g - 2):
        total += (j + 1) * (g - 2 - j) * signed
        signed = -signed * (g - 2 - j) // (j + 3)
    return Fraction(total)


def pairing_sum_x(g: int) -> Fraction:
    """Companion sum with (j+3)! in the denominator; equals g - 2.

    Here g!/((j+3)!(g-3-j)!) = binom(g, j+3), and its signed value runs as in
    `pairing_sum_theta`, by (-1)^(j+1) binom(g, j+4) = -(-1)^j binom(g, j+3) (g-3-j)/(j+4).
    """
    total, signed = 0, comb(g, 3)
    for j in range(g - 2):
        total += (j + 1) * signed
        signed = -signed * (g - 3 - j) // (j + 4)
    return Fraction(total)


# -- individual checks --------------------------------------------------------

def check_pencil_pairings(g: int) -> tuple:
    """Pairings of theta, x and the boundary-candidate ray against the curve
    of divisors subordinate to a degree-(g-1) pencil on C_{g-2}.

    Ring path: subordinate-class expansion and top-degree evaluation, with
    D_1's value read from those of theta and x by linearity.
    Oracle path: the alternating factorial sums.  Expected (g, g-2, 0).
    """
    if g < 5:
        raise ValueError(f"pencil pairings need g >= 5, got g={g}")
    amb = Ambient(g, g - 2)
    gamma = subordinate_class(amb, LinearSeries(g - 1, 1))
    (theta, den), (x, _) = _pair(amb.theta(), gamma), _pair(amb.x(), gamma)  # both over gamma's denominator
    dm = dm_class(g, 1)  # (g-2)*theta - g*x: its pairing is linear in those of theta and x
    ring_path = (Fraction(theta, den), Fraction(x, den),
                 Fraction(dm._terms[0, 1] * theta + dm._terms[1, 0] * x, dm.den * den))
    s_theta, s_x = pairing_sum_theta(g), pairing_sum_x(g)
    oracle_path = (s_theta, s_x, (g - 2) * s_theta - g * s_x)
    return ring_path, oracle_path, ring_path == oracle_path == (g, g - 2, 0)


def check_pushpull_closed_form(g: int, m: int) -> tuple:
    """Raw push-pull of the moving-divisor class from C_{g-m} down to C_{g-2m}
    against its closed form binom(g,m)((g-2m)/g theta - x)."""
    closed = dm_class(g, m)  # first: its type and range checks make C_{g-m} a valid ambient
    raw = pushpull(c1d_class(Ambient._make(g, g - m)), m)
    return raw, closed, raw == closed


def check_kernel_decomposition(g: int) -> tuple:
    """Class of the subordinate locus of the canonical twist of the kernel
    bundle of K(-p), against the decomposition (push-pull class) + x.

    The twist has rank g-2 and degree (g-2)(2g-2)-(2g-3); with h^1 = g-1 the
    induced class lands on C_{g-2} and must equal (g-2)theta - (g-1)x.
    """
    if g < 5:
        raise ValueError(f"kernel decomposition check needs g >= 5, got g={g}")
    data = KernelBundleData(base_degree=2 * g - 3, base_sections=g - 1)
    twisted = twisted_kernel_class(g, data, kernel_twist_h1(data))
    amb = Ambient(g, g - 2)
    decomposition = dm_class(g, 1) + amb.x()
    literal = _of(amb, {(0, 1): g - 2, (1, 0): -(g - 1)}, 1)  # equal classes share an ambient
    return twisted, decomposition, twisted == decomposition == literal


def check_plane_quintic() -> tuple:
    """The genus-6 smooth plane quintic computations, at fixed (g, d) = (6, 4).

    (a) The push-pull divisor class is twice the class induced by the
        canonical twist of the kernel bundle of the conic bundle (degree 5,
        h^0 = 3); the h^1 = 3 input is obtained two ways (dimension
        bookkeeping and the h^1 shortcut rule) and cross-checked.
    (b) The difference z of the two pencil-subordinate curve classes pairs
        to (6, 3, 0) against theta, x, theta-2x.
    (c) Sanity for the smaller pencil: theta and x pair to (0, 1) against it.
    """
    g, d = 6, 4
    amb = Ambient(g, d)
    data = KernelBundleData(base_degree=5, base_sections=3)
    rank = data.kernel_rank
    f = rank * (2 * g - 2) + data.kernel_degree
    chi = f + rank * (1 - g)
    h1_bookkeeping = rank * d - chi  # dim V = rank*d on C_4 forces h^1 = 8 - chi
    h1_rule = kernel_twist_h1(data)
    twisted = twisted_kernel_class(g, data, h1_bookkeeping)
    dm = dm_class(g, 1)
    gamma5 = subordinate_class(amb, LinearSeries(5, 1))
    gamma4 = subordinate_class(amb, LinearSeries(4, 1))
    z = gamma5 - gamma4
    direction = amb.theta() - 2 * amb.x()
    lhs = (dm, pair(amb.theta(), z), pair(amb.x(), z), pair(direction, z),
           pair(amb.theta(), gamma4), pair(amb.x(), gamma4))
    rhs = (2 * twisted, 6, 3, 0, 0, 1)
    return lhs, rhs, (
        h1_bookkeeping == h1_rule == 3
        and dm == 2 * twisted  # so twisted lives on C_4 too: equal classes share an ambient
        and lhs[1:] == rhs[1:]
    )


def check_mult_and_chern(g: int, d: int, r: int, f: int) -> tuple:
    """Degeneracy class of the multiplication map and the low-degree parts of
    the Chern character of the induced bundle.

    The multiplication class is assembled from its two determinant terms and
    must simplify to r*theta - (r+1)*x; the Chern character must have
    degree-0 part r*d, degree-1 part equal to the induced determinant,
    and degree-2 part (r*d+r*g-f-r)/2 x^2 - r x*theta.
    """
    amb = Ambient(g, d)
    mult = mult_degeneracy_class(g, d, r)  # first: it refuses d < 2, so degree 2 exists on C_d
    ch = chern_character(amb, r, f, 2)
    det = system_c1(amb, SystemData(r, f, r * d))
    # The literals are built unchecked: the calls above have checked r and f as ints.
    lhs = (mult, ch.homogeneous_part(0), ch.homogeneous_part(1), ch.homogeneous_part(2))
    rhs = (_of(amb, {(0, 1): r, (1, 0): -(r + 1)}, 1), _of(amb, {(0, 0): r * d}, 1), det,
           _of(amb, {(2, 0): r * d + r * g - f - r, (1, 1): -2 * r}, 2))
    return lhs, rhs, lhs == rhs


# -- suite --------------------------------------------------------------------

def _run(check_id: str, fn, params: dict) -> CheckResult:
    start = perf_counter_ns()
    lhs, rhs, passed = fn(**params)
    micros = max(0, (perf_counter_ns() - start) // 1000)
    lhs_text = _render(lhs)
    # Equal values render alike (class term maps are canonical), so a passing row renders once.
    rhs_text = lhs_text if passed and lhs == rhs else _render(rhs)
    # Unchecked: `params` come from `_rows`'s own plan, so they are already {str: int}.
    return CheckResult._make(check_id, params, lhs_text, rhs_text, bool(passed), micros)


def _rows(g_min: int, g_max: int):
    """The suite's rows over a genus sweep, each run as it is read, in report order.

    The range is checked at once; the rows follow lazily.  The plan is written in report order:
    ids in sorted order, each id's rows ascending in (g, m), and plane-quintic once.  The table is
    built per call, so it holds the check functions the module has when the sweep starts.
    """
    _require_ints("run_all argument", g_min=g_min, g_max=g_max)
    if not 5 <= g_min <= g_max:
        raise ValueError(f"invalid genus range: need 5 <= gMin <= gMax, got [{g_min}, {g_max}]")
    plan = (  # (id, check, params at genus g)
        ("kernel-decomposition", check_kernel_decomposition, lambda g: [{"g": g}]),
        ("mult-chern", check_mult_and_chern,
         lambda g: [{"g": g, "d": g - 2, "r": g - 2, "f": (g - 2) * (2 * g - 2) - (2 * g - 3)}]),
        ("pencil-pairings", check_pencil_pairings, lambda g: [{"g": g}]),
        ("plane-quintic", check_plane_quintic, lambda g: [{}] if g == g_min else []),
        ("pushpull-closed-form", check_pushpull_closed_form,
         lambda g: [{"g": g, "m": m} for m in range(1, (g - 2) // 2 + 1)]),
    )
    return (_run(check_id, check, params) for check_id, check, at in plan
            for g in range(g_min, g_max + 1) for params in at(g))


def run_all(g_min: int, g_max: int) -> Report:
    """Run the whole suite over a genus sweep and aggregate a report.

    Per genus: the pencil pairings, the kernel decomposition, the push-pull
    closed form at every valid m, and one mult/Chern configuration (the
    canonical-twist numbers d = g-2, r = g-2, f = (g-2)(2g-2)-(2g-3)); the
    plane-quintic check runs once.  The rows come in the order `_rows` plans
    them, which is report order; nothing is sorted.  Deterministic given the
    range, apart from the per-check times, which exclude rendering.
    """
    return Report(__version__, g_min, g_max, list(_rows(g_min, g_max)))


def _write_json(out, g_min: int, g_max: int, rows, include_timing: bool = True,
                version: str = __version__) -> int:
    """Write the JSON report to `out` as the rows arrive; the number of rows that failed.

    The text is what `json.dumps(payload, indent=2)` writes for the report's payload:
    ASCII only, two-space indents, `{}` and `[]` for empty params and checks.  The records hold
    only what the schema allows, so strings go through the escaper and ints are written as they
    are.  The indents are written out: each substituted piece costs a step in the f-string.
    """
    out.write(f'{{\n  "version": {encode_basestring_ascii(version)},\n  "range": {{\n'
              f'    "gMin": {g_min},\n    "gMax": {g_max}\n  }},\n  "checks": [')
    total = failed = 0
    for total, c in enumerate(rows, 1):
        params = c.params
        if params:
            lines = []
            for key in sorted(params):
                lines.append(f"        {encode_basestring_ascii(key)}: {params[key]}")
            params = "{\n" + ",\n".join(lines) + "\n      }"
        else:
            params = "{}"
        lhs = encode_basestring_ascii(c.lhs)
        rhs = lhs if c.rhs is c.lhs else encode_basestring_ascii(c.rhs)  # `_run` gives a passing row one text
        out.write((",\n" if total > 1 else "\n")
                  + f'    {{\n      "id": {encode_basestring_ascii(c.check_id)},\n      "params": {params},\n'
                  f'      "lhs": {lhs},\n      "rhs": {rhs},\n'
                  f'      "passed": {"true" if c.passed else "false"},\n'
                  f'      "micros": {c.micros if include_timing else 0}\n    }}')
        failed += not c.passed
    out.write(("\n  ]" if total else "]") + f',\n  "summary": {{\n    "total": {total},\n'
              f'    "passed": {total - failed},\n    "failed": {failed}\n  }}\n}}\n')
    return failed


def report_json(report: Report, include_timing: bool = True) -> str:
    """Render a report as JSON with stable key order.

    With include_timing=False the micros fields are zeroed, making the
    output byte-identical across runs with the same inputs.
    """
    _write_json(buffer := io.StringIO(), report.g_min, report.g_max, report.checks, include_timing,
                report.version)
    return buffer.getvalue()


def _params(c: CheckResult) -> list[str]:
    """A row's params as "k=v" words in key order: the one view the text and CSV reports read."""
    return [f"{k}={v}" for k, v in sorted(c.params.items())]


def _write_csv(out, rows) -> int:
    """Write the CSV report to `out`, one line per row as it arrives; the number of rows that failed."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "params", "lhs", "rhs", "passed", "micros"])
    failed = 0
    for c in rows:
        writer.writerow([c.check_id, ";".join(_params(c)), c.lhs, c.rhs, "true" if c.passed else "false",
                         c.micros])
        failed += not c.passed
    return failed


def report_csv(report: Report) -> str:
    """Flatten a report to CSV, one row per check."""
    _write_csv(buffer := io.StringIO(), report.checks)
    return buffer.getvalue()


def _write_text(out, rows, status: dict[bool, str]) -> int:
    """Write each row's status word, id and params (both sides if it failed) to `out` as it arrives,
    then a summary; the number of rows that failed."""
    total = failed = 0
    for total, c in enumerate(rows, 1):
        out.write(" ".join([status[c.passed], c.check_id, *_params(c)])
                  + ("\n" if c.passed else f"  lhs={c.lhs}  rhs={c.rhs}\n"))
        failed += not c.passed
    out.write(f"summary: {total} checks, {total - failed} passed, {failed} failed\n")
    return failed
