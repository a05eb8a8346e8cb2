import hashlib
import json
import platform
import subprocess
import sys
from fractions import Fraction
from math import comb
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from cdcalc import (
    Ambient,
    CheckResult,
    LinearSeries,
    NSClass,
    Report,
    check_kernel_decomposition,
    check_mult_and_chern,
    check_pencil_pairings,
    check_plane_quintic,
    check_pushpull_closed_form,
    dm_class,
    pair,
    report_csv,
    report_json,
    run_all,
    subordinate_class,
)
from cdcalc.checks import _render, pairing_sum_theta, pairing_sum_x
from cdcalc.cli import main
import crossversion
from report_oracle import report_json as reference_report_json


def reference_sum_theta(g):
    """`pairing_sum_theta` as its docstring writes it, one binomial per term."""
    return sum((-1) ** j * (j + 1) * comb(g, j + 2) * (g - 2 - j) for j in range(g - 2))


def reference_sum_x(g):
    """`pairing_sum_x` as its docstring writes it, one binomial per term."""
    return sum((-1) ** j * (j + 1) * comb(g, j + 3) for j in range(g - 2))


def test_closed_form_sums():
    # the two alternating factorial sums collapse to g and g-2, and their running
    # signed binomials agree with the term-by-term forms
    for g in range(5, 301):
        assert pairing_sum_theta(g) == reference_sum_theta(g) == g
        assert pairing_sum_x(g) == reference_sum_x(g) == g - 2


def test_masked_report_is_byte_identical():
    # SHA-256 of the timing-masked 5..40 report at version 0.1.0: any rewrite
    # of the ring or the checks must reproduce it byte for byte
    text = report_json(run_all(5, 40), include_timing=False)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == crossversion.SWEEP_DIGESTS[5, 40]


def test_masked_benchmark_sweep_is_byte_identical():
    # the same for 5..120, the sweep the benchmark's verify-sweep workload checks on every call
    text = report_json(run_all(5, 120), include_timing=False)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == crossversion.SWEEP_DIGESTS[5, 120]


def test_cross_version_runner_passes_on_this_interpreter():
    # the runner kept for other interpreters, run on this one so that it cannot rot
    run = subprocess.run([sys.executable, crossversion.__file__, sys.executable],
                         capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == f"{sys.executable}: Python {platform.python_version()}: ok\n"


# Text that needs escaping: quotes, backslashes, control characters, non-ASCII (astral and surrogates).
TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "θ", "\u2028", "\U0001d703", "\ud800"]
texts = st.lists(st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=6).map("".join)
ints = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**400, 10**400))
naturals = st.one_of(st.integers(0, 10**6), st.integers(0, 10**400))
genera = st.one_of(st.integers(5, 10**6), st.integers(5, 10**400))
params = st.dictionaries(texts, ints, max_size=4)  # the schema's domain, which CheckResult enforces
rows = st.builds(CheckResult, texts, params, texts, texts, st.booleans(), naturals)
reports = st.builds(Report, texts, genera, genera, st.lists(rows, max_size=5))
ROW = CheckResult("pencil-pairings", {"g": 5}, "(5, 3, 0)", "(5, 3, 1)", False, 12)


@settings(max_examples=300, deadline=None)
@given(reports)
@example(Report("0.1.0", 5, 5, []))
@example(Report("0.1.0", 5, 6, [ROW, CheckResult("plane-quintic", {}, "1", "1", True, 3)]))
@example(Report('v"\\\x01é', 5, 10**300, [CheckResult("x", {"s\u2028": -(10**250), "\ud800": 0},
                                                      "\ud800", "θ", True, 10**250)]))
def test_report_json_matches_the_reference_renderer(report):
    for include_timing in (True, False):
        assert report_json(report, include_timing) == reference_report_json(report, include_timing)


@pytest.mark.parametrize("params", [{"g": 5.0}, {"g": True}, {"g": "5"}, {"g": None}, {5: 5},
                                    {True: 5}, [("g", 5)], None, ()])
def test_check_result_refuses_params_outside_the_schema(params):
    with pytest.raises(TypeError, match=r"^CheckResult field params must map str to int, got "):
        CheckResult("demo", params, "1", "1", True, 0)


def test_report_json_matches_the_reference_renderer_on_a_sweep():
    report = run_all(5, 12)
    for include_timing in (True, False):
        assert report_json(report, include_timing) == reference_report_json(report, include_timing)


SCHEMA = jsonschema.Draft7Validator(
    json.loads(resources.files("cdcalc").joinpath("report.schema.json").read_text()))

# A value of each kind a caller may pass for a record field, in the schema's domain or outside it.
kinds = st.one_of(texts, st.integers(-10, 10), ints, st.booleans(), st.floats(), st.none(),
                  st.lists(st.integers(), max_size=2), params)


def either(valid):
    """A field's valid values, or a value of any kind."""
    return st.one_of(valid, kinds)


def accepted(record, *values):
    """The record built from `values`, or None if the constructor refuses them."""
    try:
        return record(*values)
    except (TypeError, ValueError):
        return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*map(either, [texts, params, texts, texts, st.booleans(), naturals])), max_size=3),
       either(texts), either(genera), either(genera), either(st.just(...)))
@example([("x", {}, 5, True, True, 0)], "0.1.0", 5, 5, ...)
@example([("x", {}, "1", "1", True, 0)], "0.1.0", -7, 6, ...)
@example([], "0.1.0", 5, 4, ...)
def test_every_report_the_records_accept_is_valid_under_the_schema(row_values, version, g_min, g_max,
                                                                  checks):
    # `checks` is `...` for the rows the values build; a row the constructor refuses is left out
    rows = [row for values in row_values if (row := accepted(CheckResult, *values)) is not None]
    report = accepted(Report, version, g_min, g_max, rows if checks is ... else checks)
    if report is not None:
        for include_timing in (True, False):
            SCHEMA.validate(json.loads(report_json(report, include_timing)))


def _rows(report):
    """Rendered (lhs, rhs) per (check id, params) row of a report."""
    return {(c.check_id, tuple(sorted(c.params.items()))): (c.lhs, c.rhs) for c in report.checks}


def test_pencil_pairings_ring_path_is_three_pairings():
    # The check pairs only theta and x with gamma and reads D_1's value from them by linearity.
    for g in range(5, 61):
        amb = Ambient(g, g - 2)
        gamma = subordinate_class(amb, LinearSeries(g - 1, 1))
        assert check_pencil_pairings(g)[0] == (pair(amb.theta(), gamma), pair(amb.x(), gamma),
                                               pair(dm_class(g, 1), gamma)), g


def test_pencil_pairings_check():
    assert check_pencil_pairings(6) == ((6, 4, 0), (6, 4, 0), True)
    assert check_pencil_pairings(5)[0] == (5, 3, 0)
    assert check_pencil_pairings(25)[2]
    with pytest.raises(ValueError):
        check_pencil_pairings(4)
    rows = _rows(run_all(5, 6))
    assert rows["pencil-pairings", (("g", 6),)] == ("(6, 4, 0)", "(6, 4, 0)")
    assert rows["pencil-pairings", (("g", 5),)][0] == "(5, 3, 0)"


def test_pushpull_closed_form_check():
    lhs, rhs, passed = check_pushpull_closed_form(6, 1)
    assert passed
    assert lhs == rhs == dm_class(6, 1)
    assert check_pushpull_closed_form(6, 2)[0] == dm_class(6, 2)
    assert check_pushpull_closed_form(40, 19)[2]  # extreme m = g/2 - 1
    # the range check is dm_class's own, so its message comes first
    with pytest.raises(ValueError, match="m out of range"):
        check_pushpull_closed_form(6, 3)
    with pytest.raises(ValueError, match="m out of range"):
        check_pushpull_closed_form(6, 0)
    rows = _rows(run_all(5, 6))
    assert rows["pushpull-closed-form", (("g", 6), ("m", 1))] == ("4*theta - 6*x",) * 2
    assert rows["pushpull-closed-form", (("g", 6), ("m", 2))][0] == "5*theta - 15*x"


def test_kernel_decomposition_check():
    lhs, rhs, passed = check_kernel_decomposition(6)
    assert passed
    assert lhs == rhs == NSClass(Ambient(6, 4), {(0, 1): 4, (1, 0): -5})
    assert check_kernel_decomposition(5)[0] == NSClass(Ambient(5, 3), {(0, 1): 3, (1, 0): -4})
    assert check_kernel_decomposition(12)[2]
    with pytest.raises(ValueError):
        check_kernel_decomposition(4)
    rows = _rows(run_all(5, 6))
    assert rows["kernel-decomposition", (("g", 6),)] == ("4*theta - 5*x",) * 2
    assert rows["kernel-decomposition", (("g", 5),)][0] == "3*theta - 4*x"


def test_plane_quintic_check():
    lhs, rhs, passed = check_plane_quintic()
    assert passed
    assert lhs[0] == rhs[0] == dm_class(6, 1)
    assert lhs[1:] == rhs[1:] == (6, 3, 0, 0, 1)
    row = [c for c in run_all(5, 6).checks if c.check_id == "plane-quintic"]
    assert len(row) == 1 and row[0].params == {}
    assert row[0].lhs == row[0].rhs == "(4*theta - 6*x, 6, 3, 0, 0, 1)"


def test_mult_and_chern_check():
    lhs, rhs, passed = check_mult_and_chern(6, 4, 2, 15)
    assert passed
    assert lhs == rhs
    assert lhs[0] == NSClass(Ambient(6, 4), {(0, 1): 2, (1, 0): -3})
    assert lhs[3] == NSClass(Ambient(6, 4), {(1, 1): -2, (2, 0): Fraction(3, 2)})
    assert _render(lhs) == "(2*theta - 3*x, 8, 2*theta - 3*x, -2*x*theta + 3/2*x^2)"
    assert check_mult_and_chern(10, 7, 3, 11)[2]
    with pytest.raises(ValueError):
        check_mult_and_chern(6, 4, 1, 15)  # rank below d/(g-d)
    rows = _rows(run_all(5, 6))
    assert rows["mult-chern", (("d", 4), ("f", 31), ("g", 6), ("r", 4))] == (
        "(4*theta - 5*x, 16, 4*theta - 5*x, -4*x*theta + 5/2*x^2)",) * 2


def test_run_all_renders_a_failing_check(monkeypatch, capsys):
    # run_all reads the check functions from the module at call time, and
    # renders and reports whatever a check returns, failures included
    monkeypatch.setattr("cdcalc.checks.check_plane_quintic",
                        lambda: (Fraction(1), Fraction(2), False))
    report = run_all(5, 5)
    assert report.failed == 1
    (row,) = [c for c in report.checks if not c.passed]
    assert (row.check_id, row.lhs, row.rhs) == ("plane-quintic", "1", "2")
    assert main(["verify", "--g-min", "5", "--g-max", "5"]) == 2
    out = capsys.readouterr().out
    assert "FAIL plane-quintic  lhs=1  rhs=2\n" in out
    assert "summary: 5 checks, 4 passed, 1 failed" in out


def test_a_broken_identity_gives_fail_rows_not_a_cut_off_report(monkeypatch, capsys):
    # a wrong canonical class breaks r*theta - (r+1)*x: the mult-chern rows fail, the sweep goes on
    monkeypatch.setattr("cdcalc.catalog.canonical_class", lambda amb: amb.x())
    assert main(["verify", "--g-min", "5", "--g-max", "6"]) == 2
    out, err = capsys.readouterr()
    failing = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert (failing, err) == (["mult-chern", "mult-chern"], "")
    assert "summary: 10 checks, 8 passed, 2 failed" in out
    assert main(["verify", "--g-min", "5", "--g-max", "6", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and payload["summary"] == {"total": 10, "passed": 8, "failed": 2}
    assert [c["id"] for c in payload["checks"] if not c["passed"]] == ["mult-chern", "mult-chern"]



def _counting_render(monkeypatch):
    """Count the calls to `checks._render`, which `_run` makes once per side it writes."""
    from cdcalc import checks

    calls = []
    render = checks._render
    monkeypatch.setattr(checks, "_render", lambda value: calls.append(value) or render(value))
    return calls


def test_run_renders_both_sides_of_a_passing_check_whose_sides_differ(monkeypatch):
    # `passed` is the check's own verdict; the runner writes each side from its value.
    from cdcalc.checks import _run

    calls = _counting_render(monkeypatch)
    row = _run("demo", lambda: (Fraction(1), Fraction(2), True), {})
    assert (row.lhs, row.rhs, row.passed) == ("1", "2", True)
    assert calls == [Fraction(1), Fraction(2)]


def test_run_renders_a_passing_check_with_equal_sides_once(monkeypatch):
    from cdcalc.checks import _run

    calls = _counting_render(monkeypatch)
    amb = Ambient(6, 4)
    row = _run("demo", lambda g: (amb.theta() - amb.x(), NSClass(Ambient(6, 4), {(0, 1): 1, (1, 0): -1}), True),
               {"g": 6})
    assert len(calls) == 1 and row.lhs == row.rhs == "1*theta - 1*x"
    payload = json.loads(report_json(Report("0.1.0", 6, 6, [row])))
    assert (payload["checks"][0]["lhs"], payload["checks"][0]["rhs"]) == ("1*theta - 1*x",) * 2
    failing = _run("demo", lambda: (amb.x(), amb.x(), False), {})  # a failing row renders both sides
    assert len(calls) == 3 and failing.lhs == failing.rhs == "1*x"


def test_run_all_counts_and_order():
    report = run_all(5, 8)
    # per genus: pairings + kernel + mult/chern + one impclass per valid m
    expected = sum(3 + (g - 2) // 2 for g in range(5, 9)) + 1
    assert report.total == expected == 21
    assert report.failed == 0
    assert report.passed == report.total
    keys = [(c.check_id, tuple(sorted(c.params.items()))) for c in report.checks]
    assert keys == sorted(keys)
    ids = {c.check_id for c in report.checks}
    assert ids == {
        "pencil-pairings",
        "kernel-decomposition",
        "pushpull-closed-form",
        "mult-chern",
        "plane-quintic",
    }


def test_run_all_minimal_and_errors():
    report = run_all(5, 5)
    assert report.total == 5 and report.failed == 0
    with pytest.raises(ValueError, match="genus range"):
        run_all(4, 5)
    with pytest.raises(ValueError, match="genus range"):
        run_all(6, 5)


def test_run_all_full_sweep():
    report = run_all(5, 40)
    assert report.failed == 0
    assert report.total == sum(3 + (g - 2) // 2 for g in range(5, 41)) + 1


def test_report_json_deterministic_and_valid():
    first = report_json(run_all(5, 6), include_timing=False)
    second = report_json(run_all(5, 6), include_timing=False)
    assert first == second
    payload = json.loads(report_json(run_all(5, 6)))
    SCHEMA.validate(payload)
    assert payload["range"] == {"gMin": 5, "gMax": 6}
    assert payload["summary"]["total"] == payload["summary"]["passed"] + payload["summary"]["failed"]
    assert all(check["passed"] for check in payload["checks"])


def test_report_csv_shape():
    report = run_all(5, 8)
    lines = report_csv(report).splitlines()
    assert lines[0] == "id,params,lhs,rhs,passed,micros"
    assert len(lines) == report.total + 1
    assert lines[1].startswith("kernel-decomposition,g=5,")
