import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from cdcalc import Ambient, NSClass, diagonal_class, format_class
from cdcalc.checks import CheckResult, Report
from cdcalc.cli import ClassSyntaxError, integer, main, parse_class, resolve_class
from conftest import random_class

CLI_SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cdcalc" / "cli.py"
SRC = CLI_SOURCE.parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expression grammar -------------------------------------------------------

def test_parse_simple_sums():
    amb = Ambient(6, 4)
    assert parse_class("1*theta - 2*x", amb) == amb.theta() - 2 * amb.x()
    assert parse_class("-2*theta + 18*x", amb) == diagonal_class(amb)
    assert parse_class("5", amb) == amb.monomial(0, 0, 5)
    assert parse_class("0", amb) == amb.zero()
    assert parse_class("1/6*theta^3", amb) == amb.monomial(0, 3, Fraction(1, 6))
    assert parse_class("2*x^2*theta", amb) == amb.monomial(2, 1, 2)
    assert parse_class("1*x + 1*x", amb) == 2 * amb.x()


def test_parse_sums_repeated_monomials():
    amb = Ambient(6, 4)
    assert parse_class("1/2*theta - 1*x + 1/3*theta", amb) == Fraction(5, 6) * amb.theta() - amb.x()
    cancelled = parse_class("1*x + 1/2*x - 3/2*x", amb)
    assert cancelled.is_zero() and cancelled == amb.zero()
    assert parse_class("1*x + 1*theta - 1*x", amb).terms() == {(0, 1): 1}


def test_parse_round_trip_random():
    rng = random.Random(441)
    for _ in range(300):
        amb = Ambient(rng.randint(2, 9), rng.randint(1, 7))
        cls = random_class(rng, amb)
        assert parse_class(format_class(cls), amb) == cls


def test_parse_errors_carry_positions():
    amb = Ambient(6, 4)
    with pytest.raises(ClassSyntaxError) as info:
        parse_class("1*theta + % 2*x", amb)
    assert info.value.position == 10
    with pytest.raises(ClassSyntaxError, match="byte"):
        parse_class("theta", amb)  # coefficient is mandatory
    with pytest.raises(ClassSyntaxError, match="degree exceeds ambient"):
        parse_class("1*x^5", amb)
    with pytest.raises(ClassSyntaxError, match="zero denominator"):
        parse_class("1/0*x", amb)
    with pytest.raises(ClassSyntaxError, match="unexpected end"):
        parse_class("1*x^", amb)
    with pytest.raises(ClassSyntaxError, match="empty"):
        parse_class("   ", amb)
    with pytest.raises(ClassSyntaxError, match="between terms"):
        parse_class("1*x 2*theta", amb)


# Every message the parser gives, each with its byte offset, pinned word for word.
@pytest.mark.parametrize("expr, message, position", [
    ("1*theta + % 2*x", "unexpected character '%'", 10),
    ("theta", "expected a rational coefficient", 0),
    ("1*x^5", "degree exceeds ambient: term of degree 5 on C_4", 0),
    ("1/0*x", "zero denominator", 2),
    ("1*x^", "unexpected end of expression", 4),
    ("   ", "empty class expression", 0),
    ("", "empty class expression", 0),
    ("1*x 2*theta", "expected '+' or '-' between terms", 4),
    ("1*x\u3000%", "unexpected character '\\u3000'", 3),
    ("1*x\u00a0%", "unexpected character '\\xa0'", 3),
    ("1*x\n%", "unexpected character '\\n'", 3),
    ("²*x", "unexpected character '²'", 0),
    ("1*x^²", "unexpected character '²'", 4),
    ("1/²*x", "unexpected character '²'", 2),
    ("٣*x", "unexpected character '٣'", 0),
    ("1/", "unexpected end of expression", 2),
    ("1*", "unexpected end of expression", 2),
    ("1*2", "expected 'x' or 'theta' after '*'", 2),
    ("1/x", "expected an integer denominator", 2),
    ("1*x^theta", "expected an integer exponent", 4),
])
def test_parse_error_messages_and_offsets(expr, message, position):
    with pytest.raises(ClassSyntaxError) as info:
        parse_class(expr, Ambient(6, 4))
    assert str(info.value) == f"{message} (byte {position})"
    assert info.value.position == position


@pytest.mark.parametrize("space", ["\u3000", "\u00a0", "\n"])
def test_only_ascii_space_and_tab_separate(space):
    amb = Ambient(6, 4)
    assert parse_class("1*theta\t-  2*x", amb) == amb.theta() - 2 * amb.x()
    with pytest.raises(ClassSyntaxError, match=r"unexpected character .* \(byte 3\)") as info:
        parse_class("1*x" + space + "%", amb)
    assert info.value.position == len("1*x".encode())


@pytest.mark.parametrize("expr, message", [
    (" " * 100_000 + "x", "expected a rational coefficient (byte 100000)"),
    ("\t" * 100_000, "empty class expression (byte 0)"),
    ("1" + " " * 100_000 + "*" + " " * 100_000 + "2", "expected 'x' or 'theta' after '*' (byte 200002)"),
    ("- " + " " * 100_000 + "-", "expected a rational coefficient (byte 100002)"),
    ("1*x" + " " * 100_000 + "^ " + "%", "unexpected character '%' (byte 100005)"),
])
def test_parse_time_is_linear_in_blank_runs(expr, message):
    # A blank run the scanner could split two ways costs time quadratic in
    # its length: minutes here, where a linear read takes milliseconds.
    start = time.perf_counter()
    with pytest.raises(ClassSyntaxError) as info:
        parse_class(expr, Ambient(6, 4))
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == message


def test_parse_refuses_every_other_digit_and_space():
    # Every digit and space str.isdigit() or str.isspace() accepts, other than
    # ASCII digits, ' ' and '\t': a \d, \s or $ in the parser would let one through.
    others = [chr(code) for code in range(sys.maxunicode + 1)
              if (chr(code).isdigit() or chr(code).isspace()) and chr(code) not in "0123456789 \t"]
    assert "\n" in others and "\u0663" in others
    # A class on this ambient with or without a digit put in: had the parser
    # read one, the parse would succeed and no error would be raised.
    amb = Ambient(100, 100)
    tokens = ["-", "12", "/", "3", "*", "x", "^", "2", "*", "theta", "^", "2", " + ", "5", "*", "theta"]
    heads = ["".join(tokens[:at]) for at in range(len(tokens) + 1)]
    for c in others:
        cases = [("1*x" + c, 3), ("1*x^" + c, 4), ("1/" + c, 2)]
        cases += [(head + c + "".join(tokens)[len(head):], len(head)) for head in heads]
        for expr, at in cases:
            with pytest.raises(ClassSyntaxError) as info:
                parse_class(expr, amb)
            assert str(info.value) == f"unexpected character {c!r} (byte {at})"
    with pytest.raises(ClassSyntaxError, match=r"^unexpected character '\\n' \(byte 3\)$"):
        parse_class("1*x\n", amb)


@pytest.mark.parametrize("expr, position", [
    ("²*x", 0), ("1*x^²", 4), ("1/²*x", 2), ("٣*x", 0),
])
def test_parse_takes_only_ascii_digits(expr, position):
    with pytest.raises(ClassSyntaxError, match="unexpected character") as info:
        parse_class(expr, Ambient(6, 4))
    assert info.value.position == position


def test_resolve_named_reference():
    amb = Ambient(6, 4)
    resolved = resolve_class("<gamma 6 4 5 1>", amb)
    assert format_class(resolved) == "1/6*theta^3 - 1*x*theta^2 + 3*x^2*theta - 4*x^3"
    assert resolve_class("<dm 6 1>", amb) == NSClass(amb, {(0, 1): 4, (1, 0): -6})
    assert resolve_class("<canonical 6 4>", amb) == NSClass(amb, {(0, 1): 1, (1, 0): 1})


def test_resolve_reference_errors(capsys):
    amb = Ambient(6, 4)
    from cdcalc.cli import UsageError

    with pytest.raises(UsageError, match="unknown class reference"):
        resolve_class("<nope 1 2>", amb)
    with pytest.raises(UsageError, match="takes 4 integers"):
        resolve_class("<gamma 6 4 5>", amb)
    with pytest.raises(UsageError, match="must be integers"):
        resolve_class("<gamma 6 4 5 one>", amb)
    with pytest.raises(UsageError, match="lives on"):
        resolve_class("<gamma 6 3 5 1>", amb)
    with pytest.raises(UsageError, match="unterminated"):
        resolve_class("<gamma 6 4 5 1", amb)
    for ref in ("<>", "< >"):
        code, out, err = run_cli(capsys, "eval", "--g", "6", "--d", "4", "--expr", ref)
        assert (code, out, err) == (1, "", "usage error: empty class reference\n")


def test_reference_to_another_ambient_is_refused_before_it_is_built(monkeypatch):
    from cdcalc import catalog
    from cdcalc.cli import UsageError

    def unbuilt(*args):
        raise AssertionError("builder ran")

    monkeypatch.setattr(catalog, "subordinate_class", unbuilt)
    monkeypatch.setattr(catalog, "dm_class", unbuilt)
    # at d = 20001 every binomial is nonzero: built, this class would have 20000 terms
    with pytest.raises(UsageError) as info:
        resolve_class("<gamma 20000 20001 20001 2>", Ambient(20000, 4))
    assert str(info.value) == "class reference lives on (g=20000, d=20001), command ambient is (g=20000, d=4)"
    with pytest.raises(UsageError, match=r"lives on \(g=7, d=5\), command ambient is \(g=6, d=4\)"):
        resolve_class("<dm 7 1>", Ambient(6, 4))
    with pytest.raises(UsageError, match="takes 4 integers"):  # the argument count is checked first
        resolve_class("<gamma 7 4 5>", Ambient(6, 4))
    # dm's ambient C_{g-2m} comes from its row, so binom(10^6, 250000) is never built
    with pytest.raises(UsageError) as info:
        resolve_class("<dm 1000000 250000>", Ambient(10**6, 2))
    assert str(info.value) == \
        "class reference lives on (g=1000000, d=500000), command ambient is (g=1000000, d=2)"
    # an m out of range on another ambient is refused as such, before dm_class checks m
    with pytest.raises(UsageError) as info:
        resolve_class("<dm 6 3>", Ambient(6, 4))
    assert str(info.value) == "class reference lives on (g=6, d=0), command ambient is (g=6, d=4)"
    with pytest.raises(AssertionError, match="builder ran"):  # on its own ambient it is built
        resolve_class("<dm 8 2>", Ambient(8, 4))


def test_class_on_another_ambient_is_refused_before_it_is_built(capsys, monkeypatch):
    from cdcalc import catalog

    def unbuilt(*args):
        raise AssertionError("builder ran")

    monkeypatch.setattr(catalog, "dm_class", unbuilt)
    code, out, err = run_cli(capsys, "class", "--name", "dm", "--g", "1000000", "--m", "250000",
                             "--d", "3")
    assert (code, out, err) == (1, "", "usage error: --d 3 does not match the class ambient C_500000\n")
    with pytest.raises(AssertionError, match="builder ran"):
        run_cli(capsys, "class", "--name", "dm", "--g", "8", "--m", "2", "--d", "4")


@pytest.mark.parametrize("ref", [
    "<gamma ٦ 4 5 1>", "<gamma 6 4 5 ¹>", "<gamma 6 4 5 +1>", "<gamma 6 4 5 0_1>",
    "<gamma 6 4 5 ->", "<gamma 6 4 5 --1>",
])
def test_reference_takes_only_ascii_integers(ref):
    from cdcalc.cli import UsageError

    with pytest.raises(UsageError, match="must be integers"):
        resolve_class(ref, Ambient(6, 4))


# -- verbs --------------------------------------------------------------------

def test_class_gamma(capsys):
    code, out, _ = run_cli(capsys, "class", "--name", "gamma", "--g", "6", "--d", "4",
                           "--n", "5", "--r", "1")
    assert code == 0
    assert out == "1/6*theta^3 - 1*x*theta^2 + 3*x^2*theta - 4*x^3\n"


def test_class_json_payload(capsys):
    code, out, _ = run_cli(capsys, "class", "--name", "dm", "--g", "6", "--m", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"name": "dm", "ambient": {"g": 6, "d": 4}, "class": "4*theta - 6*x"}


def test_class_rho(capsys):
    code, out, _ = run_cli(capsys, "class", "--name", "rho", "--g", "6", "--r", "1", "--d", "5")
    assert code == 0 and out == "2\n"


def test_class_missing_flags(capsys):
    code, _, err = run_cli(capsys, "class", "--name", "gamma", "--g", "6", "--d", "4")
    assert code == 1
    assert "requires" in err


def test_eval_verb(capsys):
    code, out, _ = run_cli(capsys, "eval", "--g", "6", "--d", "4", "--expr", "1*theta^4")
    assert code == 0 and out == "360\n"


def run_timed(*argv):
    """`cdcalc argv` in a fresh interpreter on this checkout: (result, seconds)."""
    program = "import sys; from cdcalc.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", program, *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    return done, time.perf_counter() - start


@pytest.mark.parametrize("expr, value", [("1*x", "1"), ("1*theta", "3000000")])
def test_eval_verb_large_genus_in_bounded_time(expr, value):
    done, elapsed = run_timed("eval", "--g", "3000000", "--d", "1", "--expr", expr)
    assert (done.returncode, done.stdout, done.stderr) == (0, value + "\n", "")
    assert elapsed < 2.0, f"eval took {elapsed:.2f}s"


@pytest.mark.parametrize("argv, stdout, stderr", [
    (["eval", "--g", "1000000", "--d", "2", "--expr", "<dm 1000000 250000>"], "",
     "usage error: class reference lives on (g=1000000, d=500000), command ambient is (g=1000000, d=2)\n"),
    (["class", "--name", "dm", "--g", "1000000", "--m", "250000", "--d", "3"], "",
     "usage error: --d 3 does not match the class ambient C_500000\n"),
    (["cone", "--curve", "general", "--g", "1000000", "--d", "2"],
     "general g=1000000 d=2: 1*theta - 500000*x [virtual-bound]\n", ""),
], ids=["eval-dm", "class-dm", "cone-general"])
def test_dm_at_large_genus_in_bounded_time(argv, stdout, stderr):
    done, elapsed = run_timed(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (1 if stderr else 0, stdout, stderr)
    assert elapsed < 2.0, f"{argv[0]} took {elapsed:.2f}s"


def test_class_gamma_large_degree_in_bounded_time():
    done, elapsed = run_timed("class", "--name", "gamma", "--g", "20000", "--d", "10000",
                              "--n", "20000", "--r", "0")
    expected = f"1/{_decimal(math.factorial(10000))}*theta^10000\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
    assert elapsed < 2.0, f"class took {elapsed:.2f}s"


def _int_str_limit() -> int:
    # 0 means no limit, as on Python 3.10.0-3.10.6, which has no such setting
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _decimal(n: int) -> str:
    limit = _int_str_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_eval_prints_results_of_any_size(capsys):
    # perm(3000, 1500) has 5016 digits, past the interpreter's default limit
    limit = _int_str_limit()
    expected = _decimal(math.perm(3000, 1500))
    assert len(expected) == 5016
    code, out, err = run_cli(capsys, "eval", "--g", "3000", "--d", "1500", "--expr", "1*theta^1500")
    assert (code, out, err) == (0, expected + "\n", "")
    assert _int_str_limit() == limit
    code, _, err = run_cli(capsys, "eval", "--g", "3000", "--d", "1500", "--expr", "1*theta^1501")
    assert code == 1 and "error" in err
    assert _int_str_limit() == limit


def test_parse_takes_coefficients_of_any_size(capsys):
    limit = _int_str_limit()
    digits = "9" * 5000
    code, out, err = run_cli(capsys, "eval", "--g", "3", "--d", "1", "--expr", f"{digits}*x")
    assert (code, out, err) == (0, digits + "\n", "")
    assert _int_str_limit() == limit
    code, _, err = run_cli(capsys, "eval", "--g", "3", "--d", "1", "--expr", f"{digits}*x %")
    assert code == 1 and "error" in err
    assert _int_str_limit() == limit


def test_pair_verb_with_reference(capsys):
    code, out, _ = run_cli(capsys, "pair", "--g", "6", "--d", "4",
                           "--a", "1*theta", "--b", "<gamma 6 4 5 1>")
    assert code == 0 and out == "6\n"


def test_pushpull_verb(capsys):
    code, out, _ = run_cli(capsys, "pushpull", "--g", "6", "--d", "5", "--k", "1",
                           "--expr", "1/2*theta^2 - 1*x*theta")
    assert code == 0 and out == "4*theta - 6*x\n"


def test_cone_verb_query(capsys):
    code, out, _ = run_cli(capsys, "cone", "--curve", "general", "--g", "6", "--d", "4",
                           "--query", "1*theta - 2*x")
    assert code == 0
    assert out.splitlines() == [
        "ray: 1*theta - 3/2*x",
        "ray: -1*theta + 9*x",
        "contains: false",
    ]
    code, out, _ = run_cli(capsys, "cone", "--curve", "general", "--g", "6", "--d", "4",
                           "--query", "1*theta")
    assert out.splitlines()[-1] == "contains: true"


def test_cone_verb_query_reference(capsys):
    # the diagonal spans the ray -theta + 9x, an edge of the cone on C_4 at g = 6
    code, out, _ = run_cli(capsys, "cone", "--curve", "general", "--g", "6", "--d", "4",
                           "--query", "<diagonal 6 4>")
    assert code == 0 and out.splitlines()[-1] == "contains: true"
    code, _, err = run_cli(capsys, "cone", "--curve", "general", "--g", "6", "--d", "4",
                           "--query", "<diagonal 7 5>")
    assert code == 1 and "command ambient" in err


def test_cone_verb_bounds(capsys):
    code, out, _ = run_cli(capsys, "cone", "--curve", "trigonal", "--g", "8", "--d", "6")
    assert code == 0
    assert out == "trigonal g=8 d=6: 1*theta - 2*x [proved-boundary]\n"
    code, out, _ = run_cli(capsys, "cone", "--curve", "planeQuintic", "--g", "6", "--d", "4",
                           "--format", "json")
    assert code == 0
    (record,) = json.loads(out)
    assert record["status"] == "exclusion"
    assert record["rayTheta"] == "1" and record["rayX"] == "-2"


def test_cone_query_needs_full_cone(capsys):
    code, _, err = run_cli(capsys, "cone", "--curve", "trigonal", "--g", "8", "--d", "6",
                           "--query", "1*theta")
    assert code == 1 and "full cone" in err


def test_verify_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "6", "--format", "json")
    assert code == 0
    schema = json.loads(resources.files("cdcalc").joinpath("report.schema.json").read_text())
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["summary"]["failed"] == 0


def test_verify_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "summary: 5 checks, 5 passed, 0 failed"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    code, out, _ = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "id,params,lhs,rhs,passed,micros"


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    def fake_run_all(g_min, g_max):
        return Report("0.0.0", g_min, g_max,
                      [CheckResult("demo", {"g": 5}, "1", "2", False, 0)])

    monkeypatch.setattr("cdcalc.checks.run_all", fake_run_all)
    code, out, _ = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "5")
    assert code == 2
    assert "FAIL demo g=5" in out
    assert "lhs=1" in out and "rhs=2" in out


def _verify_on_a_terminal(capsys, monkeypatch, no_color):
    """Text verify output with one failing row, stdout posing as a terminal; (output, isatty calls)."""
    def fake_run_all(g_min, g_max):
        return Report("0.0.0", g_min, g_max, [CheckResult("demo", {"g": 5}, "1", "2", False, 0),
                                              CheckResult("demo", {"g": 6}, "1", "1", True, 0),
                                              CheckResult("demo", {"g": 7}, "1", "1", True, 0)])

    monkeypatch.setattr("cdcalc.checks.run_all", fake_run_all)
    if no_color is None:
        monkeypatch.delenv("NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("NO_COLOR", no_color)
    calls = []
    monkeypatch.setattr(sys.stdout, "isatty", lambda: calls.append(1) or True)
    code, out, _ = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "7")
    assert code == 2
    return out, len(calls)


@pytest.mark.parametrize("no_color", [None, ""])
def test_verify_colours_status_words_on_a_terminal(capsys, monkeypatch, no_color):
    out, isatty_calls = _verify_on_a_terminal(capsys, monkeypatch, no_color)
    assert out.splitlines() == [
        "\x1b[31mFAIL\x1b[0m demo g=5  lhs=1  rhs=2",
        "\x1b[32mPASS\x1b[0m demo g=6",
        "\x1b[32mPASS\x1b[0m demo g=7",
        "summary: 3 checks, 2 passed, 1 failed",
    ]
    assert isatty_calls == 1  # decided once per call, not once per row


def test_verify_no_color_keeps_plain_words_on_a_terminal(capsys, monkeypatch):
    out, _ = _verify_on_a_terminal(capsys, monkeypatch, "1")
    assert out.splitlines() == [
        "FAIL demo g=5  lhs=1  rhs=2",
        "PASS demo g=6",
        "PASS demo g=7",
        "summary: 3 checks, 2 passed, 1 failed",
    ]


def test_verify_config_file(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("# sweep range\ng-min = 5\ng-max = 5\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(config), "--format", "json")
    assert code == 0
    assert json.loads(out)["range"] == {"gMin": 5, "gMax": 5}
    # explicit flags win over the config file
    code, out, _ = run_cli(capsys, "verify", "--config", str(config), "--g-max", "6",
                           "--format", "json")
    assert json.loads(out)["range"] == {"gMin": 5, "gMax": 6}


def test_verify_config_errors(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("g-min five\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(config))
    assert code == 1 and "expected 'key = value'" in err
    config.write_text("genus = 5\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(config))
    assert code == 1 and "unknown key" in err
    code, _, err = run_cli(capsys, "verify", "--config", str(tmp_path / "missing.cfg"))
    assert code == 1 and "cannot read config" in err


def test_config_is_checked_line_by_line(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    # a bad value is refused even where a flag overrides its key
    config.write_text("g-min = five\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(config), "--g-min", "5", "--g-max", "5")
    assert (code, out, err) == (1, "", f"usage error: {config}: key 'g-min' must be an integer, got 'five'\n")
    # the first bad line is the one reported
    config.write_text("genus = 5\ng-min five\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(config))
    assert (code, out, err) == (1, "", f"usage error: {config}: unknown key 'genus'\n")
    config.write_text("g-max = 5\ng-min five\ngenus = 5\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(config))
    assert (code, out, err) == (1, "", f"usage error: {config}:2: expected 'key = value'\n")


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "eval", "--g", "6", "--d", "4")[0] == 1  # missing --expr
    assert run_cli(capsys, "eval", "--g", "six", "--d", "4", "--expr", "1*x")[0] == 1
    code, _, err = run_cli(capsys, "eval", "--g", "6", "--d", "4", "--expr", "1*x^9")
    assert code == 1 and "degree exceeds ambient" in err
    code, _, err = run_cli(capsys, "pair", "--g", "6", "--d", "4", "--a", "1*theta",
                           "--b", "1*theta")
    assert code == 1 and "degree mismatch" in err


def test_operation_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "eval", "--g", "4", "--d", "5", "--expr", "1*x^5")
    assert code == 1 and "evaluation undefined" in err
    code, _, err = run_cli(capsys, "class", "--name", "dm", "--g", "6", "--m", "3")
    assert code == 1 and "m out of range" in err
    code, _, err = run_cli(capsys, "cone", "--curve", "general", "--g", "8", "--d", "5")
    assert code == 1 and "no catalogued bound" in err
    code, _, err = run_cli(capsys, "pair", "--g", "3", "--d", "5", "--a", "0*x", "--b", "1*x")
    assert code == 1 and "evaluation undefined" in err


# -- one integer reader, one verb table -----------------------------------------

SPELLINGS = ["\u0666", "6_0", "+6", " 6"]  # Arabic-Indic six, underscore, plus, space


def test_integer_reads_ascii_integers():
    assert [integer(t) for t in ("6", "-12", "007", "0")] == [6, -12, 7, 0]
    for text in ["", "-", "--1", "6 ", "1.5", "\u00b9", *SPELLINGS]:
        with pytest.raises(ValueError):
            integer(text)


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("argv", [
    ["eval", "--g", "{}", "--d", "4", "--expr", "1*theta^4"],
    ["pushpull", "--g", "6", "--d", "4", "--k", "{}", "--expr", "1*x"],
    ["verify", "--g-min", "{}", "--g-max", "5"],
    ["class", "--name", "gamma", "--g", "6", "--d", "4", "--n", "{}", "--r", "1"],
], ids=["g", "k", "g-min", "n"])
def test_integer_flags_take_only_ascii_integers(capsys, argv, spelling):
    code, out, err = run_cli(capsys, *[arg.format(spelling) for arg in argv])
    assert (code, out) == (1, "")
    assert f"invalid integer value: {spelling!r}" in err


# A config value is stripped of the whitespace around it, so " 6" reads as 6 there.
@pytest.mark.parametrize("spelling", [s for s in SPELLINGS if s.strip() == s])
def test_config_values_take_only_ascii_integers(capsys, tmp_path, spelling):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"g-min = {spelling}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--config", str(config))
    assert (code, out) == (1, "")
    assert f"key 'g-min' must be an integer, got {spelling!r}" in err


def test_handlers_are_looked_up_when_the_parser_is_built(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr("cdcalc.cli.cmd_eval", lambda args: seen.append(args.g) or 0)
    assert run_cli(capsys, "eval", "--g", "6", "--d", "4", "--expr", "1*x")[0] == 0
    assert seen == [6]


def test_each_verb_is_declared_once():
    source = CLI_SOURCE.read_text(encoding="utf-8")
    assert source.count("add_parser(") == 1
    assert source.count('"--format"') == 1
    assert "type=int" not in source
