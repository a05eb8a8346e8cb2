import ast
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from cdcalc import Ambient, NSClass, diagonal_class, format_class
from cdcalc.checks import CheckResult, report_json, run_all
from cdcalc.cli import ClassSyntaxError, _read_argv, integer, main, parse_class, resolve_class
import crossversion
from conftest import random_class

CLI_SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cdcalc" / "cli.py"
COLD_SOURCE = CLI_SOURCE.with_name("coldpath.py")
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


def _decimal(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_prints_results_of_any_size(capsys):
    # perm(3000, 1500) has 5016 digits, past the interpreter's default limit
    limit = sys.get_int_max_str_digits()
    expected = _decimal(math.perm(3000, 1500))
    assert len(expected) == 5016
    code, out, err = run_cli(capsys, "eval", "--g", "3000", "--d", "1500", "--expr", "1*theta^1500")
    assert (code, out, err) == (0, expected + "\n", "")
    assert sys.get_int_max_str_digits() == limit
    code, _, err = run_cli(capsys, "eval", "--g", "3000", "--d", "1500", "--expr", "1*theta^1501")
    assert code == 1 and "error" in err
    assert sys.get_int_max_str_digits() == limit


def test_parse_takes_coefficients_of_any_size(capsys):
    limit = sys.get_int_max_str_digits()
    digits = "9" * 5000
    code, out, err = run_cli(capsys, "eval", "--g", "3", "--d", "1", "--expr", f"{digits}*x")
    assert (code, out, err) == (0, digits + "\n", "")
    assert sys.get_int_max_str_digits() == limit
    code, _, err = run_cli(capsys, "eval", "--g", "3", "--d", "1", "--expr", f"{digits}*x %")
    assert code == 1 and "error" in err
    assert sys.get_int_max_str_digits() == limit


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
    def fake_rows(g_min, g_max):
        return [CheckResult("demo", {"g": 5}, "1", "2", False, 0)]

    monkeypatch.setattr("cdcalc.checks._rows", fake_rows)
    code, out, _ = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "5")
    assert code == 2
    assert "FAIL demo g=5" in out
    assert "lhs=1" in out and "rhs=2" in out


def _verify_on_a_terminal(capsys, monkeypatch, no_color):
    """Text verify output with one failing row, stdout posing as a terminal; (output, isatty calls)."""
    def fake_rows(g_min, g_max):
        return [CheckResult("demo", {"g": 5}, "1", "2", False, 0),
                CheckResult("demo", {"g": 6}, "1", "1", True, 0),
                CheckResult("demo", {"g": 7}, "1", "1", True, 0)]

    monkeypatch.setattr("cdcalc.checks._rows", fake_rows)
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


# `verify --g-min 5 --g-max 8`: rows with one, two and four params, in report order.
VERIFY_5_8_TEXT = [
    *(f"PASS kernel-decomposition g={g}" for g in range(5, 9)),
    "PASS mult-chern d=3 f=17 g=5 r=3",
    "PASS mult-chern d=4 f=31 g=6 r=4",
    "PASS mult-chern d=5 f=49 g=7 r=5",
    "PASS mult-chern d=6 f=71 g=8 r=6",
    *(f"PASS pencil-pairings g={g}" for g in range(5, 9)),
    "PASS plane-quintic",
    *(f"PASS pushpull-closed-form g={g} m={m}" for g in range(5, 9) for m in range(1, (g - 2) // 2 + 1)),
    "summary: 21 checks, 21 passed, 0 failed",
]
# SHA-256 of its CSV with the last column, `micros`, written as 0.
VERIFY_5_8_CSV_DIGEST = "b170123343642cd33d88c0444b6c10c575296d542c810198488f0cac168e2e8f"


def test_verify_text_and_csv_are_pinned(capsys):
    code, out, err = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "8")
    assert (code, out, err) == (0, "\n".join(VERIFY_5_8_TEXT) + "\n", "")
    code, out, err = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "8", "--format", "csv")
    masked = re.sub(r",[0-9]+$", ",0", out, flags=re.MULTILINE)
    assert (code, err, masked.count(",0\n")) == (0, "", 21)
    assert hashlib.sha256(masked.encode()).hexdigest() == VERIFY_5_8_CSV_DIGEST


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


def test_verify_refuses_an_empty_config_path(capsys):
    # an empty path is an unreadable file, not "no config file"
    for argv in (["--config="], ["--config", ""]):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (1, "", "usage error: cannot read config file: "
                                           "[Errno 2] No such file or directory: ''\n")


def _mask_micros(text: str) -> str:
    """A CSV or JSON report with every `micros` written as 0."""
    return re.sub(r'(,|"micros": )[0-9]+$', r"\g<1>0", text, flags=re.MULTILINE)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_writes_each_row_before_the_next_check_runs(capsys, monkeypatch, fmt):
    from cdcalc import checks

    expected = _mask_micros(run_cli(capsys, "verify", "--g-min", "5", "--g-max", "6", "--format", fmt)[1])
    pencil, seen = checks.check_pencil_pairings, []

    def reading_pencil(g):  # what stdout holds when each pencil check starts
        seen.append(capsys.readouterr().out)
        return pencil(g)

    monkeypatch.setattr(checks, "check_pencil_pairings", reading_pencil)
    code, rest, err = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "6", "--format", fmt)
    assert (code, err) == (0, "")
    assert _mask_micros("".join(seen) + rest) == expected
    # the ids before pencil-pairings in report order are written whole, and none after it
    first, second = seen
    assert first.count("kernel-decomposition") == first.count("mult-chern") == 2
    assert "pencil-pairings" not in first and "pencil-pairings" in second
    assert not any(later in first + second for later in ("plane-quintic", "pushpull-closed-form"))


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("flags, shown", [(("--g-min", "4"), "[4, 40]"),
                                          (("--g-min", "9", "--g-max", "8"), "[9, 8]")])
def test_verify_refuses_a_bad_range_before_writing(capsys, fmt, flags, shown):
    code, out, err = run_cli(capsys, "verify", *flags, "--format", fmt)
    assert (code, out, err) == (1, "", f"error: invalid genus range: need 5 <= gMin <= gMax, got {shown}\n")


def test_verify_writes_what_the_library_renders(capsys):
    library = report_json(run_all(5, 12), include_timing=False)
    code, out, err = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "12", "--format", "json")
    assert (code, err) == (0, "")
    assert _mask_micros(out) == library
    # each CSV row holds the JSON row's fields, params as `k=v` words joined by ';'
    code, out, err = run_cli(capsys, "verify", "--g-min", "5", "--g-max", "12", "--format", "csv")
    assert (code, err) == (0, "")
    head, *rows = csv.reader(io.StringIO(out))
    assert head == ["id", "params", "lhs", "rhs", "passed", "micros"]
    expected = [[c["id"], ";".join(f"{k}={v}" for k, v in c["params"].items()), c["lhs"], c["rhs"],
                 "true" if c["passed"] else "false", "0"] for c in json.loads(library)["checks"]]
    assert [[*row[:5], "0"] for row in rows] == expected
    assert all(micros.isdigit() for *_, micros in rows)


def test_config_is_checked_line_by_line(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    # a bad value is refused even where a flag overrides its key
    config.write_text("g-min = five\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(config), "--g-min", "5", "--g-max", "5")
    message = f"usage error: {config}:1: key 'g-min' must be an integer, got 'five'\n"
    assert (code, out, err) == (1, "", message)
    # the first bad line is the one reported
    config.write_text("genus = 5\ng-min five\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(config))
    assert (code, out, err) == (1, "", f"usage error: {config}:1: unknown key 'genus'\n")
    config.write_text("g-max = 5\ng-min five\ngenus = 5\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(config))
    assert (code, out, err) == (1, "", f"usage error: {config}:2: expected 'key = value'\n")


def test_config_refuses_a_repeated_key(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    # refused on the line that repeats it, before the lines after it and whatever the flags say
    config.write_text("g-min = 5\ng-max = 6\ng-min = 7\ngenus = 5\n")
    for flags in ((), ("--g-min", "5")):
        code, out, err = run_cli(capsys, "verify", "--config", str(config), *flags)
        assert (code, out, err) == (1, "", f"usage error: {config}:3: duplicate key 'g-min'\n")
    # also when the repeat sets the value the first line set
    config.write_text("g-min = 5\ng-min = 5\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(config), "--g-max", "5")
    assert (code, out, err) == (1, "", f"usage error: {config}:2: duplicate key 'g-min'\n")


def test_config_may_start_with_a_byte_order_mark(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_bytes(b"\xef\xbb\xbfg-min = 5\r\ng-max = 6\r\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(config), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["range"] == {"gMin": 5, "gMax": 6}


def test_config_lines_end_as_in_text_mode(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_bytes(b"g-min = 5\rg-max = 6\r\n# \x0c\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(config), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["range"] == {"gMin": 5, "gMax": 6}


def test_config_file_holds_at_most_4096_bytes(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    keys = b"g-min = 5\ng-max = 5\n"
    config.write_bytes(keys + b"#" * (4096 - len(keys)))
    assert run_cli(capsys, "verify", "--config", str(config))[0] == 0
    config.write_bytes(keys + b"#" * (4097 - len(keys)))
    code, out, err = run_cli(capsys, "verify", "--config", str(config))
    assert (code, out, err) == (1, "", f"usage error: {config}: a config file holds at most 4096 bytes\n")


def test_endless_config_is_refused_in_bounded_memory():
    # The child caps its own address space, so a reader that takes the whole
    # file fails this test with a MemoryError, not by exhausting the host.
    program = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20)); "
               "from cdcalc.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", program, "verify", "--config", "/dev/zero"],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
                          timeout=30)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "usage error: /dev/zero: a config file holds at most 4096 bytes\n")


# One well-formed call per verb, for the tests of what a call does when its
# output cannot be written.
EVERY_VERB_ARGV = [
    ["class", "--name", "dm", "--g", "8", "--m", "1"],
    ["eval", "--g", "6", "--d", "4", "--expr", "1*theta^4"],
    ["pair", "--g", "6", "--d", "4", "--a", "1*theta", "--b", "<gamma 6 4 5 1>"],
    ["pushpull", "--g", "6", "--d", "5", "--k", "1", "--expr", "1/2*theta^2 - 1*x*theta"],
    ["cone", "--curve", "general", "--g", "6", "--d", "4", "--format", "json"],
    ["verify", "--g-min", "5", "--g-max", "60"],
]

# The same, and a help flag: argparse's text is output like any verb's.
WRITING_ARGV = [*EVERY_VERB_ARGV, ["eval", "--help"]]


def _writer_id(argv):
    return "-".join(argv) if "--help" in argv else argv[0]


def run_into(stdout, *argv):
    """`cdcalc argv` in a fresh interpreter on this checkout, writing to the file `stdout`.

    Its stdout is buffered, as by default, so what is left in the buffer is
    written by the interpreter's last flush unless `main` flushes it.
    """
    program = "import sys; from cdcalc.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", program, *argv], env={**env, "PYTHONPATH": str(SRC)},
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


@pytest.mark.parametrize("argv", WRITING_ARGV, ids=_writer_id)
def test_a_closed_pipe_ends_the_call_quietly(argv):
    # The read end is closed before the child starts, so its first write fails with EPIPE.
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_into(write, *argv)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", WRITING_ARGV, ids=_writer_id)
def test_a_full_device_ends_the_call_with_one_error_line(argv):
    with open("/dev/full", "wb") as full:
        done = run_into(full, *argv)
    assert (done.returncode, done.stderr) == (1, "error: cannot write output: [Errno 28] No space left on device\n")


class _Unwritable(io.StringIO):
    def __init__(self, error: OSError):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error, err", [
    (BrokenPipeError(32, "Broken pipe"), ""),
    (OSError(28, "No space left on device"), "error: cannot write output: [Errno 28] No space left on device\n"),
], ids=["closed-pipe", "full-device"])
def test_an_in_process_caller_s_descriptors_are_left_alone(capsys, monkeypatch, error, err):
    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", _Unwritable(error))
    code = main(["eval", "--g", "6", "--d", "4", "--expr", "1*theta^4"])
    after = os.fstat(1)
    assert (code, capsys.readouterr().err) == (1, err)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


@pytest.mark.parametrize("argv", [
    ["eval", "--g", "6", "--d", "4", "--expr", "1*theta^4"],
    *(["verify", "--g-min", "5", "--g-max", "6", "--format", form] for form in ("text", "json", "csv")),
], ids=["eval", "verify-text", "verify-json", "verify-csv"])
def test_a_stdout_closed_before_the_call_takes_no_output(capsys, monkeypatch, argv):
    # Python sets sys.stdout to None when fd 1 is closed at start-up; print then writes nothing.
    monkeypatch.setattr(sys, "stdout", None)
    assert (main(argv), capsys.readouterr().err) == (0, "")


def test_an_interrupt_ends_the_call_with_one_line():
    # SIGINT is sent once the first rows arrive, so the sweep is surely running, whatever the host's speed.
    # The child restores Python's SIGINT handler: a background job of a non-interactive shell starts
    # with SIGINT ignored, and a child inherits that.
    program = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
               "from cdcalc.cli import main; sys.exit(main(sys.argv[1:]))")
    child = subprocess.Popen([sys.executable, "-c", program, "verify", "--g-min", "5", "--g-max", "480"],
                             env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        assert child.stdout.read(1)
        child.send_signal(signal.SIGINT)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, err) == (130, "interrupted\n")


# One argv per cold path, with the exit code and the one stderr line of each.
COLD_PATH_ARGV = [
    (["eval", "--g", "6"], 1, "usage error: the following arguments are required: --d, --expr\n"),
    (["eval", "--g", "6", "--d", "4", "--expr", "1*theta^"], 1, "error: unexpected end of expression (byte 8)\n"),
    (["verify", "--config", "/nonexistent"], 1,
     "usage error: cannot read config file: [Errno 2] No such file or directory: '/nonexistent'\n"),
    (["eval", "-h"], 0, ""),
]


@pytest.mark.parametrize("argv, code, err", COLD_PATH_ARGV, ids=["usage-error", "parse-error", "config", "help"])
def test_each_cold_path_runs_under_dash_m(argv, code, err):
    """`python -m cdcalc.cli` runs `cli.py` as `__main__`: a cold path must not import `cdcalc.cli`
    beside it, whose own `UsageError` that `main` would not catch."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "cdcalc.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
                          timeout=60)
    imports = [line for line in done.stderr.splitlines(keepends=True) if line.startswith("import time:")]
    imported = [line.rsplit("|", 1)[1].strip() for line in imports]
    stderr = "".join(line for line in done.stderr.splitlines(keepends=True) if line not in imports)
    assert (done.returncode, stderr) == (code, err)
    assert "Traceback" not in done.stderr
    assert "cdcalc.nsring" in imported and "cdcalc.cli" not in imported
    assert done.stdout.startswith("usage: cdcalc eval") if code == 0 else done.stdout == ""


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
    # `cli` holds the table and the argv reader, `coldpath` the parser built from the table.
    sources = [CLI_SOURCE.read_text(encoding="utf-8"), COLD_SOURCE.read_text(encoding="utf-8")]
    source = "".join(sources)
    assert source.count("add_parser(") == 1
    assert source.count("add_argument(") == 1
    assert source.count('"--format"') == 1
    assert "type=int" not in source
    # The parser and the argv reader read one table: no flag is named outside it.  argparse's
    # own `--help` is not in the table; `parse_args` names it once, to stop its scan for `--flag=--`.
    named = []
    for tree in map(ast.parse, sources):
        table, parse_args = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("_verbs", "_options"):
                table.update(map(id, ast.walk(node)))
            elif isinstance(node, ast.FunctionDef) and node.name == "parse_args":
                parse_args.update(map(id, ast.walk(node)))
        named += [(id(node) in parse_args, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"--[a-z][a-z-]*", node.value) and id(node) not in table]
    assert named == [(True, "--help")]
    assert source.count("_options(flags, formats)") == 3  # defined, then read by the parser and the reader


# -- the argv reader ------------------------------------------------------------

def test_argv_reader_reads_as_argparse_does():
    """`cli._read_argv` declines an argv or returns exactly argparse's namespace for it."""
    from test_output_gate import cli_queries
    from test_package import EDGE_ARGV

    gate = [argv for argv, *_ in cli_queries()]
    edges = crossversion.reader_edge_argv()
    assert crossversion.reader_disagreements(gate + EDGE_ARGV + edges) == []
    # The reader reads every command-line call the benchmark makes, and none of EDGE_ARGV.
    assert [argv for argv in gate if _read_argv(argv) is None] == []
    assert [argv for argv in EDGE_ARGV if _read_argv(argv) is not None] == []
    # A separate value that starts with '-' is read only if it holds a space
    # and starts with neither '-h' nor '--'.
    read = {tuple(argv) for argv in edges if _read_argv(argv) is not None}
    assert ("eval", "--g", "6", "--d", "4", "--expr", "-1*x - 2*theta") in read
    assert ("eval", "--g", "6", "--d", "4", "--expr", "- 1*x") in read
    assert ("eval", "--g", "6", "--d", "4", "--expr=-1/8*x^3*theta") in read
    assert ("eval", "--g=6", "--d", "4", "--expr", "1*x^4") in read
    for value in ("-5", "-x", "-h", "-h 1", "--", "--g 6", "-", ""):
        assert ("eval", "--g", "6", "--d", "4", "--expr", value) not in read
    for value in ("", "--"):
        assert ("eval", "--g", "6", "--d", "4", f"--expr={value}") not in read
    assert ("eval", "--g", "6", "--d", "4", "--expr", "1*x^4", "--g", "6") not in read  # a repeated flag


@pytest.mark.parametrize("argv, value", [
    (["eval", "--g", "6", "--d", "4", "--expr", "{}"], "-1/8*x^3*theta"),
    (["pair", "--g", "6", "--d", "4", "--a", "{}", "--b", "1*theta^3"], "-1*x"),
    (["pair", "--g", "6", "--d", "4", "--a", "1*theta", "--b", "{}"], "-1*x^3"),
    (["cone", "--curve", "general", "--g", "6", "--d", "4", "--query", "{}"], "-1*theta"),
], ids=["expr", "a", "b", "query"])
def test_a_value_that_starts_with_a_minus_is_written_after_equals(capsys, argv, value):
    at = argv.index("{}")
    flag = argv[at - 1]
    code, out, err = run_cli(capsys, *argv[:at], value, *argv[at + 1:])
    assert (code, out) == (1, "")
    assert err == (f"usage error: argument {flag}: expected one argument "
                   f"(a value that starts with '-' is written {flag}=VALUE)\n")
    # With no value after the flag at all, argparse's message stands alone.
    assert run_cli(capsys, *argv[:at], "1*x", flag)[2] == f"usage error: argument {flag}: expected one argument\n"
    joined = run_cli(capsys, *argv[:at - 1], f"{flag}={value}", *argv[at + 1:])
    assert joined == run_cli(capsys, *argv[:at], "0 " + value, *argv[at + 1:])
    assert joined[0] == 0 and joined[2] == ""


@pytest.mark.parametrize("argv", sorted(crossversion.DASH_VALUE_ARGV), ids=" ".join)
def test_a_flag_given_dash_dash_after_equals_is_a_usage_error(capsys, argv):
    """argparse before 3.13 hands a handler [] for `--flag=--`, 3.13 the text `--`: refused before either."""
    assert run_cli(capsys, *argv) == (1, "", crossversion.DASH_VALUE_ARGV[argv])
    # After a bare `--` nothing is a flag, so argparse reads the argv and words its own error.
    code, out, err = run_cli(capsys, *argv[:1], "--", *argv[1:])
    assert (code, out) == (1, "") and "is not a value" not in err


@pytest.mark.parametrize("argv", [["eval", "-h", "--expr=--"], ["eval", "--g", "6", "--he", "--d=--", "--expr=--"]],
                         ids=" ".join)
def test_a_help_flag_before_dash_dash_after_equals_prints_the_help(capsys, argv):
    """argparse answers a help flag as it reads it, so a later `--flag=--` does not stop the help."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: cdcalc eval") and "--expr EXPR" in out and err == ""
    # A `--flag=--` before the help flag is refused first.
    assert run_cli(capsys, "eval", "--expr=--", "-h") == (1, "", "usage error: argument --expr: '--' is not a value\n")
