"""Fuzzing the command line and its parser.

Any argv and any stdout end in exit code 0, 1 or 2, never a traceback, `parse_class`
answers every string as the reference parser in `parser_oracle` does, and
the CLI's argv reader reads an argv as argparse does, or leaves it to it.
"""

import contextlib
import errno
import io
import os
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cdcalc import NAMED_CLASSES, Ambient, CurveClass, NSClass, format_class
from cdcalc.cli import ClassSyntaxError, _patterns, main, parse_class
from crossversion import reader_disagreements
from parser_oracle import FACTOR, TERM, parse_class as reference_parse_class

_TERM, _FACTOR = _patterns()[:2]  # the package's term and factor patterns

# |g| <= 14 keeps verify sweeps and named-class builders quick; mostly positive, so some calls succeed.
small_ints = st.one_of(st.integers(1, 14), st.integers(-14, 14)).map(str)

# Random text over the class-expression alphabet, plus the reference brackets.
TOKENS = [*"0123456789", " ", "x", "theta", "+", "-", "*", "/", "^", "<", ">"]
grammar_text = st.lists(st.sampled_from(TOKENS), max_size=16).map("".join)


@st.composite
def references(draw):
    name = draw(st.sampled_from(sorted(NAMED_CLASSES)))
    arity = len(NAMED_CLASSES[name][0].split())
    args = draw(st.lists(small_ints, min_size=max(0, arity - 2), max_size=arity + 1))
    return "<" + " ".join([name, *args]) + ">"


@st.composite
def sums(draw, degree):
    """Well-formed sums of monomials, homogeneous of the given degree if it is not None."""
    exponents = st.tuples(st.integers(0, 4), st.integers(0, 4)) if degree is None else \
        st.integers(0, max(degree, 0)).map(lambda i: (i, max(degree, 0) - i))
    terms = draw(st.lists(st.tuples(st.integers(-9, 9), exponents), min_size=1, max_size=4))
    return " + ".join(f"{c}*x^{i}*theta^{j}" if c >= 0 else f"0 - {-c}*x^{i}*theta^{j}"
                      for c, (i, j) in terms)


CLASS_FLAGS = ["g", "d", "n", "r", "m", "rank", "f", "dim-v", "max-degree"]


@st.composite
def argvs(draw):
    """A verb with mostly the flags it takes, values mostly near a valid ambient."""
    verb = draw(st.sampled_from(["class", "eval", "pair", "pushpull", "cone", "verify", "bogus"]))
    g = draw(st.one_of(st.integers(2, 14), st.integers(-14, 14)))
    d = draw(st.one_of(st.integers(max(1, g - 4), max(1, g)), st.integers(-14, 14)))

    def expression(degree=None):
        return draw(st.one_of(grammar_text, references(), sums(degree)))

    def degree():
        return draw(st.sampled_from([d, d - 1, 1, None]))

    flags = {"g": str(g), "d": str(d)}
    taken = ["g", "d"]
    if verb == "class":
        name = draw(st.sampled_from([*NAMED_CLASSES, "rho", "nope"]))
        params = NAMED_CLASSES[name][0] if name in NAMED_CLASSES else "g r d"
        taken = [param.strip("[]") for param in params.split()]
        flags = {"name": name, **{flag: flags.get(flag) or draw(small_ints) for flag in CLASS_FLAGS}}
        taken.append("name")
    elif verb == "eval":
        flags["expr"] = expression(d)
        taken.append("expr")
    elif verb == "pair":
        p = degree()
        flags["a"] = expression(p)
        flags["b"] = expression(None if p is None else d - p)
        taken += ["a", "b"]
    elif verb == "pushpull":
        flags["k"] = draw(small_ints)
        flags["expr"] = expression(degree())
        taken += ["k", "expr"]
    elif verb == "cone":
        flags["curve"] = draw(st.sampled_from([c.value for c in CurveClass]))
        taken.append("curve")
        if draw(st.booleans()):
            flags["query"] = expression(1)
            taken.append("query")
    elif verb == "verify":
        flags = {"g-min": str(g), "g-max": draw(small_ints)}
        taken = list(flags)
    foreign = draw(st.sampled_from([*CLASS_FLAGS, "expr", "query", "k"]))
    flags.setdefault(foreign, draw(small_ints))
    argv = [verb]
    for flag, value in flags.items():
        # the flags a verb takes are there nine times in ten, the others one time in ten
        if draw(st.integers(0, 9)) < (9 if flag in taken else 1):
            if draw(st.integers(0, 19)) == 0:  # `--`, which argparse before 3.13 drops, even after '='
                argv.append(f"--{flag}=--")  # a separate `--` would end the flags
            else:
                argv += [f"--{flag}", value]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv", "xml"]))]
    return argv


class _FailingWriter(io.RawIOBase):
    """A raw writer that refuses every write with `code` (EPIPE: `BrokenPipeError`) while `failing`."""

    def __init__(self, code):
        super().__init__()
        self.code, self.failing = code, True

    def writable(self):
        return True

    def write(self, data):
        if self.failing:
            raise OSError(self.code, os.strerror(self.code))
        return len(data)


# The stdouts `main` may meet: a buffer, none (fd 1 closed at start-up), a closed pipe, a full device.
STDOUTS = {
    "buffer": io.StringIO,
    "none": lambda: None,
    "closed pipe": lambda: io.TextIOWrapper(_FailingWriter(errno.EPIPE), encoding="utf-8"),
    "full device": lambda: io.TextIOWrapper(_FailingWriter(errno.ENOSPC), encoding="utf-8"),
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), st.sampled_from(sorted(STDOUTS)))
def test_main_exits_with_documented_codes(argv, stdout):
    out = STDOUTS[stdout]()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    if isinstance(out, io.TextIOWrapper):
        out.buffer.failing = False  # so that closing it, here or at collection, flushes without error
        out.close()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# Large magnitudes for the expression verbs: |g| up to 10^6, d and k up to 60.
huge_ints = st.one_of(st.integers(2, 10**6), st.integers(-10**6, 10**6), st.sampled_from([10**6, 10**6 - 1]))
upto_60 = st.one_of(st.integers(1, 60), st.integers(-60, 60))


@st.composite
def large_references(draw, g, d):
    """A named reference whose genus is large and whose other arguments stay within 60 of 0 or of g."""
    name = draw(st.sampled_from(sorted(NAMED_CLASSES)))
    arity = len(NAMED_CLASSES[name][0].split())
    near = st.one_of(upto_60, st.just(d), upto_60.map(lambda delta: g + delta))
    args = [g, *draw(st.lists(near, min_size=max(0, arity - 2), max_size=arity))]
    return "<" + " ".join([name, *map(str, args)]) + ">"


@st.composite
def large_argvs(draw):
    verb = draw(st.sampled_from(["eval", "pair", "pushpull"]))
    g, d = draw(huge_ints), draw(upto_60)

    def expression(degree):
        return draw(st.one_of(grammar_text, sums(degree), large_references(g, d)))

    argv = [verb, "--g", str(g), "--d", str(d)]
    if verb == "eval":
        argv += ["--expr", expression(d)]
    elif verb == "pair":
        p = draw(st.integers(0, max(d, 0)))
        argv += ["--a", expression(p), "--b", expression(d - p)]
    else:
        argv += ["--k", str(draw(upto_60)), "--expr", expression(draw(st.sampled_from([d, d - 1, 1])))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


def assert_documented_exit(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2)
    # Only the CLI's own one-line messages reach stderr: no traceback, no interpreter text.
    for line in err.getvalue().splitlines():
        assert line.startswith(("usage error: ", "error: ")), line


@settings(max_examples=200, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(large_argvs())
def test_expression_verbs_at_large_magnitudes(argv):
    assert_documented_exit(argv)


@settings(max_examples=300, deadline=None)
@given(grammar_text, st.integers(2, 14), st.integers(1, 14))
def test_parse_class_returns_a_class_or_a_syntax_error(text, g, d):
    try:
        result = parse_class(text, Ambient(g, d))
    except ClassSyntaxError:
        return
    assert isinstance(result, NSClass)


def outcome(parse, text, amb):
    """What a parser makes of `text`: a class, or the error's message and byte offset."""
    try:
        return parse(text, amb)
    except ClassSyntaxError as exc:
        return str(exc), exc.position


blanks = st.sampled_from(["", " ", "\t", "  ", " \t "])


@st.composite
def canonical_with_blanks(draw):
    """format_class output with spaces and tabs drawn at every token boundary."""
    amb = Ambient(draw(st.integers(2, 14)), draw(st.integers(1, 8)))
    coeff = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
    keys = st.tuples(st.integers(0, 8), st.integers(0, 8))
    text = format_class(NSClass(amb, draw(st.dictionaries(keys, coeff, max_size=12))))
    tokens = re.findall(r"theta|x|[0-9]+|[^ ]", text)
    return "".join(draw(blanks) + token for token in tokens) + draw(blanks)


@st.composite
def loose_sums(draw, zero_denominators=True):
    """Sums the canonical form never prints: repeated monomials, x^0, 2/4, factors in any order and number."""
    terms = []
    for n in range(draw(st.integers(1, 5))):
        term = draw(st.sampled_from(["", "+", "-"] if n == 0 else ["+", "-"])) + str(draw(st.integers(0, 20)))
        if draw(st.booleans()):
            term += "/" + str(draw(st.integers(0 if zero_denominators else 1, 6)))
        for _ in range(draw(st.integers(0, 4))):
            term += "*" + draw(st.sampled_from(["x", "theta"]))
            if draw(st.booleans()):
                term += "^" + str(draw(st.integers(0, 3)))
        terms.append(term)
    return draw(blanks).join(terms)


@st.composite
def prefixes(draw):
    text = draw(st.one_of(canonical_with_blanks(), loose_sums(zero_denominators=False)))
    return text[:draw(st.integers(0, len(text)))]


@st.composite
def spliced(draw):
    """A valid string with one character from anywhere in Unicode put in at a random offset."""
    text = draw(st.one_of(canonical_with_blanks(), loose_sums(zero_denominators=False)))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.characters()) + text[at:]


@settings(max_examples=500, deadline=None)
@given(st.one_of(grammar_text, canonical_with_blanks(), loose_sums(), prefixes(), spliced()),
       st.integers(2, 14), st.integers(1, 8))
def test_parse_class_agrees_with_the_reference_parser(text, g, d):
    amb = Ambient(g, d)
    assert outcome(parse_class, text, amb) == outcome(reference_parse_class, text, amb)


def matches(pattern, text):
    """`pattern`'s groups and end at every offset of `text`, None where it does not match."""
    found = [pattern.match(text, at) for at in range(len(text) + 1)]
    return [m and (m.groups(), m.end()) for m in found]


@settings(max_examples=300, deadline=None)
@given(st.one_of(grammar_text, canonical_with_blanks(), loose_sums(), prefixes(), spliced()))
def test_term_patterns_match_as_their_optional_group_forms(text):
    assert matches(_TERM, text) == matches(TERM, text)
    assert matches(_FACTOR, text) == matches(FACTOR, text)


# With Python's int-string limit in force, a digit run past it raises the
# same ValueError as a read of the whole string would, ahead of grammar errors.
@pytest.mark.parametrize("text", [
    "1 2" + "9" * 5000,
    "9" * 5000 + "/" + "9" * 6000,
    "1*x^5 " + "8" * 4500 + "^",
    "1/0 " + "9" * 4400,
    "1 %" + "9" * 5000,
])
def test_parse_class_meets_long_digit_runs_in_reading_order(text):
    amb = Ambient(6, 4)
    results = []
    for parse in (parse_class, reference_parse_class):
        try:
            results.append(outcome(parse, text, amb))
        except ValueError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


@st.composite
def large_class_or_cone_argvs(draw):
    """`class` or `cone` at a large genus; other arguments within 60, a cone's d within 60 of 0 or of g."""
    g = draw(huge_ints)
    if draw(st.booleans()):
        d = draw(st.one_of(upto_60, upto_60.map(lambda delta: g + delta)))
        argv = ["cone", "--curve", draw(st.sampled_from([c.value for c in CurveClass])),
                "--g", str(g), "--d", str(d)]
        if draw(st.booleans()):
            argv += ["--query", draw(st.one_of(grammar_text, sums(1), large_references(g, d)))]
    else:
        name = draw(st.sampled_from([*NAMED_CLASSES, "rho"]))
        params = NAMED_CLASSES[name][0] if name in NAMED_CLASSES else "g r d"
        taken = [param.strip("[]") for param in params.split()]
        argv = ["class", "--name", name, "--g", str(g)]
        for flag in CLASS_FLAGS[1:]:
            # the flags the name takes nine times in ten, the others one time in ten
            if draw(st.integers(0, 9)) < (9 if flag in taken else 1):
                argv += [f"--{flag}", str(draw(upto_60))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=300, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(large_class_or_cone_argvs())
def test_class_and_cone_at_large_magnitudes(argv):
    assert_documented_exit(argv)


@st.composite
def either_form(draw):
    """A fuzzed argv, a verb and then flag-value pairs, with some pairs written `--flag=VALUE`.

    A `--flag=--` of `argvs` is one token already, and stays as it is.
    """
    verb, *rest = draw(st.one_of(argvs(), large_argvs(), large_class_or_cone_argvs()))
    argv, tokens = [verb], iter(rest)
    for flag in tokens:
        if "=" in flag:
            argv.append(flag)
            continue
        value = next(tokens)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(either_form())
def test_argv_reader_reads_fuzzed_argv_as_argparse_does(argv):
    assert reader_disagreements([argv]) == []
