"""Command-line driver: classes, pairings, push-pull, cone queries, verify suite.

Class expressions use an explicit grammar — sums of terms
``<rational>*x^i*theta^j`` such as ``"1*theta - 2*x"`` — so exact rational
coefficients like ``1/6`` parse unambiguously.  Wherever an expression is
accepted, a named reference like ``"<gamma 6 4 5 1>"`` builds the
corresponding catalogued class instead.  The ambient (g, d) is always an
explicit flag pair; nothing is inferred from class names.
"""

import os
import re
import sys
from functools import cache
from types import SimpleNamespace

# Only the ring is imported here.  With no bytecode cache a call compiles every
# module it imports, so `catalog` and `conelab` are imported by the code that
# uses them, and a call loads only what its verb runs.  `coldpath` holds what a
# well-formed call never runs (argparse, the config reader, the parse-error
# ranking) and is imported by `_cold` on those paths alone.  `eval` and `pair`
# print the ring's integer (numerator, denominator) pairs, and `cone` the
# integer directions of its rays, so `fractions` is loaded only by the verb
# that builds a Fraction: `verify`.
from .nsring import Ambient, NSClass, _eval_top, _lowest_terms, _of, _over_lcm, _pair, format_class


class UsageError(Exception):
    pass


class ClassSyntaxError(ValueError):
    """Malformed class expression; carries the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (byte {position})")
        self.position = position


# -- integers and class expressions -------------------------------------------

# Input takes ASCII digits only: str.isdigit() and int() also accept
# "²", "٣", "1_0", "+5" and " 5".
_DIGITS = frozenset("0123456789")


def integer(text: str) -> int:
    """ASCII digits after an optional '-': every integer from argv, a config file or a <ref>."""
    digits = text.removeprefix("-")
    if not digits or not _DIGITS.issuperset(digits):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _cold():
    """`coldpath`, the module of what only a declined argv, `--config` or a malformed expression runs."""
    from . import coldpath

    return coldpath


@cache
def _patterns() -> tuple[re.Pattern, re.Pattern]:
    """The parser's term and factor patterns, compiled on the first parse.

    A call that parses no class expression does not pay for compiling them,
    and a well-formed expression does not pay for the patterns that rank its
    errors: those are compiled with `coldpath`.

    A term is a sign, a numerator, an optional denominator, then an x factor
    and a theta factor, each optional and each with an optional exponent.
    Spaces and tabs may follow every token.  Factors in another order or
    number are read one at a time by the factor pattern after the term's
    match.  No two blank runs may meet: on a failed match the engine would
    try every split of the blanks between them, quadratic in their length.
    Each optional group is written `(?:X|)`, not `(?:X)?`: the same language,
    tried in the same order, which `re` runs as a branch instead of a repeat
    that saves its marks, about a third faster.
    """
    return (
        re.compile(
            r"[ \t]*(?:([+-])[ \t]*|)([0-9]+)[ \t]*"
            r"(?:/[ \t]*([0-9]+)[ \t]*|)"
            r"(?:\*[ \t]*(x)[ \t]*(?:\^[ \t]*([0-9]+)[ \t]*|)|)"
            r"(?:\*[ \t]*(theta)[ \t]*(?:\^[ \t]*([0-9]+)[ \t]*|)|)"
        ),
        re.compile(r"\*[ \t]*(x|theta)[ \t]*(?:\^[ \t]*([0-9]+)[ \t]*|)"),
    )


def parse_class(expr: str, amb: Ambient) -> NSClass:
    """Parse a class expression into a class on the given ambient.

    The grammar is wider than the canonical form `format_class` prints::

        expr   := [sign] term (sign term)*
        term   := integer ["/" integer] ("*" factor)*
        factor := ("x" | "theta") ["^" integer]

    where `sign` is '+' or '-' and `integer` is a run of ASCII digits.
    Spaces and tabs may stand between any two tokens, and only there.
    Factors may come in any order and repeat (`1*x*theta*x` is
    `1*x^2*theta`); terms on the same monomial are summed.  The denominator
    must not be zero.

    Errors carry a byte offset.  A character outside the alphabet, anywhere
    in the string, is reported before any other error; otherwise the first
    error in reading order is.  Terms whose degree exceeds d are rejected
    rather than silently truncated: explicit user input should not vanish.
    """
    read: list[tuple[tuple[int, int], int, int]] = []  # (key, numerator, denominator) per term
    term, factors = _patterns()
    end = 0
    while True:
        m = term.match(expr, end)
        if m is None:  # no coefficient where a term starts
            raise _cold().missing_term(expr, end)
        sign, numerator, den, x, x_power, theta, theta_power = m.groups()
        numerator = -int(numerator) if sign == "-" else int(numerator)
        denominator = 1
        if den is not None:
            denominator = int(den)
            if not denominator:
                raise _cold().syntax_error(expr, "zero denominator", m.start(3))
        i = (int(x_power) if x_power else 1) if x else 0
        j = (int(theta_power) if theta_power else 1) if theta else 0
        end = m.end()
        while expr.startswith("*", end):
            factor = factors.match(expr, end)
            if factor is None:
                raise _cold().missing_operand(expr, end)
            name, power = factor.groups()
            power = int(power) if power else 1
            if name == "x":
                i += power
            else:
                j += power
            end = factor.end()
        stop = expr[end:end + 1]
        # An operator left without its operand: '/' after the numerator, '^' after a name.
        if (stop == "/" and den is None and x is None and theta is None
                or stop == "^" and expr[:end].rstrip(" \t").endswith(("x", "theta"))):
            raise _cold().missing_operand(expr, end)
        if i + j > amb.d:
            raise _cold().syntax_error(
                expr, f"degree exceeds ambient: term of degree {i + j} on C_{amb.d}", m.start(2))
        read.append(((i, j), numerator, denominator))
        if not stop:
            return _of(amb, *_over_lcm(read))  # _of drops the terms that cancel and divides out the gcd
        if stop not in "+-":
            raise _cold().syntax_error(expr, "expected '+' or '-' between terms", end)


# -- named class references ---------------------------------------------------

def _flags(params: str) -> list[str]:
    """The flag names in a signature such as "g d rank f [max-degree]"."""
    return [param.strip("[]") for param in params.split()]


@cache
def _class_table() -> tuple[dict, dict[str, str], list[str]]:
    """The class table, name -> signature of every `class --name`, and the flags they take in order.

    The names are the table's rows, and rho, which prints an integer, not a
    class, so it is not in the table.  Built on first use, so a call that
    names no class does not import the table.
    """
    from .catalog import NAMED_CLASSES

    signatures = {**{name: row[0] for name, row in NAMED_CLASSES.items()}, "rho": "g r d"}
    return NAMED_CLASSES, signatures, list(dict.fromkeys(_flags(" ".join(signatures.values()))))


def _named(name: str, values: list[int]):
    """The table's builder for `name` and the (g, d) its class lives on, read from its arguments.

    So a caller can refuse a class on another ambient before the builder
    runs: a large class can take long to build, only to be refused afterwards.
    """
    params, builder, *ambient = _class_table()[0][name]
    most = len(params.split())
    least = most - params.count("[")
    if not least <= len(values) <= most:
        count = str(most) if least == most else f"{least} or {most}"
        raise UsageError(f"class reference '{name}' takes {count} integers: <{name} {params}>")
    if ambient:
        return builder, ambient[0](*values)
    named = dict(zip(_flags(params), values))
    return builder, (named["g"], named["d"])


def resolve_class(text: str, amb: Ambient) -> NSClass:
    """An inline class expression, or a "<name int...>" catalogued-class reference."""
    stripped = text.strip()
    if not stripped.startswith("<"):
        return parse_class(text, amb)
    if not stripped.endswith(">"):
        raise UsageError(f"unterminated class reference: {text!r}")
    fields = stripped[1:-1].split()
    if not fields:
        raise UsageError("empty class reference")
    name, raw_args = fields[0], fields[1:]
    named = _class_table()[0]
    if name not in named:
        raise UsageError(f"unknown class reference '{name}'; known: {', '.join(sorted(named))}")
    try:
        args = [integer(a) for a in raw_args]
    except ValueError:
        raise UsageError(f"class reference arguments must be integers: {text!r}") from None
    builder, (g, d) = _named(name, args)
    if (g, d) != (amb.g, amb.d):
        raise UsageError(f"class reference lives on (g={g}, d={d}), command ambient is {amb}")
    return builder(*args)


# -- output helpers -----------------------------------------------------------

def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- verb handlers ------------------------------------------------------------

def cmd_class(args) -> int:
    from .catalog import brill_noether_rho

    _, signatures, class_flags = _class_table()
    name = args.name
    params = signatures[name]
    taken = _flags(params)
    given = {flag: getattr(args, flag.replace("-", "_")) for flag in class_flags}
    unused = [f"--{flag}" for flag, value in given.items()
              if value is not None and flag not in taken and flag != "d"]
    if unused:
        raise UsageError(f"--name {name} does not take {' '.join(unused)}")
    required = taken[:len(taken) - params.count("[")]
    if any(given[flag] is None for flag in required):
        raise UsageError(f"--name {name} requires {' '.join(f'--{flag}' for flag in required)}")
    values = [given[flag] for flag in taken if given[flag] is not None]
    if name == "rho":
        value = brill_noether_rho(*values)
        _emit(args, [str(value)], {"name": name, "value": value})
        return 0
    builder, (_g, d) = _named(name, values)
    if args.d is not None and args.d != d:
        raise UsageError(f"--d {args.d} does not match the class ambient C_{d}")
    cls = builder(*values)
    text = format_class(cls)
    payload = {"name": name, "ambient": {"g": cls.ambient.g, "d": cls.ambient.d}, "class": text}
    _emit(args, [text], payload)
    return 0


def cmd_eval(args) -> int:
    amb = Ambient(args.g, args.d)
    value = _lowest_terms(*_eval_top(resolve_class(args.expr, amb)))
    _emit(args, [value], {"g": args.g, "d": args.d, "expr": args.expr, "value": value})
    return 0


def cmd_pair(args) -> int:
    amb = Ambient(args.g, args.d)
    value = _lowest_terms(*_pair(resolve_class(args.a, amb), resolve_class(args.b, amb)))
    _emit(args, [value], {"g": args.g, "d": args.d, "a": args.a, "b": args.b, "value": value})
    return 0


def cmd_pushpull(args) -> int:
    from .catalog import pushpull

    amb = Ambient(args.g, args.d)
    image = pushpull(resolve_class(args.expr, amb), args.k)
    text = format_class(image)
    payload = {"g": args.g, "d": args.d, "k": args.k, "targetD": image.ambient.d, "class": text}
    _emit(args, [text], payload)
    return 0


def cmd_cone(args) -> int:
    from .conelab import CurveClass, bounds_to_json, contains, general_effective_cone_gm2, known_bounds

    curve = CurveClass(args.curve)
    if curve is CurveClass.GENERAL and args.d == args.g - 2:
        cone = general_effective_cone_gm2(args.g)
        lines = [f"ray: {cone.ray1}", f"ray: {cone.ray2}"]
        payload = {
            "curve": curve.value, "g": args.g, "d": args.d,
            "rays": [dict(zip(("theta", "x"), ray._texts())) for ray in (cone.ray1, cone.ray2)],
        }
        if args.query is not None:
            inside = contains(cone, resolve_class(args.query, Ambient(args.g, args.d)))
            lines.append(f"contains: {'true' if inside else 'false'}")
            payload["query"] = args.query
            payload["contains"] = inside
        _emit(args, lines, payload)
        return 0
    if args.query is not None:
        raise UsageError(
            "membership queries need the full cone: --curve general with --d equal to g-2"
        )
    entries = known_bounds(curve, args.g, args.d)
    if args.format == "json":
        print(bounds_to_json(entries), end="")
    else:
        for e in entries:
            print(f"{e.curve.value} g={e.g} d={e.d}: {e.ray} [{e.status.value}]")
    return 0


def cmd_verify(args) -> int:
    from .checks import _rows, _write

    config = {} if args.config is None else _cold().read_config(args.config)
    g_min = config.get("g-min", 5) if args.g_min is None else args.g_min
    g_max = config.get("g-max", 40) if args.g_max is None else args.g_max
    rows = _rows(g_min, g_max)  # checks the range before anything is written
    out = sys.stdout
    if out is None:  # fd 1 was closed at start-up: run the checks and drop the text, as print does
        out = SimpleNamespace(write=len, isatty=bool)  # write returns the count, isatty() False
    return 2 if _write(out, args.format, g_min, g_max, rows) else 0


# -- argument parsing ---------------------------------------------------------

def _verbs() -> dict:
    """verb -> (help, handler, flags, formats), built per call so patched handlers are seen.

    `flags` is a function that returns the verb's flag table, so only a verb
    whose flags are read builds it: `class` then imports the class table and
    `cone` its curve classes.
    """
    required, optional = {"required": True}, {"type": integer}
    number = {**optional, **required}
    ambient = {"--g": number, "--d": number}
    text_json = ("text", "json")

    def class_flags():
        _, signatures, flags = _class_table()
        listing = "; ".join(f"{name}: {params}" for name, params in signatures.items())
        named = {"required": True, "choices": list(signatures),
                 "help": f"the flags each name takes: {listing}"}
        return {"--name": named, **{f"--{flag}": optional for flag in flags}}

    def cone_flags():
        from .conelab import CurveClass

        return {"--curve": {"required": True, "choices": [c.value for c in CurveClass]},
                **ambient, "--query": {}}

    return {
        "class": ("print a catalogued class in canonical form", cmd_class, class_flags, text_json),
        "eval": ("evaluate a top-degree class expression", cmd_eval,
                 lambda: {**ambient, "--expr": required}, text_json),
        "pair": ("intersection pairing of two classes", cmd_pair,
                 lambda: {**ambient, "--a": required, "--b": required}, text_json),
        "pushpull": ("apply the push-pull operator to a class", cmd_pushpull,
                     lambda: {**ambient, "--k": number, "--expr": required}, text_json),
        "cone": ("cone rays, membership queries, catalogued bounds", cmd_cone, cone_flags, text_json),
        "verify": ("run the identity suite over a genus sweep", cmd_verify,
                   lambda: {"--g-min": optional, "--g-max": optional,
                            "--config": {"help": "optional key=value file pre-setting g-min/g-max"}},
                   ("text", "json", "csv")),
    }


def _options(flags, formats) -> dict[str, dict]:
    """A verb's flags with its `--format`: what `coldpath.build_parser` adds and `_read_argv` reads."""
    return {**flags(), "--format": {"choices": formats, "default": "text"}}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for a well-formed `argv`, read from the verb table, else None.

    A well-formed argv is a verb, then exact flag names of that verb, each
    once, as `--flag VALUE` or `--flag=VALUE`, with every required flag
    given, integers that `integer` reads and values among the flag's
    choices.  A value may not be empty, nor `--`, which argparse before 3.13
    drops even after '='.  A separate value that starts with
    '-' is read only in the one form argparse reads as a value on every
    supported version: it holds a space and does not start with '--' or
    '-h', as in `--expr "-1*x + 2*theta"`.  For any other argv (help, an
    abbreviation, `--`, a repeated flag, any error) this returns None and
    argparse reads it, writing the help and error text.  So a well-formed
    call never imports argparse, nor the `gettext` and `locale` it loads.
    """
    table = _verbs()
    if not argv or argv[0] not in table:
        return None
    _text, handler, flags, formats = table[argv[0]]
    options = _options(flags, formats)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if not equals:
            value = next(tokens, "")
            if value.startswith("-") and (" " not in value or value[1] in "-h"):
                return None
        if flag not in options or flag in given or value in ("", "--"):
            return None
        given[flag] = value
    read = {"verb": argv[0], "handler": handler}
    for flag, option in options.items():
        if flag not in given:
            if option.get("required"):
                return None
            value = option.get("default")
        else:
            try:
                value = option.get("type", str)(given[flag])
            except ValueError:
                return None
            if value not in option.get("choices", (value,)):
                return None
        read[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**read)


def main(argv: list[str] | None = None) -> int:
    # Exact numbers of any size: lift the integer-string limit (0: none) for this call only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv)
        if args is None:
            args = _cold().parse_args(argv)
        code = args.handler(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start-up, where print writes nothing
            sys.stdout.flush()  # a failed write raises here, not in the interpreter's last flush
        return code
    except KeyboardInterrupt:  # Ctrl-C: one line, and the shell's code for SIGINT
        print("interrupted", file=sys.stderr)
        return 130
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the output was not written: a closed pipe, which needs no word, or a full device
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:  # fd 1: the interpreter's last flush goes to devnull (`signal` docs)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.modules["cdcalc.cli"] = sys.modules[__name__]  # `python -m`: `coldpath` imports this copy, not a second
    sys.exit(main())
