"""The CLI's cold paths: what only a declined argv, a config file or a malformed expression runs.

`cli` imports this module on those paths alone: argparse reads the argv that
`cli._read_argv` declines (help and every usage error), `verify --config`
reads its file, and a class expression that does not parse ranks its errors.
So a well-formed call neither compiles this module nor loads argparse.

This module imports `cli` as any module would.  `python -m cdcalc.cli` runs
`cli.py` as `__main__`, which registers itself as `cdcalc.cli` before `main`
runs, so the import finds that running copy and the errors raised here are
the ones its `main` catches.
"""

import io
import re
import sys

from . import cli

# -- the parse-error ranking ---------------------------------------------------

# Blank runs, the alphabet and digit runs.  The alphabet's match ends at the
# first character outside it: ASCII only, so every error position is also a
# byte offset.
_BLANKS = re.compile(r"[ \t]*")
_ALPHABET = re.compile(r"(?:theta|[0-9 \t+*/^x-])*")
_DIGIT_RUNS = re.compile(r"[0-9]+")

# What the grammar wants after each operator.
_OPERANDS = {"+": "a rational coefficient", "-": "a rational coefficient",
             "/": "an integer denominator", "*": "'x' or 'theta' after '*'", "^": "an integer exponent"}


def syntax_error(expr: str, message: str, position: int) -> cli.ClassSyntaxError:
    """The error `expr` reports, given the first grammar error found in it.

    A left-to-right read of the characters ranks the errors: a character
    outside the alphabet, or a digit run before it that is past Python's
    int-string limit (a ValueError from `int`), whichever comes first, is
    reported ahead of any grammar error.
    """
    bad = _ALPHABET.match(expr).end()
    for digits in _DIGIT_RUNS.findall(expr, 0, bad):
        int(digits)
    if bad < len(expr):
        return cli.ClassSyntaxError(f"unexpected character {expr[bad]!r}", bad)
    return cli.ClassSyntaxError(message, position)


def missing_operand(expr: str, op: int) -> cli.ClassSyntaxError:
    """The error for the operator at offset `op`, which the grammar wants an operand after."""
    at = _BLANKS.match(expr, op + 1).end()
    if at == len(expr):
        return syntax_error(expr, "unexpected end of expression", at)
    return syntax_error(expr, f"expected {_OPERANDS[expr[op]]}", at)


def missing_term(expr: str, end: int) -> cli.ClassSyntaxError:
    """The error where a term starts at offset `end` but no coefficient does."""
    at = _BLANKS.match(expr, end).end()
    if at == len(expr):
        return syntax_error(expr, "empty class expression", 0)
    if expr[at] in "+-":
        return missing_operand(expr, at)
    return syntax_error(expr, "expected a rational coefficient", at)


# -- the config file -----------------------------------------------------------

# A file that sets both keys needs well under a kilobyte; reading no more
# than this bounds the work and the memory a file such as /dev/zero can cost.
_CONFIG_BYTES = 4096


def read_config(path: str) -> dict[str, int]:
    """The g-min/g-max values of a key=value file, each line checked as it is read.

    A byte-order mark at the start of the file is skipped, and lines end as
    in a file read in text mode.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read(_CONFIG_BYTES + 1)
    except OSError as exc:
        raise cli.UsageError(f"cannot read config file: {exc}") from None
    if len(data) > _CONFIG_BYTES:
        raise cli.UsageError(f"{path}: a config file holds at most {_CONFIG_BYTES} bytes")
    values: dict[str, int] = {}
    for lineno, raw in enumerate(io.StringIO(data.decode("utf-8-sig"), newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        at = f"{path}:{lineno}:"  # every error names its line
        if "=" not in line:
            raise cli.UsageError(f"{at} expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in ("g-min", "g-max"):
            raise cli.UsageError(f"{at} unknown key '{key}'")
        if key in values:
            raise cli.UsageError(f"{at} duplicate key '{key}'")
        try:
            values[key] = cli.integer(value)
        except ValueError:
            raise cli.UsageError(f"{at} key '{key}' must be an integer, got {value!r}") from None
    return values


# -- argparse --------------------------------------------------------------------

def build_parser(table: dict) -> "argparse.ArgumentParser":
    """The parser of the verbs in `table`, a narrowing of `cli._verbs()`, each with its flags."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise cli.UsageError(message)

    parser = _Parser(prog="cdcalc", description=cli.__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)
    for verb, (text, handler, flags, formats) in table.items():
        sub = verbs.add_parser(verb, help=text)
        for flag, options in cli._options(flags, formats).items():
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


def parse_args(argv: list[str]):
    """argparse's reading of `argv`, for the argv `cli._read_argv` declines: help and every usage error.

    When `argv` starts with a verb, argparse hands the rest to that verb
    alone, and the CLI prints no top-level usage on an error, so only that
    verb's subparser is built.  Otherwise (an empty argv, or one that starts
    with an option or an unknown word) every verb is built with its flags:
    argparse may list the verbs, or still pick one, as in `-x eval`, and
    must report that verb's own errors.

    argparse reads a separate value that starts with '-' as a flag, so
    `--expr -1*x` is refused as a missing value; the error then names the
    form that takes such a value.  A verb's flag (or an abbreviation of one)
    given the value `--` after '=' is refused before argparse reads it:
    argparse before 3.13 hands the handler an empty list for it, 3.13 the
    text `--`.  The tokens are read left to right, as argparse reads them, up
    to a bare `--` or a help flag, which argparse answers first.

    The help text is flushed before argparse's `SystemExit(0)` leaves, so a
    failed write ends the call in `cli.main` as any other output's does.
    """
    table = cli._verbs()
    if argv and argv[0] in table:
        table = {argv[0]: table[argv[0]]}
        help_flag = "--help"  # argparse's own, with -h
        names = [*cli._options(*table[argv[0]][2:]), help_flag]
        for token in argv[1:argv.index("--") if "--" in argv else None]:
            flag, _equals, value = token.partition("=")
            named = [flag] if flag in names else [name for name in names if name.startswith(flag)]
            if token == "-h" or named == [help_flag]:
                break
            if value == "--" and len(named) == 1:
                raise cli.UsageError(f"argument {named[0]}: '--' is not a value")
    try:
        return build_parser(table).parse_args(argv)
    except cli.UsageError as exc:
        missing = re.fullmatch(r"argument (--[a-z-]+): expected one argument", str(exc))
        if missing and any(token == missing[1] and following.startswith("-")
                           for token, following in zip(argv, argv[1:])):
            raise cli.UsageError(f"{exc} (a value that starts with '-' is written {missing[1]}=VALUE)") from None
        raise
    except SystemExit:
        if sys.stdout is not None:  # None when fd 1 was closed at start-up
            sys.stdout.flush()
        raise
