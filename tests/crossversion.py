"""Check the pinned output digests under each Python interpreter given.

    python3 tests/crossversion.py python3.11 python3.12 python3.13

Each interpreter runs this script with no arguments, which checks the
interpreter running it: the command-line and bound-catalogue digests of
`tests/test_output_gate.py`, the masked 5..40 and 5..120 sweep digests in
`SWEEP_DIGESTS` (the one copy, which `tests/test_checks.py` reads), that
every argv in `tests/test_package.py`'s `EDGE_ARGV` gets the same exit
code, stdout and stderr from the parser `cli.main` builds for it as from the
parser with every verb, and that `cli._read_argv` reads the command-line
digest's argv, the `EDGE_ARGV` and `reader_edge_argv()` as that
interpreter's argparse does, or declines them.  Argparse's text, and its
reading of values that start with '-', differ between versions, so those
checks compare with argparse on one interpreter, not with pinned text.  The
one refusal `cli` words itself before argparse reads the argv, a flag given
the value `--` after '=', is pinned in `DASH_VALUE_ARGV`.  It
prints one line per interpreter and exits 1 if any check differs or an
interpreter fails to run.  Standard library only: pytest need not be
installed for the interpreters checked.
"""

import contextlib
import hashlib
import io
import pathlib
import platform
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent

# SHA-256 of `report_json(run_all(g_min, g_max), include_timing=False)` at version 0.1.0.
SWEEP_DIGESTS = {
    (5, 40): "a38efc8a9de334551df41f9a817429b1800e1fecd2f0ecd92c72c8115a521862",
    (5, 120): "2320c07d2d6adbe3b1382b5c6ef3b57de1aa5453addb63720027eca5a6b9f967",
}


def sweep_digest(g_min: int, g_max: int) -> str:
    from cdcalc import report_json, run_all

    return hashlib.sha256(report_json(run_all(g_min, g_max), include_timing=False).encode()).hexdigest()


def edge_argv_differ() -> bool:
    """Whether an argv of `EDGE_ARGV` gets another answer from `cli.main` with every verb's parser."""
    from cdcalc import cli, coldpath
    from test_package import EDGE_ARGV

    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    answers = [outcome(argv) for argv in EDGE_ARGV]
    build_parser = coldpath.build_parser
    coldpath.build_parser = lambda table: build_parser(cli._verbs())
    try:
        return [outcome(argv) for argv in EDGE_ARGV] != answers
    finally:
        coldpath.build_parser = build_parser


# argv -> the usage error `cli.main` prints (exit 1, nothing on stdout) for a
# flag given `--` after '=', which argparse before 3.13 turns into an empty list.
DASH_VALUE_ARGV = {
    ("eval", "--g", "6", "--d", "4", "--expr=--"): "usage error: argument --expr: '--' is not a value\n",
    ("class", "--name=--", "--g", "6"): "usage error: argument --name: '--' is not a value\n",
    ("verify", "--config=--"): "usage error: argument --config: '--' is not a value\n",
    ("eval", "--g=--", "--d", "4", "--ex=--"): "usage error: argument --g: '--' is not a value\n",
    ("eval", "--g", "6", "--d", "4", "--ex=--"): "usage error: argument --expr: '--' is not a value\n",
}


def dash_values_differ() -> bool:
    """Whether an argv of `DASH_VALUE_ARGV` gets another answer than its pinned usage error."""
    from cdcalc import cli

    for argv, message in DASH_VALUE_ARGV.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        if (code, out.getvalue(), err.getvalue()) != (1, "", message):
            return True
    return False


# Values argparse reads by their form: a value or a flag, in their own token or
# after '='.  `reader_edge_argv` puts each in place of each flag's value.
TRICKY_VALUES = ["-5", "-1*x - 2*theta", "- 1*x", "-x", "-h", "-h 1", "--", "--g 6", "-", "", "6", "a=b",
                 "-1/8*x^3*theta"]
READER_BASES = [
    ["eval", "--g", "6", "--d", "4", "--expr", "1*x^4"],
    ["pair", "--g", "6", "--d", "4", "--a", "1*x", "--b", "1*theta^3"],
    ["pushpull", "--g", "6", "--d", "2", "--k", "1", "--expr", "1*x"],
    ["cone", "--curve", "general", "--g", "8", "--d", "6", "--query", "1*theta"],
    ["class", "--name", "gamma", "--g", "6", "--d", "4", "--n", "5", "--r", "1"],
    ["verify", "--g-min", "5", "--g-max", "5", "--format", "csv"],
]


def reader_edge_argv() -> list[list[str]]:
    """Each base with each tricky value as each flag's value, in its own token and after '=', and
    with a flag left out, abbreviated or repeated, or with `--` or `-h` before or after the flags."""
    found = []
    for verb, *flags in READER_BASES:
        for at in range(0, len(flags), 2):
            before, flag, after = flags[:at], flags[at], flags[at + 2:]
            for value in TRICKY_VALUES:
                found += [[verb, *before, flag, value, *after], [verb, *before, f"{flag}={value}", *after]]
            found.append([verb, *before, *after])
            if len(flag) > 4:
                found.append([verb, *before, flag[:4], flags[at + 1], *after])
        found += [[verb, *flags, *flags[:2]], [verb, "--", *flags], [verb, *flags, "--"],
                  [verb, "-h", *flags], [verb, *flags, "-h"]]
    return found


def reader_disagreements(argvs) -> list[list[str]]:
    """The argv that `cli._read_argv` reads, but not as `vars()` of argparse's namespace."""
    from cdcalc import cli, coldpath

    found = []
    for argv in argvs:
        read = cli._read_argv(list(argv))
        if read is None:  # declined: argparse reads it in `main`
            continue
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = vars(coldpath.build_parser({argv[0]: cli._verbs()[argv[0]]}).parse_args(list(argv)))
            except (cli.UsageError, SystemExit):
                parsed = None
        if vars(read) != parsed:
            found.append(argv)
    return found


def differing() -> list[str]:
    """The names of the checks that fail on this interpreter: digests, the edge argv, the argv reader."""
    sys.path.insert(0, str(TESTS.parent / "src"))
    import test_output_gate as gate
    from test_package import EDGE_ARGV

    found = []
    for name, check in [("cli-queries", gate.test_cli_queries_output_is_byte_identical),
                        ("catalogue", gate.test_bound_catalogue_is_byte_identical)]:
        try:
            check()
        except AssertionError:
            found.append(name)
    found += [f"sweep {g_min}..{g_max}" for (g_min, g_max), digest in SWEEP_DIGESTS.items()
              if sweep_digest(g_min, g_max) != digest]
    if edge_argv_differ():
        found.append("edge argv")
    if dash_values_differ():
        found.append("'--' values")
    if reader_disagreements([argv for argv, *_ in gate.cli_queries()] + EDGE_ARGV + reader_edge_argv()):
        found.append("argv reader")
    return found


def main(pythons: list[str]) -> int:
    if not pythons:  # check the interpreter running this script
        found = differing()
        print(f"Python {platform.python_version()}: {'differs: ' + ', '.join(found) if found else 'ok'}")
        return 1 if found else 0
    failed = False
    for python in pythons:
        try:
            run = subprocess.run([python, __file__], capture_output=True, text=True)
        except OSError as exc:
            print(f"{python}: cannot run: {exc}")
            failed = True
            continue
        lines = (run.stdout or run.stderr).strip().splitlines()
        print(f"{python}: {lines[-1] if lines else f'exit {run.returncode}, no output'}")
        failed |= run.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
