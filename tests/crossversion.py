"""Check the pinned output digests under each Python interpreter given.

    python3 tests/crossversion.py ~/.pyenv/versions/3.10.13/bin/python ~/.pyenv/versions/3.13.0/bin/python

Each interpreter runs this script with no arguments, which checks the
interpreter running it: the command-line and bound-catalogue digests of
`tests/test_output_gate.py`, the masked 5..40 and 5..120 sweep digests in
`SWEEP_DIGESTS` (the one copy, which `tests/test_checks.py` reads), and
that every argv in `tests/test_package.py`'s `EDGE_ARGV` gets the same exit
code, stdout and stderr from the parser `cli.main` builds for it as from the
parser with every verb.  Argparse's text differs between versions, so that
check compares the two parsers on one interpreter, not with pinned text.  It
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
    from cdcalc import cli
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
    build_parser = cli.build_parser
    cli.build_parser = lambda argv=None: build_parser()
    try:
        return [outcome(argv) for argv in EDGE_ARGV] != answers
    finally:
        cli.build_parser = build_parser


def differing() -> list[str]:
    """The names of the checks that fail on this interpreter: digests that differ, or the edge argv."""
    sys.path.insert(0, str(TESTS.parent / "src"))
    import test_output_gate as gate

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
