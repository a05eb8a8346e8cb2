"""Hand mutants of the tuned code, and a runner that checks the tests kill each one.

    python3 tests/mutants.py [name ...]

`MUTANTS` is the table.  Each row names a mutant and gives the file under
`src/cdcalc/`, the exact old text, the new text, and either the test files
that must kill it or an `equivalent: <reason>` note for a change no test can
see.  Every old text occurs exactly once in `src/` (a tier-1 test in
`tests/test_package.py` checks it), so a row fails loudly when the code it
names moves.

The runner copies the repository, without `.git`, to a temp directory and
runs the test files of the rows asked for (all of them by default) on the
unmutated copy, which must pass.  Then it applies each mutant in turn,
runs that row's test files with pytest, and restores the file.  A mutant is
killed when its tests fail or run past `TIMEOUT`; one whose tests pass
survived.  It prints one line per row and exits 1 if any mutant survived or
a run could not be read.  Standard library only, apart from the pytest it
runs.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT = 600  # seconds per pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # under src/cdcalc
    old: str
    new: str
    tests: "tuple[str, ...] | str"  # test files under tests/, or "equivalent: <reason>"


REPORT_TESTS = ("test_checks.py", "test_cli.py")

MUTANTS = [
    # checks._write and the format writers
    Mutant("write-counts-no-failure", "checks.py", "        failed += not c.passed\n", "",
           REPORT_TESTS),
    Mutant("json-comma-before-first-row", "checks.py", r'(",\n" if n > 1 else "\n")',
           r'(",\n" if n > 0 else "\n")', REPORT_TESTS),
    Mutant("json-rhs-always-lhs", "checks.py", "rhs = lhs if c.rhs is c.lhs else",
           "rhs = lhs if True else", REPORT_TESTS),
    Mutant("text-isatty-per-row", "checks.py", "status[c.passed], c.check_id",
           "(status if out.isatty() else status)[c.passed], c.check_id", REPORT_TESTS),
    Mutant("csv-passed-swapped", "checks.py", 'c.rhs, "true" if c.passed else "false"',
           'c.rhs, "false" if c.passed else "true"', REPORT_TESTS),
    # nsring._of: the gcd == 1 branch only skips dividing by 1
    Mutant("of-gcd-branch-inverted", "nsring.py", "    if common == 1:  # nothing to divide out",
           "    if common != 1:  # nothing to divide out", ("test_nsring.py", "test_records.py")),
    Mutant("of-gcd-branch-never-taken", "nsring.py", "    if common == 1:  # nothing to divide out",
           "    if False:  # nothing to divide out",
           "equivalent: the other branch divides the denominator and each numerator by a gcd of 1, "
           "which leaves them as they are; the branch only saves those divisions"),
    # cli._read_argv: a separate value starting with '-' is read only with a space and not as '--' or '-h'
    Mutant("read-argv-dash-rule-without-h", "cli.py",
           'if value.startswith("-") and (" " not in value or value[1] in "-h"):',
           'if value.startswith("-") and " " not in value:', ("test_cli.py", "test_package.py")),
    # nsring._pair: two ambients are refused before d > g
    Mutant("pair-refusal-order-swapped", "nsring.py",
           "    a._require_same_ambient(b)\n    _check_evaluable(a.ambient)\n",
           "    _check_evaluable(a.ambient)\n    a._require_same_ambient(b)\n",
           ("test_nsring.py", "test_records.py")),
]


def run_tests(copy: pathlib.Path, tests) -> str:
    """What pytest over `tests` in the copy gave: "passed", "failed <first failing test>",
    "timed out", or pytest's exit code and last line."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
            *(f"tests/{name}" for name in tests)]
    try:
        run = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timed out"
    lines = (run.stdout + run.stderr).strip().splitlines()
    if run.returncode == 1:
        failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
        return f"failed {failed[0] if failed else '(no test named)'}"
    return "passed" if run.returncode == 0 else f"pytest exit {run.returncode}: {lines[-1:]}"


def main(names: list[str]) -> int:
    table = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}; known: {', '.join(table)}", file=sys.stderr)
        return 1
    rows = [table[name] for name in names] if names else MUTANTS
    tested = [mutant for mutant in rows if not isinstance(mutant.tests, str)]
    with tempfile.TemporaryDirectory() as temp:
        copy = pathlib.Path(temp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                                                  ".hypothesis"))
        union = sorted({name for mutant in tested for name in mutant.tests})
        baseline = run_tests(copy, union) if union else "passed"
        if baseline != "passed":
            print(f"the unmutated copy does not pass {' '.join(union)}: {baseline}")
            return 1
        bad = False
        for mutant in rows:
            if isinstance(mutant.tests, str):
                print(f"equivalent  {mutant.name}: {mutant.tests.removeprefix('equivalent: ')}")
                continue
            target = copy / "src" / "cdcalc" / mutant.path
            source = target.read_text(encoding="utf-8")
            if source.count(mutant.old) != 1:
                print(f"stale       {mutant.name}: its old text does not occur once in {mutant.path}")
                bad = True
                continue
            target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                outcome = run_tests(copy, mutant.tests)
            finally:
                target.write_text(source, encoding="utf-8")
            kind = outcome.split()[0]
            verdict = "killed" if kind in ("failed", "timed") else "SURVIVED" if kind == "passed" else "ERROR"
            bad |= verdict != "killed"
            print(f"{verdict:<11} {mutant.name}: {outcome}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
