"""Check the pinned output digests under each Python interpreter given.

    python3 tests/crossversion.py ~/.pyenv/versions/3.10.13/bin/python ~/.pyenv/versions/3.13.0/bin/python

Each interpreter runs this script with no arguments, which checks the
interpreter running it: the command-line and bound-catalogue digests of
`tests/test_output_gate.py`, and the masked 5..40 and 5..120 sweep digests
in `SWEEP_DIGESTS` (the one copy, which `tests/test_checks.py` reads).  It
prints one line per interpreter and exits 1 if any digest differs or an
interpreter fails to run.  Standard library only: pytest need not be
installed for the interpreters checked.
"""

import hashlib
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


def differing() -> list[str]:
    """The names of the digests that differ from their pinned values on this interpreter."""
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
