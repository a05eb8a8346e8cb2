"""List what one small CLI call of each verb compiles but never runs.

    python3 tests/compile_ledger.py [verb ...]

Each call in `CALLS` (all of them, or those of the verbs named) runs in a
fresh interpreter under a profile hook (`sys.setprofile`) that records every
function called, from the first package import to the call's end.  With no
bytecode cache a call compiles every package module it loads, so the script
counts each loaded module's AST nodes (`cdcalc/__init__.py` included), as
`COMPILE_BUDGET` in `tests/test_package.py` does.  Then it lists, per module,
each function that never ran with its node count, largest first.  A function
that ran is searched for nested functions that did not; one that never ran
is counted whole.  Docstrings count as nodes but cost no measurable compile
time, so the never-run shares are upper bounds.  Standard library only.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# One small, well-formed call per verb.
CALLS = {
    "eval": ["eval", "--g", "6", "--d", "4", "--expr", "1*x^4"],
    "pair": ["pair", "--g", "6", "--d", "4", "--a", "1*x", "--b", "<gamma 6 4 5 1>"],
    "class": ["class", "--name", "gamma", "--g", "6", "--d", "4", "--n", "5", "--r", "1"],
    "pushpull": ["pushpull", "--g", "6", "--d", "2", "--k", "1", "--expr", "1*x"],
    "cone": ["cone", "--curve", "general", "--g", "8", "--d", "6", "--query", "1*theta"],
    "verify": ["verify", "--g-min", "5", "--g-max", "6"],
}

# Runs one call with its output dropped; prints the exit code, the functions
# called as (file, first line) and the package modules loaded, with their files.
PROBE = """
import contextlib, io, sys
called = set()


def hook(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
from cdcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
sys.setprofile(None)
modules = {name: module.__file__ for name, module in sys.modules.items()
           if name == "cdcalc" or name.startswith("cdcalc.")}
import json
print(json.dumps([code, sorted(called), modules]))
"""


def nodes(tree: ast.AST) -> int:
    return sum(1 for _ in ast.walk(tree))


def never_run(tree: ast.AST, ran: set[int], prefix: str = ""):
    """(qualified name, nodes) of each function in `tree` whose first line is not in `ran`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{node.name}"
            lines = {node.lineno, *(decorator.lineno for decorator in node.decorator_list)}
            if lines & ran:
                yield from never_run(node, ran, f"{name}.")
            else:
                yield name, nodes(node)
        elif isinstance(node, ast.ClassDef):
            yield from never_run(node, ran, f"{prefix}{node.name}.")
        else:
            yield from never_run(node, ran, prefix)


def ledger(verb: str, argv: list[str]) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True)
    if run.returncode != 0:
        return [f"{verb}: the probe failed: {run.stderr.strip().splitlines()[-1:]}"]
    code, called, modules = json.loads(run.stdout)
    ran: dict[str, set[int]] = {}
    for filename, line in called:
        ran.setdefault(filename, set()).add(line)
    lines, total, unused = [], 0, 0
    for name, filename in sorted(modules.items()):
        tree = ast.parse(pathlib.Path(filename).read_text(encoding="utf-8"))
        found = sorted(never_run(tree, ran.get(filename, set())), key=lambda row: (-row[1], row[0]))
        count, idle = nodes(tree), sum(n for _, n in found)
        total, unused = total + count, unused + idle
        listing = ", ".join(f"{function} {n}" for function, n in found)
        lines.append(f"  {name}: {count} nodes, {idle} never run" + (f": {listing}" if listing else ""))
    head = f"{verb} ({' '.join(argv)}): exit {code}, {total} nodes, {unused} never run ({100 * unused // total}%)"
    return [head, *lines]


def main(verbs: list[str]) -> int:
    unknown = [verb for verb in verbs if verb not in CALLS]
    if unknown:
        print(f"unknown verb: {', '.join(unknown)}; known: {', '.join(CALLS)}", file=sys.stderr)
        return 1
    failed = False
    for verb in verbs or CALLS:
        lines = ledger(verb, CALLS[verb])
        failed |= "probe failed" in lines[0]
        print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
