"""Package-level guards: the lazy namespace, the CLI's import set, stdlib only,
one value-type base."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdcalc"

PROBE = """
import json, sys
import cdcalc.cli
loaded = sorted(m for m in ("dataclasses", "inspect", "csv", "cdcalc.checks") if m in sys.modules)
import cdcalc
missing = [n for n in cdcalc.__all__ if getattr(cdcalc, n, None) is None]
unlisted = sorted(set(cdcalc.__all__) - set(dir(cdcalc)))
uncached = sorted(set(cdcalc.__all__) - set(vars(cdcalc)))
try:
    cdcalc.nope
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps([loaded, missing, unlisted, uncached, unknown]))
"""


def test_cli_import_leaves_heavy_modules_out():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    loaded, missing, unlisted, uncached, unknown = json.loads(out)
    assert loaded == []
    assert missing == [] and unlisted == [] and uncached == []
    assert unknown == "AttributeError"


def test_runtime_dependencies_stay_empty():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        assert re.search(r"^dependencies\s*=\s*\[\s*\]\s*$", text, re.MULTILINE)
    else:
        assert tomllib.loads(text)["project"]["dependencies"] == []


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def _trees():
    trees = [(path.name, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))]
    assert trees, f"no sources under {PACKAGE}"
    return trees


def test_slotted_classes_are_records():
    outside = []
    for name, tree in _trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            slotted = any(isinstance(stmt, ast.Assign)
                          and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)
                          for stmt in cls.body)
            bases = {getattr(base, "id", None) for base in cls.bases}
            if slotted and cls.name != "Record" and "Record" not in bases:
                outside.append(f"{name}: {cls.name}")
    assert outside == []


def test_object_setattr_only_in_record_init():
    """`object.__setattr__` only in `Record.__init__`, and a slot's `__set__` only inside `Record`:
    neither may become a way around the records' immutability."""
    stray = []
    for name, tree in _trees():
        inside_init, inside_record = set(), set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "Record":
                inside_record.update(map(id, ast.walk(cls)))
                for method in cls.body:
                    if isinstance(method, ast.FunctionDef) and method.name == "__init__":
                        inside_init.update(map(id, ast.walk(method)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if (node.attr == "__setattr__" and getattr(node.value, "id", None) == "object"
                    and id(node) not in inside_init):
                stray.append(f"{name}:{node.lineno}: object.__setattr__")
            if node.attr == "__set__" and id(node) not in inside_record:
                stray.append(f"{name}:{node.lineno}: .__set__")
    assert stray == []


def test_fast_constructor_only_on_validated_values():
    """`Record._make` skips validation, so it is reached only where the values were checked already:
    a class's numerators in `_of`, three ambients derived from checked ints, and `run_all`'s rows."""
    sites = []
    for name, tree in _trees():
        enclosing, inside_record = {}, set()
        for node in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
            if isinstance(node, ast.FunctionDef):
                enclosing.update(dict.fromkeys(map(id, ast.walk(node)), node.name))
            if isinstance(node, ast.ClassDef) and node.name == "Record":
                inside_record.update(map(id, ast.walk(node)))
        sites += [f"{name}: {enclosing.get(id(node))}: {ast.unparse(node)}"
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and node.attr == "_make" and id(node) not in inside_record]
    assert sorted(sites) == [
        "catalog.py: dm_class: Ambient._make",
        "catalog.py: pushpull: Ambient._make",
        "checks.py: _run: CheckResult._make",
        "checks.py: check_pushpull_closed_form: Ambient._make",
        "nsring.py: _of: NSClass._make",
    ]


def test_cli_names_no_row_of_the_class_table():
    """What sets one named class apart, such as dm's ambient, is in its row, not in a `cli` branch."""
    from cdcalc import NAMED_CLASSES

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    named = [f"cli.py:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in NAMED_CLASSES]
    assert named == []


def test_version_is_declared_once():
    import cdcalc
    from cdcalc.checks import run_all

    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        project = re.search(r"^\[project\]$(.*?)^\[", text, re.MULTILINE | re.DOTALL).group(1)
        assert re.search(r'^dynamic\s*=\s*\[\s*"version"\s*\]\s*$', project, re.MULTILINE)
        assert not re.search(r"^version\s*=", project, re.MULTILINE)
        assert re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"cdcalc.__version__"\s*\}\s*$',
                         text, re.MULTILINE)
    else:
        config = tomllib.loads(text)
        assert config["project"]["dynamic"] == ["version"]
        assert "version" not in config["project"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "cdcalc.__version__"}
    assert not (PACKAGE / "_version.py").exists()
    assert run_all(5, 5).version == cdcalc.__version__


def test_as_integer_ratio_only_in_ratio():
    """`nsring._ratio` is the one reader that turns an int or a Fraction into (numerator, denominator)."""
    stray = []
    for name, tree in _trees():
        inside = set()
        for node in ast.walk(tree):
            if name == "nsring.py" and isinstance(node, ast.FunctionDef) and node.name == "_ratio":
                inside.update(map(id, ast.walk(node)))
        stray += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio"
                  and id(node) not in inside]
    assert stray == []


def test_printers_write_no_fraction_through_str(monkeypatch):
    """Every printer writes exact values through `nsring._lowest_terms`, never `Fraction.__str__`."""
    import io
    from contextlib import redirect_stdout
    from fractions import Fraction

    from cdcalc import (Ambient, ConeRay, LinearSeries, bounds_to_json, format_class,
                        format_rational, full_catalog, subordinate_class)
    from cdcalc.checks import report_csv, report_json, run_all
    from cdcalc.cli import main

    def refuse(self):
        raise AssertionError("Fraction.__str__ called")

    monkeypatch.setattr(Fraction, "__str__", refuse)
    gamma = subordinate_class(Ambient(6, 4), LinearSeries(5, 1))
    report = run_all(5, 7)  # renders both sides of each check
    assert format_class(gamma) == "1/6*theta^3 - 1*x*theta^2 + 3*x^2*theta - 4*x^3"
    assert (format_rational(Fraction(3, 2)), format_rational(Fraction(7))) == ("3/2", "7")
    assert str(ConeRay(2, -3)) == "1*theta - 3/2*x"
    assert '"rayX": "-3/2"' in bounds_to_json(full_catalog(2, 12))
    assert report_json(report, include_timing=False) and report_csv(report)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["cone", "--curve", "general", "--g", "6", "--d", "4", "--format", "json"])
    assert code == 0 and '"-3/2"' in out.getvalue()


def test_patterns_use_no_syntax_newer_than_python_3_10():
    """Possessive quantifiers and atomic groups arrived in 3.11's `re`; the package supports 3.10."""
    patterns = []
    for name, tree in _trees():
        patterns += [(name, node.args[0].value) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and getattr(node.func.value, "id", None) == "re" and node.args
                     and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)]
    from cdcalc import cli

    assert ("cli.py", cli._TERM.pattern) in patterns
    newer = []
    for name, pattern in patterns:
        atoms = re.sub(r"\[(?:\\.|[^\]\\])*\]", "a", re.sub(r"\\.", "a", pattern))  # escapes, sets: one atom
        newer += [f"{name}: {pattern!r}: {syntax}" for syntax in ("*+", "++", "?+", "}+", "(?>")
                  if syntax in atoms]
    assert newer == []
