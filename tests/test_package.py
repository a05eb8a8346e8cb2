"""Package-level guards: the lazy namespace, the CLI's import set, stdlib only,
one value-type base."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdcalc"

PROBE = """
import json, sys
import cdcalc.cli
heavy = ("dataclasses", "inspect", "csv", "cdcalc.checks", "cdcalc.conelab", "cdcalc.catalog",
         "cdcalc.coldpath", "fractions", "decimal", "numbers", "__future__", "argparse", "gettext", "locale")
loaded = sorted(m for m in heavy if m in sys.modules)
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


def test_dir_lists_every_public_name():
    # the probe above checks this in a fresh interpreter; this runs `cdcalc.__dir__` in-process too,
    # where line-coverage tools see it
    import cdcalc

    names = dir(cdcalc)
    assert names == sorted(names) and set(cdcalc.__all__) <= set(names)


# The package modules a call loads: only those its verb runs, since with no
# bytecode cache each one is compiled on every call; `coldpath` only with an
# argv `cli` does not read.  And which of the standard modules below it loads:
# `fractions` (with `decimal` and `numbers`) only with the verb that builds a
# Fraction, `verify`; `csv` only for a CSV report and `json` only for JSON
# output; `__future__` never; argparse (with `gettext` and `locale`, which it
# loads) only for the argv `cli` does not read.
FRACTIONS = {"fractions", "decimal", "numbers"}
VERB_MODULES = [
    (["class", "--name", "gamma", "--g", "6", "--d", "4", "--n", "5", "--r", "1"], {"catalog"}, set()),
    (["eval", "--g", "6", "--d", "4", "--expr", "1*x^4"], set(), set()),
    (["eval", "--g", "6", "--d", "4", "--expr", "<gamma 6 4 5 0>"], {"catalog"}, set()),
    (["eval", "--g=6", "--d", "4", "--expr=-1/8*x^3*theta", "--format=json"], set(), {"json"}),
    (["pair", "--g", "6", "--d", "4", "--a", "1*x", "--b", "1*theta^3"], set(), set()),
    (["pushpull", "--g", "6", "--d", "2", "--k", "1", "--expr", "1*x"], {"catalog"}, set()),
    (["cone", "--curve", "general", "--g", "8", "--d", "6", "--query", "1*theta"], {"conelab"}, set()),
    (["cone", "--curve", "general", "--g", "8", "--d", "6", "--format", "json"], {"conelab"}, {"json"}),
    (["cone", "--curve", "hyperelliptic", "--g", "8", "--d", "6"], {"conelab"}, set()),
    (["cone", "--curve", "general", "--g", "12", "--d", "8", "--format", "json"], {"conelab"}, {"json"}),
    (["verify", "--g-min", "5", "--g-max", "5"], {"catalog", "checks"}, FRACTIONS),
    (["verify", "--g-min", "5", "--g-max", "5", "--format", "json"], {"catalog", "checks"}, {*FRACTIONS, "json"}),
    (["verify", "--g-min", "5", "--g-max", "5", "--format", "csv"], {"catalog", "checks"}, {*FRACTIONS, "csv"}),
    (["eval", "--g", "6", "--d", "4", "--expr", "-1*x^4"], {"coldpath"}, {"argparse", "gettext", "locale"}),
]

# The argv is passed as it is, and `json` is imported only after the modules are listed.
MODULES_PROBE = """
import sys
from cdcalc.cli import main
code = main(sys.argv[1:])
stdlib = ("fractions", "decimal", "numbers", "csv", "json", "__future__", "argparse", "gettext", "locale")
found = [code, sorted(m for m in sys.modules if m.startswith("cdcalc.")), sorted(m for m in stdlib if m in sys.modules)]
import json
sys.stderr.write("\\n" + json.dumps(found))
"""


def test_each_verb_loads_only_the_modules_it_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv, extra, stdlib in VERB_MODULES:
        run = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv], env=env,
                             cwd=ROOT, capture_output=True, text=True, check=True)
        code, loaded, loaded_stdlib = json.loads(run.stderr.splitlines()[-1])
        assert code == (1 if "argparse" in stdlib else 0), argv
        assert loaded == sorted(f"cdcalc.{m}" for m in {"cli", "nsring", *extra}), argv
        assert loaded_stdlib == sorted(stdlib), argv


# The AST nodes of the package modules (`cdcalc` itself included) that a
# well-formed call of each verb loads.  With no bytecode cache a call compiles
# them all, at about 0.5 ms per 30 lines of code; docstrings and comments cost
# nothing measurable, so nodes are counted, not bytes.  Raising a ceiling is an
# edit recorded in CHANGES.md.
COMPILE_BUDGET = {"class": 8895, "eval": 6652, "pair": 6652, "pushpull": 8895, "cone": 8464, "verify": 11577}


def test_each_verb_compiles_within_its_budget():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    compiled = {}
    for verb in COMPILE_BUDGET:
        argv = next(argv for argv, _, stdlib in VERB_MODULES if argv[0] == verb and "argparse" not in stdlib)
        run = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv], env=env,
                             cwd=ROOT, capture_output=True, text=True, check=True)
        code, loaded, _ = json.loads(run.stderr.splitlines()[-1])
        assert code == 0, argv
        compiled[verb] = 0
        for name in ["__init__", *(module.removeprefix("cdcalc.") for module in loaded)]:
            tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
            compiled[verb] += sum(1 for _ in ast.walk(tree))
    assert {verb: f"{count} > {COMPILE_BUDGET[verb]}" for verb, count in compiled.items()
            if count > COMPILE_BUDGET[verb]} == {}


# `eval` and `pair` print the ring's integer (numerator, denominator) pair, and
# the library returns it as a Fraction: a zero, an integral, a negative proper
# fraction not yet in lowest terms, and values of several hundred digits.
PRINTED_SCALARS = [
    ("eval", 6, 4, "0*x^4"),
    ("eval", 6, 4, "1*theta^4 - 2*x*theta^3"),
    ("eval", 6, 4, "0 - 1/8*x^3*theta"),
    ("eval", 300, 200, "1/7*theta^200 - 1*x^200"),
    ("pair", 6, 4, "0*x", "1*theta^3"),
    ("pair", 6, 4, "2*x", "1*theta^3"),
    ("pair", 6, 4, "0 - 1/9*x", "1/4*x^2*theta"),
    ("pair", 300, 200, "1/3*theta", "1/5*theta^199 - 1/2*x^199"),
]

SCALARS_PROBE = """
import contextlib, io, json, sys
from cdcalc.cli import main
printed = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    printed.append([code, out.getvalue()])
print(json.dumps([printed, "fractions" in sys.modules]))
"""


def test_eval_and_pair_print_the_library_s_value_without_loading_fractions():
    from cdcalc.cli import parse_class
    from cdcalc.nsring import Ambient, eval_top, format_rational, pair

    argvs, expected = [], []
    for verb, g, d, *exprs in PRINTED_SCALARS:
        amb = Ambient(g, d)
        if verb == "eval":
            argvs.append(["eval", "--g", str(g), "--d", str(d), "--expr", exprs[0]])
            value = eval_top(parse_class(exprs[0], amb))
        else:
            argvs.append(["pair", "--g", str(g), "--d", str(d), "--a", exprs[0], "--b", exprs[1]])
            value = pair(parse_class(exprs[0], amb), parse_class(exprs[1], amb))
        expected.append([0, format_rational(value) + "\n"])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", SCALARS_PROBE, json.dumps(argvs)], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    printed, fractions_loaded = json.loads(out)
    assert printed == expected
    assert [text for _code, text in printed[:3]] == ["0\n", "120\n", "-3/4\n"]
    assert len(printed[3][1]) > 400 and not fractions_loaded


# Each scalar against a class: the constructor, c * v, v * c and c / v.
OPERATIONS_PROBE = """
import json, sys
from decimal import Decimal
from cdcalc.nsring import Ambient, NSClass, format_class

amb, key = Ambient(6, 4), (1, 1)
c = NSClass(amb, {(1, 1): 3, (0, 2): -2})


def outcomes(values):
    found = []
    for value in values:
        for op in (lambda v: NSClass(amb, {key: v}), lambda v: c * v, lambda v: v * c, lambda v: c / v):
            try:
                found.append(format_class(op(value)))
            except TypeError as exc:
                found.append(f"TypeError: {exc}")
    return found


ints = [format_class(x) for x in (NSClass(amb, {key: -6}), c * -6, -6 * c, c * True, amb.monomial(1, 1, 4))]
refused = outcomes([0.5, Decimal("0.5"), "1/2"])
unloaded = "fractions" not in sys.modules
quotient = format_class(c / -6)
loaded = "fractions" in sys.modules  # the reciprocal in `/` is a Fraction
import fractions


class Sub(fractions.Fraction):
    pass


print(json.dumps([ints, refused, unloaded, quotient, loaded, outcomes([fractions.Fraction(-3, 4)]),
                  outcomes([Sub(1, 2), 0.5, Decimal("0.5"), "1/2"])]))
"""

# What each non-scalar value raises, in `OPERATIONS_PROBE`'s order of operations.
REFUSED = {
    "float": [
        "TypeError: coefficients must be int or Fraction, got float",
        "TypeError: unsupported operand type(s) for *: 'NSClass' and 'float'",
        "TypeError: unsupported operand type(s) for *: 'float' and 'NSClass'",
        "TypeError: unsupported operand type(s) for /: 'NSClass' and 'float'",
    ],
    "Decimal": [
        "TypeError: coefficients must be int or Fraction, got Decimal",
        "TypeError: unsupported operand type(s) for *: 'NSClass' and 'decimal.Decimal'",
        "TypeError: unsupported operand type(s) for *: 'decimal.Decimal' and 'NSClass'",
        "TypeError: unsupported operand type(s) for /: 'NSClass' and 'decimal.Decimal'",
    ],
    "str": [
        "TypeError: coefficients must be int or Fraction, got str",
        "TypeError: can't multiply sequence by non-int of type 'NSClass'",
        "TypeError: can't multiply sequence by non-int of type 'NSClass'",
        "TypeError: unsupported operand type(s) for /: 'NSClass' and 'str'",
    ],
}


def test_scalars_are_read_alike_before_and_after_fractions_is_loaded():
    """Int scalars need no `fractions`; once it is loaded, Fractions are read, and a Fraction
    subclass, a float, a Decimal and a str are refused, each with the same text as before."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", OPERATIONS_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    ints, refused, unloaded, quotient, loaded, fraction, refused_after = json.loads(out)
    assert ints == ["-6*x*theta", "12*theta^2 - 18*x*theta", "12*theta^2 - 18*x*theta",
                    "-2*theta^2 + 3*x*theta", "4*x*theta"]
    assert refused == REFUSED["float"] + REFUSED["Decimal"] + REFUSED["str"]
    assert unloaded and loaded
    assert quotient == "1/3*theta^2 - 1/2*x*theta"
    assert fraction == ["-3/4*x*theta", "3/2*theta^2 - 9/4*x*theta", "3/2*theta^2 - 9/4*x*theta",
                        "8/3*theta^2 - 4*x*theta"]
    assert refused_after == ["TypeError: coefficients must be int or Fraction, got Sub"] * 4 + refused


def _subparsers(parser):
    (verbs,) = [a for a in parser._actions if a.dest == "verb"]
    return verbs.choices


def _fields(sub):
    return [(a.option_strings, a.dest, a.type, a.choices, a.default, a.required, a.help)
            for a in sub._actions]


def test_a_verb_alone_gets_the_flags_it_has_among_all():
    from cdcalc import cli
    from cdcalc.coldpath import build_parser

    full = _subparsers(build_parser(cli))
    for verb in full:
        one = _subparsers(build_parser(cli, [verb]))
        assert list(one) == [verb]
        assert _fields(one[verb]) == _fields(full[verb]), verb


EDGE_ARGV = [
    [], ["-h"], ["bogus"], ["-x", "eval"], ["--", "eval", "--g", "6", "--d", "4", "--expr", "1*x^4"],
    *([verb, "-h"] for verb in ("class", "eval", "pair", "pushpull", "cone", "verify")),
    ["cone", "--curve", "nope", "--g", "8", "--d", "6"],
    ["class", "--nam", "dm", "--g", "6", "--m", "1"],
    ["eval", "--g", "6", "--d", "4", "--expr=--"], ["class", "--name=--", "--g", "6"], ["verify", "--config=--"],
    ["verify", "--config="],
]


def test_main_answers_as_with_every_verb_s_flags(capsys, monkeypatch):
    from cdcalc import cli, coldpath

    def outcome(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    answers = [outcome(argv) for argv in EDGE_ARGV]
    build_parser = coldpath.build_parser
    monkeypatch.setattr(coldpath, "build_parser", lambda cli, argv=None: build_parser(cli))
    assert [outcome(argv) for argv in EDGE_ARGV] == answers


def test_runtime_dependencies_stay_empty():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
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

    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
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


def test_one_integer_checker():
    """`nsring._require_ints` is the one function that words "must be an int, got", for records'
    fields and functions' arguments alike; the helper it replaced is gone."""
    wording = []
    for name, tree in _trees():
        enclosing = {}
        for node in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
            if isinstance(node, ast.FunctionDef):
                enclosing.update(dict.fromkeys(map(id, ast.walk(node)), node.name))
        wording += [f"{name}: {enclosing.get(id(node))}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "must be an int, got" in node.value]
    assert wording == ["nsring.py: _require_ints"]
    assert [path.name for path in PACKAGE.glob("*.py")
            if "_require_int_args" in path.read_text(encoding="utf-8")] == []


def test_printers_write_no_fraction_through_str(monkeypatch):
    """Every printer writes exact values through `nsring._lowest_terms`, never `Fraction.__str__`."""
    import io
    from contextlib import redirect_stdout
    from fractions import Fraction

    from cdcalc import (Ambient, ConeRay, LinearSeries, bounds_to_json, format_class,
                        format_rational, full_catalog, subordinate_class)
    from cdcalc.checks import report_json, run_all
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
    assert report_json(report, include_timing=False)
    for argv in (["verify", "--g-min", "5", "--g-max", "7", "--format", "csv"],
                 ["cone", "--curve", "general", "--g", "6", "--d", "4", "--format", "json"]):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
    assert '"-3/2"' in out.getvalue()


def test_each_mutant_names_code_that_occurs_once():
    """Every row of `tests/mutants.py` finds its old text exactly once in `src/`, in its own file."""
    import mutants

    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    counts = {mutant.name: (sum(text.count(mutant.old) for text in sources.values()),
                            sources.get(mutant.path, "").count(mutant.old)) for mutant in mutants.MUTANTS}
    assert {name: count for name, count in counts.items() if count != (1, 1)} == {}
    for mutant in mutants.MUTANTS:
        assert mutant.old != mutant.new, mutant.name
        if isinstance(mutant.tests, str):
            assert mutant.tests.startswith("equivalent: "), mutant.name
        else:
            assert mutant.tests, mutant.name
            assert all((ROOT / "tests" / name).is_file() for name in mutant.tests), mutant.name
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)
