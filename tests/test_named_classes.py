"""The table of named classes: `class --name`, `<ref>` resolution and `--help` agree."""

import re

import pytest

from cdcalc import (
    NAMED_CLASSES,
    Ambient,
    LinearSeries,
    SystemData,
    c1d_class,
    canonical_class,
    chern_character,
    diagonal_class,
    dm_class,
    format_class,
    mult_degeneracy_class,
    subordinate_class,
    system_c1,
)
from cdcalc import cli
from cdcalc.cli import UsageError, main, resolve_class
from cdcalc.coldpath import build_parser

# One valid argument list per row (two for `ch`, with and without its
# optional argument), and the constructor call each should amount to.
CASES = [
    ("gamma", [6, 4, 5, 1], lambda: subordinate_class(Ambient(6, 4), LinearSeries(5, 1))),
    ("diagonal", [6, 4], lambda: diagonal_class(Ambient(6, 4))),
    ("c1d", [6, 4], lambda: c1d_class(Ambient(6, 4))),
    ("canonical", [7, 3], lambda: canonical_class(Ambient(7, 3))),
    ("dm", [8, 2], lambda: dm_class(8, 2)),
    ("system-c1", [6, 4, 2, 5, 8], lambda: system_c1(Ambient(6, 4), SystemData(2, 5, 8))),
    ("ch", [6, 4, 1, 3], lambda: chern_character(Ambient(6, 4), 1, 3, 2)),
    ("ch", [6, 4, 2, 3, 4], lambda: chern_character(Ambient(6, 4), 2, 3, 4)),
    ("mult-class", [6, 4, 2], lambda: mult_degeneracy_class(6, 4, 2)),
]


def flags_of(name):
    return [param.strip("[]") for param in NAMED_CLASSES[name][0].split()]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cases_cover_every_row():
    assert {name for name, _args, _direct in CASES} == set(NAMED_CLASSES)


@pytest.mark.parametrize("name, args, direct", CASES, ids=[f"{c[0]}-{len(c[1])}" for c in CASES])
def test_flag_reference_and_constructor_agree(capsys, name, args, direct):
    expected = direct()
    argv = ["class", "--name", name]
    for flag, value in zip(flags_of(name), args):
        argv += [f"--{flag}", str(value)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == format_class(expected) + "\n"
    ref = "<" + " ".join([name, *map(str, args)]) + ">"
    assert format_class(resolve_class(ref, expected.ambient)) == format_class(expected)


@pytest.mark.parametrize("name", list(NAMED_CLASSES))
def test_reference_arity_message(name):
    params = NAMED_CLASSES[name][0]
    most = len(params.split())
    least = most - params.count("[")
    count = str(most) if least == most else f"{least} or {most}"
    message = re.escape(f"takes {count} integers: <{name} {params}>")
    for arity in (least - 1, most + 1):
        with pytest.raises(UsageError, match=message):
            resolve_class("<" + " ".join([name] + ["6"] * arity) + ">", Ambient(6, 4))


def test_name_choices_and_flags_come_from_the_table():
    parser = build_parser(cli._verbs())
    (verbs,) = [a for a in parser._actions if a.dest == "verb"]
    sub = verbs.choices["class"]
    (name_action,) = [a for a in sub._actions if a.dest == "name"]
    assert list(name_action.choices) == [*NAMED_CLASSES, "rho"]
    flags = {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help", "--name", "--format"}
    table_flags = {f"--{flag}" for name in NAMED_CLASSES for flag in flags_of(name)}
    assert flags == table_flags | {"--g", "--r", "--d"}
    for name, (params, _builder, *_ambient) in NAMED_CLASSES.items():
        assert f"{name}: {params}" in name_action.help


def test_unused_flags_are_rejected(capsys):
    code, out, err = run_cli(capsys, "class", "--name", "diagonal", "--g", "6", "--d", "4",
                             "--n", "5", "--m", "3")
    assert code == 1 and out == ""
    assert "--name diagonal does not take --n --m" in err
    code, _, err = run_cli(capsys, "class", "--name", "rho", "--g", "6", "--r", "1", "--d", "5",
                           "--max-degree", "2")
    assert code == 1 and "does not take --max-degree" in err


@pytest.mark.parametrize("name", list(NAMED_CLASSES))
def test_every_foreign_flag_is_named(capsys, name):
    args = next(args for row, args, _direct in CASES if row == name)
    argv = ["class", "--name", name]
    for flag, value in zip(flags_of(name), args):
        argv += [f"--{flag}", str(value)]
    foreign = [f for f in ("n", "r", "m", "rank", "f", "dim-v", "max-degree") if f not in flags_of(name)]
    for flag in foreign:
        code, _, err = run_cli(capsys, *argv, f"--{flag}", "1")
        assert code == 1 and f"does not take --{flag}" in err


def test_d_must_match_the_ambient(capsys):
    code, out, _ = run_cli(capsys, "class", "--name", "dm", "--g", "8", "--m", "2", "--d", "4")
    assert code == 0 and out == format_class(dm_class(8, 2)) + "\n"
    code, _, err = run_cli(capsys, "class", "--name", "dm", "--g", "8", "--m", "2", "--d", "5")
    assert code == 1 and "--d 5 does not match the class ambient C_4" in err


def test_builders_reach_constructors_through_the_module(capsys, monkeypatch):
    """A wrapped constructor in `cdcalc.catalog` is what both CLI paths call."""
    import cdcalc.catalog

    calls = []
    original = cdcalc.catalog.subordinate_class

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cdcalc.catalog, "subordinate_class", counting)
    assert run_cli(capsys, "class", "--name", "gamma", "--g", "6", "--d", "4",
                   "--n", "5", "--r", "1")[0] == 0
    resolve_class("<gamma 6 4 5 1>", Ambient(6, 4))
    assert len(calls) == 2
