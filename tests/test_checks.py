import hashlib
import json
from importlib import resources

import jsonschema
import pytest

from cdcalc import (
    check_kernel_decomposition,
    check_mult_and_chern,
    check_pencil_pairings,
    check_plane_quintic,
    check_pushpull_closed_form,
    report_csv,
    report_json,
    run_all,
)
from cdcalc.checks import pairing_sum_theta, pairing_sum_x


def test_closed_form_sums():
    # the two alternating factorial sums collapse to g and g-2
    for g in range(5, 41):
        assert pairing_sum_theta(g) == g
        assert pairing_sum_x(g) == g - 2


def test_masked_report_is_byte_identical():
    # SHA-256 of the timing-masked 5..40 report at version 0.1.0: any rewrite
    # of the ring or the checks must reproduce it byte for byte
    text = report_json(run_all(5, 40), include_timing=False)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "a38efc8a9de334551df41f9a817429b1800e1fecd2f0ecd92c72c8115a521862"


def test_pencil_pairings_check():
    result = check_pencil_pairings(6)
    assert result.passed
    assert result.lhs == result.rhs == "(6, 4, 0)"
    assert result.params == {"g": 6}
    assert check_pencil_pairings(5).lhs == "(5, 3, 0)"
    assert check_pencil_pairings(25).passed
    with pytest.raises(ValueError):
        check_pencil_pairings(4)


def test_pushpull_closed_form_check():
    result = check_pushpull_closed_form(6, 1)
    assert result.passed
    assert result.lhs == result.rhs == "4*theta - 6*x"
    assert check_pushpull_closed_form(6, 2).lhs == "5*theta - 15*x"
    assert check_pushpull_closed_form(40, 19).passed  # extreme m = g/2 - 1
    with pytest.raises(ValueError):
        check_pushpull_closed_form(6, 3)
    with pytest.raises(ValueError):
        check_pushpull_closed_form(6, 0)


def test_kernel_decomposition_check():
    result = check_kernel_decomposition(6)
    assert result.passed
    assert result.lhs == result.rhs == "4*theta - 5*x"
    assert check_kernel_decomposition(5).lhs == "3*theta - 4*x"
    assert check_kernel_decomposition(12).passed
    with pytest.raises(ValueError):
        check_kernel_decomposition(4)


def test_plane_quintic_check():
    result = check_plane_quintic()
    assert result.passed
    assert result.params == {}
    assert result.lhs == "(4*theta - 6*x, 6, 3, 0, 0, 1)"
    assert result.rhs == "(4*theta - 6*x, 6, 3, 0, 0, 1)"


def test_mult_and_chern_check():
    result = check_mult_and_chern(6, 4, 2, 15)
    assert result.passed
    assert result.lhs == "(2*theta - 3*x, 8, 2*theta - 3*x, -2*x*theta + 3/2*x^2)"
    assert result.lhs == result.rhs
    assert check_mult_and_chern(10, 7, 3, 11).passed
    with pytest.raises(ValueError):
        check_mult_and_chern(6, 4, 1, 15)  # rank below d/(g-d)


def test_run_all_counts_and_order():
    report = run_all(5, 8)
    # per genus: pairings + kernel + mult/chern + one impclass per valid m
    expected = sum(3 + (g - 2) // 2 for g in range(5, 9)) + 1
    assert report.total == expected == 21
    assert report.failed == 0
    assert report.passed == report.total
    keys = [(c.check_id, tuple(sorted(c.params.items()))) for c in report.checks]
    assert keys == sorted(keys)
    ids = {c.check_id for c in report.checks}
    assert ids == {
        "pencil-pairings",
        "kernel-decomposition",
        "pushpull-closed-form",
        "mult-chern",
        "plane-quintic",
    }


def test_run_all_minimal_and_errors():
    report = run_all(5, 5)
    assert report.total == 5 and report.failed == 0
    with pytest.raises(ValueError, match="genus range"):
        run_all(4, 5)
    with pytest.raises(ValueError, match="genus range"):
        run_all(6, 5)


def test_run_all_full_sweep():
    report = run_all(5, 40)
    assert report.failed == 0
    assert report.total == sum(3 + (g - 2) // 2 for g in range(5, 41)) + 1


def test_report_json_deterministic_and_valid():
    first = report_json(run_all(5, 6), include_timing=False)
    second = report_json(run_all(5, 6), include_timing=False)
    assert first == second
    schema = json.loads(resources.files("cdcalc").joinpath("report.schema.json").read_text())
    payload = json.loads(report_json(run_all(5, 6)))
    jsonschema.validate(payload, schema)
    assert payload["range"] == {"gMin": 5, "gMax": 6}
    assert payload["summary"]["total"] == payload["summary"]["passed"] + payload["summary"]["failed"]
    assert all(check["passed"] for check in payload["checks"])


def test_report_csv_shape():
    report = run_all(5, 8)
    lines = report_csv(report).splitlines()
    assert lines[0] == "id,params,lhs,rhs,passed,micros"
    assert len(lines) == report.total + 1
    assert lines[1].startswith("kernel-decomposition,g=5,")
