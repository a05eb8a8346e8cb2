"""The reference renderer for verification reports: `json.dumps` over a payload dict.

This is the `report_json` that `cdcalc.checks.report_json` replaced with a
fixed template, kept word for word so the template can be compared with it:
on any report, both must return the same text.  It lives only in the tests;
the package has one renderer.
"""

from __future__ import annotations

import json

from cdcalc.checks import Report


def report_json(report: Report, include_timing: bool = True) -> str:
    payload = {
        "version": report.version,
        "range": {"gMin": report.g_min, "gMax": report.g_max},
        "checks": [
            {
                "id": c.check_id,
                "params": {k: c.params[k] for k in sorted(c.params)},
                "lhs": c.lhs,
                "rhs": c.rhs,
                "passed": c.passed,
                "micros": c.micros if include_timing else 0,
            }
            for c in report.checks
        ],
        "summary": {"total": report.total, "passed": report.passed, "failed": report.failed},
    }
    return json.dumps(payload, indent=2) + "\n"
