"""The verify correctness gate on synthetic reports.

    python3 -m pytest perfbench/test_gate.py
"""

from gate import verify_problems

RECORD = {
    "checks": ["heat.mass", "heat.symmetry", "sobolev.duality"],
    "known_defects": {"heat.symmetry": 1.98e-2},
}


def _report(**values):
    checks = [
        {"id": "heat.mass", "value": 1e-14, "threshold": 1e-3, "pass": True},
        {"id": "heat.symmetry", "value": 1.98e-2, "threshold": 1e-3, "pass": False},
        {"id": "sobolev.duality", "value": 1e-15, "threshold": 1e-8, "pass": True},
    ]
    for c in checks:
        if c["id"] in values:
            c["value"] = values[c["id"]]
            c["pass"] = c["value"] < c["threshold"]
    return {"checks": checks, "ok": all(c["pass"] for c in checks)}


def test_seed_report_passes():
    assert verify_problems(RECORD, 1, "", _report()) == []


def test_new_failure_fails():
    problems = verify_problems(RECORD, 1, "", _report(**{"heat.mass": 2e-3}))
    assert any("new failure heat.mass" in p for p in problems)


def test_missing_check_fails():
    report = _report()
    report["checks"] = [c for c in report["checks"] if c["id"] != "sobolev.duality"]
    assert any("missing check sobolev.duality" in p for p in verify_problems(RECORD, 1, "", report))


def test_grown_defect_fails():
    problems = verify_problems(RECORD, 1, "", _report(**{"heat.symmetry": 1.98e-2 * (1 + 1e-5)}))
    assert any("grew" in p for p in problems)


def test_non_finite_defect_fails():
    for value in (float("nan"), float("inf")):
        problems = verify_problems(RECORD, 1, "", _report(**{"heat.symmetry": value}))
        assert any("known defect heat.symmetry" in p for p in problems)


def test_defect_within_rounding_passes():
    report = _report(**{"heat.symmetry": 1.98e-2 * (1 + 1e-7)})
    assert verify_problems(RECORD, 1, "", report) == []


def test_traceback_fails():
    stderr = 'Traceback (most recent call last):\n  File "x", line 1\nZeroDivisionError\n'
    assert "traceback on stderr" in verify_problems(RECORD, 1, stderr, _report())


def test_bad_exit_code_or_no_report_fails():
    assert "exit code 2" in verify_problems(RECORD, 2, "", _report())
    assert verify_problems(RECORD, 0, "", _report())  # exit 0 with a failing check
    assert "no report written" in verify_problems(RECORD, 1, "", None)


def test_shrunken_defect_passes():
    report = _report(**{"heat.symmetry": 5e-4})
    assert report["ok"]
    assert verify_problems(RECORD, 0, "", report) == []


def test_extra_check_passes():
    report = _report()
    report["checks"].append(
        {"id": "potential.riesz_homogeneity", "value": 1e-3, "threshold": 2e-2, "pass": True}
    )
    assert verify_problems(RECORD, 1, "", report) == []
