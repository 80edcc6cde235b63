"""Correctness gate for one `gradecalc verify` operation.

A verify operation fails when
  - it exits with a code outside {0, 1}, or an exit code that disagrees with
    its report, or prints a traceback;
  - a check id that ran at the seed commit is missing from its report;
  - a check outside the workload's known-defect list FAILs;
  - a known-defect check exceeds its seed value by more than both 1e-9
    absolute and 1e-6 relative, or its value is not a finite number.
Known defects that shrink, and checks the seed commit did not run, pass.
"""

import math

ABS_TOL = 1e-9
REL_TOL = 1e-6


def verify_problems(record, exit_code, stderr, report):
    """List of reasons the operation failed; empty when it passed.

    ``record`` holds the workload's seed-commit ``checks`` (ids) and
    ``known_defects`` (id -> seed value); ``report`` is the parsed
    report.json, or None when none was written.
    """
    problems = []
    if exit_code not in (0, 1):
        problems.append(f"exit code {exit_code}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if report is None:
        return problems + ["no report written"]
    checks = {c["id"]: c for c in report["checks"]}
    if exit_code in (0, 1) and (exit_code == 0) != bool(report["ok"]):
        problems.append(f"exit code {exit_code} disagrees with ok={report['ok']}")
    known = record["known_defects"]
    for cid in record["checks"]:
        if cid not in checks:
            problems.append(f"missing check {cid}")
    for cid, c in checks.items():
        if not c["pass"] and cid not in known:
            problems.append(f"new failure {cid} value={c['value']:.6e}")
    for cid, seed_value in known.items():
        if cid in checks:
            value = checks[cid]["value"]
            growth = value - seed_value
            # written so that NaN and infinities fail: every comparison with NaN is False
            within = math.isfinite(value) and (
                growth <= ABS_TOL or growth <= REL_TOL * abs(seed_value))
            if not within:
                problems.append(f"known defect {cid} grew: {value:.9e} > seed {seed_value:.9e}")
    return problems
