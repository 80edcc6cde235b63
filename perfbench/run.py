"""The gradecalc benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the library is imported from
`src/`).  Workloads are defined in `perfbench/workloads.json`.  This process
is the only load generator: it launches one workload process at a time
(closed loop, one client), each with BLAS pinned to one thread through the
environment before the interpreter starts, until the next process would
finish after `--seconds`.  Every process is one `gradecalc verify`
invocation, or one plan-query session (set-up, then the seeded query
stream).

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates traced and untraced processes and reports per-layer self times,
counts and errors from the traced ones, plus the tracing overhead.  Every
operation's output is checked (`gate.py` for verify reports, identity
checks for queries).  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import verify_problems
from tracer import TRACED, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0  # the whole run, so that it exits within 180 s

# Per-layer metrics.  Every traced function gets `.calls` and `.errors`, and
# the work counts below are added: counts are deterministic, the same on
# every run of a workload, and a count of 0 says that a layer is not called.
# Self times are metrics only for the layers that every workload calls:
# a time must be measured on every run, and the time of a layer a workload
# never calls would read exactly 0.0 on all of them.  The other layers' self
# times are in the span table of every traced run.
LAYER_TIMES = (
    "import",
    "glue",
    "algebra.bch_group_law",
    "algebra.validate_algebra",
    "calculus.discretize",
    "heatflow.spectral_plan",
    "heatflow.HeatKernelSource.init",
    "heatflow.HeatKernelSource.call",
    "heatflow.heat_kernel",
    "potentials.bessel_kernel",
    "potentials.fractional_apply",
    "potentials.bessel_apply_quadrature",
    "sobolev.sobolev_norm",
    "sobolev.make_test_family",
)
# Root spans: the library import, and the code around the traced calls
# (the CLI in `verify`, set-up and dispatch in plan queries).
ROOT_SPANS = {"cli.import": "import", "import": "import",
              "cli.verify": "glue", "setup": "glue", "query": "glue"}
WORK_COUNTS = (
    "heatflow.spectral_plan.n",
    "heatflow.plan.bytes",
    "geometry.group_convolve.pairs",
    "calculus.discretize.nnz",
)


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(workload, seed, trace, timeout):
    """Run one workload process; returns (record or None, exit, stderr, report, times)."""
    kind = workload["kind"]
    argv = [sys.executable, str(HERE / "worker.py"), kind, json.dumps(workload["config"]),
            str(seed), "1" if trace else "0"]
    out_dir = None
    if kind == "verify":
        reports = ROOT / ".perfbench"
        reports.mkdir(exist_ok=True)
        out_dir = reports / f"verify-{os.getpid()}-{time.monotonic_ns()}"
        argv.append(str(out_dir))
    launched = time.monotonic()
    try:
        proc = subprocess.run(argv, env=worker_env(), capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
        exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        exit_code, stdout, stderr = None, "", f"timed out after {exc.timeout:.0f} s"
    ended = time.monotonic()
    record = None
    lines = stdout.strip().splitlines()
    if exit_code == 0 and lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    report = None
    if out_dir is not None:
        if (out_dir / "report.json").exists():
            report = json.loads((out_dir / "report.json").read_text())
        shutil.rmtree(out_dir, ignore_errors=True)
    return record, exit_code, stderr, report, launched, ended


def judge(workload, record, exit_code, stderr, report):
    """(attempted, failed, problems) for one workload process."""
    if record is None:
        return 1, 1, [f"worker exit {exit_code}: {stderr.strip()[-500:]}"]
    if workload["kind"] == "verify":
        problems = verify_problems(workload, record["exit"], stderr, report)
        return 1, int(bool(problems)), problems
    problems = [f"{v['kind']}: {v['error']}" for v in record["verdicts"] if v["error"]]
    return len(record["verdicts"]), len(problems), problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_values(record):
    """Per-layer metrics of one traced process."""
    spans = record["spans"]
    out = {f"{name}.s": 0.0 for name in LAYER_TIMES}
    for name, row in spans.items():
        key = ROOT_SPANS.get(name, name)
        if f"{key}.s" in out:
            out[f"{key}.s"] += row["s"]
        if name not in ROOT_SPANS:
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.errors"] = row["errors"]
    for key in WORK_COUNTS:
        out[key] = record["counts"].get(key, 0)
    return out


def all_layer_names():
    names = [f"{name}.s" for name in LAYER_TIMES]
    for module, attr in TRACED:
        prefix = span_name(module, attr)
        names += [f"{prefix}.calls", f"{prefix}.errors"]
    return names + list(WORK_COUNTS) + ["trace.overhead_s"]


def layer_unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "B" if name.endswith("bytes") else "count"


def end_to_end_metrics(procs):
    """Medians over the workload processes (max for memory); prints n and quartiles."""
    rows = [
        ("setup_s", "s", [r["ready"] - a for _, r, a, _ in procs]),
        ("op_s_p50", "s", [x for _, r, _, _ in procs for x in r["ops"]]),
        ("stream_s", "s", [r["done"] - r["ready"] for _, r, _, _ in procs]),
        ("peak_rss_mb", "MB", [r["rss_kb"] / 1024.0 for _, r, _, _ in procs]),
    ]
    metrics = {}
    for name, unit, vals in rows:
        if not vals:
            continue
        value = max(vals) if name == "peak_rss_mb" else statistics.median(vals)
        q1, q3 = quartiles(vals)
        print(f"{name:14s} {value:12.6g} {unit:3s} n={len(vals)} q1={q1:.6g} q3={q3:.6g}")
        metrics[name] = {"value": value, "unit": unit}
    if procs:
        print(f"versions {json.dumps(procs[0][1]['versions'])}")
    return metrics


def layer_metrics(procs):
    """Medians over the traced processes, tracing overhead, and the first span table."""
    traced = [r for t, r, _, _ in procs if t]
    per_proc = [layer_values(r) for r in traced]
    metrics = {}
    for name in all_layer_names():
        vals = [v.get(name, 0) for v in per_proc]
        metrics[name] = {"value": statistics.median(vals) if vals else 0, "unit": layer_unit(name)}
    walls_t = [b - a for t, r, a, b in procs if t]
    walls_u = [b - a for t, r, a, b in procs if not t]
    if walls_t and walls_u:
        metrics["trace.overhead_s"]["value"] = (
            statistics.median(walls_t) - statistics.median(walls_u))
    # Self times add up to the root spans by construction; shown as a check
    # that the root spans cover the timed operations.
    for r in traced:
        inside = sum(row["s"] for name, row in r["spans"].items()
                     if ROOT_SPANS.get(name) != "import")
        print(f"self-time sum / traced operation wall time: "
              f"{inside / (sum(r['ops']) + r.get('setup_work_s', 0.0)):.4f}")
    print(f"traced processes {len(traced)}, untraced {len(walls_u)}")
    if traced:
        wall = sum(row["wall"] for row in traced[0]["spans"].values())
        print(f"span table of the first traced process (root spans {wall:.4f} s):")
        print(f"  {'span':44s} {'self s':>10s} {'share':>7s} {'calls':>7s} {'errors':>6s}")
        for name, row in sorted(traced[0]["spans"].items(), key=lambda kv: -kv[1]["s"]):
            print(f"  {name:44s} {row['s']:10.4f} {row['s'] / wall:7.1%} "
                  f"{row['calls']:7d} {row['errors']:6d}")
        for key, n in sorted(traced[0]["counts"].items()):
            print(f"  count {key:38s} {n}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0xC0FFEE)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gradecalc" / "__init__.py").is_file():
        sys.exit(f"error: no gradecalc sources under {ROOT / 'src'}; run from a checkout")
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    trace = bool(args.trace)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {int(trace)} nproc {os.cpu_count()} python {sys.version.split()[0]} "
          f"blas threads 1")

    # Warm-up, not timed: byte-compiles the library on a fresh checkout and
    # loads its files into the page cache, which users pay for only once.
    subprocess.run([sys.executable, "-c", "import gradecalc.cli"], env=worker_env(),
                   capture_output=True, timeout=60, cwd=ROOT)
    start = time.monotonic()
    attempted = failed = 0
    procs = []  # (traced, record, launched, ended)
    min_procs = 2 if trace else 1
    while True:
        elapsed = time.monotonic() - start
        walls = [p[3] - p[2] for p in procs]
        if len(procs) >= min_procs and elapsed + statistics.median(walls) > args.seconds:
            break
        traced = trace and len(procs) % 2 == 0
        record, exit_code, stderr, report, launched, ended = launch(
            workload, args.seed, traced, max(1.0, HARD_LIMIT_S - elapsed))
        n, bad, problems = judge(workload, record, exit_code, stderr, report)
        attempted += n
        failed += bad
        for p in problems[:5]:
            print(f"  FAILED: {p}")
        procs.append((traced, record, launched, ended))
        if exit_code is None or time.monotonic() - start > HARD_LIMIT_S - 10:
            break

    ok = [(t, r, a, b) for t, r, a, b in procs if r is not None]
    metrics = layer_metrics(ok) if trace else end_to_end_metrics(ok)
    print(f"attempted {attempted} failed {failed} failed_frac {failed / max(attempted, 1):.4g}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
