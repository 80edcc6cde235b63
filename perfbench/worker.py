"""One workload process: a `gradecalc verify` invocation or a plan-query session.

    python3 perfbench/worker.py verify  '<config json>' <seed> <trace 0|1> <out dir>
    python3 perfbench/worker.py queries '<config json>' <seed> <trace 0|1>

`perfbench/run.py` launches it with the BLAS thread count pinned in the
environment and the library's `src` directory on PYTHONPATH.  The last line
of standard output is a JSON record of the process: when it was ready for
its first operation and when its last operation ended (time.monotonic, which
is CLOCK_MONOTONIC and so comparable with the launching process),
per-operation latencies and verdicts, peak RSS, and the span summary when
traced.  Query outputs are checked after the last query has ended.

Nothing heavy is imported before the library, so the library import is the
set-up that `setup_s` measures.
"""

import json
import math
import resource
import sys
import time

from tracer import Tracer, install  # standard library only


def _emit(record):
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write("\n" + json.dumps(record) + "\n")
    sys.stdout.flush()


def run_verify(config, seed, tracer, out_dir):
    """Run the CLI in-process, exactly as the `gradecalc` entry point does."""
    t0 = time.perf_counter()
    import gradecalc.cli as cli

    ready = time.monotonic()
    if tracer:
        tracer.spans.append(["cli.import", t0, time.perf_counter(), -1])
        install(tracer)
        tracer.active = True
        root = tracer.open("cli.verify")
    t_start = time.perf_counter()
    code = 0
    try:
        cli.main(
            args=[*config["args"], "--seed", str(seed), "--out", out_dir, "verify"],
            prog_name="gradecalc",
        )
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    op_s = time.perf_counter() - t_start
    if tracer:
        tracer.close(root)
    return {"ready": ready, "done": time.monotonic(), "exit": code, "ops": [op_s]}


# ---------------------------------------------------------------------------
# Plan queries: the library use of the README quick start, against one plan.

# Query kinds of one stream, each asked the same number of times: the library
# suggests no traffic mix, so every kind weighs the same.  The composition is
# fixed so that every seed asks for the same amount of work.
QUERY_KINDS = (
    "heat_kernel",
    "heat_apply",
    "fractional_apply",
    "sobolev_norm.spectral",
    "sobolev_norm.homogeneous",
    "sobolev_norm.integer",
    "bessel_kernel",
    "riesz_kernel",
    "bessel_apply_quadrature",
)
PER_KIND = 12
# Orders s taken in turn by successive queries of a kind (integer norms in
# multiples of the operator degree nu); each length divides PER_KIND.
ORDERS = {
    "fractional_apply": (0.5, 1.0, 1.5, -0.5, -1.0, -1.5),
    "sobolev_norm.spectral": (0.0, 1.0, 2.0, 3.0),
    "sobolev_norm.homogeneous": (1.0, 2.0, 3.0),
    "sobolev_norm.integer": (1.0, 2.0),
}


def query_stream(seed, family_size, nu):
    """The seeded query list: (kind, parameters) pairs in seeded order."""
    import numpy as np

    rng = np.random.default_rng(seed)
    stream = []
    for kind in QUERY_KINDS:
        for i in range(PER_KIND):
            q = {
                "f": int(rng.integers(family_size)),
                "t": float(rng.uniform(0.005, 0.5)),
                "t2": float(rng.uniform(0.005, 0.5)),
                "a": float(rng.uniform(1.0, 3.0)),
                # fractional queries: each order once in each flavor
                "homogeneous": (i // len(ORDERS["fractional_apply"])) % 2 == 1,
            }
            if kind in ORDERS:
                q["s"] = ORDERS[kind][i % len(ORDERS[kind])]
                if kind == "sobolev_norm.integer":
                    q["s"] *= nu
            stream.append((kind, q))
    return [stream[i] for i in rng.permutation(len(stream))]


class QuerySession:
    """Set-up and the query stream for one plan (config: group, scale, points)."""

    def __init__(self, config, seed):
        from gradecalc.algebra import bch_group_law, builtin_group
        from gradecalc.calculus import sublaplacian
        from gradecalc.geometry import Grid
        from gradecalc.heatflow import HeatKernelSource, spectral_plan
        from gradecalc.sobolev import make_test_family

        alg = builtin_group(config["group"])
        law = bch_group_law(alg)
        spec = sublaplacian(alg)
        grid = Grid.from_scale(alg.weights, config["scale"], config["points"])
        self.plan = spectral_plan(
            spec, law, grid, margin=config["margin"], reg_strength=config["reg_strength"]
        )
        self.source = HeatKernelSource(self.plan)
        self.family = make_test_family(grid, n=config["family"], seed=seed)
        self.functions = self.family.gridfunctions()
        self.nu = spec.nu
        self.stream = query_stream(seed, config["family"], self.nu)
        self._bands = {}

    def equivalence_band(self, s):
        """The suite's integer-vs-spectral norm ratio interval at order s.

        Taken over the family members that the stream's integer-norm queries
        of order s use, as `sobolev.equivalence` takes it over the family.
        """
        from gradecalc.sobolev import SobolevNormSpec, TestFamily, equivalence_probe

        if s not in self._bands:
            used = sorted({q["f"] for kind, q in self.stream
                           if kind == "sobolev_norm.integer" and q["s"] == s})
            members = [self.family.members[i] for i in used]
            probe = equivalence_probe(
                SobolevNormSpec(self.plan, s, 2, "integer"),
                SobolevNormSpec(self.plan, s, 2),
                TestFamily(grid=self.family.grid, members=members, seed=self.family.seed),
            )
            self._bands[s] = (probe.min_ratio, probe.max_ratio)
        return self._bands[s]

    def run(self, kind, q):
        from gradecalc import heatflow, potentials, sobolev

        plan, f = self.plan, self.functions[q["f"]]
        if kind == "heat_kernel":
            return heatflow.heat_kernel(plan, q["t"])
        if kind == "heat_apply":
            return heatflow.heat_apply(plan, f, q["t"])
        if kind == "fractional_apply":
            return potentials.fractional_apply(plan, q["s"], f, homogeneous=q["homogeneous"])
        if kind.startswith("sobolev_norm."):
            flavor = kind.split(".")[1].replace("spectral", "inhomogeneous")
            return sobolev.sobolev_norm(sobolev.SobolevNormSpec(plan, q["s"], 2, flavor), f)
        if kind == "bessel_kernel":
            return potentials.bessel_kernel(plan, q["a"], source=self.source)
        if kind == "riesz_kernel":
            return potentials.riesz_kernel(plan, q["a"], source=self.source)
        if kind == "bessel_apply_quadrature":
            return potentials.bessel_apply_quadrature(plan, q["a"], f)
        raise ValueError(f"unknown query kind {kind!r}")

    def check(self, kind, q, out):
        """Defect of the identity the test suite holds this output to, and its threshold."""
        import numpy as np
        from gradecalc import heatflow, potentials, sobolev
        from gradecalc.geometry import GridFunction, inner_product, lp_norm

        plan, f = self.plan, self.functions[q["f"]]
        masked = GridFunction(f.grid, np.where(plan.mask, f.values, 0.0))

        def rel(a, b):
            return lp_norm(a - b, 2) / lp_norm(b, 2)

        if kind in ("heat_kernel", "heat_apply"):
            # e^{-t2 R} e^{-t R} = e^{-(t + t2) R}
            later = (
                heatflow.heat_kernel(plan, q["t"] + q["t2"])
                if kind == "heat_kernel"
                else heatflow.heat_apply(plan, f, q["t"] + q["t2"])
            )
            return rel(heatflow.heat_apply(plan, out, q["t2"]), later), 1e-10
        if kind == "fractional_apply":
            back = potentials.fractional_apply(plan, -q["s"], out, homogeneous=q["homogeneous"])
            return rel(back, masked), 1e-8
        if kind == "sobolev_norm.integer":
            # sobolev.equivalence: the integer and spectral norms of the same
            # order stay within a ratio interval of max/min under 20; the
            # query's ratio joins the interval of the members queried
            spectral = sobolev.sobolev_norm(sobolev.SobolevNormSpec(plan, q["s"], 2), f)
            ratio = out / spectral
            if not (math.isfinite(ratio) and ratio > 0):
                return math.inf, 20.0
            lo, hi = self.equivalence_band(q["s"])
            return max(hi, ratio) / min(lo, ratio), 20.0
        if kind.startswith("sobolev_norm."):
            if q["s"] == 0.0:
                return abs(out - lp_norm(masked, 2)), 1e-10
            # ||A f||^2 = <A^2 f, f> for the self-adjoint multiplier A
            squared = potentials.fractional_apply(
                plan, 2 * q["s"], f, homogeneous=kind.endswith("homogeneous")
            )
            return abs(out**2 - inner_product(squared, f).real) / out**2, 1e-8
        if kind == "bessel_kernel":
            return abs(out.integral - 1.0), 1e-2
        if kind == "riesz_kernel":
            off_origin = np.delete(out.values.values, plan.grid.origin_index)
            return (0.0 if np.isfinite(off_origin).all() else math.inf), 1.0
        if kind == "bessel_apply_quadrature":
            exact = potentials.fractional_apply(plan, -q["a"], f)
            return lp_norm(out - exact, 2) / lp_norm(f, 2), 1e-3
        raise ValueError(f"unknown query kind {kind!r}")


def run_queries(config, seed, tracer):
    t0 = time.perf_counter()
    import gradecalc.heatflow  # noqa: F401  (with algebra, calculus, geometry)
    import gradecalc.potentials  # noqa: F401
    import gradecalc.sobolev  # noqa: F401

    t_import = time.perf_counter()
    if tracer:
        tracer.spans.append(["import", t0, t_import, -1])
        install(tracer)
        tracer.active = True
        root = tracer.open("setup")
    session = QuerySession(config, seed)
    if tracer:
        tracer.close(root)
    ready = time.monotonic()
    setup_work = time.perf_counter() - t_import

    stream = session.stream
    ops, outputs = [], []
    for kind, q in stream:
        if tracer:
            tracer.active = True
            root = tracer.open("query")
        t = time.perf_counter()
        try:
            out = session.run(kind, q)
        except Exception as exc:  # a failing query is counted, not fatal
            out = exc
        ops.append(time.perf_counter() - t)
        if tracer:
            tracer.close(root)
            tracer.active = False
        outputs.append(out)
    done = time.monotonic()

    # Identity checks, after the stream so that they stay out of its time.
    verdicts = []
    for (kind, q), out in zip(stream, outputs):
        if isinstance(out, Exception):
            error = f"{type(out).__name__}: {out}"
        else:
            try:
                defect, threshold = session.check(kind, q, out)
                error = None if defect < threshold else (
                    f"identity defect {defect:.3e}, threshold {threshold:.1e}")
            except Exception as exc:  # an output the check cannot read is wrong
                error = f"check raised {type(exc).__name__}: {exc}"
        verdicts.append({"kind": kind, "error": error})
    return {
        "ready": ready,
        "done": done,
        "setup_work_s": setup_work,
        "ops": ops,
        "verdicts": verdicts,
    }


def main():
    mode, config, seed, trace = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    tracer = Tracer() if trace == "1" else None
    if mode == "verify":
        record = run_verify(config, seed, tracer, sys.argv[5])
    elif mode == "queries":
        record = run_queries(config, seed, tracer)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer:
        tracer.active = False
        record["spans"] = tracer.summary()
        record["counts"] = dict(tracer.counts)
    import numpy
    import scipy

    record["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    _emit(record)


if __name__ == "__main__":
    main()
