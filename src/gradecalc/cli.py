"""Command-line interface and the end-to-end verification suite.

Commands: ``group check``, ``heat``, ``kernel``, ``norm``, ``probe``,
``verify``, ``export``.  Exit codes: 0 all checks pass, 1 check failures,
2 usage or configuration errors.  Reports and CSVs are deterministic for a
fixed seed (modulo the timestamp line).
"""

from __future__ import annotations

import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from . import __version__
from .algebra import (
    AlgebraError,
    GroupFormatError,
    bch_group_law,
    builtin_group,
    load_group,
    validate_algebra,
)
from .calculus import (
    CalculusError,
    StratificationError,
    build_rockland_example,
    homogeneous_degree,
    parse_diffop,
    power,
    sublaplacian,
)
from .calculus import RocklandSpec
from .defaults import HEAT_DEFAULTS, POTENTIAL_DEFAULTS, heat_defaults, potential_defaults
from .geometry import (
    Grid,
    GridFunction,
    SphereQuadrature,
    default_nu0,
    group_convolve,
    haar_integrate,
    inner_product,
    lp_norm,
    polar_integral_check,
    quasi_triangle_constant,
)
from .heatflow import (
    HeatError,
    HeatKernelSource,
    build_family,
    check_mass,
    check_self_similarity,
    check_semigroup,
    check_symmetry,
    heat_kernel,
    spectral_plan,
)
from .potentials import (
    bessel_apply_quadrature,
    bessel_kernel,
    fractional_apply,
    riesz_homogeneity_defect,
    riesz_kernel,
)
from .sobolev import (
    SobolevNormSpec,
    embedding_probe,
    equivalence_probe,
    make_test_family,
    sobolev_norm,
    sup_embedding_probe,
)

DEFAULT_SEED = 0xC0FFEE


class ConfigError(click.ClickException):
    exit_code = 2


# ---------------------------------------------------------------------------
# Check anchors: every suite check cites the mathematical identity it measures.

ANCHORS = {
    "algebra.validation": "bracket antisymmetry, gradation compatibility and the Jacobi identity",
    "algebra.law": "associativity, inverse and dilation-automorphism laws of the exact group product",
    "geometry.quasi_triangle": "pseudo-norm quasi-triangle inequality |xy| <= C(|x| + |y|)",
    "geometry.polar": "polar decomposition of the Haar integral against the sphere measure",
    "heat.mass": "unit mass of the heat kernel: integral of h_t equals 1",
    "heat.semigroup": "semigroup identity h_t * h_s = h_{t+s}",
    "heat.symmetry": "inversion symmetry h_t(x) = h_t(x^{-1})",
    "heat.selfsim": "parabolic self-similarity h_{r^nu t}(D_r x) = r^{-Q} h_t(x)",
    "potential.bessel_mass": "unit integral of the Bessel kernel B_a",
    "potential.bessel_semigroup": "convolution semigroup law B_a * B_b = B_{a+b}",
    "potential.riesz_homogeneity": "Riesz kernel homogeneity of degree a - Q",
    "potential.fractional_roundtrip": "(I+R)^{s/nu} composed with (I+R)^{-s/nu} is the identity",
    "potential.quadrature_gap": "damped heat-ladder quadrature reproduces the spectral fractional power",
    "sobolev.s_zero": "the order-zero Sobolev norm is the plain L^p norm",
    "sobolev.interpolation": "interpolation inequality between Sobolev orders at p = 2",
    "sobolev.duality": "self-adjointness of (I+R)^{s/nu} in the L^2 pairing",
    "sobolev.equivalence": "equivalence of the integer-order and spectral Sobolev norms",
}


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    value: float
    threshold: float
    passed: bool


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def add(self, check_id, value, threshold, smaller_is_better=True):
        if check_id not in ANCHORS:
            raise KeyError(f"check id {check_id!r} has no anchor")
        passed = (value < threshold) if smaller_is_better else (value >= threshold)
        self.checks.append(
            CheckResult(check_id, ANCHORS[check_id], float(value), float(threshold), bool(passed))
        )

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "environment": self.environment,
            "checks": [
                {
                    "id": c.check_id,
                    "anchor": c.anchor,
                    "value": c.value,
                    "threshold": c.threshold,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "ok": self.ok,
        }

    def to_text(self, timestamp=None):
        lines = []
        if timestamp:
            lines.append(f"# generated {timestamp}")
        for k in sorted(self.environment):
            lines.append(f"# {k}: {self.environment[k]}")
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{tag}] {c.check_id:32s} value={c.value:.6e} threshold={c.threshold:.1e}  ({c.anchor})"
            )
        lines.append("RESULT: " + ("all checks passed" if self.ok else "check failures"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class RunConfig:
    group: str = "heisenberg"
    op: str | None = None
    scale: float | None = None
    points: str | None = None
    seed: int = DEFAULT_SEED
    out: str | None = None
    tol_scale: float = 1.0

    def load_algebra(self):
        try:
            if os.path.exists(self.group):
                return load_group(self.group)
            return builtin_group(self.group)
        except (GroupFormatError, AlgebraError) as exc:
            raise ConfigError(str(exc)) from exc

    def load_law(self, alg):
        try:
            return bch_group_law(alg)
        except AlgebraError as exc:
            raise ConfigError(str(exc)) from exc

    def operator(self, alg) -> RocklandSpec:
        if self.op:
            try:
                expr = parse_diffop(self.op, alg.labels)
            except CalculusError as exc:
                raise ConfigError(str(exc)) from exc
            deg = homogeneous_degree(expr, alg.weights)
            nu = deg if isinstance(deg, int) else None
            return RocklandSpec(expr=expr, nu=nu, provenance="cli", algebra=alg)
        try:
            return sublaplacian(alg)
        except StratificationError:
            return build_rockland_example(alg, default_nu0(alg.weights))

    def _counts(self, ndim):
        counts = tuple(int(c) for c in str(self.points).split(","))
        if len(counts) == 1:
            counts = counts * ndim
        if len(counts) != ndim:
            raise ConfigError(f"need {ndim} point counts, got {counts}")
        return counts

    def heat_grid(self, alg):
        if self.points is not None:
            counts = self._counts(alg.n)
            scale = self.scale if self.scale is not None else 2.0
            return Grid.from_scale(alg.weights, scale, counts), 4, 0.05
        if self.group in HEAT_DEFAULTS:
            d = heat_defaults(self.group)
            return d.grid(), d.margin, d.reg_strength
        raise ConfigError(
            f"group {self.group!r} has no default grid; pass --scale and --points"
        )

    def potential_grid(self, alg):
        if self.points is not None:
            counts = self._counts(alg.n)
            scale = self.scale if self.scale is not None else 2.0
            return Grid.from_scale(alg.weights, scale, counts), 4, 1.0
        if self.group in POTENTIAL_DEFAULTS:
            d = potential_defaults(self.group)
            return d.grid(), d.margin, d.reg_strength
        raise ConfigError(
            f"group {self.group!r} has no default grid; pass --scale and --points"
        )


def _plan(spec, law, grid, margin, reg):
    """``spectral_plan``; a configuration it refuses is a usage error (exit 2)."""
    try:
        return spectral_plan(spec, law, grid, margin=margin, reg_strength=reg)
    except HeatError as exc:
        raise ConfigError(str(exc)) from exc


def _apply_thread_cap():
    """Cap BLAS threads at ``GRADECALC_THREADS`` where threadpoolctl is installed.

    Without it the cap is the environment that ``gradecalc/__init__.py`` sets
    before numpy loads; setting the variables here would be too late.
    """
    cap = os.environ.get("GRADECALC_THREADS")
    if cap:
        try:
            import threadpoolctl

            _apply_thread_cap.controller = threadpoolctl.threadpool_limits(int(cap))
        except (ImportError, ValueError):
            pass


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _outdir(cfg):
    out = cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Verification suite


def run_group_check(cfg: RunConfig) -> VerificationReport:
    alg = cfg.load_algebra()
    report = VerificationReport(environment=_environment(cfg, alg))
    rep = validate_algebra(alg)
    report.add("algebra.validation", float(len(rep.violations)), 0.5)
    try:
        cfg.load_law(alg)
        law_defect = 0.0
    except ConfigError:
        law_defect = 1.0
    report.add("algebra.law", law_defect, 0.5)
    return report


def _environment(cfg, alg):
    import scipy

    return {
        "group": cfg.group,
        "weights": str(tuple(alg.weights)),
        "seed": cfg.seed,
        "tol_scale": cfg.tol_scale,
        "package": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def run_verify(cfg: RunConfig) -> VerificationReport:
    alg = cfg.load_algebra()
    law = cfg.load_law(alg)
    spec = cfg.operator(alg)
    # the whole configuration is resolved before any computation
    grid, margin, reg = cfg.heat_grid(alg)
    pgrid, pmargin, preg = cfg.potential_grid(alg)
    report = VerificationReport(environment=_environment(cfg, alg))
    ts = cfg.tol_scale

    rep = validate_algebra(alg)
    report.add("algebra.validation", float(len(rep.violations)), 0.5)
    report.add("algebra.law", 0.0, 0.5)  # bch_group_law validated the laws on load

    nu0 = default_nu0(alg.weights)
    C = quasi_triangle_constant(law, nu0, samples=20_000, seed=cfg.seed)
    report.add("geometry.quasi_triangle", C, 8.0 * ts)

    quad = SphereQuadrature.build(alg.weights, nu0, n_samples=1 << 14, seed=cfg.seed)
    widths = np.asarray(grid.half_widths) / 3.0
    gauss = lambda pts: np.exp(-np.sum((np.asarray(pts) / widths) ** 2, axis=-1))
    lhs, rhs = polar_integral_check(gauss, grid, quad)
    report.add("geometry.polar", abs(lhs - rhs) / abs(lhs), 2e-2 * ts)

    hd = heat_defaults(cfg.group) if cfg.group in HEAT_DEFAULTS else None
    plan = _plan(spec, law, grid, margin, reg)
    mass_times = hd.mass_times if hd else (0.01, 0.02)
    report.add(
        "heat.mass", max(check_mass(heat_kernel(plan, t)) for t in mass_times), 1e-3 * ts
    )
    family_times = hd.family_times if hd else (0.1, 0.2)
    fam = build_family(plan, family_times)
    pairs = hd.semigroup_pairs if hd else ((family_times[0], family_times[0]),)
    report.add(
        "heat.semigroup", check_semigroup(fam, law, pairs=pairs, mask=plan.mask), 1e-2 * ts
    )
    t_sym = hd.symmetry_time if hd else 0.15
    report.add("heat.symmetry", check_symmetry(heat_kernel(plan, t_sym)), 1e-3 * ts)
    if spec.nu is not None:
        t1, t2 = hd.selfsim_times if hd else (0.1, 0.2)
        r = (t2 / t1) ** (1.0 / spec.nu)
        plan_scaled = _plan(spec, law, grid.dilated(r, alg.weights), margin, reg)
        report.add(
            "heat.selfsim", check_self_similarity(plan, plan_scaled, t1, t2), 2e-2 * ts
        )

    pplan = _plan(spec, law, pgrid, pmargin, preg)
    if spec.nu is not None:
        source = HeatKernelSource(pplan)
        kernels = {a: bessel_kernel(pplan, float(a), source=source) for a in (1, 2, 3)}
        report.add(
            "potential.bessel_mass",
            max(abs(k.integral - 1.0) for k in kernels.values()),
            1e-2 * ts,
        )
        if pgrid.ndim == 1:
            conv = group_convolve(law, kernels[1].values, kernels[1].values, zero_tol=1e-10)
            report.add(
                "potential.bessel_semigroup",
                lp_norm(conv - kernels[2].values, 1),
                5e-2 * ts,
            )
        Q = alg.homogeneous_dimension
        if Q > 2:
            from .potentials import PotentialError

            kern = riesz_kernel(pplan, 2.0, source=source)
            try:
                defect = riesz_homogeneity_defect(
                    kern, alg.weights, nu0, Q, r=2, mask=pplan.mask
                )
            except PotentialError:
                defect = None  # grid too anisotropic for integer-dilation node pairs
            if defect is not None:
                report.add("potential.riesz_homogeneity", defect, 2e-2 * ts)

        sfam = make_test_family(pgrid, n=50, seed=cfg.seed)
        f0 = sfam.gridfunctions()[0]
        rt = fractional_apply(pplan, -1.5, fractional_apply(pplan, 1.5, f0))
        base = GridFunction(pgrid, np.where(pplan.mask, f0.values, 0.0))
        report.add(
            "potential.fractional_roundtrip",
            lp_norm(rt - base, 2) / lp_norm(base, 2),
            1e-8 * ts,
        )
        gap = bessel_apply_quadrature(pplan, 2.0, f0) - fractional_apply(pplan, -2.0, f0)
        report.add(
            "potential.quadrature_gap", lp_norm(gap, 2) / lp_norm(f0, 2), 1e-3 * ts
        )

        # (I+R)^0 acts as the identity on the interior subspace, so compare
        # against the mask-restricted L^p norm
        f0_int = GridFunction(pgrid, np.where(pplan.mask, f0.values, 0.0))
        report.add(
            "sobolev.s_zero",
            abs(sobolev_norm(SobolevNormSpec(pplan, 0.0, 2), f0) - lp_norm(f0_int, 2)),
            1e-10 * ts,
        )
        worst = 0.0
        a_ord, b_ord = 1.0, 3.0
        for f in sfam.gridfunctions()[:10]:
            na = sobolev_norm(SobolevNormSpec(pplan, a_ord, 2), f)
            n0 = sobolev_norm(SobolevNormSpec(pplan, 0.0, 2), f)
            nb = sobolev_norm(SobolevNormSpec(pplan, b_ord, 2), f)
            worst = max(worst, na - n0 ** (1 - a_ord / b_ord) * nb ** (a_ord / b_ord))
        report.add("sobolev.interpolation", worst, 1e-8 * ts)
        f1 = sfam.gridfunctions()[1]
        lhs_d = inner_product(fractional_apply(pplan, 1.0, f0), f1)
        rhs_d = inner_product(f0, fractional_apply(pplan, 1.0, f1))
        report.add(
            "sobolev.duality",
            abs(lhs_d - rhs_d) / abs(lhs_d),
            1e-8 * ts,
        )
        probe = equivalence_probe(
            SobolevNormSpec(pplan, float(spec.nu), 2, "integer"),
            SobolevNormSpec(pplan, float(spec.nu), 2),
            sfam,
        )
        report.add("sobolev.equivalence", probe.max_ratio / probe.min_ratio, 20.0 * ts)
    return report


# ---------------------------------------------------------------------------
# Commands


@click.group()
@click.option("--group", default="heisenberg", help="builtin group name or JSON file path")
@click.option("--op", default=None, help="operator expression over the basis labels, e.g. 'X^4+Y^4-T^2'")
@click.option("--scale", type=float, default=None, help="box scale R: half-width R^w_j along axis j")
@click.option("--points", default=None, help="grid point counts, comma-separated (odd)")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--out", default=None, help="output directory for reports and CSV files")
@click.option("--tol-scale", type=float, default=1.0, show_default=True, help="multiplier on all thresholds")
@click.pass_context
def main(ctx, group, op, scale, points, seed, out, tol_scale):
    """Desk-scale verification suite for graded nilpotent Lie groups."""
    _apply_thread_cap()
    if tol_scale <= 0:
        raise ConfigError("tolerance scale must be positive")
    ctx.obj = RunConfig(
        group=group, op=op, scale=scale, points=points, seed=seed, out=out, tol_scale=tol_scale
    )


@main.group("group")
def group_cmd():
    """Group-definition commands."""


@group_cmd.command("check")
@click.pass_obj
def group_check(cfg):
    """Validate the algebra axioms and the exact group law."""
    report = run_group_check(cfg)
    click.echo(report.to_text(), nl=False)
    if not report.ok:
        sys.exit(1)


@main.command()
@click.option("--t", "times", type=float, multiple=True, default=(0.1,), show_default=True)
@click.pass_obj
def heat(cfg, times):
    """Compute heat kernels h_t and report their mass."""
    alg = cfg.load_algebra()
    law = cfg.load_law(alg)
    spec = cfg.operator(alg)
    grid, margin, reg = cfg.heat_grid(alg)
    plan = _plan(spec, law, grid, margin, reg)
    rows = []
    for t in sorted(times):
        h = heat_kernel(plan, t)
        click.echo(f"t={t:g}: mass defect {check_mass(h):.3e}, sup {lp_norm(h, np.inf):.6g}")
        for pt, v in zip(grid.points(), h.values):
            rows.append([*map(float, pt), float(t), float(v)])
    if cfg.out:
        path = os.path.join(_outdir(cfg), "heat.csv")
        _write_csv(path, [f"x{j + 1}" for j in range(grid.ndim)] + ["t", "value"], rows)
        click.echo(f"wrote {path}")


@main.command()
@click.option("--kind", type=click.Choice(["bessel", "riesz"]), default="bessel", show_default=True)
@click.option("--a", "a", type=float, default=2.0, show_default=True)
@click.pass_obj
def kernel(cfg, kind, a):
    """Compute a Bessel or Riesz potential kernel."""
    alg = cfg.load_algebra()
    law = cfg.load_law(alg)
    spec = cfg.operator(alg)
    grid, margin, reg = cfg.potential_grid(alg)
    plan = _plan(spec, law, grid, margin, reg)
    if kind == "bessel":
        k = bessel_kernel(plan, a)
        click.echo(f"B_{a:g}: integral {k.integral:.6f}, L1 on the box {k.l1_estimate:.6f}")
        values = k.values
    else:
        k = riesz_kernel(plan, a)
        click.echo(
            f"I_{a:g}: exclusion radius {k.exclusion_radius:g}, late-time constant {k.tail_constant:.6g}"
        )
        values = k.values
    if cfg.out:
        path = os.path.join(_outdir(cfg), "kernel.csv")
        rows = [
            [*map(float, pt), float(a), float(v)]
            for pt, v in zip(grid.points(), values.values)
            if np.isfinite(v)
        ]
        _write_csv(path, [f"x{j + 1}" for j in range(grid.ndim)] + ["a", "value"], rows)
        click.echo(f"wrote {path}")


@main.command()
@click.option("--s", "s", type=float, default=2.0, show_default=True)
@click.option("--p", "p", default="2", show_default=True, help="integrability exponent or 'inf'")
@click.option(
    "--flavor",
    type=click.Choice(["spectral", "homogeneous", "integer"]),
    default="spectral",
    show_default=True,
)
@click.pass_obj
def norm(cfg, s, p, flavor):
    """Sobolev norm of a reference bump on the default grid."""
    alg = cfg.load_algebra()
    law = cfg.load_law(alg)
    spec = cfg.operator(alg)
    grid, margin, reg = cfg.potential_grid(alg)
    plan = _plan(spec, law, grid, margin, reg)
    pval = np.inf if p == "inf" else float(p)
    fl = "inhomogeneous" if flavor == "spectral" else flavor
    f = make_test_family(grid, n=1, seed=cfg.seed).gridfunctions()[0]
    val = sobolev_norm(SobolevNormSpec(plan, s, pval, fl), f)
    click.echo(f"||f||_{{L^{p}_{s:g}}} ({flavor}) = {val:.10g}")


def _probe_rows(cfg):
    alg = cfg.load_algebra()
    law = cfg.load_law(alg)
    spec = cfg.operator(alg)
    grid, margin, reg = cfg.potential_grid(alg)
    plan = _plan(spec, law, grid, margin, reg)
    fam = make_test_family(grid, n=50, seed=cfg.seed)
    rows = []
    if spec.nu is not None:
        pr = equivalence_probe(
            SobolevNormSpec(plan, float(spec.nu), 2, "integer"),
            SobolevNormSpec(plan, float(spec.nu), 2),
            fam,
        )
        rows.append(
            [
                "equivalence.integer-vs-spectral",
                f"s={spec.nu};p=2",
                pr.min_ratio,
                pr.max_ratio,
                20.0,
                "pass" if pr.max_ratio / pr.min_ratio < 20.0 else "fail",
            ]
        )
    Q = alg.homogeneous_dimension
    b = Q * (0.5 - 0.25)
    sup, drift = embedding_probe(plan, 2, 4, b, 0.0, fam, n_dilated=3)
    rows.append(
        ["embedding.Lp-Lq", f"p=2;q=4;b={b:g};a=0", sup, drift, 2.0, "pass" if drift < 2.0 else "fail"]
    )
    s_sup = Q / 2.0 + 1.0
    sup2, drift2 = sup_embedding_probe(plan, 2, s_sup, fam, n_dilated=3)
    rows.append(
        ["embedding.sup", f"p=2;s={s_sup:g}", sup2, drift2, 2.0, "pass" if drift2 < 2.0 else "fail"]
    )
    return rows


@main.command()
@click.pass_obj
def probe(cfg):
    """Run the Sobolev ratio probes and print their table."""
    rows = _probe_rows(cfg)
    click.echo("probe id,parameters,min ratio,max ratio,baseline,pass")
    for row in rows:
        click.echo(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row))
    if any(row[-1] == "fail" for row in rows):
        sys.exit(1)


@main.command()
@click.pass_obj
def verify(cfg):
    """Run the full verification suite and write the report."""
    report = run_verify(cfg)
    ts = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = report.to_text(timestamp=ts)
    click.echo(text, nl=False)
    if cfg.out:
        out = _outdir(cfg)
        with open(os.path.join(out, "report.txt"), "w") as fh:
            fh.write(text)
        with open(os.path.join(out, "report.json"), "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not report.ok:
        sys.exit(1)


@main.command()
@click.argument("artifact")
@click.pass_context
def export(ctx, artifact):
    """Export an artifact (heat | kernel | probes) as CSV."""
    cfg = ctx.obj
    if cfg.out is None:
        cfg.out = "."
    if artifact == "heat":
        ctx.invoke(heat, times=(0.1, 0.2))
    elif artifact == "kernel":
        ctx.invoke(kernel, kind="bessel", a=2.0)
    elif artifact == "probes":
        rows = _probe_rows(cfg)
        path = os.path.join(_outdir(cfg), "probes.csv")
        _write_csv(
            path,
            ["probe id", "parameters", "min ratio", "max ratio", "baseline", "pass"],
            rows,
        )
        click.echo(f"wrote {path}")
    else:
        raise click.UsageError(f"unknown artifact {artifact!r}; choose heat, kernel or probes")


if __name__ == "__main__":
    main()
