"""Command-line interface: argument parsing and output; the suite is in ``suite``.

Commands: ``group check``, ``heat``, ``kernel``, ``norm``, ``probe``,
``verify``, ``export`` (fixed arguments onto ``heat``, ``kernel``, ``probe``).
Every judging command returns its ``VerificationReport``, and only
``MainGroup`` maps the outcome to an exit code: 0 all checks pass, 1 a
returned report with a failed row (every threshold times ``--tol-scale``),
2 usage or configuration errors (every ``GradecalcError``, and every
``OSError`` of a command, such as an ``--out`` path it cannot write).  Reports and
CSVs are deterministic for a fixed seed (modulo the timestamp line).
"""

from __future__ import annotations

import datetime
import json
import math
import os

import click
import numpy as np

from . import GradecalcError
from .geometry import lp_norm
from .heatflow import check_mass, heat_kernel
from .potentials import bessel_kernel, riesz_kernel
from .sobolev import (
    SobolevNormSpec,
    embedding_probe,
    equivalence_probe,
    make_test_family,
    sobolev_norm,
    sup_embedding_probe,
)
from .suite import (
    DEFAULT_SEED,
    ConfigError,
    RunConfig,
    VerificationReport,
    run_group_check,
    run_verify,
)


def _write_csv(cfg, name, header, rows):
    path = os.path.join(_outdir(cfg), name)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    click.echo(f"wrote {path}")


def _outdir(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


class Refusal(click.ClickException):
    """A refused input: its reason is printed, and the exit code is 2."""
    exit_code = 2


class MainGroup(click.Group):
    """The command group: a ``GradecalcError`` or ``OSError`` is a ``Refusal``; a report not ``ok`` exits 1."""

    def invoke(self, ctx):
        try:
            result = super().invoke(ctx)
        except (GradecalcError, OSError) as exc:
            raise Refusal(str(exc)) from exc
        if isinstance(result, VerificationReport) and not result.ok:
            ctx.exit(1)
        return result


# ---------------------------------------------------------------------------
# Commands


@click.group(cls=MainGroup)
@click.option("--group", default="heisenberg", help="builtin group name or JSON file path")
@click.option("--op", default=None, help="operator expression over the basis labels, e.g. 'X^4+Y^4-T^2'")
@click.option("--scale", type=float, default=None, help="box scale R: half-width R^w_j along axis j")
@click.option("--points", default=None, help="grid point counts, comma-separated (odd)")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True)
@click.option("--out", default=None, help="output directory for reports and CSV files")
@click.option("--tol-scale", type=float, default=1.0, show_default=True, help="multiplier on all thresholds")
@click.pass_context
def main(ctx, group, op, scale, points, seed, out, tol_scale):
    """Desk-scale verification suite for graded nilpotent Lie groups."""
    if not 0 < tol_scale < math.inf:
        raise ConfigError(f"tolerance scale must be positive and finite, got {tol_scale}")
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
    return report


@main.command()
@click.option("--t", "times", type=float, multiple=True, default=(0.1,), show_default=True)
@click.pass_obj
def heat(cfg, times):
    """Compute heat kernels h_t and judge their mass defects (exit 1 on a breach)."""
    if not all(0 <= t < math.inf for t in times):
        raise ConfigError(f"--t must be finite and nonnegative, got {', '.join(map(str, times))}")
    plan = cfg.plan("heat")
    c = plan.spec.expr.terms.get((), 0.0)
    judged = VerificationReport(tol_scale=cfg.tol_scale)
    rows = []
    for t in sorted(times):
        h = heat_kernel(plan, t)
        defect = check_mass(h, c, t)
        judged.add("heat.mass", defect)
        click.echo(f"t={t:g}: mass defect {defect:.3e}, sup {lp_norm(h, np.inf):.6g}")
        for pt, v in zip(plan.grid.points(), h.values):
            rows.append([*map(float, pt), float(t), float(v)])
    if cfg.out:
        _write_csv(cfg, "heat.csv", [f"x{j + 1}" for j in range(plan.grid.ndim)] + ["t", "value"], rows)
    if not judged.ok:
        limit = judged.checks[0].threshold
        click.echo(f"FAIL: mass defect at or above the heat.mass threshold {limit:.1e}")
    return judged


@main.command()
@click.option("--kind", type=click.Choice(["bessel", "riesz"]), default="bessel", show_default=True)
@click.option("--a", "a", type=float, default=2.0, show_default=True)
@click.pass_obj
def kernel(cfg, kind, a):
    """Compute a Bessel or Riesz potential kernel (Bessel: exit 1 on a mass breach)."""
    plan = cfg.plan("potential")
    judged = VerificationReport(tol_scale=cfg.tol_scale)
    if kind == "bessel":
        k = bessel_kernel(plan, a)
        judged.add("potential.bessel_mass", abs(k.integral - 1.0))
        click.echo(f"B_{a:g}: integral {k.integral:.6f}, L1 on the box {k.l1_estimate:.6f}")
    else:
        k = riesz_kernel(plan, a)
        click.echo(
            f"I_{a:g}: exclusion radius {k.exclusion_radius:g}, late-time constant {k.tail_constant:.6g}"
        )
    if cfg.out:
        rows = [
            [*map(float, pt), float(a), float(v)]
            for pt, v in zip(plan.grid.points(), k.values.values)
            if np.isfinite(v)
        ]
        _write_csv(cfg, "kernel.csv", [f"x{j + 1}" for j in range(plan.grid.ndim)] + ["a", "value"], rows)
    if not judged.ok:
        limit = judged.checks[0].threshold
        click.echo(f"FAIL: integral defect at or above the potential.bessel_mass threshold {limit:.1e}")
    return judged


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
    try:
        pval = float(p)  # "inf" included
    except ValueError:
        raise ConfigError(f"--p must be a number or 'inf', got {p!r}") from None
    plan = cfg.plan("potential")
    fl = "inhomogeneous" if flavor == "spectral" else flavor
    f = make_test_family(plan.grid, n=1, seed=cfg.seed).gridfunctions()[0]
    val = sobolev_norm(SobolevNormSpec(plan, s, pval, fl), f)
    click.echo(f"||f||_{{L^{p}_{s:g}}} ({flavor}) = {val:.10g}")


@main.command()
@click.pass_obj
def probe(cfg):
    """Run the Sobolev ratio probes, judged against ``ANCHORS``, and print their table."""
    plan = cfg.plan("potential")
    spec = plan.spec
    fam = make_test_family(plan.grid, n=50, seed=cfg.seed)
    judged = VerificationReport(tol_scale=cfg.tol_scale)
    rows = []

    def row(check_id, probe_id, parameters, low, high, value):
        c = judged.add(check_id, value)
        rows.append([probe_id, parameters, low, high, c.threshold, "pass" if c.passed else "fail"])

    if spec.nu is not None:
        pr = equivalence_probe(
            SobolevNormSpec(plan, float(spec.nu), 2, "integer"),
            SobolevNormSpec(plan, float(spec.nu), 2),
            fam,
        )
        lo, hi = pr.min_ratio, pr.max_ratio
        row("sobolev.equivalence", "equivalence.integer-vs-spectral", f"s={spec.nu};p=2", lo, hi, hi / lo)
    Q = plan.law.algebra.homogeneous_dimension
    b = Q * (0.5 - 0.25)
    sup, drift = embedding_probe(plan, 2, 4, b, 0.0, fam)
    row("sobolev.embedding", "embedding.Lp-Lq", f"p=2;q=4;b={b:g};a=0", sup, drift, drift)
    s_sup = Q / 2.0 + 1.0
    sup2, drift2 = sup_embedding_probe(plan, 2, s_sup, fam)
    row("sobolev.embedding", "embedding.sup", f"p=2;s={s_sup:g}", sup2, drift2, drift2)
    header = ["probe id", "parameters", "min ratio", "max ratio", "baseline", "pass"]
    click.echo(",".join(header))
    for r in rows:
        click.echo(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in r))
    if cfg.out:
        _write_csv(cfg, "probes.csv", header, rows)
    return judged


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
    return report


EXPORTS = {
    "heat": (heat, {"times": (0.1, 0.15)}),
    "kernel": (kernel, {"kind": "bessel", "a": 2.0}),
    "probes": (probe, {}),
}


@main.command()
@click.argument("artifact", type=click.Choice(list(EXPORTS)))
@click.pass_context
def export(ctx, artifact):
    """Run ``heat``, ``kernel`` or ``probe`` with fixed arguments, writing its CSV (--out default '.')."""
    if ctx.obj.out is None:
        ctx.obj.out = "."
    command, kwargs = EXPORTS[artifact]
    return ctx.invoke(command, **kwargs)


if __name__ == "__main__":
    main()
