"""The end-to-end verification suite: configuration, checks and reports.

Every check has one row in ``ANCHORS``: the mathematical identity it
measures and its threshold.  A check passes when its value lies below the
threshold times the run's tolerance scale.  A row with a floor reports
max(raw, floor) and keeps the raw value in ``report.json``.  A row that does
not apply to a run is recorded as skipped, with its reason, before anything
is computed for it; a skip neither passes nor fails.  ``RunConfig``
resolves the group, operator and plan settings of a run before any
computation; a configuration it cannot resolve is a ``ConfigError``.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import GradecalcError, __version__
from .algebra import (
    AlgebraError,
    bch_group_law,
    builtin_group,
    builtin_groups,
    load_group,
    validate_algebra,
)
from .calculus import (
    RocklandSpec,
    StratificationError,
    build_rockland_example,
    character_form,
    characters_missed,
    fd_weights,
    homogeneous_degree,
    parse_diffop,
    sublaplacian,
)
from .defaults import DEFAULTS, NO_DEFAULTS_WHY, CheckTimes, PlanSettings
from .geometry import (
    Grid,
    GridFunction,
    SphereQuadrature,
    default_nu0,
    group_convolve,
    inner_product,
    lp_norm,
    polar_integral_check,
    pseudo_norm,
    quasi_triangle_ratio,
)
from .heatflow import (
    HeatKernelSource,
    check_mass,
    check_self_similarity,
    check_semigroup,
    check_symmetry,
    dilated_plan,
    heat_kernel,
    spectral_plan,
)
from .potentials import (
    PotentialError,
    bessel_apply_quadrature,
    default_ladder,
    dilation_pairs,
    fractional_apply,
    potential_kernels,
    riesz_homogeneity_defect,
)
from .sobolev import (
    SobolevError,
    SobolevNormSpec,
    check_word_count,
    equivalence_probe,
    make_test_family,
    sobolev_norm,
    sobolev_norms,
)

DEFAULT_SEED = 0xC0FFEE


class ConfigError(GradecalcError):
    """A run configuration that cannot be resolved."""


# ---------------------------------------------------------------------------
# Check table: every suite check cites the mathematical identity it measures.


class Check(NamedTuple):
    anchor: str
    threshold: float
    scaled: bool = True  # False for violation counts, which the tolerance scale leaves alone
    floor: float | None = None  # the value reported is max(raw, floor)


ANCHORS = {
    "algebra.validation": Check(
        "bracket antisymmetry, gradation compatibility and the Jacobi identity", 0.5, scaled=False
    ),
    "algebra.law": Check(
        "associativity, inverse and dilation-automorphism laws of the exact group product", 0.5, scaled=False
    ),
    "geometry.quasi_triangle": Check(  # y = 0 forces C >= 1
        "pseudo-norm quasi-triangle inequality |xy| <= C(|x| + |y|)", 8.0, floor=1.0
    ),
    "geometry.polar": Check("polar decomposition of the Haar integral against the sphere measure", 2e-2),
    # judged as |e^{ct} int h_t - 1| for an operator whose identity word has coefficient c
    "heat.mass": Check("unit mass of the heat kernel: integral of h_t equals 1", 1e-3),
    "heat.semigroup": Check("semigroup identity h_t * h_s = h_{t+s}", 1e-2),
    "heat.symmetry": Check("inversion symmetry h_t(x) = h_t(x^{-1})", 1e-3),
    "heat.selfsim": Check("parabolic self-similarity h_{r^nu t}(D_r x) = r^{-Q} h_t(x)", 2e-2),
    "potential.bessel_mass": Check("unit integral of the Bessel kernel B_a", 1e-2),
    "potential.bessel_semigroup": Check("convolution semigroup law B_a * B_b = B_{a+b}", 5e-2),
    "potential.riesz_homogeneity": Check("Riesz kernel homogeneity of degree a - Q", 2e-2),
    "potential.fractional_roundtrip": Check(
        "(I+R)^{s/nu} composed with (I+R)^{-s/nu} is the identity", 1e-8
    ),
    "potential.quadrature_gap": Check(
        "damped heat-ladder quadrature reproduces the spectral fractional power", 1e-3
    ),
    "sobolev.s_zero": Check("the order-zero Sobolev norm is the plain L^p norm", 1e-10),
    "sobolev.interpolation": Check(
        "interpolation inequality between Sobolev orders at p = 2", 1e-8, floor=0.0
    ),
    "sobolev.duality": Check("self-adjointness of (I+R)^{s/nu} in the L^2 pairing", 1e-8),
    "sobolev.equivalence": Check("equivalence of the integer-order and spectral Sobolev norms", 20.0),
    "sobolev.embedding": Check("dilation drift of the Sobolev embedding ratios", 2.0),
}


def _row(check_id):
    if check_id not in ANCHORS:
        raise KeyError(f"check id {check_id!r} has no anchor")
    return ANCHORS[check_id]


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    value: float
    threshold: float
    passed: bool
    raw: float | None = None  # the value before the row's floor


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    tol_scale: float = 1.0
    plans: list = field(default_factory=list)  # ``SpectralPlan.health`` of each plan used
    skipped: dict = field(default_factory=dict)  # check id -> why the row did not run

    def add(self, check_id, value) -> CheckResult:
        """Judge ``value``, floored as its row says, against the check's threshold in ``ANCHORS``."""
        row = _row(check_id)
        threshold = row.threshold * self.tol_scale if row.scaled else row.threshold
        raw = None
        if row.floor is not None:
            raw, value = float(value), max(value, row.floor)
        self.checks.append(
            CheckResult(check_id, row.anchor, float(value), float(threshold), bool(value < threshold), raw)
        )
        return self.checks[-1]

    def skip(self, check_ids, reason):
        """Record the rows ``check_ids`` as not run, for ``reason``."""
        for check_id in check_ids:
            _row(check_id)
            self.skipped[check_id] = reason

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
                    **({} if c.raw is None else {"raw": c.raw}),
                }
                for c in self.checks
            ],
            "ok": self.ok,
            "plans": self.plans,
            "skipped": self.skipped,
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
        lines += [f"[SKIP] {cid:32s} {self.skipped[cid]}" for cid in ANCHORS if cid in self.skipped]
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
        """The bundled group ``group`` names, even beside a path of that name; else the file at it."""
        if self.group in builtin_groups() or not os.path.exists(self.group):
            return builtin_group(self.group)
        return load_group(self.group)

    def operator(self, alg) -> RocklandSpec:
        """``--op`` over the basis labels, else the group's default operator.

        An operator whose top-degree symbol vanishes on a 1-D representation
        is not Rockland, and is refused: one that misses a generator
        (``characters_missed``), and one whose quadratic symbol
        -xi^T C xi (``character_form``) is not definite, its eigenvalues of
        one sign and the smallest above 1e-12 of the largest in magnitude.
        """
        if self.op:
            expr = parse_diffop(self.op, alg.labels)
            spec = RocklandSpec(expr=expr, nu=homogeneous_degree(expr, alg.weights))
        else:
            try:
                spec = sublaplacian(alg)
            except StratificationError:
                spec = build_rockland_example(alg, default_nu0(alg.weights))
        missed = [alg.labels[j] for j in characters_missed(spec.expr, alg)]
        if missed:
            raise ConfigError(
                f"the operator is not Rockland: its top-degree words hold no pure power of "
                f"{', '.join(missed)}, so its symbol vanishes on the 1-D representations along "
                f"{'that generator' if len(missed) == 1 else 'those generators'}"
            )
        C = character_form(spec.expr, alg)
        if C is not None:
            lam = np.linalg.eigvalsh(C)
            if not ((lam > 0).all() or (lam < 0).all()) or np.abs(lam).min() <= 1e-12 * np.abs(lam).max():
                raise ConfigError(
                    f"the operator is not Rockland: its symbol -xi^T C xi on the 1-D representations "
                    f"vanishes at some xi != 0 (C has eigenvalues {', '.join(f'{x:.3g}' for x in lam)})"
                )
        return spec

    def settings(self, alg, spec, kind) -> PlanSettings:
        """The ``kind`` ("heat" or "potential") plan settings: the grid flags, else the defaults.

        The grid is checked against ``spec``'s operator by ``check_grid_range``.
        """
        if self.scale is not None and self.points is None:
            raise ConfigError("--scale needs --points: the default grids fix their own scale")
        if self.points is not None:
            try:
                counts = tuple(int(c) for c in str(self.points).split(","))
            except ValueError:
                raise ConfigError(
                    f"point counts must be comma-separated integers, got {self.points!r}"
                ) from None
            if len(counts) == 1:
                counts = counts * alg.n
            if len(counts) != alg.n:
                raise ConfigError(f"need {alg.n} point counts, got {counts}")
            settings = PlanSettings(
                Grid.from_scale(alg.weights, 2.0 if self.scale is None else self.scale, counts)
            )
        else:
            settings = getattr(DEFAULTS.get(self.group), kind, None)
        if settings is None:
            why = NO_DEFAULTS_WHY.get(self.group)
            raise ConfigError(
                f"group {self.group!r} has no default grid"
                + (f" ({why})" if why else "")
                + "; pass --scale and --points"
            )
        check_grid_range(settings.grid, alg.weights, max(map(len, spec.expr.terms), default=0))
        return settings

    def plan(self, kind):
        """The ``kind`` spectral plan of this configuration's operator."""
        alg = self.load_algebra()
        law = bch_group_law(alg)
        spec = self.operator(alg)
        settings = self.settings(alg, spec, kind)
        return spectral_plan(spec, law, settings.grid, margin=settings.margin)


# Nodes of the widest compact stencil of any plan: the 8th-order stencils of
# the central-Fourier blocks; the box plans use 4th-order ones on 5 nodes.
WIDEST_STENCIL = 9


def check_grid_range(grid: Grid, weights, order):
    """Refuse (ConfigError) a grid whose numbers leave the float range.

    Three quantities must be finite: the pseudo-norm of the box corner, out
    to which the polar check integrates; the cell volume of the Haar sums,
    which ``Grid`` itself checks; and the finite-difference weights.  The
    Fornberg recursion of ``fd_weights`` multiplies up to 8 node gaps of the
    widest stencil and divides by them, and the matrix of a word of length k
    scales as h^{-k}, so at every spacing h the first- and second-derivative
    weights of that stencil and h^{-order} are checked, ``order`` being the
    length of the operator's longest word.
    """
    with np.errstate(all="ignore"):
        corner = pseudo_norm(np.array(grid.half_widths), weights, default_nu0(weights))
        if not np.isfinite(corner):
            raise ConfigError(f"the pseudo-norm of the corner of {grid} overflows")
        for h in grid.spacings:
            nodes = h * np.arange(WIDEST_STENCIL)
            stencils = [fd_weights(0.0, nodes, m) for m in (1, 2)]
            if not (np.isfinite(stencils).all() and np.isfinite(np.float64(h) ** -order)):
                raise ConfigError(
                    f"the finite-difference weights of order up to {max(order, 2)} on {grid} "
                    f"leave the float range at spacing {h:g}"
                )


# ---------------------------------------------------------------------------
# Suites


@functools.cache
def _scipy_version():
    """scipy's version, read from its ``version.py`` without importing scipy itself, or
    "not installed": only the tests need scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return "not installed"
    (package,) = spec.submodule_search_locations
    with open(os.path.join(package, "version.py")) as fh:
        namespace = {}
        exec(fh.read(), namespace)  # plain assignments, no imports
    return namespace["version"]


def _report(cfg, alg):
    environment = {
        "group": cfg.group,
        "weights": str(tuple(alg.weights)),
        "seed": cfg.seed,
        "tol_scale": cfg.tol_scale,
        "package": __version__,
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "python": ".".join(map(str, sys.version_info[:3])),
    }
    return VerificationReport(environment=environment, tol_scale=cfg.tol_scale)


def run_group_check(cfg: RunConfig) -> VerificationReport:
    alg = cfg.load_algebra()
    report = _report(cfg, alg)
    rep = validate_algebra(alg)
    report.add("algebra.validation", float(len(rep.violations)))
    try:
        bch_group_law(alg)
        law_defect = 0.0
    except AlgebraError:
        law_defect = 1.0
    report.add("algebra.law", law_defect)
    return report


def run_verify(cfg: RunConfig) -> VerificationReport:
    alg = cfg.load_algebra()
    law = bch_group_law(alg)
    spec = cfg.operator(alg)
    # the whole configuration is resolved before any computation
    hs = cfg.settings(alg, spec, "heat")
    ps = cfg.settings(alg, spec, "potential")
    times = getattr(DEFAULTS.get(cfg.group), "times", CheckTimes())
    grid, pgrid = hs.grid, ps.grid
    try:  # sobolev.equivalence takes the integer-order norm of order nu, if there is a nu
        check_word_count(alg.weights, spec.nu or 0)
    except SobolevError as exc:
        raise SobolevError(f"sobolev.equivalence: {exc}") from exc
    report = _report(cfg, alg)

    def record(role, plan, derived_from=None):
        # a plan derived from another one took no eigensolve of its own
        health = plan.health()
        if derived_from is not None:
            health["eigh_s"] = 0.0
        report.plans.append({"role": role, "derived_from": derived_from, **health})
        return plan

    # bch_group_law raises AlgebraError on any violation, so both rows are 0
    report.add("algebra.validation", 0.0)
    report.add("algebra.law", 0.0)

    nu0 = default_nu0(alg.weights)
    report.add("geometry.quasi_triangle", quasi_triangle_ratio(law, nu0, samples=20_000, seed=cfg.seed))

    quad = SphereQuadrature.build(alg.weights, nu0, n_samples=1 << 14, seed=cfg.seed)
    lhs, rhs = polar_integral_check(np.asarray(grid.half_widths) / 3.0, grid, quad)
    report.add("geometry.polar", abs(lhs - rhs) / abs(lhs))

    plan = record("heat", spectral_plan(spec, law, grid, margin=hs.margin))
    c = spec.expr.terms.get((), 0.0)
    # np.max keeps a NaN defect, which the built-in max may drop
    report.add("heat.mass", np.max([check_mass(heat_kernel(plan, t), c, t) for t in times.mass_times]))
    report.add("heat.semigroup", check_semigroup(plan, law, times.semigroup_pairs))
    report.add("heat.symmetry", check_symmetry(heat_kernel(plan, times.symmetry_time)))
    if spec.nu is None:
        degree_rows = [cid for cid in ANCHORS if cid.startswith(("heat.selfsim", "potential.", "sobolev."))]
        report.skip(degree_rows, "the operator has no homogeneous degree")
        return report

    t1, t2 = times.selfsim_times
    r = (t2 / t1) ** (1.0 / spec.nu)
    # the operator on the D_r grid is r^{-nu} times the base matrix, so
    # this rescales the heat plan's eigenvalues instead of solving again
    plan_scaled = record("heat.selfsim", dilated_plan(plan, r), derived_from="heat")
    report.add("heat.selfsim", check_self_similarity(plan, plan_scaled, t1, t2))

    if ps == hs:  # --points gives both plans the same settings
        pplan = record("potential", plan, derived_from="heat")
    else:
        pplan = record("potential", spectral_plan(spec, law, pgrid, margin=ps.margin))
    source = HeatKernelSource(pplan)
    report.plans[-1].update(  # where the heat source switches to its self-similar continuation
        t_switch=source.t_switch if np.isfinite(source.t_switch) else None,
        mass_at_switch=source.mass_at_switch,
        # the potential ladder's nodes past the switch: one resampling each
        ladder_nodes_late=int(np.sum(default_ladder(pgrid, spec.nu).nodes > source.t_switch)),
    )
    # the Riesz row is decided first, so that B_1, B_2, B_3 and I_2 are one ladder pass
    Q = alg.homogeneous_dimension
    pairs = None
    if Q <= 2:
        report.skip(["potential.riesz_homogeneity"], f"I_2 needs Q > 2, and Q = {Q}")
    else:
        try:
            pairs = dilation_pairs(pgrid, alg.weights, nu0, 2, pplan.mask)
        except PotentialError as exc:
            report.skip(["potential.riesz_homogeneity"], str(exc))
    bessels, rieszes = potential_kernels(
        pplan, bessel=(1.0, 2.0, 3.0), riesz=() if pairs is None else (2.0,), source=source
    )
    del source  # and its stack of continued kernels, which nothing below uses
    report.add("potential.bessel_mass", np.max([abs(k.integral - 1.0) for k in bessels]))
    if pgrid.ndim == 1:
        conv = group_convolve(law, bessels[0].values, bessels[0].values, zero_tol=1e-10)
        report.add("potential.bessel_semigroup", lp_norm(conv - bessels[1].values, 1))
    else:
        report.skip(["potential.bessel_semigroup"], "the row convolves B_1 * B_1 on 1-D grids only")
    if pairs is not None:
        report.add("potential.riesz_homogeneity", riesz_homogeneity_defect(rieszes[0], pairs, Q, r=2))

    sfam = make_test_family(pgrid, n=50, seed=cfg.seed)
    fs = sfam.gridfunctions()
    f0, f1 = fs[0], fs[1]
    rt = fractional_apply(pplan, -1.5, fractional_apply(pplan, 1.5, f0))
    base = GridFunction(pgrid, np.where(pplan.mask, f0.values, 0.0))
    report.add("potential.fractional_roundtrip", lp_norm(rt - base, 2) / lp_norm(base, 2))
    gap = bessel_apply_quadrature(pplan, 2.0, f0) - fractional_apply(pplan, -2.0, f0)
    report.add("potential.quadrature_gap", lp_norm(gap, 2) / lp_norm(f0, 2))

    # (I+R)^0 acts as the identity on the interior subspace, so compare
    # against the mask-restricted L^p norm
    report.add("sobolev.s_zero", abs(sobolev_norm(SobolevNormSpec(pplan, 0.0, 2), f0) - lp_norm(base, 2)))
    a_ord, b_ord = 1.0, 3.0
    na, n0, nb = (sobolev_norms(SobolevNormSpec(pplan, s, 2), sfam.values[:10]) for s in (a_ord, 0.0, b_ord))
    report.add("sobolev.interpolation", np.max(na - n0 ** (1 - a_ord / b_ord) * nb ** (a_ord / b_ord)))
    lhs_d = inner_product(fractional_apply(pplan, 1.0, f0), f1)
    rhs_d = inner_product(f0, fractional_apply(pplan, 1.0, f1))
    report.add("sobolev.duality", abs(lhs_d - rhs_d) / abs(lhs_d))
    probe = equivalence_probe(
        SobolevNormSpec(pplan, float(spec.nu), 2, "integer"),
        SobolevNormSpec(pplan, float(spec.nu), 2),
        sfam,
    )
    report.add("sobolev.equivalence", probe.max_ratio / probe.min_ratio)
    report.skip(["sobolev.embedding"], "measured by gradecalc probe")
    return report
