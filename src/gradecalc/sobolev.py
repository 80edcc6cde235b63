"""Sobolev norms and empirical ratio probes.

The inhomogeneous norm is ||(I+R)^{s/nu} f||_p through the spectral plan; the
homogeneous flavor uses R^{s/nu}; the integer flavor is the Goodman-style sum
||f||_p + sum over words of weighted degree s of ||X^alpha f||_p.  Probes
report min/max norm ratios over a reproducible family of smooth bumps: the
equivalence constants are empirical, so the observed intervals serve as
regression baselines rather than proved bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import GradecalcError
from .calculus import DiffOpExpr, FieldMatrices
from .geometry import Grid, GridFunction, dilate, lp_norm, sum_columns
from .heatflow import SpectralPlan, dilated_plan
from .potentials import fractional_apply


class SobolevError(GradecalcError):
    pass


FLAVORS = ("inhomogeneous", "homogeneous", "integer")


@dataclass
class SobolevNormSpec:
    """Order s, integrability p and flavor of a Sobolev norm on a plan's grid."""

    plan: SpectralPlan
    s: float
    p: float  # exponent in (1, inf) or np.inf
    flavor: str = "inhomogeneous"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise SobolevError(f"unknown flavor {self.flavor!r}; choose from {FLAVORS}")
        if not np.isfinite(self.s):
            raise SobolevError(f"order s must be finite, got {self.s}")
        p = self.p
        if not (isinstance(p, (int, float)) and p > 1):
            raise SobolevError(f"exponent p must lie in (1, inf) or be inf, got {p}")
        if self.flavor == "integer":
            nu = self.plan.spec.nu
            if nu is None or self.s < 0 or self.s % nu != 0:
                raise SobolevError(
                    f"integer flavor requires s to be a nonnegative multiple of nu={nu}"
                )
            check_word_count(self.plan.law.algebra.weights, self.s)


# Most words an integer-order norm sums over; each costs a chain of sparse
# products per function, and the count grows exponentially in the order
# (order 240 over weights (3, 5, 8) has more words than memory can list).
MAX_WORDS = 1000


def check_word_count(weights, degree):
    """Refuse (SobolevError) more than ``MAX_WORDS`` words of weighted degree ``degree``."""
    count = [1] + [0] * int(degree)
    for m in range(1, int(degree) + 1):
        count[m] = sum(count[m - int(w)] for w in weights if int(w) <= m)
    if count[-1] > MAX_WORDS:
        raise SobolevError(
            f"an integer-order norm of order {degree:g} sums over {count[-1]:.3g} words, "
            f"more than {MAX_WORDS}"
        )


def words_of_degree(weights, degree):
    """All words over the generators with total weighted degree ``degree``."""
    weights = tuple(int(w) for w in weights)
    out = []

    def rec(prefix, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for j, w in enumerate(weights):
            if w <= remaining:
                rec(prefix + [j], remaining - w)

    rec([], int(degree))
    return out


def _lp(spec: SobolevNormSpec, g: GridFunction):
    if spec.p == np.inf:
        # sup norms carry no claim on the boundary stencil band
        return lp_norm(g, np.inf, mask=spec.plan.mask)
    return lp_norm(g, spec.p)


def sobolev_norm(spec: SobolevNormSpec, f: GridFunction):
    """The chosen Sobolev norm of f on the plan's grid; s=0 inhomogeneous reduces to plain L^p.

    The integer flavor applies the words through the plan's
    ``field_matrices``, built once per plan.
    """
    if f.grid != spec.plan.grid:
        raise SobolevError("f must live on the plan's grid")
    if spec.flavor == "integer":
        fm = spec.plan.field_matrices
        total = _lp(spec, f)
        for word in words_of_degree(spec.plan.law.algebra.weights, spec.s):
            g = GridFunction(f.grid, fm.apply_word(word, f.values))
            total += _lp(spec, g)
        return float(total)
    g = fractional_apply(spec.plan, spec.s, f, homogeneous=(spec.flavor == "homogeneous"))
    return float(_lp(spec, g))


# ---------------------------------------------------------------------------
# Test family


@dataclass
class TestFamily:
    """Reproducible smooth bumps: Gaussian envelopes with polynomial factors.

    Members are kept as callables so that dilated copies f(D_r x) can be
    sampled exactly on any grid.  Their samples on ``grid`` are taken once,
    on the first ``gridfunctions`` call, and shared by every later one.
    """

    grid: Grid
    members: list  # callables (M, n) -> (M,)
    seed: int
    _sampled: list | None = field(default=None, init=False, repr=False, compare=False)

    def gridfunctions(self):
        if self._sampled is None:
            pts = self.grid.points()
            self._sampled = [GridFunction(self.grid, m(pts)) for m in self.members]
        return list(self._sampled)

    def dilated_member(self, i, r, weights):
        fn = self.members[i]
        w = np.asarray(weights, dtype=float)

        def g(pts):
            return fn(np.asarray(pts, dtype=float) * (float(r) ** w))

        return g


def _bump(center, width, lin, quad):
    def fn(pts):
        t = (np.asarray(pts, dtype=float) - center) / width
        t2 = t * t
        return (1.0 + t @ lin + t2 @ quad) * np.exp(-sum_columns(t2))

    return fn


def make_test_family(grid: Grid, n=50, seed=0xC0FFEE) -> TestFamily:
    """n Gaussian-times-polynomial bumps with quasi-random centers and widths.

    Centers stay within the inner quarter of the box and widths are a fraction
    of the half-widths, so every member is numerically negligible on the
    boundary band.
    """
    rng = np.random.default_rng(seed)
    hw = np.asarray(grid.half_widths, dtype=float)
    members = []
    for _ in range(int(n)):
        center = rng.uniform(-0.25, 0.25, grid.ndim) * hw
        width = rng.uniform(0.12, 0.3, grid.ndim) * hw
        lin = rng.standard_normal(grid.ndim) * 0.5
        quad = rng.standard_normal(grid.ndim) * 0.25
        members.append(_bump(center, width, lin, quad))
    return TestFamily(grid=grid, members=members, seed=seed)


# ---------------------------------------------------------------------------
# Ratio probes


@dataclass
class RatioProbe:
    """Observed norm-ratio interval for a pair of Sobolev norms."""

    min_ratio: float
    max_ratio: float

    def __post_init__(self):
        if not (0 < self.min_ratio <= self.max_ratio < np.inf):
            raise SobolevError("ratio interval must be positive and finite")


def _ratios(fs, num, den):
    """num(f) / den(f) for each f; den(f) is evaluated first, and a zero one is refused."""
    ratios = []
    for f in fs:
        d = den(f)
        if d == 0:
            raise SobolevError("family member has zero denominator norm")
        ratios.append(num(f) / d)
    return ratios


def equivalence_probe(specA: SobolevNormSpec, specB: SobolevNormSpec, family: TestFamily) -> RatioProbe:
    """min/max of ||f||_A / ||f||_B over the family."""
    if specA.plan.grid != specB.plan.grid:
        raise SobolevError("both norms must live on the same grid")
    ratios = _ratios(family.gridfunctions(), partial(sobolev_norm, specA), partial(sobolev_norm, specB))
    return RatioProbe(min_ratio=float(min(ratios)), max_ratio=float(max(ratios)))


# the scales r at which the embedding probes stress the first N_DILATED members
DILATIONS = (0.25, 0.5, 1.0, 2.0, 4.0)
N_DILATED = 3


def _dilation_drift(plan, family, form):
    """Largest max/min spread over ``DILATIONS`` of form(plan_r, f_r, r).

    For each of the first ``N_DILATED`` members, f_r is the member as
    f(D_r x), sampled on the dilation image of the grid under the exactly
    rescaled plan plan_r.  That keeps it equally resolved at every scale; on
    a fixed grid the copies leave the resolved band already at r = 4 for
    weight-2 coordinates.
    """
    weights = plan.law.algebra.weights
    spreads = [1.0]
    for i in range(min(N_DILATED, len(family.members))):
        vals = []
        for r in DILATIONS:
            plan_r = dilated_plan(plan, 1.0 / r)
            fn = family.dilated_member(i, r, weights)
            vals.append(form(plan_r, GridFunction(plan_r.grid, fn(plan_r.grid.points())), r))
        spreads.append(np.max(vals) / np.min(vals))
    return np.max(spreads)  # np.max keeps a NaN, which the built-in max may drop


def embedding_probe(plan: SpectralPlan, p, q, b, a, family: TestFamily):
    """sup of ||f||_{L^q_a} / ||f||_{L^p_b} under the exponent relation.

    Requires 1 < p < q < inf and b - a = Q(1/p - 1/q); other inputs are
    refused (no claim holds off the relation).  The first ``N_DILATED`` family
    members are also stressed across scales (``_dilation_drift``): on the
    dilation image of the grid the exponent relation makes the
    homogeneous-seminorm form of the ratio scale-free; the drift is the
    max/min spread of that form over ``DILATIONS``.  Returns (sup ratio, drift).
    """
    if not (1 < p < q < np.inf):
        raise SobolevError(f"need 1 < p < q < inf, got p={p}, q={q}")
    Q = plan.law.algebra.homogeneous_dimension
    if abs((b - a) - Q * (1.0 / p - 1.0 / q)) > 1e-12:
        raise SobolevError(
            f"exponent relation violated: b-a={b - a} but Q(1/p-1/q)={Q * (1 / p - 1 / q)}"
        )

    def ratios(fs, plan_r, flavor):
        num, den = SobolevNormSpec(plan_r, a, q, flavor), SobolevNormSpec(plan_r, b, p, flavor)
        return _ratios(fs, partial(sobolev_norm, num), partial(sobolev_norm, den))

    sup = np.max(ratios(family.gridfunctions(), plan, "inhomogeneous"))
    drift = _dilation_drift(plan, family, lambda plan_r, fr, r: ratios([fr], plan_r, "homogeneous")[0])
    return float(sup), float(drift)


def sup_embedding_probe(plan: SpectralPlan, p, s, family: TestFamily):
    """sup of ||f||_inf / ||f||_{L^p_s}, defined only for s > Q/p.

    Returns (sup ratio, drift): the drift stresses the first ``N_DILATED``
    members across the scales ``DILATIONS`` on dilation-image grids
    (``_dilation_drift``), in the scale-covariant form — the
    homogeneous-seminorm ratio carries the exact dilation factor
    r^{s - Q/p}, which is divided out before comparing across r.
    """
    Q = plan.law.algebra.homogeneous_dimension
    if not s > Q / p:
        raise SobolevError(f"no boundedness claim for s={s} <= Q/p={Q / p}")
    spec_den = SobolevNormSpec(plan, s, p)
    sup_norm = partial(lp_norm, p=np.inf, mask=plan.mask)
    sup = np.max(_ratios(family.gridfunctions(), sup_norm, partial(sobolev_norm, spec_den)), initial=0.0)

    def scaled_ratio(plan_r, fr, r):
        den = sobolev_norm(SobolevNormSpec(plan_r, s, p, "homogeneous"), fr)
        num = lp_norm(fr, np.inf, mask=plan_r.mask)
        return (num / den) / float(r) ** (Q / p - s)

    drift = _dilation_drift(plan, family, scaled_ratio)
    return float(sup), float(drift)


def bump_multiplication_probe(spec: SobolevNormSpec, phi: GridFunction, family: TestFamily):
    """sup of ||f * phi||_{L^p_s} / ||f||_{L^p_s} for a fixed bump phi."""
    if phi.grid != spec.plan.grid:
        raise SobolevError("bump must live on the plan's grid")
    norm = partial(sobolev_norm, spec)
    return float(max(_ratios(family.gridfunctions(), lambda f: norm(f * phi), norm), default=0.0))


def type0_probe(plan: SpectralPlan, word, family: TestFamily):
    """Empirical L2 -> L2 ratio of f -> R^{-deg/nu} X^alpha f for [alpha] = deg.

    The composed operator has homogeneous degree zero; its discrete ratio over
    the family stays bounded and is frozen as a regression value.
    """
    weights = plan.law.algebra.weights
    deg = sum(int(weights[j]) for j in word)

    def num(f):
        g = GridFunction(plan.grid, plan.field_matrices.apply_word(tuple(word), f.values))
        return lp_norm(fractional_apply(plan, -float(deg), g, homogeneous=True), 2)

    return float(max(_ratios(family.gridfunctions(), num, partial(lp_norm, p=2)), default=0.0))


# ---------------------------------------------------------------------------
# Sharpness table for the weights-(3,5,8) group


def sharpness_probe_H1tilde(law=None):
    """Ratios ||(X^2+Y^2) f_r||_2 / (Goodman norm of order s) on weights (3,5,8).

    f_r = f(D_r x), r = 1, 2, 4, for a centred Gaussian f; each r gets the
    dilation image of a 25^3 grid on [-3, 3]^3 so the bump stays equally
    resolved.  The order-s denominator (s = 6, 8, 10) is ||f||_2 + sum over
    words of weighted degree s.  The words of degree 10 include Y^2, which
    matches the numerator's fastest-scaling term, so that column stays
    bounded in r, while lower orders grow.
    """
    from .algebra import bch_group_law, builtin_group

    if law is None:
        law = bch_group_law(builtin_group("heisenberg358"))
    weights = law.algebra.weights
    if tuple(int(w) for w in weights) != (3, 5, 8):
        raise SobolevError("sharpness table is specific to dilation weights (3, 5, 8)")
    base_grid = Grid((3.0, 3.0, 3.0), (25, 25, 25))
    member = _bump(np.zeros(3), np.full(3, 0.9), np.zeros(3), np.zeros(3))
    L = -(DiffOpExpr.generator(0) ** 2) - (DiffOpExpr.generator(1) ** 2)
    table = {}
    for s in (6, 8, 10):
        col = []
        for r in (1.0, 2.0, 4.0):
            grid_r = base_grid.dilated(1.0 / r, weights)
            fr = GridFunction(grid_r, member(dilate(r, grid_r.points(), weights)))
            cache = FieldMatrices(law, grid_r)
            num = lp_norm(GridFunction(grid_r, cache.apply_expr(L, fr.values)), 2)
            den = lp_norm(fr, 2)
            for word in words_of_degree(weights, s):
                den += lp_norm(GridFunction(grid_r, cache.apply_word(word, fr.values)), 2)
            col.append(num / den)
        table[s] = tuple(col)
    return table
