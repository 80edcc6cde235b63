"""Sobolev norms and empirical ratio probes.

The inhomogeneous norm is ||(I+R)^{s/nu} f||_p through the spectral plan; the
homogeneous flavor uses R^{s/nu}; the integer flavor is the Goodman-style sum
||f||_p + sum over words of weighted degree s of ||X^alpha f||_p.  Probes
report min/max norm ratios over a reproducible family of smooth bumps: the
equivalence constants are empirical, so the observed intervals serve as
regression baselines rather than proved bounds.  Norms and probes take the
family as one stack of rows (``sobolev_norms``), in blocks of
``STACK_BLOCK`` rows, so each block is one stacked transform of the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import numpy.random

from . import GradecalcError
from .calculus import DiffOpExpr, FieldMatrices
from .geometry import Grid, GridFunction, lp_norm, lp_norms, sum_columns
from .heatflow import SpectralPlan, dilated_plan
from .potentials import fractional_multiplier


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


# Most words an integer-order norm sums over; each costs a chain of field
# applications per function, and the count grows exponentially in the order
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


# Rows of a stack that one pass takes at once: every temporary of a stacked
# norm or probe is at most STACK_BLOCK times the grid size.
STACK_BLOCK = 8


def _by_blocks(fn, values):
    """fn of each block of ``STACK_BLOCK`` rows of ``values``, its per-row results joined."""
    out = np.empty(len(values))
    for i in range(0, len(values), STACK_BLOCK):
        out[i : i + STACK_BLOCK] = fn(values[i : i + STACK_BLOCK])
    return out


def _word_norms(spec: SobolevNormSpec, words, block):
    """The L^p norms of X^word applied to each row of ``block``, one array per word, in ``words`` order.

    A word is applied from its last letter, so words that end in the same
    letters share that suffix's field applications: the words are taken in the
    order of their reversed letters, a depth-first walk of the trie of
    suffixes, and ``stack`` keeps one intermediate per trie level (the
    current word's last d letters applied, at depth d).  Every
    application is the one ``FieldMatrices.apply_word`` makes, so the norms are
    bit-identical to applying each word on its own.
    """
    fm = spec.plan.field_matrices
    norms = [None] * len(words)
    stack, prev = [block.T], ()
    for i in sorted(range(len(words)), key=lambda i: words[i][::-1]):
        rev = words[i][::-1]
        common = 0  # letters shared with the previous word's suffix
        while common < min(len(rev), len(prev)) and rev[common] == prev[common]:
            common += 1
        del stack[common + 1 :]
        for j in rev[common:]:
            stack.append(fm.apply_field(j, stack[-1]))
        norms[i] = _lp(spec, stack[-1].T)
        prev = rev
    return norms


def _lp(spec: SobolevNormSpec, values):
    # sup norms carry no claim on the boundary stencil band
    mask = spec.plan.mask if spec.p == np.inf else None
    return lp_norms(spec.plan.grid, values, spec.p, mask=mask)


def sobolev_norms(spec: SobolevNormSpec, values):
    """The chosen Sobolev norm of each row of ``values``, a stack (m, grid size) on the plan's grid.

    The rows go through in blocks of ``STACK_BLOCK``.  The spectral flavors
    take one stacked multiplier pass per block; the integer flavor applies
    each word to a whole block through the plan's ``field_matrices``, built
    once per plan, sharing the products of common suffixes (``_word_norms``)
    and summing the norms in word order.
    """
    values = np.asarray(values)
    plan = spec.plan
    if values.ndim != 2 or values.shape[1] != plan.grid.size:
        raise SobolevError(f"values must be a stack of rows on the plan's grid, got shape {values.shape}")
    if spec.flavor == "integer":
        words = words_of_degree(plan.law.algebra.weights, spec.s)

        def block_norms(block):
            total = _lp(spec, block)
            for norm in _word_norms(spec, words, block):
                total += norm
            return total

    else:
        g = fractional_multiplier(plan, spec.s, homogeneous=(spec.flavor == "homogeneous"))

        def block_norms(block):
            return _lp(spec, plan.apply_multiplier(g, block))

    return _by_blocks(block_norms, values)


def sobolev_norm(spec: SobolevNormSpec, f: GridFunction):
    """The chosen Sobolev norm of f on the plan's grid; s=0 inhomogeneous reduces to plain L^p.

    The one-row case of ``sobolev_norms``.
    """
    if f.grid != spec.plan.grid:
        raise SobolevError("f must live on the plan's grid")
    return float(sobolev_norms(spec, f.values[None])[0])


# ---------------------------------------------------------------------------
# Test family


@dataclass(eq=False)
class TestFamily:
    """Reproducible smooth bumps, Gaussians times polynomials, sampled once on ``grid``.

    ``members`` holds one sample row per member; ``make_test_family`` passes
    them as one read-only array of shape (members, grid size).  The samples
    are all a probe needs: node i of the dilation image D_{1/r} of ``grid``
    is D_{1/r} of node i, so there the sample of f(D_r x) is the sample of
    f.  ``values`` is the family as one read-only stack (a list of rows is
    stacked once), and ``gridfunctions`` wraps its rows as views, so no
    second copy of the family exists.
    """

    grid: Grid
    members: np.ndarray  # (members, grid size), or a list of rows
    seed: int

    @cached_property
    def values(self):
        # a read-only view, so that a caller's own array stays writeable
        values = np.asarray(self.members, dtype=float).view()
        values.flags.writeable = False
        return values

    def gridfunctions(self):
        """The members as ``GridFunction``s on row views of ``values``, in a new list."""
        return [GridFunction(self.grid, row) for row in self.values]


def _bump(pts, center, width, lin, quad):
    """(1 + t.lin + t^2.quad) exp(-|t|^2) at each point of ``pts``, t = (pts - center) / width."""
    t = (np.asarray(pts, dtype=float) - center) / width
    t2 = t * t
    return (1.0 + t @ lin + t2 @ quad) * np.exp(-sum_columns(t2))


def make_test_family(grid: Grid, n=50, seed=0xC0FFEE) -> TestFamily:
    """n Gaussian-times-polynomial bumps with quasi-random centers and widths, sampled on ``grid``.

    Centers stay within the inner quarter of the box and widths are a fraction
    of the half-widths, so every member is numerically negligible on the
    boundary band.
    """
    rng = np.random.default_rng(seed)
    hw = np.asarray(grid.half_widths, dtype=float)
    pts = grid.points()
    values = np.empty((int(n), grid.size))
    for row in values:
        center = rng.uniform(-0.25, 0.25, grid.ndim) * hw
        width = rng.uniform(0.12, 0.3, grid.ndim) * hw
        lin = rng.standard_normal(grid.ndim) * 0.5
        quad = rng.standard_normal(grid.ndim) * 0.25
        row[:] = _bump(pts, center, width, lin, quad)
    values.flags.writeable = False
    return TestFamily(grid=grid, members=values, seed=seed)


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


def _family_values(family: TestFamily, plan: SpectralPlan):
    """The family's sampled stack, refused (SobolevError) unless it lives on the plan's grid."""
    if family.grid != plan.grid:
        raise SobolevError("the family must live on the plan's grid")
    return family.values


def _ratios(values, num, den):
    """num / den of each row of ``values``; den is evaluated first, and a zero one is refused."""
    d = den(values)
    if np.any(d == 0):
        raise SobolevError("family member has zero denominator norm")
    return num(values) / d


def equivalence_probe(specA: SobolevNormSpec, specB: SobolevNormSpec, family: TestFamily) -> RatioProbe:
    """min/max of ||f||_A / ||f||_B over the family."""
    if specA.plan.grid != specB.plan.grid:
        raise SobolevError("both norms must live on the same grid")
    values = _family_values(family, specA.plan)
    ratios = _ratios(values, partial(sobolev_norms, specA), partial(sobolev_norms, specB))
    return RatioProbe(min_ratio=float(np.min(ratios)), max_ratio=float(np.max(ratios)))


# the scales r at which the embedding probes stress the first N_DILATED members
DILATIONS = (0.25, 0.5, 1.0, 2.0, 4.0)
N_DILATED = 3


def _dilation_drift(plan, family, form):
    """Largest max/min spread over ``DILATIONS`` of form(plan_r, rows, r), per member.

    ``rows`` are the samples of the first ``N_DILATED`` members, and plan_r
    is the plan exactly rescaled to the dilation image D_{1/r} of the grid.
    Node i there is D_{1/r} of base node i, so the sample of
    f_r = f(D_r x) on it is the base sample (bit for bit at the scales
    ``DILATIONS``, powers of two): each f_r is equally resolved at every
    scale, where on a fixed grid the copies leave the resolved band already
    at r = 4 for weight-2 coordinates.  ``form`` returns one value per row.
    """
    rows = _family_values(family, plan)[:N_DILATED]
    vals = np.array([form(dilated_plan(plan, 1.0 / r), rows, r) for r in DILATIONS])
    # np.max keeps a NaN, which the built-in max may drop
    return np.max(vals.max(axis=0) / vals.min(axis=0), initial=1.0)


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

    def ratios(plan_r, values, flavor):
        num, den = SobolevNormSpec(plan_r, a, q, flavor), SobolevNormSpec(plan_r, b, p, flavor)
        return _ratios(values, partial(sobolev_norms, num), partial(sobolev_norms, den))

    sup = np.max(ratios(plan, _family_values(family, plan), "inhomogeneous"))
    drift = _dilation_drift(plan, family, lambda plan_r, rows, r: ratios(plan_r, rows, "homogeneous"))
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
    sup_norms = partial(lp_norms, plan.grid, p=np.inf, mask=plan.mask)
    values = _family_values(family, plan)
    sup = np.max(_ratios(values, sup_norms, partial(sobolev_norms, spec_den)), initial=0.0)

    def scaled_ratio(plan_r, rows, r):
        den = sobolev_norms(SobolevNormSpec(plan_r, s, p, "homogeneous"), rows)
        num = lp_norms(plan_r.grid, rows, np.inf, mask=plan_r.mask)
        return (num / den) / float(r) ** (Q / p - s)

    drift = _dilation_drift(plan, family, scaled_ratio)
    return float(sup), float(drift)


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
    # node i of each dilation image D_{1/r} is D_{1/r} of base node i, so the
    # sample of f_r there is the base sample of f
    f = _bump(base_grid.points(), np.zeros(3), np.full(3, 0.9), np.zeros(3), np.zeros(3))
    L = -(DiffOpExpr.generator(0) ** 2) - (DiffOpExpr.generator(1) ** 2)
    table = {6: [], 8: [], 10: []}
    for r in (1.0, 2.0, 4.0):
        grid_r = base_grid.dilated(1.0 / r, weights)
        fm = FieldMatrices(law, grid_r)
        num = lp_norm(GridFunction(grid_r, fm.apply_expr(L, f)), 2)
        for s, col in table.items():
            den = lp_norm(GridFunction(grid_r, f), 2)
            for word in words_of_degree(weights, s):
                den += lp_norm(GridFunction(grid_r, fm.apply_word(word, f)), 2)
            col.append(num / den)
    return {s: tuple(col) for s, col in table.items()}
