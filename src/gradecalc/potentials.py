"""Riesz and Bessel potential kernels and fractional operator powers.

The kernels are quadratures of the heat family over a geometric time ladder
(trapezoid in log t); fractional powers (I+R)^{s/nu} and R^{s/nu} are
multipliers g(lam_plus) of the plan's clipped spectrum, applied by
``SpectralPlan.apply_multiplier``.  The two routes cross-validate each other:
the ladder applied to f reproduces the spectral multiplier up to quadrature
error.

A kernel is linear in h_t, so its whole ladder is one weighted sum
``HeatKernelSource.ladder_sum``, and every kernel of a plan is one row of
the same pass (``potential_kernels``; ``bessel_kernel`` and
``riesz_kernel`` are its one-exponent cases): the nodes on the direct route
fold into one multiplier per kernel and share one stacked synthesis, and
the nodes past the source's switch time are one matrix product with the
source's stack of continued kernels, one axis-by-axis resampling of the
reference kernel per node.  The source resamples each continuation time
once per ladder for its life and keeps that stack (n_late x grid size
floats: 3.3 MB on the 15 x 15 x 31 heisenberg box, at most about 19 MB at
the grid cap), so a second kernel query on the same source resamples
nothing.  Every plan is positive up to rounding (``spectral_plan``), so the
clipping is harmless; a fractional power whose multiplier overflows is
refused (``fractional_multiplier``).

Every ladder quadrature of a multiplier, sum_i c_i e^{-t_i mu} for one or
more coefficient rows, goes through one routine,
``heatflow._ladder_multipliers``, which takes the ladder as an array axis: a
block of ladder rows (about 512 KB of exponents) is one exp and one matrix
product.  ``ladder_sum`` uses it with mu = lam_plus for its direct nodes,
and the quadrature route ``bessel_apply_quadrature`` with mu = 1 + lam_plus
for its 600 nodes and analytic head, so no Python loop runs over the nodes
of a ladder.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import GradecalcError
from .geometry import Grid, GridFunction, lp_norm, pseudo_norm
from .heatflow import HeatKernelSource, SpectralPlan, _ladder_multipliers


class PotentialError(GradecalcError):
    pass


# ---------------------------------------------------------------------------
# Time ladder


@dataclass(frozen=True)
class TLadder:
    """Geometric quadrature nodes for integrals over (0, infinity) in t.

    ``weights`` absorb the dt of a trapezoid rule in ln t, so that
    ``sum(weights * f(nodes))`` approximates the integral of f over
    [t_lo, t_hi].
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def geometric(cls, t_lo, t_hi, n=60):
        if not (0 < t_lo < t_hi):
            raise PotentialError("need 0 < t_lo < t_hi")
        if n < 2:
            raise PotentialError("need at least two ladder nodes")
        u = np.linspace(math.log(t_lo), math.log(t_hi), int(n))
        t = np.exp(u)
        w_log = np.full(n, u[1] - u[0])
        w_log[0] *= 0.5
        w_log[-1] *= 0.5
        return cls(nodes=t, weights=t * w_log)

    @property
    def t_lo(self):
        return float(self.nodes[0])

    @property
    def t_hi(self):
        return float(self.nodes[-1])


# The ladder of ``bessel_apply_quadrature``, the same for every plan; every
# call shares its arrays, so they are read-only.
QUADRATURE_LADDER = TLadder.geometric(1e-8, 50.0, n=600)
QUADRATURE_LADDER.nodes.flags.writeable = QUADRATURE_LADDER.weights.flags.writeable = False


def default_ladder(grid: Grid, nu) -> TLadder:
    """Ladder of 60 nodes spanning [ (d_max/2)^nu, 50 ].

    The lower end is where the heat kernel's width drops below one grid cell:
    below it, h_t contributes nothing at the nodes outside the reporting
    exclusion radius, so the truncation is harmless there.
    """
    t_max = 50.0
    d_max = max(grid.spacings)
    try:
        t_lo = (0.5 * d_max) ** nu
    except OverflowError:  # a high-degree operator on a coarse grid: far above t_max / 100
        t_lo = math.inf
    return TLadder.geometric(min(t_lo, t_max / 100.0), t_max)


def _incomplete_gamma(s, x):
    """The regularized incomplete gamma functions (P(s, x), Q(s, x)), s > 0, x >= 0.

    P = gamma(s, x) / Gamma(s) and Q = 1 - P = Gamma(s, x) / Gamma(s), each
    within 1e-14 absolute.  Below x = s + 1 the power series of P
    converges fast; from there on Q is the continued fraction
    1/(x + 1 - s - 1(1 - s)/(x + 3 - s - 2(2 - s)/(x + 5 - s - ...))),
    evaluated by the modified Lentz method (Numerical Recipes, 3rd ed.,
    section 6.2).  Either way the other function is one minus it, which
    loses nothing where that one is the small one.
    """
    if x == 0:
        return 0.0, 1.0
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    prefactor = math.exp(s * math.log(x) - x - math.lgamma(s))
    if x < s + 1:
        term = total = 1.0 / s
        n = s
        while term > total * eps:
            n += 1
            term *= x / n
            total += term
        p = prefactor * total
        return p, 1.0 - p
    b = x + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    delta, i = 0.0, 0
    while abs(delta - 1.0) > eps:
        i += 1
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
    q = prefactor * h
    return 1.0 - q, q


# ---------------------------------------------------------------------------
# Kernels


@dataclass
class RieszKernel:
    a: float
    values: GridFunction
    exclusion_radius: float
    tail_constant: float  # late-time t^{Q/nu} h_t(0), 0 if unavailable


@dataclass
class BesselKernel:
    a: float
    values: GridFunction
    integral: float  # estimate of the full-group integral (= 1 in exact arithmetic)
    l1_estimate: float  # L1 norm of the grid function over the box


def _require_homogeneous(plan: SpectralPlan):
    nu = plan.spec.nu
    if nu is None:
        raise PotentialError("operator has no homogeneous degree")
    return int(nu)


# Largest share Q(a/nu, t_hi) of a Bessel kernel's mass that may lie past the
# ladder, where no grid value carries it: a tenth of the potential.bessel_mass
# threshold.  It also refuses every a/nu > 171.6, where Gamma(a/nu) overflows.
BESSEL_TAIL_TOL = 1e-3


def _bessel_tail(a, nu, t_hi):
    """Q(a/nu, t_hi), the share of B_a's mass past a ladder that ends at t_hi.

    An exponent that is not positive and finite, or that leaves more than
    ``BESSEL_TAIL_TOL`` there, is refused (PotentialError).
    """
    if not 0 < a < math.inf:
        raise PotentialError(f"Bessel exponent must be positive and finite, got {a}")
    tail = _incomplete_gamma(a / nu, t_hi)[1]
    if tail > BESSEL_TAIL_TOL:
        raise PotentialError(
            f"Bessel exponent {a:g} leaves Q(a/nu, t_hi) = {tail:.3g} of the kernel's mass past "
            f"the ladder's last time t_hi = {t_hi:g}, more than {BESSEL_TAIL_TOL:g}"
        )
    return tail


def potential_kernels(plan: SpectralPlan, bessel=(), riesz=(), source=None):
    """The Bessel kernels B_a for a in ``bessel`` and the Riesz kernels I_a for a in ``riesz``.

    Returns the two lists of kernels, in the order of the exponents.  Every
    kernel is a weighted sum of the same heat kernels over the plan's
    ``default_ladder``, so all of them are one ``ladder_sum`` pass with one
    coefficient row per kernel: the direct nodes share one stacked
    synthesis, and each continuation time is resampled once.

    B_a = (1/Gamma(a/nu)) * integral of t^{a/nu - 1} e^{-t} h_t dt, a > 0.
    Its reported ``integral`` integrates the in-model mass of h_t against the
    damped weight: on the ladder the box mass (or the dilation-exact mass of
    the continuation), below it the analytic head weighted by the source's
    mass of h_{t_lo} (so that a kernel the grid cannot resolve reads as no
    mass), and beyond t_hi the e^{-t} damping bounds the remainder.

    I_a = (1/Gamma(a/nu)) * integral of t^{a/nu - 1} h_t dt, 0 < a < Q.
    The ladder covers [t_lo, t_hi]; beyond t_hi the self-similar decay
    h_t(x) ~ t^{-Q/nu} * C0 integrates to an explicit power-law tail which is
    added analytically (C0 from the late-time continuation).  The value at
    the origin node is a non-finite sentinel, and values inside the
    ``exclusion_radius`` carry no accuracy claim.

    Every exponent is checked before anything is computed, and a Bessel
    exponent is refused when the tail bound Q(a/nu, t_hi) exceeds
    ``BESSEL_TAIL_TOL``: past that, the reported integral would count mass
    that no grid value carries.
    """
    nu = _require_homogeneous(plan)
    Q = plan.law.algebra.homogeneous_dimension
    ladder = default_ladder(plan.grid, nu)
    tails = [_bessel_tail(a, nu, ladder.t_hi) for a in bessel]
    for a in riesz:
        if not 0 < a < Q:
            raise PotentialError(f"Riesz exponent must satisfy 0 < a < Q = {Q}, got {a}")
    if source is None:
        source = HeatKernelSource(plan)
    t = ladder.nodes
    rows = [ladder.weights * t ** (a / nu - 1.0) * np.exp(-t) for a in bessel]
    rows += [ladder.weights * t ** (a / nu - 1.0) for a in riesz]
    acc, masses = source.ladder_sum(t, np.reshape(rows, (len(rows), len(t))))

    bessels = []
    for a, vals, mass_integral, tail in zip(bessel, acc, masses, tails):
        s = a / nu
        norm = 1.0 / math.gamma(s)
        # analytic head [0, t_lo] carrying the mass of h_{t_lo}, and the tail bound beyond t_hi
        head = _incomplete_gamma(s, ladder.t_lo)[0] * source.mass(ladder.t_lo)
        gf = GridFunction(plan.grid, norm * vals)
        bessels.append(
            BesselKernel(
                a=float(a),
                values=gf,
                integral=float(norm * mass_integral + head + tail),
                l1_estimate=lp_norm(gf, 1),
            )
        )
    tail_c = source.value_at_origin_late() if np.isfinite(source.t_switch) else 0.0
    rieszes = []
    for a, vals in zip(riesz, acc[len(bessel) :]):
        vals = (vals + tail_c * (nu / (Q - a)) * ladder.t_hi ** ((a - Q) / nu)) * (1.0 / math.gamma(a / nu))
        vals[plan.grid.origin_index] = np.inf
        rieszes.append(
            RieszKernel(
                a=float(a),
                values=GridFunction(plan.grid, vals),
                exclusion_radius=exclusion_radius(plan.grid),
                tail_constant=tail_c,
            )
        )
    return bessels, rieszes


def bessel_kernel(plan: SpectralPlan, a, source=None) -> BesselKernel:
    """B_a alone: the one-exponent case of ``potential_kernels``."""
    return potential_kernels(plan, bessel=(a,), source=source)[0][0]


def riesz_kernel(plan: SpectralPlan, a, source=None) -> RieszKernel:
    """I_a alone: the one-exponent case of ``potential_kernels``."""
    return potential_kernels(plan, riesz=(a,), source=source)[1][0]


def exclusion_radius(grid: Grid):
    """3 * max spacing: the radius inside which a Riesz kernel carries no accuracy claim."""
    return 3.0 * max(grid.spacings)


def dilation_pairs(grid: Grid, weights, nu0, r, mask):
    """Flat indices (x, D_r x) of the node pairs on which Riesz homogeneity is measured.

    Only integer dilation factors map grid nodes to grid nodes; a pair needs
    both nodes in ``mask`` and x outside the ``exclusion_radius``.  A grid
    without such a pair is refused (PotentialError).
    """
    counts = np.array(grid.counts)
    center = (counts - 1) // 2
    idx = np.array(np.unravel_index(np.arange(grid.size), grid.counts)).T - center
    img = idx * np.array([int(round(float(r) ** int(w))) for w in weights])
    ok = np.all(np.abs(img) <= center, axis=1) & mask
    ok &= pseudo_norm(grid.points(), weights, nu0) >= exclusion_radius(grid)
    img_flat = np.ravel_multi_index((img[ok] + center).T, grid.counts)
    inside = mask[img_flat]
    if not inside.any():
        raise PotentialError("no dilation-compatible nodes outside the exclusion radius")
    return np.flatnonzero(ok)[inside], img_flat[inside]


def riesz_homogeneity_defect(kern: RieszKernel, pairs, Q, r=2):
    """Relative defect of I_a(D_r x) = r^{a-Q} I_a(x) at the node pairs ``pairs``.

    ``pairs`` is the (src, img) that ``dilation_pairs`` returns for the same
    r on the kernel's grid.  Returns the median relative defect over the
    pairs where I_a is finite and nonzero.
    """
    src, img = pairs
    base = kern.values.values[src]
    image = kern.values.values[img]
    good = np.isfinite(base) & np.isfinite(image) & (np.abs(base) > 0)
    expected = float(r) ** (kern.a - Q)
    rel = np.abs(image[good] / base[good] - expected) / expected
    if rel.size == 0:
        raise PotentialError("the Riesz kernel is not finite and nonzero at any dilation pair")
    # the median as np.median takes it, whose NaN check would import numpy.ma
    k = rel.size // 2
    part = np.partition(rel, [k - 1, k] if rel.size % 2 == 0 else k)
    return float(part[k] if rel.size % 2 else (part[k - 1] + part[k]) / 2)


# ---------------------------------------------------------------------------
# Fractional powers

FLOOR_RATIO = 1e-12


def fractional_multiplier(plan: SpectralPlan, s, homogeneous=False):
    """The multiplier of (I+R)^{s/nu}, or of R^{s/nu} when ``homogeneous``, on lam_plus.

    Negative homogeneous powers exclude eigenvalues below
    ``FLOOR_RATIO * lam_max`` (their coefficients are dropped).  An order
    whose multiplier overflows on the plan's spectrum is refused.
    """
    nu = _require_homogeneous(plan)
    lam = plan.lam_plus
    power = s / nu
    with np.errstate(over="ignore"):
        if homogeneous:
            if s < 0:
                floor = FLOOR_RATIO * max(lam.max(), 1.0)
                g = np.where(lam > floor, np.power(np.maximum(lam, floor), power), 0.0)
            else:
                g = np.power(lam, power)
        else:
            g = np.power(1.0 + lam, power)
    if not np.isfinite(g).all():
        raise PotentialError(f"the multiplier of order s={s:g} overflows on the spectrum of the plan")
    return g


def fractional_apply(plan: SpectralPlan, s, f: GridFunction, homogeneous=False) -> GridFunction:
    """(I+R)^{s/nu} f, or R^{s/nu} f when ``homogeneous`` (``fractional_multiplier``)."""
    g = fractional_multiplier(plan, s, homogeneous)
    return GridFunction(plan.grid, plan.apply_multiplier(g, f.values))


def bessel_apply_quadrature(plan: SpectralPlan, a, f: GridFunction) -> GridFunction:
    """(I+R)^{-a/nu} f via the damped heat ladder (quadrature route).

    Cross-validates ``fractional_apply(plan, -a, f)``: the exact identity is
    (I+R)^{-a/nu} = (1/Gamma(a/nu)) * integral of t^{a/nu-1} e^{-t} e^{-tR} dt.
    On the spectrum that is the multiplier sum_i c_i e^{-t_i (1 + lam_plus)}
    over the 600 nodes of ``QUADRATURE_LADDER`` (c_i = w_i t_i^{a/nu-1}),
    plus the analytic head t_lo^{a/nu} / (a/nu) e^{-t_lo (1 + lam_plus)} for
    (0, t_lo], where the integrand is ~ t^{a/nu-1}: one more term of the same
    sum.  All 601 terms go through ``heatflow._ladder_multipliers`` in
    blocks of ladder rows, so no array holds the ladder times the spectrum.
    Its exponents are refused by the rule of ``potential_kernels``.
    """
    nu = _require_homogeneous(plan)
    ladder = QUADRATURE_LADDER
    _bessel_tail(a, nu, ladder.t_hi)  # the operator dropped past t_hi has norm at most this
    s = a / nu
    times = np.concatenate(([ladder.t_lo], ladder.nodes))
    coefs = np.concatenate(([ladder.t_lo**s / s], ladder.weights * ladder.nodes ** (s - 1.0)))
    g = _ladder_multipliers(1.0 + plan.lam_plus, times, coefs)[0] / math.gamma(s)
    return GridFunction(plan.grid, plan.apply_multiplier(g, f.values))
