"""Riesz and Bessel potential kernels and fractional operator powers.

The kernels are quadratures of the heat family over a geometric time ladder
(trapezoid in log t); fractional powers (I+R)^{s/nu} and R^{s/nu} are
multipliers g(lam_plus) of the plan's clipped spectrum, applied by
``SpectralPlan.apply_multiplier``.  The two routes cross-validate each other:
the ladder applied to f reproduces the spectral multiplier up to quadrature
error.

A kernel is linear in h_t, so its whole ladder is one weighted sum
``HeatKernelSource.ladder_sum``: the nodes on the direct route share one
multiplier and one synthesis, and the nodes past the source's switch time
are each one axis-by-axis resampling of the reference kernel.  Every plan is
positive up to rounding (``spectral_plan``), so the clipping is harmless; a
fractional power whose multiplier overflows is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from . import GradecalcError
from .geometry import Grid, GridFunction, lp_norm, pseudo_norm
from .heatflow import HeatKernelSource, SpectralPlan


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


def riesz_kernel(plan: SpectralPlan, a, source=None) -> RieszKernel:
    """I_a = (1/Gamma(a/nu)) * integral of t^{a/nu - 1} h_t dt, 0 < a < Q.

    The ladder covers [t_lo, t_hi]; beyond t_hi the self-similar decay
    h_t(x) ~ t^{-Q/nu} * C0 integrates to an explicit power-law tail which is
    added analytically (C0 from the late-time continuation).  The value at
    the origin node is a non-finite sentinel, and values inside the
    ``exclusion_radius`` carry no accuracy claim.
    """
    nu = _require_homogeneous(plan)
    Q = plan.law.algebra.homogeneous_dimension
    if not 0 < a < Q:
        raise PotentialError(f"Riesz exponent must satisfy 0 < a < Q = {Q}, got {a}")
    ladder = default_ladder(plan.grid, nu)
    if source is None:
        source = HeatKernelSource(plan)
    norm = 1.0 / math.gamma(a / nu)
    t = ladder.nodes
    acc, _ = source.ladder_sum(t, ladder.weights * t ** (a / nu - 1.0))
    tail_c = 0.0
    if np.isfinite(source.t_switch):
        tail_c = source.value_at_origin_late()
        acc += tail_c * (nu / (Q - a)) * ladder.t_hi ** ((a - Q) / nu)
    vals = norm * acc
    vals[plan.grid.origin_index] = np.inf
    return RieszKernel(
        a=float(a),
        values=GridFunction(plan.grid, vals),
        exclusion_radius=exclusion_radius(plan.grid),
        tail_constant=tail_c,
    )


def bessel_kernel(plan: SpectralPlan, a, source=None) -> BesselKernel:
    """B_a = (1/Gamma(a/nu)) * integral of t^{a/nu - 1} e^{-t} h_t dt, a > 0.

    The reported ``integral`` integrates the in-model mass of h_t against the
    damped weight: on the ladder the box mass (or the dilation-exact mass of
    the continuation), below it the analytic head weighted by the source's
    mass of h_{t_lo} (so that a kernel the grid cannot resolve reads as no
    mass), and beyond t_hi the e^{-t} damping bounds the remainder.
    """
    nu = _require_homogeneous(plan)
    if not 0 < a < math.inf:
        raise PotentialError(f"Bessel exponent must be positive and finite, got {a}")
    ladder = default_ladder(plan.grid, nu)
    if source is None:
        source = HeatKernelSource(plan)
    s = a / nu
    norm = 1.0 / math.gamma(s)
    t = ladder.nodes
    acc, mass_integral = source.ladder_sum(t, ladder.weights * t ** (s - 1.0) * np.exp(-t))
    vals = norm * acc
    # analytic head [0, t_lo] carrying the mass of h_{t_lo}, and tail bound beyond t_hi
    head = gammainc(s, ladder.t_lo) * source.mass(ladder.t_lo)
    tail = 1.0 - gammainc(s, ladder.t_hi)
    integral = norm * mass_integral + head + tail
    gf = GridFunction(plan.grid, vals)
    return BesselKernel(
        a=float(a),
        values=gf,
        integral=float(integral),
        l1_estimate=lp_norm(gf, 1),
    )


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
    return float(np.median(rel))


# ---------------------------------------------------------------------------
# Fractional powers

FLOOR_RATIO = 1e-12


def fractional_apply(plan: SpectralPlan, s, f: GridFunction, homogeneous=False) -> GridFunction:
    """(I+R)^{s/nu} f, or R^{s/nu} f when ``homogeneous``.

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
    return plan.apply_multiplier(g, f)


def bessel_apply_quadrature(plan: SpectralPlan, a, f: GridFunction) -> GridFunction:
    """(I+R)^{-a/nu} f via the damped heat ladder (quadrature route).

    Cross-validates ``fractional_apply(plan, -a, f)``: the exact identity is
    (I+R)^{-a/nu} = (1/Gamma(a/nu)) * integral of t^{a/nu-1} e^{-t} e^{-tR} dt.
    """
    nu = _require_homogeneous(plan)
    if a <= 0:
        raise PotentialError("quadrature route needs a > 0")
    ladder = TLadder.geometric(1e-8, 50.0, n=600)
    s = a / nu
    lam = plan.lam_plus
    # analytic head for (0, t_lo], where the integrand is ~ t^{s-1}
    g = (ladder.t_lo**s / s) * np.exp(-ladder.t_lo * (1.0 + lam))
    for t, w in zip(ladder.nodes, ladder.weights):
        g += w * (t ** (s - 1.0)) * np.exp(-t * (1.0 + lam))
    g /= math.gamma(s)
    return plan.apply_multiplier(g, f)
