"""Riesz/Bessel kernels, fractional powers, classical oracles."""

import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc

from gradecalc import heatflow
from gradecalc.calculus import RocklandSpec, parse_diffop, sublaplacian
from gradecalc.defaults import DEFAULTS
from gradecalc.geometry import Grid, GridFunction, group_convolve, haar_integrate, lp_norm, pseudo_norm
from gradecalc.heatflow import HeatError, HeatKernelSource, spectral_plan
from gradecalc.potentials import (
    PotentialError,
    TLadder,
    _incomplete_gamma,
    bessel_apply_quadrature,
    bessel_kernel,
    default_ladder,
    dilation_pairs,
    fractional_apply,
    potential_kernels,
    riesz_homogeneity_defect,
    riesz_kernel,
)
from gradecalc.sobolev import make_test_family

SEED = 0xC0FFEE


# ---------------------------------------------------------------------------
# Ladders


@pytest.mark.parametrize("s", [1 / 240, 2 / 240, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0])
def test_incomplete_gamma_matches_scipy(s):
    # the Bessel head and tail weights P(s, t_lo) and Q(s, t_hi): s = a/nu
    # reaches 1/240 on heisenberg358's degree-240 operator
    for x in [0.0, *np.geomspace(1e-6, 500)]:
        p, q = _incomplete_gamma(s, x)
        assert abs(p - gammainc(s, x)) <= 1e-14, x
        assert abs(q - gammaincc(s, x)) <= 1e-14, x


def test_tladder_quadrature():
    # integral of t e^{-t} over (0, inf) = 1; the ladder covers [t_lo, t_hi]
    lad = TLadder.geometric(1e-6, 60.0, n=400)
    val = float(np.sum(lad.weights * lad.nodes * np.exp(-lad.nodes)))
    assert val == pytest.approx(1.0, rel=1e-4)
    assert lad.t_lo == pytest.approx(1e-6)
    assert lad.t_hi == pytest.approx(60.0)
    with pytest.raises(PotentialError):
        TLadder.geometric(1.0, 0.5)
    with pytest.raises(PotentialError):
        TLadder.geometric(0.1, 1.0, n=1)


def test_default_ladder_scales_with_grid(ab1_pot_plan):
    lad = default_ladder(ab1_pot_plan.grid, 2)
    d = max(ab1_pot_plan.grid.spacings)
    assert lad.t_lo == pytest.approx((0.5 * d) ** 2)
    assert lad.t_hi == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# Bessel kernels: 1-D oracle and semigroup law


def test_bessel_oracle_1d(ab1_pot_plan, ab1_pot_source):
    # classical closed form on the line: B_2(x) = exp(-|x|)/2
    k = bessel_kernel(ab1_pot_plan, 2.0, source=ab1_pot_source)
    x = ab1_pot_plan.grid.points()[:, 0]
    sel = (np.abs(x) >= 0.3) & (np.abs(x) <= 4.0)
    exact = 0.5 * np.exp(-np.abs(x))
    rel = np.abs(k.values.values - exact)[sel] / exact[sel]
    assert rel.max() < 2e-2


def test_bessel_integrals(ab1_pot_plan, ab1_pot_source):
    for a in (1.0, 2.0, 3.0):
        k = bessel_kernel(ab1_pot_plan, a, source=ab1_pot_source)
        assert abs(k.integral - 1.0) < 1e-2
        assert k.l1_estimate == pytest.approx(1.0, abs=2e-2)


def test_bessel_convolution_semigroup(ab1_pot_plan, ab1_pot_source, ab1_law):
    k1 = bessel_kernel(ab1_pot_plan, 1.0, source=ab1_pot_source)
    k2 = bessel_kernel(ab1_pot_plan, 2.0, source=ab1_pot_source)
    conv = group_convolve(ab1_law, k1.values, k1.values, zero_tol=1e-10)
    assert lp_norm(conv - k2.values, 1) < 5e-2


def _box_mass(source, t):
    """The grid sum of source(t) on the direct route, ``mass_at_switch`` past it."""
    return float(haar_integrate(source(t))) if t <= source.t_switch else source.mass_at_switch


def _per_node_kernel(source, ladder, coefs):
    """sum_i c_i h_{t_i} and sum_i c_i (box mass of h_{t_i}), one source(t) per node."""
    acc, mass = np.zeros(source.plan.grid.size), 0.0
    for t, c in zip(ladder.nodes, coefs):
        acc += c * source(t).values
        mass += c * _box_mass(source, t)
    return acc, mass


@pytest.mark.parametrize("name", ["ab1", "ab3", "h1"])
def test_ladder_kernels_match_per_node_sum(name, request):
    # the one-pass ladder equals the sum of the per-node heat kernels; the
    # (direct, continuation) node counts cover both routes and their mix
    plan = request.getfixturevalue(f"{name}_pot_plan")
    source = request.getfixturevalue(f"{name}_pot_source") if name != "h1" else HeatKernelSource(plan)
    ladder = default_ladder(plan.grid, plan.spec.nu)
    direct = int(np.sum(ladder.nodes <= source.t_switch))
    assert (direct, len(ladder.nodes) - direct) == {"ab1": (45, 15), "ab3": (15, 45), "h1": (11, 49)}[name]
    for a in (1.0, 2.0):
        s = a / plan.spec.nu
        k = bessel_kernel(plan, a, source=source)
        acc, mass = _per_node_kernel(source, ladder, ladder.weights * ladder.nodes ** (s - 1) * np.exp(-ladder.nodes))
        want = acc / math.gamma(s)
        assert np.max(np.abs(k.values.values - want)) <= 1e-13 * np.max(np.abs(want))
        # the analytic head carries the mass of h_{t_lo}
        head = gammainc(s, ladder.t_lo) * _box_mass(source, ladder.t_lo)
        integral = mass / math.gamma(s) + head + 1.0 - gammainc(s, ladder.t_hi)
        assert abs(k.integral - integral) <= 1e-13
    if plan.law.algebra.homogeneous_dimension > 2:
        k = riesz_kernel(plan, 2.0, source=source)
        nu, Q = plan.spec.nu, plan.law.algebra.homogeneous_dimension
        acc, _ = _per_node_kernel(source, ladder, ladder.weights * ladder.nodes ** (2.0 / nu - 1))
        acc += k.tail_constant * (nu / (Q - 2.0)) * ladder.t_hi ** ((2.0 - Q) / nu)
        want = np.delete(acc / math.gamma(2.0 / nu), plan.grid.origin_index)
        got = np.delete(k.values.values, plan.grid.origin_index)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _count_resamples(monkeypatch):
    """The dilation factors of every ``resample_dilated`` call the heat source makes from here on."""
    resampled = []
    resample = heatflow.resample_dilated
    monkeypatch.setattr(heatflow, "resample_dilated", lambda f, r, w: resampled.append(r) or resample(f, r, w))
    return resampled


def test_bessel_kernel_synthesizes_once(ab1_pot_plan, ab1_pot_source, ab3_pot_plan, monkeypatch):
    # all 45 direct-route nodes share one synthesis; a per-node loop made 45
    calls = []
    synthesize = ab1_pot_plan.synthesize
    monkeypatch.setattr(ab1_pot_plan, "synthesize", lambda c: calls.append(1) or synthesize(c))
    bessel_kernel(ab1_pot_plan, 2.0, source=ab1_pot_source)
    assert len(calls) <= 1
    # B_1, B_2, B_3 and I_2 in one pass: still one synthesis, and each of the
    # 45 continuation times resampled once (a pass per kernel made 4 x 45).
    # A fresh source: the session's one may already hold its resampled stack
    calls.clear()
    source = HeatKernelSource(ab3_pot_plan)
    synthesize3 = ab3_pot_plan.synthesize
    monkeypatch.setattr(ab3_pot_plan, "synthesize", lambda c: calls.append(1) or synthesize3(c))
    resampled = _count_resamples(monkeypatch)
    potential_kernels(ab3_pot_plan, bessel=(1.0, 2.0, 3.0), riesz=(2.0,), source=source)
    ladder = default_ladder(ab3_pot_plan.grid, ab3_pot_plan.spec.nu)
    assert len(calls) <= 1
    assert len(resampled) == len(set(resampled)) == int(np.sum(ladder.nodes > source.t_switch)) == 45
    # the source keeps its continued kernels: other exponents resample nothing
    resampled.clear()
    potential_kernels(ab3_pot_plan, bessel=(0.5,), riesz=(1.0, 2.5), source=source)
    assert resampled == []


@pytest.fixture(scope="module")
def h1_box_plan(h1_law):
    # the verify-heisenberg grid: every ladder node lies past the switch time
    spec = sublaplacian(h1_law.algebra)
    return spectral_plan(spec, h1_law, Grid.from_scale(h1_law.algebra.weights, 1.6, (15, 15, 31)))


@pytest.mark.parametrize("name", ["ab1", "h1_box"])
def test_ladder_rows_match_single_rows(name, request):
    # k coefficient rows in one ladder_sum equal k separate one-row calls
    if name == "ab1":
        plan, source = request.getfixturevalue("ab1_pot_plan"), request.getfixturevalue("ab1_pot_source")
    else:
        plan = request.getfixturevalue("h1_box_plan")
        source = HeatKernelSource(plan)
    ladder = default_ladder(plan.grid, plan.spec.nu)
    direct = int(np.sum(ladder.nodes <= source.t_switch))
    assert (direct, len(ladder.nodes) - direct) == {"ab1": (45, 15), "h1_box": (0, 60)}[name]
    t = ladder.nodes
    coefs = np.array([ladder.weights * t ** (s - 1.0) * np.exp(-t) for s in (0.5, 1.0, 1.5)])
    values, masses = source.ladder_sum(t, coefs)
    assert values.shape == (3, plan.grid.size) and masses.shape == (3,)
    for row, v, m in zip(coefs, values, masses):
        v1, m1 = source.ladder_sum(t, row)
        assert v1.shape == (plan.grid.size,) and isinstance(m1, float)
        assert np.max(np.abs(v - v1)) <= 1e-13 * np.max(np.abs(v1))
        assert m == pytest.approx(m1, rel=1e-13)


@pytest.mark.parametrize("name", ["ab1", "h1_box"])
def test_warm_source_matches_fresh_source(name, request, monkeypatch):
    # a source that has served other exponents reuses its stack of continued
    # kernels, resampling nothing, and gives a fresh source's kernels
    plan = request.getfixturevalue({"ab1": "ab1_pot_plan", "h1_box": "h1_box_plan"}[name])
    ladder = default_ladder(plan.grid, plan.spec.nu)
    warm = HeatKernelSource(plan)
    late = int(np.sum(ladder.nodes > warm.t_switch))
    assert (len(ladder.nodes) - late, late) == {"ab1": (45, 15), "h1_box": (0, 60)}[name]
    riesz = (2.0,) if plan.law.algebra.homogeneous_dimension > 2 else (0.5,)
    potential_kernels(plan, bessel=(3.0,), riesz=(1.5 * riesz[0],), source=warm)
    resampled = _count_resamples(monkeypatch)
    bessels, rieszes = potential_kernels(plan, bessel=(1.0, 2.0), riesz=riesz, source=warm)
    assert resampled == []
    fresh_b, fresh_r = potential_kernels(plan, bessel=(1.0, 2.0), riesz=riesz, source=HeatKernelSource(plan))
    assert len(resampled) == late
    for k, f in zip(bessels, fresh_b):
        assert np.max(np.abs(k.values.values - f.values.values)) <= 1e-13 * np.max(np.abs(f.values.values))
        assert abs(k.integral - f.integral) <= 1e-13
    for k, f in zip(rieszes, fresh_r):
        got, want = (np.delete(x.values.values, plan.grid.origin_index) for x in (k, f))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_ladder_with_other_times_rebuilds_the_stack(ab3_pot_plan, monkeypatch):
    # the source keeps one ladder's continued kernels: a ladder with other
    # late times resamples its own and still equals the per-node sum, and
    # the first ladder, asked again, is resampled again
    source = HeatKernelSource(ab3_pot_plan)
    first = default_ladder(ab3_pot_plan.grid, ab3_pot_plan.spec.nu)
    other = TLadder.geometric(first.t_lo, 50.0, n=30)
    resampled = _count_resamples(monkeypatch)
    for ladder in (first, other, first):
        late = int(np.sum(ladder.nodes > source.t_switch))
        coefs = np.array([ladder.weights * ladder.nodes ** (s - 1.0) * np.exp(-ladder.nodes) for s in (0.5, 1.5)])
        resampled.clear()
        values, masses = source.ladder_sum(ladder.nodes, coefs)
        assert len(resampled) == late > 0
        for row, v, m in zip(coefs, values, masses):
            want, mass = _per_node_kernel(source, ladder, row)
            assert np.max(np.abs(v - want)) <= 1e-13 * np.max(np.abs(want))
            assert m == pytest.approx(mass, rel=1e-13)


@pytest.mark.parametrize("a", [300.0, 344.0, 1e300])
def test_bessel_refuses_exponent_with_mass_past_the_ladder(ab1_pot_plan, a):
    # Q(a/nu, 50) is about 1 here: the integral once counted it as mass that
    # no grid value carries (a = 300 read 1.000000 with an empty kernel), and
    # Gamma(a/nu) overflowed from a/nu = 171.6 on (a = 344).  The refusal
    # comes before the ladder is summed
    class Untouched(HeatKernelSource):
        def ladder_sum(self, times, coefs):
            raise AssertionError("the ladder was summed")

    with pytest.raises(PotentialError, match=r"Q\(a/nu, t_hi\)"):
        bessel_kernel(ab1_pot_plan, a, source=Untouched(ab1_pot_plan))
    # the quadrature route by the same rule: once an OverflowError
    f = make_test_family(ab1_pot_plan.grid, n=1, seed=SEED).gridfunctions()[0]
    with pytest.raises(PotentialError, match=r"Q\(a/nu, t_hi\)"):
        bessel_apply_quadrature(ab1_pot_plan, a, f)
    # exponents whose tail is below the bound pass: Q(25, 50) = 3.5e-5
    assert abs(bessel_kernel(ab1_pot_plan, 50.0).integral - 1.0) < 1e-3


@pytest.mark.parametrize("name", ["ab1", "ab3"])
def test_shared_kernels_match_standalone(name, request):
    plan, source = request.getfixturevalue(f"{name}_pot_plan"), request.getfixturevalue(f"{name}_pot_source")
    riesz = (2.0,) if plan.law.algebra.homogeneous_dimension > 2 else (0.5,)
    bessels, rieszes = potential_kernels(plan, bessel=(1.0, 2.0, 3.0), riesz=riesz, source=source)
    assert [k.a for k in bessels] == [1.0, 2.0, 3.0] and [k.a for k in rieszes] == list(riesz)
    for k in bessels:
        alone = bessel_kernel(plan, k.a, source=source)
        assert np.max(np.abs(k.values.values - alone.values.values)) <= 1e-13 * np.max(alone.values.values)
        assert k.integral == pytest.approx(alone.integral, rel=1e-13)
        assert k.l1_estimate == pytest.approx(alone.l1_estimate, rel=1e-13)
    for k in rieszes:
        alone = riesz_kernel(plan, k.a, source=source)
        got, want = (np.delete(x.values.values, plan.grid.origin_index) for x in (k, alone))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert k.values.values[plan.grid.origin_index] == np.inf
        assert (k.tail_constant, k.exclusion_radius) == (alone.tail_constant, alone.exclusion_radius)
    # every exponent is checked before any work
    with pytest.raises(PotentialError, match="Riesz exponent"):
        potential_kernels(plan, bessel=(1.0,), riesz=(plan.law.algebra.homogeneous_dimension,))


def test_kernels_refuse_negative_spectrum(ab1_law):
    # X^2 = d^2/dx^2 is negative: its plan is refused where it is built, so no
    # kernel or fractional power ever meets a non-positive plan
    d = DEFAULTS["abelian1"].potential
    spec = RocklandSpec(expr=parse_diffop("X^2", ab1_law.algebra.labels), nu=2)
    with pytest.raises(HeatError, match="negative eigenvalue"):
        spectral_plan(spec, ab1_law, d.grid, margin=d.margin)


def test_bessel_rejects_bad_exponent(ab1_pot_plan):
    with pytest.raises(PotentialError):
        bessel_kernel(ab1_pot_plan, 0.0)
    with pytest.raises(PotentialError):
        bessel_kernel(ab1_pot_plan, -1.0)
    # the quadrature route too; a NaN exponent once gave zeros
    f = make_test_family(ab1_pot_plan.grid, n=1, seed=SEED).gridfunctions()[0]
    for a in (0.0, -1.0, np.nan):
        with pytest.raises(PotentialError, match="positive and finite"):
            bessel_apply_quadrature(ab1_pot_plan, a, f)


# ---------------------------------------------------------------------------
# Riesz kernels: 3-D Newtonian oracle and homogeneity


def test_riesz_newtonian_oracle(ab3_pot_plan, ab3_pot_source):
    # classical closed form in 3-space: I_2(x) = 1/(4 pi |x|)
    k = riesz_kernel(ab3_pot_plan, 2.0, source=ab3_pot_source)
    pts = ab3_pot_plan.grid.points()
    r = np.linalg.norm(pts, axis=1)
    sel = (r >= 0.3) & (r <= 1.0)
    exact = 1.0 / (4 * np.pi * np.where(r == 0, 1.0, r))
    rel = np.abs(k.values.values - exact)[sel] / exact[sel]
    assert rel.max() < 3e-2


def test_riesz_homogeneity(ab3_pot_plan, ab3_pot_source):
    k = riesz_kernel(ab3_pot_plan, 2.0, source=ab3_pot_source)
    pairs = dilation_pairs(ab3_pot_plan.grid, (1, 1, 1), 1, 2, ab3_pot_plan.mask)
    defect = riesz_homogeneity_defect(k, pairs, 3, r=2)
    assert defect < 2e-2


def test_riesz_range_validation(ab3_pot_plan):
    with pytest.raises(PotentialError):
        riesz_kernel(ab3_pot_plan, 3.0)  # a = Q
    with pytest.raises(PotentialError):
        riesz_kernel(ab3_pot_plan, 0.0)


def test_riesz_origin_sentinel(ab1_pot_plan, ab1_pot_source):
    k = riesz_kernel(ab1_pot_plan, 0.5, source=ab1_pot_source)
    assert not np.isfinite(k.values.values[ab1_pot_plan.grid.origin_index])
    assert k.exclusion_radius == pytest.approx(3.0 * max(ab1_pot_plan.grid.spacings))


# ---------------------------------------------------------------------------
# Fractional powers


def test_fractional_roundtrip(ab1_pot_plan):
    fam = make_test_family(ab1_pot_plan.grid, n=3, seed=SEED)
    for f in fam.gridfunctions():
        base = GridFunction(
            ab1_pot_plan.grid, np.where(ab1_pot_plan.mask, f.values, 0.0)
        )
        for s in (0.7, 1.5, 3.0):
            rt = fractional_apply(
                ab1_pot_plan, -s, fractional_apply(ab1_pot_plan, s, f)
            )
            assert lp_norm(rt - base, 2) / lp_norm(base, 2) < 1e-8


def test_fractional_additivity(ab1_pot_plan):
    f = make_test_family(ab1_pot_plan.grid, n=1, seed=SEED).gridfunctions()[0]
    ab = fractional_apply(ab1_pot_plan, 0.8, fractional_apply(ab1_pot_plan, 1.2, f))
    direct = fractional_apply(ab1_pot_plan, 2.0, f)
    assert lp_norm(ab - direct, 2) / lp_norm(direct, 2) < 1e-10


def _per_node_multipliers(mu, times, coefs):
    """sum_i c_{r,i} e^{-t_i mu} for each row r of coefs, one node at a time."""
    out = np.zeros((len(coefs), len(mu)))
    for i, t in enumerate(times):
        for r in range(len(coefs)):
            out[r] += coefs[r][i] * np.exp(-t * mu)
    return out


def _block_rows(n):
    return max(1, heatflow.LADDER_BLOCK_BYTES // (8 * n))


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("count", ["1", "rows-1", "rows", "rows+1", "600"])
def test_ladder_multipliers_match_per_node_loop(k, count):
    # the blocked passes equal the per-node sum across block boundaries, for
    # one and several coefficient rows, with exponents far below -745
    mu = np.concatenate(([0.0], np.geomspace(1e-3, 1e5, 299)))
    rows = _block_rows(len(mu))
    m = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1, "600": 600}[count]
    times = np.geomspace(1e-8, 50.0, m) if m > 1 else np.array([50.0])
    coefs = np.random.default_rng(m).uniform(0.1, 1.0, (k, m))
    assert np.min(-times[-1] * mu) < -745
    got = heatflow._ladder_multipliers(mu, times, coefs)
    want = _per_node_multipliers(mu, times, coefs)
    assert got.shape == (k, len(mu))
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))
    if k == 1:
        assert np.array_equal(heatflow._ladder_multipliers(mu, times, coefs[0]), got)


def test_ladder_quadratures_exponentiate_per_block(ab1_pot_plan, ab1_pot_source, ab3_pot_plan, monkeypatch):
    # the quadrature route and the ladder's direct nodes exponentiate a block
    # of ladder rows at a time; a per-node loop made one np.exp per node
    f = make_test_family(ab3_pot_plan.grid, n=1, seed=SEED).gridfunctions()[0]
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda *a, **kw: calls.append(1) or exp(*a, **kw))
    bessel_apply_quadrature(ab3_pot_plan, 2.0, f)
    rows = _block_rows(ab3_pot_plan.lam_plus.size)
    assert rows < 600
    assert 1 < len(calls) <= math.ceil(600 / rows) + 1
    ladder = default_ladder(ab1_pot_plan.grid, ab1_pot_plan.spec.nu)
    direct = int(np.sum(ladder.nodes <= ab1_pot_source.t_switch))
    assert direct == 45
    calls.clear()
    ab1_pot_source.ladder_sum(ladder.nodes, ladder.weights)
    assert 0 < len(calls) <= math.ceil(direct / _block_rows(ab1_pot_plan.lam_plus.size))


def test_quadrature_memory_is_one_block(ab3_pot_plan):
    # the 600 x n exponents (44 MB here) are never formed: one call peaks at
    # the block budget plus a few n-vectors
    import tracemalloc

    f = make_test_family(ab3_pot_plan.grid, n=1, seed=SEED).gridfunctions()[0]
    n = ab3_pot_plan.lam_plus.size
    bessel_apply_quadrature(ab3_pot_plan, 2.0, f)
    bound = heatflow.LADDER_BLOCK_BYTES + 6 * 8 * n
    assert 600 * 8 * n > 6 * 2**20 and bound < 600 * 8 * n / 20
    tracemalloc.start()
    try:
        bessel_apply_quadrature(ab3_pot_plan, 2.0, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_quadrature_matches_spectral(ab1_pot_plan):
    # Gamma-integral representation of (I+R)^{-a/nu} against the multiplier
    f = make_test_family(ab1_pot_plan.grid, n=1, seed=SEED).gridfunctions()[0]
    for a in (1.0, 2.0):
        gap = bessel_apply_quadrature(ab1_pot_plan, a, f) - fractional_apply(
            ab1_pot_plan, -a, f
        )
        assert lp_norm(gap, 2) / lp_norm(f, 2) < 1e-3


def test_homogeneous_negative_power_riesz_consistency(ab3_pot_plan, ab3_pot_source):
    # applying R^{-1} to a mask-supported bump equals convolution with I_2
    # only in the continuum; here cross-check the multiplier route against
    # the Balakrishnan-style time integral of the heat flow
    from gradecalc.heatflow import heat_apply

    f = make_test_family(ab3_pot_plan.grid, n=1, seed=SEED).gridfunctions()[0]
    target = fractional_apply(ab3_pot_plan, -2.0, f, homogeneous=True)
    lam = ab3_pot_plan.lam_plus
    lad = TLadder.geometric(1e-5, 30.0, n=300)
    g = np.zeros_like(lam)
    for t, w in zip(lad.nodes, lad.weights):
        g += w * np.exp(-t * lam)
    quad = GridFunction(ab3_pot_plan.grid, ab3_pot_plan.apply_multiplier(g, f.values))
    assert lp_norm(quad - target, 2) / lp_norm(target, 2) < 1e-3
