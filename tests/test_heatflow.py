"""Heat semigroup: plans, kernels, identity checks, oracles."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse as sparse

from gradecalc.defaults import DEFAULTS
from gradecalc.geometry import Grid, GridFunction, default_nu0, haar_integrate, lp_norm
from gradecalc.heatflow import (
    MAX_DENSE_BLOCK,
    CentralFourierPlan,
    HeatError,
    HeatKernelSource,
    KroneckerPlan,
    SpectralPlan,
    check_mass,
    check_self_similarity,
    check_semigroup,
    check_symmetry,
    dilated_plan,
    heat_apply,
    heat_kernel,
    sign_flip_group,
    spectral_plan,
)
from gradecalc.algebra import bch_group_law, builtin_group
from gradecalc.calculus import (
    RocklandSpec,
    build_rockland_example,
    homogeneous_degree,
    parse_diffop,
    power,
    sublaplacian,
)
from gradecalc.potentials import fractional_apply
from gradecalc.sobolev import make_test_family
from gradecalc.suite import RunConfig

SEED = 0xC0FFEE


# ---------------------------------------------------------------------------
# Oracles


def test_gaussian_oracle_1d(ab1_pot_plan):
    # independent closed form: h_t(x) = exp(-x^2/4t)/sqrt(4 pi t)
    g = ab1_pot_plan.grid
    x = g.points()[:, 0]
    for t in (0.1, 0.2, 0.5):
        h = heat_kernel(ab1_pot_plan, t).values
        exact = np.exp(-(x**2) / (4 * t)) / np.sqrt(4 * np.pi * t)
        err = np.max(np.abs(h - exact)[ab1_pot_plan.mask]) / exact.max()
        assert err < 1e-2, f"t={t}: {err}"


def test_gaussian_oracle_3d(ab3_pot_plan):
    # resolved times: the kernel is a few cells wide yet well inside the box
    g = ab3_pot_plan.grid
    pts = g.points()
    r2 = np.sum(pts**2, axis=1)
    for t in (0.06, 0.07):
        h = heat_kernel(ab3_pot_plan, t).values
        exact = np.exp(-r2 / (4 * t)) / (4 * np.pi * t) ** 1.5
        err = np.max(np.abs(h - exact)[ab3_pot_plan.mask]) / exact.max()
        assert err < 1e-2, f"t={t}: {err}"


@pytest.mark.parametrize("name, bound", [("ab1", 1e-3), ("ab3", 1e-2)])
def test_default_heat_plan_matches_gaussian(name, bound, request):
    # the default heat plans against (4 pi t)^{-n/2} exp(-|x|^2/4t), relative
    # L1 on the mask; composed first-derivative stencils with a dissipation
    # term were off by 0.33 (abelian1) and 0.80 (abelian3) at t = 0.1
    plan = request.getfixturevalue(f"{name}_heat_plan")
    r2 = np.sum(plan.grid.points() ** 2, axis=1)[plan.mask]
    for t in (0.1, 0.2):
        h = heat_kernel(plan, t).values[plan.mask]
        exact = np.exp(-r2 / (4 * t)) / (4 * np.pi * t) ** (plan.grid.ndim / 2)
        err = np.sum(np.abs(h - exact)) / np.sum(exact)
        assert err < bound, f"t={t}: {err}"


def _mehler(t, pts, lam_max=80.0, n_lam=3000):
    """Independent oscillatory-integral formula for the stratified kernel

    on weights (1,1,2): h_t(x,y,u) =
    (1/pi) * int_0^inf cos(lam u) * lam/(4 pi sinh(lam t))
                      * exp(-(lam/4) coth(lam t) (x^2+y^2)) dlam.
    """
    lam = np.linspace(1e-6, lam_max, n_lam)
    A = lam / (4 * np.pi * np.sinh(lam * t))
    cth = lam / np.tanh(lam * t)
    out = np.empty(len(pts))
    for i in range(0, len(pts), 500):
        P = pts[i : i + 500]
        rho2 = P[:, 0] ** 2 + P[:, 1] ** 2
        integ = (
            np.cos(np.outer(P[:, 2], lam))
            * A[None, :]
            * np.exp(-0.25 * np.outer(rho2, cth))
        )
        out[i : i + 500] = np.trapezoid(integ, lam, axis=1) / np.pi
    return out


def test_mehler_oracle_heisenberg(h1_heat_plan):
    t = 0.15
    g = h1_heat_plan.grid
    pts = g.points()
    h = heat_kernel(h1_heat_plan, t).values
    sub = h1_heat_plan.mask & (np.arange(g.size) % 3 == 0)  # thin out for speed
    ref = _mehler(t, pts[sub])
    assert np.max(np.abs(h[sub] - ref)) / ref.max() < 5e-2


# ---------------------------------------------------------------------------
# Identity checks


def test_mass_conservation_1d(ab1_heat_plan):
    times = DEFAULTS["abelian1"].times
    assert max(check_mass(heat_kernel(ab1_heat_plan, t)) for t in times.mass_times) < 1e-3


def test_symmetry_1d(ab1_heat_plan):
    assert check_symmetry(heat_kernel(ab1_heat_plan, 0.15)) < 1e-3


def test_semigroup_1d(ab1_heat_plan, ab1_law, monkeypatch):
    # the pairs share h_0.1 and h_0.2: each of the three times is built once
    import gradecalc.heatflow as heatflow

    build, times = heatflow.heat_kernel, []
    monkeypatch.setattr(heatflow, "heat_kernel", lambda plan, t: times.append(t) or build(plan, t))
    defect = check_semigroup(ab1_heat_plan, ab1_law, [(0.1, 0.1), (0.1, 0.2)])
    assert sorted(times) == [0.1, 0.2, pytest.approx(0.3)]
    assert defect < 1e-2


def test_semigroup_requires_pairs(ab1_heat_plan, ab1_law):
    with pytest.raises(HeatError):
        check_semigroup(ab1_heat_plan, ab1_law, [])


def test_self_similarity_1d(ab1_heat_plan, ab1_law):
    t1, t2 = 0.1, 0.2
    r = (t2 / t1) ** 0.5
    spec = sublaplacian(ab1_law.algebra)
    grid2 = ab1_heat_plan.grid.dilated(r, (1,))
    plan2 = spectral_plan(spec, ab1_law, grid2, margin=4)
    assert check_self_similarity(ab1_heat_plan, plan2, t1, t2) < 2e-2


def test_self_similarity_grid_mismatch(ab1_heat_plan):
    with pytest.raises(HeatError):
        check_self_similarity(ab1_heat_plan, ab1_heat_plan, 0.1, 0.2)


def test_vanishing_kernel_fails_checks(ab1_heat_plan):
    # eigenvalues so large that e^{-t lambda} underflows give an all-zero
    # kernel (as a degree-240 operator on a coarse grid does): a numerical
    # finding that must read as a failed check, not a division by zero
    plan = dataclasses.replace(ab1_heat_plan, eigenvalues=np.full_like(ab1_heat_plan.eigenvalues, 1e6))
    t1, t2 = 0.1, 0.2
    scaled = dilated_plan(plan, (t2 / t1) ** 0.5)
    assert not heat_kernel(plan, t1).values.any()
    assert check_self_similarity(plan, scaled, t1, t2) == np.inf
    assert check_symmetry(heat_kernel(plan, t1)) == np.inf


def test_exact_discrete_symmetries_heisenberg(h1_heat_plan):
    # rotation by pi (negate x, y) and the swap (x <-> y, u -> -u) are exact
    # symmetries of the discretized operator
    g = h1_heat_plan.grid
    h = heat_kernel(h1_heat_plan, 0.15).reshape()
    rot = h[::-1, ::-1, :]
    swap = np.swapaxes(h, 0, 1)[:, :, ::-1]
    assert np.max(np.abs(h - rot)) / h.max() < 1e-12
    assert np.max(np.abs(h - swap)) / h.max() < 1e-12


# ---------------------------------------------------------------------------
# Plan mechanics


def test_long_words_assemble_positive(h1_pot_plan_L2):
    # (X^2+Y^2)^2 is assembled as the product of its letter pairs; from the
    # normal form of whole words of length 4 its spectrum reached -1306
    assert h1_pot_plan_L2.health()["negative"] == 0



def test_heat_apply_time_zero(ab1_heat_plan):
    g = ab1_heat_plan.grid
    f = GridFunction(g, np.where(ab1_heat_plan.mask, np.sin(g.points()[:, 0]), 0.0))
    out = heat_apply(ab1_heat_plan, f, 0.0)
    assert np.allclose(out.values, f.values, atol=1e-10)
    with pytest.raises(HeatError):
        heat_apply(ab1_heat_plan, f, -0.1)
    with pytest.raises(HeatError):
        heat_kernel(ab1_heat_plan, -1.0)


def test_degree_has_one_owner(h1_law, h1t_law):
    # the constructors decide nu, and it is the operator's weighted degree
    alg, alg358 = h1_law.algebra, h1t_law.algebra
    specs = [
        (sublaplacian(alg), alg),
        (build_rockland_example(alg358, 120), alg358),
        (power(sublaplacian(alg), 2), alg),
        (RunConfig(op="X^4+Y^4-T^2").operator(alg), alg),
    ]
    assert [spec.nu for spec, _ in specs] == [2, 240, 4, 4]
    for spec, a in specs:
        assert spec.nu == homogeneous_degree(spec.expr, a.weights)
    # an inhomogeneous operator, here I + L, has no degree: no continuation,
    # no rescaling (X^2+T would not do: T has weight 2)
    spec = RunConfig(op="-X^2-Y^2+1").operator(alg)
    assert spec.nu is None and homogeneous_degree(spec.expr, alg.weights) is None
    plan = spectral_plan(spec, h1_law, Grid((1.5, 1.5, 1.2), (11, 11, 13)))
    assert HeatKernelSource(plan).t_switch == np.inf
    with pytest.raises(HeatError):
        dilated_plan(plan, 1.5)
    with pytest.raises(HeatError):
        check_self_similarity(plan, plan, 0.1, 0.2)


def test_plan_eigenbasis_orthonormal(ab1_heat_plan):
    V = ab1_heat_plan.eigenvectors
    assert np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10)
    assert ab1_heat_plan.sym_defect < 1e-10


def test_dilated_plan_matches_fresh_solve(
    ab1_heat_plan, ab3_law, h1_law, h1_heat_plan, h1_heat_plan_scaled
):
    # verify rescales its heat plan for heat.selfsim instead of solving on the
    # dilated grid; this is the check that the two agree, on Kronecker plans
    # (abelian1 defaults, a small abelian3 box), a dense plan on a heisenberg
    # box grid and the default heisenberg central-Fourier plan at r = sqrt 2
    ab3_plan = spectral_plan(sublaplacian(ab3_law.algebra), ab3_law, Grid((2.0, 2.5, 1.5), (13, 15, 11)))
    h1_plan = spectral_plan(sublaplacian(h1_law.algebra), h1_law, Grid((1.5, 1.5, 1.2), (13, 13, 21)))
    t1, t2 = DEFAULTS["heisenberg"].times.selfsim_times
    cases = (
        (KroneckerPlan, ab1_heat_plan, 1.7, None),
        (KroneckerPlan, ab3_plan, 1.3, None),
        (SpectralPlan, h1_plan, 1.3, None),
        (CentralFourierPlan, h1_heat_plan, (t2 / t1) ** 0.5, h1_heat_plan_scaled),
    )
    for kind, plan, rho, fresh in cases:
        law = plan.law
        if fresh is None:
            fresh = spectral_plan(plan.spec, law, plan.grid.dilated(rho, law.algebra.weights), margin=4)
        # fill the base plan's caches first: the dilated plan must build its own
        heat_kernel(plan, 0.3)
        cheap = dilated_plan(plan, rho)
        assert type(cheap) is type(fresh) is kind and cheap.eigenvectors is plan.eigenvectors
        assert cheap.lam_plus is not plan.lam_plus
        h1 = heat_kernel(cheap, 0.3).values
        h2 = heat_kernel(fresh, 0.3).values
        assert np.max(np.abs(h1 - h2)) / np.max(np.abs(h2)) < 1e-10


@pytest.mark.parametrize("name", ["ab3_pot", "h1_pot", "h1_heat"])
def test_delta_mass_matches_grid_sum(name, request):
    # one route: the coefficient mass of g(R) delta equals the grid sum of its
    # synthesis, on a Kronecker, a reflection-blocked and a central-Fourier plan
    plan = request.getfixturevalue(f"{name}_plan")
    assert type(plan) is {"ab3_pot": KroneckerPlan, "h1_pot": SpectralPlan, "h1_heat": CentralFourierPlan}[name]
    lam = plan.lam_plus
    for g in (np.exp(-0.05 * lam), (1.0 + lam) ** (-2.0 / plan.spec.nu)):
        assert abs(plan.delta_mass(g) - float(haar_integrate(plan.delta_kernel(g)))) <= 1e-13
    # the cached spectral data is shared, so it is read-only
    for arr in (lam, plan.delta_coefficients, plan.unit_coefficients):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_switch_times_on_potential_fixtures(ab1_pot_source, ab3_pot_source, h1_pot_plan):
    # the switch scan reads masses off the coefficients; it picks the same
    # node of its time grid as a scan of full grid syntheses did
    h1_source = HeatKernelSource(h1_pot_plan)
    for src, t_switch in (
        (ab1_pot_source, 2.079397058211926),
        (ab3_pot_source, 0.029829011093937204),
        (h1_source, 0.09250924592278204),
    ):
        assert src.t_switch == t_switch
        ref = float(haar_integrate(src(src.t_switch)))
        assert abs(src.mass_at_switch - ref) <= 1e-14 and abs(ref - 1.0) <= src.MASS_TOL


def test_source_continuation(ab1_pot_plan, ab1_pot_source):
    src = ab1_pot_source
    assert np.isfinite(src.t_switch)
    # just past the switch the box still holds the kernel, so the dilation
    # identity keeps the box mass (far beyond it the support outgrows the box)
    h_late = src(1.2 * src.t_switch)
    assert abs(float(haar_integrate(h_late)) - src.mass_at_switch) < 5e-3
    # continued values match the 1-D closed form
    x = ab1_pot_plan.grid.points()[:, 0]
    t = 2.5 * src.t_switch
    exact = np.exp(-(x**2) / (4 * t)) / np.sqrt(4 * np.pi * t)
    assert np.max(np.abs(src(t).values - exact)) / exact.max() < 1e-2
    with pytest.raises(HeatError):
        src(0.0)


def test_value_at_origin_late(ab1_pot_source):
    # t^{Q/nu} h_t(0) -> (4 pi)^{-1/2} for the 1-D closed form
    c = ab1_pot_source.value_at_origin_late()
    assert c == pytest.approx((4 * np.pi) ** -0.5, rel=1e-2)


# ---------------------------------------------------------------------------
# Central-Fourier plans on grids periodic in the central coordinate


def _small_periodic_grid():
    return Grid((2.0, 2.0, 0.5 * 8 / 9), (17, 17, 9), periodic=(2,))


def test_central_fourier_plan_mechanics(h1_law):
    spec = sublaplacian(h1_law.algebra)
    plan = spectral_plan(spec, h1_law, _small_periodic_grid())
    assert isinstance(plan, CentralFourierPlan)
    assert plan.eigenvectors.shape == (9, 81, 81)
    assert plan.eigenvalues.shape == (9 * 81,) and plan.mask.sum() == 9 * 81
    assert plan.sym_defect < 1e-12
    # analyze and synthesize are inverse on the interior: the basis is orthonormal
    v = np.random.default_rng(SEED).standard_normal(plan.grid.size) * plan.mask
    assert np.allclose(plan.synthesize(plan.analyze(v)), v, atol=1e-10)
    # the delta's coefficients in closed form: the DFT of its periodic line
    # is 1/sqrt(M) at every frequency, so block k holds the conjugated centre
    # row of V_k over sqrt(M) dV
    V, M = plan.eigenvectors, plan.grid.counts[2]
    closed = V[:, V.shape[1] // 2, :].conj() / (np.sqrt(M) * plan.grid.cell_volume)
    assert np.allclose(plan.delta_coefficients, closed.ravel(), atol=1e-10)
    # exact rescaling still holds on the dilated periodic grid
    rho = 1.3
    fresh = spectral_plan(spec, h1_law, plan.grid.dilated(rho, h1_law.algebra.weights))
    h1 = heat_kernel(dilated_plan(plan, rho), 0.2).values
    h2 = heat_kernel(fresh, 0.2).values
    assert np.max(np.abs(h1 - h2)) / np.max(np.abs(h2)) < 1e-10
    # a dilation would change the period, so late times take the direct route
    src = HeatKernelSource(plan)
    assert src.t_switch == np.inf
    assert np.array_equal(src(5.0).values, heat_kernel(plan, 5.0).values)


def test_central_fourier_plan_refusals(h1_law):
    spec = sublaplacian(h1_law.algebra)
    grid = _small_periodic_grid()
    with pytest.raises(HeatError, match="length"):
        spectral_plan(power(spec, 2), h1_law, grid)
    with pytest.raises(HeatError, match="dissipation"):
        spectral_plan(spec, h1_law, grid, reg_strength=0.05)
    # periodic in x: the field Y = d/dy + (x/2) d/du involves x
    grid_x = Grid((2.0, 2.0, 0.5), (9, 17, 17), periodic=(0,))
    with pytest.raises(HeatError, match="periodic coordinate"):
        spectral_plan(spec, h1_law, grid_x)


def test_dense_block_bound(ab1_law):
    # refused before the dense matrix is assembled
    grid = Grid((8.0,), (2 * MAX_DENSE_BLOCK + 1,))
    with pytest.raises(HeatError, match="exceeds"):
        spectral_plan(sublaplacian(ab1_law.algebra), ab1_law, grid)


@pytest.mark.parametrize("periodic", [(), (2,)], ids=["box", "periodic-u"])
def test_narrow_interior_is_refused(h1_law, periodic):
    # a margin of 4 on 9 points leaves 1 node along x and y, where no
    # difference fits; 11 points leave 3, the narrowest interior a plan takes
    spec = sublaplacian(h1_law.algebra)
    with pytest.raises(HeatError, match="1 interior node along axis 1"):
        spectral_plan(spec, h1_law, Grid((2.0, 2.0, 0.5), (9, 9, 9), periodic))
    plan = spectral_plan(spec, h1_law, Grid((2.0, 2.0, 0.5), (11, 11, 11), periodic))
    assert plan.mask.sum() == 3 * 3 * (11 if periodic else 3)


def test_dense_block_bound_heisenberg(h1_law):
    # no Kronecker structure: the whole 23^3 interior would be one dense block
    grid = Grid((2.0, 2.0, 2.0), (31, 31, 31))
    with pytest.raises(HeatError, match="exceeds"):
        spectral_plan(sublaplacian(h1_law.algebra), h1_law, grid)


# ---------------------------------------------------------------------------
# Kronecker plans on abelian groups


# anisotropic counts and spacings, a margin per axis
_KRON_CASES = {
    "abelian3": (Grid((2.0, 2.5, 1.5), (13, 15, 11)), (4, 3, 4)),
    "abelian2": (Grid((3.0, 2.0), (21, 17)), (4, 3)),
}


@pytest.mark.parametrize("name", sorted(_KRON_CASES) + ["abelian2-X^4+Y^4+1"])
def test_kronecker_plan_matches_dense(name, monkeypatch):
    import gradecalc.heatflow as heatflow

    group, _, op = name.partition("-")
    law = bch_group_law(builtin_group(group))
    spec = sublaplacian(law.algebra)
    if op:
        # the identity word sits on every axis's diagonal at once, which the
        # factors must share out exactly
        expr = parse_diffop(op, law.algebra.labels)
        assert () in expr.terms
        spec = RocklandSpec(expr=expr, nu=homogeneous_degree(expr, law.algebra.weights))
    grid, margin = _KRON_CASES[group]
    kron = spectral_plan(spec, law, grid, margin=margin, reg_strength=0.3)
    # with no axis known to shift by whole nodes the plan is one dense solve
    monkeypatch.setattr(heatflow, "node_shift_axes", lambda law: ())
    dense = spectral_plan(spec, law, grid, margin=margin, reg_strength=0.3)
    assert isinstance(kron, KroneckerPlan) and not isinstance(dense, KroneckerPlan)
    lam_max = dense.eigenvalues.max()
    assert np.max(np.abs(np.sort(kron.eigenvalues) - np.sort(dense.eigenvalues))) < 1e-12 * lam_max

    def close(a, b):
        return np.max(np.abs(a.values - b.values)) < 1e-10 * np.max(np.abs(b.values))

    for t in (0.01, 0.1, 0.5):
        assert close(heat_kernel(kron, t), heat_kernel(dense, t))
    if spec.nu is None:  # fractional powers need a degree
        return
    f = make_test_family(grid, n=1, seed=SEED).gridfunctions()[0]
    for s, hom in ((1.5, False), (-1.0, False), (-2.0, True)):
        assert close(
            fractional_apply(kron, s, f, homogeneous=hom),
            fractional_apply(dense, s, f, homogeneous=hom),
        )


def test_kronecker_plan_mechanics():
    law = bch_group_law(builtin_group("abelian3"))
    spec = sublaplacian(law.algebra)
    grid, margin = _KRON_CASES["abelian3"]
    plan = spectral_plan(spec, law, grid, margin=margin, reg_strength=0.3)
    n = int(plan.mask.sum())
    assert plan.block_sizes == (5, 9, 3) and n == 5 * 9 * 3
    # plain arrays, as for every plan; the factor bases sit on the diagonal
    for arr in (plan.eigenvalues, plan.eigenvectors, plan.mask):
        assert type(arr) is np.ndarray
    V = plan.eigenvectors
    assert plan.eigenvalues.shape == (n,) and V.shape == (17, 17)
    assert np.allclose(V.T @ V, np.eye(17), atol=1e-10)
    # analyze and synthesize are inverse on the interior
    v = np.random.default_rng(SEED).standard_normal(grid.size) * plan.mask
    assert np.allclose(plan.synthesize(plan.analyze(v)), v, atol=1e-10)
    # the delta's coefficients in closed form: the origin is the centre of the
    # interior box, so they are the outer product of the factors' centre rows
    ends = np.cumsum(plan.block_sizes)
    rows = [V[e - n + (n - 1) // 2, e - n : e] for n, e in zip(plan.block_sizes, ends)]
    closed = functools.reduce(np.multiply.outer, rows).ravel() / grid.cell_volume
    assert np.allclose(plan.delta_coefficients, closed, atol=1e-10)
    # exact rescaling against a fresh solve on the dilated grid
    rho = 1.3
    fresh = spectral_plan(
        spec, law, grid.dilated(rho, law.algebra.weights), margin=margin, reg_strength=0.3
    )
    cheap = dilated_plan(plan, rho)
    assert isinstance(cheap, KroneckerPlan)
    h1 = heat_kernel(cheap, 0.2).values
    h2 = heat_kernel(fresh, 0.2).values
    assert np.max(np.abs(h1 - h2)) / np.max(np.abs(h2)) < 1e-10


def test_mixed_word_takes_dense_plan():
    # XY is not a power of one letter, so the operator is no Kronecker sum;
    # its symbol xi^2 + eta^2 + xi eta is positive
    law = bch_group_law(builtin_group("abelian2"))
    grid, margin = _KRON_CASES["abelian2"]
    mixed = RocklandSpec(expr=parse_diffop("-X^2-Y^2-1/2*X*Y-1/2*Y*X", law.algebra.labels), nu=2)
    for reg_strength in (0.0, 0.3):
        plan = spectral_plan(mixed, law, grid, margin=margin, reg_strength=reg_strength)
        assert type(plan) is SpectralPlan
    # X^2+Y^2+XY+YX = (X+Y)^2 is negative: refused
    expr = parse_diffop("X^2+Y^2+X*Y+Y*X", law.algebra.labels)
    with pytest.raises(HeatError, match="negative eigenvalue"):
        spectral_plan(RocklandSpec(expr=expr, nu=2), law, grid, margin=margin, reg_strength=0.3)
    single = parse_diffop("-X^2-Y^2", law.algebra.labels)
    spec2 = RocklandSpec(expr=single, nu=2)
    assert isinstance(spectral_plan(spec2, law, grid, margin=margin), KroneckerPlan)


# ---------------------------------------------------------------------------
# Reflection-blocked plans on box grids


@pytest.mark.parametrize("op", ["sublaplacian", "X^4+Y^4-T^2"])
def test_reflection_plan_matches_dense(op, h1_law, monkeypatch):
    import gradecalc.heatflow as heatflow

    law = h1_law
    spec = sublaplacian(law.algebra)
    if op != "sublaplacian":
        expr = parse_diffop(op, law.algebra.labels)
        spec = RocklandSpec(expr=expr, nu=4)
    grid = Grid((1.5, 1.5, 1.2), (15, 15, 21))
    plan = spectral_plan(spec, law, grid, reg_strength=0.3)
    # with no flip but the identity the plan is one dense block
    monkeypatch.setattr(heatflow, "sign_flip_group", lambda alg, expr: np.ones((1, alg.n), int))
    dense = spectral_plan(spec, law, grid, reg_strength=0.3)
    n = int(plan.mask.sum())
    eye = sparse.identity(n, format="csc")
    assert type(plan) is type(dense) is SpectralPlan
    assert len(plan.block_sizes) == 4 and sum(plan.block_sizes) == n
    assert dense.block_sizes == (n,)
    assert (dense.basis != eye).nnz == 0
    assert plan.reflection_defect < 1e-12 and dense.reflection_defect == 0.0
    # the orbit basis is orthonormal, with at most 4 nonzeros per column
    B = plan.basis
    assert abs(B.T @ B - eye).max() < 1e-14
    assert np.diff(B.tocsc().indptr).max() <= 4
    # one packed ndarray; eigenvalues ascending within each block, one per interior node
    assert type(plan.eigenvectors) is np.ndarray
    assert plan.eigenvectors.size == sum(b * b for b in plan.block_sizes)
    assert plan.eigenvalues.shape == (n,)
    for s, _ in plan._blocks():
        assert np.all(np.diff(plan.eigenvalues[s]) >= 0)
    lam_max = dense.eigenvalues.max()
    assert np.max(np.abs(np.sort(plan.eigenvalues) - dense.eigenvalues)) < 1e-12 * lam_max
    v = np.random.default_rng(SEED).standard_normal(grid.size) * plan.mask
    assert np.allclose(plan.synthesize(plan.analyze(v)), v, atol=1e-10)

    def close(a, b):
        return np.max(np.abs(a.values - b.values)) < 1e-10 * np.max(np.abs(b.values))

    for t in (0.01, 0.1, 0.5):
        assert close(heat_kernel(plan, t), heat_kernel(dense, t))
    f = make_test_family(grid, n=1, seed=SEED).gridfunctions()[0]
    for s, hom in ((1.5, False), (-1.0, False), (-2.0, True)):
        assert close(
            fractional_apply(plan, s, f, homogeneous=hom),
            fractional_apply(dense, s, f, homogeneous=hom),
        )


def test_sign_flip_group(h1_law, h1t_law):
    alg = h1_law.algebra
    flips = sign_flip_group(alg, sublaplacian(alg).expr)
    # (x, y, u) -> (a x, b y, ab u), the identity first
    assert flips.tolist() == [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    # heisenberg358's default operator: the same four flips
    alg358 = h1t_law.algebra
    spec358 = build_rockland_example(alg358, default_nu0(alg358.weights))
    assert len(sign_flip_group(alg358, spec358.expr)) == 4
    # an odd word in T keeps u, so a = b
    odd = sign_flip_group(alg, parse_diffop("X^2+Y^2+T", alg.labels))
    assert odd.tolist() == [[1, 1, 1], [-1, -1, 1]]


def test_reflection_plan_refuses_a_non_symmetry(h1_law, monkeypatch):
    import gradecalc.heatflow as heatflow

    # x -> -x with y and u fixed is no automorphism of the Heisenberg law
    fake = np.array([[1, 1, 1], [-1, 1, 1]])
    monkeypatch.setattr(heatflow, "sign_flip_group", lambda alg, expr: fake)
    with pytest.raises(HeatError, match="commute"):
        spectral_plan(sublaplacian(h1_law.algebra), h1_law, Grid((1.5, 1.5, 1.2), (11, 11, 13)))
