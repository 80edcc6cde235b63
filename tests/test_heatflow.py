"""Heat semigroup: plans, kernels, identity checks, oracles."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest

from gradecalc.defaults import DEFAULTS
from gradecalc.geometry import (
    GeometryError,
    Grid,
    GridFunction,
    default_nu0,
    haar_integrate,
    lp_norm,
    resample_dilated,
)
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
    heat_multiplier,
    quarter_turn,
    sign_flip_group,
    spectral_plan,
)
from gradecalc.algebra import bch_group_law, builtin_group
from gradecalc.calculus import (
    FieldMatrices,
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


def test_one_transform_for_every_plan():
    # the structured plans fill SpectralPlan's steps (axis bases, order,
    # blocks) and add no transform or field of their own
    subclasses = SpectralPlan.__subclasses__()
    assert {CentralFourierPlan, KroneckerPlan} <= set(subclasses)
    for cls in subclasses:
        assert not {"analyze", "synthesize"} & set(vars(cls)), cls.__name__
        assert dataclasses.fields(cls) == dataclasses.fields(SpectralPlan)


def test_plan_eigenbasis_orthonormal(ab1_heat_plan, h1_pot_plan, h1_heat_plan):
    # every basis a plan holds, axis bases and stored matrices, is orthonormal
    # (unitary on the complex central-Fourier axes), on all three plan kinds:
    # a Kronecker plan's factor bases are its axis bases and it stores no
    # matrix; a reflection plan has parity bases and stores the quarter
    # turn's pieces (one matrix for the two blocks it swaps); a
    # central-Fourier plan has the DFT on u, the parity bases on x and y
    # (i times the odd ones on y) and stores four pieces per frequency up to
    # the conjugate pairs
    cases = (
        (ab1_heat_plan, KroneckerPlan, 1, 0),
        (h1_pot_plan, SpectralPlan, 3, 5),
        (h1_heat_plan, CentralFourierPlan, 3, 4 * 16),
    )
    for plan, kind, n_axis, n_blocks in cases:
        assert type(plan) is kind
        axis_bases = [Q for Q in plan.axis_bases if Q is not None]
        blocks = plan._blocks()
        assert len(axis_bases) == n_axis and len(blocks) == n_blocks
        if blocks:
            assert plan.block_sizes == plan.solves == tuple(len(V) for V in blocks)
        for B in axis_bases + blocks:
            assert np.abs(B.conj().T @ B - np.eye(len(B))).max() < 1e-10
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
        assert cheap.axis_bases is plan.axis_bases and cheap.order is plan.order
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


@pytest.mark.parametrize("t", [np.nan, np.inf, 0.0, -1.0])
def test_source_refuses_non_finite_times(ab1_pot_source, t):
    # NaN once reached resample_dilated and ended in a bare IndexError, inf
    # in a GeometryError about the dilation parameter
    with pytest.raises(HeatError, match="time must be positive and finite"):
        ab1_pot_source(t)
    with pytest.raises(HeatError, match="time must be positive and finite"):
        ab1_pot_source.ladder_sum([t, 0.1], [1.0, 1.0])


@pytest.mark.parametrize("r", [np.nan, np.inf, 0.0])
def test_resample_dilated_refuses_non_finite_factor(ab1_pot_source, r):
    with pytest.raises(GeometryError, match="positive and finite"):
        resample_dilated(ab1_pot_source(1.0), r, (1,))


def test_heat_at_huge_time_is_zero_without_warning(ab1_heat_plan):
    # -t lambda overflows to -inf, and e^{-inf} = 0: no RuntimeWarning
    f = make_test_family(ab1_heat_plan.grid, n=1, seed=SEED).gridfunctions()[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = heat_kernel(ab1_heat_plan, 1e308)
        g = heat_apply(ab1_heat_plan, f, 1e308)
    assert not h.values.any() and not g.values.any()
    assert check_mass(h) == 1.0


def test_source_at_huge_time_is_zero_without_warning(ab1_law):
    # an inhomogeneous operator has no continuation (t_switch = inf), so the
    # source takes the direct route at every time, through heat_kernel's
    # multiplier; an overflow of -t lambda there raised a RuntimeWarning in
    # mass, __call__ and ladder_sum
    expr = parse_diffop("-X^2+1", ab1_law.algebra.labels)
    plan = spectral_plan(RocklandSpec(expr=expr, nu=None), ab1_law, Grid((4.0,), (49,)))
    assert plan.mask.sum() == 41
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        source = HeatKernelSource(plan)
        mass, h = source.mass(1e308), source(1e308)
        values, total = source.ladder_sum([1e308], [1.0])
    assert source.t_switch == np.inf
    assert mass == 0.0 and total == 0.0
    assert not h.values.any() and not values.any()


def test_value_at_origin_late(ab1_pot_source):
    # t^{Q/nu} h_t(0) -> (4 pi)^{-1/2} for the 1-D closed form
    c = ab1_pot_source.value_at_origin_late()
    assert c == pytest.approx((4 * np.pi) ** -0.5, rel=1e-2)


# ---------------------------------------------------------------------------
# Central-Fourier plans on grids periodic in the central coordinate


def _small_periodic_grid():
    return Grid((2.0, 2.0, 0.5 * 8 / 9), (17, 17, 9), periodic=(2,))


def _run_slices(plan):
    """The coefficient slice of each run of the plan, in order."""
    ends = np.cumsum([plan.block_sizes[k] for k in plan.segments], dtype=int)
    return [slice(e - plan.block_sizes[k], e) for k, e in zip(plan.segments, ends)]


def _dense_eigenvectors(plan):
    """The plan's eigenvectors as one dense matrix, interior nodes (C order)
    by coefficients, assembled from its stored fields alone: the Kronecker
    product of its axis bases with its columns in the plan's order, the
    butterfly as a dense orthogonal matrix, and each run's stored matrix on
    the diagonal."""
    B = functools.reduce(np.kron, [np.eye(m) if Q is None else Q for Q, m in zip(plan.axis_bases, plan.inner_shape)])
    if plan.order is not None:
        B = B[:, plan.order]
    if plan.butterfly is not None:
        scale, pairs = plan.butterfly
        K = np.eye(scale.shape[1])
        for lo, hi, n in pairs:
            lo, hi = np.arange(lo, lo + n), np.arange(hi, hi + n)
            K[lo, hi] = K[hi, lo] = 1.0
            K[hi, hi] = -1.0
        B = B @ (np.kron(np.eye(len(scale)), K) * scale.ravel()).T  # H = K diag(scale), row by row
    packed, ends = plan.eigenvectors.ravel(), np.cumsum([b * b for b in plan.block_sizes])
    stored = [packed[e - b * b : e].reshape(b, b) for b, e in zip(plan.block_sizes, ends)]
    W = np.zeros(B.shape, dtype=plan.eigenvectors.dtype)
    start = 0
    for k in plan.segments:
        b = plan.block_sizes[k]
        W[start : start + b, start : start + b] = stored[k]
        start += b
    return B @ W


@pytest.mark.parametrize(
    "grid, reg_strength",
    [
        (Grid((1.6, 1.6, 2.56), (15, 15, 31)), 0.0),
        (Grid((1.6, 1.6, 2.56), (15, 15, 31)), 1.0),
        (Grid((2.0, 2.0, 0.5 * 8 / 9), (17, 17, 9), periodic=(2,)), 0.0),
    ],
    ids=["box", "box-dissipation", "periodic"],
)
def test_stored_pieces_match_dense_reconstruction(grid, reg_strength, h1_law):
    # the benchmark box (verify-heisenberg, and plan-queries-heisenberg with
    # its dissipation term) and a small periodic grid: each stored piece is
    # orthonormal, and analyze, synthesize and a heat multiplier through the
    # pieces, the butterfly and the shared matrices agree with the dense
    # eigenvectors that the stored fields describe
    plan = spectral_plan(sublaplacian(h1_law.algebra), h1_law, grid, margin=4, reg_strength=reg_strength)
    assert plan.block_sizes == plan.solves and len(plan.segments) > len(plan.solves)
    for V in plan._blocks():
        assert np.max(np.abs(V.conj().T @ V - np.eye(len(V)))) <= 1e-12
    V = _dense_eigenvectors(plan)
    assert np.max(np.abs(V.conj().T @ V - np.eye(len(V)))) <= 1e-12
    rng = np.random.default_rng(SEED)
    values = rng.standard_normal((3, grid.size))
    coef = plan.restrict(values) @ V.conj()  # V^H x, row by row
    assert np.max(np.abs(plan.analyze(values) - coef)) <= 1e-12 * np.max(np.abs(coef))
    c = rng.standard_normal((3, len(V))) + 1j * rng.standard_normal((3, len(V)))
    back = plan.embed(c @ V.T)
    assert np.max(np.abs(plan.synthesize(c) - back)) <= 1e-12 * np.max(np.abs(back))
    g = heat_multiplier(plan, 0.1)
    heat = plan.embed((coef * g) @ V.T).real
    assert np.max(np.abs(plan.apply_multiplier(g, values) - heat)) <= 1e-12 * np.max(np.abs(heat))


def test_central_fourier_plan_mechanics(h1_law):
    spec = sublaplacian(h1_law.algebra)
    plan = spectral_plan(spec, h1_law, _small_periodic_grid())
    assert isinstance(plan, CentralFourierPlan)
    # the quarter turn's four real pieces of each frequency's 9 x 9 block,
    # stored for the 5 frequencies xi >= 0 only
    assert plan.block_sizes == plan.solves == (20, 20, 21, 20) * 5
    assert plan.eigenvectors.dtype == float and plan.eigenvectors.shape == (5 * (3 * 20**2 + 21**2),)
    assert plan.eigenvalues.shape == (9 * 81,) and plan.mask.sum() == 9 * 81
    assert plan.sym_defect < 1e-12
    # analyze and synthesize are inverse on the interior: the basis is orthonormal
    v = np.random.default_rng(SEED).standard_normal(plan.grid.size) * plan.mask
    assert np.allclose(plan.synthesize(plan.analyze(v)), v, atol=1e-10)
    # the delta's coefficients in closed form: the DFT of its periodic line
    # is 1/sqrt(M) at every frequency, so frequency k's run holds the
    # conjugated centre row of V_k over sqrt(M) dV, V_k the frequency's
    # eigenvectors on the x, y nodes (the dense eigenvectors' columns of
    # frequency k at u = 0, times sqrt(M))
    M, b = plan.grid.counts[2], 81
    V = _dense_eigenvectors(plan).reshape(b, M, M, b)[:, M // 2] * np.sqrt(M)
    closed = V[b // 2].conj() / (np.sqrt(M) * plan.grid.cell_volume)
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


def test_central_fourier_analyze_is_fft_then_blocks(h1_law):
    # the plan's one transform against the FFT of the lines along u (u = 0
    # moved to index 0) followed by V_k^H at each frequency k, V_k the
    # frequency's eigenvectors on the x, y nodes, read off the dense
    # reconstruction (its columns of frequency k at u = 0, times sqrt(M))
    plan = spectral_plan(sublaplacian(h1_law.algebra), h1_law, _small_periodic_grid())
    values = np.random.default_rng(SEED).standard_normal((3, plan.grid.size))
    M = plan.grid.counts[2]
    lines = plan.restrict(values).reshape(3, -1, M)  # u is the last axis, whole in the interior
    b = lines.shape[1]
    F = np.fft.fft(np.fft.ifftshift(lines, axes=-1), axis=-1, norm="ortho")
    V = _dense_eigenvectors(plan).reshape(b, M, M, b)[:, M // 2] * np.sqrt(M)
    expected = np.concatenate([F[..., k] @ V[:, k].conj() for k in range(M)], axis=-1)
    assert np.max(np.abs(plan.analyze(values) - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", [SpectralPlan, KroneckerPlan, CentralFourierPlan])
def test_stacked_transforms_match_rows(kind, h1_law, ab3_law):
    # a stack (m, grid size) goes through analyze and synthesize as m rows
    # would, on all three plan kinds (the grids of test_plan_work_counts_evaluate)
    h1 = sublaplacian(h1_law.algebra)
    plan = {
        SpectralPlan: lambda: spectral_plan(h1, h1_law, Grid((1.5, 1.5, 1.2), (11, 11, 13)), reg_strength=0.3),
        KroneckerPlan: lambda: spectral_plan(
            sublaplacian(ab3_law.algebra), ab3_law, Grid((2.0, 2.0, 2.0), (11, 13, 15))
        ),
        CentralFourierPlan: lambda: spectral_plan(h1, h1_law, Grid((2.0, 2.0, 0.5 * 8 / 9), (13, 13, 9), periodic=(2,))),
    }[kind]()
    assert type(plan) is kind
    values = np.random.default_rng(SEED).standard_normal((5, plan.grid.size))
    coef = plan.analyze(values)
    rows = np.array([plan.analyze(v) for v in values])
    assert coef.shape == rows.shape
    assert np.max(np.abs(coef - rows)) <= 1e-12 * np.max(np.abs(rows))
    back = plan.synthesize(coef)
    back_rows = np.array([plan.synthesize(c) for c in coef])
    assert back.shape == values.shape
    assert np.max(np.abs(back - back_rows)) <= 1e-12 * np.max(np.abs(back_rows))
    g = np.exp(-0.1 * plan.lam_plus)
    stacked = plan.apply_multiplier(g, values)
    assert not np.iscomplexobj(stacked)
    for v, w in zip(values, stacked):
        assert np.max(np.abs(w - plan.apply_multiplier(g, v))) <= 1e-12 * np.max(np.abs(w))


def test_central_fourier_blocks_are_real(h1_law, monkeypatch):
    import gradecalc.heatflow as heatflow

    # the flip (x, y, u) -> (x, -y, -u) maps xi to -xi: in the basis of its
    # even vectors and i times its odd ones every block is real, and the plan
    # agrees with the complex blocks, reached with no flip but the identity
    spec = sublaplacian(h1_law.algebra)
    grid = Grid((2.0, 2.4, 0.5), (19, 23, 9), periodic=(2,))
    kinds = []
    eigh = heatflow._eigh
    monkeypatch.setattr(heatflow, "_eigh", lambda A, stats: kinds.append(A.dtype.kind) or eigh(A, stats))
    real = spectral_plan(spec, h1_law, grid)
    monkeypatch.setattr(heatflow, "sign_flip_group", lambda alg, expr: np.ones((1, alg.n), int))
    ref = spectral_plan(spec, h1_law, grid)
    assert type(real) is type(ref) is CentralFourierPlan
    # real blocks are stored for xi >= 0 only; complex ones for every frequency
    assert kinds == ["f"] * 5 + ["c"] * 9 and real.solves == (11 * 15,) * 5 and ref.solves == (11 * 15,) * 9
    assert real.block_sizes == real.solves and ref.block_sizes == ref.solves
    assert real.reflection_defect <= 1e-12 and ref.reflection_defect == 0.0
    b, lam_max = real.block_sizes[0], ref.eigenvalues.max()
    for k in range(grid.counts[2]):
        s = slice(k * b, (k + 1) * b)
        assert np.max(np.abs(np.sort(real.eigenvalues[s]) - np.sort(ref.eigenvalues[s]))) <= 1e-12 * lam_max
    h, h_ref = heat_kernel(real, 0.1).values, heat_kernel(ref, 0.1).values
    assert np.max(np.abs(h - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))
    # a function with no symmetry: each frequency keeps its own eigenvectors
    f = np.random.default_rng(SEED).standard_normal(grid.size) * real.mask
    g = np.exp(-0.1 * real.lam_plus)
    out, out_ref = real.apply_multiplier(g, f), ref.apply_multiplier(np.exp(-0.1 * ref.lam_plus), f)
    assert np.max(np.abs(out - out_ref)) <= 1e-12 * np.max(np.abs(out_ref))


def test_central_fourier_plan_applies_the_operator(h1_law):
    # the plan's operator, V diag(lambda) V^H, against the fields applied
    # letter by letter (FieldMatrices, first-derivative stencils): on a bump
    # that is not radial and oscillates in u, the part (y d_x - x d_y) d_u of
    # the blocks counts, with its sign (the opposite sign reads 0.31)
    spec = sublaplacian(h1_law.algebra)
    grid = Grid((2.0, 2.0, 0.5 * 8 / 9), (33, 33, 9), periodic=(2,))
    plan = spectral_plan(spec, h1_law, grid)
    x, y, u = grid.points().T
    f = np.exp(-(x**2 + y**2) / 0.4) * (1 + x + 0.5 * y) * np.cos(2 * np.pi * u)
    applied = plan.apply_multiplier(plan.eigenvalues, f)
    direct = FieldMatrices(h1_law, grid).apply_expr(spec.expr, f)
    inner = plan.mask & (x**2 + y**2 < 1.0)
    assert np.max(np.abs(applied - direct)[inner]) <= 3e-2 * np.max(np.abs(direct[inner]))


def test_central_fourier_flip_must_commute(h1_law, monkeypatch):
    import gradecalc.heatflow as heatflow

    # the words XY and YX keep u in every flip, so the blocks stay complex,
    # solved by the same numpy routine
    expr = parse_diffop("-X^2-Y^2+1/2*X*Y+1/2*Y*X", h1_law.algebra.labels)
    assert (sign_flip_group(h1_law.algebra, expr)[:, 2] == 1).all()
    spec = RocklandSpec(expr=expr, nu=2)
    plan = spectral_plan(spec, h1_law, _small_periodic_grid())
    assert isinstance(plan, CentralFourierPlan) and plan.reflection_defect == 0.0
    # faked, the flip of y and u fails: the part 2 d_x d_y of S is odd under
    # it and couples the even and odd vectors
    fake = np.array([[1, 1, 1], [1, -1, -1]])
    monkeypatch.setattr(heatflow, "sign_flip_group", lambda alg, expr: fake)
    with pytest.raises(HeatError, match="commute"):
        spectral_plan(spec, h1_law, _small_periodic_grid())


def test_heat_multiplier_has_no_subnormal_values(ab1_heat_plan):
    from gradecalc.geometry import EXP_FLOOR

    # exponents reach -2000: below EXP_FLOOR the multiplier is 0, where
    # numpy's exp would return subnormals; elsewhere it is exp bit for bit
    lam = ab1_heat_plan.lam_plus
    t = 2000.0 / lam.max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = heat_multiplier(ab1_heat_plan, t)
        raw = np.exp(-t * lam)
    tiny = np.finfo(float).tiny
    low = -t * lam < EXP_FLOOR
    assert low.any() and not low.all() and ((0 < raw) & (raw < tiny)).any()
    assert not ((0 < g) & (g < tiny)).any()
    assert (g[low] == 0.0).all() and np.array_equal(g[~low], raw[~low])


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
    # no Kronecker structure, and the odd words X and Y leave no sign flip:
    # the whole 23^3 interior would be one dense block
    grid = Grid((2.0, 2.0, 2.0), (31, 31, 31))
    expr = parse_diffop("-X^2-Y^2+X+Y", h1_law.algebra.labels)
    assert len(sign_flip_group(h1_law.algebra, expr)) == 1
    with pytest.raises(HeatError, match="exceeds"):
        spectral_plan(RocklandSpec(expr=expr, nu=None), h1_law, grid)


def test_block_bound_reads_the_largest_block(h1_law, monkeypatch):
    import gradecalc.heatflow as heatflow

    # the same 23^3 = 12167-node interior, split by the four flips of the
    # sub-Laplacian into blocks of 3036 to 3059 nodes, is taken; the spy
    # stops the plan at its first eigensolve, the quarter turn's +1 half of
    # the block of the patterns (even, even, odd) and (odd, odd, even)
    class Stop(Exception):
        pass

    def first_solve(A, stats):
        raise Stop(len(A))

    monkeypatch.setattr(heatflow, "_eigh", first_solve)
    grid = Grid((2.0, 2.0, 2.0), (31, 31, 31))
    with pytest.raises(Stop) as stop:
        spectral_plan(sublaplacian(h1_law.algebra), h1_law, grid)
    assert 23**3 > MAX_DENSE_BLOCK and stop.value.args[0] == (12 * 12 * 11 + 11 * 11 * 12) // 2


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
    assert plan.inner_shape == (5, 9, 3) and n == 5 * 9 * 3
    # plain arrays, as for every plan; the factor bases are the axis bases,
    # and there are no dense blocks
    Vs = list(plan.axis_bases)
    for arr in (plan.eigenvalues, plan.eigenvectors, plan.mask, *Vs):
        assert type(arr) is np.ndarray
    assert plan.eigenvalues.shape == (n,) and plan.eigenvectors.size == 0
    assert plan.block_sizes == () and plan.order is None and not list(plan._blocks())
    assert plan.health()["blocks"] == [5, 9, 3]
    assert [V.shape for V in Vs] == [(5, 5), (9, 9), (3, 3)]
    for V in Vs:
        assert np.allclose(V.T @ V, np.eye(len(V)), atol=1e-10)
    # analyze and synthesize are inverse on the interior
    v = np.random.default_rng(SEED).standard_normal(grid.size) * plan.mask
    assert np.allclose(plan.synthesize(plan.analyze(v)), v, atol=1e-10)
    # the delta's coefficients in closed form: the origin is the centre of the
    # interior box, so they are the outer product of the factors' centre rows
    rows = [V[(len(V) - 1) // 2] for V in Vs]
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


@pytest.mark.parametrize("reg_strength", [0.0, 0.3])
@pytest.mark.parametrize("name", ["abelian1-defaults"] + sorted(_KRON_CASES))
def test_split_kronecker_plan_matches_unsplit(name, reg_strength, monkeypatch):
    import gradecalc.heatflow as heatflow

    if name == "abelian1-defaults":
        group, d = "abelian1", DEFAULTS["abelian1"].potential
        grid, margin = d.grid, d.margin
    else:
        group, (grid, margin) = name, _KRON_CASES[name]
    law = bch_group_law(builtin_group(group))
    spec = sublaplacian(law.algebra)
    split = spectral_plan(spec, law, grid, margin=margin, reg_strength=reg_strength)
    # with no flip but the identity every factor is one block
    monkeypatch.setattr(heatflow, "sign_flip_group", lambda alg, expr: np.ones((1, alg.n), int))
    whole = spectral_plan(spec, law, grid, margin=margin, reg_strength=reg_strength)
    assert isinstance(split, KroneckerPlan) and isinstance(whole, KroneckerPlan)
    assert split.reflection_defect < 1e-12 and whole.reflection_defect == 0.0
    assert split.inner_shape == whole.inner_shape
    # each factor's eigenvalues still ascend (the spectrum is their outer
    # sum, so they are its lines through index 0), and its basis is orthonormal
    lam = split.eigenvalues.reshape(split.inner_shape)
    for k, V in enumerate(split.axis_bases):
        line = np.moveaxis(lam, k, 0)[(slice(None),) + (0,) * (lam.ndim - 1)]
        assert np.all(np.diff(line) >= 0)
        assert np.abs(V.T @ V - np.eye(len(V))).max() < 1e-12
    lam_max = whole.eigenvalues.max()
    assert np.max(np.abs(np.sort(split.eigenvalues) - np.sort(whole.eigenvalues))) < 1e-12 * lam_max

    def close(a, b):
        return np.max(np.abs(a.values - b.values)) < 1e-10 * np.max(np.abs(b.values))

    for t in (0.01, 0.1, 0.5):
        assert close(heat_kernel(split, t), heat_kernel(whole, t))
    f = make_test_family(grid, n=1, seed=SEED).gridfunctions()[0]
    for s, hom in ((1.5, False), (-1.0, False), (-2.0, True)):
        assert close(fractional_apply(split, s, f, homogeneous=hom), fractional_apply(whole, s, f, homogeneous=hom))


def test_factor_without_its_flip_is_one_block(monkeypatch):
    import gradecalc.heatflow as heatflow

    # the odd word Y keeps the flip of y out of the group, so only the x
    # factor (13 interior nodes) splits, into its even and odd halves; the
    # y factor (11 nodes) is solved whole
    law = bch_group_law(builtin_group("abelian2"))
    grid, margin = _KRON_CASES["abelian2"]
    expr = parse_diffop("-X^2-Y^2+Y", law.algebra.labels)
    assert sign_flip_group(law.algebra, expr).tolist() == [[1, 1], [-1, 1]]
    sizes = []
    eigh = heatflow._eigh
    monkeypatch.setattr(heatflow, "_eigh", lambda A, stats: sizes.append(len(A)) or eigh(A, stats))
    plan = spectral_plan(RocklandSpec(expr=expr, nu=None), law, grid, margin=margin)
    assert isinstance(plan, KroneckerPlan) and plan.inner_shape == (13, 11)
    assert sizes == [6, 7, 11]
    assert plan.reflection_defect < 1e-12


def test_kronecker_plan_memory_is_bounded(ab1_law):
    # the abelian1 default potential plan (633 interior nodes) takes two
    # half-size solves and writes their eigenvectors straight into the plan;
    # solved as one dense factor and copied into place, its build peaked at
    # 13.0 MB
    import tracemalloc

    d = DEFAULTS["abelian1"].potential
    spec = sublaplacian(ab1_law.algebra)
    tracemalloc.start()
    try:
        spectral_plan(spec, ab1_law, d.grid, margin=d.margin)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13.0e6


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
    assert type(plan) is type(dense) is SpectralPlan
    # the quarter turn's pieces of the four blocks, one matrix for the two it
    # swaps: five stored matrices, read by six runs
    assert plan.block_sizes == plan.solves and len(plan.block_sizes) == 5 and len(plan.segments) == 6
    assert sum(plan.block_sizes[k] for k in plan.segments) == n
    assert dense.block_sizes == dense.solves == (n,)
    assert dense.axis_bases == (None, None, None) and dense.order is None
    assert plan.reflection_defect < 1e-12 and dense.reflection_defect == 0.0
    # the runs' basis, the per-axis parity bases' tensor product with its
    # nodes grouped by run, is orthonormal; each column is a product of
    # mirror pairs (at most 8 nonzeros), and every flip scales all columns
    # of a run by one sign, the character of its block
    B = functools.reduce(np.kron, plan.axis_bases)[:, plan.order]
    assert abs(B.T @ B - np.eye(n)).max() < 1e-14
    assert np.count_nonzero(B, axis=0).max() <= 8
    for s in sign_flip_group(law.algebra, spec.expr):
        flipped = np.flip(B.reshape(plan.inner_shape + (n,)), axis=tuple(np.flatnonzero(s < 0)))
        signs = np.sum(flipped.reshape(n, n) * B, axis=0)
        for run in _run_slices(plan):
            assert np.abs(signs[run] - np.sign(signs[run][0])).max() < 1e-14
    # one packed real ndarray at the solve sizes; eigenvalues ascending within each run, one per interior node
    assert type(plan.eigenvectors) is np.ndarray
    assert plan.eigenvectors.nbytes == 8 * sum(b * b for b in plan.solves)
    assert plan.eigenvalues.shape == (n,)
    for s in _run_slices(plan):
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


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigh_refuses_a_non_finite_matrix(bad, dtype):
    import warnings

    from gradecalc.heatflow import _eigh

    A = np.eye(5, dtype=dtype)
    A[1, 3] = A[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HeatError, match="non-finite"):
            _eigh(A, {})


def test_reflection_plan_matches_scipy_evd(monkeypatch):
    import scipy.linalg

    import gradecalc.heatflow as heatflow

    # numpy's eigh runs LAPACK dsyevd, the routine of scipy's driver="evd":
    # the verify-heisenberg plan's solves, each against scipy on the same
    # matrix.  The quarter turn halves the first and the last block and
    # solves the second, whose image under the turn is the third: the third
    # block's run reads the second's stored matrix.
    reference = []
    eigh = heatflow._eigh

    def recorded(A, stats):
        reference.append(scipy.linalg.eigh(A, driver="evd", eigvals_only=True))
        return eigh(A, stats)

    monkeypatch.setattr(heatflow, "_eigh", recorded)
    plan = RunConfig(group="heisenberg", scale=1.6, points="15,15,31").plan("heat")
    assert type(plan) is SpectralPlan
    assert plan.solves == plan.block_sizes == tuple(len(w) for w in reference) == (146, 138, 276, 153, 138)
    assert plan.segments == (0, 1, 2, 2, 3, 4)
    for s, k in zip(_run_slices(plan), plan.segments):
        w = reference[k]
        assert np.max(np.abs(plan.eigenvalues[s] - w) / np.abs(w)) <= 1e-12


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


# ---------------------------------------------------------------------------
# The quarter turn


TURN = ((1, 0, 2), (1, -1, 1))  # (x, y, u) -> (-y, x, u): X -> Y, Y -> -X, T -> T


@pytest.mark.parametrize(
    "group, op, turn, grid, taken",
    [
        ("heisenberg", None, TURN, Grid((1.6, 1.6, 2.56), (15, 15, 31)), True),
        # X and Y have weights 3 and 5: no swap commutes with the dilations
        ("heisenberg358", None, None, None, False),
        # the turn maps -X^2 - 2Y^2 to -2X^2 - Y^2
        ("heisenberg", "-X^2-2*Y^2", None, None, False),
        # the operator has the turn, but x and y have 15 and 13 nodes
        ("heisenberg", None, TURN, Grid((1.6, 1.6, 2.56), (15, 13, 31)), False),
    ],
    ids=["heisenberg", "heisenberg358", "unequal-coefficients", "unequal-counts"],
)
def test_quarter_turn_detection(group, op, turn, grid, taken):
    law = bch_group_law(builtin_group(group))
    alg = law.algebra
    if op is None:
        spec = sublaplacian(alg) if group == "heisenberg" else build_rockland_example(alg, default_nu0(alg.weights))
    else:
        spec = RocklandSpec(expr=parse_diffop(op, alg.labels), nu=2)
    assert quarter_turn(alg, spec.expr) == turn
    if grid is not None:
        plan = spectral_plan(spec, law, grid)
        assert (plan.turn_defect > 0) == taken and (len(plan.solves) == 5) == taken


def _unsplit(monkeypatch, build):
    """The plan ``build`` makes with the turn left out."""
    import gradecalc.heatflow as heatflow

    with monkeypatch.context() as m:
        m.setattr(heatflow, "quarter_turn", lambda alg, expr: None)
        return build()


@pytest.mark.parametrize(
    "grid, solves",
    [
        # the benchmark box: interior 7 x 7 x 23
        (Grid((1.6, 1.6, 2.56), (15, 15, 31)), (146, 138, 276, 153, 138)),
        # a small periodic grid: interior 9 x 9 per frequency, 5 frequencies
        (Grid((2.0, 2.0, 0.5 * 8 / 9), (17, 17, 9), periodic=(2,)), (20, 20, 21, 20) * 5),
    ],
    ids=["box", "periodic"],
)
def test_turn_split_plan_matches_unsplit(grid, solves, h1_law, monkeypatch):
    spec = sublaplacian(h1_law.algebra)
    plan = spectral_plan(spec, h1_law, grid)
    whole = _unsplit(monkeypatch, lambda: spectral_plan(spec, h1_law, grid))
    assert type(plan) is type(whole)
    assert plan.solves == plan.block_sizes == solves
    assert len(whole.solves) < len(solves) and whole.turn_defect == 0.0
    assert 0 < plan.turn_defect <= 1e-12 and plan.health()["turn_defect"] == plan.turn_defect
    lam_max = whole.eigenvalues.max()
    for V in plan._blocks():  # each stored piece: orthonormal
        assert np.max(np.abs(V.conj().T @ V - np.eye(len(V)))) <= 1e-12
    for s in _run_slices(plan):  # each run: ascending
        assert np.all(np.diff(plan.eigenvalues[s]) >= 0)
    for s in _run_slices(whole):  # each unsplit block's coefficients: its spectrum, in the split plan's runs
        assert np.max(np.abs(np.sort(plan.eigenvalues[s]) - whole.eigenvalues[s])) <= 1e-12 * lam_max
    h, h_whole = heat_kernel(plan, 0.1).values, heat_kernel(whole, 0.1).values
    assert np.max(np.abs(h - h_whole)) <= 1e-12 * np.max(np.abs(h_whole))
    f = np.random.default_rng(SEED).standard_normal(grid.size) * plan.mask
    g = np.exp(-0.1 * plan.lam_plus)
    out, out_whole = plan.apply_multiplier(g, f), whole.apply_multiplier(np.exp(-0.1 * whole.lam_plus), f)
    assert np.max(np.abs(out - out_whole)) <= 1e-12 * np.max(np.abs(out_whole))


@pytest.mark.parametrize(
    "grid",
    [Grid((2.0, 2.0, 1.2), (17, 17, 13)), Grid((2.0, 2.0, 0.5 * 8 / 9), (17, 17, 9), periodic=(2,))],
    ids=["box", "periodic-u"],
)
def test_turn_must_commute(grid, h1_law, monkeypatch):
    import gradecalc.heatflow as heatflow

    # -X^2 - 2Y^2 has the four flips but not the turn; faked, the turn is
    # refused at plan time
    expr = parse_diffop("-X^2-2*Y^2", h1_law.algebra.labels)
    spec = RocklandSpec(expr=expr, nu=2)
    assert len(sign_flip_group(h1_law.algebra, expr)) == 4
    assert spectral_plan(spec, h1_law, grid).turn_defect == 0.0
    monkeypatch.setattr(heatflow, "quarter_turn", lambda alg, expr: TURN)
    with pytest.raises(HeatError, match="the turn fails to commute"):
        spectral_plan(spec, h1_law, grid)


def test_reflection_plan_refuses_a_non_symmetry(h1_law, monkeypatch):
    import gradecalc.heatflow as heatflow

    # x -> -x with y and u fixed is no automorphism of the Heisenberg law
    fake = np.array([[1, 1, 1], [-1, 1, 1]])
    monkeypatch.setattr(heatflow, "sign_flip_group", lambda alg, expr: fake)
    with pytest.raises(HeatError, match="commute"):
        spectral_plan(sublaplacian(h1_law.algebra), h1_law, Grid((1.5, 1.5, 1.2), (11, 11, 13)))
