"""Dilations, pseudo-norms, grids, Haar integration, convolution, polar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from gradecalc.algebra import algebra_from_dict, bch_group_law
from gradecalc.geometry import (
    GeometryError,
    Grid,
    GridFunction,
    SphereQuadrature,
    central_axes,
    default_nu0,
    dilate,
    group_convolve,
    haar_integrate,
    inner_product,
    lp_norm,
    multilinear_interpolate,
    polar_integral_check,
    project_to_sphere,
    pseudo_norm,
    quasi_triangle_constant,
    resample_dilated,
)
from gradecalc.geometry import _interpolated_convolve, _sobol

SEED = 0xC0FFEE


def _interpolate(f, pts):
    """The multilinear interpolant of f at the points pts, zero outside the box."""
    return multilinear_interpolate(f.grid, f.values, np.asarray(pts, dtype=float), range(f.grid.ndim))


# ---------------------------------------------------------------------------
# Dilations and pseudo-norms


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(0.1, 10.0),
    s=st.floats(0.1, 10.0),
    x=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_dilation_group_property(r, s, x):
    w = (1, 1, 2)
    x = np.array(x)
    assert np.allclose(dilate(r, dilate(s, x, w), w), dilate(r * s, x, w), rtol=1e-9)


def test_dilation_rejects_nonpositive():
    with pytest.raises(GeometryError):
        dilate(0.0, np.zeros(3), (1, 1, 2))
    with pytest.raises(GeometryError):
        dilate(-1.0, np.zeros(3), (1, 1, 2))


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.05, 20.0), x=st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_pseudo_norm_homogeneous(r, x):
    w = (1, 1, 2)
    nu0 = default_nu0(w)
    x = np.array(x)
    assert pseudo_norm(dilate(r, x, w), w, nu0) == pytest.approx(
        r * pseudo_norm(x, w, nu0), rel=1e-9, abs=1e-12
    )


def test_pseudo_norm_definite():
    w = (3, 5, 8)
    nu0 = default_nu0(w)
    assert nu0 == 120
    assert pseudo_norm(np.zeros(3), w, nu0) == 0.0
    assert pseudo_norm(np.array([0.0, 0.0, 1e-3]), w, nu0) > 0


def test_pseudo_norm_needs_common_multiple():
    with pytest.raises(GeometryError):
        pseudo_norm(np.zeros(2), (2, 3), 4)


def test_project_to_sphere():
    w = (1, 1, 2)
    nu0 = 2
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((100, 3))
    y = project_to_sphere(x, w, nu0)
    assert np.allclose(pseudo_norm(y, w, nu0), 1.0, atol=1e-12)


def test_quasi_triangle_constant(h1_law):
    C = quasi_triangle_constant(h1_law, 2, samples=20_000, seed=SEED)
    assert 1.0 <= C < 3.0
    # prefix property: more samples can only increase the max
    C2 = quasi_triangle_constant(h1_law, 2, samples=40_000, seed=SEED)
    assert C2 >= C


# ---------------------------------------------------------------------------
# Grids


def test_grid_basics():
    g = Grid((2.0, 1.0), (5, 9))
    assert g.size == 45
    assert g.spacings == (1.0, 0.25)
    assert g.cell_volume == 0.25
    pts = g.points()
    assert pts.shape == (45, 2)
    assert tuple(pts[g.origin_index]) == (0.0, 0.0)


def test_grid_budget_enforced():
    with pytest.raises(GeometryError):
        Grid((1.0, 1.0), (201, 201))


def test_grid_counts_must_be_odd():
    with pytest.raises(GeometryError):
        Grid((1.0,), (10,))


def test_grid_dilated():
    g = Grid((2.0, 1.0), (5, 9))
    g2 = g.dilated(2.0, (1, 2))
    assert g2.half_widths == (4.0, 4.0)
    assert g2.counts == g.counts


def test_periodic_grid():
    # 9 nodes over one period of 1.8 on the last axis
    g = Grid((1.0, 0.8), (5, 9), periodic=(1,))
    assert g.period(1) == pytest.approx(1.8)
    assert g.dilated(2.0, (1, 2)).periodic == (1,)
    # a periodic axis has no boundary, so the margin spares it
    assert g.interior_mask(1).reshape(5, 9).sum(axis=1).tolist() == [0, 9, 9, 9, 0]
    u = g.points()[:, 1]
    f = GridFunction(g, np.cos(2 * np.pi * u / 1.8))
    # beyond the last node the interpolant runs on into the first one ...
    mid = np.array([[0.0, 0.9], [0.0, -0.9]])
    assert np.allclose(_interpolate(f, mid), 0.5 * (f.reshape()[2, -1] + f.reshape()[2, 0]))
    # ... and whole periods away it repeats
    assert np.allclose(_interpolate(f, g.points() + [0.0, 3 * 1.8]), f.values)
    with pytest.raises(GeometryError):
        Grid((1.0, 1.0), (5, 5), periodic=(2,))


def test_interpolator_matches_scipy():
    # scipy's RegularGridInterpolator is the independent reference
    rng = np.random.default_rng(SEED)
    # the heisenberg potential grid, on whose last edge node u = 0.95 the
    # index (u + R)/h rounds to just above N - 1
    g = Grid((2.7, 2.7, 0.95), (19, 19, 53))
    assert (g.axis(2)[-1] + 0.95) / g.spacings[2] > 52
    f = GridFunction(g, rng.standard_normal(g.size))
    reference = RegularGridInterpolator(g.axes, f.reshape(), bounds_error=False, fill_value=0.0)
    pts = g.points()
    # exact nodes, the edges included, and points dilated in and out of the box
    for z in (pts, dilate(0.7, pts, (1, 1, 2)), dilate(1.2, pts, (1, 1, 2))):
        assert np.max(np.abs(_interpolate(f, z) - reference(z))) < 1e-13 * np.max(np.abs(f.values))
    # a periodic axis: points periods away wrap onto the period, which scipy
    # sees closed by a copy of the first node one spacing on
    g = Grid((1.0, 0.8), (5, 9), periodic=(1,))
    f = GridFunction(g, rng.standard_normal(g.size))
    axis = np.append(g.axis(1), g.half_widths[1] + g.spacings[1])
    closed = np.concatenate([f.reshape(), f.reshape()[:, :1]], axis=1)
    reference = RegularGridInterpolator((g.axis(0), axis), closed)
    z = dilate(0.9, g.points(), (1, 1)) + [0.0, 0.37 - 3 * g.period(1)]
    wrapped = z.copy()
    wrapped[:, 1] = np.mod(z[:, 1] + g.half_widths[1], g.period(1)) - g.half_widths[1]
    assert np.max(np.abs(_interpolate(f, z) - reference(wrapped))) < 1e-13 * np.max(np.abs(f.values))


def test_interior_mask():
    g = Grid((1.0, 1.0), (7, 7))
    m = g.interior_mask(2).reshape(7, 7)
    assert m.sum() == 9
    assert m[3, 3] and not m[1, 3]


def test_haar_and_lp():
    g = Grid((6.0,), (121,))
    x = g.points()[:, 0]
    f = GridFunction(g, np.exp(-(x**2)))
    assert float(haar_integrate(f)) == pytest.approx(np.sqrt(np.pi), rel=1e-10)
    assert lp_norm(f, 2) == pytest.approx((np.pi / 2) ** 0.25, rel=1e-10)
    assert lp_norm(f, np.inf) == pytest.approx(1.0)
    with pytest.raises(GeometryError):
        lp_norm(f, 0.5)


def test_inner_product_conjugates():
    g = Grid((1.0,), (11,))
    f = GridFunction(g, np.exp(1j * g.points()[:, 0]))
    h = GridFunction(g, np.ones(11))
    assert inner_product(f, h) == pytest.approx(np.conj(inner_product(h, f)))


def test_flipped_is_inversion():
    g = Grid((1.0, 1.0), (5, 5))
    f = GridFunction(g, np.arange(25.0))
    pts = g.points()
    assert np.allclose(f.flipped().values, _interpolate(f, -pts))


# ---------------------------------------------------------------------------
# Convolution


def test_convolution_matches_direct_sum(ab1_law):
    g = Grid((4.0,), (81,))
    x = g.points()[:, 0]
    f = GridFunction(g, np.exp(-(x**2)))
    h = GridFunction(g, np.exp(-2 * (x - 0.5) ** 2))
    conv = group_convolve(ab1_law, f, h)
    # independent direct sum on the 1-D abelian group (shift convolution)
    expected = np.zeros_like(x)
    dx = g.spacings[0]
    for i, xi in enumerate(x):
        z = xi - x
        inside = np.abs(z) <= g.half_widths[0]
        expected[i] = dx * np.sum(
            f.values[inside] * np.interp(z[inside], x, h.values)
        )
    assert np.allclose(conv.values, expected, atol=1e-12)


def test_convolution_identity_approximation(h1_law):
    # f * (narrow bump of mass 1) ~ f
    g = Grid((2.0, 2.0, 1.5), (13, 13, 25))
    pts = g.points()
    f = GridFunction(g, np.exp(-np.sum((pts / 0.8) ** 2, axis=1)))
    bump = GridFunction(g, np.exp(-np.sum((pts / 0.12) ** 2, axis=1)))
    bump = (1.0 / float(haar_integrate(bump))) * bump
    conv = group_convolve(h1_law, bump, f, zero_tol=1e-8)
    mask = g.interior_mask(2)
    err = np.max(np.abs(conv.values - f.values)[mask]) / np.max(np.abs(f.values))
    assert err < 5e-2


def test_twisted_convolution_matches_interpolated(h1_law):
    # On a grid periodic in the central coordinate, the twisted convolution
    # (node shifts in x, y and a phase per frequency of u) must agree with
    # the direct sum that interpolates g at y^{-1} x.  Radial kernels cannot
    # tell the phase's sign; these bumps are off-centre and non-radial, and
    # flipping the sign amounts to swapping f and g, which moves the result
    # two orders of magnitude more than the tolerance.
    P = 1.0
    g = Grid((1.5, 1.5, 12 * P / 25), (9, 9, 25), periodic=(2,))
    x, y, u = g.points().T
    w = 2 * np.pi * u / P
    f = GridFunction(
        g, np.exp(-((x - 0.3) ** 2 + 2 * (y + 0.2) ** 2)) * (1 + 0.5 * x) * (1 + 0.8 * np.cos(w - 0.4))
    )
    h = GridFunction(
        g, np.exp(-(2 * (x + 0.2) ** 2 + (y - 0.1) ** 2)) * (1 - 0.4 * y) * (1 + 0.8 * np.sin(w))
    )
    twisted = group_convolve(h1_law, f, h)
    direct = _interpolated_convolve(h1_law, f, h, zero_tol=0.0)
    swapped = group_convolve(h1_law, h, f)
    scale = lp_norm(direct, 1)
    assert lp_norm(twisted - direct, 1) / scale < 2e-3
    assert lp_norm(swapped - direct, 1) / scale > 5e-2


def test_shift_convolution_matches_interpolated(ab3_law):
    # On an abelian law every axis shifts by whole nodes and the convolution
    # is a discrete one, taken with FFTs.  The bumps are off-centre, neither
    # even nor odd, and negligible at the box edge (where the interpolating
    # sum may drop a node y^{-1} x that rounding puts just outside the box).
    # Reversing the shift (g(y - x) for g(x - y)) moves the result by far
    # more than the tolerance.
    g = Grid((4.0, 4.5, 3.5), (13, 15, 11))
    x, y, z = g.points().T
    f = GridFunction(
        g, np.exp(-(2 * (x - 0.4) ** 2 + 3 * (y + 0.3) ** 2 + 3 * z**2)) * (1 + 0.5 * x - 0.3 * z)
    )
    h = GridFunction(
        g, np.exp(-(3 * (x + 0.2) ** 2 + 2 * (y - 0.5) ** 2 + 4 * (z - 0.2) ** 2)) * (1 - 0.4 * y)
    )
    for zero_tol in (1e-6, 0.0):
        fast = group_convolve(ab3_law, f, h, zero_tol=zero_tol).values
        direct = _interpolated_convolve(ab3_law, f, h, zero_tol).values
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast - direct)) < 1e-13 * scale
    reversed_shift = group_convolve(ab3_law, f, h.flipped()).values
    assert np.max(np.abs(reversed_shift - direct)) > 1e-1 * scale


@pytest.fixture(scope="module")
def engel_law():
    # the 4-D Engel group: [X1, X2] = X3, [X1, X3] = X4
    engel = {"n": 4, "weights": [1, 1, 2, 3], "brackets": [[1, 2, 3, 1, 1], [1, 3, 4, 1, 1]]}
    return bch_group_law(algebra_from_dict(engel))


def test_central_axes(h1_law, ab3_law, engel_law):
    # x_3 enters the fourth Engel coordinate, so axis 2 is not central there
    assert central_axes(h1_law) == (2,)
    assert central_axes(ab3_law) == (0, 1, 2)
    assert central_axes(engel_law) == (3,)


def test_box_convolution_matches_interpolated_sum(h1_law, engel_law):
    # On a heisenberg box grid y^{-1} x moves x and y by whole nodes and only
    # u, a central axis, is interpolated.  On the Engel group axis 2 is
    # interpolated but not central (x_3 enters the fourth coordinate), next
    # to the central axis 3.  The reference evaluates scipy's interpolant of
    # g at y^{-1} x for every pair.  The bumps are off-centre, neither even
    # nor odd, and zero on a band at the box edge, where the reference may
    # drop a pair that rounding puts just outside the box.  Swapping f and g
    # moves the result by far more than the tolerance.
    cases = [
        (h1_law, Grid((1.5, 1.5, 1.2), (9, 9, 17)), 2),
        (engel_law, Grid((1.5, 1.5, 1.2, 1.0), (5, 5, 7, 9)), 1),
    ]
    for law, g, margin in cases:
        pts = g.points()
        x, y, mid, u = pts[:, 0], pts[:, 1], pts[:, 2:-1], pts[:, -1]
        band = g.interior_mask(margin)
        f = GridFunction(
            g,
            band
            * np.exp(-(2 * (x - 0.3) ** 2 + 3 * (y + 0.2) ** 2 + 4 * (u - 0.1) ** 2))
            * np.exp(-3 * np.sum((mid - 0.1) ** 2, axis=1))
            * (1 + 0.5 * x - 0.3 * u),
        )
        h = GridFunction(
            g,
            band
            * np.exp(-(3 * (x + 0.2) ** 2 + 2 * (y - 0.3) ** 2 + 3 * (u + 0.15) ** 2))
            * np.exp(-2 * np.sum((mid + 0.2) ** 2, axis=1))
            * (1 - 0.4 * y + 0.3 * np.sum(mid, axis=1)),
        )
        rows = np.flatnonzero(f.values)
        z = law.multiply_arrays(-pts[rows, None, :], pts[None, :, :])  # z[i, l] = y_i^{-1} x_l
        interp = RegularGridInterpolator(g.axes, h.reshape(), bounds_error=False, fill_value=0.0)
        gz = interp(z.reshape(-1, g.ndim)).reshape(len(rows), g.size)
        reference = g.cell_volume * (f.values[rows] @ gz)
        scale = np.max(np.abs(reference))
        for zero_tol in (1e-6, 0.0):
            conv = group_convolve(law, f, h, zero_tol=zero_tol).values
            assert np.max(np.abs(conv - reference)) < 1e-12 * scale
        swapped = group_convolve(law, h, f).values
        assert np.max(np.abs(swapped - reference)) > 5e-2 * scale


def test_box_convolution_keeps_edge_pairs(h1_law):
    # With f the unit delta at y, (f * 1)(x) = dV exactly when y^{-1} x lies
    # in the box.  On this grid x_6 - x_2 along the first axis rounds to just
    # above its half-width 1.3, yet y^{-1} x is the edge node 8 there: the
    # pair must be kept, not dropped as a point outside the box.
    g = Grid((1.3, 1.3, 0.83), (9, 9, 7))
    assert g.axis(0)[6] - g.axis(0)[2] > g.half_widths[0]
    delta = np.zeros(g.counts)
    delta[2, 4, 3] = 1.0
    f = GridFunction(g, delta.ravel())
    ones = GridFunction(g, np.ones(g.size))
    conv = group_convolve(h1_law, f, ones).reshape()
    assert conv[6, 4, 3] == pytest.approx(g.cell_volume, rel=1e-12)
    assert conv[7, 4, 3] == 0.0  # y^{-1} x one node past the edge
    # The same along the central axis u, which is interpolated: with f a
    # delta on the horizontal origin (beta = 0), y^{-1} x is 3 nodes up in
    # u, the edge node, though both u_3 - u_0 and 3 h_u round above the
    # half-width 0.83.
    h_u = g.spacings[2]
    assert g.axis(2)[3] - g.axis(2)[0] > g.half_widths[2] and 3 * h_u > g.half_widths[2]
    delta = np.zeros(g.counts)
    delta[4, 4, 0] = 1.0
    conv = group_convolve(h1_law, GridFunction(g, delta.ravel()), ones).reshape()
    assert conv[4, 4, 3] == pytest.approx(g.cell_volume, rel=1e-12)
    assert conv[4, 4, 4] == 0.0


def test_twisted_convolution_needs_central_axis(h1_law):
    # x is not central: y^{-1} x does not shift u by a term free of x
    g = Grid((1.0, 1.0, 1.0), (5, 5, 5), periodic=(0,))
    f = GridFunction(g, np.ones(g.size))
    with pytest.raises(GeometryError):
        group_convolve(h1_law, f, f)


def test_convolution_grid_mismatch(ab1_law):
    f = GridFunction(Grid((1.0,), (5,)), np.ones(5))
    h = GridFunction(Grid((2.0,), (5,)), np.ones(5))
    with pytest.raises(GeometryError):
        group_convolve(ab1_law, f, h)


@pytest.mark.parametrize(
    "grid,weights",
    [
        (Grid((3.0,), (41,)), (1,)),
        (Grid((1.6, 1.6, 2.56), (15, 15, 31)), (1, 1, 2)),  # heisenberg
        (Grid((2.0, 2.0, 4.0, 8.0), (9, 9, 11, 13)), (1, 1, 2, 3)),  # engel
    ],
    ids=["1d", "heisenberg", "engel"],
)
@pytest.mark.parametrize("r", [0.3, 0.77, 1.4, 2.9])
def test_resample_dilated_matches_interpolator(grid, weights, r):
    # one two-tap stencil per axis reproduces the 2^n-corner interpolant at
    # the dilated nodes, zero outside the box included
    f = GridFunction(grid, np.random.default_rng(SEED).standard_normal(grid.size))
    got = resample_dilated(f, r, weights).values
    want = _interpolate(f, dilate(r, grid.points(), weights))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if r > 1:
        assert np.count_nonzero(want == 0) > 0 and np.all(got[want == 0] == 0)
    with pytest.raises(GeometryError):
        resample_dilated(f, 0.0, weights)


def test_resample_dilated_refuses_periodic_grid():
    # a dilation changes the period, so the late-time heat source never
    # resamples on a periodic grid, and the routine takes box grids only
    g = Grid((1.0, 0.8), (5, 9), periodic=(1,))
    f = GridFunction(g, np.ones(g.size))
    with pytest.raises(GeometryError, match="period"):
        resample_dilated(f, 1.5, (1, 2))


# ---------------------------------------------------------------------------
# Polar decomposition


def _polar_reference(widths, grid, quad):
    """The polar check radius by radius: one Gaussian sweep over the sphere nodes per radius."""
    w = np.asarray(quad.weights_vec, dtype=float)
    Q = sum(quad.weights_vec)
    gauss = lambda pts: np.exp(-np.sum((pts / np.asarray(widths)) ** 2, axis=-1))
    lhs = float(haar_integrate(GridFunction(grid, gauss(grid.points()))))
    r_max = pseudo_norm(np.array(grid.half_widths), quad.weights_vec, quad.nu0) * 1.1
    rs = np.linspace(0.0, r_max, 600)[1:]
    vals = np.array([gauss(quad.nodes * r**w) @ quad.node_weights for r in rs])
    return lhs, float(np.trapezoid(vals * rs ** (Q - 1), rs))


def test_polar_integral_euclidean():
    g = Grid((2.5, 2.5), (51, 51))
    quad = SphereQuadrature.build((1, 1), 1, n_samples=1 << 14, seed=SEED)
    # isotropic weights: sphere measure total = Q * vol(unit ball) = 2*pi
    assert quad.node_weights.sum() == pytest.approx(2 * np.pi, rel=2e-2)
    lhs, rhs = polar_integral_check((1.0, 1.0), g, quad)
    assert lhs == pytest.approx(rhs, rel=2e-2)


def test_polar_integral_heisenberg():
    g = Grid((2.0, 2.0, 1.5), (17, 17, 35))
    quad = SphereQuadrature.build((1, 1, 2), 2, n_samples=1 << 15, seed=SEED)
    lhs, rhs = polar_integral_check((0.8, 0.8, 0.6), g, quad)
    assert lhs == pytest.approx(rhs, rel=3e-2)


@pytest.mark.parametrize(
    "weights,grid,widths",
    [
        ((1, 1), Grid((2.5, 2.5), (51, 51)), (1.0, 1.0)),
        ((1, 1, 2), Grid((2.0, 2.0, 1.5), (17, 17, 35)), (0.8, 0.8, 0.6)),
        # the heisenberg default heat grid, whose exponents reach below -700
        ((1, 1, 2), Grid((2.7, 2.7, 0.55 * 30 / 31), (33, 33, 31)), (0.9, 0.9, 0.55 * 10 / 31)),
        ((1,), Grid((8.0,), (161,)), (8.0 / 3,)),
    ],
)
def test_polar_blocks_match_radius_loop(weights, grid, widths):
    # the exponent-block product reproduces the per-radius Gaussian sweeps
    quad = SphereQuadrature.build(weights, default_nu0(weights), n_samples=1 << 14, seed=SEED)
    lhs, rhs = polar_integral_check(widths, grid, quad)
    ref_lhs, ref_rhs = _polar_reference(widths, grid, quad)
    assert lhs == pytest.approx(ref_lhs, rel=1e-13, abs=0)
    assert rhs == pytest.approx(ref_rhs, rel=1e-13, abs=0)


def test_polar_check_memory_is_bounded():
    # exponents are formed a block of radii at a time, never all 599 radii at once
    import tracemalloc

    g = Grid((2.0, 2.0, 1.5), (17, 17, 35))
    quad = SphereQuadrature.build((1, 1, 2), 2, n_samples=1 << 14, seed=SEED)
    tracemalloc.start()
    try:
        polar_integral_check((0.8, 0.8, 0.6), g, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sobol_matches_scipy():
    # the numpy sequence behind SphereQuadrature is scipy's scrambled Sobol'
    # sequence bit for bit, in every dimension a grid can have
    from scipy.stats import qmc

    for d in range(1, 10):
        for seed in (0, 7, 601, 0xC0FFEE):
            for n in (1 << 10, 1 << 14):
                ref = qmc.Sobol(d=d, scramble=True, seed=seed).random(n)
                assert np.array_equal(_sobol(d, n, seed), ref), (d, seed, n)
    with pytest.raises(GeometryError):
        _sobol(10, 1 << 10, SEED)
