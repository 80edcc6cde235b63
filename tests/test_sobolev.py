"""Sobolev norms, ratio probes, embedding refusals, sharpness table."""

import numpy as np
import pytest

from gradecalc.calculus import DiffOpExpr, FieldMatrices
from gradecalc.geometry import Grid, GridFunction, lp_norm, lp_norms, inner_product
from gradecalc.heatflow import dilated_plan
from gradecalc.potentials import fractional_apply
from gradecalc.sobolev import (
    DILATIONS,
    N_DILATED,
    STACK_BLOCK,
    RatioProbe,
    SobolevError,
    SobolevNormSpec,
    embedding_probe,
    equivalence_probe,
    make_test_family,
    sharpness_probe_H1tilde,
    sobolev_norm,
    sobolev_norms,
    sup_embedding_probe,
    words_of_degree,
)

SEED = 0xC0FFEE


# ---------------------------------------------------------------------------
# Norm basics


def test_words_of_degree():
    # weights (1,1,2): degree-2 words are XX, XY, YX, YY, T
    words = words_of_degree((1, 1, 2), 2)
    assert len(words) == 5
    assert (2,) in words and (0, 1) in words


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bump_matches_axis_sum_bit_for_bit(n):
    # the column-by-column sum in _bump against the np.sum(axis=-1) form it replaced
    from gradecalc.sobolev import _bump

    rng = np.random.default_rng(SEED + n)
    center = rng.uniform(-1.0, 1.0, n)
    width = rng.uniform(0.1, 2.0, n)
    lin, quad = rng.standard_normal(n), rng.standard_normal(n)
    for pts in (rng.uniform(-3.0, 3.0, (4001, n)), rng.uniform(-3.0, 3.0, n)):
        t = (pts - center) / width
        old = (1.0 + t @ lin + (t**2) @ quad) * np.exp(-np.sum(t**2, axis=-1))
        assert np.array_equal(_bump(pts, center, width, lin, quad), old)


def test_spec_validation(ab1_pot_plan):
    with pytest.raises(SobolevError):
        SobolevNormSpec(ab1_pot_plan, 1.0, 2, flavor="nonsense")
    with pytest.raises(SobolevError):
        SobolevNormSpec(ab1_pot_plan, 1.0, 1, flavor="inhomogeneous")  # p must be > 1
    with pytest.raises(SobolevError):
        SobolevNormSpec(ab1_pot_plan, 1.0, 2, flavor="integer")  # s not multiple of nu
    SobolevNormSpec(ab1_pot_plan, 2.0, np.inf)  # p = inf allowed


def test_s_zero_is_lp(ab1_pot_plan):
    f = make_test_family(ab1_pot_plan.grid, n=1, seed=SEED).gridfunctions()[0]
    f_int = GridFunction(
        ab1_pot_plan.grid, np.where(ab1_pot_plan.mask, f.values, 0.0)
    )
    got = sobolev_norm(SobolevNormSpec(ab1_pot_plan, 0.0, 2), f)
    assert got == pytest.approx(lp_norm(f_int, 2), abs=1e-10)


def test_monotone_in_order(ab1_pot_plan):
    fam = make_test_family(ab1_pot_plan.grid, n=5, seed=SEED)
    for f in fam.gridfunctions():
        norms = [
            sobolev_norm(SobolevNormSpec(ab1_pot_plan, s, 2), f)
            for s in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_fourier_oracle_1d(ab1_pot_plan):
    # independent classical route: ||(1+xi^2) fhat||_2 for a Gaussian
    g = ab1_pot_plan.grid
    x = g.points()[:, 0]
    f = GridFunction(g, np.exp(-(x**2)))
    disc = sobolev_norm(SobolevNormSpec(ab1_pot_plan, 2.0, 2), f)
    xi = np.linspace(0, 40, 200001)
    fhat = np.sqrt(np.pi) * np.exp(-(xi**2) / 4)
    oracle = np.sqrt(2 * np.trapezoid(((1 + xi**2) * fhat) ** 2, xi) / (2 * np.pi))
    assert disc == pytest.approx(oracle, rel=1e-2)


def test_interpolation_inequality(ab1_pot_plan):
    fam = make_test_family(ab1_pot_plan.grid, n=50, seed=SEED)
    a, b = 1.0, 3.0
    for f in fam.gridfunctions():
        na = sobolev_norm(SobolevNormSpec(ab1_pot_plan, a, 2), f)
        n0 = sobolev_norm(SobolevNormSpec(ab1_pot_plan, 0.0, 2), f)
        nb = sobolev_norm(SobolevNormSpec(ab1_pot_plan, b, 2), f)
        assert na <= n0 ** (1 - a / b) * nb ** (a / b) + 1e-8


def test_duality_self_adjoint(ab1_pot_plan):
    fam = make_test_family(ab1_pot_plan.grid, n=2, seed=SEED).gridfunctions()
    f, g = fam
    lhs = inner_product(fractional_apply(ab1_pot_plan, 1.2, f), g)
    rhs = inner_product(f, fractional_apply(ab1_pot_plan, 1.2, g))
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


# ---------------------------------------------------------------------------
# Equivalence probes


def test_equivalence_identical_specs(ab1_pot_plan):
    fam = make_test_family(ab1_pot_plan.grid, n=10, seed=SEED)
    spec = SobolevNormSpec(ab1_pot_plan, 2.0, 2)
    probe = equivalence_probe(spec, spec, fam)
    assert probe.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert probe.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_equivalence_integer_vs_spectral_h1(h1_pot_plan):
    fam = make_test_family(h1_pot_plan.grid, n=50, seed=SEED)
    probe = equivalence_probe(
        SobolevNormSpec(h1_pot_plan, 2.0, 2, "integer"),
        SobolevNormSpec(h1_pot_plan, 2.0, 2),
        fam,
    )
    assert probe.max_ratio / probe.min_ratio < 20.0


def test_equivalence_rockland_independence_h1(h1_pot_plan, h1_pot_plan_L2):
    # s = 2 through -L (power 1) and through L^2 (power 1/2)
    fam = make_test_family(h1_pot_plan.grid, n=50, seed=SEED)
    probe = equivalence_probe(
        SobolevNormSpec(h1_pot_plan, 2.0, 2),
        SobolevNormSpec(h1_pot_plan_L2, 2.0, 2),
        fam,
    )
    assert probe.max_ratio / probe.min_ratio < 20.0


def test_equivalence_regression_stable(h1_pot_plan):
    # same seed, fresh family objects: intervals must agree to 1e-10
    def run():
        fam = make_test_family(h1_pot_plan.grid, n=50, seed=SEED)
        p = equivalence_probe(
            SobolevNormSpec(h1_pot_plan, 2.0, 2, "integer"),
            SobolevNormSpec(h1_pot_plan, 2.0, 2),
            fam,
        )
        return p.min_ratio, p.max_ratio

    r1, r2 = run(), run()
    assert abs(r1[0] - r2[0]) < 1e-10 and abs(r1[1] - r2[1]) < 1e-10


def test_ratio_probe_validation():
    with pytest.raises(SobolevError):
        RatioProbe(0.0, 1.0)
    with pytest.raises(SobolevError):
        RatioProbe(2.0, 1.0)


# ---------------------------------------------------------------------------
# Embedding probes


def test_embedding_probe_h1(h1_pot_plan):
    fam = make_test_family(h1_pot_plan.grid, n=50, seed=SEED)
    sup, drift = embedding_probe(h1_pot_plan, 2, 4, 1.0, 0.0, fam)
    assert np.isfinite(sup) and sup > 0
    assert drift < 2.0


def test_embedding_probe_refuses_off_relation(h1_pot_plan):
    fam = make_test_family(h1_pot_plan.grid, n=2, seed=SEED)
    with pytest.raises(SobolevError):
        embedding_probe(h1_pot_plan, 2, 4, 2.0, 0.0, fam)  # b-a != Q(1/p-1/q)
    with pytest.raises(SobolevError):
        embedding_probe(h1_pot_plan, 4, 4, 1.0, 0.0, fam)  # p = q
    with pytest.raises(SobolevError):
        embedding_probe(h1_pot_plan, 4, 2, 1.0, 0.0, fam)  # p > q


def test_embedding_probe_classical_1d(ab1_pot_plan):
    # abelian line, Q = 1: b - a = 1/2 - 1/4
    fam = make_test_family(ab1_pot_plan.grid, n=20, seed=SEED)
    sup, drift = embedding_probe(ab1_pot_plan, 2, 4, 0.25, 0.0, fam)
    assert np.isfinite(sup) and drift < 2.0


def test_sup_embedding_probe_h1(h1_pot_plan):
    fam = make_test_family(h1_pot_plan.grid, n=50, seed=SEED)
    sup, drift = sup_embedding_probe(h1_pot_plan, 2, 3.0, fam)
    assert np.isfinite(sup) and sup > 0
    assert drift < 2.0


def test_sup_embedding_refusal(h1_pot_plan):
    fam = make_test_family(h1_pot_plan.grid, n=2, seed=SEED)
    with pytest.raises(SobolevError):
        sup_embedding_probe(h1_pot_plan, 2, 2.0, fam)  # s = Q/p
    with pytest.raises(SobolevError):
        sup_embedding_probe(h1_pot_plan, 2, 1.0, fam)  # s < Q/p


def test_sup_embedding_morrey_oracle(ab1_pot_plan):
    # classical line oracle: sharp constant of ||f||_inf^2 <= ||f||_2 ||f'||_2
    # routes; here the weaker statement that the probe stays near the
    # Fourier-computed value for the Gaussian family
    g = ab1_pot_plan.grid
    x = g.points()[:, 0]
    f = GridFunction(g, np.exp(-(x**2)))
    den = sobolev_norm(SobolevNormSpec(ab1_pot_plan, 1.0, 2), f)
    ratio = lp_norm(f, np.inf, mask=ab1_pot_plan.mask) / den
    xi = np.linspace(0, 40, 200001)
    fhat = np.sqrt(np.pi) * np.exp(-(xi**2) / 4)
    den_oracle = np.sqrt(
        2 * np.trapezoid((1 + xi**2) * fhat**2, xi) / (2 * np.pi)
    )
    assert ratio == pytest.approx(1.0 / den_oracle, rel=0.1)


@pytest.mark.parametrize("flavor, s, p", [
    ("inhomogeneous", 1.5, 2), ("homogeneous", 1.0, 3), ("integer", 2.0, 2), ("inhomogeneous", 2.0, np.inf),
])
@pytest.mark.parametrize("name", ["ab1", "h1"])
def test_stacked_norms_match_rows(name, flavor, s, p, request):
    # 11 rows cross a STACK_BLOCK boundary; each equals its one-row norm
    plan = request.getfixturevalue(f"{name}_pot_plan")
    spec = SobolevNormSpec(plan, s, p, flavor)
    fam = make_test_family(plan.grid, n=STACK_BLOCK + 3, seed=SEED)
    stacked = sobolev_norms(spec, fam.values)
    rows = [sobolev_norm(spec, f) for f in fam.gridfunctions()]
    assert stacked.shape == (len(rows),)
    assert np.allclose(stacked, rows, rtol=1e-12, atol=0)
    with pytest.raises(SobolevError, match="plan's grid"):
        sobolev_norms(spec, fam.values[:, :-1])


@pytest.mark.parametrize("order, products", [(2, 7), (4, 48)])
def test_integer_norms_share_word_suffixes(h1_law, order, products):
    # words that end in the same letters share that suffix's field
    # applications, one per distinct suffix: on heisenberg 7 per block at order 2 (XX,
    # XY, YX, YY, T; word by word takes 9) and 48 at order 4 (102); the norms
    # are bit-identical to applying each word on its own
    from gradecalc.calculus import sublaplacian
    from gradecalc.geometry import Grid, lp_norms
    from gradecalc.heatflow import spectral_plan

    plan = spectral_plan(sublaplacian(h1_law.algebra), h1_law, Grid((1.5, 1.5, 1.2), (11, 11, 13)))
    fam = make_test_family(plan.grid, n=STACK_BLOCK, seed=SEED)
    spec = SobolevNormSpec(plan, order, 2, "integer")
    fm = plan.field_matrices
    words = words_of_degree(h1_law.algebra.weights, order)
    reference = lp_norms(plan.grid, fam.values, 2)
    for word in words:
        reference += lp_norms(plan.grid, np.ascontiguousarray(fm.apply_word(word, fam.values.T).T), 2)
    field, calls = fm.apply_field, []
    fm.apply_field = lambda j, values: calls.append(j) or field(j, values)
    try:
        norms = sobolev_norms(spec, fam.values)
    finally:
        del fm.apply_field
    assert np.array_equal(norms, reference)
    suffixes = {w[len(w) - d :] for w in words for d in range(1, len(w) + 1)}
    assert len(calls) == len(suffixes) == products


def test_probes_transform_stacks(ab1_pot_plan, monkeypatch):
    # no Sobolev probe sends the family through analyze one vector at a time,
    # and no stack is larger than a block
    cls = type(ab1_pot_plan)
    analyze, shapes = cls.analyze, []
    monkeypatch.setattr(cls, "analyze", lambda self, v: shapes.append(np.shape(v)) or analyze(self, v))
    fam = make_test_family(ab1_pot_plan.grid, n=20, seed=SEED)
    spec = SobolevNormSpec(ab1_pot_plan, 2.0, 2)
    equivalence_probe(SobolevNormSpec(ab1_pot_plan, 2.0, 2, "integer"), spec, fam)
    embedding_probe(ab1_pot_plan, 2, 4, 0.25, 0.0, fam)
    sup_embedding_probe(ab1_pot_plan, 2, 1.0, fam)
    assert shapes and all(len(shape) == 2 and shape[0] <= STACK_BLOCK for shape in shapes)


def test_family_samples_its_members_once(ab1_pot_plan):
    # one read-only (members, grid size) array holds the family: every call
    # and every probe reads it, and the functions are views of its rows
    fam = make_test_family(ab1_pot_plan.grid, n=3, seed=SEED)
    values = fam.values
    assert values.shape == (3, ab1_pot_plan.grid.size) and not values.flags.writeable
    equivalence_probe(SobolevNormSpec(ab1_pot_plan, 1.0, 2), SobolevNormSpec(ab1_pot_plan, 2.0, 2), fam)
    assert fam.values is values
    first, again = fam.gridfunctions(), fam.gridfunctions()
    assert again is not first  # callers get their own list
    for row, f, g in zip(values, first, again):
        assert f.values.ctypes.data == g.values.ctypes.data == row.ctypes.data
        assert f.values.base is not None and np.array_equal(f.values, row)
    # a family built from a list of rows stacks them once, into its own array
    sub = type(fam)(grid=fam.grid, members=[fam.members[2], fam.members[0]], seed=fam.seed)
    assert np.array_equal(sub.values, values[[2, 0]]) and not sub.values.flags.writeable
    assert sub.values is sub.values and not np.shares_memory(sub.values, values)


def _reference_members(grid, n, seed):
    """(center, width, lin, quad) of the first n bumps, drawn as ``make_test_family`` draws them."""
    rng = np.random.default_rng(seed)
    hw = np.asarray(grid.half_widths, dtype=float)
    members = []
    for _ in range(n):
        center = rng.uniform(-0.25, 0.25, grid.ndim) * hw
        width = rng.uniform(0.12, 0.3, grid.ndim) * hw
        lin = rng.standard_normal(grid.ndim) * 0.5
        quad = rng.standard_normal(grid.ndim) * 0.25
        members.append((center, width, lin, quad))
    return members


def _reference_samples(grid, r, weights, members):
    """Each bump f at the nodes of ``grid`` moved by D_r: one row of f(D_r x) per member."""
    axes = [np.linspace(-R, R, N) for R, N in zip(grid.half_widths, grid.counts)]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    x = nodes * float(r) ** np.asarray(weights, dtype=float)
    rows = []
    for center, width, lin, quad in members:
        t = (x - center) / width
        rows.append((1.0 + t @ lin + (t**2) @ quad) * np.exp(-np.sum(t**2, axis=-1)))
    return np.array(rows)


@pytest.mark.parametrize("plan_name", ["ab1_pot_plan", "ab3_pot_plan", "h1_pot_plan"])
def test_embedding_drifts_equal_resampled_members(plan_name, request):
    # on the dilation image D_{1/r} of the grid, f(D_r x) sampled at the
    # image nodes is the base sample bit for bit, so the drifts measured on
    # the family's rows equal those of members resampled at every scale
    plan = request.getfixturevalue(plan_name)
    alg = plan.law.algebra
    Q = alg.homogeneous_dimension
    b, s = Q * (0.5 - 0.25), Q / 2.0 + 1.0  # the parameters of `gradecalc probe`
    fam = make_test_family(plan.grid, n=N_DILATED, seed=SEED)
    members = _reference_members(plan.grid, N_DILATED, SEED)
    emb, sup = [], []
    for r in DILATIONS:
        plan_r = dilated_plan(plan, 1.0 / r)
        rows = _reference_samples(plan_r.grid, r, alg.weights, members)
        assert np.array_equal(rows, fam.values)
        num, den, den_s = (
            sobolev_norms(SobolevNormSpec(plan_r, order, p, "homogeneous"), rows)
            for order, p in ((0.0, 4), (b, 2), (s, 2))
        )
        emb.append(num / den)
        sup.append((lp_norms(plan_r.grid, rows, np.inf, mask=plan_r.mask) / den_s) / float(r) ** (Q / 2 - s))

    def drift(vals):
        vals = np.array(vals)
        return float(np.max(vals.max(axis=0) / vals.min(axis=0)))

    assert embedding_probe(plan, 2, 4, b, 0.0, fam)[1] == drift(emb)
    assert sup_embedding_probe(plan, 2, s, fam)[1] == drift(sup)


def test_sharpness_table_equals_resampled_bump(h1t_law):
    # each r's bump f_r = f(D_r x), sampled at the nodes of the dilation
    # image D_{1/r} of the 25^3 grid, is the base sample bit for bit
    weights = h1t_law.algebra.weights
    base = Grid((3.0, 3.0, 3.0), (25, 25, 25))
    bump = [(np.zeros(3), np.full(3, 0.9), np.zeros(3), np.zeros(3))]
    (f,) = _reference_samples(base, 1.0, weights, bump)
    L = -(DiffOpExpr.generator(0) ** 2) - (DiffOpExpr.generator(1) ** 2)
    expected = {6: [], 8: [], 10: []}
    for r in (1.0, 2.0, 4.0):
        grid_r = base.dilated(1.0 / r, weights)
        (fr,) = _reference_samples(grid_r, r, weights, bump)
        assert np.array_equal(fr, f)
        fm = FieldMatrices(h1t_law, grid_r)
        num = lp_norm(GridFunction(grid_r, fm.apply_expr(L, fr)), 2)
        for order, col in expected.items():
            den = lp_norm(GridFunction(grid_r, fr), 2)
            for word in words_of_degree(weights, order):
                den += lp_norm(GridFunction(grid_r, fm.apply_word(word, fr)), 2)
            col.append(num / den)
    assert sharpness_probe_H1tilde(law=h1t_law) == {order: tuple(col) for order, col in expected.items()}


def test_plan_builds_field_matrices_once(ab1_pot_plan, monkeypatch):
    # integer norms, also inside a probe, share one FieldMatrices per plan;
    # a dilated plan lives on another grid and builds its own
    import gradecalc.heatflow as heatflow

    built = []

    class Counting(heatflow.FieldMatrices):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(heatflow, "FieldMatrices", Counting)
    plan = heatflow.dilated_plan(ab1_pot_plan, 2.0)
    fam = make_test_family(plan.grid, n=3, seed=SEED)
    spec = SobolevNormSpec(plan, 2.0, 2, "integer")
    norms = [sobolev_norm(spec, f) for f in fam.gridfunctions() for _ in range(2)]
    assert norms[0::2] == norms[1::2]
    equivalence_probe(spec, SobolevNormSpec(plan, 2.0, 2), fam)
    assert len(built) == 1
    assert plan.field_matrices.grid == plan.grid != ab1_pot_plan.grid
    with pytest.raises(SobolevError, match="plan's grid"):
        sobolev_norm(SobolevNormSpec(ab1_pot_plan, 2.0, 2, "integer"), fam.gridfunctions()[0])


# ---------------------------------------------------------------------------
# Sharpness table on weights (3, 5, 8)


def test_sharpness_table(h1t_law):
    table = sharpness_probe_H1tilde(law=h1t_law)
    col10 = table[10]
    assert max(col10) / min(col10) < 5.0
    for s in (6, 8):
        col = table[s]
        assert all(col[i] < col[i + 1] for i in range(len(col) - 1))


def test_sharpness_requires_358_weights(h1_law):
    with pytest.raises(SobolevError):
        sharpness_probe_H1tilde(law=h1_law)
