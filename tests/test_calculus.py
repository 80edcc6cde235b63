"""Left-invariant fields, finite differences, operator expressions."""

import functools
import itertools

import numpy as np
import pytest
import sympy as sp

from gradecalc.algebra import algebra_from_dict, bch_group_law, builtin_group
from gradecalc.calculus import (
    CalculusError,
    DiffOpExpr,
    FieldMatrices,
    ParseError,
    RocklandSpec,
    StratificationError,
    _diff_matrix_1d,
    build_rockland_example,
    character_form,
    characters_missed,
    derivative_matrix,
    discretize,
    fd_weights,
    field_commutator_defect,
    homogeneous_degree,
    is_stratified,
    left_invariant_fields,
    normal_form,
    parse_diffop,
    power,
    sublaplacian,
)
from gradecalc.geometry import Grid


def test_fd_weights_first_derivative():
    # 4th-order central stencil for f'
    w = fd_weights(0.0, np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 1)
    assert np.allclose(w, [1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12])


def _diff_matrix_by_rows(n, dx, order, acc, periodic):
    """Each row's stencil from its own Fornberg weights at the grid's coordinates."""
    width = 2 * ((order + 1) // 2) - 1 + acc
    half = (width - 1) // 2
    M = np.zeros((n, n))
    for i in range(n):
        lo = i - half if periodic else min(max(i - half, 0), n - width)
        nodes = np.arange(lo, lo + width)
        np.add.at(M[i], nodes % n, fd_weights(i * dx, nodes * dx, order))
    return M


@pytest.mark.parametrize("periodic", [False, True], ids=["box", "periodic"])
@pytest.mark.parametrize("acc", [4, 8])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_diff_matrix_matches_per_row_weights(order, acc, periodic):
    # the table of window positions gives every row's stencil, scaled by dx^-order
    for n, dx in itertools.product((11, 23, 64), (0.1, 0.37, 1.3)):
        ref = _diff_matrix_by_rows(n, dx, order, acc, periodic)
        M = _diff_matrix_1d(n, dx, order, acc, periodic)
        scale = np.abs(ref).max(axis=1)
        assert np.all(np.abs(M - ref).max(axis=1) <= 1e-12 * scale), (n, dx)


def test_partial_matrix_accuracy():
    g = Grid((2.0,), (81,))
    x = g.points()[:, 0]
    D = derivative_matrix(g, (1,))
    err = np.max(np.abs(D @ np.sin(x) - np.cos(x)))
    assert err < 1e-5


def test_partial_matrix_periodic_axis():
    # on a periodic axis every row is the central stencil, wrapped around
    P = 2 * np.pi
    g = Grid((20 * P / 41,), (41,), periodic=(0,))
    x = g.points()[:, 0]
    D = derivative_matrix(g, (1,))
    assert np.max(np.abs(D @ np.sin(x) - np.cos(x))) < 1e-4
    assert np.allclose(D @ np.ones(g.size), 0.0, atol=1e-12)


def test_left_invariant_fields_heisenberg(h1_law, as_sympy):
    # X = d/dx - (y/2) d/du, Y = d/dy + (x/2) d/du, T = d/du
    x, y, u = xs = sp.symbols("x y u")
    X, Y, T = (tuple(as_sympy(a, xs) for a in f.coeffs) for f in left_invariant_fields(h1_law))
    assert X == (1, 0, -y / 2)
    assert Y == (0, 1, x / 2)
    assert T == (0, 0, 1)


def test_field_commutators_match_brackets(h1_law):
    assert field_commutator_defect(h1_law) < 1e-9


def test_field_commutators_weights_358(h1t_law):
    assert field_commutator_defect(h1t_law) < 1e-9


def test_diffop_algebra():
    X, Y = DiffOpExpr.generator(0), DiffOpExpr.generator(1)
    expr = (X + Y) * (X - Y)
    # non-commutative expansion: XX - XY + YX - YY
    assert expr.word_degrees((1, 1)) == {2}
    assert (X**3).max_word_length() == 3
    with pytest.raises((TypeError, ValueError)):
        X * "bad"


def test_homogeneous_degree():
    X, Y, T = (DiffOpExpr.generator(j) for j in range(3))
    w = (1, 1, 2)
    assert homogeneous_degree(-(X**2) - Y**2, w) == 2
    assert homogeneous_degree(T, w) == 2
    assert homogeneous_degree(X + T, w) is None
    assert homogeneous_degree(DiffOpExpr(), w) is None
    assert homogeneous_degree(2.0 * DiffOpExpr.identity(), w) is None


def test_parse_diffop():
    expr = parse_diffop("X^4 + Y^4 - 1*T^2", ["X", "Y", "T"])
    assert homogeneous_degree(expr, (1, 1, 2)) == 4
    with pytest.raises(ParseError):
        parse_diffop("X^", ["X"])
    with pytest.raises(ParseError):
        parse_diffop("Z^2", ["X", "Y"])


# Signs belong to terms, never to numbers, whatever the whitespace; exponents
# are whole numbers and a '*' stands between two factors.
@pytest.mark.parametrize(
    "text, terms",
    [
        ("-X^2-2*Y^2", {(0, 0): -1.0, (1, 1): -2.0}),
        ("-X^2 - 2*Y^2", {(0, 0): -1.0, (1, 1): -2.0}),
        ("-X^2-Y^2+1", {(0, 0): -1.0, (1, 1): -1.0, (): 1.0}),
        ("X^2+Y^2-1", {(0, 0): 1.0, (1, 1): 1.0, (): -1.0}),
        ("X^4+Y^4+1", {(0,) * 4: 1.0, (1,) * 4: 1.0, (): 1.0}),
        ("X^4 + Y^4 - 1*T^2", {(0,) * 4: 1.0, (1,) * 4: 1.0, (2, 2): -1.0}),
        ("X^4+Y^4-T^2", {(0,) * 4: 1.0, (1,) * 4: 1.0, (2, 2): -1.0}),
        ("-X^2", {(0, 0): -1.0}),
        ("X^2+Y^2+X*Y+Y*X", {(0, 0): 1.0, (1, 1): 1.0, (0, 1): 1.0, (1, 0): 1.0}),
        ("X^2+Y^2+T", {(0, 0): 1.0, (1, 1): 1.0, (2,): 1.0}),
        ("1/2*X^2", {(0, 0): 0.5}),
        ("X^-2", ParseError),
        ("X^2.5", ParseError),
        ("X^1/2", ParseError),
        ("X^", ParseError),
        ("2*-X^2", ParseError),
        ("X^2*+Y^2", ParseError),
        ("X^2*", ParseError),
        ("*X^2", ParseError),
        ("1/0*X^2", ParseError),
    ],
)
def test_parse_diffop_table(text, terms):
    if terms is ParseError:
        with pytest.raises(ParseError):
            parse_diffop(text, ["X", "Y", "T"])
    else:
        assert parse_diffop(text, ["X", "Y", "T"]).terms == terms


def test_sublaplacian_heisenberg(h1_law):
    spec = sublaplacian(h1_law.algebra)
    assert spec.nu == 2


def test_sublaplacian_requires_stratified(h1t_law):
    assert not is_stratified(h1t_law.algebra)
    with pytest.raises(StratificationError):
        sublaplacian(h1t_law.algebra)


@pytest.mark.parametrize(
    "group, op, missed",
    [
        ("heisenberg", "-X^2-Y^2", []),
        ("heisenberg", "X^4+Y^4-T^2", []),
        ("heisenberg", "-X^2", ["Y"]),
        ("heisenberg", "X^4-T^2", ["Y"]),
        # T = [X, Y] is sent to 0 by every 1-D representation: no T word is needed or counts
        ("heisenberg", "-T^2", ["X", "Y"]),
        ("abelian2", "-X^2", ["Y"]),
        ("abelian2", "X^4", ["Y"]),
        # only top-degree words count: Y^2 is below the degree 4 of X^4
        ("abelian2", "X^4-Y^2", ["Y"]),
        ("abelian2", "-X^2-Y^2-1/2*X*Y-1/2*Y*X", []),
        ("abelian3", "-X^2", ["Y", "Z"]),
        ("abelian3", "-X^2-Y^2-Z^2+1", []),
    ],
)
def test_characters_missed(group, op, missed):
    # the symbol on the 1-D representation along X_j is c (i xi)^k for the
    # top-degree pure power c X_j^k, and vanishes when there is none
    alg = builtin_group(group)
    expr = parse_diffop(op, alg.labels)
    assert [alg.labels[j] for j in characters_missed(expr, alg)] == missed


@pytest.mark.parametrize(
    "group, op, form",
    [
        ("heisenberg", "-X^2-Y^2", [[-1, 0], [0, -1]]),
        # -(X - Y)^2: the symbol (xi - eta)^2 vanishes at xi = eta
        ("abelian2", "-X^2+X*Y+Y*X-Y^2", [[-1, 1], [1, -1]]),
        ("abelian2", "-X^2-Y^2+1/2*X*Y+1/2*Y*X", [[-1, 0.5], [0.5, -1]]),
        # one word XY counts half on each side of the diagonal
        ("abelian2", "-X^2-Y^2+X*Y", [[-1, 0.5], [0.5, -1]]),
        # the constant is below the top degree
        ("abelian3", "-X^2-Y^2-Z^2+1", [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]),
        # top-degree words of length 4, or none over the letters no bracket reaches
        ("heisenberg", "X^4+Y^4-T^2", None),
        ("heisenberg", "-T^2", None),
    ],
)
def test_character_form(group, op, form):
    # the symbol on the 1-D representation X_j -> i xi_j of a length-2 word
    # (j, k) is -xi_j xi_k; T = [X, Y] is sent to 0, so its rows are left out
    alg = builtin_group(group)
    C = character_form(parse_diffop(op, alg.labels), alg)
    assert (C is None) if form is None else np.array_equal(C, form)


def test_rockland_example_weights_358(h1t_law):
    # nu0 = lcm(3,5,8) = 120; degree 240; term exponents 2*nu0/w_j
    spec = build_rockland_example(h1t_law.algebra, 120)
    assert spec.nu == 240
    with pytest.raises(CalculusError):
        build_rockland_example(h1t_law.algebra, 7)
    with pytest.raises(CalculusError):
        build_rockland_example(h1t_law.algebra, 120, c=[1.0, -1.0, 1.0])


def test_power():
    X = DiffOpExpr.generator(0)
    spec = RocklandSpec(expr=-(X**2), nu=2)
    assert power(spec, 2).nu == 4
    assert power(RocklandSpec(expr=X - X**2, nu=None), 2).nu is None
    with pytest.raises(CalculusError):
        power(spec, 0)


def test_apply_diffop_heisenberg_exact(h1_law):
    # X f for f = x^2 + y*u: X = dx - (y/2) du -> 2x - y^2/2
    g = Grid((1.5, 1.5, 1.2), (13, 13, 17))
    pts = g.points()
    x, y, u = pts[:, 0], pts[:, 1], pts[:, 2]
    X = DiffOpExpr.generator(0)
    got = FieldMatrices(h1_law, g).apply_expr(X, x**2 + y * u)
    mask = g.interior_mask(0)  # stencils are exact on polynomials of low degree
    assert np.allclose(got[mask], (2 * x - y**2 / 2)[mask], atol=1e-9)


def test_discretized_sublaplacian_annihilates_constants(h1_law):
    g = Grid((1.0, 1.0, 1.0), (9, 9, 9))
    A = discretize(sublaplacian(h1_law.algebra).expr, h1_law, g)
    ones = np.ones(g.size)
    # every operator word ends in a derivative: constants map to zero exactly
    assert np.max(np.abs(A @ ones)) < 1e-10


def test_field_matrices_cache_consistency(h1_law):
    # the fields applied axis by axis agree with the matrix of each letter
    g = Grid((1.0, 1.0, 1.0), (9, 9, 9))
    fm = FieldMatrices(h1_law, g)
    expr = sublaplacian(h1_law.algebra).expr
    f = np.random.default_rng(0xC0FFEE).standard_normal(g.size)
    direct = fm.apply_expr(expr, f)
    letters = [discretize(DiffOpExpr.generator(j), h1_law, g) for j in range(3)]
    via_matrix = sum(c * functools.reduce(lambda v, j: letters[j] @ v, reversed(w), f) for w, c in expr.terms.items())
    assert np.allclose(direct, via_matrix, atol=1e-10)


def _engel_law():
    alg = algebra_from_dict(
        {
            "n": 4,
            "weights": [1, 1, 2, 3],
            "brackets": [[1, 2, 3, 1, 1], [1, 3, 4, 1, 1]],
            "labels": ["X", "Y", "Z", "W"],
        }
    )
    return bch_group_law(alg)


@pytest.mark.parametrize("group", ["heisenberg", "engel"])
def test_normal_form_matches_fields(group, h1_law, as_sympy):
    # sum_alpha c_alpha d^alpha p = X_w p for every word of length <= 4,
    # with the fields applied symbolically to fixed polynomials p
    law = h1_law if group == "heisenberg" else _engel_law()
    fields = left_invariant_fields(law)
    xs = sp.symbols(f"x1:{law.algebra.n + 1}")

    def poly(e):
        return sp.Poly(e, *xs, domain="QQ")

    x, y, z = xs[0], xs[1], xs[-1]
    polys = [poly(e) for e in (x**4 * y**2 + z**3, x * y**3 * z**2 - 3 * x**2 * z, sp.prod(xs) ** 2 + y**4 * z)]
    coeffs = [[poly(as_sympy(a, xs)) for a in fld.coeffs] for fld in fields]

    @functools.lru_cache(maxsize=None)
    def d(alpha, i):
        p = polys[i]
        return p.diff(*[(xk, a) for xk, a in zip(xs, alpha) if a]) if any(alpha) else p

    @functools.lru_cache(maxsize=None)
    def fields_on(word, i):
        # X_w p, applied letter by letter from the right
        if not word:
            return polys[i]
        g = fields_on(word[1:], i)
        return sum((a * g.diff(xk) for a, xk in zip(coeffs[word[0]], xs)), poly(0))

    for length in range(5):
        for word in itertools.product(range(law.algebra.n), repeat=length):
            form = [(alpha, poly(as_sympy(c, xs))) for alpha, c in normal_form(word, fields).items()]
            for i, p in enumerate(polys):
                got = sum((c * d(alpha, i) for alpha, c in form), poly(0))
                assert got == fields_on(word, i), (word, p)


def test_long_words_enter_through_their_box_matrix(h1_law, monkeypatch):
    # a word whose pairs multiply out into more than MAX_TERMS Kronecker
    # terms is applied pair by pair to the unit vectors of the box instead:
    # the same matrix as the expanded product
    import gradecalc.calculus as calculus

    g = Grid((1.5, 1.5, 1.2), (11, 11, 15))
    expr = power(sublaplacian(h1_law.algebra), 2).expr  # 9 terms per word
    box = (slice(5, 6), slice(4, 6), slice(4, 11))
    expanded = discretize(expr, h1_law, g, box)
    monkeypatch.setattr(calculus, "MAX_TERMS", 8)
    through_box = discretize(expr, h1_law, g, box)
    assert through_box.counts == expanded.counts == (1, 2, 7)
    assert len(through_box.terms) == 4  # one per pair of nodes of the leading axes
    ref = expanded.toarray()
    assert np.abs(through_box.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
    with pytest.raises(CalculusError, match="more than 8"):
        discretize(expr, h1_law, g, (slice(4, 7), slice(4, 7), slice(4, 11)))
