"""Exact group-law checks: associativity, inverses, dilation homogeneity."""

import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gradecalc.algebra import (
    MAX_BCH_STEP,
    AlgebraError,
    GradedLieAlgebra,
    GroupFormatError,
    Poly,
    algebra_from_dict,
    bch_group_law,
    builtin_group,
    invert,
    validate_algebra,
)

BUILTINS = ["abelian1", "abelian2", "abelian3", "heisenberg", "heisenberg358"]

# groups past step 2: Engel (step 3) and the filiform algebra [X1, Xk] = X(k+1)
# of dimension 7, whose step 6 is the deepest BCH truncation
CUSTOM = {
    "engel": {"n": 4, "weights": [1, 1, 2, 3], "brackets": [[1, 2, 3, 1, 1], [1, 3, 4, 1, 1]]},
    "filiform7": {
        "n": 7,
        "weights": [1, 1, 2, 3, 4, 5, 6],
        "brackets": [[1, k, k + 1, 1, 1] for k in range(2, 7)],
    },
}
GROUPS = BUILTINS + list(CUSTOM)


def algebra(name):
    return algebra_from_dict(CUSTOM[name]) if name in CUSTOM else builtin_group(name)


def rationals():
    return st.fractions(
        min_value=-3, max_value=3, max_denominator=6
    )


@pytest.fixture(scope="module")
def laws():
    return {name: bch_group_law(algebra(name)) for name in GROUPS}


@pytest.mark.parametrize("name", BUILTINS)
def test_validate_builtin(name):
    rep = validate_algebra(builtin_group(name))
    assert rep.ok, str(rep)


def test_heisenberg_law_closed_form(laws):
    # (x,y,u)(x',y',u') = (x+x', y+y', u+u'+(xy'-yx')/2) for weights (1,1,2)
    law = laws["heisenberg"]
    x = (Fraction(1, 2), Fraction(-1, 3), Fraction(2))
    y = (Fraction(1, 5), Fraction(3, 7), Fraction(-1, 2))
    got = law.multiply_exact(x, y)
    assert got[0] == x[0] + y[0]
    assert got[1] == x[1] + y[1]
    assert got[2] == x[2] + y[2] + (x[0] * y[1] - x[1] * y[0]) / 2


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_associativity_exact(name, data, laws):
    law = laws[name]
    n = law.algebra.n
    pt = lambda: tuple(data.draw(rationals()) for _ in range(n))
    x, y, z = pt(), pt(), pt()
    left = law.multiply_exact(law.multiply_exact(x, y), z)
    right = law.multiply_exact(x, law.multiply_exact(y, z))
    assert left == right


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_inverse_exact(name, data, laws):
    law = laws[name]
    n = law.algebra.n
    x = tuple(data.draw(rationals()) for _ in range(n))
    zero = (Fraction(0),) * n
    assert law.multiply_exact(x, invert(law, x)) == zero
    assert law.multiply_exact(invert(law, x), x) == zero
    assert law.multiply_exact(x, zero) == x
    assert law.multiply_exact(zero, x) == x


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_dilation_homomorphism_exact(name, data, laws):
    # D_r(xy) = (D_r x)(D_r y) exactly, for rational r > 0
    law = laws[name]
    n = law.algebra.n
    w = law.algebra.weights
    r = data.draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=4))
    x = tuple(data.draw(rationals()) for _ in range(n))
    y = tuple(data.draw(rationals()) for _ in range(n))
    dil = lambda p: tuple(v * r ** int(wj) for v, wj in zip(p, w))
    assert dil(law.multiply_exact(x, y)) == law.multiply_exact(dil(x), dil(y))


def test_multiply_arrays_matches_exact(laws):
    rng = np.random.default_rng(0xC0FFEE)
    for name in ["heisenberg358", "engel", "filiform7"]:
        law = laws[name]
        n = law.algebra.n
        x = rng.uniform(-1, 1, (40, n))
        y = rng.uniform(-1, 1, (40, n))
        arr = law.multiply_arrays(x, y)
        for i in range(0, 40, 10):
            ex = law.multiply_exact(
                tuple(Fraction(v).limit_denominator(10**12) for v in x[i]),
                tuple(Fraction(v).limit_denominator(10**12) for v in y[i]),
            )
            assert np.allclose(arr[i], [float(v) for v in ex], atol=1e-9), name


def test_grading_violation_detected():
    bad = {
        "n": 3,
        "weights": [1, 1, 1],
        "brackets": [[1, 2, 3, 1, 1]],
        "labels": ["X", "Y", "T"],
    }
    alg = algebra_from_dict(bad)
    rep = validate_algebra(alg)
    assert not rep.ok
    with pytest.raises(AlgebraError):
        bch_group_law(alg)


def test_jacobi_violation_detected():
    # two commuting pairs feeding the same center inconsistently
    bad = {
        "n": 4,
        "weights": [1, 1, 1, 2],
        "brackets": [[1, 2, 4, 1, 1], [1, 3, 2, 1, 1]],
    }
    alg = algebra_from_dict(bad)
    rep = validate_algebra(alg)
    assert not rep.ok


def test_bad_group_format():
    with pytest.raises(GroupFormatError):
        algebra_from_dict({"n": 2})
    with pytest.raises(GroupFormatError):
        algebra_from_dict({"n": 2, "weights": [1, 1], "brackets": [[1, 2, 1, 1]]})
    # a zero denominator, or an index outside 1..n
    for entry in ([1, 2, 3, 1, 0], [1, 2, 4, 1, 1], [0, 2, 3, 1, 1]):
        with pytest.raises(GroupFormatError):
            algebra_from_dict({"n": 3, "weights": [1, 1, 2], "brackets": [entry]})
    # numbers that are not whole are refused, not truncated
    for weights in ([1, 1, 2.7], [1, 1, "2"], [1, 1, True]):
        with pytest.raises(GroupFormatError):
            algebra_from_dict({"n": 3, "weights": weights})
    assert algebra_from_dict({"n": 3.0, "weights": [1, 1, 2.0]}).weights == (1, 1, 2)
    with pytest.raises(GroupFormatError):
        builtin_group("no_such_group")


def test_homogeneous_dimension():
    assert builtin_group("heisenberg").homogeneous_dimension == 4
    assert builtin_group("heisenberg358").homogeneous_dimension == 16
    assert builtin_group("abelian3").homogeneous_dimension == 3


def test_filiform_step6_law_builds_fast():
    alg = algebra("filiform7")
    assert alg.nilpotency_step() == MAX_BCH_STEP
    t0 = time.perf_counter()
    bch_group_law(alg)
    assert time.perf_counter() - t0 < 1.0


def test_validate_reports_out_of_range_entries():
    # built directly, past algebra_from_dict: reported as data, not raised
    alg = GradedLieAlgebra(
        n=3,
        weights=(1, 1, 2),
        brackets={(0, 1, 3): Fraction(1), (0, 1, 2): Fraction(1), (-1, 0, 2): Fraction(2)},
        labels=("X", "Y", "T"),
    )
    rep = validate_algebra(alg)
    assert sorted(v.triple for v in rep.violations if v.kind == "index") == [(-1, 0, 2), (0, 1, 3)]
    assert all(v.kind == "index" for v in rep.violations)
    with pytest.raises(AlgebraError):
        bch_group_law(alg)


def _random_poly(rng, nvars):
    terms = {}
    for _ in range(int(rng.integers(0, 6))):
        e = tuple(int(k) for k in rng.integers(0, 3, nvars))
        terms[e] = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
    return Poly(nvars, terms)


def test_poly_matches_sympy(as_sympy):
    # product, sum, derivative, composition and numpy evaluation against sympy
    rng = np.random.default_rng(20240521)
    for trial in range(40):
        nvars = int(rng.integers(1, 7))
        gens = sp.symbols(f"t1:{nvars + 1}")
        p, q = _random_poly(rng, nvars), _random_poly(rng, nvars)
        P, Q = as_sympy(p, gens), as_sympy(q, gens)
        assert sp.expand(as_sympy(p * q, gens) - P * Q) == 0
        assert sp.expand(as_sympy(p - 3 * q + 1, gens) - (P - 3 * Q + 1)) == 0
        i = int(rng.integers(0, nvars))
        assert sp.expand(as_sympy(p.diff(i), gens) - sp.diff(P, gens[i])) == 0
        assert p.involves(i) == (gens[i] in P.free_symbols)

        m = int(rng.integers(1, 4))
        hs = sp.symbols(f"s1:{m + 1}")
        subs = [_random_poly(rng, m) for _ in range(nvars)]
        got = as_sympy(p.compose(subs), hs)
        want = P.subs(dict(zip(gens, [as_sympy(r, hs) for r in subs])), simultaneous=True)
        assert sp.expand(got - want) == 0

        pts = rng.uniform(-1.5, 1.5, (nvars, 17))
        want = sp.lambdify(gens, P, "numpy")(*pts)
        np.testing.assert_allclose(p.evaluate(pts), want, rtol=1e-12, atol=1e-12)
        exact = [Fraction(int(v), 7) for v in rng.integers(-9, 10, nvars)]
        assert p.at(exact) == P.subs(dict(zip(gens, exact)))
