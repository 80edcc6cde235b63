"""Graded nilpotent Lie algebras and their exact polynomial group law.

The group law in exponential coordinates of the first kind is obtained from
the Baker-Campbell-Hausdorff series in Dynkin form, truncated at the
nilpotency step.  All coefficients are exact rationals, so the group axioms
(identity, inverse, associativity, dilation homogeneity) can be asserted as
polynomial identities rather than sampled numerically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
import sympy as sp

#: Largest nilpotency step for which BCH terms are generated.
MAX_BCH_STEP = 6


class AlgebraError(ValueError):
    """Invalid graded Lie algebra data."""


class GroupFormatError(ValueError):
    """Malformed group definition file."""


class UnsupportedStepError(AlgebraError):
    """Nilpotency step beyond the supported BCH truncation depth."""


# ---------------------------------------------------------------------------
# Core data types


@dataclass(frozen=True)
class GradedLieAlgebra:
    """A graded nilpotent Lie algebra given by exact structure constants.

    ``brackets`` maps 0-based index triples (j, k, l) to the rational
    coefficient of X_l in [X_j, X_k].  Entries are stored as supplied;
    the antisymmetric completion is applied on lookup.
    """

    n: int
    weights: tuple
    brackets: dict
    labels: tuple

    def __post_init__(self):
        if self.n <= 0:
            raise AlgebraError("dimension must be positive")
        if len(self.weights) != self.n or len(self.labels) != self.n:
            raise AlgebraError("weights/labels length must equal dimension")

    def nonzero_constants(self):
        """Iterate the completed antisymmetric table as (j, k, l, c)."""
        seen = set()
        for (j, k, l), c in self.brackets.items():
            if c == 0:
                continue
            for jj, kk, cc in ((j, k, c), (k, j, -c)):
                if (jj, kk, l) not in seen:
                    seen.add((jj, kk, l))
                    yield jj, kk, l, cc

    def bracket_vec(self, u, v):
        """[u, v] for coefficient vectors u, v (any commutative ring)."""
        w = [0] * self.n
        for j, k, l, c in self.nonzero_constants():
            t = u[j] * v[k]
            if t != 0:
                w[l] = w[l] + c * t
        return w

    @property
    def homogeneous_dimension(self):
        return int(sum(self.weights))

    def nilpotency_step(self):
        """Smallest s such that all (s+1)-fold brackets vanish."""
        basis = [
            [Fraction(1) if i == j else Fraction(0) for i in range(self.n)]
            for j in range(self.n)
        ]
        current = basis
        step = 1
        # grading forces termination within max(weights) generations
        cap = max(self.weights) + 1
        while step <= cap:
            nxt = []
            for e in basis:
                for v in current:
                    w = self.bracket_vec(e, v)
                    if any(c != 0 for c in w):
                        nxt.append(w)
            if not nxt:
                return step
            current = nxt
            step += 1
        raise AlgebraError("bracket iteration did not terminate; grading violated?")


# ---------------------------------------------------------------------------
# Validation


@dataclass
class Violation:
    kind: str
    triple: tuple
    message: str


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, triple, message):
        self.violations.append(Violation(kind, triple, message))

    def __str__(self):
        if self.ok:
            return "all invariants hold"
        return "\n".join(f"[{v.kind}] {v.triple}: {v.message}" for v in self.violations)


def validate_algebra(alg: GradedLieAlgebra) -> ValidationReport:
    """Check antisymmetry, grading compatibility and the Jacobi identity.

    Violations are reported as data; nothing raises.
    """
    rep = ValidationReport()
    w = alg.weights

    for j in range(alg.n):
        if w[j] <= 0 or int(w[j]) != w[j]:
            rep.add("weights", (j,), f"weight {w[j]} is not a positive integer")
    for j in range(alg.n - 1):
        if w[j] > w[j + 1]:
            rep.add("weights", (j, j + 1), "weights must be sorted ascending")

    for (j, k, l), c in alg.brackets.items():
        if not (0 <= j < alg.n and 0 <= k < alg.n and 0 <= l < alg.n):
            rep.add("index", (j, k, l), "index out of range")
            continue
        if j == k and c != 0:
            rep.add("antisymmetry", (j, k, l), "[X,X] must vanish")
        other = alg.brackets.get((k, j, l))
        if other is not None and other != -c:
            rep.add("antisymmetry", (j, k, l), f"c_kj^l = {other} != -c_jk^l")

    for j, k, l, c in alg.nonzero_constants():
        if j < k and w[l] != w[j] + w[k]:
            rep.add(
                "grading",
                (j, k, l),
                f"weight {w[l]} != {w[j]} + {w[k]} for nonzero c_jk^l",
            )

    # Jacobi: [[Xj,Xk],Xl] + [[Xk,Xl],Xj] + [[Xl,Xj],Xk] = 0, exactly.
    unit = lambda j: [Fraction(int(i == j)) for i in range(alg.n)]
    for j in range(alg.n):
        for k in range(j + 1, alg.n):
            for l in range(k + 1, alg.n):
                acc = [Fraction(0)] * alg.n
                for a, b, c_ in ((j, k, l), (k, l, j), (l, j, k)):
                    inner = alg.bracket_vec(unit(a), unit(b))
                    term = alg.bracket_vec(inner, unit(c_))
                    acc = [x + y for x, y in zip(acc, term)]
                if any(x != 0 for x in acc):
                    rep.add("jacobi", (j, k, l), f"Jacobi defect {acc}")
    return rep


# ---------------------------------------------------------------------------
# BCH series (Dynkin form)


@lru_cache(maxsize=None)
def _dynkin_coefficients(step):
    """Rational coefficient of each {u,v}-word in the BCH series up to ``step``.

    Words are tuples over {0, 1} (0 = u, 1 = v); the associated Lie element is
    the right-nested bracket [w0, [w1, [... , w_{m-1}]]].
    """
    blocks = [
        (r, s)
        for r in range(step + 1)
        for s in range(step + 1)
        if 1 <= r + s <= step
    ]
    coeffs = {}

    def rec(k, total, word, fact_prod):
        if word:
            key = tuple(word)
            c = Fraction(-1 if k % 2 == 0 else 1, k) / (total * fact_prod)
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
        if total >= step:
            return
        for r, s in blocks:
            if total + r + s > step:
                continue
            rec(
                k + 1,
                total + r + s,
                word + (0,) * r + (1,) * s,
                fact_prod * math.factorial(r) * math.factorial(s),
            )

    for r, s in blocks:
        rec(
            1,
            r + s,
            (0,) * r + (1,) * s,
            math.factorial(r) * math.factorial(s),
        )
    return {w: c for w, c in coeffs.items() if c != 0}


def _bch_vector(alg, u, v, step):
    """BCH(u, v) truncated at the given step; u, v are sympy coefficient vectors."""
    letters = (u, v)
    cache = {}

    def nested(word):
        if word in cache:
            return cache[word]
        if len(word) == 1:
            res = list(letters[word[0]])
        else:
            res = alg.bracket_vec(letters[word[0]], nested(word[1:]))
        cache[word] = res
        return res

    z = [sp.Integer(0)] * alg.n
    for word, c in _dynkin_coefficients(step).items():
        if len(word) >= 2 and word[-1] == word[-2]:
            continue  # innermost bracket [x, x] vanishes
        vec = nested(word)
        coeff = sp.Rational(c.numerator, c.denominator)
        for l in range(alg.n):
            if vec[l] != 0:
                z[l] = z[l] + coeff * vec[l]
    return [sp.expand(e) for e in z]


# ---------------------------------------------------------------------------
# Group law


@dataclass
class GroupLaw:
    """Polynomial multiplication map in exponential coordinates."""

    algebra: GradedLieAlgebra
    coords: tuple  # sympy expressions m_l(x, y)
    xs: tuple
    ys: tuple

    def __post_init__(self):
        self._monomials = None
        self._numeric = None

    # -- exact representation -------------------------------------------------

    def monomial_form(self):
        """Per coordinate: list of (Fraction coeff, exponent tuple over (x, y))."""
        if self._monomials is None:
            gens = self.xs + self.ys
            out = []
            for m in self.coords:
                poly = sp.Poly(m, *gens)
                terms = []
                for exps, c in poly.terms():
                    cq = sp.Rational(c)
                    terms.append((Fraction(int(cq.p), int(cq.q)), exps))
                out.append(terms)
            self._monomials = out
        return self._monomials

    def multiply_exact(self, x, y):
        """Evaluate the law at rational points, exactly."""
        vals = tuple(Fraction(v) for v in x) + tuple(Fraction(v) for v in y)
        out = []
        for terms in self.monomial_form():
            acc = Fraction(0)
            for c, exps in terms:
                t = c
                for v, e in zip(vals, exps):
                    if e:
                        t *= v**e
                acc += t
            out.append(acc)
        return tuple(out)

    # -- numeric representation -----------------------------------------------

    def _numeric_fn(self):
        if self._numeric is None:
            self._numeric = sp.lambdify(self.xs + self.ys, list(self.coords), "numpy")
        return self._numeric

    def multiply_arrays(self, x, y):
        """Vectorized evaluation; x, y are arrays of shape (..., n), broadcastable."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        args = [x[..., j] for j in range(self.algebra.n)] + [
            y[..., j] for j in range(self.algebra.n)
        ]
        res = self._numeric_fn()(*args)
        shape = np.broadcast(*(np.asarray(a) for a in args)).shape
        cols = [np.broadcast_to(np.asarray(r, dtype=float), shape) for r in res]
        return np.stack(cols, axis=-1)


def multiply(law: GroupLaw, x, y):
    """Group product.  Exact for rational inputs, float otherwise."""
    n = law.algebra.n
    if len(x) != n or len(y) != n:
        raise AlgebraError(f"points must have length {n}")
    exact = all(not isinstance(v, (float, np.floating)) for v in tuple(x) + tuple(y))
    if exact:
        return law.multiply_exact(x, y)
    out = law.multiply_arrays(np.asarray(x, float), np.asarray(y, float))
    return tuple(out.tolist())


def invert(law: GroupLaw, x):
    """Group inverse: negation in exponential coordinates of the first kind."""
    if len(x) != law.algebra.n:
        raise AlgebraError(f"points must have length {law.algebra.n}")
    return tuple(-v for v in x)


def _weighted_degree_check(law):
    """Every monomial of m_l must have weighted degree exactly v_l."""
    w = law.algebra.weights
    gw = tuple(w) + tuple(w)
    for l, terms in enumerate(law.monomial_form()):
        for c, exps in terms:
            if c == 0:
                continue
            deg = sum(e * g for e, g in zip(exps, gw))
            if deg != w[l]:
                raise AlgebraError(
                    f"monomial {exps} of m_{l + 1} has weighted degree {deg}, "
                    f"expected {w[l]}"
                )


def bch_group_law(alg: GradedLieAlgebra) -> GroupLaw:
    """Derive the exact group law from the truncated BCH series.

    All GroupLaw invariants (identity, inverse, dilation homogeneity and
    associativity) are asserted symbolically at build time.
    """
    rep = validate_algebra(alg)
    if not rep.ok:
        raise AlgebraError(f"algebra fails validation:\n{rep}")
    step = alg.nilpotency_step()
    if step > MAX_BCH_STEP:
        raise UnsupportedStepError(
            f"nilpotency step {step} exceeds supported BCH depth {MAX_BCH_STEP}"
        )

    n = alg.n
    xs = sp.symbols(f"x1:{n + 1}")
    ys = sp.symbols(f"y1:{n + 1}")
    coords = tuple(_bch_vector(alg, list(xs), list(ys), step))
    law = GroupLaw(algebra=alg, coords=coords, xs=xs, ys=ys)

    zero = {s: 0 for s in ys}
    for l in range(n):
        if sp.expand(coords[l].subs(zero) - xs[l]) != 0:
            raise AlgebraError(f"identity law fails in coordinate {l + 1}")
        if sp.expand(coords[l].subs({s: 0 for s in xs}) - ys[l]) != 0:
            raise AlgebraError(f"identity law fails in coordinate {l + 1}")
        inv = {yy: -xx for yy, xx in zip(ys, xs)}
        if sp.expand(coords[l].subs(inv)) != 0:
            raise AlgebraError(f"inverse law fails in coordinate {l + 1}")
    _weighted_degree_check(law)

    zs = sp.symbols(f"z1:{n + 1}")
    sub_xy = dict(zip(xs, coords))  # x <- m(x, y)
    left = [m.subs(dict(zip(ys, zs))).subs(sub_xy, simultaneous=True) for m in coords]
    shift = {**dict(zip(xs, ys)), **dict(zip(ys, zs))}
    inner = [m.subs(shift, simultaneous=True) for m in coords]
    right = [m.subs(dict(zip(ys, inner)), simultaneous=True) for m in coords]
    for l in range(n):
        if sp.expand(left[l] - right[l]) != 0:
            raise AlgebraError(f"associativity fails in coordinate {l + 1}")
    return law


# ---------------------------------------------------------------------------
# Group definition files


def algebra_from_dict(data) -> GradedLieAlgebra:
    """Build an algebra from the JSON group-definition schema (1-based indices)."""
    try:
        n = int(data["n"])
        weights = tuple(int(w) for w in data["weights"])
        raw = data.get("brackets", [])
        labels = tuple(data.get("labels", [f"X{j + 1}" for j in range(n)]))
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupFormatError(f"bad group definition: {exc}") from exc

    brackets = {}
    for entry in raw:
        if len(entry) != 5:
            raise GroupFormatError(f"bracket entry {entry} must be [j,k,l,num,den]")
        j, k, l, num, den = entry
        key = (int(j) - 1, int(k) - 1, int(l) - 1)
        if key in brackets:
            raise GroupFormatError(f"duplicate bracket entry for (j,k,l)={tuple(entry[:3])}")
        brackets[key] = Fraction(int(num), int(den))
    return GradedLieAlgebra(n=n, weights=weights, brackets=brackets, labels=labels)


def load_group(path) -> GradedLieAlgebra:
    """Load a group definition from a JSON file."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GroupFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return algebra_from_dict(data)


def builtin_group(name) -> GradedLieAlgebra:
    """Load one of the bundled group definitions (e.g. ``heisenberg``)."""
    from importlib.resources import files

    res = files("gradecalc") / "groups" / f"{name}.json"
    try:
        data = json.loads(res.read_text())
    except FileNotFoundError:
        raise GroupFormatError(f"unknown builtin group {name!r}")
    return algebra_from_dict(data)
