"""Graded nilpotent Lie algebras and their exact polynomial group law.

The group law in exponential coordinates of the first kind is obtained from
the Baker-Campbell-Hausdorff series in Dynkin form, truncated at the
nilpotency step.  All coefficients are exact rationals, held in ``Poly``, a
dictionary from exponent tuples to ``Fraction``s, so the group axioms
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

from . import GradecalcError

#: Largest nilpotency step for which BCH terms are generated.
MAX_BCH_STEP = 6


class AlgebraError(GradecalcError):
    """Invalid graded Lie algebra data."""


class GroupFormatError(GradecalcError):
    """Malformed group definition file."""


class UnsupportedStepError(AlgebraError):
    """Nilpotency step beyond the supported BCH truncation depth."""


# ---------------------------------------------------------------------------
# Exact polynomials


class Poly:
    """A polynomial in ``nvars`` variables: a mapping exponent tuple -> coefficient.

    Coefficients are ``Fraction``s for the group law and the fields; a float
    factor (an operator coefficient) makes them floats.  Zero coefficients
    are never stored, so two polynomials are equal exactly when their term
    dictionaries are, and a scalar compares as the constant polynomial.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        self.terms = {e: c for e, c in dict(terms).items() if c != 0}

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        return cls(nvars, {tuple(int(k == i) for k in range(nvars)): Fraction(1)})

    def _coerce(self, other):
        return other if isinstance(other, Poly) else Poly.constant(self.nvars, other)

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"

    def __eq__(self, other):
        return self.terms == self._coerce(other).terms

    __hash__ = None

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.nvars, out)

    def __rmul__(self, other):
        return Poly(self.nvars, {e: other * c for e, c in self.terms.items()})

    def diff(self, i):
        """d/dx_i."""
        return Poly(
            self.nvars,
            {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in self.terms.items() if e[i]},
        )

    def involves(self, i):
        """True iff some term has a positive power of variable i."""
        return any(e[i] for e in self.terms)

    def compose(self, subs):
        """The polynomial with ``subs[i]`` put in for variable i; the ``subs``
        are polynomials in one common set of variables."""
        m = subs[0].nvars
        powers = [[Poly.constant(m, 1)] for _ in subs]
        out = {}
        for e, c in self.terms.items():
            t = Poly.constant(m, c)
            for i, k in enumerate(e):
                while len(powers[i]) <= k:
                    powers[i].append(powers[i][-1] * subs[i])
                if k:
                    t = t * powers[i][k]
            for f, d in t.terms.items():
                out[f] = out.get(f, 0) + d
        return Poly(m, out)

    def at(self, values):
        """The exact value at a point of ``Fraction``s (or ints)."""
        acc = Fraction(0)
        for e, c in self.terms.items():
            for v, k in zip(values, e):
                if k:
                    c = c * v**k
            acc += c
        return acc

    def evaluate(self, values):
        """Float values at numpy arrays (broadcast together) of the variables.

        Terms are summed by descending total degree, then descending
        exponents, and each is the coefficient times its powers, left to right.
        """

        def power(i, k):
            return values[i] if k == 1 else values[i] ** k

        acc = 0.0
        for j, e in enumerate(sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)):
            c = float(self.terms[e])
            factors = [(i, k) for i, k in enumerate(e) if k]
            if not factors:
                t = c
            else:
                t = power(*factors[0])
                t = t if c == 1 else -t if c == -1 else c * t
                for i, k in factors[1:]:
                    t = t * power(i, k)
            acc = t if j == 0 else acc + t
        return acc


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

    inside = {}
    for (j, k, l), c in alg.brackets.items():
        if not (0 <= j < alg.n and 0 <= k < alg.n and 0 <= l < alg.n):
            rep.add("index", (j, k, l), "index out of range")
            continue
        inside[j, k, l] = c
        if j == k and c != 0:
            rep.add("antisymmetry", (j, k, l), "[X,X] must vanish")
        other = alg.brackets.get((k, j, l))
        if other is not None and other != -c:
            rep.add("antisymmetry", (j, k, l), f"c_kj^l = {other} != -c_jk^l")
    # grading and Jacobi read only the entries inside the index range
    alg = GradedLieAlgebra(n=alg.n, weights=alg.weights, brackets=inside, labels=alg.labels)

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
    """BCH(u, v) truncated at the given step; u, v are ``Poly`` coefficient vectors."""
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

    z = [Poly(u[0].nvars)] * alg.n
    for word, c in _dynkin_coefficients(step).items():
        if len(word) >= 2 and word[-1] == word[-2]:
            continue  # innermost bracket [x, x] vanishes
        vec = nested(word)
        for l in range(alg.n):
            if vec[l] != 0:
                z[l] = z[l] + c * vec[l]
    return z


# ---------------------------------------------------------------------------
# Group law


@dataclass
class GroupLaw:
    """Polynomial multiplication map in exponential coordinates.

    ``coords[l]`` is the l-th product coordinate m_l(x, y), a ``Poly`` in the
    2n variables (x_1, ..., x_n, y_1, ..., y_n).
    """

    algebra: GradedLieAlgebra
    coords: tuple

    def multiply_exact(self, x, y):
        """Evaluate the law at rational points, exactly."""
        vals = tuple(Fraction(v) for v in x) + tuple(Fraction(v) for v in y)
        return tuple(m.at(vals) for m in self.coords)

    def multiply_arrays(self, x, y):
        """Vectorized evaluation; x, y are arrays of shape (..., n), broadcastable."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        args = [x[..., j] for j in range(self.algebra.n)] + [
            y[..., j] for j in range(self.algebra.n)
        ]
        res = [m.evaluate(args) for m in self.coords]
        shape = np.broadcast(*(np.asarray(a) for a in args)).shape
        cols = [np.broadcast_to(np.asarray(r, dtype=float), shape) for r in res]
        return np.stack(cols, axis=-1)


def invert(law: GroupLaw, x):
    """Group inverse: negation in exponential coordinates of the first kind."""
    if len(x) != law.algebra.n:
        raise AlgebraError(f"points must have length {law.algebra.n}")
    return tuple(-v for v in x)


def _weighted_degree_check(law):
    """Every monomial of m_l must have weighted degree exactly v_l."""
    w = law.algebra.weights
    gw = tuple(w) + tuple(w)
    for l, m in enumerate(law.coords):
        for exps in m.terms:
            deg = sum(e * g for e, g in zip(exps, gw))
            if deg != w[l]:
                raise AlgebraError(
                    f"monomial {exps} of m_{l + 1} has weighted degree {deg}, "
                    f"expected {w[l]}"
                )


def bch_group_law(alg: GradedLieAlgebra) -> GroupLaw:
    """Derive the exact group law from the truncated BCH series.

    All GroupLaw invariants (identity, inverse, dilation homogeneity and
    associativity) are asserted as exact polynomial identities at build time.
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
    xy = [Poly.variable(2 * n, i) for i in range(2 * n)]
    coords = tuple(_bch_vector(alg, xy[:n], xy[n:], step))
    law = GroupLaw(algebra=alg, coords=coords)

    xs = [Poly.variable(n, i) for i in range(n)]
    zero = [Poly(n)] * n
    neg = [-x for x in xs]
    for l, m in enumerate(coords):
        if m.compose(xs + zero) != xs[l] or m.compose(zero + xs) != xs[l]:
            raise AlgebraError(f"identity law fails in coordinate {l + 1}")
        if m.compose(xs + neg) != 0:
            raise AlgebraError(f"inverse law fails in coordinate {l + 1}")
    _weighted_degree_check(law)

    xyz = [Poly.variable(3 * n, i) for i in range(3 * n)]
    x, y, z = xyz[:n], xyz[n : 2 * n], xyz[2 * n :]
    left = [m.compose(x + y) for m in coords]  # xy, then (xy)z below
    right = [m.compose(y + z) for m in coords]  # yz, then x(yz) below
    for l, m in enumerate(coords):
        if m.compose(left + z) != m.compose(x + right):
            raise AlgebraError(f"associativity fails in coordinate {l + 1}")
    return law


# ---------------------------------------------------------------------------
# Group definition files


def _whole(v):
    """A JSON whole number as an int; anything else (2.7, "2", true) is a ValueError."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"{v!r} is not a whole number")


def algebra_from_dict(data) -> GradedLieAlgebra:
    """Build an algebra from the JSON group-definition schema (1-based indices)."""
    try:
        n = _whole(data["n"])
        weights = tuple(_whole(w) for w in data["weights"])
        raw = list(data.get("brackets", []))
        labels = tuple(data.get("labels", [f"X{j + 1}" for j in range(n)]))
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupFormatError(f"bad group definition: {exc}") from exc

    brackets = {}
    for entry in raw:
        try:
            j, k, l, num, den = (_whole(v) for v in entry)
        except (TypeError, ValueError) as exc:
            raise GroupFormatError(
                f"bracket entry {entry} must be [j,k,l,num,den] of whole numbers"
            ) from exc
        if not all(1 <= i <= n for i in (j, k, l)):
            raise GroupFormatError(f"bracket entry {entry}: indices must lie in 1..{n}")
        if den == 0:
            raise GroupFormatError(f"bracket entry {entry}: zero denominator")
        key = (j - 1, k - 1, l - 1)
        if key in brackets:
            raise GroupFormatError(f"duplicate bracket entry for (j,k,l)={tuple(entry[:3])}")
        brackets[key] = Fraction(num, den)
    return GradedLieAlgebra(n=n, weights=weights, brackets=brackets, labels=labels)


def load_group(path) -> GradedLieAlgebra:
    """Load a group definition from a JSON file (UTF-8 text)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupFormatError(f"{path}: cannot read the file as UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GroupFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return algebra_from_dict(data)


def builtin_groups() -> dict:
    """The bundled group definitions, by name (e.g. ``heisenberg``)."""
    from importlib.resources import files

    return {
        res.name.removesuffix(".json"): res
        for res in (files("gradecalc") / "groups").iterdir()
        if res.name.endswith(".json")
    }


def builtin_group(name) -> GradedLieAlgebra:
    """Load one of the bundled group definitions (e.g. ``heisenberg``)."""
    res = builtin_groups().get(name)
    if res is None:
        raise GroupFormatError(f"unknown builtin group {name!r}")
    return algebra_from_dict(json.loads(res.read_text()))
