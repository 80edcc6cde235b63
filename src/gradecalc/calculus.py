"""Left-invariant vector fields, operator expressions and their discretization.

A left-invariant field X_j is computed from the group law as
a_{jk}(x) = d/ds m_k(x, s e_j) |_{s=0}; the coefficients are exact rational
polynomials.  Differential operators are formal sums of words in the fields.
``discretize`` realizes them on grids: every letter pair of a word is expanded
exactly into its normal form sum_alpha c_alpha(x) d^alpha, each d^alpha a
tensor product of compact 1-D finite-difference stencils (4th order by
default, one-sided at the boundary), and a word is the product of its pairs.
``FieldMatrices`` applies words letter by letter through first-derivative
stencils, as the integer-order Sobolev norms take them.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sparse

from . import GradecalcError
from .algebra import GroupLaw, Poly
from .geometry import Grid


class CalculusError(GradecalcError):
    pass


class StratificationError(CalculusError):
    """Algebra is not generated by its first stratum."""


class ParseError(CalculusError):
    pass


# ---------------------------------------------------------------------------
# Finite-difference machinery


def fd_weights(z, x, m):
    """Fornberg weights for the m-th derivative at z from nodes x."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _stencil_width(order, acc):
    """Nodes of the ``acc``-order stencil of the ``order``-th derivative."""
    return 2 * ((order + 1) // 2) - 1 + acc


@lru_cache(maxsize=None)
def _stencil_table(order, acc):
    """Row p: the weights of the ``order``-th derivative at node p of the
    window 0, 1, ..., width - 1 (unit spacing), read-only."""
    width = _stencil_width(order, acc)
    nodes = np.arange(width, dtype=float)
    table = np.array([fd_weights(float(p), nodes, order) for p in range(width)])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _diff_matrix_1d(n, dx, order=1, acc=4, periodic=False):
    """Sparse 1-D derivative matrix, ``acc``-order stencils.

    Stencils are one-sided at the edges, or central and wrapped around on a
    periodic axis.  On a uniform axis the weights of row i depend only on
    where i sits in its window of ``width`` nodes, so every row is a row of
    one table (``_stencil_table``: the central stencil and the one-sided edge
    ones, at unit spacing), scaled by dx^-order (Fornberg, Math. Comp. 51,
    1988, for the weights); the rows, columns and values are index
    arithmetic, with no loop over the rows.
    """
    width = _stencil_width(order, acc)
    if n < width:
        raise CalculusError(f"grid axis with {n} points too small for the stencil")
    half = (width - 1) // 2
    i = np.arange(n)
    lo = i - half if periodic else np.clip(i - half, 0, n - width)
    cols = (lo[:, None] + np.arange(width)) % n
    vals = _stencil_table(order, acc)[i - lo] * float(dx) ** -order
    return sparse.csr_matrix((vals.ravel(), (np.repeat(i, width), cols.ravel())), shape=(n, n))


def along_axis(M, counts, axis):
    """The sparse I x ... x M x ... x I: the 1-D matrix M acting along ``axis``
    of a box of ``counts`` nodes (C ordering)."""
    left = sparse.identity(int(np.prod(counts[:axis])), format="csr")
    right = sparse.identity(int(np.prod(counts[axis + 1 :])), format="csr")
    return sparse.kron(sparse.kron(left, M, format="csr"), right, format="csr")


# ---------------------------------------------------------------------------
# Left-invariant vector fields


@dataclass
class LeftInvariantField:
    """X_j f = sum_k a_{jk}(x) df/dx_k with exact polynomial coefficients."""

    index: int
    coeffs: tuple  # a Poly in x_1, ..., x_n per axis k
    weights: tuple


def left_invariant_fields(law: GroupLaw):
    """Derive the fields from the group law by differentiating at the identity.

    d/ds m_k(x, s e_j) at s = 0 is the part of m_k linear in y_j with the
    other y set to 0.
    """
    n = law.algebra.n
    fields = []
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        coeffs = tuple(
            Poly(n, {e[:n]: c for e, c in m.terms.items() if e[n:] == unit}) for m in law.coords
        )
        fields.append(LeftInvariantField(index=j, coeffs=coeffs, weights=law.algebra.weights))
    return fields


def field_commutator_defect(law, fields=None):
    """Exact defect of [X_j, X_k] - sum_l c_jk^l X_l, as coefficient polynomials.

    Returns the maximal number of nonzero defect polynomials (0 means the
    fields reproduce the structure constants exactly).
    """
    alg = law.algebra
    if fields is None:
        fields = left_invariant_fields(law)
    bad = 0
    for j in range(alg.n):
        for k in range(alg.n):
            for m in range(alg.n):
                comm = Poly(alg.n)
                for l in range(alg.n):
                    comm += fields[j].coeffs[l] * fields[k].coeffs[m].diff(l)
                    comm -= fields[k].coeffs[l] * fields[j].coeffs[m].diff(l)
                expect = sum(
                    c * fields[l].coeffs[m]
                    for jj, kk, l, c in alg.nonzero_constants()
                    if (jj, kk) == (j, k)
                )
                if comm != expect:
                    bad += 1
    return bad


# ---------------------------------------------------------------------------
# Differential operator expressions


@dataclass
class DiffOpExpr:
    """Formal real-linear combination of words in the basis fields.

    ``terms`` maps a word (tuple of 0-based field indices, applied left to
    right as operators) to its real coefficient.  The empty word is the
    identity operator.
    """

    terms: dict = field(default_factory=dict)

    @classmethod
    def identity(cls):
        return cls({(): 1.0})

    @classmethod
    def generator(cls, j):
        return cls({(int(j),): 1.0})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return DiffOpExpr({w: c for w, c in out.items() if c != 0.0})

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, DiffOpExpr):
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    out[w] = out.get(w, 0.0) + c1 * c2
            return DiffOpExpr({w: c for w, c in out.items() if c != 0.0})
        return DiffOpExpr({w: c * float(other) for w, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self * scalar

    def __neg__(self):
        return self * -1.0

    def __pow__(self, k):
        if k < 0 or int(k) != k:
            raise CalculusError("power must be a nonnegative integer")
        out = DiffOpExpr.identity()
        for _ in range(int(k)):
            out = out * self
        return out

    def word_degrees(self, weights):
        return {sum(weights[j] for j in w) for w in self.terms}

    def max_word_length(self):
        return max((len(w) for w in self.terms), default=0)


def homogeneous_degree(expr: DiffOpExpr, weights):
    """The common weighted degree of the words, or None when they differ.

    A multiple of the identity has degree 0, which no dilation scales, so it
    has no degree either.
    """
    degs = expr.word_degrees(weights)
    return (degs.pop() or None) if len(degs) == 1 else None


# ---------------------------------------------------------------------------
# Rockland operator constructors


@dataclass
class RocklandSpec:
    """A candidate positive Rockland operator with its homogeneous degree.

    ``nu`` is decided once, by the constructor that builds the operator, and
    is None for an inhomogeneous one; every consumer reads it from here.
    """

    expr: DiffOpExpr
    nu: int | None


def build_rockland_example(alg, nu0, c=None) -> RocklandSpec:
    """sum_j (-1)^{nu0/v_j} c_j X_j^{2 nu0/v_j}, homogeneous of degree 2*nu0."""
    weights = alg.weights
    for w in weights:
        if nu0 % w != 0:
            raise CalculusError(f"nu0={nu0} is not a common multiple of the weights")
    if c is None:
        c = [1.0] * alg.n
    if any(cj <= 0 for cj in c):
        raise CalculusError("coefficients must be positive")
    expr = DiffOpExpr()
    for j in range(alg.n):
        k = nu0 // weights[j]
        expr = expr + ((-1.0) ** k * float(c[j])) * (DiffOpExpr.generator(j) ** (2 * k))
    return RocklandSpec(expr=expr, nu=2 * nu0)


def is_stratified(alg):
    """True iff the weight-1 layer generates the whole algebra by brackets."""
    from fractions import Fraction

    first = [j for j in range(alg.n) if alg.weights[j] == 1]
    if not first:
        return False
    unit = lambda j: [Fraction(int(i == j)) for i in range(alg.n)]
    span = [unit(j) for j in first]
    current = list(span)
    for _ in range(alg.n):
        nxt = []
        for j in first:
            for v in current:
                w = alg.bracket_vec(unit(j), v)
                if any(x != 0 for x in w):
                    nxt.append(w)
        if not nxt:
            break
        span.extend(nxt)
        current = nxt
    return _rank(span) == alg.n


def _rank(rows):
    """Rank of a list of Fraction row vectors, by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def sublaplacian(alg) -> RocklandSpec:
    """R = -(Z_1^2 + ... + Z_{n'}^2) over the basis of the first stratum."""
    if not is_stratified(alg):
        raise StratificationError(
            "algebra is not stratified: the first stratum does not generate"
        )
    expr = DiffOpExpr()
    for j in range(alg.n):
        if alg.weights[j] == 1:
            expr = expr - DiffOpExpr.generator(j) ** 2
    return RocklandSpec(expr=expr, nu=2)


def characters_missed(expr: DiffOpExpr, alg):
    """The generators on whose 1-D representations the operator's top-degree symbol vanishes.

    Every 1-D representation of G factors through g/[g, g].  For a basis
    vector X_j that no bracket reaches (c_ab^j = 0 for all a, b), one of
    them maps X_j to i xi and every other basis vector to 0, so the symbol
    of the top-degree part there is c (i xi)^k, c the coefficient of the
    pure power X_j^k among the top-degree words: nonzero for xi != 0
    exactly when that word is present.  A Rockland operator's top-degree
    part is injective on every nontrivial representation, so an operator
    that misses some X_j is not Rockland.  Returns the missed indices j,
    ascending; the test is necessary, not sufficient.
    """
    weights = alg.weights
    top = max((sum(weights[i] for i in w) for w in expr.terms), default=0)
    reached = {l for _, _, l, _ in alg.nonzero_constants()}
    return [
        j
        for j in range(alg.n)
        if j not in reached
        and not (top % weights[j] == 0 and expr.terms.get((j,) * (top // weights[j]), 0.0) != 0.0)
    ]


def power(spec: RocklandSpec, k) -> RocklandSpec:
    """R^k, homogeneous of degree k * nu."""
    if k < 1 or int(k) != k:
        raise CalculusError("power must be a positive integer")
    return RocklandSpec(expr=spec.expr ** int(k), nu=None if spec.nu is None else spec.nu * int(k))


# ---------------------------------------------------------------------------
# Operator mini-language


# Numbers are unsigned: a sign is always a term's own (``parse_term``), so
# "-X^2-1" and "-X^2 - 1" parse alike.
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[\^*+-]))")


def parse_diffop(text, labels) -> DiffOpExpr:
    """Parse expressions like ``X^4 + Y^4 - 1*T^2`` over the basis labels.

    Exponents are whole numbers; a ``*`` must stand between two factors.
    """
    labels = list(labels)
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()

    expr = DiffOpExpr()
    i = 0

    def parse_term(i):
        coeff = 1.0
        word = ()
        saw_factor = False
        while i < len(tokens):
            kind, val, at = tokens[i]
            if kind == "op" and val in "+-" and saw_factor:
                break
            if kind == "op" and val in "+-":
                coeff *= -1.0 if val == "-" else 1.0
                i += 1
                continue
            if kind == "op" and val == "*":
                if not saw_factor or i + 1 == len(tokens) or tokens[i + 1][0] == "op":
                    raise ParseError(f"'*' at position {at} does not stand between two factors")
                i += 1
                continue
            if kind == "num":
                if "/" in val:
                    num, den = val.split("/")
                    if not float(den):
                        raise ParseError(f"zero denominator at position {at}")
                    coeff *= float(num) / float(den)
                else:
                    coeff *= float(val)
                i += 1
                saw_factor = True
                continue
            if kind == "name":
                if val not in labels:
                    raise ParseError(f"unknown basis label {val!r} at position {at}")
                j = labels.index(val)
                e = 1
                if i + 1 < len(tokens) and tokens[i + 1][:2] == ("op", "^"):
                    nxt = tokens[i + 2] if i + 2 < len(tokens) else None
                    if nxt is None or nxt[0] != "num" or not nxt[1].isdigit():
                        raise ParseError(
                            f"expected a whole-number exponent after '^' at position {tokens[i + 1][2]}"
                        )
                    e = int(nxt[1])
                    i += 2
                word = word + (j,) * e
                i += 1
                saw_factor = True
                continue
            raise ParseError(f"unexpected token {val!r} at position {at}")
        if not saw_factor:
            raise ParseError("empty term")
        return DiffOpExpr({word: coeff}), i

    while i < len(tokens):
        term, i = parse_term(i)
        expr = expr + term
    if not expr.terms and not tokens:
        raise ParseError("empty expression")
    return expr


# ---------------------------------------------------------------------------
# Discretization


class FieldMatrices:
    """Cached sparse matrices of the basis fields on a fixed grid."""

    def __init__(self, law: GroupLaw, grid: Grid):
        self.law = law
        self.grid = grid
        self._fields = left_invariant_fields(law)
        self._mats = {}

    def field(self, j):
        if j not in self._mats:
            form = normal_form((j,), self._fields)
            self._mats[j] = form_matrix(form, self.grid)
        return self._mats[j]

    def apply_word(self, word, values):
        out = values
        for j in reversed(word):
            out = self.field(j) @ out
        return out

    def apply_expr(self, expr: DiffOpExpr, values):
        values = np.asarray(values)
        out = np.zeros(values.shape, dtype=values.dtype if np.iscomplexobj(values) else float)
        for w, c in expr.terms.items():
            out = out + c * self.apply_word(w, values)
        return out


def normal_form(word, fields):
    """The exact normal form of the word X_w as {alpha: c_alpha}.

    X_w = sum_alpha c_alpha(x) d^alpha, with d^alpha = d_1^alpha_1 ... d_n^alpha_n
    and polynomial coefficients c_alpha, built letter by letter from the
    right: X_j (c d^alpha) = sum_k a_jk ((d_k c) d^alpha + c d^(alpha + e_k)).
    """
    n = len(fields)
    form = {(0,) * n: Poly.constant(n, 1)}
    for j in reversed(word):
        out = {}
        for alpha, c in form.items():
            for k, a in enumerate(fields[j].coeffs):
                if a == 0:
                    continue
                up = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :]
                out[up] = out.get(up, 0) + a * c
                out[alpha] = out.get(alpha, 0) + a * c.diff(k)
        form = {alpha: c for alpha, c in out.items() if c != 0}
    return form


def letter_pairs(word):
    """The word cut into letter pairs from the left; an odd word ends in one letter."""
    return [word[i : i + 2] for i in range(0, len(word), 2)]


def derivative_matrix(grid: Grid, alpha, acc=4):
    """Sparse d^alpha on the grid (C ordering): the tensor product of the 1-D
    compact stencils of order alpha_k, the identity on axes with alpha_k = 0."""
    factors = [
        _diff_matrix_1d(N, h, a, acc, k in grid.periodic) if a else sparse.identity(N, format="csr")
        for k, (N, h, a) in enumerate(zip(grid.counts, grid.spacings, alpha))
    ]
    return reduce(lambda A, B: sparse.kron(A, B, format="csr"), factors)


def form_matrix(form, grid: Grid, points=None, acc=4):
    """Sparse sum_alpha diag(c_alpha) d^alpha of a normal form on the grid.

    The coefficients, polynomials in the group coordinates, are evaluated at
    ``points`` (default the grid's own); the multi-indices run over the
    grid's axes.
    """
    points = grid.points() if points is None else points
    values = [c.evaluate(points.T) for c in form.values()]
    out = sparse.csr_matrix((grid.size, grid.size))
    for alpha, vals in zip(form, values):
        coeff = sparse.diags(np.broadcast_to(np.asarray(vals, float), (grid.size,)))
        out = out + coeff @ derivative_matrix(grid, alpha, acc)
    return out.tocsr()


def discretize(expr: DiffOpExpr, law: GroupLaw, grid: Grid):
    """Sparse matrix of the operator on the full grid, 4th-order stencils.

    Each word is the product of its letter pairs, and each pair is assembled
    from its exact normal form with compact stencils (``form_matrix``), so X^2
    on an abelian axis is the compact second difference, whose symbol does
    not vanish at the Nyquist frequency as that of D_1 D_1 does.  Longer
    words are not expanded in one go: by pairs, the matrix of R^2 is the
    square of the matrix of R when R's words have length 2, while the normal
    form of whole words of length 4 need not discretize to a positive matrix.
    """
    fields = left_invariant_fields(law)
    pairs = {pair for word in expr.terms for pair in letter_pairs(word)}
    mats = {pair: form_matrix(normal_form(pair, fields), grid) for pair in pairs}
    N = grid.size
    out = sparse.csr_matrix((N, N))
    for word, c in expr.terms.items():
        factors = [mats[pair] for pair in letter_pairs(word)]
        out = out + c * (reduce(operator.matmul, factors) if factors else sparse.identity(N))
    return out.tocsr()
