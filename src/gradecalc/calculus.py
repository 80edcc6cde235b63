"""Left-invariant vector fields, operator expressions and their discretization.

A left-invariant field X_j is computed from the group law as
a_{jk}(x) = d/ds m_k(x, s e_j) |_{s=0}; the coefficients are exact rational
polynomials.  Differential operators are formal sums of words in the fields.
``discretize`` realizes them on grids as a ``KroneckerOperator``, a short sum
of Kronecker products of dense 1-D matrices: every letter pair of a word is
expanded exactly into its normal form sum_alpha c_alpha(x) d^alpha, each
monomial x^e of c_alpha times d^alpha is a product over the axes of
diag(x_k^e_k) times a compact 1-D finite-difference stencil (4th order by
default, one-sided at the boundary), and a word is the product of its pairs.
``FieldMatrices`` applies words letter by letter through first-derivative
stencils, one small matrix product per axis, as the integer-order Sobolev
norms take them.  No sparse matrix library is needed.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

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


def _diff_matrix_1d(n, dx, order=1, acc=4, periodic=False):
    """Dense 1-D derivative matrix, ``acc``-order stencils.

    Stencils are one-sided at the edges, or central and wrapped around on a
    periodic axis.  On a uniform axis the weights of row i depend only on
    where i sits in its window of ``width`` nodes, so every row is a row of
    one table (``_stencil_table``: the central stencil and the one-sided edge
    ones, at unit spacing), scaled by dx^-order (Fornberg, Math. Comp. 51,
    1988, for the weights); the columns are index arithmetic, with no loop
    over the rows.
    """
    width = _stencil_width(order, acc)
    if n < width:
        raise CalculusError(f"grid axis with {n} points too small for the stencil")
    half = (width - 1) // 2
    i = np.arange(n)
    lo = i - half if periodic else np.clip(i - half, 0, n - width)
    M = np.zeros((n, n))
    M[i[:, None], (lo[:, None] + np.arange(width)) % n] = _stencil_table(order, acc)[i - lo] * float(dx) ** -order
    return M


def along_axis(M, X, axis):
    """The matrix M applied along ``axis`` of the array X.

    One matrix product when the axis is the first or the last; otherwise
    one per index of the axes before it, broadcast.
    """
    shape = X.shape
    before, n, after = math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1 :])
    if before == 1:
        out = M @ X.reshape(n, after)
    elif after == 1:
        out = X.reshape(before, n) @ M.T
    else:
        out = np.matmul(M, X.reshape(before, n, after))
    return out.reshape(shape[:axis] + (M.shape[0],) + shape[axis + 1 :])


@dataclass(frozen=True)
class KroneckerOperator:
    """A matrix on a box of nodes as a short sum of Kronecker products of 1-D matrices.

    ``terms`` lists pairs (c, factors): the matrix is
    sum_t c_t M_{t,1} x ... x M_{t,n} in C order, each M_{t,k} a dense
    read-only (counts[k], counts[k]) array on axis k, or None for the
    identity.  ``discretize`` builds one term per monomial of every normal
    form coefficient, so each factor is a product of 1-D stencils and
    diagonals x_k^e (Van Loan, J. Comput. Appl. Math. 123, 2000, on the
    algebra of such sums).
    """

    counts: tuple
    terms: tuple

    @property
    def shape(self):
        size = math.prod(self.counts)
        return (size, size)

    @property
    def nnz(self):
        """Entries of the expanded terms, a bound on the nonzeros of the assembled matrix."""
        return sum(
            math.prod(n if M is None else int(np.count_nonzero(M)) for n, M in zip(self.counts, factors))
            for _, factors in self.terms
        )

    def __add__(self, other):
        return KroneckerOperator(self.counts, self.terms + other.terms)

    def restrict(self, box):
        """The operator on the sub-box ``box`` (one slice per axis), its rows and columns both restricted."""
        terms = tuple(
            (c, tuple(None if M is None else M[s, s] for M, s in zip(factors, box)))
            for c, factors in self.terms
        )
        counts = tuple(len(range(*s.indices(n))) for s, n in zip(box, self.counts))
        return KroneckerOperator(counts, terms)

    def transpose(self):
        return KroneckerOperator(
            self.counts, tuple((c, tuple(None if M is None else M.T for M in f)) for c, f in self.terms)
        )

    def __matmul__(self, values):
        """The operator applied to grid values on the first axis, shape (size,) or (size, m)."""
        values = np.asarray(values)
        box = values.reshape(tuple(self.counts) + values.shape[1:])
        out = np.zeros(box.shape, dtype=np.result_type(values, float))
        for c, factors in self.terms:
            y = box
            for k, M in enumerate(factors):
                if M is not None:
                    y = along_axis(M, y, k)
            out += c * y
        return out.reshape(values.shape)

    def toarray(self):
        """The dense matrix, term by term a Kronecker product of its factors."""
        out = np.zeros(self.shape)
        for c, factors in self.terms:
            dense = [np.eye(n) if M is None else M for n, M in zip(self.counts, factors)]
            out += c * reduce(np.kron, dense)
        return out


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


def character_form(expr: DiffOpExpr, alg):
    """The symmetric C of the top-degree symbol -xi^T C xi on the 1-D representations, or None.

    The representation of character xi maps every basis vector X_j that no
    bracket reaches to i xi_j (the others to 0), so a word (j, k) of such
    letters has symbol -xi_j xi_k.  When the top-degree words over those
    letters are all of length 2, C_jk and C_kj each gain c_w / 2 for every
    such word w = (j, k), with rows and columns over the unreached letters,
    ascending.  A Rockland operator's symbol vanishes at no xi != 0, so its
    C is definite.  None when there is no such word, or a longer one.
    """
    weights = alg.weights
    top = max((sum(weights[i] for i in w) for w in expr.terms), default=0)
    reached = {l for _, _, l, _ in alg.nonzero_constants()}
    free = [j for j in range(alg.n) if j not in reached]
    words = {w: c for w, c in expr.terms.items() if sum(weights[i] for i in w) == top and reached.isdisjoint(w)}
    if not words or any(len(w) != 2 for w in words):
        return None
    C = np.zeros((len(free), len(free)))
    for (j, k), c in words.items():
        C[free.index(j), free.index(k)] += c / 2
        C[free.index(k), free.index(j)] += c / 2
    return C


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


# Rows of a 1-D stencil that one product takes: a longer axis is applied in
# blocks of rows, each against the columns its stencils reach, so that the
# cost grows with the axis and not with its square.
STENCIL_ROWS = 128


def _row_chunks(D):
    """(rows, columns, D[rows, columns]) for blocks of ``STENCIL_ROWS`` rows of D."""
    chunks = []
    for start in range(0, len(D), STENCIL_ROWS):
        rows = slice(start, start + STENCIL_ROWS)
        cols = np.flatnonzero(D[rows].any(axis=0))
        cols = slice(cols[0], cols[-1] + 1)
        chunks.append((rows, cols, D[rows, cols]))
    return chunks


class FieldMatrices:
    """The basis fields on a fixed grid, each applied axis by axis.

    X_j = sum_k a_jk(x) d_k: each d_k is the 4th-order first-derivative
    stencil, applied along axis k of the grid-shaped values as one small
    matrix product (``along_axis``; one per block of rows on an axis longer
    than ``STENCIL_ROWS``), and each a_jk is sampled on the grid once.
    Values carry the grid on their first axis: one vector, or a stack
    (grid size, m) of columns.
    """

    def __init__(self, law: GroupLaw, grid: Grid):
        self.law = law
        self.grid = grid
        self._fields = left_invariant_fields(law)
        self._parts = {}

    def _field_parts(self, j):
        """(k, a_jk on the grid or None where it is 1, d_k) for every nonzero a_jk."""
        if j not in self._parts:
            grid = self.grid
            parts = []
            for k, a in enumerate(self._fields[j].coeffs):
                if a == 0:
                    continue
                coef = None
                if a != 1:
                    coef = np.broadcast_to(np.asarray(a.evaluate(grid.points().T), float), (grid.size,))
                D = _diff_matrix_1d(grid.counts[k], grid.spacings[k], 1, 4, k in grid.periodic)
                parts.append((k, coef, _row_chunks(D)))
            self._parts[j] = parts
        return self._parts[j]

    def apply_field(self, j, values):
        """X_j applied to grid values, shape (grid size,) or (grid size, m)."""
        box = values.reshape(tuple(self.grid.counts) + values.shape[1:])
        out = None
        for k, coef, chunks in self._field_parts(j):
            if len(chunks) == 1:
                d = along_axis(chunks[0][2], box, k)
            else:
                d = np.empty(box.shape)
                at = (slice(None),) * k
                for rows, cols, D in chunks:
                    d[at + (rows,)] = along_axis(D, box[at + (cols,)], k)
            d = d.reshape(values.shape)
            if coef is not None:
                d = coef.reshape(coef.shape + (1,) * (values.ndim - 1)) * d
            out = d if out is None else out + d
        return out

    def apply_word(self, word, values):
        out = values
        for j in reversed(word):
            out = self.apply_field(j, out)
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


def form_terms(form, variables):
    """A normal form {alpha: c_alpha} split monomial by monomial, as {key: coefficient}.

    Axis k is the coordinate ``variables[k]``, and alpha runs over the axes.
    The key of a term a x^e d^alpha lists, per axis, its factors
    (e_k, alpha_k), meaning diag(x_k^e_k) d_k^alpha_k, from left to right;
    () is the identity.
    """
    out = {}
    for alpha, c in form.items():
        for e, a in c.terms.items():
            key = tuple(((e[v], ak),) if e[v] or ak else () for v, ak in zip(variables, alpha))
            out[key] = out.get(key, 0) + a
    return out


def _product_terms(A, B):
    """The product of two {key: coefficient} forms: per axis, A's factors then B's; equal keys merge."""
    out = {}
    for ka, a in A.items():
        for kb, b in B.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + a * b
    return out


def kronecker_operator(terms, grid: Grid, acc=4):
    """The ``KroneckerOperator`` on the grid of a {key: coefficient} form (``form_terms``).

    Each distinct factor of an axis is built once, as the product of its
    diagonals x_k^e and ``acc``-order stencils d_k^a from left to right.
    """
    factors = {}

    def factor(k, key):
        if not key:
            return None
        if (k, key) not in factors:
            x, M = grid.axis(k), None
            for e, a in key:
                if a:
                    F = _diff_matrix_1d(grid.counts[k], grid.spacings[k], a, acc, k in grid.periodic)
                    F = (x**e)[:, None] * F if e else F
                else:
                    F = np.diag(x**e)
                M = F if M is None else M @ F
            M.flags.writeable = False
            factors[k, key] = M
        return factors[k, key]

    return KroneckerOperator(
        tuple(grid.counts),
        tuple((float(c), tuple(factor(k, f) for k, f in enumerate(key))) for key, c in terms.items() if c != 0),
    )


# Most Kronecker terms a word's pairs multiply out into; a longer word is
# assembled through its interior matrix (``discretize``).
MAX_TERMS = 4096


def discretize(expr: DiffOpExpr, law: GroupLaw, grid: Grid, box=None) -> KroneckerOperator:
    """The operator on the grid, or on its sub-box ``box`` (one slice per
    axis, default the whole grid), as a ``KroneckerOperator``, 4th-order
    stencils.

    Each word is the product of its letter pairs, and each pair is its exact
    normal form with compact stencils, split monomial by monomial into
    Kronecker terms (``form_terms``); the terms of a word are the products
    of its pairs' terms, factor by factor, with equal terms merged exactly,
    and the box restricts every factor.  So X^2 on an abelian axis is the
    compact second difference, whose symbol does not vanish at the Nyquist
    frequency as that of D_1 D_1 does.  Longer words are not expanded in one
    go: by pairs, the matrix of R^2 is the square of the matrix of R when
    R's words have length 2, while the normal form of whole words of length
    4 need not discretize to a positive matrix.

    A word whose pairs multiply out into more than ``MAX_TERMS`` terms (a
    power X^80, whose pair X^2 has three) is applied pair by pair to the
    unit vectors of the box instead, and its box matrix enters as one term
    per pair of nodes of the leading axes, whose last-axis factor is the
    dense block; more than ``MAX_TERMS`` of those are refused.
    """
    fields = left_invariant_fields(law)
    axes = range(grid.ndim)
    box = tuple(slice(None) for _ in axes) if box is None else tuple(box)
    pairs = {
        pair: form_terms(normal_form(pair, fields), axes)
        for word in expr.terms
        for pair in letter_pairs(word)
    }
    terms, long_words = {}, {}
    for word, c in expr.terms.items():
        forms = [pairs[pair] for pair in letter_pairs(word)]
        if math.prod(map(len, forms)) > MAX_TERMS:
            long_words[word] = c
            continue
        for key, a in reduce(_product_terms, forms, {((),) * grid.ndim: 1}).items():
            terms[key] = terms.get(key, 0) + c * a
    out = kronecker_operator(terms, grid).restrict(box)
    if long_words:
        ops = {pair: kronecker_operator(form, grid) for pair, form in pairs.items()}
        out = out + _box_matrix_terms(long_words, ops, grid, box)
    return out


def _box_matrix_terms(words, ops, grid: Grid, box):
    """sum_w c_w P_w,1 ... P_w,m on the box, as a ``KroneckerOperator`` of its matrix.

    Each word applies its pair operators ``ops`` to the unit vectors of the
    box, and keeps the rows of the box.  The box matrix A is then one term per
    pair of nodes (I, J) of the leading axes: the unit matrix e_i e_j^T on
    each leading axis, times the dense last-axis block A[(I, .), (J, .)].
    """
    inside = np.zeros(grid.counts, dtype=bool)
    inside[box] = True
    idx = np.flatnonzero(inside)
    shape = inside[box].shape
    lead = math.prod(shape[:-1])
    if lead * lead > MAX_TERMS:
        raise CalculusError(
            f"the operator's long words on a box of {len(idx)} nodes take {lead * lead} "
            f"Kronecker terms, more than {MAX_TERMS}"
        )
    A = np.zeros((len(idx), len(idx)))
    for word, c in words.items():
        Y = np.zeros((grid.size, len(idx)))
        Y[idx, np.arange(len(idx))] = 1.0
        for pair in reversed(letter_pairs(word)):
            Y = ops[pair] @ Y
        A += c * Y[idx]
    blocks = A.reshape(lead, shape[-1], lead, shape[-1])
    terms = []
    for I, J in itertools.product(range(lead), repeat=2):
        if blocks[I, :, J].any():
            units = [np.zeros((n, n)) for n in shape[:-1]]
            for E, i, j in zip(units, np.unravel_index(I, shape[:-1]), np.unravel_index(J, shape[:-1])):
                E[i, j] = 1.0
            terms.append((1.0, (*units, blocks[I, :, J])))
    return KroneckerOperator(shape, tuple(terms))
