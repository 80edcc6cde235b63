"""Heat semigroup e^{-tR} via symmetric eigendecomposition.

The operator, assembled on the interior of the grid (a Dirichlet-style mask)
from the exact normal form of each letter pair with compact stencils
(``calculus.discretize``) as a short sum of Kronecker products of 1-D
matrices, is symmetrized and diagonalized once; heat flow, potential kernels
and fractional powers are all multipliers through the resulting plan
(``SpectralPlan``), which follows the operator's structure.
Every plan transforms the same way, in four steps: an orthogonal or unitary
basis along each axis of the interior box (``axis_bases``), a node order
that groups the transformed nodes run by run (``order``), a butterfly of
signs and pairs (``butterfly``), then one stored eigenbasis per run, stored
once where two runs share it.  The plans differ only in what fills those
steps.
On an abelian law with every word a power of one letter the interior operator
is a Kronecker sum, and the plan diagonalizes one small factor per axis, the
sum of the operator's terms on that axis (the fast diagonalization method of
Lynch, Rice and Thomas): the factors' eigenbases are its axis bases, and it
stores no eigenbasis of its own.  A factor whose axis flip x_k -> -x_k fixes the
operator takes that flip, as the box plans below take theirs, and is solved
as its even and odd halves.  On a grid with a periodic central axis the axis
basis there is the unitary DFT, the nodes are ordered frequency by
frequency, and each frequency is one Hermitian block.  Any other
operator on a box grid is split by its reflection symmetries: every
coordinate sign flip that is an automorphism of the law and fixes the
operator maps the box onto itself and commutes with the interior matrix, so
the matrix is block diagonal in a basis of tensor products of per-axis even
and odd vectors, one block per character of the group of such flips (Fassler
and Stiefel, *Group Theoretical Methods and Their Applications*, 1992).  On
the Heisenberg group the flips (x, y, u) -> (a x, b y, ab u) give four blocks
of about n/4 nodes, so the eigensolve costs about a sixteenth of the dense one.
With no flip but the identity the plan is one dense block.  A flip that
reverses the periodic axis maps frequency xi to -xi: in the basis of its even
vectors and i times its odd ones a central-Fourier block is real, so every
default plan's blocks are real symmetric eigensolves (``_eigh``).
The quarter turn (x, y, u) -> (-y, x, u), a signed swap of two coordinates
of equal weight found from the law and the words as the flips are
(``quarter_turn``), commutes with the sub-Laplacian too.  With the flips it
generates the dihedral group of order 8: of the four box blocks it swaps two,
so one is solved and the other is its image, and it splits the two it maps
onto themselves into its +1 and -1 eigenspaces; it splits each
central-Fourier block into four real pieces, one per character.  The plan
stores the pieces it solves: the butterfly maps each pair of nodes the turn
swaps onto (e_i +- e_j) / sqrt 2, a swapped block reads its partner's
pieces, and -xi reads xi's, by signs.

The transforms (``analyze``, ``synthesize``, ``apply_multiplier``) act on
the last axis of their input, so a stack of m functions, shape
(m, grid size), goes through each step as one matrix product per axis basis
and per stored piece instead of m matrix-vector products; one vector is the
case m = 1.  The
heat source's ``ladder_sum`` uses that to build every potential kernel of a
plan in one pass, one coefficient row per kernel.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import numpy.fft

from . import GradecalcError
from .calculus import (
    FieldMatrices,
    KroneckerOperator,
    RocklandSpec,
    along_axis,
    discretize,
    form_terms,
    kronecker_operator,
    left_invariant_fields,
    normal_form,
)
from .geometry import (
    EXP_FLOOR,
    Grid,
    GridFunction,
    group_convolve,
    haar_integrate,
    lp_norm,
    node_shift_axes,
    resample_dilated,
)


class HeatError(GradecalcError):
    pass


# Largest dense block (reflection block, Kronecker factor or central-Fourier
# block) a plan takes: its eigenvectors alone take 0.8 GB in float64 (1.6 GB
# complex).
MAX_DENSE_BLOCK = 10_000

# Largest relative commutator of a sign flip with the interior matrix; the
# discretization commutes with every flip up to rounding (about 5e-16).
REFLECTION_TOL = 1e-12


def _frozen(a):
    """``a``, made read-only: a plan hands the same cached array to every caller."""
    a.flags.writeable = False
    return a


@dataclass
class SpectralPlan:
    """Eigendecomposition of the symmetrized, interior-restricted operator.

    The eigenbasis is one transform in four steps on the interior box
    ``inner_shape``: ``axis_bases`` holds per axis an orthogonal (on a
    periodic axis unitary) matrix Q_k, or None for the identity; ``order``
    lists the transformed nodes run by run (None: as they are);
    ``butterfly`` (``_butterfly``; None: the identity); then one run of
    coefficients per entry of ``segments``, the index of the stored matrix
    it reads.  ``eigenvectors`` packs the stored orthonormal matrices, of
    the sizes ``block_sizes``, in C order (``_blocks``).  ``analyze``
    applies the conjugate transposes of the steps, ``synthesize`` the steps
    in reverse.  The ``eigenvalues`` follow the coefficients, ascending only
    within each run (or factor).  Every plan is positive up to rounding
    (``spectral_plan`` refuses any other), so ``lam_plus`` clips only
    rounding.

    This plan is block diagonal in a tensor-product parity basis: its axis
    bases are the orthogonal matrices of the even and odd vectors under the
    axis flips (``_parity_basis``), None on an axis that no flip reverses,
    and the nodes of one block are the parity patterns of one character of
    the flips (``_parity_blocks``).
    ``reflection_defect`` is the largest relative Frobenius commutator of a
    flip with the interior matrix (on a ``KroneckerPlan``, of an axis flip
    with its factor; on a ``CentralFourierPlan``, of its one flip with each
    part of its blocks; 0 where no flip is taken), and ``turn_defect`` the
    same for the quarter turn (``quarter_turn``; 0 where no turn is taken,
    as on every ``KroneckerPlan``).  ``eigh_s`` is the time spent in the
    LAPACK eigensolves behind the eigenvectors, summed over blocks, and
    ``solves`` the size of each eigensolve (on a ``KroneckerPlan`` the
    halves of its split factors; elsewhere ``block_sizes``).

    The plan owns the data its consumers share (``lam_plus``, the delta and
    unit coefficients, ``field_matrices``), each a ``cached_property`` built
    on first use (arrays read-only), which ``dilated_plan`` does not carry
    over.  Every heat, potential and fractional routine is a multiplier
    g(lam_plus): ``apply_multiplier`` on f, ``delta_kernel`` and
    ``delta_mass`` on the delta.
    """

    grid: Grid
    spec: RocklandSpec
    law: object
    mask: np.ndarray  # flat boolean, interior nodes
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # packed stored matrices, each with orthonormal columns
    sym_defect: float
    block_sizes: tuple = ()  # sizes of the stored matrices
    segments: tuple = ()  # per run of coefficients, the stored matrix it reads
    inner_shape: tuple = ()
    axis_bases: tuple = ()  # per axis an orthogonal or unitary (n_k, n_k) array, or None
    order: np.ndarray | None = None  # transformed interior nodes, run by run
    butterfly: tuple | None = None  # (scale, pairs) of ``_butterfly``
    reflection_defect: float = 0.0
    turn_defect: float = 0.0
    eigh_s: float = 0.0
    solves: tuple = ()

    @functools.cached_property
    def field_matrices(self) -> FieldMatrices:
        """The ``FieldMatrices`` of the plan's law on its grid."""
        return FieldMatrices(self.law, self.grid)

    @functools.cached_property
    def lam_plus(self):
        """The eigenvalues clipped at 0, the argument of every multiplier."""
        return _frozen(np.clip(self.eigenvalues, 0.0, None))

    @functools.cached_property
    def unit_coefficients(self):
        """analyze(1): the grid sum of a synthesis of c is <analyze(1), c>."""
        return _frozen(self.analyze(np.ones(self.grid.size)))

    @functools.cached_property
    def delta_coefficients(self):
        """Eigen-coefficients of the discrete delta at the origin, mass 1/dV."""
        i = self.grid.origin_index
        if not self.mask[i]:
            raise HeatError("origin is not inside the interior mask")
        delta = np.zeros(self.grid.size)
        delta[i] = 1.0 / self.grid.cell_volume
        return _frozen(self.analyze(delta))

    @functools.cached_property
    def interior_index(self):
        """Flat indices of the interior nodes (``mask``), ascending."""
        return _frozen(np.flatnonzero(self.mask))

    def restrict(self, values):
        """The interior entries of grid values, along the last axis."""
        return np.take(values, self.interior_index, axis=-1)

    def embed(self, interior_values):
        """Grid values, zero outside the interior, from interior ones along the last axis."""
        interior_values = np.asarray(interior_values)
        out = np.zeros(interior_values.shape[:-1] + (self.grid.size,), dtype=interior_values.dtype)
        out[..., self.interior_index] = interior_values
        return out

    def _blocks(self):
        """The stored eigenvector matrices, in the order of ``block_sizes``, each a view of the packed array."""
        packed = self.eigenvectors.reshape(-1)
        ends = np.cumsum([b * b for b in self.block_sizes], dtype=int)
        return [packed[e - b * b : e].reshape(b, b) for b, e in zip(self.block_sizes, ends)]

    @functools.cached_property
    def _runs(self):
        """(stored matrix, the coefficient slices of the runs that read it) per stored matrix."""
        blocks = self._blocks()
        runs, start = [(V, []) for V in blocks], 0
        for k in self.segments:
            runs[k][1].append(slice(start, start + self.block_sizes[k]))
            start += self.block_sizes[k]
        return runs

    def _run_products(self, y, adjoint):
        """V^H y (``adjoint``) or V y along the last axis of y, V the stored matrix of each run.

        The rows of y, of every run that reads one matrix, and the real and
        imaginary parts of complex y against a real matrix are stacked, so
        each stored matrix is read once.  Against a complex matrix V^H y is
        (y^* V)^* row by row; ``conj`` of a real array is the array itself.
        """
        Y = y.reshape(-1, y.shape[-1])
        stacked = np.iscomplexobj(Y) and not np.iscomplexobj(self.eigenvectors)
        if stacked:
            Y = np.concatenate([Y.real, Y.imag])
        elif adjoint:
            Y = Y.conj()
        out = np.empty(Y.shape, np.result_type(Y, self.eigenvectors))
        m = len(Y)
        for V, runs in self._runs:
            X = Y[:, runs[0]] if len(runs) == 1 else np.concatenate([Y[:, s] for s in runs])
            X = X @ (V if adjoint else V.T)
            for i, s in enumerate(runs):
                out[:, s] = X[i * m : (i + 1) * m]
        if stacked:
            out = out[: m // 2] + 1j * out[m // 2 :]
        elif adjoint:
            out = out.conj()
        return out.reshape(y.shape)

    def analyze(self, values):
        """Eigen-coefficients of grid values, taken on the interior.

        ``values`` is one vector or a stack (m, grid size); every transform of
        a plan acts on the last axis, so a stack costs one matrix product per
        axis basis and per run where m vectors would cost m.
        """
        y = _along_axes(self.restrict(values), self.inner_shape, [None if Q is None else Q.conj().T for Q in self.axis_bases])
        if self.order is not None:
            y = y[..., self.order]
        if self.butterfly is not None:
            y = _butterfly(y, *self.butterfly)
        return self._run_products(y, adjoint=True) if self.segments else y

    def synthesize(self, coef):
        """Grid values of an eigen-expansion, zero outside the interior (a stack row by row)."""
        y = np.asarray(coef)
        if self.segments:
            y = self._run_products(y, adjoint=False)
        if self.butterfly is not None:
            y = _butterfly(y, *self.butterfly, transpose=True)
        if self.order is not None:
            z = np.empty_like(y)
            z[..., self.order] = y
            y = z
        return self.embed(_along_axes(y, self.inner_shape, self.axis_bases))

    def health(self):
        """Grid, size, storage, spectrum, self-adjointness and eigensolve cost of the plan, as plain numbers.

        ``stored_bytes`` counts the arrays of the transform: the packed
        eigenvectors, the axis bases, the order and the butterfly.
        """
        lam = self.eigenvalues
        grid = self.grid
        stored = [self.eigenvectors, self.order, *self.axis_bases, self.butterfly and self.butterfly[0]]
        return {
            "kind": type(self).__name__,
            "grid": {
                "half_widths": [float(R) for R in grid.half_widths],
                "counts": [int(N) for N in grid.counts],
                "periodic": list(grid.periodic),
            },
            "n": int(self.mask.sum()),
            "blocks": [int(b) for b in self.block_sizes or self.inner_shape],  # a Kronecker plan's factors
            "solves": [int(b) for b in self.solves],
            "stored_bytes": sum(int(a.nbytes) for a in stored if a is not None),
            "lam_min": float(lam.min()),
            "lam_max": float(lam.max()),
            "negative": int((lam < 0).sum()),
            "sym_defect": self.sym_defect,
            "reflection_defect": self.reflection_defect,
            "turn_defect": self.turn_defect,
            "eigh_s": self.eigh_s,
        }

    def apply_multiplier(self, g, values):
        """V g V^* values for the multiplier array g = g(lam_plus), zero outside the interior mask.

        ``values`` is one vector or a stack (m, grid size).  The operator is
        real, so real values give real values.
        """
        out = self.synthesize(g * self.analyze(values))
        return out if np.iscomplexobj(values) else out.real

    def delta_kernel(self, g) -> GridFunction:
        """g(R) delta: one synthesis of g c_delta."""
        return GridFunction(self.grid, self.synthesize(g * self.delta_coefficients).real)

    def delta_mass(self, g):
        """The integral of g(R) delta, dV <analyze(1), g c_delta>, with no synthesis."""
        coef = g * self.delta_coefficients
        return float(self.grid.cell_volume * np.vdot(self.unit_coefficients, coef).real)


@dataclass
class CentralFourierPlan(SpectralPlan):
    """Plan of an operator that commutes with translations along its periodic axis p.

    Its axis basis on p is the unitary DFT with the ``ifftshift`` folded in,
    Q^H = fft(ifftshift(I)) (FFT frequency order, u = 0 at index 0), which
    splits the interior operator into one Hermitian block per frequency xi,
    acting on the interior of the other axes; its ``order`` lists the
    transformed nodes frequency by frequency.  ``inner_shape`` is whole
    along p.  The operator is real, so block -xi is the complex conjugate
    of block xi (``_central_fourier_plan``).
    """


@dataclass
class KroneckerPlan(SpectralPlan):
    """Plan of a Kronecker sum: one symmetric factor per axis of the interior box.

    The interior operator is sum_k I x ... x F_k x ... x I, so its
    eigenvectors are tensor products of the factors' eigenvectors: its
    ``axis_bases`` are the factors' orthonormal eigenbases, and it has no
    runs (``eigenvectors`` is empty).  ``eigenvalues`` is the outer
    sum of the factor spectra in C order, ascending only within each
    factor.  A factor solved as its even and odd halves under its axis flip
    (``_kronecker_plan``) keeps this layout: its basis vectors are exactly
    even or odd, and ``reflection_defect`` is the largest commutator of such
    a flip with its factor (0 when no factor takes one).
    """


def _along_axes(X, shape, mats):
    """Each matrix of ``mats`` (None: the identity) applied along its own axis
    of the box ``shape``, for each flat row of X (the last axis)."""
    lead = X.shape[:-1]
    X = X.reshape(lead + tuple(shape))
    for k, M in enumerate(mats, start=len(lead)):
        if M is not None:
            X = along_axis(M, X, k)
    return X.reshape(lead + (-1,))


def _butterfly(x, scale, pairs, transpose=False):
    """H x along the last axis of x, or H^T x (``transpose``), for H = K diag(scale).

    The last axis is taken as rows shaped like ``scale``, (r, c).  For each
    range (lo, hi, n) of ``pairs`` and j < n, K maps the entries lo + j and
    hi + j of every row from (a, b) to (a + b, a - b); K is symmetric.  x is
    overwritten where it can be (callers pass an array of their own).
    """
    lead = x.shape[:-1]
    y = x.reshape(lead + scale.shape)
    if not transpose:
        y *= scale
    for lo, hi, n in pairs:
        a, b = y[..., lo : lo + n], y[..., hi : hi + n]
        total = a + b
        np.subtract(a, b, out=b)
        a[...] = total
    if transpose:
        y *= scale
    return y.reshape(lead + (-1,))


def _dissipation_matrix(counts, p, strength=1.0):
    """Symmetric PSD high-pass on a box, symbol sum_k ((1 - cos theta_k)/2)^p, times ``strength``.

    Vanishes to order 2p on smooth modes but is O(1) on the sawtooth modes.
    No default plan takes it (see ``spectral_plan``).  The 1-D factor T^p
    is the power of a quarter of the Neumann graph Laplacian (end rows
    [1, -1]/4), so the matrix annihilates constants exactly in rows *and*
    columns: adding it to a discretized operator never changes discrete mass
    balance.  A ``KroneckerOperator`` of one term per axis.
    """
    terms = []
    for k, N in enumerate(counts):
        T = np.diag(np.full(N, 0.5)) - 0.25 * (np.eye(N, k=1) + np.eye(N, k=-1))
        T[0, 0] = T[-1, -1] = 0.25
        Tk = T
        for _ in range(p - 1):
            Tk = Tk @ T
        terms.append((strength, tuple(Tk if j == k else None for j in range(len(counts)))))
    return KroneckerOperator(tuple(counts), tuple(terms))


def spectral_plan(spec: RocklandSpec, law, grid: Grid, margin=4, reg_strength=0.0) -> SpectralPlan:
    """Discretize, restrict to the interior, symmetrize and diagonalize.

    The operator is assembled on the interior box by ``calculus.discretize``,
    as a ``KroneckerOperator``.  The margin
    (default 4 nodes, the reach of a product of two letter pairs) makes every
    retained row a pure central stencil, so the restricted operator
    annihilates constants away from the mask edge and discrete mass is
    conserved until the solution reaches it.  ``reg_strength`` > 0 adds a
    mass-neutral high-order dissipation term on the interior box, of that
    strength relative to a Gershgorin bound on the operator; no default plan
    takes one.

    On a grid with a periodic axis the plan is a ``CentralFourierPlan`` (see
    ``_central_fourier_plan``).  On a box grid it is a ``KroneckerPlan``
    when every axis shifts by whole nodes (``node_shift_axes``: the fields
    are the plain partial derivatives) and every word is a power of one
    letter; the interior operator, dissipation term included, is then
    exactly the Kronecker sum of one 1-D factor per axis, each the sum of
    the operator's terms on that axis.  Otherwise it is
    a ``SpectralPlan``, one dense eigensolve per block of the sign flips of
    ``sign_flip_group`` (see ``_reflection_plan``).  The box and
    central-Fourier plans also take the ``quarter_turn`` of the operator,
    when the grid maps onto itself under it (``_plan_turn``), and solve
    and store their blocks in its pieces.  Every plan's interior
    is the box of nodes ``margin`` or more from the boundary, whole along a
    periodic axis; before anything is assembled, an interior fewer than 3
    nodes wide along another axis (it holds no difference there), a
    largest dense block above ``MAX_DENSE_BLOCK`` nodes and a dissipation
    term on a periodic grid are refused, in that order.  Every block size
    follows from the interior box and the flips alone.

    Every multiplier clips the spectrum at 0, harmless only for rounding, so
    an operator with an eigenvalue below -1e-6 max(|lam_max|, 1) is not
    positive on the interior, and is refused (HeatError).
    """
    plan = _solve_plan(spec, law, grid, margin, reg_strength)
    lam = plan.eigenvalues
    if lam.min() < -1e-6 * max(abs(lam.max()), 1.0):
        raise HeatError(f"negative eigenvalue {lam.min()} beyond tolerance")
    return plan


def _solve_plan(spec, law, grid, margin, reg_strength):
    if isinstance(margin, int):
        margin = (margin,) * grid.ndim
    bounded = [j for j in range(grid.ndim) if j not in grid.periodic]
    inner_counts = tuple(
        N if j in grid.periodic else N - 2 * m for j, (N, m) in enumerate(zip(grid.counts, margin))
    )
    for j in bounded:
        if (w := max(inner_counts[j], 0)) < 3:
            raise HeatError(
                f"margin {margin[j]} leaves {w or 'no'} interior {'node' if w == 1 else 'nodes'} "
                f"along axis {j + 1} of {grid.counts} points; a plan needs at least 3"
            )
    kronecker = not grid.periodic and node_shift_axes(law) == tuple(range(grid.ndim))
    kronecker = kronecker and all(len(set(word)) <= 1 for word in spec.expr.terms)
    flips = sign_flip_group(law.algebra, spec.expr)
    turn = None if kronecker else _plan_turn(quarter_turn(law.algebra, spec.expr), flips, grid, margin)
    if grid.periodic:  # a central-Fourier block spans the non-periodic axes
        block = math.prod(inner_counts[j] for j in bounded)
    elif kronecker:
        block = max(inner_counts)
    else:
        block = max(_block_sizes(inner_counts, *_parity_blocks(inner_counts, flips)))
    if block > MAX_DENSE_BLOCK:
        raise HeatError(
            f"dense plan block of {block} interior nodes exceeds the bound of {MAX_DENSE_BLOCK}"
        )
    if grid.periodic and reg_strength:
        raise HeatError("plans on periodic grids take no dissipation term (reg_strength 0)")
    fields = dict(grid=grid, spec=spec, law=law, mask=grid.interior_mask(margin), inner_shape=inner_counts)
    if grid.periodic:
        return _central_fourier_plan(fields, flips, turn)
    box = tuple(slice((N - n) // 2, (N + n) // 2) for N, n in zip(grid.counts, inner_counts))
    A = discretize(spec.expr, law, grid, box)
    if reg_strength:
        gersh = float(np.abs(_band(A, _half_bandwidths(A))).sum(axis=tuple(range(1, 2 * grid.ndim, 2))).max())
        p = max(spec.expr.word_degrees(law.algebra.weights)) // 2 + 3
        A = A + _dissipation_matrix(inner_counts, p, reg_strength * gersh)
    half = _turn_half_bandwidths(A, turn)
    band = _band(A, half)
    norm = _frobenius(band)
    gap = _band(A.transpose(), half)  # in place: the band arrays are the set-up's largest temporaries
    gap -= band
    fields["sym_defect"] = _frobenius(gap) / norm if norm else 0.0
    del gap
    if kronecker:
        return _kronecker_plan(A, half, flips, fields)
    return _reflection_plan(A, band, flips, turn, fields)


def _frobenius(a):
    """Frobenius norm of an array."""
    return float(np.sqrt(np.vdot(a, a)))


def _kron_sum(terms, shapes):
    """sum_t c_t F_t,0 x F_t,1 x ... for factors of the shapes (r_k, q_k), as
    an array of shape (r_0, q_0, r_1, q_1, ...).

    One matrix product, of the scaled first factors against the outer
    products of the others, each flattened into a row (Van Loan and
    Pitsianis's rearrangement of a Kronecker product into a rank-1 matrix).
    """
    out = tuple(x for shape in shapes for x in shape)
    if not terms:
        return np.zeros(out)
    first = np.array([c * F[0] for c, F in terms]).reshape(len(terms), -1)
    rest = np.array([functools.reduce(np.multiply.outer, F[1:], np.ones(())) for _, F in terms])
    return (first.T @ rest.reshape(len(terms), -1)).reshape(out)


def _half_bandwidth(M):
    """The largest |i - j| over the nonzero entries M[i, j] (0 for a zero matrix)."""
    nonzero = M != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    first = nonzero[rows].argmax(axis=1)
    last = M.shape[1] - 1 - nonzero[rows, ::-1].argmax(axis=1)
    return int(max(np.max(rows - first, initial=0), np.max(last - rows, initial=0)))


def _half_bandwidths(A: KroneckerOperator):
    """Per axis, the largest |i - j| of any factor's nonzero entries; A^T has the same."""
    return [max((_half_bandwidth(f[k]) for _, f in A.terms if f[k] is not None), default=0) for k in range(len(A.counts))]


def _band(A: KroneckerOperator, half):
    """The entries of A by row and offset, shape (n_0, w_0, n_1, w_1, ...): B[i, o] = A[i, i + o - h].

    h_k = half[k] bounds |i_k - j_k| over the factors on axis k
    (``_half_bandwidths``), and w_k = 2 h_k + 1; an entry whose column
    leaves the box is 0.  Every entry is summed over
    the terms, as the assembled matrix sums it (``_kron_sum`` of the
    factors' rows of offsets), so the Gershgorin row sums, the Frobenius
    norm, the transpose (``_band`` of the transposed terms) and the axis
    flips (reversing a row axis with its offset axis) are all read off B
    entry by entry, without cancellation between terms.
    """
    rows = [np.arange(n)[:, None] + np.arange(-h, h + 1) for n, h in zip(A.counts, half)]
    inside = [(0 <= j) & (j < n) for j, n in zip(rows, A.counts)]
    terms = [
        (c, [
            (j == j[:, h : h + 1]).astype(float) if M is None else np.where(ok, M[np.arange(n)[:, None], np.clip(j, 0, n - 1)], 0.0)
            for M, j, ok, n, h in zip(factors, rows, inside, A.counts, half)
        ])
        for c, factors in A.terms
    ]
    return _kron_sum(terms, [j.shape for j in rows])


def _fixes(alg, expr, perm, s):
    """Whether the signed permutation X_j -> s_j X_perm(j) is a Lie algebra
    automorphism that maps the operator onto itself.

    It is an automorphism exactly when c_{perm(j) perm(k)}^{perm(l)} =
    s_j s_k s_l c_jk^l for every nonzero structure constant c_jk^l, and it
    fixes the operator exactly when every word w goes, with its coefficient
    times the product of s over its letters, to a word of the operator with
    that coefficient.
    """
    table = {(j, k, l): c for j, k, l, c in alg.nonzero_constants()}
    return all(
        table.get((perm[j], perm[k], perm[l]), 0) == s[j] * s[k] * s[l] * c for (j, k, l), c in table.items()
    ) and all(
        expr.terms.get(tuple(perm[i] for i in word), 0) == c * math.prod(s[i] for i in word)
        for word, c in expr.terms.items()
    )


def sign_flip_group(alg, expr):
    """The coordinate sign flips that are automorphisms fixing the operator.

    A sign vector s in {+1, -1}^n scales X_j to s_j X_j: the signed
    permutations of ``_fixes`` that leave every coordinate in place.  It is
    an automorphism exactly when s_j s_k = s_l for every nonzero structure
    constant c_jk^l, and it fixes the operator exactly when the product of
    s_j over the letters of every word is 1.  Returns the group as an
    (m, n) array of signs, the identity first; m is a power of 2.
    """
    keep = tuple(range(alg.n))
    flips = [s for s in itertools.product((1, -1), repeat=alg.n) if _fixes(alg, expr, keep, s)]
    return np.array(flips, dtype=int)


def quarter_turn(alg, expr):
    """The first signed swap of two coordinates of equal weight that is an
    automorphism fixing the operator (``_fixes``), as (perm, signs), or None.

    The swap of k < l maps X_k to s_k X_l and X_l to s_l X_k and keeps every
    other coordinate, so the point x goes to the y with y_l = s_k x_k and
    y_k = s_l x_l; equal weights make it commute with the dilations.  Pairs
    are tried in order, and the signs (s_k, s_l) in the order (1, 1),
    (1, -1), (-1, 1), (-1, -1).  On the Heisenberg group with the
    sub-Laplacian it is the quarter turn (x, y, u) -> (-y, x, u), whose
    square is the flip (-x, -y, u); a swap with s_k s_l = 1 is a reflection
    across a diagonal, its own inverse.  Found from the law and the words
    alone, as the flips are.
    """
    n, weights = alg.n, alg.weights
    for k, l in itertools.combinations(range(n), 2):
        if weights[k] != weights[l]:
            continue
        perm = tuple(l if j == k else k if j == l else j for j in range(n))
        for sk, sl in itertools.product((1, -1), repeat=2):
            s = tuple(sk if j == k else sl if j == l else 1 for j in range(n))
            if _fixes(alg, expr, perm, s):
                return perm, s
    return None


def _plan_turn(turn, flips, grid, margin):
    """The turn a plan on ``grid`` takes, or None.

    A plan takes the swap of axes k and l only if the two have equal counts,
    half-widths, margins and periodicity, so that it maps the interior onto
    itself, and only if it permutes the flips among themselves and its
    square is one of them, so that it maps each block of the flips onto a
    block (``_reflection_plan``).
    """
    if turn is None:
        return None
    perm, s = turn
    k, l = (j for j, m in enumerate(perm) if m != j)
    same = all(a[k] == a[l] for a in (grid.counts, grid.half_widths, margin))
    same = same and (k in grid.periodic) == (l in grid.periodic)
    rows = {tuple(f) for f in flips.tolist()}
    square = tuple(a * s[m] for a, m in zip(s, perm))
    if same and square in rows and {tuple(f) for f in flips[:, perm].tolist()} == rows:
        return turn
    return None


def _symmetry_defect(band, s, perm=None, sign=1, what="a sign flip"):
    """||P A P^T - sign A||_F / ||A||_F (0 for A = 0), on the entries ``band``
    of A (``_band``), P the reversal of the axes where s_k = -1 followed by
    the move of axis k to axis perm[k] (a swap, its own inverse; None keeps
    every axis, a flip).  A swap needs equal half-bandwidths on the two
    axes.  A defect above ``REFLECTION_TOL`` is refused (HeatError).
    """
    rev = tuple(slice(None, None, -1) if sk < 0 else slice(None) for sk in s for _ in "io")
    moved = band[rev]
    if perm is not None:
        moved = moved.transpose([2 * perm[m] + r for m in range(len(perm)) for r in (0, 1)])
    norm = _frobenius(band)
    d = _frobenius(moved - band if sign > 0 else moved + band) / norm if norm else 0.0
    if not d <= REFLECTION_TOL:
        raise HeatError(f"{what} fails to commute with the operator (defect {d:.1e})")
    return d


def _turn_half_bandwidths(A, turn):
    """``_half_bandwidths`` of A, equal on the axes that ``turn`` swaps (None: as they are)."""
    half = _half_bandwidths(A)
    return half if turn is None else [max(h, half[m]) for h, m in zip(half, turn[0])]


def _parity_rows(M, odd, axis=0):
    """P^T M along ``axis`` for the even (``odd`` False) or odd vectors P of
    the reversal of the n nodes of that axis: (e_i + e_{n-1-i}) / sqrt 2 for
    i < n // 2, then e_{n//2} when n is odd, or (e_i - e_{n-1-i}) / sqrt 2.
    The slices of M along the axis combine in mirror pairs."""
    n = M.shape[axis]
    at = (slice(None),) * axis
    top, bottom = M[at + (slice(n // 2),)], M[at + (slice(None, (n - 1) // 2, -1),)]
    if odd:
        return (top - bottom) * math.sqrt(0.5)
    even = (top + bottom) * math.sqrt(0.5)
    return np.concatenate([even, M[at + (slice(n // 2, n // 2 + 1),)]], axis=axis) if n % 2 else even


def _parity_expand(W, odd, n):
    """P W for the even or odd vectors P of ``_parity_rows`` on n nodes."""
    half = n // 2
    out = np.zeros((n,) + W.shape[1:])
    out[:half] = W[:half] * math.sqrt(0.5)
    out[::-1][:half] = -out[:half] if odd else out[:half]
    if n % 2 and not odd:
        out[half] = W[half]
    return out


def _parity_basis(n):
    """The orthogonal matrix of the even vectors, then the odd ones, of the reversal of n nodes."""
    even = n - n // 2
    return np.hstack([_parity_expand(np.eye(even), False, n), _parity_expand(np.eye(n - even), True, n)])


def _parity_blocks(shape, flips, split=None):
    """The axes that some flip reverses, and the parity patterns of each character block.

    A flip s reverses the box ``shape`` along the axes where s_k = -1, and a
    tensor product of per-axis even (0) and odd (1) vectors, of parity
    pattern pi on the reversed axes, transforms by the character
    chi_pi(s) = prod_k s_k^pi_k.  So the span of the patterns of one
    character is the whole subspace of that character (its isotypic part),
    an invariant subspace of every operator the flips fix: the plan's blocks
    are these spans (Fassler and Stiefel, 1992).  Characters are ordered by
    their values on the group, ascending, patterns within one ascending; a
    group of the identity alone gives one block of the empty pattern.  A
    given ``split`` (it must hold every reversed axis) takes the patterns
    over those axes instead.
    """
    if split is None:
        split = tuple(k for k in range(len(shape)) if (flips[:, k] < 0).any())
    blocks = {}
    for pi in itertools.product((0, 1), repeat=len(split)):
        chi = tuple(math.prod(int(s[k]) for k, p in zip(split, pi) if p) for s in flips)
        blocks.setdefault(chi, []).append(pi)
    return split, [blocks[chi] for chi in sorted(blocks)]


def _pattern_ranges(shape, split, pi):
    """Per axis, the range of transformed nodes of parity pattern ``pi`` (even first on a split axis)."""
    ranges = [range(n) for n in shape]
    for k, p in zip(split, pi):
        even = shape[k] - shape[k] // 2
        ranges[k] = range(even, shape[k]) if p else range(even)
    return ranges


def _block_sizes(shape, split, blocks):
    return [sum(math.prod(map(len, _pattern_ranges(shape, split, pi))) for pi in block) for block in blocks]


def _reflection_plan(A, band, flips, turn, fields):
    """The ``SpectralPlan`` of the interior operator A, one block per character of the flips.

    Every flip must commute with A to ``REFLECTION_TOL`` relative
    (Frobenius, on the entries ``band``), or the plan is refused
    (HeatError).  In the parity basis of the reversed axes each term's
    factor on axis k becomes Q_k^T M Q_k, and the block of a character is
    sum_t c_t x_k (P_k^T M_t,k P'_k) over the pairs of its parity patterns,
    P_k and P'_k the even or odd columns of axis k: a Kronecker product per
    term and pair, solved densely.

    A ``turn`` (``_plan_turn``) must commute with A as well, or the plan is
    refused.  It maps every parity vector to plus or minus a parity vector,
    so it maps each block onto a block by a signed permutation of their
    nodes (``_turn_map``).  A block it maps onto itself, where its square
    acts as 1, is solved and stored as its two eigenspaces
    (``_turn_pairs``); on the Heisenberg group those are the two blocks the
    flip (-x, -y, u) fixes.  Of two blocks it swaps, the first is solved,
    and the second's run reads its matrix through the signed permutation
    (the order and the butterfly's signs).  The 7 x 7 x 23 interior stores
    146, 138, 276, 153 and 138 nodes in place of 284, 276, 276 and 291.
    """
    shape = tuple(A.counts)
    defect = max((_symmetry_defect(band, s) for s in flips[1:]), default=0.0)
    split, patterns = _parity_blocks(shape, flips)
    bases = [_parity_basis(n) if k in split else None for k, n in enumerate(shape)]
    terms = _parity_terms(A, bases)
    nodes = np.arange(math.prod(shape)).reshape(shape)
    ranges = [[_pattern_ranges(shape, split, pi) for pi in block] for block in patterns]
    layout = np.concatenate([nodes[np.ix_(*r)].ravel() for block in ranges for r in block])
    sizes = _block_sizes(shape, split, patterns)
    starts = np.cumsum([0] + sizes)
    if turn is not None:
        image, sign = _turn_map(shape, split, turn, layout)
    steps, reads = {}, {}  # per block its _turn_pairs, and the block whose stored matrices it reads
    for i, b in enumerate(sizes):
        if i in steps:
            continue
        steps[i], reads[i] = _turn_pairs(np.arange(b), None), i
        if turn is not None:
            s = slice(starts[i], starts[i + 1])
            j = int(np.searchsorted(starts, image[s.start], side="right")) - 1
            to, by = image[s] - starts[j], sign[s]
            if j == i:
                steps[i] = _turn_pairs(to, by)
            else:  # block j is this one's image under the turn
                steps[j], reads[j] = (to, by, (), []), i
    blocks = range(len(sizes))
    solved = [i for i in blocks if reads[i] == i]
    first = dict(zip(solved, np.cumsum([0] + [len(steps[i][3]) for i in solved]).tolist()))
    stored = tuple(m for i in solved for m in steps[i][3])
    perm, scale, pairs, _ = _joined([steps[i] for i in blocks], starts)
    order = layout[perm]
    plan = SpectralPlan(
        eigenvalues=np.empty(A.shape[0]),
        eigenvectors=np.empty(sum(b * b for b in stored)),
        block_sizes=stored,
        segments=tuple(first[reads[i]] + q for i in blocks for q in range(len(steps[reads[i]][3]))),
        axis_bases=tuple(bases),
        order=None if np.array_equal(order, nodes.ravel()) else _frozen(order),
        butterfly=None if (scale == 1).all() and not pairs else (_frozen(scale[None]), pairs),
        reflection_defect=defect,
        turn_defect=0.0 if turn is None else _symmetry_defect(band, turn[1], turn[0], what="the turn"),
        **fields,
    )
    views, stats = plan._blocks(), {}
    for i in solved:
        perm, scale, pairs, pieces = steps[i]
        M = _in_pairs(_pattern_block(terms, ranges[i]), perm, scale, pairs)
        edges = np.cumsum([0] + pieces)
        for q, (a, b) in enumerate(zip(edges, edges[1:])):
            w, V = _eigh(M[a:b, a:b], stats)
            views[first[i] + q][...] = V
            plan.eigenvalues[starts[i] + a : starts[i] + b] = w
    for j, i in reads.items():
        if j != i:
            plan.eigenvalues[starts[j] : starts[j + 1]] = plan.eigenvalues[starts[i] : starts[i + 1]]
    return dataclasses.replace(plan, **stats)


def _turn_map(shape, split, turn, layout):
    """Where the turn sends each transformed node of a box, and with which sign.

    The transformed nodes are the tensor products of one basis vector per
    axis: a parity vector (``_parity_basis``) on an axis of ``split``, a
    node on any other.  The turn (perm, s) moves axis k to axis perm[k],
    reversed where s_k = -1, which keeps a parity vector up to its sign
    (-1 for an odd one) and sends node c to node n - 1 - c.  ``layout``
    lists the transformed nodes (C-order flat indices of ``shape``) in the
    order of a plan's blocks; returns per position i of the layout the
    position image[i] and the sign sign[i] with P e_i = sign[i] e_image[i].
    """
    perm, s = turn
    index = np.indices(shape)
    sign = np.ones(shape)
    moved = [None] * len(shape)
    for k, n in enumerate(shape):
        c = index[k]
        if s[k] < 0:
            if k in split:
                sign[c >= n - n // 2] *= -1
            else:
                c = n - 1 - c
        moved[perm[k]] = c
    position = np.empty(len(layout), dtype=np.intp)
    position[layout] = np.arange(len(layout))
    return position[np.ravel_multi_index(moved, shape).ravel()[layout]], sign.ravel()[layout]


def _turn_pairs(image, sign):
    """The eigenspaces of the signed involution J e_i = sign[i] e_image[i] of one block.

    Returns (perm, scale, pairs, sizes): the positions reordered as ``perm``
    (the pairs i < image[i], the fixed nodes of sign +1, the images, those
    of sign -1) and the one-row ``_butterfly`` (scale, pairs) onto
    orthonormal bases of J's +1 eigenspace, (e_i + sign[i] e_image[i]) /
    sqrt 2 and the fixed e_i, and of its -1 eigenspace, of the nonzero
    dimensions ``sizes``.  When J is no involution, or ``sign`` is None,
    the block stays whole.
    """
    n = len(image)
    idx = np.arange(n)
    if sign is None or not (np.array_equal(image[image], idx) and np.all(sign * sign[image] == 1)):
        return idx, np.ones(n), (), [n]
    fixed = idx == image
    lo, plus, minus = idx[idx < image], idx[fixed & (sign > 0)], idx[fixed & (sign < 0)]
    root = math.sqrt(0.5)
    perm = np.concatenate([lo, plus, image[lo], minus])
    scale = np.concatenate([np.full(len(lo), root), np.ones(len(plus)), root * sign[lo], np.ones(len(minus))])
    top = len(lo) + len(plus)
    return perm, scale, ((0, top, len(lo)),) if len(lo) else (), [m for m in (top, n - top) if m]


def _in_pairs(M, perm, scale, pairs):
    """H P M P^T H^T: the matrix M of one block in the bases of its
    ``_turn_pairs`` (perm, scale, pairs), P the reorder ``perm`` and H the
    butterfly; M itself when they keep it whole."""
    if not pairs and np.array_equal(perm, np.arange(len(perm))):
        return M
    M = _butterfly(M[np.ix_(perm, perm)], scale[None], pairs)
    return _butterfly(M.T, scale[None], pairs).T


def _joined(steps, starts):
    """The ``_turn_pairs`` of consecutive blocks, which start at the positions ``starts``, as one."""
    perm, scale, pairs, pieces = zip(*steps)
    return (
        np.concatenate([start + p for start, p in zip(starts, perm)]),
        np.concatenate(scale),
        tuple((int(start) + lo, int(start) + hi, n) for start, block in zip(starts, pairs) for lo, hi, n in block),
        [m for p in pieces for m in p],
    )


def _parity_terms(A, bases):
    """The terms of A with each factor M on an axis of basis Q (None: the identity) as Q^T M Q."""
    return [
        (c, [M if Q is None or M is None else Q.T @ M @ Q for M, Q in zip(factors, bases)])
        for c, factors in A.terms
    ]


def _pattern_block(terms, block):
    """sum_t c_t x_k F_t,k[r_k, q_k] over the pattern pairs (r, q) of a block, dense (``_kron_sum``)."""
    sizes = [math.prod(map(len, r)) for r in block]
    starts = np.cumsum([0] + sizes)
    out = np.empty((starts[-1], starts[-1]))
    d = len(block[0])
    for (a, r), (b, q) in itertools.product(enumerate(block), repeat=2):
        parts = [
            (c, [np.eye(len(ri)) if F is None else F[ri.start : ri.stop, qi.start : qi.stop] for F, ri, qi in zip(factors, r, q)])
            for c, factors in terms
            if all(F is not None or ri == qi for F, ri, qi in zip(factors, r, q))  # an identity keeps parity
        ]
        Z = _kron_sum(parts, [(len(ri), len(qi)) for ri, qi in zip(r, q)])
        out[starts[a] : starts[a + 1], starts[b] : starts[b + 1]] = Z.transpose(
            list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
        ).reshape(sizes[a], sizes[b])
    return out


def _eigh(A, stats):
    """Ascending eigenvalues and orthonormal eigenvectors of the Hermitian part (A + A^H)/2 of A.

    A is symmetrized in place, so that no second dense copy exists, and
    solved by numpy's divide and conquer (LAPACK ``dsyevd``, ``zheevd`` on a
    complex A; Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995), 1.55x
    faster than ``dsyevr`` on the n = 5445 Heisenberg plan.  Adds the seconds
    spent to ``stats["eigh_s"]`` and appends the size of the solve to
    ``stats["solves"]``, for the plan's ``health``.  A matrix with a NaN or
    an infinite entry (a degenerate grid) is refused before LAPACK sees it.
    """
    if not np.isfinite(A).all():
        raise HeatError("eigendecomposition failed: the matrix has a non-finite entry")
    A += A.conj().T  # conj of a real array is the array itself
    A *= 0.5
    start = time.perf_counter()
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise HeatError(f"eigendecomposition failed: {exc}") from exc
    stats["eigh_s"] = stats.get("eigh_s", 0.0) + time.perf_counter() - start
    stats["solves"] = stats.get("solves", ()) + (len(w),)
    return w, V


def _kronecker_plan(A, half, flips, fields):
    """The ``KroneckerPlan`` of an interior operator that is a Kronecker sum.

    Every term of A acts on one axis at most, so A = sum_k I x ... x F_k x
    ... x I, F_k the sum of the terms on axis k; multiples of the identity
    (the identity word, say) join F_0.  ``half`` bounds the factors' half
    bandwidths (``_half_bandwidths``).

    When the flip of axis k alone is in ``flips`` (``sign_flip_group``), it
    must commute with F_k to ``REFLECTION_TOL`` (or the plan is refused),
    and F_k splits into its odd and even halves P^T F_k P (``_parity_rows``),
    each summed term by term and solved on its own: two solves of about
    n/2 nodes cost about a quarter of one solve of n.  Each half's
    eigenvectors go through its parity vectors straight into their columns
    of the factor's axis basis, in the order in which the factor's
    eigenvalues ascend.  A factor whose flip is not in the group is solved
    whole.
    """
    counts = tuple(A.counts)
    factors = [[] for _ in counts]
    for c, mats in A.terms:
        (k,) = [k for k, M in enumerate(mats) if M is not None] or [0]
        factors[k].append((c, mats[k]))
    bases = tuple(np.empty((n, n)) for n in counts)
    spectra = []
    defect = 0.0
    stats = {}
    for k, (n, terms, V) in enumerate(zip(counts, factors, bases)):
        F = KroneckerOperator((n,), tuple((c, (M,)) for c, M in terms))
        own = 1 - 2 * (np.arange(flips.shape[1]) == k)  # the flip of axis k alone
        if (flips == own).all(axis=1).any():
            defect = max(defect, _symmetry_defect(_band(F, half[k : k + 1]), [-1]))
            halves = []
            for odd in (True, False):
                block = np.zeros((n // 2 if odd else n - n // 2,) * 2)
                for c, M in terms:
                    if M is None:
                        block[np.diag_indices_from(block)] += c
                    else:
                        block += c * _parity_rows(_parity_rows(M, odd), odd, axis=1)
                halves.append((odd, *_eigh(block, stats)))
        else:
            halves = [(None, *_eigh(F.toarray(), stats))]
        w = np.concatenate([h[1] for h in halves])
        order = np.argsort(w, kind="stable")
        column = np.empty(n, dtype=int)
        column[order] = np.arange(n)
        start = 0
        for odd, wh, W in halves:
            V[:, column[start : start + len(wh)]] = W if odd is None else _parity_expand(W, odd, n)
            start += len(wh)
        spectra.append(w[order])
    return KroneckerPlan(
        eigenvalues=functools.reduce(np.add.outer, spectra).ravel(),
        eigenvectors=np.empty(0),
        axis_bases=bases,
        reflection_defect=defect,
        **fields,
        **stats,
    )


def _central_fourier_plan(fields, flips, turn):
    """Plan on a grid whose one periodic axis p is a central coordinate.

    ``fields`` holds the plan's grid, operator and law, and the interior
    (``mask``, ``inner_shape``) that ``_solve_plan`` decided; ``flips`` is
    the operator's ``sign_flip_group``.

    When the operator's words have length at most 2 and the field
    coefficients do not involve x_p, the operator commutes with translations
    along p, and a DFT along p turns it into one operator per frequency xi on
    the other axes: d_p becomes i xi.  The blocks are the exact normal form
    of the operator grouped by the power alpha_p of d_p,
    S + i xi T - xi^2 U, each group a ``KroneckerOperator`` on the other
    axes with compact stencils of order 8 (central within a margin of 4),
    restricted to the interior.  For the Heisenberg sub-Laplacian the block is
    L_xi = -Delta_xy + i xi (y d_x - x d_y) + xi^2 (x^2 + y^2)/4, the
    structure behind the Mehler-type formula.  Longer words and coefficients
    in x_p are refused.

    The first flip s of ``flips`` with s_p = -1 ((x, y, u) -> (x, -y, -u)
    on the Heisenberg group) maps xi to -xi, so its reversal R of the other
    axes must fix S and U and reverse T, each to ``REFLECTION_TOL``, or the
    plan is refused (HeatError).  Then in the unitary basis (P+, i P-) of
    R's even and odd vectors, built factor by factor as a reflection plan's
    blocks are, the block is the real symmetric S' + xi T~ - xi^2 U': S' and
    U' keep their even-even and odd-odd blocks, and T~ is -P+^T T P- and
    P-^T T P+ off the diagonal.  Its eigenvectors W give the block's as
    P+ W+ + i P- W-; (P+, i P-) is the plan's axis bases, and W is stored
    real.  The conjugate basis is the basis with the sign -1 on its vectors
    of phase +-i, so only xi >= 0 is stored: the runs of -xi read xi's
    matrices, with those signs in the butterfly.  Without such a flip the
    complex block is solved as it is, at every frequency.

    A ``turn`` (``_plan_turn``; it keeps p) must commute with S, T and U to
    ``REFLECTION_TOL``, or the plan is refused.  On the Heisenberg group the
    quarter turn (x, y) -> (-y, x) commutes with every block, and R followed
    by complex conjugation keeps each of its four characters, so the block
    splits into four real pieces: the turn's square (-x, -y) is +1 or
    -1 on the tensor products of even and odd vectors of both axes (the
    patterns, grouped by ``_parity_blocks``), and on each group the turn,
    times -i where the i of the basis does not cancel, is a real signed
    involution of the basis vectors (``_turn_map``), solved and stored as
    its two eigenspaces (``_turn_pairs``).  The 25 x 25 interior stores
    156, 156, 157 and 156 nodes per frequency in place of 625: 12.5 MB on
    the default heat plan, not 31 complex blocks of 625^2 (193.75 MB).
    """
    grid, law, inner_shape = fields["grid"], fields["law"], fields["inner_shape"]
    if len(grid.periodic) != 1:
        raise HeatError("a central-Fourier plan needs exactly one periodic axis")
    (p,) = grid.periodic
    others = [j for j in range(grid.ndim) if j != p]
    if not others:
        raise HeatError("a central-Fourier plan needs a non-periodic axis")
    expr = fields["spec"].expr
    if expr.max_word_length() > 2:
        raise HeatError(f"plans on periodic grids need words of length at most 2, got {expr.max_word_length()}")
    vector_fields = left_invariant_fields(law)
    groups = [{}, {}, {}]  # the normal form by the power of d_p, d_p dropped
    for word, c in expr.terms.items():
        for alpha, a in normal_form(word, vector_fields).items():
            group = groups[alpha[p]]
            rest = alpha[:p] + alpha[p + 1 :]
            group[rest] = group.get(rest, 0) + c * a
    if any(a.involves(p) for group in groups for a in group.values()):
        raise HeatError(f"operator coefficients involve the periodic coordinate x{p + 1}")

    sub = Grid(tuple(grid.half_widths[j] for j in others), tuple(grid.counts[j] for j in others))
    # the interior is the same on every line along p
    shape = tuple(inner_shape[j] for j in others)
    box = tuple(slice((N - n) // 2, (N + n) // 2) for N, n in zip(sub.counts, shape))
    ops = [kronecker_operator(form_terms(g, others), sub, acc=8).restrict(box) for g in groups]
    flip = next((f[others] for f in flips if f[p] < 0), None)
    imag, signs = ((), ()) if flip is None else (tuple(np.flatnonzero(flip < 0)), (1, -1, 1))  # R T R = -T
    defect = max(
        (_symmetry_defect(_band(op, _half_bandwidths(op)), flip, sign=sign) for op, sign in zip(ops, signs)), default=0.0
    )
    perm, square = list(range(len(others))), [1] * len(others)  # the turn on the other axes, and its square
    turn_defect = 0.0
    if turn is not None:
        perm, s = [others.index(turn[0][j]) for j in others], [turn[1][j] for j in others]
        turn = perm, s
        turn_defect = max(
            _symmetry_defect(_band(op, _turn_half_bandwidths(op, turn)), s, perm, what="the turn") for op in ops
        )
        square = [a * s[m] for a, m in zip(s, perm)]
    # parity bases on the axes that R or the square reverses, and on their images under the turn
    split = tuple(k for k in range(len(others)) if any(j in imag or square[j] < 0 for j in (k, perm[k])))
    _, groups = _parity_blocks(shape, np.array([[1] * len(others), square]), split)
    patterns = [pi for group in groups for pi in group]
    ranges = [_pattern_ranges(shape, split, pi) for pi in patterns]
    nodes = np.arange(math.prod(shape)).reshape(shape)
    layout = np.concatenate([nodes[np.ix_(*r)].ravel() for r in ranges])
    # the basis (P+, i P-): i on each odd vector of an axis that R reverses
    phase = np.concatenate([
        np.full(math.prod(map(len, r)), 1j ** sum(b for k, b in zip(split, pi) if k in imag))
        for r, pi in zip(ranges, patterns)
    ])
    bases = [_parity_basis(n) if k in split else None for k, n in enumerate(shape)]
    S, T, U = (c * _pattern_block(_parity_terms(op, bases), ranges) for c, op in zip((1, 1j, 1), ops))
    S, T, U = (phase.conj()[:, None] * X * phase for X in (S, T, U))
    if flip is not None:  # the flip check leaves only rounding in the imaginary parts
        S, T, U = S.real, T.real, U.real
    b = nodes.size
    # the order within each frequency, its butterfly row and its pieces
    within, scale, pairs, pieces = (
        _turn_pairs(np.arange(b), None) if turn is None else _twisted_pairs(shape, split, turn, layout, phase, groups)
    )
    edges = np.cumsum([0] + pieces)

    M = grid.counts[p]
    xi = 2 * np.pi * np.fft.fftfreq(M, d=grid.spacings[p])
    K = M // 2 + 1  # the frequencies up to the conjugate pairs
    c = np.array([np.ones(K), xi[:K], -xi[:K] ** 2]) * np.sqrt(np.minimum(np.arange(K), 1) + 1.0)
    num, den = _gram_norm(c, [X - X.conj().T for X in (S, T, U)]), _gram_norm(c, (S, T, U))
    S, T, U = (_in_pairs(X, within, scale, pairs) for X in (S, T, U))
    parts = [[X[a:z, a:z] for X in (S, T, U)] for a, z in zip(edges, edges[1:])]
    solved = K if flip is not None else M  # complex blocks: every frequency solved and stored
    w = np.empty((M, b))
    plan = CentralFourierPlan(
        eigenvalues=w.reshape(-1),
        eigenvectors=np.empty(solved * sum(m * m for m in pieces), dtype=S.dtype),
        sym_defect=float(np.sqrt(num / den)) if den else 0.0,
        block_sizes=tuple(pieces) * solved,
        segments=tuple((k if k < solved else M - k) * len(pieces) + q for k in range(M) for q in range(len(pieces))),
        **fields,
    )
    views, stats = plan._blocks(), {}
    for k in range(solved):
        for q, ((S_, T_, U_), a, z) in enumerate(zip(parts, edges, edges[1:])):
            w[k, a:z], V = _eigh(S_ + xi[k] * T_ - xi[k] ** 2 * U_, stats)
            views[k * len(pieces) + q][...] = V
    w[solved:] = w[M - np.arange(solved, M)]
    # the runs of -xi: conj(B) = B D, D = conj(phase)^2 the signs of the basis vectors of phase +-i
    flipped = (np.arange(M) >= solved)[:, None]
    scale = np.where(flipped, scale * (phase.conj() ** 2).real[within], scale)
    # the basis vectors themselves: i times the odd vectors of each axis R reverses
    bases = [Q * np.where(np.arange(len(Q)) < len(Q) - len(Q) // 2, 1, 1j) if k in imag else Q for k, Q in enumerate(bases)]
    dft = np.fft.fft(np.fft.ifftshift(np.eye(M), axes=0), axis=0, norm="ortho")  # Q^H on the axis
    frequencies = np.moveaxis(np.arange(math.prod(inner_shape)).reshape(inner_shape), p, 0).reshape(M, b)
    return dataclasses.replace(
        plan,
        axis_bases=tuple(dft.conj().T if j == p else bases[others.index(j)] for j in range(grid.ndim)),
        order=_frozen(frequencies[:, layout[within]].ravel()),
        butterfly=None if (scale == 1).all() and not pairs else (_frozen(scale), pairs),
        reflection_defect=defect,
        turn_defect=turn_defect,
        **stats,
    )


def _twisted_pairs(shape, split, turn, layout, phase, groups):
    """The ``_turn_pairs`` of a central-Fourier block under the turn, group by group of patterns, joined.

    In the basis f_i = phase[i] e_i the turn P sends f_i to
    sign[i] phase[i] / phase[image[i]] f_image[i] (``_turn_map``).  On a
    group of patterns these factors are all real or all imaginary (their
    ratio is the character of a flip that keeps p), so P, or -i P, is a real
    signed permutation J there, which commutes with the real block: each
    group is split into J's two eigenspaces.  Positions are those of the
    whole block, ordered group by group.
    """
    image, sign = _turn_map(shape, split, turn, layout)
    factor = sign * phase / phase[image]
    starts = np.cumsum([0] + _block_sizes(shape, split, groups))
    steps = []
    for a, z in zip(starts, starts[1:]):
        f = factor[a:z]
        real = f.real if not f.imag.any() else f.imag if not f.real.any() else None
        steps.append(_turn_pairs(image[a:z] - a, real))
    return _joined(steps, starts)


def _gram_norm(c, mats):
    """sum over the columns k of ||sum_i c[i, k] mats[i]||_F^2, from the Gram matrix of ``mats``."""
    G = np.array([[np.vdot(a, b).real for b in mats] for a in mats])
    return max(float(np.einsum("ik,ij,jk->", c, G, c)), 0.0)


def dilated_plan(plan: SpectralPlan, rho) -> SpectralPlan:
    """The plan on the dilation image D_rho of the grid, without a new solve.

    A homogeneous operator of degree nu on the dilated grid is the entrywise
    rescaling rho^{-nu} of the original matrix, since every term
    c_alpha(x) d^alpha of a letter pair's normal form is homogeneous of the
    pair's degree, stencils included (a dissipation term, when one is asked
    for, rescales with its Gershgorin dose).  So the eigenvectors carry over
    and only the eigenvalues change.
    """
    if plan.spec.nu is None:
        raise HeatError("exact plan rescaling requires a homogeneous operator")
    return dataclasses.replace(
        plan,
        grid=plan.grid.dilated(rho, plan.law.algebra.weights),
        eigenvalues=plan.eigenvalues * float(rho) ** (-plan.spec.nu),
    )


def heat_multiplier(plan: SpectralPlan, t):
    """e^{-t lam_plus}, the heat multiplier at time t: one row of ``_ladder_multipliers``, so 0 where -t lam < ``EXP_FLOOR``."""
    return _ladder_multipliers(plan.lam_plus, [t], [1.0])[0]


# Bytes of exponents per block of ladder rows in ``_ladder_multipliers``: 58
# rows of a 1127-eigenvalue plan.  Smaller blocks pay more numpy calls per
# ladder and larger ones leave the cache: on that plan a 600-node quadrature
# took 10-50% longer with 64 KB or 8 MB blocks.
LADDER_BLOCK_BYTES = 1 << 19


def _ladder_multipliers(mu, times, coefs):
    """sum_i c_{r,i} e^{-t_i mu} for every coefficient row r: shape (k, mu.size).

    ``coefs`` holds one row of weights per multiplier, shape (k, len(times)),
    or one row as a 1-D array.  Each block of ladder rows,
    ``LADDER_BLOCK_BYTES`` of exponents -t_i mu in a buffer kept for the
    call, is exponentiated in place and added as one matrix product
    ``coefs[:, block] @ E`` (the first block writes the result), so no array
    holds the whole ladder times the spectrum.  A term whose exponent lies
    below ``EXP_FLOOR`` counts as 0: it is below e^{-700} = 1e-304, and
    numpy's exp is about a hundred times slower where its result would be
    subnormal (exp of -inf, though exactly 0, is slower too).  -t_i mu may
    overflow to -inf, which is such a term, without a warning.  The fixed
    cost of a call, which one time (``heat_multiplier``) pays in full, is
    one error-state context, three allocations and per block five
    elementwise passes and one ``np.dot`` (a third of ``@``'s overhead on
    small operands).
    """
    mu, times = np.asarray(mu, dtype=float), np.asarray(times, dtype=float)
    rows = np.asarray(coefs, dtype=float).reshape(-1, len(times))
    step = max(1, LADDER_BLOCK_BYTES // (8 * mu.size))
    buf = np.empty((min(step, len(times)), mu.size))
    dropped = np.empty(buf.shape, dtype=bool)
    out = np.empty((len(rows), mu.size))
    with np.errstate(over="ignore"):
        for i in range(0, len(times), step):
            t = times[i : i + step]
            e, low = buf[: len(t)], dropped[: len(t)]
            np.multiply(-t[:, None], mu, out=e)
            np.less(e, EXP_FLOOR, out=low)
            np.copyto(e, 0.0, where=low)
            np.exp(e, out=e)
            np.copyto(e, 0.0, where=low)
            if i:
                out += np.dot(rows[:, i : i + step], e)
            else:
                np.dot(rows[:, : len(t)], e, out=out)
    return out


def heat_apply(plan: SpectralPlan, f: GridFunction, t) -> GridFunction:
    """e^{-tR} f (t = 0 is the identity on the interior)."""
    if t < 0:
        raise HeatError("time must be nonnegative")
    return GridFunction(plan.grid, plan.apply_multiplier(heat_multiplier(plan, t), f.values))


def heat_kernel(plan: SpectralPlan, t) -> GridFunction:
    """h_t: heat flow started from the discrete delta at the origin."""
    if t < 0:
        raise HeatError("time must be nonnegative")
    return plan.delta_kernel(heat_multiplier(plan, t))


# ---------------------------------------------------------------------------
# Heat source with self-similar large-time continuation


class HeatKernelSource:
    """Evaluates h_t on the grid for any t > 0, alone or in weighted sums.

    For small and moderate t, h_t is the plan's ``delta_kernel`` of
    e^{-t lam_plus}.  Once the kernel outgrows the box (a mass loss, read off
    the coefficients by ``delta_mass``), the scaling identity
    h_t(x) = (t/t0)^{-Q/nu} h_{t0}(D_{(t/t0)^{-1/nu}} x) continues it from a
    well-resolved reference time t0, resampled on the grid by
    ``resample_dilated``.  The continuation requires a homogeneous operator
    on a box grid; inhomogeneous operators, and periodic grids (whose period
    a dilation would change), fall back to the direct route.

    ``ladder_sum`` evaluates sum_i c_i h_{t_i}, the form of every potential
    kernel, for one row of coefficients c per kernel: each row's direct
    nodes fold into one multiplier, all rows share one stacked synthesis,
    and the continuation nodes are one matrix product with the stack of
    their continued kernels.  The source resamples each continuation time
    once per ladder for its life: it keeps the stack of the last ladder's
    late times, n_late x grid size floats (60 x 6975 x 8 B = 3.3 MB on the
    15 x 15 x 31 heisenberg box, at most about 19 MB at the 40 000-node grid
    cap), and a ladder with other late times replaces it.
    """

    MASS_TOL = 5e-4  # largest mass defect of the direct route up to t_switch

    def __init__(self, plan: SpectralPlan):
        self.plan = plan
        self.Q = plan.law.algebra.homogeneous_dimension
        self.nu = plan.spec.nu
        self.t_switch = np.inf
        self.mass_at_switch = 1.0
        self._ref = None
        self._late_times = self._late_stack = None
        if self.nu is not None and not plan.grid.periodic:
            t_sw = None
            for t in np.geomspace(1e-3, 20.0, 36):  # direct-route masses: t_switch is inf
                if abs(self.mass(t) - 1.0) <= self.MASS_TOL:
                    t_sw = t
                elif t_sw is not None:
                    break
            if t_sw is not None:
                self.t_switch = float(t_sw)
                g = heat_multiplier(plan, self.t_switch)
                self._ref, self.mass_at_switch = plan.delta_kernel(g), plan.delta_mass(g)

    def _continued(self, t):
        """Grid values of h_t past the switch, by the scaling identity."""
        r = (t / self.t_switch) ** (-1.0 / self.nu)
        scale = (t / self.t_switch) ** (-self.Q / self.nu)
        return scale * resample_dilated(self._ref, r, self.plan.law.algebra.weights).values

    def _continued_stack(self, times):
        """The rows ``_continued(t)`` for the late ``times``, built on the first call per ladder and kept."""
        if self._late_times is None or not np.array_equal(times, self._late_times):
            self._late_times = self._late_stack = None  # never two stacks at once
            stack = np.empty((len(times), self.plan.grid.size))
            for row, t in zip(stack, times):
                row[:] = self._continued(t)
            self._late_times, self._late_stack = times.copy(), stack
        return self._late_stack

    def __call__(self, t) -> GridFunction:
        if not 0 < t < math.inf:
            raise HeatError("time must be positive and finite")
        if t <= self.t_switch:
            return self.plan.delta_kernel(heat_multiplier(self.plan, t))
        return GridFunction(self.plan.grid, self._continued(t))

    def mass(self, t):
        """int h_t: the plan's ``delta_mass`` up to t_switch, ``mass_at_switch`` past it."""
        if t <= self.t_switch:
            return self.plan.delta_mass(heat_multiplier(self.plan, t))
        return self.mass_at_switch

    def ladder_sum(self, times, coefs):
        """sum_i c_i h_{t_i} as grid values, and its integral sum_i c_i int h_{t_i}, per row of ``coefs``.

        ``coefs`` holds one row of n weights per kernel, shape (k, n) for
        the n ``times``; then the values are (k, grid size) and the integrals
        (k,).  A 1-D ``coefs`` is the case k = 1 and gives one vector and one
        float.  The direct nodes (t_i <= t_switch) fold into one multiplier
        row m = sum_i c_i e^{-t_i lam_plus} per kernel, all rows in blocked
        passes over the nodes (``_ladder_multipliers``): the rows share one
        stacked synthesis of m c_delta, and each row's integral is the
        ``delta_mass`` of its m.  The continuation nodes are one product of
        the coefficient rows with ``_continued_stack``, which resamples the
        reference kernel once per late time and ladder, and each carries
        the mass ``mass_at_switch``.  Equal to summing c_i ``self(t_i)`` up
        to rounding.
        """
        times, coefs = np.asarray(times, dtype=float), np.asarray(coefs, dtype=float)
        if not np.all((0 < times) & (times < math.inf)):
            raise HeatError("time must be positive and finite")
        rows = coefs.reshape(-1, len(times))
        direct = times <= self.t_switch
        values = np.zeros((len(rows), self.plan.grid.size))
        mass = np.zeros(len(rows))
        if direct.any():
            mult = _ladder_multipliers(self.plan.lam_plus, times[direct], rows[:, direct])
            values += self.plan.synthesize(mult * self.plan.delta_coefficients).real
            mass += [self.plan.delta_mass(m) for m in mult]
        if not direct.all():
            late = rows[:, ~direct]
            values += late @ self._continued_stack(times[~direct])
            mass += late.sum(axis=1) * self.mass_at_switch
        if coefs.ndim == 1:
            return values[0], float(mass[0])
        return values, mass

    def value_at_origin_late(self):
        """t^{Q/nu} h_t(0) for large t (constant by self-similarity)."""
        if self._ref is None:
            raise HeatError("no self-similar continuation available")
        h0 = float(self._ref.values[self.plan.grid.origin_index])  # the origin is a node
        return self.t_switch ** (self.Q / self.nu) * h0


# ---------------------------------------------------------------------------
# Identity checks


def check_mass(h: GridFunction, c=0.0, t=0.0):
    """|e^{ct} int h_t - 1|: the heat kernel of L + cI has mass e^{-ct}, judged after that factor.

    Where e^{ct} leaves the float range the defect is inf or nan, which fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(abs(np.exp(c * t) * np.real(haar_integrate(h)) - 1.0))


def check_symmetry(h: GridFunction):
    """sup |h(x) - h(x^{-1})| / sup |h|, or inf for a kernel that vanishes."""
    diff = h.values - h.flipped().values
    peak = np.max(np.abs(h.values))
    return float(np.max(np.abs(diff)) / peak) if peak else np.inf


def check_semigroup(plan: SpectralPlan, law, pairs):
    """max over (t, s) in ``pairs`` of || h_t * h_s - h_{t+s} ||_1 via group convolution.

    Each h_t is ``heat_kernel(plan, t)``, computed once per distinct time.
    The defect is measured on ``plan.mask``, away from the boundary stencil
    band, which carries no verification claim; a NaN defect stays NaN, so it
    fails.  An empty ``pairs`` is refused (HeatError).
    """
    if not pairs:
        raise HeatError("no (t, s) pairs to check")
    times = {t for pair in pairs for t in pair} | {t + s for t, s in pairs}
    h = {t: heat_kernel(plan, t) for t in times}
    defects = [
        lp_norm(group_convolve(law, h[t], h[s], zero_tol=1e-12) - h[t + s], 1, mask=plan.mask)
        for t, s in pairs
    ]
    return float(np.max(defects))


def check_self_similarity(plan: SpectralPlan, plan_scaled: SpectralPlan, t1, t2):
    """Cross-check h_{t2} on the scaled plan against the dilated h_{t1} on ``plan``.

    ``plan_scaled`` lives on the image of ``plan``'s grid under D_r with
    r = (t2/t1)^{1/nu}; the scaling identity predicts
    h_{t2}(x) = r^{-Q} h_{t1}(D_{1/r} x).  Node i of the image grid is D_r of
    node i of the base grid, so the prediction is r^{-Q} h_{t1} node for node.
    Returns the relative L1 defect on the scaled plan's interior mask, or inf
    when h_{t2} vanishes there (a kernel too coarse to resolve).  In
    ``verify`` the scaled plan is ``dilated_plan(plan, r)``, the same solve
    rescaled, so the value reads rounding and the row is a consistency
    check; against a fresh solve on the dilated grid it reads rounding too,
    because the discrete operator there is the base one times r^{-nu}
    (``dilated_plan``).
    """
    nu = plan.spec.nu
    if nu is None:
        raise HeatError("self-similarity requires a homogeneous operator")
    Q = plan.law.algebra.homogeneous_dimension
    r = (t2 / t1) ** (1.0 / nu)
    expected = plan.grid.dilated(r, plan.law.algebra.weights)
    if not np.allclose(expected.half_widths, plan_scaled.grid.half_widths, rtol=1e-9) \
            or expected.counts != plan_scaled.grid.counts:
        raise HeatError("scaled plan's grid is not the D_r image of the base grid")
    h_big = heat_kernel(plan_scaled, t2)
    predicted = GridFunction(plan_scaled.grid, r ** (-Q) * heat_kernel(plan, t1).values)
    mask = plan_scaled.mask
    num = lp_norm(h_big - predicted, 1, mask=mask)
    den = lp_norm(h_big, 1, mask=mask)
    return num / den if den else np.inf
