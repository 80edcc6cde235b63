"""Heat semigroup e^{-tR} via symmetric eigendecomposition.

The operator, assembled from the exact normal form of each letter pair with
compact stencils (``calculus.discretize``), is restricted to the interior of
the grid (a Dirichlet-style mask), symmetrized, and diagonalized once; heat
flow, potential kernels and fractional powers are all multipliers through the
resulting plan (``SpectralPlan``), which follows the operator's structure.
On an abelian law with every word a power of one letter the interior operator
is a Kronecker sum, and the plan diagonalizes one small factor per axis, read
off the assembled interior matrix (the fast diagonalization method of Lynch,
Rice and Thomas).  On a grid with a periodic central axis it diagonalizes one
Hermitian block per frequency of that axis.  Any other operator on a box
grid is split by its reflection symmetries: every coordinate sign flip that is
an automorphism of the law and fixes the operator maps the box onto itself and
commutes with the interior matrix, so the matrix is block diagonal in an orbit
basis with one block per character of the group of such flips (Fassler and
Stiefel, *Group Theoretical Methods and Their Applications*, 1992).  On the
Heisenberg group the flips (x, y, u) -> (a x, b y, ab u) give four blocks of
about n/4 nodes, so the eigensolve costs about a sixteenth of the dense one.
The quarter turn (x, y) -> (y, -x) also commutes with the sub-Laplacian, but
on a box plan it generates with the flips the dihedral group of order 8,
which has a 2-dimensional irreducible representation; it is left out, since
the flips alone already cut the n = 5445 Heisenberg solve about 13-fold.
That reason holds for box plans only: a central-Fourier block takes no flips,
and there the turn generates the cyclic group of order 4, whose characters
are all 1-dimensional.  With no flip but the identity the plan is one dense
block.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from . import GradecalcError
from .calculus import (
    FieldMatrices,
    RocklandSpec,
    along_axis,
    discretize,
    form_matrix,
    left_invariant_fields,
    normal_form,
)
from .geometry import (
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


# Largest interior (or Kronecker factor, or central-Fourier block) a plan
# takes: as one dense block its eigenvectors alone take 0.8 GB in float64
# (1.6 GB complex).
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

    ``eigenvectors`` has orthonormal columns in the plan's own layout, reached
    through ``analyze`` and ``synthesize``; ``block_sizes`` lists the sizes of
    the dense eigensolves it packs.  The ``eigenvalues`` follow that layout:
    on every plan they ascend only within each block (or factor).  Every
    plan is positive up to rounding (``spectral_plan`` refuses any other),
    so ``lam_plus`` clips only rounding.

    This plan is block diagonal in the sparse orthonormal orbit basis
    ``basis`` (interior nodes by columns, grouped by block): each column is
    sum_g chi(g) e_{g.r} over the sign flips g of one character chi, normalized.
    ``eigenvectors`` packs each block's orthonormal eigenvector matrix, C
    order, one after another.
    ``reflection_defect`` is the largest relative Frobenius commutator of a
    flip with the interior matrix (None on plans that take no flips).
    ``eigh_s`` is the time spent in the LAPACK eigensolves behind the
    eigenvectors, summed over blocks, and ``eigh_driver`` the driver used.

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
    eigenvectors: np.ndarray  # columns orthonormal
    sym_defect: float
    block_sizes: tuple = ()
    basis: object = None  # sparse (n, n)
    reflection_defect: float | None = None
    eigh_s: float = 0.0
    eigh_driver: str | None = None

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

    def restrict(self, values):
        return np.asarray(values)[self.mask]

    def embed(self, interior_values):
        out = np.zeros(self.grid.size, dtype=np.asarray(interior_values).dtype)
        out[self.mask] = interior_values
        return out

    def _blocks(self):
        """(coefficient slice, eigenvector matrix) of each packed block."""
        start = pos = 0
        for b in self.block_sizes:
            yield slice(start, start + b), self.eigenvectors[pos : pos + b * b].reshape(b, b)
            start, pos = start + b, pos + b * b

    def analyze(self, values):
        """Eigen-coefficients of grid values, taken on the interior."""
        y = self.basis.T @ self.restrict(values)
        return np.concatenate([V.T @ y[s] for s, V in self._blocks()])

    def synthesize(self, coef):
        """Grid values of an eigen-expansion, zero outside the interior."""
        coef = np.asarray(coef)
        return self.embed(self.basis @ np.concatenate([V @ coef[s] for s, V in self._blocks()]))

    def health(self):
        """Grid, size, spectrum, self-adjointness and eigensolve cost of the plan, as plain numbers."""
        lam = self.eigenvalues
        grid = self.grid
        return {
            "kind": type(self).__name__,
            "grid": {
                "half_widths": [float(R) for R in grid.half_widths],
                "counts": [int(N) for N in grid.counts],
                "periodic": list(grid.periodic),
            },
            "n": int(self.mask.sum()),
            "blocks": [int(b) for b in self.block_sizes],
            "lam_min": float(lam.min()),
            "lam_max": float(lam.max()),
            "negative": int((lam < 0).sum()),
            "sym_defect": self.sym_defect,
            "reflection_defect": self.reflection_defect,
            "eigh_s": self.eigh_s,
            "eigh_driver": self.eigh_driver,
        }

    def apply_multiplier(self, g, f: GridFunction) -> GridFunction:
        """V g V^* f for the multiplier array g = g(lam_plus), zero outside the interior mask.

        The operator is real, so real f gives real values.
        """
        out = self.synthesize(g * self.analyze(f.values))
        if not np.iscomplexobj(f.values):
            out = out.real
        return GridFunction(self.grid, out)

    def delta_kernel(self, g) -> GridFunction:
        """g(R) delta: one synthesis of g c_delta."""
        return GridFunction(self.grid, self.synthesize(g * self.delta_coefficients).real)

    def delta_mass(self, g):
        """The integral of g(R) delta, dV <analyze(1), g c_delta>, with no synthesis."""
        coef = g * self.delta_coefficients
        return float(self.grid.cell_volume * np.vdot(self.unit_coefficients, coef).real)


@dataclass
class CentralFourierPlan(SpectralPlan):
    """Plan of an operator that commutes with translations along ``axis``.

    A unitary DFT along the periodic ``axis`` (FFT frequency order, u = 0 at
    index 0) splits the interior operator into one Hermitian block per
    frequency xi, acting on the interior of the other axes.
    ``eigenvectors[k]`` holds block k's orthonormal eigenvectors as columns,
    and ``eigenvalues`` lists the blocks one after another, each ascending.
    ``block_sizes`` lists one size per frequency, and ``inner_shape`` is the
    interior box, whole along ``axis``.
    The operator is real, so block -xi is the complex conjugate of block xi.
    """

    axis: int = 0
    inner_shape: tuple = ()

    def analyze(self, values):
        lines = np.moveaxis(self.restrict(values).reshape(self.inner_shape), self.axis, 0)
        lines = np.fft.ifftshift(lines, axes=0).reshape(len(lines), -1)
        F = np.fft.fft(lines, axis=0, norm="ortho")
        # c_k = V_k^* F_k for every frequency k
        return (F.conj()[:, None, :] @ self.eigenvectors)[:, 0, :].conj().ravel()

    def synthesize(self, coef):
        V = self.eigenvectors
        F = (V @ np.reshape(coef, V.shape[:2])[:, :, None])[:, :, 0]
        lines = np.fft.fftshift(np.fft.ifft(F, axis=0, norm="ortho"), axes=0)
        shape = list(self.inner_shape)
        shape.insert(0, shape.pop(self.axis))
        return self.embed(np.moveaxis(lines.reshape(shape), 0, self.axis).ravel())


@dataclass
class KroneckerPlan(SpectralPlan):
    """Plan of a Kronecker sum: one symmetric factor per axis of the interior box.

    The interior operator is sum_k I x ... x F_k x ... x I, so its
    eigenvectors are tensor products of the factors' eigenvectors.
    ``eigenvectors`` is block diagonal, one orthonormal factor basis per axis
    (of sizes ``block_sizes``, the interior box), and ``eigenvalues`` is the
    outer sum of the factor spectra in C order, ascending only within each
    factor.
    """

    def _factors(self):
        ends = np.cumsum(self.block_sizes)
        return [self.eigenvectors[e - n : e, e - n : e] for n, e in zip(self.block_sizes, ends)]

    def _contract(self, X, transpose):
        # apply each factor basis (or its transpose) along its own axis
        for k, V in enumerate(self._factors()):
            X = np.moveaxis(np.tensordot(V.T if transpose else V, X, axes=(1, k)), 0, k)
        return X

    def analyze(self, values):
        X = self.restrict(values).reshape(self.block_sizes)
        return self._contract(X, transpose=True).ravel()

    def synthesize(self, coef):
        X = np.reshape(coef, self.block_sizes)
        return self.embed(self._contract(X, transpose=False).ravel())


def _dissipation_matrix(counts, p):
    """Symmetric PSD high-pass on a box, symbol sum_k ((1 - cos theta_k)/2)^p.

    Vanishes to order 2p on smooth modes but is O(1) on the sawtooth modes.
    No default plan takes it (see ``spectral_plan``).  The 1-D factor T^p
    is the power of a quarter of the Neumann graph Laplacian (end rows
    [1, -1]/4), so the matrix annihilates constants exactly in rows *and*
    columns: adding it to a discretized operator never changes discrete mass
    balance.
    """
    total = None
    for k, N in enumerate(counts):
        diag = np.full(N, 0.5)
        diag[0] = diag[-1] = 0.25
        T = sparse.diags(
            [np.full(N - 1, -0.25), diag, np.full(N - 1, -0.25)],
            offsets=[-1, 0, 1],
            format="csr",
        )
        Tk = T
        for _ in range(p - 1):
            Tk = Tk @ T
        out = along_axis(Tk, counts, k)
        total = out if total is None else total + out
    return total


def spectral_plan(
    spec: RocklandSpec, law, grid: Grid, margin=4, reg_strength=0.0
) -> SpectralPlan:
    """Discretize, restrict to the interior, symmetrize and diagonalize.

    The operator is assembled by ``calculus.discretize``.  The margin
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
    exactly the Kronecker sum of one 1-D factor per axis, and the factors are
    read off the assembled interior matrix.  Otherwise it is
    a ``SpectralPlan``, one dense eigensolve per block of the sign flips of
    ``sign_flip_group`` (see ``_reflection_plan``).  Every plan's interior
    is the box of nodes ``margin`` or more from the boundary, whole along a
    periodic axis; before anything is assembled, an interior fewer than 3
    nodes wide along another axis (it holds no difference there) and a
    largest dense block above ``MAX_DENSE_BLOCK`` nodes are refused.

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
    # a central-Fourier block spans the non-periodic axes
    block = max(inner_counts) if kronecker else math.prod(inner_counts[j] for j in bounded)
    if block > MAX_DENSE_BLOCK:
        raise HeatError(
            f"dense plan block of {block} interior nodes exceeds the bound of {MAX_DENSE_BLOCK}"
        )
    mask = grid.interior_mask(margin)
    if grid.periodic:
        return _central_fourier_plan(spec, law, grid, mask, inner_counts, reg_strength)
    idx = np.flatnonzero(mask)
    A_int = discretize(spec.expr, law, grid)[np.ix_(idx, idx)]
    if reg_strength:
        gersh = float(np.abs(A_int).sum(axis=1).max())
        p = max(spec.expr.word_degrees(law.algebra.weights)) // 2 + 3
        A_int = A_int + reg_strength * gersh * _dissipation_matrix(inner_counts, p)
    norm = _frobenius(A_int)
    sym_defect = _frobenius(A_int - A_int.T) / norm if norm else 0.0
    fields = dict(grid=grid, spec=spec, law=law, mask=mask, sym_defect=sym_defect)
    if kronecker:
        return _kronecker_plan(A_int, inner_counts, fields)
    return _reflection_plan(A_int, inner_counts, sign_flip_group(law.algebra, spec.expr), fields)


def _frobenius(M):
    """Frobenius norm of a sparse matrix."""
    return float(np.sqrt(M.multiply(M).sum()))


def sign_flip_group(alg, expr):
    """The coordinate sign flips that are automorphisms fixing the operator.

    A sign vector s in {+1, -1}^n scales X_j to s_j X_j.  It is a Lie algebra
    automorphism exactly when s_j s_k = s_l for every nonzero structure
    constant c_jk^l, and it fixes the operator exactly when the product of
    s_j over the letters of every word is 1.  Returns the group as an
    (m, n) array of signs, the identity first; m is a power of 2.
    """
    constants = [(j, k, l) for j, k, l, _ in alg.nonzero_constants()]
    flips = [
        s
        for s in itertools.product((1, -1), repeat=alg.n)
        if all(s[j] * s[k] == s[l] for j, k, l in constants)
        and all(math.prod(s[i] for i in word) == 1 for word in expr.terms)
    ]
    return np.array(flips, dtype=int)


def _reflection_plan(A_int, inner_counts, flips, fields):
    """The ``SpectralPlan`` of A_int, one block per character of the flips.

    A flip s reverses the interior box along the axes where s_j = -1; on
    grid functions it is f -> f(s x), which commutes with the operator, and
    on the box it permutes the nodes.  Every flip must commute with A_int to
    ``REFLECTION_TOL`` relative (Frobenius), or the plan is refused.  The
    flips form a group G of order m, all of whose characters chi are real
    signs.  For each orbit G.r and each chi trivial on the stabilizer of r
    the column sum_g chi(g) e_{g.r} / sqrt(m |stab r|) has unit norm; the
    columns of one chi span an invariant subspace, on which the block
    B_chi^T A_int B_chi is formed sparse and then solved densely.
    """
    n = A_int.shape[0]
    nodes = np.arange(n).reshape(inner_counts)
    perms = np.array(
        [np.flip(nodes, axis=tuple(np.flatnonzero(s < 0))).ravel() for s in flips]
    )
    defect = 0.0
    norm = _frobenius(A_int)
    for perm in perms[1:]:
        d = _frobenius(A_int[perm][:, perm] - A_int) / norm if norm else 0.0
        if not d <= REFLECTION_TOL:
            raise HeatError(f"a sign flip fails to commute with the operator (defect {d:.1e})")
        defect = max(defect, d)
    # characters: the restrictions of s -> prod_{j in J} s_j over subsets J
    subsets = np.array(list(itertools.product((False, True), repeat=flips.shape[1])))
    chars = np.unique(np.where(subsets[:, None, :], flips[None], 1).prod(axis=2), axis=0)
    m = len(perms)
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(n))
    fixed = perms[:, reps] == reps
    stab = fixed.sum(axis=0)
    blocks = []
    for chi in chars:
        keep = ~np.any(fixed & (chi[:, None] < 0), axis=0)
        c = int(keep.sum())
        data = chi[:, None] / np.sqrt(m * stab[keep])
        rows = perms[:, reps[keep]]
        cols = np.broadcast_to(np.arange(c), (m, c))
        blocks.append(sparse.csc_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(n, c)))
    sizes = tuple(B.shape[1] for B in blocks)
    stats = {}
    plan = SpectralPlan(
        eigenvalues=np.empty(n),
        eigenvectors=np.empty(sum(b * b for b in sizes)),
        block_sizes=sizes,
        basis=sparse.hstack(blocks, format="csc"),
        reflection_defect=defect,
        **fields,
    )
    for B, (s, V) in zip(blocks, plan._blocks()):
        # symmetrized in place, so that no second dense copy exists
        A = (B.T @ A_int @ B).toarray()
        A += A.T
        A *= 0.5
        plan.eigenvalues[s], V[...] = _eigh(A, stats)
    plan.eigh_s, plan.eigh_driver = stats["eigh_s"], stats["eigh_driver"]
    return plan


def _eigh(A, stats):
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian A, overwriting A.

    Adds the seconds spent to ``stats["eigh_s"]`` and records the LAPACK
    driver in ``stats["eigh_driver"]``, for the plan's ``health``.

    Real matrices go to divide and conquer (LAPACK ``dsyevd``; Gu and
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995), 1.55x faster than
    ``dsyevr`` on the n = 5445 Heisenberg plan; complex blocks stay with
    ``zheevr``, which beats ``zheevd`` on the central-Fourier blocks.  LAPACK
    reads the Fortran-ordered view A.T, which is A when A is real and its
    conjugate when A is complex, so it makes no copy; eigenvectors of the
    conjugate are conjugated back.
    """
    driver = "evr" if np.iscomplexobj(A) else "evd"
    start = time.perf_counter()
    try:
        w, V = scipy.linalg.eigh(A.T, driver=driver, overwrite_a=True)
    except ValueError as exc:  # LinAlgError, or a matrix not finite on a degenerate grid
        raise HeatError(f"eigendecomposition failed: {exc}") from exc
    stats["eigh_s"] = stats.get("eigh_s", 0.0) + time.perf_counter() - start
    stats["eigh_driver"] = driver
    if np.iscomplexobj(V):
        np.conjugate(V, out=V)
    return w, V


def _kronecker_plan(A_int, inner_counts, fields):
    """The ``KroneckerPlan`` of an interior matrix that is a Kronecker sum.

    With A_int = sum_k I x ... x F_k x ... x I on the interior box, the block
    of A_int on the line of interior nodes through node 0 along axis k is F_k
    plus d_k I, d_k being the other factors' first diagonal entries.
    Subtracting d = A_int[0, 0] from the diagonal of every block but axis
    0's leaves factors that sum back to A_int, the identity word and the
    dissipation term included.
    """
    strides = np.cumprod((1,) + tuple(inner_counts[:0:-1]))[::-1]
    d = A_int[0, 0]
    factors = []
    stats = {}
    for k, (n, stride) in enumerate(zip(inner_counts, strides)):
        line = stride * np.arange(n)
        F = A_int[np.ix_(line, line)].toarray()
        if k:
            F[np.diag_indices(n)] -= d
        factors.append(_eigh(0.5 * (F + F.T), stats))
    return KroneckerPlan(
        eigenvalues=functools.reduce(np.add.outer, [w for w, _ in factors]).ravel(),
        eigenvectors=scipy.linalg.block_diag(*[V for _, V in factors]),
        block_sizes=tuple(inner_counts),
        **fields,
        **stats,
    )


def _central_fourier_plan(spec, law, grid, mask, inner_shape, reg_strength):
    """Plan on a grid whose one periodic axis p is a central coordinate.

    ``mask`` and ``inner_shape`` are the interior that ``_solve_plan`` decided.

    When the operator's words have length at most 2 and the field
    coefficients do not involve x_p, the operator commutes with translations
    along p, and a DFT along p turns it into one operator per frequency xi on
    the other axes: d_p becomes i xi.  The blocks are the exact normal form
    of the operator grouped by the power alpha_p of d_p,
    S + i xi T - xi^2 U, each group assembled by ``calculus.form_matrix``
    with compact stencils of order 8 (central within a margin of 4).  For the
    Heisenberg sub-Laplacian the block is
    L_xi = -Delta_xy + i xi (y d_x - x d_y) + xi^2 (x^2 + y^2)/4, the
    structure behind the Mehler-type formula.  A nonzero ``reg_strength`` is
    refused, as are longer words and coefficients in x_p.
    """
    if reg_strength:
        raise HeatError("plans on periodic grids take no dissipation term (reg_strength 0)")
    if len(grid.periodic) != 1:
        raise HeatError("a central-Fourier plan needs exactly one periodic axis")
    (p,) = grid.periodic
    others = [j for j in range(grid.ndim) if j != p]
    if not others:
        raise HeatError("a central-Fourier plan needs a non-periodic axis")
    expr = spec.expr
    if expr.max_word_length() > 2:
        raise HeatError(
            f"plans on periodic grids need words of length at most 2, "
            f"got {expr.max_word_length()}"
        )
    fields = left_invariant_fields(law)
    groups = [{}, {}, {}]  # the normal form by the power of d_p, d_p dropped
    for word, c in expr.terms.items():
        for alpha, a in normal_form(word, fields).items():
            group = groups[alpha[p]]
            rest = alpha[:p] + alpha[p + 1 :]
            group[rest] = group.get(rest, 0) + c * a
    if any(a.involves(p) for group in groups for a in group.values()):
        raise HeatError(f"operator coefficients involve the periodic coordinate x{p + 1}")

    sub = Grid(tuple(grid.half_widths[j] for j in others), tuple(grid.counts[j] for j in others))
    # the interior is the same on every line along p
    idx = np.flatnonzero(np.take(mask.reshape(grid.counts), 0, axis=p))
    pts = np.zeros((sub.size, grid.ndim))
    pts[:, others] = sub.points()
    S, T, U = (form_matrix(g, sub, pts, acc=8)[np.ix_(idx, idx)].toarray() for g in groups)

    M = grid.counts[p]
    xi = 2 * np.pi * np.fft.fftfreq(M, d=grid.spacings[p])
    w = np.empty((M, len(idx)))
    V = np.empty((M, len(idx), len(idx)), dtype=complex)
    defect_num = defect_den = 0.0
    stats = {}
    for k in range(M // 2 + 1):
        A = S + 1j * xi[k] * T - xi[k] ** 2 * U
        pair = 1 if k == 0 else 2
        defect_num += pair * np.linalg.norm(A - A.conj().T) ** 2
        defect_den += pair * np.linalg.norm(A) ** 2
        w[k], V[k] = _eigh(0.5 * (A + A.conj().T), stats)
        if k:
            w[M - k], V[M - k] = w[k], V[k].conj()
    return CentralFourierPlan(
        grid=grid,
        spec=spec,
        law=law,
        mask=mask,
        eigenvalues=w.ravel(),
        eigenvectors=V,
        sym_defect=float(np.sqrt(defect_num / defect_den)) if defect_den else 0.0,
        block_sizes=(len(idx),) * M,
        axis=p,
        inner_shape=inner_shape,
        **stats,
    )


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


def heat_apply(plan: SpectralPlan, f: GridFunction, t) -> GridFunction:
    """e^{-tR} f (t = 0 is the identity on the interior)."""
    if t < 0:
        raise HeatError("time must be nonnegative")
    return plan.apply_multiplier(np.exp(-t * plan.lam_plus), f)


def heat_kernel(plan: SpectralPlan, t) -> GridFunction:
    """h_t: heat flow started from the discrete delta at the origin."""
    if t < 0:
        raise HeatError("time must be nonnegative")
    return plan.delta_kernel(np.exp(-t * plan.lam_plus))


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
    kernel: all direct nodes share one multiplier and one synthesis.
    """

    MASS_TOL = 5e-4  # largest mass defect of the direct route up to t_switch

    def __init__(self, plan: SpectralPlan):
        self.plan = plan
        self.Q = plan.law.algebra.homogeneous_dimension
        self.nu = plan.spec.nu
        self.t_switch = np.inf
        self.mass_at_switch = 1.0
        self._ref = None
        if self.nu is not None and not plan.grid.periodic:
            t_sw = None
            for t in np.geomspace(1e-3, 20.0, 36):  # direct-route masses: t_switch is inf
                if abs(self.mass(t) - 1.0) <= self.MASS_TOL:
                    t_sw = t
                elif t_sw is not None:
                    break
            if t_sw is not None:
                self.t_switch = float(t_sw)
                g = np.exp(-self.t_switch * plan.lam_plus)
                self._ref, self.mass_at_switch = plan.delta_kernel(g), plan.delta_mass(g)

    def _continued(self, t):
        """Grid values of h_t past the switch, by the scaling identity."""
        r = (t / self.t_switch) ** (-1.0 / self.nu)
        scale = (t / self.t_switch) ** (-self.Q / self.nu)
        return scale * resample_dilated(self._ref, r, self.plan.law.algebra.weights).values

    def __call__(self, t) -> GridFunction:
        if t <= 0:
            raise HeatError("time must be positive")
        if t <= self.t_switch:
            return self.plan.delta_kernel(np.exp(-t * self.plan.lam_plus))
        return GridFunction(self.plan.grid, self._continued(t))

    def mass(self, t):
        """int h_t: the plan's ``delta_mass`` up to t_switch, ``mass_at_switch`` past it."""
        if t <= self.t_switch:
            return self.plan.delta_mass(np.exp(-t * self.plan.lam_plus))
        return self.mass_at_switch

    def ladder_sum(self, times, coefs):
        """sum_i c_i h_{t_i} as grid values, and its integral sum_i c_i int h_{t_i}.

        The direct nodes (t_i <= t_switch) fold into the one multiplier
        m = sum_i c_i e^{-t_i lam_plus}: one ``delta_kernel`` and one
        ``delta_mass`` of m.  Each continuation node is one resampling of the
        reference kernel and carries its mass ``mass_at_switch``.  Equal to
        summing c_i ``self(t_i)`` up to rounding.
        """
        times, coefs = np.asarray(times, dtype=float), np.asarray(coefs, dtype=float)
        if np.any(times <= 0):
            raise HeatError("time must be positive")
        direct = times <= self.t_switch
        values = np.zeros(self.plan.grid.size)
        mass = 0.0
        if direct.any():
            lam = self.plan.lam_plus
            mult = np.zeros_like(lam)
            for t, c in zip(times[direct], coefs[direct]):
                mult += c * np.exp(-t * lam)
            values += self.plan.delta_kernel(mult).values
            mass += self.plan.delta_mass(mult)
        for t, c in zip(times[~direct], coefs[~direct]):
            values += c * self._continued(t)
            mass += c * self.mass_at_switch
        return values, float(mass)

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
