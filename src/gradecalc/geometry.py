"""Dilations, pseudo-norms, grids, Haar integration and group convolution.

The Haar measure in exponential coordinates is Lebesgue measure, so all
integrals are weighted Riemann sums over an anisotropic box grid.  Group
convolution takes the structure of the law into account.  On an abelian law
(every coordinate of the product is x_k + y_k) y^{-1} x moves every axis by
whole nodes, and the convolution is a plain discrete one, computed with
zero-padded FFTs.  On a grid with a periodic central axis it is a twisted
convolution: whole-node shifts across the other axes and, per frequency of
the periodic axis, a phase.  Otherwise it is the direct sum, exact along the
axes where y^{-1} x moves by whole nodes and linearly interpolated along the
others.  Along a central axis g(y^{-1} x) depends on the two nodes only
through their offset, so g is interpolated once per pair of nodes on the
other axes and offset, and the sum along the central axes is a Toeplitz
product; the node and weight along a central axis are taken once per pair,
and each offset adds an integer to the node.  Values outside the box
contribute zero.

One routine, ``_linear_corners``, gives the corners and weights of the
multilinear interpolant at arbitrary points, for the interpolated axes of
the box convolution that are not central.  A
dilation D_r scales each axis by itself, so f(D_r x) on
f's own box grid is resampled one axis at a time (``resample_dilated``): the
same multilinear interpolant, two nodes per axis instead of 2^n corners per
point.  A dilation changes the period of a periodic axis, so that resampling
takes box grids only.

The sphere quadrature of the polar decomposition projects scrambled Sobol'
points onto the unit pseudo-sphere.  ``_sobol`` computes them with numpy
alone, bit for bit the points of scipy's scrambled Sobol' engine, so that
importing this module does not import ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft
import numpy.random

from . import GradecalcError
from .algebra import Poly


class GeometryError(GradecalcError):
    pass


# ---------------------------------------------------------------------------
# Dilations and pseudo-norms


def sum_columns(a):
    """np.sum(a, axis=-1), one column at a time, for a last axis of a few coordinates.

    numpy adds fewer than 8 terms in order, so this equals the reduction bit
    for bit, without its slow path over short axes.
    """
    s = a[..., 0]
    for k in range(1, a.shape[-1]):
        s = s + a[..., k]
    return s


def pseudo_norm(x, weights, nu0):
    """Homogeneous pseudo-norm |x| = (sum_j x_j^{2*nu0/v_j})^{1/(2*nu0)}."""
    weights = tuple(int(w) for w in weights)
    for w in weights:
        if nu0 % w != 0:
            raise GeometryError(f"nu0={nu0} is not a common multiple of weights {weights}")
    x = np.asarray(x, dtype=float)
    acc = np.zeros(x.shape[:-1], dtype=float)
    for j, w in enumerate(weights):
        e = 2 * nu0 // w
        acc = acc + np.abs(x[..., j]) ** e
    return acc ** (1.0 / (2 * nu0))


def default_nu0(weights):
    """Smallest common multiple of the dilation weights."""
    return math.lcm(*[int(w) for w in weights])


# ---------------------------------------------------------------------------
# Grids and grid functions


@dataclass(frozen=True)
class Grid:
    """Anisotropic box grid with 0 as a node (all point counts odd).

    Axes listed in ``periodic`` have no boundary: their N nodes sample one
    period N * spacing, and the node after the last one is the first.  The
    point budget bounds the grid arrays and the O(N^2) convolution; dense
    eigensolves are bounded separately, by ``spectral_plan``.
    """

    half_widths: tuple
    counts: tuple
    periodic: tuple = ()

    MAX_POINTS = 40_000

    def __post_init__(self):
        if len(self.half_widths) != len(self.counts):
            raise GeometryError("half_widths and counts must have equal length")
        for N in self.counts:
            if N < 3 or N % 2 == 0:
                raise GeometryError("point counts must be odd and >= 3")
        if not all(math.isfinite(R) and R > 0 for R in self.half_widths):
            raise GeometryError(f"half-widths must be finite and positive, got {self.half_widths}")
        object.__setattr__(self, "periodic", tuple(int(j) for j in self.periodic))
        if len(set(self.periodic)) != len(self.periodic) or any(
            not 0 <= j < len(self.counts) for j in self.periodic
        ):
            raise GeometryError(f"periodic axes {self.periodic} are not distinct axes")
        if self.size > self.MAX_POINTS:
            raise GeometryError(
                f"grid has {self.size} points, budget is {self.MAX_POINTS}"
            )
        if not 0 < self.cell_volume < math.inf:
            raise GeometryError(f"the cell volume {self.cell_volume:g} of {self} is not positive and finite")

    def __str__(self):
        counts = "x".join(map(str, self.counts))
        return f"the {counts}-node grid over half-widths ({', '.join(f'{R:g}' for R in self.half_widths)})"

    @classmethod
    def from_scale(cls, weights, scale, counts):
        """Half-width R^{v_j} along axis j for a single scale parameter R."""
        try:
            hw = tuple(float(scale) ** int(w) for w in weights)
        except OverflowError:
            raise GeometryError(
                f"scale {scale} overflows the half-widths R^{tuple(weights)} "
                f"of the {'x'.join(map(str, counts))}-node grid"
            ) from None
        return cls(half_widths=hw, counts=tuple(counts))

    @property
    def ndim(self):
        return len(self.counts)

    @property
    def size(self):
        return int(np.prod(self.counts))

    @property
    def spacings(self):
        return tuple(2.0 * R / (N - 1) for R, N in zip(self.half_widths, self.counts))

    @property
    def cell_volume(self):
        # Python floats overflow to inf silently, where np.prod warns
        return math.prod(self.spacings)

    def axis(self, j):
        return np.linspace(-self.half_widths[j], self.half_widths[j], self.counts[j])

    @property
    def axes(self):
        return [self.axis(j) for j in range(self.ndim)]

    def points(self):
        """All nodes as an array of shape (size, ndim), C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def origin_index(self):
        idx = tuple((N - 1) // 2 for N in self.counts)
        return int(np.ravel_multi_index(idx, self.counts))

    def period(self, j):
        """Length of one period of the periodic axis j."""
        return self.counts[j] * self.spacings[j]

    def dilated(self, r, weights):
        """The image of this grid under the dilation D_r (same point counts)."""
        hw = tuple(R * float(r) ** int(w) for R, w in zip(self.half_widths, weights))
        return Grid(half_widths=hw, counts=self.counts, periodic=self.periodic)

    def interior_mask(self, margin):
        """Flat boolean mask of nodes at least ``margin`` nodes from the boundary.

        Periodic axes have no boundary, so their margin is ignored.
        """
        if isinstance(margin, int):
            margin = (margin,) * self.ndim
        mask = np.ones(self.counts, dtype=bool)
        for j, m in enumerate(margin):
            if j in self.periodic:
                continue
            idx = np.arange(self.counts[j])
            keep = (idx >= m) & (idx <= self.counts[j] - 1 - m)
            shape = [1] * self.ndim
            shape[j] = -1
            mask &= keep.reshape(shape)
        return mask.ravel()


@dataclass
class GridFunction:
    """Samples of a function over a grid (flat array, C order)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.size,):
            raise GeometryError("value count does not match grid")

    def reshape(self):
        return self.values.reshape(self.grid.counts)

    def flipped(self):
        """f(x^{-1}) = f(-x); exact on the symmetric grid."""
        rev = self.reshape()[(slice(None, None, -1),) * self.grid.ndim]
        return GridFunction(self.grid, np.ascontiguousarray(rev).ravel())

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * other)

    __rmul__ = __mul__

    def __add__(self, other):
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - other.values)


def haar_integrate(f: GridFunction):
    """Riemann sum against Haar (= Lebesgue) measure."""
    return f.grid.cell_volume * f.values.sum()


def inner_product(f: GridFunction, g: GridFunction):
    """<f, g> = int f conj(g)."""
    return f.grid.cell_volume * np.vdot(g.values, f.values)


def lp_norm(f: GridFunction, p, mask=None):
    """L^p norm; p = inf returns the max modulus (over ``mask`` if given)."""
    return float(lp_norms(f.grid, f.values, p, mask))


def lp_norms(grid: Grid, values, p, mask=None):
    """``lp_norm`` of grid values along the last axis: one per row of a stack (m, grid size)."""
    values = np.asarray(values)
    v = values if mask is None else np.compress(mask, values, axis=-1)
    p = float(p)
    if p == np.inf:
        return np.max(np.abs(v), axis=-1, initial=0.0)
    if p < 1:
        raise GeometryError("p must be >= 1")
    # C order, so that a transposed stack sums along contiguous rows, as a copy would
    a = np.abs(v, order="C")
    a **= p  # in place: a stack's temporaries stay one copy of it
    return (grid.cell_volume * np.sum(a, axis=-1)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Quasi-triangle inequality estimator


QUASI_TRIANGLE_BATCH = 100_000  # sample pairs drawn per batch


def quasi_triangle_ratio(law, nu0, samples, seed=0xC0FFEE):
    """Largest |xy| / (|x| + |y|) over sampled pairs x, y on the unit sphere.

    The sample stream is deterministic in ``seed``, so the estimate with k
    samples is the max over a prefix of the stream.
    """
    if samples < 1:
        raise GeometryError("need at least one sample")
    weights = law.algebra.weights
    rng = np.random.default_rng(seed)
    peaks = []  # the largest ratio of each batch
    done = 0
    while done < samples:
        m = min(QUASI_TRIANGLE_BATCH, samples - done)
        x = rng.standard_normal((m, law.algebra.n))
        y = rng.standard_normal((m, law.algebra.n))
        x = project_to_sphere(x, weights, nu0)
        y = project_to_sphere(y, weights, nu0)
        prod = law.multiply_arrays(x, y)
        ratios = pseudo_norm(prod, weights, nu0) / 2.0
        peaks.append(ratios.max())
        done += m
    return float(np.max(peaks))  # np.max keeps a NaN, which the built-in max may drop


def quasi_triangle_constant(law, nu0, samples, seed=0xC0FFEE):
    """Empirical C in |xy| <= C(|x| + |y|): ``quasi_triangle_ratio`` floored at 1.

    Pairs with y = 0 force C >= 1; the sphere pairs often stay below that.
    """
    best = quasi_triangle_ratio(law, nu0, samples, seed)
    return max(best, 1.0) if best > 0 else best


def project_to_sphere(x, weights, nu0):
    """x -> D_{1/|x|} x, mapping nonzero points onto the unit pseudo-sphere."""
    x = np.asarray(x, dtype=float)
    rho = pseudo_norm(x, weights, nu0)
    rho = np.where(rho == 0, 1.0, rho)
    w = np.asarray(weights, dtype=float)
    return x / rho[..., None] ** w


# ---------------------------------------------------------------------------
# Polar decomposition quadrature


# Joe & Kuo direction numbers (search criterion 6) for dimensions 1-9: the
# primitive polynomial of each dimension, as bits, and its initial direction
# numbers.  Nine dimensions cover every grid: 3^9 < 40 000 < 3^10.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
                (1, 1, 5, 5, 17), (1, 1, 5, 5, 5))
_SOBOL_BITS = 30


def _sobol(d, n, seed):
    """The first n points of the scrambled d-dimensional Sobol' sequence.

    The same float64 array, bit for bit, as scipy's scrambled Sobol' engine,
    ``Sobol(d, scramble=True, seed=seed).random(n)``: Joe & Kuo direction
    numbers (SIAM J. Sci. Comput. 30, 2008) extended to 30 bits by the
    Bratley & Fox recurrence, Matousek's linear matrix scramble plus a
    digital shift drawn from ``np.random.default_rng(seed)``, and the points
    in Gray-code order.
    """
    if not 0 < d <= len(_SOBOL_POLY):
        raise GeometryError(f"Sobol' points are tabulated for 1 to {len(_SOBOL_POLY)} dimensions, got {d}")
    bits = _SOBOL_BITS
    msb = np.arange(bits - 1, -1, -1)  # place value of bit j, most significant first
    m = [[1] * bits]
    for poly, row in zip(_SOBOL_POLY[1:d], _SOBOL_VINIT[1:d]):
        deg = poly.bit_length() - 1
        row = list(row)
        for j in range(deg, bits):
            new = row[j - deg]
            for i in range(1, deg + 1):
                if (poly >> (deg - i)) & 1:
                    new ^= row[j - i] << i
            row.append(new)
        m.append(row)
    v = np.array(m, dtype=np.int64) << msb
    rng = np.random.default_rng(seed)
    shift = (rng.integers(0, 2, (d, bits), dtype=np.uint32).astype(np.int64) << np.arange(bits)).sum(axis=1)
    lower = np.tril(rng.integers(0, 2, (d, bits, bits), dtype=np.uint32)).astype(np.int64)
    lower[:, range(bits), range(bits)] = 1
    # bit p of a scrambled direction number is the parity of row p of the
    # lower-triangular matrix against its bits, both most significant first
    rows = (lower << msb).sum(axis=2)
    parity = np.bitwise_count(rows[:, :, None] & v[:, None, :]) & 1
    v = (parity << msb[:, None]).sum(axis=1)
    # point i is point i - 1 XOR the direction number of the lowest set bit of i
    i = np.arange(n)
    step = np.bitwise_count((i & -i) - 1) + 1
    step[:1] = 0
    table = np.concatenate([shift[None], v.T])
    return np.bitwise_xor.accumulate(table.take(step, axis=0), axis=0) * 2.0**-bits


@dataclass
class SphereQuadrature:
    """Nodes and weights approximating the surface measure on {|x| = 1}."""

    weights_vec: tuple
    nu0: int
    nodes: np.ndarray
    node_weights: np.ndarray

    @classmethod
    def build(cls, weights, nu0, n_samples=1 << 15, seed=0xC0FFEE):
        """Monte-Carlo construction from low-discrepancy samples in the unit ball.

        Under polar decomposition, uniform measure on the pseudo-ball has
        angular marginal proportional to the sphere measure, and the sphere
        measure's total mass is Q * vol(ball).  Each kept sample carries
        sigma_total / (samples kept).  The sphere of a one-dimensional group
        is the two points -1 and 1, onto which every sample projects, so
        there the quadrature is those two nodes, each with the summed weight
        of the samples on its side.  No other sphere is merged: its samples
        project to distinct points.
        """
        weights = tuple(int(w) for w in weights)
        n = len(weights)
        Q = sum(weights)
        x = 2.0 * _sobol(n, n_samples, seed) - 1.0  # the unit pseudo-ball sits inside [-1, 1]^n
        rho = pseudo_norm(x, weights, nu0)
        keep = (rho <= 1.0) & (rho > 0)
        x = x[keep]
        vol_ball = (2.0**n) * keep.mean()
        sigma_total = Q * vol_ball
        if n == 1:
            count = np.array([np.count_nonzero(x < 0), np.count_nonzero(x > 0)])
            nodes, wts = np.array([[-1.0], [1.0]]), count * (sigma_total / len(x))
        else:
            nodes = project_to_sphere(x, weights, nu0)
            wts = np.full(len(nodes), sigma_total / len(nodes))
        return cls(weights_vec=weights, nu0=nu0, nodes=nodes, node_weights=wts)


POLAR_BLOCK = 16  # radii per exponent block: 16 radii x 16 384 sphere nodes is 2 MB
# Exponents are raised to this floor: exp(-700) is 1e-304, so the terms it
# changes lie far below the rounding of the sums, and numpy's exp runs about
# ten times slower where its results would be subnormal.
EXP_FLOOR = -700.0


def polar_integral_check(widths, grid, quad):
    """Return (lhs, rhs) of the polar-coordinates identity for a Gaussian.

    The test function is f(x) = exp(-sum_k (x_k / sigma_k)^2) with sigma =
    ``widths``.  lhs is its Haar sum over the grid box; rhs integrates
    r^{Q-1} * int_S f(D_r y) dsigma(y) against the sphere quadrature and a
    600-node radial trapezoid out to 1.1 times the pseudo-norm of the box
    corner.

    On the sphere f(D_r y) = exp(-sum_k r^{2 v_k} a_k(y)) with a_k =
    (y_k / sigma_k)^2, so the sphere sums of a block of radii are exp(-C A)
    weighted by the node weights: C holds one row of r^{2 v_k} per radius,
    A one column of a_k per node, and a block costs one small matrix
    product, one exp and one weighted sum.  C takes the radii as fractions
    of the largest, r_max, and A carries the factors r_max^{2 v_k}, so C
    lies in (0, 1] on any grid whose corner pseudo-norm is finite.  A block
    holds ``POLAR_BLOCK`` radii, which bounds the exponent array to
    POLAR_BLOCK x nodes floats.
    """
    v = np.asarray(quad.weights_vec, dtype=float)
    Q = sum(quad.weights_vec)
    sigma = np.asarray(widths, dtype=float)
    lhs = float(haar_integrate(GridFunction(grid, np.exp(-sum_columns((grid.points() / sigma) ** 2)))))

    r_max = pseudo_norm(np.array(grid.half_widths), quad.weights_vec, quad.nu0) * 1.1
    rs = np.linspace(0.0, r_max, 600)[1:]
    neg_a = -np.ascontiguousarray(((quad.nodes * r_max**v / sigma) ** 2).T)
    c = (rs / r_max)[:, None] ** (2.0 * v)
    vals = np.empty(len(rs))
    for i in range(0, len(rs), POLAR_BLOCK):
        block = c[i : i + POLAR_BLOCK]
        # a product over one axis is an outer product, which BLAS is slow at
        e = block @ neg_a if len(v) > 1 else block * neg_a
        np.maximum(e, EXP_FLOOR, out=e)
        np.exp(e, out=e)
        vals[i : i + POLAR_BLOCK] = e @ quad.node_weights
    rhs = float(np.trapezoid(vals * rs ** (Q - 1), rs))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Multilinear interpolation


def _linear_corners(grid, z, axes, flat=0, inside=None, strides=None):
    """The corners (flat index, weight) of the multilinear interpolant at the coordinates z, and the in-box mask.

    Along each axis k of ``axes`` the point z[..., k] sits at the index
    t = (z_k + R_k)/h_k, between the nodes floor(t) and floor(t) + 1.  A
    periodic axis wraps by index mod N.  Along any other axis a point is in
    the box exactly when |z_k| <= R_k, tested in coordinates: an edge node
    whose t rounds past N - 1 stays in.  ``flat`` starts every corner's flat
    index, ``inside`` (None: no test yet) is and-ed in place, and
    ``strides`` (default: the grid's C-order strides) turns node indices
    into flat ones.
    """
    counts = grid.counts
    if strides is None:
        strides = [math.prod(counts[k + 1 :]) for k in range(grid.ndim)]
    corners = [(flat, 1.0)]
    for k in axes:
        N, R = counts[k], grid.half_widths[k]
        t = (z[..., k] + R) / grid.spacings[k]
        if k in grid.periodic:
            t = np.mod(t, N)
            i0 = np.floor(t)
            w = t - i0
            i0 = i0.astype(np.intp) % N
            i1 = (i0 + 1) % N
        else:
            box = np.abs(z[..., k]) <= R
            if inside is None:
                inside = box
            else:
                inside &= box
            i0 = np.clip(np.floor(t), 0, N - 2)
            w = t - i0
            i0 = i0.astype(np.intp)
            i1 = i0 + 1
        corners = [
            (c + i * strides[k], cw * iw)
            for c, cw in corners
            for i, iw in ((i0, 1.0 - w), (i1, w))
        ]
    return corners, inside


def resample_dilated(f: GridFunction, r, weights) -> GridFunction:
    """f(D_r x) at the nodes x of f's own box grid, multilinear in f, zero outside the box.

    D_r scales each axis by itself, so the multilinear interpolant (the
    corners of ``_linear_corners``) at the dilated nodes factors into one
    linear interpolation per axis.  Each axis is a two-tap stencil: the node t_k =
    (r^{v_k} x_k + R_k)/h_k is mixed from the nodes floor(t_k) and floor(t_k)
    + 1 with one ``take`` each, along that axis only, so no temporary is
    larger than the grid.  A node with |r^{v_k} x_k| > R_k gives zero.  A
    dilation changes the period of a periodic axis, so a periodic grid is
    refused (GeometryError).
    """
    if not 0 < r < math.inf:
        raise GeometryError("dilation parameter must be positive and finite")
    grid = f.grid
    if grid.periodic:
        raise GeometryError(f"a dilation changes the period of the periodic axes {grid.periodic}")
    vals = f.reshape()
    for k, scale in enumerate(float(r) ** np.asarray(weights, dtype=float)):
        N, R = grid.counts[k], grid.half_widths[k]
        z = scale * grid.axis(k)
        t = (z + R) / grid.spacings[k]
        i0 = np.clip(np.floor(t), 0, N - 2)
        inside = np.abs(z) <= R
        w = t - i0
        i0 = i0.astype(np.intp)
        shape = [N if j == k else 1 for j in range(grid.ndim)]
        w0 = np.where(inside, 1.0 - w, 0.0).reshape(shape)
        w1 = np.where(inside, w, 0.0).reshape(shape)
        vals = w0 * vals.take(i0, axis=k) + w1 * vals.take(i0 + 1, axis=k)
    return GridFunction(grid, vals.ravel())


# ---------------------------------------------------------------------------
# Group convolution


def node_shift_axes(law):
    """The axes k whose product coordinate is x_k + y_k.

    Along such an axis y^{-1} x moves by x_k - y_k, so on a grid it maps
    nodes to nodes.  Every axis of an abelian law is one.
    """
    n = law.algebra.n
    return tuple(
        k
        for k, m in enumerate(law.coords)
        if m == Poly.variable(2 * n, k) + Poly.variable(2 * n, n + k)
    )


def central_axes(law):
    """The axes k whose x_k and y_k enter the product only as x_k + y_k of coordinate k.

    Coordinate k of the product is then x_k + y_k + beta(x', y'), with beta
    and every other coordinate free of x_k and y_k: a central coordinate of
    the group (Folland & Stein, *Hardy Spaces on Homogeneous Groups*, 1982).
    Every axis of an abelian law is one; on the Heisenberg group only u is.
    """
    n = law.algebra.n

    def central(k):
        shift = Poly.variable(2 * n, k) + Poly.variable(2 * n, n + k)
        rest = [m - shift if j == k else m for j, m in enumerate(law.coords)]
        return not any(r.involves(k) or r.involves(n + k) for r in rest)

    return tuple(k for k in range(len(law.coords)) if central(k))


# Kernel-line values per batch of the interpolated sum: as many as 48 f nodes
# against the whole grid
CONVOLVE_BATCH = 48


def group_convolve(law, f: GridFunction, g: GridFunction, zero_tol=0.0):
    """(f * g)(x) = sum_y f(y) g(y^{-1} x) dV, multilinear in g.

    Along the axes of ``node_shift_axes`` y^{-1} x lands on nodes; g is
    interpolated linearly along the others, once per offset along the
    central ones (``_interpolated_convolve``).
    Points y^{-1} x outside the box contribute zero.  Nodes where f vanishes
    (|f| <= zero_tol * max|f|) are skipped.  On a grid with a periodic axis,
    which must be central, the sum runs over one period of that axis and is
    the exact twisted convolution of ``_twisted_convolve``.  On a box grid
    whose every axis shifts by whole nodes it is the discrete convolution of
    ``_shift_convolve``.
    """
    if f.grid != g.grid:
        raise GeometryError("f and g must live on the same grid")
    if f.grid.periodic:
        return _twisted_convolve(law, f, g, zero_tol)
    if node_shift_axes(law) == tuple(range(f.grid.ndim)):
        return _shift_convolve(f, g, zero_tol)
    return _interpolated_convolve(law, f, g, zero_tol)


def _shift_convolve(f, g, zero_tol):
    """f * g when y^{-1} x = x - y: a discrete convolution of the node values.

    (f * g)(x_l) = sum_i f(x_i) g(x_l - x_i) dV with g zero off the box is the
    central part of the full linear convolution (``mode="same"``), taken here
    from zero-padded FFTs.
    """
    grid = f.grid
    fa = f.reshape()
    if zero_tol > 0:
        fa = np.where(np.abs(fa) > zero_tol * np.max(np.abs(fa)), fa, 0)
    ga = g.reshape()
    full, axes = [2 * N - 1 for N in grid.counts], range(grid.ndim)
    if np.iscomplexobj(fa) or np.iscomplexobj(ga):
        fft, ifft = np.fft.fftn, np.fft.ifftn
    else:
        fft, ifft = np.fft.rfftn, np.fft.irfftn
    conv = ifft(fft(fa, full, axes) * fft(ga, full, axes), full, axes)
    centre = tuple(slice((N - 1) // 2, (N - 1) // 2 + N) for N in grid.counts)
    return GridFunction(grid, conv[centre].ravel() * grid.cell_volume)


# Distance in index units within which the position of y^{-1} x along a
# central axis counts as a node: it absorbs the rounding of the group law
# and of R/h (about 1e-14), so that a pair on the box edge is kept.
NODE_SNAP = 1e-10


def _interpolated_convolve(law, f, g, zero_tol):
    """The direct sum of ``group_convolve``, multilinear in g, summed along lines.

    The axes split into the central axes C that are not node shifts
    (``central_axes``; u on the Heisenberg group) and the lower axes B.  For
    y = (y', j_y) and x = (x', j_x), primes on B and j the node index along C,
    y^{-1} x is z(y', x') on B and (j_x - j_y) h + beta(y', x') on C, where z
    and beta are y^{-1} x at zero central coordinates.  So g(y^{-1} x)
    depends on the nodes along C only through the offset d = j_x - j_y.  It
    is interpolated once per lower pair and offset, into the kernel lines
    K[x', y', d], and the sum along C is a Toeplitz product:

        (f * g)(x', j_x) = sum_{y', j_y} f(y', j_y) K[x', y', j_x - j_y] dV.

    Along an axis of ``node_shift_axes`` y^{-1} x sits on the node
    i_x - i_y + centre, taken in integer arithmetic, so nothing is
    interpolated there; the other axes of B are interpolated per lower pair
    (``_linear_corners``).  Along C the point sits at the index
    t = (beta + R)/h + d: its base node floor and weight are taken once per
    lower pair, at d = 0 (within ``NODE_SNAP`` of a node it is that node),
    and each offset only adds the integer d to the node.  g is read from a
    copy extended along C to 5 N nodes from -2N: zero off the box, so a tap
    outside it reads 0, and a point in the cell next to the box (one tap
    inside) is set to 0 per pair.  Periodic axes wrap, by index mod N (the
    extended copy repeats the period), so on a periodic grid this is the
    interpolating counterpart of the twisted convolution.  With no such
    central axis it is the sum over node pairs.
    """
    grid = f.grid
    counts, ndim = grid.counts, grid.ndim
    shifts = node_shift_axes(law)
    central = [k for k in central_axes(law) if k not in shifts]
    lower = [k for k in range(ndim) if k not in central]
    lower_counts, line_counts = [counts[k] for k in lower], [counts[c] for c in central]
    n_lower, n_line = int(np.prod(lower_counts)), int(np.prod(line_counts))
    nodes = np.indices(lower_counts).reshape(len(lower), n_lower)  # lower node index per axis
    pts = np.zeros((n_lower, ndim))  # lower nodes, central coordinates 0
    for a, k in enumerate(lower):
        pts[:, k] = grid.axis(k)[nodes[a]]

    gx = g.reshape()  # g on 5 N nodes along each central axis, from -2N
    for c, N in zip(central, line_counts):
        if c in grid.periodic:
            gx = np.take(gx, np.arange(-2 * N, 3 * N) % N, axis=c)
        else:
            gx = np.pad(gx, [(2 * N, 2 * N) if k == c else (0, 0) for k in range(ndim)])
    strides = [int(np.prod(gx.shape[k + 1 :])) for k in range(ndim)]
    gx = gx.ravel()
    # the offsets d = j_x - j_y along C, C order, and their flat steps in gx
    ends = np.array(line_counts, dtype=np.intp)[:, None] - 1
    n_lag = int(np.prod([2 * N - 1 for N in line_counts]))
    d = np.indices([2 * N - 1 for N in line_counts]).reshape(len(central), n_lag) - ends
    steps = sum((d[a] * strides[c] for a, c in enumerate(central)), np.zeros(n_lag, np.intp))
    # toeplitz[d, j_x]: the flat line node j_y = j_x - d, or n_line (a zero pad) off the line
    j_y = np.indices(line_counts).reshape(len(central), 1, n_line) - d[:, :, None]
    on_line = np.all((j_y >= 0) & (j_y <= ends[:, :, None]), axis=0)
    line_strides = np.array([int(np.prod(line_counts[a + 1 :])) for a in range(len(central))], np.intp)
    toeplitz = np.where(on_line, np.tensordot(line_strides, j_y, 1), n_line)

    fvals, gvals = f.values, g.values
    thresh = zero_tol * np.max(np.abs(fvals)) if zero_tol > 0 else 0.0
    lines = np.moveaxis(f.reshape(), central, range(len(lower), ndim)).reshape(n_lower, n_line)
    lines = np.where(np.abs(lines) > thresh, lines, 0)
    active = np.flatnonzero(np.any(lines != 0, axis=1))
    out = np.zeros((n_lower, n_line), dtype=np.result_type(fvals, gvals))
    batch = max(1, CONVOLVE_BATCH * grid.size // (n_lower * n_lag))
    for start in range(0, len(active), batch):
        rows = active[start : start + batch]
        shape = (n_lower, len(rows))  # (x', y')
        flat = np.zeros(shape, dtype=np.intp)
        inside = np.ones(shape, dtype=bool)
        for k in shifts:
            a, N = lower.index(k), counts[k]
            i = nodes[a][:, None] - nodes[a][None, rows] + (N - 1) // 2
            if k in grid.periodic:
                i %= N
            else:
                inside &= (i >= 0) & (i < N)
                np.clip(i, 0, N - 1, out=i)  # a node outside has weight 0
            flat += i * strides[k]
        z = law.multiply_arrays(-pts[None, rows, :], pts[:, None, :])  # y^{-1} x at zero central coordinates
        corners, inside = _linear_corners(grid, z, [k for k in lower if k not in shifts], flat, inside, strides)
        partial = []  # per box axis of C: the base node and whether a tap falls between nodes
        for a, c in enumerate(central):
            N = counts[c]
            t = (z[..., c] + grid.half_widths[c]) / grid.spacings[c]
            base = np.floor(t + NODE_SNAP)
            w = t - base
            w[w < NODE_SNAP] = 0.0
            base = base.astype(np.intp)
            if c in grid.periodic:
                base %= N
            else:
                np.clip(base, -N - 1, 2 * N - 1, out=base)  # further out no offset reaches the box
                partial.append((a, N, base, w > 0))
            corners = [
                (fl + (base + 2 * N + i) * strides[c], cw * iw) for fl, cw in corners for i, iw in ((0, 1.0 - w), (1, w))
            ]
        kernel = sum(np.where(inside, cw, 0.0)[..., None] * gx[fl[..., None] + steps] for fl, cw in corners)
        lags = kernel.reshape(shape + tuple(2 * N - 1 for N in line_counts))
        for a, N, base, between in partial:
            # t between the nodes -1 and 0, or N - 1 and N: outside, though one tap is inside
            view = np.moveaxis(lags, 2 + a, 2)
            for lag in (N - 2 - base, 2 * N - 2 - base):
                hit = between & (lag >= 0) & (lag < 2 * N - 1)
                view[hit.nonzero() + (lag[hit],)] = 0
        padded = np.pad(lines[rows], ((0, 0), (0, 1)))
        out += kernel.reshape(n_lower, -1) @ padded[:, toeplitz].reshape(-1, n_line)
    out = np.moveaxis(out.reshape(lower_counts + line_counts), range(len(lower), ndim), central)
    return GridFunction(grid, out.ravel() * grid.cell_volume)


def _central_axis(law, grid):
    """The periodic axis of ``grid``, checked to be central for ``law``.

    The periodic axis must be one of ``central_axes`` and every other axis
    must shift by whole nodes (``node_shift_axes``).
    """
    if len(grid.periodic) != 1:
        raise GeometryError("twisted convolution needs exactly one periodic axis")
    (p,) = grid.periodic
    shifts = node_shift_axes(law)
    if p not in central_axes(law) or any(k not in shifts for k in range(grid.ndim) if k != p):
        raise GeometryError(
            f"periodic axis {p} is not central over an abelian quotient of the law"
        )
    return p


def _twisted_convolve(law, f, g, zero_tol):
    """f * g on a grid whose one periodic axis p is central.

    There y^{-1} x moves the other coordinates by whole nodes, x - y, and the
    periodic one by x_p - y_p + beta, with beta = (y^{-1} x)_p at zero periodic
    coordinates.  After a DFT along p the sum factorizes per frequency xi:
    (f * g)^(xi, x) = sum_y f^(xi, y) g^(xi, x - y) e^{i xi beta} dV, which is
    exact for the trigonometric interpolant along p; on the Heisenberg group
    beta = (x_1 y_2 - x_2 y_1)/2.  Nodes y whose whole periodic line of f
    vanishes (max |f| <= zero_tol * max|f|) are skipped.
    """
    grid = f.grid
    p = _central_axis(law, grid)

    def spectrum(h):
        # periodic axis first, with u = 0 at index 0 so the circular sum is exact
        lines = np.fft.ifftshift(np.moveaxis(h.reshape(), p, 0), axes=0)
        return np.fft.fft(lines, axis=0)

    F, G = spectrum(f), spectrum(g)
    shape = F.shape[1:]
    xi = 2 * np.pi * np.fft.fftfreq(grid.counts[p], d=grid.spacings[p])
    xi = xi.reshape((-1,) + (1,) * len(shape))
    others = [j for j in range(grid.ndim) if j != p]
    nodes = np.zeros((int(np.prod(shape)), grid.ndim))
    for j, m in zip(others, np.meshgrid(*[grid.axis(j) for j in others], indexing="ij")):
        nodes[:, j] = m.ravel()
    line_max = np.max(np.abs(np.moveaxis(f.reshape(), p, 0)), axis=0)
    thresh = zero_tol * line_max.max() if zero_tol > 0 else 0.0
    center = np.array([(N - 1) // 2 for N in shape])
    out = np.zeros(F.shape, dtype=complex)
    everything = (slice(None),)
    for a in np.argwhere(line_max > thresh):
        y = nodes[np.ravel_multi_index(tuple(a), shape)]
        beta = law.multiply_arrays(-y, nodes)[:, p].reshape(shape)
        dst = tuple(slice(max(0, d), N + min(0, d)) for d, N in zip(a - center, shape))
        src = tuple(slice(max(0, -d), N - max(0, d)) for d, N in zip(a - center, shape))
        fa = F[everything + tuple(a)].reshape(xi.shape)
        out[everything + dst] += fa * G[everything + src] * np.exp(1j * xi * beta[dst])
    vals = np.fft.fftshift(np.fft.ifft(out, axis=0), axes=0)
    vals = np.moveaxis(vals, 0, p).ravel() * grid.cell_volume
    if not (np.iscomplexobj(f.values) or np.iscomplexobj(g.values)):
        vals = vals.real
    return GridFunction(grid, vals)
