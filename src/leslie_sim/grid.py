"""Uniform collocated Cartesian grids (2D or 3D domains, 3-component vectors)
with second-order central difference operators.  Integrals are midpoint
sums: the L^2 pairing of two arrays is ``np.vdot(a, b) * grid.cell_volume``.

Every grid is periodic; the discrete gradient and divergence are exactly
adjoint (summation by parts), which the energy and relative-energy
diagnostics rely on.  On a 2D domain, vector fields keep all three
components and derivatives in the absent direction are zero.

Field values are node-major (``grid.shape + (3,)``); :func:`components` and
:func:`nodal` switch to and from the component-major layout
(``(3,) + grid.shape``) that the stepper computes in, without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ElasticTensor


@dataclass(frozen=True)
class Grid:
    """Cell-centered uniform periodic grid; ``n`` cells and spacing ``h`` per
    axis."""

    n: tuple
    h: tuple
    cell_volume: float = field(init=False, repr=False, compare=False)
    cell_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = tuple(int(v) for v in self.n)
        h = tuple(float(v) for v in self.h)
        if len(n) not in (2, 3):
            raise ValueError("grid dimension must be 2 or 3")
        if len(h) != len(n):
            raise ValueError("n and h must have the same length")
        if any(v < 4 for v in n):
            raise ValueError("need at least 4 cells per axis")
        if not all(math.isfinite(v) and v > 0.0 for v in h):
            raise ValueError(f"grid spacing must be positive and finite, got {h}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "cell_volume", math.prod(h))
        object.__setattr__(self, "cell_count", math.prod(n))

    @classmethod
    def unit_box(cls, n, dim: int = 2) -> "Grid":
        ns = tuple([int(n)] * dim)
        hs = tuple(1.0 / v for v in ns)
        return cls(n=ns, h=hs)

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple:
        return self.n

    @property
    def lengths(self) -> tuple:
        return tuple(ni * hi for ni, hi in zip(self.n, self.h))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.n[axis]) + 0.5) * self.h[axis]

    def coords(self):
        """Meshgrid (ij indexing) of cell-center coordinates, one array per axis."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")


@dataclass
class Field:
    """Node-major values ``grid.shape + trailing`` on a grid; the scalar,
    vector and tensor fields differ only by their ``trailing`` shape."""

    grid: Grid
    values: np.ndarray
    trailing = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expect = self.grid.shape + self.trailing
        if self.values.shape != expect:
            raise ValueError(f"field values shape {self.values.shape}, expected {expect}")

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros(grid.shape + cls.trailing))

    def copy(self):
        return type(self)(self.grid, self.values.copy())


class ScalarField(Field):
    """Values ``grid.shape``."""


class VectorField(Field):
    """Values ``grid.shape + (3,)``."""

    trailing = (3,)

    @classmethod
    def constant(cls, grid: Grid, vec) -> "VectorField":
        values = np.broadcast_to(np.asarray(vec, dtype=np.float64), grid.shape + (3,))
        return cls(grid, values.copy())


class TensorField(Field):
    """Values ``grid.shape + (3, 3)``."""

    trailing = (3, 3)


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def components(values: np.ndarray) -> np.ndarray:
    """Component-major view (3, ...) of node-major (..., 3) values: the
    ``np.moveaxis(values, -1, 0)`` view, without its argument checks."""
    last = values.ndim - 1
    return values.transpose((last,) + tuple(range(last)))


def nodal(values: np.ndarray) -> np.ndarray:
    """Node-major view (..., 3) of component-major (3, ...) values: the
    ``np.moveaxis(values, 0, -1)`` view, without its argument checks."""
    return values.transpose(tuple(range(1, values.ndim)) + (0,))


def members(fields) -> np.ndarray:
    """The values of vector fields as the members of an ensemble: a
    C-contiguous component-major copy (m, 3) + grid.shape."""
    return np.array([components(f.values) for f in fields])


# ---------------------------------------------------------------------------
# derivative stencils
# ---------------------------------------------------------------------------

def _deriv(grid: Grid, values: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Second-order first derivative along spatial axis ``axis``.

    One stencil serves both layouts: ``axis`` in 0 .. dim - 1 differentiates
    leading spatial axes (component axes trailing, node-major), ``axis`` in
    -dim .. -1 trailing ones (component axes leading, component-major), so
    spatial axis a is ``a - dim`` there.  Central differences with index
    wrap-around; the two wrap planes go into the same buffer, so the result
    equals (roll(v, -1) - roll(v, 1)) / 2h bit for bit without the rolled
    copies.  When the block of both operands' axes from the first spatial
    one on is contiguous (the trailing spatial block of component-major
    members, gradient columns and flux slices alike), the interior of every
    line is one subtract over (rows, cells) views, the cells offset by the
    axis stride; it is wrong only on the wrap planes, which are rewritten
    after it.  Other layouts take the interior slice by slice.  Writes into
    ``out`` if given.
    """
    h = grid.h[axis]
    n = grid.n[axis]
    k = axis % values.ndim
    lead = (slice(None),) * k

    def sl(idx):
        return lead + (idx,)

    if out is None:
        out = np.empty_like(values)
    # the block's first entry: a view whose flags tell from the strides
    # whether the block is contiguous, so that it reshapes into cells as a view
    first = (0,) * (values.ndim - grid.dim if axis < 0 else 0)
    if values[first].flags.c_contiguous and out[first].flags.c_contiguous:
        flat_shape = values.shape[: len(first)] + (-1,)
        flat, flat_out = values.reshape(flat_shape), out.reshape(flat_shape)
        step = values.strides[k] // values.itemsize
        np.subtract(flat[..., 2 * step :], flat[..., : -2 * step], out=flat_out[..., step:-step])
    else:
        np.subtract(values[sl(slice(2, n))], values[sl(slice(0, n - 2))], out=out[sl(slice(1, n - 1))])
    np.subtract(values[sl(1)], values[sl(n - 1)], out=out[sl(0)])
    np.subtract(values[sl(0)], values[sl(n - 2)], out=out[sl(n - 1)])
    out /= 2.0 * h
    return out


def gradient_components(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Component-major Jacobian (..., 3, dim) + grid.shape of component-major
    values (..., 3) + grid.shape: entry (i, j) = d f_i / d x_j for the grid's
    dim axes only, so a 2D gradient has no zero column.  Leading axes (the
    members of an ensemble) are kept."""
    rest = (slice(None),) * grid.dim
    out = np.empty(values.shape[: -grid.dim] + (grid.dim,) + grid.shape)
    for j in range(grid.dim):
        _deriv(grid, values, j - grid.dim, out=out[(Ellipsis, j) + rest])
    return out


def divergence_components(grid: Grid, values: np.ndarray) -> np.ndarray:
    """sum_j d values[..., j, :] / d x_j over the grid's dim axes, for
    component-major values (..., k) + grid.shape with k >= dim: the
    divergence of a vector (k = 3), or row by row that of a gradient-shaped
    flux (k = dim)."""
    rest = (slice(None),) * grid.dim
    out = _deriv(grid, values[(Ellipsis, 0) + rest], -grid.dim)
    for j in range(1, grid.dim):
        out += _deriv(grid, values[(Ellipsis, j) + rest], j - grid.dim)
    return out


def elastic_flux(grid: Grid, contraction: tuple, grad: np.ndarray) -> np.ndarray:
    """L : grad d of component-major gradients (..., 3, dim) + grid.shape,
    given ``contraction = tensor.sparse_contraction(grid.dim)``: each row of
    the (3 dim) x (3 dim) product summed over its nonzero entries only, in
    column order, which equals the dense product bit for bit."""
    flat = grad.reshape((-1, 3 * grid.dim) + grid.shape)
    out = np.empty_like(flat)
    term = np.empty_like(flat[:, 0])
    for a, ((b, c), *rest) in enumerate(contraction):
        np.multiply(flat[:, b], c, out=out[:, a])
        for b, c in rest:
            out[:, a] += np.multiply(flat[:, b], c, out=term)
    return out.reshape(grad.shape)


def gradient_vec(f: VectorField) -> TensorField:
    """Jacobian with entry (i, j) = d f_i / d x_j; absent axes give zeros."""
    grid = f.grid
    out = np.zeros(grid.shape + (3, 3))
    for j in range(grid.dim):
        out[..., :, j] = _deriv(grid, f.values, axis=j)
    return TensorField(grid, out)


def divergence_vec(f: VectorField) -> ScalarField:
    grid = f.grid
    out = np.zeros(grid.shape)
    for a in range(grid.dim):
        out += _deriv(grid, f.values[..., a], axis=a)
    return ScalarField(grid, out)


def divergence_tensor(a: TensorField) -> VectorField:
    """(div A)_i = sum_j d A_ij / d x_j."""
    grid = a.grid
    out = np.zeros(grid.shape + (3,))
    for j in range(grid.dim):
        out += _deriv(grid, a.values[..., :, j], axis=j)
    return VectorField(grid, out)


def laplacian_lambda(d: VectorField, tensor: ElasticTensor) -> VectorField:
    """div(L : grad d); with isotropic L this is k times the componentwise
    Laplacian.  The stepper's kernels on d as a one-member ensemble."""
    grid = d.grid
    grad = gradient_components(grid, members([d]))
    lap = divergence_components(grid, elastic_flux(grid, tensor.sparse_contraction(grid.dim), grad))
    return VectorField(grid, nodal(lap[0]))


def advect(v: VectorField, f: VectorField) -> VectorField:
    """(v . grad) f = (grad f) v per node."""
    if v.grid is not f.grid and v.grid != f.grid:
        raise ValueError("advect requires fields on the same grid")
    grad = gradient_vec(f)
    return VectorField(f.grid, np.einsum("...ij,...j->...i", grad.values, v.values))

