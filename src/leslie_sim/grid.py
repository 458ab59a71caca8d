"""Uniform collocated Cartesian grids (2D or 3D domains, 3-component vectors)
with second-order central difference operators.  Integrals are midpoint
sums: the L^2 pairing of two arrays is ``np.vdot(a, b) * grid.cell_volume``.

Every grid is periodic; the discrete gradient and divergence are exactly
adjoint (summation by parts), which the energy and relative-energy
diagnostics rely on.  On a 2D domain, vector fields keep all three
components and derivatives in the absent direction are zero.

Field values are component-major, the component axes leading
(``(3,) + grid.shape`` for a vector), the one layout the stepper computes
in: a field's values are one member of an ensemble's arrays as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ElasticTensor


def whole(value, name: str, least: int) -> int:
    """``value`` as an int: the one rule for every count and seed.  An
    integral float counts as its int, an int stays exact however long it
    is; a fraction, nan, inf, a string or a value < ``least`` is a ValueError."""
    try:
        if (isinstance(value, int) or float(value).is_integer()) and value >= least:
            return int(value)
    except (TypeError, ValueError):  # not a number: float(None), or "8" >= 4
        pass
    raise ValueError(f"{name} must be >= {least} and whole, got {value!r}")


def _stencil(n: int, h: float, trailing: int) -> tuple:
    """The central difference's constants on an axis of n cells of spacing h
    with ``trailing`` spatial axes after it: the scaling by 1/2h (a multiply
    by the exact reciprocal where 2h is a power of two: the divide's bits,
    faster) and the (out, ahead, behind) indices of the interior and of both
    wrap planes, counted from the trailing end to serve any leading axes."""
    two_h = 2.0 * h
    exact = math.frexp(two_h)[0] == 0.5 and math.isfinite(1.0 / two_h)
    rest = (slice(None),) * trailing
    interior, wrap = (tuple((Ellipsis, i) + rest for i in idx) for idx in (
        (slice(1, n - 1), slice(2, n), slice(0, n - 2)),
        (slice(0, n, n - 1), slice(1, None, -1), slice(n - 1, n - 3, -1))))
    return (np.multiply, 1.0 / two_h) if exact else (np.divide, two_h), interior, wrap


@dataclass(frozen=True)
class Grid:
    """Cell-centered uniform periodic grid; ``n`` cells and spacing ``h`` per
    axis.  Equality and hashing see only (n, h); the other attributes are
    derived from them once, the per-axis :func:`_stencil` constants too."""

    n: tuple
    h: tuple
    dim: int = field(init=False, repr=False, compare=False)
    shape: tuple = field(init=False, repr=False, compare=False)
    cell_volume: float = field(init=False, repr=False, compare=False)
    cell_count: int = field(init=False, repr=False, compare=False)
    stencils: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a fractional count is an error, not a count truncated by int()
        n = tuple(whole(v, "grid n", 4) for v in self.n)
        h = tuple(float(v) for v in self.h)
        if len(n) not in (2, 3):
            raise ValueError("grid dimension must be 2 or 3")
        if len(h) != len(n):
            raise ValueError("n and h must have the same length")
        if not all(math.isfinite(v) and v > 0.0 for v in h):
            raise ValueError(f"grid spacing must be finite and positive, got {h}")
        stencils = tuple(_stencil(na, ha, len(n) - 1 - a) for a, (na, ha) in enumerate(zip(n, h)))
        for name, value in dict(n=n, h=h, dim=len(n), shape=n, cell_volume=math.prod(h),
                                cell_count=math.prod(n), stencils=stencils).items():
            object.__setattr__(self, name, value)

    @classmethod
    def unit_box(cls, n, dim: int = 2) -> "Grid":
        n = whole(n, "grid n", 4)  # before 1 / n: a bad count is Grid's error
        return cls(n=(n,) * dim, h=(1.0 / n,) * dim)

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
    """Component-major values ``leading + grid.shape`` on a grid; the scalar,
    vector and tensor fields differ only by their ``leading`` shape."""

    grid: Grid
    values: np.ndarray
    leading = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expect = self.leading + self.grid.shape
        if self.values.shape != expect:
            raise ValueError(f"field values shape {self.values.shape}, expected {expect}")

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros(cls.leading + grid.shape))

    def copy(self):
        return type(self)(self.grid, self.values.copy())


class ScalarField(Field):
    """Values ``grid.shape``."""


class VectorField(Field):
    """Values ``(3,) + grid.shape``."""

    leading = (3,)

    @classmethod
    def constant(cls, grid: Grid, vec) -> "VectorField":
        values = np.asarray(vec, dtype=np.float64).reshape((3,) + (1,) * grid.dim)
        return cls(grid, np.broadcast_to(values, (3,) + grid.shape).copy())


class TensorField(Field):
    """Values ``(3, 3) + grid.shape``, entry (i, j) leading."""

    leading = (3, 3)


# ---------------------------------------------------------------------------
# derivative stencils
# ---------------------------------------------------------------------------

def _deriv(grid: Grid, values: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Second-order first derivative along spatial axis ``axis`` of
    component-major values (component axes leading, the grid's axes
    trailing), counted from the end: spatial axis a is ``a - dim``.  Central
    differences with index wrap-around, from the grid's ``stencils``: output
    planes 0 and n - 1 take input planes 1 and 0 minus n - 1 and n - 2 in one
    subtract, so the result equals (roll(v, -1) - roll(v, 1)) / 2h bit for
    bit without the rolled copies.  The interior is one slice, which along
    the outermost spatial axis of a contiguous block is one run per row.
    Along the other axes, when the block of both operands' axes from the
    first spatial one on is contiguous (component-major members, gradient
    columns and flux slices alike), it is one subtract over (rows, cells)
    views instead, the cells offset by the axis stride, wrong only on the
    wrap planes, which are rewritten after it.  Writes into ``out`` if given.
    """
    if not -grid.dim <= axis < 0:
        raise ValueError(f"spatial axis {axis} is not in -{grid.dim} .. -1")
    if out is None:
        out = np.empty_like(values)
    (scale, by), interior, wrap = grid.stencils[axis]
    # the flags of the block's first entry tell whether it reshapes into cells
    lead = values.ndim - grid.dim
    first = (0,) * lead
    if axis != -grid.dim and values[first].flags.c_contiguous and out[first].flags.c_contiguous:
        flat_shape = values.shape[:lead] + (-1,)
        flat, flat_out = values.reshape(flat_shape), out.reshape(flat_shape)
        step = values.strides[axis] // values.itemsize
        np.subtract(flat[..., 2 * step :], flat[..., : -2 * step], out=flat_out[..., step:-step])
    else:
        at, ahead, behind = interior
        np.subtract(values[ahead], values[behind], out=out[at])
    at, ahead, behind = wrap
    np.subtract(values[ahead], values[behind], out=out[at])
    scale(out, by, out=out)
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
    scratch = np.empty_like(out)
    for j in range(1, grid.dim):
        out += _deriv(grid, values[(Ellipsis, j) + rest], j - grid.dim, out=scratch)
    return out


def gradient_vec(f: VectorField) -> TensorField:
    """Jacobian with entry (i, j) = d f_i / d x_j (:func:`gradient_components`);
    the columns of absent axes are zeros."""
    out = np.zeros((3, 3) + f.grid.shape)
    out[:, : f.grid.dim] = gradient_components(f.grid, f.values)
    return TensorField(f.grid, out)


def divergence_vec(f: VectorField) -> ScalarField:
    return ScalarField(f.grid, divergence_components(f.grid, f.values))


def divergence_tensor(a: TensorField) -> VectorField:
    """(div A)_i = sum_j d A_ij / d x_j."""
    return VectorField(a.grid, divergence_components(a.grid, a.values))


def laplacian_lambda(d: VectorField, tensor: ElasticTensor) -> VectorField:
    """div(L : grad d); with isotropic L this is k times the componentwise
    Laplacian.  The stepper's kernels on d's values as they are."""
    grid = d.grid
    flux = tensor.flux(gradient_components(grid, d.values), grid.dim)
    return VectorField(grid, divergence_components(grid, flux))


def advect(v: VectorField, f: VectorField) -> VectorField:
    """(v . grad) f = (grad f) v per node."""
    if v.grid is not f.grid and v.grid != f.grid:
        raise ValueError("advect requires fields on the same grid")
    dim = f.grid.dim
    return VectorField(f.grid, np.einsum("ij...,j...->i...", gradient_components(f.grid, f.values), v.values[:dim]))
