import copy
import math
import pickle

import numpy as np
import pytest

import leslie_sim.grid as g
import oracles
from leslie_sim.grid import Grid, ScalarField, TensorField, VectorField
from leslie_sim.initial import smooth_vector_field
from leslie_sim.tensor import ElasticTensor


def _sin_mode(grid, k=1, component=1):
    x = grid.coords()[0]
    values = np.zeros((3,) + grid.shape)
    values[component] = np.sin(2.0 * np.pi * k * x / grid.lengths[0])
    return VectorField(grid, values)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(n=(3, 8), h=(0.1, 0.1))
    with pytest.raises(ValueError):
        Grid(n=(8, 8), h=(0.1,))
    with pytest.raises(ValueError):
        Grid(n=(8, 8), h=(0.1, -0.1))
    with pytest.raises(ValueError):
        Grid(n=(8,), h=(0.1,))


@pytest.mark.parametrize("n", [(4.7, 6.9), (8, 8.5), (8, math.inf), (8, math.nan)])
def test_grid_rejects_a_fractional_cell_count(n):
    # int() would truncate (4.7, 6.9) to a (4, 6) grid
    with pytest.raises(ValueError, match="grid n must be >= 4 and whole"):
        Grid(n=n, h=(0.25, 0.25))


@pytest.mark.parametrize("h", [math.inf, math.nan])
def test_grid_rejects_nonfinite_spacing(h):
    with pytest.raises(ValueError, match="grid spacing must be finite and positive"):
        Grid(n=(8, 8), h=(0.1, h))


def test_unit_box_refuses_a_fractional_cell_count():
    # int() would truncate 8.5 to an 8 x 8 grid; an integral float is its int
    with pytest.raises(ValueError, match="grid n must be >= 4 and whole"):
        Grid.unit_box(8.5)
    grid = Grid.unit_box(8.0)
    assert grid == Grid.unit_box(8) and grid.n == (8, 8) and grid.h == (0.125, 0.125)
    assert type(grid.n[0]) is int


@pytest.mark.parametrize("n", [0, "8", None])
def test_unit_box_refuses_a_count_below_4_or_not_a_number(n):
    # 0 divided by zero in 1 / n and "8" was a TypeError, before Grid's check
    with pytest.raises(ValueError, match="grid n must be >= 4 and whole"):
        Grid.unit_box(n)


def test_unit_box_properties():
    grid = Grid.unit_box(16, dim=3)
    assert grid.dim == 3
    assert grid.cell_count == 16**3
    assert grid.cell_volume == pytest.approx((1.0 / 16) ** 3)
    assert grid.lengths == (1.0, 1.0, 1.0)



def test_grid_attributes_are_plain_and_identity_is_n_and_h():
    grid = Grid(n=(5, 4, 6), h=(0.2, 0.2, 0.2))
    # dim and shape are attributes set once, not properties
    assert {"dim", "shape", "stencils"} <= set(vars(grid))
    assert not any(isinstance(getattr(Grid, name, None), property) for name in ("dim", "shape"))
    assert (grid.dim, grid.shape) == (3, (5, 4, 6))
    same = Grid(n=[5.0, 4, 6], h=(0.2, 0.2, 0.2))
    assert same == grid and hash(same) == hash(grid)
    assert Grid(n=(5, 4, 6), h=(0.2, 0.2, 0.25)) != grid
    assert repr(grid) == "Grid(n=(5, 4, 6), h=(0.2, 0.2, 0.2))"
    values = np.random.default_rng(3).normal(size=(2, 3) + grid.shape)
    for other in (copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
        assert other == grid and hash(other) == hash(grid)
        assert (other.dim, other.shape, other.cell_count) == (grid.dim, grid.shape, grid.cell_count)
        for axis in range(-grid.dim, 0):
            np.testing.assert_array_equal(g._deriv(other, values, axis), g._deriv(grid, values, axis))


@pytest.mark.parametrize("h", [1.0 / 16, 0.1, 2.0**1022, 2.0**-1074, 3.0 * 2.0**-1060])
def test_deriv_scaling_is_the_divide_bit_for_bit(h):
    # 2h a power of two is scaled by a multiply with its exact reciprocal:
    # down to subnormal results and up to overflow it rounds as the divide
    grid = Grid(n=(4, 6), h=(h, h))
    rng = np.random.default_rng(4)
    values = rng.normal(size=(1, 3) + grid.shape) * 10.0 ** rng.integers(-300, 300, size=grid.shape)
    for axis in (-2, -1):
        rolled = np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(g._deriv(grid, values, axis), rolled / (2.0 * h))

def test_field_shape_checks():
    grid = Grid.unit_box(8)
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros((8, 9)))
    with pytest.raises(ValueError):
        VectorField(grid, np.zeros((8, 8, 2)))
    with pytest.raises(ValueError):
        TensorField(grid, np.zeros((8, 8, 3)))


@pytest.mark.parametrize("cls, leading", [(ScalarField, ()), (VectorField, (3,)), (TensorField, (3, 3))])
def test_field_zeros_and_copy_keep_the_type(cls, leading):
    grid = Grid.unit_box(8)
    field = cls.zeros(grid)
    copy = field.copy()
    assert type(copy) is cls and copy.grid == grid and copy.values.shape == leading + grid.shape
    copy.values[...] = 1.0
    assert not field.values.any()


def test_integrate_constant_is_one():
    grid = Grid.unit_box(12)
    assert oracles.integrate(ScalarField(grid, np.ones(grid.shape))) == pytest.approx(1.0)


def test_lp_norm_zero_field():
    grid = Grid.unit_box(8)
    zero = VectorField.zeros(grid)
    for p in (1, 2, 6, math.inf):
        assert oracles.lp_norm(zero, p) == 0.0


def test_l2_norm_of_sin_mode():
    # int sin^2(2 pi x) over the unit box = 1/2
    grid = Grid.unit_box(64)
    f = _sin_mode(grid)
    assert oracles.lp_norm(f, 2) == pytest.approx(math.sqrt(0.5), abs=1e-3)


def test_lp_norm_rejects_small_p():
    grid = Grid.unit_box(8)
    with pytest.raises(ValueError):
        oracles.lp_norm(VectorField.zeros(grid), 0.5)


def test_trace_of_gradient_is_divergence():
    grid = Grid.unit_box(16)
    f = smooth_vector_field(grid, np.random.default_rng(0))
    grad = g.gradient_vec(f)
    trace = np.einsum("ii...->...", grad.values)
    np.testing.assert_allclose(trace, g.divergence_vec(f).values, atol=1e-12)


def test_gradient_absent_axis_is_zero():
    grid = Grid.unit_box(16, dim=2)
    f = smooth_vector_field(grid, np.random.default_rng(1))
    grad = g.gradient_vec(f)
    assert np.all(grad.values[:, 2] == 0.0)


def test_operators_linear():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(2)
    f1 = smooth_vector_field(grid, rng)
    f2 = smooth_vector_field(grid, rng)
    alpha, beta = 1.3, -0.4
    combo = VectorField(grid, alpha * f1.values + beta * f2.values)
    for op in (g.gradient_vec, g.divergence_vec):
        np.testing.assert_allclose(
            op(combo).values,
            alpha * op(f1).values + beta * op(f2).values,
            atol=1e-11,
        )


def test_derivative_second_order_periodic():
    errs = []
    for n in (32, 64):
        grid = Grid.unit_box(n)
        x = grid.coords()[0]
        f = np.sin(2.0 * np.pi * x)
        df = g._deriv(grid, f, axis=-2)
        errs.append(np.max(np.abs(df - 2.0 * np.pi * np.cos(2.0 * np.pi * x))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_deriv_rejects_an_axis_outside_the_spatial_ones():
    # counted from the end: a count from the front would name a component
    # axis of component-major values
    grid = Grid.unit_box(8)
    values = np.zeros((3,) + grid.shape)
    for axis in (0, 1, -3):
        with pytest.raises(ValueError, match="spatial axis"):
            g._deriv(grid, values, axis)


def test_advect_matches_jacobian_product():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(3)
    v = smooth_vector_field(grid, rng)
    f = smooth_vector_field(grid, rng)
    grad = g.gradient_vec(f).values
    expect = np.einsum("ij...,j...->i...", grad, v.values)
    np.testing.assert_allclose(g.advect(v, f).values, expect, atol=1e-13)


def test_advect_refuses_fields_on_two_grids():
    v, f = VectorField.zeros(Grid.unit_box(8)), VectorField.zeros(Grid.unit_box(16))
    with pytest.raises(ValueError, match="^advect requires fields on the same grid$"):
        g.advect(v, f)


def test_laplacian_lambda_isotropic_reduction():
    grid = Grid.unit_box(16)
    f = smooth_vector_field(grid, np.random.default_rng(4))
    k = 2.0
    lap_k = g.laplacian_lambda(f, ElasticTensor.isotropic(k))
    lap_1 = g.laplacian_lambda(f, ElasticTensor.isotropic(1.0))
    np.testing.assert_allclose(lap_k.values, k * lap_1.values, rtol=1e-12)


SBP_GRIDS = {
    "2d-16": Grid.unit_box(16),
    "2d-32": Grid.unit_box(32),
    "2d-nonsquare": Grid(n=(12, 9), h=(0.1, 0.13)),
    "3d": Grid.unit_box(8, dim=3),
}


def _ibp_divergence_residual_components(a, phi):
    """:func:`oracles.ibp_divergence_residual` with the stepper's
    component-major kernels: | (div A, phi) + (A : grad phi) |, where only
    the columns of A along the grid's axes pair with grad phi."""
    grid = phi.grid
    div = g.divergence_components(grid, a.values)
    grad = g.gradient_components(grid, phi.values)
    return abs(float(np.vdot(div, phi.values)) + float(np.vdot(a.values[:, : grid.dim], grad))) * grid.cell_volume


def test_summation_by_parts_divergence():
    for grid_name, grid in sorted(SBP_GRIDS.items()):
        for residual in (oracles.ibp_divergence_residual, _ibp_divergence_residual_components):
            rng = np.random.default_rng(grid.n[0])
            a = TensorField(grid, np.stack(
                [smooth_vector_field(grid, rng).values for _ in range(3)], axis=1))
            phi = smooth_vector_field(grid, rng)
            scale = math.sqrt(oracles.l2_norm_sq(a)) * math.sqrt(
                oracles.l2_norm_sq(g.gradient_vec(phi)))
            assert residual(a, phi) <= 1e-12 * max(scale, 1.0), (grid_name, residual.__name__)


def test_summation_by_parts_laplacian():
    grid = Grid.unit_box(32)
    rng = np.random.default_rng(7)
    d = smooth_vector_field(grid, rng)
    phi = smooth_vector_field(grid, rng)
    tensor = ElasticTensor.isotropic(1.0)
    scale = max(abs(oracles.inner(g.laplacian_lambda(d, tensor), phi)), 1.0)
    assert oracles.ibp_laplacian_residual(d, phi, tensor) <= 1e-12 * scale


def test_ibp_pair_trivial_cases():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(8)
    a = TensorField(grid, np.stack(
        [smooth_vector_field(grid, rng).values for _ in range(3)], axis=1))
    assert oracles.ibp_divergence_residual(a, VectorField.zeros(grid)) == 0.0
    const = TensorField(grid, np.broadcast_to(np.eye(3)[:, :, None, None], (3, 3) + grid.shape).copy())
    phi = smooth_vector_field(grid, rng)
    assert oracles.ibp_divergence_residual(const, phi) <= 1e-12


def test_w1p_seminorm_matches_gradient_norm():
    grid = Grid.unit_box(16)
    f = smooth_vector_field(grid, np.random.default_rng(9))
    assert oracles.w1p_seminorm(f, 2) == pytest.approx(
        math.sqrt(oracles.l2_norm_sq(g.gradient_vec(f))), rel=1e-12)


def test_inner_requires_matching_kinds():
    grid = Grid.unit_box(8)
    with pytest.raises(TypeError):
        oracles.inner(VectorField.zeros(grid), ScalarField.zeros(grid))
