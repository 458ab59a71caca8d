import math

import numpy as np
import pytest

import leslie_sim.energetics as en
import oracles
from leslie_sim.grid import Grid, ScalarField, VectorField
from leslie_sim.initial import smooth_vector_field
from leslie_sim.material import NON_PARODI_DEMO, PARODI_DEMO, InvalidParameters, ParameterSet
from leslie_sim.tensor import ElasticTensor

EPS = 0.1
TENSOR = ElasticTensor.isotropic(1.0)


def test_free_energy_constant_unit_director():
    grid = Grid.unit_box(16)
    d = VectorField.constant(grid, (0.0, 0.0, 1.0))
    fe = en.free_energy(d, TENSOR, EPS)
    assert fe.elastic == 0.0
    assert fe.penalty == 0.0
    assert fe.total == 0.0


def test_free_energy_zero_director():
    grid = Grid.unit_box(16)
    fe = en.free_energy(VectorField.zeros(grid), TENSOR, EPS)
    assert fe.elastic == 0.0
    # (|0|^2 - 1)^2 = 1 on a unit-measure domain
    assert fe.penalty == pytest.approx(1.0 / (4.0 * EPS), rel=1e-13)


def test_free_energy_sin_perturbed_closed_form():
    # d = e3 + a sin(2 pi x) e1.  The sin mode is an eigenvector of the
    # central stencil with symbol s = sin(2 pi h) / h, and the midpoint rule
    # integrates sin^2 and sin^4 exactly, giving the closed forms
    #   elastic = a^2 s^2 / 4,   penalty = a^4 (3/8) / (4 eps).
    n, a = 32, 0.3
    grid = Grid.unit_box(n)
    x = grid.coords()[0]
    values = np.zeros((3,) + grid.shape)
    values[2] = 1.0
    values[0] = a * np.sin(2.0 * np.pi * x)
    fe = en.free_energy(VectorField(grid, values), TENSOR, EPS)
    s = math.sin(2.0 * math.pi / n) * n
    assert fe.elastic == pytest.approx(a**2 * s**2 / 4.0, rel=1e-6)
    assert fe.penalty == pytest.approx(a**4 * (3.0 / 8.0) / (4.0 * EPS), rel=1e-6)


def test_free_energy_rejects_bad_eps():
    grid = Grid.unit_box(8)
    with pytest.raises(ValueError):
        en.free_energy(VectorField.zeros(grid), TENSOR, 0.0)


def test_variational_derivative_constant_unit():
    grid = Grid.unit_box(16)
    d = VectorField.constant(grid, (1.0, 0.0, 0.0))
    q = en.variational_derivative(d, TENSOR, EPS)
    np.testing.assert_array_equal(q.values, 0.0)


def test_variational_derivative_constant_scaled():
    grid = Grid.unit_box(16)
    d = VectorField.constant(grid, (2.0, 0.0, 0.0))
    q = en.variational_derivative(d, TENSOR, EPS)
    # (|d|^2 - 1) d = 3 * 2 e1
    np.testing.assert_allclose(q.values[0], 6.0 / EPS, rtol=1e-13)
    np.testing.assert_array_equal(q.values[1:], 0.0)


def test_variational_derivative_is_discrete_gradient():
    # central finite differences of the free energy along random directions
    grid = Grid.unit_box(32)
    rng = np.random.default_rng(10)
    d = VectorField(
        grid,
        VectorField.constant(grid, (0.0, 0.0, 1.0)).values
        + 0.2 * smooth_vector_field(grid, rng).values,
    )
    q = en.variational_derivative(d, TENSOR, EPS)
    h = 1e-5
    for _ in range(20):
        psi = smooth_vector_field(grid, rng)
        plus = en.free_energy(VectorField(grid, d.values + h * psi.values), TENSOR, EPS)
        minus = en.free_energy(VectorField(grid, d.values - h * psi.values), TENSOR, EPS)
        fd = (plus.total - minus.total) / (2.0 * h)
        pairing = oracles.inner(q, psi)
        assert fd == pytest.approx(pairing, rel=1e-5)


def test_relative_energy_zero_at_equal_states():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(11)
    v = smooth_vector_field(grid, rng)
    d = smooth_vector_field(grid, rng)
    assert en.relative_energy(v, d, v, d, TENSOR, EPS) == 0.0


def test_relative_energy_nonnegative():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(12)
    for _ in range(5):
        v1, d1 = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
        v2, d2 = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
        assert en.relative_energy(v1, d1, v2, d2, TENSOR, EPS) >= 0.0


def test_relative_energy_quadratic_in_velocity():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(13)
    v1, v2 = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
    d = smooth_vector_field(grid, rng)
    alpha = 1.7
    base = en.relative_energy(v1, d, v2, d, TENSOR, EPS)
    scaled = en.relative_energy(
        VectorField(grid, alpha * v1.values), d,
        VectorField(grid, alpha * v2.values), d, TENSOR, EPS)
    assert scaled == pytest.approx(alpha**2 * base, rel=1e-12)


def test_relative_dissipation_zero_at_equal_states():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(14)
    v, d = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
    q = en.variational_derivative(d, TENSOR, EPS)
    assert en.relative_dissipation(v, d, q, v, d, q, PARODI_DEMO) == 0.0


def test_relative_dissipation_with_invalid_parameters_raises():
    grid = Grid.unit_box(8)
    rng = np.random.default_rng(14)
    v, d = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
    q = en.variational_derivative(d, TENSOR, EPS)
    with pytest.raises(InvalidParameters, match="mu4 > 0"):
        en.relative_dissipation(v, d, q, v, d, q, ParameterSet(mu4=-1.0))


def test_relative_dissipation_nonnegative():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(15)
    v1, d1 = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
    v2, d2 = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
    q1 = en.variational_derivative(d1, TENSOR, EPS)
    q2 = en.variational_derivative(d2, TENSOR, EPS)
    assert en.relative_dissipation(v1, d1, q1, v2, d2, q2, NON_PARODI_DEMO) >= 0.0


def test_gronwall_factor_zero_fields():
    # all fields zero: only || |d|^2 - 1 ||_L6^2 = |Omega|^(1/3) survives
    grid = Grid.unit_box(16)
    zero = VectorField.zeros(grid)
    k = en.gronwall_K(zero, zero, zero, zero, zero, zero, c=1.0)
    assert k == pytest.approx(1.0, rel=1e-12)  # unit box measure
    assert en.gronwall_K(zero, zero, zero, zero, zero, zero, c=2.0) == pytest.approx(
        2.0 * k, rel=1e-14)


def test_gronwall_factor_recomposition():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(16)
    v, d = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
    vr, dr = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
    qr = en.variational_derivative(dr, TENSOR, EPS)
    dtr = smooth_vector_field(grid, rng)

    first = 1.0 + oracles.lp_norm(d, 6) ** 2 + oracles.lp_norm(dr, 6) ** 2
    w16 = (oracles.lp_norm(vr, 6) ** 6 + oracles.w1p_seminorm(vr, 6) ** 6) ** (1.0 / 6.0)
    _, _, ddvd = oracles.dissipation_channels(vr, dr, qr)
    dev = np.sum(dr.values**2, axis=0) - 1.0
    second = (
        w16**2
        + oracles.lp_norm(qr, 3) ** 2
        + oracles.lp_norm(ScalarField(grid, ddvd), 6) ** 2
        + oracles.lp_norm(dtr, 3)
        + oracles.lp_norm(ScalarField(grid, dev), 6) ** 2
        + oracles.lp_norm(v, 6) ** 2
        + oracles.w1p_seminorm(dr, 2) ** 2
    )
    assert en.gronwall_K(v, d, vr, dr, qr, dtr, c=1.5) == pytest.approx(
        1.5 * first * second, rel=1e-12)


def test_energy_residual_stationary_trace():
    n = 5
    t = np.linspace(0.0, 1.0, n)
    zeros = np.zeros(n)
    trace = en.EnergyTrace(
        t=t, kinetic=zeros, elastic=zeros, penalty=zeros,
        total=zeros, diss_mu1=zeros, diss_mu4=zeros, diss_dir=zeros,
        diss_q=zeros, cross_term=zeros, g_power=zeros)
    np.testing.assert_array_equal(en.energy_inequality_residual(trace, PARODI_DEMO), 0.0)


def test_parodi_cross_term_exactly_zero():
    # with gamma (mu2 + mu3) = lambda the coefficient itself vanishes
    assert PARODI_DEMO.cross_coeff == 0.0
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(17)
    v, d = smooth_vector_field(grid, rng), smooth_vector_field(grid, rng)
    q = en.variational_derivative(d, TENSOR, EPS)
    _, dvd, _ = en.dissipation_channels(v, d)
    cross = PARODI_DEMO.cross_coeff * float(np.sum(q.values * dvd)) * grid.cell_volume
    assert cross == 0.0


def test_relative_trace_length_check():
    with pytest.raises(ValueError):
        en.RelativeTrace(t=np.zeros(3), E=np.zeros(3), W=np.zeros(3),
                         K=np.zeros(3), bound=np.zeros(2))
