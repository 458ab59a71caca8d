"""The spectral operators of a periodic grid against the plain full-spectrum
math they replace, and the periodic stencil against the rolled-copy formula.

The references transform with full complex ``fftn`` and solve each Fourier
mode with ``np.linalg.solve``; the operators under test use the real
half spectrum and precomputed inverses, so results agree to rounding.  The
director stiffness and its closed-form inverse are held to the einsum and
``np.linalg.inv`` of ``oracles``.  The stepper's elastic operator
div(L : grad d) is held to its adjoint pairing and to the continuum
operator on Fourier modes, for every tensor and grid here.
"""

import numpy as np
import pytest

import leslie_sim.energetics as en
import leslie_sim.grid as g
import oracles
from leslie_sim import dynamics
from oracles import leading, nodal
from leslie_sim.dynamics import (
    Ensemble,
    SpectralOps,
    State,
    Stepper,
    StepperConfig,
    _inverse_3x3,
    _pressure,
    _projection_targets,
    _symbols,
    _velocity_update,
    max_stiff_rate,
    project_divfree,
    solve_director_implicit,
    solve_helmholtz,
)
from leslie_sim.grid import Grid, VectorField
from leslie_sim.material import PARODI_DEMO
from leslie_sim.tensor import ElasticTensor

#: Relative tolerance, fixed from float64 rounding before the comparisons ran.
RTOL = 1e-12
#: Tolerance of the set-up kernels against their oracles, relative to the
#: largest expected entry, fixed from float64 rounding before they ran.
SETUP_TOL = 1e-13

_EYE = np.eye(3)
#: The benchmark's anisotropic tensor L = d_ik d_jl + 0.5 d_ij d_kl + 0.25 d_il d_jk.
ANISO = ElasticTensor(
    entries=np.einsum("ik,jl->ijkl", _EYE, _EYE)
    + 0.5 * np.einsum("ij,kl->ijkl", _EYE, _EYE)
    + 0.25 * np.einsum("il,jk->ijkl", _EYE, _EYE),
    eta=1.0,
)
#: A random tensor with major symmetry, positive definite as a 9 x 9 matrix:
#: every block of its director matrices is nonzero.
_R = np.random.default_rng(11).normal(size=(9, 9))
COUPLED = ElasticTensor(entries=(np.eye(9) + 0.1 * (_R @ _R.T)).reshape(3, 3, 3, 3), eta=1.0)
TENSORS = {"isotropic": ElasticTensor.isotropic(1.7), "aniso": ANISO, "coupled": COUPLED}

GRIDS = {
    "2d-even": Grid.unit_box(16),
    "2d-odd": Grid.unit_box(15),
    "2d-nonsquare": Grid(n=(12, 9), h=(0.1, 0.13)),
    "3d-even": Grid.unit_box(8, dim=3),
    "3d-mixed": Grid(n=(8, 6, 7), h=(0.125, 0.2, 0.15)),
}


def _random_field(grid, seed):
    # white noise excites every mode, the k = 0 and Nyquist ones included
    return VectorField(grid, leading(np.random.default_rng(seed).normal(size=grid.shape + (3,)), 1))


def _assert_close(actual, expected, rtol=RTOL):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


# ---------------------------------------------------------------------------
# full-spectrum references
# ---------------------------------------------------------------------------

def _ref_symbols(grid):
    """(*n, 3) stack of the full-spectrum derivative symbols, zero-padded in 2D."""
    sigmas = []
    for axis, (na, ha) in enumerate(zip(grid.n, grid.h)):
        k = np.arange(na)
        s = np.sin(2.0 * np.pi * k / na) / ha
        s[(2 * k) % na == 0] = 0.0
        shape = [1] * grid.dim
        shape[axis] = na
        sigmas.append(np.broadcast_to(s.reshape(shape), grid.n))
    while len(sigmas) < 3:
        sigmas.append(np.zeros(grid.n))
    return np.stack(sigmas, axis=-1)


def _ref_stiffness(grid, tensor):
    sig = _ref_symbols(grid)
    return np.einsum("ijkl,...j,...l->...ik", tensor.entries, sig, sig)


def _ref_director(rhs, tensor, alpha):
    grid = rhs.grid
    axes = tuple(range(grid.dim))
    mats = np.eye(3) + alpha * _ref_stiffness(grid, tensor)
    rhs_hat = np.fft.fftn(nodal(rhs), axes=axes)
    x_hat = np.linalg.solve(mats.astype(np.complex128), rhs_hat[..., None])[..., 0]
    return np.fft.ifftn(x_hat, axes=axes).real


def _ref_helmholtz(rhs, coeff):
    grid = rhs.grid
    axes = tuple(range(grid.dim))
    sig_sq = np.sum(_ref_symbols(grid) ** 2, axis=-1)
    rhs_hat = np.fft.fftn(nodal(rhs), axes=axes)
    return np.fft.ifftn(rhs_hat / (1.0 + coeff * sig_sq)[..., None], axes=axes).real


def _ref_projection(u):
    grid = u.grid
    axes = tuple(range(grid.dim))
    sig_sq = np.sum(_ref_symbols(grid) ** 2, axis=-1)
    rhs_hat = np.fft.fftn(g.divergence_vec(u).values, axes=axes)
    p_hat = np.zeros_like(rhs_hat)
    live = sig_sq != 0.0
    p_hat[live] = rhs_hat[live] / -sig_sq[live]
    p = np.fft.ifftn(p_hat, axes=axes).real
    p -= p.mean()
    grad_p = np.zeros(grid.shape + (3,))
    for a in range(grid.dim):
        grad_p[..., a] = g._deriv(grid, p, axis=a - grid.dim)
    return nodal(u) - grad_p, p


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_director_solve_matches_per_mode_solve(grid_name, tensor_name):
    grid, tensor = GRIDS[grid_name], TENSORS[tensor_name]
    rhs = _random_field(grid, 1)
    alpha = 3e-3
    ops = SpectralOps(grid, tensor, director_alpha=alpha)
    x = VectorField(grid, solve_director_implicit(rhs.values[None], ops)[0])
    _assert_close(nodal(x), _ref_director(rhs, tensor, alpha))


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_helmholtz_solve_matches_full_spectrum(grid_name):
    grid = GRIDS[grid_name]
    rhs = _random_field(grid, 2)
    ops = SpectralOps(grid, helmholtz_coeff=2e-3)
    x = VectorField(grid, solve_helmholtz(rhs.values[None], ops)[0])
    _assert_close(nodal(x), _ref_helmholtz(rhs, 2e-3))


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_projection_matches_full_spectrum(grid_name):
    grid = GRIDS[grid_name]
    u = _random_field(grid, 3)
    out, p = project_divfree(u, SpectralOps(grid))
    ref_out, ref_p = _ref_projection(u)
    _assert_close(nodal(out), ref_out)
    _assert_close(p.values, ref_p)


@pytest.mark.parametrize("tol", [1e-10, 0.0])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_projection_target_by_parseval_matches_real_space(grid_name, tol):
    # odd and even last axes: the half spectrum's Nyquist column exists only
    # for even n
    grid = GRIDS[grid_name]
    ops = SpectralOps(grid)
    u = _random_field(grid, 8)
    u_hat = ops.forward(u.values[None])
    div_hat = sum(sig * u_hat[:, a] for a, sig in enumerate(ops.sigmas))
    (target,) = _projection_targets(ops, u_hat, div_hat, tol)
    assert target == pytest.approx(oracles.projection_target(u, tol), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("components", [3, 4])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_backward_is_irfftn_bit_for_bit(grid_name, components):
    # both directions are the n-d transforms' own 1-D passes, in their
    # order: forward into a new array; the complex stages of backward run in
    # place on the spectrum
    grid = GRIDS[grid_name]
    ops = SpectralOps(grid)
    values = np.random.default_rng(12).normal(size=(2, components) + grid.shape)
    values_hat = ops.forward(values)
    np.testing.assert_array_equal(values_hat, np.fft.rfftn(values, axes=ops.axes))
    expected = np.fft.irfftn(values_hat, s=grid.n, axes=ops.axes)
    np.testing.assert_array_equal(ops.backward(values_hat), expected)


@pytest.mark.parametrize("pressure", [True, False])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_velocity_update_gates_the_divergence_of_its_velocity(monkeypatch, grid_name, pressure):
    # the residual is taken of the trace of the grad v it returns, which is
    # the stencil divergence of its velocity bit for bit; the pressure is
    # not part of it: transforming it, which spends the returned spectrum,
    # leaves the velocity and its grad v as they were
    grid = GRIDS[grid_name]
    ops = SpectralOps(grid, helmholtz_coeff=2e-3)
    values = np.random.default_rng(13).normal(size=(2, 3) + grid.shape)
    gated, vdot = [], np.vdot

    def spy(a, b):
        if a.dtype == np.float64:  # the targets are taken of complex spectra
            gated.append(np.array(a))
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", spy)
    v, s, grad_v = _velocity_update(ops, values, helmholtz=True)
    monkeypatch.undo()
    assert v.shape == (2, 3) + grid.shape and s.shape == (2,) + ops.half
    taken = v.tobytes(), grad_v.tobytes()
    if pressure:
        _pressure(ops, s)
    assert (v.tobytes(), grad_v.tobytes()) == taken
    np.testing.assert_array_equal(grad_v, g.gradient_components(grid, v))
    div = g.divergence_components(grid, v)
    assert len(gated) == len(div)
    for got, want in zip(gated, div):
        np.testing.assert_array_equal(got, want)
    other, _, _ = _velocity_update(ops, values, helmholtz=True)
    np.testing.assert_array_equal(other, v)


# ---------------------------------------------------------------------------
# complex multipliers against the float64 ones, bit for bit
# ---------------------------------------------------------------------------

def _real_members(grid, m, seed):
    """m members' white-noise values, (m, 3) + grid.shape.  Their spectra
    hold exactly zero imaginary parts -- on the last axis's k = 0 and Nyquist
    modes after its real transform, and on the mean mode at the end -- where
    a complex divided by a real x and the same complex times 1 / x + 0i
    could differ in the sign of a zero."""
    values = np.random.default_rng(seed).normal(size=(m, 3) + grid.shape)
    edges = [0, grid.n[-1] // 2] if grid.n[-1] % 2 == 0 else [0]
    assert not np.fft.rfft(values, axis=-1)[..., edges].imag.any()
    assert not SpectralOps(grid).forward(values)[(Ellipsis,) + (0,) * grid.dim].imag.any()
    return values


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("pressure", [True, False])
@pytest.mark.parametrize("helmholtz", [True, False])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_velocity_update_bitwise_equals_float_symbol_kernel(grid_name, helmholtz, pressure, m):
    # against the oracle's velocity alone, and against its velocity and
    # pressure stacked in one inverse transform, whose pressure the
    # returned spectrum gives when it is read
    grid = GRIDS[grid_name]
    ops = SpectralOps(grid, helmholtz_coeff=2e-3)
    values = _real_members(grid, m, 14)
    v, s, grad_v = _velocity_update(ops, values, helmholtz)
    ref_vp, ref_grad_v = oracles.FloatSymbolKernels(ops, helmholtz_coeff=2e-3).velocity_update(
        values, helmholtz, pressure)
    assert v.tobytes() == ref_vp[:, :3].tobytes()
    assert grad_v.tobytes() == ref_grad_v.tobytes()
    if pressure:
        assert _pressure(ops, s).tobytes() == ref_vp[:, 3].tobytes()


@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_director_solve_bitwise_equals_float_symbol_kernel(grid_name, tensor_name):
    # isotropic: the in-place solve; aniso and coupled: the multiply-adds
    grid, tensor = GRIDS[grid_name], TENSORS[tensor_name]
    ops = SpectralOps(grid, tensor, director_alpha=3e-3)
    ref = oracles.FloatSymbolKernels(ops, tensor, director_alpha=3e-3)
    values = _real_members(grid, 2, 15)
    assert solve_director_implicit(values, ops).tobytes() == ref.solve_director(values).tobytes()


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_helmholtz_solve_and_projection_bitwise_equal_float_symbol_kernels(grid_name):
    grid = GRIDS[grid_name]
    ops = SpectralOps(grid, helmholtz_coeff=2e-3)
    ref = oracles.FloatSymbolKernels(ops, helmholtz_coeff=2e-3)
    values = _real_members(grid, 2, 16)
    assert solve_helmholtz(values, ops).tobytes() == ref.solve_helmholtz(values).tobytes()
    # the fact the factors rest on: numpy divides a complex by a float x by
    # multiplying with 1 / x, so the spectra agree before the transform too
    u_hat = ops.forward(values)
    assert (u_hat / ref.helmholtz_denominator).tobytes() == (u_hat * ops.helmholtz_factor).tobytes()
    ref_vp, _ = ref.velocity_update(values, helmholtz=False, pressure=True)
    for i, member in enumerate(values):
        u, p = project_divfree(VectorField(grid, member), ops)
        assert u.values.tobytes() == ref_vp[i, :3].tobytes()
        assert p.values.tobytes() == ref_vp[i, 3].tobytes()


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_pressure_on_read_equals_the_stacked_transform(monkeypatch, grid_name, m, theta):
    # a step's pressure, transformed when it is read, is the fourth
    # component of one inverse transform that stacks it with the velocity,
    # divided by dt; project_divfree's is that component undivided
    grid = GRIDS[grid_name]
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, theta=theta)
    stepper = Stepper(grid, cfg, PARODI_DEMO, TENSORS["aniso"])
    rng = np.random.default_rng(17)
    members = [State.initial(VectorField(grid, leading(0.1 * rng.normal(size=grid.shape + (3,)), 1)),
                             VectorField(grid, leading((0.0, 0.0, 1.0) + 0.1 * rng.normal(size=grid.shape + (3,)), 1)))
               for _ in range(m)]
    update, taken = dynamics._velocity_update, []

    def spy(ops, values, helmholtz=False):
        taken.append((values.copy(), helmholtz))
        return update(ops, values, helmholtz)

    monkeypatch.setattr(dynamics, "_velocity_update", spy)
    e = Ensemble.of(members)
    out = stepper.step(e, stepper.terms(e))[0]
    monkeypatch.undo()
    ((values, helmholtz),) = taken
    assert helmholtz == (theta != 0.0)
    ref = oracles.FloatSymbolKernels(stepper.ops, helmholtz_coeff=theta * cfg.dt * 0.5 * PARODI_DEMO.mu4)
    ref_vp, _ = ref.velocity_update(values, helmholtz, pressure=True)
    assert out.v.tobytes() == ref_vp[:, :3].tobytes()
    assert out.p.tobytes() == (ref_vp[:, 3] / cfg.dt).tobytes()
    ref_p = ref.velocity_update(values, helmholtz=False, pressure=True)[0][:, 3]
    for member, want in zip(values, ref_p):
        _, p = project_divfree(VectorField(grid, member), stepper.ops)
        assert p.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_max_stiff_rate_matches_full_spectrum(grid_name, tensor_name):
    grid, tensor = GRIDS[grid_name], TENSORS[tensor_name]
    s_mat = _ref_stiffness(grid, tensor)
    sig_sq = np.sum(_ref_symbols(grid) ** 2, axis=-1)
    eig = np.max(np.linalg.eigvalsh(0.5 * (s_mat + np.swapaxes(s_mat, -1, -2))))
    expected = max(PARODI_DEMO.gamma * eig, 0.5 * PARODI_DEMO.mu4 * sig_sq.max())
    assert max_stiff_rate(grid, tensor, PARODI_DEMO) == pytest.approx(expected, rel=RTOL)


def _closed_form_inverse(grid, tensor, alpha):
    """(I + alpha S)^-1 by the set-up kernels, before it is stored by block."""
    matrix = tensor.stiffness(_symbols(grid)) * alpha
    for i in range(3):
        matrix[i, i] += 1.0
    return _inverse_3x3(matrix)


def _dense_inverse(ops):
    """The director inverse of ``ops`` as one real (3, 3) + half-spectrum
    array, zero in the blocks it does not hold; its blocks are real."""
    dense = np.zeros((3, 3) + ops.half)
    for i, row in enumerate(ops.director_inverse):
        for k, block in row:
            assert not block.imag.any()
            dense[i, k] = block.real
    return dense


@pytest.mark.parametrize("alpha", [3e-3, 0.1])
@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_director_inverse_in_closed_form(grid_name, tensor_name, alpha):
    grid, tensor = GRIDS[grid_name], TENSORS[tensor_name]
    ops = SpectralOps(grid, tensor, director_alpha=alpha)
    sigmas = _symbols(grid)
    stiffness = oracles.director_stiffness(sigmas, tensor)
    _assert_close(np.moveaxis(tensor.stiffness(sigmas), (0, 1), (-2, -1)), stiffness, SETUP_TOL)
    inverse = _dense_inverse(ops)
    _assert_close(inverse, oracles.director_inverse(sigmas, tensor, alpha), SETUP_TOL)
    product = np.einsum("ij...,...jk->...ik", inverse, np.eye(3) + alpha * stiffness)
    assert np.max(np.abs(product - np.eye(3))) <= SETUP_TOL
    # the blocks the director solve skips are exactly zero
    closed_form = _closed_form_inverse(grid, tensor, alpha)
    for i, row in enumerate(ops.director_inverse):
        assert all(not closed_form[i, k].any() for k in set(range(3)) - {k for k, _ in row})


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_isotropic_director_inverse_has_zero_off_diagonal_blocks(grid_name):
    ops = SpectralOps(GRIDS[grid_name], TENSORS["isotropic"], director_alpha=0.1)
    assert [[k for k, _ in row] for row in ops.director_inverse] == [[0], [1], [2]]
    # the three diagonal blocks are bitwise equal: one array
    assert len({id(block) for row in ops.director_inverse for _, block in row}) == 1
    inverse = _closed_form_inverse(ops.grid, TENSORS["isotropic"], 0.1)
    for i in range(3):
        for k in range(3):
            if k != i:
                assert np.all(inverse[i, k] == 0.0)


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_multipliers_are_complex_contiguous_and_equal_blocks_shared(grid_name):
    # every multiplier is the complex128 C-contiguous array its kernel
    # multiplies by, equal to the float64 value it stands for plus 0i; the
    # director blocks are those of the closed-form inverse, a block bitwise
    # equal to another being the same array
    grid = GRIDS[grid_name]
    ref = oracles.FloatSymbolKernels(SpectralOps(grid), helmholtz_coeff=2e-3)
    for tensor_name, tensor in sorted(TENSORS.items()):
        ops = SpectralOps(grid, tensor, director_alpha=3e-3, helmholtz_coeff=2e-3)
        blocks = [block for row in ops.director_inverse for _, block in row]
        multipliers = ops.sigmas + [ops.helmholtz_factor, ops.projection_factor] + blocks
        assert len(ops.sigmas) == grid.dim
        for x in multipliers:
            assert x.dtype == np.complex128 and x.flags.c_contiguous and x.shape == ops.half
            assert not x.imag.any()
        for sigma, want in zip(ops.sigmas, ref.sigmas):
            assert sigma.real.tobytes() == np.ascontiguousarray(want).tobytes()
        assert ops.helmholtz_factor.real.tobytes() == (1.0 / ref.helmholtz_denominator).tobytes()
        assert ops.projection_factor.real.tobytes() == (1.0 / ref.projection_denominator).tobytes()
        inverse = _closed_form_inverse(grid, tensor, 3e-3)
        distinct = {}
        for i, row in enumerate(ops.director_inverse):
            assert [k for k, _ in row] == [k for k in range(3) if inverse[i, k].any()]
            for k, block in row:
                assert block.real.tobytes() == inverse[i, k].tobytes()
                assert distinct.setdefault(block.real.tobytes(), block) is block
        if tensor_name == "isotropic":
            assert len(distinct) == 1
        elif tensor_name == "aniso" and grid.dim == 3:
            # the anisotropic inverse is bitwise symmetric
            assert len(distinct) == 6


def test_building_operators_calls_nothing_in_linalg(monkeypatch):
    class NoLinalg:
        def __getattr__(self, name):
            raise AssertionError(f"np.linalg.{name} called")

    monkeypatch.setattr(np, "linalg", NoLinalg())
    for grid in GRIDS.values():
        for tensor in TENSORS.values():
            SpectralOps(grid, tensor, director_alpha=3e-3, helmholtz_coeff=2e-3)


def test_operators_reject_a_foreign_grid_or_a_missing_tensor():
    ops = SpectralOps(Grid.unit_box(16), TENSORS["aniso"], director_alpha=1e-3)
    other = _random_field(Grid(n=(16, 16), h=(0.1, 0.1)), 4)
    with pytest.raises(ValueError):
        project_divfree(other, ops)
    with pytest.raises(ValueError):
        solve_director_implicit(_random_field(ops.grid, 4).values[None], SpectralOps(ops.grid))


def test_operators_take_a_tensor_with_a_nonzero_director_alpha_only():
    grid, tensor = GRIDS["2d-even"], TENSORS["aniso"]
    with pytest.raises(ValueError, match="tensor"):
        SpectralOps(grid, tensor)
    with pytest.raises(ValueError, match="tensor"):
        SpectralOps(grid, tensor, director_alpha=0.0, helmholtz_coeff=2e-3)
    with pytest.raises(ValueError, match="tensor"):
        SpectralOps(grid, director_alpha=3e-3)


def test_theta_zero_operators_hold_no_director_inverse():
    # at theta = 0 the director operator is the identity: nothing is built
    # for it, and a director solve on those operators is an error
    stepper = Stepper(GRIDS["2d-even"], StepperConfig(dt=1e-3, theta=0.0), PARODI_DEMO, TENSORS["aniso"])
    assert stepper.ops.director_inverse is None
    assert not hasattr(stepper.ops, "stiffness")
    with pytest.raises(ValueError, match="director_alpha = 0"):
        solve_director_implicit(_random_field(stepper.grid, 4).values[None], stepper.ops)


# ---------------------------------------------------------------------------
# the elastic operator div(L : grad d) of the stepper
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_elastic_pairing_is_adjoint(grid_name, tensor_name):
    # (grad d ; L : grad dr) = -(d, div(L : grad dr)) for d, dr white noise
    grid, tensor = GRIDS[grid_name], TENSORS[tensor_name]
    d = np.random.default_rng(12).normal(size=(2, 3) + grid.shape)
    grad, flux, lap, _ = en.director_terms(grid, tensor, d)
    pairing = float(np.vdot(grad[0], flux[1]))
    assert abs(pairing + float(np.vdot(d[0], lap[1]))) <= RTOL * abs(pairing)


def _refined(grid):
    return Grid(n=tuple(2 * n for n in grid.n), h=tuple(0.5 * h for h in grid.h))


@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_elastic_operator_is_second_order_on_a_fourier_mode(grid_name, tensor_name):
    # d = a sin(kappa . x) e_m with kappa_j = 2 pi / L_j has
    # div(L : grad d)_i = -a sum_jl L_ijml kappa_j kappa_l sin(kappa . x);
    # halving h divides the root-mean-square error by 4
    tensor, amplitude = TENSORS[tensor_name], 0.7
    for m in range(3):
        errors = []
        for grid in (GRIDS[grid_name], _refined(GRIDS[grid_name])):
            kappa = 2.0 * np.pi / np.array(grid.lengths)
            mode = np.sin(sum(k * x for k, x in zip(kappa, grid.coords())))
            d = np.zeros((1, 3) + grid.shape)
            d[0, m] = amplitude * mode
            lap = en.director_terms(grid, tensor, d)[2][0]
            symbol = np.einsum("ijl,j,l->i", tensor.entries[:, : grid.dim, m, : grid.dim], kappa, kappa)
            exact = -amplitude * symbol[:, None] * mode.reshape(1, -1)
            errors.append(np.sqrt(np.mean((lap.reshape(3, -1) - exact) ** 2)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1), (m, errors)


# ---------------------------------------------------------------------------
# object identity
# ---------------------------------------------------------------------------

def test_director_solve_does_not_reuse_a_freed_tensor():
    # Steps with k = 1 tensors, the tensors dropped, then k = 5 tensors that
    # CPython places at the freed addresses: every later step must use the
    # k = 5 operator, never matrices left over from a freed tensor.
    grid = Grid.unit_box(8)
    rng = np.random.default_rng(5)
    d = VectorField(grid, leading(np.array([0.0, 0.0, 1.0]) + 0.2 * rng.normal(size=grid.shape + (3,)), 1))
    s = State.initial(VectorField.zeros(grid), d)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, theta=0.3)
    p = PARODI_DEMO
    k5 = ElasticTensor.isotropic(5.0)
    dev = np.sum(d.values**2, axis=0) - 1.0
    explicit = (
        -(p.gamma / p.epsilon) * dev * d.values
        + (1.0 - cfg.theta) * p.gamma * oracles.laplacian_lambda(d, k5).values
    )
    expected = _ref_director(
        VectorField(grid, d.values + cfg.dt * explicit), k5, cfg.theta * cfg.dt * p.gamma
    )
    del k5

    e = Ensemble.of([s])
    soft = [ElasticTensor.isotropic(1.0) for _ in range(20)]
    for tensor in soft:
        stepper = Stepper(grid, cfg, p, tensor)
        stepper.step(e, stepper.terms(e))[0]
    del soft, tensor, stepper
    stiff = [ElasticTensor.isotropic(5.0) for _ in range(20)]
    for tensor in stiff:
        stepper = Stepper(grid, cfg, p, tensor)
        _assert_close(nodal(stepper.step(e, stepper.terms(e))[0].member(0).d), expected)


# ---------------------------------------------------------------------------
# periodic stencil
# ---------------------------------------------------------------------------

#: The grids of the stencil tests: those above, and the smallest legal axes,
#: n = 4 (where the wrap planes' slices touch every plane) and an odd n = 5,
#: with spacings whose 2h is and is not a power of two.
DERIV_GRIDS = {
    **GRIDS,
    "2d-smallest": Grid(n=(4, 5), h=(0.25, 0.3)),
    "3d-smallest": Grid(n=(5, 4, 4), h=(0.2, 0.25, 0.125)),
}


def _rolled_deriv(grid, values, axis):
    h = grid.h[axis]
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


@pytest.mark.parametrize("grid_name", sorted(DERIV_GRIDS))
def test_periodic_deriv_bitwise_equals_rolled_copies(grid_name):
    grid = DERIV_GRIDS[grid_name]
    rng = np.random.default_rng(6)
    # a scalar, a vector, the columns and a row of a tensor: spatial axis a
    # is axis a - dim
    tensor = leading(rng.normal(size=grid.shape + (3, 3)), 2)
    views = [rng.normal(size=grid.shape), leading(rng.normal(size=grid.shape + (3,)), 1)]
    views += [tensor[:, j] for j in range(3)] + [tensor[1, :]]
    for values in views:
        for axis in range(-grid.dim, 0):
            np.testing.assert_array_equal(
                g._deriv(grid, values, axis), _rolled_deriv(grid, values, axis)
            )
    # the result may go into a strided column of a gradient
    grad = rng.normal(size=(3, grid.dim) + grid.shape)
    for values in [rng.normal(size=(3,) + grid.shape)] + [grad[:, j] for j in range(grid.dim)]:
        for axis in range(-grid.dim, 0):
            expected = _rolled_deriv(grid, values, axis)
            np.testing.assert_array_equal(g._deriv(grid, values, axis), expected)
            out = np.empty((3, grid.dim) + grid.shape)[:, -1]
            g._deriv(grid, values, axis, out=out)
            np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("grid_name", sorted(DERIV_GRIDS))
def test_deriv_of_member_arrays_and_strided_views(grid_name):
    # operands whose spatial block is contiguous -- members, a stacked
    # array's first three components, the flux slices of a gradient-shaped
    # array, outputs into gradient columns -- take one subtract over
    # (rows, cells) views; the others (a reversed axis, an interleaved
    # output) the per-axis slices; all equal the rolled copies bit for bit
    grid = DERIV_GRIDS[grid_name]
    rng = np.random.default_rng(9)
    members = rng.normal(size=(2, 3) + grid.shape)
    stacked = rng.normal(size=(2, 4) + grid.shape)
    flux = rng.normal(size=(2, 3, grid.dim) + grid.shape)
    inputs = [members, stacked[:, :3], np.swapaxes(members, 0, 1)]
    inputs += [flux[:, :, j] for j in range(grid.dim)]
    for values in inputs + [members[..., ::-1]]:
        assert values[0, 0].flags.c_contiguous == any(values is x for x in inputs)
        for axis in range(-grid.dim, 0):
            expected = _rolled_deriv(grid, values, axis)
            np.testing.assert_array_equal(g._deriv(grid, values, axis), expected)
            outs = [np.empty(values.shape), np.empty(values.shape + (2,))[..., 0]]
            if values.shape == members.shape:
                outs += [np.empty(flux.shape)[:, :, j] for j in range(grid.dim)]
            for out in outs:
                g._deriv(grid, values, axis, out=out)
                np.testing.assert_array_equal(out, expected)
