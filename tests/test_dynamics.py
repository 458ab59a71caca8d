import math
import warnings

import numpy as np
import pytest

import leslie_sim.dynamics as dyn
import leslie_sim.grid as g
import oracles
from leslie_sim.dynamics import (
    Ensemble,
    ProjectionError,
    SimulationError,
    SpectralOps,
    State,
    Stepper,
    StepperConfig,
    ericksen_force,
    leslie_stress,
    max_stiff_rate,
    project_divfree,
    run,
    stable_dt_bound,
)
from leslie_sim.energetics import free_energy, variational_derivative
from leslie_sim.grid import Grid, ScalarField, TensorField, VectorField
from leslie_sim.initial import divfree_smooth_field, smooth_vector_field
from leslie_sim.material import (
    NON_PARODI_DEMO,
    PARODI_DEMO,
    InvalidParameters,
    ParameterSet,
    make_forcing,
)
from leslie_sim.tensor import ElasticTensor, outer, sym
from oracles import nodal, skw

TENSOR = ElasticTensor.isotropic(1.0)


def _random_fields(n=16, seed=0):
    grid = Grid.unit_box(n)
    rng = np.random.default_rng(seed)
    v = smooth_vector_field(grid, rng)
    d = VectorField(
        grid,
        VectorField.constant(grid, (0.0, 0.0, 1.0)).values
        + 0.3 * smooth_vector_field(grid, rng).values,
    )
    q = variational_derivative(d, TENSOR, PARODI_DEMO.epsilon)
    return grid, v, d, q


# ---------------------------------------------------------------------------
# constitutive terms
# ---------------------------------------------------------------------------

def test_leslie_stress_zero_velocity_zero_q():
    grid = Grid.unit_box(16)
    t = leslie_stress(VectorField.zeros(grid),
                      VectorField.constant(grid, (1.0, 0.0, 0.0)),
                      VectorField.zeros(grid), PARODI_DEMO)
    np.testing.assert_array_equal(t.values, 0.0)


def test_leslie_stress_zero_director_is_viscous():
    grid, v, _, _ = _random_fields()
    t = leslie_stress(v, VectorField.zeros(grid), VectorField.zeros(grid), PARODI_DEMO)
    dv = sym(nodal(g.gradient_vec(v)))
    np.testing.assert_allclose(nodal(t), PARODI_DEMO.mu4 * dv, atol=1e-15)


def test_leslie_stress_term_recomposition():
    grid, v, d, q = _random_fields(seed=3)
    p = NON_PARODI_DEMO
    dv = sym(nodal(g.gradient_vec(v)))
    d_nm, q_nm = nodal(d), nodal(q)
    dvd = np.einsum("...ij,...j->...i", dv, d_nm)
    ddvd = np.einsum("...i,...i->...", d_nm, dvd)
    expected = (
        p.mu1 * ddvd[..., None, None] * outer(d_nm, d_nm)
        + p.mu4 * dv
        - p.gamma * (p.mu2 + p.mu3) * sym(outer(d_nm, q_nm))
        - skw(outer(d_nm, q_nm))
        + ((p.mu5 + p.mu6) - p.lam * (p.mu2 + p.mu3)) * sym(outer(d_nm, dvd))
    )
    np.testing.assert_allclose(nodal(leslie_stress(v, d, q, p)), expected, rtol=1e-13)


def test_leslie_stress_skew_pairing_matches_corotation():
    # (T : grad v) must contain the co-rotation pairing +(q, (grad v)_skw d)
    grid, v, d, q = _random_fields(seed=4)
    p = ParameterSet(mu1=0.0, mu2=0.0, mu3=0.0, mu4=0.0, mu5=0.0, mu6=0.0)
    t = leslie_stress(v, d, q, p)
    grad_v = nodal(g.gradient_vec(v))
    pairing = np.sum(nodal(t) * grad_v, axis=(-1, -2))
    wd = np.einsum("...ij,...j->...i", skw(grad_v), nodal(d))
    expected = np.sum(nodal(q) * wd, axis=-1)
    np.testing.assert_allclose(pairing, expected, atol=1e-12)


def test_ericksen_force_trivial():
    grid, v, d, q = _random_fields(seed=5)
    const = VectorField.constant(grid, (0.3, -0.2, 0.9))
    np.testing.assert_array_equal(ericksen_force(const, q).values, 0.0)
    np.testing.assert_array_equal(ericksen_force(d, VectorField.zeros(grid)).values, 0.0)


def test_ericksen_force_transport_pairing():
    # pointwise: force . v = q . (v . grad) d, the identity that moves elastic
    # energy between the kinetic and director channels without loss
    grid, v, d, q = _random_fields(seed=6)
    force = ericksen_force(d, q)
    lhs = np.sum(force.values * v.values, axis=0)
    rhs = np.sum(q.values * g.advect(v, d).values, axis=0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_ericksen_force_matches_stress_divergence_at_order_two():
    # continuum identity: div(-(grad d)^T grad d) = (grad d)^T q + gradient
    # terms that the projection removes; the discrete chain-rule defect is
    # second order in h
    residuals = []
    for n in (16, 32, 64):
        grid = Grid.unit_box(n)
        x, y = grid.coords()
        values = np.zeros((3,) + grid.shape)
        values[2] = 1.0
        values[0] = 0.3 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
        values[1] = 0.2 * np.cos(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
        d = VectorField(grid, values)
        q = variational_derivative(d, TENSOR, 0.1)
        grad = g.gradient_vec(d).values
        stress = TensorField(grid, -np.einsum("ia...,ib...->ab...", grad, grad))
        lhs, _ = project_divfree(ericksen_force(d, q))
        rhs, _ = project_divfree(g.divergence_tensor(stress))
        residuals.append(math.sqrt(oracles.l2_norm_sq(VectorField(grid, lhs.values - rhs.values))))
    assert residuals[0] / residuals[1] > 3.0
    assert residuals[1] / residuals[2] > 3.0


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_projection_leaves_divfree_untouched():
    grid = Grid.unit_box(32)
    rng = np.random.default_rng(20)
    u = divfree_smooth_field(grid, rng)
    out, p = project_divfree(u)
    np.testing.assert_allclose(out.values, u.values, atol=1e-12)
    assert math.sqrt(oracles.l2_norm_sq(p)) < 1e-12


def test_projection_kills_pure_gradient():
    grid = Grid.unit_box(32)
    x, y = grid.coords()
    phi = np.sin(2.0 * np.pi * x) * np.cos(4.0 * np.pi * y)
    grad = np.zeros((3,) + grid.shape)
    grad[0] = g._deriv(grid, phi, axis=-2)
    grad[1] = g._deriv(grid, phi, axis=-1)
    out, _ = project_divfree(VectorField(grid, grad))
    assert math.sqrt(oracles.l2_norm_sq(out)) < 1e-12


def test_projection_idempotent():
    grid = Grid.unit_box(32)
    rng = np.random.default_rng(21)
    u = smooth_vector_field(grid, rng)
    once, _ = project_divfree(u)
    twice, _ = project_divfree(once)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-12)
    assert math.sqrt(oracles.l2_norm_sq(g.divergence_vec(once))) < 1e-11


def test_projection_gate_fires_and_names_the_member():
    # an inexact pressure solve leaves a divergence far above the target
    grid = Grid.unit_box(16)
    ops = SpectralOps(grid)
    ops.projection_factor *= 1.0 / 1.01
    u = smooth_vector_field(grid, np.random.default_rng(22))
    with pytest.raises(ProjectionError, match="exceeds target"):
        project_divfree(u, ops)

    # in the step, after a member at rest, which has nothing to project
    still = State.initial(VectorField.zeros(grid), VectorField.constant(grid, (0.0, 0.0, 1.0)))
    _, v, d, _ = _random_fields(seed=23)
    moving = State.initial(v, d)
    stepper = Stepper(grid, StepperConfig(dt=1e-3, t_end=1e-3), NON_PARODI_DEMO, TENSOR)
    pair, lone_moving = Ensemble.of([still, moving]), Ensemble.of([moving])
    stepper.step(pair, stepper.terms(pair))[0]
    stepper.ops.projection_factor *= 1.0 / 1.01
    with pytest.raises(ProjectionError, match="exceeds target") as lone:
        stepper.step(lone_moving, stepper.terms(lone_moving))[0]
    assert "member" not in str(lone.value)
    with pytest.raises(ProjectionError, match="of member 1 exceeds"):
        stepper.step(pair, stepper.terms(pair))[0]


@pytest.mark.parametrize("grid", [Grid.unit_box(16), Grid(n=(6, 5, 4), h=(0.2, 0.3, 0.25))], ids=["2d", "3d"])
def test_projection_gates_on_the_divergence_without_a_gradient(monkeypatch, grid):
    # project_divfree and the initial velocity take the stencil divergence
    # of their velocity, not its whole grad v: the gated divergence is the
    # trace of the step's grad v bit for bit, and so is the velocity
    u = smooth_vector_field(grid, np.random.default_rng(24))
    ops = SpectralOps(grid)
    gated, vdot = [], np.vdot

    def spy(a, b):
        if a.dtype == np.float64:  # the targets are taken of complex spectra
            gated.append(a.tobytes())
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", spy)
    expected = dyn._velocity_update(ops, u.values[None])[0][0]
    from_grad_v = gated[:]
    gated.clear()
    calls, gradient = [], g.gradient_components
    monkeypatch.setattr(g, "gradient_components", lambda *args: calls.append(None) or gradient(*args))
    out, _ = project_divfree(u, ops)
    assert gated == from_grad_v and out.values.tobytes() == expected.tobytes()
    divfree_smooth_field(grid, np.random.default_rng(25))
    assert calls == []


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_stationary_state_is_fixed_point():
    grid = Grid.unit_box(16)
    s = State.initial(VectorField.zeros(grid),
                      VectorField.constant(grid, (0.0, 0.0, 1.0)))
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    stepper, e = Stepper(grid, cfg, PARODI_DEMO, TENSOR), Ensemble.of([s])
    out = stepper.step(e, stepper.terms(e))[0].member(0)
    assert np.max(np.abs(out.v.values)) <= 1e-14
    assert np.max(np.abs(out.d.values - s.d.values)) <= 1e-14
    assert out.t == pytest.approx(1e-3)


def test_run_zero_horizon_returns_initial():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(22)
    s = State.initial(divfree_smooth_field(grid, rng),
                      VectorField.constant(grid, (0.0, 0.0, 1.0)))
    traj = run(s, StepperConfig(dt=1e-3, t_end=0.0), PARODI_DEMO, TENSOR)
    assert len(traj.states) == 1
    np.testing.assert_array_equal(traj.states[0].v.values, s.v.values)


def test_run_stationary_trajectory_constant():
    grid = Grid.unit_box(16)
    s = State.initial(VectorField.zeros(grid),
                      VectorField.constant(grid, (1.0, 0.0, 0.0)))
    traj = run(s, StepperConfig(dt=1e-3, t_end=0.01), PARODI_DEMO, TENSOR)
    for state in traj.states:
        assert np.max(np.abs(state.v.values)) <= 1e-13
        assert np.max(np.abs(state.d.values - s.d.values)) <= 1e-13
    np.testing.assert_allclose(traj.trace.total, 0.0, atol=1e-12)


def test_divergence_stays_small_along_run():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(23)
    s = State.initial(
        divfree_smooth_field(grid, rng),
        VectorField(grid, VectorField.constant(grid, (0.0, 0.0, 1.0)).values
                    + 0.1 * smooth_vector_field(grid, rng).values))
    traj = run(s, StepperConfig(dt=5e-4, t_end=0.02), PARODI_DEMO, TENSOR)
    for state in traj.states:
        div = math.sqrt(oracles.l2_norm_sq(g.divergence_vec(state.v)))
        assert div <= 1e-10 * (1.0 + math.sqrt(oracles.l2_norm_sq(state.v)))


def test_total_energy_nonincreasing_short_run():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(24)
    s = State.initial(
        divfree_smooth_field(grid, rng),
        VectorField(grid, VectorField.constant(grid, (0.0, 0.0, 1.0)).values
                    + 0.2 * smooth_vector_field(grid, rng).values))
    traj = run(s, StepperConfig(dt=5e-4, t_end=0.05), PARODI_DEMO, TENSOR)
    e = traj.step_total_energy
    assert np.all(np.diff(e) <= 1e-10 * e[0])


def test_halving_dt_first_order():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(25)
    v0 = divfree_smooth_field(grid, rng)
    d0 = VectorField(grid, VectorField.constant(grid, (0.0, 0.0, 1.0)).values
                     + 0.2 * smooth_vector_field(grid, rng).values)

    def final(dt):
        traj = run(State.initial(v0, d0), StepperConfig(dt=dt, t_end=0.02, output_every=1000),
                   PARODI_DEMO, TENSOR)
        return traj.states[-1]

    ref = final(2.5e-4)
    errs = []
    for dt in (2e-3, 1e-3):
        s = final(dt)
        errs.append(math.sqrt(
            oracles.l2_norm_sq(VectorField(grid, s.v.values - ref.v.values))
            + oracles.l2_norm_sq(VectorField(grid, s.d.values - ref.d.values))))
    ratio = errs[0] / errs[1]
    assert 1.5 < ratio < 3.0


def test_corotational_transport_preserves_director_length():
    # lambda = 0, gamma = 0, mu1 = 0: the director is only transported and
    # co-rotated, which preserves |d| pointwise up to discretization error
    grid = Grid.unit_box(32)
    rng = np.random.default_rng(26)
    v0 = divfree_smooth_field(grid, rng)
    x, y = grid.coords()
    phi = 2.0 * np.pi * (x + y)
    values = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
    d0 = VectorField(grid, values)
    p = ParameterSet(lam=0.0, gamma=0.0, mu1=0.0)
    traj = run(State.initial(v0, d0), StepperConfig(dt=1e-3, t_end=0.05, output_every=1000),
               p, TENSOR, allow_invalid=True)
    norms = np.sqrt(np.sum(traj.states[-1].d.values ** 2, axis=0))
    assert np.max(np.abs(norms - 1.0)) < 0.02


def test_cfl_warning():
    grid = Grid.unit_box(16)
    s = State.initial(VectorField.constant(grid, (4.0, 0.0, 0.0)),
                      VectorField.constant(grid, (0.0, 0.0, 1.0)))
    stepper = Stepper(grid, StepperConfig(dt=0.02, t_end=0.02), PARODI_DEMO, TENSOR)
    e = Ensemble.of([s])
    with pytest.warns(RuntimeWarning):
        stepper.step(e, stepper.terms(e))[0]


def test_cfl_ignores_the_component_along_the_absent_axis():
    # on a 2D grid v_z advects nothing: dt |v_z| / h = 1.6, but the CFL
    # number is 0, and the run stays finite with non-increasing energy
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(28)
    v = VectorField(grid, VectorField.constant(grid, (0.0, 0.0, 100.0)).values
                    + 0.1 * divfree_smooth_field(grid, rng).values)
    d = VectorField(grid, VectorField.constant(grid, (0.0, 0.0, 1.0)).values
                    + 0.1 * smooth_vector_field(grid, rng).values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = run(State.initial(v, d), StepperConfig(dt=1e-3, t_end=0.02), PARODI_DEMO, TENSOR)
    assert np.all(np.isfinite(traj.states[-1].v.values))
    assert np.all(np.diff(traj.step_total_energy) <= 1e-12 * traj.step_total_energy[0])


@pytest.mark.parametrize("v_y, cfl", [(4.0, None), (16.0, "0.64")])
def test_cfl_number_is_taken_per_axis(v_y, cfl):
    # h = (1/16, 1/4): v_y = 4 moves 0.16 of a cell along y per step, and
    # 4 * dt / h_x = 0.64 does not count
    grid = Grid(n=(16, 16), h=(1.0 / 16, 0.25))
    s = State.initial(VectorField.constant(grid, (0.0, v_y, 0.0)),
                      VectorField.constant(grid, (0.0, 0.0, 1.0)))
    stepper = Stepper(grid, StepperConfig(dt=1e-2, t_end=1e-2), PARODI_DEMO, TENSOR)
    e = Ensemble.of([s])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stepper.step(e, stepper.terms(e))[0]
    messages = [str(w.message) for w in caught]
    assert messages == ([] if cfl is None else [f"advective CFL number {cfl} exceeds 0.5"])


def test_stepper_rejects_forcing_on_another_grid():
    grid = Grid.unit_box(16)
    forcing = make_forcing("constant:1,0,0", Grid.unit_box(8))
    with pytest.raises(ValueError, match="different grids"):
        Stepper(grid, StepperConfig(), PARODI_DEMO, TENSOR, forcing=forcing)


def test_invalid_parameters_rejected():
    grid = Grid.unit_box(16)
    with pytest.raises(InvalidParameters):
        Stepper(grid, StepperConfig(), ParameterSet(mu1=-1.0), TENSOR)


def test_blowup_raises_simulation_error():
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(27)
    d0 = VectorField(grid, VectorField.constant(grid, (0.0, 0.0, 1.0)).values
                     + 2.0 * smooth_vector_field(grid, rng).values)
    cfg = StepperConfig(dt=0.4, t_end=40.0, output_every=100)
    with pytest.raises(SimulationError) as exc_info:
        run(State.initial(VectorField.zeros(grid), d0), cfg, PARODI_DEMO, TENSOR)
    last = exc_info.value.last_state
    assert last is not None
    assert np.all(np.isfinite(last.d.values))


@pytest.mark.xfail(strict=True, reason=(
    "checkerboard null modes of the collocated central stencil: the first "
    "difference of a (-1)^i mode is zero, so a grid-scale shear v_y = 0.1 (-1)^i "
    "has Dv = 0 and keeps its kinetic energy 5e-3 (no viscous dissipation), and "
    "a (-1)^(i+j) director tilt has zero elastic energy; fixing it needs a "
    "compact Laplacian or a staggered stencil"))
def test_checkerboard_modes_are_dissipated_and_cost_elastic_energy():
    grid = Grid.unit_box(32)
    i, j = np.indices(grid.shape)
    v = np.zeros((3,) + grid.shape)
    v[1] = 0.1 * (-1.0) ** i
    e3 = VectorField.constant(grid, (0.0, 0.0, 1.0))
    cfg = StepperConfig(dt=5e-4, t_end=0.05, output_every=100)
    trace = run(State.initial(VectorField(grid, v), e3), cfg, PARODI_DEMO, TENSOR).trace
    tilt = e3.values.copy()
    tilt[0] = 0.1 * (-1.0) ** (i + j)
    elastic = free_energy(VectorField(grid, tilt), TENSOR, PARODI_DEMO.epsilon).elastic
    assert trace.kinetic[0] == pytest.approx(5e-3, rel=1e-12)
    assert trace.diss_mu4[0] > 0.0
    assert trace.kinetic[-1] < 0.99 * trace.kinetic[0]
    assert elastic > 0.0


def test_gradient_flow_free_energy_decreases():
    # v = 0 throughout: mu4 large so any generated velocity dies immediately
    grid = Grid.unit_box(16)
    rng = np.random.default_rng(28)
    d0 = VectorField(grid, VectorField.constant(grid, (0.0, 0.0, 1.0)).values
                     + 0.3 * smooth_vector_field(grid, rng).values)
    traj = run(State.initial(VectorField.zeros(grid), d0),
               StepperConfig(dt=5e-4, t_end=0.05), PARODI_DEMO, TENSOR)
    fe = traj.trace.elastic + traj.trace.penalty
    assert np.all(np.diff(fe) <= 1e-10 * (traj.trace.total[0] + 1.0))


# ---------------------------------------------------------------------------
# stability bound and configuration
# ---------------------------------------------------------------------------

def test_stable_dt_bound_structure():
    grid = Grid.unit_box(32)
    p = PARODI_DEMO
    kappa = max_stiff_rate(grid, TENSOR, p)
    assert kappa > 0.0
    bound = stable_dt_bound(grid, TENSOR, p, theta=0.3)
    assert bound == pytest.approx(
        min(2.0 / ((1.0 - 0.6) * kappa), p.epsilon / (4.0 * p.gamma)), rel=1e-14)
    # theta >= 1/2 would remove the stiff restriction, but is excluded by config
    assert stable_dt_bound(grid, TENSOR, p, theta=0.49) >= bound


@pytest.mark.parametrize("field", ["dt", "t_end"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_stepper_config_rejects_nonfinite_times(field, value):
    with pytest.raises(ValueError, match="finite"):
        StepperConfig(**{field: value})


def test_step_count_is_whole_or_an_error():
    assert StepperConfig(dt=1e-3, t_end=0.01).steps(0.0) == 10
    assert StepperConfig(dt=1e-3, t_end=0.01).steps(0.01) == 0
    assert StepperConfig(dt=1e-3, t_end=0.3).steps(0.1) == 200  # 0.3 - 0.1 is not 0.2 exactly
    for t_end, t0 in ((0.0105, 0.0), (4e-4, 0.0), (0.0, 2e-3)):
        with pytest.raises(ValueError, match="whole number of steps"):
            StepperConfig(dt=1e-3, t_end=t_end).steps(t0)
    # a run stops neither early nor at once: it refuses the horizon
    grid = Grid.unit_box(8)
    s = State.initial(VectorField.zeros(grid), VectorField.constant(grid, (0.0, 0.0, 1.0)))
    for t_end in (0.0105, 4e-4):
        with pytest.raises(ValueError, match="whole number of steps"):
            run(s, StepperConfig(dt=1e-3, t_end=t_end), PARODI_DEMO, TENSOR)


def test_sample_schedule_is_step_0_every_output_every_th_and_the_last():
    assert StepperConfig(dt=1e-3, t_end=0.01, output_every=4).samples(0.0) == [0, 4, 8, 10]
    assert StepperConfig(dt=1e-3, t_end=0.012, output_every=4).samples(0.0) == [0, 4, 8, 12]
    assert StepperConfig(dt=1e-3, t_end=0.01, output_every=20).samples(0.0) == [0, 10]
    assert StepperConfig(dt=1e-3, t_end=0.01).samples(0.01) == [0]
    # a run samples exactly those steps, from its initial time
    grid = Grid.unit_box(8)
    s = State.initial(VectorField.zeros(grid), VectorField.constant(grid, (0.0, 0.0, 1.0)), t=2e-3)
    cfg = StepperConfig(dt=1e-3, t_end=9e-3, output_every=3)
    traj = run(s, cfg, PARODI_DEMO, TENSOR)
    assert cfg.samples(s.t) == [0, 3, 6, 7] and len(traj.states) == 4
    np.testing.assert_array_equal(traj.trace.t, traj.step_times[cfg.samples(s.t)])


@pytest.mark.parametrize("output_every", [2.5, 0.5, math.inf, math.nan])
def test_stepper_config_rejects_a_fractional_output_every(output_every):
    # refused when the config is made, not by a TypeError inside the run
    with pytest.raises(ValueError, match="output_every must be >= 1 and whole"):
        StepperConfig(output_every=output_every)


def test_stepper_config_takes_an_integral_float_output_every_as_its_int():
    cfg = StepperConfig(dt=1e-3, t_end=4e-3, output_every=2.0)
    assert type(cfg.output_every) is int and cfg == StepperConfig(dt=1e-3, t_end=4e-3, output_every=2)
    grid = Grid.unit_box(8)
    s = State.initial(VectorField.zeros(grid), VectorField.constant(grid, (0.0, 0.0, 1.0)))
    assert len(run(s, cfg, PARODI_DEMO, TENSOR).states) == 3


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0)
    with pytest.raises(ValueError):
        StepperConfig(theta=0.5)
    with pytest.raises(ValueError):
        StepperConfig(output_every=0)
    # the one-valued scheme option is gone, not silently accepted
    with pytest.raises(TypeError):
        StepperConfig(scheme="semi_implicit_theta")
