"""The once-per-step dataflow of ``Stepper.step`` against the formulas it
replaced, the director terms that ``run`` carries from step to step, and the
public energy functions against the node-major formulas of ``oracles``.

``_ref_step`` keeps the earlier step verbatim: it differentiates each field
wherever a term needs it, takes q_half from the Laplacian of the midpoint
director, and takes the divergences of the Leslie stress and of v x v and
the wide Laplacian of v separately.  The stepper under test computes each
derivative once and sums the explicit momentum flux before one divergence,
so the two agree to rounding, not bit for bit.  The stepper computes on
component-major arrays and keeps only the grid's dim gradient columns; the
"coupled" tensor has entries on the absent axis of a 2D grid, which that
restriction drops.

An ensemble steps its members together on a leading member axis; each
member must equal its lone run bit for bit.
"""

from dataclasses import fields

import numpy as np
import pytest

import leslie_sim.energetics as en
import leslie_sim.grid as g
import oracles
from leslie_sim.dynamics import (
    SimulationError,
    State,
    Ensemble,
    SpectralOps,
    Stepper,
    StepperConfig,
    _stress_column,
    _stress_factors,
    ericksen_force,
    leslie_stress,
    project_divfree,
    run,
    solve_director_implicit,
    solve_helmholtz,
)
from leslie_sim.energetics import (
    director_strain,
    dissipation_channels,
    free_energy,
    gronwall_K,
    relative_dissipation,
    relative_energy,
    variational_derivative,
)
from leslie_sim.experiments import energy_monitor, weak_strong_campaign, weak_strong_experiment
from leslie_sim.grid import Grid, ScalarField, TensorField, VectorField
from leslie_sim.initial import divfree_smooth_field, smooth_vector_field
from leslie_sim.material import NON_PARODI_DEMO, PARODI_DEMO, make_forcing
from leslie_sim.snapshot import read_snapshot, write_snapshot
from leslie_sim.tensor import ElasticTensor

#: Relative tolerance of one step against the reference, fixed from float64
#: rounding before the comparisons ran.
RTOL = 1e-12

_EYE = np.eye(3)
#: The benchmark's anisotropic tensor L = d_ik d_jl + 0.5 d_ij d_kl + 0.25 d_il d_jk.
ANISO = ElasticTensor(
    entries=np.einsum("ik,jl->ijkl", _EYE, _EYE)
    + 0.5 * np.einsum("ij,kl->ijkl", _EYE, _EYE)
    + 0.25 * np.einsum("il,jk->ijkl", _EYE, _EYE),
    eta=1.0,
)


def _coupled_tensor(seed=7):
    """A random tensor with major symmetry that is positive definite as a
    9 x 9 matrix, hence strongly elliptic, with generic nonzero entries
    L_i2kl and L_ijk2 on the axis a 2D grid lacks."""
    r = np.random.default_rng(seed).normal(size=(9, 9))
    m = np.eye(9) + 0.1 * (r @ r.T)
    return ElasticTensor.from_entries(0.5 * (m + m.T))


COUPLED = _coupled_tensor()
TENSORS = {"isotropic": ElasticTensor.isotropic(1.0), "aniso": ANISO, "coupled": COUPLED}
GRIDS = {"2d": Grid.unit_box(16), "3d": Grid.unit_box(8, dim=3)}


def _state(grid, seed, amplitude=0.3):
    rng = np.random.default_rng(seed)
    v = divfree_smooth_field(grid, rng)
    d = VectorField(
        grid,
        VectorField.constant(grid, (0.0, 0.0, 1.0)).values
        + amplitude * smooth_vector_field(grid, rng).values,
    )
    return State.initial(v, d)


# ---------------------------------------------------------------------------
# the step as it was before the once-per-step dataflow
# ---------------------------------------------------------------------------

def _ref_wide_laplacian(grid, values):
    out = np.zeros_like(values)
    for a in range(grid.dim):
        out += g._deriv(grid, g._deriv(grid, values, axis=a - grid.dim), axis=a - grid.dim)
    return out


def _sym(m):
    """(M + M^T)/2 over the leading (i, j) axes of component-major M."""
    return 0.5 * (m + m.swapaxes(0, 1))


def _ref_step(stepper, s):
    grid, cfg, p, tensor = stepper.grid, stepper.cfg, stepper.p, stepper.tensor
    dt, theta = cfg.dt, cfg.theta
    v, d = s.v, s.d

    grad_v = g.gradient_vec(v).values
    wv, dv = 0.5 * (grad_v - grad_v.swapaxes(0, 1)), _sym(grad_v)
    dev = np.sum(d.values**2, axis=0) - 1.0
    explicit = (
        -g.advect(v, d).values
        + np.einsum("ij...,j...->i...", wv, d.values)
        - p.lam * np.einsum("ij...,j...->i...", dv, d.values)
        - (p.gamma / p.epsilon) * dev * d.values
        + (1.0 - theta) * p.gamma * oracles.laplacian_lambda(d, tensor).values
    )
    d_new = VectorField(grid, d.values + dt * explicit)
    if theta > 0.0:  # at theta = 0 the director operator is the identity
        d_new = VectorField(grid, solve_director_implicit(d_new.values[None], stepper.ops)[0])

    d_mid = VectorField(grid, 0.5 * (d_new.values + d.values))
    s_mid = 0.5 * (np.sum(d_new.values**2, axis=0) + np.sum(d.values**2, axis=0)) - 1.0
    q_half = VectorField(
        grid,
        -oracles.laplacian_lambda(d_mid, tensor).values + (s_mid / p.epsilon) * d_mid.values,
    )

    stress_expl = TensorField(grid, oracles.leslie_stress(v, d, q_half, p) - p.mu4 * dv)
    adv = 0.5 * (
        g.advect(v, v).values
        + g.divergence_tensor(TensorField(grid, np.einsum("i...,j...->ij...", v.values, v.values))).values
    )
    rhs_values = v.values + dt * (
        -adv
        + g.divergence_tensor(stress_expl).values
        + ericksen_force(d, q_half).values
        + (1.0 - theta) * 0.5 * p.mu4 * _ref_wide_laplacian(grid, v.values)
    )
    if stepper.forcing is not None:
        rhs_values = rhs_values + dt * stepper.forcing.values
    v_star = VectorField(grid, solve_helmholtz(rhs_values[None], stepper.ops)[0])
    v_new, p_mult = project_divfree(v_star, stepper.ops)
    return State(t=s.t + dt, v=v_new, d=d_new, p=ScalarField(grid, p_mult.values / dt))


def _assert_close(actual, expected, rtol=RTOL):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


# ---------------------------------------------------------------------------
# one step against the reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("forcing", [None, "sinusoidal:0.5"])
@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_step_matches_reference(grid_name, tensor_name, theta, forcing):
    grid = GRIDS[grid_name]
    params = NON_PARODI_DEMO if theta > 0.0 else PARODI_DEMO
    stepper = Stepper(
        grid,
        StepperConfig(dt=1e-3, t_end=1e-3, theta=theta),
        params,
        TENSORS[tensor_name],
        forcing=None if forcing is None else make_forcing(forcing, grid),
    )
    s = _state(grid, seed=len(grid_name) + 10 * len(tensor_name))
    e = Ensemble.of([s])
    out = stepper.step(e, stepper.terms(e))[0].member(0)
    ref = _ref_step(stepper, s)
    assert out.t == ref.t
    _assert_close(out.v.values, ref.v.values)
    _assert_close(out.d.values, ref.d.values)
    _assert_close(out.p.values, ref.p.values)
    # the step moved every field, so the comparison is not of two copies of s
    assert np.max(np.abs(out.d.values - s.d.values)) > 1e-6
    assert np.max(np.abs(out.v.values - s.v.values)) > 1e-6


def test_coupled_tensor_couples_the_absent_axis():
    entries = COUPLED.entries
    assert COUPLED.eta > 0.0
    np.testing.assert_array_equal(entries, entries.transpose(2, 3, 0, 1))
    assert np.min(np.abs(entries[:, 2])) > 1e-4  # L_i2kl
    assert np.min(np.abs(entries[:, :, :, 2])) > 1e-4  # L_ijk2
    # the 2D contraction is L_ijkl over j, l < 2 only
    np.testing.assert_array_equal(
        COUPLED.contraction(2).reshape(3, 2, 3, 2), entries[:, :2, :, :2]
    )


# ---------------------------------------------------------------------------
# the step's kernels against the plain formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_stress_kernels_match_the_formula(grid_name, tensor_name):
    grid, p = GRIDS[grid_name], NON_PARODI_DEMO
    s = _state(grid, seed=63, amplitude=0.5)
    # |d| != 1, so the mu1 channel and the penalty part of q are not degenerate
    assert np.max(np.abs(np.linalg.norm(s.d.values, axis=0) - 1.0)) > 0.1
    q = variational_derivative(s.d, TENSORS[tensor_name], p.epsilon)
    expected = oracles.leslie_stress(s.v, s.d, q, p)
    _assert_close(leslie_stress(s.v, s.d, q, p).values, expected, rtol=1e-13)

    # the step's column kernel: T - mu4 Dv column by column on members
    d = s.d.values[None]
    _, dvd, ddvd = director_strain(g.gradient_components(grid, s.v.values[None]), d)
    alpha, w = _stress_factors(d, q.values[None], dvd, p.mu1 * ddvd, p)
    cols = np.empty((3, 3) + grid.shape)
    for j in range(3):
        _stress_column(cols[:, j][None], j, d, alpha, w, np.empty_like(d))
    viscous = p.mu4 * _sym(g.gradient_vec(s.v).values)
    _assert_close(cols, expected - viscous, rtol=1e-13)


@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_sparse_elastic_flux_equals_the_dense_product(grid_name, tensor_name):
    grid, tensor = GRIDS[grid_name], TENSORS[tensor_name]
    dense = tensor.contraction(grid.dim)
    sparse = tensor.rows[grid.dim]
    assert sum(len(row) for row in sparse) == np.count_nonzero(dense)
    grad = np.random.default_rng(64).normal(size=(2, 3, grid.dim) + grid.shape)
    np.testing.assert_array_equal(tensor.flux(grad, grid.dim),
                                  oracles.elastic_flux(dense, grad))


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_scalar_elastic_flux_is_one_multiply(monkeypatch, grid_name):
    # an isotropic contraction c I scales the whole gradient at once, and
    # at c = 1 the flux is the gradient itself; a diagonal one with unequal
    # entries takes the rows; all equal the dense product bit for bit
    grid = GRIDS[grid_name]
    grad = np.random.default_rng(65).normal(size=(2, 3, grid.dim) + grid.shape)
    scale = np.arange(1.0, 10.0).reshape(3, 3)
    diagonal = ElasticTensor(entries=np.einsum("ik,jl->ijkl", _EYE, _EYE) * scale[:, :, None, None], eta=1.0)
    calls = []
    multiply = np.multiply
    monkeypatch.setattr(np, "multiply", lambda *a, **k: calls.append(1) or multiply(*a, **k))
    for tensor, rows in ((ElasticTensor.isotropic(1.7), 0), (diagonal, 3 * grid.dim)):
        calls.clear()
        flux = tensor.flux(grad, grid.dim)
        assert len(calls) == rows
        np.testing.assert_array_equal(flux, oracles.elastic_flux(tensor.contraction(grid.dim), grad))
        assert flux is not grad
    identity = ElasticTensor.isotropic(1.0)
    calls.clear()
    assert identity.flux(grad, grid.dim) is grad
    assert not calls


def test_scalar_flux_is_decided_per_dimension():
    # L = delta_ik delta_jl + 2 delta_ik delta_j2 delta_l2 (axis 2 the third)
    # restricts to the identity in 2D but not in 3D: a scalar case taken
    # once for both dimensions would scale the 3D gradient or take the 2D rows
    entries = np.einsum("ik,jl->ijkl", _EYE, _EYE)
    entries[:, 2, :, 2] += 2.0 * _EYE
    tensor = ElasticTensor.from_entries(entries.ravel())
    assert tensor.eta > 0.0
    rng = np.random.default_rng(66)
    grad = rng.normal(size=(2, 3, 2, 4, 5))
    assert tensor.flux(grad, 2) is grad
    grad = rng.normal(size=(2, 3, 3, 4, 5, 3))
    flux = tensor.flux(grad, 3)
    assert flux is not grad
    np.testing.assert_array_equal(flux, oracles.elastic_flux(tensor.contraction(3), grad))
    assert not np.array_equal(flux, grad)


# ---------------------------------------------------------------------------
# energies and diagnostics read from the carried terms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
def test_step_energy_and_trace_match_recomputed(tensor_name):
    grid, tensor, p = GRIDS["2d"], TENSORS[tensor_name], NON_PARODI_DEMO
    forcing = make_forcing("sinusoidal:0.5", grid)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, theta=0.3, output_every=1)
    traj = Stepper(grid, cfg, p, tensor, forcing=forcing).run_ensemble([_state(grid, seed=3)])[0]
    assert len(traj.states) == 21

    for k, s in enumerate(traj.states):
        fe = oracles.free_energy(s.d, tensor, p.epsilon)
        kinetic = 0.5 * oracles.l2_norm_sq(s.v)
        expected_total = kinetic + fe.elastic + fe.penalty
        assert traj.step_times[k] == s.t
        assert traj.step_total_energy[k] == pytest.approx(expected_total, rel=1e-13, abs=0.0)

        q = oracles.variational_derivative(s.d, tensor, p.epsilon)
        dv, dvd, ddvd = oracles.dissipation_channels(s.v, s.d, q)
        cellvol = grid.cell_volume
        row = {
            "t": s.t,
            "kinetic": kinetic,
            "elastic": fe.elastic,
            "penalty": fe.penalty,
            "total": expected_total,
            "diss_mu1": p.mu1 * float(np.sum(ddvd**2)) * cellvol,
            "diss_mu4": p.mu4 * float(np.sum(dv**2)) * cellvol,
            "diss_dir": p.directional_coeff * float(np.sum(dvd**2)) * cellvol,
            "diss_q": p.gamma * oracles.l2_norm_sq(q),
            "cross_term": p.cross_coeff * float(np.sum(q.values * dvd)) * cellvol,
            "g_power": float(np.sum(forcing.values * s.v.values)) * cellvol,
        }
        for name, value in row.items():
            assert getattr(traj.trace, name)[k] == pytest.approx(value, rel=1e-13, abs=0.0), name


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("params", ["parodi", "non_parodi"])
def test_trace_rows_equal_the_channel_array_composition(params, m, forced):
    # each row is one pass over the record; the rows and the relative
    # dissipations equal, bit for bit, their composition from one (5, m)
    # channel array, transposed and listed
    grid = GRIDS["2d"]
    p = {"parodi": PARODI_DEMO, "non_parodi": NON_PARODI_DEMO}[params]
    forcing = make_forcing("sinusoidal:5", grid) if forced else None
    stepper = Stepper(grid, StepperConfig(dt=1e-3, t_end=6e-3), p, ANISO, forcing)
    e = Ensemble.of([_state(grid, seed=68 + i, amplitude=0.3 + 0.2 * i) for i in range(m)])
    out, terms = stepper.step(e, stepper.terms(e))
    rows = stepper._diagnostics(out, terms)
    want = oracles.trace_rows(stepper, out, terms)
    assert len(rows) == len(want) == m
    assert np.array(rows).tobytes() == np.array(want).tobytes()
    assert any(row[-2] != 0.0 for row in rows) == (params == "non_parodi")
    assert any(row[-1] != 0.0 for row in rows) == forced
    q = en.variational_q(out.d, terms.dev, terms.lap, p.epsilon)
    got = en.relative_dissipations(grid, p, terms.grad_v, q, *terms.strain[1:])
    want = oracles.relative_dissipations(grid, p, terms.grad_v, q, *terms.strain[1:])
    assert np.array(got).shape == (3, m - 1)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("grid_name, tensor_name", [("2d", "isotropic"), ("3d", "aniso")])
def test_free_energy_equals_trace_rows_bit_for_bit(grid_name, tensor_name):
    # the stepper and free_energy call one kernel on the same contiguous values
    grid, tensor, p = GRIDS[grid_name], TENSORS[tensor_name], NON_PARODI_DEMO
    cfg = StepperConfig(dt=1e-3, t_end=0.01, output_every=1)
    traj = Stepper(grid, cfg, p, tensor).run_ensemble([_state(grid, seed=4)])[0]
    assert len(traj.states) == 11
    for k, s in enumerate(traj.states):
        fe = free_energy(s.d, tensor, p.epsilon)
        assert fe.elastic == traj.trace.elastic[k], k
        assert fe.penalty == traj.trace.penalty[k], k


@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_public_functions_equal_their_oracles(grid_name, tensor_name):
    grid, tensor, p = GRIDS[grid_name], TENSORS[tensor_name], NON_PARODI_DEMO
    eps = p.epsilon
    s, r = _state(grid, seed=60), _state(grid, seed=61, amplitude=0.5)
    dt_dr = smooth_vector_field(grid, np.random.default_rng(62))

    fe, fe_ref = free_energy(s.d, tensor, eps), oracles.free_energy(s.d, tensor, eps)
    assert fe.elastic == pytest.approx(fe_ref.elastic, rel=RTOL, abs=0.0)
    assert fe.penalty == pytest.approx(fe_ref.penalty, rel=RTOL, abs=0.0)
    _assert_close(g.laplacian_lambda(s.d, tensor).values,
                  oracles.laplacian_lambda(s.d, tensor).values)
    q, qr = (variational_derivative(x.d, tensor, eps) for x in (s, r))
    _assert_close(q.values, oracles.variational_derivative(s.d, tensor, eps).values)
    _assert_close(qr.values, oracles.variational_derivative(r.d, tensor, eps).values)
    for actual, expected in zip(dissipation_channels(s.v, s.d),
                                oracles.dissipation_channels(s.v, s.d, q)):
        _assert_close(actual, expected)

    scalars = {
        "relative_energy": (relative_energy, (s.v, s.d, r.v, r.d, tensor, eps)),
        "relative_dissipation": (relative_dissipation, (s.v, s.d, q, r.v, r.d, qr, p)),
        "gronwall_K": (gronwall_K, (s.v, s.d, r.v, r.d, qr, dt_dr, 1.5)),
    }
    for name, (func, args) in scalars.items():
        expected = getattr(oracles, name)(*args)
        assert expected > 0.0
        assert func(*args) == pytest.approx(expected, rel=RTOL, abs=0.0), name


# ---------------------------------------------------------------------------
# no stale carry: the carried terms always describe the director at hand
# ---------------------------------------------------------------------------

def _stepper(t_end=5e-3):
    return Stepper(GRIDS["2d"], StepperConfig(dt=1e-3, t_end=t_end, output_every=1),
                   NON_PARODI_DEMO, ANISO)


def _assert_same_state(a, b):
    assert a.t == b.t
    for name in ("v", "d", "p"):
        np.testing.assert_array_equal(getattr(a, name).values, getattr(b, name).values)


def test_lone_step_equals_first_run_sample():
    s = _state(GRIDS["2d"], seed=40)
    traj = _stepper(t_end=1e-3).run_ensemble([s])[0]
    stepper, e = _stepper(), Ensemble.of([s])
    _assert_same_state(stepper.step(e, stepper.terms(e))[0].member(0), traj.states[1])


def test_run_equals_repeated_lone_steps():
    # every carried step gives bit for bit what a step that recomputes the
    # director terms from its own state gives
    stepper = _stepper()
    s = _state(GRIDS["2d"], seed=41)
    traj = stepper.run_ensemble([s])[0]
    e = Ensemble.of([s])
    for k in range(1, len(traj.states)):
        e = stepper.step(e, stepper.terms(e))[0]
        _assert_same_state(e.member(0), traj.states[k])


def test_run_with_unsampled_steps_equals_repeated_lone_steps():
    # carried grad v and strain, and unsampled steps whose pressure no one
    # reads, give what lone steps that recompute them give
    stepper = Stepper(GRIDS["2d"], StepperConfig(dt=1e-3, t_end=6e-3, output_every=3),
                      NON_PARODI_DEMO, ANISO)
    s = _state(GRIDS["2d"], seed=39)
    traj = stepper.run_ensemble([s])[0]
    assert len(traj.states) == 3
    e = Ensemble.of([s])
    for k in range(1, 7):
        e = stepper.step(e, stepper.terms(e))[0]
        if k % 3 == 0:
            _assert_same_state(e.member(0), traj.states[k // 3])


def test_step_after_in_place_director_change_matches_fresh_stepper():
    stepper, fresh = _stepper(), _stepper()
    e = Ensemble.of([_state(GRIDS["2d"], seed=42)])
    stepper.step(e, stepper.terms(e))[0]
    e.d[0, 0] += 0.05 * np.cos(2.0 * np.pi * GRIDS["2d"].coords()[1])
    _assert_same_state(stepper.step(e, stepper.terms(e))[0].member(0),
                       fresh.step(e, fresh.terms(e))[0].member(0))


def test_alternating_states_match_separate_steppers():
    shared = _stepper()
    a, b = _state(GRIDS["2d"], seed=43), _state(GRIDS["2d"], seed=44, amplitude=0.5)
    shared_runs = [shared.run_ensemble([s])[0] for s in (a, b, a)]
    alone_a, alone_b = _stepper().run_ensemble([a])[0], _stepper().run_ensemble([b])[0]
    for traj, alone in zip(shared_runs, (alone_a, alone_b, alone_a)):
        np.testing.assert_array_equal(traj.step_total_energy, alone.step_total_energy)
        for x, y in zip(traj.states, alone.states):
            _assert_same_state(x, y)

    stepper_a, stepper_b = _stepper(), _stepper()
    sa, sb = Ensemble.of([a]), Ensemble.of([b])
    ra, rb = sa, sb
    for _ in range(3):
        sa, sb = shared.step(sa, shared.terms(sa))[0], shared.step(sb, shared.terms(sb))[0]
        ra, rb = stepper_a.step(ra, stepper_a.terms(ra))[0], stepper_b.step(rb, stepper_b.terms(rb))[0]
        _assert_same_state(sa.member(0), ra.member(0))
        _assert_same_state(sb.member(0), rb.member(0))



# ---------------------------------------------------------------------------
# layout: a state's fields are one member of an ensemble's arrays
# ---------------------------------------------------------------------------

def _owned(*arrays):
    """Whether each array is C-contiguous and owns its memory."""
    return all(a.flags.c_contiguous and a.flags.owndata for a in arrays)


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_lone_step_is_layout_independent(grid_name, tmp_path):
    grid = GRIDS[grid_name]
    stepper = Stepper(grid, StepperConfig(dt=1e-3, t_end=1e-3), NON_PARODI_DEMO, ANISO)
    s = _state(grid, seed=45).copy()
    assert _owned(s.v.values, s.d.values, s.p.values)
    # the same values as the member of an ensemble, the layout of the states
    # the stepper hands out: contiguous views of the ensemble's arrays; and
    # in Fortran order, strided along every axis
    ensemble = Ensemble.of([_state(grid, seed=46), s])
    views = ensemble.member(1)
    for f, members in ((views.v, ensemble.v), (views.d, ensemble.d), (views.p, ensemble.p)):
        assert f.values.flags.c_contiguous and np.shares_memory(f.values, members)
    strided = State(s.t, *(VectorField(grid, np.asfortranarray(f.values)) for f in (s.v, s.d)), s.p)
    assert not strided.v.values.flags.c_contiguous

    e = Ensemble.of([s])
    out = stepper.step(e, stepper.terms(e))[0].member(0)
    for other in (views, strided):
        e = Ensemble.of([other])
        _assert_same_state(out, stepper.step(e, stepper.terms(e))[0].member(0))
    assert out.v.values.shape == out.d.values.shape == (3,) + grid.shape
    assert out.v.values.flags.c_contiguous and not out.v.values.flags.owndata

    copied = out.copy()
    assert _owned(copied.v.values, copied.d.values, copied.p.values)
    _assert_same_state(copied, out)
    for state, name in ((out, "views.snap"), (copied, "copy.snap")):
        path = str(tmp_path / name)
        write_snapshot(state, path)
        back = read_snapshot(path)
        assert back.t == out.t
        for field in ("v", "d", "p"):
            assert getattr(back, field).values.tobytes() == getattr(out, field).values.tobytes()


# ---------------------------------------------------------------------------
# ensembles: every member is its lone run
# ---------------------------------------------------------------------------

def _assert_same_trajectory(a, b):
    assert len(a.states) == len(b.states)
    for x, y in zip(a.states, b.states):
        _assert_same_state(x, y)
    for name in vars(a.trace):
        assert getattr(a.trace, name).tobytes() == getattr(b.trace, name).tobytes(), name
    assert a.step_times.tobytes() == b.step_times.tobytes()
    assert a.step_total_energy.tobytes() == b.step_total_energy.tobytes()


@pytest.mark.parametrize("forcing", [None, "sinusoidal:0.5"])
@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_ensemble_members_equal_lone_runs(grid_name, tensor_name, theta, forcing):
    grid = GRIDS[grid_name]
    params = NON_PARODI_DEMO if theta > 0.0 else PARODI_DEMO
    cfg = StepperConfig(dt=1e-3, t_end=4e-3, theta=theta, output_every=2)

    def stepper():
        return Stepper(grid, cfg, params, TENSORS[tensor_name],
                       forcing=None if forcing is None else make_forcing(forcing, grid))

    states = [_state(grid, seed=50 + i, amplitude=0.2 + 0.1 * i) for i in range(3)]
    alone = [stepper().run_ensemble([s])[0] for s in states]
    for m in (1, 2, 3):
        members = stepper().run_ensemble(states[:m])
        assert len(members) == m
        for traj, lone in zip(members, alone):
            _assert_same_trajectory(traj, lone)
    # the members are distinct runs
    assert not np.array_equal(alone[0].states[-1].d.values, alone[1].states[-1].d.values)


def test_ensemble_step_returns_an_ensemble_of_lone_steps():
    stepper = _stepper()
    states = [_state(GRIDS["2d"], seed=46), _state(GRIDS["2d"], seed=47, amplitude=0.5)]
    e = Ensemble.of(states)
    out = stepper.step(e, stepper.terms(e))[0]
    assert isinstance(out, Ensemble) and out.v.shape == (2, 3) + GRIDS["2d"].shape
    for i, s in enumerate(states):
        alone, lone = _stepper(), Ensemble.of([s])
        _assert_same_state(out.member(i), alone.step(lone, alone.terms(lone))[0].member(0))
    with pytest.raises(ValueError):
        Ensemble.of([states[0], State(1e-3, states[1].v, states[1].d, states[1].p)])


def test_members_on_different_grids_are_rejected():
    # the same shape at another spacing: stepping member 1 on member 0's grid
    # would give it another run than its lone one, and the result member 0's grid
    fine, coarse = GRIDS["2d"], Grid(n=(16, 16), h=(1.0 / 8, 1.0 / 8))
    a, b = _state(fine, seed=48), _state(coarse, seed=49)
    with pytest.raises(ValueError, match="one grid"):
        Ensemble.of([a, b])
    with pytest.raises(ValueError, match="one grid"):
        Ensemble.of([State.initial(b.v, a.d)])
    cfg = StepperConfig(dt=1e-3, t_end=2e-3)
    with pytest.raises(ValueError, match="one grid"):
        Stepper(fine, cfg, NON_PARODI_DEMO, ANISO).run_ensemble([a, b])
    stepper, foreign = _stepper(), Ensemble.of([b])
    with pytest.raises(ValueError, match="different grids"):
        stepper.step(foreign, stepper.terms(foreign))[0]


def test_nonfinite_member_raises_naming_it_with_its_last_sample():
    grid = GRIDS["2d"]
    rng = np.random.default_rng(27)
    still = State.initial(VectorField.zeros(grid), VectorField.constant(grid, (0.0, 0.0, 1.0)))
    wild = State.initial(
        VectorField.zeros(grid),
        VectorField(grid, VectorField.constant(grid, (0.0, 0.0, 1.0)).values
                    + 2.0 * smooth_vector_field(grid, rng).values),
    )
    cfg = StepperConfig(dt=0.4, t_end=40.0, output_every=3)

    def stepper():
        return Stepper(grid, cfg, PARODI_DEMO, ElasticTensor.isotropic(1.0))

    with pytest.warns(RuntimeWarning), np.errstate(all="ignore"):
        with pytest.raises(SimulationError) as lone:
            stepper().run_ensemble([wild])[0]
        with pytest.raises(SimulationError) as ensemble:
            stepper().run_ensemble([still, wild])
    assert "member 1" in str(ensemble.value)
    assert str(ensemble.value) == str(lone.value).replace(" at step", " of member 1 at step")
    last = ensemble.value.last_state
    assert last.t > 0.0 and np.all(np.isfinite(last.d.values))
    _assert_same_state(last, lone.value.last_state)


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("field", ["v", "d"])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_blowup_check_reads_the_record_energies_as_the_field_scan_did(monkeypatch, grid_name, field, value, k):
    # one non-finite node in member 1's v or d at step k, its record taken
    # from that state: a NaN or an inf makes the member's kinetic or penalty
    # energy non-finite, so the run raises at step k as a scan of v and d
    # would, naming member 1, with the last sample before step k
    grid, member = GRIDS[grid_name], 1
    states = [_state(grid, seed=80 + i) for i in range(3)]
    stepper = Stepper(grid, StepperConfig(dt=1e-3, t_end=6e-3, output_every=2), NON_PARODI_DEMO, ANISO)
    clean = stepper.run_ensemble(states)[member].states
    step, calls = Stepper.step, []

    def poisoned(self, e, terms):
        out, terms = step(self, e, terms)
        calls.append(out.t)
        if len(calls) == k:
            getattr(out, field)[member, 1][(2,) * grid.dim] = value
            assert not np.isfinite(getattr(out, field)[member]).all()
            terms = self.terms(out)
        return out, terms

    monkeypatch.setattr(Stepper, "step", poisoned)
    with np.errstate(all="ignore"), pytest.raises(SimulationError) as exc:
        stepper.run_ensemble(states)
    assert len(calls) == k
    assert str(exc.value) == f"non-finite values of member 1 at step {k} (t = {calls[-1]:.6g})"
    assert exc.value.member == member
    last = exc.value.last_state
    assert all(np.isfinite(f.values).all() for f in (last.v, last.d, last.p))
    _assert_same_state(last, clean[(k - 1) // 2])


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("field", ["v", "d"])
def test_nonfinite_initial_state_is_refused_before_the_first_step(field, m):
    grid = Grid.unit_box(8)
    states = [_state(grid, seed=90 + i) for i in range(m)]
    getattr(states[-1], field).values[0, 3, 4] = np.nan
    stepper = Stepper(grid, StepperConfig(dt=1e-3, t_end=2e-3), NON_PARODI_DEMO, ANISO)
    seen = []
    label = " of member 2" if m == 3 else ""
    with pytest.raises(ValueError) as exc:
        stepper.run_ensemble(states, lambda e, terms, sampled: seen.append(e))
    assert str(exc.value) == f"non-finite initial state or energy{label} at step 0 (t = 0)"
    assert exc.value.member == m - 1 and seen == []


def test_weak_strong_campaign_equals_separate_experiments():
    grid = GRIDS["2d"]
    cfg = StepperConfig(dt=1e-3, t_end=0.03, output_every=5)
    initial = _state(grid, seed=48)
    deltas = (0.0, 1e-2, 1e-3)
    campaign = weak_strong_campaign(grid, NON_PARODI_DEMO, ANISO, cfg, initial,
                                    seed=5, deltas=deltas)
    assert len(campaign) == len(deltas)
    for delta, rep in zip(deltas, campaign):
        alone = weak_strong_experiment(grid, NON_PARODI_DEMO, ANISO, cfg, initial,
                                       seed=5, delta=delta)
        assert rep.delta0 == alone.delta0 == delta
        for name in ("minimal_c", "bound_satisfied", "max_E_over_E0", "E0", "max_E"):
            assert getattr(rep, name) == getattr(alone, name), name
        for name in ("t", "E", "W", "K", "bound"):
            assert getattr(rep.trace, name).tobytes() == getattr(alone.trace, name).tobytes()
        assert rep.cross_abs.tobytes() == alone.cross_abs.tobytes()
        assert rep.absorb_rhs.tobytes() == alone.absorb_rhs.tobytes()
    assert campaign[0].max_E == 0.0 < campaign[2].max_E < campaign[1].max_E


# ---------------------------------------------------------------------------
# grad v of a sampled state serves the next step
# ---------------------------------------------------------------------------

def test_sampled_velocity_gradient_is_carried(monkeypatch):
    calls = []
    original = g.gradient_components

    def counted(grid, values):
        calls.append(values.shape)
        return original(grid, values)

    # the state is built first: its projection takes a gradient too
    state = _state(GRIDS["2d"], seed=49)
    monkeypatch.setattr(g, "gradient_components", counted)
    traj = _stepper(t_end=5e-3).run_ensemble([state])[0]
    assert len(traj.states) == 6
    # initial director and velocity, then per step the new director and the
    # projected velocity; the diagnostics and the next step reuse the
    # projected velocity's gradient
    assert len(calls) == 2 + 2 * 5


@pytest.mark.parametrize("output_every", [1, 3])
def test_sampled_director_strain_is_carried(monkeypatch, output_every):
    calls = []
    original = en.director_strain

    def counted(grad_v, d):
        calls.append(d.shape)
        return original(grad_v, d)

    monkeypatch.setattr(en, "director_strain", counted)
    cfg = StepperConfig(dt=1e-3, t_end=6e-3, output_every=output_every)
    traj = Stepper(GRIDS["2d"], cfg, NON_PARODI_DEMO, ANISO).run_ensemble(
        [_state(GRIDS["2d"], seed=50)])[0]
    samples = len(traj.states)
    assert samples == 1 + 6 // output_every
    # one per state, 7 for 6 steps, sampled or not: the strain is made with
    # the state and only read after, by the sample's diagnostics, the run's
    # hook and the next step
    assert len(calls) == samples + 6 - (samples - 1)


# ---------------------------------------------------------------------------
# the per-state record: made with the state, read by the rest
# ---------------------------------------------------------------------------

def _frozen(value):
    """A comparable copy of a record field: arrays by shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return [_frozen(x) for x in value]
    return value


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_diagnostics_only_read_the_record_the_step_wrote(grid_name):
    grid = GRIDS[grid_name]
    cfg = StepperConfig(dt=1e-3, t_end=6e-3)
    stepper = Stepper(grid, cfg, NON_PARODI_DEMO, ANISO, make_forcing("sinusoidal:5", grid))
    e = Ensemble.of([_state(grid, seed=52)])
    out, terms = stepper.step(e, stepper.terms(e))
    record = {f.name: getattr(terms, f.name) for f in fields(terms)}
    assert all(value is not None for value in record.values())
    # the step's record of its result is the one a fresh state gets
    fresh = stepper.terms(out)
    for name, value in record.items():
        assert _frozen(value) == _frozen(getattr(fresh, name)), name
    frozen = {name: _frozen(value) for name, value in record.items()}
    stepper._diagnostics(out, terms)
    for name, value in record.items():
        assert getattr(terms, name) is value, name
        assert _frozen(value) == frozen[name], name


# ---------------------------------------------------------------------------
# full-field passes of one step
# ---------------------------------------------------------------------------

def _passes_per_step(monkeypatch, grid, cfg):
    """(transforms, ``grid._deriv`` calls, components of each inverse
    transform) of each step of a run; the transforms are counted at
    ``SpectralOps.forward`` and ``backward``, one call each."""
    calls = {"fft": 0, "deriv": 0}
    inverse = []

    def counted(func, kind, components=None):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            if components is not None:
                components.append(args[1].shape[1])
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SpectralOps, "forward", counted(SpectralOps.forward, "fft"))
    monkeypatch.setattr(SpectralOps, "backward", counted(SpectralOps.backward, "fft", inverse))
    monkeypatch.setattr(g, "_deriv", counted(g._deriv, "deriv"))
    per_step = []
    original_step = Stepper.step

    def step(self, e, terms):
        before = dict(calls)
        inverse.clear()
        out = original_step(self, e, terms)
        per_step.append((calls["fft"] - before["fft"], calls["deriv"] - before["deriv"], tuple(inverse)))
        return out

    monkeypatch.setattr(Stepper, "step", step)
    Stepper(grid, cfg, NON_PARODI_DEMO, ANISO).run_ensemble([_state(grid, seed=65)])[0]
    return per_step


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_step_without_pressure_moves_the_state_alike(grid_name):
    # a step whose pressure is never read leaves it untransformed and moves
    # the state as a step whose pressure is read; read later, it is the same
    grid = GRIDS[grid_name]
    stepper = Stepper(grid, StepperConfig(dt=1e-3, t_end=6e-3), NON_PARODI_DEMO, ANISO)
    e = Ensemble.of([_state(grid, seed=66)])
    with_p, without_p = stepper.step(e, stepper.terms(e))[0], stepper.step(e, stepper.terms(e))[0]
    assert with_p.p.shape == (1,) + grid.shape
    assert callable(without_p.pressure) and not callable(with_p.pressure)
    np.testing.assert_array_equal(without_p.v, with_p.v)
    np.testing.assert_array_equal(without_p.d, with_p.d)
    assert without_p.p.tobytes() == with_p.p.tobytes()


@pytest.mark.parametrize("output_every", [1, 3, 4])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_step_pass_budget(monkeypatch, grid_name, output_every):
    grid = GRIDS[grid_name]
    cfg = StepperConfig(dt=1e-3, t_end=6e-3, output_every=output_every)
    per_step = _passes_per_step(monkeypatch, grid, cfg)
    dim = grid.dim
    # per step: the director solve and the velocity update, each one forward
    # and one inverse transform; the new director's grad d and div(L : grad d),
    # the dim momentum-flux columns and the grad v of the projected velocity.
    # The velocity's inverse has its three components only, sampled or not:
    # the pressure is transformed when it is read, outside the step
    expected = [(4, 4 * dim, (3, 3))] * 6
    assert per_step == expected


@pytest.mark.parametrize("output_every", [1, 3, 4])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_step_pass_budget_at_theta_zero(monkeypatch, grid_name, output_every):
    # at theta = 0 the director solve is the identity and is not made: the
    # velocity update's two transforms are the step's only FFTs
    grid = GRIDS[grid_name]
    cfg = StepperConfig(dt=1e-3, t_end=6e-3, output_every=output_every, theta=0.0)
    per_step = _passes_per_step(monkeypatch, grid, cfg)
    dim = grid.dim
    expected = [(2, 4 * dim, (3,))] * 6
    assert per_step == expected


@pytest.mark.parametrize("output_every", [1, 4])
@pytest.mark.parametrize("theta, per_step", [(0.3, 2), (0.0, 1)])
def test_pressure_is_transformed_only_when_read(monkeypatch, theta, per_step, output_every):
    grid = GRIDS["2d"]
    cfg = StepperConfig(dt=1e-3, t_end=6e-3, output_every=output_every, theta=theta)
    state = _state(grid, seed=67)  # made before counting: its velocity is projected
    backward, calls = SpectralOps.backward, []

    def counted(self, values_hat):
        calls.append(values_hat.shape)
        return backward(self, values_hat)

    monkeypatch.setattr(SpectralOps, "backward", counted)
    # the energy monitor reads no pressure: the steps' own inverse
    # transforms are all it makes
    energy_monitor(grid, NON_PARODI_DEMO, ANISO, cfg, state)
    assert len(calls) == per_step * 6
    assert all(shape[:2] == (1, 3) for shape in calls)  # none stacks a pressure
    # a run without a hook copies each sample, its pressure too: one
    # more per sample after the initial one, whose pressure was given
    calls.clear()
    traj = run(state, cfg, NON_PARODI_DEMO, ANISO)
    assert len(traj.states) == 2 + 5 // output_every
    assert len(calls) == per_step * 6 + len(traj.states) - 1
    # a step's pressure read twice is transformed once
    stepper, e = Stepper(grid, cfg, NON_PARODI_DEMO, ANISO), Ensemble.of([state])
    out = stepper.step(e, stepper.terms(e))[0]
    calls.clear()
    first = out.p
    assert out.p is first and calls == [(1,) + SpectralOps(grid).half]
