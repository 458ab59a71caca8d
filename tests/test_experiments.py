import dataclasses
import inspect
import math

import numpy as np
import pytest

import leslie_sim
import oracles
from leslie_sim import config
from leslie_sim import energetics as en
from leslie_sim.dynamics import SimulationError, State, StepperConfig, run
from leslie_sim.experiments import (
    ComparisonReport,
    ExperimentConfig,
    convergence_study,
    energy_monitor,
    ibp_suite,
    weak_strong_campaign,
    weak_strong_experiment,
)
from leslie_sim.grid import Grid, VectorField
from leslie_sim.initial import InitialSpec, divfree_smooth_field, make_initial_state, smooth_vector_field
from leslie_sim.material import NON_PARODI_DEMO, PARODI_DEMO, InvalidParameters, ParameterSet, zeta
from leslie_sim.tensor import ElasticTensor

TENSOR = ElasticTensor.isotropic(1.0)
#: The time study's sqrt(E) differences when criterion 7 moved onto the
#: coupled stepper; a separate implementation of the study gave 1.306e-3,
#: 6.495e-4 and 3.239e-4.
PINNED = [1.306141467419408e-03, 6.495361236662825e-04, 3.239086699117162e-04]


def _initial(grid, seed=30, amp=0.2):
    rng = np.random.default_rng(seed)
    v0 = divfree_smooth_field(grid, rng)
    d0 = VectorField(
        grid,
        VectorField.constant(grid, (0.0, 0.0, 1.0)).values
        + amp * smooth_vector_field(grid, rng).values,
    )
    return State.initial(v0, d0)


def test_keyword_defaults_are_the_experiment_config_fields():
    fields = ExperimentConfig()
    for func, keywords in (
        (weak_strong_campaign, {"seed": fields.seed, "deltas": (fields.delta,), "c": fields.gronwall_c}),
        (weak_strong_experiment, {"seed": fields.seed, "delta": fields.delta, "c": fields.gronwall_c}),
        (energy_monitor, {"tol_energy": fields.tol_energy, "tol_step": fields.tol_step}),
    ):
        parameters = inspect.signature(func).parameters
        for keyword, value in keywords.items():
            assert parameters[keyword].default == value, (func.__name__, keyword)
    assert config.ExperimentConfig is ExperimentConfig is leslie_sim.ExperimentConfig


def test_campaign_with_invalid_parameters_raises():
    grid = Grid.unit_box(8)
    cfg = StepperConfig(dt=1e-3, t_end=2e-3)
    with pytest.raises(InvalidParameters, match="mu1 > 0"):
        weak_strong_campaign(grid, ParameterSet(mu1=-1.0), TENSOR, cfg, _initial(grid))


def test_ibp_suite_passes():
    report = ibp_suite(ns=(16,), seeds=(0, 1))
    assert report.passed
    assert report.max_residual <= 1e-12
    assert len(report.rows) > 0
    for row in report.rows:
        assert row["residual"] <= 1e-12


def test_energy_monitor_stationary():
    grid = Grid.unit_box(16)
    s = State.initial(VectorField.zeros(grid),
                      VectorField.constant(grid, (0.0, 0.0, 1.0)))
    report = energy_monitor(grid, PARODI_DEMO, TENSOR,
                            StepperConfig(dt=1e-3, t_end=0.01), s)
    assert report.passed
    np.testing.assert_allclose(report.residual, 0.0, atol=1e-13)


def test_energy_monitor_rejects_a_grid_other_than_the_initial_states():
    grid = Grid.unit_box(16)
    s = State.initial(VectorField.zeros(grid), VectorField.constant(grid, (0.0, 0.0, 1.0)))
    with pytest.raises(ValueError, match="grid"):
        energy_monitor(Grid.unit_box(16, dim=3), PARODI_DEMO, TENSOR,
                       StepperConfig(dt=1e-3, t_end=0.01), s)


def test_campaign_rejects_a_grid_other_than_the_initial_states():
    # the same cell counts at another spacing: refused up front, naming the
    # argument, not deep in the ensemble's own grid check
    grid = Grid.unit_box(8)
    other = Grid(n=grid.n, h=(0.2, 0.2))
    with pytest.raises(ValueError, match="^grid must be the grid of the initial state$"):
        weak_strong_campaign(other, PARODI_DEMO, TENSOR, StepperConfig(dt=1e-3, t_end=2e-3), _initial(grid))


def test_energy_monitor_dissipative_run():
    grid = Grid.unit_box(16)
    report = energy_monitor(grid, PARODI_DEMO, TENSOR,
                            StepperConfig(dt=5e-4, t_end=0.1), _initial(grid))
    assert report.passed
    assert report.max_residual_rel <= 1e-6
    assert report.cross_term_max == 0.0


@pytest.mark.parametrize("text", [
    "[grid]\nn = 16\n[stepper]\nt_end = 0.02\noutput_every = 4\n",
    "[grid]\nn = 24 20\n[material]\nforcing = sinusoidal:0.5\n[stepper]\noutput_every = 4\n",
])
def test_energy_monitor_verdict_does_not_depend_on_output_every(text):
    # both runs satisfy the per-step energy law; integrating the dissipation
    # by the trapezoid rule over every 4th sample only overestimated it
    # (residuals 1.0e-2 and 1.3e-2 of E(0)); output_every only thins the rows
    cfg = config.parse_config(text)
    state = make_initial_state(cfg.grid, cfg.initial)

    def monitor(stepper_cfg):
        return energy_monitor(cfg.grid, cfg.params, cfg.elastic, stepper_cfg, state,
                              tol_energy=cfg.experiment.tol_energy, tol_step=cfg.experiment.tol_step,
                              forcing=cfg.forcing())

    report, every = monitor(cfg.stepper), monitor(dataclasses.replace(cfg.stepper, output_every=1))
    assert report.passed and every.passed
    last = len(every.residual) - 1
    kept = [k for k in range(last + 1) if k % 4 == 0 or k == last]
    assert last % 4 == 0 or kept[-2:] == [last - last % 4, last]
    assert report.residual.tobytes() == every.residual[kept].tobytes()
    for name, column in vars(report.trace).items():
        assert column.tobytes() == getattr(every.trace, name)[kept].tobytes(), name
    assert (report.max_residual_rel, report.max_step_increase_rel, report.cross_term_max) == (
        every.max_residual_rel, every.max_step_increase_rel, every.cross_term_max)


def test_energy_monitor_detects_instability():
    # dt far above the explicit-penalty bound eps / (4 gamma) = 0.025
    grid = Grid.unit_box(16)
    cfg = StepperConfig(dt=4e-3, t_end=0.8, output_every=10)
    try:
        report = energy_monitor(grid, PARODI_DEMO, TENSOR, cfg, _initial(grid, amp=0.4))
        assert not report.passed
    except SimulationError:
        pass


def test_weak_strong_quadratic_scaling():
    grid = Grid.unit_box(16)
    cfg = StepperConfig(dt=1e-3, t_end=0.05, output_every=5)
    initial = _initial(grid)
    big = weak_strong_experiment(grid, PARODI_DEMO, TENSOR, cfg, initial,
                                 seed=5, delta=1e-2)
    small = weak_strong_experiment(grid, PARODI_DEMO, TENSOR, cfg, initial,
                                   seed=5, delta=5e-3)
    ratio = big.max_E / small.max_E
    assert 2.0 < ratio < 8.0  # quadratic in delta: nominal 4, within factor 2
    assert big.delta0 == 1e-2
    assert big.minimal_c >= 0.0
    assert np.all(big.trace.bound >= big.trace.E[0])


@pytest.mark.parametrize("E, ratio", [
    ([0.0, 0.0], 0.0), ([0.0, 2.0], math.inf), ([2.0, 3.0], 1.5),
])
def test_max_E_over_E0_edge_cases(E, ratio):
    E = np.array(E)
    zeros = np.zeros_like(E)
    trace = en.RelativeTrace(t=np.arange(len(E), dtype=float), E=E, W=zeros, K=zeros, bound=E)
    report = ComparisonReport(delta0=0.0, trace=trace, minimal_c=0.0, bound_satisfied=True,
                              max_E=float(E.max()), cross_abs=zeros, absorb_rhs=zeros)
    assert (report.E0, report.max_E) == (E[0], E.max())
    assert report.max_E_over_E0 == ratio


def test_weak_strong_zero_delta():
    grid = Grid.unit_box(16)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, output_every=5)
    report = weak_strong_experiment(grid, PARODI_DEMO, TENSOR, cfg,
                                    _initial(grid), seed=5, delta=0.0)
    assert report.max_E <= 1e-12
    assert report.minimal_c == 0.0
    assert report.bound_satisfied


def test_a_campaign_reaches_an_infinite_minimal_c():
    # E(0) = 0 with E > 0 later: at a zero director and v = 0, delta = 1e-170
    # perturbs v and d by amounts whose squares underflow, so E(0) is 0; the
    # penalty's instability at d = 0 (rate gamma / eps = 1000) then grows the
    # director's difference until E is a subnormal above 0.  No c makes
    # E <= E(0) exp(c int K) hold, and compare's verdict is FAIL
    cfg = config.parse_config("[grid]\nn = 8\n[material]\nepsilon = 1e-3\n[stepper]\ndt = 2e-4\n"
                              "t_end = 0.02\noutput_every = 50\n[initial]\nkind = constant\n"
                              "director = 0 0 0\n")
    report = weak_strong_experiment(cfg.grid, cfg.params, cfg.elastic, cfg.stepper,
                                    make_initial_state(cfg.grid, cfg.initial), seed=7, delta=1e-170)
    assert report.E0 == 0.0 < report.max_E
    assert report.minimal_c == math.inf and report.max_E_over_E0 == math.inf


@pytest.mark.parametrize("dim", [2, 3])
def test_weak_strong_series_match_the_energetics_functions(dim):
    # the campaign's relative energy, Gronwall factor and bound, taken over
    # every step, and its relative dissipation and absorption terms, taken at
    # the samples, against the node-major oracles at every step
    grid = Grid.unit_box(16 if dim == 2 else 8, dim=dim)
    p, tensor = NON_PARODI_DEMO, ElasticTensor.from_entries(
        np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
        + 0.5 * np.einsum("ij,kl->ijkl", np.eye(3), np.eye(3))
    )
    cfg = StepperConfig(dt=1e-3, t_end=0.02, output_every=5)
    every = dataclasses.replace(cfg, output_every=1)
    rows = cfg.samples(0.0)
    initial = _initial(grid)
    # at delta = 1e-6 the differences of separately rounded q, Dv d and Dv of
    # the two runs lose about 1e-10 relative, so there only E and K are compared
    deltas = (1e-2, 3e-3, 1e-6)
    reports = weak_strong_campaign(grid, p, tensor, cfg, initial, seed=5, deltas=deltas, c=2.0)
    full = weak_strong_campaign(grid, p, tensor, every, initial, seed=5, deltas=deltas, c=2.0)

    rng = np.random.default_rng(5)
    xi_d, xi_v = smooth_vector_field(grid, rng), divfree_smooth_field(grid, rng)
    ref = run(initial, every, p, tensor).states
    ts = np.array([s.t for s in ref])
    cellvol = grid.cell_volume
    for delta, rep, rep_full in zip(deltas, reports, full):
        pert = run(State.initial(VectorField(grid, initial.v.values + delta * xi_v.values),
                                 VectorField(grid, initial.d.values + delta * xi_d.values)),
                   every, p, tensor).states
        E, K = np.empty(len(ref)), np.empty(len(ref))
        for i, (s, r) in enumerate(zip(pert, ref)):
            # dt dr: the difference to the next step, at the last step the one before
            j = min(i, len(ref) - 2)
            dt_dr = VectorField(grid, (ref[j + 1].d.values - ref[j].d.values) / cfg.dt)
            qr = oracles.variational_derivative(r.d, tensor, p.epsilon)
            E[i] = oracles.relative_energy(s.v, s.d, r.v, r.d, tensor, p.epsilon)
            K[i] = 2.0 * oracles.gronwall_K(s.v, s.d, r.v, r.d, qr, dt_dr)
        bound = E[0] * np.exp(np.concatenate([[0.0], np.cumsum(0.5 * (K[1:] + K[:-1]) * np.diff(ts))]))
        np.testing.assert_array_equal(rep_full.trace.t, ts)
        for name, want in {"E": E, "K": K, "bound": bound}.items():
            np.testing.assert_allclose(getattr(rep_full.trace, name), want, rtol=1e-12, atol=0.0, err_msg=name)
            assert getattr(rep.trace, name).tobytes() == getattr(rep_full.trace, name)[rows].tobytes(), name
        assert rep.max_E == rep_full.max_E == pytest.approx(E.max(), rel=1e-12, abs=0.0)
        assert rep.bound_satisfied == bool(np.all(E <= bound * (1.0 + 1e-12)))
        for k, i in enumerate(rows):
            if delta < 1e-3:
                continue
            s, r = pert[i], ref[i]
            q = oracles.variational_derivative(s.d, tensor, p.epsilon)
            qr = oracles.variational_derivative(r.d, tensor, p.epsilon)
            _, dvd, _ = oracles.dissipation_channels(s.v, s.d, q)
            _, dvd_r, _ = oracles.dissipation_channels(r.v, r.d, qr)
            dq, ddvd = q.values - qr.values, dvd - dvd_r
            expected = {
                "W": oracles.relative_dissipation(s.v, s.d, q, r.v, r.d, qr, p),
                "cross": abs(p.cross_coeff * float(np.sum(dq * ddvd)) * cellvol),
                "absorb": zeta(p) * (p.gamma * float(np.sum(dq**2))
                                     + p.directional_coeff * float(np.sum(ddvd**2))) * cellvol,
            }
            actual = {"W": rep.trace.W[k], "cross": rep.cross_abs[k], "absorb": rep.absorb_rhs[k]}
            for name, value in expected.items():
                assert actual[name] == pytest.approx(value, rel=1e-12, abs=0.0), (name, i)
        assert rep.trace.E[0] > 0.0 and rep.cross_abs.max() > 0.0


def test_nonconvex_regime_relative_energy_grows_and_its_constant_converges():
    # at epsilon = 0.01 the double well's concave core makes the lowest
    # director modes grow from d ~ 0 (1/epsilon = 100 exceeds the lowest
    # |k|^2 = 4 pi^2): E grows, so minimal_c measures the estimate.  Measured
    # there, over every step: max E/E0 403.6, 1002.5, 1039.0 and minimal_c
    # 1.31293, 1.31769, 1.31790 for delta = 1e-2, 1e-3, 1e-4
    grid = Grid.unit_box(32)
    p = dataclasses.replace(PARODI_DEMO, epsilon=0.01)
    spec = InitialSpec(kind="perturbed", director=(0.0, 0.0, 0.0), seed=1, amplitude=0.05, v_amplitude=0.0)
    cfg = StepperConfig(dt=2e-4, t_end=0.2, output_every=10)
    reports = weak_strong_campaign(grid, p, TENSOR, cfg, make_initial_state(grid, spec),
                                   seed=7, deltas=(1e-2, 1e-3, 1e-4))
    assert all(rep.max_E_over_E0 > 100.0 for rep in reports[1:])
    cs = [rep.minimal_c for rep in reports]
    assert all(math.isfinite(c) and c > 0.0 for c in cs)
    assert abs(cs[1] - cs[2]) <= 0.01 * cs[2]


def test_weak_strong_verdict_does_not_depend_on_output_every():
    # the nonconvex set-up above on n = 16 over 100 steps.  Integrating K over
    # the samples, with dt dr a centred difference of samples and E <= bound
    # checked only there, gave minimal_c 1.45052, 1.44448 and 1.04095 at
    # output_every 1, 10 and 100, and a verdict at c = 1.2 that flipped at
    # 100; over every step, output_every only thins the reported rows
    cfg = config.parse_config(
        "[grid]\nn = 16\n[material]\nepsilon = 0.01\n[stepper]\ndt = 2e-4\nt_end = 0.02\n"
        "[initial]\nkind = perturbed\ndirector = 0 0 0\namplitude = 0.05\nv_amplitude = 0\nseed = 1\n"
    )
    state = make_initial_state(cfg.grid, cfg.initial)
    reports = {}
    for output_every in (1, 10, 100):
        stepper_cfg = dataclasses.replace(cfg.stepper, output_every=output_every)
        reports[output_every] = weak_strong_campaign(cfg.grid, cfg.params, cfg.elastic, stepper_cfg, state,
                                                     seed=7, deltas=(1e-3,), c=1.2)[0]
    every = reports.pop(1)
    assert math.isfinite(every.minimal_c) and every.minimal_c > 1.2 and not every.bound_satisfied
    for output_every, rep in reports.items():
        rows = dataclasses.replace(cfg.stepper, output_every=output_every).samples(0.0)
        assert (rep.minimal_c, rep.max_E, rep.bound_satisfied) == (
            every.minimal_c, every.max_E, every.bound_satisfied)
        for name in ("t", "E", "W", "K", "bound"):
            assert getattr(rep.trace, name).tobytes() == getattr(every.trace, name)[rows].tobytes(), name
        assert rep.cross_abs.tobytes() == every.cross_abs[rows].tobytes()
        assert rep.absorb_rhs.tobytes() == every.absorb_rhs[rows].tobytes()


def test_convergence_study_bad_mode():
    with pytest.raises(ValueError):
        convergence_study("spacetime")


def test_convergence_time_study_errors_are_pinned(time_study):
    # sqrt(E) between the coupled stepper's final states at dt = 5e-4 / 2^k,
    # k = 0 .. 3, each against the next finer one
    report = time_study[0]
    assert report.levels == [5e-4, 2.5e-4, 1.25e-4, 6.25e-5]
    np.testing.assert_allclose(report.errors, PINNED, rtol=1e-12)
