"""States streamed to a run's hook.

A run given a hook, ``each_step(ensemble, terms, sampled)``, hands it every
step's ensemble with its record of fields (``StateTerms``), once and in
order, flagging the steps of ``StepperConfig.samples``, and keeps no state
itself: its trace and step energies must equal those of a run that keeps
every sample, bit for bit, its memory must not grow with the number of
samples, and the stepper must write into no array it has handed out.  The
weak-strong campaign evaluates its relative terms online, at every step and
at every sample, from the ensembles and their records; its sampled rows
must equal, bit for bit, those that ``oracles.relative_series`` takes after
the run from every retained step, and the campaign must differentiate
nothing but d - dr itself.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from leslie_sim import dynamics, experiments
from leslie_sim import energetics as en
from leslie_sim import grid as grid_module
from leslie_sim.dynamics import ProjectionError, SimulationError, State, Stepper, StepperConfig
from leslie_sim.experiments import energy_monitor, weak_strong_campaign
from leslie_sim.grid import Grid, VectorField
from leslie_sim.initial import divfree_smooth_field, smooth_vector_field
from leslie_sim.material import NON_PARODI_DEMO, PARODI_DEMO, make_forcing
from leslie_sim.tensor import ElasticTensor

_EYE = np.eye(3)
ANISO = ElasticTensor.from_entries(
    np.einsum("ik,jl->ijkl", _EYE, _EYE) + 0.5 * np.einsum("ij,kl->ijkl", _EYE, _EYE)
)
GRIDS = {2: Grid.unit_box(16), 3: Grid.unit_box(8, dim=3)}


def _state(grid, seed, amplitude=0.3):
    rng = np.random.default_rng(seed)
    v = divfree_smooth_field(grid, rng)
    d = VectorField(
        grid,
        VectorField.constant(grid, (0.0, 0.0, 1.0)).values
        + amplitude * smooth_vector_field(grid, rng).values,
    )
    return State.initial(v, d)


def _assert_same_state(a, b):
    assert a.t == b.t
    for name in ("v", "d", "p"):
        assert getattr(a, name).values.tobytes() == getattr(b, name).values.tobytes(), name


@pytest.mark.parametrize("output_every", [1, 3])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_streamed_run_equals_retained_run(theta, output_every):
    grid = GRIDS[2]
    cfg = StepperConfig(dt=1e-3, t_end=7e-3, theta=theta, output_every=output_every)
    states = [_state(grid, seed=60), _state(grid, seed=61, amplitude=0.5)]
    retained = Stepper(grid, cfg, NON_PARODI_DEMO, ANISO).run_ensemble(states)
    seen = []  # the sampled ensembles themselves, not copies
    streamed = Stepper(grid, cfg, NON_PARODI_DEMO, ANISO).run_ensemble(
        states, each_step=lambda e, terms, sampled: seen.append(e) if sampled else None)
    for i, (a, b) in enumerate(zip(streamed, retained)):
        assert a.states == [] and len(b.states) == 2 + 6 // output_every
        for name in vars(b.trace):
            assert getattr(a.trace, name).tobytes() == getattr(b.trace, name).tobytes(), name
        assert a.step_times.tobytes() == b.step_times.tobytes()
        assert a.step_total_energy.tobytes() == b.step_total_energy.tobytes()
        # the hook saw every sample in order, the initial one included,
        # and the stepper wrote into none of them after handing it over
        assert len(seen) == len(b.states)
        for e, s in zip(seen, b.states):
            _assert_same_state(e.member(i), s)


@pytest.mark.parametrize("output_every", [1, 3, 10])
def test_hook_sees_every_step_once_in_order_and_flags_the_samples(output_every, monkeypatch):
    # 7 steps: at output_every = 10 only steps 0 and 7 are sampled.  The hook
    # is called on each step before that step's trace row, which only a
    # sampled step has
    grid = GRIDS[2]
    cfg = StepperConfig(dt=1e-3, t_end=7e-3, output_every=output_every)
    states = [_state(grid, seed=60), _state(grid, seed=61, amplitude=0.5)]
    events = []
    diagnostics = Stepper._diagnostics
    monkeypatch.setattr(Stepper, "_diagnostics",
                        lambda self, e, terms: events.append(("row", e.t)) or diagnostics(self, e, terms))
    hooked = Stepper(grid, cfg, NON_PARODI_DEMO, ANISO).run_ensemble(
        states, each_step=lambda e, terms, sampled: events.append(("hook", e.t, sampled)))
    seen = events[:]
    plain = Stepper(grid, cfg, NON_PARODI_DEMO, ANISO).run_ensemble(states)
    rows = cfg.samples(0.0)
    expected = []
    for k, t in enumerate(plain[0].step_times.tolist()):
        expected += [("hook", t, k in rows)] + [("row", t)] * (k in rows)
    assert len(expected) == 8 + len(rows) and seen == expected
    assert all(type(event[2]) is bool for event in seen if event[0] == "hook")
    for a, b in zip(hooked, plain):
        assert a.states == []
        assert [s.t for s in b.states] == plain[0].step_times[rows].tolist()


@pytest.mark.parametrize("output_every", [1, 3, 10])
def test_energy_monitor_keeps_no_state_and_flags_the_samples(output_every, monkeypatch):
    # it runs at output_every = 1, so a run without a hook would keep every
    # step's state; its own hook sees cfg's samples flagged.  The run's
    # trajectory and full residual are taken as the monitor makes them
    made = {}

    def keep(module, name):
        function = getattr(module, name)

        def kept(*args):
            made[name] = function(*args)
            return made[name]
        monkeypatch.setattr(module, name, kept)

    keep(dynamics, "run")
    keep(en, "energy_inequality_residual")
    grid = GRIDS[2]
    cfg = StepperConfig(dt=1e-3, t_end=7e-3, output_every=output_every)
    flags = []
    for hook in ({}, {"each_step": lambda e, terms, sampled: flags.append(sampled)}):
        trace = energy_monitor(grid, NON_PARODI_DEMO, ANISO, cfg, _state(grid, seed=60), **hook).trace
        traj, residual = made["run"], made["energy_inequality_residual"]
        assert traj.states == [] and len(residual) == 8
        assert trace.t.tolist() == traj.step_times[cfg.samples(0.0)].tolist()
    assert [k for k, sampled in enumerate(flags) if sampled] == cfg.samples(0.0) and len(flags) == 8


@pytest.mark.parametrize("dim", [2, 3])
def test_stepper_writes_into_no_array_it_handed_out(dim):
    # mu1 != 1, so that a step scaling a handed-out strain by mu1 in place
    # would change it; with forcing, so that the forced step is the one checked
    grid = GRIDS[dim]
    p = dataclasses.replace(NON_PARODI_DEMO, mu1=2.5)
    cfg = StepperConfig(dt=5e-4, t_end=2e-3, output_every=1)
    stepper = Stepper(grid, cfg, p, ANISO, forcing=make_forcing("sinusoidal:0.5", grid))
    handed = []  # every array of each sample and its record, with its bytes then
    kept = []  # each record itself, uncopied, with its arrays then

    def each_step(e, terms, sampled):
        arrays = [e.v, e.d, e.p, terms.grad, terms.lap, terms.dev, terms.grad_v, *terms.strain]
        handed.append([(a, a.tobytes()) for a in arrays])
        kept.append((terms, arrays[3:]))

    stepper.run_ensemble([_state(grid, seed=64), _state(grid, seed=65, amplitude=0.5)], each_step=each_step)
    assert len(handed) == 5
    for k, arrays in enumerate(handed):
        for j, (a, taken) in enumerate(arrays):
            assert a.tobytes() == taken, (k, j)
    # a kept record still holds the arrays it was handed out with: no later
    # step rebinds its fields, and none can
    for k, (record, arrays) in enumerate(kept):
        now = [record.grad, record.lap, record.dev, record.grad_v, *record.strain]
        assert all(a is b for a, b in zip(now, arrays, strict=True)), k
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.grad = record.lap


@pytest.mark.parametrize("other", [Grid(n=(8, 8), h=(0.5, 0.5)), Grid.unit_box(16)], ids=["spacing", "cells"])
def test_a_state_on_another_grid_is_refused_before_its_record_and_hook(other):
    # a state with other spacings would get step 0's energies with the
    # stepper's cell volume, one with other cells a numpy broadcast error
    stepper = Stepper(Grid.unit_box(8), StepperConfig(dt=1e-3, t_end=0.0), NON_PARODI_DEMO, ANISO)
    seen = []
    with pytest.raises(ValueError, match="^field and spectral operators live on different grids$"):
        stepper.run_ensemble([_state(other, seed=67)], each_step=lambda *args: seen.append(args))
    assert seen == []


def test_streamed_nonfinite_member_raises_naming_it_with_its_last_sample():
    grid = GRIDS[2]
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

    seen = []
    with pytest.warns(RuntimeWarning), np.errstate(all="ignore"):
        with pytest.raises(SimulationError) as retained:
            stepper().run_ensemble([still, wild])
        with pytest.raises(SimulationError) as streamed:
            stepper().run_ensemble([still, wild],
                                   each_step=lambda e, terms, sampled: seen.append(e) if sampled else None)
    assert str(streamed.value) == str(retained.value)
    assert "member 1" in str(streamed.value)
    last = streamed.value.last_state
    assert last.t == seen[-1].t > 0.0 and np.all(np.isfinite(last.d.values))
    assert np.shares_memory(last.d.values, seen[-1].d)  # a reference, not a copy
    _assert_same_state(last, retained.value.last_state)


def test_retained_run_keeps_contiguous_samples_and_its_last_sample_is_one():
    # without a hook the run keeps each sample the step made, uncopied:
    # its states are contiguous component-major views of the sample's
    # arrays, no two samples share memory, and the last sample of a blow-up
    # is such a state too
    grid = GRIDS[2]
    cfg = StepperConfig(dt=1e-3, t_end=4e-3, output_every=2)
    traj = Stepper(grid, cfg, NON_PARODI_DEMO, ANISO).run_ensemble([_state(grid, seed=62)])[0]
    assert len(traj.states) == 3
    for s in traj.states:
        assert all(f.values.flags.c_contiguous for f in (s.v, s.d, s.p))
    assert not np.shares_memory(traj.states[-1].d.values, traj.states[-2].d.values)

    wild = State.initial(
        VectorField.zeros(grid),
        VectorField(grid, VectorField.constant(grid, (0.0, 0.0, 1.0)).values
                    + 2.0 * smooth_vector_field(grid, np.random.default_rng(27)).values),
    )
    stepper = Stepper(grid, StepperConfig(dt=0.4, t_end=40.0, output_every=3), PARODI_DEMO,
                      ElasticTensor.isotropic(1.0))
    with pytest.warns(RuntimeWarning), np.errstate(all="ignore"):
        with pytest.raises(SimulationError) as blowup:
            stepper.run_ensemble([wild])[0]
    last = blowup.value.last_state
    assert last.t > 0.0 and np.all(np.isfinite(last.d.values))
    assert all(f.values.flags.c_contiguous for f in (last.v, last.d, last.p))


@pytest.mark.parametrize("samples", [1, 2, 3])
@pytest.mark.parametrize("deltas", [(1e-3,), (0.0, 1e-2, 1e-4)], ids=["one", "several"])
@pytest.mark.parametrize("dim", [2, 3])
def test_streamed_campaign_equals_retained_post_processing(dim, deltas, samples):
    grid = GRIDS[dim]
    cfg = StepperConfig(dt=1e-3, t_end=5e-3 * (samples - 1), output_every=5)
    initial = _state(grid, seed=62)
    reports = weak_strong_campaign(grid, NON_PARODI_DEMO, ANISO, cfg, initial, seed=5, deltas=deltas)

    rng = np.random.default_rng(5)
    xi_d, xi_v = smooth_vector_field(grid, rng), divfree_smooth_field(grid, rng)
    members = [initial] + [
        State.initial(VectorField(grid, initial.v.values + delta * xi_v.values),
                      VectorField(grid, initial.d.values + delta * xi_d.values))
        for delta in deltas
    ]
    every = dataclasses.replace(cfg, output_every=1)
    runs = [traj.states for traj in Stepper(grid, every, NON_PARODI_DEMO, ANISO).run_ensemble(members)]
    # with one state the oracle takes dt dr as zero
    E, W, K, cross, absorb = oracles.relative_series(grid, NON_PARODI_DEMO, ANISO, runs, cfg.dt)
    assert E.shape == (len(deltas), 1 + 5 * (samples - 1))
    ts = np.array([s.t for s in runs[0]])
    rows = cfg.samples(0.0)
    assert len(rows) == samples
    for k, rep in enumerate(reports):
        bound = E[k][0] * np.exp(en._cumtrapz(ts, K[k]))
        assert rep.trace.t.tobytes() == ts[rows].tobytes()
        assert rep.trace.E.tobytes() == E[k][rows].tobytes()
        assert rep.trace.W.tobytes() == W[k][rows].tobytes()
        assert rep.trace.K.tobytes() == K[k][rows].tobytes()  # at c = 1
        assert rep.trace.bound.tobytes() == bound[rows].tobytes()
        assert rep.cross_abs.tobytes() == cross[k][rows].tobytes()
        assert rep.absorb_rhs.tobytes() == absorb[k][rows].tobytes()
        assert rep.max_E == E[k].max()


@pytest.mark.parametrize("dim", [2, 3])
def test_campaign_takes_only_the_gradient_of_the_director_difference(dim, monkeypatch):
    # beyond the run's own derivatives and those of its set-up (drawing the
    # perturbation), a step costs the dim derivatives of grad(d - dr) in E,
    # and a sample nothing more: grad d, div(L : grad d) and grad v are the
    # record's
    grid = GRIDS[dim]
    cfg = StepperConfig(dt=1e-3, t_end=6e-3, output_every=2)  # 7 steps, 4 samples
    initial = _state(grid, seed=66)
    deriv, calls = grid_module._deriv, []

    def counted(*args, **kwargs):
        calls.append(None)
        return deriv(*args, **kwargs)

    monkeypatch.setattr(grid_module, "_deriv", counted)
    weak_strong_campaign(grid, NON_PARODI_DEMO, ANISO, cfg, initial, seed=5, deltas=(1e-3, 1e-2))
    campaign = len(calls)
    calls.clear()
    rng = np.random.default_rng(5)  # the campaign's set-up: its perturbation
    smooth_vector_field(grid, rng)
    divfree_smooth_field(grid, rng)
    Stepper(grid, cfg, NON_PARODI_DEMO, ANISO).run_ensemble([initial] * 3, lambda e, terms, sampled: None)
    assert campaign - len(calls) == 7 * dim


def test_campaign_failure_names_the_perturbed_run_and_its_delta():
    # the reference is at rest, so only the perturbed run with delta = 2
    # turns non-finite; its FAIL line must not read "member 2"
    grid = GRIDS[2]
    still = State.initial(VectorField.zeros(grid), VectorField.constant(grid, (0.0, 0.0, 1.0)))
    cfg = StepperConfig(dt=0.4, t_end=40.0, output_every=3)
    with pytest.warns(RuntimeWarning), np.errstate(all="ignore"):
        with pytest.raises(SimulationError) as failed:
            weak_strong_campaign(grid, PARODI_DEMO, ElasticTensor.isotropic(1.0), cfg, still,
                                 seed=27, deltas=(0.0, 2.0))
    assert str(failed.value).startswith("non-finite values of the perturbed run with delta = 2 at step ")
    assert failed.value.member == 2 and np.all(np.isfinite(failed.value.last_state.d.values))



def test_campaign_projection_failure_names_the_perturbed_run(monkeypatch):
    # a projection target of 0 for member 1 fails its first velocity update:
    # the message names the perturbed run and its delta, not "member 1"
    grid = GRIDS[2]
    targets = dynamics._projection_targets

    def member_1_exact(ops, u_hat, div_hat, tol):
        found = targets(ops, u_hat, div_hat, tol)
        return found[:1] + [0.0] * (len(found) - 1)

    monkeypatch.setattr(dynamics, "_projection_targets", member_1_exact)
    with pytest.raises(ProjectionError) as failed:
        weak_strong_campaign(grid, PARODI_DEMO, ElasticTensor.isotropic(1.0), StepperConfig(dt=1e-3, t_end=2e-3),
                             _state(grid, seed=28), seed=29, deltas=(1e-3,))
    message = str(failed.value)
    assert "of the perturbed run with delta = 0.001 exceeds target 0.000e+00" in message
    assert "member" not in message and failed.value.member == 1

@pytest.mark.parametrize("amplitude, deltas, member, run", [
    (1e200, (1e-3,), 0, "the reference run"),
    (0.3, (1e-3, 1e300), 2, "the perturbed run with delta = 1e+300"),
])
def test_campaign_refusal_of_a_nonfinite_initial_run_names_it(amplitude, deltas, member, run):
    # a director of amplitude 1e200, or a perturbation of size 1e300, has an
    # infinite penalty energy: the run refuses it before the first step, a
    # ValueError that names the run, not its index in the ensemble
    grid = GRIDS[2]
    with np.errstate(all="ignore"), pytest.raises(ValueError) as refused:
        weak_strong_campaign(grid, PARODI_DEMO, ElasticTensor.isotropic(1.0), StepperConfig(dt=1e-3, t_end=2e-3),
                             _state(grid, seed=30, amplitude=amplitude), seed=31, deltas=deltas)
    assert str(refused.value) == f"non-finite initial state or energy of {run} at step 0 (t = 0)"
    assert refused.value.member == member


def test_campaign_refuses_empty_deltas_before_any_draw_or_step(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(experiments, "smooth_vector_field", fail)
    monkeypatch.setattr(Stepper, "run_ensemble", fail)
    grid = GRIDS[2]
    with pytest.raises(ValueError, match="^deltas must hold at least one perturbation size$"):
        weak_strong_campaign(grid, PARODI_DEMO, ElasticTensor.isotropic(1.0), StepperConfig(dt=1e-3, t_end=2e-3),
                             _state(grid, seed=30), seed=31, deltas=())


def _peak_bytes(func) -> int:
    """Peak traced allocation, above what is allocated before, of func()."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        func()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


#: Allowed growth of the peak per extra sample; one member's sample (v, d, p)
#: is 56 KiB at 2D n = 32.
PER_SAMPLE_BYTES = 2048


@pytest.mark.parametrize("kind", ["energy_monitor", "campaign"])
def test_memory_is_flat_in_trajectory_length(kind):
    grid = Grid.unit_box(32)
    initial = _state(grid, seed=63, amplitude=0.2)

    def job(samples):
        if kind == "energy_monitor":
            cfg = StepperConfig(dt=5e-4, t_end=5e-4 * samples, theta=0.0, output_every=1)
            return lambda: energy_monitor(grid, PARODI_DEMO, ElasticTensor.isotropic(1.0), cfg, initial)
        cfg = StepperConfig(dt=5e-4, t_end=5e-4 * samples, output_every=1)
        return lambda: weak_strong_campaign(grid, NON_PARODI_DEMO, ANISO, cfg, initial,
                                            seed=7, deltas=(0.0, 1e-2, 1e-3, 1e-4))

    job(4)()  # warm-up: one-time allocations of the first run
    short, long = _peak_bytes(job(10)), _peak_bytes(job(50))
    assert long - short <= PER_SAMPLE_BYTES * 40, (short, long)
