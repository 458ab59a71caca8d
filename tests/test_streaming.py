"""Sampled states streamed to an observer.

A run given an observer hands it each sampled ensemble with its record of
fields (``StateTerms``) and keeps no state itself: its trace and step
energies must equal those of a run that keeps a copy of every sample, bit
for bit, its memory must not grow with the number of samples, and the
stepper must write into no array it has handed out.  The weak-strong
campaign evaluates its relative terms online from a window of three samples
and the records; they must equal, bit for bit, those that
``oracles.relative_series`` takes after the run from every retained sample,
and the campaign must differentiate nothing but d - dr itself.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from leslie_sim import grid as grid_module
from leslie_sim.dynamics import SimulationError, State, Stepper, StepperConfig, run_ensemble
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
    seen = []  # the ensembles themselves, not copies
    streamed = Stepper(grid, cfg, NON_PARODI_DEMO, ANISO).run_ensemble(
        states, observer=lambda e, terms: seen.append(e))
    for i, (a, b) in enumerate(zip(streamed, retained)):
        assert a.states == [] and len(b.states) == 2 + 6 // output_every
        for name in vars(b.trace):
            assert getattr(a.trace, name).tobytes() == getattr(b.trace, name).tobytes(), name
        assert a.step_times.tobytes() == b.step_times.tobytes()
        assert a.step_total_energy.tobytes() == b.step_total_energy.tobytes()
        # the observer saw every sample in order, the initial one included,
        # and the stepper wrote into none of them after handing it over
        assert len(seen) == len(b.states)
        for e, s in zip(seen, b.states):
            _assert_same_state(e.member(i), s)


@pytest.mark.parametrize("dim", [2, 3])
def test_stepper_writes_into_no_array_it_handed_out(dim):
    # mu1 != 1, so that a step scaling a handed-out strain by mu1 in place
    # would change it; with forcing, so that the record's forcing is there
    grid = GRIDS[dim]
    p = dataclasses.replace(NON_PARODI_DEMO, mu1=2.5)
    cfg = StepperConfig(dt=5e-4, t_end=2e-3, output_every=1)
    stepper = Stepper(grid, cfg, p, ANISO, forcing=make_forcing("sinusoidal:0.5"))
    handed = []  # every array of each sample and its record, with its bytes then

    def observe(e, terms):
        arrays = [e.v, e.d, e.p, terms.grad, terms.lap, terms.dev, terms.grad_v, *terms.strain,
                  terms.forcing]
        handed.append([(a, a.tobytes()) for a in arrays])

    stepper.run_ensemble([_state(grid, seed=64), _state(grid, seed=65, amplitude=0.5)], observer=observe)
    assert len(handed) == 5
    for k, arrays in enumerate(handed):
        for j, (a, taken) in enumerate(arrays):
            assert a.tobytes() == taken, (k, j)


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
            stepper().run_ensemble([still, wild], observer=lambda e, terms: seen.append(e))
    assert str(streamed.value) == str(retained.value)
    assert "member 1" in str(streamed.value)
    last = streamed.value.last_state
    assert last.t == seen[-1].t > 0.0 and np.all(np.isfinite(last.d.values))
    assert np.shares_memory(last.d.values, seen[-1].d)  # a reference, not a copy
    _assert_same_state(last, retained.value.last_state)


def test_retained_run_keeps_contiguous_copies_and_its_last_sample_is_one():
    # without an observer the run's own observer copies each sample: the
    # states are C-contiguous node-major, as State.copy() gives, and the last
    # sample of a blow-up is such a copy, not the stepper's arrays
    grid = GRIDS[2]
    cfg = StepperConfig(dt=1e-3, t_end=4e-3, output_every=2)
    traj = Stepper(grid, cfg, NON_PARODI_DEMO, ANISO).run(_state(grid, seed=62))
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
            stepper.run(wild)
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
    runs = [traj.states for traj in run_ensemble(members, cfg, NON_PARODI_DEMO, ANISO)]
    # with one sample the oracle takes dt dr as zero
    E, W, K, cross, absorb = oracles.relative_series(grid, NON_PARODI_DEMO, ANISO, runs)
    assert E.shape == (len(deltas), samples)
    ts = np.array([s.t for s in runs[0]])
    for k, rep in enumerate(reports):
        assert rep.trace.t.tobytes() == ts.tobytes()
        assert rep.trace.E.tobytes() == E[k].tobytes()
        assert rep.trace.W.tobytes() == W[k].tobytes()
        assert rep.trace.K.tobytes() == K[k].tobytes()  # at c = 1
        assert rep.cross_abs.tobytes() == cross[k].tobytes()
        assert rep.absorb_rhs.tobytes() == absorb[k].tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_campaign_takes_only_the_gradient_of_the_director_difference(dim, monkeypatch):
    # beyond the run's own derivatives and those of its set-up (drawing the
    # perturbation), a sample costs the dim derivatives of grad(d - dr) in E:
    # grad d, div(L : grad d) and grad v are the record's
    grid = GRIDS[dim]
    cfg = StepperConfig(dt=1e-3, t_end=6e-3, output_every=2)  # 4 samples
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
    run_ensemble([initial] * 3, cfg, NON_PARODI_DEMO, ANISO, observer=lambda e, terms: None)
    assert campaign - len(calls) == 4 * dim


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
