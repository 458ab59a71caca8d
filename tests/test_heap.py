"""A run keeps its heap between steps, and a step holds few arrays.

Building a Stepper pins glibc's mmap and trim thresholds
(``dynamics._keep_heap``), so a warm run faults in almost no pages, and
where the C library cannot be loaded the Stepper runs as before.  The run
hands each record to the step, which frees each of its fields after its
last read: at the velocity update none of the previous record's arrays is
alive, a step's traced peak stays within the fields it holds at its peak,
and a hook that keeps the records gets the same run.
"""

import ctypes
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from leslie_sim import dynamics
from leslie_sim.dynamics import Ensemble, Stepper, StepperConfig, run
from leslie_sim.grid import Grid
from leslie_sim.initial import InitialSpec, make_initial_state
from leslie_sim.material import ParameterSet
from leslie_sim.tensor import ElasticTensor

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: For each size of the benchmark's simulate workloads (lambda = 0.5,
#: theta = 0.3): a warm-up run, then the minor faults per step of a second,
#: identical run, one line each.
FAULTS_PER_STEP = """
import resource
from leslie_sim import dynamics
from leslie_sim.dynamics import Ensemble, Stepper, StepperConfig, run
from leslie_sim.grid import Grid
from leslie_sim.initial import InitialSpec, make_initial_state
from leslie_sim.material import ParameterSet
from leslie_sim.tensor import ElasticTensor

for dim, n, dt, steps, every in ((2, 128, 5e-5, 40, 20), (3, 32, 5e-4, 20, 10)):
    cfg = StepperConfig(dt=dt, t_end=steps * dt, output_every=every, theta=0.3)
    state = make_initial_state(Grid.unit_box(n, dim), InitialSpec(seed=1))
    args = (state, cfg, ParameterSet(lam=0.5), ElasticTensor.isotropic(1.0))
    run(*args)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(*args)
    print(dim, n, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_a_warm_run_faults_in_almost_no_pages():
    # in a fresh process: an earlier test that freed a large mmapped array
    # raises glibc's dynamic thresholds for the rest of the session and
    # would hide the faults.  Without the thresholds pinned these runs took
    # 200-230 and 480 faults per step (2 cores, glibc 2.36), with them under 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [row[:2] for row in rows] == [["2", "128"], ["3", "32"]]
    for dim, n, per_step in rows:
        assert float(per_step) < 2.0, f"{dim}D n = {n}: {per_step} minor faults per step"


@pytest.mark.parametrize("lookup", ["no libc", "no mallopt"])
def test_a_stepper_without_mallopt_runs_bit_for_bit(monkeypatch, lookup):
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, output_every=2, theta=0.3)
    state = make_initial_state(Grid.unit_box(16), InitialSpec(seed=3))
    args = (state, cfg, ParameterSet(lam=0.5), ElasticTensor.isotropic(1.0))
    expected = run(*args)
    calls = []

    def cdll(name, *rest, **kwargs):
        calls.append(name)
        if lookup == "no libc":
            raise OSError(f"{name}: cannot open shared object file")
        return object()  # a C library without mallopt

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    got = run(*args)
    assert calls, "the Stepper did not look up the C library"
    assert len(got.states) == len(expected.states)
    for a, b in zip(got.states, expected.states):
        assert a.t == b.t
        for f in ("v", "d", "p"):
            np.testing.assert_array_equal(getattr(a, f).values, getattr(b, f).values)
    np.testing.assert_array_equal(got.trace.total, expected.trace.total)
    np.testing.assert_array_equal(got.step_total_energy, expected.step_total_energy)


#: The run hands the record to the step through a call, which CPython moves
#: into the callee's frame from 3.11 on; before, the caller's stack keeps
#: the record alive until the step returns.
HANDOFF = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="the hand-off relies on CPython 3.11's call moving its arguments into the step's frame",
)

_EYE = np.eye(3)
#: The benchmark's explicit anisotropic tensor.
ANISO = ElasticTensor.from_entries(
    (np.einsum("ik,jl->ijkl", _EYE, _EYE) + 0.5 * np.einsum("ij,kl->ijkl", _EYE, _EYE)
     + 0.25 * np.einsum("il,jk->ijkl", _EYE, _EYE)).ravel()
)
SMALL = {"2d": (Grid.unit_box(16), ElasticTensor.isotropic(1.0)), "3d": (Grid.unit_box(8, dim=3), ANISO)}


def _initials(grid, m):
    return [make_initial_state(grid, InitialSpec(seed=seed, amplitude=0.3)) for seed in range(m)]


def _record_arrays(terms):
    """The seven arrays of a record: grad d, div(L : grad d), |d|^2 - 1,
    grad v and the director strain."""
    return [terms.grad, terms.lap, terms.dev, terms.grad_v, *terms.strain]


@HANDOFF
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("case", sorted(SMALL))
def test_the_previous_record_is_freed_before_the_velocity_update(monkeypatch, case, m):
    # the hook keeps only weak references, so the record's arrays live as
    # long as the run or the step holds them
    grid, tensor = SMALL[case]
    initials = _initials(grid, m)
    refs, alive = [], []
    update = dynamics._velocity_update

    def counted(*args):
        alive.append(sum(ref() is not None for ref in refs[-1]))
        return update(*args)

    monkeypatch.setattr(dynamics, "_velocity_update", counted)
    cfg = StepperConfig(dt=1e-3, t_end=3e-3, theta=0.3)
    Stepper(grid, cfg, ParameterSet(lam=0.5), tensor).run_ensemble(
        initials,
        each_step=lambda e, terms, sampled: refs.append([weakref.ref(a) for a in _record_arrays(terms)]),
    )
    assert len(refs) == 4 and alive == [0, 0, 0]


@pytest.mark.parametrize("case", sorted(SMALL))
def test_a_hook_that_keeps_every_record_gets_the_same_run(case):
    grid, tensor = SMALL[case]
    cfg = StepperConfig(dt=1e-3, t_end=4e-3, theta=0.3, output_every=2)
    initials = _initials(grid, 2)
    runs = []
    for keep in (True, False):
        seen = []  # each step's fields as bytes, and the record itself if kept
        stepper = Stepper(grid, cfg, ParameterSet(lam=0.5), tensor)
        trajectories = stepper.run_ensemble(initials, each_step=lambda e, terms, sampled: seen.append(
            ([a.tobytes() for a in (e.v, e.d, *_record_arrays(terms))], terms if keep else None)))
        runs.append((trajectories, seen))
    (kept, kept_seen), (dropped, dropped_seen) = runs
    assert [fields for fields, _ in kept_seen] == [fields for fields, _ in dropped_seen]
    for fields, terms in kept_seen:  # a kept record keeps its arrays as handed out
        assert [a.tobytes() for a in _record_arrays(terms)] == fields[2:]
    for a, b in zip(kept, dropped, strict=True):
        for name in vars(a.trace):
            assert getattr(a.trace, name).tobytes() == getattr(b.trace, name).tobytes(), name
        assert a.step_total_energy.tobytes() == b.step_total_energy.tobytes()


#: The fields one step holds at its peak above its input state and record,
#: from ``Stepper.step``, in vector fields of the ensemble (a gradient is dim
#: of them, a scalar 1/3), by the stage where the most are alive:
#:
#: - the new director's div(L : grad d) (``energetics.director_terms``): the
#:   director right-hand side, the new director, its grad d (dim), the flux
#:   L : grad d (dim; none for L = I, whose flux is grad d itself) and the
#:   divergence with its scratch (2), less the record's (grad v) d, freed
#:   once the right-hand side is formed (1): 3 + 2 dim, or 3 + dim for L = I;
#: - ``_stress_factors``: the right-hand side, the new director, its grad d
#:   (dim), div(L : grad d) and |d|^2 - 1 (4/3), q_half, the Ericksen force
#:   (dim/3), mu1 d . Dv d (1/3), alpha, w and their scratch (3), less the
#:   record's (grad v) d, div(L : grad d), |d|^2 - 1 and grad d, freed by
#:   then (7/3 + dim): 5 + (dim + 1)/3.
#:
#: Every other stage holds fewer: the director solve its one or two spectra
#: and the new director, the column loop 5 + (dim - 1)/3, and the velocity
#: update and the new record's strain less than the old record, all freed
#: before them.  On top of the fields come numpy's iteration buffers, at
#: most np.getbufsize() doubles for each of a ufunc's three operands, and
#: the step's Python objects.
PEAK_FIELDS = {"2d": max(3 + 2, 5 + 3 / 3), "3d": max(3 + 2 * 3, 5 + 4 / 3)}
#: The step's Python objects: the result, its record and their tuples and
#: energies, a few KiB.
PYTHON_OBJECTS = 16 << 10
LARGE = {"2d": (Grid.unit_box(64), ElasticTensor.isotropic(1.0)), "3d": (Grid.unit_box(16, dim=3), ANISO)}


@HANDOFF
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("case", sorted(LARGE))
def test_a_warm_step_peaks_within_the_fields_it_holds(case, m):
    grid, tensor = LARGE[case]
    stepper = Stepper(grid, StepperConfig(dt=1e-4, t_end=1.0, theta=0.3), ParameterSet(lam=0.5), tensor)
    e = Ensemble.of(_initials(grid, m))
    e, terms = stepper.step(e, stepper.terms(e))  # warm-up
    tracemalloc.start()
    try:
        e, terms = stepper.step(e, terms)  # an input state and record, traced
        base = tracemalloc.get_traced_memory()[0]
        held = [terms]  # handed over as the run hands it
        del terms
        stepper.step(e, held.pop())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    field = 3 * grid.cell_count * 8 * m
    bound = PEAK_FIELDS[case] * field + 3 * np.getbufsize() * 8 + PYTHON_OBJECTS
    assert peak <= bound, f"{peak / field:.2f} fields, bound {bound / field:.2f}"
