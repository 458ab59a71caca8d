"""A run keeps its heap between steps: building a Stepper pins glibc's mmap
and trim thresholds (``dynamics._keep_heap``), so a warm run faults in
almost no pages, and where the C library cannot be loaded the Stepper runs
as before."""

import ctypes
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from leslie_sim.dynamics import StepperConfig, run
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
from leslie_sim.dynamics import StepperConfig, run
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
