import json
import os
import subprocess
import sys

import numpy as np
import pytest

import run
from leslie_sim.material import NON_PARODI_DEMO, PARODI_DEMO
from leslie_sim.tensor import ElasticTensor
from workloads import ANISO_ENTRIES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ISO = ElasticTensor.isotropic(1.0).entries.ravel()

# name: (dim, n, params, tensor entries, theta, dt, output_every, amplitude)
PHYSICS = {
    "sim-2d-n128": (2, 128, NON_PARODI_DEMO, ISO, 0.3, 5e-5, 20, 0.1),
    "aniso-3d-n32": (3, 32, NON_PARODI_DEMO, ANISO_ENTRIES, 0.3, 5e-4, 10, 0.1),
    "energy-law-2d-n32": (2, 32, PARODI_DEMO, ISO, 0.0, 5e-4, 1, 0.2),
    "weak-strong-2d-n32": (2, 32, PARODI_DEMO, ISO, 0.3, 5e-4, 10, 0.2),
}


@pytest.mark.parametrize("name", sorted(PHYSICS))
def test_generated_config_has_the_workload_physics(name):
    wl = WORKLOADS[name]
    dim, n, params, entries, theta, dt, output_every, amplitude = PHYSICS[name]
    cfg, _ = wl.setup(seed=1)
    assert cfg.grid.n == (n,) * dim
    assert cfg.params == params
    assert np.array_equal(cfg.elastic.entries.ravel(), entries)
    assert (cfg.stepper.theta, cfg.stepper.dt, cfg.stepper.output_every) == (theta, dt, output_every)
    assert round(cfg.stepper.t_end / cfg.stepper.dt) == wl.steps
    assert (cfg.initial.kind, cfg.initial.seed, cfg.initial.amplitude) == ("perturbed", 1, amplitude)
    assert cfg.experiment.seed == 7


def test_seed_reproduces_bitwise_and_another_seed_changes_the_data(tmp_path):
    wl = WORKLOADS["energy-law-2d-n32"]
    cfg_a, state_a = wl.setup(seed=3)
    cfg_b, state_b = wl.setup(seed=3)
    _, state_c = wl.setup(seed=4)
    assert state_a.v.values.tobytes() == state_b.v.values.tobytes()
    assert state_a.d.values.tobytes() == state_b.d.values.tobytes()
    assert not np.array_equal(state_a.d.values, state_c.d.values)
    assert not np.array_equal(state_a.v.values, state_c.v.values)

    first = wl.job(cfg_a, state_a, str(tmp_path))
    second = wl.job(cfg_b, state_b, str(tmp_path))
    assert all(ok for _, ok in first.checks)
    assert first.digest == second.digest


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_reference_values_cover_every_workload():
    with open(os.path.join(run.HERE, "reference.json"), encoding="ascii") as fh:
        assert sorted(json.load(fh)) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_as_its_last_line(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "energy-law-2d-n32",
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(names)
    assert "process threads 1," in done.stdout
