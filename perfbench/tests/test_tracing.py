import numpy as np
import pytest

import leslie_sim
from leslie_sim import dynamics, energetics, grid
from leslie_sim.config import parse_config
from leslie_sim.initial import make_initial_state
from leslie_sim.tensor import ElasticTensor
from tracing import Span, Tracer, self_times

TINY = "[grid]\nn = 8\n[stepper]\ndt = 1e-4\nt_end = 3e-4\noutput_every = 3\n[initial]\nseed = 2\n"


def test_self_time_on_hand_built_tree():
    #  root [0, 10]
    #  +- a [1, 4]      +- a1 [2, 3]
    #  +- b [5, 9]      +- b1 [5, 6], b2 [7, 9]
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a1", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
        Span("b1", 5.0, 6.0, 3, "r"),
        Span("b2", 7.0, 9.0, 3, "r"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("p", 0.0, 10.0, -1, "r"),
        Span("c1", 1.0, 5.0, 0, "r"),
        Span("c2", 3.0, 7.0, 0, "r"),
        Span("c3", 4.0, 6.0, 0, "r"),
        Span("c4", 9.0, 12.0, 0, "r"),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_restores_every_attribute():
    before = (dynamics.run, leslie_sim.run, grid.gradient_vec, energetics.free_energy,
              dynamics.free_energy, dynamics.Stepper.step, ElasticTensor.apply,
              ElasticTensor.__dict__["from_entries"], np.fft.fftn)
    with Tracer():
        assert dynamics.run is not before[0]
        assert dynamics.free_energy is energetics.free_energy
        assert np.fft.fftn is not before[-1]
    after = (dynamics.run, leslie_sim.run, grid.gradient_vec, energetics.free_energy,
             dynamics.free_energy, dynamics.Stepper.step, ElasticTensor.apply,
             ElasticTensor.__dict__["from_entries"], np.fft.fftn)
    assert all(x is y for x, y in zip(before, after))


def test_traced_run_is_bitwise_equal_and_counted():
    cfg = parse_config(TINY)
    state = make_initial_state(cfg.grid, cfg.initial)
    plain = dynamics.run(state, cfg.stepper, cfg.params, cfg.elastic)
    tracer = Tracer()
    tracer.run_id = "job"
    with tracer:
        traced = dynamics.run(state, cfg.stepper, cfg.params, cfg.elastic)
    assert traced.states[-1].d.values.tobytes() == plain.states[-1].d.values.tobytes()
    assert traced.step_total_energy.tobytes() == plain.step_total_energy.tobytes()

    job = tracer.per_run()["job"]
    assert job["dynamics.run.calls"] == 1
    assert job["dynamics.step.calls"] == 3
    assert job["dynamics.fft.calls"] == 6 * 3  # director, Helmholtz, projection
    assert job["dynamics.fft.bytes_computed"] == 3 * (2 * 8 * 8 * 3 * 8 + 2 * 8 * 8 * 3 * 16
                                                      + 8 * 8 * 8 + 8 * 8 * 16)
    spans = tracer.finished_spans()
    assert all(s.run_id == "job" and s.end >= s.start for s in spans)
    assert sum(self_times(spans)) == pytest.approx(
        sum(s.end - s.start for s in spans if s.parent < 0))
