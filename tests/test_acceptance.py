"""Acceptance gate: one test per acceptance criterion, each printing a single
PASS/FAIL line with the measured quantities."""

import math
import time

import numpy as np
import pytest

import oracles
from leslie_sim.config import parse_config
from leslie_sim.dynamics import StepperConfig, run, stable_dt_bound
from leslie_sim.energetics import free_energy, variational_derivative
from leslie_sim.experiments import (
    convergence_study,
    energy_monitor,
    ibp_suite,
    weak_strong_campaign,
    weak_strong_experiment,
)
from leslie_sim.grid import Grid, VectorField
from leslie_sim.initial import InitialSpec, make_initial_state, smooth_vector_field
from leslie_sim.material import NON_PARODI_DEMO, PARODI_DEMO, ParameterSet, validate
from leslie_sim.snapshot import read_snapshot, write_snapshot
from leslie_sim.tensor import ElasticTensor

TENSOR = ElasticTensor.isotropic(1.0)

MU1 = "mu1 > 0"
MU4 = "mu4 > 0"
GAMMA = "gamma > 0"
DIRECTIONAL = "(mu5+mu6) - lambda*(mu2+mu3) > 0"
COUPLING = "4*gamma*((mu5+mu6) - lambda*(mu2+mu3)) > (gamma*(mu2+mu3) - lambda)^2"
EPSILON = "epsilon > 0"


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def _standard_initial(n=32, seed=1, amplitude=0.2):
    grid = Grid.unit_box(n)
    spec = InitialSpec(kind="perturbed", director=(0.0, 0.0, 1.0), seed=seed,
                       amplitude=amplitude, v_amplitude=amplitude)
    return grid, make_initial_state(grid, spec)


def test_criterion_1_parameter_gate(capsys):
    start = time.perf_counter()
    # 6 valid parameter sets and 6 invalid ones with hand-checked violation
    # lists.  A non-positive gamma or a non-positive directional coefficient
    # necessarily also breaks the strict coupling inequality, so those two
    # rows expect both entries.
    table = [
        (ParameterSet(), []),
        (NON_PARODI_DEMO, []),
        (ParameterSet(lam=0.0), []),
        (ParameterSet(lam=-1.0), []),
        (ParameterSet(mu2=0.0, mu3=0.0), []),
        (ParameterSet(gamma=2.0, epsilon=1e-3), []),
        (ParameterSet(mu1=-1.0), [MU1]),
        (ParameterSet(mu4=0.0), [MU4]),
        (ParameterSet(gamma=0.0), [GAMMA, COUPLING]),
        (ParameterSet(mu5=0.0, mu6=0.0), [DIRECTIONAL, COUPLING]),
        (ParameterSet(lam=-4.0), [COUPLING]),
        (ParameterSet(epsilon=0.0), [EPSILON]),
    ]
    mismatches = [
        (i, validate(p), expected)
        for i, (p, expected) in enumerate(table)
        if validate(p) != expected
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    _emit(capsys, 1, ok,
          f"12-case parameter table, {len(mismatches)} mismatches, {elapsed:.2f}s (< 1s)")


def test_criterion_2_variational_derivative_oracle(capsys):
    start = time.perf_counter()
    grid = Grid.unit_box(32)
    rng = np.random.default_rng(2)
    d = VectorField(
        grid,
        VectorField.constant(grid, (0.0, 0.0, 1.0)).values
        + 0.3 * smooth_vector_field(grid, rng).values,
    )
    eps = 0.1
    q = variational_derivative(d, TENSOR, eps)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        psi = smooth_vector_field(grid, rng)
        plus = free_energy(VectorField(grid, d.values + h * psi.values), TENSOR, eps)
        minus = free_energy(VectorField(grid, d.values - h * psi.values), TENSOR, eps)
        fd = (plus.total - minus.total) / (2.0 * h)
        pairing = oracles.inner(q, psi)
        worst = max(worst, abs(fd - pairing) / max(abs(fd), 1e-30))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    _emit(capsys, 2, ok,
          f"20 finite-difference directions, max rel err {worst:.3e} (<= 1e-5), "
          f"{elapsed:.1f}s (< 10s)")


def test_criterion_3_integration_by_parts(capsys):
    start = time.perf_counter()
    report = ibp_suite(ns=(16, 32), seeds=(0, 1, 2, 3, 4))
    elapsed = time.perf_counter() - start
    ok = report.max_residual <= 1e-12 and elapsed < 10.0
    _emit(capsys, 3, ok,
          f"discrete pairing identities, max rel residual {report.max_residual:.3e} "
          f"(<= 1e-12), {elapsed:.1f}s (< 10s)")


def test_criterion_4_energy_law(capsys):
    start = time.perf_counter()
    # theta = 0 keeps the recorded dissipation a lower bound on the actual
    # per-step energy drop for the whole resolved spectrum, so the residual
    # check is one-sided; dt is within the documented bound for theta = 0
    grid, initial = _standard_initial()
    cfg = StepperConfig(dt=5e-4, t_end=0.5, output_every=1, theta=0.0)
    assert cfg.dt <= stable_dt_bound(grid, TENSOR, PARODI_DEMO, cfg.theta)
    report = energy_monitor(grid, PARODI_DEMO, TENSOR, cfg, initial,
                            tol_energy=1e-6, tol_step=1e-10)
    elapsed = time.perf_counter() - start
    ok = (report.passed and report.cross_term_max == 0.0 and elapsed < 60.0)
    _emit(capsys, 4, ok,
          f"Parodi energy law: max residual {report.max_residual_rel:.3e} rel "
          f"(<= 1e-6), max step increase {report.max_step_increase_rel:.3e} rel "
          f"(<= 1e-10), max |cross| {report.cross_term_max:.3e} (== 0), "
          f"{elapsed:.1f}s (< 60s)")


def test_criterion_5_weak_strong_stability(capsys):
    start = time.perf_counter()
    grid, initial = _standard_initial()
    cfg = StepperConfig(dt=5e-4, t_end=0.5, output_every=10)

    # the reference and the four perturbed runs as one ensemble
    zero, *rest = weak_strong_campaign(grid, PARODI_DEMO, TENSOR, cfg, initial,
                                       seed=7, deltas=(0.0, 1e-2, 1e-3, 1e-4))
    f0 = free_energy(initial.d, TENSOR, PARODI_DEMO.epsilon).total
    zero_ok = zero.max_E <= 1e-12 * (1.0 + f0)

    max_es = [rep.max_E for rep in rest]
    cs = [rep.minimal_c for rep in rest]
    ratios = [max_es[0] / max_es[1], max_es[1] / max_es[2]]
    scaling_ok = (max_es[0] > max_es[1] > max_es[2]
                  and all(50.0 <= r <= 200.0 for r in ratios))
    c_ok = all(np.isfinite(c) and c >= 0.0 for c in cs)

    elapsed = time.perf_counter() - start
    ok = zero_ok and scaling_ok and c_ok and elapsed < 180.0
    _emit(capsys, 5, ok,
          f"delta=0 max E {zero.max_E:.3e} (<= {1e-12 * (1.0 + f0):.3e}); "
          f"ratios {ratios[0]:.1f}, {ratios[1]:.1f} (in [50, 200]); "
          f"minimal_c {', '.join('%.3g' % c for c in cs)} (finite); "
          f"{elapsed:.0f}s (< 180s)")


def test_criterion_6_absorption_inequality(capsys):
    start = time.perf_counter()
    grid, initial = _standard_initial()
    cfg = StepperConfig(dt=5e-4, t_end=0.5, output_every=10)
    rep = weak_strong_experiment(grid, NON_PARODI_DEMO, TENSOR, cfg, initial,
                                 seed=7, delta=1e-2)
    slack = rep.absorb_rhs - rep.cross_abs
    min_slack = float(np.min(slack))
    elapsed = time.perf_counter() - start
    ok = min_slack >= -1e-12 and elapsed < 120.0
    _emit(capsys, 6, ok,
          f"cross-term absorption at zeta: min slack {min_slack:.3e} "
          f"(>= -1e-12) over {len(slack)} samples, {elapsed:.0f}s (< 120s)")


def test_criterion_7_convergence(capsys, time_study):
    start = time.perf_counter()
    space = convergence_study("space")
    time_rep, time_s = time_study
    elapsed = time.perf_counter() - start + time_s
    ok = space.min_order >= 1.9 and time_rep.min_order >= 0.9 and elapsed < 120.0
    _emit(capsys, 7, ok,
          f"self-convergence of the coupled stepper in sqrt(E): space order {space.min_order:.2f} "
          f"(>= 1.9), time order {time_rep.min_order:.2f} (>= 0.9), "
          f"{elapsed:.0f}s (< 120s)")


def test_criterion_8_determinism_and_io(capsys, tmp_path):
    start = time.perf_counter()
    text = "[grid]\nn = 16\n[stepper]\ndt = 1e-3\nt_end = 0.02\n[initial]\nseed = 3\n"

    def trajectory():
        cfg = parse_config(text)
        return run(make_initial_state(cfg.grid, cfg.initial),
                   cfg.stepper, cfg.params, cfg.elastic)

    a, b = trajectory(), trajectory()
    deterministic = (
        np.array_equal(a.states[-1].v.values, b.states[-1].v.values)
        and np.array_equal(a.states[-1].d.values, b.states[-1].d.values)
        and np.array_equal(a.trace.total, b.trace.total)
    )

    state = a.states[-1]
    path = str(tmp_path / "state.snap")
    write_snapshot(state, path)
    back = read_snapshot(path)
    round_trip = (
        back.t == state.t
        and np.array_equal(back.v.values, state.v.values)
        and np.array_equal(back.d.values, state.d.values)
        and np.array_equal(back.p.values, state.p.values)
    )
    elapsed = time.perf_counter() - start
    ok = deterministic and round_trip and elapsed < 10.0
    _emit(capsys, 8, ok,
          f"bitwise-identical repeat runs: {deterministic}; snapshot round trip "
          f"bit-exact: {round_trip}; {elapsed:.1f}s (< 10s)")
