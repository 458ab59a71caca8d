"""The four benchmark workloads.

Each workload turns a seed into a config text, lets the library parse it and
build the initial state (the set-up), and then runs one job: the calls a
``leslie-sim`` subcommand makes, plus the checks on their outputs.  The
library only ever sees the generated config and the state it built itself.

The physics of each workload is fixed; the step counts set the size of one
job.  The step sizes were chosen from measured runs, not from
``stable_dt_bound``, because that bound is not sufficient (see NOTES.md and
tests/test_dt_bound.py).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from leslie_sim import config, dynamics, energetics, experiments, initial, snapshot

#: Criterion-4 tolerance on a per-step rise of the total energy, relative to E(0).
STEP_RISE_TOL = 1e-10

#: Explicit anisotropic tensor L = 1 d_ik d_jl + 0.5 d_ij d_kl + 0.25 d_il d_jk.
_EYE = np.eye(3)
ANISO_ENTRIES = (
    1.0 * np.einsum("ik,jl->ijkl", _EYE, _EYE)
    + 0.5 * np.einsum("ij,kl->ijkl", _EYE, _EYE)
    + 0.25 * np.einsum("il,jk->ijkl", _EYE, _EYE)
).ravel()


@dataclass
class JobResult:
    """What one job produced: named checks, a digest of its numerical
    outputs (for bitwise comparisons), and values compared with the stored
    reference."""

    checks: list = field(default_factory=list)  # (label, ok)
    digest: str = ""
    reference: dict = field(default_factory=dict)

    def check(self, label: str, ok) -> None:
        self.checks.append((label, bool(ok)))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _check_trace_csv(res: JobResult, path: str, columns: dict) -> None:
    back = snapshot.read_trace_csv(path)
    res.check(
        f"trace csv round trip {os.path.basename(path)}",
        all(np.array_equal(back[name], values) for name, values in columns.items()),
    )


def _check_snapshot(res: JobResult, path: str, state: dynamics.State) -> None:
    back = snapshot.read_snapshot(path)
    res.check(
        "snapshot round trip bit-exact",
        back.t == state.t
        and back.v.values.tobytes() == state.v.values.tobytes()
        and back.d.values.tobytes() == state.d.values.tobytes()
        and back.p.values.tobytes() == state.p.values.tobytes(),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n: int
    dt: float
    theta: float
    steps: int  # steps of one trajectory in one job
    output_every: int
    amplitude: float
    v_amplitude: float
    trajectories: int = 1  # distinct trajectories one job asks for
    material: str = ""  # [material] lines; empty means PARODI_DEMO, isotropic k=1

    @property
    def cells(self) -> int:
        return self.n**self.dim

    @property
    def work(self) -> int:
        """Requested cell-steps of one job."""
        return self.cells * self.steps * self.trajectories

    def config_text(self, seed: int) -> str:
        # the experiment seed is offset so that seed 1 gives the (1, 7) pair
        # of the criterion-5 acceptance test
        return (
            f"[grid]\ndim = {self.dim}\nn = {self.n}\n"
            f"[material]\n{self.material}"
            f"[stepper]\ndt = {self.dt!r}\nt_end = {self.steps * self.dt!r}\n"
            f"theta = {self.theta!r}\noutput_every = {self.output_every}\n"
            f"[initial]\nkind = perturbed\nseed = {seed}\n"
            f"amplitude = {self.amplitude!r}\nv_amplitude = {self.v_amplitude!r}\n"
            f"[experiment]\nseed = {seed + 6}\n"
        )

    def setup(self, seed: int):
        """Parse the generated config and build the initial state."""
        cfg = config.parse_config(self.config_text(seed))
        return cfg, initial.make_initial_state(cfg.grid, cfg.initial)

    def job(self, cfg, state, workdir: str) -> JobResult:
        raise NotImplementedError


class Simulate(Workload):
    """``leslie-sim simulate --trace --snapshots``: one trajectory, the
    energy-inequality residual, the trace CSV and one snapshot per sample."""

    def job(self, cfg, state, workdir):
        res = JobResult()
        traj = dynamics.run(state, cfg.stepper, cfg.params, cfg.elastic, forcing=cfg.forcing())
        residual = energetics.energy_inequality_residual(traj.trace, cfg.params)
        trace_path = os.path.join(workdir, "trace.csv")
        snapshot.write_trace_csv(trace_path, energy=traj.trace, residual=residual)
        paths = []
        for i, s in enumerate(traj.states):
            paths.append(os.path.join(workdir, f"state_{i:05d}.snap"))
            snapshot.write_snapshot(s, paths[-1])

        final = traj.states[-1]
        e = traj.step_total_energy
        res.check("final state finite", _all_finite(final.v.values, final.d.values, final.p.values))
        res.check("steps taken", len(e) == self.steps + 1)
        res.check(
            "per-step energy rise <= 1e-10 E(0)",
            float(np.max(np.diff(e), initial=0.0)) <= STEP_RISE_TOL * e[0],
        )
        _check_snapshot(res, paths[-1], final)
        _check_trace_csv(res, trace_path, {"t": traj.trace.t, "total": traj.trace.total,
                                           "residual_energy": residual})
        tr = traj.trace
        res.reference = {
            "kinetic": float(tr.kinetic[-1]),
            "elastic": float(tr.elastic[-1]),
            "penalty": float(tr.penalty[-1]),
            "total": float(tr.total[-1]),
        }
        res.digest = _digest([final.v.values, final.d.values, final.p.values, e, tr.total])
        return res


class EnergyLaw(Workload):
    """``leslie-sim energy-check --trace``: the criterion-4 energy monitor."""

    def job(self, cfg, state, workdir):
        res = JobResult()
        report = experiments.energy_monitor(
            cfg.grid, cfg.params, cfg.elastic, cfg.stepper, state,
            tol_energy=cfg.experiment.tol_energy, tol_step=cfg.experiment.tol_step,
            forcing=cfg.forcing(),
        )
        trace_path = os.path.join(workdir, "trace.csv")
        snapshot.write_trace_csv(trace_path, energy=report.trace, residual=report.residual)

        tr = report.trace
        res.check("energy trace finite", _all_finite(tr.total, report.residual))
        res.check("samples taken", len(tr.t) == self.steps + 1)
        res.check("energy_monitor passed", report.passed)
        res.check("Parodi cross term == 0", report.cross_term_max == 0.0)
        _check_trace_csv(res, trace_path, {"t": tr.t, "total": tr.total,
                                           "residual_energy": report.residual})
        res.reference = {
            "kinetic": float(tr.kinetic[-1]),
            "elastic": float(tr.elastic[-1]),
            "penalty": float(tr.penalty[-1]),
            "total": float(tr.total[-1]),
        }
        res.digest = _digest([tr.total, tr.diss_q, report.residual])
        return res


#: Perturbation sizes of the criterion-5 campaign; 0 must reproduce the reference.
DELTAS = (0.0, 1e-2, 1e-3, 1e-4)


class WeakStrong(Workload):
    """``leslie-sim compare --trace`` once per delta: the criterion-5
    weak-strong campaign, with its scaling and Gronwall verdicts."""

    def job(self, cfg, state, workdir):
        res = JobResult()
        exp = cfg.experiment
        reports = []
        for i, delta in enumerate(DELTAS):
            rep = experiments.weak_strong_experiment(
                cfg.grid, cfg.params, cfg.elastic, cfg.stepper, state,
                seed=exp.seed, delta=delta, c=exp.gronwall_c, forcing=cfg.forcing(),
            )
            path = os.path.join(workdir, f"compare_{i}.csv")
            snapshot.write_trace_csv(path, relative=rep.trace)
            _check_trace_csv(res, path, {"t": rep.trace.t, "E": rep.trace.E,
                                         "bound": rep.trace.bound})
            reports.append(rep)

        f0 = energetics.free_energy(state.d, cfg.elastic, cfg.params.epsilon).total
        zero, *rest = reports
        max_es = [r.max_E for r in rest]
        ratios = [max_es[0] / max_es[1], max_es[1] / max_es[2]]
        res.check("relative traces finite", _all_finite(*(r.trace.E for r in reports)))
        res.check("samples taken", all(len(r.trace.t) == len(zero.trace.t) for r in reports))
        res.check("delta=0 max E <= 1e-12 (1 + F0)", zero.max_E <= 1e-12 * (1.0 + f0))
        res.check("max E decreasing in delta", max_es[0] > max_es[1] > max_es[2])
        for j, r in enumerate(ratios):
            res.check(f"max E ratio {j} in [50, 200]", 50.0 <= r <= 200.0)
        for delta, rep in zip(DELTAS, reports):
            res.check(f"delta={delta:g} bound satisfied", rep.bound_satisfied)
            res.check(f"delta={delta:g} minimal_c finite", math.isfinite(rep.minimal_c))

        for delta, rep in zip(DELTAS[1:], rest):
            res.reference[f"max_E delta={delta:g}"] = float(rep.max_E)
            res.reference[f"final_E delta={delta:g}"] = float(rep.trace.E[-1])
            res.reference[f"minimal_c delta={delta:g}"] = float(rep.minimal_c)
        res.digest = _digest(
            [a for r in reports for a in (r.trace.E, r.trace.W, r.trace.K, r.trace.bound)]
        )
        return res


#: NON_PARODI_DEMO: lambda = 0.5, every other coefficient at its default.
_NON_PARODI = "lambda = 0.5\n"

WORKLOADS = {
    w.name: w
    for w in (
        Simulate(
            name="sim-2d-n128", dim=2, n=128, dt=5e-5, theta=0.3, steps=40,
            output_every=20, amplitude=0.1, v_amplitude=0.1, material=_NON_PARODI,
        ),
        Simulate(
            name="aniso-3d-n32", dim=3, n=32, dt=5e-4, theta=0.3, steps=20,
            output_every=10, amplitude=0.1, v_amplitude=0.1,
            material=_NON_PARODI + "elastic = explicit\nelastic_entries = "
            + " ".join(repr(float(x)) for x in ANISO_ENTRIES) + "\n",
        ),
        EnergyLaw(
            name="energy-law-2d-n32", dim=2, n=32, dt=5e-4, theta=0.0, steps=200,
            output_every=1, amplitude=0.2, v_amplitude=0.2,
        ),
        WeakStrong(
            name="weak-strong-2d-n32", dim=2, n=32, dt=5e-4, theta=0.3, steps=50,
            output_every=10, amplitude=0.2, v_amplitude=0.2,
            trajectories=len(DELTAS) + 1,
        ),
    )
}
