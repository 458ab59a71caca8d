"""Verification campaigns: weak-strong stability comparison, energy-law
monitoring, discrete integration-by-parts checks, and self-convergence
studies of the coupled stepper in the relative energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dynamics
from . import energetics as en
from . import grid as g
from .grid import Grid, VectorField
from .initial import InitialSpec, divfree_smooth_field, make_initial_state, smooth_vector_field
from .material import NON_PARODI_DEMO, ParameterSet
from .tensor import ElasticTensor


@dataclass(frozen=True)
class ExperimentConfig:
    """The ``[experiment]`` settings; the campaigns' keyword defaults."""

    gronwall_c: float = 1.0
    tol_energy: float = 1e-6
    tol_step: float = 1e-10
    delta: float = 1e-3
    seed: int = 7

    def __post_init__(self):
        # one check per field, so that a config error names its key's line
        for name in ("gronwall_c", "tol_energy", "tol_step", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"experiment {name} must be finite and >= 0, got {value}")
            if value < 0:
                raise ValueError(f"experiment {name} must be >= 0, got {value}")
        object.__setattr__(self, "seed", g.whole(self.seed, "experiment seed", 0))


# ---------------------------------------------------------------------------
# weak-strong stability comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    delta0: float
    trace: en.RelativeTrace  # the rows of the sampled steps
    minimal_c: float
    bound_satisfied: bool
    max_E: float  # over every step
    # per-sample data for the absorption inequality check
    cross_abs: np.ndarray  # |cross_coeff * (q - qr, Dv d - Dvr dr)|
    absorb_rhs: np.ndarray  # zeta * (gamma |q - qr|^2 + M |Dv d - Dvr dr|^2)

    @property
    def E0(self) -> float:
        return float(self.trace.E[0])

    @property
    def max_E_over_E0(self) -> float:
        """max E / E0: 0 when E vanishes throughout, inf when only E0 does."""
        E0, max_E = self.E0, self.max_E
        return max_E / E0 if E0 > 0.0 else math.inf if max_E > 0.0 else 0.0


def weak_strong_campaign(
    grid: Grid,
    p: ParameterSet,
    tensor: ElasticTensor,
    cfg: dynamics.StepperConfig,
    initial: dynamics.State,
    seed: int = ExperimentConfig.seed,
    deltas=(ExperimentConfig.delta,),
    c: float = ExperimentConfig.gronwall_c,
    forcing: VectorField | None = None,
) -> list:
    """Run a reference trajectory and one delta-perturbed trajectory per
    entry of ``deltas`` as one ensemble; compare each with the reference.

    The reference trajectory plays the role of the well-resolved smooth run;
    the perturbed trajectory starts from (v0 + delta xi_v, d0 + delta xi_d)
    with xi_v discretely divergence-free and xi_d mean-zero smooth, drawn
    once from ``seed``.  Returns one report per delta: the relative-energy
    trace, the Gronwall bound at the supplied constant c, and the minimal
    empirical constant making the bound hold.  Each member of the ensemble
    evolves as it does alone, so a report equals that of a campaign with
    its delta alone.

    The time rules hold at every step, not at the samples.  E and the
    Gronwall integrand K are taken at every step, with dt dr the
    reference's (d^{n+1} - d^n) / dt, at the last step the one before (zero
    in a run of no steps); int K is the trapezoid rule over every step; the
    bound E <= E(0) exp(c int K), ``minimal_c`` and ``max_E`` hold over every
    step.  W and the absorption terms are taken at ``cfg.samples``, the
    trace's rows, so ``cfg.output_every`` only thins the rows.  Everything
    is read from each step's record (``dynamics.StateTerms``) by the run's
    one hook, and only the reference's last director is kept.  ``grid``
    must be the initial state's, and ``deltas`` must not be empty.  Invalid
    parameters raise InvalidParameters from the stepper; a non-finite
    initial run raises InitialStateError, one that turns non-finite
    SimulationError, and one whose projection misses its target
    ProjectionError, naming it: the reference or the perturbed one with its
    delta.
    """
    if grid != initial.v.grid:
        raise ValueError("grid must be the grid of the initial state")
    if len(deltas) == 0:
        raise ValueError("deltas must hold at least one perturbation size")
    rng = np.random.default_rng(seed)
    xi_d = smooth_vector_field(grid, rng)
    xi_v = divfree_smooth_field(grid, rng)
    members = [initial] + [
        dynamics.State.initial(
            VectorField(grid, initial.v.values + delta * xi_v.values),
            VectorField(grid, initial.d.values + delta * xi_d.values),
            t=initial.t,
        )
        for delta in deltas
    ]
    # rates: |dt dr|_L3 of each step but the last, from the reference's last director
    steps, rates, at_samples, last_dr = [], [], [], []

    def each_step(e, terms, sampled):
        if last_dr:
            rates.append(en.l3_norms(grid, e.d[:1] - last_dr.pop())[0] / cfg.dt)
        last_dr.append(e.d[:1])
        steps.append(en.relative_step_terms(grid, p, tensor, e.v, e.d, terms))
        if sampled:
            q = en.variational_q(e.d, terms.dev, terms.lap, p.epsilon)
            at_samples.append(en.relative_dissipations(grid, p, terms.grad_v, q, *terms.strain[1:]))

    try:
        traj = dynamics.Stepper(grid, cfg, p, tensor, forcing).run_ensemble(members, each_step)[0]
    except (dynamics.SimulationError, dynamics.ProjectionError, dynamics.InitialStateError) as exc:
        # the FAIL line names the run, not its index in the ensemble
        if exc.member is not None:
            run = ("the reference run" if exc.member == 0
                   else f"the perturbed run with delta = {deltas[exc.member - 1]:g}")
            exc.args = (str(exc).replace(f"member {exc.member}", run),)
        raise
    rates.append(rates[-1] if rates else 0.0)  # the last step's is the step before's
    E, w, s = np.stack(steps, axis=-1)
    K = w * (s + np.array(rates))
    W, cross_abs, absorb_rhs = np.stack(at_samples, axis=-1)
    rows = cfg.samples(initial.t)
    return [_comparison(delta, traj.step_times, E[k], K[k], c, rows, W[k], cross_abs[k], absorb_rhs[k])
            for k, delta in enumerate(deltas)]


def _comparison(delta, ts, E, K, c, rows, W, cross_abs, absorb_rhs) -> ComparisonReport:
    """One report: E and K at every step ``ts``, the others at ``rows``."""
    int_K = en._cumtrapz(ts, K)
    E0 = E[0]
    bound = E0 * np.exp(c * int_K)
    bound_satisfied = bool(np.all(E <= bound * (1.0 + 1e-12) + 1e-300))

    # minimal c with E(t) <= E0 exp(c int K-hat): only growth above E0 matters
    minimal_c = 0.0
    if E0 > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.log(E[1:] / E0) / int_K[1:]
        ratios = ratios[np.isfinite(ratios)]
        if ratios.size:
            minimal_c = max(0.0, float(ratios.max()))
    elif np.any(E > 0.0):
        minimal_c = math.inf

    return ComparisonReport(
        delta0=delta,
        trace=en.RelativeTrace(t=ts[rows], E=E[rows], W=W, K=c * K[rows], bound=bound[rows]),
        minimal_c=minimal_c,
        bound_satisfied=bound_satisfied,
        max_E=float(E.max()),
        cross_abs=cross_abs,
        absorb_rhs=absorb_rhs,
    )


def weak_strong_experiment(
    grid: Grid,
    p: ParameterSet,
    tensor: ElasticTensor,
    cfg: dynamics.StepperConfig,
    initial: dynamics.State,
    seed: int = ExperimentConfig.seed,
    delta: float = ExperimentConfig.delta,
    c: float = ExperimentConfig.gronwall_c,
    forcing: VectorField | None = None,
) -> ComparisonReport:
    """The campaign of :func:`weak_strong_campaign` with the one ``delta``."""
    return weak_strong_campaign(grid, p, tensor, cfg, initial, seed, (delta,), c, forcing)[0]


# ---------------------------------------------------------------------------
# energy-law monitor
# ---------------------------------------------------------------------------

def _run_every_step(initial, cfg, p, tensor, forcing=None, allow_invalid=False, each_step=lambda *_: None):
    """The run of ``initial`` sampled at every step, so that the energy-
    inequality residual integrates over every step: the trajectory, its
    residual, and their rows at ``cfg.samples``, the steps ``each_step``
    sees as sampled.  The run always has a hook, so it keeps no state."""
    rows = cfg.samples(initial.t)
    sampled = iter(np.isin(np.arange(rows[-1] + 1), rows).tolist())
    traj = dynamics.run(initial, replace(cfg, output_every=1), p, tensor, forcing, allow_invalid,
                        lambda e, terms, _: each_step(e, terms, next(sampled)))
    residual = en.energy_inequality_residual(traj.trace, p)
    trace = en.EnergyTrace(*(getattr(traj.trace, f.name)[rows] for f in fields(en.EnergyTrace)))
    return traj, residual, trace, residual[rows]


@dataclass
class EnergyReport:
    passed: bool
    trace: en.EnergyTrace
    residual: np.ndarray
    max_residual_rel: float
    max_step_increase_rel: float
    cross_term_max: float


def energy_monitor(
    grid: Grid,
    p: ParameterSet,
    tensor: ElasticTensor,
    cfg: dynamics.StepperConfig,
    initial: dynamics.State,
    tol_energy: float = ExperimentConfig.tol_energy,
    tol_step: float = ExperimentConfig.tol_step,
    forcing: VectorField | None = None,
) -> EnergyReport:
    """Run one trajectory and check the discrete energy law.

    Pass requires (a) the per-step total energy non-increasing within
    tol_step * E(0) and (b) the energy-inequality residual below
    tol_energy * E(0) at every step.  The trajectory is sampled at every
    step (:func:`_run_every_step`), so that the residual integrates the
    dissipation over every step whatever ``cfg.output_every``; that only
    selects the rows of the report's trace and residual, the steps of
    ``cfg.samples``.  ``grid`` must be the initial state's.
    """
    if grid != initial.v.grid:
        raise ValueError("grid must be the grid of the initial state")
    traj, residual, trace, sampled_residual = _run_every_step(initial, cfg, p, tensor, forcing)
    e0 = traj.trace.total[0]
    scale = max(e0, 1e-300)
    step_increase = float(np.max(np.diff(traj.step_total_energy), initial=0.0))
    max_res = float(residual.max())
    passed = step_increase <= tol_step * scale and max_res <= tol_energy * scale
    return EnergyReport(
        passed=passed,
        trace=trace,
        residual=sampled_residual,
        max_residual_rel=max_res / scale,
        max_step_increase_rel=step_increase / scale,
        cross_term_max=float(np.max(np.abs(traj.trace.cross_term))),
    )


# ---------------------------------------------------------------------------
# the tensor shared by criteria 3 and 7
# ---------------------------------------------------------------------------

#: Elastic stiffness of the isotropic tensor of both criteria.
K_ISO = 1.0
#: The elasticity tensor of the integration-by-parts suite and of the
#: convergence study.
TENSOR = ElasticTensor.isotropic(K_ISO)


# ---------------------------------------------------------------------------
# discrete integration-by-parts suite
# ---------------------------------------------------------------------------

def _l2_norm(grid: Grid, a: np.ndarray) -> float:
    return math.sqrt(float(np.vdot(a, a)) * grid.cell_volume)


def _smooth_members(grid: Grid, rng, count: int) -> np.ndarray:
    """``count`` smooth random vector fields drawn in turn, as members
    (count, 3) + grid.shape."""
    return np.array([smooth_vector_field(grid, rng).values for _ in range(count)])


@dataclass
class IbpReport:
    rows: list
    max_residual: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= 1e-12


def ibp_suite(ns=(16, 32), seeds=(0, 1, 2, 3, 4)) -> IbpReport:
    """Three discrete analogues of the pairing identities, on periodic grids:

    (a) time product rule for (v, vr) by telescoping over steps,
    (b) (grad d ; L : grad dr) against the two adjoint-pairing forms,
    (c) (|d|^2, |dr|^2) product rule with the exact two-point chain rule,

    and the summation by parts (div A, phi) = -(A : grad phi) that underlies
    them, all with the stepper's kernels on component-major member arrays.
    All residuals are relative and must be at rounding level.
    """
    n_steps = 6
    rows = []
    for n in ns:
        grid = Grid.unit_box(n, dim=2)

        def pair(a, b):
            """L^2 pairing of equally shaped component-major arrays."""
            return float(np.vdot(a, b)) * grid.cell_volume

        for seed in seeds:
            rng = np.random.default_rng(seed)

            def row(check, residual):
                rows.append({"n": n, "seed": seed, "check": check, "residual": residual})

            # (a) temporal telescoping for the velocity pairing
            v, vr = _smooth_members(grid, rng, n_steps), _smooth_members(grid, rng, n_steps)
            lhs = pair(v[-1], vr[-1]) - pair(v[0], vr[0])
            rhs = sum(pair(v[k + 1] - v[k], vr[k + 1]) + pair(v[k], vr[k + 1] - vr[k])
                      for k in range(n_steps - 1))
            row("time_product_rule", abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

            # (b) elastic pairing vs the adjoint Laplacian forms: member 0 is
            # d, member 1 is dr
            d = _smooth_members(grid, rng, 2)
            grad, flux, lap, _ = en.director_terms(grid, TENSOR, d)
            pairing = pair(grad[0], flux[1])
            scale = max(abs(pairing), 1e-300)
            row("elastic_pairing_right", abs(pairing + pair(d[0], lap[1])) / scale)
            row("elastic_pairing_left", abs(pairing + pair(lap[0], d[1])) / scale)

            # (c) |d|^2 product rule with two-point chain rule; |d+|^2 - |d|^2
            # = (d+ + d) . (d+ - d), exactly
            d, dr = _smooth_members(grid, rng, n_steps), _smooth_members(grid, rng, n_steps)
            sq, sq_r = np.sum(d**2, axis=1), np.sum(dr**2, axis=1)
            mid = np.sum((d[1:] + d[:-1]) * (d[1:] - d[:-1]), axis=1)
            mid_r = np.sum((dr[1:] + dr[:-1]) * (dr[1:] - dr[:-1]), axis=1)
            lhs = pair(sq[-1], sq_r[-1]) - pair(sq[0], sq_r[0])
            rhs = sum(pair(mid[k], sq_r[k + 1]) + pair(sq[k], mid_r[k]) for k in range(n_steps - 1))
            row("square_product_rule", abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

            # spatial summation-by-parts core: A_ij is component i of the j-th
            # field, and on a 2D grid only its columns j < 2 pair with grad phi
            a = np.swapaxes(_smooth_members(grid, rng, 3), 0, 1)
            phi = _smooth_members(grid, rng, 1)[0]
            grad_phi = g.gradient_components(grid, phi)
            residual = abs(pair(g.divergence_components(grid, a), phi)
                           + pair(a[:, : grid.dim], grad_phi))
            row("divergence_adjoint", residual / max(_l2_norm(grid, a) * _l2_norm(grid, grad_phi), 1e-300))

    return IbpReport(rows=rows, max_residual=max(r["residual"] for r in rows))


# ---------------------------------------------------------------------------
# self-convergence study of the coupled stepper
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    mode: str
    levels: list
    errors: list
    orders: list

    @property
    def min_order(self) -> float:
        return min(self.orders)


def _final_state(grid: Grid, dt: float, t_end: float) -> tuple:
    """Final velocity and director of the study's run on ``grid``, as
    one-member component-major arrays (1, 3) + grid.shape."""
    initial = make_initial_state(grid, InitialSpec("perturbed", seed=1, amplitude=0.2, v_amplitude=0.2))
    cfg = dynamics.StepperConfig(dt=dt, t_end=t_end, output_every=int(round(t_end / dt)), theta=0.3)
    samples = []
    dynamics.run(initial, cfg, NON_PARODI_DEMO, TENSOR,
                 each_step=lambda e, terms, sampled: samples.append(e) if sampled else None)
    return samples[-1].v, samples[-1].d


def _block_mean(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Member arrays (m, 3) + shape on a grid with an integer multiple of the
    cells of ``grid`` per axis, averaged over each block of cells onto
    ``grid``, whose cell centres are the block centres."""
    shape = a.shape[:2] + sum(((n, fine // n) for n, fine in zip(grid.n, a.shape[2:])), ())
    return a.reshape(shape).mean(axis=tuple(range(3, len(shape), 2)))


def convergence_study(mode: str) -> ConvergenceReport:
    """Observed orders of the coupled stepper (:func:`dynamics.run`) by
    self-convergence: NON_PARODI_DEMO, whose nonzero cross coefficient
    exercises every stress channel, the isotropic ``TENSOR`` and theta = 0.3,
    from the same perturbed state on every grid.  Each error is sqrt(E), E
    the relative energy (:func:`energetics.relative_energies`) of a final
    state against the next finer one, the reference.

    Space: n = 32, 64, 128 at dt = 5e-5 to t = 0.01, each finer solution
    averaged onto the coarser grid (:func:`_block_mean`); the leading time
    error cancels between grids that share a dt.  Time: n = 32 to t = 0.05
    at dt = 5e-4 / 2^k, k = 0 .. 3.
    """
    if mode == "space":
        levels, t_end = [32, 64, 128], 0.01
        runs = [(Grid.unit_box(n, dim=2), 5e-5) for n in levels]
    elif mode == "time":
        levels, t_end = [5e-4 / 2**k for k in range(4)], 0.05
        runs = [(Grid.unit_box(32, dim=2), dt) for dt in levels]
    else:
        raise ValueError(f"unknown convergence mode {mode!r}")
    finals = [_final_state(grid, dt, t_end) for grid, dt in runs]
    errors = []
    for (grid, _), coarse, fine in zip(runs, finals, finals[1:]):
        v, d = (np.concatenate([_block_mean(grid, f), c]) for f, c in zip(fine, coarse))
        E = en.relative_energies(grid, TENSOR, NON_PARODI_DEMO.epsilon, v, d, np.sum(d * d, axis=1))
        errors.append(math.sqrt(float(E[0])))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return ConvergenceReport(mode=mode, levels=levels, errors=errors, orders=orders)
