"""Verification campaigns: weak-strong stability comparison, energy-law
monitoring, discrete integration-by-parts checks, and manufactured-solution
convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from . import energetics as en
from . import grid as g
from .grid import Grid, ScalarField, TensorField, VectorField
from .initial import divfree_smooth_field, smooth_vector_field
from .material import ParameterSet, require_valid
from .tensor import ElasticTensor


# ---------------------------------------------------------------------------
# weak-strong stability comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    delta0: float
    trace: en.RelativeTrace
    minimal_c: float
    bound_satisfied: bool
    max_E_over_E0: float
    E0: float
    max_E: float
    # per-sample data for the absorption inequality check
    cross_abs: np.ndarray  # |cross_coeff * (q - qr, Dv d - Dvr dr)|
    absorb_rhs: np.ndarray  # zeta * (gamma |q - qr|^2 + M |Dv d - Dvr dr|^2)


@dataclass
class _Sample:
    """A sampled ensemble's time and C-contiguous component-major member
    velocities and directors (m, 3) + grid.shape."""

    t: float
    v: np.ndarray
    d: np.ndarray


def _relative_column(grid: Grid, p: ParameterSet, contraction: tuple, lo: _Sample, at: _Sample,
                     hi: _Sample) -> np.ndarray:
    """E, W, K (at c = 1), |cross_coeff (q - qr, Dv d - Dvr dr)| and the
    absorption bound of each member after the first against the reference,
    member 0, at the sample ``at``: shape (5, m - 1), from
    :func:`energetics.relative_terms`.  dt dr is the difference quotient of
    the reference between the samples ``lo`` and ``hi`` -- centred, or
    one-sided at an end, where one of them is ``at`` -- and zero when ``lo``
    is ``hi``, a lone sample."""
    if lo is hi:
        dt_d = np.zeros(grid.shape + (3,))
    else:
        dt_d = np.subtract(g.nodal(hi.d[0]), g.nodal(lo.d[0]), order="C")
        dt_d /= hi.t - lo.t
    return en.relative_terms(grid, p, contraction, at.v, at.d, dt_d)


def weak_strong_campaign(
    grid: Grid,
    p: ParameterSet,
    tensor: ElasticTensor,
    cfg: dynamics.StepperConfig,
    initial: dynamics.State,
    seed: int = 7,
    deltas=(1e-3,),
    c: float = 1.0,
    forcing=None,
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

    The relative terms are evaluated while the ensemble runs, from a window
    of the last three samples (the centred difference quotient of the
    reference director needs the samples on both sides), so no sampled
    state is kept and memory is flat in trajectory length.
    """
    require_valid(p)
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
    # the relative terms of sample i are taken when sample i + 1 arrives, and
    # those of the last sample after the run, so a window of three samples
    # (i - 1, i, i + 1) serves the centred dt dr
    contraction = tensor.sparse_contraction(grid.dim)
    window, columns = [], []

    def observe(e):
        window.append(_Sample(e.t, np.ascontiguousarray(e.v), np.ascontiguousarray(e.d)))
        if len(window) > 1:
            columns.append(_relative_column(grid, p, contraction, window[0], window[-2], window[-1]))
            del window[:-2]

    traj = dynamics.run_ensemble(members, cfg, p, tensor, forcing=forcing, observer=observe)[0]
    columns.append(_relative_column(grid, p, contraction, window[0], window[-1], window[-1]))
    series = np.stack(columns, axis=-1)
    return [_comparison(delta, traj.trace.t, *series[:, k], c) for k, delta in enumerate(deltas)]


def _comparison(delta, ts, E, W, K, cross_abs, absorb_rhs, c) -> ComparisonReport:
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

    trace = en.RelativeTrace(t=ts, E=E, W=W, K=c * K, bound=bound)
    max_E = float(E.max())
    return ComparisonReport(
        delta0=delta,
        trace=trace,
        minimal_c=minimal_c,
        bound_satisfied=bound_satisfied,
        max_E_over_E0=(max_E / E0 if E0 > 0.0 else math.inf if max_E > 0.0 else 0.0),
        E0=E0,
        max_E=max_E,
        cross_abs=cross_abs,
        absorb_rhs=absorb_rhs,
    )


def weak_strong_experiment(
    grid: Grid,
    p: ParameterSet,
    tensor: ElasticTensor,
    cfg: dynamics.StepperConfig,
    initial: dynamics.State,
    seed: int = 7,
    delta: float = 1e-3,
    c: float = 1.0,
    forcing=None,
) -> ComparisonReport:
    """The campaign of :func:`weak_strong_campaign` with the one ``delta``."""
    return weak_strong_campaign(grid, p, tensor, cfg, initial, seed, (delta,), c, forcing)[0]


# ---------------------------------------------------------------------------
# energy-law monitor
# ---------------------------------------------------------------------------

def _keep_nothing(sample) -> None:
    """An observer for a run whose sampled states nothing reads."""


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
    tol_energy: float = 1e-6,
    tol_step: float = 1e-10,
    forcing=None,
) -> EnergyReport:
    """Run one trajectory and check the discrete energy law.

    Pass requires (a) the per-step total energy non-increasing within
    tol_step * E(0) and (b) the energy-inequality residual below
    tol_energy * E(0) at every sample time.
    """
    traj = dynamics.run(initial, cfg, p, tensor, forcing=forcing, observer=_keep_nothing)
    residual = en.energy_inequality_residual(traj.trace, p)
    e0 = traj.trace.total[0]
    scale = max(e0, 1e-300)
    step_increase = float(np.max(np.diff(traj.step_total_energy), initial=0.0))
    max_res = float(residual.max())
    passed = step_increase <= tol_step * scale and max_res <= tol_energy * scale
    return EnergyReport(
        passed=passed,
        trace=traj.trace,
        residual=residual,
        max_residual_rel=max_res / scale,
        max_step_increase_rel=step_increase / scale,
        cross_term_max=float(np.max(np.abs(traj.trace.cross_term))),
    )


# ---------------------------------------------------------------------------
# discrete integration-by-parts suite
# ---------------------------------------------------------------------------

@dataclass
class IbpReport:
    rows: list
    max_residual: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= 1e-12


def ibp_suite(ns=(16, 32), seeds=(0, 1, 2, 3, 4), tensor: ElasticTensor | None = None) -> IbpReport:
    """Three discrete analogues of the pairing identities, on periodic grids:

    (a) time product rule for (v, vr) by telescoping over steps,
    (b) (grad d ; L : grad dr) against the two adjoint-pairing forms,
    (c) (|d|^2, |dr|^2) product rule with the exact two-point chain rule.

    All residuals are relative and must be at rounding level.
    """
    tensor = tensor or ElasticTensor.isotropic(1.0)
    rows = []
    for n in ns:
        grid = Grid.unit_box(n, dim=2)
        for seed in seeds:
            rng = np.random.default_rng(seed)

            # (a) temporal telescoping for the velocity pairing
            n_steps = 6
            v_seq = [smooth_vector_field(grid, rng) for _ in range(n_steps)]
            vr_seq = [smooth_vector_field(grid, rng) for _ in range(n_steps)]
            lhs = g.inner(v_seq[-1], vr_seq[-1]) - g.inner(v_seq[0], vr_seq[0])
            rhs = sum(
                g.inner(
                    VectorField(grid, v_seq[k + 1].values - v_seq[k].values),
                    vr_seq[k + 1],
                )
                + g.inner(
                    v_seq[k],
                    VectorField(grid, vr_seq[k + 1].values - vr_seq[k].values),
                )
                for k in range(n_steps - 1)
            )
            scale = max(abs(lhs), abs(rhs), 1e-300)
            rows.append({"n": n, "seed": seed, "check": "time_product_rule",
                         "residual": abs(lhs - rhs) / scale})

            # (b) elastic pairing vs the adjoint Laplacian forms
            d = smooth_vector_field(grid, rng)
            dr = smooth_vector_field(grid, rng)
            flux_r = TensorField(grid, tensor.apply(g.gradient_vec(dr).values))
            pairing = g.inner(g.gradient_vec(d), flux_r)
            lap_r = g.divergence_tensor(flux_r)
            flux = TensorField(grid, tensor.apply(g.gradient_vec(d).values))
            lap = g.divergence_tensor(flux)
            scale = max(abs(pairing), 1e-300)
            rows.append({"n": n, "seed": seed, "check": "elastic_pairing_right",
                         "residual": abs(pairing + g.inner(d, lap_r)) / scale})
            rows.append({"n": n, "seed": seed, "check": "elastic_pairing_left",
                         "residual": abs(pairing + g.inner(lap, dr)) / scale})

            # (c) |d|^2 product rule with two-point chain rule
            d_seq = [smooth_vector_field(grid, rng) for _ in range(n_steps)]
            dr_seq = [smooth_vector_field(grid, rng) for _ in range(n_steps)]

            def sq(f):
                return ScalarField(grid, np.sum(f.values**2, axis=-1))

            lhs = g.inner(sq(d_seq[-1]), sq(dr_seq[-1])) - g.inner(sq(d_seq[0]), sq(dr_seq[0]))
            rhs = 0.0
            for k in range(n_steps - 1):
                # |d+|^2 - |d|^2 = (d+ + d) . (d+ - d), exactly
                mid = ScalarField(
                    grid,
                    np.sum(
                        (d_seq[k + 1].values + d_seq[k].values)
                        * (d_seq[k + 1].values - d_seq[k].values),
                        axis=-1,
                    ),
                )
                mid_r = ScalarField(
                    grid,
                    np.sum(
                        (dr_seq[k + 1].values + dr_seq[k].values)
                        * (dr_seq[k + 1].values - dr_seq[k].values),
                        axis=-1,
                    ),
                )
                rhs += g.inner(mid, sq(dr_seq[k + 1])) + g.inner(sq(d_seq[k]), mid_r)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            rows.append({"n": n, "seed": seed, "check": "square_product_rule",
                         "residual": abs(lhs - rhs) / scale})

            # spatial summation-by-parts core
            a = TensorField(grid, np.stack(
                [smooth_vector_field(grid, rng).values for _ in range(3)], axis=-1))
            phi = smooth_vector_field(grid, rng)
            scale = max(
                math.sqrt(g.l2_norm_sq(a)) * math.sqrt(g.l2_norm_sq(g.gradient_vec(phi))),
                1e-300,
            )
            rows.append({"n": n, "seed": seed, "check": "divergence_adjoint",
                         "residual": g.ibp_divergence_residual(a, phi) / scale})

    max_res = max(r["residual"] for r in rows)
    return IbpReport(rows=rows, max_residual=max_res)


# ---------------------------------------------------------------------------
# manufactured-solution convergence study
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


def _manufactured(grid: Grid, t: float, k_iso: float, eps: float, gamma: float):
    """Director gradient flow with an analytic source.

    d(x, t) = e1 + a(t) sin(2 pi x) cos(2 pi y) e2 with a(t) = 0.2 + 0.1 cos(3 t);
    source = dt d + gamma * (-k Lap d + (1/eps)(|d|^2 - 1) d).
    """
    xs = grid.coords()
    lx, ly = grid.lengths[0], grid.lengths[1]
    mode = np.sin(2.0 * np.pi * xs[0] / lx) * np.cos(2.0 * np.pi * xs[1] / ly)
    a = 0.2 + 0.1 * math.cos(3.0 * t)
    a_dot = -0.3 * math.sin(3.0 * t)

    d = np.zeros(grid.shape + (3,))
    d[..., 0] = 1.0
    d[..., 1] = a * mode

    lap_factor = (2.0 * np.pi / lx) ** 2 + (2.0 * np.pi / ly) ** 2
    q = np.zeros(grid.shape + (3,))
    dev = (a * mode) ** 2  # |d|^2 - 1
    q[..., 0] = dev / eps
    q[..., 1] = k_iso * lap_factor * a * mode + dev * a * mode / eps

    src = np.zeros(grid.shape + (3,))
    src[..., 1] = a_dot * mode
    src += gamma * q
    return VectorField(grid, d), VectorField(grid, src)


def _gradient_flow_run(
    grid: Grid,
    tensor: ElasticTensor,
    k_iso: float,
    eps: float,
    gamma: float,
    dt: float,
    t_end: float,
    theta: float = 0.3,
) -> VectorField:
    """Integrate dt d = -gamma q + source with the theta-implicit elastic solve."""
    d, _ = _manufactured(grid, 0.0, k_iso, eps, gamma)
    n_steps = int(round(t_end / dt))
    ops = dynamics.SpectralOps(grid, tensor, director_alpha=theta * dt * gamma)
    t = 0.0
    for _ in range(n_steps):
        _, src = _manufactured(grid, t, k_iso, eps, gamma)
        dev = np.sum(d.values**2, axis=-1) - 1.0
        explicit = (
            -(gamma / eps) * dev[..., None] * d.values
            + (1.0 - theta) * gamma * g.laplacian_lambda(d, tensor).values
            + src.values
        )
        rhs = VectorField(grid, d.values + dt * explicit)
        d = dynamics.solve_director_implicit(rhs, ops)
        t += dt
    return d


def convergence_study(mode: str, k_iso: float = 1.0, eps: float = 0.1, gamma: float = 1.0) -> ConvergenceReport:
    """Observed orders for the director gradient flow with manufactured source.

    Space: error at t_end against the analytic solution for n = 16, 32, 64
    with a time step small enough that spatial error dominates.  Time:
    Richardson self-differences at fixed n over three dt halvings.
    """
    tensor = ElasticTensor.isotropic(k_iso)
    if mode == "space":
        t_end, dt = 0.02, 2e-5
        levels = [16, 32, 64]
        errors = []
        for n in levels:
            grid = Grid.unit_box(n, dim=2)
            d = _gradient_flow_run(grid, tensor, k_iso, eps, gamma, dt, t_end)
            exact, _ = _manufactured(grid, t_end, k_iso, eps, gamma)
            errors.append(g.lp_norm(VectorField(grid, d.values - exact.values), 2))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        return ConvergenceReport(mode=mode, levels=levels, errors=errors, orders=orders)

    if mode == "time":
        n, t_end, dt0 = 32, 0.1, 4e-3
        grid = Grid.unit_box(n, dim=2)
        levels = [dt0 / 2**i for i in range(4)]
        solutions = [
            _gradient_flow_run(grid, tensor, k_iso, eps, gamma, dt, t_end)
            for dt in levels
        ]
        diffs = [
            g.lp_norm(VectorField(grid, solutions[i].values - solutions[i + 1].values), 2)
            for i in range(len(solutions) - 1)
        ]
        orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
        return ConvergenceReport(mode=mode, levels=levels, errors=diffs, orders=orders)

    raise ValueError(f"unknown convergence mode {mode!r}")
