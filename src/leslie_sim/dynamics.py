"""Constitutive stress, right-hand sides, incompressibility projection, and
the semi-implicit time stepper.

Scheme (one step, periodic grid):

1. director update: stiff elastic operator treated theta-implicitly,
   transport / rotation / penalty explicit;
2. form the two-point variational derivative (the exact discrete gradient of
   the free energy between the old and new director);
3. tentative velocity: theta-implicit viscous Helmholtz solve, explicit
   advection, Leslie stress and director force evaluated at the old director
   with the two-point q, plus forcing;
4. exact FFT Leray projection onto discretely divergence-free fields.

Each derivative is taken once per step: one grad v serves the director
rotation, the Leslie stress and the split advection; each director's
grad d and div(L : grad d) (:class:`DirectorTerms`) serve its step, the next
step and the per-step energy; the two-point q uses the mean of the two
directors' div(L : grad d), as the operator is linear; and the explicit
momentum flux is summed in one buffer and differentiated once.

Evaluating the coupling terms at matching time levels makes the energy
exchange between the kinetic and free energies cancel identically in the
discrete balance, and theta < 1/2 makes the dissipative terms over-dissipate
relative to the trapezoid-recorded dissipation integrals, so the discrete
energy inequality residual stays one-sided.  Stability requires
dt <= 2 / ((1 - 2 theta) * kappa_max) for the stiffest mode (see
``stable_dt_bound``); the explicit penalty additionally needs
dt <= eps / (4 gamma).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import grid as g
from .energetics import EnergyBreakdown, EnergyTrace, dissipation_channels, free_energy_from_flux
from .energetics import free_energy  # noqa: F401  (importable from here, as before)
from .grid import PERIODIC, Grid, ScalarField, TensorField, VectorField
from .material import ParameterSet, require_valid
from .tensor import ElasticTensor, outer, skw, sym


class ProjectionError(RuntimeError):
    """Pressure solve failed to reach the requested divergence residual."""


class SimulationError(RuntimeError):
    """Time integration aborted; carries the last finite state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


@dataclass
class State:
    """One trajectory sample: time, velocity, director, projection pressure.

    The pressure is the discrete Leray multiplier divided by dt; it is an
    artifact of the projection, not a statement about the analytic pressure.
    """

    t: float
    v: VectorField
    d: VectorField
    p: ScalarField

    @classmethod
    def initial(cls, v: VectorField, d: VectorField, t: float = 0.0) -> "State":
        return cls(t=t, v=v, d=d, p=ScalarField.zeros(v.grid))

    def copy(self) -> "State":
        return State(self.t, self.v.copy(), self.d.copy(), self.p.copy())


@dataclass(frozen=True)
class StepperConfig:
    dt: float = 5e-4
    t_end: float = 0.5
    poisson_tol: float = 1e-10
    output_every: int = 1
    theta: float = 0.3

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if not (0.0 < self.poisson_tol <= 1e-6):
            raise ValueError("poisson_tol must lie in (0, 1e-6]")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")
        if not (0.0 <= self.theta < 0.5):
            raise ValueError("theta must lie in [0, 0.5) for a one-sided energy law")


# ---------------------------------------------------------------------------
# spectral operators (periodic grids)
# ---------------------------------------------------------------------------

class SpectralOps:
    """The Fourier-diagonal operators of one periodic grid.

    Fields are real, so they are transformed with ``rfftn`` onto the half
    spectrum (the last spatial axis keeps modes 0 .. n // 2).  The central
    first derivative along axis a has symbol i sigma_a with
    sigma_a = sin(2 pi k_a / n_a) / h_a, and the composite (wide) Laplacian
    the symbol -|sigma|^2.  The object holds the Helmholtz denominator
    1 + helmholtz_coeff |sigma|^2 and the projection denominator -|sigma|^2.
    Given an elasticity tensor it also holds the director stiffness
    S_ik = sum_jl L_ijkl sigma_j sigma_l and the inverse of
    I + director_alpha S per mode; S is real and symmetric, so the inverse is
    real and is applied as a 3x3 product.  A Stepper builds one and keeps it.
    """

    def __init__(
        self,
        grid: Grid,
        tensor: ElasticTensor | None = None,
        director_alpha: float = 0.0,
        helmholtz_coeff: float = 0.0,
    ):
        if grid.bc != PERIODIC:
            raise NotImplementedError("spectral solves require a periodic grid")
        self.grid = grid
        self.axes = tuple(range(grid.dim))
        half = grid.n[:-1] + (grid.n[-1] // 2 + 1,)
        sigmas = []
        for axis, (na, ha) in enumerate(zip(grid.n, grid.h)):
            k = np.arange(half[axis])
            s = np.sin(2.0 * np.pi * k / na) / ha
            # sin(pi) is not exactly zero in floating point; the k = 0 and
            # Nyquist symbols must vanish exactly or the inversion blows up
            s[(2 * k) % na == 0] = 0.0
            shape = [1] * grid.dim
            shape[axis] = half[axis]
            sigmas.append(np.broadcast_to(s.reshape(shape), half))
        self.sig_sq = sig_sq = sum(s**2 for s in sigmas)
        self.helmholtz_denominator = (1.0 + helmholtz_coeff * sig_sq)[..., None]
        # modes where every derivative symbol vanishes carry no divergence;
        # dividing by inf leaves them at zero pressure
        self.projection_denominator = np.where(sig_sq != 0.0, -sig_sq, np.inf)
        self.stiffness = None
        self.director_inverse = None
        if tensor is not None:
            sig = np.stack(sigmas + [np.zeros(half)] * (3 - grid.dim), axis=-1)
            self.stiffness = np.einsum("ijkl,...j,...l->...ik", tensor.entries, sig, sig)
            self.director_inverse = np.linalg.inv(np.eye(3) + director_alpha * self.stiffness)

    def forward(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(values, axes=self.axes)

    def backward(self, values_hat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(values_hat, s=self.grid.n, axes=self.axes)

    def check_grid(self, grid: Grid) -> None:
        if grid != self.grid:
            raise ValueError("field and spectral operators live on different grids")


def project_divfree(u: VectorField, ops: SpectralOps | None = None, tol: float = 1e-10):
    """Discrete Leray projection: returns (u - grad p, p) with div(result) ~ 0.

    Solves div grad p = div u exactly in Fourier space (the composite
    central-difference Laplacian is diagonal there); modes where every
    derivative symbol vanishes carry no divergence and are left alone.  The
    mean of p is fixed to zero.  Without ``ops`` the operators of u's grid
    are built for this call; non-periodic grids raise NotImplementedError.
    """
    grid = u.grid
    if ops is None:
        ops = SpectralOps(grid)
    ops.check_grid(grid)
    div_u = g.divergence_vec(u)
    p_values = ops.backward(ops.forward(div_u.values) / ops.projection_denominator)
    p_values -= p_values.mean()
    p = ScalarField(grid, p_values)

    grad_p = np.zeros(grid.shape + (3,))
    for a in range(grid.dim):
        grad_p[..., a] = g._deriv(grid, p.values, axis=a)
    result = VectorField(grid, u.values - grad_p)

    res = math.sqrt(g.l2_norm_sq(g.divergence_vec(result)))
    target = tol * math.sqrt(g.l2_norm_sq(div_u)) + 1e-14 * (1.0 + math.sqrt(g.l2_norm_sq(u)))
    if res > target:
        raise ProjectionError(
            f"projection residual {res:.3e} exceeds target {target:.3e}"
        )
    return result, p


def solve_director_implicit(rhs: VectorField, ops: SpectralOps) -> VectorField:
    """Solve (I + alpha * (-div(L : grad .))) x = rhs with the tensor and
    alpha that ``ops`` was built with.

    The operator is block-diagonal in Fourier space: for each mode the 3x3
    matrix I + alpha * S(k), which strong ellipticity keeps positive
    definite; ``ops`` holds its inverse.
    """
    ops.check_grid(rhs.grid)
    if ops.director_inverse is None:
        raise ValueError("spectral operators were built without an elasticity tensor")
    rhs_hat = ops.forward(rhs.values)
    x_hat = np.matmul(ops.director_inverse, rhs_hat[..., None])[..., 0]
    return VectorField(rhs.grid, ops.backward(x_hat))


def solve_helmholtz(rhs: VectorField, ops: SpectralOps) -> VectorField:
    """Solve (I + coeff * (-Lap)) x = rhs componentwise, with the wide
    (composite central-difference) Laplacian and the coefficient that
    ``ops`` was built with."""
    ops.check_grid(rhs.grid)
    x_hat = ops.forward(rhs.values) / ops.helmholtz_denominator
    return VectorField(rhs.grid, ops.backward(x_hat))


def max_stiff_rate(grid: Grid, tensor: ElasticTensor, p: ParameterSet) -> float:
    """Largest eigenvalue of the stiff linear operators (director elasticity
    scaled by gamma, and half the viscosity)."""
    ops = SpectralOps(grid, tensor)
    s_mat = ops.stiffness
    eig_max = float(np.max(np.linalg.eigvalsh(0.5 * (s_mat + np.swapaxes(s_mat, -1, -2)))))
    return max(p.gamma * eig_max, 0.5 * p.mu4 * float(ops.sig_sq.max()))


def stable_dt_bound(grid: Grid, tensor: ElasticTensor, p: ParameterSet, theta: float) -> float:
    """Documented step-size bound: theta-scheme stability of the stiff modes
    plus the explicit-penalty restriction dt <= eps / (4 gamma)."""
    kappa = max_stiff_rate(grid, tensor, p)
    stiff = math.inf if theta >= 0.5 else 2.0 / ((1.0 - 2.0 * theta) * kappa)
    return min(stiff, p.epsilon / (4.0 * p.gamma))


# ---------------------------------------------------------------------------
# right-hand sides and constitutive stress
# ---------------------------------------------------------------------------

def leslie_stress(v: VectorField, d: VectorField, q: VectorField, p: ParameterSet) -> TensorField:
    """Dissipative stress with the five coefficient channels:

    T = mu1 (d . Dv d) d x d + mu4 Dv - gamma(mu2+mu3) (d x q)_sym
        + (d x q)_skw + [(mu5+mu6) - lambda(mu2+mu3)] (d x (Dv d))_sym
    """
    dv = sym(g.gradient_vec(v).values)
    out = p.mu4 * dv
    _add_leslie_stress(out, d.values, np.einsum("...ij,...j->...i", dv, d.values), q.values, p)
    return TensorField(v.grid, out)


def _add_leslie_stress(out: np.ndarray, d, dvd, q, p: ParameterSet) -> None:
    """Add every term of the Leslie stress except mu4 Dv to ``out`` in place,
    given d, Dv d and q as arrays; the stepper passes its explicit viscous
    and advective flux as ``out``."""
    ddvd = np.einsum("...i,...i->...", d, dvd)
    pair = outer(d, d)
    pair *= (p.mu1 * ddvd)[..., None, None]
    out += pair
    outer(d, q, out=pair)
    part = pair + np.swapaxes(pair, -1, -2)
    part *= 0.5 * p.gamma * p.mu23
    out -= part
    # orientation: (T_skw : grad v) = (q, (grad v)_skw d) pointwise, the
    # pairing that cancels the co-rotation term in the director equation
    np.subtract(pair, np.swapaxes(pair, -1, -2), out=part)
    part *= 0.5
    out -= part
    outer(d, dvd, out=pair)
    np.add(pair, np.swapaxes(pair, -1, -2), out=part)
    part *= 0.5 * p.directional_coeff
    out += part


def ericksen_force(d: VectorField, q: VectorField) -> VectorField:
    """Elastic director force with components (grad d)^T q, i.e. q . (d_a d)
    per axis a; the gradient-of-potential part is absorbed into the
    projection pressure.  Satisfies (force, v) = (q, (v . grad) d) pointwise.
    """
    grad = g.gradient_vec(d)
    return VectorField(d.grid, np.einsum("...ia,...i->...a", grad.values, q.values))


def director_rhs(v: VectorField, d: VectorField, q: VectorField, p: ParameterSet) -> VectorField:
    """-(v . grad) d + (grad v)_skw d - lambda (grad v)_sym d - gamma q."""
    grad_v = g.gradient_vec(v).values
    wv = skw(grad_v)
    dv = sym(grad_v)
    values = (
        -g.advect(v, d).values
        + np.einsum("...ij,...j->...i", wv, d.values)
        - p.lam * np.einsum("...ij,...j->...i", dv, d.values)
        - p.gamma * q.values
    )
    return VectorField(v.grid, values)


def momentum_rhs(
    v: VectorField,
    d: VectorField,
    q: VectorField,
    forcing_values,
    p: ParameterSet,
) -> VectorField:
    """-(v . grad) v + div(T_leslie) + ericksen force + g (pre-projection)."""
    values = (
        -g.advect(v, v).values
        + g.divergence_tensor(leslie_stress(v, d, q, p)).values
        + ericksen_force(d, q).values
    )
    if forcing_values is not None:
        values = values + forcing_values
    return VectorField(v.grid, values)


# ---------------------------------------------------------------------------
# the stepper
# ---------------------------------------------------------------------------

@dataclass
class DirectorTerms:
    """grad d, div(L : grad d) and the free energy of one director field,
    computed once and shared by the two steps and the diagnostics that need
    them."""

    grad: np.ndarray  # grid.shape + (3, 3)
    lap: np.ndarray  # grid.shape + (3,)
    energy: EnergyBreakdown

    @classmethod
    def of(cls, d: VectorField, tensor: ElasticTensor, eps: float) -> "DirectorTerms":
        grad = g.gradient_vec(d).values
        flux = tensor.apply(grad)
        energy = free_energy_from_flux(d, grad, flux, eps)
        return cls(grad, g.divergence_tensor(TensorField(d.grid, flux)).values, energy)


@dataclass
class Trajectory:
    states: list  # sampled States (including the initial one)
    trace: EnergyTrace
    step_times: np.ndarray
    step_total_energy: np.ndarray


class Stepper:
    """Steps one (grid, material, config) tuple; builds its SpectralOps once."""

    def __init__(
        self,
        grid: Grid,
        cfg: StepperConfig,
        p: ParameterSet,
        tensor: ElasticTensor,
        forcing=None,
        allow_invalid: bool = False,
    ):
        if grid.bc != PERIODIC:
            raise NotImplementedError("time stepping is implemented for periodic grids")
        if not allow_invalid:
            require_valid(p)
        self.grid = grid
        self.cfg = cfg
        self.p = p
        self.tensor = tensor
        self.forcing = forcing
        self.ops = SpectralOps(
            grid,
            tensor,
            director_alpha=cfg.theta * cfg.dt * p.gamma,
            helmholtz_coeff=cfg.theta * cfg.dt * 0.5 * p.mu4,
        )
        self._cfl_warned = False

    def _forcing_values(self, t: float):
        if self.forcing is None:
            return None
        return self.forcing(self.grid, t).values

    def step(self, s: State, terms: DirectorTerms | None = None) -> State:
        """Advance s by one step.  ``terms``, if given, must be those of s.d
        (else they are computed); they are overwritten with those of the new
        director, ready for the next step."""
        cfg, p, grid = self.cfg, self.p, self.grid
        dt, theta = cfg.dt, cfg.theta
        v, d = s.v.values, s.d.values
        if terms is None:
            terms = DirectorTerms.of(s.d, self.tensor, p.epsilon)
        grad_d, lap_d = terms.grad, terms.lap

        vmax = float(np.max(np.abs(v)))
        if not self._cfl_warned and dt * vmax / min(grid.h) > 0.5:
            warnings.warn(
                f"advective CFL number {dt * vmax / min(grid.h):.2f} exceeds 0.5",
                RuntimeWarning,
            )
            self._cfl_warned = True

        # 1. director update: theta-implicit elasticity, rest explicit;
        # (grad v)_skw d - lambda Dv d = (grad v) d - (1 + lambda) Dv d
        grad_v = g.gradient_vec(s.v).values
        grad_v_d = np.einsum("...ij,...j->...i", grad_v, d)
        dvd = 0.5 * (grad_v_d + np.einsum("...ji,...j->...i", grad_v, d))
        d_sq = np.einsum("...i,...i->...", d, d)
        dev = d_sq - 1.0
        explicit = (
            -np.einsum("...ij,...j->...i", grad_d, v)
            + grad_v_d
            - (1.0 + p.lam) * dvd
            - (p.gamma / p.epsilon) * dev[..., None] * d
            + (1.0 - theta) * p.gamma * lap_d
        )
        d_new = solve_director_implicit(VectorField(grid, d + dt * explicit), self.ops)
        new = DirectorTerms.of(d_new, self.tensor, p.epsilon)

        # 2. two-point variational derivative: the exact discrete gradient of
        # the free energy between d and d_new, so the coupling terms below
        # cancel the director transport and rotation terms identically in the
        # discrete energy balance; div(L : grad .) of the midpoint is the mean
        s_mid = 0.5 * (np.einsum("...i,...i->...", d_new.values, d_new.values) + d_sq) - 1.0
        q_half = -0.5 * (lap_d + new.lap) + (s_mid[..., None] / p.epsilon) * (
            0.5 * (d_new.values + d)
        )

        # 3. tentative velocity: coupling terms at the old director with the
        # two-point q; viscous part theta-implicit as (mu4/2) Lap v, whose
        # explicit share is (1 - theta) mu4/2 div(grad v).  Skew-symmetric
        # (split) advection 1/2 [(v . grad) v + div(v x v)] is exactly
        # energy-neutral under the skew-adjoint central stencil.
        flux = outer(v, v)
        flux *= -0.5
        flux += ((1.0 - theta) * 0.5 * p.mu4) * grad_v
        _add_leslie_stress(flux, d, dvd, q_half, p)
        rhs_values = v + dt * (
            g.divergence_tensor(TensorField(grid, flux)).values
            - 0.5 * np.einsum("...ij,...j->...i", grad_v, v)
            # Ericksen force (grad d)^T q, as in ericksen_force
            + np.einsum("...ia,...i->...a", grad_d, q_half)
        )
        fvals = self._forcing_values(s.t)
        if fvals is not None:
            rhs_values = rhs_values + dt * fvals
        v_star = solve_helmholtz(VectorField(grid, rhs_values), self.ops)

        # 4. projection
        v_new, p_mult = project_divfree(v_star, self.ops, cfg.poisson_tol)
        terms.grad, terms.lap, terms.energy = new.grad, new.lap, new.energy
        return State(t=s.t + dt, v=v_new, d=d_new, p=ScalarField(grid, p_mult.values / dt))

    def run(self, initial: State) -> Trajectory:
        cfg = self.cfg
        n_steps = max(0, int(round((cfg.t_end - initial.t) / cfg.dt)))
        state = initial.copy()

        terms = DirectorTerms.of(state.d, self.tensor, self.p.epsilon)
        samples = [state.copy()]
        rows = [self._diagnostics(state, terms)]
        step_times = [state.t]
        step_energy = [rows[0]["total"]]

        for k in range(1, n_steps + 1):
            state = self.step(state, terms)
            if not (
                np.all(np.isfinite(state.v.values))
                and np.all(np.isfinite(state.d.values))
            ):
                raise SimulationError(
                    f"non-finite values at step {k} (t = {state.t:.6g})",
                    last_state=samples[-1],
                )
            fe = terms.energy
            total = 0.5 * g.l2_norm_sq(state.v) + fe.elastic + fe.penalty
            step_times.append(state.t)
            step_energy.append(total)
            if k % cfg.output_every == 0 or k == n_steps:
                samples.append(state.copy())
                rows.append(self._diagnostics(state, terms))

        trace = EnergyTrace(**{name: np.array([r[name] for r in rows]) for name in rows[0]})
        return Trajectory(
            states=samples,
            trace=trace,
            step_times=np.array(step_times),
            step_total_energy=np.array(step_energy),
        )

    def _diagnostics(self, s: State, terms: DirectorTerms) -> dict:
        p = self.p
        cellvol = self.grid.cell_volume
        # variational_derivative(s.d), from the director's carried terms
        dev = np.sum(s.d.values**2, axis=-1) - 1.0
        q = VectorField(self.grid, -terms.lap + (dev[..., None] / p.epsilon) * s.d.values)
        dv, dvd, ddvd = dissipation_channels(s.v, s.d, q)
        fe = terms.energy
        kinetic = 0.5 * g.l2_norm_sq(s.v)
        q_dvd = float(np.sum(q.values * dvd)) * cellvol
        fvals = self._forcing_values(s.t)
        g_power = 0.0 if fvals is None else float(np.sum(fvals * s.v.values)) * cellvol
        return {
            "t": s.t,
            "kinetic": kinetic,
            "elastic": fe.elastic,
            "penalty": fe.penalty,
            "total": kinetic + fe.elastic + fe.penalty,
            "diss_mu1": p.mu1 * float(np.sum(ddvd**2)) * cellvol,
            "diss_mu4": p.mu4 * float(np.sum(dv**2)) * cellvol,
            "diss_dir": p.directional_coeff * float(np.sum(dvd**2)) * cellvol,
            "diss_q": p.gamma * g.l2_norm_sq(q),
            "cross_term": p.cross_coeff * q_dvd,
            "g_power": g_power,
        }


def step(
    s: State,
    cfg: StepperConfig,
    p: ParameterSet,
    tensor: ElasticTensor,
    forcing=None,
    allow_invalid: bool = False,
) -> State:
    return Stepper(s.v.grid, cfg, p, tensor, forcing, allow_invalid).step(s)


def run(
    initial: State,
    cfg: StepperConfig,
    p: ParameterSet,
    tensor: ElasticTensor,
    forcing=None,
    allow_invalid: bool = False,
) -> Trajectory:
    return Stepper(initial.v.grid, cfg, p, tensor, forcing, allow_invalid).run(initial)
