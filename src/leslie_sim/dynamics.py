"""Constitutive stress, right-hand sides, incompressibility projection, and
the semi-implicit time stepper.

Scheme (one step):

1. director update: stiff elastic operator treated theta-implicitly,
   transport / rotation / penalty explicit;
2. form the two-point variational derivative (the exact discrete gradient of
   the free energy between the old and new director);
3. tentative velocity: theta-implicit viscous Helmholtz solve, explicit
   advection, Leslie stress and director force evaluated at the old director
   with the two-point q, plus the body force g, one field constant in time
   that the stepper is given (``forcing=``) and keeps;
4. exact FFT Leray projection onto discretely divergence-free fields on
   the Helmholtz solve's spectrum (:func:`_velocity_update`), with one
   inverse transform of the velocity: four FFTs a step, two at theta = 0,
   where both implicit operators are the identity and the step makes no
   director solve and no Helmholtz divide.  The grad v of the projected
   velocity gives the projection residual as its trace.  The result keeps
   the projection's pressure spectrum and transforms it when its pressure
   is first read (:class:`Ensemble`): a run whose readers never look at
   the pressure never transforms it.

Each derivative is taken once per step.  Every state has one record of the
fields that more than one reader needs (:class:`StateTerms`): its
director's grad d, div(L : grad d) and |d|^2 - 1, its energies, its grad v
and its director strain, a frozen value made with the state -- the step
returns it with its result (grad v is the one the velocity update takes) --
and only read by the next step, the per-step energy and finiteness check,
the sample's diagnostics and the run's hook.  The two-point q uses the
mean of the two directors' div(L : grad d), as the operator is linear; and
the explicit momentum flux is built one column at a time, each column
differentiated as soon as it is built, the stress's as d alpha_j + w d_j
from the factors alpha, w formed once per step (:func:`_stress_factors`).

Layout: the stepper computes on component-major arrays with a leading
member axis -- vectors ``(m, 3) + grid.shape``, gradients
``(m, 3, dim) + grid.shape`` with entry (i, j) = d f_i / d x_j -- so every
contraction over components is a multiply-add of contiguous arrays and one
step advances the m members of an :class:`Ensemble` at once.  The step and
its solvers take and return only those member arrays; fields (a
:class:`State`, a VectorField) are the kind of the public API around them --
``project_divfree``, the campaigns and :meth:`Stepper.run_ensemble`, the
one run loop (``run`` is its one-member case), which turns its states into
one Ensemble before its first step and samples the steps that
:meth:`StepperConfig.samples` names.  The checks (CFL warning, finiteness,
projection residual) and every energy are taken per member on that
member's slice, so each member evolves bit for bit as it does alone.  A
gradient holds only the grid's dim columns: on a 2D grid it has no
always-zero third column, and L : grad d is one (3 dim) x (3 dim) matrix
product with L_ijkl restricted to j, l < dim (:meth:`ElasticTensor.flux`).
A field's values have the same layout, ``(3,) + grid.shape``: a State of an
Ensemble's member holds contiguous views of that member's arrays, and
``State.copy()`` gives arrays of its own.

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

import ctypes
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import energetics as en
from . import grid as g
from .energetics import EnergyTrace
from .energetics import free_energy  # noqa: F401  (importable from here, as before)
from .grid import Grid, ScalarField, TensorField, VectorField
from .material import ParameterSet, require_valid
from .tensor import ElasticTensor, sym


PROJECTION_TOL = 1e-10  # the tol of every projection's :func:`_projection_targets`


class ProjectionError(RuntimeError):
    """Pressure solve missed the requested divergence residual; carries its member's index."""

    def __init__(self, message, member=None):
        super().__init__(message)
        self.member = member


class InitialStateError(ValueError):
    """A run refused its non-finite initial state; carries its member's index."""

    def __init__(self, message, member=None):
        super().__init__(message)
        self.member = member


class SimulationError(RuntimeError):
    """Time integration aborted; carries the last finite state and its member's index."""

    def __init__(self, message, last_state=None, member=None):
        super().__init__(message)
        self.last_state = last_state
        self.member = member


@dataclass
class State:
    """One trajectory sample: time, velocity, director, projection pressure.

    Fields are component-major, ``(3,) + grid.shape``; in states made by a
    :class:`Stepper` they are views of one member of its arrays.  The
    pressure is the discrete Leray multiplier divided by dt; it is an
    artifact of the projection, not a statement about the analytic pressure.
    A State always holds it: one made of an Ensemble's member reads the
    Ensemble's ``p``, which transforms it if no one has yet.
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
    output_every: int = 1
    theta: float = 0.3

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        object.__setattr__(self, "output_every", g.whole(self.output_every, "output_every", 1))
        if not (0.0 <= self.theta < 0.5):
            raise ValueError(f"theta must be finite and lie in [0, 0.5) for a one-sided "
                             f"energy law, got {self.theta}")

    def steps(self, t0: float) -> int:
        """The number of steps from t0 to t_end.  (t_end - t0) / dt must be
        a whole number >= 0, to within 1e-9 of itself (or of 1, if smaller);
        anything else is a ValueError, not a rounded step count."""
        x = (self.t_end - t0) / self.dt
        n = round(x)
        if n < 0 or abs(x - n) > 1e-9 * max(abs(x), 1.0):
            raise ValueError(f"t_end = {self.t_end:g} is not t0 = {t0:g} plus a whole number of "
                             f"steps dt = {self.dt:g}: (t_end - t0) / dt = {x:.12g}")
        return n

    def samples(self, t0: float) -> list:
        """The sampled steps of a run from t0: step 0, every
        ``output_every``-th step and the last, :meth:`steps`."""
        n = self.steps(t0)
        return [*range(0, n, self.output_every), n]


# ---------------------------------------------------------------------------
# spectral operators
# ---------------------------------------------------------------------------

class SpectralOps:
    """The Fourier-diagonal operators of one grid.

    Fields are real, so they are transformed with ``rfftn`` over their
    trailing spatial axes onto the half spectrum, shape ``half`` (the last
    spatial axis keeps modes 0 .. n // 2); component axes lead.  The central
    first derivative along axis a has symbol i sigma_a (:func:`_symbols`),
    the composite (wide) Laplacian -|sigma|^2.  Each multiplier is held once
    as the C-contiguous complex128 array, x + 0i, that a kernel multiplies a
    spectrum by (a float one is cast on every call): ``sigmas``, and the
    reciprocals ``helmholtz_factor`` of 1 + helmholtz_coeff |sigma|^2 and
    ``projection_factor`` of -|sigma|^2 (numpy divides a complex by a float
    by multiplying with its reciprocal: bit for bit the divides).  Given an
    elasticity tensor, which goes with a nonzero director_alpha and only
    with one (else ValueError), it also holds the inverse of I +
    director_alpha S(k) (:meth:`ElasticTensor.stiffness`), in closed form
    (:func:`_inverse_3x3`; no LAPACK call): ``director_inverse[i]``
    pairs each k whose block inverse[i, k] is not identically zero -- for an
    isotropic tensor only k = i -- with that block, and bitwise equal blocks
    are one array.  Without a tensor that operator is the identity and
    ``director_inverse`` is None.  A Stepper builds one and keeps it.
    """

    def __init__(
        self,
        grid: Grid,
        tensor: ElasticTensor | None = None,
        director_alpha: float = 0.0,
        helmholtz_coeff: float = 0.0,
    ):
        if (tensor is None) != (director_alpha == 0.0):
            raise ValueError("an elasticity tensor goes with a nonzero director_alpha, and only with one")
        self.grid = grid
        self.axes = tuple(range(-grid.dim, 0))
        sigmas = _symbols(grid)
        self.half = sigmas[0].shape
        sig_sq = sum(s**2 for s in sigmas)
        self.sigmas = [s.astype(complex, order="C") for s in sigmas]
        self.helmholtz_factor = (1.0 / (1.0 + helmholtz_coeff * sig_sq)).astype(complex)
        # modes where every derivative symbol vanishes carry no divergence:
        # their factor 1 / inf = 0 leaves them at zero pressure
        self.projection_factor = (1.0 / np.where(sig_sq != 0.0, -sig_sq, np.inf)).astype(complex)
        self.director_inverse = None
        if tensor is not None:
            matrix = tensor.stiffness(sigmas)
            matrix *= director_alpha
            for i in range(3):
                matrix[i, i] += 1.0
            inverse = _inverse_3x3(matrix)
            blocks, rows = {}, ([], [], [])  # a block's bytes -> its one complex array
            for i, k in np.ndindex(3, 3):
                block = inverse[i, k]
                if block.any():
                    key = block.tobytes()
                    if key not in blocks:
                        blocks[key] = block.astype(complex)
                    rows[i].append((k, blocks[key]))
            self.director_inverse = tuple(map(tuple, rows))

    def forward(self, values: np.ndarray) -> np.ndarray:
        """``rfftn`` over the grid's axes, bit for bit, as its own 1-D passes:
        ``rfft`` along the last axis into a new array, then ``fft`` in place
        along the others, last to first."""
        out = np.fft.rfft(values, axis=-1)
        for axis in self.axes[-2::-1]:
            np.fft.fft(out, axis=axis, out=out)
        return out

    def backward(self, values_hat: np.ndarray) -> np.ndarray:
        """``irfftn`` over the grid's axes, bit for bit, spending
        ``values_hat``: its 1-D passes in its own order, ``ifft`` in place
        along every axis but the last, first to last, then ``irfft`` along
        the last."""
        for axis in self.axes[:-1]:
            np.fft.ifft(values_hat, axis=axis, out=values_hat)
        return np.fft.irfft(values_hat, n=self.grid.n[-1], axis=-1)

    def check_grid(self, grid: Grid) -> None:
        if grid is not self.grid and grid != self.grid:
            raise ValueError("field and spectral operators live on different grids")


def _symbols(grid: Grid) -> list:
    """sigma_a = sin(2 pi k_a / n_a) / h_a for a < dim, float64 broadcast views on the half spectrum."""
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
    return sigmas


def _inverse_3x3(m: np.ndarray) -> np.ndarray:
    """Inverse of each 3x3 matrix of component-major ``m`` (3, 3) + shape,
    adjugate over determinant: inverse[i, k] is the cofactor of m[k, i],
    m[k+1, i+1] m[k+2, i+2] - m[k+1, i+2] m[k+2, i+1] with indices mod 3,
    divided by det m.  A cofactor whose two products vanish entrywise is
    exactly zero."""
    inverse = np.empty_like(m)
    term = np.empty(m.shape[2:])
    for i in range(3):
        c1, c2 = (i + 1) % 3, (i + 2) % 3
        for k in range(3):
            r1, r2 = (k + 1) % 3, (k + 2) % 3
            np.multiply(m[r1, c1], m[r2, c2], out=inverse[i, k])
            inverse[i, k] -= np.multiply(m[r1, c2], m[r2, c1], out=term)
    det = m[0, 0] * inverse[0, 0]
    det += np.multiply(m[0, 1], inverse[1, 0], out=term)
    det += np.multiply(m[0, 2], inverse[2, 0], out=term)
    inverse /= det
    return inverse


def _member_label(i: int, m: int) -> str:
    return f" of member {i}" if m > 1 else ""


def project_divfree(u: VectorField, ops: SpectralOps | None = None):
    """Discrete Leray projection: returns (u - grad p, p) with div(result) ~ 0,
    as a VectorField and a ScalarField on u's grid.

    Solves div grad p = div u exactly in Fourier space (the composite
    central-difference Laplacian is diagonal there) with
    :func:`_velocity_update`, u as a one-member ensemble; modes where every
    derivative symbol vanishes carry no divergence and are left alone, so p
    has zero mean.  Without ``ops`` the operators of u's grid are built for
    this call.
    """
    if ops is None:
        ops = SpectralOps(u.grid)
    ops.check_grid(u.grid)
    v, s, _ = _velocity_update(ops, u.values[None])
    return VectorField(u.grid, v[0]), ScalarField(u.grid, _pressure(ops, s)[0])


def _velocity_update(ops: SpectralOps, values: np.ndarray, helmholtz: bool = False):
    """The members' vectors ``values`` (m, 3) + grid.shape, Helmholtz-solved
    if ``helmholtz``, then projected: the projected velocity, the spectrum
    s / (-|sigma|^2) of their pressures (:func:`_pressure`) and the grad v
    of the velocity.  With s = sigma . u_hat (the stencil divergence has
    symbol i s), u_hat += sigma s / (-|sigma|^2).  Raises ProjectionError
    when the stencil divergence of a member's result, the trace of its
    grad v summed as :func:`grid.divergence_components` sums it, exceeds
    its :func:`_projection_targets`."""
    grid = ops.grid
    u_hat = ops.forward(values)
    if helmholtz:
        u_hat *= ops.helmholtz_factor
    s = ops.sigmas[0] * u_hat[:, 0]
    for a in range(1, grid.dim):
        s += ops.sigmas[a] * u_hat[:, a]
    targets = _projection_targets(ops, u_hat, s, PROJECTION_TOL)
    s *= ops.projection_factor
    for a in range(grid.dim):
        u_hat[:, a] += ops.sigmas[a] * s
    v = ops.backward(u_hat)
    del u_hat  # spent; freed before grad v, the update's largest array
    grad_v = g.gradient_components(grid, v)
    div = grad_v[:, 0, 0] + grad_v[:, 1, 1]
    for a in range(2, grid.dim):
        div += grad_v[:, a, a]
    for i, target in enumerate(targets):
        res = math.sqrt(float(np.vdot(div[i], div[i])) * grid.cell_volume)
        if res > target:
            raise ProjectionError(
                f"projection residual {res:.3e}{_member_label(i, len(targets))} "
                f"exceeds target {target:.3e}", member=i
            )
    return v, s, grad_v


def _pressure(ops: SpectralOps, s: np.ndarray) -> np.ndarray:
    """The projection pressures, the inverse transform of p_hat = i s /
    (-|sigma|^2), from the spectrum ``s`` that :func:`_velocity_update`
    returns, spending it.  Each 1-D pass acts per line, so they are bit for
    bit those of a transform that stacks p_hat with the velocity."""
    return ops.backward(np.multiply(s, 1j, out=s))


def _projection_targets(ops: SpectralOps, u_hat: np.ndarray, div_hat: np.ndarray, tol: float) -> list:
    """Each member's projection residual target, tol |div u| + 1e-14 (1 +
    |u|) in the L2 norm, from the half spectra of its u and of sigma . u,
    whose norm is that of the stencil divergence.  By Parseval, where a mode
    of the last axis other than 0 and the Nyquist mode stands for its
    conjugate too."""
    n, grid = ops.grid.n[-1], ops.grid
    edges = (Ellipsis, slice(None, None, n // 2) if n % 2 == 0 else slice(1))

    def norm(x_hat):
        sq = 2.0 * np.vdot(x_hat, x_hat).real - np.vdot(x_hat[edges], x_hat[edges]).real
        return math.sqrt(float(sq) / grid.cell_count * grid.cell_volume)

    return [tol * norm(s) + 1e-14 * (1.0 + norm(u)) for u, s in zip(u_hat, div_hat)]


def solve_director_implicit(values: np.ndarray, ops: SpectralOps) -> np.ndarray:
    """Solve (I + alpha * (-div(L : grad .))) x = values with the tensor and
    alpha that ``ops`` was built with, for an ensemble's component-major
    member values (m, 3) + grid.shape; x has their shape.

    The operator is block-diagonal in Fourier space: for each mode the 3x3
    matrix I + alpha * S(k), which strong ellipticity keeps positive
    definite; ``ops`` holds the nonzero blocks of its inverse as complex
    arrays (``ops.director_inverse``), applied to the component-major
    spectrum as complex multiply-adds over those blocks only.  When every
    row is one diagonal block (an isotropic tensor) the forward spectrum is
    scaled in place and transformed back; no second spectrum is made.
    """
    if ops.director_inverse is None:
        raise ValueError("spectral operators were built without an elasticity tensor, "
                         "at director_alpha = 0")
    rhs_hat = ops.forward(values)
    rows = ops.director_inverse
    diagonal = all(len(row) == 1 and row[0][0] == i for i, row in enumerate(rows))
    x_hat = rhs_hat if diagonal else np.empty_like(rhs_hat)
    term = None
    for i, ((k, block), *rest) in enumerate(rows):
        out = x_hat[:, i]
        np.multiply(block, rhs_hat[:, k], out=out)
        for k, block in rest:
            if term is None:
                term = np.empty_like(out)
            out += np.multiply(block, rhs_hat[:, k], out=term)
    return ops.backward(x_hat)


def solve_helmholtz(values: np.ndarray, ops: SpectralOps) -> np.ndarray:
    """Solve (I + coeff * (-Lap)) x = values componentwise, with the wide
    (composite central-difference) Laplacian and the coefficient that
    ``ops`` was built with, for an ensemble's component-major member values
    (m, 3) + grid.shape; x has their shape."""
    x_hat = ops.forward(values)
    x_hat *= ops.helmholtz_factor
    return ops.backward(x_hat)


def max_stiff_rate(grid: Grid, tensor: ElasticTensor, p: ParameterSet) -> float:
    """Largest eigenvalue of the stiff linear operators (director elasticity
    scaled by gamma, and half the viscosity)."""
    sigmas = _symbols(grid)
    s_mat = np.moveaxis(tensor.stiffness(sigmas), (0, 1), (-2, -1))
    eig_max = float(np.max(np.linalg.eigvalsh(sym(s_mat))))
    return max(p.gamma * eig_max, 0.5 * p.mu4 * float(sum(s**2 for s in sigmas).max()))


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

    evaluated term by term in this order, so that an entry where the terms
    nearly cancel rounds as the formula does; the stepper regroups the same
    terms into :func:`_stress_factors`.  x_sym and x_skw are (x + x^T) / 2
    and (x - x^T) / 2 over the leading (i, j) axes.
    """
    grad = g.gradient_vec(v).values
    dv = 0.5 * (grad + grad.swapaxes(0, 1))
    d = d.values
    dvd = np.einsum("ij...,j...->i...", dv, d)
    ddvd = np.einsum("i...,i...->...", d, dvd)
    dd, dq, d_dvd = (np.einsum("i...,j...->ij...", d, x) for x in (d, q.values, dvd))
    return TensorField(v.grid, (
        p.mu1 * ddvd * dd
        + p.mu4 * dv
        - p.gamma * p.mu23 * (0.5 * (dq + dq.swapaxes(0, 1)))
        - 0.5 * (dq - dq.swapaxes(0, 1))
        + p.directional_coeff * (0.5 * (d_dvd + d_dvd.swapaxes(0, 1)))
    ))


def _stress_factors(d, q, dvd, mu1_ddvd, p: ParameterSet):
    """alpha = mu1 (d . Dv d) d - (gamma(mu2+mu3) + 1)/2 q + c/2 Dv d and
    w = (1 - gamma(mu2+mu3))/2 q + c/2 Dv d, c the directional coefficient:
    column j of the Leslie stress without mu4 Dv is d alpha_j + w d_j.  From
    the members' component-major d, q, Dv d (m, 3, ...) and mu1 (d . Dv d)."""
    half_dvd = (0.5 * p.directional_coeff) * dvd
    w = (0.5 * (1.0 - p.gamma * p.mu23)) * q
    w += half_dvd
    alpha = (-0.5 * (p.gamma * p.mu23 + 1.0)) * q
    alpha += half_dvd
    alpha += np.multiply(mu1_ddvd[:, None], d, out=half_dvd)
    return alpha, w


def _stress_column(out, j: int, d, alpha, w, scratch) -> None:
    """Column j of the Leslie stress without mu4 Dv, d alpha_j + w d_j,
    into ``out`` (m, 3, ...), from the :func:`_stress_factors`; ``scratch``
    is shaped like ``out``."""
    np.multiply(d, alpha[:, j : j + 1], out=out)
    out += np.multiply(w, d[:, j : j + 1], out=scratch)


def ericksen_force(d: VectorField, q: VectorField) -> VectorField:
    """Elastic director force with components (grad d)^T q, i.e. q . (d_a d)
    per axis a; the gradient-of-potential part is absorbed into the
    projection pressure.  Satisfies (force, v) = (q, (v . grad) d) pointwise.
    """
    return VectorField(d.grid, np.einsum("ia...,i...->a...", g.gradient_vec(d).values, q.values))


# ---------------------------------------------------------------------------
# the stepper
# ---------------------------------------------------------------------------

@dataclass
class Ensemble:
    """The members of an ensemble at one time t: component-major velocities
    and directors (m, 3) + grid.shape and pressures ``p`` (m,) + grid.shape.
    ``pressure`` holds the pressures, or, in a step's result, a function
    that transforms them from the projection's spectrum: the first read of
    ``p`` calls it and keeps its result, so a run whose readers never look
    at the pressure never transforms it."""

    grid: Grid
    t: float
    v: np.ndarray
    d: np.ndarray
    pressure: object

    @property
    def p(self) -> np.ndarray:
        if callable(self.pressure):
            self.pressure = self.pressure()
        return self.pressure

    @classmethod
    def of(cls, states) -> "Ensemble":
        """C-contiguous copies of the fields of states at one common time,
        all on one grid."""
        if len({s.t for s in states}) != 1:
            raise ValueError("an ensemble needs one or more members at one time")
        grid = states[0].v.grid
        if any(s.v.grid != grid or s.d.grid != grid for s in states):
            raise ValueError("the members of an ensemble must live on one grid")
        v, d, p = (np.array([getattr(s, f).values for s in states]) for f in "vdp")
        return cls(grid, states[0].t, v, d, p)

    def member(self, i: int) -> State:
        """Member i as a State of contiguous views of the ensemble's arrays."""
        grid = self.grid
        return State(self.t, VectorField(grid, self.v[i]), VectorField(grid, self.d[i]),
                     ScalarField(grid, self.p[i]))


@dataclass(frozen=True)
class StateTerms:
    """The fields of one state that more than one reader needs, each
    member's, component-major with the member axis leading: its director's
    grad d, div(L : grad d) and |d|^2 - 1, its energies, its grad v and its
    :func:`energetics.director_strain`.  The body force is constant, so it is
    the stepper's, not the state's.  Whoever makes the state makes its
    record, the stepper for a fresh state (:meth:`Stepper.terms`) and the
    step for its result; records and states are never written after they
    are handed out."""

    grad: np.ndarray  # (m, 3, dim) + grid.shape
    lap: np.ndarray  # (m, 3) + grid.shape
    dev: np.ndarray  # (m,) + grid.shape
    energy: np.ndarray  # (m, 3): kinetic, elastic, penalty
    grad_v: np.ndarray  # (m, 3, dim) + grid.shape
    strain: tuple  # (grad v) d, Dv d, d . Dv d

    @property
    def total(self) -> np.ndarray:  # kinetic + elastic + penalty, per member
        return self.energy[:, 0] + self.energy[:, 1] + self.energy[:, 2]


@dataclass
class Trajectory:
    states: list  # sampled States (including the initial one); none with a hook
    trace: EnergyTrace
    step_times: np.ndarray
    step_total_energy: np.ndarray


def _keep_heap() -> None:
    """Keep the arrays a step frees in the heap for the next step: on glibc,
    set M_MMAP_THRESHOLD and M_TRIM_THRESHOLD to 32 MiB with ``mallopt``.

    By default glibc hands the freed top of its heap back to the OS above a
    trim threshold of twice the largest block it has seen, and the next
    step faults those pages back in: 9942 minor faults per warm sim-2d-n128
    job of the benchmark and 6033 per aniso-3d-n32 job, 0-1 with both set
    (2 cores, glibc 2.36).  Setting either one turns glibc's dynamic mmap
    threshold off (mallopt(3)), so both are set, to 32 MiB, its 64-bit cap.
    Process-wide and idempotent; nothing is set without glibc's ``mallopt``
    or if it refuses the value.  No array or arithmetic changes."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD, refused above 32 MiB
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


class Stepper:
    """Steps one (grid, material, config) tuple under one body force, a
    field on the stepper's grid or None; builds its SpectralOps once.

    The step acts on an :class:`Ensemble`: every member at once, with the
    member axis leading, and with the checks and energies taken per member,
    so that each member evolves bit for bit as it does alone.  It takes
    States only at :meth:`run_ensemble`, the one run loop; a lone state's
    run is its one-member case (:func:`run`).  Building one keeps the
    process's freed arrays in its heap (:func:`_keep_heap`).
    """

    def __init__(
        self,
        grid: Grid,
        cfg: StepperConfig,
        p: ParameterSet,
        tensor: ElasticTensor,
        forcing: VectorField | None = None,
        allow_invalid: bool = False,
    ):
        if not allow_invalid:
            require_valid(p)
        if forcing is not None and forcing.grid != grid:
            raise ValueError("the forcing and the stepper live on different grids")
        self.grid = grid
        self.cfg = cfg
        self.p = p
        self.tensor = tensor
        self.forcing = forcing
        _keep_heap()
        director_alpha = cfg.theta * cfg.dt * p.gamma
        helmholtz_coeff = cfg.theta * cfg.dt * 0.5 * p.mu4
        # at theta = 0 both implicit operators are exactly the identity: the
        # ops then get no tensor and hold no director inverse, and the step
        # makes no director solve and no Helmholtz divide
        self.ops = SpectralOps(grid, tensor if director_alpha != 0.0 else None,
                               director_alpha=director_alpha, helmholtz_coeff=helmholtz_coeff)
        self._helmholtz = helmholtz_coeff != 0.0
        self._cfl_warned = False

    def _director_terms(self, d: np.ndarray) -> tuple:
        """grad d, div(L : grad d), |d|^2 - 1 and the free energies of the
        members' component-major directors."""
        grad, flux, lap, dev = en.director_terms(self.grid, self.tensor, d)
        return grad, lap, dev, en.free_energies(self.grid, self.p.epsilon, grad, flux, dev)

    def terms(self, e: Ensemble) -> StateTerms:
        """The :class:`StateTerms` of a state the stepper did not make."""
        grad, lap, dev, free = self._director_terms(e.d)
        grad_v = g.gradient_components(self.grid, e.v)
        energy = np.column_stack((en.kinetic_energies(self.grid, e.v), free))
        return StateTerms(grad, lap, dev, energy, grad_v, en.director_strain(grad_v, e.d))

    def _check_cfl(self, v: np.ndarray) -> None:
        """Warn once per stepper when the advective CFL number, the largest
        dt max|v_a| / h_a over the members and the grid's axes a, exceeds
        0.5; a component along an axis the grid lacks advects nothing."""
        dim = self.grid.dim
        speed = np.abs(v[:, :dim]).max(axis=(0, *range(2, dim + 2)))
        cfl = self.cfg.dt * float((speed / self.grid.h).max())
        if cfl > 0.5:
            warnings.warn(f"advective CFL number {cfl:.2f} exceeds 0.5", RuntimeWarning)
            self._cfl_warned = True

    def step(self, e: Ensemble, terms: StateTerms) -> tuple:
        """Advance every member of the Ensemble ``e`` on the stepper's grid
        by one step: the result and its :class:`StateTerms`.  ``terms`` must
        be those of e (:meth:`terms` gives them for a state the stepper did
        not make); the step writes into neither.  The result's pressures are
        transformed when its ``p`` is first read."""
        cfg, p, grid = self.cfg, self.p, self.grid
        dt, theta, dim = cfg.dt, cfg.theta, grid.dim
        self.ops.check_grid(e.grid)
        v, d = e.v, e.d
        grad_d, grad_v = terms.grad, terms.grad_v
        if not self._cfl_warned:
            self._check_cfl(v)

        # 1. director update: theta-implicit elasticity, rest explicit;
        # (grad v)_skw d - lambda Dv d = (grad v) d - (1 + lambda) Dv d
        grad_v_d, dvd, ddvd = terms.strain
        rhs = grad_v_d - np.einsum("mij...,mj...->mi...", grad_d, v[:, :dim])
        rhs -= (1.0 + p.lam) * dvd
        rhs -= ((p.gamma / p.epsilon) * terms.dev[:, None]) * d
        rhs += ((1.0 - theta) * p.gamma) * terms.lap
        rhs *= dt
        rhs += d
        if self.ops.director_inverse is not None:
            d_new = solve_director_implicit(rhs, self.ops)
        else:  # the explicit update is the new director; rhs needs a new buffer
            d_new, rhs = rhs, np.empty_like(rhs)
        grad_new, lap_new, dev_new, free_new = self._director_terms(d_new)

        # 2. two-point variational derivative: the exact discrete gradient of
        # the free energy between d and d_new, so the coupling terms below
        # cancel the director transport and rotation terms identically in the
        # discrete energy balance; div(L : grad .) of the midpoint is the mean
        q_half = d + d_new
        q_half *= ((0.5 / p.epsilon) * (0.5 * (terms.dev + dev_new)))[:, None]
        # the director right-hand side is consumed: reuse its buffer
        np.add(terms.lap, lap_new, out=rhs)
        rhs *= 0.5
        q_half -= rhs

        # 3. tentative velocity: coupling terms at the old director with the
        # two-point q; viscous part theta-implicit as (mu4/2) Lap v, whose
        # explicit share is (1 - theta) mu4/2 div(grad v).  Skew-symmetric
        # (split) advection 1/2 [(v . grad) v + div(v x v)] is exactly
        # energy-neutral under the skew-adjoint central stencil.  Column j of
        # the explicit flux T - mu4 Dv - v x v / 2 + (1 - theta) mu4/2 grad v
        # is built in ``col`` and differentiated along axis j at once.
        # mu1 (d . Dv d) out of place: the record is never written
        alpha, w = _stress_factors(d, q_half, dvd, p.mu1 * ddvd, p)
        viscous = (1.0 - theta) * 0.5 * p.mu4
        col, scratch = np.empty_like(v), np.empty_like(v)
        for j in range(dim):
            _stress_column(col, j, d, alpha, w, scratch)
            col -= np.multiply(v, 0.5 * v[:, j : j + 1], out=scratch)
            col += np.multiply(grad_v[:, :, j], viscous, out=scratch)
            if j == 0:
                g._deriv(grid, col, -dim, out=rhs)
            else:
                rhs += g._deriv(grid, col, j - dim, out=scratch)
        del col, scratch, alpha, w
        rhs -= 0.5 * np.einsum("mij...,mj...->mi...", grad_v, v[:, :dim])
        # Ericksen force (grad d)^T q, as in ericksen_force
        rhs[:, :dim] += np.einsum("mia...,mi...->ma...", grad_d, q_half)
        del q_half  # the step's memory peaks in the velocity update
        rhs *= dt
        rhs += v
        if self.forcing is not None:
            rhs += dt * self.forcing.values

        # 4. the Helmholtz solve and the projection on one spectrum
        v_new, p_spectrum, grad_v = _velocity_update(self.ops, rhs, self._helmholtz)
        del rhs
        result = Ensemble(grid, e.t + dt, v_new, d_new, lambda: _pressure(self.ops, p_spectrum) / dt)
        energy = np.column_stack((en.kinetic_energies(grid, v_new), free_new))
        return result, StateTerms(grad_new, lap_new, dev_new, energy, grad_v, en.director_strain(grad_v, d_new))

    def run_ensemble(self, initials, each_step=None) -> list:
        """Run the states ``initials``, all at one time, as one ensemble: one
        step call per step advances every member, and the steps of
        ``cfg.samples`` are sampled.  Returns one Trajectory per member, bit
        for bit that of the member's lone run.  The step energy, the record's
        :attr:`StateTerms.total`, is the finiteness check: a NaN or inf in a
        member's v or d, or an overflow (|x| of about 1e154), makes it
        non-finite.  A non-finite initial member raises InitialStateError, a
        ValueError, naming it; one that turns non-finite raises SimulationError
        naming it, with its last sample.

        ``each_step(ensemble, terms, sampled)`` is called on every step, step
        0 included, before its trace row, with the step's :class:`StateTerms`
        and whether it is one of ``cfg.samples``; the trajectories then keep
        no states, so memory is flat in trajectory length.  Without it, each
        Trajectory holds its member of the samples, whose pressures are
        transformed as its States are made.  No array is written after it is
        handed out, so a hook, like the run, may keep what it gets uncopied.
        """
        cfg = self.cfg
        state = Ensemble.of(initials)
        m = len(initials)
        samples = cfg.samples(state.t)
        n_steps = samples[-1]
        # each member's trace, field by field in EnergyTrace order, a column
        # per sample
        trace = np.empty((m, len(fields(EnergyTrace)), len(samples)))
        step_times = np.empty(n_steps + 1)
        step_energy = np.empty((m, n_steps + 1))
        kept = []  # the samples, kept by a run without a hook

        terms = self.terms(state)
        last = None  # the last sample, for SimulationError
        j = 0
        for k in range(n_steps + 1):
            if k > 0:
                state, terms = self.step(state, terms)
            step_times[k] = state.t
            step_energy[:, k] = total = terms.total
            bad = [i for i, x in enumerate(total.tolist()) if not math.isfinite(x)]
            if bad:
                i, where = bad[0], f"{_member_label(bad[0], m)} at step {k} (t = {state.t:.6g})"
                if k == 0:
                    raise InitialStateError(f"non-finite initial state or energy{where}", member=i)
                raise SimulationError(f"non-finite values{where}", last_state=last.member(i), member=i)
            sampled = k == samples[j]
            if each_step is not None:
                each_step(state, terms, sampled)
            if sampled:
                last = state
                if each_step is None:
                    kept.append(state)
                trace[:, :, j] = self._diagnostics(state, terms)
                j += 1

        return [
            Trajectory([e.member(i) for e in kept], EnergyTrace(*trace[i]), step_times, step_energy[i])
            for i in range(m)
        ]

    def _diagnostics(self, e: Ensemble, terms: StateTerms) -> list:
        """Each member's trace row, its energies and dissipation channels in
        EnergyTrace field order, read from the state's terms, and the
        forcing power (g, v), the sum of the product of the component-major
        arrays times the cell volume."""
        p, grid, forcing = self.p, self.grid, self.forcing
        q = en.variational_q(e.d, terms.dev, terms.lap, p.epsilon)
        rows = en.dissipations(grid, p, en.strain_sq(terms.grad_v), q, *terms.strain[1:])
        return [
            (e.t, *energy, total, *row,
             0.0 if forcing is None else float(np.sum(forcing.values * v)) * grid.cell_volume)
            for energy, total, row, v in zip(terms.energy.tolist(), terms.total.tolist(), rows, e.v)
        ]


def run(
    initial: State,
    cfg: StepperConfig,
    p: ParameterSet,
    tensor: ElasticTensor,
    forcing: VectorField | None = None,
    allow_invalid: bool = False,
    each_step=None,
) -> Trajectory:
    """The run of the one state ``initial``: :meth:`Stepper.run_ensemble`
    of a one-member ensemble."""
    return Stepper(initial.v.grid, cfg, p, tensor, forcing, allow_invalid).run_ensemble(
        [initial], each_step
    )[0]
