"""Constitutive stress, right-hand sides, incompressibility projection, and
the semi-implicit time stepper.

Scheme (one step):

1. director update: stiff elastic operator treated theta-implicitly,
   transport / rotation / penalty explicit;
2. form the two-point variational derivative (the exact discrete gradient of
   the free energy between the old and new director);
3. tentative velocity: theta-implicit viscous Helmholtz solve, explicit
   advection, Leslie stress and director force evaluated at the old director
   with the two-point q, plus forcing;
4. exact FFT Leray projection onto discretely divergence-free fields on
   the Helmholtz solve's spectrum (:func:`_velocity_update`), with one
   inverse transform of the velocity, stacked with the pressure on the
   steps whose state is sampled (the pressure is only ever read there):
   four FFTs a step, two at theta = 0, where both implicit operators are
   the identity and the step makes no director solve and no Helmholtz
   divide.  The grad v of the projected velocity gives the projection
   residual as its trace.

Each derivative is taken once per step.  Every state has one record of the
fields that more than one reader needs (:class:`StateTerms`): its
director's grad d, div(L : grad d), |d|^2 - 1 and free energy, its grad v,
its director strain and its forcing values, all written when the state is
made -- by the step for its result (grad v is the one the velocity update
takes) -- and only read by the next step, the per-step energy, the
sample's diagnostics and the run's observer.  The two-point q uses the mean
of the two directors' div(L : grad d), as the operator is linear; and the
explicit momentum flux is built one column at a time, each column
differentiated as soon as it is built, the stress's as d alpha_j + w d_j
from the factors alpha, w formed once per step (:func:`_stress_factors`).

Layout: the stepper computes on component-major arrays with a leading
member axis -- vectors ``(m, 3) + grid.shape``, gradients
``(m, 3, dim) + grid.shape`` with entry (i, j) = d f_i / d x_j -- so every
contraction over components is a multiply-add of contiguous arrays and one
step advances the m members of an :class:`Ensemble` at once; a lone state is
the one-member case.  The checks (CFL warning, finiteness, projection
residual) and every energy are taken per member on that member's slice, so
each member evolves bit for bit as it does alone.  A gradient holds only the
grid's dim columns: on a 2D grid it has no always-zero third column, and
L : grad d is one (3 dim) x (3 dim) matrix product with L_ijkl restricted to
j, l < dim (:meth:`ElasticTensor.contraction`).  The states it returns keep
the public node-major shape ``grid.shape + (3,)``: their fields are
zero-copy ``np.moveaxis`` views of one member of the stepper's arrays.
``State.copy()`` gives C-contiguous node-major arrays.

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
from dataclasses import dataclass, fields

import numpy as np

from . import energetics as en
from . import grid as g
from .energetics import EnergyTrace
from .energetics import free_energy  # noqa: F401  (importable from here, as before)
from .grid import Grid, ScalarField, TensorField, VectorField
from .material import ParameterSet, require_valid
from .tensor import ElasticTensor, outer, skw, sym


class ProjectionError(RuntimeError):
    """Pressure solve failed to reach the requested divergence residual."""


class SimulationError(RuntimeError):
    """Time integration aborted; carries the last finite state and its member's index."""

    def __init__(self, message, last_state=None, member=None):
        super().__init__(message)
        self.last_state = last_state
        self.member = member


@dataclass
class State:
    """One trajectory sample: time, velocity, director, projection pressure.

    Fields have the node-major shape ``grid.shape + (3,)``; in states made by
    a :class:`Stepper` they are views of component-major arrays.  The
    pressure is the discrete Leray multiplier divided by dt; it is an
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
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if not (0.0 < self.poisson_tol <= 1e-6):
            raise ValueError("poisson_tol must lie in (0, 1e-6]")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")
        if not (0.0 <= self.theta < 0.5):
            raise ValueError("theta must lie in [0, 0.5) for a one-sided energy law")

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


# ---------------------------------------------------------------------------
# spectral operators
# ---------------------------------------------------------------------------

class SpectralOps:
    """The Fourier-diagonal operators of one grid.

    Fields are real, so they are transformed with ``rfftn`` over their
    trailing spatial axes onto the half spectrum (the last spatial axis keeps
    modes 0 .. n // 2); component axes lead.  The central first derivative
    along axis a has symbol i sigma_a with sigma_a = sin(2 pi k_a / n_a) / h_a,
    and the composite (wide) Laplacian the symbol -|sigma|^2.  The object
    holds the Helmholtz denominator 1 + helmholtz_coeff |sigma|^2 and the
    projection denominator -|sigma|^2.  Given an elasticity tensor, which
    goes with a nonzero director_alpha and only with one (else ValueError),
    it also holds the inverse of I + director_alpha S, with S the director
    stiffness (:func:`_stiffness`), in closed form, adjugate over
    determinant (:func:`_inverse_3x3`; no LAPACK call), real and
    component-major, (3, 3) + half-spectrum shape; without one that
    operator is the identity and ``director_inverse`` is None.
    ``director_blocks[i]`` lists the k whose block inverse[i, k] is not
    identically zero -- for an isotropic tensor only k = i -- and
    :func:`solve_director_implicit` multiplies only those.  A Stepper builds
    one and keeps it.
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
        self.sigmas = sigmas
        self.sig_sq = sig_sq = sum(s**2 for s in sigmas)
        self.helmholtz_denominator = 1.0 + helmholtz_coeff * sig_sq
        # modes where every derivative symbol vanishes carry no divergence;
        # dividing by inf leaves them at zero pressure
        self.projection_denominator = np.where(sig_sq != 0.0, -sig_sq, np.inf)
        self.director_inverse = None
        self.director_blocks = None
        if tensor is not None:
            matrix = _stiffness(tensor, sigmas)
            matrix *= director_alpha
            for i in range(3):
                matrix[i, i] += 1.0
            self.director_inverse = inverse = _inverse_3x3(matrix)
            self.director_blocks = tuple(
                tuple(k for k in range(3) if inverse[i, k].any()) for i in range(3)
            )

    def forward(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.rfftn(values, axes=self.axes, out=out)

    def backward(self, values_hat: np.ndarray) -> np.ndarray:
        """``irfftn`` over the grid's axes, bit for bit, spending
        ``values_hat``: the complex stages run in place on it (numpy's n-d
        loop takes the listed axes last to first, so the reversed list is
        ``irfftn``'s own order), then the real stage on the last axis."""
        np.fft.ifftn(values_hat, axes=self.axes[-2::-1], out=values_hat)
        return np.fft.irfft(values_hat, n=self.grid.n[-1], axis=-1)

    def check_grid(self, grid: Grid) -> None:
        if grid != self.grid:
            raise ValueError("field and spectral operators live on different grids")


def _stiffness(tensor: ElasticTensor, sigmas: list) -> np.ndarray:
    """S_ik = sum_jl L_ijkl sigma_j sigma_l on the half spectrum of the dim
    symbols ``sigmas``, component-major (3, 3) + half-spectrum shape: each
    nonzero L_ijkl with j, l < dim adds L_ijkl sigma_j sigma_l to S_ik, the
    products sigma_j sigma_l formed once each (the symbols of the axes from
    dim on vanish)."""
    dim = len(sigmas)
    stiffness = np.zeros((3, 3) + sigmas[0].shape)
    products, term = {}, np.empty(sigmas[0].shape)
    for row, entries in enumerate(tensor.sparse_contraction(dim)):
        i, j = divmod(row, dim)
        for col, c in entries:
            if c == 0.0:
                continue
            k, l = divmod(col, dim)
            pair = (min(j, l), max(j, l))
            if pair not in products:
                products[pair] = sigmas[j] * sigmas[l]
            stiffness[i, k] += np.multiply(products[pair], c, out=term)
    return stiffness


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


def _members(u, ops: SpectralOps) -> np.ndarray:
    """Component-major member values (m, 3) + grid.shape: those of a
    VectorField on the grid of ``ops`` as one member, or the ensemble values
    given."""
    if isinstance(u, VectorField):
        ops.check_grid(u.grid)
        return g.components(u.values)[None]
    if u.ndim != ops.grid.dim + 2 or u.shape[1:] != (3,) + ops.grid.shape:
        raise ValueError(f"member values shape {u.shape}, expected (m, 3) + {ops.grid.shape}")
    return u


def _as_given(u, values: np.ndarray):
    """Member values in the kind of the input ``u``."""
    return VectorField(u.grid, g.nodal(values[0])) if isinstance(u, VectorField) else values


def _member_label(i: int, m: int) -> str:
    return f" of member {i}" if m > 1 else ""


def project_divfree(u, ops: SpectralOps | None = None, tol: float = 1e-10):
    """Discrete Leray projection: returns (u - grad p, p) with div(result) ~ 0.

    Solves div grad p = div u exactly in Fourier space (the composite
    central-difference Laplacian is diagonal there) with
    :func:`_velocity_update`; modes where every derivative symbol vanishes
    carry no divergence and are left alone, so p has zero mean.  ``u`` is a
    VectorField, or the component-major values (m, 3) + grid.shape of an
    ensemble's members (then p is (m,) + grid.shape); each member is held to
    its own residual target.  Without ``ops`` the operators of u's grid are
    built for this call.
    """
    if ops is None:
        ops = SpectralOps(u.grid)
    vp, _ = _velocity_update(ops, _members(u, ops), tol)
    if isinstance(u, VectorField):
        return _as_given(u, vp[:, :3]), ScalarField(ops.grid, vp[0, 3])
    return vp[:, :3], vp[:, 3]


def _velocity_update(ops: SpectralOps, values: np.ndarray, tol: float, helmholtz: bool = False,
                     pressure: bool = True):
    """The members' vectors ``values`` (m, 3) + grid.shape, Helmholtz-solved
    if ``helmholtz``, then projected, with their pressures if ``pressure``:
    velocity [:, :3] and pressure [:, 3] of one (m, 4) + grid.shape inverse
    transform, (m, 3) without; and the grad v of the projected velocity.
    With s = sigma . u_hat (the stencil divergence has symbol i s), p_hat =
    i s / (-|sigma|^2) and u_hat += sigma s / (-|sigma|^2).  Raises
    ProjectionError when the stencil divergence of a member's result, the
    trace of its grad v summed as :func:`grid.divergence_components` sums
    it, exceeds its :func:`_projection_targets`."""
    grid = ops.grid
    vp_hat = np.empty((len(values), 3 + pressure) + ops.sig_sq.shape, dtype=complex)
    u_hat = ops.forward(values, out=vp_hat[:, :3])
    if helmholtz:
        u_hat /= ops.helmholtz_denominator
    s = ops.sigmas[0] * u_hat[:, 0]
    for a in range(1, grid.dim):
        s += ops.sigmas[a] * u_hat[:, a]
    targets = _projection_targets(ops, u_hat, s, tol)
    s /= ops.projection_denominator
    for a in range(grid.dim):
        u_hat[:, a] += ops.sigmas[a] * s
    if pressure:
        np.multiply(s, 1j, out=vp_hat[:, 3])
    vp = ops.backward(vp_hat)
    del vp_hat, u_hat, s  # spent; freed before grad v, the update's largest array
    grad_v = g.gradient_components(grid, vp[:, :3])
    div = grad_v[:, 0, 0] + grad_v[:, 1, 1]
    for a in range(2, grid.dim):
        div += grad_v[:, a, a]
    for i, target in enumerate(targets):
        res = math.sqrt(float(np.vdot(div[i], div[i])) * grid.cell_volume)
        if res > target:
            raise ProjectionError(
                f"projection residual {res:.3e}{_member_label(i, len(targets))} "
                f"exceeds target {target:.3e}"
            )
    return vp, grad_v


def _projection_targets(ops: SpectralOps, u_hat: np.ndarray, div_hat: np.ndarray, tol: float) -> list:
    """Each member's projection residual target, tol |div u| + 1e-14 (1 +
    |u|) in the L2 norm, from the half spectra of its u and of sigma . u,
    whose norm is that of the stencil divergence.  By Parseval, where a mode
    of the last axis other than 0 and the Nyquist mode stands for its
    conjugate too."""
    n, grid = ops.grid.n[-1], ops.grid

    def norm(x_hat):
        edges = x_hat[..., :: n // 2] if n % 2 == 0 else x_hat[..., :1]
        sq = 2.0 * np.vdot(x_hat, x_hat).real - np.vdot(edges, edges).real
        return math.sqrt(float(sq) / grid.cell_count * grid.cell_volume)

    return [tol * norm(s) + 1e-14 * (1.0 + norm(u)) for u, s in zip(u_hat, div_hat)]


def solve_director_implicit(rhs, ops: SpectralOps):
    """Solve (I + alpha * (-div(L : grad .))) x = rhs with the tensor and
    alpha that ``ops`` was built with; ``rhs`` is a VectorField or an
    ensemble's member values (m, 3) + grid.shape, and x comes back in that
    kind.

    The operator is block-diagonal in Fourier space: for each mode the 3x3
    matrix I + alpha * S(k), which strong ellipticity keeps positive
    definite; ``ops`` holds its real inverse, applied to the complex
    component-major spectrum as real-by-complex multiply-adds over the
    blocks that are not identically zero (``ops.director_blocks``).
    """
    values = _members(rhs, ops)
    if ops.director_inverse is None:
        raise ValueError("spectral operators were built without an elasticity tensor, "
                         "at director_alpha = 0")
    rhs_hat = ops.forward(values)
    inverse = ops.director_inverse
    x_hat = np.empty_like(rhs_hat)
    term = None
    for i, blocks in enumerate(ops.director_blocks):
        out = x_hat[:, i]
        np.multiply(inverse[i, blocks[0]], rhs_hat[:, blocks[0]], out=out)
        for k in blocks[1:]:
            if term is None:
                term = np.empty_like(out)
            out += np.multiply(inverse[i, k], rhs_hat[:, k], out=term)
    return _as_given(rhs, ops.backward(x_hat))


def solve_helmholtz(rhs, ops: SpectralOps):
    """Solve (I + coeff * (-Lap)) x = rhs componentwise, with the wide
    (composite central-difference) Laplacian and the coefficient that
    ``ops`` was built with; ``rhs`` is a VectorField or an ensemble's member
    values (m, 3) + grid.shape, and x comes back in that kind."""
    x_hat = ops.forward(_members(rhs, ops))
    x_hat /= ops.helmholtz_denominator
    return _as_given(rhs, ops.backward(x_hat))


def max_stiff_rate(grid: Grid, tensor: ElasticTensor, p: ParameterSet) -> float:
    """Largest eigenvalue of the stiff linear operators (director elasticity
    scaled by gamma, and half the viscosity)."""
    ops = SpectralOps(grid)
    s_mat = np.moveaxis(_stiffness(tensor, ops.sigmas), (0, 1), (-2, -1))
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

    evaluated term by term in this order, so that an entry where the terms
    nearly cancel rounds as the formula does; the stepper regroups the same
    terms into :func:`_stress_factors`.
    """
    dv = sym(g.gradient_vec(v).values)
    dvd = np.einsum("...ij,...j->...i", dv, d.values)
    ddvd = np.einsum("...i,...i->...", d.values, dvd)
    dq = outer(d.values, q.values)
    return TensorField(v.grid, (
        p.mu1 * ddvd[..., None, None] * outer(d.values, d.values)
        + p.mu4 * dv
        - p.gamma * p.mu23 * sym(dq)
        - skw(dq)
        + p.directional_coeff * sym(outer(d.values, dvd))
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
    grad = g.gradient_vec(d)
    return VectorField(d.grid, np.einsum("...ia,...i->...a", grad.values, q.values))


# ---------------------------------------------------------------------------
# the stepper
# ---------------------------------------------------------------------------

@dataclass
class Ensemble:
    """The members of an ensemble at one time t: component-major velocities
    and directors (m, 3) + grid.shape and pressures (m,) + grid.shape, or
    None after a step that was not asked for them."""

    grid: Grid
    t: float
    v: np.ndarray
    d: np.ndarray
    p: np.ndarray

    @classmethod
    def of(cls, states) -> "Ensemble":
        """C-contiguous copies of the fields of states at one common time,
        all on one grid."""
        if len({s.t for s in states}) != 1:
            raise ValueError("an ensemble needs one or more members at one time")
        grid = states[0].v.grid
        if any(s.v.grid != grid or s.d.grid != grid for s in states):
            raise ValueError("the members of an ensemble must live on one grid")
        v, d = (g.members([getattr(s, f) for s in states]) for f in "vd")
        return cls(grid, states[0].t, v, d, np.array([s.p.values for s in states]))

    def copy(self) -> "Ensemble":
        """A copy whose members are States of C-contiguous node-major
        arrays, as ``State.copy()`` gives."""
        v, d = (np.moveaxis(np.moveaxis(x, 1, -1).copy(), -1, 1) for x in (self.v, self.d))
        return Ensemble(self.grid, self.t, v, d, self.p.copy())

    def member(self, i: int) -> State:
        """Member i as a State of node-major views."""
        grid = self.grid
        return State(self.t, VectorField(grid, g.nodal(self.v[i])),
                     VectorField(grid, g.nodal(self.d[i])),
                     None if self.p is None else ScalarField(grid, self.p[i]))


@dataclass
class StateTerms:
    """The fields of one state that more than one reader needs, each
    member's, component-major with the member axis leading: its director's
    grad d, div(L : grad d), |d|^2 - 1 and free energy, its grad v, its
    :func:`energetics.director_strain` and the forcing values at its time.
    Whoever makes the state writes all of them, the stepper for a fresh state
    (:meth:`Stepper._terms`) and the step for its result; everyone else, the
    run's observer too, only reads them, and the next step rebinds the fields
    (dropping the strain it consumes) without writing into their arrays."""

    grad: np.ndarray  # (m, 3, dim) + grid.shape
    lap: np.ndarray  # (m, 3) + grid.shape
    dev: np.ndarray  # (m,) + grid.shape
    energy: list  # one energetics.EnergyBreakdown per member
    grad_v: np.ndarray  # (m, 3, dim) + grid.shape
    strain: tuple | None  # (grad v) d, Dv d, d . Dv d
    forcing: np.ndarray | None  # grid.shape + (3,); None when unforced


@dataclass
class Trajectory:
    states: list  # sampled States (including the initial one); none with an observer
    trace: EnergyTrace
    step_times: np.ndarray
    step_total_energy: np.ndarray


class Stepper:
    """Steps one (grid, material, config) tuple; builds its SpectralOps once.

    The step acts on an :class:`Ensemble`: every member at once, with the
    member axis leading, and with the checks and energies taken per member,
    so that each member evolves bit for bit as it does alone.  A lone state
    is the one-member case.
    """

    def __init__(
        self,
        grid: Grid,
        cfg: StepperConfig,
        p: ParameterSet,
        tensor: ElasticTensor,
        forcing=None,
        allow_invalid: bool = False,
    ):
        if not allow_invalid:
            require_valid(p)
        self.grid = grid
        self.cfg = cfg
        self.p = p
        self.tensor = tensor
        self.forcing = forcing
        director_alpha = cfg.theta * cfg.dt * p.gamma
        helmholtz_coeff = cfg.theta * cfg.dt * 0.5 * p.mu4
        # at theta = 0 both implicit operators are exactly the identity: the
        # ops then get no tensor and hold no director inverse, and the step
        # makes no director solve and no Helmholtz divide
        self.ops = SpectralOps(grid, tensor if director_alpha != 0.0 else None,
                               director_alpha=director_alpha, helmholtz_coeff=helmholtz_coeff)
        self._helmholtz = helmholtz_coeff != 0.0
        self._contraction = tensor.sparse_contraction(grid.dim)
        self._cfl_warned = False

    def _forcing_values(self, t: float):
        if self.forcing is None:
            return None
        return self.forcing(self.grid, t).values

    def _director_terms(self, d: np.ndarray) -> tuple:
        """grad d, div(L : grad d), |d|^2 - 1 and the free energies of the
        members' component-major directors."""
        grad, flux, lap, _, dev = en.director_terms(self.grid, self._contraction, d)
        return grad, lap, dev, en.free_energies(self.grid, self.p.epsilon, grad, flux, dev)

    def _terms(self, e: Ensemble) -> StateTerms:
        """The :class:`StateTerms` of a state the stepper did not make."""
        grad_v = g.gradient_components(self.grid, e.v)
        return StateTerms(*self._director_terms(e.d), grad_v, en.director_strain(grad_v, e.d),
                          self._forcing_values(e.t))

    def _check_cfl(self, v: np.ndarray) -> None:
        """Warn once per stepper when a member's advective CFL number
        exceeds 0.5."""
        cfl = self.cfg.dt * np.abs(v).reshape(len(v), -1).max(axis=1) / min(self.grid.h)
        worst = int(np.argmax(cfl))
        if cfl[worst] > 0.5:
            warnings.warn(
                f"advective CFL number {cfl[worst]:.2f}{_member_label(worst, len(v))} exceeds 0.5",
                RuntimeWarning,
            )
            self._cfl_warned = True

    def step(self, s, terms: StateTerms | None = None, pressure: bool = True):
        """Advance a State, or every member of an Ensemble, on the stepper's
        grid by one step, and return the same kind.  ``terms``, if given,
        must be those of s (else they are computed from s); the step
        overwrites every field with those of the result, ready for its
        readers and the next step.  With ``pressure=False`` the step skips
        the pressure: the result's p is None."""
        cfg, p, grid = self.cfg, self.p, self.grid
        dt, theta, dim = cfg.dt, cfg.theta, grid.dim
        e = Ensemble.of([s]) if isinstance(s, State) else s
        self.ops.check_grid(e.grid)
        v, d = e.v, e.d
        if terms is None:
            terms = self._terms(e)
        grad_d, grad_v = terms.grad, terms.grad_v
        if not self._cfl_warned:
            self._check_cfl(v)

        # 1. director update: theta-implicit elasticity, rest explicit;
        # (grad v)_skw d - lambda Dv d = (grad v) d - (1 + lambda) Dv d; the
        # strain is dropped from ``terms`` as it is consumed
        (grad_v_d, dvd, ddvd), terms.strain = terms.strain, None
        rhs = grad_v_d - np.einsum("mij...,mj...->mi...", grad_d, v[:, :dim])
        del grad_v_d
        rhs -= (1.0 + p.lam) * dvd
        rhs -= ((p.gamma / p.epsilon) * terms.dev[:, None]) * d
        rhs += ((1.0 - theta) * p.gamma) * terms.lap
        rhs *= dt
        rhs += d
        if self.ops.director_inverse is not None:
            d_new = solve_director_implicit(rhs, self.ops)
        else:  # the explicit update is the new director; rhs needs a new buffer
            d_new, rhs = rhs, np.empty_like(rhs)
        grad_new, lap_new, dev_new, energy_new = self._director_terms(d_new)

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
        # mu1 (d . Dv d) out of place: the strain's record may be handed out
        alpha, w = _stress_factors(d, q_half, dvd, p.mu1 * ddvd, p)
        del dvd, ddvd
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
        if terms.forcing is not None:
            rhs += dt * g.components(terms.forcing)

        # 4. the Helmholtz solve and the projection on one spectrum; the old
        # grad v is freed only after the new one is taken, and with the old
        # grad d before the result's strain is
        vp, grad_v = _velocity_update(self.ops, rhs, cfg.poisson_tol, self._helmholtz, pressure)
        del rhs, grad_d
        terms.grad, terms.lap, terms.dev, terms.energy = grad_new, lap_new, dev_new, energy_new
        terms.grad_v, terms.strain = grad_v, en.director_strain(grad_v, d_new)
        terms.forcing = self._forcing_values(e.t + dt)
        if pressure:
            vp[:, 3] /= dt
        out = Ensemble(grid, e.t + dt, vp[:, :3], d_new, vp[:, 3] if pressure else None)
        return out.member(0) if isinstance(s, State) else out

    def run(self, initial: State, observer=None) -> Trajectory:
        return self.run_ensemble([initial], observer)[0]

    def run_ensemble(self, initials, observer=None) -> list:
        """Run the states ``initials``, all at one time, as one ensemble: one
        step call per step advances every member.  Returns one Trajectory
        per member, bit for bit that of the member's lone run.  A member
        that turns non-finite raises SimulationError naming it, with its
        last sample.

        Without ``observer`` the run's own observer copies each sample
        (:meth:`Ensemble.copy`), and each Trajectory keeps its member of the
        copies.  With one, ``observer(ensemble, terms)`` is called with each
        sampled Ensemble in order, the initial one included, and its
        :class:`StateTerms`; the trajectories keep no states, so memory is
        flat in trajectory length.  The stepper never writes into an array of
        a state or record it has handed out, so an observer may keep them
        uncopied (a record as a shallow copy, as the next step rebinds its
        fields); it must not write into them.
        """
        cfg = self.cfg
        state = Ensemble.of(initials)
        m = len(initials)
        n_steps = cfg.steps(state.t)
        # each member's trace, field by field in EnergyTrace order, a column
        # per sample
        trace = np.empty((m, len(fields(EnergyTrace)), 1 + -(-n_steps // cfg.output_every)))
        step_times = np.empty(n_steps + 1)
        step_energy = np.empty((m, n_steps + 1))
        kept = []  # copies of the samples, made without an observer
        last = None  # the last sample, for SimulationError
        if observer is None:
            def observer(e, terms):
                # the copy is the last sample too, so that the stepper's own
                # arrays are not held between samples
                nonlocal last
                last = e.copy()
                kept.append(last)

        terms = self._terms(state)
        j = 0
        for k in range(n_steps + 1):
            # the pressure is computed only for the samples, which read it
            sampled = k % cfg.output_every == 0 or k == n_steps
            if k > 0:
                state = self.step(state, terms, pressure=sampled)
                finite = np.isfinite(state.v).reshape(m, -1).all(axis=1)
                finite &= np.isfinite(state.d).reshape(m, -1).all(axis=1)
                if not finite.all():
                    i = int(np.argmin(finite))
                    raise SimulationError(
                        f"non-finite values{_member_label(i, m)} at step {k} (t = {state.t:.6g})",
                        last_state=last.member(i), member=i,
                    )
            step_times[k] = state.t
            kinetic = en.kinetic_energies(self.grid, state.v)
            step_energy[:, k] = [kin + fe.elastic + fe.penalty for kin, fe in zip(kinetic, terms.energy)]
            if sampled:
                last = state
                observer(state, terms)
                trace[:, :, j] = self._diagnostics(state, terms, kinetic)
                j += 1

        return [
            Trajectory([c.member(i) for c in kept], EnergyTrace(*trace[i]), step_times, step_energy[i])
            for i in range(m)
        ]

    def _diagnostics(self, e: Ensemble, terms: StateTerms, kinetic: np.ndarray) -> list:
        """Each member's trace row, its energies and dissipation channels in
        EnergyTrace field order, read from the state's terms and the
        members' kinetic energies."""
        p, grid, fvals = self.p, self.grid, terms.forcing
        q = en.variational_q(e.d, terms.dev, terms.lap, p.epsilon)
        channels = en.dissipations(grid, p, en.strain_sq(terms.grad_v), q, *terms.strain[1:])
        return [
            (e.t, kin, fe.elastic, fe.penalty, kin + fe.elastic + fe.penalty, *channels[:, i],
             0.0 if fvals is None else float(np.sum(fvals * g.nodal(e.v[i]))) * grid.cell_volume)
            for i, (kin, fe) in enumerate(zip(kinetic, terms.energy))
        ]


def run(
    initial: State,
    cfg: StepperConfig,
    p: ParameterSet,
    tensor: ElasticTensor,
    forcing=None,
    allow_invalid: bool = False,
    observer=None,
) -> Trajectory:
    return Stepper(initial.v.grid, cfg, p, tensor, forcing, allow_invalid).run(initial, observer)


def run_ensemble(
    initials,
    cfg: StepperConfig,
    p: ParameterSet,
    tensor: ElasticTensor,
    forcing=None,
    allow_invalid: bool = False,
    observer=None,
) -> list:
    return Stepper(initials[0].v.grid, cfg, p, tensor, forcing, allow_invalid).run_ensemble(
        initials, observer
    )
