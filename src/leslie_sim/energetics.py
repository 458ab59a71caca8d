"""Scalar functionals of the flow: free and kinetic energy, the variational
derivative, dissipation channels, relative energy / dissipation for pairs of
trajectories, the Gronwall factor, and energy-law residuals over traces.

Each formula has one implementation, a kernel on the component-major member
arrays of an ensemble (vectors ``(m, 3) + grid.shape``, gradients
``(m, 3, dim) + grid.shape``) that sums per member over the member's own
slice; the relative energy and dissipation are the energy and dissipation
kernels applied to the members' differences from member 0.  The stepper,
the weak-strong campaign and the public functions all call them.  A field's
values have the layout of one member, so the public functions run the
kernels on ``values[None]``, or on a stack of the fields they pair.  The
energy kernels return float arrays, which the stepper's record holds
(``dynamics.StateTerms.energy``); only :func:`free_energy` makes an
:class:`EnergyBreakdown`, equal to a sampled state's trace row bit for bit.
The weak-strong campaign reads a step's record (``dynamics.StateTerms``) at
every step (:func:`relative_step_terms`: E, K) and at every sample
(:func:`relative_dissipations`: W, the absorption terms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from .grid import VectorField
from .material import ParameterSet, zeta
from .tensor import ElasticTensor


@dataclass(frozen=True)
class EnergyBreakdown:
    """The free energy of a director field."""

    elastic: float
    penalty: float

    @property
    def total(self) -> float:
        return self.elastic + self.penalty


# ---------------------------------------------------------------------------
# member-axis kernels
# ---------------------------------------------------------------------------

def _l6_sq(grid: g.Grid, sq: np.ndarray) -> np.ndarray:
    """Squared L^6 norm of each member from its squared magnitudes sq, whose
    cube the integral pairs as sq with sq sq."""
    rows = sq.reshape(len(sq), -1)
    return (np.einsum("ij,ij->i", rows, rows * rows) * grid.cell_volume) ** (1.0 / 3.0)


def l3_norms(grid: g.Grid, f: np.ndarray) -> np.ndarray:
    """The L^3 norm of each member of the component-major vectors f, the
    integral of |f|^3 paired from the squared magnitudes sq as sq sqrt(sq)."""
    return np.array([float(np.vdot(sq, np.sqrt(sq))) * grid.cell_volume for sq in _dot(f, f)]) ** (1.0 / 3.0)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise contraction over the axis after the member axis."""
    return np.einsum("mi...,mi...->m...", x, y)


def director_terms(grid: g.Grid, tensor: ElasticTensor, d: np.ndarray):
    """grad d, L : grad d (:meth:`ElasticTensor.flux`), div(L : grad d) and
    |d|^2 - 1 of the members' directors d."""
    grad = g.gradient_components(grid, d)
    flux = tensor.flux(grad, grid.dim)
    return grad, flux, g.divergence_components(grid, flux), _dot(d, d) - 1.0


def free_energies(grid: g.Grid, eps: float, grad, flux, dev) -> np.ndarray:
    """The free energy of each member's director, from its
    :func:`director_terms`, an (m, 2) array of

    elastic = 1/2 int grad d : L : grad d,
    penalty = 1/(4 eps) int (|d|^2 - 1)^2.
    """
    cellvol = grid.cell_volume
    return np.array([(0.5 * float(np.vdot(grad_i, flux_i)) * cellvol,
                      float(np.vdot(dev_i, dev_i)) * cellvol / (4.0 * eps))
                     for grad_i, flux_i, dev_i in zip(grad, flux, dev)]).reshape(-1, 2)


def variational_q(d: np.ndarray, dev: np.ndarray, lap: np.ndarray, eps: float) -> np.ndarray:
    """q = -div(L : grad d) + (1/eps)(|d|^2 - 1) d of the members, from
    their :func:`director_terms`."""
    q = (dev[:, None] / eps) * d
    q -= lap
    return q


def director_strain(grad_v: np.ndarray, d: np.ndarray):
    """(grad v) d, Dv d = ((grad v) d + (grad v)^T d) / 2 and d . Dv d of
    the members, from their grad v (m, 3, dim, ...) and d (m, 3, ...);
    (grad v)^T d has no components along the axes a dim-dimensional grid
    lacks."""
    dim = grad_v.shape[2]
    gvd = np.einsum("mij...,mj...->mi...", grad_v, d[:, :dim])
    dvd = 0.5 * gvd
    dvd[:, :dim] += 0.5 * np.einsum("mji...,mj...->mi...", grad_v, d)
    return gvd, dvd, _dot(d, dvd)


def strain_sq(grad_v: np.ndarray) -> list:
    """The sum over the nodes of |Dv|^2 of each member, Dv the symmetric part
    of its grad v (m, 3, dim, ...): the rows of grad v beyond dim enter Dv
    twice, halved."""
    dim = grad_v.shape[2]
    block = grad_v[:, :dim] + grad_v[:, :dim].swapaxes(1, 2)
    return [0.25 * float(np.vdot(b, b)) + 0.5 * float(np.vdot(r, r)) for b, r in zip(block, grad_v[:, dim:])]


def kinetic_energies(grid: g.Grid, v: np.ndarray) -> np.ndarray:
    """The kinetic energy 1/2 int |v|^2 of each member's velocity v (m, 3, ...)."""
    return np.array([0.5 * float(np.vdot(v_i, v_i)) * grid.cell_volume for v_i in v])


def dissipations(grid: g.Grid, p: ParameterSet, dv_sq, q, dvd, ddvd) -> list:
    """The channels mu1 |d . Dv d|^2, mu4 |Dv|^2, c |Dv d|^2 (c the
    directional coefficient), gamma |q|^2 and cross_coeff (q, Dv d) of each
    member, one tuple per member in EnergyTrace order, each integral
    coef (a, b) as ``coef * np.vdot(a, b) * cell_volume``; dv_sq is
    :func:`strain_sq`."""
    cellvol = grid.cell_volume
    return [(p.mu1 * float(np.vdot(ddvd_i, ddvd_i)) * cellvol, p.mu4 * dv_sq_i * cellvol,
             p.directional_coeff * float(np.vdot(dvd_i, dvd_i)) * cellvol,
             p.gamma * float(np.vdot(q_i, q_i)) * cellvol,
             p.cross_coeff * float(np.vdot(q_i, dvd_i)) * cellvol)
            for dv_sq_i, q_i, dvd_i, ddvd_i in zip(dv_sq, q, dvd, ddvd)]


def relative_energies(grid: g.Grid, tensor: ElasticTensor, eps: float, v, d, d_sq) -> np.ndarray:
    """E of each member after the first against member 0, the kinetic and
    free energies of the differences, the penalty's of |d|^2 - |dr|^2:

    1/2 |v - vr|_2^2 + 1/2 |grad(d - dr)|_L^2 + 1/(4 eps) ||d|^2 - |dr|^2|_2^2.
    """
    grad_e = g.gradient_components(grid, d[1:] - d[0])
    elastic, penalty = free_energies(grid, eps, grad_e, tensor.flux(grad_e, grid.dim), d_sq[1:] - d_sq[0]).T
    return kinetic_energies(grid, v[1:] - v[0]) + (elastic + penalty)


def relative_dissipations(grid: g.Grid, p: ParameterSet, grad_v, q, dvd, ddvd):
    """W, |cross_coeff (q - qr, Dv d - Dvr dr)| and the absorption bound
    zeta (gamma |q - qr|^2 + M |Dv d - Dvr dr|^2) of each member after the
    first against member 0, from the :func:`dissipations` of the
    differences; W sums the four squared channels."""
    rows = dissipations(grid, p, strain_sq(grad_v[1:] - grad_v[0]), q[1:] - q[0], dvd[1:] - dvd[0],
                        ddvd[1:] - ddvd[0])
    z = zeta(p)
    return ([mu1 + mu4 + directional + q_sq for mu1, mu4, directional, q_sq, _ in rows],
            [abs(cross) for *_, cross in rows],
            [z * (q_sq + directional) for _, _, directional, q_sq, _ in rows])


def gronwall_factors(grid: g.Grid, v, d_sq, dev, qr, ddvd, grad_v, grad) -> np.ndarray:
    """The factors of the Gronwall integrand (c = 1) K = w (s + |dt dr|_L3)
    of each member after the first against member 0, shape (2, m - 1):

    w = 1 + |d|_L6^2 + |dr|_L6^2,
    s = |vr|_W16^2 + |qr|_L3^2 + |dr . Dvr dr|_L6^2 + ||dr|^2 - 1|_L6^2
        + |grad dr|_L2^2 + |v|_L6^2,

    |f|_W16 = (|f|_L6^6 + |grad f|_L6^6)^{1/6}.  Only |v|_L6 and |d|_L6 come
    from the perturbed member: ``qr`` is member 0's q, and of ``dev``,
    ``ddvd``, ``grad_v`` and ``grad`` (grad d) only member 0 is read.
    |dt dr|_L3 enters to the first power, by design, and needs the next
    step, so the caller adds it (:func:`l3_norms`)."""
    m = len(v)
    grad_vr = grad_v[:1].reshape((1, -1) + grid.shape)
    l6 = _l6_sq(grid, np.concatenate([_dot(v, v), d_sq, _dot(grad_vr, grad_vr), ddvd[:1] ** 2, dev[:1] ** 2]))
    v_l6, d_l6, (grad_vr_l6, ddvd_l6, dev_l6) = l6[:m], l6[m : 2 * m], l6[2 * m :]
    s = ((v_l6[0] ** 3 + grad_vr_l6 ** 3) ** (1.0 / 3.0) + l3_norms(grid, qr)[0] ** 2 + ddvd_l6 + dev_l6
         + float(np.vdot(grad[0], grad[0])) * grid.cell_volume)
    return np.array([1.0 + d_l6[1:] + d_l6[0], s + v_l6[1:]])


def relative_step_terms(grid: g.Grid, p: ParameterSet, tensor: ElasticTensor, v, d, terms) -> np.ndarray:
    """E and K's factors (:func:`gronwall_factors`) of each member after the
    first against member 0 at one step, shape (3, m - 1), from the step's
    record ``terms``; only d - dr is differentiated."""
    d_sq = _dot(d, d)
    qr = variational_q(d[:1], terms.dev[:1], terms.lap[:1], p.epsilon)
    return np.array([relative_energies(grid, tensor, p.epsilon, v, d, d_sq),
                     *gronwall_factors(grid, v, d_sq, terms.dev, qr, terms.strain[2], terms.grad_v, terms.grad)])


# ---------------------------------------------------------------------------
# the kernels on fields
# ---------------------------------------------------------------------------

def free_energy(d: VectorField, tensor: ElasticTensor, eps: float) -> EnergyBreakdown:
    """Elastic and penalty energy of the director field (:func:`free_energies`)."""
    if eps <= 0.0:
        raise ValueError("penalty parameter eps must be positive")
    grad, flux, _, dev = director_terms(d.grid, tensor, d.values[None])
    return EnergyBreakdown(*free_energies(d.grid, eps, grad, flux, dev)[0].tolist())


def variational_derivative(d: VectorField, tensor: ElasticTensor, eps: float) -> VectorField:
    """q = -div(L : grad d) + (1/eps)(|d|^2 - 1) d.

    This is the exact gradient of the discrete free energy: the directional
    derivative of :func:`free_energy` along any perturbation psi equals
    (q, psi) to rounding.
    """
    if eps <= 0.0:
        raise ValueError("penalty parameter eps must be positive")
    dm = d.values[None]
    _, _, lap, dev = director_terms(d.grid, tensor, dm)
    return VectorField(d.grid, variational_q(dm, dev, lap, eps)[0])


def relative_energy(v: VectorField, d: VectorField, v_ref: VectorField, d_ref: VectorField,
                    tensor: ElasticTensor, eps: float) -> float:
    """Squared-distance functional between two states
    (:func:`relative_energies`)."""
    vm, dm = np.stack([v_ref.values, v.values]), np.stack([d_ref.values, d.values])
    return float(relative_energies(v.grid, tensor, eps, vm, dm, _dot(dm, dm))[0])


def dissipation_channels(v: VectorField, d: VectorField):
    """The three velocity-dependent dissipation integrands as component-major
    arrays: (Dv, Dv d, d . Dv d) with Dv = (grad v + grad v^T) / 2 the
    symmetric velocity gradient, (3, 3) + grid.shape."""
    grad_v = g.gradient_vec(v).values
    _, dvd, ddvd = director_strain(grad_v[None, :, : v.grid.dim], d.values[None])
    return 0.5 * (grad_v + grad_v.swapaxes(0, 1)), dvd[0], ddvd[0]


def relative_dissipation(v: VectorField, d: VectorField, q: VectorField, v_ref: VectorField,
                         d_ref: VectorField, q_ref: VectorField, p: ParameterSet) -> float:
    """Sum of the four squared dissipation-channel differences
    (:func:`relative_dissipations`)."""
    grad_v = g.gradient_components(v.grid, np.stack([v_ref.values, v.values]))
    _, dvd, ddvd = director_strain(grad_v, np.stack([d_ref.values, d.values]))
    return float(relative_dissipations(v.grid, p, grad_v, np.stack([q_ref.values, q.values]), dvd, ddvd)[0][0])


def gronwall_K(v: VectorField, d: VectorField, v_ref: VectorField, d_ref: VectorField,
               q_ref: VectorField, dt_d_ref: VectorField, c: float = 1.0) -> float:
    """Gronwall integrand controlling exponential growth of the relative
    energy: c times :func:`gronwall_factors`."""
    grid = v.grid
    vm, dm = np.stack([v_ref.values, v.values]), np.stack([d_ref.values, d.values])
    d_sq = _dot(dm, dm)
    grad_v = g.gradient_components(grid, vm)
    w, s = gronwall_factors(grid, vm, d_sq, d_sq - 1.0, q_ref.values[None], director_strain(grad_v, dm)[2],
                            grad_v, g.gradient_components(grid, dm))
    return c * float(w[0] * (s[0] + l3_norms(grid, dt_d_ref.values[None])[0]))


# ---------------------------------------------------------------------------
# recorded traces and energy-law residuals
# ---------------------------------------------------------------------------

@dataclass
class EnergyTrace:
    """Per-sample energy and dissipation diagnostics of one trajectory."""

    t: np.ndarray
    kinetic: np.ndarray
    elastic: np.ndarray
    penalty: np.ndarray
    total: np.ndarray
    diss_mu1: np.ndarray
    diss_mu4: np.ndarray
    diss_dir: np.ndarray
    diss_q: np.ndarray
    cross_term: np.ndarray
    g_power: np.ndarray


@dataclass
class RelativeTrace:
    """Relative energy diagnostics of a trajectory pair."""

    t: np.ndarray
    E: np.ndarray
    W: np.ndarray
    K: np.ndarray
    bound: np.ndarray

    def __post_init__(self):
        lengths = {len(self.t), len(self.E), len(self.W), len(self.K), len(self.bound)}
        if len(lengths) != 1:
            raise ValueError("relative trace columns must have equal length")


def _cumtrapz(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if len(t) > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def energy_inequality_residual(trace: EnergyTrace, p: ParameterSet) -> np.ndarray:
    """Left minus right side of the energy inequality at each sample time.

    residual(t) = [E_tot(t) + int_0^t (diss_mu1 + diss_mu4 + diss_dir + diss_q)]
                - [E_tot(0) + int_0^t ((g, v) + cross_term)]

    with time integrals by the trapezoid rule over the stored samples.
    Non-positive values (up to tolerance) mean the inequality holds.
    """
    diss = trace.diss_mu1 + trace.diss_mu4 + trace.diss_dir + trace.diss_q
    rhs_integrand = trace.g_power + trace.cross_term
    lhs = trace.total + _cumtrapz(trace.t, diss)
    rhs = trace.total[0] + _cumtrapz(trace.t, rhs_integrand)
    return lhs - rhs
