"""Scalar functionals of the flow: free and kinetic energy, the variational
derivative, dissipation channels, relative energy / dissipation for pairs of
trajectories, the Gronwall factor, and energy-law residuals over traces.

Each formula has one implementation, a kernel on the component-major member
arrays of an ensemble (vectors ``(m, 3) + grid.shape``, gradients
``(m, 3, dim) + grid.shape``) that sums per member over the member's own
slice; the relative energy and dissipation are the energy and dissipation
kernels applied to the members' differences from member 0.  The stepper,
the weak-strong campaign and the public functions all call them.  The
public functions run the kernels on :func:`grid.members` of their fields,
the contiguous copy ``dynamics.Ensemble.of`` makes, so that
:func:`free_energy` of a sampled state equals its trace row bit for bit.
:func:`relative_terms` reads the fields the step took from the sample's
record (``dynamics.StateTerms``) and differentiates only d - dr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from .grid import VectorField
from .material import ParameterSet, zeta
from .tensor import ElasticTensor, sym


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

def _integral(grid: g.Grid, x: np.ndarray) -> np.ndarray:
    """Midpoint integral of each member's values; x is (m, ...)."""
    return x.reshape(len(x), -1).sum(axis=1) * grid.cell_volume


def _lp_sq(grid: g.Grid, sq: np.ndarray, power: float) -> np.ndarray:
    """Squared L^p norm of each member, from its squared magnitudes."""
    return _integral(grid, np.sqrt(sq) ** power) ** (2.0 / power)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise contraction over the axis after the member axis."""
    return np.einsum("mi...,mi...->m...", x, y)


def director_terms(grid: g.Grid, contraction: tuple, d: np.ndarray):
    """grad d, L : grad d, div(L : grad d), |d|^2 and |d|^2 - 1 of the
    members' directors d, given ``contraction = tensor.sparse_contraction(grid.dim)``."""
    grad = g.gradient_components(grid, d)
    flux = g.elastic_flux(grid, contraction, grad)
    d_sq = _dot(d, d)
    return grad, flux, g.divergence_components(grid, flux), d_sq, d_sq - 1.0


def free_energies(grid: g.Grid, eps: float, grad, flux, dev) -> list:
    """The free energy of each member's director, from its
    :func:`director_terms`:

    elastic = 1/2 int grad d : L : grad d,
    penalty = 1/(4 eps) int (|d|^2 - 1)^2.
    """
    cellvol = grid.cell_volume
    return [
        EnergyBreakdown(
            elastic=0.5 * float(np.vdot(grad_i, flux_i)) * cellvol,
            penalty=float(np.vdot(dev_i, dev_i)) * cellvol / (4.0 * eps),
        )
        for grad_i, flux_i, dev_i in zip(grad, flux, dev)
    ]


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


def strain_sq(grad_v: np.ndarray) -> np.ndarray:
    """The sum over the nodes of |Dv|^2 of each member, Dv the symmetric part
    of its grad v (m, 3, dim, ...): the rows of grad v beyond dim enter Dv
    twice, halved."""
    dim = grad_v.shape[2]
    block = grad_v[:, :dim] + np.swapaxes(grad_v[:, :dim], 1, 2)
    return np.array([0.25 * float(np.vdot(b, b)) + 0.5 * float(np.vdot(r, r))
                     for b, r in zip(block, grad_v[:, dim:])])


def kinetic_energies(grid: g.Grid, v: np.ndarray) -> np.ndarray:
    """The kinetic energy 1/2 int |v|^2 of each member's velocity v (m, 3, ...)."""
    return np.array([0.5 * float(np.vdot(v_i, v_i)) * grid.cell_volume for v_i in v])


def dissipations(grid: g.Grid, p: ParameterSet, dv_sq, q, dvd, ddvd) -> np.ndarray:
    """The channels mu1 |d . Dv d|^2, mu4 |Dv|^2, c |Dv d|^2 (c the
    directional coefficient), gamma |q|^2 and cross_coeff (q, Dv d) of each
    member, shape (5, m) in EnergyTrace order, each integral coef (a, b) as
    ``coef * np.vdot(a, b) * cell_volume``; dv_sq is :func:`strain_sq`."""
    cellvol = grid.cell_volume

    def channel(coef, a, b):
        return [coef * float(np.vdot(a_i, b_i)) * cellvol for a_i, b_i in zip(a, b)]

    return np.array([channel(p.mu1, ddvd, ddvd), p.mu4 * dv_sq * cellvol,
                     channel(p.directional_coeff, dvd, dvd), channel(p.gamma, q, q),
                     channel(p.cross_coeff, q, dvd)])


def relative_energies(grid: g.Grid, contraction: tuple, eps: float, v, d, d_sq) -> np.ndarray:
    """E of each member after the first against member 0, the kinetic and
    free energies of the differences, the penalty's of |d|^2 - |dr|^2:

    1/2 |v - vr|_2^2 + 1/2 |grad(d - dr)|_L^2 + 1/(4 eps) ||d|^2 - |dr|^2|_2^2.
    """
    grad_e = g.gradient_components(grid, d[1:] - d[0])
    free = free_energies(grid, eps, grad_e, g.elastic_flux(grid, contraction, grad_e), d_sq[1:] - d_sq[0])
    return kinetic_energies(grid, v[1:] - v[0]) + [f.total for f in free]


def relative_dissipations(grid: g.Grid, p: ParameterSet, grad_v, q, dvd, ddvd):
    """W, |cross_coeff (q - qr, Dv d - Dvr dr)| and the absorption bound
    zeta (gamma |q - qr|^2 + M |Dv d - Dvr dr|^2) of each member after the
    first against member 0, from the :func:`dissipations` of the
    differences; W sums the four squared channels."""
    mu1, mu4, directional, q_sq, cross = dissipations(
        grid, p, strain_sq(grad_v[1:] - grad_v[0]), q[1:] - q[0], dvd[1:] - dvd[0], ddvd[1:] - ddvd[0]
    )
    return mu1 + mu4 + directional + q_sq, np.abs(cross), zeta(p) * (q_sq + directional)


def ref_grad_sq(grid: g.Grid, grad: np.ndarray) -> np.ndarray:
    """|grad f|^2 of member 0 at each node, shape (1,) + grid.shape, from
    the members' gradients (m, 3, dim) + grid.shape."""
    gr = grad[:1].reshape((1, -1) + grid.shape)
    return _dot(gr, gr)


def gronwall_factors(grid: g.Grid, v, d_sq, dev, q, ddvd, grad_vr_sq, grad_dr_sq, dt_d) -> np.ndarray:
    """Gronwall integrand (c = 1) of each member after the first against
    member 0:

    K = (1 + |d|_L6^2 + |dr|_L6^2) (|vr|_W16^2 + |qr|_L3^2
        + |dr . Dvr dr|_L6^2 + |dt dr|_L3 + ||dr|^2 - 1|_L6^2
        + |grad dr|_L2^2 + |v|_L6^2)

    Only |v|_L6 and |d|_L6 come from the perturbed member; of ``dev``, ``q``
    and ``ddvd`` only member 0 is read, and the reference's gradients enter
    as :func:`ref_grad_sq`.  dt dr is the reference's alone, component-major
    (1, 3) + grid.shape like the member arrays.  Note |dt dr|_L3 enters to
    the first power while the others are squared; this asymmetry is
    deliberate.  The W^{1,6} norm is (|f|_L6^6 + |grad f|_L6^6)^{1/6}.
    """
    v_l6, d_l6 = _lp_sq(grid, _dot(v, v), 6), _lp_sq(grid, d_sq, 6)
    ref_terms = (
        (v_l6[0] ** 3 + _lp_sq(grid, grad_vr_sq, 6) ** 3) ** (1.0 / 3.0)  # |vr|_W16^2
        + _lp_sq(grid, _dot(q[:1], q[:1]), 3)
        + _lp_sq(grid, ddvd[:1] ** 2, 6)
        + np.sqrt(_lp_sq(grid, _dot(dt_d, dt_d), 3))
        + _lp_sq(grid, dev[:1] ** 2, 6)
        + _integral(grid, grad_dr_sq)
    )
    return (1.0 + d_l6[1:] + d_l6[0]) * (ref_terms + v_l6[1:])


def relative_terms(grid: g.Grid, p: ParameterSet, contraction: tuple, v, d, terms, dt_d) -> np.ndarray:
    """E, W, K (at c = 1), |cross_coeff (q - qr, Dv d - Dvr dr)| and the
    absorption bound of each member after the first against the reference,
    member 0, at one sample: shape (5, m - 1), dt dr (1, 3) + grid.shape.
    Their grad d, div(L : grad d), |d|^2 - 1, grad v and director strain are
    read from the sample's record ``terms``; q and |d|^2 are formed here."""
    q = variational_q(d, terms.dev, terms.lap, p.epsilon)
    W, cross, absorb = relative_dissipations(grid, p, terms.grad_v, q, *terms.strain[1:])
    d_sq = _dot(d, d)
    E = relative_energies(grid, contraction, p.epsilon, v, d, d_sq)
    K = gronwall_factors(grid, v, d_sq, terms.dev, q, terms.strain[2], ref_grad_sq(grid, terms.grad_v),
                         ref_grad_sq(grid, terms.grad), dt_d)
    return np.array([E, W, K, cross, absorb])


# ---------------------------------------------------------------------------
# the kernels on fields
# ---------------------------------------------------------------------------

def free_energy(d: VectorField, tensor: ElasticTensor, eps: float) -> EnergyBreakdown:
    """Elastic and penalty energy of the director field (:func:`free_energies`)."""
    if eps <= 0.0:
        raise ValueError("penalty parameter eps must be positive")
    grad, flux, _, _, dev = director_terms(d.grid, tensor.sparse_contraction(d.grid.dim), g.members([d]))
    return free_energies(d.grid, eps, grad, flux, dev)[0]


def variational_derivative(d: VectorField, tensor: ElasticTensor, eps: float) -> VectorField:
    """q = -div(L : grad d) + (1/eps)(|d|^2 - 1) d.

    This is the exact gradient of the discrete free energy: the directional
    derivative of :func:`free_energy` along any perturbation psi equals
    (q, psi) to rounding.
    """
    if eps <= 0.0:
        raise ValueError("penalty parameter eps must be positive")
    dm = g.members([d])
    _, _, lap, _, dev = director_terms(d.grid, tensor.sparse_contraction(d.grid.dim), dm)
    return VectorField(d.grid, g.nodal(variational_q(dm, dev, lap, eps)[0]))


def relative_energy(v: VectorField, d: VectorField, v_ref: VectorField, d_ref: VectorField,
                    tensor: ElasticTensor, eps: float) -> float:
    """Squared-distance functional between two states
    (:func:`relative_energies`)."""
    dm = g.members([d_ref, d])
    contraction = tensor.sparse_contraction(v.grid.dim)
    return float(relative_energies(v.grid, contraction, eps, g.members([v_ref, v]), dm, _dot(dm, dm))[0])


def dissipation_channels(v: VectorField, d: VectorField):
    """The three velocity-dependent dissipation integrands as node-major
    arrays: (Dv, Dv d, d . Dv d) with Dv the symmetric velocity gradient."""
    grid = v.grid
    grad_v = g.gradient_components(grid, g.members([v]))
    _, dvd, ddvd = director_strain(grad_v, g.members([d]))
    full = np.zeros((3, 3) + grid.shape)
    full[:, : grid.dim] = grad_v[0]
    return sym(np.moveaxis(full, (0, 1), (-2, -1))), g.nodal(dvd[0]), ddvd[0]


def relative_dissipation(v: VectorField, d: VectorField, q: VectorField, v_ref: VectorField,
                         d_ref: VectorField, q_ref: VectorField, p: ParameterSet) -> float:
    """Sum of the four squared dissipation-channel differences
    (:func:`relative_dissipations`)."""
    grad_v = g.gradient_components(v.grid, g.members([v_ref, v]))
    _, dvd, ddvd = director_strain(grad_v, g.members([d_ref, d]))
    return float(relative_dissipations(v.grid, p, grad_v, g.members([q_ref, q]), dvd, ddvd)[0][0])


def gronwall_K(v: VectorField, d: VectorField, v_ref: VectorField, d_ref: VectorField,
               q_ref: VectorField, dt_d_ref: VectorField, c: float = 1.0) -> float:
    """Gronwall integrand controlling exponential growth of the relative
    energy: c times :func:`gronwall_factors`."""
    grid = v.grid
    vm, dm = g.members([v_ref, v]), g.members([d_ref, d])
    d_sq = _dot(dm, dm)
    grad_v = g.gradient_components(grid, vm)
    K = gronwall_factors(grid, vm, d_sq, d_sq - 1.0, g.members([q_ref]), director_strain(grad_v, dm)[2],
                         ref_grad_sq(grid, grad_v), ref_grad_sq(grid, g.gradient_components(grid, dm)),
                         g.members([dt_d_ref]))
    return c * float(K[0])


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
