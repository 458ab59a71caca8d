"""Scalar functionals of the flow: free energy, its variational derivative,
relative energy / dissipation for pairs of trajectories, the Gronwall factor,
and discrete energy-law residuals over recorded traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid as g
from .grid import ScalarField, TensorField, VectorField
from .material import ParameterSet, require_valid
from .tensor import ElasticTensor, frobenius, sym


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    elastic: float
    penalty: float

    @property
    def total(self) -> float:
        return self.kinetic + self.elastic + self.penalty


def kinetic_energy(v: VectorField) -> float:
    return 0.5 * g.l2_norm_sq(v)


def free_energy(d: VectorField, tensor: ElasticTensor, eps: float) -> EnergyBreakdown:
    """Elastic + penalty energy of the director field (kinetic part zero).

    elastic = 1/2 int grad d : L : grad d,
    penalty = 1/(4 eps) int (|d|^2 - 1)^2.
    """
    if eps <= 0.0:
        raise ValueError("penalty parameter eps must be positive")
    grad = g.gradient_vec(d).values
    elastic = 0.5 * g.integrate(ScalarField(d.grid, frobenius(grad, tensor.apply(grad))))
    dev = np.sum(d.values**2, axis=-1) - 1.0
    penalty = g.integrate(ScalarField(d.grid, dev**2)) / (4.0 * eps)
    return EnergyBreakdown(kinetic=0.0, elastic=elastic, penalty=penalty)


def total_energy(v: VectorField, d: VectorField, tensor: ElasticTensor, eps: float) -> EnergyBreakdown:
    fe = free_energy(d, tensor, eps)
    return EnergyBreakdown(kinetic=kinetic_energy(v), elastic=fe.elastic, penalty=fe.penalty)


def variational_derivative(d: VectorField, tensor: ElasticTensor, eps: float) -> VectorField:
    """q = -div(L : grad d) + (1/eps)(|d|^2 - 1) d.

    This is the exact gradient of the discrete free energy: on periodic grids
    the directional derivative of :func:`free_energy` along any perturbation
    psi equals (q, psi) to rounding.
    """
    if eps <= 0.0:
        raise ValueError("penalty parameter eps must be positive")
    lap = g.laplacian_lambda(d, tensor)
    dev = np.sum(d.values**2, axis=-1) - 1.0
    values = -lap.values + (dev[..., None] / eps) * d.values
    return VectorField(d.grid, values)


# ---------------------------------------------------------------------------
# relative energy / dissipation / Gronwall factor
# ---------------------------------------------------------------------------

def relative_energy(
    v: VectorField,
    d: VectorField,
    v_ref: VectorField,
    d_ref: VectorField,
    tensor: ElasticTensor,
    eps: float,
) -> float:
    """Squared-distance functional between two states:

    1/2 |v - vr|_2^2 + 1/2 |grad(d - dr)|_L^2 + 1/(4 eps) ||d|^2 - |dr|^2|_2^2.
    """
    dv = VectorField(v.grid, v.values - v_ref.values)
    grad = g.gradient_vec(VectorField(d.grid, d.values - d_ref.values))
    elastic = 0.5 * g.integrate(
        ScalarField(d.grid, frobenius(grad.values, tensor.apply(grad.values)))
    )
    dev = np.sum(d.values**2, axis=-1) - np.sum(d_ref.values**2, axis=-1)
    penalty = g.integrate(ScalarField(d.grid, dev**2)) / (4.0 * eps)
    return 0.5 * g.l2_norm_sq(dv) + elastic + penalty


def dissipation_channels(v: VectorField, d: VectorField, q: VectorField):
    """The three velocity-dependent dissipation integrands as fields.

    Returns (Dv, Dv d, d . Dv d) with Dv the symmetric velocity gradient.
    """
    dv = sym(g.gradient_vec(v).values)
    dvd = np.einsum("...ij,...j->...i", dv, d.values)
    ddvd = np.einsum("...i,...i->...", d.values, dvd)
    return dv, dvd, ddvd


def relative_dissipation(
    v: VectorField,
    d: VectorField,
    q: VectorField,
    v_ref: VectorField,
    d_ref: VectorField,
    q_ref: VectorField,
    p: ParameterSet,
) -> float:
    """Sum of the four squared dissipation-channel differences."""
    require_valid(p)
    grid = v.grid
    dv, dvd, ddvd = dissipation_channels(v, d, q)
    dv_r, dvd_r, ddvd_r = dissipation_channels(v_ref, d_ref, q_ref)
    cellvol = grid.cell_volume
    term1 = p.mu1 * float(np.sum((ddvd - ddvd_r) ** 2)) * cellvol
    term4 = p.mu4 * float(np.sum((dv - dv_r) ** 2)) * cellvol
    term_dir = p.directional_coeff * float(np.sum((dvd - dvd_r) ** 2)) * cellvol
    term_q = p.gamma * float(np.sum((q.values - q_ref.values) ** 2)) * cellvol
    return term1 + term4 + term_dir + term_q


def gronwall_K(
    v: VectorField,
    d: VectorField,
    v_ref: VectorField,
    d_ref: VectorField,
    q_ref: VectorField,
    dt_d_ref: VectorField,
    c: float = 1.0,
) -> float:
    """Gronwall integrand controlling exponential growth of the relative energy.

    K = c (1 + |d|_L6^2 + |dr|_L6^2) (|vr|_W16^2 + |qr|_L3^2
        + |dr . Dvr dr|_L6^2 + |dt dr|_L3 + ||dr|^2 - 1|_L6^2
        + |v|_L6^2 + |grad dr|_L2^2)

    Only |v|_L6 and |d|_L6 come from the first (perturbed) trajectory; every
    other norm is evaluated on the reference.  Note |dt dr|_L3 enters to the
    first power while the others are squared; this asymmetry is deliberate.
    The W^{1,6} norm is (|f|_L6^6 + |grad f|_L6^6)^{1/6}.
    """
    grid = v.grid
    first = 1.0 + g.lp_norm(d, 6) ** 2 + g.lp_norm(d_ref, 6) ** 2

    w16 = (g.lp_norm(v_ref, 6) ** 6 + g.w1p_seminorm(v_ref, 6) ** 6) ** (1.0 / 6.0)
    _, _, ddvd_r = dissipation_channels(v_ref, d_ref, q_ref)
    dev_r = np.sum(d_ref.values**2, axis=-1) - 1.0
    second = (
        w16**2
        + g.lp_norm(q_ref, 3) ** 2
        + g.lp_norm(ScalarField(grid, ddvd_r), 6) ** 2
        + g.lp_norm(dt_d_ref, 3)
        + g.lp_norm(ScalarField(grid, dev_r), 6) ** 2
        + g.lp_norm(v, 6) ** 2
        + g.w1p_seminorm(d_ref, 2) ** 2
    )
    return c * first * second


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
