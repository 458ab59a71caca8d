"""Reference formulas for the tests to compare the library's kernels against.

The library evaluates each energy functional with one member-axis,
component-major kernel in ``leslie_sim.energetics``, and the step builds the
Leslie stress from factored columns, takes L : grad d from the nonzero
entries of the contraction and gauges its projection by Parseval.  These are
the same formulas written out plainly -- the functionals and the stress on
node-major fields (``grid.shape + (3,)``) with the full 3 x 3 gradient, the
contraction as a dense product, the projection target in real space --
independently of those kernels.
"""

import math

import numpy as np

import leslie_sim.grid as g
from leslie_sim.energetics import EnergyBreakdown
from leslie_sim.grid import ScalarField, TensorField, VectorField
from leslie_sim.material import require_valid
from leslie_sim.tensor import frobenius, outer, skw, sym


def laplacian_lambda(d, tensor):
    """div(L : grad d)."""
    grad = g.gradient_vec(d)
    return g.divergence_tensor(TensorField(d.grid, tensor.apply(grad.values)))


def w1p_seminorm(f, p):
    """L^p norm of the pointwise Frobenius norm of grad f."""
    return g.lp_norm(g.gradient_vec(f), p)


def ibp_laplacian_residual(d, phi, tensor):
    """| (div(L : grad d), phi) + (L : grad d ; grad phi) |."""
    flux = TensorField(d.grid, tensor.apply(g.gradient_vec(d).values))
    return abs(g.inner(g.divergence_tensor(flux), phi) + g.inner(flux, g.gradient_vec(phi)))


def elastic_flux(contraction, grad):
    """L : grad d of component-major gradients (m, 3, dim) + grid.shape as
    the dense product with the matrix ``tensor.contraction(dim)``."""
    flat = grad.reshape(grad.shape[:1] + (contraction.shape[1],) + grad.shape[3:])
    return np.einsum("ab,mb...->ma...", contraction, flat).reshape(grad.shape)


def leslie_stress(v, d, q, p):
    """T = mu1 (d . Dv d) d x d + mu4 Dv - gamma(mu2+mu3) (d x q)_sym
    + (d x q)_skw + [(mu5+mu6) - lambda(mu2+mu3)] (d x (Dv d))_sym."""
    dv = sym(g.gradient_vec(v).values)
    dvd = np.einsum("...ij,...j->...i", dv, d.values)
    ddvd = np.einsum("...i,...i->...", d.values, dvd)
    dq = outer(d.values, q.values)
    return (
        p.mu1 * ddvd[..., None, None] * outer(d.values, d.values)
        + p.mu4 * dv
        - p.gamma * p.mu23 * sym(dq)
        - skw(dq)
        + p.directional_coeff * sym(outer(d.values, dvd))
    )


def projection_target(u, tol):
    """tol |div u| + 1e-14 (1 + |u|) in the L2 norm, the residual the
    projection of u must reach, with div the stencil divergence."""
    div_norm = math.sqrt(g.l2_norm_sq(g.divergence_vec(u)))
    return tol * div_norm + 1e-14 * (1.0 + math.sqrt(g.l2_norm_sq(u)))


def free_energy(d, tensor, eps):
    """elastic = 1/2 int grad d : L : grad d, penalty = 1/(4 eps) int (|d|^2 - 1)^2."""
    grad = g.gradient_vec(d).values
    elastic = 0.5 * g.integrate(ScalarField(d.grid, frobenius(grad, tensor.apply(grad))))
    dev = np.sum(d.values**2, axis=-1) - 1.0
    penalty = g.integrate(ScalarField(d.grid, dev**2)) / (4.0 * eps)
    return EnergyBreakdown(elastic=elastic, penalty=penalty)


def variational_derivative(d, tensor, eps):
    """q = -div(L : grad d) + (1/eps)(|d|^2 - 1) d."""
    dev = np.sum(d.values**2, axis=-1) - 1.0
    return VectorField(d.grid, -laplacian_lambda(d, tensor).values + (dev[..., None] / eps) * d.values)


def relative_energy(v, d, v_ref, d_ref, tensor, eps):
    """1/2 |v - vr|_2^2 + 1/2 |grad(d - dr)|_L^2 + 1/(4 eps) ||d|^2 - |dr|^2|_2^2."""
    dv = VectorField(v.grid, v.values - v_ref.values)
    grad = g.gradient_vec(VectorField(d.grid, d.values - d_ref.values))
    elastic = 0.5 * g.integrate(
        ScalarField(d.grid, frobenius(grad.values, tensor.apply(grad.values)))
    )
    dev = np.sum(d.values**2, axis=-1) - np.sum(d_ref.values**2, axis=-1)
    penalty = g.integrate(ScalarField(d.grid, dev**2)) / (4.0 * eps)
    return 0.5 * g.l2_norm_sq(dv) + elastic + penalty


def dissipation_channels(v, d, q):
    """(Dv, Dv d, d . Dv d) with Dv the symmetric velocity gradient."""
    dv = sym(g.gradient_vec(v).values)
    dvd = np.einsum("...ij,...j->...i", dv, d.values)
    ddvd = np.einsum("...i,...i->...", d.values, dvd)
    return dv, dvd, ddvd


def relative_dissipation(v, d, q, v_ref, d_ref, q_ref, p):
    """Sum of the four squared dissipation-channel differences."""
    require_valid(p)
    dv, dvd, ddvd = dissipation_channels(v, d, q)
    dv_r, dvd_r, ddvd_r = dissipation_channels(v_ref, d_ref, q_ref)
    cellvol = v.grid.cell_volume
    term1 = p.mu1 * float(np.sum((ddvd - ddvd_r) ** 2)) * cellvol
    term4 = p.mu4 * float(np.sum((dv - dv_r) ** 2)) * cellvol
    term_dir = p.directional_coeff * float(np.sum((dvd - dvd_r) ** 2)) * cellvol
    term_q = p.gamma * float(np.sum((q.values - q_ref.values) ** 2)) * cellvol
    return term1 + term4 + term_dir + term_q


def gronwall_K(v, d, v_ref, d_ref, q_ref, dt_d_ref, c=1.0):
    """K = c (1 + |d|_L6^2 + |dr|_L6^2) (|vr|_W16^2 + |qr|_L3^2
    + |dr . Dvr dr|_L6^2 + |dt dr|_L3 + ||dr|^2 - 1|_L6^2 + |v|_L6^2
    + |grad dr|_L2^2), with |f|_W16 = (|f|_L6^6 + |grad f|_L6^6)^(1/6)."""
    grid = v.grid
    first = 1.0 + g.lp_norm(d, 6) ** 2 + g.lp_norm(d_ref, 6) ** 2
    w16 = (g.lp_norm(v_ref, 6) ** 6 + w1p_seminorm(v_ref, 6) ** 6) ** (1.0 / 6.0)
    _, _, ddvd_r = dissipation_channels(v_ref, d_ref, q_ref)
    dev_r = np.sum(d_ref.values**2, axis=-1) - 1.0
    second = (
        w16**2
        + g.lp_norm(q_ref, 3) ** 2
        + g.lp_norm(ScalarField(grid, ddvd_r), 6) ** 2
        + g.lp_norm(dt_d_ref, 3)
        + g.lp_norm(ScalarField(grid, dev_r), 6) ** 2
        + g.lp_norm(v, 6) ** 2
        + w1p_seminorm(d_ref, 2) ** 2
    )
    return c * first * second
