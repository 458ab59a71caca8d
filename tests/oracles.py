"""Reference formulas for the tests to compare the library's kernels against.

The library evaluates each energy functional with one member-axis,
component-major kernel in ``leslie_sim.energetics``, and the step builds the
Leslie stress from factored columns, takes L : grad d from the nonzero
entries of the contraction and gauges its projection by Parseval.  Its
set-up synthesises smooth random fields with one inverse real FFT, samples
the ellipticity with two-operand contractions and inverts the director
matrices in closed form.  These are the same formulas written out plainly --
the functionals and the stress on node-major fields (``grid.shape + (3,)``)
with the full 3 x 3 gradient, the contraction as a dense product, the
projection target in real space, the smooth field as a sum of cosines, the
ellipticity sample as one einsum and the director inverse by
``np.linalg.inv`` -- independently of those kernels.  The weak-strong
campaign evaluates its relative terms while the ensemble runs, from a
window of the three ensembles the stepper last handed out and the record of
the fields the step took for the sample (``dynamics.StateTerms``);
:func:`relative_series` evaluates them after the run from every retained
sample, handing :func:`energetics.relative_terms` the same component-major
members, a record taken again from them with the library's kernels, and the
same component-major dt dr, (1, 3) + grid.shape.

The node-major quadrature, norms and pairings (:func:`integrate`,
:func:`lp_norm`, :func:`inner`, :func:`frobenius`,
:func:`ibp_divergence_residual`) live here too: the library pairs its
component-major arrays as ``np.vdot(a, b) * grid.cell_volume``.
"""

import math

import numpy as np

import leslie_sim.grid as g
from leslie_sim.dynamics import StateTerms
from leslie_sim.energetics import EnergyBreakdown, director_strain, director_terms, relative_terms
from leslie_sim.grid import ScalarField, TensorField, VectorField
from leslie_sim.material import require_valid
from leslie_sim.tensor import _sphere_grid, outer, skw, sym


# ---------------------------------------------------------------------------
# node-major quadrature, norms and pairings
# ---------------------------------------------------------------------------

def frobenius(a, b):
    """Double contraction A : B = sum_ij A_ij B_ij over the trailing axes."""
    return np.einsum("...ij,...ij->...", a, b)


def integrate(f):
    """Midpoint rule: sum of nodal values times the cell volume."""
    return float(np.sum(f.values) * f.grid.cell_volume)


def _magnitude(f):
    if isinstance(f, ScalarField):
        return np.abs(f.values)
    if isinstance(f, VectorField):
        return np.sqrt(np.sum(f.values**2, axis=-1))
    if isinstance(f, TensorField):
        return np.sqrt(np.sum(f.values**2, axis=(-2, -1)))
    raise TypeError(f"not a field: {type(f)!r}")


def lp_norm(f, p):
    """L^p norm with midpoint quadrature; p = inf gives the max norm."""
    mag = _magnitude(f)
    if p == math.inf or p == "inf":
        return float(np.max(mag))
    p = float(p)
    if p < 1.0:
        raise ValueError("p must satisfy 1 <= p <= inf")
    return float((np.sum(mag**p) * f.grid.cell_volume) ** (1.0 / p))


def inner(a, b):
    """L^2 inner product; contracts all component axes."""
    if type(a) is not type(b):
        raise TypeError("inner product requires fields of the same kind")
    prod = a.values * b.values
    comp_axes = tuple(range(a.grid.dim, prod.ndim))
    if comp_axes:
        prod = np.sum(prod, axis=comp_axes)
    return float(np.sum(prod) * a.grid.cell_volume)


def l2_norm_sq(a):
    return inner(a, a)


def ibp_divergence_residual(a, phi):
    """| (div A, phi) + (A : grad phi) |; zero to rounding on periodic grids."""
    return abs(inner(g.divergence_tensor(a), phi) + inner(a, g.gradient_vec(phi)))


# ---------------------------------------------------------------------------
# node-major operators and functionals
# ---------------------------------------------------------------------------

def laplacian_lambda(d, tensor):
    """div(L : grad d)."""
    grad = g.gradient_vec(d)
    return g.divergence_tensor(TensorField(d.grid, tensor.apply(grad.values)))


def w1p_seminorm(f, p):
    """L^p norm of the pointwise Frobenius norm of grad f."""
    return lp_norm(g.gradient_vec(f), p)


def ibp_laplacian_residual(d, phi, tensor):
    """| (div(L : grad d), phi) + (L : grad d ; grad phi) |."""
    flux = TensorField(d.grid, tensor.apply(g.gradient_vec(d).values))
    return abs(inner(g.divergence_tensor(flux), phi) + inner(flux, g.gradient_vec(phi)))


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
    div_norm = math.sqrt(l2_norm_sq(g.divergence_vec(u)))
    return tol * div_norm + 1e-14 * (1.0 + math.sqrt(l2_norm_sq(u)))


def free_energy(d, tensor, eps):
    """elastic = 1/2 int grad d : L : grad d, penalty = 1/(4 eps) int (|d|^2 - 1)^2."""
    grad = g.gradient_vec(d).values
    elastic = 0.5 * integrate(ScalarField(d.grid, frobenius(grad, tensor.apply(grad))))
    dev = np.sum(d.values**2, axis=-1) - 1.0
    penalty = integrate(ScalarField(d.grid, dev**2)) / (4.0 * eps)
    return EnergyBreakdown(elastic=elastic, penalty=penalty)


def variational_derivative(d, tensor, eps):
    """q = -div(L : grad d) + (1/eps)(|d|^2 - 1) d."""
    dev = np.sum(d.values**2, axis=-1) - 1.0
    return VectorField(d.grid, -laplacian_lambda(d, tensor).values + (dev[..., None] / eps) * d.values)


def relative_energy(v, d, v_ref, d_ref, tensor, eps):
    """1/2 |v - vr|_2^2 + 1/2 |grad(d - dr)|_L^2 + 1/(4 eps) ||d|^2 - |dr|^2|_2^2."""
    dv = VectorField(v.grid, v.values - v_ref.values)
    grad = g.gradient_vec(VectorField(d.grid, d.values - d_ref.values))
    elastic = 0.5 * integrate(
        ScalarField(d.grid, frobenius(grad.values, tensor.apply(grad.values)))
    )
    dev = np.sum(d.values**2, axis=-1) - np.sum(d_ref.values**2, axis=-1)
    penalty = integrate(ScalarField(d.grid, dev**2)) / (4.0 * eps)
    return 0.5 * l2_norm_sq(dv) + elastic + penalty


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
    first = 1.0 + lp_norm(d, 6) ** 2 + lp_norm(d_ref, 6) ** 2
    w16 = (lp_norm(v_ref, 6) ** 6 + w1p_seminorm(v_ref, 6) ** 6) ** (1.0 / 6.0)
    _, _, ddvd_r = dissipation_channels(v_ref, d_ref, q_ref)
    dev_r = np.sum(d_ref.values**2, axis=-1) - 1.0
    second = (
        w16**2
        + lp_norm(q_ref, 3) ** 2
        + lp_norm(ScalarField(grid, ddvd_r), 6) ** 2
        + lp_norm(dt_d_ref, 3)
        + lp_norm(ScalarField(grid, dev_r), 6) ** 2
        + lp_norm(v, 6) ** 2
        + w1p_seminorm(d_ref, 2) ** 2
    )
    return c * first * second


def relative_series(grid, p, tensor, runs):
    """E, W, K (at c = 1), |cross_coeff (q - qr, Dv d - Dvr dr)| and the
    absorption bound of each run in ``runs[1:]`` against the reference
    ``runs[0]`` at every sample: shape (5, len(runs) - 1, samples), from
    :func:`energetics.relative_terms` of the runs' retained sampled States
    stacked as members and of their record, taken from those copies with
    :func:`energetics.director_terms`, :func:`grid.gradient_components` and
    :func:`energetics.director_strain`, with dt dr by centred differences of
    the samples (one-sided at the ends, zero for a lone sample)."""
    ref = runs[0]
    n = len(ref)
    ts = np.array([s.t for s in ref])
    contraction = tensor.sparse_contraction(grid.dim)
    out = np.empty((5, len(runs) - 1, n))
    for i in range(n):
        lo, hi = max(i - 1, 0), min(i + 1, n - 1)
        dt_d = np.zeros((1, 3) + grid.shape) if n == 1 else (
            (g.members([ref[hi].d]) - g.members([ref[lo].d])) / (ts[hi] - ts[lo])
        )
        v, d = (g.members([getattr(r[i], f) for r in runs]) for f in "vd")
        # the sample's record, taken again with the library kernels
        grad, _, lap, _, dev = director_terms(grid, contraction, d)
        grad_v = g.gradient_components(grid, v)
        terms = StateTerms(grad, lap, dev, None, grad_v, director_strain(grad_v, d), None)
        out[:, :, i] = relative_terms(grid, p, contraction, v, d, terms, dt_d)
    return out


def smooth_vector_field(grid, rng, max_mode=2):
    """sum_k amp_k cos(2 pi k . x / L + phi_k) at the cell centres x, over k
    in [-max_mode, max_mode]^dim other than 0, drawing amp_k = N(0, 1)^3 /
    (1 + |k|^2) and then phi_k uniform in [0, 2 pi) for each k in turn."""
    xs = grid.coords()
    values = np.zeros(grid.shape + (3,))
    ranges = [range(-max_mode, max_mode + 1)] * grid.dim
    for k_vec in np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, grid.dim):
        if not np.any(k_vec):
            continue
        amp = rng.normal(size=3) / (1.0 + float(np.sum(k_vec**2)))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(2.0 * np.pi * k_vec[a] * xs[a] / grid.lengths[a] for a in range(grid.dim))
        values += np.cos(arg + phase)[..., None] * amp
    return VectorField(grid, values)


def ellipticity_check(tensor, n_samples=1000, seed=0):
    """min of L_ijkl a_i b_j a_k b_l over every pair of sphere-grid directions
    and over n_samples seeded random unit pairs."""
    grid = _sphere_grid()
    rng = np.random.default_rng(seed)
    rnd = rng.normal(size=(2 * n_samples, 3))
    rnd /= np.linalg.norm(rnd, axis=-1, keepdims=True)
    a, b = rnd[:n_samples], rnd[n_samples:]
    grid_vals = np.einsum("ijkl,pi,qj,pk,ql->pq", tensor.entries, grid, grid, grid, grid)
    rnd_vals = np.einsum("ijkl,pi,pj,pk,pl->p", tensor.entries, a, b, a, b)
    return float(min(grid_vals.min(), rnd_vals.min()))


def director_stiffness(sigmas, tensor):
    """S_ik = sum_jl L_ijkl sigma_j sigma_l, trailing (3, 3), from the dim
    derivative symbols ``sigmas`` (those of the axes from dim on are 0)."""
    shape = sigmas[0].shape
    sig = np.stack(list(sigmas) + [np.zeros(shape)] * (3 - len(sigmas)), axis=-1)
    return np.einsum("ijkl,...j,...l->...ik", tensor.entries, sig, sig)


def director_inverse(sigmas, tensor, alpha):
    """(I + alpha S)^-1 per mode by ``np.linalg.inv``, component-major
    (3, 3) + the symbols' shape."""
    inverse = np.linalg.inv(np.eye(3) + alpha * director_stiffness(sigmas, tensor))
    return np.moveaxis(inverse, (-2, -1), (0, 1))
