"""Reference formulas for the tests to compare the library's kernels against.

The library evaluates each energy functional with one member-axis,
component-major kernel in ``leslie_sim.energetics``, and the step builds the
Leslie stress from factored columns, takes L : grad d from the nonzero
entries of the contraction and gauges its projection by Parseval.  Its
set-up synthesises smooth random fields with one inverse real FFT, samples
the ellipticity with two-operand contractions and inverts the director
matrices in closed form.  These are the same formulas written out plainly --
the functionals and the stress on node-major views of the fields
(:func:`nodal`, ``grid.shape + (3,)``, the layout the fields had before
they were component-major), their results handed back component-major
(:func:`leading`), with the full 3 x 3 gradient, the contraction as a
dense product, the projection target in real space, the smooth field as a
sum of cosines, the ellipticity sample as one einsum and the director
inverse by ``np.linalg.inv`` -- independently of those kernels.  The spectral
kernels hold every Fourier multiplier as a complex array;
:class:`FloatSymbolKernels` applies the float64 symbols, denominators and
real director inverse they were cast from, dividing by the denominators, as
the kernels did before they held complex multipliers.  The weak-strong
campaign evaluates its relative terms while the ensemble runs, at every
step and at every sample, from the ensemble and the record of the fields
the step took for it (``dynamics.StateTerms``); :func:`relative_series`
evaluates them after the run from every retained state, handing the same
energetics functions the same component-major members, a record taken
again from them with the library's kernels, and the same difference of
consecutive reference directors.

The node-major quadrature, norms and pairings (:func:`integrate`,
:func:`lp_norm`, :func:`inner`, :func:`frobenius`,
:func:`ibp_divergence_residual`) and the skew part :func:`skw` live here
too: the library pairs its
component-major arrays as ``np.vdot(a, b) * grid.cell_volume``.
"""

import math

import numpy as np

import leslie_sim.energetics as energetics
import leslie_sim.grid as g
from leslie_sim.dynamics import StateTerms, _inverse_3x3
from leslie_sim.energetics import (
    EnergyBreakdown,
    director_strain,
    director_terms,
    l3_norms,
    relative_step_terms,
    strain_sq,
    variational_q,
)
from leslie_sim.grid import ScalarField, TensorField, VectorField
from leslie_sim.material import require_valid, zeta
from leslie_sim.tensor import _sphere_grid, outer, sym


def skw(m):
    """Skew-symmetric part (M - M^T)/2, acting on the trailing two axes."""
    return 0.5 * (m - np.swapaxes(m, -1, -2))


# ---------------------------------------------------------------------------
# node-major views
# ---------------------------------------------------------------------------

def nodal(f):
    """The node-major view of a field's values: its component axes last."""
    k = len(f.leading)
    return np.moveaxis(f.values, tuple(range(k)), tuple(range(-k, 0)))


def leading(values, k):
    """Node-major values with k component axes (last) as a C-contiguous
    component-major array: the component axes first."""
    return np.ascontiguousarray(np.moveaxis(values, tuple(range(-k, 0)), tuple(range(k))))


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
        return np.sqrt(np.sum(nodal(f)**2, axis=-1))
    if isinstance(f, TensorField):
        return np.sqrt(np.sum(nodal(f)**2, axis=(-2, -1)))
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
    prod = nodal(a) * nodal(b)
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
    grad = nodal(g.gradient_vec(d))
    return g.divergence_tensor(TensorField(d.grid, leading(tensor.apply(grad), 2)))


def w1p_seminorm(f, p):
    """L^p norm of the pointwise Frobenius norm of grad f."""
    return lp_norm(g.gradient_vec(f), p)


def ibp_laplacian_residual(d, phi, tensor):
    """| (div(L : grad d), phi) + (L : grad d ; grad phi) |."""
    flux = TensorField(d.grid, leading(tensor.apply(nodal(g.gradient_vec(d))), 2))
    return abs(inner(g.divergence_tensor(flux), phi) + inner(flux, g.gradient_vec(phi)))


def elastic_flux(contraction, grad):
    """L : grad d of component-major gradients (m, 3, dim) + grid.shape as
    the dense product with the matrix ``tensor.contraction(dim)``."""
    flat = grad.reshape(grad.shape[:1] + (contraction.shape[1],) + grad.shape[3:])
    return np.einsum("ab,mb...->ma...", contraction, flat).reshape(grad.shape)


def leslie_stress(v, d, q, p):
    """T = mu1 (d . Dv d) d x d + mu4 Dv - gamma(mu2+mu3) (d x q)_sym
    + (d x q)_skw + [(mu5+mu6) - lambda(mu2+mu3)] (d x (Dv d))_sym,
    component-major (3, 3) + grid.shape."""
    d_nm = nodal(d)
    dv = sym(nodal(g.gradient_vec(v)))
    dvd = np.einsum("...ij,...j->...i", dv, d_nm)
    ddvd = np.einsum("...i,...i->...", d_nm, dvd)
    dq = outer(d_nm, nodal(q))
    return leading(
        p.mu1 * ddvd[..., None, None] * outer(d_nm, d_nm)
        + p.mu4 * dv
        - p.gamma * p.mu23 * sym(dq)
        - skw(dq)
        + p.directional_coeff * sym(outer(d_nm, dvd)),
        2,
    )


def projection_target(u, tol):
    """tol |div u| + 1e-14 (1 + |u|) in the L2 norm, the residual the
    projection of u must reach, with div the stencil divergence."""
    div_norm = math.sqrt(l2_norm_sq(g.divergence_vec(u)))
    return tol * div_norm + 1e-14 * (1.0 + math.sqrt(l2_norm_sq(u)))


def free_energy(d, tensor, eps):
    """elastic = 1/2 int grad d : L : grad d, penalty = 1/(4 eps) int (|d|^2 - 1)^2."""
    grad = nodal(g.gradient_vec(d))
    elastic = 0.5 * integrate(ScalarField(d.grid, frobenius(grad, tensor.apply(grad))))
    dev = np.sum(nodal(d)**2, axis=-1) - 1.0
    penalty = integrate(ScalarField(d.grid, dev**2)) / (4.0 * eps)
    return EnergyBreakdown(elastic=elastic, penalty=penalty)


def variational_derivative(d, tensor, eps):
    """q = -div(L : grad d) + (1/eps)(|d|^2 - 1) d."""
    dev = np.sum(nodal(d)**2, axis=-1) - 1.0
    return VectorField(d.grid, leading(-nodal(laplacian_lambda(d, tensor)) + (dev[..., None] / eps) * nodal(d), 1))


def relative_energy(v, d, v_ref, d_ref, tensor, eps):
    """1/2 |v - vr|_2^2 + 1/2 |grad(d - dr)|_L^2 + 1/(4 eps) ||d|^2 - |dr|^2|_2^2."""
    dv = VectorField(v.grid, v.values - v_ref.values)
    grad = g.gradient_vec(VectorField(d.grid, d.values - d_ref.values))
    elastic = 0.5 * integrate(
        ScalarField(d.grid, frobenius(nodal(grad), tensor.apply(nodal(grad))))
    )
    dev = np.sum(nodal(d)**2, axis=-1) - np.sum(nodal(d_ref)**2, axis=-1)
    penalty = integrate(ScalarField(d.grid, dev**2)) / (4.0 * eps)
    return 0.5 * l2_norm_sq(dv) + elastic + penalty


def dissipation_channels(v, d, q):
    """(Dv, Dv d, d . Dv d) with Dv the symmetric velocity gradient,
    component-major."""
    dv = sym(nodal(g.gradient_vec(v)))
    dvd = np.einsum("...ij,...j->...i", dv, nodal(d))
    ddvd = np.einsum("...i,...i->...", nodal(d), dvd)
    return leading(dv, 2), leading(dvd, 1), ddvd


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


def channel_array(grid, p, dv_sq, q, dvd, ddvd):
    """The dissipation channels of each member of ``energetics.dissipations``
    as it composed them: one (5, m) array in EnergyTrace order, built a
    channel at a time, each integral coef (a, b) as ``coef * np.vdot(a, b) *
    cell_volume``, mu4 |Dv|^2 as the array ``mu4 * dv_sq * cell_volume``."""
    cellvol = grid.cell_volume

    def channel(coef, a, b):
        return [coef * float(np.vdot(a_i, b_i)) * cellvol for a_i, b_i in zip(a, b)]

    return np.array([channel(p.mu1, ddvd, ddvd), p.mu4 * np.array(dv_sq) * cellvol,
                     channel(p.directional_coeff, dvd, dvd), channel(p.gamma, q, q),
                     channel(p.cross_coeff, q, dvd)])


def trace_rows(stepper, e, terms):
    """Each member's trace row as ``Stepper._diagnostics`` composed it: the
    record's kinetic, elastic and penalty energies and their sum, then the
    :func:`channel_array` transposed and listed, then the forcing power,
    summed over the product of the component-major arrays."""
    p, grid, forcing = stepper.p, stepper.grid, stepper.forcing
    q = variational_q(e.d, terms.dev, terms.lap, p.epsilon)
    channels = channel_array(grid, p, strain_sq(terms.grad_v), q, *terms.strain[1:]).T.tolist()
    return [
        (e.t, kin, elastic, penalty, kin + elastic + penalty, *channels[i],
         0.0 if forcing is None else float(np.sum(forcing.values * e.v[i])) * grid.cell_volume)
        for i, (kin, elastic, penalty) in enumerate(terms.energy.tolist())
    ]


def relative_dissipations(grid, p, grad_v, q, dvd, ddvd):
    """W, |cross| and the absorption bound of ``energetics.relative_dissipations``
    as it composed them, from the :func:`channel_array` of the members'
    differences from member 0."""
    mu1, mu4, directional, q_sq, cross = channel_array(
        grid, p, strain_sq(grad_v[1:] - grad_v[0]), q[1:] - q[0], dvd[1:] - dvd[0], ddvd[1:] - ddvd[0]
    )
    return mu1 + mu4 + directional + q_sq, np.abs(cross), zeta(p) * (q_sq + directional)


def gronwall_K(v, d, v_ref, d_ref, q_ref, dt_d_ref, c=1.0):
    """K = c (1 + |d|_L6^2 + |dr|_L6^2) (|vr|_W16^2 + |qr|_L3^2
    + |dr . Dvr dr|_L6^2 + |dt dr|_L3 + ||dr|^2 - 1|_L6^2 + |v|_L6^2
    + |grad dr|_L2^2), with |f|_W16 = (|f|_L6^6 + |grad f|_L6^6)^(1/6)."""
    grid = v.grid
    first = 1.0 + lp_norm(d, 6) ** 2 + lp_norm(d_ref, 6) ** 2
    w16 = (lp_norm(v_ref, 6) ** 6 + w1p_seminorm(v_ref, 6) ** 6) ** (1.0 / 6.0)
    _, _, ddvd_r = dissipation_channels(v_ref, d_ref, q_ref)
    dev_r = np.sum(nodal(d_ref)**2, axis=-1) - 1.0
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


def relative_series(grid, p, tensor, runs, dt):
    """E, W, K (at c = 1), |cross_coeff (q - qr, Dv d - Dvr dr)| and the
    absorption bound of each run in ``runs[1:]`` against the reference
    ``runs[0]`` at every retained state: shape (5, len(runs) - 1, states),
    from :func:`energetics.relative_step_terms` and
    :func:`energetics.relative_dissipations` of the runs' retained States
    stacked as members and of their record, taken from those copies with
    :func:`energetics.director_terms`, :func:`grid.gradient_components` and
    :func:`energetics.director_strain`.  The runs retain every step, and K
    takes |dt dr|_L3 as that of the reference's difference of consecutive
    states, |d^{n+1} - d^n|_L3 / dt, at the last state that of the state
    before it, and zero for a lone state."""
    ref = runs[0]
    n = len(ref)
    out = np.empty((5, len(runs) - 1, n))
    for i in range(n):
        v, d = (np.array([getattr(r[i], f).values for r in runs]) for f in "vd")
        # the state's record, taken again with the library kernels
        grad, _, lap, dev = director_terms(grid, tensor, d)
        grad_v = g.gradient_components(grid, v)
        terms = StateTerms(grad, lap, dev, None, grad_v, director_strain(grad_v, d))
        E, w, s = relative_step_terms(grid, p, tensor, v, d, terms)
        j = min(i, n - 2)
        rate = 0.0 if n == 1 else l3_norms(grid, ref[j + 1].d.values[None] - ref[j].d.values[None])[0] / dt
        q = variational_q(d, terms.dev, terms.lap, p.epsilon)
        W, cross, absorb = energetics.relative_dissipations(grid, p, terms.grad_v, q, *terms.strain[1:])
        out[:, :, i] = [E, W, w * (s + rate), cross, absorb]
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
    return VectorField(grid, leading(values, 1))


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


# ---------------------------------------------------------------------------
# spectral kernels with float64 multipliers
# ---------------------------------------------------------------------------

class FloatSymbolKernels:
    """The director solve, Helmholtz solve, projection and velocity update
    of ``dynamics`` on a grid's half spectrum, applying float64 multipliers
    to the complex spectra: the symbols sigma_a as broadcast views, the real
    closed-form director inverse (float x complex multiply-adds over the
    blocks that are not identically zero), and ``/=`` by the Helmholtz
    denominator 1 + helmholtz_coeff |sigma|^2 and by the projection
    denominator -|sigma|^2 (inf where sigma vanishes).  They transform with
    the operators ``ops`` and skip the projection gate."""

    def __init__(self, ops, tensor=None, director_alpha=0.0, helmholtz_coeff=0.0):
        grid = ops.grid
        half = grid.n[:-1] + (grid.n[-1] // 2 + 1,)
        self.ops, self.sigmas = ops, []
        for axis, (na, ha) in enumerate(zip(grid.n, grid.h)):
            k = np.arange(half[axis])
            s = np.sin(2.0 * np.pi * k / na) / ha
            s[(2 * k) % na == 0] = 0.0
            shape = [1] * grid.dim
            shape[axis] = half[axis]
            self.sigmas.append(np.broadcast_to(s.reshape(shape), half))
        sig_sq = sum(s**2 for s in self.sigmas)
        self.helmholtz_denominator = 1.0 + helmholtz_coeff * sig_sq
        self.projection_denominator = np.where(sig_sq != 0.0, -sig_sq, np.inf)
        if tensor is not None:
            matrix = tensor.stiffness(self.sigmas) * director_alpha
            for i in range(3):
                matrix[i, i] += 1.0
            self.director_inverse = _inverse_3x3(matrix)

    def velocity_update(self, values, helmholtz, pressure):
        """vp, (m, 3 + pressure) + grid.shape, and the grad v of vp[:, :3]:
        with ``pressure``, velocity and pressure are stacked in one inverse
        transform, as the step made them before it transformed the pressure
        only when read."""
        ops, sigmas = self.ops, self.sigmas
        vp_hat = np.empty((len(values), 3 + pressure) + sigmas[0].shape, dtype=complex)
        u_hat = vp_hat[:, :3]
        u_hat[...] = ops.forward(values)
        if helmholtz:
            u_hat /= self.helmholtz_denominator
        s = sigmas[0] * u_hat[:, 0]
        for a in range(1, len(sigmas)):
            s += sigmas[a] * u_hat[:, a]
        s /= self.projection_denominator
        for a in range(len(sigmas)):
            u_hat[:, a] += sigmas[a] * s
        if pressure:
            np.multiply(s, 1j, out=vp_hat[:, 3])
        vp = ops.backward(vp_hat)
        return vp, g.gradient_components(ops.grid, vp[:, :3])

    def solve_director(self, values):
        inverse = self.director_inverse
        rhs_hat = self.ops.forward(values)
        x_hat = np.zeros_like(rhs_hat)
        for i in range(3):
            blocks = [k for k in range(3) if inverse[i, k].any()]
            np.multiply(inverse[i, blocks[0]], rhs_hat[:, blocks[0]], out=x_hat[:, i])
            for k in blocks[1:]:
                x_hat[:, i] += inverse[i, k] * rhs_hat[:, k]
        return self.ops.backward(x_hat)

    def solve_helmholtz(self, values):
        x_hat = self.ops.forward(values)
        x_hat /= self.helmholtz_denominator
        return self.ops.backward(x_hat)
