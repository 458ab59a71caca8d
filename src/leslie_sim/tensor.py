"""Small fixed-dimension tensor algebra: R^3 vectors, 3x3 matrices, and the
constant rank-4 elasticity tensor.

All functions accept stacked arrays (leading axes are broadcast), so the same
routines serve both pointwise values and whole grid fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T)/2, acting on the trailing two axes."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer product a b^T with entries a_i b_j."""
    return np.einsum("...i,...j->...ij", a, b)


class EllipticityError(ValueError):
    """Sampled ellipticity of an elasticity tensor is not strictly positive."""


@dataclass(frozen=True)
class ElasticTensor:
    """Constant rank-4 tensor with major symmetry L_ijkl = L_klij.

    ``eta`` is the (estimated) strong-ellipticity constant:
    (a x b) : L : (a x b) >= eta |a|^2 |b|^2 for unit a, b.  Equality and
    hashing see only ``eta`` and ``key``, the bytes of ``entries``.  Derived
    from ``entries`` once for dim 2 and 3, and not compared, are
    ``rows[dim]``, the (column, value) pairs of each row's nonzero entries of
    :meth:`contraction` (or one zero entry), and ``scalar[dim]``, c where
    that contraction is c I, else None.
    """

    entries: np.ndarray = field(compare=False)
    eta: float
    key: bytes = field(init=False, repr=False)
    rows: dict = field(init=False, repr=False, compare=False)
    scalar: dict = field(init=False, repr=False, compare=False)

    MAJOR_SYMMETRY_RTOL = 1e-12

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.float64)
        if entries.shape != (3, 3, 3, 3):
            raise ValueError(f"elasticity tensor must be 3x3x3x3, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("elasticity tensor entries must be finite")
        scale = np.max(np.abs(entries))
        defect = np.max(np.abs(entries - entries.transpose(2, 3, 0, 1)))
        if defect > self.MAJOR_SYMMETRY_RTOL * max(scale, 1.0):
            raise ValueError(
                f"major symmetry violated: max |L_ijkl - L_klij| = {defect:.3e}"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "key", entries.tobytes())
        object.__setattr__(self, "rows", {dim: tuple(
            tuple((b, float(c)) for b, c in enumerate(r) if c != 0.0) or ((0, 0.0),)
            for r in self.contraction(dim)) for dim in (2, 3)})
        object.__setattr__(self, "scalar", {
            dim: rows[0][0][1] if all(row == ((a, rows[0][0][1]),) for a, row in enumerate(rows)) else None
            for dim, rows in self.rows.items()})

    @classmethod
    def isotropic(cls, k: float = 1.0) -> "ElasticTensor":
        """L_ijkl = k delta_ik delta_jl, so L : A = k A and eta = k."""
        if not 0.0 < k < math.inf:
            raise ValueError(f"isotropic stiffness k must be finite and positive, got {k}")
        eye = np.eye(3)
        entries = k * np.einsum("ik,jl->ijkl", eye, eye)
        return cls(entries=entries, eta=float(k))

    @classmethod
    def from_entries(cls, entries) -> "ElasticTensor":
        """Build from an explicit 81-entry list (row-major i,j,k,l).

        The ellipticity constant is estimated from 2000 seeded samples;
        construction fails if major symmetry is violated, and raises
        :class:`EllipticityError` if it is not strictly positive.
        """
        arr = np.asarray(entries, dtype=np.float64).reshape(3, 3, 3, 3)
        tensor = cls(entries=arr, eta=1.0)
        eta = ellipticity_check(tensor, n_samples=2000, seed=0)
        if eta <= 0.0:
            raise EllipticityError(f"sampled ellipticity constant {eta:.3e} <= 0")
        return cls(entries=arr, eta=eta)

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Contraction (L : A)_ij = sum_kl L_ijkl A_kl over trailing axes,
        as one (..., 9) @ (9, 9)^T matrix product."""
        flat = a.reshape(a.shape[:-2] + (9,))
        return (flat @ self.entries.reshape(9, 9).T).reshape(a.shape)

    def contraction(self, dim: int) -> np.ndarray:
        """L_ijkl with j, l < dim as a (3 dim, 3 dim) matrix, rows (i, j) and
        columns (k, l).  For a gradient A without derivatives along the axes
        from dim on, (L : A)_ij = sum_kl L_ijkl A_kl for j < dim is this
        matrix times A[:, :dim] flattened, so a component-major (3, dim, ...)
        gradient is contracted by one matrix product; the columns j >= dim
        of L : A have no divergence on a dim-dimensional grid."""
        return np.ascontiguousarray(self.entries[:, :dim, :, :dim]).reshape(3 * dim, 3 * dim)

    def flux(self, grad: np.ndarray, dim: int) -> np.ndarray:
        """L : grad d of component-major gradients (..., 3, dim) + grid shape,
        each row of :meth:`contraction` summed over its nonzero entries in
        column order (the dense product bit for bit); for c I one multiply
        by c, and at c = 1 (an exact copy) ``grad`` itself: callers only read it."""
        c = self.scalar[dim]
        if c is not None:
            return grad if c == 1.0 else grad * c
        flat = grad.reshape((-1, 3 * dim) + grad.shape[-dim:])
        out = np.empty_like(flat)
        term = np.empty_like(flat[:, 0])
        for a, ((b, c), *rest) in enumerate(self.rows[dim]):
            np.multiply(flat[:, b], c, out=out[:, a])
            for b, c in rest:
                out[:, a] += np.multiply(flat[:, b], c, out=term)
        return out.reshape(grad.shape)

    def stiffness(self, sigmas: list) -> np.ndarray:
        """S_ik = sum_jl L_ijkl sigma_j sigma_l of the dim symbols ``sigmas``,
        (3, 3) + their half-spectrum shape, over the nonzero L_ijkl with j, l
        < dim (the other symbols vanish), each sigma_j sigma_l formed once."""
        dim = len(sigmas)
        stiffness = np.zeros((3, 3) + sigmas[0].shape)
        products, term = {}, np.empty(sigmas[0].shape)
        for row, entries in enumerate(self.rows[dim]):
            i, j = divmod(row, dim)
            for col, c in entries:  # a zero row's one zero entry adds zeros
                k, l = divmod(col, dim)
                pair = (min(j, l), max(j, l))
                if pair not in products:
                    products[pair] = sigmas[j] * sigmas[l]
                stiffness[i, k] += np.multiply(products[pair], c, out=term)
        return stiffness


def _sphere_grid(n_theta: int = 13, n_phi: int = 24) -> np.ndarray:
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    )
    return dirs.reshape(-1, 3)


def ellipticity_check(tensor: ElasticTensor, n_samples: int = 1000, seed: int = 0) -> float:
    """Estimate the strong-ellipticity constant of ``tensor``.

    Returns min over sampled unit pairs (a, b) of (a x b) : L : (a x b),
    combining every pair of a deterministic coarse sphere grid with
    ``n_samples`` seeded random unit pairs.  Deterministic for a given seed.
    The sample is (a x a)_ik L_ijkl (b x b)_jl, each of its contractions a
    two-operand ``np.einsum`` (no BLAS call).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    grid = _sphere_grid()
    rng = np.random.default_rng(seed)
    rnd = rng.normal(size=(2 * n_samples, 3))
    rnd /= np.linalg.norm(rnd, axis=-1, keepdims=True)
    a_rnd, b_rnd = rnd[:n_samples], rnd[n_samples:]

    def a_side(a):
        # (a x a)_ik L_ijkl, rows p of a
        return np.einsum("pik,ijkl->pjl", outer(a, a), tensor.entries)

    grid_vals = np.einsum("pjl,qjl->pq", a_side(grid), outer(grid, grid))
    rnd_vals = np.einsum("pjl,pjl->p", a_side(a_rnd), outer(b_rnd, b_rnd))
    return float(min(grid_vals.min(), rnd_vals.min()))
