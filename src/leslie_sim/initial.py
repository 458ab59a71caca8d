"""Initial-data catalog: constant director, perturbed constant, and fully
smooth random fields.  All generators are deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .grid import Grid, VectorField, whole


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "perturbed"  # constant | perturbed | smooth_random
    director: tuple = (0.0, 0.0, 1.0)
    seed: int = 0
    amplitude: float = 0.1
    v_amplitude: float = 0.1

    def __post_init__(self):
        if self.kind not in ("constant", "perturbed", "smooth_random"):
            raise ValueError(f"unknown initial-data kind {self.kind!r}")
        if len(self.director) != 3:
            raise ValueError("director must have 3 components")
        for name in ("director", "amplitude", "v_amplitude"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"initial {name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "seed", whole(self.seed, "initial seed", 0))


def smooth_vector_field(grid: Grid, rng: np.random.Generator, max_mode: int = 2) -> VectorField:
    """Mean-zero smooth random field from a few low-wavenumber Fourier modes.

    The field is sum_k amp_k cos(2 pi k . x / L + phi_k) at the cell
    centres x, over the integer vectors k in [-max_mode, max_mode]^dim other
    than 0, with amp_k = N(0, 1)^3 / (1 + |k|^2) and phi_k uniform in
    [0, 2 pi), drawn for each k in turn; the decay keeps refinements of the
    same seed smooth.  It is synthesised as one inverse real FFT: each term
    puts (N/2) amp_k exp(i(phi_k + pi sum_a k_a / n_a)) at index k mod n of
    the half spectrum and its conjugate at -k mod n (N the cell count, the
    pi term the shift to cell centres), keeping whichever of the two lies in
    the half spectrum -- both in its zero and Nyquist columns.  Modes that
    alias on a coarse grid add up at one index, as their cosines do.
    """
    n = np.array(grid.n)
    ranges = [range(-max_mode, max_mode + 1)] * grid.dim
    ks = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    ks = ks[np.any(ks != 0, axis=1)]
    amps, phases = np.empty((len(ks), 3)), np.empty(len(ks))
    for t in range(len(ks)):
        amps[t] = rng.normal(size=3)
        phases[t] = rng.uniform(0.0, 2.0 * np.pi)
    amps *= (0.5 * grid.cell_count / (1.0 + np.sum(ks**2, axis=1)))[:, None]
    coeffs = amps * np.exp(1j * (phases + np.pi * np.sum(ks / n, axis=1)))[:, None]
    spectrum = np.zeros((3,) + grid.n[:-1] + (grid.n[-1] // 2 + 1,), dtype=complex)
    for sign, values in ((1, coeffs), (-1, coeffs.conj())):
        idx = (sign * ks) % n
        kept = idx[:, -1] <= n[-1] // 2
        np.add.at(spectrum, (slice(None),) + tuple(idx[kept].T), values[kept].T)
    return VectorField(grid, np.fft.irfftn(spectrum, s=grid.n, axes=tuple(range(1, grid.dim + 1))))


def divfree_smooth_field(grid: Grid, rng: np.random.Generator) -> VectorField:
    """Smooth random field projected onto discretely divergence-free fields:
    the velocity of :func:`dynamics.project_divfree` without its pressure."""
    raw = smooth_vector_field(grid, rng)
    v, _ = dynamics._divfree(dynamics.SpectralOps(grid), raw.values[None])
    return VectorField(grid, v[0])


def make_initial_state(grid: Grid, spec: InitialSpec) -> dynamics.State:
    base = VectorField.constant(grid, spec.director)
    if spec.kind == "constant":
        return dynamics.State.initial(VectorField.zeros(grid), base)

    rng = np.random.default_rng(spec.seed)
    if spec.kind == "smooth_random":
        # random constant direction instead of the configured one
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        base = VectorField.constant(grid, direction)
    xi_d = smooth_vector_field(grid, rng)
    xi_v = divfree_smooth_field(grid, rng)
    v = VectorField(grid, spec.v_amplitude * xi_v.values)
    d = VectorField(grid, base.values + spec.amplitude * xi_d.values)
    return dynamics.State.initial(v, d)
