"""Initial-data catalog: constant director, perturbed constant, and fully
smooth random fields.  All generators are deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .grid import Grid, VectorField


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


def smooth_vector_field(grid: Grid, rng: np.random.Generator, max_mode: int = 2) -> VectorField:
    """Mean-zero smooth random field from a few low-wavenumber Fourier modes.

    Amplitudes decay like 1/(1 + |k|^2) so refinements of the same seed stay
    smooth; the k = 0 mode is excluded.
    """
    xs = grid.coords()
    lengths = grid.lengths
    values = np.zeros(grid.shape + (3,))
    ranges = [range(-max_mode, max_mode + 1)] * grid.dim
    for k_vec in np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, grid.dim):
        if not np.any(k_vec):
            continue
        amp = rng.normal(size=3) / (1.0 + float(np.sum(k_vec**2)))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(
            2.0 * np.pi * k_vec[a] * xs[a] / lengths[a] for a in range(grid.dim)
        )
        values += np.cos(arg + phase)[..., None] * amp
    return VectorField(grid, values)


def divfree_smooth_field(grid: Grid, rng: np.random.Generator, max_mode: int = 2) -> VectorField:
    """Smooth random field projected onto discretely divergence-free fields."""
    raw = smooth_vector_field(grid, rng, max_mode)
    projected, _ = dynamics.project_divfree(raw)
    return projected


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
