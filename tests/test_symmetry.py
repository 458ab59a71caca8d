"""Symmetries of the discrete system, checked on whole runs.

Every term of the step is even or odd in the director and negation commutes
with rounding, so a run from (v, -d) gives the velocity, the pressure and
every energy of the run from (v, d) bit for bit, with the director exactly
negated.  On a periodic grid the scheme also commutes with a shift by whole
cells, with the reflection of axis 0 and, where axes 0 and 1 have equal n
and h, with their swap, the body force transformed with the state and the
vector components with the axes (the isotropic tensor is invariant under
all three); the transforms round the moved fields differently, so there
the two runs agree to rounding: within 64 units of roundoff of the field's
largest entry per step.
"""

import numpy as np
import pytest

from leslie_sim import config
from leslie_sim.dynamics import State, run
from leslie_sim.grid import VectorField
from leslie_sim.initial import make_initial_state

STEPS = 20
#: Runs of 20 steps of the default dt = 5e-4 under the default isotropic
#: tensor: both theta regimes, a forced run, 3D, and a 3D grid of three
#: cell counts with a material off the Parodi relation.
CONFIGS = {
    "2d": "[grid]\nn = 16\n[stepper]\nt_end = 0.01\n",
    "2d-theta0": "[grid]\nn = 16\n[stepper]\nt_end = 0.01\ntheta = 0\n",
    "2d-forced": "[grid]\nn = 16\n[material]\nforcing = sinusoidal:0.5\n[stepper]\nt_end = 0.01\n",
    "3d": "[grid]\ndim = 3\nn = 8\n[stepper]\nt_end = 0.01\n",
    "3d-mixed": "[grid]\ndim = 3\nn = 8 6 5\n[material]\nlambda = 0.5\n[stepper]\nt_end = 0.01\n",
}


def _runs(name, transform):
    """The run of config ``name`` from its initial state and the run from
    that state's (v, d) and its forcing mapped by ``transform(values,
    field)``, field "v", "d" or "g"."""
    cfg = config.parse_config(CONFIGS[name])
    grid, forcing = cfg.grid, cfg.forcing()
    initial = make_initial_state(grid, cfg.initial)
    moved = State.initial(VectorField(grid, transform(initial.v.values, "v")),
                          VectorField(grid, transform(initial.d.values, "d")))
    moved_forcing = None if forcing is None else VectorField(grid, transform(forcing.values, "g"))
    a = run(initial, cfg.stepper, cfg.params, cfg.elastic, forcing)
    b = run(moved, cfg.stepper, cfg.params, cfg.elastic, moved_forcing)
    assert len(a.states) == len(b.states) == STEPS + 1
    return a, b


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_negating_the_director_negates_it_and_keeps_the_rest_bit_for_bit(name):
    a, b = _runs(name, lambda values, field: -values if field == "d" else values)
    for x, y in zip(a.states, b.states):
        assert y.t == x.t
        assert y.v.values.tobytes() == x.v.values.tobytes()
        assert y.p.values.tobytes() == x.p.values.tobytes()
        np.testing.assert_array_equal(y.d.values, -x.d.values)
    # the run moved the director, so the check is not of the initial state
    assert not np.array_equal(a.states[-1].d.values, a.states[0].d.values)
    assert b.step_total_energy.tobytes() == a.step_total_energy.tobytes()
    for column in vars(a.trace):
        assert getattr(b.trace, column).tobytes() == getattr(a.trace, column).tobytes(), column


def _assert_commutes_to_rounding(name, transform):
    """The run from the transformed state is the transformed run, within
    64 units of roundoff of the field's largest entry per step."""
    a, b = _runs(name, transform)
    for x, y in zip(a.states, b.states):
        for field in ("v", "d"):
            want = transform(getattr(x, field).values, field)
            bound = 64 * STEPS * 2.0**-52 * np.abs(want).max()
            assert np.abs(getattr(y, field).values - want).max() <= bound, field
    assert not np.array_equal(b.states[-1].d.values, transform(a.states[0].d.values, "d"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_shift_by_whole_cells_commutes_with_the_run(name):
    def shift(values, field):
        return np.roll(values, 3, axis=tuple(range(1 - values.ndim, 0)))

    _assert_commutes_to_rounding(name, shift)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reflecting_axis_0_commutes_with_the_run(name):
    # x -> -x maps cell i to cell n - 1 - i and negates the x components
    def reflect(values, field):
        out = np.flip(values, axis=1).copy()
        out[0] = -out[0]
        return out

    _assert_commutes_to_rounding(name, reflect)


def _axes_0_and_1_alike(name):
    grid = config.parse_config(CONFIGS[name]).grid
    return grid.n[0] == grid.n[1] and grid.h[0] == grid.h[1]


@pytest.mark.parametrize("name", [name for name in sorted(CONFIGS) if _axes_0_and_1_alike(name)])
def test_swapping_axes_0_and_1_commutes_with_the_run(name):
    # on axes of equal n and h, with the x and y components swapped too
    def swap(values, field):
        return np.ascontiguousarray(np.swapaxes(values, 1, 2)[[1, 0, 2]])

    _assert_commutes_to_rounding(name, swap)
