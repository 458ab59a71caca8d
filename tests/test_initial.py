"""The smooth random fields of the initial-data catalog against the sum of
cosines they are synthesised from (``oracles.smooth_vector_field``)."""

import numpy as np
import pytest

import oracles
from leslie_sim.dynamics import SpectralOps, project_divfree
from leslie_sim.grid import Grid, VectorField
from leslie_sim.initial import InitialSpec, divfree_smooth_field, make_initial_state, smooth_vector_field

#: Tolerance relative to the field's largest value, fixed from float64
#: rounding before the comparisons ran.
TOL = 1e-13


def _grid(dim, n, spacing):
    if spacing == "unit":
        return Grid.unit_box(n, dim)
    # unequal spacing per axis, and for "mixed" unequal cell counts too
    ns = (n, n + 1, n + 2)[:dim] if spacing == "mixed" else (n,) * dim
    return Grid(n=ns, h=(0.1, 0.13, 0.07)[:dim])


@pytest.mark.parametrize("spacing", ["unit", "unequal", "mixed"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("dim", [2, 3])
def test_smooth_field_equals_the_cosine_sum(dim, n, spacing):
    # at n = 4 the modes +-2 are the Nyquist mode, at n = 4 and 5 they alias
    grid = _grid(dim, n, spacing)
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    field = smooth_vector_field(grid, rng)
    expected = oracles.smooth_vector_field(grid, ref_rng).values
    assert np.max(np.abs(field.values - expected)) <= TOL * np.max(np.abs(expected))
    assert field.values.flags.c_contiguous
    # the random stream is consumed as the cosine sum consumes it
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("max_mode", [1, 3])
def test_smooth_field_of_other_bandwidths(max_mode):
    grid = _grid(3, 5, "mixed")
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    field = smooth_vector_field(grid, rng, max_mode=max_mode)
    expected = oracles.smooth_vector_field(grid, ref_rng, max_mode=max_mode).values
    assert np.max(np.abs(field.values - expected)) <= TOL * np.max(np.abs(expected))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("grid", [Grid.unit_box(8), Grid(n=(5, 4, 6), h=(0.2, 0.2, 0.2))], ids=["2d", "3d"])
def test_divfree_field_transforms_no_pressure(grid, monkeypatch):
    # the projected velocity is project_divfree's, bit for bit, and set-up
    # makes one inverse transform for it: none for the dropped pressure
    expected, _ = project_divfree(smooth_vector_field(grid, np.random.default_rng(3)))
    calls = []
    backward = SpectralOps.backward

    def counted(self, values_hat):
        calls.append(values_hat.shape)
        return backward(self, values_hat)

    monkeypatch.setattr(SpectralOps, "backward", counted)
    field = divfree_smooth_field(grid, np.random.default_rng(3))
    assert field.values.tobytes() == expected.values.tobytes()
    assert len(calls) == 1
    calls.clear()
    state = make_initial_state(grid, InitialSpec("perturbed", seed=3))
    assert len(calls) == 1
    rng = np.random.default_rng(3)
    xi_d = smooth_vector_field(grid, rng)
    assert state.v.values.tobytes() == (0.1 * divfree_smooth_field(grid, rng).values).tobytes()
    assert state.d.values.tobytes() == (VectorField.constant(grid, (0.0, 0.0, 1.0)).values
                                        + 0.1 * xi_d.values).tobytes()


def test_constant_state_is_the_director_at_rest():
    grid = Grid(n=(5, 4, 6), h=(0.2, 0.2, 0.2))
    state = make_initial_state(grid, InitialSpec(kind="constant", director=(0.6, 0.0, 0.8)))
    assert not state.v.values.any() and not state.p.values.any()
    np.testing.assert_array_equal(state.d.values, VectorField.constant(grid, (0.6, 0.0, 0.8)).values)


def test_smooth_random_state_is_seeded_and_its_base_direction_is_unit():
    grid = Grid.unit_box(8)

    def state(seed, amplitude=0.1):
        return make_initial_state(grid, InitialSpec(kind="smooth_random", seed=seed, amplitude=amplitude))

    a, again, other = state(3), state(3), state(4)
    for name in "vdp":
        assert getattr(a, name).values.tobytes() == getattr(again, name).values.tobytes()
    assert not np.array_equal(a.d.values, other.d.values)
    # at amplitude 0 the director is the random base direction, not the
    # configured one, at every node
    base = state(3, amplitude=0.0).d.values.reshape(3, -1)
    np.testing.assert_array_equal(base, np.broadcast_to(base[:, :1], base.shape))
    assert abs(np.linalg.norm(base[:, 0]) - 1.0) <= 1e-15
    assert not np.array_equal(base[:, 0], InitialSpec().director)
