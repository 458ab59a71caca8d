import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leslie_sim.grid import Grid
from leslie_sim.material import (
    NON_PARODI_DEMO,
    PARODI_DEMO,
    InvalidParameters,
    ParameterSet,
    is_parodi,
    make_forcing,
    require_valid,
    validate,
    zeta,
)


def test_default_set_is_valid_and_parodi():
    assert validate(PARODI_DEMO) == []
    assert is_parodi(PARODI_DEMO)
    # gamma (mu2 + mu3) = 1 * 1 = 1 = lambda
    assert PARODI_DEMO.cross_coeff == 0.0


def test_non_parodi_demo():
    assert validate(NON_PARODI_DEMO) == []
    assert not is_parodi(NON_PARODI_DEMO)
    # cross = 1 * 1 - 0.5, M = 2 - 0.5 * 1
    assert NON_PARODI_DEMO.cross_coeff == pytest.approx(0.5)
    assert NON_PARODI_DEMO.directional_coeff == pytest.approx(1.5)


def test_single_violations_named():
    assert validate(ParameterSet(mu1=-1.0)) == ["mu1 > 0"]
    assert validate(ParameterSet(mu4=0.0)) == ["mu4 > 0"]
    assert validate(ParameterSet(epsilon=0.0)) == ["epsilon > 0"]
    # lambda = -3: M = 2 + 3 = 5 > 0 but cross = 1 + 3 = 4 and 4*5 = 20 > 16 holds;
    # push to lambda = -4: cross = 5, 25 > 4 * 6 = 24 -> coupling bound fails alone
    bad = validate(ParameterSet(lam=-4.0))
    assert bad == [
        "4*gamma*((mu5+mu6) - lambda*(mu2+mu3)) > (gamma*(mu2+mu3) - lambda)^2"
    ]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ParameterSet)])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_nonfinite_parameter_is_refused(name, value):
    # epsilon = inf would pass every dissipativity inequality and run a
    # stepper with no penalty term; the error names lam by its config key
    key = "lambda" if name == "lam" else name
    with pytest.raises(ValueError, match=f"material {key} must be finite"):
        ParameterSet(**{name: value})
    with pytest.raises(ValueError, match="must be finite"):
        dataclasses.replace(PARODI_DEMO, **{name: value})


def test_require_valid_raises_with_violations():
    with pytest.raises(InvalidParameters) as exc_info:
        require_valid(ParameterSet(mu1=-1.0, mu4=-1.0))
    assert exc_info.value.violations == ["mu1 > 0", "mu4 > 0"]


def test_zeta_values():
    assert zeta(PARODI_DEMO) == 0.0
    # |0.5| / sqrt(4 * 1 * 1.5)
    assert zeta(NON_PARODI_DEMO) == pytest.approx(0.5 / math.sqrt(6.0), rel=1e-14)
    assert 0.0 < zeta(NON_PARODI_DEMO) < 1.0


def test_zeta_requires_valid_parameters():
    with pytest.raises(InvalidParameters):
        zeta(ParameterSet(mu4=-1.0))


def test_derived_coefficients():
    p = ParameterSet(lam=2.0, gamma=3.0, mu2=0.25, mu3=0.75, mu5=4.0, mu6=1.0)
    assert p.mu23 == 1.0
    assert p.mu56 == 5.0
    assert p.directional_coeff == pytest.approx(5.0 - 2.0)
    assert p.cross_coeff == pytest.approx(3.0 - 2.0)


def test_parameter_set_holds_only_material_coefficients():
    # the body force is a field on a grid, built by make_forcing
    assert "forcing" not in {f.name for f in dataclasses.fields(ParameterSet)}


def test_forcing_catalog():
    grid = Grid.unit_box(8)
    assert make_forcing("zero", grid) is None
    const = make_forcing("constant: 1.0, 2.0, 3.0", grid)
    assert const.grid == grid
    np.testing.assert_array_equal(const.values[:, 0, 0], [1.0, 2.0, 3.0])
    f = make_forcing("sinusoidal:0.5", grid).values
    assert np.max(np.abs(f[1])) == pytest.approx(
        0.5 * np.max(np.abs(np.sin(2 * np.pi * grid.axis_coords(0)))))
    assert np.all(f[0] == 0.0) and np.all(f[2] == 0.0)
    with pytest.raises(ValueError):
        make_forcing("constant:1,2", grid)
    with pytest.raises(ValueError):
        make_forcing("vortex:1", grid)


@given(
    lam=st.floats(-3.0, 3.0),
    gamma=st.floats(0.01, 3.0),
    mu23=st.floats(-2.0, 2.0),
    mu56=st.floats(0.01, 4.0),
)
@settings(max_examples=200, deadline=None)
def test_validate_matches_inequalities_property(lam, gamma, mu23, mu56):
    p = ParameterSet(lam=lam, gamma=gamma, mu2=mu23 / 2, mu3=mu23 / 2,
                     mu5=mu56 / 2, mu6=mu56 / 2)
    violations = validate(p)
    directional = mu56 - lam * mu23
    cross = gamma * mu23 - lam
    expected_ok = directional > 0.0 and 4.0 * gamma * directional > cross * cross
    assert (violations == []) == expected_ok
    if not violations:
        z = zeta(p)
        assert 0.0 <= z < 1.0
        # the absorption weight is exactly |cross| / sqrt(4 gamma directional)
        assert z == pytest.approx(abs(cross) / math.sqrt(4.0 * gamma * directional),
                                  rel=1e-12, abs=1e-300)
