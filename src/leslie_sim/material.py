"""Leslie coefficient bookkeeping: the parameter set, its dissipativity
conditions, the absorption constant zeta, and the body-force catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import Grid, VectorField


@dataclass(frozen=True)
class ParameterSet:
    lam: float = 1.0
    gamma: float = 1.0
    mu1: float = 1.0
    mu2: float = 0.5
    mu3: float = 0.5
    mu4: float = 1.0
    mu5: float = 1.0
    mu6: float = 1.0
    epsilon: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                key = "lambda" if f.name == "lam" else f.name  # the config's name for it
                raise ValueError(f"material {key} must be finite, got {getattr(self, f.name)}")

    @property
    def mu23(self) -> float:
        return self.mu2 + self.mu3

    @property
    def mu56(self) -> float:
        return self.mu5 + self.mu6

    @property
    def directional_coeff(self) -> float:
        """(mu5 + mu6) - lambda (mu2 + mu3): weight of the |D v d|^2 channel."""
        return self.mu56 - self.lam * self.mu23

    @property
    def cross_coeff(self) -> float:
        """gamma (mu2 + mu3) - lambda: weight of the (q, D v d) cross term."""
        return self.gamma * self.mu23 - self.lam


class InvalidParameters(ValueError):
    """Parameter set violates the dissipativity conditions."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


#: The dissipativity inequalities (strict, no tolerance): each one's text,
#: the ParameterSet fields it reads and its test.
_CONDITIONS = (
    ("mu1 > 0", ("mu1",), lambda p: p.mu1 > 0.0),
    ("mu4 > 0", ("mu4",), lambda p: p.mu4 > 0.0),
    ("gamma > 0", ("gamma",), lambda p: p.gamma > 0.0),
    ("(mu5+mu6) - lambda*(mu2+mu3) > 0", ("mu5", "mu6", "lam", "mu2", "mu3"),
     lambda p: p.directional_coeff > 0.0),
    ("4*gamma*((mu5+mu6) - lambda*(mu2+mu3)) > (gamma*(mu2+mu3) - lambda)^2",
     ("gamma", "mu5", "mu6", "lam", "mu2", "mu3"),
     lambda p: 4.0 * p.gamma * p.directional_coeff > p.cross_coeff**2),
    ("epsilon > 0", ("epsilon",), lambda p: p.epsilon > 0.0),
)


def violated_conditions(p: ParameterSet) -> list:
    """(text, fields read) of each dissipativity inequality that p violates."""
    return [(text, reads) for text, reads, holds in _CONDITIONS if not holds(p)]


def validate(p: ParameterSet):
    """Check the five dissipativity inequalities (strict, no tolerance).

    Returns the empty list when all hold, otherwise a list naming each
    violated condition.
    """
    return [text for text, _ in violated_conditions(p)]


def require_valid(p: ParameterSet):
    violations = validate(p)
    if violations:
        raise InvalidParameters(violations)


def zeta(p: ParameterSet) -> float:
    """Minimal zeta in (0, 1) with (cross_coeff)^2 <= zeta^2 * 4 gamma * directional_coeff.

    Vanishes exactly for Parodi parameter sets.
    """
    require_valid(p)
    return abs(p.cross_coeff) / math.sqrt(4.0 * p.gamma * p.directional_coeff)


def is_parodi(p: ParameterSet, tol: float = 1e-12) -> bool:
    """Whether gamma (mu2 + mu3) = lambda holds up to a relative tolerance."""
    return abs(p.cross_coeff) <= tol * (1.0 + abs(p.lam))


#: Demo set satisfying the Parodi relation; all values are artifact choices,
#: no physical parameter values are implied.
PARODI_DEMO = ParameterSet()

#: Valid set that breaks the Parodi relation (cross coefficient 0.5).
NON_PARODI_DEMO = ParameterSet(lam=0.5, mu5=1.0, mu6=1.0)


# ---------------------------------------------------------------------------
# body-force catalog: "zero", "constant:<gx>,<gy>,<gz>", "sinusoidal:<amp>"
# ---------------------------------------------------------------------------

def make_forcing(spec: str, grid: Grid) -> VectorField | None:
    """The body force g of a catalog entry on ``grid``, a field constant in
    time, or None for "zero", so that callers skip the term entirely."""
    spec = spec.strip()
    if spec == "zero":
        return None
    if spec.startswith("constant:"):
        parts = [float(v) for v in spec[len("constant:"):].split(",")]
        if len(parts) != 3 or not all(math.isfinite(x) for x in parts):
            raise ValueError(f"constant forcing needs 3 finite components, got {spec!r}")
        return VectorField.constant(grid, parts)
    if spec.startswith("sinusoidal:"):
        amp = float(spec[len("sinusoidal:"):])
        if not math.isfinite(amp):
            raise ValueError(f"sinusoidal forcing needs a finite amplitude, got {spec!r}")
        values = np.zeros((3,) + grid.shape)
        values[1] = amp * np.sin(2.0 * np.pi * grid.coords()[0] / grid.lengths[0])
        return VectorField(grid, values)
    raise ValueError(f"unknown forcing spec {spec!r}")
