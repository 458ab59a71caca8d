"""Sectioned key=value run configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored.  Unknown sections or keys are errors with line numbers; every
key has a documented default, so the empty config is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import StepperConfig
from .grid import Grid
from .initial import InitialSpec
from .material import ParameterSet, make_forcing, validate
from .tensor import ElasticTensor


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass
class ExperimentConfig:
    gronwall_c: float = 1.0
    tol_energy: float = 1e-6
    tol_step: float = 1e-10
    delta: float = 1e-3
    seed: int = 7


@dataclass
class RunConfig:
    grid: Grid
    params: ParameterSet
    elastic: ElasticTensor
    stepper: StepperConfig
    initial: InitialSpec
    experiment: ExperimentConfig
    trace_path: str | None = None
    snapshot_dir: str | None = None

    def forcing(self):
        return make_forcing(self.params.forcing)


_KNOWN = {
    "grid": {"dim", "n", "length", "bc"},
    "material": {
        "lambda", "gamma", "mu1", "mu2", "mu3", "mu4", "mu5", "mu6",
        "epsilon", "forcing", "elastic", "elastic_k", "elastic_entries",
    },
    "stepper": {"dt", "t_end", "poisson_tol", "output_every", "theta"},
    "initial": {"kind", "director", "seed", "amplitude", "v_amplitude"},
    "experiment": {"gronwall_c", "tol_energy", "tol_step", "delta", "seed"},
    "output": {"trace", "snapshots"},
}


def _parse_sections(text: str):
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KNOWN:
                raise ConfigError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _get(sections, section, key, default, convert):
    entry = sections.get(section, {}).get(key)
    if entry is None:
        return default
    value, lineno = entry
    try:
        return convert(value)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for {section}.{key}: {exc}", lineno)


def _finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def _finite_floats(value: str) -> list:
    return [_finite(v) for v in value.replace(",", " ").split()]


def _ints(value: str):
    return [int(v) for v in value.replace(",", " ").split()]


def _periodic(value: str):
    if value != "periodic":
        raise ValueError(f"only periodic grids are supported, got {value!r}")
    return value


def _forcing(value: str) -> str:
    make_forcing(value)  # built here only to check it
    return value


def _isotropic(value: str) -> ElasticTensor:
    return ElasticTensor.isotropic(float(value))


def _explicit(value: str) -> ElasticTensor:
    entries = _finite_floats(value)
    if len(entries) != 81:
        raise ValueError(f"elastic_entries needs 81 values, got {len(entries)}")
    return ElasticTensor.from_entries(entries)


def parse_config(text: str, allow_invalid: bool = False) -> RunConfig:
    sections = _parse_sections(text)

    dim = _get(sections, "grid", "dim", 2, int)
    if dim not in (2, 3):
        raise ConfigError("grid.dim must be 2 or 3")
    n = _get(sections, "grid", "n", [32] * dim, _ints)
    if len(n) == 1:
        n = n * dim
    length = _get(sections, "grid", "length", [1.0] * dim, _finite_floats)
    if len(length) == 1:
        length = length * dim
    if len(n) != dim or len(length) != dim:
        raise ConfigError("grid.n / grid.length must match grid.dim")
    _get(sections, "grid", "bc", "periodic", _periodic)  # checked only: every grid is periodic
    try:
        grid = Grid(n=tuple(n), h=tuple(length[i] / n[i] for i in range(dim)))
    except ValueError as exc:
        raise ConfigError(str(exc))

    params = ParameterSet(
        lam=_get(sections, "material", "lambda", 1.0, _finite),
        gamma=_get(sections, "material", "gamma", 1.0, _finite),
        mu1=_get(sections, "material", "mu1", 1.0, _finite),
        mu2=_get(sections, "material", "mu2", 0.5, _finite),
        mu3=_get(sections, "material", "mu3", 0.5, _finite),
        mu4=_get(sections, "material", "mu4", 1.0, _finite),
        mu5=_get(sections, "material", "mu5", 1.0, _finite),
        mu6=_get(sections, "material", "mu6", 1.0, _finite),
        epsilon=_get(sections, "material", "epsilon", 0.1, _finite),
        forcing=_get(sections, "material", "forcing", "zero", _forcing),
    )
    violations = validate(params)
    if violations and not allow_invalid:
        raise ConfigError(
            "material parameters violate: " + "; ".join(violations)
        )

    # the tensor is built as the value's conversion, so that a bad stiffness
    # or entry list is reported with its line
    elastic_kind = _get(sections, "material", "elastic", "isotropic", str)
    if elastic_kind == "isotropic":
        elastic = _get(sections, "material", "elastic_k", ElasticTensor.isotropic(1.0), _isotropic)
    elif elastic_kind == "explicit":
        elastic = _get(sections, "material", "elastic_entries", None, _explicit)
        if elastic is None:
            raise ConfigError("elastic = explicit needs elastic_entries with 81 values")
    else:
        raise ConfigError(f"material.elastic must be isotropic or explicit, got {elastic_kind!r}")

    try:
        stepper = StepperConfig(
            dt=_get(sections, "stepper", "dt", 5e-4, _finite),
            t_end=_get(sections, "stepper", "t_end", 0.5, _finite),
            poisson_tol=_get(sections, "stepper", "poisson_tol", 1e-10, _finite),
            output_every=_get(sections, "stepper", "output_every", 1, int),
            theta=_get(sections, "stepper", "theta", 0.3, _finite),
        )
    except ConfigError:  # a bad value, already reported with its line
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))

    try:
        initial = InitialSpec(
            kind=_get(sections, "initial", "kind", "perturbed", str),
            director=tuple(_get(sections, "initial", "director", [0.0, 0.0, 1.0], _finite_floats)),
            seed=_get(sections, "initial", "seed", 0, int),
            amplitude=_get(sections, "initial", "amplitude", 0.1, _finite),
            v_amplitude=_get(sections, "initial", "v_amplitude", 0.1, _finite),
        )
    except ConfigError:  # a bad value, already reported with its line
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))

    experiment = ExperimentConfig(
        gronwall_c=_get(sections, "experiment", "gronwall_c", 1.0, _finite),
        tol_energy=_get(sections, "experiment", "tol_energy", 1e-6, _finite),
        tol_step=_get(sections, "experiment", "tol_step", 1e-10, _finite),
        delta=_get(sections, "experiment", "delta", 1e-3, _finite),
        seed=_get(sections, "experiment", "seed", 7, int),
    )

    return RunConfig(
        grid=grid,
        params=params,
        elastic=elastic,
        stepper=stepper,
        initial=initial,
        experiment=experiment,
        trace_path=_get(sections, "output", "trace", None, str),
        snapshot_dir=_get(sections, "output", "snapshots", None, str),
    )


def load_config(path: str, allow_invalid: bool = False) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), allow_invalid=allow_invalid)
