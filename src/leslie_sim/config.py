"""Sectioned key=value run configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored.  Unknown sections or keys are errors with line numbers; every
key has a documented default, so the empty config is valid.  The converters
only parse; each value is checked once, by the object that takes it, and a
failed check is a ConfigError naming the line of its key.  The ``[output]``
paths, which no object takes before the run writes them, are checked as
they are read: an empty path, or one that cannot be written, is refused
before any step.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

from .dynamics import StepperConfig
from .experiments import ExperimentConfig
from .grid import Grid, VectorField
from .initial import InitialSpec
from .material import ParameterSet, make_forcing, violated_conditions
from .snapshot import check_snapshot_dir, check_trace_path
from .tensor import ElasticTensor


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass
class RunConfig:
    grid: Grid
    params: ParameterSet
    elastic: ElasticTensor
    stepper: StepperConfig
    initial: InitialSpec
    experiment: ExperimentConfig
    forcing_spec: str = "zero"
    trace_path: str | None = None
    snapshot_dir: str | None = None

    def forcing(self) -> VectorField | None:
        """The body force on the run's grid (:func:`material.make_forcing`)."""
        return make_forcing(self.forcing_spec, self.grid)


def _parse_sections(text: str):
    """The file's ``[section] key -> (value, line)`` entries, and the line
    of each section's first header."""
    sections: dict = {}
    headers: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KEYS:
                raise ConfigError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            headers.setdefault(current, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections, headers


def _floats(value: str) -> list:
    return [float(v) for v in value.replace(",", " ").split()]


def number(value: str):
    """An int literal as its exact int, else a float.  Converters only parse:
    the object that takes a value checks it (finite, whole, in range)."""
    try:
        return int(value)
    except ValueError:
        return float(value)


def _numbers(value: str) -> list:
    return [number(v) for v in value.replace(",", " ").split()]


def _one_of(*choices, convert=str):
    """A converter that accepts only ``choices``, after ``convert``."""
    def check(value: str):
        x = convert(value)
        if x not in choices:
            raise ValueError(f"must be {' or '.join(map(str, choices))}, got {value!r}")
        return x
    return check


def _forcing(value: str) -> str:
    make_forcing(value, Grid.unit_box(4))  # built on the smallest grid only to check it
    return value


def _isotropic(value: str) -> ElasticTensor:
    return ElasticTensor.isotropic(float(value))


def _explicit(value: str) -> ElasticTensor:
    entries = _floats(value)
    if len(entries) != 81:
        raise ValueError(f"elastic_entries needs 81 values, got {len(entries)}")
    return ElasticTensor.from_entries(entries)


def _director(value: str) -> tuple:
    return tuple(_floats(value))


#: Every key of every section: ``[section] key -> (field, converter)``.  A key
#: with a field sets that field of the section's dataclass, which is built
#: from the keys the file gives, so its defaults are the dataclass's own; the
#: grid, the elastic tensor, the forcing and ``[output]`` (field None) are
#: built key by key, the forcing outside ParameterSet as a spec that
#: ``RunConfig.forcing()`` builds on the run's grid.
_KEYS = {
    "grid": {
        "dim": (None, _one_of(2, 3, convert=int)),
        "n": (None, _numbers),
        "length": (None, _floats),
        "bc": (None, _one_of("periodic")),  # every grid is periodic
    },
    "material": {
        "lambda": ("lam", float),
        "gamma": ("gamma", float),
        **{f"mu{i}": (f"mu{i}", float) for i in range(1, 7)},
        "epsilon": ("epsilon", float),
        "forcing": (None, _forcing),
        "elastic": (None, _one_of("isotropic", "explicit")),
        "elastic_k": (None, _isotropic),
        "elastic_entries": (None, _explicit),
    },
    "stepper": {
        "dt": ("dt", float),
        "t_end": ("t_end", float),
        "output_every": ("output_every", number),
        "theta": ("theta", float),
    },
    "initial": {
        "kind": ("kind", str),
        "director": ("director", _director),
        "seed": ("seed", number),
        "amplitude": ("amplitude", float),
        "v_amplitude": ("v_amplitude", float),
    },
    "experiment": {
        "gronwall_c": ("gronwall_c", float),
        "tol_energy": ("tol_energy", float),
        "tol_step": ("tol_step", float),
        "delta": ("delta", float),
        "seed": ("seed", number),
    },
    "output": {
        "trace": (None, check_trace_path),
        "snapshots": (None, check_snapshot_dir),
    },
}


#: The keys that a kind does not use: ``(section, kind) -> keys``.  A file
#: that gives one of them under that kind is a ConfigError naming its line.
_UNUSED = {
    ("material", "isotropic"): ("elastic_entries",),
    ("material", "explicit"): ("elastic_k",),
    ("initial", "constant"): ("seed", "amplitude", "v_amplitude"),
    ("initial", "smooth_random"): ("director",),
}


def _line(sections, section, key):
    """The line of ``[section] key``, or None if the file does not give it."""
    entry = sections.get(section, {}).get(key)
    return None if entry is None else entry[1]


@contextmanager
def _reported_at(line):
    """A ValueError raised in the block, as a ConfigError naming ``line``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc), line)


def _reject_unused(sections, section, kind_key, kind):
    for key in _UNUSED.get((section, kind), ()):
        line = _line(sections, section, key)
        if line is not None:
            raise ConfigError(f"{section}.{key} is not used with {kind_key} = {kind}", line)


def _get(sections, section, key, default=None):
    """The converted value of ``[section] key``, or ``default`` if the file
    does not give it."""
    entry = sections.get(section, {}).get(key)
    if entry is None:
        return default
    value, lineno = entry
    try:
        return _KEYS[section][key][1](value)
    except Exception as exc:
        raise ConfigError(f"bad value for {section}.{key}: {exc}", lineno)


def _build(cls, sections, section):
    """The dataclass ``cls`` with the keys of ``[section]`` that the file
    gives applied to its defaults one at a time, in file order.  Each check
    of these dataclasses reads one field, so a failed one is a ConfigError
    naming the line of the key that failed it."""
    built = cls()
    for key, (_, lineno) in sections.get(section, {}).items():
        field = _KEYS[section][key][0]
        if field is not None:
            value = _get(sections, section, key)
            with _reported_at(lineno):
                built = replace(built, **{field: value})
    return built


def parse_config(text: str, allow_invalid: bool = False) -> RunConfig:
    sections, headers = _parse_sections(text)

    dim = _get(sections, "grid", "dim", 2)
    n = _get(sections, "grid", "n", [32] * dim)
    if len(n) == 1:
        n = n * dim
    length = _get(sections, "grid", "length", [1.0] * dim)
    if len(length) == 1:
        length = length * dim
    _get(sections, "grid", "bc")  # checked only
    # a grid error names the line of the key that makes it: the cell counts
    # are checked on cells of unit width, then the lengths set the spacing
    with _reported_at(_line(sections, "grid", "n")):
        if len(n) != dim:
            raise ValueError("grid.n must match grid.dim")
        grid = Grid(n=tuple(n), h=(1.0,) * dim)
    with _reported_at(_line(sections, "grid", "length")):
        if len(length) != dim:
            raise ValueError("grid.length must match grid.dim")
        grid = replace(grid, h=tuple(x / k for x, k in zip(length, grid.n)))

    params = _build(ParameterSet, sections, "material")
    forcing_spec = _get(sections, "material", "forcing", "zero")
    violations = violated_conditions(params)
    if violations and not allow_invalid:
        # the line of the last key that the first violated inequality reads,
        # or the section header if the file gives none of them
        key_of = {field: key for key, (field, _) in _KEYS["material"].items()}
        lines = [_line(sections, "material", key_of[f]) for f in violations[0][1]]
        raise ConfigError("material parameters violate: " + "; ".join(t for t, _ in violations),
                          max((n for n in lines if n is not None), default=headers.get("material")))

    # the tensor is built as the value's conversion, so that a bad stiffness
    # or entry list is reported with its line
    elastic_kind = _get(sections, "material", "elastic", "isotropic")
    _reject_unused(sections, "material", "elastic", elastic_kind)
    if elastic_kind == "isotropic":
        elastic = _get(sections, "material", "elastic_k", ElasticTensor.isotropic(1.0))
    else:
        elastic = _get(sections, "material", "elastic_entries")
        if elastic is None:
            raise ConfigError("elastic = explicit needs elastic_entries with 81 values",
                              _line(sections, "material", "elastic"))

    stepper = _build(StepperConfig, sections, "stepper")
    # every state built from a config starts at t = 0
    with _reported_at(headers.get("stepper")):
        stepper.steps(0.0)
    initial = _build(InitialSpec, sections, "initial")
    _reject_unused(sections, "initial", "kind", initial.kind)

    return RunConfig(
        grid=grid,
        params=params,
        elastic=elastic,
        stepper=stepper,
        initial=initial,
        experiment=_build(ExperimentConfig, sections, "experiment"),
        forcing_spec=forcing_spec,
        trace_path=_get(sections, "output", "trace"),
        snapshot_dir=_get(sections, "output", "snapshots"),
    )


def load_config(path: str, allow_invalid: bool = False) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), allow_invalid=allow_invalid)
