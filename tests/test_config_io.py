import dataclasses
import hashlib
import math
import pathlib
import re

import numpy as np
import pytest

from leslie_sim import config
from leslie_sim.config import _KEYS, ConfigError, load_config, parse_config
from leslie_sim.dynamics import State, StepperConfig, run
from leslie_sim.energetics import EnergyTrace, RelativeTrace, energy_inequality_residual
from leslie_sim.grid import Grid, ScalarField, VectorField
from leslie_sim.experiments import ExperimentConfig
from leslie_sim.initial import InitialSpec, make_initial_state
from leslie_sim.material import PARODI_DEMO
from leslie_sim.snapshot import (
    MAGIC,
    TRACE_COLUMNS,
    SnapshotError,
    read_snapshot,
    read_trace_csv,
    write_snapshot,
    write_trace_csv,
)
from leslie_sim.tensor import ElasticTensor

TENSOR = ElasticTensor.isotropic(1.0)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_valid_with_defaults():
    cfg = parse_config("")
    assert cfg.grid.n == (32, 32)
    assert cfg.params.lam == 1.0
    assert cfg.stepper.dt == 5e-4
    assert cfg.initial.kind == "perturbed"
    assert cfg.experiment.gronwall_c == 1.0
    assert cfg.forcing() is None


@pytest.mark.parametrize("key", ["trace", "snapshots"])
def test_empty_output_path_is_an_error_naming_its_line(key):
    # an empty path used to parse, and the run wrote nothing
    with pytest.raises(ConfigError) as exc_info:
        parse_config(f"[grid]\nn = 16\n[output]\n{key} =\n")
    assert exc_info.value.line == 4
    assert f"output.{key}: empty path" in str(exc_info.value)


@pytest.mark.parametrize("key, value, message", [
    ("trace", "nodir/x.csv", "nodir/x.csv: no directory"),
    ("trace", ".", ". is a directory"),
    ("snapshots", "afile", "is not a directory"),
    ("snapshots", "afile/sub", "is not a directory"),
])
def test_unwritable_output_path_is_an_error_naming_its_line(tmp_path, monkeypatch, key, value, message):
    # checked as the config is read, before any step, and nothing is made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    with pytest.raises(ConfigError) as exc_info:
        parse_config(f"[output]\n{key} = {value}\n")
    assert exc_info.value.line == 2
    assert message in str(exc_info.value) and value in str(exc_info.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_output_paths_that_can_be_written_are_kept(tmp_path, monkeypatch):
    # a trace in an existing directory; a snapshot directory that exists or
    # can be made, at any depth, and is not made as the config is read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "snaps").mkdir()
    for trace, snaps in (("x.csv", "snaps"), ("snaps/x.csv", "new/deep")):
        cfg = parse_config(f"[output]\ntrace = {trace}\nsnapshots = {snaps}\n")
        assert (cfg.trace_path, cfg.snapshot_dir) == (trace, snaps)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snaps"]


#: The identity tensor, L_ijkl = delta_ik delta_jl, as 81 explicit entries.
EXPLICIT_IDENTITY = ("[material]\nelastic = explicit\nelastic_entries = "
                     + " ".join((["1"] + ["0"] * 9) * 8 + ["1"]) + "\n")


@pytest.mark.parametrize("text", ["", "[material]\nelastic_k = 2.5\n", EXPLICIT_IDENTITY],
                         ids=["defaults", "isotropic", "explicit"])
def test_parsed_configs_compare_as_values(text):
    # the elastic tensor compares and hashes as a value, so a RunConfig does
    cfg, again = parse_config(text), parse_config(text)
    assert cfg.elastic is not again.elastic
    assert cfg == again and hash(cfg.elastic) == hash(again.elastic)
    other = parse_config("[material]\nelastic_k = 3\n")
    assert cfg != other and cfg.elastic != other.elastic


def test_full_config_round_trip_values():
    text = """
[grid]
dim = 2
n = 16
length = 2.0
[material]
lambda = 0.5
epsilon = 0.2
elastic = isotropic
elastic_k = 2.0
[stepper]
dt = 1e-3
t_end = 0.1
[initial]
kind = constant
director = 1, 0, 0
[experiment]
delta = 1e-4
"""
    cfg = parse_config(text)
    assert cfg.grid.n == (16, 16)
    assert cfg.grid.h == (0.125, 0.125)
    assert cfg.params.lam == 0.5
    assert cfg.params.epsilon == 0.2
    assert cfg.elastic.eta == 2.0
    assert cfg.stepper.dt == 1e-3
    assert cfg.initial.director == (1.0, 0.0, 0.0)
    assert cfg.experiment.delta == 1e-4


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("[grid]\nn = 16\n[nonsense]\n")
    assert exc_info.value.line == 3
    assert "nonsense" in str(exc_info.value)


def test_only_periodic_grids_are_accepted():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("[grid]\nbc = dirichlet\n")
    assert exc_info.value.line == 2
    assert "dirichlet" in str(exc_info.value)


def test_readme_configuration_example_parses():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert "\nbc = periodic" in example
    cfg = parse_config(example)
    assert cfg.grid.n == (32, 32)
    assert cfg.trace_path == "trace.csv"
    # the block names every key the parser knows, each in its own section
    blocks = dict(part.split("]\n", 1) for part in example.split("[")[1:])
    assert set(blocks) == set(_KEYS)
    for section, keys in _KEYS.items():
        for key in keys:
            assert re.search(rf"(^|\s){key} =", blocks[section], re.M), f"[{section}] {key}"


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("[grid]\nfoo = 1\n")
    assert exc_info.value.line == 2
    assert "foo" in str(exc_info.value)
    # a removed option is an unknown key, not a silently ignored one
    with pytest.raises(ConfigError, match="poisson_max_iter"):
        parse_config("[stepper]\npoisson_max_iter = 500\n")
    with pytest.raises(ConfigError, match="scheme") as exc_info:
        parse_config("[stepper]\ndt = 1e-3\nscheme = semi_implicit_theta\n")
    assert exc_info.value.line == 3
    with pytest.raises(ConfigError, match="poisson_tol") as exc_info:
        parse_config("[stepper]\ndt = 1e-3\npoisson_tol = 1e-10\n")
    assert exc_info.value.line == 3


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("[stepper]\ndt = 1e-3\ndt = 2e-3\n")
    assert exc_info.value.line == 3
    assert "duplicate" in str(exc_info.value)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("dt = 1e-3\n")
    assert exc_info.value.line == 1


def test_missing_equals_rejected():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("[grid]\njust some text\n")
    assert exc_info.value.line == 2


def test_invalid_material_names_inequality():
    text = "[material]\nmu1 = -1.0\n"
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    assert "mu1 > 0" in str(exc_info.value)
    cfg = parse_config(text, allow_invalid=True)
    assert cfg.params.mu1 == -1.0


@pytest.mark.parametrize("text, line", [
    ("[material]\nmu1 = -1.0\n", 2),
    ("[grid]\nn = 8\n[material]\nmu4 = 1\nepsilon = -1\n", 5),
    # the violated inequalities read lambda and mu5: the later of the two
    ("[material]\nlambda = 5\ngamma = 1\nmu5 = 1\n", 4),
    ("[material]\nmu5 = 0.5\nmu6 = 0.5\nlambda = 0.1\nmu2 = 5\n", 5),
])
def test_invalid_material_reports_the_line_of_the_keys_it_reads(text, line):
    with pytest.raises(ConfigError, match="material parameters violate") as exc_info:
        parse_config(text)
    assert exc_info.value.line == line


def test_invalid_material_without_its_keys_reports_the_section_header(monkeypatch):
    # the defaults are valid, so only a stand-in check can fail on keys the
    # file does not give
    monkeypatch.setattr(config, "violated_conditions", lambda p: [("mu1 > 0", ("mu1",))])
    with pytest.raises(ConfigError, match="mu1 > 0") as exc_info:
        parse_config("[grid]\nn = 8\n[material]\nforcing = zero\n")
    assert exc_info.value.line == 3


def test_explicit_elastic_entries():
    iso = ElasticTensor.isotropic(1.5)
    entries = " ".join(repr(float(x)) for x in iso.entries.ravel())
    cfg = parse_config(f"[material]\nelastic = explicit\nelastic_entries = {entries}\n")
    np.testing.assert_array_equal(cfg.elastic.entries, iso.entries)
    with pytest.raises(ConfigError):
        parse_config("[material]\nelastic = explicit\nelastic_entries = 1 2 3\n")


@pytest.mark.parametrize("value", ["0", "-1.5", "nan", "inf"])
def test_bad_isotropic_stiffness_reports_line(value):
    with pytest.raises(ConfigError, match="must be finite and positive") as exc_info:
        parse_config(f"[material]\nmu1 = 1.0\nelastic_k = {value}\n")
    assert exc_info.value.line == 3


def test_bad_explicit_entries_report_line():
    entries = " ".join(["nan"] + ["0"] * 80)
    for text in (f"elastic_entries = {entries}", "elastic_entries = 1 2 3"):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(f"[material]\nelastic = explicit\n{text}\n")
        assert exc_info.value.line == 3


#: The 81 entries of an isotropic tensor as an ``elastic_entries`` value.
ISO_ENTRIES = " ".join(repr(float(x)) for x in ElasticTensor.isotropic(1.5).entries.ravel())


@pytest.mark.parametrize("text, line", [
    ("[material]\nelastic_entries = 1 2 3\n", 2),  # isotropic, the default
    ("[material]\nelastic = isotropic\nmu1 = 1.0\nelastic_entries = 1 2 3\n", 4),
    (f"[material]\nelastic_k = 2.0\nelastic = explicit\nelastic_entries = {ISO_ENTRIES}\n", 2),
    ("[initial]\nkind = smooth_random\ndirector = 1 0 0\n", 3),
    ("[initial]\nkind = constant\nseed = 3\n", 3),
    ("[initial]\namplitude = 0.2\nkind = constant\n", 2),
    ("[initial]\nkind = constant\nv_amplitude = 0.2\n", 3),
], ids=["isotropic-default-entries", "isotropic-entries", "explicit-k", "smooth-random-director",
        "constant-seed", "constant-amplitude", "constant-v-amplitude"])
def test_key_the_selected_kind_does_not_use_reports_line(text, line):
    with pytest.raises(ConfigError, match="is not used with") as exc_info:
        parse_config(text)
    assert exc_info.value.line == line


def test_keys_the_random_kinds_use_parse():
    cfg = parse_config("[initial]\nkind = smooth_random\nseed = 3\namplitude = 0.2\nv_amplitude = 0.3\n")
    assert (cfg.initial.seed, cfg.initial.amplitude, cfg.initial.v_amplitude) == (3, 0.2, 0.3)
    cfg = parse_config("[initial]\nkind = perturbed\ndirector = 1 0 0\nseed = 3\namplitude = 0.2\n")
    assert (cfg.initial.director, cfg.initial.seed, cfg.initial.amplitude) == ((1.0, 0.0, 0.0), 3, 0.2)


@pytest.mark.parametrize("spec", ["bogus", "constant:1,2", "constant:nan,0,0", "sinusoidal:inf"])
def test_bad_forcing_reports_line(spec):
    with pytest.raises(ConfigError) as exc_info:
        parse_config(f"[material]\nforcing = {spec}\n")
    assert exc_info.value.line == 2


@pytest.mark.parametrize("line", [
    "amplitude = nan", "v_amplitude = inf", "director = 0 nan 1", "director = 0 0 -inf",
])
def test_nonfinite_initial_values_rejected(line):
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config(f"[initial]\n{line}\n")


@pytest.mark.parametrize("text", [
    "[grid]\nlength = inf\n", "[grid]\nlength = 1 nan\n",
    "[stepper]\ndt = nan\n", "[stepper]\nt_end = nan\n", "[stepper]\nt_end = inf\n",
    "[experiment]\ndelta = nan\n", "[experiment]\ngronwall_c = inf\n",
    "[experiment]\ntol_energy = nan\n", "[experiment]\ntol_step = -inf\n",
    "[material]\nepsilon = inf\n", "[material]\nmu1 = nan\n", "[stepper]\ntheta = nan\n",
    # each is refused by the object that takes it, not by the parser
    "[material]\nlambda = inf\n", "[material]\ngamma = nan\n", "[material]\nmu2 = -inf\n",
    "[material]\nmu3 = nan\n", "[material]\nmu4 = inf\n", "[material]\nmu5 = nan\n",
    "[material]\nmu6 = -inf\n", "[material]\nelastic_k = nan\n",
    f"[material]\nelastic_entries = {' '.join(['1'] * 80 + ['inf'])}\nelastic = explicit\n",
    "[grid]\nlength = nan 1\n", "[initial]\ndirector = 0 inf 1\n",
    "[initial]\namplitude = nan\n", "[initial]\nv_amplitude = -inf\n",
])
def test_nonfinite_values_report_line(text):
    with pytest.raises(ConfigError, match="must be finite") as exc_info:
        parse_config(text)
    assert exc_info.value.line == 2


def test_nonfinite_lambda_error_names_the_key_lambda():
    # ParameterSet calls it lam; the message read "material lam must be finite"
    with pytest.raises(ConfigError, match="material lambda must be finite, got inf") as exc_info:
        parse_config("[material]\nlambda = inf\n")
    assert exc_info.value.line == 2 and " lam " not in str(exc_info.value)


@pytest.mark.parametrize("text", [
    "[material]\nelastic = bogus\n", "[material]\nelastic = explicit\n",
    "[initial]\nkind = bogus\n", "[initial]\ndirector = 1 2\n",
    "[grid]\ndim = 4\n", "[grid]\nn = 3\n", "[grid]\nn = 8 8 8\n", "[grid]\nlength = -1\n",
    "[stepper]\ntheta = 0.7\n", "[stepper]\ndt = 0\n", "[stepper]\noutput_every = 0\n",
    "[grid]\nn = 8.5\n", "[grid]\nn = 8 8.5\n", "[stepper]\noutput_every = 2.5\n",
    # a count or seed that is not finite is refused as not whole
    "[grid]\nn = nan\n", "[stepper]\noutput_every = inf\n",
    "[initial]\nseed = nan\n", "[experiment]\nseed = inf\n",
])
def test_bad_value_reports_the_line_of_its_key(text):
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    assert exc_info.value.line == 2


@pytest.mark.parametrize("text", [
    "[experiment]\nseed = -3\n", "[experiment]\ntol_energy = -1\n",
    "[experiment]\ntol_step = -1e-12\n", "[experiment]\ngronwall_c = -0.5\n",
    "[experiment]\ndelta = -1e-3\n", "[initial]\nseed = -2\n",
])
def test_negative_seed_or_tolerance_reports_line(text):
    with pytest.raises(ConfigError, match="must be >= 0") as exc_info:
        parse_config(text)
    assert exc_info.value.line == 2


@pytest.mark.parametrize("cls, section", [(InitialSpec, "initial"), (ExperimentConfig, "experiment")])
@pytest.mark.parametrize("seed", [1.5, 2.5, math.inf, math.nan])
def test_fractional_seed_is_refused_naming_its_field(cls, section, seed):
    # refused when the dataclass is made, not by numpy's SeedSequence later
    with pytest.raises(ValueError, match=f"{section} seed must be >= 0 and whole"):
        cls(seed=seed)
    with pytest.raises(ConfigError, match=f"{section}.seed") as exc_info:
        parse_config(f"[{section}]\nseed = {seed}\n")
    assert exc_info.value.line == 2


@pytest.mark.parametrize("name", ["gronwall_c", "tol_energy", "tol_step", "delta"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_nonfinite_experiment_value_is_refused(name, value):
    # refused by the dataclass itself, as the config file's parser refuses them
    with pytest.raises(ValueError, match=f"experiment {name} must be finite"):
        ExperimentConfig(**{name: value})


def test_experiment_config_is_frozen_after_its_checks():
    # a field set after the checks have run would skip them
    with pytest.raises(dataclasses.FrozenInstanceError):
        ExperimentConfig().seed = -5


def test_integral_float_seed_is_taken_as_its_int():
    spec, experiment = InitialSpec(seed=3.0), ExperimentConfig(seed=7.0)
    assert type(spec.seed) is type(experiment.seed) is int
    assert spec == InitialSpec(seed=3) and experiment == ExperimentConfig(seed=7)
    grid = Grid.unit_box(8)
    assert (make_initial_state(grid, spec).d.values.tobytes()
            == make_initial_state(grid, InitialSpec(seed=3)).d.values.tobytes())


def test_integral_float_counts_and_seeds_are_taken_as_their_ints():
    # the config leaves the whole-number checks to Grid and the dataclasses,
    # which take 2.0 as 2 in a file as they do in code
    text = ("[grid]\nn = {n}\n[stepper]\nt_end = 0.01\noutput_every = {k}\n"
            "[initial]\nseed = {k}\n[experiment]\nseed = {k}\n")
    cfg = parse_config(text.format(n="8.0 6", k="2.0"))
    want = parse_config(text.format(n="8 6", k="2"))
    assert (cfg.grid, cfg.stepper, cfg.initial, cfg.experiment) == (
        want.grid, want.stepper, want.initial, want.experiment)
    assert cfg.grid.h == (0.125, 1.0 / 6.0)
    values = cfg.grid.n + (cfg.stepper.output_every, cfg.initial.seed, cfg.experiment.seed)
    assert values == (8, 6, 2, 2, 2) and all(type(x) is int for x in values)
    # an integer literal stays exact where a float conversion would round it,
    # and where it would overflow (10**400)
    assert float(12345678901234567891) != 12345678901234567891
    for seed in (12345678901234567891, 10**400):
        cfg = parse_config(f"[initial]\nseed = {seed}\n[experiment]\nseed = {seed}\n")
        assert cfg.initial.seed == seed == cfg.experiment.seed
        assert make_initial_state(Grid.unit_box(8), cfg.initial).d.values.shape == (3, 8, 8)


@pytest.mark.parametrize("t_end", ["0.0105", "0.0004", "-0.002"])
def test_t_end_off_the_step_grid_reports_the_stepper_line(t_end):
    with pytest.raises(ConfigError, match="whole number of steps") as exc_info:
        parse_config(f"[grid]\nn = 8\n[stepper]\ndt = 1e-3\nt_end = {t_end}\n")
    assert exc_info.value.line == 3


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[grid]\nn = 16\n")
    assert load_config(str(path)).grid.n == (16, 16)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def _make_state(seed=40):
    cfg = parse_config("[grid]\nn = 16\n[initial]\nkind = perturbed\nseed = %d\n" % seed)
    state = make_initial_state(cfg.grid, cfg.initial)
    state.t = 0.125
    state.p = ScalarField(cfg.grid, np.linspace(0.0, 1.0, 256).reshape(16, 16))
    return state


def test_snapshot_round_trip_bit_exact(tmp_path):
    state = _make_state()
    path = str(tmp_path / "s.snap")
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert back.t == state.t
    assert back.v.grid == state.v.grid
    np.testing.assert_array_equal(back.v.values, state.v.values)
    np.testing.assert_array_equal(back.d.values, state.d.values)
    np.testing.assert_array_equal(back.p.values, state.p.values)


def _snapshot_bytes(state):
    """The snapshot layout spelled out: magic, header, then v, d and p as
    little-endian float64 in node-major row-major order, the component-major
    vectors moved to node-major."""
    grid = state.v.grid
    header = (f"dim {grid.dim}\nn {' '.join(str(n) for n in grid.n)}\n"
              f"h {' '.join(repr(h) for h in grid.h)}\nbc periodic\ntime {state.t!r}\ndata\n")
    fields = (np.moveaxis(state.v.values, 0, -1), np.moveaxis(state.d.values, 0, -1), state.p.values)
    return MAGIC + header.encode("ascii") + b"".join(np.asarray(f, dtype="<f8").tobytes() for f in fields)


def test_snapshot_bytes_of_contiguous_and_member_view_states(tmp_path):
    # a contiguous state, and the samples of a run as simulate writes them:
    # member 0 of each sampled ensemble, whose v and d are contiguous views
    # of the ensemble's arrays
    state = _make_state()
    path = tmp_path / "s.snap"
    write_snapshot(state, str(path))
    assert path.read_bytes() == _snapshot_bytes(state)
    written = []

    def each_step(sample, terms, sampled):
        if sampled:
            member = sample.member(0)
            assert np.shares_memory(member.v.values, sample.v) and np.shares_memory(member.d.values, sample.d)
            write_snapshot(member, str(path))
            written.append(path.read_bytes() == _snapshot_bytes(member))

    run(state, StepperConfig(dt=1e-3, t_end=0.128, output_every=2), PARODI_DEMO, TENSOR, each_step=each_step)
    assert written == [True, True, True]


#: SHA-256 of the snapshot of :func:`_pinned_state`, as written before the
#: fields were component-major in memory: the file format did not change.
PINNED_SNAPSHOT_SHA256 = "cda5c29ffad025086c028d91a5ab96b6ba9b05a08f01c47273d8138e40cb34ae"


def _pinned_state():
    """A state on a 3D grid of three cell counts whose every entry tells its
    component and node apart: v_i(a, b, c) = (i + 4a + 32b + 256c) / 8."""
    grid = Grid(n=(5, 4, 6), h=(0.2, 0.2, 0.2))
    i, a, b, c = np.indices((3,) + grid.shape)
    v = (i + 4 * a + 32 * b + 256 * c) / 8.0
    p = (a - b * c / 2.0)[0]
    return State(0.375, VectorField(grid, v), VectorField(grid, 0.5 - v / 4.0), ScalarField(grid, p))


def test_snapshot_format_is_pinned(tmp_path):
    state = _pinned_state()
    path = tmp_path / "s.snap"
    write_snapshot(state, str(path))
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_SNAPSHOT_SHA256
    # the payload is node-major: its entry (a, b, c, i) is v_i at node (a, b, c)
    payload = np.frombuffer(data[data.index(b"data\n") + 5:], dtype="<f8")
    assert payload[:4].tolist() == [0.0, 0.125, 0.25, 32.0]
    back = read_snapshot(str(path))
    assert back.t == state.t and back.v.grid == state.v.grid
    for got, want in ((back.v, state.v), (back.d, state.d), (back.p, state.p)):
        assert got.values.flags.c_contiguous and got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("line, bad", [
    (b"\nn 16 16\n", b"\nn 2 2\n"),
    (b"\nh 0.0625 0.0625\n", b"\nh nan 0.0625\n"),
    (b"\ntime 0.125\n", b"\ntime nan\n"),
], ids=["n", "h", "time"])
def test_snapshot_bad_header_value_is_a_snapshot_error(tmp_path, line, bad):
    path = tmp_path / "s.snap"
    write_snapshot(_make_state(), str(path))
    data = path.read_bytes()
    assert data.count(line) == 1
    path.write_bytes(data.replace(line, bad))
    with pytest.raises(SnapshotError, match=re.escape(str(path))):
        read_snapshot(str(path))


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_snapshot_refuses_a_nonfinite_time(tmp_path, t):
    state = _make_state()
    state.t = t
    path = tmp_path / "s.snap"
    with pytest.raises(SnapshotError, match=re.escape(str(path))):
        write_snapshot(state, str(path))
    assert not path.exists()


def test_snapshot_wrong_magic(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(SnapshotError):
        read_snapshot(str(path))


def test_snapshot_rejects_non_periodic_grid(tmp_path):
    path = tmp_path / "s.snap"
    write_snapshot(_make_state(), str(path))
    data = path.read_bytes()
    assert data.count(b"\nbc periodic\n") == 1
    path.write_bytes(data.replace(b"\nbc periodic\n", b"\nbc dirichlet\n"))
    with pytest.raises(SnapshotError, match="dirichlet"):
        read_snapshot(str(path))


def test_snapshot_truncated(tmp_path):
    state = _make_state()
    path = tmp_path / "s.snap"
    write_snapshot(state, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotError):
        read_snapshot(str(path))


def test_snapshot_rejects_nonfinite(tmp_path):
    state = _make_state()
    state.v.values[0, 0, 0] = np.nan
    with pytest.raises(SnapshotError):
        write_snapshot(state, str(tmp_path / "s.snap"))


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(41)
    n = 7
    trace = EnergyTrace(
        t=np.linspace(0.0, 1.0, n),
        kinetic=rng.random(n), elastic=rng.random(n), penalty=rng.random(n),
        total=rng.random(n), diss_mu1=rng.random(n), diss_mu4=rng.random(n),
        diss_dir=rng.random(n), diss_q=rng.random(n),
        cross_term=rng.random(n), g_power=rng.random(n))
    residual = rng.random(n)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, energy=trace, residual=residual)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back["t"], trace.t)
    np.testing.assert_array_equal(back["kinetic"], trace.kinetic)
    np.testing.assert_array_equal(back["cross_term"], trace.cross_term)
    np.testing.assert_array_equal(back["g_power"], trace.g_power)
    np.testing.assert_array_equal(back["residual_energy"], residual)
    np.testing.assert_array_equal(back["E"], np.zeros(n))



def test_trace_csv_bytes_equal_per_element_numpy_formatting(tmp_path):
    # each column goes out as Python floats; the bytes must be those of the
    # numpy scalars formatted one at a time, the edge values included
    edges = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0]
    n = len(edges)
    rng = np.random.default_rng(42)
    names = [f.name for f in dataclasses.fields(EnergyTrace)]
    columns = {name: rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n) for name in names}
    columns["kinetic"] = np.array(edges)
    residual = np.array(edges[::-1])
    relative = RelativeTrace(*(rng.normal(size=n) for _ in range(5)))
    for energy, rel, res in ((EnergyTrace(**columns), None, residual), (None, relative, None)):
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), energy=energy, relative=rel, residual=res)
        cols = dict.fromkeys(TRACE_COLUMNS, np.zeros(n))
        for trace in (energy, rel):
            if trace is not None:
                cols.update((f.name, getattr(trace, f.name)) for f in dataclasses.fields(trace))
        if res is not None:
            cols["residual_energy"] = res
        rows = [",".join(f"{np.float64(cols[name][i]):.17g}" for name in TRACE_COLUMNS) for i in range(n)]
        assert path.read_bytes() == ("\n".join([",".join(TRACE_COLUMNS)] + rows) + "\n").encode("ascii")

def test_trace_csv_refuses_traces_of_different_lengths(tmp_path):
    # the error gives each length, and no file is written
    energy = EnergyTrace(*(np.zeros(3) for _ in dataclasses.fields(EnergyTrace)))
    relative = RelativeTrace(*(np.zeros(2) for _ in dataclasses.fields(RelativeTrace)))
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="^traces of different lengths: energy 3, relative 2$"):
        write_trace_csv(str(path), energy=energy, relative=relative)
    with pytest.raises(ValueError, match="^traces of different lengths: relative 2, residual 3$"):
        write_trace_csv(str(path), relative=relative, residual=np.zeros(3))
    assert list(tmp_path.iterdir()) == []


def test_forcing_is_built_on_the_config_grid():
    cfg = parse_config("[grid]\nn = 8 16\n[material]\nforcing = constant:1,0,0\n")
    forcing = cfg.forcing()
    assert forcing.grid == cfg.grid
    np.testing.assert_array_equal(forcing.values, VectorField.constant(cfg.grid, (1, 0, 0)).values)


def test_forced_run_residual_recomputes_from_trace_csv(tmp_path):
    # the CSV holds every term of energy_inequality_residual, the forcing
    # power (g, v) included, so the residual column can be checked from it
    cfg = parse_config(
        "[grid]\nn = 16\n[material]\nforcing = sinusoidal:0.5\n"
        "[stepper]\ndt = 1e-3\nt_end = 0.02\noutput_every = 2\n[initial]\nseed = 5\n"
    )
    traj = run(make_initial_state(cfg.grid, cfg.initial), cfg.stepper, cfg.params,
               cfg.elastic, forcing=cfg.forcing())
    residual = energy_inequality_residual(traj.trace, cfg.params)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, energy=traj.trace, residual=residual)
    back = read_trace_csv(path)
    assert np.max(np.abs(back["g_power"])) > 1e-3
    again = EnergyTrace(**{f.name: back[f.name] for f in dataclasses.fields(EnergyTrace)})
    np.testing.assert_array_equal(
        energy_inequality_residual(again, cfg.params), back["residual_energy"]
    )


def test_trace_columns_are_pinned():
    # derived from the trace dataclasses; a renamed or added field shows here
    assert TRACE_COLUMNS == (
        "t", "kinetic", "elastic", "penalty", "total",
        "diss_mu1", "diss_mu4", "diss_dir", "diss_q", "cross_term", "g_power",
        "E", "W", "K", "bound", "residual_energy",
    )


def test_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SnapshotError):
        read_trace_csv(str(path))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_identical_configs_give_bitwise_identical_runs():
    text = "[grid]\nn = 16\n[stepper]\ndt = 1e-3\nt_end = 0.02\n[initial]\nseed = 3\n"

    def trajectory():
        cfg = parse_config(text)
        initial = make_initial_state(cfg.grid, cfg.initial)
        return run(initial, cfg.stepper, cfg.params, cfg.elastic)

    a, b = trajectory(), trajectory()
    np.testing.assert_array_equal(a.states[-1].v.values, b.states[-1].v.values)
    np.testing.assert_array_equal(a.states[-1].d.values, b.states[-1].d.values)
    np.testing.assert_array_equal(a.trace.total, b.trace.total)
