import warnings

import numpy as np
import pytest

from leslie_sim import dynamics, experiments
from leslie_sim.cli import main
from leslie_sim.config import load_config
from leslie_sim.experiments import ConvergenceReport
from leslie_sim.initial import make_initial_state
from leslie_sim.snapshot import read_snapshot, read_trace_csv, write_snapshot

GOOD = """
[grid]
n = 16
[stepper]
dt = 1e-3
t_end = 0.01
[initial]
kind = perturbed
seed = 2
"""

#: Blows up at step 4, after the samples at steps 0 and 3.
BLOWUP = """
[grid]
n = 16
[stepper]
dt = 0.4
t_end = 40
output_every = 3
[initial]
kind = perturbed
seed = 2
amplitude = 2.0
v_amplitude = 0.0
"""

#: Goes non-finite at step 5: at theta = 0 this dt is far above the
#: stability bound.
UNSTABLE = """
[grid]
n = 16
[stepper]
dt = 0.05
t_end = 2.0
theta = 0.0
"""

BAD_MU = """
[material]
mu1 = -1.0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_good_config(tmp_path, capsys):
    assert main(["validate", "--config", _write(tmp_path, "good.cfg", GOOD)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_bad_material(tmp_path, capsys):
    assert main(["validate", "--config", _write(tmp_path, "bad.cfg", BAD_MU)]) == 2
    assert "mu1 > 0" in capsys.readouterr().out


def test_simulate_with_invalid_material_is_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", _write(tmp_path, "bad.cfg", BAD_MU)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and "mu1 > 0" in err


def test_missing_config_is_usage_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_malformed_config_is_usage_error(tmp_path):
    path = _write(tmp_path, "broken.cfg", "[grid]\nfoo = 1\n")
    assert main(["simulate", "--config", path]) == 2


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_non_periodic_grid_is_config_error(tmp_path, capsys, command):
    path = _write(tmp_path, "dirichlet.cfg", "[grid]\nbc = dirichlet\n")
    assert main([command, "--config", path]) == 2
    assert "config error: line 2: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("text", [
    "[material]\nelastic_k = 0\n",
    "[material]\nelastic_k = nan\n",
    "[material]\nforcing = bogus\n",
    "[initial]\namplitude = nan\n",
])
def test_bad_material_or_initial_value_is_config_error(tmp_path, capsys, command, text):
    path = _write(tmp_path, "bad-value.cfg", text)
    assert main([command, "--config", path]) == 2
    out = capsys.readouterr()
    assert "config error: " in out.err and "OK" not in out.out


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("text", [
    "[grid]\nlength = inf\n",
    "[stepper]\ndt = nan\n",
    "[stepper]\nt_end = nan\n",
    "[experiment]\ndelta = nan\n",
])
def test_nonfinite_grid_stepper_or_experiment_value_is_config_error(tmp_path, capsys, command, text):
    path = _write(tmp_path, "nonfinite.cfg", text)
    assert main([command, "--config", path]) == 2
    out = capsys.readouterr()
    assert "config error: line 2: " in out.err and "must be finite" in out.err
    assert "OK" not in out.out


def test_bad_usage_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_simulate_writes_trace_and_snapshots(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", GOOD)
    trace = str(tmp_path / "trace.csv")
    snaps = tmp_path / "snaps"
    code = main(["simulate", "--config", cfg, "--trace", trace,
                 "--snapshots", str(snaps)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    data = read_trace_csv(trace)
    assert data["t"][-1] > 0.0
    assert np.all(np.isfinite(data["total"]))
    snap_files = sorted(snaps.glob("state_*.snap"))
    assert len(snap_files) == len(data["t"])
    state = read_snapshot(str(snap_files[-1]))
    assert state.t == data["t"][-1]


def test_simulate_snapshots_equal_those_of_the_retained_run(tmp_path):
    # the snapshots are written as the run samples them, byte for byte the
    # files of the states a run without an observer keeps
    cfg_path = _write(tmp_path, "run.cfg", GOOD.replace("t_end = 0.01", "t_end = 0.005"))
    snaps = tmp_path / "snaps"
    assert main(["simulate", "--config", cfg_path, "--snapshots", str(snaps)]) == 0
    cfg = load_config(cfg_path)
    traj = dynamics.run(make_initial_state(cfg.grid, cfg.initial), cfg.stepper, cfg.params,
                        cfg.elastic, forcing=cfg.forcing())
    files = sorted(snaps.glob("state_*.snap"))
    assert len(files) == len(traj.states) == 6
    for i, (path, state) in enumerate(zip(files, traj.states)):
        assert path.name == f"state_{i:05d}.snap"
        write_snapshot(state, str(tmp_path / "expected.snap"))
        assert path.read_bytes() == (tmp_path / "expected.snap").read_bytes()


def test_simulate_keeps_no_states(tmp_path, monkeypatch, capsys):
    runs = []
    original = dynamics.run

    def spy(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(dynamics, "run", spy)
    assert main(["simulate", "--config", _write(tmp_path, "run.cfg", GOOD)]) == 0
    assert "PASS: simulated to t = 0.01," in capsys.readouterr().out
    assert len(runs) == 1 and runs[0].states == [] and len(runs[0].trace.t) == 11


def test_simulate_blowup_keeps_the_snapshots_taken_and_the_last_valid_state(tmp_path, capsys):
    snaps = tmp_path / "snaps"
    with pytest.warns(RuntimeWarning), np.errstate(all="ignore"):
        code = main(["simulate", "--config", _write(tmp_path, "blow.cfg", BLOWUP),
                     "--snapshots", str(snaps)])
    assert code == 1
    err = capsys.readouterr().err
    assert "FAIL: non-finite values at step 4" in err and "last_valid.snap" in err
    assert sorted(p.name for p in snaps.iterdir()) == [
        "last_valid.snap", "state_00000.snap", "state_00001.snap"]
    assert (snaps / "last_valid.snap").read_bytes() == (snaps / "state_00001.snap").read_bytes()
    assert read_snapshot(str(snaps / "last_valid.snap")).t == pytest.approx(1.2)


def test_energy_check_passes(tmp_path, capsys):
    text = GOOD.replace("dt = 1e-3", "dt = 5e-4").replace("t_end = 0.01", "t_end = 0.05")
    cfg = _write(tmp_path, "run.cfg", text)
    assert main(["energy-check", "--config", cfg]) == 0
    assert "PASS" in capsys.readouterr().out


def test_ibp_check_passes(capsys):
    assert main(["ibp-check", "--n", "16", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "residual" in out


def test_converge_passes(capsys, monkeypatch, time_study):
    # four step sizes give three differences, one "level" line each
    modes = []

    def study(mode):
        modes.append(mode)
        return time_study[0]

    monkeypatch.setattr(experiments, "convergence_study", study)
    assert main(["converge", "--mode", "time"]) == 0
    assert modes == ["time"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("level")] == [
        "level 0.0005 vs 0.00025", "level 0.00025 vs 0.000125", "level 0.000125 vs 6.25e-05"]
    assert lines[-1].startswith("PASS")


def test_converge_labels_each_error_with_both_levels(capsys, monkeypatch):
    # an error compares two solutions; the finest level is named too
    report = ConvergenceReport(mode="space", levels=[32, 64, 128], errors=[4e-3, 1e-3], orders=[2.0])
    monkeypatch.setattr(experiments, "convergence_study", lambda mode: report)
    assert main(["converge", "--mode", "space"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["level 32 vs 64: error 4.000000e-03", "level 64 vs 128: error 1.000000e-03"]


def test_compare_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", GOOD + "[experiment]\ndelta = 1e-3\n")
    trace = str(tmp_path / "rel.csv")
    assert main(["compare", "--config", cfg, "--trace", trace]) == 0
    assert "PASS" in capsys.readouterr().out
    data = read_trace_csv(trace)
    assert np.all(np.isfinite(data["E"]))


def test_compare_delta_and_seed_flags(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", GOOD)
    assert main(["compare", "--config", cfg, "--delta", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS: delta = 0,") and "max E = 0," in out

    def max_E(seed):
        assert main(["compare", "--config", cfg, "--delta", "1e-2", "--seed", seed]) == 0
        return capsys.readouterr().out.split("max E = ")[1].split(",")[0]

    assert max_E("3") != max_E("4")


@pytest.mark.parametrize("argv", [["compare", "--seed", "-3"], ["ibp-check", "--seed", "-1"]])
def test_negative_seed_flag_is_usage_error(tmp_path, capsys, argv):
    if argv[0] == "compare":
        argv += ["--config", _write(tmp_path, "run.cfg", GOOD)]
    assert main(argv) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("compare", "[experiment]\nseed = -3\n"),
    ("simulate", "[initial]\nseed = -2\n"),
    ("energy-check", "[experiment]\ntol_energy = -1\n"),
])
def test_negative_seed_or_tolerance_is_config_error(tmp_path, capsys, command, text):
    assert main([command, "--config", _write(tmp_path, "neg.cfg", text)]) == 2
    out = capsys.readouterr()
    assert "config error: line 2: " in out.err and "must be >= 0" in out.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "energy-check", "compare"])
def test_run_failure_is_a_fail_line(tmp_path, capsys, command):
    with np.errstate(all="ignore"):
        code = main([command, "--config", _write(tmp_path, "unstable.cfg", UNSTABLE)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: non-finite values") and "at step 5 (t = 0.25)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "energy-check", "compare"])
def test_run_failure_raises_no_floating_point_warnings(tmp_path, capsys, command):
    # the blow-up is reported by the run's finiteness check alone; the CFL
    # warning, which says why the run failed, stays
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", _write(tmp_path, "unstable.cfg", UNSTABLE)]) == 1
    messages = [str(w.message) for w in caught]
    assert [m for m in messages if "encountered in" in m] == []
    assert len(messages) == 1 and messages[0].startswith("advective CFL number")
    assert capsys.readouterr().err.startswith("FAIL: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compare_failure_names_the_reference_run(tmp_path, capsys):
    # member 0 of the campaign's ensemble is the reference run
    assert main(["compare", "--config", _write(tmp_path, "unstable.cfg", UNSTABLE)]) == 1
    assert capsys.readouterr().err == "FAIL: non-finite values of the reference run at step 5 (t = 0.25)\n"


@pytest.mark.parametrize("command", ["simulate", "energy-check", "compare"])
def test_projection_failure_is_a_fail_line(tmp_path, capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        raise dynamics.ProjectionError("projection residual 1.000e-03 exceeds target 1.000e-10")

    monkeypatch.setattr(dynamics.Stepper, "step", fail)
    assert main([command, "--config", _write(tmp_path, "run.cfg", GOOD)]) == 1
    assert capsys.readouterr().err == "FAIL: projection residual 1.000e-03 exceeds target 1.000e-10\n"


@pytest.mark.parametrize("argv, message", [
    (["compare", "--delta", "nan"], "delta must be finite and >= 0"),
    (["compare", "--delta", "inf"], "delta must be finite and >= 0"),
    (["compare", "--delta", "-0.01"], "delta must be finite and >= 0"),
    (["ibp-check", "--n", "3"], "n must be >= 4"),
    (["ibp-check", "--n", "0"], "n must be >= 4"),
])
def test_bad_delta_or_n_flag_is_usage_error(tmp_path, capsys, argv, message):
    # checked as the config value the flag overrides is
    if argv[0] == "compare":
        argv += ["--config", _write(tmp_path, "run.cfg", GOOD)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
