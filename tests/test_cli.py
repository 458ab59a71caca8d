import dataclasses
import re
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


def _no_step(*args, **kwargs):
    raise AssertionError("a step was taken")


@pytest.mark.parametrize("command", ["simulate", "energy-check", "compare"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_trace_in_a_missing_directory_is_refused_before_any_step(tmp_path, monkeypatch, capsys,
                                                                 command, source):
    # the run used to finish first and then die writing the CSV, with a
    # traceback and exit 1; now it is one line, exit 2, and nothing written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(dynamics.Stepper, "step", _no_step)
    if source == "flag":
        argv = ["--config", _write(tmp_path, "run.cfg", GOOD), "--trace", "nodir/x.csv"]
        prefix = "usage error: --trace: "
    else:
        argv = ["--config", _write(tmp_path, "run.cfg", GOOD + "[output]\ntrace = nodir/x.csv\n")]
        prefix = "config error: line 11: bad value for output.trace: "
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix + "nodir/x.csv: no directory ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_snapshots_at_a_file_are_refused_before_any_step(tmp_path, monkeypatch, capsys, source):
    # makedirs used to die on the file with FileExistsError and exit 1
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(dynamics.Stepper, "step", _no_step)
    (tmp_path / "afile").write_text("")
    if source == "flag":
        argv = ["--config", _write(tmp_path, "run.cfg", GOOD), "--snapshots", "afile"]
        prefix = "usage error: --snapshots: "
    else:
        argv = ["--config", _write(tmp_path, "run.cfg", GOOD + "[output]\nsnapshots = afile\n")]
        prefix = "config error: line 11: bad value for output.snapshots: "
    assert main(["simulate", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix + "afile: ") and err.endswith(" is not a directory\n")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]
    assert (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "--trace", ""], ["simulate", "--snapshots", ""],
    ["energy-check", "--trace", ""], ["compare", "--trace", ""],
])
def test_empty_output_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # an empty flag used to be ignored: the run passed and wrote nothing
    monkeypatch.setattr(dynamics.Stepper, "step", _no_step)
    assert main([*argv, "--config", _write(tmp_path, "run.cfg", GOOD)]) == 2
    assert capsys.readouterr().err == f"usage error: {argv[1]}: empty path\n"


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_empty_output_value_is_a_config_error(tmp_path, capsys, command):
    assert main([command, "--config", _write(tmp_path, "run.cfg", GOOD + "[output]\ntrace =\n")]) == 2
    assert capsys.readouterr().err == "config error: line 11: bad value for output.trace: empty path\n"


def test_simulate_makes_a_missing_snapshot_directory(tmp_path, capsys):
    snaps = tmp_path / "new" / "deep"
    assert main(["simulate", "--config", _write(tmp_path, "run.cfg", GOOD), "--snapshots", str(snaps)]) == 0
    assert sorted(snaps.glob("state_*.snap"))


def test_simulate_snapshots_equal_those_of_the_retained_run(tmp_path):
    # the snapshots are written as the run samples them, byte for byte the
    # files of the states a run without a hook keeps
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


def test_simulate_trace_rows_do_not_depend_on_output_every(tmp_path, capsys):
    # the residual integrates the dissipation over every step: the trace at
    # output_every = 4 is the every-step trace's rows at steps 0, 4, ..., 40,
    # byte for byte, and so are its snapshots.  Integrating over the samples
    # alone read a largest residual of 1.3e-2 at output_every = 4 against 0.0
    # over every step
    text = "[grid]\nn = 16\n[stepper]\nt_end = 0.02\n"
    for name, extra in (("every", ""), ("sparse", "output_every = 4\n")):
        assert main(["simulate", "--config", _write(tmp_path, f"{name}.cfg", text + extra),
                     "--trace", str(tmp_path / f"{name}.csv"), "--snapshots", str(tmp_path / name)]) == 0
    header, *rows = (tmp_path / "every.csv").read_bytes().splitlines(keepends=True)
    assert len(rows) == 41
    assert (tmp_path / "sparse.csv").read_bytes() == header + b"".join(rows[::4])
    assert read_trace_csv(str(tmp_path / "sparse.csv"))["residual_energy"].max() <= 0.0
    every, sparse = (sorted((tmp_path / name).iterdir()) for name in ("every", "sparse"))
    assert [p.read_bytes() for p in sparse] == [p.read_bytes() for p in every[::4]]


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


def test_energy_check_trace_is_the_report_trace(tmp_path, capsys):
    # 10 steps, every 4th sampled and the last: the rows of steps 0, 4, 8, 10
    text = GOOD.replace("dt = 1e-3", "dt = 5e-4").replace("t_end = 0.01", "t_end = 5e-3\noutput_every = 4")
    cfg, trace = _write(tmp_path, "run.cfg", text), str(tmp_path / "energy.csv")
    assert main(["energy-check", "--config", cfg, "--trace", trace]) == 0
    assert "PASS" in capsys.readouterr().out
    run = load_config(cfg)
    report = experiments.energy_monitor(
        run.grid, run.params, run.elastic, run.stepper, make_initial_state(run.grid, run.initial))
    data = read_trace_csv(trace)
    np.testing.assert_allclose(data["t"], [0.0, 2e-3, 4e-3, 5e-3], rtol=1e-12)
    for f in dataclasses.fields(report.trace):
        np.testing.assert_array_equal(data[f.name], getattr(report.trace, f.name))
    np.testing.assert_array_equal(data["residual_energy"], report.residual)


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


@pytest.mark.parametrize("flag, config", [("2.0", "2"), ("12345678901234567891", "12345678901234567891")])
def test_compare_seed_flag_is_read_as_the_config_value(tmp_path, capsys, flag, config):
    # an integral float seeds as its int, and a 20-digit seed stays exact
    def verdict(argv):
        assert main(["compare", "--delta", "1e-2"] + argv) == 0
        return capsys.readouterr().out

    cfg = _write(tmp_path, "run.cfg", GOOD)
    seeded = _write(tmp_path, "seeded.cfg", GOOD + f"[experiment]\nseed = {config}\n")
    assert verdict(["--config", cfg, "--seed", flag]) == verdict(["--config", seeded])


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
def test_initial_state_whose_energy_overflows_is_a_fail_line(tmp_path, capsys, command):
    # a finite director of amplitude 1e200 has an infinite penalty energy:
    # the run refuses it before the first step, and the refusal is one FAIL
    # line, not a traceback
    text = "[grid]\nn = 8\n[initial]\nkind = perturbed\namplitude = 1e200\n[stepper]\nt_end = 0.002\n"
    assert main([command, "--config", _write(tmp_path, "huge.cfg", text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: non-finite initial state or energy") and err.endswith("at step 0 (t = 0)\n")
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


@pytest.mark.parametrize("text, flags, run", [
    ("[grid]\nn = 8\n[initial]\nkind = perturbed\namplitude = 1e200\n[stepper]\nt_end = 0.002\n", [],
     "the reference run"),
    (GOOD, ["--delta", "1e300"], "the perturbed run with delta = 1e+300"),
], ids=["amplitude", "delta"])
def test_compare_refusal_of_an_initial_state_names_the_run(tmp_path, capsys, text, flags, run):
    # the refusal before the first step names the run as a blow-up does,
    # not its index in the ensemble
    assert main(["compare", "--config", _write(tmp_path, "huge.cfg", text), *flags]) == 1
    assert capsys.readouterr().err == f"FAIL: non-finite initial state or energy of {run} at step 0 (t = 0)\n"


def test_compare_cfl_warning_names_no_ensemble_member(tmp_path, capsys):
    # compare runs the reference and the perturbed run as one ensemble; its
    # warning reads as that of a lone run, and the FAIL line names the run
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["compare", "--config", _write(tmp_path, "unstable.cfg", UNSTABLE)]) == 1
    [message] = [str(w.message) for w in caught]
    assert re.fullmatch(r"advective CFL number \d+\.\d\d exceeds 0\.5", message), message
    assert capsys.readouterr().err.startswith("FAIL: non-finite values of the reference run")


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
    (["compare", "--delta", "-0.01"], "delta must be >= 0"),
    (["ibp-check", "--n", "3"], "n must be >= 4"),
    (["ibp-check", "--n", "0"], "n must be >= 4"),
])
def test_bad_delta_or_n_flag_is_usage_error(tmp_path, capsys, argv, message):
    # checked as the config value the flag overrides is
    if argv[0] == "compare":
        argv += ["--config", _write(tmp_path, "run.cfg", GOOD)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_ibp_check_flags_are_read_as_the_config_reads_numbers(capsys):
    # an integral float is its int, as `[grid] n = 8.0` is in a config file
    assert main(["ibp-check", "--n", "8.0", "--seed", "2.0"]) == 0
    floats = capsys.readouterr().out
    assert main(["ibp-check", "--n", "8", "--seed", "2"]) == 0
    assert floats == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["compare", "--seed", "abc"], ["ibp-check", "--n", "abc"], ["ibp-check", "--seed", "x"],
])
def test_unreadable_flag_is_a_usage_error_naming_no_private_converter(tmp_path, capsys, argv):
    if argv[0] == "compare":
        argv += ["--config", _write(tmp_path, "run.cfg", GOOD)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}" in err and "invalid _" not in err
