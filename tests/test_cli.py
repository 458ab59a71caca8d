import numpy as np
import pytest

from leslie_sim.cli import main
from leslie_sim.snapshot import read_snapshot, read_trace_csv

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


def test_compare_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", GOOD + "[experiment]\ndelta = 1e-3\n")
    trace = str(tmp_path / "rel.csv")
    assert main(["compare", "--config", cfg, "--trace", trace]) == 0
    assert "PASS" in capsys.readouterr().out
    data = read_trace_csv(trace)
    assert np.all(np.isfinite(data["E"]))
