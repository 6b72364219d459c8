"""Config validation: bad values are config errors (CLI exit 2)."""

import json

import pytest

from nlslab import cli
from nlslab.config import load_config


def _write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config key 'scattering.kmax'"):
        load_config(_write(tmp_path, {"scattering": {"kmax": 8.0}}))


@pytest.mark.parametrize("block, match", [
    ({"scan_couplings": [0.0, 0.7]}, "scattering.scan_couplings"),
    ({"k_max": -1.0}, "scattering.k_max"),
    ({"k_max": 0.0}, "scattering.k_max"),
    ({"scan_couplings": [0.2, 0.3]}, "scattering.scan_couplings"),
])
def test_bad_scattering_values_rejected(tmp_path, block, match):
    with pytest.raises(ValueError, match=match):
        load_config(_write(tmp_path, {"scattering": block}))


def test_cli_exits_2_on_bad_scan_coupling(tmp_path, capsys):
    path = _write(tmp_path, {"scattering": {"scan_couplings": [0.0, 0.7]}})
    code = cli.main(["resonance", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    {"N": 3000, "coarse_points": 400},     # not a divisor of N
    {"coarse_points": 767},                # odd
    {"N": 3072, "coarse_points": 8},       # below 16
])
def test_bad_coarse_points_rejected(tmp_path, grid):
    with pytest.raises(ValueError, match="grid.coarse_points"):
        load_config(_write(tmp_path, {"grid": grid}))


def test_cli_exits_2_on_bad_coarse_points(tmp_path, capsys):
    path = _write(tmp_path, {"grid": {"N": 3000, "coarse_points": 400}})
    code = cli.main(["spectrum", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("payload, match", [
    ({"dynamics": {"L": -5.0}}, "dynamics: half width must be positive"),
    ({"dynamics": {"L": 0.0}}, "dynamics: half width must be positive"),
    ({"dynamics": {"N": 8}}, "dynamics: point count must be at least 16"),
    ({"dynamics": {"dt": 0.0}}, "dynamics.dt: must be positive"),
    ({"dynamics": {"dt": -0.004}}, "dynamics.dt: must be positive"),
    ({"dynamics": {"dt": 0.02}}, "dynamics.dt: must be positive and at most 0.01"),
    ({"grid": {"L": -1.0}}, "grid: half width must be positive"),
    # the oracle box must share grid's spacing (L = 60, N = 3072) and contain it
    ({"propagator": {"oracle_L": 160.0, "oracle_N": 4096}}, "oracle_N: need grid's spacing"),
    ({"propagator": {"oracle_L": 30.0, "oracle_N": 1536}}, "oracle_N: need grid's spacing"),
    ({"propagator": {"oracle_N": 8191}}, "propagator.oracle_L, oracle_N: odd point count"),
    ({"propagator": {"oracle_dt": 0.0}}, "propagator.oracle_dt"),
    ({"propagator": {"oracle_dt": -5e-4}}, "propagator.oracle_dt"),
])
def test_bad_grids_and_oracle_rejected(tmp_path, payload, match):
    with pytest.raises(ValueError, match=match):
        load_config(_write(tmp_path, payload))


def test_oracle_box_with_grid_spacing_accepted(tmp_path):
    cfg = load_config(_write(tmp_path, {"propagator": {"oracle_L": 60.0, "oracle_N": 3072}}))
    assert cfg.block("propagator")["oracle_N"] == 3072


def test_cli_exits_2_on_bad_dynamics_box(tmp_path, capsys):
    path = _write(tmp_path, {"dynamics": {"L": -5.0}})
    code = cli.main(["evolve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: dynamics: half width must be positive" in capsys.readouterr().err
