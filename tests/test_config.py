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
