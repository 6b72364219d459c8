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
    ({"scan_couplings": [0.0, 1.5]}, "scattering.scan_couplings"),
    ({"k_max": -1.0}, "scattering.k_max"),
    ({"k_max": 0.0}, "scattering.k_max"),
    ({"scan_couplings": [0.2, 0.3]}, "scattering.scan_couplings"),
])
def test_bad_scattering_values_rejected(tmp_path, block, match):
    with pytest.raises(ValueError, match=match):
        load_config(_write(tmp_path, {"scattering": block}))


def test_cli_exits_2_on_bad_scan_coupling(tmp_path, capsys):
    path = _write(tmp_path, {"scattering": {"scan_couplings": [0.0, 1.5]}})
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
    # the oracle box has grid's spacing (L = 60, N = 3072, dx = 0.0390625),
    # so 2 oracle_L / dx points, an even count, and contains the grid
    ({"propagator": {"oracle_L": 160.01}}, "the oracle box's point count"),
    ({"propagator": {"oracle_L": 30.0}}, "oracle_L: must be at least grid.L"),
    ({"propagator": {"oracle_L": 8191 * 0.0390625 / 2}}, "must be an even integer"),
    ({"propagator": {"oracle_dt": 0.0}}, "propagator.oracle_dt"),
    ({"propagator": {"oracle_dt": -5e-4}}, "propagator.oracle_dt"),
])
def test_bad_grids_and_oracle_rejected(tmp_path, payload, match):
    with pytest.raises(ValueError, match=match):
        load_config(_write(tmp_path, payload))


def test_oracle_box_with_grid_spacing_accepted(tmp_path):
    cfg = load_config(_write(tmp_path, {"propagator": {"oracle_L": 60.0}}))
    assert cfg.oracle_grid() == cfg.grid()
    assert load_config().oracle_grid().N == 8192
    # the point count follows from oracle_L and grid's spacing
    with pytest.raises(ValueError, match="unknown config key 'propagator.oracle_N'"):
        load_config(_write(tmp_path, {"propagator": {"oracle_N": 8192}}))


@pytest.mark.parametrize("dynamics, match", [
    ({"T": -1.0}, "dynamics.T: must be positive"),
    ({"T": 0.0}, "dynamics.T: must be positive"),
    ({"sample_dt": 0.0}, "dynamics.sample_dt: must be positive"),
    ({"sample_dt": -1.0}, "dynamics.sample_dt: must be positive"),
    # both runs fit on (fit_lo, min(fit_hi, T)), the qualitative one with T <= 30
    ({"fit_lo": 50.0, "fit_hi": 10.0, "T": 2.0}, "dynamics.fit_lo: must be below"),
    ({"fit_lo": 60.0, "fit_hi": 70.0}, "dynamics.fit_lo: must be below"),
    ({"fit_lo": 5.0, "T": 5.0}, "dynamics.fit_lo: must be below"),
    ({"fit_lo": 30.0}, "dynamics.fit_lo: must be below"),
])
def test_bad_dynamics_times_rejected(tmp_path, dynamics, match):
    with pytest.raises(ValueError, match=match):
        load_config(_write(tmp_path, {"dynamics": dynamics}))


def test_cli_exits_2_on_bad_dynamics_times(tmp_path, capsys):
    # before any stage runs: no stability scan, no evolve
    for dynamics in ({"T": -1}, {"fit_lo": 50, "fit_hi": 10, "T": 2}):
        out = tmp_path / "out"
        code = cli.main(["evolve", "--config", _write(tmp_path, {"dynamics": dynamics}),
                         "--out", str(out)])
        assert code == 2
        assert "config error: dynamics." in capsys.readouterr().err
        assert not out.exists()


def test_cli_exits_2_on_bad_dynamics_box(tmp_path, capsys):
    path = _write(tmp_path, {"dynamics": {"L": -5.0}})
    code = cli.main(["evolve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: dynamics: half width must be positive" in capsys.readouterr().err
