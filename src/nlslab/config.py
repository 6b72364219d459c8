"""Experiment configuration: validation, defaults, hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .grids import PolynomialNonlinearity, PotentialSpec, make_grid
from .scattering import SCAN_COUPLING_MAX

__all__ = ["ExperimentConfig", "load_config", "default_config_dict", "config_hash"]

QUALITATIVE_T_MAX = 30.0   # the evolve stage's qualitative run stops at min(T, this)


def default_config_dict() -> dict:
    """The shipped default model, chosen to satisfy every assumption gate.

    Cubic reference nonlinearity plus a degree-4 variant with a small
    repulsive quartic; even trapping potential with a non-degenerate
    minimum at 0; lam = 2 keeps lam + V(0) inside the soliton interval
    and the linearization free of gap modes beyond the four tagged ones.
    """
    return {
        "model": {
            "nonlinearity": [1.0],
            "nonlinearity_theorem": [1.0, 0.0, 0.0, -0.001],
            "potential_family": "quad_gauss",
            "potential_params": {"amp": 0.5, "offset": 1.0},
            "h": 0.5,
            "lambda": 2.0,
            "expected_resonant": False,
        },
        "grid": {"L": 60.0, "N": 3072, "coarse_points": 768},
        "scattering": {"k_max": 13.1, "scan_couplings": [-0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1]},
        "propagator": {
            "times": [0.5, 1.0, 2.0, 5.0, 10.0],
            "estimates": ["E1", "E2", "E3", "E4"],
            "probe_widths": [2.0, 3.0],
            "oracle_L": 160.0,
            "oracle_dt": 5e-4,
        },
        "dynamics": {
            "delta": 0.01,
            "T": 60.0,
            "dt": 0.004,
            "nu": 4.0,
            "L": 200.0,
            "N": 8192,
            "sample_dt": 1.0,
            "fit_lo": 5.0,
            "fit_hi": 60.0,
            "gamma0": 0.3,
            "bump_width": 2.0,
        },
        "output": {"directory": "out"},
        "seed": 20260801,
    }


def _check_keys(block: dict, schema: dict, path: str):
    for key in block:
        if key not in schema:
            raise ValueError(f"unknown config key '{path}{key}'")


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict = field(repr=False)

    # -- constructed views --------------------------------------------------

    def nonlinearity(self, theorem: bool = False) -> PolynomialNonlinearity:
        key = "nonlinearity_theorem" if theorem else "nonlinearity"
        return PolynomialNonlinearity(tuple(self.raw["model"][key]))

    def potential(self) -> PotentialSpec:
        m = self.raw["model"]
        return PotentialSpec(m["potential_family"], m["h"], dict(m["potential_params"]))

    def grid(self):
        g = self.raw["grid"]
        return make_grid(g["L"], g["N"])

    def oracle_grid(self):
        """The propagate stage's oracle box [-oracle_L, oracle_L), at grid's spacing."""
        oracle_L = self.raw["propagator"]["oracle_L"]
        return make_grid(oracle_L, round(2.0 * oracle_L / self.grid().dx))

    def dynamics_grid(self):
        d = self.raw["dynamics"]
        return make_grid(d["L"], d["N"])

    @property
    def lam(self) -> float:
        return float(self.raw["model"]["lambda"])

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def block(self, name: str) -> dict:
        return self.raw[name]


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    _check_keys(user, defaults, path)
    out = {}
    for key, dval in defaults.items():
        if key in user:
            uval = user[key]
            if isinstance(dval, dict) and isinstance(uval, dict):
                out[key] = _merge(dval, uval, f"{path}{key}.")
            else:
                out[key] = uval
        else:
            out[key] = dval
    return out


def _grid(path: str, L, N):
    """make_grid(L, N), its rejections reported as config errors under path."""
    try:
        return make_grid(float(L), int(N))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _validate(raw: dict):
    g = raw["grid"]
    grid = _grid("grid", g["L"], g["N"])
    cp = int(g["coarse_points"])
    if cp % 2 != 0 or cp < 16 or int(g["N"]) % cp != 0:
        raise ValueError("grid.coarse_points: must be even, at least 16 and divide grid.N")
    m = raw["model"]
    if float(m["h"]) < 0:
        raise ValueError("model.h: must be nonnegative")
    d = raw["dynamics"]
    if not 0 < float(d["dt"]) <= 0.01:
        raise ValueError("dynamics.dt: must be positive and at most 0.01")
    _grid("dynamics", d["L"], d["N"])
    T = float(d["T"])
    if not T > 0:
        raise ValueError("dynamics.T: must be positive")
    if not float(d["sample_dt"]) > 0:
        raise ValueError("dynamics.sample_dt: must be positive")
    # stage_evolve fits both runs on (fit_lo, min(fit_hi, the run's T))
    if not float(d["fit_lo"]) < min(float(d["fit_hi"]), T, QUALITATIVE_T_MAX):
        raise ValueError(f"dynamics.fit_lo: must be below min(fit_hi, T, {QUALITATIVE_T_MAX:g})")
    # stage_propagate embeds the grid in the oracle box by index offset, so
    # the box has grid's spacing: 2 oracle_L / grid.dx points, an even count
    p = raw["propagator"]
    if not float(p["oracle_L"]) >= grid.L:
        raise ValueError("propagator.oracle_L: must be at least grid.L")
    n = 2.0 * float(p["oracle_L"]) / grid.dx
    if not (abs(n - round(n)) <= 1e-9 * n and round(n) % 2 == 0):
        raise ValueError("propagator.oracle_L: the oracle box's point count at grid's spacing, "
                         "2 oracle_L / grid.dx, must be an even integer")
    if not (float(p["oracle_dt"]) > 0):
        raise ValueError("propagator.oracle_dt: must be positive")
    sc = raw["scattering"]
    if not float(sc["k_max"]) > 0:
        raise ValueError("scattering.k_max: must be positive")
    if any(abs(float(s)) > SCAN_COUPLING_MAX for s in sc["scan_couplings"]):
        raise ValueError(f"scattering.scan_couplings: |s| must be at most {SCAN_COUPLING_MAX:g}")
    if len({float(s) for s in sc["scan_couplings"] if abs(float(s)) <= 0.1 + 1e-12}) < 2:
        raise ValueError("scattering.scan_couplings: the slope fit needs two distinct |s| <= 0.1")
    for t in p["times"]:
        if t < 0:
            raise ValueError("propagator.times: must be nonnegative")
    for est in p["estimates"]:
        if est not in ("E1", "E2", "E3", "E4"):
            raise ValueError(f"propagator.estimates: unknown id '{est}'")
    PolynomialNonlinearity(tuple(m["nonlinearity"]))
    PolynomialNonlinearity(tuple(m["nonlinearity_theorem"]))
    PotentialSpec(m["potential_family"], float(m["h"]), dict(m["potential_params"]))


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a JSON config, fill defaults, validate, reject unknown keys."""
    user = {}
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
    raw = _merge(default_config_dict(), user)
    if overrides:
        raw = _merge(raw, overrides)
    _validate(raw)
    return ExperimentConfig(raw=raw)


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
