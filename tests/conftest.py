"""Shared fixtures: the default model is expensive, so build it once."""

import numpy as np
import pytest

from nlslab.config import load_config
from nlslab.grids import PolynomialNonlinearity, PotentialSpec, make_grid
from nlslab.linearized import (LinearizedSystem, assemble_L, build_projector,
                               discrete_spectrum)
from nlslab.propagator import build_plan
from nlslab.scattering import GeneralizedEigenTable, default_k_grid, eigentable_build
from nlslab.solitons import solve_dlambda, solve_soliton


@pytest.fixture(scope="session")
def cfg():
    return load_config()


@pytest.fixture(scope="session")
def grid(cfg):
    return cfg.grid()


@pytest.fixture(scope="session")
def cubic():
    return PolynomialNonlinearity((1.0,))


@pytest.fixture(scope="session")
def trap(cfg):
    return cfg.potential()


@pytest.fixture(scope="session")
def free_soliton():
    g = make_grid(40.0, 2048)
    f = PolynomialNonlinearity((1.0,))
    V0 = PotentialSpec("zero", 0.0)
    return solve_dlambda(solve_soliton(1.0, V0, f, g))


@pytest.fixture(scope="session")
def default_profile(cfg, grid, trap, cubic):
    return solve_dlambda(solve_soliton(cfg.lam, trap, cubic, grid))


@pytest.fixture(scope="session")
def default_system(default_profile):
    return assemble_L(default_profile)


@pytest.fixture(scope="session")
def free_system(grid, cfg):
    return LinearizedSystem(grid=grid, beta=cfg.lam,
                            V1=np.zeros(grid.N), V2=np.zeros(grid.N))


@pytest.fixture(scope="session")
def free_table(free_system):
    """The closed-form continuum modes e = e^(ikx) (1, 0), s = 1, r = 0 of
    the free system on the closed node set, k = 0 included: the free
    system is threshold-resonant, and its k = 0 mode (1, 0) is not a limit
    of the 2ik factor, so eigentable_build refuses it.  The propagator
    tests' reference table."""
    g = free_system.grid
    ks = np.linspace(0.0, 10.0, 2001)
    e = np.zeros((ks.size, 2, g.N + 1), dtype=complex)
    e[:, 0, :] = np.exp(1j * ks[:, None] * (-g.L + g.dx * np.arange(g.N + 1)))
    return GeneralizedEigenTable(
        system=free_system, k=ks, e=e, s=np.ones(ks.size, dtype=complex),
        r=np.zeros(ks.size, dtype=complex), wronskian_spread=np.zeros(ks.size),
        resonance_margin=0.0,
    )


@pytest.fixture(scope="session")
def default_spectrum(default_system, cfg):
    return discrete_spectrum(default_system,
                             coarse_points=cfg.block("grid")["coarse_points"])


@pytest.fixture(scope="session")
def default_projector(default_spectrum):
    return build_projector(default_spectrum)


@pytest.fixture(scope="session")
def default_table(default_system, cfg):
    return eigentable_build(default_system,
                            default_k_grid(cfg.block("scattering")["k_max"]))


@pytest.fixture(scope="session")
def default_plan(default_system, default_table, default_projector):
    return build_plan(default_system, default_table, default_projector)


@pytest.fixture(scope="session")
def probe_maker(grid, cfg):
    """Deterministic localized probes with softly band-limited content."""
    def make(width=2.5, seed_offset=0, center=0.0, kcut=1.5):
        rng = np.random.default_rng(cfg.seed + seed_offset)
        env = np.exp(-(((grid.nodes - center) / width) ** 2))
        raw = ((rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))) * env)
        lp = np.exp(-((grid.wavenumbers / kcut) ** 8))
        return np.stack([
            np.fft.ifft(np.fft.fft(raw[0]) * lp),
            np.fft.ifft(np.fft.fft(raw[1]) * lp),
        ])
    return make
