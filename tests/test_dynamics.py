"""Nonlinear evolution, modulation decomposition, frozen-frame split."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from nlslab.dynamics import (evolve_nls, frozen_frame_decompose, hamiltonian,
                             modulation_decompose, modulation_rhs,
                             nonlinear_remainder, split_step_oracle)
from nlslab.grids import PolynomialNonlinearity, PotentialSpec, make_grid
from nlslab.solitons import SolitonFamily, solve_soliton


@pytest.fixture(scope="module")
def dyn_grid():
    return make_grid(60.0, 2048)


@pytest.fixture(scope="module")
def dyn_family(dyn_grid):
    V = PotentialSpec("quad_gauss", 0.5, {"amp": 0.5, "offset": 1.0})
    return SolitonFamily(V, PolynomialNonlinearity((1.0,)), dyn_grid)


def test_standing_wave_phase_rotation():
    # the profile solves the spectral equation while evolve_nls steps with
    # the FD4 Laplacian; that O(dx^4) mismatch makes the wave breathe with
    # amplitude ~0.2 dx^4 (3.6e-5 / 2.3e-6 / 1.5e-7 at dx = 0.117 / 0.059 /
    # 0.029), independent of dt.  dx = 0.029 keeps it well inside 1e-6.
    grid = make_grid(30.0, 2048)
    f = PolynomialNonlinearity((1.0,))
    V0 = PotentialSpec("zero", 0.0)
    prof = solve_soliton(1.0, V0, f, grid)
    states = evolve_nls(prof.phi.astype(complex), V0, f, grid,
                        T=3.0, dt=0.004, sample_every=125)
    mid = grid.N // 2
    amp_drift = max(abs(abs(st.psi[mid]) - prof.phi[mid]) for st in states)
    assert amp_drift < 1e-6
    ts = [st.t for st in states]
    phases = np.unwrap([np.angle(st.psi[mid]) for st in states])
    freq = np.polyfit(ts, phases, 1)[0]
    # the standing wave rotates as e^{+i lam t}
    assert freq == pytest.approx(1.0, abs=1e-3)


def test_conservation(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.0)
    psi0 = np.exp(0.2j) * (prof.phi + 0.01 * np.exp(-dyn_grid.nodes**2 / 4))
    states = evolve_nls(psi0, dyn_family.potential, dyn_family.nonlinearity,
                        dyn_grid, T=2.0, dt=0.004, sample_every=100)
    m0, e0 = states[0].mass, states[0].energy
    for st in states[1:]:
        assert abs(st.mass - m0) / m0 < 1e-8 * max(st.t, 1.0)
        assert abs(st.energy - e0) / abs(e0) < 1e-8 * max(st.t, 1.0)
        assert st.parity_defect < 1e-9


def test_weighted_norm_growth(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.0)
    psi0 = np.exp(0.2j) * (prof.phi + 0.02 * np.exp(-dyn_grid.nodes**2 / 4))
    states = evolve_nls(psi0, dyn_family.potential, dyn_family.nonlinearity,
                        dyn_grid, T=20.0, dt=0.005, sample_every=400)
    ts = np.array([st.t for st in states[1:]])
    wn = np.array([st.weighted_norm for st in states[1:]])
    # at most linear growth of ||(1+|x|) psi||
    slope = np.polyfit(np.log(ts + 1.0), np.log(wn), 1)[0]
    assert slope <= 1.1


def test_dt_guard(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.0)
    with pytest.raises(ValueError, match="dt"):
        evolve_nls(prof.phi.astype(complex), dyn_family.potential,
                   dyn_family.nonlinearity, dyn_grid, T=0.1, dt=0.05)


def test_fixed_point_failure_raises():
    # dt f(|psi|^2) = 0.5 at the peak: the implicit-step iteration does not
    # settle within FP_MAX iterations, which must raise, not return
    grid = make_grid(20.0, 256)
    f = PolynomialNonlinearity((50.0,))
    psi0 = np.exp(-grid.nodes**2).astype(complex)
    with pytest.raises(ValueError, match="fixed-point"):
        evolve_nls(psi0, PotentialSpec("zero", 0.0), f, grid, T=0.01, dt=0.01)


def test_nl_quotient_exact_near_diagonal():
    # [F2(a) - F2(b)]/(a - b) must equal f(a) at a = b and must not cancel
    # just off the diagonal; a subtracted primitive loses ~1e-5 relative at
    # a = b (1 + 1e-11).  The reference is exact rational arithmetic on the
    # same floating-point a and b.
    from fractions import Fraction

    from nlslab.dynamics import _nl_quotient

    b = np.array([0.05, 0.3, 1.0, 1.7, 2.5])
    a = b * (1.0 + 1e-11)
    for coeffs in ((1.0,), (1.0, 0.0, 0.0, -0.001), (0.7, -0.2, 0.05)):
        f = PolynomialNonlinearity(coeffs)
        diag = _nl_quotient(f, b, b)
        assert np.max(np.abs(diag - f.f(b)) / np.abs(f.f(b))) < 1e-14
        quot = _nl_quotient(f, a, b)
        for ai, bi, qi in zip(a, b, quot):
            fa, fb = Fraction(float(ai)), Fraction(float(bi))
            exact = sum(Fraction(c) / (m + 1) * (fa ** (m + 1) - fb ** (m + 1))
                        for m, c in enumerate(f.coefficients, start=1)) / (fa - fb)
            assert abs(Fraction(float(qi)) - exact) < 1e-14 * abs(exact), (coeffs, bi)


def test_odd_input_rejected(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.0)
    odd = prof.phi + 0.01 * dyn_grid.nodes * np.exp(-dyn_grid.nodes**2)
    with pytest.raises(ValueError, match="even"):
        modulation_decompose(odd.astype(complex), 2.0, dyn_family)


def test_split_step_cross_check(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.0)
    psi0 = (prof.phi * (1 + 0.05 * np.exp(-dyn_grid.nodes**2 / 4))).astype(complex)
    a = evolve_nls(psi0, dyn_family.potential, dyn_family.nonlinearity,
                   dyn_grid, T=1.0, dt=0.002, sample_every=500)[-1].psi
    b = split_step_oracle(psi0, dyn_family.potential, dyn_family.nonlinearity,
                          dyn_grid, T=1.0, dt=0.0005)
    assert dyn_grid.norm(a - b) / dyn_grid.norm(a) < 1e-5


def test_decompose_exact_member(dyn_family):
    prof = dyn_family.profile(2.2)
    psi = np.exp(0.3j) * prof.phi.astype(complex)
    ms = modulation_decompose(psi, 2.05, dyn_family)
    assert ms.lam == pytest.approx(2.2, abs=1e-9)
    assert ms.gamma == pytest.approx(0.3, abs=1e-9)
    assert ms.r_norm2 < 1e-10


def test_decompose_small_bump(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.2)
    bump = 1e-3 * np.exp(-dyn_grid.nodes**2 / 4)
    ms = modulation_decompose(np.exp(0.3j) * (prof.phi + bump), 2.1, dyn_family)
    assert abs(ms.ortho_phi) < 1e-10
    assert abs(ms.ortho_phi_lam) < 1e-10
    assert ms.r_norm2 == pytest.approx(dyn_grid.norm(bump), rel=0.3)


def test_reconstruction_identity(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.1)
    psi = np.exp(1.1j) * (prof.phi + 0.02 * np.exp(-dyn_grid.nodes**2 / 9))
    ms = modulation_decompose(psi, 2.1, dyn_family)
    back = ms.reconstruct(dyn_family)
    assert dyn_grid.norm(back - psi) < 1e-12 * dyn_grid.norm(psi)


def test_outside_tube(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.0)
    psi = prof.phi + 5.0 * np.exp(-dyn_grid.nodes**2)
    with pytest.raises(ValueError, match="tube|diverged"):
        modulation_decompose(psi.astype(complex), 2.0, dyn_family)


def test_remainder_vanishes_quadratically(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.0)
    assert np.max(np.abs(nonlinear_remainder(
        dyn_family.nonlinearity, prof.phi, np.zeros_like(prof.phi, dtype=complex)))) == 0.0
    ld, gd, m = modulation_rhs(
        modulation_decompose(prof.phi.astype(complex), 2.0, dyn_family), dyn_family)
    assert abs(ld) < 1e-12 and abs(gd) < 1e-12
    assert np.linalg.cond(m) < 10


def test_modulation_scaling_quadratic(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.2)
    eps = np.array([1.0, 0.5, 0.25, 0.125])
    rates = []
    for e in eps:
        psi = np.exp(0.3j) * (prof.phi + e * 0.02 * np.exp(-dyn_grid.nodes**2 / 4))
        ms = modulation_decompose(psi, 2.2, dyn_family)
        ld, gd, _ = modulation_rhs(ms, dyn_family)
        rates.append(abs(ld) + abs(gd))
    degree = np.polyfit(np.log(eps), np.log(rates), 1)[0]
    assert degree == pytest.approx(2.0, abs=0.1)


def test_modulation_rates_match_trajectory(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.2)
    pert = 0.01 * np.exp(-dyn_grid.nodes**2 / 4) * (1 + 0.7j)
    psi0 = np.exp(0.3j) * (prof.phi + pert)
    states = evolve_nls(psi0, dyn_family.potential, dyn_family.nonlinearity,
                        dyn_grid, T=0.3, dt=0.002, sample_every=15)
    mods = [modulation_decompose(st.psi, 2.2, dyn_family, t=st.t) for st in states]
    ts = np.array([m.t for m in mods])
    lams = np.array([m.lam for m in mods])
    gammas = np.unwrap([m.gamma for m in mods])
    gt = gammas - cumulative_trapezoid(lams, ts, initial=0.0)
    mid = len(mods) // 2
    ld, gd, _ = modulation_rhs(mods[mid], dyn_family)
    assert ld == pytest.approx(np.gradient(lams, ts)[mid], rel=0.08, abs=1e-8)
    assert gd == pytest.approx(np.gradient(gt, ts)[mid], rel=0.08, abs=1e-8)


@pytest.fixture(scope="module")
def short_series(dyn_family, dyn_grid):
    prof = dyn_family.profile(2.0)
    psi0 = np.exp(0.25j) * (prof.phi + 0.01 * np.exp(-dyn_grid.nodes**2 / 4))
    states = evolve_nls(psi0, dyn_family.potential, dyn_family.nonlinearity,
                        dyn_grid, T=6.0, dt=0.004, sample_every=125)
    lam_guess = 2.0
    mods = []
    for st in states:
        ms = modulation_decompose(st.psi, lam_guess, dyn_family, t=st.t)
        lam_guess = ms.lam
        mods.append(ms)
    return mods


def test_frozen_frame_split(dyn_family, dyn_grid, short_series):
    out = frozen_frame_decompose(short_series, dyn_family)
    # anchored at T: Delta1(T) = 0
    assert abs(out["delta1"][-1]) < 1e-14
    prof1 = dyn_family.profile(short_series[-1].lam)
    g = dyn_grid
    phi1 = prof1.phi.astype(complex)
    phi1_lam = prof1.phi_lam.astype(complex)
    c1 = np.real(g.inner(phi1_lam, phi1))
    # g = i k1 phi1 + k2 phi1_lam + h: Im g pairs with phi1_lam, Re g
    # with phi1; the split matches these direct projections at every
    # sample
    for j, s in enumerate(short_series):
        gj = np.exp(-1j * out["delta1"][j]) * s.fluctuation
        k1_direct = np.real(g.inner(phi1_lam, np.imag(gj).astype(complex))) / c1
        k2_direct = np.real(g.inner(phi1, np.real(gj).astype(complex))) / c1
        assert out["k1"][j] == pytest.approx(k1_direct, abs=1e-12)
        assert out["k2"][j] == pytest.approx(k2_direct, abs=1e-12)
    # at T the fluctuation itself satisfies the frozen constraints, so
    # both coefficients vanish there
    r_T = g.norm(short_series[-1].fluctuation)
    assert abs(out["k1"][-1]) < 1e-8 * r_T and abs(out["k2"][-1]) < 1e-8 * r_T
    # the constraint-derived 2x2 system holds at every sample
    assert np.max(out["system_residual"]) < 1e-8
    # h stays in the essential subspace of the frozen frame: its
    # projections on the frozen discrete directions vanish at every sample
    for h in out["h"]:
        p1 = np.real(g.inner(phi1, np.real(h).astype(complex)))
        p2 = np.real(g.inner(phi1_lam, np.imag(h).astype(complex)))
        assert abs(p1) < 1e-10 and abs(p2) < 1e-10


def test_hamiltonian_matches_quadrature(dyn_grid, dyn_family):
    prof = dyn_family.profile(2.0)
    psi = prof.phi.astype(complex)
    h_spec = hamiltonian(dyn_grid, dyn_family.potential, dyn_family.nonlinearity, psi)
    # 4th-order central difference quotient; np.gradient (2nd order) is
    # off by ~2e-3 relative at this dx, while the spectral value is
    # converged and this reference agrees with it to 7e-6
    dpsi = (8.0 * (np.roll(psi, -1) - np.roll(psi, 1))
            - (np.roll(psi, -2) - np.roll(psi, 2))) / (12.0 * dyn_grid.dx)
    dens = np.abs(psi) ** 2
    h_ref = (0.5 * np.real(dyn_grid.integrate(np.abs(dpsi) ** 2))
             + 0.5 * np.real(dyn_grid.integrate(dyn_family.potential(dyn_grid.nodes) * dens))
             - 0.5 * np.real(dyn_grid.integrate(dyn_family.nonlinearity.antiderivative(dens))))
    assert h_spec == pytest.approx(h_ref, rel=1e-3)
