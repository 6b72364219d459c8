"""Ground-state construction, derivatives, and the stability index."""

import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from nlslab import solitons
from nlslab.grids import Grid, PolynomialNonlinearity, PotentialSpec, make_grid
from nlslab.solitons import (FAMILY_CACHE_SIZE, SolitonFamily, SolitonProfile, _lplus_diag,
                             _lplus_solver, power_law_standing_wave, solve_dlambda,
                             solve_soliton, stability_scan)


def shooting_oracle(lam, f, x_max=25.0, tol=1e-12):
    """Independent shooting value of phi(0) for the free soliton.

    Bisection on overshoot (phi crosses zero) against undershoot (phi
    turns back upward before decaying), the standard phase-plane split.
    """
    from scipy.integrate import solve_ivp

    def rhs(x, y):
        return [y[1], lam * y[0] - f.f(y[0] ** 2) * y[0]]

    def cross_zero(x, y):
        return y[0]
    cross_zero.terminal = True
    cross_zero.direction = -1

    def turn_up(x, y):
        return y[1]
    turn_up.terminal = True
    turn_up.direction = 1

    def overshoots(a):
        sol = solve_ivp(rhs, [0, x_max], [a, 0.0], rtol=1e-10, atol=1e-12,
                        events=(cross_zero, turn_up))
        return len(sol.t_events[0]) > 0

    lo, hi = 1e-3, 5.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if overshoots(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_cubic_free_profile_matches_sech(free_soliton):
    g = free_soliton.grid
    exact = np.sqrt(2.0) / np.cosh(g.nodes)
    assert np.max(np.abs(free_soliton.phi - exact)) < 1e-6
    assert free_soliton.residual_sup < 1e-9
    assert free_soliton.phi[g.N // 2] == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_cubic_free_against_shooting_oracle():
    f = PolynomialNonlinearity((1.0,))
    a0 = shooting_oracle(1.0, f)
    assert a0 == pytest.approx(np.sqrt(2.0), abs=1e-5)


def test_cubic_scaling_lam4():
    g = make_grid(40.0, 2048)
    f = PolynomialNonlinearity((1.0,))
    prof = solve_soliton(4.0, PotentialSpec("zero", 0.0), f, g)
    assert prof.phi[g.N // 2] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-7)
    assert prof.residual_sup < 1e-9


def test_profile_even_and_positive(default_profile):
    g = default_profile.grid
    assert np.min(default_profile.phi) > 0
    assert g.parity_defect(default_profile.phi) == 0.0


def test_wide_box_seed_does_not_overflow(cfg, trap, cubic):
    """The sech seed on an L = 800 box reaches |sqrt(lam_eff) x| ~ 1400,
    far past where cosh overflows; the seed must be formed without it."""
    g = make_grid(800.0, 32768)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = solve_soliton(cfg.lam, trap, cubic, g)
    assert np.min(prof.phi) > 0
    assert g.parity_defect(prof.phi) == 0.0


def test_tail_rate(free_soliton):
    # exponential tail with rate sqrt(lam) = 1
    assert free_soliton.tail_rate == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("which", ["grid", "dynamics_grid"])
def test_default_tail_rate_is_resolved(cfg, trap, which):
    """On both default grids all of x > L/2 is below the fit's floor (1e-9
    max phi); the fit reads the resolved tail instead, where V_h -> 0:
    rate sqrt(lam)."""
    prof = solve_soliton(cfg.lam, trap, cfg.nonlinearity(which == "dynamics_grid"),
                         getattr(cfg, which)())
    assert abs(prof.tail_rate - np.sqrt(cfg.lam)) < 1e-2


@pytest.mark.parametrize("L, N", [(30.0, 1024), (60.0, 3072), (200.0, 8192)])
def test_tail_rate_is_above_roundoff(cfg, trap, L, N):
    """Re-solving from seeds perturbed by 1e-16 relative moves tail_rate by
    less than 1.3e-8, 100x below the 1.3e-6 it moved while the fit read phi
    down to 1e-13, near its roundoff."""
    g = make_grid(L, N)
    rng = np.random.default_rng(7)
    for theorem in (False, True):
        f = cfg.nonlinearity(theorem)
        prof = solve_soliton(cfg.lam, trap, f, g)
        rates = [prof.tail_rate] + [
            solve_soliton(cfg.lam, trap, f, g,
                          initial_guess=prof.phi * (1 + 1e-16 * rng.standard_normal(N))).tail_rate
            for _ in range(4)]
        assert np.ptp(rates) < 1.3e-8


def test_dlambda_values(free_soliton):
    g = free_soliton.grid
    # phi = sqrt(2 lam) sech(sqrt(lam) x): d/dlam at lam=1, x=0 is 1/sqrt(2)
    assert free_soliton.phi_lam[g.N // 2] == pytest.approx(1 / np.sqrt(2.0), abs=1e-4)
    # <phi, phi_lam> = dN/dlam / 2 = 1/sqrt(lam)
    assert np.real(g.inner(free_soliton.phi, free_soliton.phi_lam)) == pytest.approx(1.0, abs=1e-4)


def test_dlambda_vs_finite_difference():
    g = make_grid(40.0, 2048)
    f = PolynomialNonlinearity((1.0,))
    V0 = PotentialSpec("zero", 0.0)
    step = 1e-4
    hi = solve_soliton(1.0 + step, V0, f, g)
    lo = solve_soliton(1.0 - step, V0, f, g)
    fd = (hi.phi - lo.phi) / (2 * step)
    prof = solve_dlambda(solve_soliton(1.0, V0, f, g))
    assert g.norm(fd - prof.phi_lam) / g.norm(prof.phi_lam) < 1e-6


def test_dlambda_defining_equation(default_profile):
    g = default_profile.grid
    f = default_profile.nonlinearity
    V = default_profile.potential
    phi, phi_lam = default_profile.phi, default_profile.phi_lam
    lplus = (-np.real(g.spectral_d2(phi_lam))
             + (V(g.nodes) + default_profile.lam
                - f.f(phi**2) - 2 * f.fprime(phi**2) * phi**2) * phi_lam)
    assert g.norm(lplus + phi) < 1e-8 * g.norm(phi)


def test_defect_correction_has_no_growing_mode(monkeypatch, cfg, trap):
    """Raw defect corrections of L_plus phi_lam = -phi on the dynamics grid
    stay at their roundoff floor: no mode of the banded FD4 L_plus against
    the spectral one (Grid.even_d2) grows, as one at a closed wall row
    x = L did, by 1.1-1.7x per correction.

    The banded factor (_lplus_solver), the diagonal (_lplus_diag) and the
    right side -phi are the ones solve_dlambda passes to _defect_solve,
    so the corrections run on the samples the solver uses.
    """
    g, f, lam = cfg.dynamics_grid(), cfg.nonlinearity(theorem=True), 2.0
    calls = []
    monkeypatch.setattr(solitons, "_defect_solve", lambda *args: calls.append(args) or args[3])
    solve_dlambda(solve_soliton(lam, trap, f, g))
    grid, solve, diag, rhs, seed = calls[0]
    assert seed is None

    def defect(u):
        return rhs - (-grid.even_d2(u) + diag * u)

    u = solve(rhs)
    rel = []
    for _ in range(14):
        u = u + solve(defect(u))
        rel.append(np.linalg.norm(defect(u)) / np.linalg.norm(rhs))
    assert rel[-1] <= 2.0 * rel[4], rel


@pytest.mark.parametrize("lam", [2.0, 2.3])
def test_defect_correction_is_a_contraction(monkeypatch, trap, cubic, lam):
    """Every eigenvalue of the correction matrix I - B^-1 L of _defect_solve
    (B the banded FD4 L_plus, L the spectral one) has modulus below 1 on
    the 30/512 half grid.  A 3-point row next to the wall used to give
    one of -1.012 there, peaked at x = L - dx."""
    g = make_grid(30.0, 512)
    calls = []
    monkeypatch.setattr(solitons, "_defect_solve", lambda *args: calls.append(args) or args[3])
    solve_dlambda(solve_soliton(lam, trap, cubic, g))
    grid, solve, diag, _rhs, _seed = calls[0]
    eye = np.eye(diag.size)
    spectral = np.stack([diag * col - grid.even_d2(col) for col in eye], axis=1)
    radius = np.max(np.abs(np.linalg.eigvals(eye - solve(spectral))))
    assert radius < 1.0, radius


@pytest.mark.parametrize("coefficients", [(1.0,), (1.0, 0.0, 0.2, -0.05)],
                         ids=["cubic", "degree4"])
def test_dlamlam_equation_and_finite_difference(coefficients):
    # the dynamics family's trap; the degree-4 model gives the cubic and
    # quartic terms of G'' weight
    g = make_grid(60.0, 2048)
    V = PotentialSpec("quad_gauss", 0.5, {"amp": 0.5, "offset": 1.0})
    f = PolynomialNonlinearity(coefficients)
    lam = 2.0
    prof = solve_dlambda(solve_soliton(lam, V, f, g))
    phi, phi_lam, phi_ll = prof.phi, prof.phi_lam, prof.phi_lamlam
    s = phi**2
    fpp = sum(m * (m - 1) * c * s ** max(m - 2, 0)
              for m, c in enumerate(coefficients, start=1))
    g2 = 6 * phi * f.fprime(s) + 4 * phi**3 * fpp
    rhs = -2 * phi_lam + g2 * phi_lam**2
    lplus = (-np.real(g.spectral_d2(phi_ll))
             + (V(g.nodes) + lam - f.f(s) - 2 * f.fprime(s) * s) * phi_ll)
    assert g.norm(lplus - rhs) < 1e-10 * g.norm(rhs)
    # centered difference of phi_lam from two fresh solves
    step = 1e-4
    hi = solve_dlambda(solve_soliton(lam + step, V, f, g))
    lo = solve_dlambda(solve_soliton(lam - step, V, f, g))
    fd = (hi.phi_lam - lo.phi_lam) / (2 * step)
    assert g.norm(fd - phi_ll) < 1e-7 * g.norm(phi_ll)


def test_mass_derivative_cross_check(default_profile):
    g = default_profile.grid
    pairing = 2 * np.real(g.inner(default_profile.phi, default_profile.phi_lam))
    step = 1e-4
    V, f = default_profile.potential, default_profile.nonlinearity
    hi = solve_soliton(default_profile.lam + step, V, f, g, initial_guess=default_profile.phi)
    lo = solve_soliton(default_profile.lam - step, V, f, g, initial_guess=default_profile.phi)
    fd = (hi.mass - lo.mass) / (2 * step)
    assert pairing == pytest.approx(fd, rel=1e-3)


def test_stability_scan_cubic():
    g = make_grid(40.0, 1024)
    f = PolynomialNonlinearity((1.0,))
    scan = stability_scan(np.linspace(0.5, 2.0, 7), PotentialSpec("zero", 0.0), f, g)
    interior = scan.dmass[1:-1]
    oracle = 2.0 / np.sqrt(scan.lam_values[1:-1])
    assert np.all(np.abs(interior - oracle) / oracle < 0.02)
    assert scan.admissible[0] <= 1.0 <= scan.admissible[1]


def test_stability_scan_critical_quintic():
    g = make_grid(40.0, 1024)
    f = PolynomialNonlinearity((0.0, 1.0))
    scan = stability_scan([0.8, 1.0, 1.2], PotentialSpec("zero", 0.0), f, g)
    assert abs(scan.dmass[1]) < 1e-3


def test_stability_scan_supercritical():
    # the s^4 ground state is narrow; resolve it properly
    g = make_grid(40.0, 2048)
    f = PolynomialNonlinearity((0.0, 0.0, 0.0, 1.0))
    scan = stability_scan([0.9, 1.0, 1.1], PotentialSpec("zero", 0.0), f, g)
    assert scan.dmass[1] < 0


def test_stability_scan_does_not_depend_on_its_start(trap):
    """Every sample is solved cold, so two scans give the same mass at the
    lambdas they share.  On f = s + 0.1 s^3, continuation from lam = 0.8
    followed a wider profile branch than a start at 1.4 (N(1.4) = 6.99
    against 3.02)."""
    g = make_grid(30.0, 1024)
    f = PolynomialNonlinearity((1.0, 0.0, 0.1))
    early = stability_scan(np.arange(4, 16) / 5.0, trap, f, g)
    late = stability_scan(np.arange(7, 16) / 5.0, trap, f, g)
    assert np.array_equal(early.lam_values[3:], late.lam_values)
    assert np.array_equal(early.masses[3:], late.masses)


def test_bifurcation_continuation_rate():
    """Distance to the V-free profile shrinks superlinearly in h."""
    g = make_grid(40.0, 2048)
    f = PolynomialNonlinearity((1.0,))
    anchor = solve_soliton(1.0, PotentialSpec("zero", 0.0), f, g)  # lam + V(0) = 1
    errs = []
    hs = [0.05, 0.1, 0.2]
    prev = anchor.phi
    for h in hs:
        V = PotentialSpec("quad_gauss", h, {"amp": 1.0, "offset": 1.0})
        prof = solve_soliton(2.0, V, f, g, initial_guess=prev)
        prev = prof.phi
        errs.append(g.norm(prof.phi - anchor.phi))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.2 <= slope <= 1.8


def test_newton_divergence_reported():
    g = make_grid(40.0, 1024)
    f = PolynomialNonlinearity((1.0,))
    with pytest.raises(ValueError, match="Newton diverged"):
        # lam + V(0) = 0: no localized seed exists
        solve_soliton(1.0, PotentialSpec("quad_gauss", 0.1, {"amp": 1.0, "offset": 1.0}), f, g)


def test_newton_iteration_cap_reported(monkeypatch):
    """A Newton run stopped above RESIDUAL_TOL raises rather than returning."""
    monkeypatch.setattr(solitons, "NEWTON_MAX_ITER", 1)
    g = make_grid(40.0, 1024)
    V = PotentialSpec("quad_gauss", 0.5, {"amp": 0.5, "offset": 1.0})
    with pytest.raises(ValueError, match="Newton diverged"):
        solve_soliton(2.0, V, PolynomialNonlinearity((1.0,)), g)


def test_positivity_loss_reported():
    """From a negative seed every damped step stays negative: -phi also solves."""
    g = make_grid(40.0, 1024)
    seed = -np.sqrt(2.0) / np.cosh(1.1 * g.nodes)
    with pytest.raises(ValueError, match="positivity lost"):
        solve_soliton(1.0, PotentialSpec("zero", 0.0), PolynomialNonlinearity((1.0,)), g,
                      initial_guess=seed)


def _sparse_band(ab):
    """A (2, 2) band such as fd_d2_band as a scipy.sparse CSR matrix (a
    dia_matrix has the same layout)."""
    n = ab.shape[1]
    return sparse.dia_matrix((ab, range(2, -3, -1)), shape=(n, n)).tocsr()


def test_singular_lplus_reported():
    """With f = 0 and no trap, L_plus = -d2 + lam, singular to roundoff
    when lam is the eigenvalue nearest zero of the FD4 d2 that the guard
    factors: the band on the even half grid (Grid.fold), whose
    eigenvectors the random probe excites."""
    g = make_grid(20.0, 256)
    half = _sparse_band(g.fold(g.fd_d2_band())).toarray()
    lam = float(np.max(np.linalg.eigvals(half).real))
    prof = SolitonProfile(lam=lam, potential=PotentialSpec("zero", 0.0),
                          nonlinearity=PolynomialNonlinearity((0.0,)), grid=g,
                          phi=np.exp(-g.nodes**2), phi_lam=None, residual_sup=0.0,
                          mass=0.0, tail_rate=0.0)
    with pytest.raises(ValueError, match="L_plus singular"):
        solve_dlambda(prof)


@pytest.mark.parametrize("L, N", [(60.0, 3072), (800.0, 32768)])
def test_banded_lplus_matches_sparse_solve(default_profile, L, N):
    """The band LU of L_plus solves the sparse FD4 L_plus as SuperLU does.

    Both are backward stable: the residual under the sparse matrix is at
    roundoff relative to |L_plus| |u| (measured <= 1.4e-16).  Their
    solutions then differ by roundoff times cond(L_plus), ~1e4 on the
    L = 60 grid, so the forward gap is held to 1e-12 (measured <= 3.2e-14).
    """
    g = make_grid(L, N)
    lam, V, f = default_profile.lam, default_profile.potential, default_profile.nonlinearity
    a = np.sqrt(lam) * np.abs(g.nodes)
    phi = 2.0 * np.sqrt(2.0 * lam) * np.exp(-a) / (1.0 + np.exp(-2.0 * a))   # sech, no overflow
    diag = _lplus_diag(lam + V(g.nodes), f, phi)
    lplus = (-_sparse_band(g.fd_d2_band()) + sparse.diags(diag)).tocsc()
    norm = abs(lplus).sum(axis=1).max()
    sparse_lu = splu(lplus)
    banded = _lplus_solver(-g.fd_d2_band(), diag)
    for rhs in (-phi, g.nodes * phi, g.nodes**2 * phi):
        u, want = banded(rhs), sparse_lu.solve(rhs)
        assert np.max(np.abs(lplus @ u - rhs)) <= 1e-15 * norm * np.max(np.abs(u))
        assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))


class _FullGridFamily(SolitonFamily):
    """The family with whole profiles in its cache: the same seeds and solves."""

    def profile(self, lam):
        key = round(float(lam), 12)
        if key not in self._cache:
            seed = seed_lam = None
            if self._cache:
                near = self._cache[min(self._cache, key=lambda k: abs(k - lam))]
                d = lam - near.lam
                seed = near.phi + d * near.phi_lam + 0.5 * d * d * near.phi_lamlam
                seed_lam = (near.phi_lam + d * near.phi_lamlam)[self.grid.half()]
            prof = solve_soliton(lam, self.potential, self.nonlinearity, self.grid,
                                 initial_guess=seed)
            self._cache[key] = solve_dlambda(prof, seed=seed_lam)
        return self._cache[key]


PROFILE_FIELDS = ("phi", "phi_lam", "phi_lamlam")


def test_half_grid_cache_returns_the_solved_profiles(trap, cubic):
    g = make_grid(30.0, 512)
    family, ref = SolitonFamily(trap, cubic, g), _FullGridFamily(trap, cubic, g)
    for lam in (2.0, 2.05, 2.0, 1.97, 2.05, 2.03, 1.97 + 1e-14, 2.0):
        got, want = family.profile(lam), ref.profile(lam)
        for name in PROFILE_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert (got.lam, got.mass, got.residual_sup, got.tail_rate) == \
               (want.lam, want.mass, want.residual_sup, want.tail_rate)
    assert family._cache.keys() == ref._cache.keys()
    # each cached profile keeps N/2 of the N nodes of its three fields
    full = sum(getattr(p, name).nbytes for p in ref._cache.values() for name in PROFILE_FIELDS)
    held = sum(getattr(p, name).nbytes for p in family._cache.values() for name in PROFILE_FIELDS)
    assert held == full // 2


def test_family_miss_stays_on_the_half_grid(monkeypatch, trap, cubic):
    """A profile miss, cold or seeded, never takes the full-grid FFT derivative."""
    def full_grid(*args):
        raise AssertionError("Grid.spectral_d2 called")

    monkeypatch.setattr(Grid, "spectral_d2", full_grid)
    family = SolitonFamily(trap, cubic, make_grid(30.0, 512))
    for lam in (2.0, 2.05, 2.0):
        assert family.profile(lam).phi_lamlam is not None
    assert len(family._cache) == 2


def test_cache_hit_is_not_mutated_through_a_returned_profile(trap, cubic):
    family = SolitonFamily(trap, cubic, make_grid(30.0, 512))
    first = family.profile(2.0)
    want = {name: getattr(first, name).copy() for name in PROFILE_FIELDS}
    for prof in (first, family.profile(2.0)):
        for name in PROFILE_FIELDS:
            getattr(prof, name)[:] = 0.0
    again = family.profile(2.0)
    for name in PROFILE_FIELDS:
        assert np.array_equal(getattr(again, name), want[name])


def test_family_cache_evicts_the_least_recently_used(monkeypatch, trap, cubic):
    family = SolitonFamily(trap, cubic, make_grid(30.0, 512))
    lam0 = 2.0
    family.profile(lam0)
    calls = []
    solve = solitons.solve_soliton
    monkeypatch.setattr(solitons, "solve_soliton", lambda *a, **k: calls.append(1) or solve(*a, **k))
    lams = lam0 + 0.005 * np.arange(1, 2 * FAMILY_CACHE_SIZE + 1)
    first = family.profile(lams[0])
    for lam in lams[1:]:
        family.profile(lam)
        family.profile(lam0)                  # the hot lambda, as in a stability run
    assert len(calls) == lams.size             # every lam0 query was a hit
    assert len(family._cache) == FAMILY_CACHE_SIZE
    assert round(lam0, 12) in family._cache and round(lams[0], 12) not in family._cache
    again = family.profile(lams[0])            # evicted, so solved again
    assert len(calls) == lams.size + 1
    assert family.misses == len(calls) + 1     # and lam0's first solve
    for name in PROFILE_FIELDS:
        want = getattr(first, name)
        assert np.max(np.abs(getattr(again, name) - want)) < 1e-12 * np.max(np.abs(want)), name


def test_power_law_standing_wave_forms():
    g = make_grid(40.0, 2048)
    phi, res_printed = power_law_standing_wave(0.0, g)
    assert np.isfinite(res_printed)
    # the printed prefactor exponent is inconsistent: residual is O(1)
    assert res_printed > 1e-2
    phi_c, res_corrected = power_law_standing_wave(0.0, g, corrected_prefactor=True)
    assert res_corrected < 1e-10
    # corrected eps=0 form is the exact critical standing wave
    exact = 3.0**0.25 * np.sqrt(1.0 / np.cosh(2 * g.nodes))
    assert np.max(np.abs(phi_c - exact)) < 1e-10
