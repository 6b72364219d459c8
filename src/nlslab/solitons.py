"""Trapped ground states and their frequency derivatives.

The standing-wave profile phi > 0 solves

    -phi'' + (lam + V_h(x)) phi - f(phi^2) phi = 0

on the grid.  V_h and phi are even, so the solve runs on the N/2
samples x = 0, dx, ..., L - dx of the even half grid (Grid.half), the
one that dynamics.evolve_nls steps on, and profiles are returned on the
full grid by Grid.unfold.  The solver is a damped Newton iteration whose
residual is evaluated spectrally (the DCT-I Laplacian Grid.even_d2,
tails are far below truncation) and whose linear solves use a banded
4th-order finite-difference Jacobian as a defect-correction
preconditioner.  That combination converges to the continuum profile to
~1e-12 while keeping every linear solve O(N).  The FD4 Jacobian is the
band Grid.fd_d2_band folded onto the half grid (Grid.fold, laid out once
per solve); each Newton step adds its diagonal and takes one LAPACK band
LU (grids.band_solver).

The frequency derivatives come from one banded factor of L_plus: with
G(phi) = f(phi^2) phi, differentiating the profile equation in lam gives

    L_plus phi_lam    = -phi
    L_plus phi_lamlam = -2 phi_lam + G''(phi) phi_lam^2,

both solved by the same defect correction against the spectral L_plus.
The mass scan N(lam) provides the orbital-stability index dN/dlam.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grids import (
    Grid,
    PolynomialNonlinearity,
    PotentialSpec,
    band_plus_diagonal,
    band_solver,
    fit_exponential_decay,
    soliton_root,
)

__all__ = [
    "SolitonProfile",
    "StabilityScan",
    "SolitonFamily",
    "solve_soliton",
    "solve_dlambda",
    "stability_scan",
    "power_law_standing_wave",
]

# the contract demands 1e-9; the solver iterates to near machine level so
# downstream lambda-derivatives and modulation solves see a smooth family
RESIDUAL_TOL = 1e-9
TARGET_TOL = 5e-13
NEWTON_MAX_ITER = 60
# profiles a SolitonFamily keeps; a stability run reads only lam0 and the
# profiles it solved last
FAMILY_CACHE_SIZE = 32


@dataclass(frozen=True)
class SolitonProfile:
    """Ground state phi, optionally with its lambda-derivatives attached."""

    lam: float
    potential: PotentialSpec
    nonlinearity: PolynomialNonlinearity
    grid: Grid
    phi: np.ndarray
    phi_lam: Optional[np.ndarray]
    residual_sup: float
    mass: float
    tail_rate: float  # fitted decay exponent of phi
    phi_lamlam: Optional[np.ndarray] = None


def _residual(grid: Grid, lam_v, f, phi):
    """The profile equation at Grid.half(); lam_v = lam + V_h there."""
    return -grid.even_d2(phi) + lam_v * phi - f.f(phi**2) * phi


def _lplus_diag(lam_v, f, phi):
    # L_plus = -d2 + diag, diag = lam + V_h - f(phi^2) - 2 f'(phi^2) phi^2
    s = phi**2
    return lam_v - f.f(s) - 2.0 * f.fprime(s) * s


def _lplus_solver(neg_d2: np.ndarray, diag: np.ndarray):
    """rhs -> L_plus^-1 rhs for the banded FD4 L_plus: -d2 in band storage, plus diag."""
    return band_solver(band_plus_diagonal(neg_d2, diag))


def _positive(phi):
    """phi with each entry <= 0 (roundoff in the underflowed tail, and the
    node x = -L, which Grid.unfold sets to 0) raised to 1e-250."""
    return np.where(phi > 0, phi, 1e-250)


def solve_soliton(
    lam: float,
    V: PotentialSpec,
    f: PolynomialNonlinearity,
    grid: Grid,
    initial_guess: Optional[np.ndarray] = None,
) -> SolitonProfile:
    """Damped Newton solve of the profile equation with positivity guard.

    The initial guess is A*sech(sqrt(lam_eff) x) with A the positive root
    of the effective potential, lam_eff = lam + V(0), unless one is
    passed in (continuation; an even field).  Newton runs on the even
    half grid, and a step is halved (up to 30 times) whenever it would
    lose positivity.  The tail rate is fitted on 1e-9 < phi / max phi <
    1e-3, in the tail and far above phi's ~1e-16 roundoff: 1e-16 seed
    perturbations move it by ~1e-10 there (~1e-6 with a 1e-13 floor).
    """
    root = soliton_root(f, V, lam)
    half = grid.half()
    x = grid.nodes[half]
    lam_v = lam + V(x)
    lam_eff = lam + V.v0()
    if initial_guess is None:
        if lam_eff <= 0:
            raise ValueError("Newton diverged: no localized seed for lam + V(0) <= 0")
        # pure powers f = c s^m have the exact profile
        # ((m+1) lam / c)^(1/2m) sech^(1/m)(m sqrt(lam) x); use that width
        # for the dominant power so supercritical seeds start close
        nz = [m for m, c in enumerate(f.coefficients, start=1) if c != 0.0]
        m_dom = nz[0] if len(nz) == 1 else 1
        # sech^(1/m)(a) through log cosh a = a + log1p(e^(-2a)) - log 2,
        # which does not overflow cosh on wide boxes
        a = m_dom * np.sqrt(lam_eff) * x
        log_cosh = a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)
        phi = root * np.exp(-log_cosh / m_dom)
    else:
        phi = np.asarray(initial_guess, dtype=float)[half]

    res = _residual(grid, lam_v, f, phi)
    res_sup = float(np.max(np.abs(res)))
    neg_d2 = grid.fold(-grid.fd_d2_band())
    stalled = 0
    for _ in range(NEWTON_MAX_ITER):
        if res_sup < TARGET_TOL or (stalled >= 2 and res_sup < RESIDUAL_TOL):
            break
        step = _lplus_solver(neg_d2, _lplus_diag(lam_v, f, phi))(res)
        damping = 1.0
        for _half in range(30):
            cand = phi - damping * step
            # tolerate roundoff-level sign flips in the underflowed tail
            if np.min(cand) > -1e-13 * np.max(cand):
                new_res = _residual(grid, lam_v, f, cand)
                new_sup = float(np.max(np.abs(new_res)))
                if new_sup < res_sup or new_sup < TARGET_TOL:
                    stalled = stalled + 1 if new_sup > 0.5 * res_sup else 0
                    phi, res, res_sup = cand, new_res, new_sup
                    break
            damping *= 0.5
        else:
            if res_sup < RESIDUAL_TOL:
                break
            raise ValueError("positivity lost")
    else:
        if res_sup >= RESIDUAL_TOL:
            raise ValueError(f"Newton diverged (last residual {res_sup:.3e})")

    if np.min(phi) < -1e-11 * np.max(phi):
        raise ValueError("positivity lost")
    phi = _positive(grid.unfold(phi))
    tail = (grid.nodes > 0) & (phi < 1e-3 * np.max(phi))
    return SolitonProfile(
        lam=float(lam),
        potential=V,
        nonlinearity=f,
        grid=grid,
        phi=phi,
        phi_lam=None,
        residual_sup=res_sup,
        mass=float(grid.integrate(phi**2)),
        tail_rate=fit_exponential_decay(grid.nodes[tail], phi[tail], floor=1e-9 * np.max(phi))[0],
    )


def _even_norm(grid: Grid, h):
    """Grid.norm of the even field with the half-grid samples h (real), summed
    on the half grid with the node weights of Grid.unfold: 1 at x = 0, 2
    elsewhere."""
    return float(np.sqrt(grid.dx * (2.0 * (h @ h) - h[0] ** 2)))


def _defect_solve(grid: Grid, solve, diag, rhs, seed=None):
    """Spectral L_plus u = rhs at Grid.half() by defect correction on the
    banded solve, started from seed when one is given and from the banded
    solution otherwise: at most 12 corrections, and the last defect norm
    measured is the one checked."""
    scale = _even_norm(grid, rhs)
    u = solve(rhs) if seed is None else seed
    for corrections in range(13):
        defect = rhs - (diag * u - grid.even_d2(u))          # rhs - L_plus u
        err = _even_norm(grid, defect)
        if err < 1e-11 * max(scale, 1e-300) or corrections == 12:
            break
        u = u + solve(defect)
    rel = err / scale
    if rel > 1e-8:
        raise ValueError(f"derivative solve did not converge (rel {rel:.2e})")
    return u


def solve_dlambda(profile: SolitonProfile, seed=None) -> SolitonProfile:
    """Attach phi_lam and phi_lamlam, solved with one banded L_plus factor.

    L_plus phi_lam = -phi and L_plus phi_lamlam = -2 phi_lam + G''(phi)
    phi_lam^2 (G(phi) = f(phi^2) phi) by defect correction against the
    spectral L_plus, on the even half grid, the first from seed (half-grid
    samples of phi_lam) when one is given; raises when the banded L_plus
    is numerically singular (lambda at a bifurcation point).
    """
    if profile.residual_sup > 10 * RESIDUAL_TOL:
        raise ValueError("profile residual too large for derivative solve")
    grid, f = profile.grid, profile.nonlinearity
    half = grid.half()
    phi = profile.phi[half]
    diag = _lplus_diag(profile.lam + profile.potential(grid.nodes[half]), f, phi)
    solve = _lplus_solver(grid.fold(-grid.fd_d2_band()), diag)
    # crude singularity guard: inverse power step on a random probe
    probe = np.random.default_rng(0).standard_normal(phi.size)
    grow = _even_norm(grid, solve(probe)) / max(_even_norm(grid, probe), 1e-300)
    if grow > 1e10:
        raise ValueError("L_plus singular")

    phi_lam = _defect_solve(grid, solve, diag, -phi, seed)
    # G''(phi) = 6 phi f'(phi^2) + 4 phi^3 f''(phi^2) = phi sum_m 2m(2m+1) c_m phi^(2m-2)
    g2 = phi * np.polynomial.polynomial.polyval(
        phi**2, [2 * m * (2 * m + 1) * c for m, c in enumerate(f.coefficients, start=1)])
    phi_lamlam = _defect_solve(grid, solve, diag, -2.0 * phi_lam + g2 * phi_lam**2)
    return replace(profile, phi_lam=grid.unfold(phi_lam), phi_lamlam=grid.unfold(phi_lamlam))


@dataclass(frozen=True)
class StabilityScan:
    """Mass curve N(lam) and its centered derivative over a lambda scan."""

    lam_values: np.ndarray
    masses: np.ndarray
    dmass: np.ndarray            # centered differences at interior samples
    admissible: tuple            # (lam_lo, lam_hi) of the contiguous dN/dlam > 0 window

    def admissible_contains(self, lam: float) -> bool:
        return self.admissible[0] <= lam <= self.admissible[1]


def stability_scan(
    lam_values,
    V: PotentialSpec,
    f: PolynomialNonlinearity,
    grid: Grid,
) -> StabilityScan:
    """Mass N(lam) at each sample, each profile solved cold as by
    solve_soliton, so a sample's mass does not depend on where the scan
    starts; dN/dlam by centered differences at the interior samples."""
    lams = np.asarray(sorted(float(v) for v in lam_values))
    if np.any(np.diff(lams) <= 0):
        raise ValueError("lambda samples must be strictly increasing")
    masses = np.array([solve_soliton(lam, V, f, grid).mass for lam in lams])
    dmass = np.full_like(masses, np.nan)
    dmass[1:-1] = (masses[2:] - masses[:-2]) / (lams[2:] - lams[:-2])
    positive = np.where(dmass[1:-1] > 0)[0] + 1
    if positive.size:
        # longest contiguous positive run
        runs = np.split(positive, np.where(np.diff(positive) > 1)[0] + 1)
        best = max(runs, key=len)
        admissible = (float(lams[best[0]]), float(lams[best[-1]]))
    else:
        admissible = (np.nan, np.nan)
    return StabilityScan(lams, masses, dmass, admissible)


class SolitonFamily:
    """Cache of profiles phi^lam (with derivatives) over the family.

    Used by the modulation machinery, which needs profiles at arbitrary
    lambda along a trajectory.  Newton restarts from the Taylor polynomial
    phi + d phi_lam + d^2/2 phi_lamlam of the nearest cached profile (d =
    lam - its lambda), and the phi_lam solve of solve_dlambda from that
    model's phi_lam + d phi_lamlam, so a query costs a few banded solves.

    phi, phi_lam and phi_lamlam are even, so the cache keeps each as its
    N/2 samples at Grid.half() and rebuilds it with Grid.unfold, and phi
    with the positivity floor that solve_soliton gives x = -L.  Every call
    returns fresh arrays, bitwise equal to the solved ones.  The cache
    keeps the FAMILY_CACHE_SIZE most recently used profiles: a hit moves
    its entry to the end and a miss past the cap evicts the least recently
    used one, so a lambda queried on every run stays cached.  misses
    counts the profiles it has solved.
    """

    _FIELDS = ("phi", "phi_lam", "phi_lamlam")

    def __init__(self, V: PotentialSpec, f: PolynomialNonlinearity, grid: Grid):
        self.potential = V
        self.nonlinearity = f
        self.grid = grid
        self._cache: OrderedDict = OrderedDict()
        self.misses = 0

    def _mapped(self, prof: SolitonProfile, fn) -> SolitonProfile:
        return replace(prof, **{name: fn(getattr(prof, name)) for name in self._FIELDS})

    def profile(self, lam: float) -> SolitonProfile:
        key = round(float(lam), 12)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            full = self._mapped(hit, self.grid.unfold)
            return replace(full, phi=_positive(full.phi))
        seed = seed_lam = None
        if self._cache:
            near = self._cache[min(self._cache, key=lambda k: abs(k - lam))]
            d = lam - near.lam
            seed = self.grid.unfold(near.phi + d * near.phi_lam + 0.5 * d * d * near.phi_lamlam)
            seed_lam = near.phi_lam + d * near.phi_lamlam
        prof = solve_soliton(lam, self.potential, self.nonlinearity, self.grid, initial_guess=seed)
        prof = solve_dlambda(prof, seed=seed_lam)
        self.misses += 1
        self._cache[key] = self._mapped(prof, lambda u: u[self.grid.half()])
        if len(self._cache) > FAMILY_CACHE_SIZE:
            self._cache.popitem(last=False)
        return prof


def power_law_standing_wave(eps: float, grid: Grid, corrected_prefactor: bool = False):
    """Closed-form standing wave for the near-critical power nonlinearity.

    Evaluates the printed closed form

        phi(x) = (12 - 4 eps)^(-1/(4-2 eps)) [e^((2-eps)x) + e^(-(2-eps)x)]^(-1/(2-eps))

    for f(u) = u^(2-eps) at unit frequency, together with the sup-norm
    residual of -phi'' + phi - phi^(2(2-eps)) phi = 0.  The prefactor
    exponent of the printed form looks inconsistent with the standard
    quintic normalization, so the residual is reported rather than
    asserted; pass corrected_prefactor=True for the variant with the
    prefactor power +1/(4-2 eps), whose residual should vanish.
    """
    x = grid.nodes
    p = 2.0 - eps
    expo = 1.0 / (4.0 - 2.0 * eps)
    pref = (12.0 - 4.0 * eps) ** (expo if corrected_prefactor else -expo)
    phi = pref * (np.exp(p * x) + np.exp(-p * x)) ** (-1.0 / p)
    res = np.real(-grid.spectral_d2(phi) + phi - phi ** (2.0 * p) * phi)
    interior = np.abs(x) < grid.L - 5.0
    return phi, float(np.max(np.abs(res[interior])))
