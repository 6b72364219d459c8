"""Trapped ground states and their frequency derivatives.

The standing-wave profile phi > 0 solves

    -phi'' + (lam + V_h(x)) phi - f(phi^2) phi = 0

on the grid.  The solver is a damped Newton iteration whose residual is
evaluated spectrally (periodic FFT Laplacian, tails are far below
truncation) and whose linear solves use a banded 4th-order
finite-difference Jacobian as a defect-correction preconditioner.  That
combination converges to the continuum profile to ~1e-12 while keeping
every linear solve O(N).

The frequency derivative d(phi)/d(lam) solves L_plus dphi = -phi with the
same defect-correction scheme, and the mass scan N(lam) provides the
orbital-stability index dN/dlam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import splu

from .grids import (
    ComplexField,
    Grid,
    PolynomialNonlinearity,
    PotentialSpec,
    fit_exponential_decay,
    make_grid,
    validate_assumptions,
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


@dataclass(frozen=True)
class SolitonProfile:
    """Ground state phi, optionally with its lambda-derivative attached."""

    lam: float
    potential: PotentialSpec
    nonlinearity: PolynomialNonlinearity
    grid: Grid
    phi: np.ndarray
    phi_lam: Optional[np.ndarray]
    residual_sup: float
    mass: float
    tail_rate: float  # fitted decay exponent of phi

    def field(self) -> ComplexField:
        return ComplexField(self.grid, self.phi.astype(complex), parity="even")


def _residual(grid: Grid, lam, V, f, phi):
    vh = V(grid.nodes)
    return np.real(-grid.spectral_d2(phi) + (lam + vh) * phi - f.f(phi**2) * phi)


def _lplus_matrix(grid: Grid, lam, V, f, phi):
    # L_plus = -d2 + V_h + lam - f(phi^2) - 2 f'(phi^2) phi^2, banded FD4
    d2 = grid.fd_d2_matrix()
    vh = V(grid.nodes)
    diag = vh + lam - f.f(phi**2) - 2.0 * f.fprime(phi**2) * phi**2
    from scipy import sparse

    return (-d2 + sparse.diags(diag)).tocsc()


def solve_soliton(
    lam: float,
    V: PotentialSpec,
    f: PolynomialNonlinearity,
    grid: Grid,
    initial_guess: Optional[np.ndarray] = None,
    max_iter: int = 60,
    tol: float = TARGET_TOL,
    accept_tol: float = RESIDUAL_TOL,
) -> SolitonProfile:
    """Damped Newton solve of the profile equation with positivity guard.

    The initial guess is A*sech(sqrt(lam_eff) x) with A the positive root
    of the effective potential, lam_eff = lam + V(0), unless one is
    passed in (continuation).  Iterates are symmetrized every step, and a
    Newton step is halved (up to 30 times) whenever it would lose
    positivity.
    """
    report = validate_assumptions(f, V, lam, grid)
    x = grid.nodes
    lam_eff = lam + V.v0()
    if initial_guess is None:
        if lam_eff <= 0:
            raise ValueError("Newton diverged: no localized seed for lam + V(0) <= 0")
        # pure powers f = c s^m have the exact profile
        # ((m+1) lam / c)^(1/2m) sech^(1/m)(m sqrt(lam) x); use that width
        # for the dominant power so supercritical seeds start close
        nz = [m for m, c in enumerate(f.coefficients, start=1) if c != 0.0]
        m_dom = nz[0] if len(nz) == 1 else 1
        initial_guess = report.root * np.cosh(m_dom * np.sqrt(lam_eff) * x) ** (-1.0 / m_dom)
    phi = grid.symmetrize(np.asarray(initial_guess, dtype=float))

    res = _residual(grid, lam, V, f, phi)
    res_sup = float(np.max(np.abs(res)))
    stalled = 0
    for _ in range(max_iter):
        if res_sup < tol or (stalled >= 2 and res_sup < accept_tol):
            break
        lu = splu(_lplus_matrix(grid, lam, V, f, phi))
        step = lu.solve(res)
        step = np.real(step)
        damping = 1.0
        for _half in range(30):
            cand = grid.symmetrize(phi - damping * step)
            # tolerate roundoff-level sign flips in the underflowed tail
            if np.min(cand) > -1e-13 * np.max(cand):
                new_res = _residual(grid, lam, V, f, cand)
                new_sup = float(np.max(np.abs(new_res)))
                if new_sup < res_sup or new_sup < tol:
                    stalled = stalled + 1 if new_sup > 0.5 * res_sup else 0
                    phi, res, res_sup = cand, new_res, new_sup
                    break
            damping *= 0.5
        else:
            if res_sup < accept_tol:
                break
            raise ValueError("positivity lost")
    else:
        if res_sup >= accept_tol:
            raise ValueError(f"Newton diverged (last residual {res_sup:.3e})")

    if np.min(phi) < -1e-11 * np.max(phi):
        raise ValueError("positivity lost")
    phi = np.where(phi > 0, phi, 1e-250)
    mass = float(np.real(grid.integrate(phi**2)))
    quarter = x > grid.L / 2
    rate, _ = fit_exponential_decay(x[quarter], phi[quarter])
    return SolitonProfile(
        lam=float(lam),
        potential=V,
        nonlinearity=f,
        grid=grid,
        phi=phi,
        phi_lam=None,
        residual_sup=res_sup,
        mass=mass,
        tail_rate=rate,
    )


def solve_dlambda(profile: SolitonProfile) -> SolitonProfile:
    """Attach dphi/dlam, the solution of L_plus dphi = -phi.

    Defect-correction iteration against the spectral L_plus with the
    banded FD4 factorization as preconditioner; raises when the banded
    L_plus is numerically singular (lambda at a bifurcation point).
    """
    if profile.residual_sup > 10 * RESIDUAL_TOL:
        raise ValueError("profile residual too large for derivative solve")
    grid, lam = profile.grid, profile.lam
    V, f, phi = profile.potential, profile.nonlinearity, profile.phi
    mat = _lplus_matrix(grid, lam, V, f, phi)
    # crude singularity guard: inverse power step on a random probe
    lu = splu(mat)
    rng = np.random.default_rng(0)
    probe = grid.symmetrize(rng.standard_normal(grid.N))
    grow = grid.norm(lu.solve(probe)) / max(grid.norm(probe), 1e-300)
    if grow > 1e10:
        raise ValueError("L_plus singular")

    vh = V(grid.nodes)
    diag = vh + lam - f.f(phi**2) - 2.0 * f.fprime(phi**2) * phi**2

    def lplus_apply(u):
        return np.real(-grid.spectral_d2(u) + diag * u)

    rhs = -phi
    u = lu.solve(rhs)
    for _ in range(12):
        defect = rhs - lplus_apply(u)
        if grid.norm(defect) < 1e-11 * max(grid.norm(rhs), 1e-300):
            break
        u = u + lu.solve(defect)
    u = grid.symmetrize(np.real(u))
    rel = grid.norm(lplus_apply(u) + phi) / grid.norm(phi)
    if rel > 1e-8:
        raise ValueError(f"derivative solve did not converge (rel {rel:.2e})")
    return SolitonProfile(
        lam=profile.lam,
        potential=profile.potential,
        nonlinearity=profile.nonlinearity,
        grid=grid,
        phi=profile.phi,
        phi_lam=u,
        residual_sup=profile.residual_sup,
        mass=profile.mass,
        tail_rate=profile.tail_rate,
    )


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
    lams = np.asarray(sorted(float(v) for v in lam_values))
    if np.any(np.diff(lams) <= 0):
        raise ValueError("lambda samples must be strictly increasing")
    masses = []
    prev = None
    for lam in lams:
        try:
            prof = solve_soliton(lam, V, f, grid, initial_guess=prev)
        except ValueError:
            prof = solve_soliton(lam, V, f, grid)
        masses.append(prof.mass)
        prev = prof.phi
    masses = np.array(masses)
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
    lambda along a trajectory; Newton restarts from the nearest cached
    profile, so successive queries cost a couple of banded solves.
    """

    def __init__(self, V: PotentialSpec, f: PolynomialNonlinearity, grid: Grid):
        self.potential = V
        self.nonlinearity = f
        self.grid = grid
        self._cache: dict = {}

    def profile(self, lam: float) -> SolitonProfile:
        key = round(float(lam), 12)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        seed = None
        if self._cache:
            nearest = min(self._cache, key=lambda k: abs(k - lam))
            seed = self._cache[nearest].phi
        prof = solve_soliton(lam, self.potential, self.nonlinearity, self.grid, initial_guess=seed)
        prof = solve_dlambda(prof)
        self._cache[key] = prof
        return prof

    def phi_lamlam(self, lam: float, step: float = 1e-4) -> np.ndarray:
        """Second lambda-derivative by centered differences of phi_lam."""
        lo = self.profile(lam - step)
        hi = self.profile(lam + step)
        return (hi.phi_lam - lo.phi_lam) / (2 * step)


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
