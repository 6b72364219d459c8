"""Nonlinear evolution, modulation decomposition, and the stability run.

The full equation i psi_t = -psi_xx + V_h psi - f(|psi|^2) psi is stepped
with the conservative Crank-Nicolson scheme (the nonlinear term uses the
difference quotient of the primitive F, which makes both invariants
exact up to the nonlinear-solver tolerance).  A split-step Fourier
integrator doubles as a cross-check oracle.

Solutions near the soliton family are decomposed as

    psi(t) = e^(i integral(lam) + i gamma) (phi^lam + R)

with (lam, gamma) fixed by the two symplectic orthogonality constraints
Re<R, phi> = Im<R, phi_lam> = 0 (a 2d Newton solve), which puts R in the
essential-spectrum subspace of the linearization.  The 2x2 modulation
system then gives (lam_dot, gamma_dot) with right sides quadratic in R,
and the frozen-frame split g = i k1 phi + k2 phi_lam + h isolates the
dispersive part h whose weighted norm is the decay observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .grids import ComplexField, Grid, PolynomialNonlinearity, PotentialSpec
from .solitons import SolitonFamily, SolitonProfile

__all__ = [
    "EvolutionState",
    "ModulationState",
    "StabilityReport",
    "evolve_nls",
    "split_step_oracle",
    "modulation_decompose",
    "modulation_rhs",
    "frozen_frame_decompose",
    "stability_experiment",
]

# Fixed-point solve of each implicit step, relative to max(1, max|psi|).
# The update contracts by ~1e-2 per iteration down to a roundoff floor,
# which lies between 1e-14 and 1e-8 on the default stability datum; below
# FP_FLOOR an update that stops shrinking is that floor, and further
# iterations only resample it.
FP_TOL = 1e-13
FP_FLOOR = 1e-6
FP_MAX = 30


@dataclass(frozen=True)
class EvolutionState:
    """One time slice of the nonlinear flow with conserved diagnostics."""

    t: float
    psi: np.ndarray
    mass: float
    energy: float
    weighted_norm: float  # ||(1+|x|) psi||_2
    parity_defect: float


def hamiltonian(grid: Grid, V: PotentialSpec, f: PolynomialNonlinearity,
                psi: np.ndarray, d2=None) -> float:
    """H = int [ (|psi_x|^2 + V |psi|^2)/2 - F(|psi|^2) ], F = (1/2) int f."""
    if d2 is None:
        dpsi = grid.spectral_d1(psi)
        kin = 0.5 * np.real(grid.integrate(np.abs(dpsi) ** 2))
    else:
        kin = -0.5 * np.real(grid.inner(psi, d2 @ psi))
    dens = np.abs(psi) ** 2
    pot = 0.5 * np.real(grid.integrate(V(grid.nodes) * dens))
    nl = 0.5 * np.real(grid.integrate(f.antiderivative(dens)))
    return float(kin + pot - nl)


def _nl_quotient(f: PolynomialNonlinearity, s_new: np.ndarray, s_old: np.ndarray):
    """Difference quotient of the primitive: [F2(s+) - F2(s)] / (s+ - s).

    With F2(s) = sum_m c_m s^(m+1)/(m+1) it is the division-free closed
    form sum_m c_m/(m+1) h_m, h_m = sum_{j=0..m} s+^j s^(m-j), built by
    h_m = s+ h_(m-1) + s^m.  It does not cancel and equals f(s) at s+ = s.
    """
    h = np.ones_like(s_new)
    s_pow = np.ones_like(s_old)
    quot = np.zeros_like(s_new)
    for m, c in enumerate(f.coefficients, start=1):
        s_pow = s_pow * s_old
        h = s_new * h + s_pow
        quot = quot + c / (m + 1) * h
    return quot


def evolve_nls(
    psi0: np.ndarray,
    V: PotentialSpec,
    f: PolynomialNonlinearity,
    grid: Grid,
    T: float,
    dt: float,
    sample_every: int = 50,
    enforce_parity: bool = True,
    conservation_tol: float = 1e-6,
):
    """Conservative Crank-Nicolson trajectory of the nonlinear equation.

    Returns a list of EvolutionState samples (always including t = 0 and
    t = T).  The implicit step is solved by fixed-point iteration on the
    nonlinear part around a prefactored banded linear solve; iterating to
    the roundoff floor keeps the scheme's exact invariants at roundoff
    level.  Raises when FP_MAX iterations do not reach that floor.
    """
    if dt > 0.01 + 1e-15:
        raise ValueError("time step must satisfy dt <= 0.01")
    psi = np.asarray(psi0, dtype=complex).copy()
    if enforce_parity and grid.parity_defect(psi) > 1e-8 * max(1.0, np.max(np.abs(psi))):
        raise ValueError("initial datum must be even")

    d2 = grid.fd_d2_matrix(order=4).tocsc()
    vh = V(grid.nodes)
    lin = (-d2 + sparse.diags(vh)).tocsc()
    eye = sparse.identity(grid.N, format="csc")
    lhs = splu((eye + 0.5j * dt * lin).tocsc())
    rhs_mat = (eye - 0.5j * dt * lin).tocsc()

    n_steps = int(round(T / dt))
    states = []

    def snapshot(t, u):
        mass = float(np.real(grid.integrate(np.abs(u) ** 2)))
        en = hamiltonian(grid, V, f, u, d2=d2)
        wn = float(np.sqrt(np.real(grid.integrate(((1 + np.abs(grid.nodes)) * np.abs(u)) ** 2))))
        states.append(EvolutionState(
            t=float(t), psi=u.copy(), mass=mass, energy=en,
            weighted_norm=wn, parity_defect=grid.parity_defect(u),
        ))

    snapshot(0.0, psi)
    mass0 = states[0].mass
    energy0 = states[0].energy
    escale = max(abs(energy0), 1.0)

    for step in range(1, n_steps + 1):
        base = rhs_mat @ psi
        s_old = np.abs(psi) ** 2
        new = psi.copy()
        prev = np.inf
        for _ in range(FP_MAX):
            s_new = np.abs(new) ** 2
            chi = _nl_quotient(f, s_new, s_old)
            cand = lhs.solve(base + 0.5j * dt * chi * (new + psi))
            delta = np.max(np.abs(cand - new)) / max(1.0, np.max(np.abs(cand)))
            new = cand
            if delta < FP_TOL or (delta >= prev and delta < FP_FLOOR):
                break
            prev = delta
        else:
            raise ValueError(f"fixed-point iteration not settled after {FP_MAX} iterations")
        psi = grid.symmetrize(new) if enforce_parity else new
        t = step * dt
        if step % sample_every == 0 or step == n_steps:
            snapshot(t, psi)
            drift_n = abs(states[-1].mass - mass0) / max(mass0, 1e-300) / max(t, dt)
            drift_h = abs(states[-1].energy - energy0) / escale / max(t, dt)
            if drift_n > conservation_tol or drift_h > conservation_tol:
                raise ValueError("conservation breach")
            dens = np.abs(psi) ** 2
            outer = np.abs(grid.nodes) > 0.95 * grid.L
            if np.sum(dens[outer]) > 1e-5 * np.sum(dens):
                raise ValueError("boundary contamination")
    return states


def split_step_oracle(psi0, V, f, grid: Grid, T: float, dt: float):
    """Strang split-step Fourier integrator (cross-check oracle)."""
    psi = np.asarray(psi0, dtype=complex).copy()
    k2 = grid.wavenumbers**2
    half_kin = np.exp(-0.5j * dt * k2)
    vh = V(grid.nodes)
    n_steps = int(round(T / dt))
    for _ in range(n_steps):
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
        psi = psi * np.exp(-1j * dt * (vh - f.f(np.abs(psi) ** 2)))
        psi = np.fft.ifft(half_kin * np.fft.fft(psi))
    return psi


# ---------------------------------------------------------------------------
# modulation decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulationState:
    """Soliton parameters and fluctuation at one time."""

    t: float
    lam: float
    gamma: float
    fluctuation: np.ndarray       # R = e^{-i gamma} psi - phi^lam
    ortho_phi: float              # Re<R, phi>       (must vanish)
    ortho_phi_lam: float          # Im<R, phi_lam>   (must vanish)
    r_norm2: float
    r_weighted: float             # ||rho_nu R||_2
    r_sup: float
    nu: float

    def reconstruct(self, family: SolitonFamily) -> np.ndarray:
        prof = family.profile(self.lam)
        return np.exp(1j * self.gamma) * (prof.phi + self.fluctuation)


def modulation_decompose(
    psi: np.ndarray,
    lam_guess: float,
    family: SolitonFamily,
    nu: float = 4.0,
    t: float = 0.0,
    tol: float = 1e-12,
    max_iter: int = 40,
    tube_radius: float = 0.5,
) -> ModulationState:
    """2d Newton for (lam, gamma) enforcing the orthogonality constraints.

    gamma starts at the phase of <phi^lam_guess, psi>; the Jacobian uses
    the family's lambda-derivatives.  Odd input is rejected (the trapped
    even sector is the model's scope) and an iterate leaving the orbital
    neighborhood raises "outside tube".
    """
    g = family.grid
    psi = np.asarray(psi, dtype=complex)
    if g.parity_defect(psi) > 1e-8 * max(1.0, float(np.max(np.abs(psi)))):
        raise ValueError("input must be even (odd perturbations rejected)")
    prof = family.profile(lam_guess)
    gamma = float(np.angle(g.inner(prof.phi.astype(complex), psi)))
    lam = float(lam_guess)

    prev = np.inf
    stalled = 0
    for it in range(max_iter):
        prof = family.profile(lam)
        phi = prof.phi
        phi_lam = prof.phi_lam
        ip_phi = g.inner(psi, phi)        # <psi, phi>
        ip_lam = g.inner(psi, phi_lam)
        eig = np.exp(1j * gamma)
        g1 = np.real(eig * ip_phi) - prof.mass
        g2 = np.imag(eig * ip_lam)
        err = max(abs(g1), abs(g2))
        scale = max(prof.mass, 1.0)
        if err < tol * scale:
            break
        # the family itself is resolved to ~1e-12; stop at its floor
        if err > 0.5 * prev:
            stalled += 1
            if stalled >= 3 and err < 1e-9 * scale:
                break
        else:
            stalled = 0
        prev = err
        dmass = 2.0 * np.real(g.inner(phi, phi_lam))
        j11 = np.real(eig * ip_lam) - dmass            # d g1 / d lam
        j12 = -np.imag(eig * ip_phi)                   # d g1 / d gamma
        # the (2,1) entry is O(||R||); dropping it keeps the iteration
        # superlinear and saves two profile solves per step
        j21 = 0.0
        j22 = np.real(eig * ip_lam)                    # d g2 / d gamma
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            raise ValueError("decomposition Newton diverged")
        dlam = (-g1 * j22 + g2 * j12) / det
        dgam = (-j11 * g2 + j21 * g1) / det
        lam += float(np.real(dlam))
        gamma += float(np.real(dgam))
        if not np.isfinite(lam) or abs(lam - lam_guess) > 1.0:
            raise ValueError("decomposition Newton diverged")
    else:
        raise ValueError("decomposition Newton diverged")

    prof = family.profile(lam)
    R = np.exp(-1j * gamma) * psi - prof.phi
    rnorm = g.norm(R)
    if rnorm > tube_radius * np.sqrt(prof.mass):
        raise ValueError("outside tube")
    w = g.weight(nu)
    return ModulationState(
        t=float(t), lam=lam, gamma=float(np.mod(gamma, 2 * np.pi)),
        fluctuation=R,
        ortho_phi=float(np.real(g.inner(R, prof.phi.astype(complex)))),
        ortho_phi_lam=float(np.imag(g.inner(R, prof.phi_lam.astype(complex)))),
        r_norm2=float(rnorm),
        r_weighted=float(np.sqrt(np.real(g.integrate(np.abs(w * R) ** 2)))),
        r_sup=float(np.max(np.abs(R))),
        nu=nu,
    )


def nonlinear_remainder(f: PolynomialNonlinearity, phi: np.ndarray, R: np.ndarray):
    """N(R): the part of the nonlinearity beyond its linearization at phi."""
    psi = phi + R
    s_psi = np.abs(psi) ** 2
    s_phi = phi**2
    return (-f.f(s_psi) * psi + f.f(s_phi) * psi
            + f.fprime(s_phi) * s_phi * (R + np.conj(R)))


def modulation_rhs(state: ModulationState, family: SolitonFamily,
                   cond_limit: float = 1e8):
    """(lam_dot, gamma_dot) from the 2x2 symplectic modulation system.

    Projecting the fluctuation equation onto phi and phi_lam and using
    the differentiated constraints gives

        [ <phi_lam,phi> - Re<R,phi_lam>    Im<R,phi>              ] [lam_dot  ]
        [ Im<R,phi_lamlam>                 <phi_lam,phi> + Re<R,phi_lam>] [gamma_dot]
            = [ Im int(N phi),  -Re int(N phi_lam) ]

    (inner products conjugate the first slot; phi is real).  The right
    side is quadratic in R since N collects the beyond-linear part of
    the nonlinearity.
    """
    g = family.grid
    prof = family.profile(state.lam)
    phi = prof.phi
    phi_lam = prof.phi_lam
    phi_ll = family.phi_lamlam(state.lam)
    R = state.fluctuation
    pairing = np.real(g.inner(phi_lam.astype(complex), phi.astype(complex)))
    m = np.array([
        [pairing - np.real(g.inner(R, phi_lam.astype(complex))),
         np.imag(g.inner(R, phi.astype(complex)))],
        [np.imag(g.inner(R, phi_ll.astype(complex))),
         pairing + np.real(g.inner(R, phi_lam.astype(complex)))],
    ])
    if np.linalg.cond(m) > cond_limit:
        raise ValueError("modulation matrix singular")
    nr = nonlinear_remainder(family.nonlinearity, phi, R)
    rhs = np.array([
        float(np.imag(g.integrate(nr * phi))),
        -float(np.real(g.integrate(nr * phi_lam))),
    ])
    sol = np.linalg.solve(m, rhs)
    return float(sol[0]), float(sol[1]), m


def frozen_frame_decompose(series, family: SolitonFamily, T_index: int = -1):
    """Split the fluctuation along the frozen-time discrete directions.

    Given modulation samples (from modulation_decompose), freeze
    (lam1, gamma1) at sample T, build g = e^{-i Delta1} R with the phase
    mismatch Delta1 anchored so Delta1(T) = 0, project out the frozen
    discrete directions (coefficients k1, k2), and return the series
    {t, k1, k2, h} with h in the essential subspace of the frozen frame.

    In g = i k1 phi1 + k2 phi1_lam + h the imaginary part pairs with
    phi1_lam and the real part with phi1 (phi1 real):

        k1 = <phi1_lam, Im g> / c1,   k2 = <phi1, Re g> / c1,
        c1 = <phi1_lam, phi1>,

    so h obeys the frozen constraints Re<h, phi1> = Im<h, phi1_lam> = 0.
    Also reports the residual of the constraint-derived 2x2 linear system
    relating (k1, k2) to h, which vanishes up to roundoff when the
    orthogonality constraints held at every sample.
    """
    g = family.grid
    ts = np.array([s.t for s in series])
    lams = np.array([s.lam for s in series])
    gammas = np.unwrap(np.array([s.gamma for s in series]))
    iT = T_index % len(series)
    lam1, gamma1 = lams[iT], gammas[iT]
    prof1 = family.profile(lam1)
    phi1 = prof1.phi
    phi1_lam = prof1.phi_lam
    c1 = np.real(g.inner(phi1_lam.astype(complex), phi1.astype(complex)))

    # Delta1(t) = lam1 (t - T) - int_T^t lam ds + gamma1 - gamma(t)
    from scipy.integrate import cumulative_trapezoid

    int_lam = cumulative_trapezoid(lams, ts, initial=0.0)
    int_lam = int_lam - int_lam[iT]
    delta1 = lam1 * (ts - ts[iT]) - int_lam + gamma1 - gammas

    out = {"t": ts, "k1": [], "k2": [], "h": [], "system_residual": [], "delta1": delta1}
    for j, s in enumerate(series):
        gT = np.exp(-1j * delta1[j]) * s.fluctuation
        k1 = float(np.real(g.inner(phi1_lam.astype(complex), np.imag(gT).astype(complex)))) / c1
        k2 = float(np.real(g.inner(phi1.astype(complex), np.real(gT).astype(complex)))) / c1
        h = gT - 1j * k1 * phi1 - k2 * phi1_lam
        # residual of the constraint-derived 2x2 system tying (k1, k2) to h:
        # Re<R, phi(t)> and Im<R, phi_lam(t)> with R = e^{i Delta1} g
        prof_t = family.profile(s.lam)
        sin_d, cos_d = np.sin(delta1[j]), np.cos(delta1[j])
        ip_11 = np.real(g.inner(phi1.astype(complex), prof_t.phi.astype(complex)))
        ip_l1 = np.real(g.inner(phi1_lam.astype(complex), prof_t.phi.astype(complex)))
        ip_1l = np.real(g.inner(prof_t.phi_lam.astype(complex), phi1.astype(complex)))
        ip_ll = np.real(g.inner(phi1_lam.astype(complex), prof_t.phi_lam.astype(complex)))
        eh = np.exp(1j * delta1[j]) * h
        r1 = (-sin_d * ip_11 * k1 + cos_d * ip_l1 * k2
              + float(np.real(g.inner(eh, prof_t.phi.astype(complex)))))
        r2 = (-cos_d * ip_1l * k1 - sin_d * ip_ll * k2
              + float(np.imag(g.inner(eh, prof_t.phi_lam.astype(complex)))))
        scale = max(abs(k1) + abs(k2), g.norm(h) / max(abs(c1), 1e-300), 1e-300)
        out["k1"].append(k1)
        out["k2"].append(k2)
        out["h"].append(h)
        out["system_residual"].append(float(np.hypot(r1, r2) / (abs(c1) * scale)))
    out["k1"] = np.array(out["k1"])
    out["k2"] = np.array(out["k2"])
    out["system_residual"] = np.array(out["system_residual"])
    return out


# ---------------------------------------------------------------------------
# the end-to-end stability run
# ---------------------------------------------------------------------------


def _loglog_slope(t, y, t_lo, t_hi):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    sel = (t >= t_lo) & (t <= t_hi) & (y > 0)
    if np.count_nonzero(sel) < 4:
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(np.log(1.0 + t[sel]), np.log(y[sel]), 1)
    return float(slope), float(np.exp(intercept))


@dataclass(frozen=True)
class StabilityReport:
    """Series and fitted decay laws of one asymptotic-stability run."""

    times: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    rate_sum: np.ndarray          # |lam_dot| + |gamma_dot| from the 2x2 system
    r_weighted: np.ndarray        # ||rho_nu R||_2
    r_sup: np.ndarray
    mass_drift: np.ndarray
    energy_drift: np.ndarray
    ortho_residuals: np.ndarray   # max of the two constraint residuals / ||R||
    weighted_exponent: float      # fit of ||rho_nu R||
    rate_exponent: float          # fit of |lam_dot| + |gamma_dot|
    lam_inf: float
    lam_last_quarter_variation: float
    admissible: Optional[bool]
    envelope_decreasing: bool
    nu: float
    mode: str                     # "theorem" or "qualitative"

    def series_rows(self):
        for j in range(self.times.size):
            yield (self.times[j], self.lam[j], self.gamma[j], self.rate_sum[j],
                   self.r_weighted[j], self.mass_drift[j], self.energy_drift[j])


def default_bump(grid: Grid, width: float = 2.0, kind: str = "gauss"):
    """Even, smooth, localized perturbation shape of unit sup amplitude."""
    x = grid.nodes
    if kind == "gauss":
        return np.exp(-((x / width) ** 2))
    if kind == "sech":
        return 1.0 / np.cosh(x / width)
    raise ValueError("unknown bump kind")


def stability_experiment(
    family: SolitonFamily,
    lam0: float,
    gamma0: float = 0.3,
    delta: float = 1e-2,
    T: float = 60.0,
    dt: float = 4e-3,
    nu: float = 4.0,
    sample_dt: float = 1.0,
    fit_window=(5.0, 60.0),
    bump_width: float = 2.0,
    mode: str = "theorem",
    admissible_interval=None,
) -> StabilityReport:
    """Evolve e^{i gamma0}(phi^{lam0} + delta * bump) and track everything.

    The trajectory is re-decomposed at every sample time (orthogonality is
    enforced by construction rather than integrated), the modulation
    right side supplies |lam_dot| + |gamma_dot|, and weighted norms of
    the fluctuation are fitted on the stated window.
    """
    g = family.grid
    V, f = family.potential, family.nonlinearity
    prof0 = family.profile(lam0)
    chi0 = delta * default_bump(g, bump_width)
    # smallness in the theorem's norm: scale by ||x^2 chi|| + ||chi||_H1
    x = g.nodes
    h1 = np.sqrt(g.norm(chi0) ** 2 + g.norm(np.real(g.spectral_d1(chi0))) ** 2)
    size0 = float(g.norm(x**2 * chi0) + h1)
    psi0 = np.exp(1j * gamma0) * (prof0.phi + chi0)

    sample_every = max(1, int(round(sample_dt / dt)))
    states = evolve_nls(psi0, V, f, g, T=T, dt=dt, sample_every=sample_every)

    times, lams, gammas, rates = [], [], [], []
    rws, rsups, orthos = [], [], []
    mdrift, edrift = [], []
    mass0, energy0 = states[0].mass, states[0].energy
    lam_guess = lam0
    mods = []
    for st in states:
        ms = modulation_decompose(st.psi, lam_guess, family, nu=nu, t=st.t)
        lam_guess = ms.lam
        ld, gd, _m = modulation_rhs(ms, family)
        mods.append(ms)
        times.append(st.t)
        lams.append(ms.lam)
        gammas.append(ms.gamma)
        rates.append(abs(ld) + abs(gd))
        rws.append(ms.r_weighted)
        rsups.append(ms.r_sup)
        orthos.append(max(abs(ms.ortho_phi), abs(ms.ortho_phi_lam)) / max(ms.r_norm2, 1e-300))
        mdrift.append(abs(st.mass - mass0) / max(abs(mass0), 1e-300))
        edrift.append(abs(st.energy - energy0) / max(abs(energy0), 1.0))

    times = np.array(times)
    lams = np.array(lams)
    rws = np.array(rws)
    rates = np.array(rates)

    w_exp, _ = _loglog_slope(times, rws, *fit_window)
    r_exp, _ = _loglog_slope(times, rates, *fit_window)
    quarter = times >= times[-1] * 0.75
    lam_var = float(np.max(lams[quarter]) - np.min(lams[quarter]))
    lam_inf = float(np.mean(lams[quarter]))
    admissible = None
    if admissible_interval is not None:
        admissible = bool(admissible_interval[0] <= lam_inf <= admissible_interval[1])

    # monotone-envelope check on the fit window: the running max of the
    # tail must decrease
    sel = (times >= fit_window[0]) & (times <= fit_window[1])
    tail = rws[sel]
    envelope = np.maximum.accumulate(tail[::-1])[::-1]
    env_dec = bool(np.all(np.diff(envelope) <= 1e-12)) and tail.size > 3

    return StabilityReport(
        times=times, lam=lams, gamma=np.array(gammas), rate_sum=rates,
        r_weighted=rws, r_sup=np.array(rsups),
        mass_drift=np.array(mdrift), energy_drift=np.array(edrift),
        ortho_residuals=np.array(orthos),
        weighted_exponent=w_exp, rate_exponent=r_exp,
        lam_inf=lam_inf, lam_last_quarter_variation=lam_var,
        admissible=admissible, envelope_decreasing=env_dec,
        nu=nu, mode=mode,
    )
