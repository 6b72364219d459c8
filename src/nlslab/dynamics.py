"""Nonlinear evolution, modulation decomposition, and the stability run.

The full equation i psi_t = -psi_xx + V_h psi - f(|psi|^2) psi is stepped
with the conservative Crank-Nicolson scheme (the nonlinear term uses the
difference quotient of the primitive F, which makes both invariants
exact up to the nonlinear-solver tolerance) in the even sector: on the
half grid x >= 0, with the FD4 Laplacian folded at x = 0, which stays
symmetric in the node weights of the fold.  A split-step
Fourier integrator on the full grid doubles as a cross-check oracle.

Solutions near the soliton family are decomposed as

    psi(t) = e^(i integral(lam) + i gamma) (phi^lam + R)

with (lam, gamma) fixed by the two symplectic orthogonality constraints
Re<R, phi> = Im<R, phi_lam> = 0 (a 2d Newton solve on the cached
profile's Taylor model), which puts R in the essential-spectrum subspace
of the linearization.  The 2x2 modulation system then gives (lam_dot,
gamma_dot) with right sides quadratic in R, and the frozen-frame split
g = i k1 phi + k2 phi_lam + h isolates the dispersive part h whose
weighted norm is the decay observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .grids import (Grid, PolynomialNonlinearity, PotentialSpec, band_matvec, band_plus_diagonal,
                    band_solver)
from .solitons import SolitonFamily

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

# Fixed-point solve of each implicit step.  With tau = dt/2, M = 1 + i tau
# fold(-d2 + V) and b(u) = i tau Q(|u|^2, |psi|^2)(u + psi), the iteration
# is u -> Phi(u) = M^-1 (2 psi + b(u)) - psi, and the update that would
# follow cand = Phi(new) is exactly Phi(cand) - cand = M^-1 (b(cand) - b(new)).
# In the sqrt(w)-scaled fold (node weights w = 1 at x = 0, 2 elsewhere)
# M = 1 + i tau S with S real symmetric (to roundoff at x = 0), so
# ||M^-1||_2 <= 1 for every real tau, and that update is at most
# ||sqrt(w) (b(cand) - b(new))||_2 in sup norm.  A step accepts cand when
# this bound is below FP_TOL max(1, max|cand|); below FP_FLOOR a bound that
# stops shrinking is the roundoff floor, and cand is accepted there too.
# b(cand) is the term the next iteration needs, so the bound costs no
# solve.  The iteration starts from the trajectory extrapolated through the
# last accepted steps (quintic once six exist, _EXTRAPOLATION) in the frame
# that turns with the phase of the last step.  Each iteration is one band
# solve: per step on the default stability datum, 1.19 up to t = 2, 1.44
# up to t = 20 and 2.26 up to t = 60.
FP_TOL = 1e-13
FP_FLOOR = 1e-6
FP_MAX = 30
CONSERVATION_TOL = 1e-6   # mass and energy drift per unit time
DECOMPOSE_TOL = 1e-12     # constraint residual of the decomposition Newton, relative
DECOMPOSE_MAX_ITER = 40
TUBE_RADIUS = 0.5         # ||R|| bound of the decomposition, relative to ||phi||
COND_LIMIT = 1e8          # condition number of the 2x2 modulation matrix
# row p: the weights of the degree-p extrapolation through the last p + 1
# accepted steps, newest first
_EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0),
                  (5.0, -10.0, 10.0, -5.0, 1.0), (6.0, -15.0, 20.0, -15.0, 6.0, -1.0))


@dataclass(frozen=True)
class EvolutionState:
    """One time slice of the nonlinear flow with conserved diagnostics.

    solves and floor_stops count the band solves and the steps accepted at
    the roundoff floor since the previous sample (0 at t = 0).
    """

    t: float
    psi: np.ndarray
    mass: float
    energy: float
    solves: int
    floor_stops: int


def hamiltonian(grid: Grid, V: PotentialSpec, f: PolynomialNonlinearity,
                psi: np.ndarray, d2: np.ndarray) -> float:
    """H = int [ (|psi_x|^2 + V |psi|^2)/2 - F(|psi|^2) ], F = (1/2) int f.

    The kinetic term is -<psi, d2 psi>/2 for d2 a band such as
    Grid.fd_d2_band().
    """
    kin = -0.5 * np.real(grid.inner(psi, band_matvec(d2, psi)))
    dens = np.abs(psi) ** 2
    pot = 0.5 * np.real(grid.integrate(V(grid.nodes) * dens))
    nl = 0.5 * np.real(grid.integrate(f.antiderivative(dens)))
    return float(kin + pot - nl)


def _step_quotient(f: PolynomialNonlinearity, s: np.ndarray):
    """s+ -> [F2(s+) - F2(s)] / (s+ - s), the difference quotient of the primitive.

    With F2(s) = sum_m c_m s^(m+1)/(m+1) it is the polynomial sum_j a_j s+^j
    in s+, with a_j = sum_(m >= j) c_m/(m+1) s^(m-j) (a_0 = sum_m c_m/(m+1)
    s^m).  The a_j are formed here once, by a_j = c_j/(j+1) + s a_(j+1),
    and each call evaluates the polynomial by Horner's rule, into out when
    it is given: division-free, no cancellation, and f(s) at s+ = s.
    """
    a = [f.coefficients[-1] / (f.degree + 1)]                     # a_p
    for m in range(f.degree - 1, 0, -1):
        a.append(f.coefficients[m - 1] / (m + 1) + s * a[-1])     # a_m
    a.append(s * a[-1])                                           # a_0

    def quotient(s_new, out=None):
        q = np.multiply(s_new, a[0], out=out)
        q += a[1]
        for a_j in a[2:]:
            q *= s_new
            q += a_j
        return q

    return quotient


def evolve_nls(
    psi0: np.ndarray,
    V: PotentialSpec,
    f: PolynomialNonlinearity,
    grid: Grid,
    T: float,
    dt: float,
    sample_every: int = 50,
):
    """Conservative Crank-Nicolson trajectory of the nonlinear equation.

    Returns a list of EvolutionState samples (always including t = 0 and
    t = T), after ceil(T / dt) equal steps of T / ceil(T / dt).  The datum
    must be even; the steps run in the even sector, on the FD4 band
    folded by Grid.fold, and samples are unfolded.  With dt that step and
    A = (i dt/2)(-d2 + V) the step is psi+ = (1 + A)^-1 [(1 - A) psi + b],
    b the nonlinear term, which is (1 + A)^-1 (2 psi + b) - psi: one
    band LU of 1 + A serves every solve.  The implicit step is solved by
    fixed-point iteration on b, started from the quintic extrapolation
    sum_k w_k r^(k+1) psi_(n-k), w = (6, -15, 20, -15, 6, -1), of the last
    six accepted steps (the lower rows of _EXTRAPOLATION while fewer
    exist), one product with the [6, N/2] ring of accepted steps, taken in
    the frame that turns like the trajectory: r is the phase of
    <psi_(n-1), psi_n> (1 at the first step and for a zero datum).  The
    iteration stops by a bound on its next update, not by a further solve
    (the FP_* block): the term b(cand) of the bound is the one the next
    iteration would solve with.  On the default stability datum a step
    takes 1.19 band solves up to t = 2 and 2.26 up to t = 60.  b uses the
    difference quotient of the primitive as a polynomial in |psi+|^2 whose
    coefficients are formed once per step from |psi_n|^2 (_step_quotient),
    the |psi+|^2 of the accepted solve.  Iterating to the roundoff floor
    keeps the scheme's exact invariants at roundoff level, whatever the
    start.  Each sample counts the band solves and floor stops since the
    last.  Raises when FP_MAX iterations do not reach that floor, and for
    dt <= 0 or T < 0.
    """
    if not dt > 0:
        raise ValueError("time step dt must be positive")
    if dt > 0.01 + 1e-15:
        raise ValueError("time step must satisfy dt <= 0.01")
    if not T >= 0:
        raise ValueError("final time T must be nonnegative")
    psi0 = np.asarray(psi0, dtype=complex)
    if grid.parity_defect(psi0) > 1e-8 * max(1.0, np.max(np.abs(psi0))):
        raise ValueError("initial datum must be even")

    n_steps = int(np.ceil(T / dt))
    dt = T / max(n_steps, 1)
    d2 = grid.fd_d2_band()
    tau = 0.5 * dt
    lhs = 0.5j * dt * grid.fold(band_plus_diagonal(-d2, V(grid.nodes)))
    solve = band_solver(band_plus_diagonal(lhs, 1.0))

    states = []

    def snapshot(t, u, solves, floor_stops):
        full = grid.unfold(u)
        mass = float(np.real(grid.integrate(np.abs(full) ** 2)))
        states.append(EvolutionState(t=float(t), psi=full, mass=mass,
                                     energy=hamiltonian(grid, V, f, full, d2),
                                     solves=solves, floor_stops=floor_stops))

    psi = psi0[grid.half()]
    snapshot(0.0, psi, 0, 0)
    mass0 = states[0].mass
    energy0 = states[0].energy
    escale = max(abs(energy0), 1.0)

    depth = len(_EXTRAPOLATION)
    ring = np.zeros((depth, psi.size), dtype=complex)     # psi_n in row n % depth
    ring[0] = psi
    # one workspace per run; every accepted psi is a fresh solve output, so
    # neither the snapshots nor the ring share memory with it
    base, b_new, b_cand, rhs = (np.empty_like(psi) for _ in range(4))
    mod2, chi = np.square(np.abs(psi)), np.empty(psi.shape)
    coef = np.empty(depth, dtype=complex)
    tol2, floor2 = FP_TOL**2, FP_FLOOR**2
    solves = floor_stops = 0

    def nonlinear_term(u, quotient, out):
        """b(u) into out, and |u|^2 into mod2."""
        q = quotient(np.square(np.abs(u, out=mod2), out=mod2), out=chi)
        q *= tau
        np.add(u, psi, out=out)
        out *= q
        out *= 1j
        return out

    for step in range(1, n_steps + 1):
        n = step - 1                                      # psi is psi_n
        np.multiply(psi, 2.0, out=base)
        quotient = _step_quotient(f, mod2)
        # the phase turned by the last step; np.angle(0) = 0, so rot = 1 at zero
        rot = np.exp(1j * np.angle(np.vdot(ring[(n - 1) % depth], psi))) if n else 1.0
        weights = _EXTRAPOLATION[min(n, depth - 1)]
        coef[:] = 0.0
        for k, w_k in enumerate(weights):
            coef[(n - k) % depth] = w_k * rot ** (k + 1)
        nonlinear_term(coef @ ring, quotient, b_new)
        prev = np.inf
        for it in range(1, FP_MAX + 1):
            np.add(base, b_new, out=rhs)
            cand = solve(rhs)
            cand -= psi
            nonlinear_term(cand, quotient, b_cand)
            r = np.subtract(b_cand, b_new, out=b_new)     # b_new is not read again
            bound2 = 2.0 * np.vdot(r, r).real - abs(r[0]) ** 2   # sum w |r|^2
            bound2 /= max(1.0, np.max(mod2))
            if bound2 < tol2 or (bound2 >= prev and bound2 < floor2):
                floor_stops += bound2 >= tol2
                break
            prev = bound2
            b_new, b_cand = b_cand, b_new
        else:
            raise ValueError(f"fixed-point iteration not settled after {FP_MAX} iterations")
        solves += it
        psi = cand
        ring[step % depth] = psi
        t = step * dt
        if step % sample_every == 0 or step == n_steps:
            snapshot(t, psi, solves, floor_stops)
            solves = floor_stops = 0
            drift_n = abs(states[-1].mass - mass0) / max(mass0, 1e-300) / max(t, dt)
            drift_h = abs(states[-1].energy - energy0) / escale / max(t, dt)
            if drift_n > CONSERVATION_TOL or drift_h > CONSERVATION_TOL:
                raise ValueError("conservation breach")
            dens = np.abs(states[-1].psi) ** 2
            outer = np.abs(grid.nodes) > 0.95 * grid.L
            if np.sum(dens[outer]) > 1e-5 * np.sum(dens):
                raise ValueError("boundary contamination")
    return states


def split_step_oracle(psi0, V, f, grid: Grid, T: float, dt: float):
    """Strang split-step Fourier integrator (cross-check oracle), in
    ceil(T / dt) equal steps of T / ceil(T / dt).

    Raises for dt <= 0 or T < 0.
    """
    if not dt > 0:
        raise ValueError("time step dt must be positive")
    if not T >= 0:
        raise ValueError("final time T must be nonnegative")
    n_steps = int(np.ceil(T / dt))
    dt = T / max(n_steps, 1)
    psi = np.asarray(psi0, dtype=complex).copy()
    k2 = grid.wavenumbers**2
    half_kin = np.exp(-0.5j * dt * k2)
    vh = V(grid.nodes)
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
) -> ModulationState:
    """2d Newton for (lam, gamma) enforcing the orthogonality constraints.

    gamma starts at the phase of <phi^lam_guess, psi>.  Newton runs on the
    Taylor model phi + d phi_lam + d^2/2 phi_lamlam of the profile at an
    anchor lam_a (first lam_guess), on six inner products formed once per
    anchor.  The profile solved at the model's root is the next anchor,
    and its exact constraints must hold to DECOMPOSE_TOL.  Odd input is
    rejected (the trapped even sector is the model's scope) and an
    iterate leaving the orbital neighborhood raises "outside tube".
    """
    g = family.grid
    psi = np.asarray(psi, dtype=complex)
    if g.parity_defect(psi) > 1e-8 * max(1.0, float(np.max(np.abs(psi)))):
        raise ValueError("input must be even (odd perturbations rejected)")
    prof = family.profile(lam_guess)
    gamma = float(np.angle(g.inner(prof.phi, psi)))
    lam, reanchor = float(lam_guess), True

    for _ in range(DECOMPOSE_MAX_ITER):
        if reanchor:
            prof = family.profile(lam)
            phi, phi_lam, phi_ll = prof.phi, prof.phi_lam, prof.phi_lamlam
            p0, p1, p2 = g.inner(psi, phi), g.inner(psi, phi_lam), g.inner(psi, phi_ll)
            a01 = np.real(g.inner(phi, phi_lam))
            a2 = np.real(g.inner(phi_lam, phi_lam) + g.inner(phi, phi_ll))
            # d is 0, or below the cache's 1e-12 resolution after a hit
            lam_a, d = prof.lam, lam - prof.lam
        # <psi, phi(d)> = p0 + d p1 + d^2/2 p2, mass(d) = mass + 2 d a01 + d^2 a2
        eig = np.exp(1j * gamma)
        q0 = eig * (p0 + d * p1 + 0.5 * d * d * p2)
        q1 = eig * (p1 + d * p2)
        g1 = np.real(q0) - (prof.mass + 2.0 * d * a01 + d * d * a2)
        g2 = np.imag(q1)
        if reanchor and max(abs(g1), abs(g2)) < DECOMPOSE_TOL * max(prof.mass, 1.0):
            break
        j11 = np.real(q1) - 2.0 * (a01 + d * a2)       # d g1 / d lam
        j12 = -np.imag(q0)                              # d g1 / d gamma
        # Im(e^(i gamma) <psi, phi_lamlam>) = Im<R, phi_lamlam> is O(||R||);
        # on the model it is one product, and Newton stays quadratic
        j21 = np.imag(eig * p2)                         # d g2 / d lam
        j22 = np.real(q1)                               # d g2 / d gamma
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            raise ValueError("decomposition Newton diverged")
        dlam = float((-g1 * j22 + g2 * j12) / det)
        dgam = float((-j11 * g2 + j21 * g1) / det)
        d += dlam
        gamma += dgam
        if not np.isfinite(d) or abs(lam_a + d - lam_guess) > 1.0:
            raise ValueError("decomposition Newton diverged")
        reanchor = max(abs(dlam), abs(dgam)) < 1e-14   # at the model root, to roundoff
        lam = lam_a + d
    else:
        raise ValueError("decomposition Newton diverged")

    R = np.exp(-1j * gamma) * psi - prof.phi
    rnorm = g.norm(R)
    if rnorm > TUBE_RADIUS * np.sqrt(prof.mass):
        raise ValueError("outside tube")
    return ModulationState(
        t=float(t), lam=lam, gamma=float(np.mod(gamma, 2 * np.pi)),
        fluctuation=R,
        ortho_phi=float(np.real(g.inner(R, prof.phi))),
        ortho_phi_lam=float(np.imag(g.inner(R, prof.phi_lam))),
        r_norm2=float(rnorm),
        r_weighted=g.norm(g.weight(nu) * R),
        nu=nu,
    )


def nonlinear_remainder(f: PolynomialNonlinearity, phi: np.ndarray, R: np.ndarray):
    """N(R): the part of the nonlinearity beyond its linearization at phi."""
    psi = phi + R
    s_psi = np.abs(psi) ** 2
    s_phi = phi**2
    return (-f.f(s_psi) * psi + f.f(s_phi) * psi
            + f.fprime(s_phi) * s_phi * (R + np.conj(R)))


def modulation_rhs(state: ModulationState, family: SolitonFamily):
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
    phi_ll = prof.phi_lamlam
    R = state.fluctuation
    pairing = g.inner(phi_lam, phi)                 # real, as both profiles are
    r_lam = np.real(g.inner(R, phi_lam))
    m = np.array([
        [pairing - r_lam, np.imag(g.inner(R, phi))],
        [np.imag(g.inner(R, phi_ll)), pairing + r_lam],
    ])
    if np.linalg.cond(m) > COND_LIMIT:
        raise ValueError("modulation matrix singular")
    nr = nonlinear_remainder(family.nonlinearity, phi, R)
    rhs = np.array([
        float(np.imag(g.integrate(nr * phi))),
        -float(np.real(g.integrate(nr * phi_lam))),
    ])
    sol = np.linalg.solve(m, rhs)
    return float(sol[0]), float(sol[1]), m


def frozen_frame_decompose(series, family: SolitonFamily):
    """Split the fluctuation along the frozen-time discrete directions.

    Given modulation samples (from modulation_decompose), freeze
    (lam1, gamma1) at the last sample T, build g = e^{-i Delta1} R with the phase
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
    iT = len(series) - 1
    lam1, gamma1 = lams[iT], gammas[iT]
    prof1 = family.profile(lam1)
    phi1 = prof1.phi
    phi1_lam = prof1.phi_lam
    c1 = g.inner(phi1_lam, phi1)                   # real, as are the ip_* below

    # Delta1(t) = lam1 (t - T) - int_T^t lam ds + gamma1 - gamma(t)
    int_lam = cumulative_trapezoid(lams, ts, initial=0.0)
    int_lam = int_lam - int_lam[iT]
    delta1 = lam1 * (ts - ts[iT]) - int_lam + gamma1 - gammas

    out = {"t": ts, "k1": [], "k2": [], "h": [], "system_residual": [], "delta1": delta1}
    for j, s in enumerate(series):
        gT = np.exp(-1j * delta1[j]) * s.fluctuation
        k1 = float(g.inner(phi1_lam, gT.imag)) / c1
        k2 = float(g.inner(phi1, gT.real)) / c1
        h = gT - 1j * k1 * phi1 - k2 * phi1_lam
        # residual of the constraint-derived 2x2 system tying (k1, k2) to h:
        # Re<R, phi(t)> and Im<R, phi_lam(t)> with R = e^{i Delta1} g
        prof_t = family.profile(s.lam)
        sin_d, cos_d = np.sin(delta1[j]), np.cos(delta1[j])
        ip_11 = g.inner(phi1, prof_t.phi)
        ip_l1 = g.inner(phi1_lam, prof_t.phi)
        ip_1l = g.inner(prof_t.phi_lam, phi1)
        ip_ll = g.inner(phi1_lam, prof_t.phi_lam)
        eh = np.exp(1j * delta1[j]) * h
        r1 = (-sin_d * ip_11 * k1 + cos_d * ip_l1 * k2
              + float(np.real(g.inner(eh, prof_t.phi))))
        r2 = (-cos_d * ip_1l * k1 - sin_d * ip_ll * k2
              + float(np.imag(g.inner(eh, prof_t.phi_lam))))
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
    mass_drift: np.ndarray
    energy_drift: np.ndarray
    ortho_residuals: np.ndarray   # max of the two constraint residuals / ||R||
    weighted_exponent: float      # fit of ||rho_nu R||
    rate_exponent: float          # fit of |lam_dot| + |gamma_dot|
    lam_inf: float
    lam_last_quarter_variation: float
    admissible: Optional[bool]
    envelope_decreasing: bool
    solves_per_step: float        # band solves of evolve_nls per time step
    floor_stops: int              # steps accepted at the fixed-point roundoff floor
    profile_misses: int           # profiles the run's SolitonFamily solved

    def series_rows(self):
        for j in range(self.times.size):
            yield (self.times[j], self.lam[j], self.gamma[j], self.rate_sum[j],
                   self.r_weighted[j], self.mass_drift[j], self.energy_drift[j])


def default_bump(grid: Grid, width: float):
    """Even, smooth, localized perturbation shape of unit sup amplitude."""
    return np.exp(-((grid.nodes / width) ** 2))


def stability_experiment(
    family: SolitonFamily,
    lam0: float,
    *,
    gamma0: float,
    delta: float,
    T: float,
    dt: float,
    sample_dt: float,
    fit_window,
    bump_width: float,
    nu: float = 4.0,
    mode: str = "theorem",
    admissible_interval=None,
) -> StabilityReport:
    """Evolve e^{i gamma0}(phi^{lam0} + delta * bump) and track everything.

    The trajectory is re-decomposed at every sample time (orthogonality is
    enforced by construction rather than integrated), the modulation
    right side supplies |lam_dot| + |gamma_dot|, and weighted norms of
    the fluctuation are fitted on the stated window.  profile_misses
    counts the profiles the family solved for this run (SolitonFamily.misses).
    mode ("theorem" or "qualitative") names the run for its caller; the
    run does not read it.
    """
    g = family.grid
    V, f = family.potential, family.nonlinearity
    misses0 = family.misses
    prof0 = family.profile(lam0)
    chi0 = delta * default_bump(g, bump_width)
    psi0 = np.exp(1j * gamma0) * (prof0.phi + chi0)

    sample_every = max(1, int(round(sample_dt / dt)))
    states = evolve_nls(psi0, V, f, g, T=T, dt=dt, sample_every=sample_every)
    n_steps = max(1, int(np.ceil(T / dt)))

    times, lams, gammas, rates = [], [], [], []
    rws, orthos = [], []
    mdrift, edrift = [], []
    mass0, energy0 = states[0].mass, states[0].energy
    lam_guess = lam0
    for st in states:
        ms = modulation_decompose(st.psi, lam_guess, family, nu=nu, t=st.t)
        lam_guess = ms.lam
        ld, gd, _m = modulation_rhs(ms, family)
        times.append(st.t)
        lams.append(ms.lam)
        gammas.append(ms.gamma)
        rates.append(abs(ld) + abs(gd))
        rws.append(ms.r_weighted)
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
        r_weighted=rws,
        mass_drift=np.array(mdrift), energy_drift=np.array(edrift),
        ortho_residuals=np.array(orthos),
        weighted_exponent=w_exp, rate_exponent=r_exp,
        lam_inf=lam_inf, lam_last_quarter_variation=lam_var,
        admissible=admissible, envelope_decreasing=env_dec,
        solves_per_step=sum(st.solves for st in states) / n_steps,
        floor_stops=sum(st.floor_stops for st in states),
        profile_misses=family.misses - misses0,
    )
