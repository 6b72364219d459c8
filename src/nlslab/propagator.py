"""The essential-spectrum propagator and its dispersive estimates.

The flow e^(-itH) restricted to the essential spectrum is assembled from
the continuum modes:

    e^(-itH) Pess+ f = (1/2pi) int_{k>=0} e^(-it(beta+k^2))
                       [<e%(.,k), f> e(.,k) + <e%(-.,k), f> e(-.,k)] dk

with e% = sigma3 e, plus the mirrored negative branch, which is obtained
from the positive one by the antilinear symmetry f -> sigma1 conj(f)
(sigma1 H sigma1 = -conj(H)).  Every evolve sums both branches.  Only
the rows e(., k) are stored: the mirror rows e(-., k) are their grid
reflections except at node 0, a rank-one patch, so one evolve makes one
pass over the table for all coefficients and one for the sums.  The k
integral has one rule at every t: the coefficient spline in k times the
chirp is integrated exactly through seven closed-form moments per table
interval (Filon-type; Iserles and Norsett, Proc. R. Soc. A 461, 2005),
and the weights return to the table nodes through the adjoint of the
spline construction.  At t = 0 the chirp is constant, the rule
integrates the spline itself, and the two branches sum to 1 - P_d, which
is the sharpest global consistency check of the whole construction.  The
flow is computed in the H frame only: the L-frame flow of the paper is
e^(tL) = T e^(itH) T* (LinearizedSystem.to_H_frame / to_L_frame).  A
Crank-Nicolson integrator for i u_t = H u provides the independent
time-stepping oracle, and the weighted decay estimates

    || rho_nu U(t) Pess h ||_2  <~  (1+t)^(-3/2)
    || U(t) Pess h ||_inf       <~  t^(-1/2)

are verified by log-log fits over a time window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import factorial
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from .grids import band_solver
from .linearized import LinearizedSystem, SpectralProjector
from .scattering import GeneralizedEigenTable, generalized_eigenfunction

__all__ = [
    "PropagatorPlan",
    "DecayReport",
    "build_plan",
    "evolve_direct",
    "verify_decay",
    "positivity_check",
]


C_MAX = 5.0           # largest |t| dk^2 of a table interval the chirp moments support


def _spline_adjoint(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Transpose of the not-a-knot cubic-spline construction on k.

    CubicSpline(k, y).c is linear in the values y [nk, ncol]: c[m, i] is the
    coefficient of (x - k_i)^(3-m) on interval i.  For g [4, nk - 1, ncol]
    dual to c this returns w [nk, ncol] with sum_j w_j y_j = sum_{m,i}
    g[m, i] c[m, i].  It runs scipy's construction backwards: the local
    coefficient formulas transposed, then one banded solve with the
    transpose of the tridiagonal slope system.
    """
    n = k.size
    if n < 4:
        raise ValueError("the spline pull-back needs at least 4 table nodes")
    dk = np.diff(k)
    h = dk[:, None]
    d0, dn = k[2] - k[0], k[-1] - k[-3]
    # forward: s = A^-1 b(slope), t = (s_i + s_i+1 - 2 slope) / h,
    # c0 = t / h, c1 = (slope - s_i) / h - t, c2 = s_i, c3 = y_i
    gt = g[0] / h - g[1]
    gslope = (g[1] - 2.0 * gt) / h
    gs = np.zeros((n, g.shape[2]), dtype=g.dtype)
    gs[:-1] = g[2] + (gt - g[1]) / h
    gs[1:] += gt / h
    # A^T in (1, 1) banded storage; A is scipy's not-a-knot slope system
    at = np.zeros((3, n))
    at[1] = np.concatenate([[dk[1]], 2.0 * (dk[:-1] + dk[1:]), [dk[-2]]])
    at[0, 1:] = np.concatenate([dk[1:], [dn]])
    at[2, :-1] = np.concatenate([[d0], dk[:-1]])
    gb = solve_banded((1, 1), at, gs, check_finite=False)
    # b[1:-1] = 3 (h_i+1 slope_i + h_i slope_i+1), with the not-a-knot end rows
    gslope[:-1] += 3.0 * h[1:] * gb[1:-1]
    gslope[1:] += 3.0 * h[:-1] * gb[1:-1]
    gslope[0] += (h[0] + 2.0 * d0) * h[1] / d0 * gb[0]
    gslope[1] += h[0] ** 2 / d0 * gb[0]
    gslope[-2] += h[-1] ** 2 / dn * gb[-1]
    gslope[-1] += (2.0 * dn + h[-1]) * h[-2] / dn * gb[-1]
    # slope = diff(y) / h and c3 = y_i
    w = np.zeros_like(gs)
    w[:-1] = g[3] - gslope / h
    w[1:] += gslope / h
    return w


def _chirp_moments(theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """m[p, i] = int_0^1 s^p e^(-i(theta_i s + c_i s^2)) ds for p = 0..6.

    As e^(-ics^2) = sum_j (-ic s^2)^j / j!, m[p] = sum_j (-ic)^j/j! E_(p+2j)
    with E_q = int_0^1 s^q e^(-i theta s) ds = i (e^(-i theta) - q E_(q-1)) / theta.
    That recurrence scales errors by q/|theta| upward and by |theta|/q
    downward (Gautschi, SIAM Rev. 9, 1967), so E_q comes upward from E_0
    where q + 1 <= |theta| and downward from E_Q = 0 elsewhere.  J and Q
    are the first indices where max|c|^J/J! and the start error, damped by
    the factors |theta|/q, fall below 2^-53.  The terms of the series sum
    to e^|c| in size, so its rounding grows like e^|c| ulps; past
    |c| = C_MAX (~150 ulps) it raises instead.
    """
    cmax = float(np.max(np.abs(c)))
    if cmax > C_MAX:
        raise ValueError(f"chirp moments unsupported at |t| dk^2 = {cmax:.3g} > C_MAX = {C_MAX}")
    nterm = next(j for j in count(1) if cmax**j / factorial(j) < 2.0**-53)
    qmax = 2 * nterm + 4                    # the highest E_q the series uses
    a = np.abs(theta)
    down = a < qmax + 1
    amax = float(np.max(a, where=down, initial=0.0))
    start = next(q for q in count(qmax + 1)
                 if amax ** (q - qmax) * factorial(qmax) / factorial(q) < 2.0**-53)
    eit = np.exp(-1j * theta)
    # theta -> 0 where no q <= qmax is downward, 1 where none is upward,
    # which keeps the values that np.where discards finite
    ith = 1j * np.where(down, theta, 0.0)
    e = np.zeros((qmax + 2, theta.size), dtype=complex)
    for q in range(start, qmax + 1, -1):                   # to E_(qmax+1), in e[-1]
        e[-1] = (eit + ith * e[-1]) / q
    for q in range(qmax + 1, 0, -1):
        e[q - 1] = (eit + ith * e[q]) / q
    inv = 1j / np.where(a >= 1.0, theta, 1.0)
    e[0] = np.where(a >= 1.0, (eit - 1.0) * inv, e[0])
    for q in range(1, qmax + 1):
        e[q] = np.where(q + 1 <= a, (eit - q * e[q - 1]) * inv, e[q])
    terms = np.cumprod([np.ones_like(c)] + [-1j * c / j for j in range(1, nterm)], axis=0)
    return sum(terms[j] * e[2 * j:2 * j + 7] for j in range(nterm))


def pair_norm(grid, u) -> float:
    return grid.norm(u)


def weighted_pair_norm(grid, u, nu: float) -> float:
    """||rho_nu u||_2 of a field or a stacked pair: the one weighted norm."""
    return grid.norm(grid.weight(nu) * u)


@dataclass
class PropagatorPlan:
    """Continuum-mode table plus the discrete projector, quadrature-ready."""

    system: LinearizedSystem
    table: GeneralizedEigenTable
    projector: Optional[SpectralProjector]

    def __post_init__(self):
        tab = self.table
        k = tab.k
        g = self.system.grid
        # mode rows e(., k), C-ordered  [nk, 2, N]
        self._e = np.ascontiguousarray(tab.e)
        # the mirror row e(-., k) is e(., k)[..., ridx] except at node 0:
        # x = -L maps to +L, which the periodic flip wraps back to -L.
        # e(x, k) is not periodic; the mirror there is the exact free-region
        # value s e^{ikL} (1, 0) of the right representation s psi1, and
        # _d0 [nk, 2] is that value minus e(-L, k), a rank-one patch at node 0
        self._ridx = (g.N - np.arange(g.N)) % g.N
        mirror0 = np.stack([tab.s * np.exp(1j * k * g.L), np.zeros(k.size)], axis=1)
        self._d0 = mirror0 - self._e[:, :, 0]

    def evolve(self, f: np.ndarray, t: float, stride: int = 1) -> np.ndarray:
        """e^(-itH) Pess f, both branches, from one coefficient and one
        synthesis pass over e.

        stride > 1 uses every stride-th table row.  The mirror rows are
        R e (R: x -> -x) plus the node-0 patch _d0, so for u = f (positive
        branch) and u = sigma1 conj f (negative branch), with
        g = conj(sigma3 u),

            <e%(., k), u> = dx conj(e . g),   <e%(-., k), u> = dx conj(e . R g)

        plus the patch on the second.  One GEMM of e against the columns
        [g, R g] of both u gives all coefficients; each column gets its
        phase and quadrature weights, and one GEMM of the weight rows
        against e gives the sums A, B (and C, D):

            e^(-itH) Pess f = [(A + R B) + sigma1 conj(C + R D)] / 2 pi,

        with the patch added at node 0 of R B and R D.  The weights are the
        exact integral of the coefficient spline times the chirp, formed
        from chirp moments and pulled back onto the table nodes (_weights).
        """
        f = np.asarray(f, dtype=complex)
        g = self.system.grid
        e = self._e[::stride].reshape(-1, 2 * g.N)
        d0 = self._d0[::stride]
        ridx = self._ridx
        # g = conj(sigma3 u) of u = f, and of u = sigma1 conj f, which is (f1, -f0)
        gs = (np.conj(np.stack([f[0], -f[1]])), np.stack([f[1], -f[0]]))
        x = np.stack([c.reshape(-1) for gu in gs for c in (gu, gu[:, ridx])], axis=1)  # [2N, 4]
        y = e @ x
        y[:, 1::2] += d0 @ x[[0, g.N], 1::2]
        coef = g.dx * np.conj(y)                                # [nk, ncol]

        w = self._weights(coef, t, stride)                      # [ncol, nk]
        sums = (w @ e).reshape(-1, 2, g.N)
        patch = w[1::2] @ d0
        v = sums[0::2] + sums[1::2][..., ridx]                 # A + R B, C + R D
        v[:, :, 0] += patch
        return (v[0] + np.conj(v[1, ::-1])) / (2.0 * np.pi)

    def _weights(self, coef: np.ndarray, t: float, stride: int) -> np.ndarray:
        """Quadrature weight rows [ncol, nk] for the coefficient columns at t.

        The rows are w = S^T D S coef, the exact integral of the not-a-knot
        spline S coef against the chirp D = e^(-it(beta + k^2)), at every t
        up to |t| dk^2 = C_MAX.  On table interval i the spline is
        sum_m c[m, i] tau^(3-m), tau = k - k_i, so

            g[m, i] = sum_m' c[m', i] M[6 - m - m', i],
            M[p, i] = int_0^h e^(-it(beta + (k_i + tau)^2)) tau^p dtau,

        h = k_i+1 - k_i, p = 0..6.  With tau = h s, M is e^(-it(beta + k_i^2))
        h^(p+1) times _chirp_moments at theta = 2 t k_i h and c = t h^2, and w
        is the adjoint of the spline construction applied to g (_spline_adjoint).
        """
        k = self.table.k[::stride]
        beta = self.system.beta
        h = np.diff(k)
        moments = _chirp_moments(2.0 * t * k[:-1] * h, t * h**2)
        moments *= np.exp(-1j * t * (beta + k[:-1] ** 2)) * h ** np.arange(1, 8)[:, None]
        c = CubicSpline(k, coef).c                              # [4, n_int, ncol]
        order = 6 - np.arange(4)[:, None] - np.arange(4)        # [m, m']
        g = np.einsum("mni,nic->mic", moments[order], c)
        return _spline_adjoint(k, g).T

    def p_ess_spectral(self, f: np.ndarray) -> np.ndarray:
        """P+ + P- from the mode table (t = 0 quadrature)."""
        return self.evolve(f, 0.0)

    def quadrature_converged(self, f: np.ndarray, t: float) -> float:
        """Relative change under halving the table resolution; raises above 1e-3."""
        full = self.evolve(f, t)
        half = self.evolve(f, t, stride=2)
        g = self.system.grid
        rel = pair_norm(g, full - half) / max(pair_norm(g, full), 1e-300)
        if rel > 1e-3:
            raise ValueError("quadrature unconverged")
        return rel


def build_plan(sys: LinearizedSystem, table: GeneralizedEigenTable,
               projector: Optional[SpectralProjector] = None) -> PropagatorPlan:
    return PropagatorPlan(system=sys, table=table, projector=projector)


def evolve_direct(
    sys: LinearizedSystem,
    f: np.ndarray,
    t: float,
    dt: Optional[float] = None,
    check_boundary: bool = True,
) -> np.ndarray:
    """Crank-Nicolson oracle for i u_t = H u with Dirichlet truncation.

    H is the FD4 band on interleaved pairs (LinearizedSystem.fd_band).  In
    equal steps of at most dt, with B = -i (t / n_steps) H / 2, a step is
    (1 - B)^-1 (1 + B) u = 2 (1 - B)^-1 u - u, one solve from one band LU.
    """
    g = sys.grid
    if dt is None:
        dt = 0.01 / sys.beta
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    lhs = 0.5j * (t / n_steps) * sys.fd_band("H")
    lhs[5] += 1.0
    solve = band_solver(lhs, 5, 5)
    y = np.asarray(f, dtype=complex).T.ravel()
    for _ in range(n_steps):
        y = solve(2.0 * y) - y
    out = np.ascontiguousarray(y.reshape(-1, 2).T)
    if check_boundary:
        dens = np.abs(out[0]) ** 2 + np.abs(out[1]) ** 2
        outer = np.abs(g.nodes) > 0.9 * g.L
        if np.sum(dens[outer]) > 1e-6 * max(np.sum(dens), 1e-300):
            raise ValueError("boundary contamination")
    return out


# ---------------------------------------------------------------------------
# decay estimates
# ---------------------------------------------------------------------------

ESTIMATE_EXPONENTS = {"E1": -1.5, "E2": -1.5, "E3": -0.5, "E4": -0.5}
ESTIMATE_TOL = {"E1": 0.15, "E2": 0.15, "E3": 0.1, "E4": 0.1}

# Default fit windows (t_lo, t_hi), sampled geometrically.  The weighted
# norms are pre-asymptotic until t ~ 30 (on the default model the fitted
# slope is -1.08 on [1, 60] but -1.53 on [30, 150]).  The sup norms keep
# their t^(-1/2) rate only while the dispersive peak x ~ 2 k t is still
# inside the grid window, t < ~70 for L = 60.
DECAY_WINDOWS = {"E1": (30.0, 150.0), "E2": (30.0, 150.0),
                 "E3": (1.0, 60.0), "E4": (1.0, 60.0)}
DECAY_SAMPLES = 9


@dataclass(frozen=True)
class DecayReport:
    estimate_id: str
    times: np.ndarray
    norms: np.ndarray            # worst (normalized) decay curve over probes
    edge_mass: np.ndarray        # worst mass fraction at |x| > 0.9 L over probes
    fitted_exponent: float
    fitted_constant: float
    passes: bool
    nu: float

    def fitted_curve(self) -> np.ndarray:
        return self.fitted_constant * (1.0 + self.times) ** self.fitted_exponent


def _input_norms(grid, h):
    """The right-hand-side norms entering the four estimates."""
    w2 = (1.0 + np.abs(grid.nodes)) ** 2
    dens = np.abs(h[0]) + np.abs(h[1])
    l2 = pair_norm(grid, h)
    rho_m2_l2 = float(np.sqrt(np.real(grid.integrate(w2**2 * dens**2))))
    rho_m2_l1 = float(np.real(grid.integrate(w2 * dens)))
    d1 = np.stack([grid.spectral_d1(w2 * h[0]), grid.spectral_d1(w2 * h[1])])
    rho_m2_h1 = float(np.sqrt(rho_m2_l2**2 + np.real(
        grid.integrate(np.abs(d1[0]) ** 2 + np.abs(d1[1]) ** 2))))
    return {
        "E1": rho_m2_l2,
        "E2": rho_m2_l1 + l2,
        "E3": rho_m2_h1,
        "E4": l2 + rho_m2_l1,
    }


def verify_decay(
    plan: PropagatorPlan,
    probes,
    estimate_id,
    times=None,
    nu: float = 4.0,
):
    """Measure the decay curve of one estimate and fit its exponent.

    For the weighted-L2 estimates nu must exceed 3.5.  The fit uses
    log ||.|| against log(1+t) (log t for the rough sup-norm bound) and
    passes when the exponent is at most the theoretical one plus the
    stated tolerance.  Accepts one estimate id or a list of them and
    returns a report or a list; ids with the same sample times (E1/E2 and
    E3/E4 on their default windows) evolve each (probe, t) once.  Each
    report also carries the mass fraction at |x| > 0.9 L per sample time,
    which shows a fit window that runs past the grid window.
    """
    single = not isinstance(estimate_id, (list, tuple))
    ids = [estimate_id] if single else list(estimate_id)
    windows = {}
    for est in ids:
        if est not in ESTIMATE_EXPONENTS:
            raise ValueError(f"unknown estimate id '{est}'")
        if est in ("E1", "E2") and nu <= 3.5:
            raise ValueError("weighted estimates need nu > 3.5")
        ts = np.geomspace(*DECAY_WINDOWS[est], DECAY_SAMPLES) if times is None else times
        ts = np.asarray(sorted(float(t) for t in ts))
        if ts.size < 8:
            raise ValueError("need at least 8 time samples for the fit")
        if ts[0] <= 0.0:
            raise ValueError("decay sample times must be positive")
        windows[est] = ts
    g = plan.system.grid
    hs = [np.asarray(h, dtype=complex) for h in probes]
    if plan.projector is not None:
        hs = [plan.projector.apply_complement_H(h) for h in hs]
    outer = np.abs(g.nodes) > 0.9 * g.L
    evolved = {}                         # (probe, t) -> U(t) h, shared by the ids
    reports = []
    for est in ids:
        times = windows[est]
        norms = np.zeros(times.size)     # worst over probes
        edge = np.zeros(times.size)
        for i, h in enumerate(hs):
            ref = _input_norms(g, h)[est]
            for j, t in enumerate(times):
                u = evolved.get((i, t))
                if u is None:
                    u = evolved[i, t] = plan.evolve(h, t)
                dens = np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2
                edge[j] = max(edge[j], np.sum(dens[outer]) / max(np.sum(dens), 1e-300))
                val = weighted_pair_norm(g, u, nu) if est in ("E1", "E2") else np.max(np.abs(u))
                norms[j] = max(norms[j], val / ref)
        xfit = np.log(1.0 + times) if est != "E4" else np.log(times)
        slope, intercept = np.polyfit(xfit, np.log(norms), 1)
        reports.append(DecayReport(
            estimate_id=est,
            times=times,
            norms=norms,
            edge_mass=edge,
            fitted_exponent=float(slope),
            fitted_constant=float(np.exp(intercept)),
            passes=bool(slope <= ESTIMATE_EXPONENTS[est] + ESTIMATE_TOL[est]),
            nu=nu,
        ))
    return reports[0] if single else reports


def positivity_check(plan: PropagatorPlan, gfields, lam: float):
    """Spectral-jump quadratic form at one interior point of the branch.

    In the continuum-mode representation the form is a sum of squared
    projections divided by 4 pi k, so nonnegativity checks the internal
    consistency of the construction.  Accepts one stacked pair or a list
    of them and returns a float or a list; the continuum mode at lam is
    marched once per call (not at all when every field vanishes).
    """
    sys = plan.system
    beta = sys.beta
    if lam <= beta:
        raise ValueError("lam must be interior to the branch")
    k = float(np.sqrt(lam - beta))
    g = sys.grid
    single = not isinstance(gfields, (list, tuple))
    flist = [np.asarray(f, dtype=complex) for f in ([gfields] if single else gfields)]
    out = [0.0] * len(flist)
    live = [i for i, gf in enumerate(flist) if float(np.max(np.abs(gf))) != 0.0]
    if live:
        e, s, r = generalized_eigenfunction(sys, lam)
        epct = np.stack([e[0], -e[1]])
        epct_flip = g.reflect(epct)
        for i in live:
            fp, fm = g.inner(epct, flist[i]), g.inner(epct_flip, flist[i])
            out[i] = float((abs(fp) ** 2 + abs(fm) ** 2) / (4.0 * np.pi * k))
    return out[0] if single else out
