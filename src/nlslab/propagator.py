"""The essential-spectrum propagator and its dispersive estimates.

The flow e^(-itH) restricted to the essential spectrum is assembled from
the continuum modes:

    e^(-itH) Pess+ f = (1/2pi) int_{k>=0} e^(-it(beta+k^2))
                       [<e%(.,k), f> e(.,k) + <e%(-.,k), f> e(-.,k)] dk

with e% = sigma3 e, plus the mirrored negative branch, which is obtained
from the positive one by the antilinear symmetry f -> sigma1 conj(f)
(sigma1 H sigma1 = -conj(H)).  At t = 0 the two branches sum to
1 - P_d, which is the sharpest global consistency check of the whole
construction.  A Crank-Nicolson integrator for i u_t = H u provides the
independent time-stepping oracle, and the weighted decay estimates

    || rho_nu U(t) Pess h ||_2  <~  (1+t)^(-3/2)
    || U(t) Pess h ||_inf       <~  t^(-1/2)

are verified by log-log fits over a time window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import splu

from .linearized import LinearizedSystem, SpectralProjector
from .scattering import GeneralizedEigenTable

__all__ = [
    "PropagatorPlan",
    "DecayReport",
    "build_plan",
    "evolve_spectral",
    "evolve_direct",
    "verify_decay",
    "positivity_check",
]


K_FINE_TARGET = 0.25  # max phase increment 2 k t dk per fine-k quadrature step


def _sigma1_conj(u: np.ndarray) -> np.ndarray:
    return np.stack([np.conj(u[1]), np.conj(u[0])])


def _block_simpson_weights(k: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on a piecewise-uniform grid.

    Each maximal uniform block gets standard Simpson weights; a block
    with an odd interval count ends with a 3/8 panel.
    """
    n = k.size
    w = np.zeros(n)
    d = np.diff(k)
    edges = [0]
    for j in range(1, d.size):
        if abs(d[j] - d[j - 1]) > 1e-12 * max(d[j], d[j - 1]):
            edges.append(j)
    edges.append(d.size)
    for b in range(len(edges) - 1):
        lo, hi = edges[b], edges[b + 1]  # interval index range
        m = hi - lo
        h = d[lo]
        simp_end = hi if m % 2 == 0 else hi - 3
        if simp_end > lo:
            idx = np.arange(lo, simp_end + 1)
            wb = np.ones(idx.size)
            wb[1:-1:2] = 4.0
            wb[2:-1:2] = 2.0
            w[idx] += wb * h / 3.0
        if m % 2 == 1:
            if m >= 3:
                idx = np.arange(simp_end, hi + 1)
                w[idx] += np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 * h / 8.0
            else:  # single leftover interval: trapezoid
                w[lo] += 0.5 * h
                w[hi] += 0.5 * h
    return w


def _mode_sum(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_q weights_q rows[q] over the leading (k) axis, as one GEMV."""
    return (weights @ rows.reshape(rows.shape[0], -1)).reshape(rows.shape[1:])


def _pair_inner(grid, a, b) -> complex:
    return grid.inner(a[0], b[0]) + grid.inner(a[1], b[1])


def pair_norm(grid, u) -> float:
    return float(np.sqrt(np.real(_pair_inner(grid, u, u))))


def weighted_pair_norm(grid, u, nu: float) -> float:
    w = grid.weight(nu)
    return float(np.sqrt(np.real(
        grid.integrate(w**2 * (np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2))
    )))


def sup_pair_norm(u) -> float:
    return float(np.max(np.abs(u)))


@dataclass
class PropagatorPlan:
    """Continuum-mode table plus the discrete projector, quadrature-ready."""

    system: LinearizedSystem
    table: GeneralizedEigenTable
    projector: Optional[SpectralProjector]
    _spline_basis: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        tab = self.table
        k = tab.k
        g = self.system.grid
        # mode rows e(., k) and their mirrors e(-., k), C-ordered  [nk, 2, N]
        self._e = np.ascontiguousarray(tab.e)
        ridx = (g.N - np.arange(g.N)) % g.N
        self._e_flip = np.ascontiguousarray(self._e[:, :, ridx])
        # the j = 0 node maps to +L, which the periodic flip wraps back to
        # -L; e(x, k) is not periodic, so patch that column with the exact
        # free-region values s e^{ikL} (1,0) + a (0, e^{-mu L})
        mu = np.sqrt(k**2 + 2.0 * self.system.beta)
        det = np.where(np.abs(tab.detD) > 0, tab.detD, 1.0)
        a = np.where(np.abs(tab.detD) > 0, -2j * k * tab.d12 / det, 0.0)
        s = tab.s
        self._e_flip[:, 0, 0] = s * np.exp(1j * k * g.L)
        self._e_flip[:, 1, 0] = a * np.exp(-mu * g.L)

    # -- spectral coefficients -------------------------------------------

    def coefficients(self, f: np.ndarray):
        """(f#+, f#-)(k) = (<e%(., k), f>, <e%(-., k), f>), e% = sigma3 e.

        <sigma3 e, f> = conj(sum e conj(sigma3 f)), so both come from the
        stored mode rows without a conjugated copy of the table.
        """
        g = self.system.grid
        nk = self._e.shape[0]
        s3f = np.conj(np.stack([f[0], -f[1]])).reshape(-1)
        fp = g.dx * np.conj(self._e.reshape(nk, -1) @ s3f)
        fm = g.dx * np.conj(self._e_flip.reshape(nk, -1) @ s3f)
        return fp, fm

    def evolve_positive(self, f: np.ndarray, t: float, stride: int = 1) -> np.ndarray:
        """Positive-branch propagation by k-quadrature of the mode table.

        For small phase gradients the quadrature runs on the native table
        grid (no interpolation error); once 2 k t exceeds the table
        resolution the integrand is resampled in k by cubic splines onto
        an oscillation-resolving grid.
        """
        tab = self.table
        k = tab.k[::stride]
        fp, fm = self.coefficients(f)
        fp, fm = fp[::stride], fm[::stride]
        e_tab = self._e[::stride]
        e_flip = self._e_flip[::stride]

        dk_max = float(np.max(np.diff(k)))
        dk_needed = K_FINE_TARGET / max(2.0 * k[-1] * abs(t), 1.0)
        phase = np.exp(-1j * t * (self.system.beta + k**2))

        if dk_needed >= dk_max:
            # Richardson-extrapolated Simpson: (16 S_h - S_2h)/15 removes
            # the h^4 term that the long-range e^{ikx} oscillation excites
            w = _block_simpson_weights(k)
            w2 = np.zeros_like(w)
            w2[::2] = _block_simpson_weights(k[::2])
            w_rich = (16.0 * w - w2) / 15.0
            cp = fp * phase * w_rich
            cm = fm * phase * w_rich
            out = _mode_sum(cp, e_tab) + _mode_sum(cm, e_flip)
            return out / (2.0 * np.pi)

        # resampled path: restrict to where the coefficients matter
        amp = np.abs(fp) + np.abs(fm)
        tail = max(np.max(amp) * 1e-12, 1e-300)
        big = np.where(amp > tail)[0]
        k_eff = min(k[-1], k[big[-1]] + 0.5) if big.size else k[-1]
        nfine = int(np.ceil(k_eff / min(dk_needed, dk_max)))
        nfine = max(nfine, 400)
        if nfine % 2 == 1:
            nfine += 1
        kf = np.linspace(0.0, k_eff, nfine + 1)
        w = np.ones(nfine + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (kf[1] - kf[0]) / 3.0

        phase_f = np.exp(-1j * t * (self.system.beta + kf**2))
        cp = CubicSpline(k, fp)(kf) * phase_f * w
        cm = CubicSpline(k, fm)(kf) * phase_f * w

        # the spline is linear in the tabulated rows: with S the map from
        # values at k to values at kf, sum_q cp_q (S e)_q = sum_j (S^T cp)_j
        # e_j, so the weights move onto the table nodes and the mode rows
        # are never resampled
        ap = self._spline_transpose(k, stride, kf, cp)
        am = self._spline_transpose(k, stride, kf, cm)
        out = _mode_sum(ap, e_tab) + _mode_sum(am, e_flip)
        return out / (2.0 * np.pi)

    def _spline_transpose(self, k: np.ndarray, stride: int, kf: np.ndarray,
                          v: np.ndarray) -> np.ndarray:
        """S^T v for the cubic-spline evaluation map S from k to kf.

        The piecewise-cubic coefficients of the splines through the unit
        vectors, c[m, i, j] for (x - k_i)^(3-m) on interval i, are cached per
        table stride; S^T v then gathers v against those monomials per
        interval and contracts with c.
        """
        n_int = k.size - 1
        basis = self._spline_basis.get(stride)
        if basis is None:
            basis = CubicSpline(k, np.eye(k.size)).c.reshape(4 * n_int, k.size)
            self._spline_basis[stride] = basis
        idx = np.clip(np.searchsorted(k, kf, side="right") - 1, 0, n_int - 1)
        vm = v * (kf - k[idx]) ** np.arange(3, -1, -1)[:, None]   # [4, nf]
        slot = (n_int * np.arange(4)[:, None] + idx).ravel()
        gathered = np.stack([np.bincount(slot, vm.real.ravel(), 4 * n_int),
                             np.bincount(slot, vm.imag.ravel(), 4 * n_int)])
        re, im = gathered @ basis
        return re + 1j * im

    def evolve(self, f: np.ndarray, t: float, branch: str = "both", stride: int = 1) -> np.ndarray:
        f = np.asarray(f, dtype=complex)
        if branch == "plus":
            return self.evolve_positive(f, t, stride)
        if branch == "minus":
            return _sigma1_conj(self.evolve_positive(_sigma1_conj(f), t, stride))
        return self.evolve_positive(f, t, stride) + _sigma1_conj(
            self.evolve_positive(_sigma1_conj(f), t, stride)
        )

    def p_ess_spectral(self, f: np.ndarray) -> np.ndarray:
        """P+ + P- from the mode table (t = 0 quadrature)."""
        return self.evolve(f, 0.0)

    def quadrature_converged(self, f: np.ndarray, t: float, tol: float = 1e-3) -> float:
        """Relative change under halving the table resolution."""
        full = self.evolve(f, t)
        half = self.evolve(f, t, stride=2)
        g = self.system.grid
        rel = pair_norm(g, full - half) / max(pair_norm(g, full), 1e-300)
        if rel > tol:
            raise ValueError("quadrature unconverged")
        return rel


def build_plan(sys: LinearizedSystem, table: GeneralizedEigenTable,
               projector: Optional[SpectralProjector] = None) -> PropagatorPlan:
    if table.resonant and not table.free_reference:
        raise ValueError("plan requires a non-resonant system")
    return PropagatorPlan(system=sys, table=table, projector=projector)


def evolve_spectral(plan: PropagatorPlan, f: np.ndarray, t: float,
                    frame: str = "H") -> np.ndarray:
    """e^(-itH) Pess f (H frame), or the conjugated L-frame flow e^(tL)."""
    if frame == "H":
        return plan.evolve(np.asarray(f, dtype=complex), t)
    if frame != "L":
        raise ValueError("frame must be 'H' or 'L'")
    sys = plan.system
    u = sys.to_H_frame(np.asarray(f, dtype=complex))
    return sys.to_L_frame(plan.evolve(u, -t))


def evolve_direct(
    sys: LinearizedSystem,
    f: np.ndarray,
    t: float,
    dt: Optional[float] = None,
    projector: Optional[SpectralProjector] = None,
    check_boundary: bool = True,
) -> np.ndarray:
    """Crank-Nicolson oracle for i u_t = H u with Dirichlet truncation."""
    g = sys.grid
    if dt is None:
        dt = 0.01 / sys.beta
    u = np.asarray(f, dtype=complex)
    if projector is not None:
        u = projector.apply_complement_H(u)
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    dt_eff = t / n_steps
    h = sys.H_matrix(order=4)
    n = g.N
    eye = sparse.identity(2 * n, format="csc")
    lhs = splu((eye + 0.5j * dt_eff * h).tocsc())
    rhs = (eye - 0.5j * dt_eff * h).tocsc()
    vec = np.concatenate([u[0], u[1]])
    for _ in range(n_steps):
        vec = lhs.solve(rhs @ vec)
    out = np.stack([vec[:n], vec[n:]])
    if check_boundary:
        dens = np.abs(out[0]) ** 2 + np.abs(out[1]) ** 2
        outer = np.abs(g.nodes) > 0.9 * g.L
        if np.sum(dens[outer]) > 1e-6 * max(np.sum(dens), 1e-300):
            raise ValueError("boundary contamination")
    return out


def evolve_L_direct(sys: LinearizedSystem, v: np.ndarray, t: float,
                    dt: float = 5e-4) -> np.ndarray:
    """Crank-Nicolson for v_t = L v (the untransformed frame).

    L is real, so the real and imaginary parts of v evolve independently;
    they are carried as the two columns of one real right-hand side.
    """
    g = sys.grid
    n_steps = max(1, int(np.ceil(abs(t) / dt)))
    dt_eff = t / n_steps
    lmat = sys.L_matrix(order=4)
    n = g.N
    eye = sparse.identity(2 * n, format="csc")
    lhs = splu((eye - 0.5 * dt_eff * lmat).tocsc())
    rhs = (eye + 0.5 * dt_eff * lmat).tocsc()
    vec = np.concatenate([np.asarray(v[0], dtype=complex), np.asarray(v[1], dtype=complex)])
    cols = np.column_stack([vec.real, vec.imag])
    for _ in range(n_steps):
        cols = lhs.solve(rhs @ cols)
    vec = cols[:, 0] + 1j * cols[:, 1]
    return np.stack([vec[:n], vec[n:]])


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
    estimate_id: str,
    times=None,
    nu: float = 4.0,
) -> DecayReport:
    """Measure the decay curve of one estimate and fit its exponent.

    For the weighted-L2 estimates nu must exceed 3.5.  The fit uses
    log ||.|| against log(1+t) (log t for the rough sup-norm bound) and
    passes when the exponent is at most the theoretical one plus the
    stated tolerance.
    """
    if estimate_id not in ESTIMATE_EXPONENTS:
        raise ValueError(f"unknown estimate id '{estimate_id}'")
    if estimate_id in ("E1", "E2") and nu <= 3.5:
        raise ValueError("weighted estimates need nu > 3.5")
    g = plan.system.grid
    if times is None:
        times = np.geomspace(*DECAY_WINDOWS[estimate_id], DECAY_SAMPLES)
    times = np.asarray(sorted(float(t) for t in times))
    if times.size < 8:
        raise ValueError("need at least 8 time samples for the fit")

    curves = []
    for h in probes:
        h = np.asarray(h, dtype=complex)
        if plan.projector is not None:
            h = plan.projector.apply_complement_H(h)
        ref = _input_norms(g, h)[estimate_id]
        vals = []
        for t in times:
            u = plan.evolve(h, t)
            if estimate_id in ("E1", "E2"):
                vals.append(weighted_pair_norm(g, u, nu) / ref)
            else:
                vals.append(sup_pair_norm(u) / ref)
        curves.append(vals)
    norms = np.max(np.array(curves), axis=0)
    xfit = np.log(1.0 + times) if estimate_id != "E4" else np.log(times)
    slope, intercept = np.polyfit(xfit, np.log(norms), 1)
    target = ESTIMATE_EXPONENTS[estimate_id]
    tol = ESTIMATE_TOL[estimate_id]
    return DecayReport(
        estimate_id=estimate_id,
        times=times,
        norms=norms,
        fitted_exponent=float(slope),
        fitted_constant=float(np.exp(intercept)),
        passes=bool(slope <= target + tol),
        nu=nu,
    )


def positivity_check(plan: PropagatorPlan, gfield: np.ndarray, lam: float) -> float:
    """Spectral-jump quadratic form at one interior point of the branch.

    In the continuum-mode representation the form is a sum of squared
    projections divided by 4 pi k, so nonnegativity checks the internal
    consistency of the construction.
    """
    sys = plan.system
    beta = sys.beta
    if lam <= beta:
        raise ValueError("lam must be interior to the branch")
    k = float(np.sqrt(lam - beta))
    g = sys.grid
    gf = np.asarray(gfield, dtype=complex)
    if float(np.max(np.abs(gf))) == 0.0:
        return 0.0
    from .scattering import generalized_eigenfunction

    e, s, r = generalized_eigenfunction(sys, lam)
    epct = np.stack([e[0], -e[1]])
    eflip = np.stack([g.reflect(e[0]), g.reflect(e[1])])
    epct_flip = np.stack([eflip[0], -eflip[1]])
    fp = g.dx * np.sum(np.conj(epct) * gf)
    fm = g.dx * np.sum(np.conj(epct_flip) * gf)
    return float((abs(fp) ** 2 + abs(fm) ** 2) / (4.0 * np.pi * k))
