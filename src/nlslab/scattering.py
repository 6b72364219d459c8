"""Jost solutions, Wronskians, threshold resonances and continuum modes.

For spectral parameter lam >= beta write k = sqrt(lam - beta) and
mu = sqrt(lam + beta) (nonnegative real parts).  The solution space of
(H - lam) xi = 0 is spanned by an oscillatory channel (rates +-ik in the
first component) and a closed channel (rates +-mu in the second), and
the distinguished solutions are fixed by their behavior at +infinity:

    phi1 ~ (0, e^(-mu x))     decaying closed channel
    psi1 ~ (e^(ikx), 0)       outgoing oscillatory
    psi2 ~ (e^(-ikx), 0)      incoming oscillatory (= sigma3 conj psi1)
    xi1  ~ e^(mu x) (0, 1)    growing closed channel
    eta  ~ (x, 0)             threshold (k = 0) linear solution

phi2(x) = phi1(-x) and xi2(x) = xi1(-x) complete the basis.  The 2x2
Wronskian matrix D(k) built from [psi1, phi1] against their reflections
encodes the scattering data: det D(0) = 0 is the threshold-resonance
criterion, s(k) = 2ik D22/det D is the transmission coefficient, and the
continuum mode

    e(x, k) = s(k) [psi1(x,k) - (D12/D22) phi1(x, mu)]

obeys |s|^2 + |r|^2 = 1 with the reflection coefficient r(k) from the
left-side expansion e = psi2(-x) + r psi1(-x) + b phi2(x).

Only psi1, eta, phi1 and xi1 are marched.  Every other solution and
every pairing comes from those rows through the two symmetries of the
even system: _mirror (x -> -x, derivative rows negated) and _s3conj
(sigma3 conjugation), applied to the march's row layout
(xi1, xi1', xi2, xi2').  Pairing the left expansion of e with psi1 and
phi1 gives D (r, b) = -(W(psi1, psi2(-.)), W(phi1, psi2(-.))), so r and
b follow from D by Cramer's rule.

Numerics: each solution is marched in a rescaled frame z = e^(-gx) y
from the point where the potentials fall below 1e-17 (outside, the free
forms are exact to machine precision).  A grid step is a few sixth-order
Magnus steps, each sampling W at its three Gauss-Legendre nodes through
the trigonometric interpolant.  The free part of the generator is
constant and is taken exactly inside the exponential, so the step size
is set by dx and the variation of W, not by k.  The 4x4 transfer matrices
do not depend on the state: they are built vectorized for a chunk of grid
steps at a time and shared by all columns of a row.

psi1, eta and phi1 are columns of one leftward march, which stops at
x = -8 for every k: all Wronskian samples lie in |x| <= 5.5, so the
reflected values they read sit at x >= -5.5, and the continuum modes are
assembled from values at x >= 0 alone.  Left of -8 the marched solutions
are zero and flagged invalid.  The rows of a leftward march may carry a
per-row coupling scale (W -> s W), so a coupling scan at k = 0 is one
march.  xi1 is marched rightward from x = -8.  The closed channel grows
like e^(mu |x|) under leftward marching, so psi-type solutions (eta is
psi1's twin at k = 0, same rate) are "purged" every unit of x: a multiple
of phi1 is subtracted to zero the closed channel.  Since psi1 is only
defined modulo phi1 and every deliverable (D entries computed from one
representative, s, r, e) is invariant under that shift, purging is exact
bookkeeping, and a final ledger pass maps all stored values to a single
representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import Grid
from .linearized import LinearizedSystem

__all__ = [
    "JostSolution",
    "WronskianMatrix",
    "GeneralizedEigenTable",
    "jost_solve",
    "wronskian",
    "wronskian_matrix",
    "resonance_test",
    "resonance_scan",
    "generalized_eigenfunction",
    "eigentable_build",
    "default_k_grid",
    "dump_table",
    "load_table",
]

W_FLOOR = 1e-17          # potential tail threshold: free forms beyond
PURGE_SPACING = 1.0      # x-distance between closed-channel purges
MARCH_STOP = -8.0        # every leftward march ends here (see above)
MAGNUS_H = 0.03          # largest Magnus step, set by the variation of W; meets
                         # a 1e-8 march error ~100x over (s to ~1e-10, flat in k)
EXPM_THETA = 1.0 / 16.0  # 1-norm of the Taylor-8 argument after scaling
FREE_FIELD_SUP = 1e-15   # below this the system counts as potential-free
TABLE_BLOCK = 256        # k rows per march; a block's largest mu sets its D samples


_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10.0
_CHUNK = 32              # grid steps per batch of transfer matrices
_REAL = np.array([1.0, 1.0, 1j, 1j])  # y -> real frame, where A is real


def _km(sys: LinearizedSystem, lam: float):
    beta = sys.beta
    if lam < beta - 1e-12:
        raise ValueError("lam below the threshold")
    k = np.sqrt(max(lam - beta, 0.0))
    mu = np.sqrt(lam + beta)
    return k, mu


def _w_edge(sys: LinearizedSystem) -> float:
    """2 past the last grid node x >= 0 with |W| >= W_FLOOR (W is even).

    May lie past +L; every consumer clips it to the grid.
    """
    x = sys.grid.nodes
    amp = 0.5 * (np.abs(sys.V3) + np.abs(sys.V4))
    beyond = np.where((x >= 0.0) & (amp > W_FLOOR))[0]
    if beyond.size == 0:
        return 0.0
    return float(x[beyond[-1]] + 2.0)


def _is_free(sys: LinearizedSystem) -> bool:
    return float(np.max(np.abs(sys.V3)) + np.max(np.abs(sys.V4))) < FREE_FIELD_SUP


@dataclass(frozen=True)
class JostSolution:
    """One distinguished solution sampled on the grid.

    y holds the row (xi1, xi1', xi2, xi2') [4, N]; values/derivs are its
    [2, N] views.  Entries outside the validity window (left of the march
    window, xi1's transient skin) are flagged invalid.
    """

    kind: str
    lam: float
    k: float
    mu: float
    grid: Grid
    y: np.ndarray
    valid: np.ndarray         # boolean mask over grid nodes
    residual: float           # weighted interior ODE residual (nan if skipped)
    tail_fit_rate: float      # fitted decay rate of the normalized remainder

    @property
    def values(self) -> np.ndarray:
        return self.y[[0, 2]]

    @property
    def derivs(self) -> np.ndarray:
        return self.y[[1, 3]]

    def at(self, idx):
        y = self.y[:, idx]
        return y[[0, 2]], y[[1, 3]]

    def reflected_at(self, idx_of_minus_x):
        """Values of x -> X(-x) given the indices of -x."""
        y = self.y[:, idx_of_minus_x]
        return y[[0, 2]], -y[[1, 3]]


# ---------------------------------------------------------------------------
# stabilized marching
# ---------------------------------------------------------------------------


def _w_shifted(sys: LinearizedSystem, offsets: np.ndarray):
    """(V3, V4) at x_j + offset dx for every node j, one row per offset.

    The smooth decaying fields are sampled off the grid through their
    trigonometric interpolant, one FFT phase shift per offset, so no
    polynomial interpolation error enters.
    """
    g = sys.grid
    kappa = 2.0 * np.pi * np.fft.rfftfreq(g.N, d=g.dx)
    phase = np.exp(1j * np.multiply.outer(np.asarray(offsets) * g.dx, kappa))
    return (np.fft.irfft(np.fft.rfft(sys.V3) * phase, n=g.N),
            np.fft.irfft(np.fft.rfft(sys.V4) * phase, n=g.N))


def _coupling(w, b):
    """Batch [..., 4, 4] of the W part of the generator in the real frame."""
    out = np.zeros(w.shape + (4, 4))
    out[..., 1, 0] = out[..., 3, 2] = w
    out[..., 1, 2] = out[..., 3, 0] = b
    return out


def _comm(x, y):
    return x @ y - y @ x


def _expm(om, d):
    """exp of a batch [..., nk, 4, 4], balanced by diag(d[q]) per row q.

    Taylor-8 by Horner on D om D^-1, scaled by 2^-s into 1-norm
    EXPM_THETA (truncation below 1e-16) and squared back.
    """
    x = om * d[:, :, None] / d[:, None, :]
    theta = float(np.max(np.sum(np.abs(x), axis=-2)))
    s = max(0, int(np.ceil(np.log2(max(theta, 1e-300) / EXPM_THETA))))
    x = x / 2.0**s
    eye = np.eye(4)
    e = eye + x / 8.0
    for n in range(7, 0, -1):
        e = eye + (x @ e) / n
    for _ in range(s):
        e = e @ e
    return e * d[:, None, :] / d[:, :, None]


def _stepper(sys: LinearizedSystem, ks: np.ndarray, j0: int, n_main: int,
             sign: int, scale=None):
    """Yield the transfer matrices [nk, 4, 4] of n_main grid steps from node j0.

    Row q carries y' = A y, the (H - beta - k_q^2) system in the real frame
    y -> diag(1, 1, i, i) y, where A is real; W is scaled by scale[q] when
    a per-row coupling scale is given.  The i-th matrix takes y from node
    j0 + sign i to j0 + sign (i + 1).  A column marched in a rescaled frame
    z = e^(-g x) y takes the same matrix times the scalar e^(-g sign dx),
    so one matrix per row serves all its columns.

    A grid step is m = ceil(dx / MAGNUS_H) sixth-order Magnus steps on the
    three Gauss-Legendre nodes (Blanes, Casas, Oteo and Ros, Phys. Rep.
    470, 2009).  The matrices exp(Omega) do not depend on the state, so
    they are built vectorized for _CHUNK grid steps at a time.  Omega lies
    in the Lie algebra that keeps the sigma3 Wronskian, so the step keeps
    it to roundoff.
    """
    g = sys.grid
    nk = ks.size
    m = max(1, int(np.ceil(g.dx / MAGNUS_H - 1e-9)))
    h = sign * g.dx / m
    mus = np.sqrt(ks**2 + 2.0 * sys.beta)
    # W at Gauss node c of Magnus step p of the grid step leaving node j:
    # x_j + sign (p + c) dx / m, as rows [p, c] of node-indexed samples
    v3, v4 = _w_shifted(sys, sign * (np.arange(m)[:, None] + _GAUSS).ravel() / m)
    w11 = (0.5 * v3).reshape(m, 3, g.N)
    w12 = (-0.5 * v4).reshape(m, 3, g.N)
    row = np.ones(nk) if scale is None else np.asarray(scale, dtype=float)
    free = np.zeros((nk, 4, 4))
    free[:, 0, 1] = free[:, 2, 3] = 1.0
    free[:, 1, 0] = -ks**2
    free[:, 3, 2] = mus**2
    bal = np.ones((nk, 4))
    bal[:, 1] = bal[:, 3] = 1.0 / np.sqrt(mus**2 + 1.0)
    for i0 in range(0, n_main, _CHUNK):
        nodes = j0 + sign * np.arange(i0, min(i0 + _CHUNK, n_main))
        # coupling at the Gauss nodes: [step, p, c, row, 4, 4]
        cw = _coupling(w11[:, :, nodes].transpose(2, 0, 1)[..., None] * row,
                       w12[:, :, nodes].transpose(2, 0, 1)[..., None] * row)
        a1 = h * (free + cw[:, :, 1])
        a2 = (np.sqrt(15.0) / 3.0) * h * (cw[:, :, 2] - cw[:, :, 0])
        a3 = (10.0 / 3.0) * h * (cw[:, :, 2] - 2.0 * cw[:, :, 1] + cw[:, :, 0])
        c12 = _comm(a1, a2)
        om = a1 + a3 / 12.0 + _comm(-20.0 * a1 - a3 + c12,
                                    a2 - _comm(a1, 2.0 * a3 + c12) / 60.0) / 240.0
        e = _expm(om, bal)
        t = e[:, 0]
        for p in range(1, m):
            t = e[:, p] @ t
        yield from t


def _free_forms(kinds, ks: np.ndarray, mus: np.ndarray):
    """Free forms of the named solutions in their rescaled frames.

    Column c is y = e^(gg[:, c] x) (A[:, c] + x B[:, c]) wherever W
    vanishes: psi1 (1, ik, 0, 0) at rate ik, eta (x, 1, 0, 0) at rate 0
    (k = 0 only) and phi1 (0, 0, 1, -mu) at rate -mu.
    """
    shape = (ks.size, len(kinds))
    A = np.zeros(shape + (4,), dtype=complex)
    B = np.zeros(shape + (4,), dtype=complex)
    gg = np.zeros(shape, dtype=complex)
    for c, kind in enumerate(kinds):
        if kind == "psi1":
            A[:, c, 0] = 1.0
            A[:, c, 1] = 1j * ks
            gg[:, c] = 1j * ks
        elif kind == "eta":
            A[:, c, 1] = 1.0
            B[:, c, 0] = 1.0
        else:
            A[:, c, 2] = 1.0
            A[:, c, 3] = -mus
            gg[:, c] = -mus
    return A, B, gg


def _march_left(sys: LinearizedSystem, ks: np.ndarray, kinds, scale=None):
    """March Jost solutions leftward from the potential edge to MARCH_STOP.

    kinds names the columns, "psi1" and/or "eta" (k = 0 only) followed by
    "phi1", against which the others are purged.  An optional per-row
    coupling scale [nk] marches row q for the system with W -> scale[q] W
    in the same kernel.  Every march starts at _w_edge(sys), 2 past the
    last point where |W| reaches W_FLOOR.  The grid steps apply the
    Magnus transfer matrices of _stepper, which depend on the step and W
    alone, not on the span: where a march starts and where its purges fall
    moves the result only at roundoff.  Returns full-grid rows
    [nk, ncol, 4, N] (components xi1, xi1', xi2, xi2'), reconciled to a
    single representative per purged column and zero left of the window,
    plus the window mask [N].
    """
    g = sys.grid
    nodes = g.nodes
    ks = np.asarray(ks, dtype=float)
    mus = np.sqrt(ks**2 + 2.0 * sys.beta)
    nk, ncol = ks.size, len(kinds)

    edge = _w_edge(sys)
    j_hi = min(int(np.searchsorted(nodes, min(edge, nodes[-1]))), g.N - 1)
    j_lo = min(int(np.searchsorted(nodes, MARCH_STOP)), max(0, j_hi - 1))
    n_main = j_hi - j_lo
    A, B, gg = _free_forms(kinds, ks, mus)
    frame = np.exp(gg * g.dx)[..., None]

    z = (A + nodes[j_hi] * B) * _REAL
    out = np.zeros((nk, ncol, 4, n_main + 1), dtype=complex)
    out[..., n_main] = z
    purge_every = max(1, int(round(PURGE_SPACING / g.dx)))
    ledger = {}  # slot -> purge coefficients [nk, ncol - 1]
    for i, t in enumerate(_stepper(sys, ks, j_hi, n_main, -1, scale)):
        z = (z @ t.transpose(0, 2, 1)) * frame
        slot = n_main - 1 - i
        if (i + 1) % purge_every == 0 or i == n_main - 1:
            c = z[:, :-1, 2] / z[:, -1:, 2]
            z[:, :-1] = z[:, :-1] - c[..., None] * z[:, -1:]
            ledger[slot] = c
        out[..., slot] = z
    out *= np.conj(_REAL)[:, None]
    if not np.all(np.isfinite(out)):
        raise ValueError("Jost march overflow")

    # ledger pass: express every stored value in the final representative.
    # Stored values at/above a purge point already include it, so the
    # running sum S collects events after applying the correction at their
    # own slot, and decays going up in x; past the edge it corrects the
    # free forms, where the rescaled phi1 is the constant A[:, -1]
    decay = np.exp((gg[:, :-1] - gg[:, -1:]) * (-g.dx))  # E(-dx), |.| < 1
    S = np.zeros((nk, ncol - 1), dtype=complex)
    for slot in range(n_main + 1):
        out[:, :-1, :, slot] = out[:, :-1, :, slot] - S[..., None] * out[:, -1:, :, slot]
        if slot in ledger:
            S = S + ledger[slot]
        S = S * decay
    xf = nodes[j_hi + 1:]
    tail = A[..., None] + B[..., None] * xf
    s_tail = S[..., None] * decay[..., None] ** np.arange(xf.size)  # [nk, ncol - 1, nf]
    tail[:, :-1] -= s_tail[:, :, None] * A[:, -1:, :, None]

    y = np.zeros((nk, ncol, 4, g.N), dtype=complex)
    y[..., j_lo : j_hi + 1] = out
    y[..., j_hi + 1:] = tail
    y[..., j_lo:] *= np.exp(gg[..., None, None] * nodes[j_lo:])
    return y, np.arange(g.N) >= j_lo


def _march_xi(sys: LinearizedSystem, lam: float):
    """Growing closed-channel solution by stable rightward marching.

    Any seed converges in direction to xi1 since e^(mu x) dominates to
    the right; the result is normalized against the free form on the
    potential-free tail.  Valid from a transient skin above the seed at
    MARCH_STOP.  Returns the full-grid row [4, N] and its validity mask.
    """
    g = sys.grid
    k, mu = _km(sys, lam)
    nodes = g.nodes
    j_lo = int(np.searchsorted(nodes, MARCH_STOP))
    n_main = g.N - 1 - j_lo
    # in the frame z = e^(-mu x) y every solution stays bounded rightward
    z = np.array([[[0.0, 0.0, 1.0, mu]]]) * _REAL
    out = np.zeros((4, n_main + 1), dtype=complex)
    out[:, 0] = z[0, 0]
    for i, t in enumerate(_stepper(sys, np.array([k]), j_lo, n_main, 1)):
        z = (z @ t.transpose(0, 2, 1)) * np.exp(-mu * g.dx)
        out[:, i + 1] = z[0, 0]
    out *= np.conj(_REAL)[:, None]
    # normalize on the free tail: rescaled xi1 tends to (0, 0, C, mu C)
    y = np.zeros((4, g.N), dtype=complex)
    y[:, j_lo:] = out / out[2, -1] * np.exp(mu * nodes[j_lo:])
    return y, nodes >= nodes[j_lo] + 16.0 / mu


def _ode_residual(sys: LinearizedSystem, lam: float, values, valid) -> float:
    """Weighted sup of (H - lam) xi via an 8th-order stencil, k <= 1.5 only."""
    k, mu = _km(sys, lam)
    if k > 1.5:
        return float("nan")
    g = sys.grid
    c = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560])
    n = g.N
    ok = valid.copy()
    ok[:4] = False
    ok[-4:] = False
    d2 = np.zeros((2, n), dtype=complex)
    for j, cj in enumerate(c):
        d2 += cj * np.roll(values, 4 - j, axis=1)
    d2 /= g.dx**2
    v3, v4 = sys.V3, sys.V4
    r1 = -d2[0] + sys.beta * values[0] + 0.5 * (v3 * values[0] - 1j * v4 * values[1]) - lam * values[0]
    r2 = d2[1] - sys.beta * values[1] + 0.5 * (-1j * v4 * values[0] - v3 * values[1]) - lam * values[1]
    # interior, avoiding the validity edge where the stencil straddles
    edge = np.convolve(ok.astype(float), np.ones(9), mode="same") < 8.5
    ok &= ~edge
    if not np.any(ok):
        return float("nan")
    alpha = _decay_alpha(sys)
    w = np.exp(-np.abs(g.nodes) * alpha / 4.0)
    scale = np.max(w[ok] * (np.abs(values[0]) + np.abs(values[1]))[ok])
    resid = np.max(w[ok] * (np.abs(r1) + np.abs(r2))[ok])
    return float(resid / max(scale, 1e-300))


def _decay_alpha(sys: LinearizedSystem) -> float:
    from .grids import fit_exponential_decay

    a3, _ = fit_exponential_decay(sys.grid.nodes, sys.V3)
    a4, _ = fit_exponential_decay(sys.grid.nodes, sys.V4)
    cands = [a for a in (a3, a4) if a > 0]
    return min(cands) if cands else 1.0


def _tail_rate(sys, kind, lam, values) -> float:
    """Fitted decay rate of the normalized remainder on the far right.

    kind is a marched kind: psi1, eta, phi1 or xi1.

    The window ends where the potential support does: past the edge the
    remainder is at the noise floor, which would flatten the fit.
    """
    from .grids import fit_exponential_decay

    g = sys.grid
    k, mu = _km(sys, lam)
    x = g.nodes
    edge = min(_w_edge(sys), 0.9 * g.L)
    sel = (x > 1.0) & (x < max(edge, 6.0))
    if kind == "psi1":
        rem = values[0, sel] * np.exp(-1j * k * x[sel]) - 1.0
        rem = np.abs(rem) + np.abs(values[1, sel])
    elif kind == "eta":
        rem = np.abs(values[0, sel] - x[sel]) + np.abs(values[1, sel])
    else:  # phi1 ~ e^(-mu x), xi1 ~ e^(mu x) in the second component
        unit = np.exp((mu if kind == "phi1" else -mu) * x[sel])
        rem = np.abs(values[1, sel] * unit - 1.0) + np.abs(values[0, sel] * unit)
    rate, _ = fit_exponential_decay(x[sel], rem, floor=1e-15)
    return rate


def _free_solution(sys, kind, lam) -> JostSolution:
    """Closed form of a named solution of the potential-free system.

    Evaluated at every node: mirroring would map x = -L onto itself,
    where the growing forms are off by e^(2 mu L).
    """
    g = sys.grid
    k, mu = _km(sys, lam)
    x = g.nodes
    y = np.zeros((4, g.N), dtype=complex)
    if kind == "eta":
        y[0], y[1] = x, 1.0
    else:
        # the nonzero component and its rate: value e^(rate x)
        comp, rate = {"psi1": (0, 1j * k), "psi2": (0, -1j * k),
                      "phi1": (1, -mu), "phi2": (1, mu),
                      "xi1": (1, mu), "xi2": (1, -mu)}[kind]
        y[2 * comp] = np.exp(rate * x)
        y[2 * comp + 1] = rate * y[2 * comp]
    return JostSolution(
        kind=kind, lam=float(lam), k=k, mu=mu, grid=g, y=y,
        valid=np.ones(g.N, dtype=bool), residual=0.0, tail_fit_rate=np.inf,
    )


# the marched solution each kind is an image of
_BASE_KIND = {"phi1": "phi1", "phi2": "phi1", "psi1": "psi1", "psi2": "psi1",
              "xi1": "xi1", "xi2": "xi1", "eta": "eta"}


def jost_solve(sys: LinearizedSystem, lam: float, kind: str) -> JostSolution:
    """Construct one distinguished solution of (H - lam) xi = 0.

    psi1, eta, phi1 and xi1 are marched; phi2 and xi2 are their mirrors
    and psi2 = sigma3 conj psi1.  The residual and the tail rate are
    those of the marched solution.
    """
    if kind not in _BASE_KIND:
        raise ValueError(f"unknown kind '{kind}'")
    if kind == "eta" and abs(lam - sys.beta) > 1e-12:
        raise ValueError("eta is defined at the threshold only")
    if _is_free(sys):
        return _free_solution(sys, kind, lam)
    g = sys.grid
    k, mu = _km(sys, lam)
    base = _BASE_KIND[kind]
    if base == "eta":
        rows, valid = _march_left(sys, np.zeros(1), ("eta", "phi1"))
        y = rows[0, 0]
    elif base == "xi1":
        y, valid = _march_xi(sys, lam)
    else:
        rows, valid = _march_left(sys, np.array([k]), ("psi1", "phi1"))
        y = rows[0, 0 if base == "psi1" else 1]
    values = y[[0, 2]]
    resid = _ode_residual(sys, lam, values, valid)
    rate = _tail_rate(sys, base, lam, values)
    if kind == "psi2":
        y = _s3conj(y)
    elif kind != base:
        y, valid = _mirror(y, np.arange(g.N)), g.reflect(valid)
    return JostSolution(
        kind=kind, lam=float(lam), k=float(k), mu=float(mu), grid=g, y=y,
        valid=valid, residual=resid, tail_fit_rate=rate,
    )


# ---------------------------------------------------------------------------
# Wronskians and the scattering matrix
# ---------------------------------------------------------------------------


def _sample_indices(grid: Grid, mu: float = 1.0, count: int = 16):
    """Interior sample nodes for Wronskian evaluation.

    The window shrinks like 1/mu: beyond x ~ 8/mu the closed-channel
    factors differ by e^(2 mu x) and the cross products hit the
    cancellation floor of the stored values.
    """
    hi = min(5.5, max(0.9, 8.0 / max(mu, 1.0)))
    lo = max(grid.dx, 0.08 * hi)
    xs = np.linspace(lo, hi, count)
    return np.unique(np.searchsorted(grid.nodes, xs))


_DERIV_SIGN = np.array([1.0, -1.0, 1.0, -1.0])[:, None]


def _mirror(y, idx):
    """Rows [..., 4, N] of x -> y(-x) at the nodes idx.

    Gathers y at -x and negates the derivative rows.  Node 0 (x = -L)
    maps onto itself: +L is not a grid node.
    """
    n = y.shape[-1]
    return y[..., (n - np.asarray(idx)) % n] * _DERIV_SIGN


def _s3conj(y):
    """sigma3 conj y for rows stacked by component, [..., 2m, N].

    The lower half of the rows holds the second component (xi2, xi2' of
    a march row, xi2 of a value pair) and changes sign.
    """
    out = np.conj(y)
    out[..., y.shape[-2] // 2:, :] *= -1.0
    return out


def _wr(y1, y2):
    """Conserved bilinear form d1^T sigma3 v2 - d2^T sigma3 v1.

    Both arguments are march rows [..., 4, samples] (values and
    derivatives interleaved).  The sigma3 weight in the closed channel is
    what the block structure of H conserves; the plain transpose form
    drifts across the support of the off-diagonal coupling.
    """
    return (y1[..., 1, :] * y2[..., 0, :] - y1[..., 3, :] * y2[..., 2, :]
            - y2[..., 1, :] * y1[..., 0, :] + y2[..., 3, :] * y1[..., 2, :])


def _cmedian(w):
    """Median over the last (sample) axis, taken apart in re and im."""
    return np.median(w.real, axis=-1) + 1j * np.median(w.imag, axis=-1)


def wronskian(X1: JostSolution, X2: JostSolution, reflect_second: bool = False):
    """Constant Wronskian of two solutions at the same lam.

    Evaluated at 16 interior sample points; returns (median, relative
    standard deviation).  Raises when the cross-point scatter shows the
    pair does not solve the same equation.
    """
    if abs(X1.lam - X2.lam) > 1e-10:
        raise ValueError("solutions must share the spectral parameter")
    idx = _sample_indices(X1.grid, X1.mu)
    y1 = X1.y[:, idx]
    y2 = _mirror(X2.y, idx) if reflect_second else X2.y[:, idx]
    w = _wr(y1, y2)
    med = complex(_cmedian(w))
    # a vanishing Wronskian is perfectly constant: floor the relative
    # scale at a small fraction of the largest cross product
    a1, a2 = np.abs(y1), np.abs(y2)
    prod = float(np.max(a1[1] * a2[0] + a1[3] * a2[2] + a2[1] * a1[0] + a2[3] * a1[2]))
    scale = max(abs(med), 1e-4 * prod, 1e-300)
    spread = float(np.std(w) / scale)
    if spread > 1e-5:
        raise ValueError("not constant")
    return med, spread


@dataclass(frozen=True)
class WronskianMatrix:
    """2x2 Wronskian matrix of [psi1, phi1] against their reflections."""

    k: float
    d11: complex
    d12: complex
    d21: complex
    d22: complex
    spread: float  # worst relative cross-point scatter among the entries

    @property
    def det(self) -> complex:
        return self.d11 * self.d22 - self.d12 * self.d21

    @property
    def symmetry_defect(self) -> float:
        scale = max(abs(self.d12), abs(self.d21), abs(self.d22), 1e-300)
        return abs(self.d12 - self.d21) / scale


def _dmatrix_from_pair(ypsi, yphi, idx_samples):
    """D entries W(X, Y(-.)), X, Y in [psi1, phi1], from blocks [nk, 4, N].

    idx_samples must come from _sample_indices with the block's largest mu.
    """
    pair = np.stack([ypsi[..., idx_samples], yphi[..., idx_samples]], axis=1)
    mirrored = np.stack([_mirror(ypsi, idx_samples), _mirror(yphi, idx_samples)], axis=1)
    w = _wr(pair[:, :, None], mirrored[:, None])    # [nk, 2, 2, samples]
    d = _cmedian(w)
    # cross-point scatter relative to the dominant matrix entry, so that
    # structural zeros (d12 for even potentials) do not read as drift
    scale = np.maximum(np.max(np.abs(d), axis=(1, 2)), 1e-300)
    spread = np.max(np.std(w, axis=-1), axis=(1, 2)) / scale
    return d[:, 0, 0], d[:, 0, 1], d[:, 1, 0], d[:, 1, 1], spread


def _pair_rows(sys: LinearizedSystem, ks: np.ndarray, scale=None):
    """psi1 and phi1 rows [nk, 4, N] of a k block, with their D entries.

    scale is _march_left's optional per-row coupling scale.  Returns
    (psi1 rows, phi1 rows, Wronskian sample indices for the block's
    largest mu, (d11, d12, d21, d22, spread)).
    """
    y, _valid = _march_left(sys, ks, ("psi1", "phi1"), scale)
    mu_max = float(np.sqrt(np.max(ks) ** 2 + 2.0 * sys.beta))
    samples = _sample_indices(sys.grid, mu_max)
    ypsi, yphi = y[:, 0], y[:, 1]
    return ypsi, yphi, samples, _dmatrix_from_pair(ypsi, yphi, samples)


def wronskian_matrix(sys: LinearizedSystem, lam: float) -> WronskianMatrix:
    k, mu = _km(sys, lam)
    if _is_free(sys):
        return WronskianMatrix(k=k, d11=2j * k, d12=0.0, d21=0.0, d22=2.0 * mu, spread=0.0)
    _psi, _phi, _samples, (d11, d12, d21, d22, spread) = _pair_rows(sys, np.array([k]))
    return WronskianMatrix(
        k=k, d11=complex(d11[0]), d12=complex(d12[0]), d21=complex(d21[0]),
        d22=complex(d22[0]), spread=float(spread[0]),
    )


def resonance_test(sys: LinearizedSystem, rel_tol: float = 1e-6) -> dict:
    """Threshold-resonance verdict from det D(0) against |D22(0)|^2."""
    d = wronskian_matrix(sys, sys.beta)
    scale = max(abs(d.d22) ** 2, 1e-300)
    margin = abs(d.det) / scale
    return {
        "resonant": bool(margin < rel_tol),
        "detD0": complex(d.det),
        "margin": float(margin),
        "d22": complex(d.d22),
        "matrix": d,
    }


def _scaled_system(sys: LinearizedSystem, s: float) -> LinearizedSystem:
    return LinearizedSystem(grid=sys.grid, beta=sys.beta, V1=s * sys.V1, V2=s * sys.V2,
                            profile=sys.profile)


def resonance_scan(sys0: LinearizedSystem, s_values) -> dict:
    """Coupling scan of the threshold Wronskian data for W = s W0.

    Returns per-s det D(0, s W0) and the Lemma-style Wronskian
    D11(0, s W0) = W(psi1, psi1(-.)) at the threshold, whose slope in s
    at 0 equals minus the integral of the (1,1) entry of W, i.e.
    -(1/2) int (V3).  The raw integral of V3 is also reported.  The
    nonzero couplings are the rows of one k = 0 march with a per-row
    coupling scale; couplings that leave the field potential-free get
    the free data det D(0) = D11(0) = 0.
    """
    svals = np.asarray(sorted(float(s) for s in s_values))
    if np.max(np.abs(svals)) > 0.5 + 1e-12:
        raise ValueError("scan couplings must satisfy |s| <= 0.5")
    sup = float(np.max(np.abs(sys0.V3)) + np.max(np.abs(sys0.V4)))
    live = (np.abs(svals) >= 1e-14) & (np.abs(svals) * sup >= FREE_FIELD_SUP)
    dets = np.zeros(svals.size, dtype=complex)
    wlems = np.zeros(svals.size, dtype=complex)
    margins = np.zeros(svals.size)
    if np.any(live):
        _psi, _phi, _samples, (d11, d12, d21, d22, _spread) = _pair_rows(
            sys0, np.zeros(np.count_nonzero(live)), svals[live])
        dets[live] = d11 * d22 - d12 * d21
        wlems[live] = d11
        margins[live] = np.abs(dets[live]) / np.maximum(np.abs(d22) ** 2, 1e-300)
    int_v3 = float(np.real(sys0.grid.integrate(sys0.V3)))
    small = np.abs(svals) <= 0.1 + 1e-12
    slope = np.nan
    if np.count_nonzero(small) >= 2:
        slope = np.polyfit(svals[small], np.real(wlems)[small], 1)[0]
    return {
        "s": svals,
        "detD0": dets,
        "wronskian_lemma": wlems,
        "margins": margins,
        "slope": float(np.real(slope)),
        "int_v3": int_v3,
        "half_int_v3": 0.5 * int_v3,
    }


# ---------------------------------------------------------------------------
# continuum modes e(x, k)
# ---------------------------------------------------------------------------


def _sr_coeffs(ypsi, yphi, d11, d12, d21, d22, ks, samples):
    """Transmission s, phi1 admixture a, reflection r and weight b per k.

    The right representation is e = s psi1 + a phi1.  Its left expansion
    e = psi2(-x) + r psi1(-x) + b phi1(-x), paired with psi1 and phi1,
    gives W(psi1, e) = W(phi1, e) = 0 (both are Jost solutions at
    +infinity, so W(psi1, phi1) = 0), that is D (r, b) = -(c1, c2) with
    c1 = W(psi1, psi2(-.)) and c2 = W(phi1, psi2(-.)).
    """
    det = d11 * d22 - d12 * d21
    s = 2j * ks * d22 / det
    a = -2j * ks * d12 / det
    pair = np.stack([ypsi[..., samples], yphi[..., samples]], axis=1)
    psi2_m = _s3conj(_mirror(ypsi, samples))
    c = _cmedian(_wr(pair, psi2_m[:, None]))
    c1, c2 = c[:, 0], c[:, 1]
    r = (d12 * c2 - d22 * c1) / det
    b = (d21 * c1 - d11 * c2) / det
    return s, a, r, b


@dataclass(frozen=True)
class GeneralizedEigenTable:
    """Continuum modes e(x, k) with scattering coefficients on a k grid."""

    system: LinearizedSystem
    k: np.ndarray
    e: np.ndarray              # [nk, 2, N]
    s: np.ndarray              # transmission
    r: np.ndarray              # reflection
    a: np.ndarray              # phi1 admixture of the right representation
    detD: np.ndarray
    d11: np.ndarray
    d12: np.ndarray
    d21: np.ndarray
    d22: np.ndarray
    wronskian_spread: np.ndarray
    resonant: bool
    resonance_margin: float
    free_reference: bool = False

    def unitarity_defect(self) -> np.ndarray:
        return np.abs(np.abs(self.s) ** 2 + np.abs(self.r) ** 2 - 1.0)

    def orthogonality_defect(self) -> np.ndarray:
        return np.abs(np.real(np.conj(self.s) * self.r))


def _assemble_e(g: Grid, ypsi, yphi, s, a, b, r, ks, beta):
    """Right representation for x >= 0, left expansion for x < 0."""
    nk = ypsi.shape[0]
    n = g.N
    x = g.nodes
    right = x >= 0
    e = np.zeros((nk, 2, n), dtype=complex)
    vpsi = ypsi[:, (0, 2)]
    vphi = yphi[:, (0, 2)]
    e[:, :, right] = (
        s[:, None, None] * vpsi[:, :, right] + a[:, None, None] * vphi[:, :, right]
    )
    lidx = np.where(~right)[0]
    ridx = (n - lidx) % n
    vpsi_ref = vpsi[:, :, ridx]
    vphi2 = vphi[:, :, ridx]
    e[:, :, lidx] = (
        _s3conj(vpsi_ref) + r[:, None, None] * vpsi_ref + b[:, None, None] * vphi2
    )
    # node 0 sits at -L whose mirror +L is not a grid node (the periodic
    # flip wraps back to -L); use the exact potential-free forms there
    ks = np.asarray(ks, dtype=float)
    mus = np.sqrt(ks**2 + 2.0 * beta)
    osc = np.exp(1j * ks * g.L)
    e[:, 0, 0] = np.conj(osc) + r * osc
    e[:, 1, 0] = b * np.exp(-mus * g.L)
    return e


def _mode_block(sys: LinearizedSystem, ks: np.ndarray):
    """Continuum modes of a block of k > 0 from one Jost march.

    Returns (e [nk, 2, N], s, r, a, (d11, d12, d21, d22, spread)); raises
    when D is near-singular at some k of the block.
    """
    ypsi, yphi, samples, dmat = _pair_rows(sys, ks)
    d11, d12, d21, d22, _spread = dmat
    det = d11 * d22 - d12 * d21
    if np.any(np.abs(det) < 1e-8 * np.maximum(np.abs(d22) ** 2, 1e-300)):
        raise ValueError("near-singular D inside the k grid")
    s, a, r, b = _sr_coeffs(ypsi, yphi, d11, d12, d21, d22, ks, samples)
    return _assemble_e(sys.grid, ypsi, yphi, s, a, b, r, ks, sys.beta), s, r, a, dmat


def generalized_eigenfunction(sys: LinearizedSystem, lam: float):
    """Continuum mode and coefficients at one spectral point.

    Returns (e_values [2, N], s, r).  Uses the analytic 2ik factor, so
    the construction is regular through k = 0 and e(., 0) = 0 whenever
    the system is non-resonant.
    """
    k, mu = _km(sys, lam)
    if _is_free(sys):
        g = sys.grid
        e = np.zeros((2, g.N), dtype=complex)
        e[0] = np.exp(1j * k * g.nodes)
        return e, 1.0 + 0.0j, 0.0 + 0.0j
    if k == 0.0:
        # e(., 0) = 0 for a non-resonant system (analytic 2ik factor)
        return np.zeros((2, sys.grid.N), dtype=complex), 0.0 + 0.0j, -1.0 + 0.0j
    e, s, r, _a, _dmat = _mode_block(sys, np.array([k]))
    return e[0], complex(s[0]), complex(r[0])


def default_k_grid(k_max: float = 13.1) -> np.ndarray:
    """Piecewise-uniform k grid, refined toward the threshold.

    The far tail matters: spectral coefficients of localized fields
    decay only like e^(-c k) with c set by the distance of the discrete
    eigenvalues continued to the complex k plane, so the grid reaches
    past k = 10 by default.
    """
    blocks = [
        (0.0, 0.1, 0.002),
        (0.1, 2.1, 0.004),
        (2.1, 5.1, 0.01),
        (5.1, min(k_max, 14.1), 0.02),
    ]
    ks = [np.array([0.0])]
    for lo, hi, dk in blocks:
        if hi <= lo:
            continue
        npts = int(round((hi - lo) / dk))
        ks.append(lo + dk * np.arange(1, npts + 1))
    out = np.concatenate(ks)
    return out[out <= k_max + 1e-12]


def eigentable_build(
    sys: LinearizedSystem,
    k_grid: Optional[np.ndarray] = None,
) -> GeneralizedEigenTable:
    """Build e(x, k), s(k), r(k) over the k grid in blocks of TABLE_BLOCK rows."""
    g = sys.grid
    ks = default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)
    if _is_free(sys):
        e = np.zeros((ks.size, 2, g.N), dtype=complex)
        e[:, 0, :] = np.exp(1j * ks[:, None] * g.nodes[None, :])
        ones = np.ones(ks.size, dtype=complex)
        zeros = np.zeros(ks.size, dtype=complex)
        return GeneralizedEigenTable(
            system=sys, k=ks, e=e, s=ones, r=zeros, a=zeros,
            detD=4j * ks * np.sqrt(ks**2 + 2 * sys.beta),
            d11=2j * ks, d12=zeros, d21=zeros,
            d22=2.0 * np.sqrt(ks**2 + 2 * sys.beta) * ones,
            wronskian_spread=np.zeros(ks.size), resonant=True,
            resonance_margin=0.0, free_reference=True,
        )

    res = resonance_test(sys)
    if res["resonant"]:
        raise ValueError("near-singular D: system is threshold-resonant")

    nk = ks.size
    e = np.zeros((nk, 2, g.N), dtype=complex)
    s = np.zeros(nk, dtype=complex)
    r = np.zeros(nk, dtype=complex)
    a = np.zeros(nk, dtype=complex)
    d11 = np.zeros(nk, dtype=complex)
    d12 = np.zeros(nk, dtype=complex)
    d21 = np.zeros(nk, dtype=complex)
    d22 = np.zeros(nk, dtype=complex)
    spread = np.zeros(nk)

    pos = np.where(ks > 0)[0]
    for start in range(0, pos.size, TABLE_BLOCK):
        sel = pos[start : start + TABLE_BLOCK]
        e[sel], s[sel], r[sel], a[sel], dmat = _mode_block(sys, ks[sel])
        d11[sel], d12[sel], d21[sel], d22[sel], spread[sel] = dmat
    # k = 0: D from the resonance test, r = -1, and s = a = 0, so that
    # e(., 0) = 0 for a non-resonant system (analytic 2ik factor)
    d, zero = res["matrix"], ks == 0
    d11[zero], d12[zero], d21[zero], d22[zero] = d.d11, d.d12, d.d21, d.d22
    r[zero] = -1.0
    return GeneralizedEigenTable(
        system=sys, k=ks, e=e, s=s, r=r, a=a,
        detD=d11 * d22 - d12 * d21, d11=d11, d12=d12, d21=d21, d22=d22,
        wronskian_spread=spread, resonant=bool(res["resonant"]),
        resonance_margin=float(res["margin"]),
    )


def e_over_k(sys: LinearizedSystem, k: float) -> np.ndarray:
    """(e/k)(x) through the analytic factor, regular at k = 0 (k >= 0)."""
    g = sys.grid
    if _is_free(sys):
        out = np.zeros((2, g.N), dtype=complex)
        if k > 0:
            out[0] = np.exp(1j * k * g.nodes) / k
        return out
    if k > 0:
        return _mode_block(sys, np.array([k]))[0][0] / k
    # right half from the analytic factor; the left half as the k -> 0
    # limit of the reflection expansion (the raw right representation
    # cancels exponentially large terms for x < 0)
    fp, fh, _samples, (a11, a12, a21, a22, _sp) = _pair_rows(sys, np.zeros(1))
    det = (a11 * a22 - a12 * a21)[0]
    s_over_k = 2j * a22[0] / det
    a_over_k = -2j * a12[0] / det
    out = s_over_k * fp[0, (0, 2)] + a_over_k * fh[0, (0, 2)]
    delta = 2e-3
    lo = e_over_k(sys, delta)
    hi = e_over_k(sys, 2 * delta)
    left = g.nodes < 0
    out[:, left] = 2.0 * lo[:, left] - hi[:, left]
    return out


_FD5_FIRST = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD5_SECOND = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def ek_growth_report(
    sys: LinearizedSystem,
    k_report=None,
    delta: float = 2e-3,
    x_min: float = 2.0,
    x_hi_frac: float = 0.45,
    n_x: int = 14,
):
    """Spatial-growth fits of sup_k |d^n/dk^n (e/k)| for n = 0, 1, 2.

    The k-derivatives are 5-point central stencils of the analytic
    (e/k) rows (never a division of sampled e by k near the threshold:
    the k = 0 row uses the closed analytic factor).  For each |x| the
    sup runs over the report k list and both signs of x; the returned
    exponents are log-log fits against (1 + |x|) and should sit near
    n + 1.
    """
    g = sys.grid
    if k_report is None:
        k_report = np.array([0.01, 0.03, 0.08, 0.2, 0.5, 1.0, 2.0, 4.0])
    k_report = np.asarray(k_report, dtype=float)
    stencil = np.arange(-2, 3) * delta
    ks = np.unique(np.concatenate([(k + stencil) for k in k_report]))
    if np.any(ks <= 0):
        raise ValueError("report k values must exceed 2*delta")
    rows = _mode_block(sys, ks)[0] / ks[:, None, None]
    row0 = e_over_k(sys, 0.0)

    sup = {0: np.zeros(g.N), 1: np.zeros(g.N), 2: np.zeros(g.N)}
    sup[0] = np.maximum(sup[0], np.max(np.abs(row0), axis=0))
    for k in k_report:
        idx = np.array([int(np.argmin(np.abs(ks - (k + s)))) for s in stencil])
        block = rows[idx]
        sup[0] = np.maximum(sup[0], np.max(np.abs(block[2]), axis=0))
        d1 = np.tensordot(_FD5_FIRST, block, axes=(0, 0)) / delta
        d2 = np.tensordot(_FD5_SECOND, block, axes=(0, 0)) / delta**2
        sup[1] = np.maximum(sup[1], np.max(np.abs(d1), axis=0))
        sup[2] = np.maximum(sup[2], np.max(np.abs(d2), axis=0))

    xs = np.geomspace(x_min, x_hi_frac * g.L, n_x)
    exponents = {}
    curves = {}
    for n in (0, 1, 2):
        vals = []
        for xq in xs:
            jr = int(np.searchsorted(g.nodes, xq))
            jl = int(np.searchsorted(g.nodes, -xq))
            vals.append(max(sup[n][jr], sup[n][jl]))
        vals = np.array(vals)
        slope, _ = np.polyfit(np.log(1.0 + xs), np.log(vals), 1)
        exponents[n] = float(slope)
        curves[n] = (xs, vals)
    return {"exponents": exponents, "curves": curves, "k_report": k_report}


# ---------------------------------------------------------------------------
# binary dump + sidecar
# ---------------------------------------------------------------------------


def dump_table(table: GeneralizedEigenTable, path, sidecar_path=None):
    """Binary grid dump: int64 N, int64 k-count, float64 L, float64 k_max,
    then the row-major complex mode table; JSON sidecar with s, r."""
    import json

    g = table.system.grid
    with open(path, "wb") as fh:
        np.array([g.N, table.k.size], dtype="<i8").tofile(fh)
        np.array([g.L, float(table.k[-1])], dtype="<f8").tofile(fh)
        np.ascontiguousarray(table.e, dtype="<c16").tofile(fh)
    if sidecar_path is not None:
        payload = {
            "k": table.k.tolist(),
            "s_re": np.real(table.s).tolist(),
            "s_im": np.imag(table.s).tolist(),
            "r_re": np.real(table.r).tolist(),
            "r_im": np.imag(table.r).tolist(),
            "resonant": table.resonant,
            "resonance_margin": table.resonance_margin,
        }
        with open(sidecar_path, "w") as fh:
            json.dump(payload, fh)


def load_table(path):
    """Read back (N, k, L, k_max, e-table) from the binary dump."""
    with open(path, "rb") as fh:
        ints = np.fromfile(fh, dtype="<i8", count=2)
        floats = np.fromfile(fh, dtype="<f8", count=2)
        n, nk = int(ints[0]), int(ints[1])
        table = np.fromfile(fh, dtype="<c16").reshape(nk, 2, n)
    return {"N": n, "k_count": nk, "L": float(floats[0]), "k_max": float(floats[1]), "e": table}
