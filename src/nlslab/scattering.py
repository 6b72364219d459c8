"""Jost solutions, Wronskians, threshold resonances and continuum modes.

For spectral parameter lam >= beta write k = sqrt(lam - beta) and
mu = sqrt(lam + beta) (nonnegative real parts).  The solution space of
(H - lam) xi = 0 is spanned by an oscillatory channel (rates +-ik in the
first component) and a closed channel (rates +-mu in the second), and
the distinguished solutions are fixed by their behavior at +infinity:

    phi1 ~ (0, e^(-mu x))     decaying closed channel
    psi1 ~ (e^(ikx), 0)       outgoing oscillatory
    psi2 ~ (e^(-ikx), 0)      incoming oscillatory (= sigma3 conj psi1)

The 2x2 Wronskian matrix D(k) built from [psi1, phi1] against their
reflections (phi2(x) = phi1(-x) decays at -infinity) encodes the
scattering data.  psi1 is only defined modulo phi1, and the program fixes
it in the gauge D12 = W(psi1, phi1(-.)) = 0.  The system is even, so D is
symmetric and D21 = D12 = 0 too: D = diag(D11, D22), with
D11 = W(psi1, psi1(-.)) the Lemma Wronskian.  So det D(0) = D11(0) D22(0)
vanishes exactly when D11(0) does, the threshold-resonance criterion,
s(k) = 2ik / D11 is the transmission coefficient, and the continuum mode

    e(x, k) = s(k) psi1(x, k)

obeys |s|^2 + |r|^2 = 1 with the reflection coefficient r(k) from the
left-side expansion e = psi2(-x) + r psi1(-x) + b phi2(x).

Only psi1 and phi1 are marched.  psi2 and the mirrored solutions
are never stored: they exist only as pairings of the march rows, taken
through the two symmetries of the even system: _mirror (x -> -x,
derivative rows negated) and _s3conj (sigma3 conjugation), applied to
the march's row layout (xi1, xi1', xi2, xi2') of the two components of
xi.  Pairing the left expansion of e with psi1 and phi1 gives r and b,
one diagonal entry of D each.  The rows, and the table e, live on the
closed node set -L + j dx, j = 0..N: the grid's N nodes and x = +L, where
x -> -x is the index reversal, node 0 (x = -L) included.

Every k >= 0 and every system take the one path _pair_rows -> _sr_coeffs
-> _assemble_e.  At k = 0 psi2 = psi1, so for a non-resonant system the
general formulas give s = b = 0, r = -1 and e(., 0) = 0 exactly.  One
rule decides the threshold resonance: the margin |D11 / D22| against
RESONANT_MARGIN, which resonance_test reports and _sr_coeffs enforces on
every row.  A potential-free system is marched like any other (the march
reproduces e = e^(ikx) and D(0) = diag(0, 2 mu)); it is threshold-resonant,
so its k = 0 row raises like that of any resonant system.

Numerics: each solution is marched in a rescaled frame z = e^(-gx) y
from the point where the potentials fall below 1e-17 (outside, the free
forms are exact to machine precision).  A grid step is a few sixth-order
Magnus steps, each sampling W at its three Gauss-Legendre nodes through
the trigonometric interpolant.  The free part of the generator is
constant and is taken exactly inside the exponential, so the step size
is set by dx and the variation of W, not by k.  The generator is formed
from 2x2 blocks in closed form and is affine in k^2, so one generator
and its k^2 part per grid step, shared by every k row, give the rows'
generators.  The 4x4 transfer matrices do not depend on the state: they
are built vectorized for batches of (grid step, row) pairs and shared by
psi1 and phi1, and each run of steps between two purges is applied
through its running products.

psi1 and phi1 are the two columns of one leftward march of a k block.
Its Wronskian samples lie in 0 < x <= R, R = 8/mu clipped to [0.9, 5.5]
(mu the block's largest), so the reflected values they read sit at
x >= -R, and the continuum modes are assembled from values at x >= 0
alone: the march stops one node past the mirror of the farthest sample,
and left of that it is zero.  The rows of a march may carry a per-row
coupling scale (W -> s W), so a coupling scan at k = 0 is one march.
The closed channel grows like e^(mu |x|) under leftward marching, so
psi1 is "purged" every unit of x: a multiple of phi1 is subtracted to
zero the closed channel.  Since psi1 is only defined modulo phi1,
purging is exact bookkeeping: a final ledger pass maps all stored values
to a single representative, and _pair_rows moves that into the gauge
D12 = 0, which depends neither on the purges nor on where the march
stopped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .linearized import LinearizedSystem

__all__ = [
    "GeneralizedEigenTable",
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
MAGNUS_H = 0.03          # largest Magnus step, set by the variation of W; meets
                         # a 1e-8 march error ~100x over (s to ~1e-10, flat in k)
EXPM_THETA = 1.0 / 16.0  # 1-norm of the Taylor-8 argument after scaling
RESONANT_MARGIN = 1e-6   # |D11 / D22| below this reads near-singular D (resonant at k = 0)
TABLE_BLOCK = 256        # k rows per march; a block's largest mu sets its D samples
EK_DELTA = 2e-3          # k step of the (e/k) stencils and of its k -> 0 limit


_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10.0
_BATCH = 2048            # (grid step, k row) pairs per batch of transfer matrices:
                         # 8 steps of a TABLE_BLOCK or a whole one-row march, each
                         # [..., 4, 4] temporary ~0.5 MB at 2 Magnus steps per step
_REAL = np.array([1.0, 1.0, 1j, 1j])  # y -> real frame, where A is real
_K2 = np.diag([-1.0, 1.0])              # d p / d(k^2) of the generator's middle block


def _wavenumber(sys: LinearizedSystem, lam: float) -> float:
    if lam < sys.beta - 1e-12:
        raise ValueError("lam below the threshold")
    return np.sqrt(max(lam - sys.beta, 0.0))


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


def _sym(a, b):
    """Batch [..., 2, 2] of the symmetric blocks [[a, b], [b, a]]."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, a], axis=-1)], axis=-2)


def _t(x):
    return np.swapaxes(x, -1, -2)


def _omega_p(h, p, q, r):
    """The blocks (o11, o21) of _omega's part linear in p (its o12 has none)."""
    pq, pr = p @ q, p @ r
    sq = (pq + _t(pq)) @ q
    return (h**3 * (pq / 720.0 + _t(pq) / 240.0),
            h * p + (h**2 / 360.0) * (pr + _t(pr)) + (h**3 / 14400.0) * (sq + _t(sq)))


def _layout(o11, o12, o21):
    """[..., 4, 4] in the march's row layout of the generator whose 2x2
    blocks in the basis (u, u') are [[o11, o12], [o21, -o11^T]]."""
    shape = np.broadcast_shapes(o11.shape, o12.shape, o21.shape)[:-2]
    om = np.empty(shape + (2, 2, 2, 2))   # [..., a, d, b, e]: row 2a + d, column 2b + e
    om[..., :, 0, :, 0] = o11
    om[..., :, 1, :, 1] = -_t(o11)
    om[..., :, 0, :, 1] = o12
    om[..., :, 1, :, 0] = o21
    return om.reshape(shape + (4, 4))


def _omega(h, p, q, r):
    """Sixth-order Magnus generator [..., 4, 4] in the march's row layout.

    In the basis (u, u') of the two components u = (xi1, i xi2) the
    generator is [[0, I], [M, 0]] with M a symmetric 2x2 matrix, so the
    three Gauss-node moments are a1 = h [[0, I], [p, 0]] (p = M at the
    middle node) and a2 = [[0, 0], [q, 0]], a3 = [[0, 0], [r, 0]], whose
    coupling blocks q and r already carry their factors of h.  Then
    [a1, a2] = h diag(q, -q), and the commutator form of the scheme,

        a1 + a3/12 + [-20 a1 - a3 + [a1, a2],
                      a2 - [a1, 2 a3 + [a1, a2]] / 60] / 240,

    reduces to the 2x2 blocks below, for any symmetric p, q and r.  No
    product of two p appears, so the generator is affine in p: _omega_p
    is its linear part.
    """
    qq, rr, rq = q @ q, r @ r, r @ q
    l11, l21 = _omega_p(h, p, q, r)
    return _layout((-(h / 12.0) * q + (h**2 / 7200.0) * rq) + l11,
                   (h**3 / 3600.0) * qq - (h**2 / 180.0) * r + h * np.eye(2),
                   (r / 12.0 + h * (rr / 3600.0 - qq / 120.0)) + l21)


def _omega_k2(h, q, r):
    """Omega1 with _omega(h, p0 + k^2 diag(-1, 1), q, r) = _omega(h, p0, q, r) + k^2 Omega1.

    Omega1 is the linear part at diag(-1, 1), at the shape of q and r, so
    every k row of a grid step shares it with _omega at p0.
    """
    l11, l21 = _omega_p(h, _K2, q, r)
    return _layout(l11, np.zeros((2, 2)), l21)


def _expm(x):
    """exp of a batch [..., 4, 4], overwriting x.

    Taylor-8 on x scaled by 2^-s into 1-norm EXPM_THETA (truncation below
    1e-16) and squared back.  The polynomial is taken by Paterson-Stockmeyer
    as P0(x) + x^4 P1(x), with P0 of degree 3 and P1 of degree 4 in x: 4
    products instead of Horner's 8.  Terms and squarings are formed in
    place.
    """
    a = np.abs(x)
    theta = float(np.max(a[..., 0, :] + a[..., 1, :] + a[..., 2, :] + a[..., 3, :]))
    s = max(0, int(np.ceil(np.log2(max(theta, 1e-300) / EXPM_THETA))))
    x *= 2.0**-s
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    diag = np.arange(4)
    # P1 = x^4/8! + x^3/7! + x^2/6! + x/5! + 1/4! = ((((x^4/8 + x^3)/7 + x^2)/6 + x)/5 + 1)/24
    p1 = x4 / 8.0
    for term, n in ((x3, 7.0), (x2, 6.0), (x, 5.0)):
        p1 += term
        p1 /= n
    p1[..., diag, diag] += 1.0
    p1 /= 24.0
    e = np.matmul(x4, p1, out=a)
    x3 /= 6.0
    e += x3
    x2 /= 2.0
    e += x2
    e += x
    e[..., diag, diag] += 1.0
    for _ in range(s):
        np.matmul(e, e, out=x2)
        e, x2 = x2, e
    return e


def _stepper(sys: LinearizedSystem, ks: np.ndarray, j0: int, n_main: int,
             sign: int, scale=None):
    """Transfer matrices [n_main, nk, 4, 4] of n_main grid steps from node j0.

    Row q carries y' = A y, the (H - beta - k_q^2) system in the real frame
    y -> diag(1, 1, i, i) y, where A is real; W is scaled by scale[q] when
    a per-row coupling scale is given.  Matrix i takes y from node
    j0 + sign i to j0 + sign (i + 1).  A column marched in a rescaled frame
    z = e^(-g x) y takes the same matrix times the scalar e^(-g sign dx),
    so one matrix per row serves both psi1 and phi1.

    A grid step is m = ceil(dx / MAGNUS_H) sixth-order Magnus steps on the
    three Gauss-Legendre nodes (Blanes, Casas, Oteo and Ros, Phys. Rep.
    470, 2009), with the generator in the closed 2x2-block form of _omega.
    Its middle-node block is p = W + diag(0, 2 beta) + k^2 diag(-1, 1), so
    the generator of row q is Omega0 + k_q^2 Omega1 (_omega at p0 and
    _omega_k2), built once per grid step at the shape W has: one for all
    rows, or one per row under a coupling scale.  A march whose rows all
    sit at k = 0 (the threshold data) takes Omega0 alone.  Each row is
    balanced by D = diag(d[q]) before the exponential and taken back once
    per grid step, after the product of its Magnus steps:
    D^-1 exp(D Omega_m D^-1) ... exp(D Omega_1 D^-1) D.
    The exponentials do not depend on the state, so they are formed
    vectorized for batches of about _BATCH (grid step, row) pairs.  Omega
    lies in the Lie algebra that keeps the sigma3 Wronskian, so the step
    keeps it to roundoff.
    """
    g = sys.grid
    nk = ks.size
    m = max(1, int(np.ceil(g.dx / MAGNUS_H - 1e-9)))
    h = sign * g.dx / m
    mus = np.sqrt(ks**2 + 2.0 * sys.beta)
    # W at Gauss node c of Magnus step p of the grid step leaving node j:
    # x_j + sign (p + c) dx / m, as rows [p, c] of node-indexed samples
    v3, v4 = _w_shifted(sys, sign * (np.arange(m)[:, None] + _GAUSS).ravel() / m)
    nodes = j0 + sign * np.arange(n_main)
    row = np.ones(1) if scale is None else np.asarray(scale, dtype=float)
    # W at the Gauss nodes, [step, p, c, row, 2, 2]
    w = _sym((0.5 * v3).reshape(m, 3, g.N)[:, :, nodes].transpose(2, 0, 1)[..., None] * row,
             (-0.5 * v4).reshape(m, 3, g.N)[:, :, nodes].transpose(2, 0, 1)[..., None] * row)
    q = (np.sqrt(15.0) / 3.0) * h * (w[:, :, 2] - w[:, :, 0])
    r = (10.0 / 3.0) * h * (w[:, :, 2] - 2.0 * w[:, :, 1] + w[:, :, 0])
    om0 = _omega(h, w[:, :, 1] + np.diag([0.0, 2.0 * sys.beta]), q, r)
    om1 = _omega_k2(h, q, r) if np.any(ks) else None
    d = np.ones((nk, 4))
    d[:, 1] = d[:, 3] = 1.0 / np.sqrt(mus**2 + 1.0)
    bal = d[:, :, None] / d[:, None, :]          # D Omega D^-1 = Omega * bal
    k2bal = ks[:, None, None] ** 2 * bal
    out = np.empty((n_main, nk, 4, 4))
    step = max(1, _BATCH // nk)
    for i0 in range(0, n_main, step):
        i1 = min(i0 + step, n_main)
        x = om0[i0:i1] * bal
        if om1 is not None:
            x += om1[i0:i1] * k2bal
        e = _expm(x)
        t = e[:, 0]
        for p in range(1, m):
            t = e[:, p] @ t
        np.multiply(t, _t(bal), out=out[i0:i1])
    return out


def _march_left(sys: LinearizedSystem, ks: np.ndarray, scale=None):
    """March psi1 and phi1 leftward from the potential edge to the block's reach.

    psi1 is purged against phi1.  An optional per-row coupling scale [nk]
    marches row q for the system with W -> scale[q] W in the same kernel.
    Every march starts at _w_edge(sys), 2 past the last point where |W|
    reaches W_FLOOR, and stops one node past the mirror of the farthest
    Wronskian sample of the block (_block_samples).
    The grid steps apply the Magnus transfer matrices of _stepper, which
    depend on the step and W alone, not on the span: where a march starts
    moves the result only at roundoff, and where it stops moves psi1 only
    by a multiple of phi1, which _pair_rows' gauge takes out.

    The purges split the march into blocks of purge_every grid steps.
    Inside each block the transfer matrices are replaced, in place, by
    their running products from the block's first step, one batched
    product per offset for all blocks at once; then one pass over the
    blocks carries the state from each purge to the next and writes the
    block's rows into the returned arrays.  Returns the rows (psi1, phi1),
    each [nk, 4, N + 1] (components xi1, xi1', xi2, xi2') on the closed
    node set -L + j dx, j = 0..N, whose free tail reaches x = +L, with
    psi1 reconciled to a single representative and both zero left of the
    stop.
    """
    g = sys.grid
    nodes = -g.L + g.dx * np.arange(g.N + 1)
    ks = np.asarray(ks, dtype=float)
    mus = np.sqrt(ks**2 + 2.0 * sys.beta)
    nk = ks.size

    edge = _w_edge(sys)
    j_hi = min(int(np.searchsorted(nodes, edge)), g.N - 1)
    j_lo = min(g.N - 1 - int(_block_samples(sys, ks)[-1]), max(0, j_hi - 1))
    n_main = j_hi - j_lo
    # where W vanishes the columns are y = e^(gg x) a: psi1 (1, ik, 0, 0) at
    # rate ik and phi1 (0, 0, 1, -mu) at rate -mu
    a = np.zeros((nk, 2, 4), dtype=complex)
    a[:, 0, 0] = 1.0
    a[:, 0, 1] = 1j * ks
    a[:, 1, 2] = 1.0
    a[:, 1, 3] = -mus
    gg = np.stack([1j * ks, -mus], axis=1)
    purge_every = max(1, int(round(PURGE_SPACING / g.dx)))

    t = _stepper(sys, ks, j_hi, n_main, -1, scale)
    for o in range(1, min(purge_every, n_main)):
        np.matmul(t[o::purge_every], t[o - 1 : -1 : purge_every], out=t[o::purge_every])

    # step i lands on node j_hi - 1 - i; the rows of a block are its start
    # state times the running products, in the rescaled frame of each column
    frame = np.exp(gg[None, ..., None] * g.dx * np.arange(1, purge_every + 1)[:, None, None, None])
    y = np.zeros((nk, 2, 4, g.N + 1), dtype=complex)
    y[..., j_hi:] = a[..., None]
    z = a * _REAL
    purges = []  # (node, purge coefficient [nk]), leftward
    for i0 in range(0, n_main, purge_every):
        n = min(purge_every, n_main - i0)
        # real products times the complex state taken as (re, im) pairs
        rows = np.matmul(t[i0 : i0 + n, :, None],
                         z.view(float).reshape(nk, 2, 4, 2)).view(complex)[..., 0]
        rows *= frame[:n]
        if not np.all(np.isfinite(rows)):
            raise ValueError("Jost march overflow")
        c = rows[-1, :, 0, 2] / rows[-1, :, 1, 2]
        rows[-1, :, 0] -= c[:, None] * rows[-1, :, 1]
        z = rows[-1]
        j = j_hi - i0 - n
        y[..., j : j_hi - i0] = (rows[::-1] * np.conj(_REAL)).transpose(1, 2, 3, 0)
        purges.append((j, c))
    del t

    # ledger pass: express every stored psi1 value in the final
    # representative, then take both columns out of their rescaled frames.
    # A node at or right of a purge already includes it, so node j carries
    # S(j) = sum over purges at p < j of c_p E^(j - p), E = e^((ik + mu)(-dx)),
    # |E| < 1.  Between two purges S falls geometrically, so each interval
    # takes it in closed form; right of the edge it corrects the free forms
    rate = (gg[:, :1] - gg[:, 1:]) * (-g.dx)        # log E
    ends = [j for j, _c in purges[-2::-1]] + [g.N]
    s = np.zeros((nk, 1), dtype=complex)
    y[..., j_lo] *= np.exp(gg * nodes[j_lo])[..., None]
    for (j, c), end in zip(purges[::-1], ends):
        span = slice(j + 1, end + 1)
        run = (s + c[:, None]) * np.exp(rate * np.arange(1, end - j + 1))   # S over the span
        y[:, 0, :, span] -= run[:, None] * y[:, 1, :, span]
        y[..., span] *= np.exp(gg[..., None, None] * nodes[span])
        s = run[:, -1:]
    return y[:, 0], y[:, 1]


# ---------------------------------------------------------------------------
# Wronskians and the scattering matrix
# ---------------------------------------------------------------------------


def _sample_indices(grid: Grid, mu: float):
    """Up to 16 interior sample nodes for Wronskian evaluation.

    The window reaches x = 8/mu, clipped to [0.9, 5.5]: beyond x ~ 8/mu
    the closed-channel factors differ by e^(2 mu x) and the cross products
    hit the cancellation floor of the stored values.
    """
    hi = min(5.5, max(0.9, 8.0 / max(mu, 1.0)))
    lo = max(grid.dx, 0.08 * hi)
    xs = np.linspace(lo, hi, 16)
    return np.unique(np.searchsorted(grid.nodes, xs))


def _block_samples(sys: LinearizedSystem, ks: np.ndarray):
    """The Wronskian sample nodes of a k block, set by its largest mu.

    The one reach rule: _pair_rows pairs at these nodes, and _march_left
    stops one node past the mirror of the last.
    """
    return _sample_indices(sys.grid, float(np.sqrt(np.max(ks) ** 2 + 2.0 * sys.beta)))


_DERIV_SIGN = np.array([1.0, -1.0, 1.0, -1.0])[:, None]


def _mirror(y, idx):
    """Rows [..., 4, N + 1] of x -> y(-x) at the nodes idx.

    Gathers y at -x, which on the closed node set is the reversed index,
    and negates the derivative rows.
    """
    return y[..., y.shape[-1] - 1 - np.asarray(idx)] * _DERIV_SIGN


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


def _dmatrix(ypsi, yphi, samples):
    """D entries W(X, Y(-.)), X, Y in [psi1, phi1], [nk, 2, 2], and their
    cross-point spread, from rows [nk, 4, N + 1] at the samples of
    _block_samples."""
    pair = np.stack([ypsi[..., samples], yphi[..., samples]], axis=1)
    mirrored = np.stack([_mirror(ypsi, samples), _mirror(yphi, samples)], axis=1)
    w = _wr(pair[:, :, None], mirrored[:, None])    # [nk, 2, 2, samples]
    d = _cmedian(w)
    # cross-point scatter relative to the dominant matrix entry, so that
    # the off-diagonal zeros do not read as drift
    scale = np.maximum(np.max(np.abs(d), axis=(1, 2)), 1e-300)
    return d, np.max(np.std(w, axis=-1), axis=(1, 2)) / scale


def _pair_rows(sys: LinearizedSystem, ks: np.ndarray, scale=None):
    """psi1 and phi1 rows [nk, 4, N + 1] of a k block, with their D entries.

    psi1 is only defined modulo phi1.  The rows fix it in the gauge
    W(psi1, phi1(-.)) = 0: the marched psi1 less (D12/D22) phi1, so D12 = 0
    by construction and psi1 no longer depends on where the march stopped.
    The system is even, so D is symmetric and D21 = D12 = 0 too: D is the
    diagonal (D11, D22), with D11 = W(psi1, psi1(-.)) the Lemma Wronskian.
    The full 2x2 is paired again from the gauged rows for the spread, which
    reads D21 as roundoff.  scale is _march_left's optional per-row
    coupling scale.  Returns (psi1 rows, phi1 rows, Wronskian sample
    indices for the block's largest mu, (d11, d22, spread)).
    """
    ypsi, yphi = _march_left(sys, ks, scale)
    samples = _block_samples(sys, ks)
    d, _spread = _dmatrix(ypsi, yphi, samples)
    c = (d[:, 0, 1] / d[:, 1, 1])[:, None]
    for row in range(4):                # row by row: no block-sized temporary
        ypsi[:, row] -= c * yphi[:, row]
    d, spread = _dmatrix(ypsi, yphi, samples)
    return ypsi, yphi, samples, (d[:, 0, 0], d[:, 1, 1], spread)


def _margin(d11, d22):
    """Resonance margin |det D| / |D22|^2 = |D11 / D22| of D, per k."""
    return np.abs(d11) / np.maximum(np.abs(d22), 1e-300)


def wronskian_matrix(sys: LinearizedSystem, lam: float):
    """The diagonal (D11, D22) of D at one spectral point, psi1 in the
    gauge D12 = 0."""
    ks = np.array([_wavenumber(sys, lam)])
    _psi, _phi, _samples, (d11, d22, _spread) = _pair_rows(sys, ks)
    return complex(d11[0]), complex(d22[0])


def resonance_test(sys: LinearizedSystem) -> dict:
    """Threshold-resonance verdict from |D11(0) / D22(0)| (det D(0) = 0
    is D11(0) = 0), by the rule that _sr_coeffs enforces."""
    d11, d22 = wronskian_matrix(sys, sys.beta)
    margin = float(_margin(d11, d22))
    return {
        "resonant": bool(margin < RESONANT_MARGIN),
        "detD0": d11 * d22,
        "margin": margin,
        "d22": d22,
    }


def resonance_scan(sys0: LinearizedSystem, s_values) -> dict:
    """Coupling scan of the threshold Wronskian data for W = s W0.

    Returns per-s det D(0, s W0) and the Lemma-style Wronskian
    D11(0, s W0) = W(psi1, psi1(-.)) at the threshold, whose slope in s
    at 0 equals minus the integral of the (1,1) entry of W, i.e.
    -(1/2) int (V3), reported as half_int_v3.  The couplings are the rows
    of one k = 0 march with a per-row coupling scale; the row s = 0 is the
    free one, with det D(0) = D11(0) = 0.
    """
    svals = np.asarray(sorted(float(s) for s in s_values))
    if np.max(np.abs(svals)) > 0.5 + 1e-12:
        raise ValueError("scan couplings must satisfy |s| <= 0.5")
    _psi, _phi, _samples, (d11, d22, _spread) = _pair_rows(sys0, np.zeros(svals.size), svals)
    dets = d11 * d22
    margins = _margin(d11, d22)
    small = np.abs(svals) <= 0.1 + 1e-12
    slope = np.nan
    if np.count_nonzero(small) >= 2:
        slope = np.polyfit(svals[small], np.real(d11)[small], 1)[0]
    return {
        "s": svals,
        "detD0": dets,
        "wronskian_lemma": d11,
        "margins": margins,
        "slope": float(np.real(slope)),
        "half_int_v3": 0.5 * float(np.real(sys0.grid.integrate(sys0.V3))),
    }


# ---------------------------------------------------------------------------
# continuum modes e(x, k)
# ---------------------------------------------------------------------------


def _sr_coeffs(ypsi, yphi, d11, d22, ks, samples):
    """Transmission s, reflection r and weight b per k.

    The right representation is e = s psi1, s = 2ik / D11, with psi1 in
    the gauge of _pair_rows, where D = diag(D11, D22).  Its left expansion
    e = psi2(-x) + r psi1(-x) + b phi1(-x), paired with psi1 and phi1,
    gives W(psi1, e) = W(phi1, e) = 0 (both are Jost solutions at
    +infinity, so W(psi1, phi1) = 0).  Taken about (r, b) = (-1, 0), that
    is D (r + 1, b) = -(Delta1, Delta2), the pairings of psi1 and phi1
    with the difference rows (psi2 - psi1)(-.), so r = -1 - Delta1 / D11
    and b = -Delta2 / D22.  At k = 0, psi2 = psi1 bit for bit, the
    difference rows are exactly 0, and s = 0, r = -1 and b = 0 exactly
    whatever value D takes.  Raises at a k where D is near-singular, by the
    one threshold rule: a margin |D11 / D22| below RESONANT_MARGIN.
    """
    singular = _margin(d11, d22) < RESONANT_MARGIN
    if np.any(singular):
        raise ValueError(f"near-singular D: resonant at k = {ks[singular][0]:.6g}")
    pair = np.stack([ypsi[..., samples], yphi[..., samples]], axis=1)
    psi1_m = _mirror(ypsi, samples)
    delta = _cmedian(_wr(pair, (_s3conj(psi1_m) - psi1_m)[:, None]))
    return 2j * ks / d11, -1.0 - delta[:, 0] / d11, -delta[:, 1] / d22


@dataclass(frozen=True)
class GeneralizedEigenTable:
    """Continuum modes e(x, k) with scattering coefficients on a k grid.

    e holds each mode on the closed node set -L + j dx, j = 0..N, so that
    its mirror e(-x, k) is the reversed row; the grid's fields are its
    first N nodes.
    """

    system: LinearizedSystem
    k: np.ndarray
    e: np.ndarray              # [nk, 2, N + 1], on the nodes -L + j dx, j = 0..N
    s: np.ndarray              # transmission
    r: np.ndarray              # reflection
    wronskian_spread: np.ndarray
    resonance_margin: float

    def unitarity_defect(self) -> np.ndarray:
        return np.abs(np.abs(self.s) ** 2 + np.abs(self.r) ** 2 - 1.0)

    def orthogonality_defect(self) -> np.ndarray:
        return np.abs(np.real(np.conj(self.s) * self.r))


def _assemble_e(ypsi, yphi, s, b, r):
    """Right representation s psi1 for x >= 0, left expansion for x < 0.

    Each component of each half is written straight from the value rows
    (0 and 2) of the march rows [nk, 4, N + 1].  On their closed node set
    x -> -x is the index reversal, so the left half reads the rows x > 0
    reversed, down to node 0 (x = -L), which reads x = +L.
    """
    half = ypsi.shape[-1] // 2                     # index of x = 0
    e = np.zeros((ypsi.shape[0], 2, ypsi.shape[-1]), dtype=complex)
    for comp, row in enumerate((0, 2)):
        e[:, comp, half:] = s[:, None] * ypsi[:, row, half:]
        vpsi = ypsi[:, row, :half:-1]
        left = np.conj(vpsi)
        if comp:
            left *= -1.0                           # sigma3 conj
        e[:, comp, :half] = left + r[:, None] * vpsi + b[:, None] * yphi[:, row, :half:-1]
    return e


def _mode_block(ks: np.ndarray, rows):
    """Continuum modes of a block of k >= 0 from its _pair_rows(sys, ks).

    Returns (e [nk, 2, N + 1], s, r); raises when D is near-singular at
    some k of the block.  A k = 0 row is an ordinary row: the 2ik factor
    gives it s = 0, and psi2 = psi1 gives r = -1 and e = 0 exactly.
    """
    ypsi, yphi, samples, (d11, d22, _spread) = rows
    s, r, b = _sr_coeffs(ypsi, yphi, d11, d22, ks, samples)
    return _assemble_e(ypsi, yphi, s, b, r), s, r


def generalized_eigenfunction(sys: LinearizedSystem, lam: float):
    """Continuum mode and coefficients at one spectral point.

    Returns (e_values [2, N + 1] on the closed node set, s, r) from a
    one-row march.  Uses the analytic 2ik factor, so the construction is
    regular through k = 0: there e(., 0) = 0, s = 0 and r = -1 for a
    non-resonant system, and a resonant one raises.  A potential-free
    system takes the same march, which gives e = e^(ikx) (1, 0), s = 1 and
    r = 0 to roundoff at k > 0.
    """
    ks = np.array([_wavenumber(sys, lam)])
    e, s, r = _mode_block(ks, _pair_rows(sys, ks))
    return e[0], complex(s[0]), complex(r[0])


def default_k_grid(k_max: float) -> np.ndarray:
    """Piecewise-uniform k grid, refined toward the threshold.

    The far tail matters: spectral coefficients of localized fields
    decay only like e^(-c k) with c set by the distance of the discrete
    eigenvalues continued to the complex k plane, so the configured grid
    reaches past k = 10.
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


def eigentable_build(sys: LinearizedSystem, k_grid: np.ndarray) -> GeneralizedEigenTable:
    """Build e(x, k), s(k), r(k) over the k grid in blocks of TABLE_BLOCK rows.

    The grid starts at k = 0.  That row is marched in the first block like
    any other: its margin |D11(0) / D22(0)| is the table's
    resonance_margin, and a threshold-resonant system raises there, in
    _sr_coeffs, as every row does where D is near-singular.
    """
    g = sys.grid
    ks = np.asarray(k_grid, dtype=float)
    if ks[0] != 0.0:
        raise ValueError("the k grid must start at k = 0")
    nk = ks.size
    e = np.zeros((nk, 2, g.N + 1), dtype=complex)
    s, r = np.zeros((2, nk), dtype=complex)
    spread = np.zeros(nk)
    for start in range(0, nk, TABLE_BLOCK):
        sel = slice(start, start + TABLE_BLOCK)
        rows = _pair_rows(sys, ks[sel])
        d11, d22, spread[sel] = rows[3]
        if start == 0:                                   # the k = 0 row
            margin = float(_margin(d11[0], d22[0]))
        e[sel], s[sel], r[sel] = _mode_block(ks[sel], rows)
    return GeneralizedEigenTable(
        system=sys, k=ks, e=e, s=s, r=r, wronskian_spread=spread,
        resonance_margin=margin,
    )


def e_over_k(sys: LinearizedSystem, ks) -> np.ndarray:
    """(e/k)(x, k) rows [nk, 2, N] for k >= 0, regular at k = 0, from one march.

    Each k > 0 row is e/k, on the closed node set of the table.  At k = 0
    the right half (x >= 0) is the analytic factor (s/k) psi1, with
    s/k = 2i / D11.  Its left half
    is the k -> 0 limit of the reflection expansion (the raw right
    representation cancels exponentially large terms for x < 0): the
    Richardson value 2 (e/k)(delta) - (e/k)(2 delta) of two rows at
    delta = EK_DELTA and 2 delta that ride along in the march.
    """
    kk = np.concatenate([np.asarray(ks, dtype=float), [EK_DELTA, 2.0 * EK_DELTA]])
    rows = _pair_rows(sys, kk)
    ypsi, d11 = rows[0], rows[3][0]
    with np.errstate(invalid="ignore"):            # 0/0 on the k = 0 rows
        out = _mode_block(kk, rows)[0] / kk[:, None, None]
    zero = kk == 0.0
    right = (2j / d11)[zero, None, None] * ypsi[zero][:, (0, 2)]
    left = np.arange(ypsi.shape[-1]) < sys.grid.N // 2   # the nodes x < 0
    out[zero] = np.where(left, 2.0 * out[-2] - out[-1], right)
    return out[:-2]


_FD5_FIRST = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD5_SECOND = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
GROWTH_K = (0.01, 0.03, 0.08, 0.2, 0.5, 1.0, 2.0, 4.0)  # k list of the growth sup


def ek_growth_report(sys: LinearizedSystem):
    """Spatial-growth fits of sup_k |d^n/dk^n (e/k)| for n = 0, 1, 2.

    The k-derivatives are 5-point central stencils of step EK_DELTA on the
    (e/k) rows of e_over_k, one march with the k = 0 row (never a division
    of sampled e by k at the threshold: that row uses the analytic factor).
    For each |x| on 14 geometric nodes in [2, 0.45 L] the sup runs over
    GROWTH_K and both signs of x; the returned exponents are log-log fits
    against (1 + |x|) and should sit near n + 1.
    """
    g = sys.grid
    stencil = np.arange(-2, 3) * EK_DELTA
    ks = np.unique(np.concatenate([[0.0]] + [(k + stencil) for k in GROWTH_K]))
    rows = e_over_k(sys, ks)

    sup = {0: np.max(np.abs(rows[0]), axis=0), 1: np.zeros(g.N + 1), 2: np.zeros(g.N + 1)}
    for k in GROWTH_K:
        idx = np.array([int(np.argmin(np.abs(ks - (k + s)))) for s in stencil])
        block = rows[idx]
        sup[0] = np.maximum(sup[0], np.max(np.abs(block[2]), axis=0))
        d1 = np.tensordot(_FD5_FIRST, block, axes=(0, 0)) / EK_DELTA
        d2 = np.tensordot(_FD5_SECOND, block, axes=(0, 0)) / EK_DELTA**2
        sup[1] = np.maximum(sup[1], np.max(np.abs(d1), axis=0))
        sup[2] = np.maximum(sup[2], np.max(np.abs(d2), axis=0))

    xs = np.geomspace(2.0, 0.45 * g.L, 14)
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
    return {"exponents": exponents, "curves": curves, "k_report": np.array(GROWTH_K)}


# ---------------------------------------------------------------------------
# binary dump + sidecar
# ---------------------------------------------------------------------------


def dump_table(table: GeneralizedEigenTable, path, sidecar_path):
    """Binary grid dump: int64 N, int64 k-count, float64 L, float64 k_max,
    then the row-major complex mode table on the grid's N nodes (x = +L
    left out); JSON sidecar with k, s, r and the resonance margin."""
    g = table.system.grid
    with open(path, "wb") as fh:
        np.array([g.N, table.k.size], dtype="<i8").tofile(fh)
        np.array([g.L, float(table.k[-1])], dtype="<f8").tofile(fh)
        for row in table.e:                # row by row: no table-sized copy
            np.ascontiguousarray(row[:, :g.N], dtype="<c16").tofile(fh)
    payload = {
        "k": table.k.tolist(),
        "s_re": np.real(table.s).tolist(),
        "s_im": np.imag(table.s).tolist(),
        "r_re": np.real(table.r).tolist(),
        "r_im": np.imag(table.r).tolist(),
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
