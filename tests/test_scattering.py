"""Jost rows, Wronskian matrix, resonances, continuum modes.

The Jost checks read the rows production serves: the (psi1, phi1) rows
of one leftward `_march_left`, as `_pair_rows` returns them with psi1 in
the gauge D12 = 0.  psi2 and the mirrored solutions are pairings of those
rows (`_s3conj`, `_mirror`), and every Wronskian is `_wr` with `_cmedian`.
The eighth-order ODE residual and the tail-rate fit are helpers of this
file, and so are the references of the march kernel: the commutator form
of the Magnus generator and the stepwise march.  The stepwise march also
carries the k = 0 linear solution eta, which the program never marches,
for the checks that need a threshold solution growing linearly at
-infinity, and it can march past the program's reach, to x = -8, for the
checks that read the rows far left of the Wronskian window.
"""

import json
import os

import numpy as np
import pytest

from nlslab import scattering
from nlslab.grids import fit_exponential_decay, make_grid
from nlslab.linearized import LinearizedSystem, assemble_L
from nlslab.scattering import (PURGE_SPACING, TABLE_BLOCK, _cmedian, _expm,
                               _march_left, _mirror, _omega, _omega_k2,
                               _pair_rows, _s3conj, _sample_indices, _sr_coeffs,
                               _stepper, _w_edge, _wr, default_k_grid,
                               dump_table, e_over_k,
                               eigentable_build, ek_growth_report,
                               generalized_eigenfunction, load_table,
                               resonance_scan, resonance_test,
                               wronskian_matrix)
from nlslab.solitons import solve_dlambda, solve_soliton

_D2_EIGHTH = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72,
                       8 / 5, -1 / 5, 8 / 315, -1 / 560])


def _scaled_system(sys_, s):
    """The system with its coupling W scaled by s."""
    return LinearizedSystem(grid=sys_.grid, beta=sys_.beta, V1=s * sys_.V1,
                            V2=s * sys_.V2, profile=sys_.profile)


def _window(row):
    """Nodes a march row covers: it is zero left of its window."""
    return np.any(row != 0.0, axis=0)


def _ode_residual(sys_, lam, values, valid):
    """Weighted sup of (H - lam) xi through an eighth-order stencil.

    Relative to the weighted sup of xi, on the nodes of the valid window
    whose stencil stays inside it.  The weight e^(-alpha |x| / 4), with
    alpha the fitted decay rate of the potentials, keeps the growing
    far-left values from setting the scale.  Rows on the closed node set
    are read on the grid's N nodes.
    """
    g = sys_.grid
    values = values[:, :g.N]
    ok = valid[:g.N].copy()
    ok[:4] = False
    ok[-4:] = False
    d2 = np.zeros((2, g.N), dtype=complex)
    for j, cj in enumerate(_D2_EIGHTH):
        d2 += cj * np.roll(values, 4 - j, axis=1)
    d2 /= g.dx**2
    v3, v4 = sys_.V3, sys_.V4
    r1 = (-d2[0] + sys_.beta * values[0] + 0.5 * (v3 * values[0] - 1j * v4 * values[1])
          - lam * values[0])
    r2 = (d2[1] - sys_.beta * values[1] + 0.5 * (-1j * v4 * values[0] - v3 * values[1])
          - lam * values[1])
    ok &= np.convolve(ok.astype(float), np.ones(9), mode="same") >= 8.5
    rates = [fit_exponential_decay(g.nodes, v)[0] for v in (v3, v4)]
    alpha = min([a for a in rates if a > 0], default=1.0)
    w = np.exp(-np.abs(g.nodes) * alpha / 4.0)
    scale = np.max(w[ok] * (np.abs(values[0]) + np.abs(values[1]))[ok])
    return float(np.max(w[ok] * (np.abs(r1) + np.abs(r2))[ok]) / scale)


def _tail_rate(sys_, kind, k, values):
    """Fitted decay rate of the remainder against the free form on the right.

    The window ends where the potential support does: past the edge the
    remainder is at the noise floor, which would flatten the fit.
    """
    g = sys_.grid
    mu = np.sqrt(k**2 + 2.0 * sys_.beta)
    x = g.nodes
    sel = np.flatnonzero((x > 1.0) & (x < max(min(_w_edge(sys_), 0.9 * g.L), 6.0)))
    v, xs = values[:, sel], x[sel]
    if kind == "eta":
        rem = np.abs(v[0] - xs) + np.abs(v[1])
    elif kind == "phi1":
        unit = np.exp(mu * xs)
        rem = np.abs(v[1] * unit - 1.0) + np.abs(v[0] * unit)
    else:  # psi1 ~ e^(ikx) and psi2 ~ e^(-ikx) in the first component
        phase = np.exp((-1j if kind == "psi1" else 1j) * k * xs)
        rem = np.abs(v[0] * phase - 1.0) + np.abs(v[1])
    rate, _ = fit_exponential_decay(xs, rem, floor=1e-15)
    return rate


def test_jost_residuals_and_tails(default_system):
    """psi1, psi2 and phi1 at k = 1 and eta at k = 0 solve (H - lam) xi = 0
    and approach their free forms exponentially on the right."""
    beta = default_system.beta
    ypsi, yphi, _samples, _d = _pair_rows(default_system, np.array([1.0]))
    rows = _stepwise_march(default_system, np.zeros(1), ("eta", "phi1"))
    cases = (("psi1", 1.0, ypsi[0]), ("psi2", 1.0, _s3conj(ypsi[0])),
             ("phi1", 1.0, yphi[0]), ("eta", 0.0, rows[0, 0]))
    for kind, k, row in cases:
        values = row[(0, 2), :]
        assert _ode_residual(default_system, beta + k * k, values, _window(row)) < 1e-7, kind
        assert _tail_rate(default_system, kind, k, values) > 0.2, kind


def test_jost_normalization_decay(default_system):
    """phi1 e^{mu x} approaches (0,1) exponentially on the far right."""
    mu = np.sqrt(1.0 + 2.0 * default_system.beta)
    phi1 = _pair_rows(default_system, np.array([1.0]))[1][0][(0, 2), :]
    g = default_system.grid
    # the correction lives on the potential support; past it only the
    # noise floor remains
    sel = np.flatnonzero((g.nodes > 2.0) & (g.nodes < 12.0))
    rem = np.abs(phi1[1, sel] * np.exp(mu * g.nodes[sel]) - 1.0)
    rem += np.abs(phi1[0, sel] * np.exp(mu * g.nodes[sel]))
    rate, _ = fit_exponential_decay(g.nodes[sel], rem + 1e-300, floor=1e-280)
    assert rate > 0.2


def test_jost_k_smoothness(default_system):
    """Centered k-differences agree across the rows of one march at shifted k."""
    k0, d = 1.0, 1e-3
    shifts = (-2 * d, -d, d, 2 * d)
    ypsi, _yphi = _march_left(default_system, k0 + np.array(shifts))
    g = default_system.grid
    j = np.searchsorted(g.nodes, 3.0)
    v = dict(zip(shifts, ypsi[:, 0, j]))
    five = (v[-2 * d] - 8 * v[-d] + 8 * v[d] - v[2 * d]) / (12 * d)
    three = (v[d] - v[-d]) / (2 * d)
    assert abs(five - three) < 1e-5 * max(abs(five), 1.0)


def _layout(uu, uv, vu, vv):
    """4x4 matrices in the march's row layout (xi1, xi1', xi2, xi2') from
    their 2x2 blocks: u the value rows (0, 2), v the derivative rows (1, 3)."""
    out = np.zeros(np.broadcast_shapes(uu.shape, uv.shape, vu.shape, vv.shape)[:-2] + (4, 4))
    val, der = np.array([0, 2]), np.array([1, 3])
    out[..., val[:, None], val] = uu
    out[..., val[:, None], der] = uv
    out[..., der[:, None], val] = vu
    out[..., der[:, None], der] = vv
    return out


def _commutator_omega(h, p, q, r):
    """The sixth-order Magnus generator in its commutator form (Blanes,
    Casas, Oteo and Ros, Phys. Rep. 470, 2009) on the full 4x4 moments
    a1 = h [[0, I], [p, 0]], a2 = [[0, 0], [q, 0]], a3 = [[0, 0], [r, 0]]."""
    def comm(x, y):
        return x @ y - y @ x

    zero = np.zeros((2, 2))
    a1 = _layout(zero, h * np.eye(2), h * p, zero)
    a2 = _layout(zero, zero, q, zero)
    a3 = _layout(zero, zero, r, zero)
    c12 = comm(a1, a2)
    return a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c12,
                                 a2 - comm(a1, 2.0 * a3 + c12) / 60.0) / 240.0


@pytest.mark.parametrize("per_row", [False, True])
def test_closed_form_generator_matches_commutators(per_row):
    """The closed 2x2-block generator equals the commutator form on random
    symmetric blocks: q and r shared by all rows of a step, or scaled per
    row as a coupling scan scales them.  p carries the k-dependent free part
    diag(-k^2, k^2 + 2 beta) of a bench-size block.  Rows built from the
    shared parts as Omega0 + k^2 Omega1, as the stepper builds them, match
    too, and at k = 0 they are _omega at p0 bit for bit, which is what a
    march at the threshold takes alone."""
    rng = np.random.default_rng(7)

    def sym(*shape):
        x = rng.standard_normal(shape + (2, 2))
        return x + np.swapaxes(x, -1, -2)

    h, nk = -0.0293, 6
    ks = np.linspace(0.0, 8.0, nk)
    free = np.zeros((nk, 2, 2))
    free[:, 0, 0], free[:, 1, 1] = -ks**2, ks**2 + 4.0
    scale = rng.uniform(-0.5, 0.5, (nk, 1, 1)) if per_row else np.ones((1, 1, 1))
    w, q, r = sym(5, 2, 1), h * sym(5, 2, 1), h * sym(5, 2, 1)
    p = free + scale * w
    want = _commutator_omega(h, p, scale * q, scale * r)
    got = _omega(h, p, scale * q, scale * r)
    assert got.shape == want.shape == (5, 2, nk, 4, 4)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    p0 = scale * w + np.diag([0.0, 4.0])
    om0, om1 = _omega(h, p0, scale * q, scale * r), _omega_k2(h, scale * q, scale * r)
    rows = om0 + ks[:, None, None] ** 2 * om1
    assert rows.shape == want.shape
    assert np.max(np.abs(rows - want)) <= 1e-14 * np.max(np.abs(want))
    at_p0 = np.broadcast_to(_omega(h, p0, scale * q, scale * r), rows.shape)
    assert np.array_equal(rows[:, :, ks == 0.0], at_p0[:, :, ks == 0.0])


def test_expm_matches_scipy(bench_system, monkeypatch):
    """_expm against scipy.linalg.expm on the balanced generators of a bench
    stepper batch: one Magnus step at the potential's centre for 256 rows
    over k in [0, 8], which takes s = 3 squarings, and the same rows scaled
    by 1/2 to 1/8, which take s = 2, 1 and 0."""
    from scipy.linalg import expm

    batches = []
    expm_ = scattering._expm

    def captured(x):
        batches.append(x.copy())
        return expm_(x)

    monkeypatch.setattr(scattering, "_expm", captured)
    g = bench_system.grid
    _stepper(bench_system, np.linspace(0.0, 8.0, 256), g.N // 2 + 4, 8, -1)
    assert len(batches) == 1
    x = batches[0][0, 0]
    squarings = []
    for scale in (1.0, 0.5, 0.25, 0.125):
        batch = scale * x
        theta = np.max(np.sum(np.abs(batch), axis=-2))
        squarings.append(max(0, int(np.ceil(np.log2(theta * 16.0)))))
        want = np.stack([expm(m) for m in batch])
        got = _expm(batch.copy())
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), scale
    assert squarings == [3, 2, 1, 0], squarings


def _free_forms(kinds, ks, mus):
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


def _stepwise_march(sys_, ks, kinds, stop=None):
    """Reference march of the named columns, "psi1" and/or "eta" (k = 0
    only) followed by "phi1", against which the others are purged: one grid
    step at a time on the transfer matrices of _stepper, a purge every
    PURGE_SPACING, then a ledger pass node by node.  It stops where
    _march_left does, one node past the mirror of the farthest Wronskian
    sample at the largest mu, or at the first node x >= stop when a stop is
    given.  Returns rows [nk, ncol, 4, N + 1] on the closed node set, zero
    left of the stop."""
    g = sys_.grid
    nodes = -g.L + g.dx * np.arange(g.N + 1)
    real = np.array([1.0, 1.0, 1j, 1j])
    j_hi = min(int(np.searchsorted(nodes, _w_edge(sys_))), g.N - 1)
    if stop is None:
        mu_max = np.sqrt(np.max(ks) ** 2 + 2.0 * sys_.beta)
        j_lo = g.N - 1 - int(_sample_indices(g, mu_max)[-1])
    else:
        j_lo = int(np.searchsorted(nodes, stop))
    j_lo = min(j_lo, max(0, j_hi - 1))
    n = j_hi - j_lo
    A, B, gg = _free_forms(kinds, ks, np.sqrt(ks**2 + 2.0 * sys_.beta))
    every = max(1, int(round(PURGE_SPACING / g.dx)))
    z = (A + nodes[j_hi] * B) * real
    out = np.zeros(z.shape + (n + 1,), dtype=complex)
    out[..., n] = z
    ledger = {}
    for i, t in enumerate(_stepper(sys_, ks, j_hi, n, -1)):
        z = (z @ np.swapaxes(t, -1, -2)) * np.exp(gg * g.dx)[..., None]
        if (i + 1) % every == 0 or i == n - 1:
            c = z[:, :-1, 2] / z[:, -1:, 2]
            z[:, :-1] -= c[..., None] * z[:, -1:]
            ledger[n - 1 - i] = c
        out[..., n - 1 - i] = z
    y = np.zeros(z.shape + (g.N + 1,), dtype=complex)
    y[..., j_lo : j_hi + 1] = out * np.conj(real)[:, None]
    y[..., j_hi + 1:] = A[..., None] + B[..., None] * nodes[j_hi + 1:]
    decay = np.exp((gg[:, :-1] - gg[:, -1:]) * (-g.dx))
    S = np.zeros(decay.shape, dtype=complex)
    for j in range(j_lo, g.N + 1):
        y[:, :-1, :, j] -= S[..., None] * y[:, -1:, :, j]
        S = (S + ledger.get(j - j_lo, 0.0)) * decay
    y[..., j_lo:] *= np.exp(gg[..., None, None] * nodes[j_lo:])
    return y


@pytest.fixture(scope="module")
def bench_system(cfg):
    """The default model on the benchmark's L = 30, N = 1024 grid."""
    g = make_grid(30.0, 1024)
    return assemble_L(solve_dlambda(solve_soliton(cfg.lam, cfg.potential(),
                                                  cfg.nonlinearity(), g)))


@pytest.mark.parametrize("case", ["threshold", "block"])
def test_block_march_matches_stepwise_march(default_system, bench_system, case):
    """The march by purge blocks (running products, one pass over the
    blocks, a closed-form ledger per purge interval) against the stepwise
    recurrence on the same transfer matrices: (psi1, phi1) at k = 0 on the
    default system, and a 256-row block spanning the bench table's k
    range, to 1e-12 of each row's sup.  Both are zero on the same nodes."""
    if case == "threshold":
        sys_, ks = default_system, np.zeros(1)
    else:
        sys_, ks = bench_system, np.linspace(0.01, 8.0, 256)
    got = np.stack(_march_left(sys_, ks), axis=1)
    want = _stepwise_march(sys_, ks, ("psi1", "phi1"))
    n = sys_.grid.N + 1
    assert np.array_equal(_window(got.reshape(-1, n)), _window(want.reshape(-1, n)))
    gap = np.max(np.abs(got - want), axis=(2, 3)) / np.max(np.abs(want), axis=(2, 3))
    assert np.max(gap) <= 1e-12, np.max(gap)


def test_march_steps_per_block(bench_system, monkeypatch):
    """Each block of the bench table marches from the potential edge to one
    node past the mirror of its farthest Wronskian sample, which falls with
    the block's largest mu: 357, 343, 323 and 311 grid steps."""
    steps = []
    stepper = scattering._stepper

    def counted(sys_, ks, j0, n_main, sign, scale=None):
        steps.append(n_main)
        return stepper(sys_, ks, j0, n_main, sign, scale)

    monkeypatch.setattr(scattering, "_stepper", counted)
    ks = default_k_grid(8.0)
    eigentable_build(bench_system, ks)
    assert ks.size == 996
    assert steps == [357, 343, 323, 311]


def test_threshold_march_skips_k2_part(bench_system, monkeypatch):
    """A march whose rows all sit at k = 0 takes the generator without its
    k^2 part, and its transfer matrices equal bit for bit the k = 0 row of
    a march that also carries a k > 0 row (with k^2 = 0 times that part).
    The second row's k is small enough that the batch's scaling for the
    exponential stays the same."""
    calls = []
    omega_k2 = scattering._omega_k2

    def counted(*args):
        calls.append(1)
        return omega_k2(*args)

    monkeypatch.setattr(scattering, "_omega_k2", counted)
    j0 = bench_system.grid.N // 2 + 4
    alone = _stepper(bench_system, np.zeros(1), j0, 8, -1)
    assert calls == []
    both = _stepper(bench_system, np.array([0.0, 1e-9]), j0, 8, -1)
    assert calls == [1]
    assert np.array_equal(alone, both[:, :1])


def test_march_peak_memory(bench_system):
    """One march of the bench table's first 256-row block allocates at
    most 67.0 MB at its peak (traced), which is what the stepwise march
    with a separate window array took; the returned rows are 33.6 MB."""
    import tracemalloc

    ks = default_k_grid(8.0)[1:257]
    tracemalloc.start()
    try:
        ypsi, yphi = _march_left(bench_system, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ypsi.nbytes + yphi.nbytes == 256 * 2 * 4 * 1025 * 16
    assert peak <= 67.0e6, peak / 1e6


def test_threshold_eta_psi1_wronskian(default_system):
    """eta and psi1 share one reference march at k = 0; their Wronskian is
    the free value eta' psi1 - psi1' eta = 1 on the potential-free tail."""
    rows = _stepwise_march(default_system, np.zeros(1), ("psi1", "eta", "phi1"))
    idx = _sample_indices(default_system.grid, np.sqrt(2.0 * default_system.beta))
    w = _wr(rows[0, 1][:, idx], rows[0, 0][:, idx])
    med = complex(_cmedian(w))
    assert abs(med - 1.0) < 1e-10
    assert np.std(w) / abs(med) < 1e-7


def test_sigma3_conjugation_symmetry(default_system):
    phi1 = _pair_rows(default_system, np.array([1.0]))[1][0]
    values = phi1[(0, 2), :]
    flip = -np.stack([np.conj(values[0]), -np.conj(values[1])])
    sel = _window(phi1)
    scale = np.max(np.abs(values[:, sel]))
    assert np.max(np.abs((values - flip)[:, sel])) < 1e-8 * scale


def test_wronskian_matrix_properties(default_system):
    k = 1.0
    ypsi, yphi, samples, (_d11, _d22, spread) = _pair_rows(default_system, np.array([k]))
    assert spread[0] < 1e-7

    def pairing(x, y):
        return complex(_cmedian(_wr(x[0][:, samples], _mirror(y[0], samples))))

    # D is symmetric, so in the gauge D12 = 0 of psi1 the entry D21 vanishes too
    d11, d21, d22 = pairing(ypsi, ypsi), pairing(yphi, ypsi), pairing(yphi, yphi)
    assert abs(d21) / max(abs(d11), abs(d22)) < 1e-8
    assert wronskian_matrix(default_system, default_system.beta + k * k) == (d11, d22)
    # transmission normalization identity: 2ik / s = D11
    _e, s, _r = generalized_eigenfunction(default_system, default_system.beta + k * k)
    assert abs(2j * k / s - d11) < 1e-6 * abs(d11)


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_wronskian_matrix_matches_jost_pairings(default_system, k):
    """The D entries equal the explicit pairings of the psi1 and phi1 rows
    against their reflections, and the off-diagonal pairings vanish: D is
    diagonal in the gauge of psi1.  W(psi1, phi1) vanishes: both are Jost
    solutions at +infinity, which the form of (r, b) relies on.  A row
    paired with itself gives zero."""
    mu = np.sqrt(k * k + 2.0 * default_system.beta)
    d11, d22 = wronskian_matrix(default_system, default_system.beta + k * k)
    ypsi, yphi, _samples, _d = _pair_rows(default_system, np.array([k]))
    rows = {"psi1": ypsi[0], "phi1": yphi[0]}
    idx = _sample_indices(default_system.grid, mu)

    def pairing(x, y):
        return complex(_cmedian(_wr(x[:, idx], y)))

    entries = {("psi1", "psi1"): d11, ("psi1", "phi1"): 0.0,
               ("phi1", "psi1"): 0.0, ("phi1", "phi1"): d22}
    scale = max(abs(d11), abs(d22))
    for (x, y), want in entries.items():
        got = pairing(rows[x], _mirror(rows[y], idx))
        assert abs(got - want) <= 1e-13 * scale, (x, y)
    assert abs(pairing(rows["psi1"], rows["phi1"][:, idx])) < 1e-12 * scale
    assert abs(pairing(rows["phi1"], rows["phi1"][:, idx])) < 1e-12


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_wronskian_matrix_matches_block_march(default_system, k):
    """The single-k D entries against those of rows marched in a four-k
    block, paired at the block's own sample nodes (set by its largest mu):
    a second roundoff realization of the rows, so the gap is not 0."""
    want = wronskian_matrix(default_system, default_system.beta + k * k)
    ks = np.array([0.3, 0.5, 2.0, 4.0])
    block = _pair_rows(default_system, ks)[3]
    q = int(np.flatnonzero(ks == k)[0])
    scale = max(abs(w) for w in want)
    for got, w in zip(block[:2], want):
        assert abs(got[q] - w) <= 1e-12 * scale


def test_free_field_resonant(free_system):
    """The free system is marched like any other: D(0) = diag(0, 2 mu)."""
    rt = resonance_test(free_system)
    assert rt["resonant"]
    assert abs(rt["detD0"]) < 1e-10
    assert abs(abs(rt["d22"]) - 2 * np.sqrt(2 * free_system.beta)) < 1e-8
    d11, d22 = wronskian_matrix(free_system, free_system.beta)
    assert d11 == 0.0
    mu = np.sqrt(2 * free_system.beta)
    assert abs(d22 - 2.0 * mu) < 1e-13 * 2.0 * mu
    # so its threshold mode is not a limit of the 2ik factor
    with pytest.raises(ValueError, match="resonant at k = 0"):
        generalized_eigenfunction(free_system, free_system.beta)


def test_default_system_not_resonant(default_system):
    rt = resonance_test(default_system)
    assert not rt["resonant"]
    assert rt["margin"] > 1e-3


def test_scaled_coupling_not_resonant(default_system):
    rt = resonance_test(_scaled_system(default_system, 0.05))
    assert not rt["resonant"]


def test_resonance_scan_slope(default_system):
    scan = resonance_scan(default_system, [-0.1, -0.05, 0.0, 0.05, 0.1])
    ref = -scan["half_int_v3"]
    assert abs(scan["slope"] - ref) < 0.05 * abs(ref)
    # s = 0 row reproduces the free threshold data
    assert abs(scan["detD0"][2]) < 1e-10
    # determinant strictly monotone through 0: zeros form a discrete set
    vals = np.real(scan["detD0"])
    assert np.all(np.diff(vals) > 0) or np.all(np.diff(vals) < 0)


def test_resonance_scan_matches_single_marches(default_system):
    """The batched scan march equals one scaled-system march per coupling."""
    scan = resonance_scan(default_system, [-0.1, 0.0, 0.05, 0.5])
    assert scan["detD0"][1] == 0.0 and scan["wronskian_lemma"][1] == 0.0
    for j in (0, 2, 3):
        d11, d22 = wronskian_matrix(_scaled_system(default_system, scan["s"][j]),
                                    default_system.beta)
        assert abs(scan["detD0"][j] - d11 * d22) < 1e-10 * abs(d11 * d22)
        assert abs(scan["wronskian_lemma"][j] - d11) < 1e-10 * abs(d11)


def test_march_start_does_not_move_threshold_data(default_system):
    """A scan row marched from the edge of W equals the scaled system
    marched from its own, nearer edge: past both edges the step is the
    free one and the purges are exact bookkeeping, so only roundoff is
    left.  s = 0.5 sits next to the crossing at s* = 0.487, where det D(0)
    is small."""
    scaled = _scaled_system(default_system, 0.5)
    assert _w_edge(scaled) < _w_edge(default_system) - 5 * default_system.grid.dx
    scan = resonance_scan(default_system, [0.5])
    d11, d22 = wronskian_matrix(scaled, default_system.beta)
    assert abs(scan["detD0"][0] - d11 * d22) <= 1e-12 * abs(d11 * d22)
    assert abs(scan["wronskian_lemma"][0] - d11) <= 1e-12 * abs(d11)


@pytest.mark.parametrize("k", [0.0, 1.0, 8.0])
def test_march_matches_dop853_oracle(default_system, k):
    """phi1 from the Magnus march against an adaptive DOP853 integration.

    The oracle integrates (H - lam) u = 0 written as a first-order 4x4
    system, with W evaluated from the trigonometric interpolant of the
    grid samples, from the potential edge leftward to x = -5.5.  phi1 is
    the dominant column of a leftward march, so it needs no purge.  Both
    are compared in the frame e^(mu x) phi1 at the Wronskian sample nodes
    and their reflections.
    """
    from scipy.integrate import solve_ivp

    sys_ = default_system
    g = sys_.grid
    beta = sys_.beta
    mu = np.sqrt(k**2 + 2.0 * beta)
    kappa = 2.0 * np.pi * np.fft.rfftfreq(g.N, d=g.dx)
    amp = np.fft.rfft(np.stack([sys_.V3, sys_.V4])) / g.N
    amp[:, 1:(g.N + 1) // 2] *= 2.0

    def v34(x):
        return np.real(amp @ np.exp(1j * kappa * (x - g.nodes[0])))

    def rhs(x, z):
        v3, v4 = v34(x)
        # u1'' = (V3/2 - k^2) u1 - (i/2) V4 u2, u2'' = (mu^2 + V3/2) u2 + (i/2) V4 u1,
        # for z = e^(mu x) (u1, u1', u2, u2')
        dz = np.array([z[1],
                       (0.5 * v3 - k**2) * z[0] - 0.5j * v4 * z[2],
                       z[3],
                       (mu**2 + 0.5 * v3) * z[2] + 0.5j * v4 * z[0]])
        return dz + mu * z

    idx = _sample_indices(g, mu)
    ridx = (g.N - idx) % g.N
    nodes = np.concatenate([g.nodes[idx], g.nodes[ridx]])
    x0 = _w_edge(sys_)
    sol = solve_ivp(rhs, (x0, -5.5), np.array([0, 0, 1.0, -mu], dtype=complex),
                    method="DOP853", rtol=1e-12, atol=1e-15,
                    t_eval=np.sort(nodes)[::-1])
    assert sol.success
    oracle = sol.y[(0, 2), :][:, np.argsort(np.argsort(-nodes))]

    phi1 = _pair_rows(sys_, np.array([k]))[1][0]
    marched = phi1[(0, 2), :][:, np.concatenate([idx, ridx])] * np.exp(mu * nodes)
    rel = np.max(np.abs(marched - oracle), axis=0) / np.max(np.abs(oracle), axis=0)
    assert np.max(rel) <= 1e-9, np.max(rel)


def test_resonance_flip_by_bisection(default_system):
    """The verdict flips exactly where a bounded threshold solution appears.

    det D(0, s) is real along the coupling family; a sign change marks a
    bound state crossing the threshold.  Bisection pins the resonant
    coupling, the verdict flips across it, and at the crossing the
    threshold combination psi1 - (D12/D22) phi1 stays bounded on the
    left (its linear-growth coefficient collapses).
    """
    def det0(svals):
        # one k = 0 march whose rows carry the couplings svals
        _psi, _phi, _samples, (d11, d22, _sp) = _pair_rows(
            default_system, np.zeros(svals.size), svals)
        return np.real(d11 * d22)

    s_vals = np.linspace(0.05, 1.5, 8)
    dets = det0(s_vals)
    flips = [j for j in range(len(dets) - 1) if np.sign(dets[j]) != np.sign(dets[j + 1])]
    assert flips, "no threshold crossing found on the coupling family"
    lo, hi = s_vals[flips[0]], s_vals[flips[0] + 1]
    dlo = dets[flips[0]]
    # 8-section: 8 interior couplings per march, the bracket shrinks 9x
    for _ in range(20):
        if hi - lo < 1e-10:
            break
        pts = np.linspace(lo, hi, 10)
        d = det0(pts[1:-1])
        flip = np.nonzero(np.sign(d) != np.sign(dlo))[0]
        j = flip[0] + 1 if flip.size else 9
        lo, hi = pts[j - 1], pts[j]
        if j > 1:
            dlo = d[j - 2]
    s_star = 0.5 * (lo + hi)
    assert resonance_test(_scaled_system(default_system, s_star))["resonant"]
    assert not resonance_test(_scaled_system(default_system, s_star + 0.1))["resonant"]
    assert not resonance_test(_scaled_system(default_system, max(s_star - 0.1, 0.02)))["resonant"]

    # independent boundedness evidence: expand the threshold combination
    # psi1 - (D12/D22) phi1 over the left-normalized solutions through
    # Wronskian pairings (exact invariants, no far-field cancellation);
    # boundedness at -infinity means a vanishing coefficient b of the
    # linear-growth member eta(-x), which the reference march carries to
    # x = -8, past the Wronskian window; D12 and D22 are its own pairings
    def growth_coefficient(s):
        g = default_system.grid
        idx = np.unique(np.searchsorted(g.nodes, np.linspace(0.8, 5.0, 12)))
        rows = _stepwise_march(_scaled_system(default_system, s), np.zeros(1),
                               ("psi1", "eta", "phi1"), stop=-8.0)
        psi1, _eta, phi1 = rows[0]
        left = _mirror(rows[0], idx)     # psi1(-x), eta(-x), phi1(-x)
        mat = _cmedian(_wr(left[None, :], left[:, None]))  # [j, i] = W(left_i, left_j)
        d12, d22 = _cmedian(_wr(np.stack([psi1, phi1])[:, :, idx], left[2]))
        cand = (psi1 - d12 / d22 * phi1)[:, idx]
        rhs = _cmedian(_wr(cand, left))
        coef, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        return abs(coef[1]), float(np.max(np.abs(coef)))

    grow_res, scale_res = growth_coefficient(s_star)
    grow_off, _ = growth_coefficient(s_star + 0.2)
    assert grow_res < 1e-5 * max(scale_res, 1.0)
    assert grow_off > 1e4 * max(grow_res, 1e-14)


def test_generalized_eigenfunction_unitarity(default_system):
    beta = default_system.beta
    for k in (0.5, 1.0, 2.0):
        e, s, r = generalized_eigenfunction(default_system, beta + k * k)
        assert abs(abs(s) ** 2 + abs(r) ** 2 - 1) < 1e-6
        assert abs(np.real(np.conj(s) * r)) < 1e-6


def test_threshold_mode_vanishes(default_system):
    e, s, r = generalized_eigenfunction(default_system, default_system.beta)
    assert np.max(np.abs(e)) < 1e-8
    assert abs(s) == 0.0
    assert r == pytest.approx(-1.0)


def test_free_field_mode_reference(free_system):
    """The march reproduces the free closed form e = e^(ikx) (1, 0) at
    k > 0.  The free system is threshold-resonant, so its table raises at
    the k = 0 row like that of any resonant system."""
    g = free_system.grid
    for k in (0.5, 1.0, 2.0):
        e, s, r = generalized_eigenfunction(free_system, free_system.beta + k * k)
        assert s == pytest.approx(1.0) and r == pytest.approx(0.0)
        x = -g.L + g.dx * np.arange(g.N + 1)            # the closed node set
        assert np.max(np.abs(e[0] - np.exp(1j * k * x))) < 1e-12
        assert np.max(np.abs(e[1])) < 1e-12
    with pytest.raises(ValueError, match="resonant at k = 0"):
        eigentable_build(free_system, np.array([0.0, 0.5, 1.0]))


def test_table_invariants(default_table):
    tab = default_table
    pos = tab.k > 0
    assert np.max(tab.unitarity_defect()[pos]) < 1e-6
    assert np.max(tab.orthogonality_defect()[pos]) < 1e-6
    assert np.max(tab.wronskian_spread) < 1e-7
    # D is symmetric, so in the gauge D12 = 0 of psi1 (e = s psi1 carries no
    # phi1 admixture) the entry D21 vanishes too: D is diagonal at every k
    for start in range(0, tab.k.size, TABLE_BLOCK):
        ypsi, yphi, samples, (d11, d22, _spread) = _pair_rows(
            tab.system, tab.k[start:start + TABLE_BLOCK])
        d21 = _cmedian(_wr(yphi[..., samples], _mirror(ypsi, samples)))
        scale = np.maximum(np.abs(d11), np.abs(d22))
        assert np.max(np.abs(d21) / np.maximum(scale, 1e-300)) < 1e-7
    # the k = 0 row is an ordinary marched row, exact through the 2ik factor
    assert tab.k[0] == 0.0
    assert np.all(tab.e[0] == 0.0)
    assert (tab.s[0], tab.r[0]) == (0.0, -1.0)
    margin = resonance_test(tab.system)["margin"]
    assert abs(tab.resonance_margin - margin) <= 1e-12 * margin


def test_threshold_row_exact_for_any_det():
    """At k = 0 psi2 = psi1 bit for bit, so the difference rows
    (psi2 - psi1)(-.) that _sr_coeffs pairs are exactly 0, and r = -1,
    b = 0 and s = 0 exactly, whatever value D takes.  numpy's complex
    division gives (-x + 0j) / (x + 0j) != -1 for some x; D11 here is
    paired from k = 0 rows (first component real, second imaginary) and
    D22 is picked so that det D = D11 D22 is such an x, where -det/det,
    the quotient a Cramer form on c1 = W(psi1, psi2(-.)) takes, misses -1."""
    rng = np.random.default_rng(5)
    n, samples = 64, np.arange(8, 24)
    ypsi = rng.standard_normal((1, 4, n)) * np.array([1.0, 1.0, 1j, 1j])[:, None]
    yphi = rng.standard_normal((1, 4, n)) + 1j * rng.standard_normal((1, 4, n))
    d11 = _cmedian(_wr(ypsi[..., samples], _mirror(ypsi, samples)))
    plain = [d22 for d22 in np.linspace(1.0, 3.0, 401).astype(complex)
             if -(d11 * d22) / (d11 * d22) != -1.0]
    assert plain, "no det D on the list misses -1 under the plain Cramer form"
    d22 = np.array([plain[0]])
    s, r, b = _sr_coeffs(ypsi, yphi, d11, d22, np.zeros(1), samples)
    assert (s[0], r[0], b[0]) == (0.0, -1.0, 0.0)


def test_reflection_consistency(default_system, default_table):
    """Left-side values rebuilt from the reflection expansion match the
    right representation continued across the origin.  The production
    march stops at the Wronskian window, so the continuation is the
    stepwise reference marched on to x = -8, with s and the phi1
    admixture a of its own gauge taken from its own D."""
    g = default_system.grid
    tab = default_table
    for kq in (0.5, 1.0, 2.0):
        i = int(np.argmin(np.abs(tab.k - kq)))
        k = tab.k[i]
        fp, fh = _stepwise_march(default_system, np.array([k]), ("psi1", "phi1"), stop=-8.0)[0]
        idx = _sample_indices(g, np.sqrt(k * k + 2.0 * default_system.beta))
        (d11, d12), (d21, d22) = [[complex(_cmedian(_wr(x[:, idx], _mirror(y, idx))))
                                   for y in (fp, fh)] for x in (fp, fh)]
        det = d11 * d22 - d12 * d21
        s = 2j * k * d22 / det
        a = -2j * k * d12 / det
        sel = np.flatnonzero((g.nodes > -5.0) & (g.nodes < -0.2))
        right_rep = s * fp[(0, 2), :][:, sel] + a * fh[(0, 2), :][:, sel]
        assert np.max(np.abs(right_rep - tab.e[i][:, sel])) < 1e-6


def test_large_x_factorization(default_system, default_table):
    """e(x,k) - s(k) e^{ikx}(1,0) decays exponentially on the far right."""
    g = default_system.grid
    tab = default_table
    i = int(np.argmin(np.abs(tab.k - 1.0)))
    k = tab.k[i]
    sel = np.flatnonzero((g.nodes > 15.0) & (g.nodes < 0.9 * g.L))
    rem = np.abs(tab.e[i][0, sel] - tab.s[i] * np.exp(1j * k * g.nodes[sel]))
    rem += np.abs(tab.e[i][1, sel])
    rate, _ = fit_exponential_decay(g.nodes[sel], rem + 1e-300, floor=1e-280)
    assert rate > 0.2


def test_closed_table_reaches_plus_l(default_table):
    """The table's last node is x = +L, the mirror of node 0, and carries
    the free-region value s e^{ikL} (1, 0) of the right representation."""
    tab = default_table
    g = tab.system.grid
    assert tab.e.shape[-1] == g.N + 1
    want = np.stack([tab.s * np.exp(1j * tab.k * g.L), np.zeros(tab.k.size)], axis=1)
    assert np.max(np.abs(tab.e[:, :, g.N] - want)) <= 1e-14


def test_growth_report_exponents(default_system):
    rep = ek_growth_report(default_system)
    for n in (0, 1, 2):
        assert n + 0.7 <= rep["exponents"][n] <= n + 1.3, rep["exponents"]


def test_e_over_k_regular_at_zero(default_system):
    row0, row_small = e_over_k(default_system, [0.0, 4e-3])
    g = default_system.grid
    interior = np.flatnonzero(np.abs(g.nodes) < 0.5 * g.L)
    assert np.all(np.isfinite(row0[:, interior]))
    # consistent with the small-k limit of the sampled rows
    dev = np.max(np.abs(row0 - row_small)[:, interior])
    assert dev < 0.05 * max(np.max(np.abs(row0[:, interior])), 1.0)


def test_march_counts(bench_system, monkeypatch):
    """Every k >= 0 is a row of the one march path: a table takes one
    march per TABLE_BLOCK rows, k = 0 included, and the growth report and
    e/k at k = 0 one march each."""
    calls = []
    march = scattering._march_left

    def counted(*args, **kwargs):
        calls.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(scattering, "_march_left", counted)
    ks = default_k_grid(1.0)
    assert ks[0] == 0.0 and TABLE_BLOCK < ks.size - 1 < 2 * TABLE_BLOCK
    eigentable_build(bench_system, ks)
    assert len(calls) == int(np.ceil(ks.size / TABLE_BLOCK))
    for run in (lambda: ek_growth_report(bench_system),
                lambda: e_over_k(bench_system, [0.0])):
        calls.clear()
        run()
        assert len(calls) == 1


def test_table_k_grid_starts_at_zero(default_system):
    with pytest.raises(ValueError, match="start at k = 0"):
        eigentable_build(default_system, np.array([0.5, 1.0]))


def test_table_dump_roundtrip(default_table, tmp_path):
    binpath = os.path.join(tmp_path, "table.bin")
    sidecar = os.path.join(tmp_path, "table.json")
    dump_table(default_table, binpath, sidecar)
    back = load_table(binpath)
    g = default_table.system.grid
    assert back["N"] == g.N
    assert back["k_count"] == default_table.k.size
    assert back["L"] == g.L
    assert np.array_equal(back["e"], default_table.e[..., :g.N])
    with open(sidecar) as fh:
        side = json.load(fh)
    assert np.allclose(side["s_re"], np.real(default_table.s))


def test_near_resonant_system_rejected(default_system):
    # an infinitesimally scaled coupling sits next to the free-field
    # threshold resonance, which the table build must refuse
    with pytest.raises(ValueError, match="resonant"):
        eigentable_build(_scaled_system(default_system, 1e-9), np.array([0.0, 0.5]))


@pytest.mark.parametrize("s", [3e-8, 1e-7, 3e-7])
def test_one_threshold_rule(bench_system, s):
    """Between the old table cut (1e-8) and RESONANT_MARGIN (1e-6), every
    threshold consumer gives the verdict of resonance_test: the table
    build, the k = 0 mode and the k = 0 row of e/k all raise.  W scaled by
    s puts the margin |D11(0) / D22(0)| at 8.0e-8, 2.7e-7 and 8.0e-7."""
    sys_ = _scaled_system(bench_system, s)
    rt = resonance_test(sys_)
    assert 1e-8 <= rt["margin"] < 1e-6
    assert rt["resonant"]
    for run in (lambda: eigentable_build(sys_, np.array([0.0, 0.5])),
                lambda: generalized_eigenfunction(sys_, sys_.beta),
                lambda: e_over_k(sys_, [0.0])):
        with pytest.raises(ValueError, match="resonant"):
            run()
