"""Spectral propagator, direct oracle, decay fits, positivity."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from nlslab.grids import make_grid
from nlslab.linearized import LinearizedSystem
from nlslab.propagator import (C_MAX, DECAY_NU, DECAY_WINDOWS, _chirp_moments, _spline_adjoint,
                               build_plan, evolve_direct, pair_norm, positivity_check,
                               verify_decay, weighted_pair_norm)


@pytest.fixture(scope="module")
def free_plan(free_system, free_table):
    return build_plan(free_system, free_table, None)


def _halved(plan):
    """The plan on every second table row.  Each per-k array of the table is
    a strided view of the full one, and so is e reshaped to its rows
    [nk / 2, 2(N + 1)]: the halved plan copies no table row."""
    tab = plan.table
    half = replace(tab, k=tab.k[::2], e=tab.e[::2], s=tab.s[::2], r=tab.r[::2],
                   wronskian_spread=tab.wronskian_spread[::2])
    rows = half.e.reshape(half.k.size, -1)
    assert np.shares_memory(rows, tab.e) and rows.base is not None
    return build_plan(plan.system, half, plan.projector)


def test_p_ess_reproduction_t0(default_plan, default_projector, probe_maker):
    g = default_plan.system.grid
    for j, w in enumerate((2.0, 2.5, 3.0, 3.5, 1.8)):
        h = probe_maker(w, seed_offset=j)
        rel = pair_norm(g, default_plan.p_ess_spectral(h)
                        - default_projector.apply_complement_H(h)) / pair_norm(g, h)
        assert rel < 1e-4


def test_p_ess_reproduction_t0_half_table(default_plan, default_projector, probe_maker):
    """The t = 0 identity on every second table row.

    The spline rule loses little on the halved table, so the evolve that
    test_quadrature_convergence compares against stays close to 1 - P_d.
    """
    g = default_plan.system.grid
    half = _halved(default_plan)
    for j, w in enumerate((2.0, 2.5, 3.0, 3.5, 1.8)):
        h = probe_maker(w, seed_offset=j)
        rel = pair_norm(g, half.evolve(h, 0.0)
                        - default_projector.apply_complement_H(h)) / pair_norm(g, h)
        assert rel < 5e-5


def test_branch_decomposition(default_plan, default_projector, probe_maker):
    """The two branches of evolve at t = 0 sum to 1 - P_d, on two more
    probes and at a tighter bound than test_p_ess_reproduction_t0."""
    g = default_plan.system.grid
    for j, w in enumerate((2.0, 3.0)):
        h = probe_maker(w, seed_offset=10 + j)
        both = default_plan.evolve(h, 0.0)
        direct = default_projector.apply_complement_H(h)
        assert pair_norm(g, both - direct) < 1e-6 * pair_norm(g, h)


def test_one_pass_matches_mirror_rows(default_plan):
    """The one-pass evolve against explicit mirror rows e(-x, k).

    The table holds e on the closed node set -L + j dx, j = 0..N, so the
    mirror rows there are its plain reversal.  The input takes its value at
    x = -L also at x = +L, the inner products are the closed trapezoid rule
    (weight 1/2 at both ends), and the output at x = -L is the mean of its
    values at -L and +L.  The reference makes separate coefficient and
    synthesis passes over e and the mirror rows, per branch, with the
    negative branch as sigma1 conj of the positive branch of sigma1 conj f,
    and sums the two; both use the plan's quadrature weights.
    """
    plan = default_plan
    tab = plan.table
    g = plan.system.grid
    rows = tab.e
    mirror = tab.e[..., ::-1]
    ends = np.ones(g.N + 1)
    ends[[0, -1]] = 0.5

    def s1c(u):
        return np.conj(u[::-1])

    def reference(f, t, stride):
        e = rows[::stride].reshape(-1, 2 * (g.N + 1))
        m = mirror[::stride].reshape(-1, 2 * (g.N + 1))
        sub = plans[stride]
        inputs = [np.concatenate([u, u[:, :1]], axis=1) for u in (f, s1c(f))]
        # <sigma3 rows, u> = conj(rows . conj(sigma3 u)), by the closed trapezoid
        coef = np.stack([g.dx * np.conj(r @ np.conj(ends * u * [[1], [-1]]).ravel())
                         for u in inputs for r in (e, m)], axis=1)
        w = sub._weights(coef, t)
        outs = [(w[2 * p] @ e + w[2 * p + 1] @ m).reshape(2, g.N + 1) for p in range(len(inputs))]
        out = (outs[0] + s1c(outs[1])) / (2.0 * np.pi)
        return np.concatenate([0.5 * (out[:, :1] + out[:, -1:]), out[:, 1:-1]], axis=1)

    plans = {1: plan, 2: _halved(plan)}
    rng = np.random.default_rng(11)
    f = rng.standard_normal((2, g.N)) + 1j * rng.standard_normal((2, g.N))
    assert np.min(np.abs(f[:, 0])) > 0
    for t in (0.0, 0.3, 30.0, 120.0):
        for stride in (1, 2):
            ref = reference(f, t, stride)
            out = plans[stride].evolve(f, t)
            assert pair_norm(g, out - ref) < 1e-12 * pair_norm(g, ref), (t, stride)


def test_node_zero_matches_free_region_patch(default_plan):
    """evolve at x = -L on non-even data against a periodic mirror with a
    rank-one patch at node 0.

    On the grid's N nodes the periodic flip R (j -> -j mod N) maps -L onto
    itself.  The closed table holds the free-region value s e^{ikL} (1, 0)
    of the right representation s psi1 at its node x = +L, so with
    d0 = s e^{ikL} (1, 0) - e(-L, k) the closed trapezoid adds d0 g(-L) / 2
    to every periodic coefficient, direct and mirror, and the mean of the
    sums at -L and +L adds (w_direct + w_mirror) . d0 / 2 at node 0.
    """
    plan = default_plan
    tab = plan.table
    g = plan.system.grid
    e = tab.e[..., :g.N].reshape(-1, 2 * g.N)
    ridx = (g.N - np.arange(g.N)) % g.N
    mirror0 = np.stack([tab.s * np.exp(1j * tab.k * g.L), np.zeros(tab.k.size)], axis=1)
    d0 = mirror0 - tab.e[:, :, 0]

    def patched(f, t):
        gs = (np.conj(np.stack([f[0], -f[1]])), np.stack([f[1], -f[0]]))
        x = np.stack([c.reshape(-1) for gu in gs for c in (gu, gu[:, ridx])], axis=1)
        y = e @ x + 0.5 * d0 @ x[[0, g.N]]
        w = plan._weights(g.dx * np.conj(y), t)
        sums = (w @ e).reshape(-1, 2, g.N)
        v = sums[0::2] + sums[1::2][..., ridx]
        v[:, :, 0] += 0.5 * (w[0::2] + w[1::2]) @ d0
        return (v[0] + np.conj(v[1, ::-1])) / (2.0 * np.pi)

    rng = np.random.default_rng(12)
    f = rng.standard_normal((2, g.N)) + 1j * rng.standard_normal((2, g.N))
    for t in (0.0, 0.3, 30.0, 120.0):
        ref = patched(f, t)
        out = plan.evolve(f, t)
        assert np.max(np.abs(out[:, 0] - ref[:, 0])) <= 1e-14 * np.max(np.abs(ref)), t


def test_even_input_gives_even_output(default_plan):
    """H commutes with x -> -x, so the flow keeps even data even.  With the
    value at x = -L entering the coefficients of one branch only, an even
    input read a parity defect of 0.14 of its sup here at t = 0."""
    plan = default_plan
    g = plan.system.grid
    rng = np.random.default_rng(13)
    r = rng.standard_normal((2, g.N)) + 1j * rng.standard_normal((2, g.N))
    f = r + g.reflect(r)
    assert g.parity_defect(f) == 0.0 and np.min(np.abs(f[:, 0])) > 1.0
    for t in (0.0, 0.3, 30.0, 120.0):
        out = plan.evolve(f, t)
        assert g.parity_defect(out) <= 1e-14 * np.max(np.abs(out)), t


def test_chirp_moments_match_mpmath():
    """The closed-form chirp moments against 40-digit quadrature.

    m[p] = int_0^1 s^p e^(-i(theta s + c s^2)) ds, so a bound on m is the
    same bound relative to h^(p+1) on the interval moments.  The samples
    cover theta = 0, |theta| < 1, the switch between the two recurrences
    (q + 1 ~ |theta| for q up to 2 J + 4 = 22 at c = 0.06), |theta| far
    above every q used, negative t (theta and c both negative), and |c| at
    C_MAX.  Each sample is checked alone, which sets its own Taylor length
    and recurrence start, and all of them in one call.
    """
    mpmath = pytest.importorskip("mpmath")
    samples = [(0.0, 0.5), (0.4, 0.01), (-0.7, -0.2), (9.5, 0.06), (21.7, 0.06),
               (-120.0, -0.3), (3.0, C_MAX), (-25.0, -C_MAX)]
    ref = np.zeros((7, len(samples)), dtype=complex)
    with mpmath.workdps(40):
        for i, (theta, c) in enumerate(samples):
            th, cc = mpmath.mpf(theta), mpmath.mpf(c)
            cuts = mpmath.linspace(0, 1, int((abs(theta) + abs(c)) / 16) + 2)
            for p in range(7):
                ref[p, i] = complex(mpmath.quad(
                    lambda x: x**p * mpmath.expj(-(th * x + cc * x * x)), cuts))
    theta, c = np.array(samples).T
    for i in range(len(samples)):
        m = _chirp_moments(theta[i:i + 1], c[i:i + 1])
        assert np.max(np.abs(m[:, 0] - ref[:, i])) < 1e-13, samples[i]
    assert np.max(np.abs(_chirp_moments(theta, c) - ref)) < 1e-13


def _exact_resample_weights(plan, coef, t):
    """The resampled weight rows S^T D S coef by direct quadrature.

    On each table interval the coefficient spline times the chirp and the
    monomial tau^(3-m) is integrated by Gauss-Legendre with 20 nodes plus
    one per radian of phase across the interval.  The chirp is evaluated
    as e^(-it(beta + k_i^2)) e^(-it tau (2 k_i + tau)), so that its
    rounding does not grow with t k^2.  S^T is the dense one: the products
    are contracted with the spline basis through the unit vectors, in
    blocks of table columns.
    """
    k = plan.table.k
    h = np.diff(k)
    spline = CubicSpline(k, coef)
    count = 20 + np.ceil(abs(t) * (2.0 * k[:-1] + h) * h).astype(int)
    gathered = np.zeros((4, k.size - 1, coef.shape[1]), dtype=complex)
    for n in np.unique(count):
        idx = np.where(count == n)[0]
        x, wq = np.polynomial.legendre.leggauss(n)
        hi = h[idx, None]
        tau = 0.5 * hi * (x + 1.0)                                   # [interval, node]
        chirp = (np.exp(-1j * t * (plan.system.beta + k[idx, None] ** 2))
                 * np.exp(-1j * t * tau * (2.0 * k[idx, None] + tau)))
        vals = spline(k[idx, None] + tau) * (chirp * 0.5 * hi * wq)[..., None]
        for m in range(4):
            gathered[m, idx] = np.einsum("in,inc->ic", tau ** (3 - m), vals)
    w = np.empty((coef.shape[1], k.size), dtype=complex)
    eye = np.eye(k.size)
    for j in range(0, k.size, 512):
        basis = CubicSpline(k, eye[:, j:j + 512]).c         # [4, n_int, block]
        w[:, j:j + 512] = np.einsum("mij,mic->cj", basis, gathered)
    return w


def test_fine_k_pullback_matches_dense_resample(default_plan, free_plan):
    """The chirp-moment weights against direct quadrature of the spline.

    _weights contracts the chirp moments of each table interval with the
    spline's interval coefficients and pulls the result back through the
    banded adjoint of the not-a-knot construction; the reference integrates
    spline times chirp by Gauss-Legendre and applies the dense S^T.
    """
    rng = np.random.default_rng(12)
    k = default_plan.table.k
    for stride in (1, 2):
        ks = k[::stride]
        basis = CubicSpline(ks, np.eye(ks.size)).c                # [4, n_int, nk]
        g = rng.standard_normal((4, ks.size - 1, 3)) + 1j * rng.standard_normal((4, ks.size - 1, 3))
        ref = np.einsum("mij,mic->jc", basis, g)
        out = _spline_adjoint(ks, g)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), stride
    # the four-column pull-back equals four one-column ones
    g = rng.standard_normal((4, k.size - 1, 4)) + 1j * rng.standard_normal((4, k.size - 1, 4))
    joint = _spline_adjoint(k, g)
    for c in range(4):
        single = _spline_adjoint(k, g[:, :, [c]])[:, 0]
        assert np.max(np.abs(joint[:, c] - single)) <= 1e-14 * np.max(np.abs(single))

    # coefficient columns with tails of different reach
    decay = np.array([0.5, 1.0, 2.0, 3.0])
    for plan, t in ((default_plan, 2.0), (default_plan, 30.0), (default_plan, 150.0),
                    (default_plan, -30.0), (free_plan, 2000.0),
                    (default_plan, 0.0), (default_plan, 0.3)):
        kp = plan.table.k
        ncol = 4 if plan is default_plan else 1
        coef = ((rng.standard_normal((kp.size, ncol)) + 1j * rng.standard_normal((kp.size, ncol)))
                * np.exp(-decay[:ncol] * kp[:, None]))
        out = plan._weights(coef, t)
        ref = _exact_resample_weights(plan, coef, t)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), t


def test_free_field_closed_form_evolution(free_plan, free_system):
    g = free_system.grid
    h = np.zeros((2, g.N), dtype=complex)
    h[0] = np.exp(-g.nodes**2 / 9.0)
    t = 1.0
    out = free_plan.evolve(h, t)
    kk = g.wavenumbers
    closed = np.fft.ifft(np.exp(-1j * t * (kk**2 + free_system.beta)) * np.fft.fft(h[0]))
    assert np.max(np.abs(out[0] - closed)) < 1e-5
    assert np.max(np.abs(out[1])) < 1e-12
    # component 2 probes evolve with the mirrored phase
    h2 = np.zeros((2, g.N), dtype=complex)
    h2[1] = np.exp(-g.nodes**2 / 9.0)
    out2 = free_plan.evolve(h2, t)
    closed2 = np.fft.ifft(np.exp(+1j * t * (kk**2 + free_system.beta)) * np.fft.fft(h2[1]))
    assert np.max(np.abs(out2[1] - closed2)) < 1e-5


def test_free_field_late_time_gaussian(free_plan, free_system):
    """A narrow Gaussian at late times against the full-line closed form.

    The error, 2.45e-5 / 1.76e-5 relative at t = 600 / 2000, is not the
    quadrature's: the exact chirp moments and a Simpson rule on a fine k
    grid at a phase step of 0.25 give the same values.  Nor is it the
    table's k = 0 row, the resonant mode (1, 0): zeroing that row raises
    the error to 6.4e-2 / 1.2e-1.  The error is spread across the box
    (1.57e-5 / 1.40e-5 at |x| < 55, largest next to the wall).  At t = 0
    the probe is off by 5.3e-4, the k <= 10 cut of its spectrum; which
    shared term sets the late-time error is not identified.
    """
    g = free_system.grid
    x = g.nodes
    s0 = 0.06
    h = np.zeros((2, g.N), dtype=complex)
    h[0] = np.exp(-x**2 / (4 * s0))
    for t in (600.0, 2000.0):
        out = free_plan.evolve(h, t)
        exact = (np.sqrt(s0 / (s0 + 1j * t))
                 * np.exp(-x**2 / (4 * (s0 + 1j * t)) - 1j * free_system.beta * t))
        assert np.max(np.abs(out[0] - exact)) < 1e-4 * np.max(np.abs(exact)), t


def test_late_time_memory_bounded(free_plan, free_system):
    """The chirp moments are closed-form per table interval, so the memory
    of one evolve does not grow with t: t = 2000 and t = 1e4 stay within
    1.1x the allocation peak of t = 150."""
    import tracemalloc

    x = free_system.grid.nodes
    h = np.zeros((2, x.size), dtype=complex)
    h[0] = np.exp(-x**2 / 0.24)
    free_plan.evolve(h, 150.0)          # warm-up: first-call allocations are not the evolve's
    peaks = {}
    for t in (150.0, 2000.0, 1e4):
        tracemalloc.start()
        try:
            free_plan.evolve(h, t)
            peaks[t] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks[2000.0], peaks[1e4]) <= 1.1 * peaks[150.0], peaks


def test_late_time_raises_past_c_max(free_plan, free_system):
    """Past |t| dk^2 = C_MAX the chirp moments would lose digits, so evolve
    raises instead, at either sign of t; the halved table, with twice the
    spacing, reaches the bound at a quarter of the time."""
    x = free_system.grid.nodes
    h = np.zeros((2, x.size), dtype=complex)
    h[0] = np.exp(-x**2 / 0.24)
    t_max = C_MAX / float(np.max(np.diff(free_plan.table.k))) ** 2
    plans = {1: free_plan, 2: _halved(free_plan)}
    for t, stride in ((1.01 * t_max, 1), (-1.01 * t_max, 1), (0.26 * t_max, 2)):
        with pytest.raises(ValueError, match="chirp moments unsupported"):
            plans[stride].evolve(h, t)
    assert np.all(np.isfinite(plans[2].evolve(h, 0.24 * t_max)))


def test_direct_oracle_richardson_order(default_system, default_projector, probe_maker):
    h = default_projector.apply_complement_H(probe_maker(3.0, seed_offset=21))
    g = default_system.grid
    t = 0.5
    u1 = evolve_direct(default_system, h, t, dt=4e-3)
    u2 = evolve_direct(default_system, h, t, dt=2e-3)
    u4 = evolve_direct(default_system, h, t, dt=1e-3)
    e12 = pair_norm(g, u1 - u2)
    e24 = pair_norm(g, u2 - u4)
    assert e12 / e24 == pytest.approx(4.0, rel=0.25)


def test_direct_oracle_free_field(free_system):
    g = free_system.grid
    h = np.zeros((2, g.N), dtype=complex)
    h[0] = np.exp(-g.nodes**2 / 16.0)
    t = 1.0
    out = evolve_direct(free_system, h, t, dt=2.5e-4)
    kk = g.wavenumbers
    closed = np.fft.ifft(np.exp(-1j * t * (kk**2 + free_system.beta)) * np.fft.fft(h[0]))
    assert np.max(np.abs(out[0] - closed)) < 1e-6


@pytest.mark.parametrize("dt", [-1e-3, 0.0])
def test_direct_oracle_rejects_nonpositive_step(free_system, dt):
    """A step dt <= 0 is refused: ceil(|t| / dt) would otherwise take one
    step of size t for dt < 0 and divide by zero for dt = 0."""
    h = np.zeros((2, free_system.grid.N), dtype=complex)
    h[0] = np.exp(-free_system.grid.nodes**2 / 16.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve_direct(free_system, h, 1.0, dt=dt)


def test_direct_norm_bounded(default_system, default_projector, probe_maker):
    h = default_projector.apply_complement_H(probe_maker(2.5, seed_offset=3, kcut=1.2))
    g = default_system.grid
    n0 = pair_norm(g, h)
    u = evolve_direct(default_system, h, 20.0, dt=2e-3, check_boundary=False)
    assert pair_norm(g, u) < 1.5 * n0


def test_boundary_contamination_detected(default_system, probe_maker):
    # without projection and with wide k content the front reaches the
    # boundary well before t = 40
    h = probe_maker(2.0, seed_offset=5, kcut=4.0)
    with pytest.raises(ValueError, match="boundary contamination"):
        evolve_direct(default_system, h, 40.0, dt=5e-3)


def test_oracle_equivalence(default_plan, default_system, default_projector, probe_maker):
    g = default_system.grid
    h = default_projector.apply_complement_H(probe_maker(3.0, seed_offset=30, kcut=1.4))
    ud, t_prev = h, 0.0
    for t in (1.0, 5.0):                 # one march, on from the previous time
        us = default_plan.evolve(h, t)
        ud = evolve_direct(default_system, ud, t - t_prev, dt=5e-4)
        t_prev = t
        dev = weighted_pair_norm(g, us - ud, 4.0) / weighted_pair_norm(g, ud, 4.0)
        assert dev < 1e-3


def test_frame_consistency(default_plan, default_system, default_projector, probe_maker):
    """The L-frame flow e^(tL) = T e^(itH) T* of a real datum at t = 1: the
    Crank-Nicolson oracle and the mode table agree on e^(iH) T* (1 - P_d) v.
    T is unitary, so the pair norms are those of the L frame."""
    g = default_system.grid
    v = np.real(probe_maker(2.5, seed_offset=40))
    u = default_projector.apply_complement_H(default_system.to_H_frame(v))
    direct = evolve_direct(default_system, u, -1.0, dt=5e-4)
    spectral = default_plan.evolve(u, -1.0)
    assert pair_norm(g, direct - spectral) < 1e-4 * pair_norm(g, direct)


def test_quadrature_convergence(default_plan, default_projector, probe_maker):
    """Halving the table resolution moves an evolve at t = 5 by under 1e-3."""
    h = default_projector.apply_complement_H(probe_maker(2.5, seed_offset=50))
    g = default_plan.system.grid
    full = default_plan.evolve(h, 5.0)
    rel = pair_norm(g, full - _halved(default_plan).evolve(h, 5.0)) / pair_norm(g, full)
    assert rel < 1e-3


def test_decay_reports(default_plan, default_projector, probe_maker, monkeypatch):
    probes = [default_projector.apply_complement_H(probe_maker(2.0, seed_offset=60)),
              default_projector.apply_complement_H(probe_maker(3.0, seed_offset=61))]
    # Least-squares log-log slopes of the E1 curve on sub-windows of 41
    # geometric samples in [1, 400]: -0.80 on [1, 8], -1.22 on [8, 32],
    # -1.54 on [32, 150], -1.53 on [150, 400] for the width-2 probe (-0.68,
    # -1.16, -1.55, -1.50 for width 3); a fit over [1, 60] gives -1.08.  The
    # weighted estimates are therefore fitted in the (1+t)^(-3/2) regime
    # t >= 30.  The sup norms keep their t^(-1/2) rate (local slope -0.49
    # for 8 < t < 70) only while the dispersive peak x ~ 2 k t is inside the
    # L = 60 window, so they are fitted on [1, 60].
    weighted_times = np.geomspace(30.0, 150.0, 9)
    sup_times = np.geomspace(1.0, 60.0, 9)
    # These are the default windows (DECAY_WINDOWS); estimates that share
    # one evolve each (probe, t) once: 2 probes x 9 times x 2 windows.
    evolve = default_plan.evolve
    calls = []
    monkeypatch.setattr(default_plan, "evolve", lambda h, t: calls.append(t) or evolve(h, t))
    reports = verify_decay(default_plan, probes, ["E1", "E2", "E3", "E4"])
    assert len(calls) == 36
    for rep, (est, lo, hi, times) in zip(reports, (("E1", -2.0, -1.35, weighted_times),
                                                   ("E2", -2.0, -1.35, weighted_times),
                                                   ("E3", -1.0, -0.4, sup_times),
                                                   ("E4", -1.0, -0.4, sup_times))):
        assert rep.estimate_id == est
        assert np.array_equal(rep.times, times)
        assert rep.passes
        assert lo <= rep.fitted_exponent <= hi, (est, rep.fitted_exponent)
    # a single id gives the same report as its entry in the list
    single = verify_decay(default_plan, probes, "E4")
    assert single.fitted_exponent == reports[3].fitted_exponent
    assert np.array_equal(single.norms, reports[3].norms)
    # the mass that leaves the L = 60 window grows across the E1 window
    edge = reports[0].edge_mass
    assert np.all((edge >= 0.0) & (edge <= 1.0))
    assert np.all(np.diff(edge) > 0.0), edge


def test_free_field_e3_baseline(free_plan, free_system):
    g = free_system.grid
    h = np.zeros((2, g.N), dtype=complex)
    h[0] = np.exp(-g.nodes**2 / 4.0) * (1 + 0.3j)
    times = np.geomspace(1.0, 60.0, 9)
    rep = verify_decay(free_plan, [h], "E3")
    assert np.array_equal(rep.times, times)
    # the exact free curve is sup|u| ~ |1+it|^(-1/2) = (1+t^2)^(-1/4); its
    # log-log slope against log(1+t) on this window is -0.5507, not -1/2
    exact = np.polyfit(np.log(1.0 + times), -0.25 * np.log(1.0 + times**2), 1)[0]
    assert rep.fitted_exponent == pytest.approx(exact, abs=1e-3)


def test_verify_decay_guards(default_plan, probe_maker):
    with pytest.raises(ValueError, match="unknown estimate"):
        verify_decay(default_plan, [probe_maker(2.0)], "E9")
    # the weighted estimates need nu > 3.5, and E4 fits against log t
    assert DECAY_NU > 3.5
    assert all(lo > 0.0 for lo, _hi in DECAY_WINDOWS.values())


def test_positivity(default_plan, probe_maker):
    beta = default_plan.system.beta
    g = default_plan.system.grid
    even = np.exp(-g.nodes**2 / 4.0)
    probe = np.stack([even, 0.5 * even]).astype(complex)
    form, zero = positivity_check(default_plan, [probe, 0.0 * probe], beta + 1.0)
    assert form >= -1e-8
    assert zero == 0.0
    rng = np.random.default_rng(1)
    for lam in (beta + 0.5, beta + 2.0):
        probes = [probe_maker(2.0 + rng.uniform(0, 1), seed_offset=int(rng.integers(100)))
                  for _ in range(5)]
        for form in positivity_check(default_plan, probes, lam):
            assert form >= -1e-7


def test_positivity_form_is_reflection_invariant(default_plan):
    """The form pairs a field with e and its mirror R e by the closed
    trapezoid, so a field and its reflection give the same value; a field
    whose x = -L value enters one pairing only does not."""
    g = default_plan.system.grid
    rng = np.random.default_rng(7)
    f = rng.standard_normal((2, g.N)) + 1j * rng.standard_normal((2, g.N))
    form, mirrored = positivity_check(default_plan, [f, g.reflect(f)],
                                      default_plan.system.beta + 4.0)
    assert abs(form - mirrored) <= 1e-13 * abs(form)
