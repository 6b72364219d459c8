"""Jost solutions, Wronskian matrix, resonances, continuum modes."""

import json
import os

import numpy as np
import pytest

from nlslab.scattering import (default_k_grid, dump_table, e_over_k,
                               eigentable_build, ek_growth_report,
                               generalized_eigenfunction, jost_solve,
                               load_table, resonance_scan, resonance_test,
                               wronskian, wronskian_matrix)


def test_free_field_closed_forms(free_system):
    g = free_system.grid
    lam = free_system.beta + 1.0
    k, mu = 1.0, np.sqrt(lam + free_system.beta)
    phi1 = jost_solve(free_system, lam, "phi1")
    assert np.max(np.abs(phi1.values[0])) == 0.0
    assert np.max(np.abs(phi1.values[1] - np.exp(-mu * g.nodes))) < 1e-12 * np.max(np.exp(-mu * g.nodes))
    psi1 = jost_solve(free_system, lam, "psi1")
    assert np.max(np.abs(psi1.values[0] - np.exp(1j * k * g.nodes))) < 1e-12
    assert np.max(np.abs(psi1.values[1])) == 0.0


def test_free_field_threshold_wronskian(free_system):
    beta = free_system.beta
    lam = beta
    p1 = jost_solve(free_system, lam, "phi1")
    p2 = jost_solve(free_system, lam, "phi2")
    w, spread = wronskian(p1, p2)
    assert abs(abs(w) - 2 * np.sqrt(2 * beta)) < 1e-10
    assert spread < 1e-9


def test_wronskian_self_vanishes(default_system):
    lam = default_system.beta + 1.0
    p1 = jost_solve(default_system, lam, "phi1")
    w, _ = wronskian(p1, p1)
    assert abs(w) < 1e-12


def test_jost_residuals_and_tails(default_system):
    beta = default_system.beta
    for kind, lam in (("phi1", beta + 1.0), ("psi1", beta + 1.0),
                      ("psi2", beta + 1.0), ("xi1", beta + 1.0),
                      ("eta", beta)):
        sol = jost_solve(default_system, lam, kind)
        assert sol.residual < 1e-7, kind
        assert sol.tail_fit_rate > 0.2, kind


def test_jost_normalization_decay(default_system):
    """phi1 e^{mu x} approaches (0,1) exponentially on the far right."""
    lam = default_system.beta + 1.0
    sol = jost_solve(default_system, lam, "phi1")
    g = default_system.grid
    # the correction lives on the potential support; past it only the
    # noise floor remains
    sel = (g.nodes > 2.0) & (g.nodes < 12.0)
    rem = np.abs(sol.values[1, sel] * np.exp(sol.mu * g.nodes[sel]) - 1.0)
    rem += np.abs(sol.values[0, sel] * np.exp(sol.mu * g.nodes[sel]))
    from nlslab.grids import fit_exponential_decay

    rate, _ = fit_exponential_decay(g.nodes[sel], rem + 1e-300, floor=1e-280)
    assert rate > 0.2


def test_jost_k_smoothness(default_system):
    """Centered k-differences agree with re-solves at shifted k."""
    beta = default_system.beta
    k0, d = 1.0, 1e-3
    sols = {dk: jost_solve(default_system, beta + (k0 + dk) ** 2, "psi1")
            for dk in (-2 * d, -d, d, 2 * d)}
    g = default_system.grid
    j = np.searchsorted(g.nodes, 3.0)
    five = (sols[-2 * d].values[0, j] - 8 * sols[-d].values[0, j]
            + 8 * sols[d].values[0, j] - sols[2 * d].values[0, j]) / (12 * d)
    three = (sols[d].values[0, j] - sols[-d].values[0, j]) / (2 * d)
    assert abs(five - three) < 1e-5 * max(abs(five), 1.0)


def test_threshold_eta_psi1_wronskian(default_system):
    """eta and psi1 share one march at k = 0; their Wronskian is the free
    value eta' psi1 - psi1' eta = 1 on the potential-free tail."""
    beta = default_system.beta
    eta = jost_solve(default_system, beta, "eta")
    psi1 = jost_solve(default_system, beta, "psi1")
    w, spread = wronskian(eta, psi1)
    assert abs(w - 1.0) < 1e-10
    assert spread < 1e-7


def test_sigma3_conjugation_symmetry(default_system):
    lam = default_system.beta + 1.0
    p1 = jost_solve(default_system, lam, "phi1")
    flip = -np.stack([np.conj(p1.values[0]), -np.conj(p1.values[1])])
    sel = p1.valid
    scale = np.max(np.abs(p1.values[:, sel]))
    assert np.max(np.abs((p1.values - flip)[:, sel])) < 1e-8 * scale


def test_wronskian_matrix_properties(default_system):
    lam = default_system.beta + 1.0
    d = wronskian_matrix(default_system, lam)
    assert d.spread < 1e-7
    assert d.symmetry_defect < 1e-8
    # transmission normalization identity: 2ik s1 = D11 - D12^2/D22
    s = 2j * d.k * d.d22 / d.det
    s1 = 1.0 / s
    lhs = 2j * d.k * s1
    rhs = d.d11 - d.d12**2 / d.d22
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)


def test_free_field_resonant(free_system):
    rt = resonance_test(free_system)
    assert rt["resonant"]
    assert abs(rt["detD0"]) < 1e-10
    assert abs(abs(rt["d22"]) - 2 * np.sqrt(2 * free_system.beta)) < 1e-8


def test_default_system_not_resonant(default_system):
    rt = resonance_test(default_system)
    assert not rt["resonant"]
    assert rt["margin"] > 1e-3


def test_scaled_coupling_not_resonant(default_system):
    from nlslab.scattering import _scaled_system

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
    from nlslab.scattering import _scaled_system

    scan = resonance_scan(default_system, [-0.1, 0.0, 0.05, 0.5])
    assert scan["detD0"][1] == 0.0 and scan["wronskian_lemma"][1] == 0.0
    for j in (0, 2, 3):
        d = wronskian_matrix(_scaled_system(default_system, scan["s"][j]),
                             default_system.beta)
        assert abs(scan["detD0"][j] - d.det) < 1e-10 * abs(d.det)
        assert abs(scan["wronskian_lemma"][j] - d.d11) < 1e-10 * abs(d.d11)


def test_march_start_does_not_move_threshold_data(default_system):
    """A scan row marched from the edge of W equals the scaled system
    marched from its own, nearer edge: past both edges the step is the
    free one and the purges are exact bookkeeping, so only roundoff is
    left.  s = 0.5 sits next to the crossing at s* = 0.487, where det D(0)
    is small."""
    from nlslab.scattering import _scaled_system, _w_edge

    scaled = _scaled_system(default_system, 0.5)
    assert _w_edge(scaled) < _w_edge(default_system) - 5 * default_system.grid.dx
    scan = resonance_scan(default_system, [0.5])
    d = wronskian_matrix(scaled, default_system.beta)
    assert abs(scan["detD0"][0] - d.det) <= 1e-12 * abs(d.det)
    assert abs(scan["wronskian_lemma"][0] - d.d11) <= 1e-12 * abs(d.d11)


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

    from nlslab.scattering import _sample_indices, _w_edge

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

    phi1 = jost_solve(sys_, beta + k**2, "phi1")
    marched = phi1.values[:, np.concatenate([idx, ridx])] * np.exp(mu * nodes)
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
    from nlslab.scattering import _pair_rows, _scaled_system, jost_solve

    def dmat(s):
        return wronskian_matrix(_scaled_system(default_system, s),
                                default_system.beta)

    def det0(svals):
        # one k = 0 march whose rows carry the couplings svals
        _psi, _phi, _samples, (d11, d12, d21, d22, _sp) = _pair_rows(
            default_system, np.zeros(svals.size), svals)
        return np.real(d11 * d22 - d12 * d21)

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
    # linear-growth member eta(-x)
    def wr(view_a, view_b):
        (va, da), (vb, db) = view_a, view_b
        w = da[0] * vb[0] - da[1] * vb[1] - (db[0] * va[0] - db[1] * va[1])
        return complex(np.median(w.real) + 1j * np.median(w.imag))

    def growth_coefficient(s):
        syss = _scaled_system(default_system, s)
        d = dmat(s)
        beta = default_system.beta
        g = default_system.grid
        idx = np.unique(np.searchsorted(g.nodes, np.linspace(0.8, 5.0, 12)))
        ridx = (g.N - idx) % g.N
        sols = {kind: jost_solve(syss, beta, kind)
                for kind in ("psi1", "phi1", "eta")}
        B = [sols["psi1"].reflected_at(ridx), sols["eta"].reflected_at(ridx),
             sols["phi1"].reflected_at(ridx)]
        mat = np.array([[wr(B[i], B[j]) for i in range(3)] for j in range(3)])
        z = -d.d12 / d.d22
        pv, pd_ = sols["psi1"].at(idx)
        fv, fd = sols["phi1"].at(idx)
        cand = (pv + z * fv, pd_ + z * fd)
        rhs = np.array([wr(cand, B[j]) for j in range(3)])
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
    g = free_system.grid
    e, s, r = generalized_eigenfunction(free_system, free_system.beta + 1.0)
    assert s == pytest.approx(1.0) and r == pytest.approx(0.0)
    assert np.max(np.abs(e[0] - np.exp(1j * g.nodes))) < 1e-12
    tab = eigentable_build(free_system, np.array([0.0, 0.5, 1.0]))
    assert tab.free_reference and tab.resonant


def test_table_invariants(default_table):
    tab = default_table
    pos = tab.k > 0
    assert np.max(tab.unitarity_defect()[pos]) < 1e-6
    assert np.max(tab.orthogonality_defect()[pos]) < 1e-6
    assert np.max(tab.wronskian_spread) < 1e-7
    assert np.max(np.abs(tab.e[tab.k == 0.0])) < 1e-8
    scale = np.maximum(np.abs(tab.d11), np.abs(tab.d22))
    assert np.max(np.abs(tab.d12 - tab.d21) / np.maximum(scale, 1e-300)) < 1e-7


def test_reflection_consistency(default_system, default_table):
    """Left-side values rebuilt from the reflection expansion match the
    right representation continued across the origin."""
    from nlslab.scattering import _pair_rows

    g = default_system.grid
    tab = default_table
    for kq in (0.5, 1.0, 2.0):
        i = int(np.argmin(np.abs(tab.k - kq)))
        k = tab.k[i]
        ypsi, yphi, _samples, _d = _pair_rows(default_system, np.array([k]))
        fp, fh = ypsi[0], yphi[0]
        det = tab.detD[i]
        s = 2j * k * tab.d22[i] / det
        a = -2j * k * tab.d12[i] / det
        sel = (g.nodes > -5.0) & (g.nodes < -0.2)
        right_rep = s * fp[(0, 2), :][:, sel] + a * fh[(0, 2), :][:, sel]
        assert np.max(np.abs(right_rep - tab.e[i][:, sel])) < 1e-6


def test_large_x_factorization(default_system, default_table):
    """e(x,k) - s(k) e^{ikx}(1,0) decays exponentially on the far right."""
    from nlslab.grids import fit_exponential_decay

    g = default_system.grid
    tab = default_table
    i = int(np.argmin(np.abs(tab.k - 1.0)))
    k = tab.k[i]
    sel = (g.nodes > 15.0) & (g.nodes < 0.9 * g.L)
    rem = np.abs(tab.e[i][0, sel] - tab.s[i] * np.exp(1j * k * g.nodes[sel]))
    rem += np.abs(tab.e[i][1, sel])
    rate, _ = fit_exponential_decay(g.nodes[sel], rem + 1e-300, floor=1e-280)
    assert rate > 0.2


def test_growth_report_exponents(default_system):
    rep = ek_growth_report(default_system)
    for n in (0, 1, 2):
        assert n + 0.7 <= rep["exponents"][n] <= n + 1.3, rep["exponents"]


def test_e_over_k_regular_at_zero(default_system):
    row0 = e_over_k(default_system, 0.0)
    g = default_system.grid
    interior = np.abs(g.nodes) < 0.5 * g.L
    assert np.all(np.isfinite(row0[:, interior]))
    # consistent with the small-k limit of the sampled rows
    row_small = e_over_k(default_system, 4e-3)
    dev = np.max(np.abs(row0 - row_small)[:, interior])
    assert dev < 0.05 * max(np.max(np.abs(row0[:, interior])), 1.0)


def test_table_dump_roundtrip(default_table, tmp_path):
    binpath = os.path.join(tmp_path, "table.bin")
    sidecar = os.path.join(tmp_path, "table.json")
    dump_table(default_table, binpath, sidecar)
    back = load_table(binpath)
    g = default_table.system.grid
    assert back["N"] == g.N
    assert back["k_count"] == default_table.k.size
    assert back["L"] == g.L
    assert np.array_equal(back["e"], default_table.e)
    with open(sidecar) as fh:
        side = json.load(fh)
    assert np.allclose(side["s_re"], np.real(default_table.s))
    assert side["resonant"] is False


def test_near_resonant_system_rejected(default_system):
    # an infinitesimally scaled coupling sits next to the free-field
    # threshold resonance, which the table build must refuse
    from nlslab.scattering import _scaled_system

    with pytest.raises(ValueError, match="resonant"):
        eigentable_build(_scaled_system(default_system, 1e-9), np.array([0.0, 0.5]))
