"""Linearized-operator assembly, spectrum, and spectral projections."""

import numpy as np
import pytest

from nlslab.grids import PolynomialNonlinearity, PotentialSpec, make_grid
from nlslab.linearized import (LinearizedSystem, T_MAT, assemble_L,
                               build_projector, contour_projector,
                               discrete_spectrum, feshbach_predict)
from nlslab.solitons import solve_dlambda, solve_soliton


def pair_norm(g, u):
    return float(np.sqrt(g.norm(u[0]) ** 2 + g.norm(u[1]) ** 2))


def test_zero_mode_identities(default_profile, default_system):
    g = default_profile.grid
    phi = default_profile.phi.astype(complex)
    phi_lam = default_profile.phi_lam.astype(complex)
    zero = np.stack([np.zeros_like(phi), phi])
    assoc = np.stack([phi_lam, np.zeros_like(phi)])
    lz = default_system.apply_L(zero)
    assert pair_norm(g, lz) < 1e-8 * g.norm(phi)
    la = default_system.apply_L(assoc)
    la[1] -= phi
    assert pair_norm(g, la) < 1e-7 * g.norm(phi)


def test_free_operator_block_action(grid, cfg):
    sys = LinearizedSystem(grid=grid, beta=cfg.lam, V1=np.zeros(grid.N), V2=np.zeros(grid.N))
    gauss = np.exp(-grid.nodes**2).astype(complex)
    out = sys.apply_L(np.stack([np.zeros_like(gauss), gauss]))
    expected = -grid.spectral_d2(gauss) + cfg.lam * gauss
    assert grid.norm(out[0] - expected) < 1e-10 * grid.norm(expected)
    assert grid.norm(out[1]) < 1e-12


def test_transform_entries(default_system):
    sys = default_system
    assert np.allclose(sys.V3, sys.V1 + sys.V2, atol=0)
    assert np.allclose(sys.V4, sys.V1 - sys.V2, atol=0)
    lo, hi = sys.ess_spectrum_H()
    assert lo[1] == -sys.beta and hi[0] == sys.beta


def test_transform_is_unitary_conjugation(default_system):
    """H must equal -i T* L T as a matrix identity of the discretization."""
    sys = default_system
    coarse = sys.coarsen(256)
    lmat = coarse.L_matrix(order=4).toarray()
    hmat = coarse.H_matrix(order=4).toarray()
    n = coarse.grid.N
    eye = np.eye(n)
    t_big = np.block([[T_MAT[0, 0] * eye, T_MAT[0, 1] * eye],
                      [T_MAT[1, 0] * eye, T_MAT[1, 1] * eye]])
    conj = -1j * t_big.conj().T @ lmat @ t_big
    assert np.max(np.abs(conj - hmat)) < 1e-10


def test_spectra_match_after_rotation(default_system):
    coarse = default_system.coarsen(256)
    lvals = np.linalg.eigvals(coarse.L_matrix(order=4).toarray())
    hvals = np.linalg.eigvals(coarse.H_matrix(order=4).toarray())
    a = np.sort_complex(-1j * lvals)
    b = np.sort_complex(hvals)
    assert np.max(np.abs(a - b)) < 1e-8 * max(1.0, np.max(np.abs(b)))


def test_reduced_eigensolve_matches_dense(default_system):
    """Eigenvalues +-sqrt(-nu) of Lminus Lplus are those of the dense L."""
    from nlslab.linearized import _reduced_eig

    coarse = default_system.coarsen(256)
    lmat = coarse.L_matrix(order=4).toarray()
    vals, vectors = _reduced_eig(coarse)
    dense = np.linalg.eigvals(lmat)
    # sort by the rotated values -i mu: the spectrum lies on the imaginary axis
    a = 1j * np.sort_complex(-1j * vals)
    b = 1j * np.sort_complex(-1j * dense)
    assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(1.0, np.abs(b)))
    beta = coarse.beta
    gap = np.where((np.abs(vals.real) < 1e-4 * beta)
                   & (np.abs(vals.imag) < beta * (1 - 1e-4)))[0]
    # the gap holds the zero cluster (the Jordan block, split by the FD4
    # grid), whose vectors come from the small-mu end of (mu x, -+Lplus x)
    vecs = vectors(gap)
    assert np.all(np.isfinite(vecs))
    for mu, v in zip(vals[gap], vecs.T):
        assert np.linalg.norm(lmat @ v - mu * v) <= 1e-8 * np.linalg.norm(v)


def test_free_H_fourier_mode(grid, cfg):
    sys = LinearizedSystem(grid=grid, beta=cfg.lam, V1=np.zeros(grid.N), V2=np.zeros(grid.N))
    k = 2.0 * np.pi * 8 / (2 * grid.L)  # an exact Fourier mode of the box
    mode = np.exp(1j * k * grid.nodes)
    out = sys.apply_H(np.stack([mode, np.zeros_like(mode)]))
    assert grid.norm(out[0] - (k**2 + cfg.lam) * mode) < 1e-8 * grid.norm(mode)
    assert grid.norm(out[1]) < 1e-12


def test_feshbach_predict_values():
    vals = feshbach_predict(0.1, 4.0)
    imag = np.sort(vals.imag)
    assert np.max(np.abs(vals.real)) < 1e-12
    assert imag[0] == pytest.approx(-0.2828427, abs=1e-6)
    assert imag[-1] == pytest.approx(0.2828427, abs=1e-6)
    assert abs(vals[0]) < 1e-12 and abs(vals[1]) < 1e-12


def test_feshbach_predict_unstable_direction():
    vals = feshbach_predict(0.1, -4.0)
    real = np.sort(vals.real)
    assert real[-1] == pytest.approx(np.sqrt(2 * 0.01 * 4.0), abs=1e-10)
    assert real[0] == pytest.approx(-np.sqrt(2 * 0.01 * 4.0), abs=1e-10)


def test_feshbach_predict_h_zero():
    assert np.max(np.abs(feshbach_predict(0.0, 4.0))) < 1e-14


def test_discrete_spectrum_structure(default_spectrum, cfg):
    spec = default_spectrum
    assert spec.zero_cluster_size == 2
    assert spec.extra_interior.size == 0
    assert spec.embedded_candidates.size == 0
    assert spec.odd_residual < 1e-10
    # spectral symmetry: gap eigenvalues closed under negation/conjugation
    vals = spec.eigenvalues
    for mu in vals:
        assert np.min(np.abs(vals + mu)) < 1e-7
        assert np.min(np.abs(vals - np.conj(mu))) < 1e-7


def test_odd_pair_parity_and_eigenvalue(default_spectrum, default_system):
    g = default_system.grid
    pair = default_spectrum.odd_plus
    # odd parity
    assert pair_norm(g, pair + g.reflect(pair)) < 1e-8 * pair_norm(g, pair)
    lv = default_system.apply_L(pair)
    mu = 1j * default_spectrum.eps1
    assert pair_norm(g, lv - mu * pair) < 1e-9
    minus = default_spectrum.odd_minus
    lv2 = default_system.apply_L(minus)
    assert pair_norm(g, lv2 + mu * minus) < 1e-9
    # xi1 real / eta1 imaginary structure
    assert np.max(np.abs(np.imag(pair[0]))) < 1e-9
    assert np.max(np.abs(np.real(pair[1]))) < 1e-9


def test_even_modes_parity(default_spectrum, default_system):
    g = default_system.grid
    for mode in (default_spectrum.zero_mode, default_spectrum.zero_assoc):
        assert pair_norm(g, mode - g.reflect(mode)) < 1e-9 * max(pair_norm(g, mode), 1e-300)


def test_small_eigenvalue_tracks_reduced_matrix():
    g = make_grid(40.0, 2048)
    f = PolynomialNonlinearity((1.0,))
    V = PotentialSpec("quad_gauss", 0.1, {"amp": 1.0, "offset": 1.0})
    prof = solve_dlambda(solve_soliton(2.0, V, f, g))
    spec = discrete_spectrum(assemble_L(prof), coarse_points=1024)
    pred = 0.1 * np.sqrt(2 * 4.0)
    assert abs(spec.eps1 - pred) <= 0.05
    assert spec.zero_cluster_size == 2


def test_projector_algebra(default_projector, default_system, probe_maker):
    g = default_system.grid
    pd = default_projector
    assert pd.rank == 4
    assert pd.condition < 1e8
    # biorthogonality consistency
    assert np.max(np.abs(pd.gram_inv @ pd.gram - np.eye(4))) < 1e-10
    rng_norms = []
    for j in range(20):
        fld = default_system.to_L_frame(probe_maker(2.0 + 0.05 * j, seed_offset=j))
        p1 = pd.apply(fld)
        p2 = pd.apply(p1)
        nrm = pair_norm(g, fld)
        rng_norms.append(pair_norm(g, p2 - p1) / nrm)
        lp = default_system.apply_L(p1)
        pl = pd.apply(default_system.apply_L(fld))
        assert pair_norm(g, lp - pl) < 1e-7 * nrm
    assert max(rng_norms) < 1e-8


def test_projector_fixes_eigenvector(default_projector, default_spectrum, default_system):
    g = default_system.grid
    z = default_spectrum.zero_mode
    pz = default_projector.apply(z)
    assert pair_norm(g, pz - z) < 1e-8 * pair_norm(g, z)


def test_projector_annihilates_tagged(default_projector, default_spectrum, default_system):
    g = default_system.grid
    for mode in default_spectrum.tagged():
        res = default_projector.apply_complement(mode)
        assert pair_norm(g, res) < 1e-8 * max(pair_norm(g, mode), 1e-300)


def test_contour_oracle_agreement(default_projector, default_spectrum,
                                  default_system, probe_maker):
    g = default_system.grid
    radius = min(default_system.beta, 2 * default_spectrum.eps1)
    fields = [default_system.to_L_frame(probe_maker(1.5 + 0.4 * j, seed_offset=13 + j))
              for j in range(5)]
    oracles = contour_projector(default_system, fields, radius)
    for fld, oracle in zip(fields, oracles):
        direct = default_projector.apply(fld)
        assert pair_norm(g, direct - oracle) < 1e-6 * pair_norm(g, fld)


def test_gram_singular_detection(default_spectrum):
    import dataclasses

    from nlslab.linearized import SpectralProjector, _apply_J

    kets = [default_spectrum.zero_mode, default_spectrum.zero_mode.copy()]
    bras = [_apply_J(k) for k in kets]
    g = default_spectrum.system.grid
    gram = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            gram[i, j] = g.inner(bras[i][0], kets[j][0]) + g.inner(bras[i][1], kets[j][1])
    with pytest.raises(ValueError, match="Gram singular"):
        SpectralProjector(system=default_spectrum.system, kets=kets, bras=bras, gram=gram)
