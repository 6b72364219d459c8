"""Linearized-operator assembly, spectrum, and spectral projections."""

import numpy as np
import pytest
from scipy import sparse

from nlslab.grids import PolynomialNonlinearity, PotentialSpec, make_grid
from nlslab import linearized
from nlslab.linearized import (LinearizedSystem, T_MAT, _localized, _parity_blocks, _pencil_eig,
                               assemble_L, build_projector, contour_projector,
                               discrete_spectrum, feshbach_predict)
from nlslab.solitons import solve_dlambda, solve_soliton, stability_scan


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


def _stacked_dense(sys, frame):
    """fd_band(frame) as a dense matrix on stacked pairs [v1, v2]."""
    n = sys.grid.N
    band = sys.fd_band(frame)
    dense = sparse.dia_matrix((band, range(5, -6, -1)), shape=(2 * n, 2 * n)).toarray()
    stack = np.arange(2 * n).reshape(n, 2).T.ravel()     # interleaved index of each stacked entry
    return dense[np.ix_(stack, stack)]


def test_fd_band_rejects_an_unknown_frame(default_system):
    with pytest.raises(ValueError, match="frame must be"):
        default_system.coarsen(256).fd_band("X")


def test_transform_is_unitary_conjugation(default_system):
    """H must equal -i T* L T as a matrix identity of the discretization."""
    sys = default_system
    coarse = sys.coarsen(256)
    lmat = _stacked_dense(coarse, "L")
    hmat = _stacked_dense(coarse, "H")
    n = coarse.grid.N
    eye = np.eye(n)
    t_big = np.block([[T_MAT[0, 0] * eye, T_MAT[0, 1] * eye],
                      [T_MAT[1, 0] * eye, T_MAT[1, 1] * eye]])
    conj = -1j * t_big.conj().T @ lmat @ t_big
    assert np.max(np.abs(conj - hmat)) < 1e-10


def test_spectra_match_after_rotation(default_system):
    coarse = default_system.coarsen(256)
    lvals = np.linalg.eigvals(_stacked_dense(coarse, "L"))
    hvals = np.linalg.eigvals(_stacked_dense(coarse, "H"))
    a = np.sort_complex(-1j * lvals)
    b = np.sort_complex(hvals)
    assert np.max(np.abs(a - b)) < 1e-8 * max(1.0, np.max(np.abs(b)))


def _gap(vals, beta):
    return np.where((np.abs(vals.real) < 1e-4 * beta)
                    & (np.abs(vals.imag) < beta * (1 - 1e-4)))[0]


def _shift(profile):
    """The zero-cluster radius squared that discrete_spectrum passes to _pencil_eig."""
    pot = profile.potential
    eps_pred = np.max(np.abs(feshbach_predict(pot.h, pot.second_derivative_at_zero()).imag))
    return max(1e-3, 0.25 * eps_pred) ** 2


def _block_L(lminus, lplus):
    zero = np.zeros_like(lminus)
    return np.block([[zero, lminus], [-lplus, zero]])


def test_reduced_eigensolve_matches_dense(default_system, default_profile):
    """The pencil route's eigenpairs +-sqrt(-nu) are those of the dense
    block L, on both parity blocks.

    The oracle scales each block by D = diag(sqrt(weight)) and takes
    np.linalg.eigvals of the 2m x 2m block L of both, whole, where the
    pencil reads one triangle of each; the pencil's vectors, on the
    block's nodes, carry over by D.
    """
    coarse = default_system.coarsen(256)
    for blk in _parity_blocks(coarse):
        d = np.sqrt(blk.weight)
        lmat = _block_L(*(d[:, None] * a / d for a in (blk.lminus, blk.lplus)))
        vals, vectors, _ = _pencil_eig(blk, _shift(default_profile))
        dense = np.linalg.eigvals(lmat)
        # sort by the rotated values -i mu: the spectrum lies on the imaginary axis
        a = 1j * np.sort_complex(-1j * vals)
        b = 1j * np.sort_complex(-1j * dense)
        assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(1.0, np.abs(b)))
        # the even gap holds the zero cluster (the Jordan block, split by the
        # FD4 grid), whose vectors come from the small-mu end of (mu x, -+y);
        # the odd gap holds the trapping pair
        assert _gap(vals, coarse.beta).size == 2
        vecs = np.tile(d, 2)[:, None] * vectors(np.arange(vals.size))
        assert np.all(np.isfinite(vecs))
        resid = np.linalg.norm(lmat @ vecs - vals * vecs, axis=0)
        assert np.all(resid <= 1e-8 * np.linalg.norm(vecs, axis=0))


def test_scaled_parity_blocks_are_symmetric(default_system, default_profile):
    """Scaled by the square roots of the node weights, both FD4 blocks of
    either parity are symmetric to roundoff, so the pencil that reads one
    triangle of them has the gap pairs of the block L (eigvals)."""
    coarse = default_system.coarsen(256)
    for blk in _parity_blocks(coarse):
        d = np.sqrt(blk.weight)
        for a in (blk.lminus, blk.lplus):
            scaled = d[:, None] * a / d
            assert np.max(np.abs(scaled - scaled.T)) <= 1e-12 * np.max(np.abs(scaled))
        ref = np.linalg.eigvals(_block_L(blk.lminus, blk.lplus))
        ref_gap = ref[_gap(ref, coarse.beta)]
        vals, _, _ = _pencil_eig(blk, _shift(default_profile))
        gap = vals[_gap(vals, coarse.beta)]
        assert gap.size == ref_gap.size == 2
        for mu in gap:
            assert np.min(np.abs(ref_gap - mu)) < 1e-10


def test_parity_blocks_match_symmetric_operator(default_system, default_profile):
    """The even and odd blocks together are the FD4 L on the n - 1 nodes x_1 .. x_{n-1}."""
    coarse = default_system.coarsen(256)
    n, beta = coarse.grid.N, coarse.beta
    # Dirichlet FD4 on the mirror-symmetric nodes: 5-point rows, truncated
    # past the first and last node
    m = n - 1
    d2 = sum(np.diag(np.full(m - abs(k), c / 12.0), k)
             for k, c in zip(range(-2, 3), (-1.0, 16.0, -30.0, 16.0, -1.0)))
    d2 /= coarse.grid.dx ** 2
    lminus = -d2 + np.diag(beta + coarse.V1[1:])
    lplus = -d2 + np.diag(beta + coarse.V2[1:])
    lmat = _block_L(lminus, lplus)
    dense = np.linalg.eigvals(lmat)

    blocks = _parity_blocks(coarse)
    assert [blk.x.size for blk in blocks] == [n // 2, n // 2 - 1]
    even, odd = (np.linalg.eigvals(_block_L(blk.lminus, blk.lplus)) for blk in blocks)
    vals = np.concatenate([even, odd])
    a = 1j * np.sort_complex(-1j * vals)
    b = 1j * np.sort_complex(-1j * dense)
    assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(1.0, np.abs(b)))
    assert _gap(dense, beta).size == 4

    pot = default_profile.potential
    eps_pred = np.max(np.abs(feshbach_predict(pot.h, pot.second_derivative_at_zero()).imag))
    even_gap, odd_gap = even[_gap(even, beta)], odd[_gap(odd, beta)]
    # zero cluster from the even block, the +-i eps pair from the odd block
    assert even_gap.size == 2 and np.all(np.abs(even_gap) < 0.25 * eps_pred)
    assert odd_gap.size == 2 and np.all(np.abs(odd_gap) > 0.5 * eps_pred)
    assert abs(np.sum(odd_gap)) < 1e-8 and np.max(np.abs(odd_gap.real)) < 1e-8
    # the gap vectors of the pencil route, unfolded, are eigenvectors of the
    # operator on the n - 1 nodes
    for blk in blocks:
        v, vectors, _ = _pencil_eig(blk, _shift(default_profile))
        gap = _gap(v, beta)
        vecs = vectors(gap)
        # unfold onto the n coarse nodes and drop node -L from each component
        full = coarse.grid.unfold(vecs.T.reshape(-1, 2, blk.x.size), blk.sign)
        full = full[:, :, 1:].reshape(-1, 2 * m).T
        # the node weights carry the mass of the unfolded vectors
        mass = np.tile(blk.weight, 2) @ np.abs(vecs) ** 2
        assert np.allclose(np.sum(np.abs(full) ** 2, axis=0), mass, rtol=1e-13, atol=0)
        for mu, w in zip(v[gap], full.T):
            assert np.linalg.norm(lmat @ w - mu * w) <= 1e-8 * np.linalg.norm(w)


def test_unstable_soliton_is_named(default_system):
    """Past the stable window the even pencil is not definite, and
    discrete_spectrum says why instead of dropping the real pair.

    The septic nonlinearity is L2-supercritical: on the default trap
    stability_scan finds dN/dlam < 0 from lam = 0.8 to 1.6.  A shift past
    beta^2 puts continuum modes inside the zero cluster of either block.
    """
    g = make_grid(30.0, 1024)
    V = PotentialSpec("quad_gauss", 0.5, {"amp": 0.5, "offset": 1.0})
    f = PolynomialNonlinearity((0.0, 0.0, 1.0))
    scan = stability_scan([0.8, 1.0, 1.2, 1.4, 1.6], V, f, g)
    assert not scan.admissible_contains(1.2) and scan.dmass[2] < 0
    prof = solve_dlambda(solve_soliton(1.2, V, f, g))
    with pytest.raises(ValueError, match=r"even pencil not definite .*: dN/dlam <= 0"):
        discrete_spectrum(assemble_L(prof), coarse_points=512)
    for blk in _parity_blocks(default_system.coarsen(256)):
        with pytest.raises(ValueError, match="a mode inside the zero cluster"):
            _pencil_eig(blk, 1.1 * default_system.beta ** 2)


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


def _same_bits(a, b):
    """Bitwise equality, signed zeros included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tagged_modes_are_derived_bitwise(default_system, cfg, monkeypatch):
    """The derived tags equal the arrays they replace: the gauge pair
    stacked from the profile, and the refined odd pair and its conjugate."""
    refined = []
    refine = linearized._refine_odd_mode
    monkeypatch.setattr(linearized, "_refine_odd_mode",
                        lambda *a: refined.append(refine(*a)) or refined[-1])
    spec = discrete_spectrum(default_system, coarse_points=cfg.block("grid")["coarse_points"])
    prof = default_system.profile
    zero = np.zeros(default_system.grid.N, dtype=complex)
    (odd_plus, _, _), = refined
    for got, want in ((spec.zero_mode, np.stack([zero, prof.phi])),
                      (spec.zero_assoc, np.stack([prof.phi_lam, zero])),
                      (spec.odd_plus, odd_plus), (spec.odd_minus, np.conj(odd_plus))):
        assert np.array_equal(got, want) and _same_bits(got, want)


def test_spectrum_keeps_only_its_odd_pair(default_spectrum):
    """Apart from its system, a spectrum holds the real odd pair [2, N] and
    a few eigenvalues."""
    import dataclasses

    n = default_spectrum.system.grid.N
    held = sum(v.nbytes for v in (getattr(default_spectrum, f.name)
                                  for f in dataclasses.fields(default_spectrum))
               if isinstance(v, np.ndarray))
    assert default_spectrum.odd_pair.dtype == np.float64
    assert held <= 2 * n * 8 + 1024


def test_localization_filters_match_unit_vectors(default_system, default_profile, cfg):
    """Both mode filters of discrete_spectrum decide on the real pair
    densities as they would on the complex unit eigenvectors."""
    coarse = default_system.coarsen(cfg.block("grid")["coarse_points"])
    half = coarse.grid.L
    for blk in _parity_blocks(coarse):
        vals, vectors, dens = _pencil_eig(blk, _shift(default_profile))
        m = blk.x.size
        idx = np.arange(vals.size)
        w = vectors(idx)
        ref = blk.weight[:, None] * (np.abs(w[:m]) ** 2 + np.abs(w[m:]) ** 2)
        for reach, frac in ((0.4, 0.95), (0.5, 0.995)):
            mask = blk.x < reach * half
            want = np.sum(ref[mask], axis=0) > frac * np.sum(ref, axis=0)
            got = _localized(dens[:, idx % m], blk.weight, mask, frac)
            assert np.array_equal(got, want)
            assert 0 < np.count_nonzero(want) < vals.size


def test_small_eigenvalue_tracks_reduced_matrix():
    g = make_grid(40.0, 2048)
    f = PolynomialNonlinearity((1.0,))
    V = PotentialSpec("quad_gauss", 0.1, {"amp": 1.0, "offset": 1.0})
    prof = solve_dlambda(solve_soliton(2.0, V, f, g))
    spec = discrete_spectrum(assemble_L(prof), coarse_points=1024)
    pred = 0.1 * np.sqrt(2 * 4.0)
    assert abs(spec.eps1 - pred) <= 0.05
    assert spec.zero_cluster_size == 2


def test_degree4_model_on_bench_grid():
    """A quad_gauss trap with the degree-4 nonlinearity tags the same four modes."""
    g = make_grid(30.0, 1024)
    f = PolynomialNonlinearity((1.0, 0.0, 0.0, -0.001))
    V = PotentialSpec("quad_gauss", 0.5, {"amp": 0.5, "offset": 1.0})
    spec = discrete_spectrum(assemble_L(solve_dlambda(solve_soliton(2.0, V, f, g))),
                             coarse_points=512)
    assert spec.zero_cluster_size == 2
    assert spec.extra_interior.size == 0
    assert spec.embedded_candidates.size == 0
    assert spec.odd_residual < 1e-10
    assert build_projector(spec).rank == 4


def test_coarse_points_step_over_even_divisors(default_system):
    with pytest.raises(ValueError, match="coarse_points"):
        discrete_spectrum(default_system, coarse_points=14)
    # the largest divisor of 1500 up to 400 is 375; the largest even one is 300
    g = make_grid(30.0, 1500)
    V = PotentialSpec("quad_gauss", 0.5, {"amp": 0.5, "offset": 1.0})
    prof = solve_dlambda(solve_soliton(2.0, V, PolynomialNonlinearity((1.0,)), g))
    spec = discrete_spectrum(assemble_L(prof), coarse_points=400)
    assert spec.zero_cluster_size == 2 and spec.odd_residual < 1e-10


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
        res = mode - default_projector.apply(mode)
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

    from nlslab.linearized import SpectralProjector

    kets = np.array([default_spectrum.zero_mode, default_spectrum.zero_mode])
    bras = np.stack([kets[:, 1], -kets[:, 0]], axis=1)        # J xi
    g = default_spectrum.system.grid
    gram = np.array([[g.inner(b, k) for k in kets] for b in bras])
    with pytest.raises(ValueError, match="Gram singular"):
        SpectralProjector(system=default_spectrum.system, kets=kets, bras=bras, gram=gram)
