"""Grid, field, nonlinearity and assumption-validation checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import trapezoid
from scipy.linalg import get_lapack_funcs

from nlslab import grids
from nlslab.config import load_config
from nlslab.dynamics import evolve_nls
from nlslab.grids import (Grid, PolynomialNonlinearity, PotentialSpec, band_dense, band_matvec,
                          band_plus_diagonal, band_scaled, band_solver, make_grid,
                          validate_assumptions)
from nlslab.linearized import LinearizedSystem, _parity_blocks
from nlslab.propagator import evolve_direct, weighted_pair_norm
from nlslab.solitons import _lplus_diag, _lplus_solver, solve_soliton


def test_make_grid_spacing():
    g = make_grid(40.0, 2048)
    assert g.dx == pytest.approx(0.0390625, abs=0)
    assert g.nodes[0] == -40.0


def test_make_grid_small():
    g = make_grid(1.0, 16)
    assert g.dx == pytest.approx(0.125)
    assert g.nodes[0] == -1.0
    assert g.nodes[-1] == pytest.approx(1.0 - 0.125)


def test_make_grid_rejects_odd():
    with pytest.raises(ValueError, match="odd point count"):
        make_grid(40.0, 15)


def test_make_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_grid(-1.0, 32)
    with pytest.raises(ValueError):
        make_grid(1.0, 8)


def test_grid_nodes_symmetric():
    g = make_grid(7.0, 64)
    # every node except the -L endpoint has a mirror node
    for x in g.nodes[1:]:
        assert np.min(np.abs(g.nodes + x)) < 1e-12


def _pair(u):
    """The pair (u, 0), whose weighted_pair_norm is the weighted norm of u."""
    return np.stack((u, np.zeros_like(u)))


def test_weighted_norm_zero_field():
    g = make_grid(5.0, 64)
    assert weighted_pair_norm(g, _pair(np.zeros(g.N, dtype=complex)), 3.0) == 0.0


def test_weighted_norm_constant():
    g = make_grid(1.0, 512)
    u = _pair(np.ones(g.N, dtype=complex))
    assert weighted_pair_norm(g, u, 0.0) == pytest.approx(np.sqrt(2.0), abs=1e-3)


def test_weighted_norm_gaussian_against_fine_quadrature():
    # the weight has a kink at 0, so the quadrature is second order;
    # resolve enough that the refined oracle agrees to 1e-6
    g = make_grid(12.0, 32768)
    val = weighted_pair_norm(g, _pair(np.exp(-g.nodes**2).astype(complex)), 2.0)
    xf = np.linspace(-12.0, 12.0, 8 * 32768 + 1)
    integrand = ((1 + np.abs(xf)) ** (-2.0) * np.exp(-(xf**2))) ** 2
    oracle = np.sqrt(trapezoid(integrand, xf))
    assert val == pytest.approx(oracle, abs=1e-6)


def test_weighted_norm_matches_plain_l2():
    g = make_grid(9.0, 256)
    u = (np.exp(-g.nodes**2) * (1 + 2j)).astype(complex)
    assert weighted_pair_norm(g, _pair(u), 0.0) == pytest.approx(g.norm(u), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-50, 50, allow_nan=False).filter(lambda v: v == 0 or abs(v) > 1e-6),
       nu=st.floats(-3, 6))
def test_weighted_norm_homogeneous(c, nu):
    g = make_grid(6.0, 128)
    base = np.exp(-g.nodes**2) * (1 + 0.5j)
    assert weighted_pair_norm(g, _pair(c * base), nu) == pytest.approx(
        abs(c) * weighted_pair_norm(g, _pair(base), nu), rel=1e-12, abs=1e-300)


@settings(max_examples=25, deadline=None)
@given(nu1=st.floats(-2, 6), nu2=st.floats(-2, 6))
def test_weighted_norm_monotone(nu1, nu2):
    if nu1 < nu2:
        nu1, nu2 = nu2, nu1
    g = make_grid(6.0, 128)
    u = _pair(np.cos(g.nodes) * np.exp(-np.abs(g.nodes)) + 0j)
    assert weighted_pair_norm(g, u, nu1) <= weighted_pair_norm(g, u, nu2) * (1 + 1e-12)


def test_parity_tag_validation():
    """parity_defect is 0 on an even field, whatever it holds at x = -L
    (no mirror), 2 |u| on an odd one, and sees a small odd part."""
    g = make_grid(5.0, 64)
    even = np.exp(-g.nodes**2)
    assert g.parity_defect(even) == 0.0
    assert g.parity_defect(np.where(g.nodes == -g.L, 1.0, even)) == 0.0
    odd = g.nodes * even
    assert g.parity_defect(odd) == pytest.approx(2.0 * np.max(np.abs(odd[1:])), rel=1e-15)
    assert g.parity_defect(even + 0.1 * odd) > 1e-2


def test_nonlinearity_values():
    f = PolynomialNonlinearity((1.0,))
    assert (f.f(2.0), f.fprime(2.0)) == (pytest.approx(2.0), pytest.approx(1.0))
    f2 = PolynomialNonlinearity((0.0, 1.0))
    assert (f2.f(3.0), f2.fprime(3.0)) == (pytest.approx(9.0), pytest.approx(6.0))
    f4 = PolynomialNonlinearity((0.0, 0.0, 0.0, 1.0))
    assert (f4.f(0.0), f4.fprime(0.0)) == (pytest.approx(0.0), pytest.approx(0.0))


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=5),
       s=st.floats(0, 4))
def test_nonlinearity_matches_polyval(coeffs, s):
    f = PolynomialNonlinearity(tuple(coeffs))
    direct = sum(c * s ** (m + 1) for m, c in enumerate(coeffs))
    val = f.f(s)
    assert val == pytest.approx(direct, rel=1e-12, abs=1e-12)
    assert f.f(0.0) == 0.0


def test_validate_assumptions_cubic_free():
    f = PolynomialNonlinearity((1.0,))
    rep = validate_assumptions(f, PotentialSpec("zero", 0.0), 1.0, make_grid(40.0, 2048))
    assert rep.root == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert rep.root_slope_positive
    assert rep.lambda_admissible


def test_validate_assumptions_no_root():
    f = PolynomialNonlinearity((1.0,))
    with pytest.raises(ValueError, match="no positive root"):
        validate_assumptions(f, PotentialSpec("zero", 0.0), -1.0, make_grid(40.0, 2048))


def test_validate_assumptions_degenerate_minimum():
    f = PolynomialNonlinearity((1.0,))
    # negative amplitude turns the origin into a local maximum
    V = PotentialSpec("quad_gauss", 0.1, {"amp": -1.0, "offset": 1.0})
    with pytest.raises(ValueError, match="degenerate minimum"):
        validate_assumptions(f, V, 1.0, make_grid(40.0, 2048))


def test_quad_gauss_curvature():
    V = PotentialSpec("quad_gauss", 0.1, {"amp": 1.0, "offset": 1.0})
    assert V.second_derivative_at_zero() == pytest.approx(4.0, abs=1e-5)
    f = PolynomialNonlinearity((1.0,))
    rep = validate_assumptions(f, V, 2.0, make_grid(40.0, 2048))
    assert rep.nondegenerate_minimum
    assert rep.decay_rate > 0


def test_default_model_passes_gates(cfg):
    rep = validate_assumptions(cfg.nonlinearity(), cfg.potential(), cfg.lam, cfg.grid())
    assert rep.passes()
    # well-posedness growth condition reported separately from degree >= 4
    th = validate_assumptions(cfg.nonlinearity(True), cfg.potential(), cfg.lam, cfg.grid())
    assert th.passes()
    assert not th.subquadratic
    assert cfg.nonlinearity(True).degree >= 4


def test_reflect_convention():
    g = make_grid(4.0, 32)
    u = np.sin(g.nodes) + np.cos(2 * g.nodes)
    refl = g.reflect(u)
    # compare against direct evaluation at -x for mirrored nodes
    for j in range(1, g.N):
        xm = -g.nodes[j]
        jm = int(np.argmin(np.abs(g.nodes - xm)))
        assert refl[j] == pytest.approx(u[jm], abs=1e-12)


def _dense_from_band(ab, kl, ku):
    """The matrix whose entry (i, j) sits at row ku + i - j, column j of ab."""
    n = ab.shape[1]
    return np.array([[ab[ku + i - j, j] if -ku <= i - j <= kl else 0.0 for j in range(n)]
                     for i in range(n)], dtype=ab.dtype)


def test_fd_d2_band_is_the_sparse_matrix():
    """The band holds the Dirichlet FD4 matrix, built here with scipy.sparse:
    5-point rows everywhere, truncated past the first and last node."""
    g = make_grid(5.0, 32)
    n = g.N
    stencil = zip(range(-2, 3), (-1.0, 16.0, -30.0, 16.0, -1.0))
    d2 = sparse.diags([np.full(n - abs(k), c / 12.0) for k, c in stencil], range(-2, 3)).toarray()
    assert np.array_equal(_dense_from_band(g.fd_d2_band(), 2, 2), d2 / g.dx**2)


@settings(max_examples=25, deadline=None)
@given(L=st.floats(0.5, 500.0), half_n=st.integers(8, 128))
def test_fd_d2_band_is_symmetric_negative_definite(L, half_n):
    """The truncated 5-point matrix is symmetric Toeplitz with symbol
    -(c - 1)(c - 7) / (3 dx^2) <= 0, c = cos(k dx), so it is negative definite."""
    d2 = _dense_from_band(make_grid(L, 2 * half_n).fd_d2_band(), 2, 2)
    assert np.array_equal(d2, d2.T)
    assert np.max(np.linalg.eigvalsh(d2)) < 0.0


def _sparse_d2(g):
    """fd_d2_band as a scipy.sparse CSR matrix (a dia_matrix has the same layout)."""
    return sparse.dia_matrix((g.fd_d2_band(), range(2, -3, -1)), shape=(g.N, g.N)).tocsr()


def _sparse_unfold(g, sign):
    """Half-grid node indices and the sparse map U: u(-x) = sign u(x) onto the grid."""
    c = g.N // 2
    m = np.arange(0 if sign > 0 else 1, c)
    eye = sparse.identity(g.N, format="csc")
    return c + m, eye[:, c + m] + eye[:, c - m] @ sparse.diags(np.where(m > 0, sign, 0.0))


@pytest.mark.parametrize("L, N", [(5.0, 32), (30.0, 1024)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fold_and_unfold_match_the_sparse_composition(L, N, sign):
    """Grid.fold is the rows x >= 0 of the band composed with the sparse
    unfold map, and Grid.unfold is that map, both bitwise."""
    g = make_grid(L, N)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(g.N)
    ab = -g.fd_d2_band()
    ab[2] += v
    idx, unfold = _sparse_unfold(g, sign)
    assert np.array_equal(g.half(sign), idx)
    want = (-_sparse_d2(g) + sparse.diags(v))[idx] @ unfold
    assert np.array_equal(_dense_from_band(g.fold(ab, sign), 2, 2), want.toarray())
    u = rng.standard_normal((2, idx.size)) + 1j * rng.standard_normal((2, idx.size))
    assert np.array_equal(g.unfold(u, sign), (unfold @ u.T).T)
    full = g.unfold(u[0], sign)
    assert full[0] == 0.0 and np.array_equal(g.reflect(full)[1:], sign * full[1:])


@pytest.mark.parametrize("L, N", [(5.0, 32), (200.0, 8192)])
def test_even_d2_is_spectral_d2_on_even_fields(L, N):
    """The DCT-I second derivative on the half grid is spectral_d2 of the
    unfolded even field: the same operator, to roundoff, on smooth and
    rough data."""
    g = make_grid(L, N)
    half = g.half()
    rng = np.random.default_rng(3)
    for h in (np.exp(-g.nodes[half]**2), rng.standard_normal(g.N // 2)):
        want = np.real(g.spectral_d2(g.unfold(h)))
        got = g.even_d2(h)
        assert np.max(np.abs(got - want[half])) <= 1e-12 * np.max(np.abs(want))


def _symmetric_storage(ab, kl, ku):
    """A band with kl sub- and ku superdiagonals in the storage of
    band_solver: zero rows pad the shorter side to max(kl, ku)."""
    m = max(kl, ku)
    return np.pad(ab, ((m - ku, m - kl), (0, 0)))


@pytest.mark.parametrize("dtype, kl, ku", [(float, 2, 2), (complex, 5, 5), (complex, 1, 3)])
def test_band_matvec_matches_dense_product(dtype, kl, ku):
    rng = np.random.default_rng(5)
    n = 40
    ab = rng.standard_normal((kl + ku + 1, n)).astype(dtype)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = _dense_from_band(ab, kl, ku) @ u
    sym, dense = _symmetric_storage(ab, kl, ku), _dense_from_band(ab, kl, ku)
    assert np.max(np.abs(band_matvec(sym, u) - want)) < 1e-13 * np.max(np.abs(want))
    assert np.array_equal(band_dense(sym), dense)
    d = rng.uniform(1.0, 2.0, n)
    assert np.array_equal(band_dense(band_scaled(sym, d)), d[:, None] * dense / d)


@pytest.mark.parametrize("dtype, kl, ku", [(float, 2, 2), (complex, 1, 3)])
def test_band_solver_matches_dense_solve(dtype, kl, ku):
    rng = np.random.default_rng(3)
    n = 40
    ab = rng.standard_normal((kl + ku + 1, n)).astype(dtype)
    if dtype is complex:
        ab += 1j * rng.standard_normal(ab.shape)
    ab[ku] += 8.0                                   # diagonally dominant
    rhs = rng.standard_normal((n, 3)).astype(dtype)
    want = np.linalg.solve(_dense_from_band(ab, kl, ku), rhs)
    solve = band_solver(_symmetric_storage(ab, kl, ku))
    assert np.max(np.abs(solve(rhs) - want)) < 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(solve(rhs[:, 0]) - want[:, 0])) < 1e-13 * np.max(np.abs(want))


def test_band_solver_rejects_a_singular_band():
    ab = np.ones((5, 8))
    ab[:, 3] = 0.0                                  # a zero column
    with pytest.raises(np.linalg.LinAlgError):
        band_solver(ab)


def _count_gbtrs(monkeypatch):
    """Count the gbtrs calls of every band_solver made after this."""
    calls = []
    lapack = grids.get_lapack_funcs

    def spy(names, arrays):
        gbtrf, gbtrs = lapack(names, arrays)
        return gbtrf, lambda *args: calls.append(1) or gbtrs(*args)

    monkeypatch.setattr(grids, "get_lapack_funcs", spy)
    return calls


def _gbtrs_solve(ab, kl, ku, rhs):
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    work = np.zeros((2 * kl + ku + 1, ab.shape[1]), dtype=ab.dtype)
    work[kl:] = ab
    lu, piv, _info = gbtrf(work, kl, ku)
    return gbtrs(lu, kl, ku, rhs, piv)[0]


def test_band_sweeps_equal_gbtrs_on_the_crank_nicolson_factor(monkeypatch):
    # the factor of dynamics.evolve_nls on the dynamics grid takes no row
    # interchange, so a 1-D right-hand side takes the two tbsv sweeps
    cfg = load_config()
    g = cfg.dynamics_grid()
    lin = -g.fd_d2_band()
    lin[2] += cfg.potential()(g.nodes)
    lhs = 0.5j * 0.004 * g.fold(lin)
    lhs[2] += 1.0
    calls = _count_gbtrs(monkeypatch)
    solve = band_solver(lhs)
    rng = np.random.default_rng(7)
    for _ in range(3):
        rhs = rng.standard_normal(lhs.shape[1]) + 1j * rng.standard_normal(lhs.shape[1])
        got = solve(rhs)
        assert not calls
        assert np.array_equal(got, _gbtrs_solve(lhs, 2, 2, rhs))


@pytest.mark.parametrize("diagonal, shape", [(1e-3, (40,)), (8.0, (40, 2))],
                         ids=["pivoting_band", "2d_rhs"])
def test_band_solver_falls_back_to_gbtrs(monkeypatch, diagonal, shape):
    # a small diagonal makes gbtrf swap rows; a dominant one does not
    rng = np.random.default_rng(11)
    ab = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
    ab[2] = diagonal
    rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    calls = _count_gbtrs(monkeypatch)
    got = band_solver(ab)(rhs)
    assert calls
    want = np.linalg.solve(_dense_from_band(ab, 2, 2), rhs)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_lplus_factor_falls_back_to_gbtrs(monkeypatch, trap, cubic):
    g = make_grid(20.0, 256)
    phi = solve_soliton(2.0, trap, cubic, g).phi
    diag = _lplus_diag(2.0 + trap(g.nodes), cubic, phi)
    calls = _count_gbtrs(monkeypatch)
    got = _lplus_solver(-g.fd_d2_band(), diag)(phi)
    assert calls
    ab = -g.fd_d2_band()
    ab[2] += diag
    want = np.linalg.solve(_dense_from_band(ab, 2, 2), phi)
    assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))


FD6 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def _fd6_band(self):
    """The 7-point FD6 stencil in every row, truncated at the wall, in the
    storage of Grid.fd_d2_band."""
    return np.repeat(FD6[:, None], self.point_count, axis=1) / self.dx**2


def test_a_wider_stencil_reaches_every_consumer(monkeypatch):
    """With Grid.fd_d2_band patched to the FD6 stencil, every consumer of
    the band reads its width off the band: each matches a dense reference
    built here, and a short evolve_nls run keeps its invariants."""
    monkeypatch.setattr(Grid, "fd_d2_band", _fd6_band)
    g = make_grid(5.0, 32)
    n = g.N
    d2 = sum(np.diag(np.full(n - abs(k), c), k) for k, c in zip(range(-3, 4), FD6)) / g.dx**2
    rng = np.random.default_rng(7)
    v = rng.standard_normal(n)
    ab = band_plus_diagonal(-g.fd_d2_band(), v)
    assert np.array_equal(band_dense(ab), -d2 + np.diag(v))
    for sign in (1.0, -1.0):
        idx, unfold = _sparse_unfold(g, sign)
        want = (sparse.csr_matrix(-d2 + np.diag(v))[idx] @ unfold).toarray()
        assert np.array_equal(band_dense(g.fold(ab, sign)), want)
        # the Crank-Nicolson factor of evolve_nls on this sector
        lhs = band_plus_diagonal(0.5j * 0.004 * g.fold(ab, sign), 1.0)
        dense = np.eye(idx.size) + 0.5j * 0.004 * want
        u = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        assert np.max(np.abs(band_matvec(lhs, u) - dense @ u)) < 1e-14 * np.max(np.abs(dense @ u))
        want_solve = np.linalg.solve(dense, u)
        assert np.max(np.abs(band_solver(lhs)(u) - want_solve)) < 1e-14 * np.max(np.abs(want_solve))

    # the pair bands in both frames, against the dense blocks on stacked pairs
    x = g.nodes
    sys_ = LinearizedSystem(grid=g, beta=2.0, V1=-2.0 / np.cosh(x) ** 2, V2=-6.0 / np.cosh(x) ** 2)
    stack = np.arange(2 * n).reshape(n, 2).T.ravel()    # interleaved index of each stacked entry
    lminus, lplus = (-d2 + np.diag(2.0 + w) for w in (sys_.V1, sys_.V2))
    h11 = -d2 + np.diag(2.0 + 0.5 * sys_.V3)
    coupling = -0.5j * np.diag(sys_.V4)
    zero = np.zeros((n, n))
    for frame, want in (("L", np.block([[zero, lminus], [-lplus, zero]])),
                        ("H", np.block([[h11, coupling], [coupling, -h11]]))):
        got = band_dense(sys_.fd_band(frame))[np.ix_(stack, stack)]
        assert np.array_equal(got, want), frame
    # the parity blocks are symmetric once scaled by sqrt(weight)
    for blk in _parity_blocks(sys_):
        for a in (blk.lminus, blk.lplus):
            scaled = band_dense(band_scaled(a, np.sqrt(blk.weight)))
            assert np.max(np.abs(scaled - scaled.T)) <= 1e-12 * np.max(np.abs(scaled))
    # the oracle step on the pair band against dense Crank-Nicolson
    h = np.stack([np.exp(-x**2), 1j * np.exp(-(x - 0.5) ** 2)])
    half_step = 0.5j * 0.01 * np.block([[h11, coupling], [coupling, -h11]])
    want = np.linalg.solve(np.eye(2 * n) + half_step, (np.eye(2 * n) - half_step) @ h.ravel())
    got = evolve_direct(sys_, h, 0.01, dt=0.01, check_boundary=False).ravel()
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    # a short nonlinear run on the patched operator
    cfg = load_config()
    gd = make_grid(20.0, 1024)
    f = cfg.nonlinearity(True)
    prof = solve_soliton(cfg.lam, cfg.potential(), f, gd)
    psi0 = np.exp(0.3j) * (prof.phi + 0.01 * np.exp(-gd.nodes**2 / 4.0))
    states = evolve_nls(psi0, cfg.potential(), f, gd, T=0.1, dt=0.004, sample_every=5)
    assert np.array_equal(gd.fd_d2_band(), _fd6_band(gd))
    for st in states[1:]:
        assert abs(st.mass - states[0].mass) < 1e-12 * states[0].mass
        assert abs(st.energy - states[0].energy) < 1e-11 * abs(states[0].energy)
