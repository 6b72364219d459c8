"""The linearization about the trapped soliton and its discrete spectrum.

Linearizing the flow about e^(i lam t) phi and splitting into real and
imaginary parts gives the non-self-adjoint block operator

    L = [[0, Lminus], [-Lplus, 0]],   Lminus/plus = -d2 + lam + V1/V2,

with V1 = V_h - f(phi^2) and V2 = V_h - f(phi^2) - 2 f'(phi^2) phi^2.
The unitary change of frame H = -i T* L T (T = [[1, i], [i, 1]]/sqrt2)
produces the matrix Schroedinger operator H = H0 + W used by the
scattering and propagator modules, with

    W = (1/2) [[V3, -i V4], [-i V4, -V3]],  V3 = V1 + V2,  V4 = V1 - V2.

Four discrete (generalized) modes matter: the even gauge pair (0, phi)
and (dphi/dlam, 0) in the zero Jordan block, and an odd pair with small
imaginary eigenvalues +-i eps1 created by the trapping potential, with
eps1 ~ h sqrt(2 V''(0)) from the four-dimensional reduced eigenvalue
problem.  The trap and the profile are even, so L commutes with x -> -x,
and discrete_spectrum finds the four per parity block of a
mirror-symmetric coarse FD4 L, each by one symmetric-definite eigensolve
(definite since the soliton is orbitally stable, dN/dlam > 0).  Of the
four tagged modes it keeps only the refined odd pair, as its two real
components xi1 and Im eta1: the gauge pair is derived from the profile,
and (xi1, -eta1) is the conjugate of (xi1, eta1).  The biorthogonal
projector P_d onto their span (adjoint vectors are J xi,
J = [[0,1],[-1,0]]) defines P_ess = 1 - P_d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh

from .grids import Grid, band_dense, band_plus_diagonal, band_scaled, band_solver, make_grid
from .solitons import SolitonProfile

__all__ = [
    "LinearizedSystem",
    "DiscreteSpectrum",
    "SpectralProjector",
    "assemble_L",
    "discrete_spectrum",
    "feshbach_predict",
    "build_projector",
    "contour_projector",
]

# frame-change matrix and its inverse (unitary)
T_MAT = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
T_STAR = T_MAT.conj().T


@dataclass(frozen=True)
class LinearizedSystem:
    """Sampled potentials of L(lam) and of its transform H = H0 + W."""

    grid: Grid
    beta: float
    V1: np.ndarray
    V2: np.ndarray
    profile: Optional[SolitonProfile] = None

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("threshold beta must be positive")

    @property
    def V3(self) -> np.ndarray:
        return self.V1 + self.V2

    @property
    def V4(self) -> np.ndarray:
        return self.V1 - self.V2

    # -- actions ------------------------------------------------------------

    def apply_L(self, v: np.ndarray) -> np.ndarray:
        """L acting on a stacked pair [v1, v2] (spectral Laplacian)."""
        v1, v2 = v
        g, lam = self.grid, self.beta
        top = -g.spectral_d2(v2) + (lam + self.V1) * v2
        bot = -(-g.spectral_d2(v1) + (lam + self.V2) * v1)
        return np.stack([top, bot])

    # -- the FD4 discretization ----------------------------------------------

    def fd_band(self, frame: str) -> np.ndarray:
        """The FD4 L (frame "L") or H (frame "H") on interleaved pairs.

        With the pair laid out as (v1_0, v2_0, v1_1, v2_1, ...), either is
        one band in the storage of grids.band_solver, of 2 w + 1 rows for
        the w rows of Grid.fd_d2_band: entry (i, j) of the component block
        (a, b) is pair entry (2i + a, 2j + b), so row r of the block's band
        is row 2r + 1 + a - b of the pair band, on the columns b::2.  L
        has Lminus on the odd columns of the even rows and -Lplus on the
        even columns of the odd rows; H has h11 = -d2 + beta + V3/2 and
        -h11 on the two components and -i V4/2 between them.  Both are
        complex, as every solve with them is.
        """
        d2 = self.grid.fd_d2_band()
        w = len(d2)
        band = np.zeros((2 * w + 1, 2 * self.grid.N), dtype=complex)
        upper, mid, lower = (slice(1 + s, 2 * w + s, 2) for s in (-1, 0, 1))   # a - b = s
        if frame == "L":
            band[upper, 1::2] = band_plus_diagonal(-d2, self.beta + self.V1)
            band[lower, 0::2] = band_plus_diagonal(d2, -(self.beta + self.V2))
        elif frame == "H":
            h11 = band_plus_diagonal(-d2, self.beta + 0.5 * self.V3)
            band[mid, 0::2], band[mid, 1::2] = h11, -h11
            band[w - 1, 1::2] = band[w + 1, 0::2] = -0.5j * self.V4
        else:
            raise ValueError("frame must be 'L' or 'H'")
        return band

    def to_H_frame(self, v: np.ndarray) -> np.ndarray:
        """u = T* v componentwise."""
        return np.tensordot(T_STAR, np.asarray(v, dtype=complex), axes=(1, 0))

    def to_L_frame(self, u: np.ndarray) -> np.ndarray:
        return np.tensordot(T_MAT, np.asarray(u, dtype=complex), axes=(1, 0))

    def coarsen(self, n_coarse: int) -> "LinearizedSystem":
        """Subsample the potentials onto a coarser grid over the same box."""
        g = self.grid
        if g.N % n_coarse != 0:
            raise ValueError("coarse point count must divide N")
        stride = g.N // n_coarse
        return LinearizedSystem(
            grid=make_grid(g.L, n_coarse),
            beta=self.beta,
            V1=self.V1[::stride].copy(),
            V2=self.V2[::stride].copy(),
            profile=self.profile,
        )


def assemble_L(profile: SolitonProfile) -> LinearizedSystem:
    """Sample the linearization potentials from a converged profile."""
    if profile.phi_lam is None:
        raise ValueError("profile needs phi_lam; run solve_dlambda first")
    g = profile.grid
    f, V = profile.nonlinearity, profile.potential
    phi2 = profile.phi**2
    vh = V(g.nodes)
    v1 = vh - f.f(phi2)
    v2 = vh - f.f(phi2) - 2.0 * f.fprime(phi2) * phi2
    return LinearizedSystem(grid=g, beta=profile.lam, V1=v1, V2=v2, profile=profile)


def feshbach_predict(h: float, vpp0: float) -> np.ndarray:
    """Eigenvalues of the reduced 4x4 small-eigenvalue matrix.

    The reduction of the eigenvalue problem to the span of the four
    near-zero directions gives, to leading order in h, a nilpotent gauge
    block plus a 2x2 trapping block whose eigenvalues square to
    -2 h^2 V''(0): a double zero plus +-i h sqrt(2 V''(0)) for a
    potential minimum, and a real pair (instability) for a maximum.
    """
    if not np.isfinite(vpp0):
        raise ValueError("V''(0) must be finite")
    mat = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -h * h * vpp0],
            [0.0, 0.0, 2.0, 0.0],
        ]
    )
    vals = np.linalg.eigvals(mat)
    return vals[np.argsort(np.abs(vals))]


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Eigenvalues in the spectral gap and the four tagged modes.

    It holds only what discrete_spectrum computes.  The tagged modes are
    derived, each a fresh complex stacked pair on the fine grid: the gauge
    pair from system.profile, and the odd pair from odd_pair, whose
    components xi1 and Im eta1 are real.
    """

    system: LinearizedSystem
    eigenvalues: np.ndarray       # localized coarse-grid gap eigenvalues, even block then odd
    eps1: float                   # small imaginary eigenvalue (positive branch)
    odd_pair: np.ndarray          # (xi1, Im eta1) of the refined odd pair, real [2, N]
    zero_cluster_size: int        # eigenvalue count in the zero cluster
    extra_interior: np.ndarray    # gap eigenvalues beyond the tagged four
    embedded_candidates: np.ndarray  # |Im mu| > beta with tiny real part
    odd_residual: float           # spectral residual of the refined odd pair

    @property
    def zero_mode(self) -> np.ndarray:
        """(0, phi)."""
        phi = self.system.profile.phi
        return np.stack([np.zeros(phi.size, dtype=complex), phi])

    @property
    def zero_assoc(self) -> np.ndarray:
        """(phi_lam, 0)."""
        phi_lam = self.system.profile.phi_lam
        return np.stack([phi_lam, np.zeros(phi_lam.size, dtype=complex)])

    @property
    def odd_plus(self) -> np.ndarray:
        """(xi1, eta1), eigenvalue +i eps1."""
        xi, zeta = self.odd_pair
        return np.stack([xi.astype(complex), 1j * zeta])

    @property
    def odd_minus(self) -> np.ndarray:
        """(xi1, -eta1), eigenvalue -i eps1: L is real, so the conjugate of odd_plus."""
        return np.conj(self.odd_plus)

    def tagged(self):
        return [self.zero_mode, self.zero_assoc, self.odd_plus, self.odd_minus]


def _shifted_solver(sys: LinearizedSystem, z: complex):
    """v -> (L - z)^-1 v for the FD4 L on pairs v [2, ..., N], from one band LU
    of L - z on interleaved pairs (LinearizedSystem.fd_band)."""
    solve = band_solver(band_plus_diagonal(sys.fd_band("L"), -z))

    def apply(v):
        # [2, ..., N] -> interleaved columns [2N, ...] and back, in C order
        w = solve(np.moveaxis(v, 0, -1).reshape(*v.shape[1:-1], -1).T).T
        return np.moveaxis(w.reshape(*v.shape[1:], 2), -1, 0).copy()

    return apply


def _refine_odd_mode(sys: LinearizedSystem, v0: np.ndarray, mu0: complex):
    """Inverse iteration with spectral defect polish on the fine grid.

    One LU of the FD4 L - mu0 serves every solve: mu0 is the coarse
    eigenvalue, close enough to the fine one that the shift need not
    follow the polish.
    """
    g = sys.grid
    v = np.ascontiguousarray(v0)        # C order: norms and vdots sum component by component
    v = v / np.linalg.norm(v)
    solve = _shifted_solver(sys, mu0)
    # two plain inverse-iteration steps lock onto the FD4 eigenvector
    for _ in range(2):
        w = solve(v)
        w = 0.5 * (w - g.reflect(w))
        v = w / np.linalg.norm(w)
    # Newton polish against the spectral operator.  The near-singular
    # preconditioner solve blows up along the FD4 eigenvector; combining
    # the two solves below cancels that direction (Jacobi-Davidson style).
    for _ in range(8):
        lv = sys.apply_L(v)
        mu = np.vdot(v, lv) / np.vdot(v, v)
        resid_vec = lv - mu * v
        resid = g.dx ** 0.5 * np.linalg.norm(resid_vec)
        if resid < 1e-11:
            break
        mr = solve(resid_vec)
        mv = solve(v)
        alpha = np.vdot(v, mr) / np.vdot(v, mv)
        w = v - (mr - alpha * mv)
        w = 0.5 * (w - g.reflect(w))
        nw = np.linalg.norm(w)
        if nw == 0:
            raise ValueError("tag failure")
        v = w / nw
    # rotate so component 1 is real and component 2 imaginary
    j = int(np.argmax(np.abs(v[0])))
    phase = v[0][j] / abs(v[0][j])
    pair = v / phase
    xi = np.real(pair[0])
    eta = 1j * np.imag(pair[1])
    cand = np.stack([xi.astype(complex), eta])
    cand = cand / g.norm(cand)
    lv = sys.apply_L(cand)
    mu = g.inner(cand, lv)
    return cand, complex(mu), g.norm(lv - mu * cand)


class _ParityBlock(NamedTuple):
    """One parity block of the mirror-symmetric coarse FD4 (Lminus, Lplus),
    each a band in the storage of grids.band_solver."""

    x: np.ndarray                  # the block's nodes, x >= 0
    weight: np.ndarray             # 1 at x = 0, 2 elsewhere (the node and its mirror)
    sign: float                    # u(-x) = sign u(x): Grid.unfold of each component
    lminus: np.ndarray
    lplus: np.ndarray


def _parity_blocks(coarse: LinearizedSystem):
    """The even and odd blocks of the mirror-symmetric coarse FD4 pair.

    Lminus and Lplus = -d2 + beta + V1 and V2, with d2 the band
    Grid.fd_d2_band, are the blocks of LinearizedSystem.fd_band("L").  The
    rows x >= 0 of that Dirichlet matrix on the n coarse nodes are those
    of the same matrix on the n - 1 mirror-symmetric nodes x_1 .. x_{n-1}
    (node -L dropped).  Grid.fold folds the stencil at x = 0 into the even
    block on n/2 nodes and the odd block on n/2 - 1 nodes, exactly; each
    is symmetric once scaled by the square roots of the node weights
    (grids.band_scaled).
    """
    cg = coarse.grid
    neg_d2 = -cg.fd_d2_band()
    lminus, lplus = (band_plus_diagonal(neg_d2, coarse.beta + v) for v in (coarse.V1, coarse.V2))
    blocks = []
    for sign in (1.0, -1.0):
        idx = cg.half(sign)
        blocks.append(_ParityBlock(
            x=cg.nodes[idx], weight=np.where(idx > cg.N // 2, 2.0, 1.0), sign=sign,
            lminus=cg.fold(lminus, sign), lplus=cg.fold(lplus, sign)))
    return blocks


def _pair_spectrum(nu: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Eigenpairs of L = [[0, lminus], [-lplus, 0]] from lminus lplus x = nu x, y = lplus x.

    L squares to -diag(lminus lplus, lplus lminus), so nu gives the
    eigenvalues +-mu, mu = sqrt(-nu) on the principal branch.  The
    eigenvector of +-mu is (x, -+y / mu); it is formed as (mu x, -+y),
    which stays finite at mu = 0, and only for the columns asked for.
    Both share the real pair density |nu| x^2 + y^2 of column j = index
    mod m.  Returns vals = [mu, -mu], a function mapping indices into vals
    to unit eigenvectors [2m, k], and the densities [m, m], unnormalized.
    """
    mu = np.sqrt(-nu.astype(complex))
    n = mu.size

    def vectors(idx):
        idx = np.asarray(idx, dtype=int)
        cols, sign = idx % n, np.where(idx < n, 1.0, -1.0)
        v = np.concatenate([x[:, cols] * mu[cols], -sign * y[:, cols]])
        return v / np.linalg.norm(v, axis=0)

    return np.concatenate([mu, -mu]), vectors, np.abs(nu) * x**2 + y**2


def _pencil_eig(blk: _ParityBlock, shift: float):
    """_pair_spectrum of one parity block, from one symmetric-definite eigh.

    D A D^-1, D = diag(sqrt(weight)), of either FD4 block is symmetric up
    to roundoff in the fold entries at x = 0 (grids.band_scaled forms it
    in band storage), and eigh reads only one triangle of the dense
    lminus.  Then lplus lminus y = nu y is lminus y = theta C y,
    C = lminus - shift P with P = lplus^-1 (one band LU),
    nu = shift theta / (theta - 1) and x = P y.  C is positive definite
    exactly when shift lies between the zero cluster and the rest of the
    block's nu; on the even block that needs dN/dlam > 0, i.e.
    <phi, Lplus^-1 phi> < 0 (Weinstein), which makes C positive along phi,
    the near-kernel of lminus.  Otherwise a ValueError names the cause.
    """
    d = np.sqrt(blk.weight)
    lminus = band_dense(band_scaled(blk.lminus, d))
    p = band_solver(band_scaled(blk.lplus, d))(np.eye(d.size))
    try:
        theta, y = eigh(lminus, lminus - shift * p, check_finite=False)
    except np.linalg.LinAlgError:
        raise ValueError(f"{'even' if blk.sign > 0 else 'odd'} pencil not definite at c = "
                         f"{shift:.3g}: dN/dlam <= 0, or a mode inside the zero cluster") from None
    return _pair_spectrum(shift * theta / (theta - 1.0), p @ y / d[:, None], y / d[:, None])


def _localized(dens: np.ndarray, weight: np.ndarray, mask: np.ndarray, frac: float):
    """Columns of the pair densities [m, k] that put more than frac of their
    weighted mass on mask (a fraction, so the columns' scale drops out)."""
    dens = weight[:, None] * dens
    return np.sum(dens[mask], axis=0) > frac * np.sum(dens, axis=0)


def discrete_spectrum(sys: LinearizedSystem, coarse_points: int) -> DiscreteSpectrum:
    """Reduced dense eigensolves per parity block plus fine-grid refinement.

    Only O(1) discrete modes matter, so the dense solves run on n coarse
    nodes, the largest even divisor of N from 16 up to coarse_points, on
    the mirror-symmetric FD4 L of _parity_blocks: an even block of order
    n/2 and an odd block of order n/2 - 1, each through the Hamiltonian
    reduction as one symmetric-definite pencil (_pencil_eig).  Its shift
    is r^2 for the zero-cluster radius r = max(1e-3, eps_pred / 4), above
    the zero cluster and below the trapping pair and the continuum
    (nu >= beta^2); dN/dlam > 0 makes the even pencil definite.  That
    operator is the FD4 L on all n nodes (LinearizedSystem.fd_band) less
    the node -L, which only the two rows next to that wall read, where
    every gap mode has decayed like e^(-sqrt(beta)|x|).
    Gap eigenvalues are recognized by eigenvector localization (over 95%
    of the mass in |x| < 0.4 L) rather than by a distance margin, so
    weakly bound states just inside the thresholds are still reported
    (they break the four-mode structure and matter downstream).  That
    filter and the embedded scan's (99.5% in |x| < 0.5 L) read the real
    pair densities of _pair_spectrum; only the odd gap columns, one of
    which the tag reads, become complex unit vectors.  The zero cluster
    is counted in the even block; the gauge modes are exact and derived
    from the profile (DiscreteSpectrum.zero_mode, zero_assoc).  The
    trapping pair is the odd gap eigenvalue with Im > 0 closest to the
    reduced-matrix prediction, and its vector, unfolded by odd
    reflection, is refined on the fine grid by shifted inverse iteration;
    the spectrum keeps its real components.
    """
    prof = sys.profile
    if prof is None or prof.phi_lam is None:
        raise ValueError("system must carry a profile with phi_lam")
    g = sys.grid
    divisors = [n for n in range(16, min(coarse_points, g.N) + 1, 2) if g.N % n == 0]
    if not divisors:
        raise ValueError(f"coarse_points: no even divisor of N = {g.N} from 16 to {coarse_points}")
    coarse = sys.coarsen(divisors[-1])
    beta, half = sys.beta, coarse.grid.L
    # the zero-cluster radius, well inside the trapping pair; its square
    # shifts both pencils
    pred = feshbach_predict(prof.potential.h,
                            prof.potential.second_derivative_at_zero())
    eps_pred = float(np.max(np.abs(pred.imag)))
    radius = max(1e-3, 0.25 * eps_pred)
    gap, embedded = [], []
    for blk in _parity_blocks(coarse):
        vals, vectors, dens = _pencil_eig(blk, radius ** 2)
        m = dens.shape[1]
        in_gap = np.where((np.abs(vals.real) < 1e-4 * beta)
                          & (np.abs(vals.imag) < beta * (1 - 1e-4)))[0]
        local = in_gap[_localized(dens[:, in_gap % m], blk.weight, blk.x < 0.4 * half, 0.95)]
        gap.append((vals[local], vectors, local))
        # embedded-eigenvalue scan (assumption check, not enforcement): a
        # discretized continuum mode fills the box, a genuine embedded mode
        # is localized, so filter by interior mass fraction
        cand = np.where((np.abs(vals.imag) > beta * (1 + 1e-6))
                        & (np.abs(vals.real) < 1e-6))[0]
        embedded.append(vals[cand[_localized(dens[:, cand % m], blk.weight,
                                             blk.x < 0.5 * half, 0.995)]])
    (even_vals, _, _), (odd_vals, odd_vectors, odd_local) = gap
    if even_vals.size + odd_vals.size < 4:
        raise ValueError("tag failure")

    zero_cluster = np.abs(even_vals) < radius

    # trapping pair: the odd gap eigenvalue closest to +i eps_pred
    upper = odd_vals.imag > 0
    if not np.any(upper):
        raise ValueError("tag failure")
    j = int(np.argmin(np.where(upper, np.abs(odd_vals - 1j * eps_pred), np.inf)))
    mu0 = odd_vals[j]
    pair0 = coarse.grid.unfold(odd_vectors(odd_local)[:, j].reshape(2, -1), -1.0)
    up = CubicSpline(coarse.grid.nodes, pair0, axis=1)(g.nodes)
    odd_plus, mu_ref, resid = _refine_odd_mode(sys, up, mu0)

    tagged = np.isin(odd_vals, (mu0, -mu0))      # the pair +-mu0 of one nu
    return DiscreteSpectrum(
        system=sys,
        eigenvalues=np.concatenate([even_vals, odd_vals]),
        eps1=float(abs(mu_ref.imag)),
        odd_pair=np.stack([odd_plus[0].real, odd_plus[1].imag]),
        zero_cluster_size=int(np.count_nonzero(zero_cluster)),
        extra_interior=np.concatenate([even_vals[~zero_cluster], odd_vals[~tagged]]),
        embedded_candidates=np.concatenate(embedded),
        odd_residual=resid,
    )


@dataclass
class SpectralProjector:
    """Biorthogonal projector onto the discrete modes, and its complement.

    kets [n, 2, N] are the tagged modes xi_i of L (DiscreteSpectrum.tagged)
    and bras [n, 2, N] the adjoint vectors eta_i = J xi_i, J = [[0, 1],
    [-1, 0]]: the generalized eigenvectors of L* are exactly these
    J-images (all four tagged eigenvalues lie on the imaginary axis).
    In the L frame P_d f = sum_i xi_i (G^-1 <eta, f>)_i, with the Gram
    matrix G_ij = <eta_i, xi_j>.
    """

    system: LinearizedSystem
    kets: np.ndarray
    bras: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray = field(init=False)
    condition: float = field(init=False)

    def __post_init__(self):
        self.condition = float(np.linalg.cond(self.gram))
        if not np.isfinite(self.condition) or self.condition > 1e8:
            raise ValueError("Gram singular")
        self.gram_inv = np.linalg.inv(self.gram)

    @property
    def rank(self) -> int:
        return len(self.kets)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """P_d f in the L frame (stacked pair)."""
        g = self.system.grid
        coeffs = g.dx * np.tensordot(self.bras.conj(), f, axes=2)
        return np.tensordot(self.gram_inv @ coeffs, self.kets, axes=1)

    def apply_complement_H(self, u: np.ndarray) -> np.ndarray:
        """(1 - P_d) u in the H frame, u = T* v."""
        sys = self.system
        return np.asarray(u, dtype=complex) - sys.to_H_frame(self.apply(sys.to_L_frame(u)))


def build_projector(spec: DiscreteSpectrum) -> SpectralProjector:
    kets = np.array(spec.tagged(), dtype=complex)
    bras = np.stack([kets[:, 1], -kets[:, 0]], axis=1)           # J xi
    g = spec.system.grid
    gram = g.dx * np.tensordot(bras.conj(), kets, axes=([1, 2], [1, 2]))
    return SpectralProjector(system=spec.system, kets=kets, bras=bras, gram=gram)


def contour_projector(sys: LinearizedSystem, fields, radius: float) -> list:
    """Resolvent-quadrature oracle: (1/2 pi i) contour integral of (L-z)^{-1} f.

    Trapezoid with 128 nodes on the circle |z| = radius, which encloses
    the zero block and the trapping pair but stays inside the spectral
    gap.  The node count must beat the geometric convergence rate (radius
    against the distance to the nearest spectrum outside).
    Takes a list of stacked pairs and returns a list (one factorization
    per node for all of them).
    """
    rhs = np.stack([np.asarray(f, dtype=complex) for f in fields], axis=1)   # [2, columns, N]
    acc = np.zeros_like(rhs)
    n_nodes = 128
    thetas = 2.0 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    for th in thetas:
        z = radius * np.exp(1j * th)
        solve = _shifted_solver(sys, z)
        x = solve(rhs)
        # two defect-correction sweeps lift the banded resolvent to the
        # spectral operator's accuracy
        for _ in range(2):
            x = x + solve(rhs - (sys.apply_L(x) - z * x))
        # dz/(2 pi i) = z dtheta / (2 pi)
        acc = acc - x * z / n_nodes
    return [acc[:, j] for j in range(rhs.shape[1])]
