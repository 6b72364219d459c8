"""The linearization about the trapped soliton and its discrete spectrum.

Linearizing the flow about e^(i lam t) phi and splitting into real and
imaginary parts gives the non-self-adjoint block operator

    L = [[0, Lminus], [-Lplus, 0]],   Lminus/plus = -d2 + lam + V1/V2,

with V1 = V_h - f(phi^2) and V2 = V_h - f(phi^2) - 2 f'(phi^2) phi^2.
The unitary change of frame H = -i T* L T (T = [[1, i], [i, 1]]/sqrt2)
produces the matrix Schroedinger operator H = H0 + W used by the
scattering and propagator modules, with

    W = (1/2) [[V3, -i V4], [-i V4, -V3]],  V3 = V1 + V2,  V4 = V1 - V2.

Four discrete (generalized) modes matter: the gauge pair (0, phi) and
(dphi/dlam, 0) in the zero Jordan block, and an odd pair with small
imaginary eigenvalues +-i eps1 created by the trapping potential, with
eps1 ~ h sqrt(2 V''(0)) from the four-dimensional reduced eigenvalue
problem.  The biorthogonal projector P_d onto their span (adjoint
vectors are J xi, J = [[0,1],[-1,0]]) defines P_ess = 1 - P_d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import splu

from .grids import Grid, make_grid
from .solitons import SolitonProfile

__all__ = [
    "LinearizedSystem",
    "DiscreteSpectrum",
    "SpectralProjector",
    "assemble_L",
    "transform_H",
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
    # smooth callables for off-grid evaluation (scattering marches past +-L)
    V1_fn: Optional[object] = None
    V2_fn: Optional[object] = None

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("threshold beta must be positive")

    @property
    def V3(self) -> np.ndarray:
        return self.V1 + self.V2

    @property
    def V4(self) -> np.ndarray:
        return self.V1 - self.V2

    def v34_at(self, x: np.ndarray):
        """(V3, V4) at arbitrary points, decaying tails beyond the grid."""
        if self.V1_fn is None:
            v1 = np.interp(x, self.grid.nodes, self.V1, left=0.0, right=0.0)
            v2 = np.interp(x, self.grid.nodes, self.V2, left=0.0, right=0.0)
        else:
            v1, v2 = self.V1_fn(x), self.V2_fn(x)
        return v1 + v2, v1 - v2

    # -- actions ------------------------------------------------------------

    def apply_L(self, v: np.ndarray) -> np.ndarray:
        """L acting on a stacked pair [v1, v2] (spectral Laplacian)."""
        v1, v2 = v
        g, lam = self.grid, self.beta
        top = -g.spectral_d2(v2) + (lam + self.V1) * v2
        bot = -(-g.spectral_d2(v1) + (lam + self.V2) * v1)
        return np.stack([top, bot])

    def apply_H(self, u: np.ndarray) -> np.ndarray:
        """H = H0 + W acting on a stacked pair [u1, u2]."""
        u1, u2 = u
        g, b = self.grid, self.beta
        v3, v4 = self.V3, self.V4
        top = -g.spectral_d2(u1) + b * u1 + 0.5 * (v3 * u1 - 1j * v4 * u2)
        bot = g.spectral_d2(u2) - b * u2 + 0.5 * (-1j * v4 * u1 - v3 * u2)
        return np.stack([top, bot])

    def ess_spectrum_H(self):
        """Essential spectrum of H: two rays from the thresholds."""
        return ((-np.inf, -self.beta), (self.beta, np.inf))

    # -- sparse matrices ----------------------------------------------------

    def blocks(self, order: int = 4):
        """The banded finite-difference (Lminus, Lplus)."""
        d2 = self.grid.fd_d2_matrix(order=order)
        return (-d2 + sparse.diags(self.beta + self.V1),
                -d2 + sparse.diags(self.beta + self.V2))

    def L_matrix(self, order: int = 4) -> sparse.csc_matrix:
        g = self.grid
        lminus, lplus = self.blocks(order)
        zero = sparse.csr_matrix((g.N, g.N))
        return sparse.bmat([[zero, lminus], [-lplus, zero]]).tocsc()

    def H_matrix(self, order: int = 4) -> sparse.csc_matrix:
        g, b = self.grid, self.beta
        d2 = g.fd_d2_matrix(order=order)
        v3, v4 = self.V3, self.V4
        h11 = -d2 + sparse.diags(b + 0.5 * v3)
        h22 = d2 - sparse.diags(b + 0.0 * v3) - sparse.diags(0.5 * v3)
        off = sparse.diags(-0.5j * v4)
        return sparse.bmat([[h11, off], [off, h22]]).tocsc()

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
            V1_fn=self.V1_fn,
            V2_fn=self.V2_fn,
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

    phi_sp = CubicSpline(g.nodes, profile.phi, extrapolate=False)

    def v1_fn(x):
        x = np.asarray(x, dtype=float)
        ph = phi_sp(np.clip(x, g.nodes[0], g.nodes[-1]))
        ph = np.where((x < g.nodes[0]) | (x > g.nodes[-1]), 0.0, ph)
        return V(x) - f.f(ph**2)

    def v2_fn(x):
        x = np.asarray(x, dtype=float)
        ph = phi_sp(np.clip(x, g.nodes[0], g.nodes[-1]))
        ph = np.where((x < g.nodes[0]) | (x > g.nodes[-1]), 0.0, ph)
        s = ph**2
        return V(x) - f.f(s) - 2.0 * f.fprime(s) * s

    return LinearizedSystem(
        grid=g, beta=profile.lam, V1=v1, V2=v2, profile=profile,
        V1_fn=v1_fn, V2_fn=v2_fn,
    )


def transform_H(sys: LinearizedSystem) -> LinearizedSystem:
    """The H-frame view; returned unchanged since the system carries both.

    Kept as a named operation so callers can assert the transform
    relations (V3 = V1 + V2 pointwise, spec(H) = spec(-iL)) against it.
    """
    return sys


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
    """Eigenvalues in the spectral gap and the four tagged modes."""

    system: LinearizedSystem
    eigenvalues: np.ndarray       # coarse-grid eigenvalues with |mu| < beta - margin
    eps1: float                   # small imaginary eigenvalue (positive branch)
    zero_mode: np.ndarray         # (0, phi), stacked pair on the fine grid
    zero_assoc: np.ndarray        # (phi_lam, 0)
    odd_plus: np.ndarray          # (xi1, eta1), eigenvalue +i eps1
    odd_minus: np.ndarray         # (xi1, -eta1), eigenvalue -i eps1
    zero_cluster_size: int        # eigenvalue count in the zero cluster
    extra_interior: np.ndarray    # gap eigenvalues beyond the tagged four
    embedded_candidates: np.ndarray  # |Im mu| > beta with tiny real part
    odd_residual: float           # spectral residual of the refined odd pair

    def tagged(self):
        return [self.zero_mode, self.zero_assoc, self.odd_plus, self.odd_minus]

    def tagged_eigenvalues(self):
        return np.array([0.0, 0.0, 1j * self.eps1, -1j * self.eps1])


def _refine_odd_mode(sys: LinearizedSystem, v0: np.ndarray, mu0: complex):
    """Inverse iteration with spectral defect polish on the fine grid."""
    g = sys.grid
    mat = sys.L_matrix(order=4)
    n = g.N
    v = np.concatenate([v0[0], v0[1]])
    v = v / np.linalg.norm(v)
    mu = complex(mu0)
    lu = splu((mat - mu * sparse.identity(2 * n, format="csc")).tocsc())
    # two plain inverse-iteration steps lock onto the FD4 eigenvector
    for _ in range(2):
        w = lu.solve(v)
        pair = 0.5 * (np.stack([w[:n], w[n:]]) - g.reflect(np.stack([w[:n], w[n:]])))
        w = np.concatenate(pair)
        v = w / np.linalg.norm(w)
    # Newton polish against the spectral operator.  The near-singular
    # preconditioner solve blows up along the FD4 eigenvector; combining
    # the two solves below cancels that direction (Jacobi-Davidson style).
    for _ in range(8):
        pair = np.stack([v[:n], v[n:]])
        lv = np.concatenate(sys.apply_L(pair))
        mu = np.vdot(v, lv) / np.vdot(v, v)
        resid_vec = lv - mu * v
        resid = g.dx ** 0.5 * np.linalg.norm(resid_vec)
        if resid < 1e-11:
            break
        lu = splu((mat - mu * sparse.identity(2 * n, format="csc")).tocsc())
        mr = lu.solve(resid_vec)
        mv = lu.solve(v)
        alpha = np.vdot(v, mr) / np.vdot(v, mv)
        w = v - (mr - alpha * mv)
        pair = 0.5 * (np.stack([w[:n], w[n:]]) - g.reflect(np.stack([w[:n], w[n:]])))
        w = np.concatenate(pair)
        nw = np.linalg.norm(w)
        if nw == 0:
            raise ValueError("tag failure")
        v = w / nw
    # rotate so component 1 is real and component 2 imaginary
    pair = np.stack([v[:n], v[n:]])
    j = int(np.argmax(np.abs(pair[0])))
    phase = pair[0][j] / abs(pair[0][j])
    pair = pair / phase
    xi = np.real(pair[0])
    eta = 1j * np.imag(pair[1])
    drop = max(np.max(np.abs(np.imag(pair[0]))), np.max(np.abs(np.real(pair[1]))))
    cand = np.stack([xi.astype(complex), eta])
    nrm = np.sqrt(np.real(g.inner(cand[0], cand[0]) + g.inner(cand[1], cand[1])))
    cand = cand / nrm
    lv = sys.apply_L(cand)
    mu = g.inner(cand[0], lv[0]) + g.inner(cand[1], lv[1])
    resid = np.sqrt(np.real(g.inner(lv[0] - mu * cand[0], lv[0] - mu * cand[0])
                            + g.inner(lv[1] - mu * cand[1], lv[1] - mu * cand[1])))
    return cand, complex(mu), float(resid), float(drop)


def _reduced_eig(coarse: LinearizedSystem):
    """All 2n eigenvalues of the coarse FD4 L from one n-order eigensolve.

    Returns vals = [mu, -mu] and a function mapping indices into vals to
    unit eigenvectors [2n, m]; the reduction is described in
    discrete_spectrum.
    """
    lminus, lplus = coarse.blocks(order=4)
    nu, x = np.linalg.eig((lminus @ lplus).toarray())
    mu = np.sqrt(-nu.astype(complex))
    n = mu.size

    def vectors(idx):
        idx = np.asarray(idx, dtype=int)
        cols, sign = idx % n, np.where(idx < n, 1.0, -1.0)
        v = np.concatenate([x[:, cols] * mu[cols], -sign * (lplus @ x[:, cols])])
        return v / np.linalg.norm(v, axis=0)

    return np.concatenate([mu, -mu]), vectors


def _mask_density(w: np.ndarray, mask: np.ndarray):
    """Pair density |w1|^2 + |w2|^2 of each column: (sum on mask, total)."""
    n = mask.size
    dens = np.abs(w[:n]) ** 2 + np.abs(w[n:]) ** 2
    return np.sum(dens[mask], axis=0), np.sum(dens, axis=0)


def discrete_spectrum(
    sys: LinearizedSystem,
    coarse_points: int = 768,
    localization: float = 0.95,
) -> DiscreteSpectrum:
    """Reduced dense eigensolve on a coarsened grid plus fine-grid refinement.

    Only O(1) discrete modes matter, so the dense solve runs at
    coarse_points nodes, on the Hamiltonian reduction: L squares to
    -diag(Lminus Lplus, Lplus Lminus), so one eigensolve of the n-order
    Lminus Lplus, eigenpairs (nu, x), gives all 2n eigenvalues of the
    coarse L as +-mu, mu = sqrt(-nu) on the principal branch.  Lminus Lplus
    is not symmetric and the FD4 Lminus need not be positive, so there is
    no symmetric route.  The eigenvector of +-mu is (x, -+Lplus x / mu);
    it is formed as (mu x, -+Lplus x), which stays finite at mu = 0, and
    only for the columns that the gap and embedded filters read (see
    _reduced_eig).  The gauge modes are taken from the profile (they
    are exact), and the odd trapping pair is tagged as the coarse pair
    closest to the reduced-matrix prediction, then refined on the fine
    grid by shifted inverse iteration.  Gap eigenvalues are recognized by
    eigenvector localization rather than by a distance margin, so weakly
    bound states just inside the thresholds are still reported (they
    break the four-mode structure and matter downstream).
    """
    prof = sys.profile
    if prof is None or prof.phi_lam is None:
        raise ValueError("system must carry a profile with phi_lam")
    g = sys.grid
    n_c = min(coarse_points, g.N)
    while g.N % n_c != 0:
        n_c -= 1
    coarse = sys.coarsen(n_c)
    vals, vectors = _reduced_eig(coarse)

    beta = sys.beta
    cg0 = coarse.grid
    interior0 = np.abs(cg0.nodes) < 0.4 * cg0.L
    in_gap = np.where((np.abs(vals.real) < 1e-4 * beta)
                      & (np.abs(vals.imag) < beta * (1 - 1e-4)))[0]
    vecs = vectors(in_gap)
    inside, total = _mask_density(vecs, interior0)
    local = inside > localization * total
    gap_vals = vals[in_gap[local]]
    gap_vecs = vecs[:, local]

    if gap_vals.size < 4:
        raise ValueError("tag failure")

    # zero cluster: within a band well separated from the trapping pair
    pred = feshbach_predict(getattr(prof.potential, "h", 0.0),
                            prof.potential.second_derivative_at_zero())
    eps_pred = float(np.max(np.abs(pred.imag)))
    zero_band = max(1e-3, 0.25 * eps_pred)
    zero_cluster = np.abs(gap_vals) < zero_band
    n_zero = int(np.count_nonzero(zero_cluster))

    # trapping pair: closest gap eigenvalue to +i eps_pred with odd vector
    cg = coarse.grid
    cand_idx = None
    cand_dist = np.inf
    for j in np.where(~zero_cluster)[0]:
        mu = gap_vals[j]
        if mu.imag <= 0:
            continue
        d = abs(mu - 1j * eps_pred)
        if d < cand_dist:
            w = gap_vecs[:, j]
            pair = np.stack([w[: cg.N], w[cg.N:]])
            odd_frac = cg.norm(np.concatenate(pair - (-cg.reflect(pair)))) / max(
                cg.norm(np.concatenate(pair)), 1e-300
            )
            if odd_frac < 0.5:
                cand_idx, cand_dist = j, d
    if cand_idx is None:
        raise ValueError("tag failure")

    mu0 = gap_vals[cand_idx]
    w = gap_vecs[:, cand_idx]
    pair0 = np.stack([w[: cg.N], w[cg.N:]])
    pair0 = 0.5 * (pair0 - cg.reflect(pair0))
    # interpolate to the fine grid
    up = np.stack([
        CubicSpline(cg.nodes, pair0[0])(g.nodes),
        CubicSpline(cg.nodes, pair0[1])(g.nodes),
    ])
    odd_plus, mu_ref, resid, _drop = _refine_odd_mode(sys, up, mu0)
    eps1 = float(abs(mu_ref.imag))
    odd_minus = np.conj(odd_plus)  # L real: conjugate pair, (xi1, -eta1)

    phi = prof.phi.astype(complex)
    phi_lam = prof.phi_lam.astype(complex)
    zero_mode = np.stack([np.zeros_like(phi), phi])
    zero_assoc = np.stack([phi_lam, np.zeros_like(phi)])

    tagged_set = {cand_idx}
    # the conjugate partner of the tagged pair
    for j in np.where(~zero_cluster)[0]:
        if abs(gap_vals[j] - np.conj(mu0)) < 1e-8 + 1e-6 * abs(mu0):
            tagged_set.add(j)
    extras = [
        gap_vals[j]
        for j in range(gap_vals.size)
        if j not in tagged_set and not zero_cluster[j]
    ]
    # embedded-eigenvalue scan (assumption check, not enforcement): a
    # discretized continuum mode fills the box, a genuine embedded mode is
    # localized, so filter by interior mass fraction
    interior = np.abs(cg.nodes) < 0.5 * cg.L
    cand = np.where((np.abs(vals.imag) > beta * (1 + 1e-6)) & (np.abs(vals.real) < 1e-6))[0]
    inside, total = _mask_density(vectors(cand), interior)
    embedded = vals[cand[inside > 0.995 * total]]

    return DiscreteSpectrum(
        system=sys,
        eigenvalues=gap_vals,
        eps1=eps1,
        zero_mode=zero_mode,
        zero_assoc=zero_assoc,
        odd_plus=odd_plus,
        odd_minus=odd_minus,
        zero_cluster_size=n_zero,
        extra_interior=np.array(extras),
        embedded_candidates=embedded,
        odd_residual=resid,
    )


def _apply_J(pair: np.ndarray) -> np.ndarray:
    """J = [[0, 1], [-1, 0]] componentwise."""
    return np.stack([pair[1], -pair[0]])


@dataclass
class SpectralProjector:
    """Biorthogonal projector onto the discrete modes, and its complement.

    P_d f = Xi T^{-1} (<eta_i, f>)_i with eta_i = J xi_i; the adjoint
    generalized eigenvectors of L* are exactly the J-images of the kets
    here (all four tagged eigenvalues lie on the imaginary axis).
    """

    system: LinearizedSystem
    kets: list
    bras: list
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
        coeffs = np.array([
            g.inner(b[0], f[0]) + g.inner(b[1], f[1]) for b in self.bras
        ])
        weights = self.gram_inv @ coeffs
        out = np.zeros_like(np.asarray(f, dtype=complex))
        for w, k in zip(weights, self.kets):
            out = out + w * k
        return out

    def apply_complement(self, f: np.ndarray) -> np.ndarray:
        return np.asarray(f, dtype=complex) - self.apply(f)

    # H-frame versions (u = T* v)
    def apply_H(self, u: np.ndarray) -> np.ndarray:
        return self.system.to_H_frame(self.apply(self.system.to_L_frame(u)))

    def apply_complement_H(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=complex) - self.apply_H(u)


def build_projector(spec: DiscreteSpectrum) -> SpectralProjector:
    kets = [np.asarray(k, dtype=complex) for k in spec.tagged()]
    bras = [_apply_J(k) for k in kets]
    g = spec.system.grid
    n = len(kets)
    gram = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            gram[i, j] = g.inner(bras[i][0], kets[j][0]) + g.inner(bras[i][1], kets[j][1])
    return SpectralProjector(system=spec.system, kets=kets, bras=bras, gram=gram)


def contour_projector(
    sys: LinearizedSystem,
    fields,
    radius: float,
    n_nodes: int = 128,
) -> np.ndarray:
    """Resolvent-quadrature oracle: (1/2 pi i) contour integral of (L-z)^{-1} f.

    Trapezoid on the circle |z| = radius, which encloses the zero block
    and the trapping pair but stays inside the spectral gap.  The node
    count must beat the geometric convergence rate (radius against the
    distance to the nearest spectrum outside), hence the 128 default.
    Accepts one stacked pair or a list of them (one factorization per
    node either way).
    """
    g = sys.grid
    mat = sys.L_matrix(order=4)
    n = g.N
    single = not isinstance(fields, (list, tuple))
    flist = [fields] if single else list(fields)
    rhs = np.stack([
        np.concatenate([np.asarray(f[0], dtype=complex), np.asarray(f[1], dtype=complex)])
        for f in flist
    ], axis=1)

    def apply_spectral(block, z):
        out = np.empty_like(block)
        for j in range(block.shape[1]):
            pair = np.stack([block[:n, j], block[n:, j]])
            lv = sys.apply_L(pair) - z * pair
            out[:, j] = np.concatenate([lv[0], lv[1]])
        return out

    acc = np.zeros_like(rhs)
    thetas = 2.0 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    for th in thetas:
        z = radius * np.exp(1j * th)
        lu = splu((mat - z * sparse.identity(2 * n, format="csc")).tocsc())
        x = lu.solve(rhs)
        # two defect-correction sweeps lift the banded resolvent to the
        # spectral operator's accuracy
        for _ in range(2):
            x = x + lu.solve(rhs - apply_spectral(x, z))
        # dz/(2 pi i) = z dtheta / (2 pi)
        acc = acc - x * z / n_nodes
    out = [np.stack([acc[:n, j], acc[n:, j]]) for j in range(len(flist))]
    return out[0] if single else out
