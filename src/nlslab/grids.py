"""Grids, weights, nonlinearities and potential families.

Everything downstream (soliton construction, linearizations, scattering,
time propagation) works on a uniform symmetric grid on [-L, L).  Smooth
exponentially decaying fields are resolved to near machine precision by
the periodic spectral derivative; the banded finite-difference operator,
the symmetric negative definite 5-point FD4 matrix truncated at +-L, in
band storage with a one-factor band LU, serves the time steppers, Newton
solves and dense eigensolves, and Grid.fold / Grid.unfold carry it and
its fields to the even or odd sector on the half grid x >= 0, where it
is symmetric in the node weights of Grid.unfold.  Every band has equal
half-widths, which the band_* functions read off its row count.
On that half grid Grid.even_d2 is the spectral derivative of even
fields, a real DCT-I.

All containers are immutable after construction, all operations are
pure and there is no module-level mutable state, so they can be used
concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import fft as sp_fft
from scipy.linalg import get_blas_funcs, get_lapack_funcs

__all__ = [
    "Grid",
    "PolynomialNonlinearity",
    "PotentialSpec",
    "AssumptionReport",
    "make_grid",
    "validate_assumptions",
    "soliton_root",
    "fit_exponential_decay",
    "band_solver",
    "band_matvec",
    "band_dense",
    "band_plus_diagonal",
    "band_scaled",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_j = -L + j*dx, j = 0..N-1, with dx = 2L/N.

    The node set is symmetric about 0 up to the single endpoint -L (its
    mirror +L is identified with -L in the periodic convention), and
    contains x = 0 exactly because N is even.
    """

    half_width: float
    point_count: int

    @property
    def L(self) -> float:
        return self.half_width

    @property
    def N(self) -> int:
        return self.point_count

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.point_count

    @property
    def nodes(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.point_count)

    @property
    def wavenumbers(self) -> np.ndarray:
        """FFT wavenumbers for the periodic spectral derivative."""
        return 2.0 * np.pi * np.fft.fftfreq(self.point_count, d=self.dx)

    # -- quadrature and inner products ------------------------------------

    def integrate(self, values: np.ndarray) -> complex:
        """Composite trapezoid; on the periodic node set this is dx*sum."""
        return self.dx * np.sum(values, axis=-1)

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """<u, v> = integral of conj(u) * v, summed over every axis: of two
        fields, or of two stacked pairs [2, N] (the sum of the component
        pairings)."""
        return self.dx * np.sum(np.conj(u) * v)

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.real(self.inner(u, u))))

    # -- reflection and parity --------------------------------------------

    def reflect(self, u: np.ndarray) -> np.ndarray:
        """Values of x -> u(-x) on the same node set."""
        return np.roll(u[..., ::-1], 1, axis=-1)

    def parity_defect(self, u: np.ndarray) -> float:
        """Sup-norm distance to the even part."""
        return float(np.max(np.abs(u - self.reflect(u))))

    def half(self, sign: float = 1.0) -> np.ndarray:
        """Node indices of the half grid x = 0 (dx for sign = -1), ..., L - dx."""
        c = self.point_count // 2                  # index of x = 0
        return np.arange(c if sign > 0 else c + 1, self.point_count)

    def unfold(self, u: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """Half-grid values (last axis) onto the grid by u(-x) = sign u(x).

        The result is 0 at x = -L, which has no mirror, so it is exactly
        even or odd, with the mass of u under the node weights 1 at x = 0
        and 2 elsewhere.
        """
        lo = self.half(sign)[0]
        full = np.zeros(u.shape[:-1] + (self.point_count,), dtype=u.dtype)
        full[..., lo:] = u
        full[..., self.point_count - lo:0:-1] = sign * u   # the mirror nodes; x = 0 is its own
        return full

    def fold(self, ab: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """The rows x >= 0 of a band A composed with unfold(., sign).

        Returns the band of that operator on the half grid, of A's width:
        column x of it is column x of A plus sign times column -x.  In
        band storage column -x sits 2x/dx rows below column x, and only
        the columns -n dx, n = 1 .. m (m the half-width of A) reach a row
        x >= 0; the odd sector has no row or column x = 0.  Slots outside
        the half matrix hold leftovers and are not read.
        """
        c = self.point_count // 2
        lo = self.half(sign)[0]
        out = ab[:, lo:].copy()
        for n in range(1, len(ab) // 2 + 1):         # column -n dx onto column n dx
            out[:len(ab) - 2 * n, c + n - lo] += sign * ab[2 * n:, c - n]
        return out

    # -- derivatives --------------------------------------------------------

    def spectral_d1(self, u: np.ndarray) -> np.ndarray:
        return np.fft.ifft(1j * self.wavenumbers * np.fft.fft(u))

    def spectral_d2(self, u: np.ndarray) -> np.ndarray:
        return np.fft.ifft(-(self.wavenumbers**2) * np.fft.fft(u))

    def even_d2(self, h: np.ndarray) -> np.ndarray:
        """spectral_d2 of unfold(h) at half(), in real arithmetic, for the N/2
        samples h: the periodic extension of the even field is the DCT-I
        sequence of h and its value 0 at x = L (unfold's x = -L), whose
        mode m has wavenumber pi m / L."""
        k = np.pi * np.arange(h.size + 1) / self.half_width
        return sp_fft.idct(-k**2 * sp_fft.dct(np.append(h, 0.0), 1), 1)[:-1]

    def fd_d2_band(self) -> np.ndarray:
        """Banded second-derivative matrix, Dirichlet truncation at +-L.

        The 4th order 5-point stencil in every row, with the values past
        the grid taken as 0: a symmetric Toeplitz matrix whose symbol
        -(c - 1)(c - 7) / (3 dx^2), c = cos(k dx), is negative except at
        k = 0, so the matrix is negative definite.  Row 2 - k holds the
        diagonal of offset k, column-aligned (entry (j - k, j) in column
        j): the storage of band_solver with (l, u) = (2, 2), read off the
        5 rows; the slots outside the matrix are not read.  This is the one
        FD4 operator: Grid.fold takes it to the half grid.
        """
        stencil = np.array([[-1.0], [16.0], [-30.0], [16.0], [-1.0]]) / 12.0
        return np.repeat(stencil, self.point_count, axis=1) / self.dx**2

    def weight(self, nu: float) -> np.ndarray:
        """rho_nu(x) = (1 + |x|)^(-nu)."""
        return (1.0 + np.abs(self.nodes)) ** (-nu)


def band_solver(ab: np.ndarray):
    """rhs -> A^-1 rhs from one LU of the band matrix A.

    ab holds A in the storage of scipy.linalg.solve_banded with
    kl = ku = len(ab) // 2 (row ku + i - j, column j holds A[i, j]).  Unlike
    solve_banded, the LU (LAPACK gbtrf) is formed once for all right-hand sides.

    When gbtrf made no row interchange, the LU is a unit-lower band with
    kl subdiagonals times an upper band with ku superdiagonals (its kl
    rows of fill stay zero), and a 1-D right-hand side is solved by one
    BLAS tbsv sweep on each.  These are the products of gbtrs less those
    with the zero fill, so the result is bitwise that of gbtrs, whose L
    sweep makes one BLAS geru call per column; on the Crank-Nicolson
    factor of dynamics.evolve_nls it takes about half the time.  A
    pivoted LU or a 2-D right-hand side goes to gbtrs.
    """
    kl = ku = len(ab) // 2
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    work = np.zeros((2 * kl + ku + 1, ab.shape[1]), dtype=ab.dtype)
    work[kl:] = ab
    lu, piv, info = gbtrf(work, kl, ku)
    if info > 0:
        raise np.linalg.LinAlgError("singular band matrix")
    pivoted = not np.array_equal(piv, np.arange(piv.size))
    tbsv = get_blas_funcs("tbsv", (lu,))
    l_band = np.asfortranarray(lu[kl + ku:])         # row i - j: (unit diagonal), L
    u_band = np.asfortranarray(lu[kl:kl + ku + 1])   # row ku + i - j: U

    def solve(rhs):
        if pivoted or np.ndim(rhs) != 1:
            return gbtrs(lu, kl, ku, rhs, piv)[0]
        return tbsv(ku, u_band, tbsv(kl, l_band, rhs, lower=1, diag=1), overwrite_x=1)
    return solve


def band_matvec(ab: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A u for the square band matrix A in the storage of band_solver (BLAS gbmv)."""
    gbmv = get_blas_funcs("gbmv", (ab, u))
    return gbmv(ab.shape[1], ab.shape[1], len(ab) // 2, len(ab) // 2, 1.0, ab, u)


def band_dense(ab: np.ndarray) -> np.ndarray:
    """The dense matrix of a band in the storage of band_solver."""
    n, m = ab.shape[1], len(ab) // 2               # row m - k: the diagonal (i, i + k)
    return sum(np.diag(ab[m - k, max(k, 0):n + min(k, 0)], k) for k in range(-m, m + 1))


def band_plus_diagonal(ab: np.ndarray, diag) -> np.ndarray:
    """The band of A + diag(diag), a new array of ab's dtype."""
    out = ab.copy()
    out[len(ab) // 2] += diag
    return out


def band_scaled(ab: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The band of D A D^-1, D = diag(d), entry (i, j) formed as d_i A_ij / d_j."""
    m = len(ab) // 2                               # row r holds (j + r - m, j)
    return np.lib.stride_tricks.sliding_window_view(np.pad(d, m), ab.shape[1]) * ab / d


def make_grid(L: float, N: int) -> Grid:
    """Build the uniform symmetric grid, rejecting degenerate inputs."""
    if N % 2 != 0:
        raise ValueError("odd point count")
    if N < 16:
        raise ValueError("point count must be at least 16")
    if not (L > 0):
        raise ValueError("half width must be positive")
    return Grid(float(L), int(N))


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """f(s) = sum_m c_m s^m, m = 1..p (no constant term, so f(0) = 0).

    f, f' and the primitive F2 are each one Horner polynomial (polyval).
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 1:
            raise ValueError("degree must be at least 1")
        if not all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def f(self, s):
        return polyval(np.asarray(s, dtype=float), (0.0,) + self.coefficients)

    def fprime(self, s):
        return polyval(np.asarray(s, dtype=float),
                       [m * c for m, c in enumerate(self.coefficients, start=1)])

    def antiderivative(self, s):
        """F2(s) = integral_0^s f(xi) dxi."""
        return polyval(np.asarray(s, dtype=float),     # c_m s^(m+1) / (m+1), k = m + 1
                       [0.0, 0.0] + [c / k for k, c in enumerate(self.coefficients, start=2)])


# ---------------------------------------------------------------------------
# potential families
# ---------------------------------------------------------------------------

_FAMILIES: dict = {
    # base profiles V(u); the scaled potential is V_h(x) = V(h x)
    "zero": lambda u, p: np.zeros_like(np.asarray(u, dtype=float)),
    "quad_gauss": lambda u, p: p.get("amp", 1.0) * (u**2 - p.get("offset", 1.0)) * np.exp(-(u**2)),
    "gauss_well": lambda u, p: -p.get("amp", 1.0) * np.exp(-(u**2)),
    "sech2_well": lambda u, p: -p.get("amp", 1.0) / np.cosh(u) ** 2,
}


@dataclass(frozen=True)
class PotentialSpec:
    """Even base potential from a named family, with the dilation scale h.

    V_h(x) = V(h x); for h = 0 the potential degenerates to the constant
    V(0), which is the correct limit for continuation from the
    translation-invariant problem.
    """

    family: str
    h: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown potential family '{self.family}'")
        if self.h < 0:
            raise ValueError("scale h must be nonnegative")

    def base(self, u):
        u = np.asarray(u, dtype=float)
        return _FAMILIES[self.family](u, self.params)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.h == 0.0:
            return np.full_like(x, float(self.base(0.0)))
        return self.base(self.h * x)

    def v0(self) -> float:
        return float(self.base(0.0))

    def second_derivative_at_zero(self) -> float:
        """V''(0) of the base profile by a 5-point stencil."""
        d = 1e-4
        u = np.array([-2 * d, -d, 0.0, d, 2 * d])
        v = self.base(u)
        return float((-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * d * d))


def fit_exponential_decay(x: np.ndarray, values: np.ndarray, floor: float = 1e-13):
    """Least-squares fit of log|values| ~ log(c) - alpha*|x|.

    Returns (alpha, c).  Nodes with |values| below the floor are excluded
    so underflowed tails do not pollute the fit.
    """
    mask = np.abs(values) > floor
    if np.count_nonzero(mask) < 4:
        return 0.0, 0.0
    xa = np.abs(np.asarray(x, dtype=float)[mask])
    ya = np.log(np.abs(np.asarray(values)[mask]))
    slope, intercept = np.polyfit(xa, ya, 1)
    return float(-slope), float(np.exp(intercept))


@dataclass(frozen=True)
class AssumptionReport:
    """Numerical check of the model assumptions for (f, V, lambda)."""

    root: float                 # smallest positive root of the effective potential
    root_slope_positive: bool   # sign of U_phi at the root
    nondegenerate_minimum: bool  # positive curvature of the base potential at 0
    decay_rate: float           # fitted alpha in |V(x)| <= c exp(-alpha |x|)
    lambda_admissible: bool     # lambda above inf V_h
    subquadratic: bool          # degree <= 2 proxy for the well-posedness growth condition

    def passes(self) -> bool:
        return (
            self.root > 0
            and self.root_slope_positive
            and self.nondegenerate_minimum
            and self.decay_rate > 0
            and self.lambda_admissible
        )


def _smallest_positive_root(f: PolynomialNonlinearity, lam: float) -> float:
    # U(phi, lam) = -lam*phi^2 + F2(phi^2); roots in s = phi^2 of
    # g(s) = -lam + F2(s)/s = -lam + sum c_m s^m/(m+1).
    coeffs = [c / (m + 1) for m, c in enumerate(f.coefficients, start=1)]
    poly = np.array(coeffs[::-1] + [-lam])
    roots = np.roots(poly)
    real = roots[np.abs(roots.imag) < 1e-10 * (1 + np.abs(roots.real))].real
    positive = np.sort(real[real > 1e-12])
    if positive.size == 0:
        raise ValueError("no positive root")
    return float(np.sqrt(positive[0]))


def soliton_root(f: PolynomialNonlinearity, V: PotentialSpec, lam: float) -> float:
    """The smallest positive root of the effective potential, after the two
    raising checks of validate_assumptions.

    Raises ValueError("no positive root") when there is none, and
    ValueError("degenerate minimum") when the base potential curvature at
    the origin is not positive.
    """
    root = _smallest_positive_root(f, lam)
    if V.family != "zero" and V.second_derivative_at_zero() <= 0:
        raise ValueError("degenerate minimum")
    return root


def validate_assumptions(f: PolynomialNonlinearity, V: PotentialSpec, lam: float,
                         grid: Grid) -> AssumptionReport:
    """Check the soliton-existence and trapping assumptions numerically.

    Raises ValueError("no positive root") when the effective potential has
    no positive root, and ValueError("degenerate minimum") when the base
    potential curvature at the origin is not positive.  The report keeps
    the well-posedness growth condition (subquadratic f) separate from the
    polynomial-degree requirement of the stability theory; the two pull in
    opposite directions and are reported side by side rather than merged.
    The decay rate and the admissibility of lam are read on grid.
    """
    root = soliton_root(f, V, lam)
    s0 = root * root
    # U_phi(root) = 2*root*(f(s0) - lam)
    slope_positive = bool(f.f(s0) - lam > 0)
    vpp0 = V.second_derivative_at_zero()
    vh = V(grid.nodes)
    alpha = fit_exponential_decay(grid.nodes, V.base(grid.nodes))[0]
    if V.family == "zero":
        alpha = np.inf
    admissible = bool(lam > np.min(vh))
    return AssumptionReport(
        root=root,
        root_slope_positive=slope_positive,
        nondegenerate_minimum=bool(vpp0 > 0) if V.family != "zero" else False,
        decay_rate=float(alpha),
        lambda_admissible=admissible,
        subquadratic=bool(f.degree <= 2),
    )
