"""Grids, fields, weighted norms, nonlinearities and potential families.

Everything downstream (soliton construction, linearizations, scattering,
time propagation) works on a uniform symmetric grid on [-L, L).  Smooth
exponentially decaying fields are resolved to near machine precision by
the periodic spectral derivative; banded finite-difference operators are
provided for the time steppers and dense eigensolves, which need sparse
matrices rather than FFT applications.

All containers are immutable after construction and all operations are
pure, so they can be used concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

__all__ = [
    "Grid",
    "ComplexField",
    "PolynomialNonlinearity",
    "PotentialSpec",
    "AssumptionReport",
    "make_grid",
    "weighted_norm",
    "eval_nonlinearity",
    "validate_assumptions",
    "fit_exponential_decay",
]

PARITY_TOL = 1e-10
_D2_CACHE: dict = {}


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
        """<u, v> = integral of conj(u) * v."""
        return self.dx * np.sum(np.conj(u) * v, axis=-1)

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.real(self.inner(u, u))))

    # -- reflection and parity --------------------------------------------

    def reflect(self, u: np.ndarray) -> np.ndarray:
        """Values of x -> u(-x) on the same node set."""
        return np.roll(u[..., ::-1], 1, axis=-1)

    def parity_defect(self, u: np.ndarray) -> float:
        """Sup-norm distance to the even part."""
        return float(np.max(np.abs(u - self.reflect(u))))

    def symmetrize(self, u: np.ndarray) -> np.ndarray:
        return 0.5 * (u + self.reflect(u))

    # -- derivatives --------------------------------------------------------

    def spectral_d1(self, u: np.ndarray) -> np.ndarray:
        return np.fft.ifft(1j * self.wavenumbers * np.fft.fft(u))

    def spectral_d2(self, u: np.ndarray) -> np.ndarray:
        return np.fft.ifft(-(self.wavenumbers**2) * np.fft.fft(u))

    def fd_d2_matrix(self, order: int = 4) -> sparse.csr_matrix:
        """Banded second-derivative matrix, Dirichlet truncation at +-L.

        4th order 5-point stencil in the interior; the two rows nearest
        each boundary fall back to the 3-point stencil (the fields that
        reach them are below truncation level anyway).  Cached per grid.
        """
        key = (self.half_width, self.point_count, order)
        hit = _D2_CACHE.get(key)
        if hit is not None:
            return hit
        n = self.point_count
        h2 = self.dx**2
        if order == 2:
            main = -2.0 * np.ones(n)
            off = np.ones(n - 1)
            mat = (sparse.diags([off, main, off], [-1, 0, 1]) / h2).tocsr()
            _D2_CACHE[key] = mat
            return mat
        if order != 4:
            raise ValueError("order must be 2 or 4")
        c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
        mat = sparse.diags(
            [np.full(n - 2, c[0]), np.full(n - 1, c[1]), np.full(n, c[2]),
             np.full(n - 1, c[3]), np.full(n - 2, c[4])],
            [-2, -1, 0, 1, 2],
        ).tolil()
        for j in (0, 1, n - 2, n - 1):
            mat.rows[j], mat.data[j] = [], []
            if j - 1 >= 0:
                mat[j, j - 1] = 1.0
            mat[j, j] = -2.0
            if j + 1 < n:
                mat[j, j + 1] = 1.0
        mat = (mat / h2).tocsr()
        _D2_CACHE[key] = mat
        return mat

    def weight(self, nu: float) -> np.ndarray:
        """rho_nu(x) = (1 + |x|)^(-nu)."""
        return (1.0 + np.abs(self.nodes)) ** (-nu)


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
class ComplexField:
    """Complex values on a grid, with an optional validated parity tag."""

    grid: Grid
    values: np.ndarray
    parity: Optional[str] = None  # "even" | "odd" | None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.point_count,):
            raise ValueError("field length does not match grid")
        if self.parity is not None:
            refl = self.grid.reflect(vals)
            sign = 1.0 if self.parity == "even" else -1.0
            if self.parity not in ("even", "odd"):
                raise ValueError("parity must be 'even', 'odd' or None")
            scale = max(1.0, float(np.max(np.abs(vals))))
            # node 0 (x = -L) has no mirror on the grid: reflect() maps it
            # onto itself, so it carries no parity information
            if np.max(np.abs(vals[1:] - sign * refl[1:])) > PARITY_TOL * scale:
                raise ValueError(f"field is not {self.parity} to tolerance")

    def norm2(self) -> float:
        return self.grid.norm(self.values)


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """f(s) = sum_m c_m s^m, m = 1..p (no constant term, so f(0) = 0)."""

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
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for m, c in enumerate(self.coefficients, start=1):
            out = out + c * s**m
        return out

    def fprime(self, s):
        out = np.zeros_like(np.asarray(s, dtype=float))
        for m, c in enumerate(self.coefficients, start=1):
            out = out + m * c * np.asarray(s, dtype=float) ** (m - 1)
        return out

    def antiderivative(self, s):
        """F2(s) = integral_0^s f(xi) dxi."""
        out = np.zeros_like(np.asarray(s, dtype=float))
        for m, c in enumerate(self.coefficients, start=1):
            out = out + c * np.asarray(s, dtype=float) ** (m + 1) / (m + 1)
        return out


def eval_nonlinearity(f: PolynomialNonlinearity, s: float):
    """Pointwise (f(s), f'(s)); s is |psi|^2 and must be nonnegative."""
    if np.any(np.asarray(s) < 0):
        raise ValueError("s = |psi|^2 must be nonnegative")
    return f.f(s), f.fprime(s)


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
    vpp0: float                 # curvature of the base potential at 0
    nondegenerate_minimum: bool
    decay_rate: float           # fitted alpha in |V(x)| <= c exp(-alpha |x|)
    decay_prefactor: float
    lambda_admissible: bool     # lambda above inf V_h
    growth_bound_ok: bool       # |f'| <= c(1+s^p) surrogate: polynomial, trivially true
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


def validate_assumptions(
    f: PolynomialNonlinearity,
    V: PotentialSpec,
    lam: float,
    grid: Optional[Grid] = None,
) -> AssumptionReport:
    """Check the soliton-existence and trapping assumptions numerically.

    Raises ValueError("no positive root") when the effective potential has
    no positive root, and ValueError("degenerate minimum") when the base
    potential curvature at the origin is not positive.  The report keeps
    the well-posedness growth condition (subquadratic f) separate from the
    polynomial-degree requirement of the stability theory; the two pull in
    opposite directions and are reported side by side rather than merged.
    """
    grid = grid or make_grid(40.0, 2048)
    root = _smallest_positive_root(f, lam)
    s0 = root * root
    # U_phi(root) = 2*root*(f(s0) - lam)
    slope_positive = bool(f.f(s0) - lam > 0)
    vpp0 = V.second_derivative_at_zero()
    if V.family != "zero" and vpp0 <= 0:
        raise ValueError("degenerate minimum")
    vh = V(grid.nodes)
    alpha, cpre = fit_exponential_decay(grid.nodes, V.base(grid.nodes))
    if V.family == "zero":
        alpha, cpre = np.inf, 0.0
    admissible = bool(lam > np.min(vh))
    return AssumptionReport(
        root=root,
        root_slope_positive=slope_positive,
        vpp0=vpp0,
        nondegenerate_minimum=bool(vpp0 > 0) if V.family != "zero" else False,
        decay_rate=float(alpha),
        decay_prefactor=float(cpre),
        lambda_admissible=admissible,
        growth_bound_ok=True,
        subquadratic=bool(f.degree <= 2),
    )


def weighted_norm(u: ComplexField, nu: float) -> float:
    """|| (1+|x|)^(-nu) u ||_2 by trapezoidal quadrature."""
    if not np.isfinite(nu):
        raise ValueError("nu must be finite")
    g = u.grid
    w = g.weight(nu)
    return float(np.sqrt(np.real(g.integrate(np.abs(w * u.values) ** 2))))
