"""Periodic spatial grids, spectral differentiation, and scaled weighted norms.

A field is a plain array of samples on a grid: (n,) for a scalar, (n, N)
for a ℂ^N-valued one.  Grids are uniform and periodic with a power-of-two
number of points, so derivatives are trigonometric-interpolation
derivatives computed by FFT and integrals are trapezoidal sums (spectrally
accurate for periodic decaying integrands).  Domains are chosen large
enough that every field of interest decays below roundoff at the edges,
which makes the periodic wrap-around irrelevant.

The error topology used by the convergence experiments is the scaled family

    ‖f‖_(p,ε) = max_{α+β ≤ p} ‖ |x|^α ε^β ∂_x^β f ‖_L²

i.e. moments in x and ε-scaled derivatives up to total order p.  For β = 0,
α = 0 this is the plain L² norm.

`UniformCubicSpline` is the package's interpolant: the not-a-knot cubic
spline of `scipy.interpolate.CubicSpline`, restricted to uniform knots and
written in numpy, so that the package needs no scipy (the tests check the
two against each other).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "SpatialGrid",
    "SigmaNormReport",
    "make_grid",
    "centred_slice",
    "spectral_derivative",
    "sigma_norm",
    "l2_norm",
    "unit_phase",
    "cubic_hermite",
    "UniformCubicSpline",
]

_RHO = 3.0**0.5 - 2.0          # the root of z² + 4z + 1 inside the unit circle
_SCAN_SHIFTS = (1, 2, 4, 8, 16)  # a doubling scan over lags 0..31; |ρ|^32 < 1e-17


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform periodic grid on [x_min, x_max) with n points (n a power of two)."""

    x_min: float
    x_max: float
    n: int
    spacing: float
    points: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min


@dataclass(frozen=True)
class SigmaNormReport:
    """All components ‖|x|^α ε^β ∂^β f‖ with α+β ≤ p, and their maximum."""

    components: dict
    value: float


def make_grid(x_min: float, x_max: float, n: int) -> SpatialGrid:
    """Build a uniform periodic grid with FFT wavenumbers for its period.

    The grid points are x_min + i·spacing for i in 0..n-1 (the right endpoint
    is the periodic image of the left one).
    """
    if not x_min < x_max:
        raise ValueError(f"degenerate interval: x_min={x_min} must be < x_max={x_max}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError("n must be a power of two (and at least 8)")
    spacing = (x_max - x_min) / n
    points = x_min + spacing * np.arange(n)
    frequencies = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    return SpatialGrid(x_min=float(x_min), x_max=float(x_max), n=int(n),
                       spacing=float(spacing), points=points, frequencies=frequencies)


def centred_slice(grid: SpatialGrid, m: int) -> SpatialGrid:
    """The periodic grid on the middle m of `grid`'s points (m a power of two,
    at most n), at the same spacing: its points are grid.points[(n-m)/2 :
    (n+m)/2], the same floats."""
    if m > grid.n or m < 8 or (m & (m - 1)) != 0:
        raise ValueError("m must be a power of two in [8, n]")
    start = (grid.n - m) // 2
    points = grid.points[start:start + m].copy()
    x_min = float(points[0])
    return SpatialGrid(x_min=x_min, x_max=x_min + m * grid.spacing, n=int(m),
                       spacing=grid.spacing, points=points,
                       frequencies=2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing))


def l2_norm(grid: SpatialGrid, values: np.ndarray) -> float:
    """Trapezoidal L² norm; for a vector field, components are summed in quadrature.

    One pass of re² + im² over the samples in memory order, so a transposed
    (n, N) view is read without a copy.
    """
    flat = np.ravel(values, order="K")
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    return float(np.sqrt(grid.spacing * np.einsum("i,i->", flat, flat)))


def unit_phase(theta: np.ndarray) -> np.ndarray:
    """e^{iθ} for real θ, written as cos θ + i sin θ straight into a complex array."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def cubic_hermite(y0, y1, d0, d1, h: float, s: float):
    """At s·h, the cubic through y0, y1 with rates d0, d1 at 0 and h."""
    h01 = s * s * (3.0 - 2.0 * s)
    return (1 - h01) * y0 + h01 * y1 + h * s * (1 - s) * ((1 - s) * d0 - s * d1)


def _not_a_knot_slopes(y: np.ndarray, h: float) -> np.ndarray:
    """First derivatives s_i at the knots of the not-a-knot cubic through y.

    The interior rows s_{i-1} + 4 s_i + s_{i+1} = 3 (y_{i+1} - y_{i-1}) / h
    are inverted by convolution with their Green's function ρ^|k| / (2√3),
    ρ = √3 - 2, cut where |ρ|^k < 1e-17; the convolution is a forward and a
    backward doubling scan along axis 0.  The two homogeneous modes ρ^i and
    ρ^(n-1-i) then meet the not-a-knot rows s_0 + 2 s_1 = (5 m_0 + m_1) / 2
    and 2 s_(n-2) + s_(n-1) = (m_(n-3) + 5 m_(n-2)) / 2, m_i the secant
    slopes.  O(n) vectorized work for any trailing shape.
    """
    n = y.shape[0]
    r = np.zeros_like(y)
    r[1:-1] = (3.0 / h) * (y[2:] - y[:-2])
    fwd, bwd = r.copy(), r.copy()
    for shift in _SCAN_SHIFTS:
        w = _RHO**shift
        fwd[shift:] += w * fwd[:-shift]
        bwd[:-shift] += w * bwd[shift:]
    s = (fwd + bwd - r) / (2.0 * 3.0**0.5)

    res_left = 0.5 * (5.0 * (y[1] - y[0]) + (y[2] - y[1])) / h - s[0] - 2.0 * s[1]
    res_right = (0.5 * (5.0 * (y[-1] - y[-2]) + (y[-2] - y[-3])) / h
                 - s[-1] - 2.0 * s[-2])
    diag = 1.0 + 2.0 * _RHO                        # a mode on its own end's row
    cross = _RHO ** (n - 1) + 2.0 * _RHO ** (n - 2)  # ... and on the far row
    det = diag * diag - cross * cross
    a_left = (diag * res_left - cross * res_right) / det
    a_right = (diag * res_right - cross * res_left) / det
    k = min(n, 2 * _SCAN_SHIFTS[-1])
    decay = (_RHO ** np.arange(k)).reshape((k,) + (1,) * (y.ndim - 1))
    s[:k] += a_left * decay
    s[n - k:] += a_right * decay[::-1]
    return s


class UniformCubicSpline:
    """Not-a-knot cubic spline through samples on the knots x0 + i·h, i < n.

    The numpy counterpart of `scipy.interpolate.CubicSpline(x, values, axis=0)`
    for uniform x.  `values` is (n, ...), real or complex, with n ≥ 4 (shorter
    input raises ValueError).  A call evaluates along axis 0 and returns
    x.shape + values.shape[1:]; `nu` = 1 or 2 gives the spline's own first or
    second derivative; the end cubics extrapolate outside the knots.  A Python
    float (or int) x on 1-D samples takes a scalar path in Python arithmetic,
    which returns a Python number with the array path's bits at that point,
    as does `slope_and_value`, s' and s in one lookup.
    """

    def __init__(self, x0: float, h: float, values):
        y = np.asarray(values)
        y = y.astype(np.result_type(y.dtype, float), copy=False)
        if y.ndim == 0 or y.shape[0] < 4:
            raise ValueError("a cubic spline needs at least 4 samples along axis 0")
        if not h > 0:
            raise ValueError("knot spacing h must be positive")
        self.x0, self.h, self.n = float(x0), float(h), y.shape[0]
        self.knots = self.x0 + self.h * np.arange(self.n)
        s = _not_a_knot_slopes(y, self.h)
        m = (y[1:] - y[:-1]) / self.h
        # Horner coefficients of interval i in d = x - knots[i], lowest first
        self._coef = (y[:-1], s[:-1], (3.0 * m - 2.0 * s[:-1] - s[1:]) / self.h,
                      (s[:-1] + s[1:] - 2.0 * m) / (self.h * self.h))

    @cached_property
    def _lists(self):
        return (self.knots.tolist(),) + tuple(c.tolist() for c in self._coef)

    def __call__(self, x, nu: int = 0):
        if nu not in (0, 1, 2):
            raise ValueError("nu must be 0, 1 or 2")
        if isinstance(x, (float, int)) and self._coef[0].ndim == 1:
            return self._scalar(x)[nu]
        x = np.asarray(x, dtype=float)
        t = (x - self.x0) / self.h
        idx = np.fmin(np.fmax(t, 0.0), self.n - 2).astype(np.intp)
        d = (x - self.knots[idx]).reshape(x.shape + (1,) * (self._coef[0].ndim - 1))
        c0, c1, c2, c3 = (c[idx] for c in self._coef)
        if nu == 0:
            return _horner(d, c3, c2, c1, c0)
        if nu == 1:
            return _horner(d, 3.0 * c3, 2.0 * c2, c1)
        return _horner(d, 6.0 * c3, 2.0 * c2)

    def slope_and_value(self, x: float) -> tuple:
        """(self(x, 1), self(x)) for a Python float x on 1-D samples."""
        value, slope, _ = self._scalar(x)
        return slope, value

    def _scalar(self, x):
        """(s, s', s'') at x by the array path's operations, in the same
        order, on Python numbers."""
        knots, c0, c1, c2, c3 = self._lists
        t = (x - self.x0) / self.h
        last = self.n - 2
        i = int(t) if 0.0 <= t < last else (last if t >= last else 0)
        d = x - knots[i]
        return (((c3[i] * d + c2[i]) * d + c1[i]) * d + c0[i],
                (3.0 * c3[i] * d + 2.0 * c2[i]) * d + c1[i],
                6.0 * c3[i] * d + 2.0 * c2[i])


def _horner(d, *coef):
    """Σ coef[k] d^(K-k) by Horner's rule, the highest power first, in place
    on coef[0], which must be a fresh array: ((c3·d + c2)·d + c1)·d + c0."""
    out = coef[0]
    for c in coef[1:]:
        out *= d
        out += c
    return out


def spectral_derivative(grid: SpatialGrid, values: np.ndarray,
                        order: int = 1) -> np.ndarray:
    """Trigonometric-interpolation derivative of the given order of (n,) or
    (n, N) samples on `grid`, along axis 0 (exact for band-limited periodic
    data)."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    mult = (1j * grid.frequencies) ** order
    if values.ndim == 2:
        return np.fft.ifft(mult[:, None] * np.fft.fft(values, axis=0), axis=0)
    return np.fft.ifft(mult * np.fft.fft(values))


def sigma_norm(grid: SpatialGrid, values: np.ndarray, epsilon: float,
               p: int) -> SigmaNormReport:
    """Scaled weighted norm report of ‖|x|^α ε^β ∂^β f‖ over α+β ≤ p.

    `values` holds the (n,) or (n, N) samples of f on `grid`; vector
    components enter the L² norm in quadrature.  Only p ∈ {0, 1, 2} is
    supported — nothing downstream needs more and the higher moments are
    increasingly boundary-sensitive.
    """
    if p not in (0, 1, 2):
        raise ValueError("sigma_norm supports p in {0, 1, 2}")
    absx = np.abs(grid.points)
    components = {}
    for beta in range(p + 1):
        dvals = values if beta == 0 else spectral_derivative(grid, values, beta)
        scaled = (epsilon ** beta) * dvals
        mag2 = np.abs(scaled) ** 2
        if mag2.ndim == 2:
            mag2 = mag2.sum(axis=1)
        for alpha in range(p - beta + 1):
            weighted = (absx ** (2 * alpha)) * mag2
            components[(alpha, beta)] = float(np.sqrt(grid.spacing * weighted.sum()))
    return SigmaNormReport(components=components, value=max(components.values()))
