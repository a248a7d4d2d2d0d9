"""Periodic spatial grids, spectral differentiation, and scaled weighted norms.

All fields live on uniform periodic grids with a power-of-two number of
points, so derivatives are trigonometric-interpolation derivatives computed
by FFT and integrals are trapezoidal sums (spectrally accurate for periodic
decaying integrands).  Domains are chosen large enough that every field of
interest decays below roundoff at the edges, which makes the periodic
wrap-around irrelevant.

The error topology used by the convergence experiments is the scaled family

    ‖f‖_(p,ε) = max_{α+β ≤ p} ‖ |x|^α ε^β ∂_x^β f ‖_L²

i.e. moments in x and ε-scaled derivatives up to total order p.  For β = 0,
α = 0 this is the plain L² norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpatialGrid",
    "ScalarField",
    "VectorField",
    "SigmaNormReport",
    "make_grid",
    "spectral_derivative",
    "sigma_norm",
    "l2_norm",
    "unit_phase",
]


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


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Complex scalar samples on a grid, tagged with the semiclassical scale ε."""

    grid: SpatialGrid
    values: np.ndarray
    epsilon: float = 1.0
    time: float = 0.0

    def __post_init__(self):
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True, eq=False)
class VectorField:
    """ℂ^N-valued samples on a grid, stored as an (n, N) array."""

    grid: SpatialGrid
    values: np.ndarray
    epsilon: float = 1.0
    time: float = 0.0

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.n:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    @property
    def n_levels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SigmaNormReport:
    """All components ‖|x|^α ε^β ∂^β f‖ with α+β ≤ p, and their maximum."""

    p: int
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


def _derivative_values(grid: SpatialGrid, values: np.ndarray, order: int) -> np.ndarray:
    mult = (1j * grid.frequencies) ** order
    if values.ndim == 2:
        return np.fft.ifft(mult[:, None] * np.fft.fft(values, axis=0), axis=0)
    return np.fft.ifft(mult * np.fft.fft(values))


def spectral_derivative(f: ScalarField, order: int = 1) -> ScalarField:
    """Trigonometric-interpolation derivative of the given order (exact for
    band-limited periodic data)."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    return ScalarField(grid=f.grid, values=_derivative_values(f.grid, f.values, order),
                       epsilon=f.epsilon, time=f.time)


def sigma_norm(f, p: int) -> SigmaNormReport:
    """Scaled weighted norm report of ‖|x|^α ε^β ∂^β f‖ over α+β ≤ p.

    Accepts a ScalarField or VectorField; vector components enter the L² norm
    in quadrature.  Only p ∈ {0, 1, 2} is supported — nothing downstream needs
    more and the higher moments are increasingly boundary-sensitive.
    """
    if p not in (0, 1, 2):
        raise ValueError("sigma_norm supports p in {0, 1, 2}")
    grid, eps = f.grid, f.epsilon
    absx = np.abs(grid.points)
    components = {}
    for beta in range(p + 1):
        if beta == 0:
            dvals = f.values
        else:
            dvals = _derivative_values(grid, f.values, beta)
        scaled = (eps ** beta) * dvals
        mag2 = np.abs(scaled) ** 2
        if mag2.ndim == 2:
            mag2 = mag2.sum(axis=1)
        for alpha in range(p - beta + 1):
            weighted = (absx ** (2 * alpha)) * mag2
            components[(alpha, beta)] = float(np.sqrt(grid.spacing * weighted.sum()))
    return SigmaNormReport(p=p, components=components,
                           value=max(components.values()))
