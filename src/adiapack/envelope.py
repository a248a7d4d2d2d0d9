"""The scale-free envelope profile equation.

Solves

    i ∂_t u + ½ ∂_y² u = ½ λ''(x(t)) y² u + Λ |u|² u,   u(0) = a,

on a fixed y-grid that does not depend on the semiclassical parameter; a
profile is the plain (n,) array of its samples on that grid.  The
splitting is symmetric second order: a half step of the potential-plus-cubic
phase (exact pointwise, since |u| is invariant under that flow), a full
kinetic step (exact Fourier multiplier), and another half phase.  The
time-dependent curvature enters as the caller's value c in `advance(dt, c)`:
the midpoint sample λ''(x(t + dt/2)) or the mean over the step, either of
which keeps the step symmetric.  The stepper owns its sample buffer
`values`: the phases multiply it in place and the transforms (`numpy.fft`
with `out=`) overwrite it, so callers that keep a profile take a copy.
`EnvelopeStepper` is the one envelope march: the grid rule's sizing march
of `experiments` drives it in Strang steps, and its lockstep march through
an `EnvelopeClock`, which the lockstep ticks once per clock interval (a
fourth-order triple jump of the Strang step) and reads without marching.

Mass ‖u(t)‖ is conserved to roundoff by construction; a drift beyond
1e-8 · max(1, ‖u₀‖) after any step signals under-resolution and aborts the
run (`errors.ENVELOPE_MASS`, exit 4).  A profile above 1e-8 · max(1, ‖u₀‖)
at either end of the y-domain, initially or after any step, has left the
comoving window (`errors.ENVELOPE_EDGE`, `InvariantViolation`, exit 3).
"""

from __future__ import annotations

import numpy as np

from .errors import ENVELOPE_EDGE, ENVELOPE_MASS
from .grids import SpatialGrid, cubic_hermite, l2_norm, spectral_derivative, unit_phase

__all__ = ["EnvelopeClock", "EnvelopeStepper", "envelope_moments"]

# Yoshida's triple jump (Phys. Lett. A 150 (1990) 262): symmetric steps of
# w₁h, w₀h, w₁h (w₀ = 1 - 2w₁ < 0) make a fourth-order step of h
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_TRIPLE_JUMP = (_W1, 1.0 - 2.0 * _W1, _W1)
_STAGE_ENDS = np.cumsum((0.0,) + _TRIPLE_JUMP)


class EnvelopeStepper:
    """Marches the profile equation with symmetric splitting at a fixed dt."""

    def __init__(self, y_grid: SpatialGrid, a_values: np.ndarray,
                 lambda_coupling: float):
        self.y_grid = y_grid
        self.values = np.asarray(a_values, dtype=complex).copy()
        self.lambda_coupling = float(lambda_coupling)
        self.time = 0.0
        self.mass0 = l2_norm(y_grid, self.values)
        self._half_y2 = 0.5 * y_grid.points**2
        self._kin_cache = {}
        self._check_edge()

    def _check_edge(self):
        edge = max(abs(self.values[0]), abs(self.values[-1]))
        ENVELOPE_EDGE.check(edge, max(1.0, self.mass0), f" at t = {self.time}")

    def _kinetic(self, dt):
        mult = self._kin_cache.get(dt)
        if mult is None:
            mult = np.exp(-0.5j * self.y_grid.frequencies**2 * dt)
            self._kin_cache[dt] = mult
        return mult

    def _potential(self, u, curv):   # ½ λ'' y² + Λ |u|²
        re, im = u.real, u.imag
        return curv * self._half_y2 + self.lambda_coupling * (re * re + im * im)

    def _phase(self, dt, curv):
        self.values *= unit_phase(-dt * self._potential(self.values, curv))

    def rate(self, u: np.ndarray, curvature: float) -> np.ndarray:
        """∂ₜu of the equation at the samples u and λ'' = `curvature`."""
        kinetic = np.fft.ifft(0.5 * self.y_grid.frequencies**2 * np.fft.fft(u))
        return -1j * (kinetic + self._potential(u, curvature) * u)

    def advance(self, dt: float, curvature: float, time: float | None = None):
        """One step of dt, with `curvature` λ'' over the step: its midpoint
        value λ''(x(t + dt/2)), or its mean.  `time`, which the guards name
        and `self.time` then holds, is by default the step's end, time + dt."""
        half, curv, u = 0.5 * dt, float(curvature), self.values
        self._phase(half, curv)
        np.fft.fft(u, out=u)
        u *= self._kinetic(dt)
        np.fft.ifft(u, out=u)
        self._phase(half, curv)
        self.time = self.time + dt if time is None else time
        ENVELOPE_MASS.check(abs(l2_norm(self.y_grid, u) - self.mass0),
                            max(1.0, self.mass0), f" at t = {self.time}")
        self._check_edge()


class EnvelopeClock:
    """u along curvature samples c_i = λ''(x(i·q)), marched by `stepper`
    one clock interval at a time (`jump`) and read, without marching, at
    fractions of the interval last jumped (`at`).  Each clock interval h is
    one Yoshida triple jump, stages of w₁h, w₀h, w₁h at their means of the
    samples' linear interpolant, continued past the ends (a stage midpoint's
    value loses the fourth order where λ'' is a branch spline's
    piecewise-linear second derivative).  A read at either end is its clock
    sample (before the first jump both ends are the start), one between
    them their cubic Hermite interpolant in t, with ∂ₜu from
    `EnvelopeStepper.rate` taken once per end for such a read.  The clock
    keeps the two ends; the stepper's guards trip in `jump` and name its end."""

    def __init__(self, stepper: EnvelopeStepper, curvature: np.ndarray,
                 q: float):
        self.stepper, self.curvature, self.q = stepper, curvature, q
        self._areas = np.r_[0.0, np.cumsum(0.5 * q * (curvature[1:]
                                                      + curvature[:-1]))]
        start = [0, stepper.values.copy(), None]   # [index, u, ∂ₜu]
        self._ends = [start, start]

    def jump(self, b1: int):
        """March the interval from the last clock point to sample b1."""
        b0 = self._ends[1][0]
        h = (b1 - b0) * self.q
        areas = np.diff(self._area(b0 + (b1 - b0) * _STAGE_ENDS))
        for w, area in zip(_TRIPLE_JUMP, areas):
            self.stepper.advance(w * h, area / (w * h), b1 * self.q)
        self._ends = [self._ends[1], [b1, self.stepper.values.copy(), None]]

    def _area(self, s):   # ∫ from sample 0 to each fractional sample index s
        c, i = self.curvature, np.clip(s.astype(np.intp), 0, len(self._areas) - 2)
        d = s - i
        return self._areas[i] + self.q * d * (c[i] + 0.5 * d * (c[i + 1] - c[i]))

    def at(self, k: int, n: int) -> np.ndarray:
        """u at the fraction k/n (whole 0 ≤ k ≤ n) of the interval last jumped."""
        if k in (0, n):
            return self._ends[int(k == n)][1]
        for end in self._ends:   # ∂ₜu at each end, taken once
            if end[2] is None:
                end[2] = self.stepper.rate(end[1], self.curvature[end[0]])
        (b0, u0, d0), (b1, u1, d1) = self._ends
        return cubic_hermite(u0, u1, d0, d1, (b1 - b0) * self.q, k / n)


def envelope_moments(y_grid: SpatialGrid, values: np.ndarray, k: int,
                     p: int) -> float:
    """Weighted derivative norm ‖⟨y⟩^k ∂_y^p u‖ of the samples `values` on
    `y_grid` (spectral derivative, k+p ≤ 4)."""
    if k + p > 4:
        raise ValueError("moments are tracked only for k + p <= 4")
    if p > 0:
        values = spectral_derivative(y_grid, values, p)
    w = np.hypot(1.0, y_grid.points) ** k
    return l2_norm(y_grid, w * values)
