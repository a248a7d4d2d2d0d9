"""The scale-free envelope profile equation.

Solves

    i ∂_t u + ½ ∂_y² u = ½ λ''(x(t)) y² u + Λ |u|² u,   u(0) = a,

on a fixed y-grid that does not depend on the semiclassical parameter.  The
splitting is symmetric second order: a half step of the potential-plus-cubic
phase (exact pointwise, since |u| is invariant under that flow), a full
kinetic step (exact Fourier multiplier), and another half phase.  The
time-dependent curvature is evaluated at the step midpoint.  The stepper
leaves each step's trailing half phase pending and applies it when `values`
is read; an `advance` that finds a half pending takes it together with its
own leading half as one phase, with the two midpoint curvatures averaged,
½(c_k + c_{k+1}) (exact, since both phases keep |u|).  Between two reads a
step therefore costs one phase instead of two.  The stepper owns its sample
buffer: the phases multiply it in place and the transforms (`numpy.fft` with
`out=`) overwrite it, so callers that keep a profile take a copy.
`EnvelopeStepper` is the one envelope march: the lockstep march of
`experiments` and its grid rule's sizing march both drive it.

Mass ‖u(t)‖ is conserved to roundoff by construction; a drift beyond
1e-8 · max(1, ‖u₀‖) signals under-resolution and aborts the run
(`errors.ENVELOPE_MASS`, exit 4).  A profile above 1e-8 · max(1, ‖u₀‖) at
either end of the y-domain, initially or after any step, has left the
comoving window (`errors.ENVELOPE_EDGE`, `InvariantViolation`, exit 3).
Both guards read |u|, which the pending phase does not change, so they check
every step on the open samples.
"""

from __future__ import annotations

import numpy as np

from .errors import ENVELOPE_EDGE, ENVELOPE_MASS
from .grids import SpatialGrid, l2_norm, unit_phase, _derivative_values

__all__ = ["EnvelopeStepper", "envelope_moments"]


class EnvelopeStepper:
    """Marches the profile equation with symmetric splitting at a fixed dt."""

    def __init__(self, y_grid: SpatialGrid, a_values: np.ndarray,
                 lambda_coupling: float, curvature_fn):
        self.y_grid = y_grid
        self._u = np.asarray(a_values, dtype=complex).copy()
        self._pending = None            # (dt/2, curvature) of a trailing half phase
        self.lambda_coupling = float(lambda_coupling)
        self.curvature_fn = curvature_fn
        self.time = 0.0
        self.mass0 = l2_norm(y_grid, self._u)
        self._half_y2 = 0.5 * y_grid.points**2
        self._kin_cache = {}
        self._check_edge()

    @property
    def values(self) -> np.ndarray:
        """The samples u(time), with any pending half phase applied first."""
        if self._pending is not None:
            self._phase(*self._pending)
            self._pending = None
        return self._u

    def _check_edge(self):
        edge = max(abs(self._u[0]), abs(self._u[-1]))
        ENVELOPE_EDGE.check(edge, max(1.0, self.mass0), f" at t = {self.time}")

    def _kinetic(self, dt):
        mult = self._kin_cache.get(dt)
        if mult is None:
            mult = np.exp(-0.5j * self.y_grid.frequencies**2 * dt)
            self._kin_cache[dt] = mult
        return mult

    def _phase(self, dt, curv):
        re, im = self._u.real, self._u.imag
        pot = curv * self._half_y2 + self.lambda_coupling * (re * re + im * im)
        self._u *= unit_phase(-dt * pot)

    def advance(self, dt: float):
        half = 0.5 * dt
        curv = float(self.curvature_fn(self.time + half))
        if self._pending is None:
            self._phase(half, curv)
        else:
            # the trailing half of the last step and the leading half of this one
            h_prev, c_prev = self._pending
            self._pending = None
            self._phase(h_prev + half, (h_prev * c_prev + half * curv)
                        / (h_prev + half))
        np.fft.fft(self._u, out=self._u)
        self._u *= self._kinetic(dt)
        np.fft.ifft(self._u, out=self._u)
        self._pending = (half, curv)
        self.time += dt
        mass = l2_norm(self.y_grid, self._u)
        ENVELOPE_MASS.check(abs(mass - self.mass0), max(1.0, self.mass0),
                            f" at t = {self.time}")
        self._check_edge()


def envelope_moments(y_grid: SpatialGrid, values: np.ndarray, k: int,
                     p: int) -> float:
    """Weighted derivative norm ‖⟨y⟩^k ∂_y^p u‖ of the samples `values` on
    `y_grid` (spectral derivative, k+p ≤ 4)."""
    if k + p > 4:
        raise ValueError("moments are tracked only for k + p <= 4")
    if p > 0:
        values = _derivative_values(y_grid, values, p)
    w = np.hypot(1.0, y_grid.points) ** k
    return l2_norm(y_grid, w * values)
