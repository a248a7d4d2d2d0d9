"""Classical Hamiltonian trajectories on an eigenvalue branch.

Integrates

    ẋ = ξ,   ξ̇ = -λ'(x),   Ṡ = ξ²/2 - λ(x)

with the classic fourth-order one-step scheme at fixed dt, so trajectory
samples line up exactly with PDE solver steps.  The curvature λ''(x(t)) is
sampled along the path for the envelope equation, and the conserved energy
E = ξ²/2 + λ(x) is tracked as a drift diagnostic.  A branch is either an
expression (λ, λ', λ'' analytic) or decomposed grid samples (the not-a-knot
spline `grids.UniformCubicSpline` and its own derivatives); the samples are
interpolated in t by the same spline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SolverAbort
from .expressions import Expr
from .grids import UniformCubicSpline

__all__ = ["BranchCurve", "ClassicalTrajectory", "integrate_trajectory"]

_BLOWUP = 1e8


class BranchCurve:
    """Bundle of λ, λ', λ'' evaluators for one eigenvalue branch.

    `value_and_deriv(x)` gives (λ(x), λ'(x)) as Python floats at one point:
    the trajectory's per-stage call.
    """

    def __init__(self, value, deriv, curvature, value_and_deriv):
        self.value = value
        self.deriv = deriv
        self.curvature = curvature
        self.value_and_deriv = value_and_deriv

    @classmethod
    def from_expr(cls, expr: Expr) -> "BranchCurve":
        """Analytic evaluators; `value_and_deriv` runs λ and λ' compiled to
        Python-float functions (`Expr.scalar_function`) and walks the trees only
        where that raises (a math domain error, where numpy gives inf or NaN)."""
        d1 = expr.diff()
        d2 = d1.diff()
        lam, dlam = expr.scalar_function(), d1.scalar_function()

        def value_and_deriv(x):
            try:
                return lam(x), dlam(x)
            except (ArithmeticError, ValueError):
                return float(expr(x)), float(d1(x))

        return cls(expr, d1, d2, value_and_deriv)

    @classmethod
    def from_data(cls, data, j: int) -> "BranchCurve":
        """Branch evaluators from decomposed grid samples.

        λ is the not-a-knot cubic spline of the tracked branch on its grid;
        λ' and λ'' are that spline's own first and second derivatives.
        """
        spline = UniformCubicSpline(data.grid.x_min, data.grid.spacing,
                                    data.branches[j])
        return cls(spline, lambda x: spline(x, 1), lambda x: spline(x, 2),
                   lambda x: (spline(x), spline(x, 1)))


@dataclass(frozen=True, eq=False)
class ClassicalTrajectory:
    """Time samples of (x, ξ, S) plus the branch values and curvature along the path."""

    times: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    xi: np.ndarray = field(repr=False)
    action: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    curvature: np.ndarray = field(repr=False)
    branch: int
    energy0: float
    energy_drift: float

    def _spline(self, values) -> UniformCubicSpline:
        return UniformCubicSpline(self.times[0], self.times[1] - self.times[0],
                                  values)

    @cached_property
    def x_of(self):
        return self._spline(self.x)

    @cached_property
    def xi_of(self):
        return self._spline(self.xi)

    @cached_property
    def action_of(self):
        return self._spline(self.action)

    @cached_property
    def curvature_of(self):
        return self._spline(self.curvature)


def integrate_trajectory(branch: BranchCurve, x0: float, xi0: float, T: float,
                         dt: float, branch_id: int = 0) -> ClassicalTrajectory:
    """Fourth-order fixed-step integration of the branch Hamiltonian flow.

    The action is accumulated through the same integrator stages, so S(t) is
    fourth-order accurate as well.  Aborts if |x| or |ξ| exceeds 1e8.  The
    state (x, ξ, S) is carried as Python floats, one `value_and_deriv` call
    per stage; each update is the elementwise operation of the vector form of
    the scheme, in the same order, so the samples are the same to the bit.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-12 * max(1.0, abs(T)):
        raise ValueError("T must be an integer multiple of dt")

    value_and_deriv = branch.value_and_deriv

    def rhs(x, xi):
        lam, dlam = value_and_deriv(x)
        return xi, -dlam, 0.5 * xi * xi - lam

    half, sixth = 0.5 * dt, dt / 6.0
    x, xi, s = float(x0), float(xi0), 0.0
    out = np.empty((n_steps + 1, 3))
    out[0] = (x, xi, s)
    for i in range(n_steps):
        k1x, k1p, k1s = rhs(x, xi)
        k2x, k2p, k2s = rhs(x + half * k1x, xi + half * k1p)
        k3x, k3p, k3s = rhs(x + half * k2x, xi + half * k2p)
        k4x, k4p, k4s = rhs(x + dt * k3x, xi + dt * k3p)
        x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        xi = xi + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        if abs(x) > _BLOWUP or abs(xi) > _BLOWUP:
            raise SolverAbort(
                f"trajectory blow-up at t = {(i + 1) * dt}: "
                f"x = {x:.3e}, xi = {xi:.3e}"
            )
        out[i + 1] = (x, xi, s)

    times = dt * np.arange(n_steps + 1)
    xs, xis, actions = out[:, 0], out[:, 1], out[:, 2]
    lam = np.asarray(branch.value(xs), dtype=float)
    curv = np.asarray(branch.curvature(xs), dtype=float)
    energy0 = 0.5 * xi0 * xi0 + float(branch.value(x0))
    drift = float(np.max(np.abs(0.5 * xis**2 + lam - energy0)))
    return ClassicalTrajectory(times=times, x=xs, xi=xis, action=actions,
                               lam=lam, curvature=curv, branch=branch_id,
                               energy0=energy0, energy_drift=drift)
