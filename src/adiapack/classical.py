"""Classical Hamiltonian trajectories on an eigenvalue branch.

Integrates

    ẋ = ξ,   ξ̇ = -λ'(x),   Ṡ = ξ²/2 - λ(x)

with the classic fourth-order one-step scheme at fixed dt.  λ, λ' and λ''
are recorded at every sample, for the envelope (λ'') and the Taylor
remainder, and the energy E = ξ²/2 + λ(x) is tracked as a drift
diagnostic; |x| and |ξ| are bounded by `errors.TRAJECTORY_BLOWUP` at every
step.  A branch curve is anything called as `curve(x, nu)` for λ (nu = 0),
λ' and λ'' on the samples, with `curve.slope_and_value(x)` for (λ', λ) at a
stage's Python float: the parsed diagonal entry (`expressions.Expr`, its
derivatives analytic, the pair one compiled function) or the not-a-knot
spline of decomposed samples (`grids.UniformCubicSpline`, its derivatives
its own, the pair one interval lookup).  The runs read a trajectory as
they read the envelope clock, at fractions of a clock interval (`at`); the
transport oracle (`eigenframe`) interpolates it with its splines in t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TRAJECTORY_BLOWUP
from .grids import cubic_hermite

__all__ = ["ClassicalTrajectory", "integrate_trajectory"]


@dataclass(frozen=True, eq=False)
class ClassicalTrajectory:
    """Samples of (x, ξ, S), λ, λ' and λ'' along the path at t_i = i·dt."""

    times: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    xi: np.ndarray = field(repr=False)
    action: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    slope: np.ndarray = field(repr=False)
    curvature: np.ndarray = field(repr=False)
    energy0: float
    energy_drift: float

    def at(self, b0: int, b1: int, k: int, n: int) -> tuple:
        """(x, ξ, S) at k/n (whole 0 ≤ k ≤ n) of samples b0 to b1: the
        sample itself where (b1 - b0)·k is a multiple of n, else the cubic
        Hermite in t on the flow's rates (ξ, -λ', ξ²/2 - λ) at its neighbours."""
        i, r = divmod(b0 * n + (b1 - b0) * k, n)
        if r == 0:
            return self.x[i], self.xi[i], self.action[i]
        j, h = [i, i + 1], self.times[i + 1] - self.times[i]
        xi = self.xi[j]
        return tuple(cubic_hermite(*y, *rate, h, r / n) for y, rate in (
            (self.x[j], xi), (xi, -self.slope[j]),
            (self.action[j], 0.5 * xi * xi - self.lam[j])))


def integrate_trajectory(curve, x0: float, xi0: float, T: float,
                         dt: float) -> ClassicalTrajectory:
    """Fourth-order fixed-step integration of the flow on the branch `curve`.

    The action is accumulated through the same integrator stages, so S(t) is
    fourth-order accurate as well.  A NaN or past-tolerance x or ξ trips
    `errors.TRAJECTORY_BLOWUP`, so the branch must be finite on the path.  The
    state (x, ξ, S) is carried as Python floats, with one
    `curve.slope_and_value(x)`, (λ'(x), λ(x)), per stage; each update is the
    elementwise operation of the vector form of the scheme, in the same
    order, so the samples are the same to the bit.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-12 * max(1.0, abs(T)):
        raise ValueError("T must be an integer multiple of dt")

    def rhs(x, xi):
        slope, lam = pair(x)
        return xi, -slope, 0.5 * xi * xi - lam

    pair, half, sixth = curve.slope_and_value, 0.5 * dt, dt / 6.0
    tol = TRAJECTORY_BLOWUP.tol
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
        if not (abs(x) <= tol and abs(xi) <= tol):   # NaN-safe, per step
            TRAJECTORY_BLOWUP.check(np.abs((x, xi)).max(),
                                    where=f" at t = {(i + 1) * dt}")
        out[i + 1] = (x, xi, s)

    times = dt * np.arange(n_steps + 1)
    xs, xis, actions = out[:, 0], out[:, 1], out[:, 2]
    lam, slope, curv = (np.asarray(curve(xs, nu), dtype=float)
                        for nu in (0, 1, 2))
    energy0 = 0.5 * xi0 * xi0 + float(lam[0])
    drift = float(np.max(np.abs(0.5 * xis**2 + lam - energy0)))
    return ClassicalTrajectory(times=times, x=xs, xi=xis, action=actions,
                               lam=lam, slope=slope, curvature=curv,
                               energy0=energy0, energy_drift=drift)
