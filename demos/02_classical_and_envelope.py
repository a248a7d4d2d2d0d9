"""Branch trajectories, the action integral, and the profile equation.

A packet's center follows ẋ = ξ, ξ̇ = -λ'(x) on its branch, carrying the
action S(t) = ∫ (ξ²/2 - λ(x)).  The packet's shape u(t, y) solves the
ε-independent envelope equation

    i ∂_t u + ½ ∂_y² u = ½ λ''(x(t)) y² u + Λ |u|² u,

whose time-dependent harmonic coefficient is the branch curvature along the
trajectory.  Mass is conserved exactly; weighted moments grow at most
exponentially (here: they breathe, since the curvature is confining).
"""

import numpy as np

from adiapack.classical import BranchCurve, integrate_trajectory
from adiapack.envelope import EnvelopeStepper, envelope_moments
from adiapack.expressions import parse_expr
from adiapack.grids import make_grid

lower = BranchCurve.from_expr(parse_expr("x^2/2 - (1+x^2)^(-1/2)"))
traj = integrate_trajectory(lower, 1.0, 0.0, 5.0, 1e-3)
print("rotating-family lower branch, (x0, xi0) = (1, 0):")
print(f"  energy E = {traj.energy0:+.6f},  drift over T=5: "
      f"{traj.energy_drift:.2e}")
for t in (0.0, 1.0, 2.5, 5.0):
    i = int(round(t / 1e-3))
    print(f"  t={t:4.1f}  x={traj.x[i]:+.4f}  xi={traj.xi[i]:+.4f}  "
          f"S={traj.action[i]:+.4f}  lambda''={traj.curvature[i]:+.4f}")

print("\nfree particle check: S(t) = xi0^2 t / 2")
free = integrate_trajectory(BranchCurve.from_expr(parse_expr("0")),
                            0.0, 1.0, 2.0, 1e-3)
print(f"  S(2) = {free.action[-1]:.12f}  (exact 1)")

print("\nenvelope along the rotating branch, Gaussian data:")
y_grid = make_grid(-40.0, 40.0, 2048)
a = lambda y: np.pi**-0.25 * np.exp(-(y**2) / 2.0)
for lam_coupling in (0.0, 1.0):
    stepper = EnvelopeStepper(y_grid, a(y_grid.points), lam_coupling,
                              traj.curvature_of)
    moments = [envelope_moments(y_grid, stepper.values, 1, 0)]
    for _ in range(5):                   # to t = 1, 2, ..., 5 in steps of 1e-3
        for _ in range(1000):
            stepper.advance(1e-3)
        moments.append(envelope_moments(y_grid, stepper.values, 1, 0))
    row = "  ".join(f"{m:.4f}" for m in moments)
    mass = abs(np.sqrt(np.trapezoid(np.abs(stepper.values) ** 2,
                                    y_grid.points)) - 1.0)
    print(f"  Lambda = {lam_coupling}:  <y>-moment at t = 0..5:  {row}")
    print(f"              terminal mass defect {mass:.2e}")
print("(the moment breathes with the confining curvature and the cubic term "
      "stiffens it; mass is exact)")
