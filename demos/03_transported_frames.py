"""Parallel-transported eigenframes and the mode-coupling coefficients.

The rotating two-level family has eigenvectors at half the matrix angle:
χ₊(x) = (cos(x/2), sin(x/2)).  Transporting the frame along a trajectory with
the generator K(x) = -i[Π, ∂Π] reproduces exactly that static field — the
content of parallel transport in one dimension — and the residual of
(χ, ∂_tχ + ξ ∂_xχ) within the branch vanishes, while its projection onto the
other branch is the coupling coefficient r(t, x) = ξ(t) ρ(x) with |ρ| = 1/2
for this family.
"""

import numpy as np

from adiapack.classical import integrate_trajectory
from adiapack.eigenframe import (coupling_profile, frame_at, initial_frame,
                                 k_matrix, parallel_residual, transport_frame)
from adiapack.expressions import parse_expr
from adiapack.grids import make_grid
from adiapack.potentials import MatrixPotentialSpec, decompose

JB_INV = "(1+x^2)^(-1/2)"
spec = MatrixPotentialSpec.from_strings(
    ["x^2/2", "x^2/2"],
    [f"cos(x)*{JB_INV}", f"sin(x)*{JB_INV}", f"-cos(x)*{JB_INV}"])

data = decompose(spec, make_grid(-9.0, 9.0, 2048))
print("transport generator at three points (analytic value is ±i/2 "
      "off-diagonal):")
for x in (-1.0, 0.0, 2.0):
    k = k_matrix(data, 1, x, 1e-3)
    print(f"  K(x={x:+.1f})[0,1] = {k[0, 1]:+.6f}")

branch = parse_expr(f"x^2/2 + {JB_INV}")
traj = integrate_trajectory(branch, 0.0, 1.0, 2.0, 1e-3)
z_grid = make_grid(-7.5, 7.5, 2048)
frame = transport_frame(data, 1, traj, initial_frame(data, 1, z_grid.points),
                        z_grid, 1e-3, T=2.0)
print(f"\ntransport over T=2: gram deviation {frame.gram_deviation:.2e}, "
      f"eigen-residual {frame.eigen_residual:.2e}")

lab = make_grid(-2.0, 2.0, 512)
chi = frame_at(frame, 1.0, lab)[:, :, 0]
analytic = np.stack([np.cos(lab.points / 2.0), np.sin(lab.points / 2.0)], axis=1)
sign = np.sign(np.sum(chi * analytic))
print(f"deviation from the half-angle field at t=1: "
      f"{np.max(np.abs(chi - sign * analytic)):.2e}")

print("\nparallel-transport residuals (within branch ~ 0, across = coupling):")
for t, x in ((0.5, 0.3), (1.5, -0.2)):
    own = parallel_residual(frame, data, 1, 0, t, x)
    cross = parallel_residual(frame, data, 0, 0, t, x)
    xi = float(traj.xi[int(round(t / 1e-3))])     # the sample at t
    print(f"  t={t}  x={x:+.1f}:  |own| = {abs(own):.2e}   "
          f"|cross| = {abs(cross):.4f}   |xi|/2 = {abs(xi) / 2:.4f}")

rho = coupling_profile(data, 0, 0, source_branch=1)
print(f"\ncoupling profile magnitude: min {np.abs(rho).min():.6f}, "
      f"max {np.abs(rho).max():.6f}  (exactly 1/2 for this family)")
