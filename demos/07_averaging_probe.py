"""Why the driven corrections stay O(1): oscillatory averaging.

The operator (1/iε) ∫₀ᵗ U_k(-s) U_j(s) ds looks like it should be of size
t/ε — and for j = k it is, exactly.  For j ≠ k the branch phases mismatch at
rate (λ_j - λ_k)/ε and the integrand averages itself away: the norm stays
bounded as ε → 0.  This is the mechanism that keeps the off-mode corrections
uniformly bounded even though their source carries a 1/ε.

For constant branches the whole integral collapses to a scalar:
value = |e^{it/ε} - 1| ‖f‖, checked below at t/ε = π.
"""

import numpy as np

from adiapack.corrections import averaging_probe
from adiapack.grids import l2_norm, make_grid
from adiapack.potentials import MatrixPotentialSpec, decompose

grid = make_grid(-10.0, 10.0, 4096)
f = np.exp(-grid.points**2).astype(complex)

JB_INV = "(1+x^2)^(-1/2)"
spec = MatrixPotentialSpec.from_strings(
    ["x^2/2", "x^2/2"],
    [f"cos(x)*{JB_INV}", f"sin(x)*{JB_INV}", f"-cos(x)*{JB_INV}"])
data = decompose(spec, grid)

print("rotating-family branches, t = 0.5:")
print(f"  {'eps':>6} {'j = k (grows 1/eps)':>22} {'j != k (bounded)':>18}")
for eps in (0.04, 0.02, 0.01):
    same = averaging_probe(grid, data.branches[0], data.branches[0], f, eps,
                           0.5, eps / 8.0)
    cross = averaging_probe(grid, data.branches[0], data.branches[1], f, eps,
                            0.5, eps / 8.0)
    print(f"  {eps:6.3f} {same:22.3f} {cross:18.4f}")

eps = 0.04
t = np.pi * eps
val = averaging_probe(grid, np.zeros(grid.n), np.ones(grid.n), f, eps, t,
                      t / 2048.0)
print(f"\nconstant gap closed form at t/eps = pi: {val:.8f}  "
      f"(exact 2*||f|| = {2.0 * l2_norm(grid, f):.8f})")
