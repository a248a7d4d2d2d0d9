"""How the approximation error scales as ε shrinks.

Two sweeps at fixed horizon T = 1:

  * scalar harmonic control (Λ = 0, V = x²/2): the moving Gaussian solves the
    equation exactly, so the whole error is the prescribed ε^κ perturbation of
    the data, here κ = 1/2 — a clean known-order control for the measurement
    machinery;
  * rotating two-level family with Λ = 1: branch Taylor remainders, mode
    coupling, and the nonlinearity all contribute; the measured order is 1/2.

Demo scale: three ε halvings (the shipped configs go one deeper).
"""

from adiapack.experiments import PacketSpec, RunOptions, Study, convergence_study
from adiapack.potentials import MatrixPotentialSpec

JB_INV = "(1+x^2)^(-1/2)"

print("=== scalar control (exact ansatz + eps^0.5 data perturbation) ===")
harmonic = MatrixPotentialSpec.from_strings(["x^2/2"], ["0"])
packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0,
                    kappa=0.5, r0_profile={"type": "hermite"})
rep = convergence_study(Study(potential=harmonic, packets=[packet],
                              epsilons=[1 / 32, 1 / 64, 1 / 128], T=1.0,
                              x_min=-4.0, x_max=4.0,
                              options=RunOptions(observe_every=0.1)))
for eps, sup in zip(rep.epsilons, rep.sup_errors):
    print(f"  eps = 1/{int(round(1 / eps)):4d}   sup |w|_sig1 = {sup:.5e}")
print(f"  fitted order: {rep.fitted_order.order:.3f}   "
      f"strictly decreasing: {rep.strictly_decreasing}")

print("\n=== rotating family, Lambda = 1 ===")
rotating = MatrixPotentialSpec.from_strings(
    ["x^2/2", "x^2/2"],
    [f"cos(x)*{JB_INV}", f"sin(x)*{JB_INV}", f"-cos(x)*{JB_INV}"],
    gap_constants=(2.0, 1.0))
packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0, branch=0)
rep = convergence_study(Study(potential=rotating, packets=[packet],
                              epsilons=[1 / 32, 1 / 64, 1 / 128],
                              lambda_coupling=1.0, T=1.0, x_min=-2.5, x_max=2.5,
                              options=RunOptions(observe_every=0.1)))
print(f"  {'eps':>8} {'sup |w|':>12} {'leakage(T)':>12}")
for eps, sup, leak in zip(rep.epsilons, rep.sup_errors, rep.leakages):
    print(f"  1/{int(round(1 / eps)):4d}   {sup:12.5e} {leak:12.5e}")
print(f"  error order {rep.fitted_order.order:.3f}  "
      f"(theory: 1/2);  leakage order {rep.leakage_order.order:.3f}  "
      f"(adiabatic decoupling: the off-branch mass is O(ε))")
