"""Two packets at once: when does the sum of ansatz still work?

The separation quantity Γ = inf_x |λ̃₁(x) - λ̃₂(x) - (E₁ - E₂)| controls how
long two classical trajectories can linger near each other.  With Γ > 0 the
crossing set I^ε(T) = {t : |x₁ - x₂| ≤ ε^γ} shrinks like ε^γ and the
superposed approximation converges; the crossing-control potential (constant
branch difference, both packets launched from the same phase-space point)
has Γ = 0, identical trajectories, and a nonlinear interaction that never
switches off — a negative control whose error does not decrease.

Demo scale: two ε values per experiment.
"""

from adiapack.experiments import PacketSpec, Study, superposition_experiment
from adiapack.potentials import MatrixPotentialSpec

gaussian = {"type": "gaussian"}

print("=== harmonic branch, packets (1, 0) and (-1, 1/2): Gamma > 0 ===")
harmonic = MatrixPotentialSpec.from_strings(["x^2/2"], ["0"])
rep = superposition_experiment(Study(
    potential=harmonic,
    packets=[PacketSpec(profile=gaussian, x0=1.0, xi0=0.0),
             PacketSpec(profile=gaussian, x0=-1.0, xi0=0.5)],
    epsilons=[1 / 64, 1 / 128], lambda_coupling=1.0, T=2.0, x_min=-4.0,
    x_max=4.0, gamma_exponent=0.3))
print(f"  Gamma = {rep.big_gamma:.4f} (= |E1 - E2| on a shared branch)")
print(f"  {'eps':>8} {'sup |w|':>12} {'|I^eps(T)|':>12} {'interaction':>12}")
for row in zip(rep.epsilons, rep.sup_errors, rep.crossing_measures,
               rep.interaction_integrals):
    print(f"  1/{int(round(1 / row[0])):4d}   {row[1]:12.5e} {row[2]:12.5f} "
          f"{row[3]:12.5f}")
print(f"  error order {rep.error_order.order:.3f}, crossing-measure order "
      f"{rep.crossing_order.order:.3f} (should track gamma = 0.3)")

print("\n=== crossing control: constant branch gap, same launch point ===")
crossing = MatrixPotentialSpec.from_strings(
    ["x^2/2", "x^2/2"], ["cos(x)", "sin(x)", "-cos(x)"])
rep = superposition_experiment(Study(
    potential=crossing,
    packets=[PacketSpec(profile=gaussian, x0=1.0, xi0=0.0, branch=0),
             PacketSpec(profile=gaussian, x0=1.0, xi0=0.0, branch=1)],
    epsilons=[1 / 64, 1 / 128], lambda_coupling=1.0, T=2.0, x_min=-4.0,
    x_max=4.0, gamma_exponent=0.3))
print(f"  Gamma = {rep.big_gamma:.1e}  (zero: hypothesis violated, "
      f"warning = {rep.gamma_zero_warning})")
for eps, sup in zip(rep.epsilons, rep.sup_errors):
    print(f"  eps = 1/{int(round(1 / eps)):4d}   sup |w|_sig1 = {sup:.5f}")
print("  the error curve is flat: the packets overlap for all time and the "
      "cubic term couples them at O(1)")
