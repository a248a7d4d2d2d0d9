"""Semiclassical wave packets for vector NLS equations with matrix potentials.

The package propagates the exact semiclassical vector nonlinear Schrödinger
equation, builds moving wave-packet approximations polarized along smoothly
tracked eigenvector frames, and measures how the approximation error scales
with the semiclassical parameter ε, including two-packet superpositions.

Submodules:

- `grids`        periodic grids, spectral derivatives, scaled norms; every
                 layer passes fields as (n,) or (n, N) arrays on a grid
- `expressions`  the small expression language for potential entries
- `potentials`   matrix potentials, branch tracking, projector calculus
- `classical`    branch Hamiltonian trajectories and the action integral
- `envelope`     the ε-free profile equation: its stepper, clock, moments
- `eigenframe`   parallel transport (an oracle for the static frame) and
                 coupling coefficients
- `corrections`  scalar branch propagators, the midpoint Duhamel step and
                 the averaging probe
- `nls`          the vector NLS split step, its guards and the grid rule
- `experiments`  the `Study`, the ansatz, the study set-up and the lockstep
                 march behind every run: single packets, ε-sweeps, superposition
- `config`/`cli` JSON experiment configs and the command-line driver
"""

from .grids import (SpatialGrid, SigmaNormReport, make_grid,
                    spectral_derivative, sigma_norm, l2_norm)
from .expressions import Expr, ParseError, parse_expr
from .potentials import (MatrixPotentialSpec, SpectralData, decompose,
                         branch_spline, evaluate_potential, gap_report,
                         projector_identity_residuals, growth_scan)
from .classical import ClassicalTrajectory, integrate_trajectory
from .envelope import EnvelopeClock, EnvelopeStepper, envelope_moments
from .eigenframe import (EigenFrame, k_matrix, transport_frame, frame_at,
                         parallel_residual, coupling_coefficients,
                         coupling_profile, initial_frame)
from .corrections import ScalarPropagator, assemble_correction, averaging_probe
from .nls import build_initial_data, mode_populations, NLSPropagator
from .experiments import (PacketSpec, RunOptions, Study, fit_order,
                          run_single_packet, convergence_study,
                          superposition_experiment, make_profile)

__version__ = "0.1.0"
