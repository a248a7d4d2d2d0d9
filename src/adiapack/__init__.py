"""Semiclassical wave packets for vector NLS equations with matrix potentials.

The package propagates the exact semiclassical vector nonlinear Schrödinger
equation, builds moving wave-packet approximations polarized along smoothly
tracked eigenvector frames, and measures how the approximation error scales
with the semiclassical parameter ε, including two-packet superpositions.

Submodules:

- `grids`        periodic grids, spectral derivatives, scaled norms
- `expressions`  the small expression language for potential entries
- `potentials`   matrix potentials, branch tracking, projector calculus
- `classical`    branch Hamiltonian trajectories and the action integral
- `envelope`     the ε-free profile equation: its stepper and moments
- `eigenframe`   parallel transport (an oracle for the static frame) and
                 coupling coefficients
- `corrections`  scalar branch propagators, the midpoint Duhamel step and
                 the averaging probe
- `nls`          the vector NLS split step, its guards and the grid rule
- `experiments`  the ansatz, the study set-up and the one lockstep march
                 behind every run: single packets, ε-sweeps, superposition
- `config`/`cli` JSON experiment configs and the command-line driver
"""

from .grids import (SpatialGrid, ScalarField, VectorField, SigmaNormReport,
                    make_grid, spectral_derivative, sigma_norm, l2_norm)
from .expressions import Expr, ParseError, parse_expr
from .potentials import (MatrixPotentialSpec, SpectralData, decompose,
                         evaluate_potential, gap_report, gamma,
                         projector_identity_residuals, growth_scan)
from .classical import BranchCurve, ClassicalTrajectory, integrate_trajectory
from .envelope import EnvelopeStepper, envelope_moments
from .eigenframe import (EigenFrame, k_matrix, transport_frame, frame_at,
                         parallel_residual, coupling_coefficients,
                         coupling_profile, initial_frame)
from .corrections import ScalarPropagator, assemble_correction, averaging_probe
from .nls import build_initial_data, mode_populations, NLSPropagator
from .experiments import (PacketSpec, fit_order, run_single_packet,
                          convergence_study, superposition_experiment,
                          make_profile)

__version__ = "0.1.0"
