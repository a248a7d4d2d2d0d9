"""Exception hierarchy and the one guard policy shared across the package.

Each class carries the exit code the `adiapack` command returns for it:
configuration problems (2), violated numerical invariants (3), and runtime
aborts such as blow-up guards or mass-drift trips (4).  Every run-time
invariant of a march is one `Guard` below, with one tolerance and one class
at every call site.  The march is the lockstep march of `experiments`
(`_Lockstep`), behind every run; the grid rule's sizing march drives the
same `EnvelopeStepper`:

* `MASS_DRIFT`: |‖ψ‖ - ‖ψ₀‖| after each NLS step above 1e-9 · max(1, ‖ψ₀‖),
  `SolverAbort` (exit 4); `nls.check_step_mass`, after every step of the
  lockstep march.
* `BOUNDARY`: max |ψ| at the ends of the lab grid above 1e-8,
  `InvariantViolation` (exit 3); at every observation of the lockstep march
  (`nls.check_lab_field`).
* `FOURIER_TAIL`: the fraction of ψ's energy at |k| ≥ ¾ k_Nyquist above
  τ = 1e-20, `SolverAbort` (exit 4); at every observation of the lockstep
  march, after the boundary.  τ also defines η_τ in
  `experiments.lab_grid_rule`.
* `ENVELOPE_EDGE`: max |u| at the ends of the y-grid above
  1e-8 · max(1, ‖u₀‖), `InvariantViolation` (exit 3); `EnvelopeStepper` on
  its initial profile and after every step, in the lockstep march and in the
  grid rule's sizing march.  The sizing march runs in
  `experiments.study_setup` before any lab grid is sized, where the failure
  is a `ConfigError` (exit 2), like every failure of the set-up.
* `ENVELOPE_MASS`: |‖u‖ - ‖u₀‖| after each envelope step above
  1e-8 · max(1, ‖u₀‖), `SolverAbort` (exit 4).
* `ENVELOPE_SUPPORT`: τ_y = 1e-13, a cut rather than a guard.  The grid
  rule's sizing march measures Y_τ, the largest |y| at which |u| exceeds
  τ_y · max|u| at any of its steps, and the run envelopes march on the
  smallest centred power-of-two slice of the y-grid that holds |y| ≤ Y_τ
  (`experiments.lab_grid_rule` and `experiments.study_setup`).  τ_y sits
  above the FFT roundoff floor (about 1e-15 of the peak), which fills the
  whole y-grid after the first step; `ENVELOPE_EDGE` guards the ends of
  that run window at every step.
* `CORRECTION_NORM`: the L² norm of a correction component above 1e6,
  `SolverAbort` (exit 4); at every observation of a single-packet run
  (`experiments.run_single_packet` and `experiments.convergence_study`).

Checks outside the marches keep their own thresholds and classes: the
trajectory blow-up guard (|x| or |ξ| above 1e8, exit 4), the transport
oracle's eigen-residual (above 1e-6, exit 4), and the decomposition's
projector completeness (1e-11) and eigen-residual (1e-9), both exit 3.
"""

from dataclasses import dataclass


class AdiapackError(Exception):
    exit_code = 1


class ConfigError(AdiapackError):
    """Invalid configuration. Carries the full list of violations."""

    exit_code = 2

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class InvariantViolation(AdiapackError):
    """A numerical invariant (orthonormality, residual bound, ...) failed."""

    exit_code = 3


class BranchTrackingError(InvariantViolation):
    """Eigenvalue-branch continuation could not be resolved at some point."""

    def __init__(self, x, message=""):
        self.x = x
        super().__init__(message or f"unresolvable branch crossing near x = {x}")


class SolverAbort(AdiapackError):
    """A propagation run tripped a guard (blow-up, mass drift, resonance)."""

    exit_code = 4


@dataclass
class Guard:
    """One run-time invariant: its name, its tolerance and the error past it."""

    name: str
    tol: float
    error: type
    remedy: str = ""

    def check(self, value: float, scale: float = 1.0, where: str = "") -> float:
        """Return `value`; raise `error` when it exceeds `tol · scale`."""
        limit = self.tol * scale
        if value > limit:
            remedy = f"; {self.remedy}" if self.remedy else ""
            raise self.error(f"{self.name} {value:.3e} above {limit:.1e}"
                             f"{where}{remedy}")
        return float(value)


MASS_DRIFT = Guard("mass drift", 1e-9, SolverAbort)
BOUNDARY = Guard("boundary magnitude", 1e-8, InvariantViolation,
                 "enlarge the domain")
FOURIER_TAIL = Guard("Fourier tail", 1e-20, SolverAbort,
                     "the lab grid is too coarse for the packet's momentum")
ENVELOPE_EDGE = Guard("envelope magnitude at the y-domain edge", 1e-8,
                      InvariantViolation,
                      "the profile left the comoving window; enlarge y_half_width")
ENVELOPE_MASS = Guard("envelope mass drift", 1e-8, SolverAbort)
ENVELOPE_SUPPORT = 1e-13
CORRECTION_NORM = Guard("correction norm", 1e6, SolverAbort)
