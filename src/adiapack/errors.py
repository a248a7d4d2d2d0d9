"""Exception hierarchy and the one guard policy shared across the package.

Each class carries its exit code and its report (the failure `kind` of
`failure.json` and the `label` of each stderr line): `ConfigError` (2),
`InvariantViolation` (3) and `SolverAbort` (4).  Every threshold that bounds
a value from above is one `Guard` below, one tolerance and one class at every
call site, and a NaN fails it.  The march is the lockstep march of
`experiments` behind every run; the sizing march of `experiments.study_setup`,
where any failure is a `ConfigError`, drives the same `EnvelopeStepper` along
the same paths, one per packet.

* `TRAJECTORY_BLOWUP`: max(|x|, |ξ|) above 1e8, `SolverAbort`; after every
  step of `classical.integrate_trajectory`.
* `PROJECTOR_COMPLETENESS`: |Σ_j Π_j − 1| above 1e-11, then
  `DECOMPOSITION_RESIDUAL`: |VΠ_j − λ_j Π_j| above 1e-9, `InvariantViolation`;
  at every point of a `potentials.decompose` grid.
* `FRAME_RESIDUAL`: |Vχ − λχ| of a transported frame above 1e-6,
  `SolverAbort`; `eigenframe.transport_frame`, the oracle.
* `MASS_DRIFT`: |‖ψ‖ - ‖ψ₀‖| above 1e-9 · max(1, ‖ψ₀‖), `SolverAbort`; after
  every NLS step of the march (`nls.check_step_mass`).
* `BOUNDARY`: max |ψ| at the ends of the lab grid above 1e-8,
  `InvariantViolation`, then `FOURIER_TAIL`: the fraction of ψ's energy at
  |k| ≥ ¾ k_Nyquist above τ = 1e-20, `SolverAbort`; at every observation of
  the march (`nls.check_lab_field`).  In `experiments.lab_grid_rule` a packet
  above 1e-8 past the lab domain is a `ConfigError` naming `grid.x_min` or
  `grid.x_max`, and τ defines η_τ: one that reaches the y-grid's Nyquist
  limit π/Δy is a `ConfigError` naming `y_points`.  A ψ₀ with a tail above
  τ, its ends within `BOUNDARY`, is one naming `grid.n` (`_Lane`).
* `ENVELOPE_EDGE`: max |u| at the ends of the y-grid above 1e-8 · max(1, ‖u₀‖),
  `InvariantViolation`, on the initial profile and after every step, and
  `ENVELOPE_MASS`: |‖u‖ - ‖u₀‖| after each step above the same, `SolverAbort`;
  `EnvelopeStepper`.
* `CORRECTION_NORM`: the L² norm of a correction component above 1e6,
  `SolverAbort`; at every observation of a single-packet run.

`ENVELOPE_SUPPORT`, τ_y = 1e-13, is a cut, not a guard: the run envelopes
march on the smallest centred power-of-two slice of the y-grid that holds
every |y| where the sizing march saw |u| above τ_y · max|u| (Y_τ).  τ_y sits
above the FFT roundoff floor (about 1e-15 of the peak), which fills the whole
y-grid after the first step; `ENVELOPE_EDGE` guards that window's ends.

Three checks are no `Guard`, as none bounds a value from above; each is an
`InvariantViolation` in `potentials`: two lower bounds, the branch-tracking
tie (eigenvalue distances within 1e-14, `BranchTrackingError`) and the
identities' degenerate gap (below 1e-12), and a count, the declared
multiplicities against the grouping found on the grid.
"""

import math
import numbers
from dataclasses import dataclass


def finite_number(value) -> bool:
    """The one finite-number rule: a real number, not a bool, inf or NaN.
    An integer beyond the float range is not finite (no `OverflowError`)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class AdiapackError(Exception):
    exit_code, kind, label = 1, "error", "error"

    @property
    def messages(self) -> list:   # the report's lines
        return [str(self)]


class ConfigError(AdiapackError):
    """Invalid configuration. Carries the full list of violations."""

    exit_code, kind, label = 2, "config", "config error"

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))

    @property
    def messages(self) -> list:
        return self.errors


class InvariantViolation(AdiapackError):
    """A numerical invariant (orthonormality, residual bound, ...) failed."""

    exit_code, kind, label = 3, "invariant", "numerical invariant failed"


class BranchTrackingError(InvariantViolation):
    """Eigenvalue-branch continuation could not be resolved at some point."""

    def __init__(self, x, message=""):
        self.x = x
        super().__init__(message or f"unresolvable branch crossing near x = {x}")


class SolverAbort(AdiapackError):
    """A propagation run tripped a guard (blow-up, mass drift, resonance)."""

    exit_code, kind, label = 4, "abort", "runtime abort"


@dataclass
class Guard:
    """One run-time invariant: its name, its tolerance and the error past it."""

    name: str
    tol: float
    error: type
    remedy: str = ""

    def check(self, value: float, scale: float = 1.0, where: str = "") -> float:
        """Return `value`; raise `error` unless it is at most `tol · scale`."""
        limit = self.tol * scale
        if not value <= limit:
            remedy = f"; {self.remedy}" if self.remedy else ""
            raise self.error(f"{self.name} {value:.3e} above {limit:.1e}"
                             f"{where}{remedy}")
        return float(value)


TRAJECTORY_BLOWUP = Guard("trajectory blow-up max(|x|, |ξ|)", 1e8, SolverAbort)
PROJECTOR_COMPLETENESS = Guard("projector completeness |ΣΠ - 1|", 1e-11,
                               InvariantViolation)
DECOMPOSITION_RESIDUAL = Guard("eigen-residual |VΠ - λΠ|", 1e-9,
                               InvariantViolation)
FRAME_RESIDUAL = Guard("transported frame eigen-residual", 1e-6, SolverAbort,
                       "gap too small or dt too large")
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
