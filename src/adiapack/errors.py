"""Exception hierarchy shared across the package.

Each class carries the exit code the `adiapack` command returns for it:
configuration problems (2), violated numerical invariants (3), and runtime
aborts such as blow-up guards or mass-drift trips (4).

Mass drift has one guard: every NLS march (`nls.solve_nls` and both run
paths in `experiments`) calls `nls.check_step_mass` after each step, which
raises `SolverAbort` (exit 4) once |‖ψ‖ - ‖ψ₀‖| exceeds 1e-9 · max(1, ‖ψ₀‖).
"""


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
