"""Exact semiclassical solver for the vector nonlinear Schrödinger equation.

    iε ∂_t ψ + (ε²/2) ∂_x² ψ = V(x) ψ + Λ ε^{2β} |ψ|² ψ,     ψ(0) = ψ₀,

with ψ(t, x) ∈ ℂ^N and V the matrix potential.  β defaults to 3/4 (the
coupling scaling that makes the envelope equation genuinely nonlinear for
coherent-state data); other β are exposed for experiments.

The splitting is symmetric: a half step of the potential-plus-cubic flow,
which is exact per grid point because V(x) is Hermitian and the flow preserves
|ψ(x)| (applied through the precomputed spectral decomposition of V plus a
scalar phase), then the exact kinetic Fourier multiplier per component, then
another half potential step.  Both substeps are unitary, so mass is conserved
to roundoff.  `check_step_mass` is the one per-step mass guard: every NLS
march (`solve_nls`, `run_single_packet`, `superposition_experiment`) calls it
after each step, and a drift beyond 1e-9 raises `SolverAbort` (exit 4).

Fields are (n, N) arrays at the interface; inside a step the propagator works
component-major, on (N, n) rows that are contiguous along x, and hands back
the transpose view of its (N, n) result.

Coherent-state initial data:

    ψ₀(x) = ε^{-1/4} a((x - x₀)/√ε) e^{iξ₀(x - x₀)/ε} χ(x) + r₀^ε(x),

optionally perturbed by r₀^ε = ε^κ × (a second profile in the same coherent
scaling), κ > 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import ConfigError, InvariantViolation, SolverAbort
from .grids import SpatialGrid, VectorField, l2_norm, unit_phase
from .potentials import SpectralData

__all__ = ["FieldState", "NLSPropagator", "build_initial_data", "coherent_packet",
           "step_nls", "solve_nls", "check_step_mass", "mode_populations",
           "adequate_spacing", "required_points", "check_grid_adequacy"]

_STEP_MASS_TOL = 1e-9
_BOUNDARY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FieldState:
    """ℂ^N wavefunction snapshot with its coupling constant."""

    field: VectorField
    lambda_coupling: float

    @property
    def grid(self) -> SpatialGrid:
        return self.field.grid

    @property
    def epsilon(self) -> float:
        return self.field.epsilon

    @property
    def time(self) -> float:
        return self.field.time

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    def mass(self) -> float:
        return l2_norm(self.grid, self.values)


def coherent_packet(grid: SpatialGrid, a, x0: float, xi0: float,
                    epsilon: float) -> np.ndarray:
    """Scalar coherent-state samples ε^{-1/4} a((x-x₀)/√ε) e^{iξ₀(x-x₀)/ε}."""
    y = (grid.points - x0) / np.sqrt(epsilon)
    return epsilon**-0.25 * np.asarray(a(y), dtype=complex) \
        * np.exp(1j * xi0 * (grid.points - x0) / epsilon)


def build_initial_data(a, x0: float, xi0: float, chi_values: np.ndarray,
                       epsilon: float, grid: SpatialGrid,
                       lambda_coupling: float = 0.0,
                       r0_spec: tuple | None = None) -> FieldState:
    """Polarized coherent state, with an optional ε^κ perturbation (κ > 1/4)."""
    chi = np.asarray(chi_values)
    if chi.ndim == 3:  # a frame with its column axis, (n, N, 1)
        chi = chi[:, :, 0]
    elif chi.ndim == 1:
        chi = chi[:, None]
    packet = coherent_packet(grid, a, x0, xi0, epsilon)
    values = packet[:, None] * chi
    if r0_spec is not None:
        kappa, r_profile = r0_spec
        if not kappa > 0.25:
            raise ConfigError("kappa must exceed 1/4")
        bump = coherent_packet(grid, r_profile, x0, xi0, epsilon)
        values = values + epsilon**kappa * bump[:, None] * chi
    vf = VectorField(grid=grid, values=values, epsilon=epsilon, time=0.0)
    return FieldState(field=vf, lambda_coupling=lambda_coupling)


class NLSPropagator:
    """Split-step machinery with the potential exponentials precomputed.

    The half-step matrix exp(-i dt V(x)/2ε) is assembled once per grid point
    from the spectral data (V is time independent) and stored component-major,
    as an (N, N, n) array: entry (a, b) is a contiguous row over the grid, so
    the potential half step is N² row products.  The cubic term adds a scalar
    phase on top each step.  The kinetic step transforms the (N, n) buffer
    along its last axis in place.

    `step` takes an (n, N) array, in any memory layout, and returns an (n, N)
    array that is the transpose view of a fresh (N, n) buffer; passing that
    result back in reads its rows without a copy.  The input is never
    modified.
    """

    def __init__(self, data: SpectralData, epsilon: float, lambda_coupling: float,
                 dt: float, beta: float = 0.75):
        self.data = data
        self.grid = data.grid
        self.epsilon = float(epsilon)
        self.lambda_coupling = float(lambda_coupling)
        self.dt = float(dt)
        # ε^{2β} coupling divided by the iε of the time derivative
        self.nl_rate = lambda_coupling * epsilon ** (2.0 * beta) / epsilon
        phases = [np.exp(-0.5j * lam * dt / epsilon) for lam in data.branches]
        half_v = sum(ph[:, None, None] * pi
                     for ph, pi in zip(phases, data.projectors))
        self._half_v = np.ascontiguousarray(half_v.transpose(1, 2, 0))
        self._kin = np.exp(-0.5j * epsilon * self.grid.frequencies**2 * dt)

    def _pot_half(self, comps: np.ndarray) -> np.ndarray:
        """Half potential-plus-cubic step of the (N, n) rows `comps`, into a new buffer."""
        half_v = self._half_v
        out = np.empty(comps.shape, dtype=complex)
        term = np.empty(comps.shape[1], dtype=complex)
        for a, row in enumerate(out):
            np.multiply(half_v[a, 0], comps[0], out=row)
            for b in range(1, len(comps)):
                np.multiply(half_v[a, b], comps[b], out=term)
                row += term
        if self.nl_rate != 0.0:
            re, im = out.real, out.imag
            dens = (re * re + im * im).sum(axis=0)
            out *= unit_phase(-0.5 * self.dt * self.nl_rate * dens)
        return out

    def step(self, values: np.ndarray) -> np.ndarray:
        out = self._pot_half(values.T)
        out = scipy.fft.fft(out, axis=-1, overwrite_x=True)
        out *= self._kin
        out = scipy.fft.ifft(out, axis=-1, overwrite_x=True)
        return self._pot_half(out).T


def step_nls(state: FieldState, v_data: SpectralData, dt: float,
             beta: float = 0.75) -> FieldState:
    """Single split step (convenience wrapper; reuse NLSPropagator for runs)."""
    prop = NLSPropagator(v_data, state.epsilon, state.lambda_coupling, dt, beta)
    mass0 = state.mass()
    values = prop.step(state.values)
    check_step_mass(state.grid, values, mass0, 1)
    vf = VectorField(grid=state.grid, values=values, epsilon=state.epsilon,
                     time=state.time + dt)
    return FieldState(field=vf, lambda_coupling=state.lambda_coupling)


def check_step_mass(grid: SpatialGrid, values: np.ndarray, mass0: float,
                    step: int) -> float:
    """The per-step mass guard of every NLS march.

    Returns the drift |‖ψ‖ - ‖ψ₀‖| after `step` steps and raises
    `SolverAbort` (exit 4) when it exceeds 1e-9 · max(1, ‖ψ₀‖).
    """
    drift = abs(l2_norm(grid, values) - mass0)
    if drift > _STEP_MASS_TOL * max(1.0, mass0):
        raise SolverAbort(f"mass drift {drift:.3e} at step {step}")
    return drift


def solve_nls(state0: FieldState, v_data: SpectralData, T: float, dt: float,
              observers=None, observe_every: float | None = None,
              beta: float = 0.75, check_boundary: bool = True):
    """Propagate to time T, invoking observers at the configured cadence.

    Each observer is a callable state -> dict; its records are collected in
    order.  Returns (final_state, records).  Mass is checked every step,
    boundary leakage at every observation.
    """
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9:
        raise ValueError("T must be an integer multiple of dt")
    observers = observers or []
    stride = 1 if observe_every is None else int(round(observe_every / dt))
    prop = NLSPropagator(v_data, state0.epsilon, state0.lambda_coupling, dt, beta)

    values = state0.values.astype(complex)
    mass0 = l2_norm(state0.grid, values)
    records = []

    def observe(step):
        t = step * dt
        vf = VectorField(grid=state0.grid, values=values.copy(),
                         epsilon=state0.epsilon, time=t)
        st = FieldState(field=vf, lambda_coupling=state0.lambda_coupling)
        if check_boundary and mass0 > 0:
            edge = max(np.abs(values[0]).max(), np.abs(values[-1]).max())
            if edge > _BOUNDARY_TOL:
                raise InvariantViolation(
                    f"boundary magnitude {edge:.3e} at t = {t}; enlarge the domain"
                )
        rec = {"t": t, "mass": st.mass()}
        for obs in observers:
            rec.update(obs(st))
        records.append(rec)
        return st

    final = observe(0)
    for step in range(n_steps):
        values = prop.step(values)
        check_step_mass(state0.grid, values, mass0, step + 1)
        if (step + 1) % stride == 0 or step + 1 == n_steps:
            final = observe(step + 1)
    return final, records


def mode_populations(state: FieldState, v_data: SpectralData) -> np.ndarray:
    """Branch masses ‖Π_j ψ‖² (they sum to the total mass)."""
    out = np.empty(v_data.n_branches)
    for j in range(v_data.n_branches):
        proj = np.einsum("nab,nb->na", v_data.projectors[j], state.values)
        out[j] = l2_norm(state.grid, proj) ** 2
    return out


def adequate_spacing(epsilon: float, xi_max: float) -> float:
    """Largest spacing ε / (8(|ξ|+1)) at the fastest momentum ξ: at least
    16π ≈ 50 points per wavelength 2πε/|ξ| of e^{iξx/ε} (the +1 is a spread
    margin)."""
    return epsilon / (8.0 * (abs(xi_max) + 1.0))


def required_points(length: float, epsilon: float, xi_max: float) -> int:
    n = 8
    while length / n > adequate_spacing(epsilon, xi_max):
        n *= 2
    return n


def check_grid_adequacy(grid: SpatialGrid, epsilon: float, xi_max: float):
    limit = adequate_spacing(epsilon, xi_max)
    if grid.spacing > limit:
        raise ConfigError(
            f"grid spacing {grid.spacing:.3e} exceeds the adequacy limit "
            f"{limit:.3e} for epsilon={epsilon}, xi_max={xi_max:.3f}"
        )
