"""Exact semiclassical solver for the vector nonlinear Schrödinger equation.

    iε ∂_t ψ + (ε²/2) ∂_x² ψ = V(x) ψ + Λ ε^{2β} |ψ|² ψ,     ψ(0) = ψ₀,

with ψ(t, x) ∈ ℂ^N and V the matrix potential.  β = 3/4 is fixed: only there
is the ε-free envelope equation (`envelope`) the limit, since at another β
its cubic term would carry Λ ε^{2β-3/2} |u|² u, which no ε-free u can.

The splitting is symmetric: a half step of the potential-plus-cubic flow,
which is exact per grid point because V(x) is Hermitian and the flow preserves
|ψ(x)| (applied through the precomputed spectral decomposition of V plus a
scalar phase), then the exact kinetic Fourier multiplier per component, then
another half potential step.  Both substeps are unitary, so mass is conserved
to roundoff.  Because V does not depend on time and the pointwise flow keeps
|ψ|, two adjacent half potential steps are one full one: a march between two
reads of ψ leaves each step's trailing half pending and takes it with the
next step's leading half, P(dt/2)P(dt/2) = P(dt), and closes ψ with a last
half step where it is read (`NLSPropagator.step`'s `pending` and `close`).
That is the same scheme in exact arithmetic, with one potential pass per
step instead of two.  `check_step_mass` is the one per-step mass guard: the
NLS march (the lockstep march of `experiments`) calls it after each step, on
the open state too (the pending phase keeps |ψ|), and a drift beyond 1e-9
raises `SolverAbort` (exit 4).

The lab grid is sized from the packets' spectral content: `lab_grid_points`
takes the smallest power of two n whose half band k_Nyquist/2 = πn/(2L)
holds the momentum bound K = m ξ_max/ε + √m η_τ/√ε, with η_τ measured by
`spectral_half_width` (τ = `errors.FOURIER_TAIL.tol` = 1e-20) on envelopes
that `experiments.lab_grid_rule` marches over the run, once per command.
At run time `check_lab_field` measures the energy fraction of ψ at
|k| ≥ ¾ k_Nyquist at every observation and aborts (`SolverAbort`, exit 4)
above τ.

Fields are (n, N) arrays at the interface; inside a step the propagator works
component-major, on (N, n) rows that are contiguous along x, and hands back
the transpose view of its (N, n) result.

Coherent-state initial data:

    ψ₀(x) = ε^{-1/4} a((x - x₀)/√ε) e^{iξ₀(x - x₀)/ε} χ(x) + r₀^ε(x),

optionally perturbed by r₀^ε = ε^κ × (a second profile in the same coherent
scaling), κ > 1/4.
"""

from __future__ import annotations

import numpy as np

from .errors import BOUNDARY, FOURIER_TAIL, MASS_DRIFT, ConfigError, \
    finite_number
from .grids import SpatialGrid, l2_norm, unit_phase
from .potentials import SpectralData

__all__ = ["NLSPropagator", "build_initial_data", "coherent_packet",
           "kappa_problem",
           "check_step_mass", "check_lab_field", "fourier_tail",
           "project", "mode_populations", "spectral_half_width",
           "lab_grid_points"]


def coherent_packet(grid: SpatialGrid, a, x0: float, xi0: float,
                    epsilon: float) -> np.ndarray:
    """Scalar coherent-state samples ε^{-1/4} a((x-x₀)/√ε) e^{iξ₀(x-x₀)/ε}."""
    y = (grid.points - x0) / np.sqrt(epsilon)
    return epsilon**-0.25 * np.asarray(a(y), dtype=complex) \
        * np.exp(1j * xi0 * (grid.points - x0) / epsilon)


def kappa_problem(kappa) -> str | None:   # the one rule: a finite κ > 1/4
    return None if finite_number(kappa) and kappa > 0.25 else "kappa must exceed 1/4"


def build_initial_data(a, x0: float, xi0: float, chi_values: np.ndarray,
                       epsilon: float, grid: SpatialGrid,
                       r0_spec: tuple | None = None) -> np.ndarray:
    """Polarized coherent state along the (n, N) carrier samples, with an
    optional ε^κ perturbation (κ > 1/4), as an (n, N) array."""
    chi = np.asarray(chi_values)
    values = coherent_packet(grid, a, x0, xi0, epsilon)[:, None] * chi
    if r0_spec is not None:
        kappa, r_profile = r0_spec
        if problem := kappa_problem(kappa):
            raise ConfigError(problem)
        bump = coherent_packet(grid, r_profile, x0, xi0, epsilon)
        values = values + epsilon**kappa * bump[:, None] * chi
    return values


class NLSPropagator:
    """Split-step machinery with the potential exponentials precomputed.

    The half- and full-step matrices exp(-i τ V(x)/ε), τ = dt/2 and dt, are
    assembled once per grid point from the spectral data (V is time
    independent) and stored component-major, as (N, N, n) arrays: entry
    (a, b) is a contiguous row over the grid, so a potential step is N² row
    products.  The cubic term adds a scalar phase on top each step.  The
    kinetic step transforms the (N, n) buffer along its last axis in place
    (`numpy.fft` with `out=`).

    `step` takes an (n, N) array, in any memory layout, and returns an (n, N)
    array that is the transpose view of a fresh (N, n) buffer; passing that
    result back in reads its rows without a copy.  The input is never
    modified.
    """

    def __init__(self, data: SpectralData, epsilon: float, lambda_coupling: float,
                 dt: float):
        self.epsilon = float(epsilon)
        self.dt = float(dt)
        # ε^{2β} = ε^{3/2} coupling divided by the iε of the time derivative
        self.nl_rate = lambda_coupling * epsilon ** 1.5 / epsilon
        self._mix = {}
        for frac in (0.5, 1.0):
            phases = [np.exp(-1j * frac * lam * dt / epsilon)
                      for lam in data.branches]
            mix = sum(ph[:, None, None] * pi
                      for ph, pi in zip(phases, data.projectors))
            self._mix[frac] = np.ascontiguousarray(mix.transpose(1, 2, 0))
        self._kin = np.exp(-0.5j * epsilon * data.grid.frequencies**2 * dt)

    def _potential(self, comps: np.ndarray, frac: float) -> np.ndarray:
        """Potential-plus-cubic step over frac·dt (frac = ½ or 1) of the
        (N, n) rows `comps`, into a new buffer."""
        mix = self._mix[frac]
        out = np.empty(comps.shape, dtype=complex)
        term = np.empty(comps.shape[1], dtype=complex)
        for a, row in enumerate(out):
            np.multiply(mix[a, 0], comps[0], out=row)
            for b in range(1, len(comps)):
                np.multiply(mix[a, b], comps[b], out=term)
                row += term
        if self.nl_rate != 0.0:
            re, im = out.real, out.imag
            dens = (re * re + im * im).sum(axis=0)
            out *= unit_phase(-frac * self.dt * self.nl_rate * dens)
        return out

    def step(self, values: np.ndarray, pending: bool = False,
             close: bool = True) -> np.ndarray:
        """One Strang step P(dt/2) K(dt) P(dt/2) of `values`.

        `pending`: `values` still owes the trailing P(dt/2) of the step
        before, so the leading phase is one full P(dt).  `close=False`
        leaves this step's trailing P(dt/2) pending in the result, to be
        taken by the next call's `pending`; a march closes ψ wherever it
        reads it.
        """
        out = self._potential(values.T, 1.0 if pending else 0.5)
        np.fft.fft(out, axis=-1, out=out)
        out *= self._kin
        np.fft.ifft(out, axis=-1, out=out)
        if close:
            out = self._potential(out, 0.5)
        return out.T


def check_step_mass(grid: SpatialGrid, values: np.ndarray, mass0: float,
                    step: int) -> float:
    """The per-step mass guard of every NLS march.

    Returns the drift |‖ψ‖ - ‖ψ₀‖| after `step` steps and raises
    `SolverAbort` (exit 4) when it exceeds 1e-9 · max(1, ‖ψ₀‖).
    """
    drift = abs(l2_norm(grid, values) - mass0)
    return MASS_DRIFT.check(drift, max(1.0, mass0), f" at step {step}")


def _boundary_magnitude(values: np.ndarray) -> float:
    return float(max(np.abs(values[0]).max(), np.abs(values[-1]).max()))


def fourier_tail(values: np.ndarray) -> float:
    """Energy fraction of (n,) or (n, N) `values` at |k| ≥ ¾ k_Nyquist (0 for zero values)."""
    n = values.shape[0]
    spec = np.fft.fft(values, axis=0)
    energy = spec.real**2 + spec.imag**2
    total = energy.sum()
    if total == 0.0:
        return 0.0
    # |fft index| ≥ 3n/8, the Nyquist index n/2 included
    return float(energy[3 * n // 8: 5 * n // 8 + 1].sum() / total)


def check_lab_field(values: np.ndarray, t: float) -> float:
    """The lab-field guards of an observation: boundary, then Fourier tail.

    Raises `InvariantViolation` (exit 3) when |ψ| at either end of the grid
    exceeds 1e-8, and `SolverAbort` (exit 4) when the energy fraction at
    |k| ≥ ¾ k_Nyquist exceeds τ = 1e-20.  Returns that fraction.
    """
    where = f" at t = {t}"
    BOUNDARY.check(_boundary_magnitude(values), where=where)
    return FOURIER_TAIL.check(fourier_tail(values), where=where)


def project(projectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Π ψ of (..., n, N, N) `projectors` and (n, N) `values`:
    Σ_b Π[..., b] ψ[:, b]; the (P, n, N, N) stack gives every Π_j ψ at once."""
    out = projectors[..., 0] * values[:, :1]
    for b in range(1, values.shape[1]):
        out += projectors[..., b] * values[:, b:b + 1]
    return out


def mode_populations(projections: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Branch masses ‖Π_j ψ‖² of the projections Π_j ψ (`project`) on
    `grid` (they sum to the total mass)."""
    return np.array([l2_norm(grid, p) ** 2 for p in projections])


def spectral_half_width(y_grid: SpatialGrid, values: np.ndarray) -> float:
    """η_τ of the profile samples `values` on the ε-free `y_grid`.

    The smallest |η| on the grid's wavenumber lattice such that the energy at
    larger |η| is at most τ = `errors.FOURIER_TAIL.tol` times the total.
    """
    n = y_grid.n
    shell = np.abs(np.fft.fftfreq(n, 1.0 / n)).astype(int)  # |index|, 0 … n/2
    spec = np.fft.fft(np.asarray(values, dtype=complex))
    energy = np.bincount(shell, weights=spec.real**2 + spec.imag**2)
    # energy strictly above each shell, summed from the top so that a tail
    # 1e-20 below the total is not lost to cancellation
    above = np.append(np.cumsum(energy[::-1])[::-1][1:], 0.0)
    first = int(np.argmax(above <= FOURIER_TAIL.tol * energy.sum()))
    return first * 2.0 * np.pi / y_grid.length


# the largest lab or envelope grid a run may build: 2**20 complex points, a
# 16 MB field; the rule's size at an ε beyond it is refused, not allocated
MAX_GRID_POINTS = 2**20
# a study's work, refused before it starts: its steps over all ε (16x the
# largest shipped study's; the set-up takes about 5 s per 1e5 steps) and its
# lab grid points times steps (330x the largest shipped study's, 3e7)
MAX_STEPS, MAX_POINT_STEPS = 10**5, 10**10


def lab_grid_points(length: float, epsilon: float, xi_max: float, eta: float,
                    n_packets: int = 1, n_override: int | None = None) -> int:
    """The lab grid size: the smallest power of two n with K ≤ k_Nyquist/2.

    The coherent state ε^{-1/4} u((x - x(t))/√ε) e^{iξ(t)x/ε} has its
    Fourier content in |k| ≲ |ξ(t)|/ε + η(t)/√ε.  K = m ξ_max/ε + √m η/√ε
    bounds it, with ξ_max the largest |ξ| on the packets' trajectories, η the
    largest `spectral_half_width` of their envelopes over the run, and m = 1
    for one packet or 3 for several (the cubic term's 2ξ_a - ξ_b mixing
    products); k_Nyquist = πn/length.  The bound is derived, never searched
    for by sampling ψ₀ on coarse grids, where content above Nyquist aliases
    and the top band can look empty.  A given
    `n_override` is returned when it meets the same criterion and is a
    `ConfigError` otherwise, and so is a rule size above `MAX_GRID_POINTS`.
    """
    m = 1 if n_packets == 1 else 3
    k_bound = m * xi_max / epsilon + np.sqrt(m) * eta / np.sqrt(epsilon)

    def adequate(n):
        return k_bound <= 0.5 * np.pi * n / length

    n = 8
    while not adequate(n):
        n *= 2
        if n > MAX_GRID_POINTS:
            raise ConfigError(
                f"the lab grid rule needs more than 2**20 points at epsilon "
                f"= {epsilon}: momentum bound K = {k_bound:.4g}")
    if n_override is None:
        return n
    if not adequate(n_override):
        raise ConfigError(
            f"grid.n = {n_override} violates the spectral adequacy rule at "
            f"epsilon = {epsilon}: momentum bound K = {k_bound:.4g} needs "
            f"k_Nyquist >= {2.0 * k_bound:.4g} (n >= {n})")
    return n_override
