"""Scalar semiclassical propagators and the driven off-mode corrections.

Each correction component rides a scalar branch equation

    iε ∂_t g + (ε²/2) ∂_x² g − λ_j(x) g = φ r,      g(0) = 0,

driven by the mode-1 packet φ times a coupling coefficient r.  Propagation is
a symmetric split step U(dt) (half branch phase e^{-iλ dt/2ε}, exact kinetic
multiplier e^{-iεk²dt/2}, half phase); the source enters once per step at the
step midpoint by the midpoint Duhamel rule

    g(t + dt) = U(dt) g(t) + dt/(iε) · U(dt/2) (φ r)(t + dt/2),

second order in dt.  The marches carry h = U(dt/2) g, half a step ahead,
and step it as

    h ← U(dt) (h + dt/(iε) · (φ r)(t + dt/2))

(`ScalarPropagator.duhamel_step`, the one copy of the rule): one split step
per step instead of two.  For exact propagators, where U(dt/2)U(dt/2) = U(dt)
and the two commute, this is the rule above; split steps compose differently,
so with them it is a second second-order scheme, O(dt²) from the first.
g = U(-dt/2) h (`ScalarPropagator.recover`, the exact inverse of a symmetric
split step) is formed only where g is read.  A step makes one new array and
does the transforms (`numpy.fft`, `out=`) and both phase products in place on
it; the Duhamel step makes one more, for h plus the source.

`averaging_probe` measures ‖(1/iε) ∫₀ᵗ U_k(-s) U_j(s) f ds‖: for j = k it
grows like t/ε, while for j ≠ k the branch-phase mismatch averages the
integrand out and the norm stays bounded as ε shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CORRECTION_NORM
from .grids import ScalarField, SpatialGrid, VectorField, l2_norm, sigma_norm

__all__ = ["ScalarPropagator", "CorrectionSeries", "solve_correction",
           "assemble_correction", "averaging_probe"]


class ScalarPropagator:
    """Split-step propagator for one scalar branch at fixed ε, phases cached per dt."""

    def __init__(self, grid: SpatialGrid, lam_values: np.ndarray, epsilon: float):
        self.grid = grid
        self.lam = np.asarray(lam_values, dtype=float)
        self.epsilon = float(epsilon)
        self._cache = {}

    def _phases(self, dt):
        pair = self._cache.get(dt)
        if pair is None:
            half = np.exp(-0.5j * self.lam * dt / self.epsilon)
            kin = np.exp(-0.5j * self.epsilon * self.grid.frequencies**2 * dt)
            pair = (half, kin)
            self._cache[dt] = pair
        return pair

    def step(self, values: np.ndarray, dt: float) -> np.ndarray:
        """One split step of `values` into a new array (the input is not modified)."""
        half, kin = self._phases(dt)
        out = half * values
        np.fft.fft(out, out=out)
        out *= kin
        np.fft.ifft(out, out=out)
        out *= half
        return out

    def duhamel_step(self, carried: np.ndarray, source_mid: np.ndarray,
                     dt: float) -> np.ndarray:
        """U(dt)(h + dt/(iε)·source_mid), the midpoint Duhamel rule on the
        carried h = U(dt/2) g, into a new array.

        `source_mid` is the source (φ r) sampled at the step midpoint t + dt/2.
        """
        return self.step(carried + (dt / (1j * self.epsilon)) * source_mid, dt)

    def recover(self, carried: np.ndarray, dt: float) -> np.ndarray:
        """g = U(-dt/2) h, the correction that the carried h stands for."""
        return self.step(carried, -0.5 * dt)


@dataclass(frozen=True, eq=False)
class CorrectionSeries:
    """Stored time slices of one correction component with its norm log."""

    times: np.ndarray = field(repr=False)
    values: list = field(repr=False)
    sigma_log: dict = field(repr=False)


def solve_correction(grid: SpatialGrid, lam_values: np.ndarray, coupling_fn,
                     phi_fn, epsilon: float, T: float, dt: float,
                     store_times=None, log_p=(0, 1)) -> CorrectionSeries:
    """March one correction component from g(0) = 0 and log its scaled norms.

    `coupling_fn(t)` and `phi_fn(t)` return r and φ on the grid; sources are
    evaluated at step midpoints only.  The march carries h = U(dt/2) g and
    recovers g at the stored times.  Aborts (`errors.CORRECTION_NORM`,
    exit 4) if the L² norm passes 1e6 (resonance or under-resolution).
    """
    n_steps = int(round(T / dt))
    if store_times is None:
        store_times = np.array([0.0, T])
    store_times = np.asarray(store_times, dtype=float)
    targets = np.rint(store_times / dt).astype(int)
    if np.max(np.abs(targets * dt - store_times)) > 1e-9:
        raise ValueError("store_times must be multiples of dt")

    prop = ScalarPropagator(grid, lam_values, epsilon)
    h = np.zeros(grid.n, dtype=complex)      # carried: U(dt/2) g
    out_times, out_values = [], []
    sigma_log = {p: [] for p in log_p}

    def record(t):
        g = prop.recover(h, dt)
        out_times.append(t)
        out_values.append(g)
        f = ScalarField(grid=grid, values=g, epsilon=epsilon, time=t)
        for p in log_p:
            sigma_log[p].append(sigma_norm(f, p).value)
        return g

    target_set = set(int(i) for i in targets)
    if 0 in target_set:
        record(0.0)
    for step in range(n_steps):
        t_mid = (step + 0.5) * dt
        src = phi_fn(t_mid) * coupling_fn(t_mid)
        h = prop.duhamel_step(h, src, dt)
        if step + 1 in target_set:
            g = record((step + 1) * dt)
            CORRECTION_NORM.check(l2_norm(grid, g),
                                  where=f" at t = {(step + 1) * dt}")
    return CorrectionSeries(times=np.asarray(out_times), values=out_values,
                            sigma_log=sigma_log)


def assemble_correction(components: dict, data, epsilon: float,
                        time: float = 0.0) -> VectorField:
    """Combine scalar components into g = Σ g_{j,ℓ} χ_j^ℓ on the data grid.

    `components` maps (j, ℓ) to value arrays already sampled at a common time;
    the frames are the static off-mode eigenvectors of the decomposition.
    """
    n = data.grid.n
    n_levels = data.spec.n_levels
    out = np.zeros((n, n_levels), dtype=complex)
    for (j, ell), values in components.items():
        out += values[:, None] * data.frames[j][:, :, ell]
    return VectorField(grid=data.grid, values=out, epsilon=epsilon, time=time)


def averaging_probe(grid: SpatialGrid, lam_j: np.ndarray, lam_k: np.ndarray,
                    f: ScalarField, epsilon: float, t: float, dt: float) -> float:
    """L² norm of (1/iε) ∫₀ᵗ U_k(-s) U_j(s) f ds by midpoint quadrature.

    Implemented in the k-rotated frame: one running j-propagation of f plus a
    k-propagated accumulator, carried half a step ahead by the Duhamel rule
    of `ScalarPropagator.duhamel_step`, so the cost is one j-step and one
    k-step per step, and the final backward rotation (and with it the
    carry's U_k(-dt/2)) drops out of the norm.
    """
    n_steps = int(round(t / dt))
    prop_j = ScalarPropagator(grid, lam_j, epsilon)
    prop_k = ScalarPropagator(grid, lam_k, epsilon)
    f_mid = prop_j.step(f.values, 0.5 * dt)  # f at the first midpoint
    acc = np.zeros(grid.n, dtype=complex)
    for m in range(n_steps):
        acc = prop_k.duhamel_step(acc, f_mid, dt)
        if m + 1 < n_steps:
            f_mid = prop_j.step(f_mid, dt)
    return l2_norm(grid, acc)
