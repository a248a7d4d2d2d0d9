"""Scalar semiclassical propagators and the driven off-mode corrections.

Each correction component rides a scalar branch equation

    iε ∂_t g + (ε²/2) ∂_x² g − λ_j(x) g = φ r,      g(0) = 0,

driven by the mode-1 packet φ times a coupling coefficient r.  Propagation is
a symmetric split step U(dt) (half branch phase e^{-iλ dt/2ε}, exact kinetic
multiplier e^{-iεk²dt/2}, half phase); the source enters once per step at the
step midpoint by the midpoint Duhamel rule

    g(t + dt) = U(dt) g(t) + dt/(iε) · U(dt/2) (φ r)(t + dt/2),

second order in dt.  The lockstep march of `experiments`, the one march of
the corrections, carries h = U(dt/2) g, half a step ahead, and steps it as

    h ← U(dt) (h + dt/(iε) · (φ r)(t + dt/2))

(`ScalarPropagator.duhamel_step`, the one copy of the rule): one split step
per step instead of two.  For exact propagators, where U(dt/2)U(dt/2) = U(dt)
and the two commute, this is the rule above; split steps compose differently,
so with them it is a second second-order scheme, O(dt²) from the first.
g = U(-dt/2) h (`ScalarPropagator.recover`, the exact inverse of a symmetric
split step) is formed only at the observations, where ‖g‖ is checked
against `errors.CORRECTION_NORM`.  A step makes one new array and does the
transforms (`numpy.fft`, `out=`) and both phase products in place on it; the
Duhamel step makes one more, for h plus the source.

`averaging_probe` measures ‖(1/iε) ∫₀ᵗ U_k(-s) U_j(s) f ds‖: for j = k it
grows like t/ε, while for j ≠ k the branch-phase mismatch averages the
integrand out and the norm stays bounded as ε shrinks.
"""

from __future__ import annotations

import numpy as np

from .grids import ScalarField, SpatialGrid, VectorField, l2_norm

__all__ = ["ScalarPropagator", "assemble_correction", "averaging_probe"]


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
    carry's U_k(-dt/2)) drops out of the norm.  t must be a positive
    multiple of dt (`ValueError` otherwise).
    """
    n_steps = int(round(t / dt))
    if n_steps < 1 or abs(n_steps * dt - t) > 1e-9:
        raise ValueError(f"t = {t} is not a positive multiple of dt = {dt}")
    prop_j = ScalarPropagator(grid, lam_j, epsilon)
    prop_k = ScalarPropagator(grid, lam_k, epsilon)
    f_mid = prop_j.step(f.values, 0.5 * dt)  # f at the first midpoint
    acc = np.zeros(grid.n, dtype=complex)
    for m in range(n_steps):
        acc = prop_k.duhamel_step(acc, f_mid, dt)
        if m + 1 < n_steps:
            f_mid = prop_j.step(f_mid, dt)
    return l2_norm(grid, acc)
