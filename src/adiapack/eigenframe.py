"""Time-dependent eigenvector frames by parallel transport.

For a branch j with trajectory (x_j(t), ξ_j(t)), the frame columns solve

    i ∂_t Y(t, z) = ξ_j(t) K_j(z + x_j(t)) Y(t, z),
    K_j(x) = -i [Π_j(x), ∂_x Π_j(x)],

on a comoving grid z = x - x_j(t), one independent linear ODE per z node.
The generator K_j is Hermitian, so the flow is unitary: columns stay
orthonormal and remain eigenvectors of V(z + x_j(t)) for all time.  The lab
frame is χ_j^ℓ(t, x) = Y_j^ℓ(t, x - x_j(t)), and the mode-coupling
coefficients driving the corrections are

    r_{j,ℓ}(t, x) = i ( ∂_t χ¹ + ξ(t) ∂_x χ¹ , χ_j^ℓ ).

Frames are plain arrays: (n, N, d) columns on a grid, and a coupling field
the (n,) array of its samples.

Inner products are linear in the first slot, conjugate in the second.  The
sign is fixed by the requirement that the assembled correction ε Σ g_{j,ℓ}
χ_j^ℓ cancels (rather than doubles) the off-mode component of the field: the
off-branch amplitude (ψ, χ_j^ℓ) itself solves the driven branch equation with
source ε φ · (-i)(∂_t χ¹ + ξ ∂_x χ¹, χ_j^ℓ), so the subtracted correction must
carry the opposite source.

This module is the independent oracle of the static carrier; the run path
needs only `coupling_profile`.  Every interpolant here, in x, z and t, is the
not-a-knot `grids.UniformCubicSpline` on the uniform samples of a grid or a
trajectory; between a trajectory's samples the frame reads x and ξ by
its own splines in t, where runs read by `ClassicalTrajectory.at`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FRAME_RESIDUAL
from .grids import SpatialGrid, UniformCubicSpline, spectral_derivative
from .potentials import SpectralData, d_projectors, evaluate_potential, \
    orthonormalize, _tracked_spectrum

__all__ = [
    "EigenFrame",
    "k_matrix",
    "k_matrix_grid",
    "initial_frame",
    "transport_frame",
    "frame_at",
    "parallel_residual",
    "coupling_coefficients",
    "coupling_profile",
]

_REORTH_EVERY = 100


def _cdot(a, b):
    """Hermitian inner product, linear in the first argument."""
    return np.sum(a * np.conj(b), axis=-1)


def k_matrix(data: SpectralData, j: int, x: float, h: float) -> np.ndarray:
    """Transport generator K_j(x) = -i[Π_j, ∂Π_j] with a central-difference ∂Π.

    Hermitian by construction: the commutator of two Hermitian matrices is
    anti-Hermitian, and -i times anti-Hermitian is Hermitian.
    """
    *_, pis = _tracked_spectrum(data.spec, [x - h, x, x + h])
    dpi = (pis[j, 2] - pis[j, 0]) / (2.0 * h)
    pi = pis[j, 1]
    return -1j * (pi @ dpi - dpi @ pi)


def k_matrix_grid(data: SpectralData, j: int) -> np.ndarray:
    """K_j at every grid point, using the exact gap formula for ∂Π."""
    dpi = d_projectors(data)[j]
    pi = data.projectors[j]
    comm = np.einsum("nab,nbc->nac", pi, dpi) - np.einsum("nab,nbc->nac", dpi, pi)
    return -1j * comm


def _grid_spline(grid: SpatialGrid, values) -> UniformCubicSpline:
    """The cubic spline of samples at a grid's points, along axis 0."""
    return UniformCubicSpline(grid.x_min, grid.spacing, values)


def initial_frame(data: SpectralData, j: int, x_points) -> np.ndarray:
    """Branch-j eigenvectors of V at the given points, interpolated from the
    decomposition grid and reorthonormalized per point."""
    x_points = np.asarray(x_points, dtype=float)
    cols = _grid_spline(data.grid, data.frames[j])(x_points)  # (m, N, d)
    if cols.shape[2] == 1:
        return cols / np.linalg.norm(cols, axis=1, keepdims=True)
    return orthonormalize(cols)


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Transported frame samples Y(t, z) for one branch."""

    branch: int
    times: np.ndarray = field(repr=False)
    z_grid: SpatialGrid
    vectors: np.ndarray = field(repr=False)  # (nt, nz, N, d)
    x_of: UniformCubicSpline = field(repr=False)   # x(t) and ξ(t) of the path
    xi_of: UniformCubicSpline = field(repr=False)
    gram_deviation: float = 0.0
    eigen_residual: float = 0.0
    reorth_drift: tuple = ()


def transport_frame(data: SpectralData, j: int, traj, initial_vectors: np.ndarray,
                    z_grid: SpatialGrid, dt: float, T: float | None = None,
                    store_stride: int = 1) -> EigenFrame:
    """Integrate the transport equation on the comoving z-grid.

    One order-4 step per z node per time step, with the generator interpolated
    at z + x(t) from its grid samples.  Unitarity is re-enforced by
    reorthonormalization (`potentials.orthonormalize`) every 100 steps, a
    fixed count (the drift before each correction is logged, never hidden).
    Aborts (`errors.FRAME_RESIDUAL`) if the frame stops being an eigenframe.
    """
    if T is None:
        T = float(traj.times[-1])
    n_steps = int(round(T / dt))
    t0, h = traj.times[0], traj.times[1] - traj.times[0]
    x_of, xi_of = UniformCubicSpline(t0, h, traj.x), UniformCubicSpline(t0, h, traj.xi)
    k_spline = _grid_spline(data.grid, k_matrix_grid(data, j))
    lam_spline = _grid_spline(data.grid, data.branches[j])
    z = z_grid.points

    y = np.asarray(initial_vectors, dtype=complex).copy()
    if y.ndim == 2:
        y = y[:, :, None]

    def rhs(t, yv):
        kmat = k_spline(z + float(x_of(t)))
        return -1j * float(xi_of(t)) * np.einsum("zab,zbl->zal", kmat, yv)

    times = [0.0]
    slices = [y.copy()]
    drift_log = []
    for step in range(n_steps):
        t = step * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % _REORTH_EVERY == 0:
            gram = np.einsum("zal,zam->zlm", np.conj(y), y)
            eye = np.eye(y.shape[2])
            drift_log.append(float(np.max(np.abs(gram - eye))))
            y = orthonormalize(y)
        if (step + 1) % store_stride == 0:
            times.append((step + 1) * dt)
            slices.append(y.copy())

    times = np.asarray(times)
    vectors = np.stack(slices, axis=0)

    # invariant sweep over the stored slices
    gram_devs, resids = [], []
    eye = np.eye(vectors.shape[3])
    check_idx = np.unique(np.linspace(0, len(times) - 1, min(len(times), 16)).astype(int))
    for i in check_idx:
        yv = vectors[i]
        gram = np.einsum("zal,zam->zlm", np.conj(yv), yv)
        gram_devs.append(np.max(np.abs(gram - eye)))
        xpos = z + float(x_of(times[i]))
        vmat = evaluate_potential(data.spec, xpos)
        lam = lam_spline(xpos)
        res = np.einsum("zab,zbl->zal", vmat, yv) - lam[:, None, None] * yv
        resids.append(np.max(np.sqrt(np.sum(np.abs(res) ** 2, axis=1))))
    resid = FRAME_RESIDUAL.check(np.max(resids))   # NaN-safe, unlike max()
    return EigenFrame(branch=j, times=times, z_grid=z_grid, vectors=vectors,
                      x_of=x_of, xi_of=xi_of,
                      gram_deviation=float(np.max(gram_devs)),
                      eigen_residual=resid, reorth_drift=tuple(drift_log))


def _slice_index(frame: EigenFrame, t: float) -> int:
    i = int(np.argmin(np.abs(frame.times - t)))
    if abs(frame.times[i] - t) > 1e-9 + 1e-9 * abs(t):
        raise ValueError(f"t = {t} is not a stored frame time")
    return i


def frame_at(frame: EigenFrame, t: float, lab_grid: SpatialGrid) -> np.ndarray:
    """Lab-frame eigenvectors χ_j^ℓ(t, x) = Y_j^ℓ(t, x - x_j(t)) on a grid.

    Columns are cubic-spline interpolated in z and renormalized per point.
    Raises if any lab point leaves the comoving window.
    """
    i = _slice_index(frame, t)
    z = lab_grid.points - float(frame.x_of(t))
    zg = frame.z_grid.points
    if z.min() < zg[0] or z.max() > zg[-1]:
        raise ValueError("lab grid extends beyond the transported z-domain")
    cols = _grid_spline(frame.z_grid, frame.vectors[i])(z)
    norms = np.linalg.norm(cols, axis=1, keepdims=True)
    return cols / norms


def parallel_residual(frame: EigenFrame, data: SpectralData, m: int, ell: int,
                      t: float, x: float, dt: float = 1e-3,
                      dx: float = 1e-3) -> complex:
    """Finite-difference check of (χ^m, ∂_t χ^ℓ + ξ ∂_x χ^ℓ) at one point.

    Within the transported branch this vanishes (that is the parallel-transport
    property); against another branch's vectors its magnitude equals the
    coupling coefficient there.
    """
    def chi(tt, xx, col):
        i = _slice_index(frame, tt)
        spline = _grid_spline(frame.z_grid, frame.vectors[i][:, :, col])
        v = spline(xx - float(frame.x_of(tt)))
        return v / np.linalg.norm(v)

    d_t = (chi(t + dt, x, ell) - chi(t - dt, x, ell)) / (2.0 * dt)
    d_x = (chi(t, x + dx, ell) - chi(t, x - dx, ell)) / (2.0 * dx)
    flow = d_t + float(frame.xi_of(t)) * d_x
    other = initial_frame(data, m, np.array([x]))[0, :, 0] if m != frame.branch \
        else chi(t, x, 0)
    return complex(_cdot(flow, other))


def coupling_coefficients(frame1: EigenFrame, data: SpectralData, j: int,
                          ell: int, t: float, lab_grid: SpatialGrid) -> np.ndarray:
    """Coupling field r_{j,ℓ}(t, ·), as its (n,) samples on `lab_grid`, by
    finite differences on the stored frame.

    ∂_t χ¹ uses a centered two-point stencil of adjacent stored slices; ∂_x is
    spectral on the interpolated field.  Useful as a cross-check of
    `coupling_profile`, which computes the same object without stencils.
    """
    i = _slice_index(frame1, t)
    if i == 0 or i == len(frame1.times) - 1:
        raise ValueError("need stored slices on both sides of t")
    dt = float(frame1.times[i + 1] - frame1.times[i - 1]) / 2.0
    chi_prev = frame_at(frame1, frame1.times[i - 1], lab_grid)[:, :, 0]
    chi_next = frame_at(frame1, frame1.times[i + 1], lab_grid)[:, :, 0]
    chi_now = frame_at(frame1, t, lab_grid)[:, :, 0]
    d_t = (chi_next - chi_prev) / (2.0 * dt)
    d_x = spectral_derivative(lab_grid, chi_now, 1)
    flow = d_t + float(frame1.xi_of(t)) * d_x
    chi_jl = initial_frame(data, j, lab_grid.points)[:, :, ell]
    return 1j * _cdot(flow, chi_jl)


def coupling_profile(data: SpectralData, j: int, ell: int = 0,
                     source_branch: int = 0) -> np.ndarray:
    """Static profile ρ_{j,ℓ}(x) with r_{j,ℓ}(t, x) = ξ(t) ρ_{j,ℓ}(x).

    For real simple branches the transported frame equals the static
    eigenvector field, so ∂_t χ¹ + ξ ∂_x χ¹ = ξ ∂_x χ₁ and the whole time
    dependence of r sits in ξ(t).  ∂_x χ₁ = (∂Π₁) χ₁ is evaluated with the
    exact gap formula.
    """
    dpi = d_projectors(data)[source_branch]
    chi1 = data.frames[source_branch][:, :, 0]
    dchi = np.einsum("nab,nb->na", dpi, chi1)
    chi_jl = data.frames[j][:, :, ell]
    return 1j * _cdot(dchi, chi_jl)
