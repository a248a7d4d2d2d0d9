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

Inner products are linear in the first slot, conjugate in the second.  The
sign is fixed by the requirement that the assembled correction ε Σ g_{j,ℓ}
χ_j^ℓ cancels (rather than doubles) the off-mode component of the field: the
off-branch amplitude (ψ, χ_j^ℓ) itself solves the driven branch equation with
source ε φ · (-i)(∂_t χ¹ + ξ ∂_x χ¹, χ_j^ℓ), so the subtracted correction must
carry the opposite source.

This module is the independent oracle of the static carrier, so it keeps
`scipy.interpolate.CubicSpline`; the import sits inside the functions that
use it, and the run path, which needs only `coupling_profile`, never loads
`scipy.interpolate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverAbort
from .grids import SpatialGrid, ScalarField, _derivative_values
from .potentials import SpectralData, d_projectors, evaluate_potential, _local_spectral

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
_RESIDUAL_ABORT = 1e-6


def _cdot(a, b):
    """Hermitian inner product, linear in the first argument."""
    return np.sum(a * np.conj(b), axis=-1)


def k_matrix(data: SpectralData, j: int, x: float, h: float) -> np.ndarray:
    """Transport generator K_j(x) = -i[Π_j, ∂Π_j] with a central-difference ∂Π.

    Hermitian by construction: the commutator of two Hermitian matrices is
    anti-Hermitian, and -i times anti-Hermitian is Hermitian.
    """
    _, pis = _local_spectral(data.spec, [x - h, x, x + h])
    dpi = (pis[j, 2] - pis[j, 0]) / (2.0 * h)
    pi = pis[j, 1]
    return -1j * (pi @ dpi - dpi @ pi)


def k_matrix_grid(data: SpectralData, j: int) -> np.ndarray:
    """K_j at every grid point, using the exact gap formula for ∂Π."""
    dpi = d_projectors(data)[j]
    pi = data.projectors[j]
    comm = np.einsum("nab,nbc->nac", pi, dpi) - np.einsum("nab,nbc->nac", dpi, pi)
    return -1j * comm


def initial_frame(data: SpectralData, j: int, x_points) -> np.ndarray:
    """Branch-j eigenvectors of V at the given points, interpolated from the
    decomposition grid and reorthonormalized per point."""
    from scipy.interpolate import CubicSpline

    x_points = np.asarray(x_points, dtype=float)
    spline = CubicSpline(data.grid.points, data.frames[j], axis=0)
    cols = spline(x_points)  # (m, N, d)
    if cols.shape[2] == 1:
        cols = cols / np.linalg.norm(cols, axis=1, keepdims=True)
    else:
        q, r = np.linalg.qr(cols)
        signs = np.sign(np.real(np.einsum("nii->ni", r)))
        signs[signs == 0] = 1.0
        cols = q * signs[:, None, :]
    return cols


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Transported frame samples Y(t, z) for one branch."""

    branch: int
    times: np.ndarray = field(repr=False)
    z_grid: SpatialGrid
    vectors: np.ndarray = field(repr=False)  # (nt, nz, N, d)
    traj: object = field(repr=False)
    data: SpectralData = field(repr=False)
    gram_deviation: float = 0.0
    eigen_residual: float = 0.0
    reorth_drift: tuple = ()

    @property
    def d(self) -> int:
        return self.vectors.shape[3]


def transport_frame(data: SpectralData, j: int, traj, initial_vectors: np.ndarray,
                    z_grid: SpatialGrid, dt: float, T: float | None = None,
                    store_stride: int = 1,
                    reorth_every: int = _REORTH_EVERY) -> EigenFrame:
    """Integrate the transport equation on the comoving z-grid.

    One order-4 step per z node per time step, with the generator interpolated
    at z + x(t) from its grid samples.  Unitarity is re-enforced by
    reorthonormalization every `reorth_every` steps (the drift before each
    correction is logged, never hidden).  Aborts if the frame stops being an
    eigenframe to within 1e-6.
    """
    from scipy.interpolate import CubicSpline

    if T is None:
        T = float(traj.times[-1])
    n_steps = int(round(T / dt))
    x_of, xi_of = traj.x_of, traj.xi_of
    k_spline = CubicSpline(data.grid.points, k_matrix_grid(data, j), axis=0)
    lam_spline = CubicSpline(data.grid.points, data.branches[j])
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
        if (step + 1) % reorth_every == 0:
            gram = np.einsum("zal,zam->zlm", np.conj(y), y)
            eye = np.eye(y.shape[2])
            drift_log.append(float(np.max(np.abs(gram - eye))))
            q, r = np.linalg.qr(y)
            signs = np.sign(np.real(np.einsum("nii->ni", r)))
            signs[signs == 0] = 1.0
            y = q * signs[:, None, :]
        if (step + 1) % store_stride == 0:
            times.append((step + 1) * dt)
            slices.append(y.copy())

    times = np.asarray(times)
    vectors = np.stack(slices, axis=0)

    # invariant sweep over the stored slices
    gram_dev = 0.0
    resid = 0.0
    eye = np.eye(vectors.shape[3])
    check_idx = np.unique(np.linspace(0, len(times) - 1, min(len(times), 16)).astype(int))
    for i in check_idx:
        yv = vectors[i]
        gram = np.einsum("zal,zam->zlm", np.conj(yv), yv)
        gram_dev = max(gram_dev, float(np.max(np.abs(gram - eye))))
        xpos = z + float(x_of(times[i]))
        vmat = evaluate_potential(data.spec, xpos)
        lam = lam_spline(xpos)
        res = np.einsum("zab,zbl->zal", vmat, yv) - lam[:, None, None] * yv
        resid = max(resid, float(np.max(np.sqrt(np.sum(np.abs(res) ** 2, axis=1)))))
    if resid > _RESIDUAL_ABORT:
        raise SolverAbort(
            f"transported frame lost eigenvector property: residual {resid:.3e} "
            f"(gap too small or dt too large)"
        )
    return EigenFrame(branch=j, times=times, z_grid=z_grid, vectors=vectors,
                      traj=traj, data=data, gram_deviation=gram_dev,
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
    from scipy.interpolate import CubicSpline

    i = _slice_index(frame, t)
    z = lab_grid.points - float(frame.traj.x_of(t))
    zg = frame.z_grid.points
    if z.min() < zg[0] or z.max() > zg[-1]:
        raise ValueError("lab grid extends beyond the transported z-domain")
    spline = CubicSpline(zg, frame.vectors[i], axis=0)
    cols = spline(z)
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
    from scipy.interpolate import CubicSpline

    def chi(tt, xx, col):
        i = _slice_index(frame, tt)
        spline = CubicSpline(frame.z_grid.points, frame.vectors[i][:, :, col], axis=0)
        v = spline(xx - float(frame.traj.x_of(tt)))
        return v / np.linalg.norm(v)

    d_t = (chi(t + dt, x, ell) - chi(t - dt, x, ell)) / (2.0 * dt)
    d_x = (chi(t, x + dx, ell) - chi(t, x - dx, ell)) / (2.0 * dx)
    flow = d_t + float(frame.traj.xi_of(t)) * d_x
    other = initial_frame(data, m, np.array([x]))[0, :, 0] if m != frame.branch \
        else chi(t, x, 0)
    return complex(_cdot(flow, other))


def coupling_coefficients(frame1: EigenFrame, data: SpectralData, j: int,
                          ell: int, t: float, lab_grid: SpatialGrid) -> ScalarField:
    """Coupling field r_{j,ℓ}(t, ·) by finite differences on the stored frame.

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
    d_x = _derivative_values(lab_grid, chi_now, 1)
    flow = d_t + float(frame1.traj.xi_of(t)) * d_x
    chi_jl = initial_frame(data, j, lab_grid.points)[:, :, ell]
    values = 1j * _cdot(flow, chi_jl)
    return ScalarField(grid=lab_grid, values=values, epsilon=1.0, time=t)


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
