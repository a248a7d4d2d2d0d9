import numpy as np
import pytest

from adiapack.classical import BranchCurve, integrate_trajectory
from adiapack.eigenframe import (coupling_coefficients, coupling_profile,
                                 frame_at, initial_frame, k_matrix,
                                 k_matrix_grid, parallel_residual,
                                 transport_frame)
from adiapack.expressions import parse_expr
from adiapack.grids import make_grid
from adiapack.potentials import MatrixPotentialSpec, decompose, \
    evaluate_potential
from tests.test_potentials import constant_direction_family, rotating_family

K_ANALYTIC = np.array([[0.0, -0.5j], [0.5j, 0.0]])
CROSSING_CONTROL = MatrixPotentialSpec.from_strings(
    ["x^2/2", "x^2/2"], ["cos(x)", "sin(x)", "-cos(x)"])


@pytest.fixture(scope="module")
def rotating_data():
    return decompose(rotating_family(), make_grid(-9.0, 9.0, 2048))


@pytest.fixture(scope="module")
def upper_branch_traj():
    branch = BranchCurve.from_expr(parse_expr("x^2/2 + (1+x^2)^(-1/2)"))
    return integrate_trajectory(branch, 0.0, 1.0, 1.0, 1e-3, branch_id=1)


@pytest.fixture(scope="module")
def upper_frame(rotating_data, upper_branch_traj):
    z_grid = make_grid(-7.5, 7.5, 2048)
    init = initial_frame(rotating_data, 1, 0.0 + z_grid.points)
    return transport_frame(rotating_data, 1, upper_branch_traj, init, z_grid,
                           1e-3, T=1.0)


def test_k_matrix_vanishes_for_constant_direction():
    data = decompose(constant_direction_family(), make_grid(-9.0, 9.0, 1024))
    for x in (-1.0, 0.3):
        assert np.max(np.abs(k_matrix(data, 0, x, 1e-3))) < 1e-12
    assert np.max(np.abs(k_matrix_grid(data, 0))) < 1e-12
    assert np.max(np.abs(k_matrix_grid(data, 1))) < 1e-12


def test_k_matrix_rotating_analytic(rotating_data):
    for x in (-2.0, 0.0, 1.3):
        k = k_matrix(rotating_data, 1, x, 1e-3)
        assert np.max(np.abs(k - K_ANALYTIC)) < 1e-5


def test_k_matrix_hermitian(rotating_data):
    for j in (0, 1):
        k = k_matrix(rotating_data, j, 0.7, 1e-3)
        assert np.max(np.abs(k - k.conj().T)) < 1e-12


def test_k_matrix_grid_matches_finite_difference(rotating_data):
    # central differences converge at order 2 to the exact gap-formula values
    kg = k_matrix_grid(rotating_data, 0)
    i = rotating_data.grid.n // 3
    x = rotating_data.grid.points[i]
    err = {h: np.max(np.abs(k_matrix(rotating_data, 0, x, h) - kg[i]))
           for h in (2e-2, 1e-2)}
    assert err[2e-2] / err[1e-2] == pytest.approx(4.0, abs=1.2)


def test_transport_constant_direction_frame_is_static():
    data = decompose(constant_direction_family(), make_grid(-9.0, 9.0, 1024))
    branch = BranchCurve.from_data(data, 0)
    traj = integrate_trajectory(branch, 0.5, 0.0, 1.0, 1e-3)
    z_grid = make_grid(-6.0, 6.0, 512)
    init = initial_frame(data, 0, 0.5 + z_grid.points)
    frame = transport_frame(data, 0, traj, init, z_grid, 1e-3, T=1.0)
    assert np.max(np.abs(frame.vectors - frame.vectors[0])) < 1e-12


@pytest.mark.parametrize("branch", [0, 1])
@pytest.mark.parametrize("family", ["rotating", "crossing_control"])
def test_transported_frame_is_static_lab_frame(family, branch):
    # the run path polarizes packets along the lab decomposition's frame; on
    # a simple branch of a real symmetric V that is the transported frame
    spec = rotating_family() if family == "rotating" else CROSSING_CONTROL
    lab = make_grid(-2.0, 2.0, 256)
    static = decompose(spec, lab).frames[branch][:, :, 0]
    wide = decompose(spec, make_grid(-5.0, 5.0, 2048))
    traj = integrate_trajectory(BranchCurve.from_data(wide, branch), 1.0, 0.0,
                                2.0, 1e-3, branch_id=branch)
    z_grid = make_grid(lab.x_min - float(traj.x.max()) - 0.25,
                       lab.x_max - float(traj.x.min()) + 0.25, 1024)
    frame = transport_frame(wide, branch, traj,
                            initial_frame(wide, branch, 1.0 + z_grid.points),
                            z_grid, 1e-3, T=2.0, store_stride=500)
    chis = [frame_at(frame, t, lab)[:, :, 0] for t in frame.times]
    sign = np.sign(np.sum(chis[0] * static))
    for chi in chis:
        assert np.max(np.abs(chi - sign * static)) < 1e-12


def test_transport_rotating_matches_half_angle_rotation(upper_frame,
                                                        upper_branch_traj):
    # Y(t, z) = ±(cos((z + x(t))/2), sin((z + x(t))/2)) on the upper branch
    frame = upper_frame
    z = frame.z_grid.points
    sign = None
    for i in (0, len(frame.times) // 2, len(frame.times) - 1):
        t = frame.times[i]
        angle = (z + float(upper_branch_traj.x_of(t))) / 2.0
        analytic = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        got = frame.vectors[i][:, :, 0]
        if sign is None:
            sign = np.sign(np.sum(got * analytic))
        assert np.max(np.abs(got - sign * analytic)) < 1e-7


def test_transport_orthonormality(upper_frame):
    assert upper_frame.gram_deviation < 1e-8
    assert upper_frame.eigen_residual < 1e-6


def test_frame_at_t0_matches_initial_vectors(rotating_data, upper_frame):
    lab = make_grid(-2.0, 2.0, 256)
    chi = frame_at(upper_frame, 0.0, lab)[:, :, 0]
    direct = initial_frame(rotating_data, 1, lab.points)[:, :, 0]
    assert np.max(np.abs(chi - direct)) < 1e-9


def test_frame_at_matches_analytic_and_stays_eigen(rotating_data, upper_frame):
    lab = make_grid(-2.0, 2.0, 512)
    t = 0.5
    chi = frame_at(upper_frame, t, lab)[:, :, 0]
    analytic = np.stack([np.cos(lab.points / 2.0), np.sin(lab.points / 2.0)],
                        axis=1)
    sign = np.sign(np.sum(chi * analytic))
    assert np.max(np.abs(chi - sign * analytic)) < 1e-6
    v = evaluate_potential(rotating_data.spec, lab.points)
    lam = lab.points**2 / 2.0 + (1.0 + lab.points**2) ** -0.5
    res = np.einsum("nab,nb->na", v, chi) - lam[:, None] * chi
    assert np.max(np.sqrt(np.sum(np.abs(res) ** 2, axis=1))) < 1e-6


def test_frame_at_rejects_unstored_time(upper_frame):
    with pytest.raises(ValueError):
        frame_at(upper_frame, 0.00037, make_grid(-2.0, 2.0, 64))


def test_frame_at_rejects_out_of_window(upper_frame):
    with pytest.raises(ValueError, match="z-domain"):
        frame_at(upper_frame, 0.0, make_grid(-30.0, 30.0, 64))


def test_parallel_residual_within_branch(upper_frame, rotating_data):
    for (t, x) in ((0.4, 0.3), (0.8, -0.5)):
        res = parallel_residual(upper_frame, rotating_data, 1, 0, t, x)
        assert abs(res) < 1e-6


def test_parallel_residual_cross_branch_equals_coupling(upper_frame,
                                                        rotating_data,
                                                        upper_branch_traj):
    # against the other branch the flow projection is the coupling coefficient,
    # of magnitude |ξ(t)|/2 for this family
    t, x = 0.5, 0.2
    res = parallel_residual(upper_frame, rotating_data, 0, 0, t, x)
    xi = float(upper_branch_traj.xi_of(t))
    assert abs(res) == pytest.approx(abs(xi) / 2.0, abs=1e-4)


def test_coupling_constant_direction_vanishes():
    data = decompose(constant_direction_family(), make_grid(-9.0, 9.0, 1024))
    for j, ell in ((1, 0),):
        rho = coupling_profile(data, j, ell, source_branch=0)
        assert np.max(np.abs(rho)) < 1e-12


def test_coupling_profile_rotating_magnitude(rotating_data):
    rho = coupling_profile(rotating_data, 0, 0, source_branch=1)
    assert np.max(np.abs(np.abs(rho) - 0.5)) < 1e-10


def test_coupling_coefficients_match_profile(rotating_data, upper_frame,
                                             upper_branch_traj):
    # lab domain of length 4π so the frame entries are band-limited for the FFT
    lab = make_grid(-2.0 * np.pi, 2.0 * np.pi, 1024)
    t = 0.5
    r_fd = coupling_coefficients(upper_frame, rotating_data, 0, 0, t, lab)
    xi = float(upper_branch_traj.xi_of(t))
    rho = coupling_profile(rotating_data, 0, 0, source_branch=1)
    from scipy.interpolate import CubicSpline
    rho_lab = CubicSpline(rotating_data.grid.points, rho)(lab.points)
    q = lab.n // 4
    mid = slice(q, -q)
    assert np.max(np.abs(r_fd.values[mid] - xi * rho_lab[mid])) < 2e-5
    assert np.max(np.abs(np.abs(r_fd.values[mid]) - abs(xi) / 2.0)) < 2e-3


def test_coupling_own_branch_projection_vanishes(rotating_data, upper_frame):
    lab = make_grid(-2.0 * np.pi, 2.0 * np.pi, 1024)
    r_own = coupling_coefficients(upper_frame, rotating_data, 1, 0, 0.5, lab)
    q = lab.n // 4
    assert np.max(np.abs(r_own.values[q:-q])) < 1e-6


def test_frame_growth_ratios_bounded(rotating_data):
    # |∂^k χ| / ⟨x⟩^{k(1+n0)} bounded over the window for k = 0, 1, 2 (n0 = 1)
    chi = rotating_data.frames[1][:, :, 0]
    x = rotating_data.grid.points
    w = np.hypot(1.0, x)
    d1 = np.gradient(chi, x, axis=0)
    d2 = np.gradient(d1, x, axis=0)
    for k, arr in ((0, chi), (1, d1), (2, d2)):
        ratios = np.linalg.norm(arr, axis=1) / w ** (2.0 * k)
        assert ratios.max() < 1.1


def test_coupling_growth_ratio_bounded(rotating_data):
    # |r(t, x)| / ⟨x⟩^{1+n0} with n0 = 1; |ρ| = 1/2 so any bounded ξ works
    rho = coupling_profile(rotating_data, 0, 0, source_branch=1)
    w = np.hypot(1.0, rotating_data.grid.points)
    assert np.max(np.abs(rho) / w**2) <= 0.5 + 1e-12
