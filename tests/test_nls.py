import numpy as np
import pytest

from adiapack.errors import ConfigError
from adiapack.grids import l2_norm, make_grid
from adiapack.nls import (NLSPropagator, build_initial_data, fourier_tail,
                          lab_grid_points, mode_populations, project,
                          spectral_half_width, check_step_mass)
from adiapack.potentials import MatrixPotentialSpec, decompose
from tests.test_potentials import diagonal_family, rotating_family


def gaussian(y):
    return np.pi**-0.25 * np.exp(-(y**2) / 2.0)


def free_scalar_spec():
    return MatrixPotentialSpec.from_strings(["0"], ["0"])


def march(data, values, eps, lam, T, dt):
    """ψ(T) from `values` by closed `NLSPropagator.step`s, each one passing
    the run's mass guard."""
    prop = NLSPropagator(data, eps, lam, dt)
    mass0 = l2_norm(data.grid, values)
    for step in range(1, int(round(T / dt)) + 1):
        values = prop.step(values)
        check_step_mass(data.grid, values, mass0, step)
    return values


def test_initial_mass_is_epsilon_independent():
    g = make_grid(-10.0, 10.0, 4096)
    for eps in (0.1, 0.01):
        psi = build_initial_data(gaussian, 0.0, 0.0, np.ones((g.n, 1)), eps, g)
        assert l2_norm(g, psi) == pytest.approx(1.0, abs=1e-6)


def test_initial_peak_near_center():
    g = make_grid(-10.0, 10.0, 4096)
    psi = build_initial_data(gaussian, 1.3, 0.5, np.ones((g.n, 1)), 0.01, g)
    peak = g.points[np.argmax(np.abs(psi[:, 0]))]
    assert abs(peak - 1.3) <= g.spacing


def test_initial_polarization():
    g = make_grid(-10.0, 10.0, 2048)
    data = decompose(rotating_family(), g)
    chi = data.frames[0][:, :, 0]
    psi = build_initial_data(gaussian, 0.0, 0.0, chi, 0.01, g)
    pops = mode_populations(project(data.projectors, psi), g)
    assert pops[0] == pytest.approx(1.0, abs=1e-6)
    assert pops[1] < 1e-10
    assert pops.sum() == pytest.approx(l2_norm(g, psi) ** 2, abs=1e-10)


def test_initial_perturbation_kappa_guard():
    g = make_grid(-10.0, 10.0, 2048)
    with pytest.raises(ConfigError, match="kappa must exceed 1/4"):
        build_initial_data(gaussian, 0.0, 0.0, np.ones((g.n, 1)), 0.01, g,
                           r0_spec=(0.2, gaussian))


def test_free_gaussian_matches_closed_form():
    # V = 0, Λ = 0: the coherent Gaussian spreads exactly as
    # u(t,y) = π^{-1/4}(1+it)^{-1/2} exp(-y²/(2(1+it))) around x₀ + ξ₀t
    eps, T, dt = 0.1, 1.0, 1e-3
    x0, xi0 = 0.0, 1.0
    g = make_grid(-8.0, 8.0, 4096)
    spec = free_scalar_spec()
    data = decompose(spec, g)
    psi0 = build_initial_data(gaussian, x0, xi0, np.ones((g.n, 1)), eps, g)
    final = march(data, psi0, eps, 0.0, T, dt)

    xc = x0 + xi0 * T
    y = (g.points - xc) / np.sqrt(eps)
    u = np.pi**-0.25 / np.sqrt(1.0 + 1j * T) * np.exp(-(y**2) / (2 * (1 + 1j * T)))
    action = 0.5 * xi0**2 * T
    exact = eps**-0.25 * u * np.exp(1j * (action + xi0 * (g.points - xc)) / eps)
    assert l2_norm(g, final[:, 0] - exact) < 1e-8


def test_mass_conservation_nonlinear_matrix():
    eps = 0.05
    g = make_grid(-4.0, 4.0, 4096)
    data = decompose(rotating_family(), g)
    chi = data.frames[0][:, :, 0]
    psi0 = build_initial_data(gaussian, 1.0, 0.0, chi, eps, g)
    mass0 = l2_norm(g, psi0)
    final = march(data, psi0, eps, 1.0, 0.2, 5e-4)
    assert abs(l2_norm(g, final) - mass0) < 1e-10 * mass0


def test_self_convergence_second_order_nonlinear():
    eps = 0.02
    g = make_grid(-2.0, 2.0, 4096)
    data = decompose(rotating_family(), g)
    chi = data.frames[0][:, :, 0]
    T = 0.25
    outs = {}
    for dt in (2e-3, 1e-3, 5e-4):
        psi0 = build_initial_data(gaussian, 1.0, 0.0, chi, eps, g)
        outs[dt] = march(data, psi0, eps, 1.0, T, dt)
    err_coarse = l2_norm(g, outs[2e-3] - outs[1e-3])
    err_fine = l2_norm(g, outs[1e-3] - outs[5e-4])
    assert err_coarse / err_fine == pytest.approx(4.0, abs=0.5)


def test_zero_data_stays_zero():
    g = make_grid(-2.0, 2.0, 512)
    data = decompose(diagonal_family(), g)
    final = march(data, np.zeros((g.n, 2), dtype=complex), 0.1, 1.0, 0.1, 1e-3)
    assert np.all(final == 0.0)


def test_diagonal_potential_decouples_to_scalar_runs():
    # Λ = 0: each component evolves exactly as the matching N = 1 run
    eps, T, dt = 0.05, 0.2, 1e-3
    g = make_grid(-6.0, 6.0, 2048)
    spec2 = MatrixPotentialSpec.from_strings(["x^2/2", "x^2/4"],
                                             ["0", "0", "0"])
    data2 = decompose(spec2, g)
    chi = np.ones((g.n, 2)) / np.sqrt(2.0)
    final2 = march(data2, build_initial_data(gaussian, 0.5, 0.0, chi, eps, g),
                   eps, 0.0, T, dt)

    for col, diag_entry in ((0, "x^2/2"), (1, "x^2/4")):
        spec1 = MatrixPotentialSpec.from_strings([diag_entry], ["0"])
        data1 = decompose(spec1, g)
        psi1 = build_initial_data(
            lambda y: gaussian(y) / np.sqrt(2.0), 0.5, 0.0,
            np.ones((g.n, 1)), eps, g)
        final1 = march(data1, psi1, eps, 0.0, T, dt)
        assert np.max(np.abs(final2[:, col] - final1[:, 0])) < 1e-12


def test_time_reversibility_linear():
    eps = 0.05
    g = make_grid(-4.0, 4.0, 4096)
    data = decompose(rotating_family(), g)
    chi = data.frames[0][:, :, 0]
    psi0 = build_initial_data(gaussian, 1.0, 0.0, chi, eps, g)
    values = march(data, psi0, eps, 0.0, 0.2, 1e-3)
    prop = NLSPropagator(data, eps, 0.0, -1e-3)
    for _ in range(200):
        values = prop.step(values)
    assert l2_norm(g, values - psi0) < 1e-8


def test_single_step_conserves_mass():
    g = make_grid(-2.0, 2.0, 1024)
    data = decompose(rotating_family(), g)
    chi = data.frames[0][:, :, 0]
    psi = build_initial_data(gaussian, 1.0, 0.0, chi, 0.05, g)
    mass0 = l2_norm(g, psi)
    out = NLSPropagator(data, 0.05, 1.0, 1e-3).step(psi)
    assert l2_norm(g, out) == pytest.approx(mass0, abs=1e-12)
    assert check_step_mass(g, out, mass0, 1) <= 1e-12


def test_grid_adequacy_rule():
    # Gaussian: the spectral energy above η is erfc(η), which is 1e-20 at
    # η = 6.6016; the measured η_τ is that root on the y-grid's lattice
    y = make_grid(-40.0, 40.0, 2048)
    eta = spectral_half_width(y, gaussian(y.points))
    assert abs(eta - 6.6015806) <= 2.0 * np.pi / y.length
    assert spectral_half_width(y, np.zeros(y.n)) == 0.0

    # K = ξ/ε + η/√ε = 165.97 on a length-20 domain needs πn/20 ≥ 2K
    n = lab_grid_points(20.0, 0.01, 1.0, eta)
    k_bound = 1.0 / 0.01 + eta / np.sqrt(0.01)
    assert n == 4096
    assert k_bound <= 0.5 * np.pi * n / 20.0
    assert k_bound > 0.5 * np.pi * (n // 2) / 20.0
    # two packets: K = 3ξ/ε + √3 η/√ε = 414.3
    assert lab_grid_points(20.0, 0.01, 1.0, eta, n_packets=2) == 8192
    assert lab_grid_points(20.0, 0.01, 1.0, eta, n_override=8192) == 8192
    with pytest.raises(ConfigError, match="adequacy"):
        lab_grid_points(20.0, 0.01, 1.0, eta, n_override=2048)
    # a rule size above 2**20 points is refused, not returned (ε = 1e-9
    # needed 2**33), and an infinite bound ends the doubling too
    for eps in (1e-9, 5e-324):
        with pytest.raises(ConfigError, match="more than 2\\*\\*20 points"):
            lab_grid_points(8.0, eps, 1.0, 6.6)


def test_fourier_tail_measures_the_outer_quarter_of_the_band():
    g = make_grid(-10.0, 10.0, 256)
    k_nyq = np.pi / g.spacing
    low = np.exp(1j * (k_nyq / 4.0) * g.points)
    high = np.exp(1j * (0.75 * k_nyq) * g.points)
    assert fourier_tail(low) == pytest.approx(0.0, abs=1e-28)
    assert fourier_tail(high) == pytest.approx(1.0, abs=1e-12)
    both = np.stack([low, 3.0 * high], axis=1)
    assert fourier_tail(both) == pytest.approx(0.9, abs=1e-12)
    assert fourier_tail(np.zeros((g.n, 2))) == 0.0


def test_populations_sum_rule_after_evolution():
    eps = 0.05
    g = make_grid(-4.0, 4.0, 4096)
    data = decompose(rotating_family(), g)
    chi = data.frames[0][:, :, 0]
    psi0 = build_initial_data(gaussian, 1.0, 0.0, chi, eps, g)
    final = march(data, psi0, eps, 1.0, 0.2, 5e-4)
    pops = mode_populations(project(data.projectors, final), g)
    assert pops.sum() == pytest.approx(l2_norm(g, final) ** 2, abs=1e-10)


def test_every_guard_rejects_nan():
    # NaN fails every comparison: a guard that raised only when its value
    # exceeded the limit let a NaN ψ through
    import adiapack.errors as errors

    guards = [g for g in vars(errors).values() if isinstance(g, errors.Guard)]
    assert len(guards) == 10
    for guard in guards:
        assert guard.check(0.0) == 0.0
        with pytest.raises(guard.error, match="nan"):
            guard.check(float("nan"))
