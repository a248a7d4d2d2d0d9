import numpy as np
import pytest

from adiapack.grids import l2_norm, make_grid, sigma_norm, spectral_derivative


def test_make_grid_spacing():
    g = make_grid(-10.0, 10.0, 8)
    assert g.spacing == pytest.approx(2.5)
    assert g.points[0] == -10.0
    assert len(g.points) == 8


def test_make_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        make_grid(-10.0, 10.0, 7)


def test_make_grid_rejects_degenerate_interval():
    with pytest.raises(ValueError, match="degenerate"):
        make_grid(1.0, 1.0, 16)


def test_fundamental_wavenumber_on_2pi_domain():
    g = make_grid(0.0, 2.0 * np.pi, 16)
    positive = np.sort(g.frequencies[g.frequencies > 0])
    assert positive[0] == pytest.approx(1.0)


def test_derivative_of_constant_is_zero():
    g = make_grid(-5.0, 5.0, 64)
    df = spectral_derivative(g, np.ones(g.n, dtype=complex), 1)
    assert np.max(np.abs(df)) < 1e-13


def test_derivative_of_sine_is_cosine():
    g = make_grid(0.0, 2.0 * np.pi, 64)
    df = spectral_derivative(g, np.sin(g.points).astype(complex), 1)
    assert np.max(np.abs(df - np.cos(g.points))) < 1e-12


def test_derivative_of_gaussian_matches_analytic():
    # oracle: d/dx exp(-x^2) = -2x exp(-x^2)
    g = make_grid(-16.0, 16.0, 2048)
    df = spectral_derivative(g, np.exp(-g.points**2).astype(complex), 1)
    exact = -2.0 * g.points * np.exp(-g.points**2)
    assert np.max(np.abs(df - exact)) < 1e-10


def test_derivative_order_composition():
    g = make_grid(0.0, 2.0 * np.pi, 64)
    f = np.sin(g.points).astype(complex)
    twice = spectral_derivative(g, spectral_derivative(g, f, 1), 1)
    direct = spectral_derivative(g, f, 2)
    assert np.max(np.abs(twice - direct)) < 1e-10


def test_derivative_rejects_order_zero():
    g = make_grid(-5.0, 5.0, 16)
    with pytest.raises(ValueError):
        spectral_derivative(g, np.ones(g.n, dtype=complex), 0)


def test_parseval():
    g = make_grid(-8.0, 8.0, 256)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    position = l2_norm(g, values)
    coeff = np.sqrt(g.spacing / g.n * np.sum(np.abs(np.fft.fft(values)) ** 2))
    assert abs(position - coeff) <= 1e-12 * position
    assert sigma_norm(g, values, 1.0, 0).value == pytest.approx(position, rel=1e-13)


def test_sigma_norm_p0_is_l2():
    g = make_grid(-10.0, 10.0, 128)
    f = np.exp(-g.points**2).astype(complex)
    rep = sigma_norm(g, f, 1.0, 0)
    assert rep.components == {(0, 0): pytest.approx(l2_norm(g, f))}
    assert rep.value == rep.components[(0, 0)]


def test_coherent_scaling_has_unit_l2_norm():
    # ε^{-1/4} a((x-x0)/√ε) with ‖a‖ = 1 keeps unit mass for every ε
    g = make_grid(-10.0, 10.0, 4096)
    for eps in (0.1, 0.01):
        y = g.points / np.sqrt(eps)
        values = eps**-0.25 * np.pi**-0.25 * np.exp(-(y**2) / 2.0)
        rep = sigma_norm(g, values.astype(complex), eps, 0)
        assert rep.components[(0, 0)] == pytest.approx(1.0, abs=1e-6)


def test_sigma_norm_moment_component_against_quadrature_oracle():
    eps = 0.01
    g = make_grid(-10.0, 10.0, 4096)
    y = g.points / np.sqrt(eps)
    values = eps**-0.25 * np.pi**-0.25 * np.exp(-(y**2) / 2.0)
    rep = sigma_norm(g, values.astype(complex), eps, 1)

    # independent oracle: trapezoid quadrature of |x f|^2 on a 10x finer grid
    xf = np.linspace(-10.0, 10.0, 40961)
    integrand = xf**2 * np.abs(eps**-0.25 * np.pi**-0.25
                               * np.exp(-(xf / np.sqrt(eps)) ** 2 / 2.0)) ** 2
    oracle = np.sqrt(np.trapezoid(integrand, xf))
    assert rep.components[(1, 0)] == pytest.approx(oracle, abs=1e-8)
    # closed form for this Gaussian: sqrt(eps/2)
    assert oracle == pytest.approx(np.sqrt(eps / 2.0), abs=1e-10)


@pytest.mark.parametrize("c", [2.0, -3.5, 1j, 0.25 - 0.75j])
def test_sigma_norm_absolute_homogeneity(c):
    g = make_grid(-10.0, 10.0, 256)
    vals = np.exp(-g.points**2 / 2.0).astype(complex)
    base = sigma_norm(g, vals, 0.3, 2)
    scaled = sigma_norm(g, c * vals, 0.3, 2)
    assert scaled.value == pytest.approx(abs(c) * base.value, rel=1e-12)


def test_sigma_norm_rejects_large_p():
    g = make_grid(-10.0, 10.0, 64)
    with pytest.raises(ValueError):
        sigma_norm(g, np.ones(g.n, dtype=complex), 1.0, 3)


def test_sigma_norm_vector_field_quadrature_combination():
    g = make_grid(-10.0, 10.0, 256)
    a = np.exp(-g.points**2).astype(complex)
    single = sigma_norm(g, a, 0.5, 1)
    combined = sigma_norm(g, np.stack([a, 2.0 * a], axis=1), 0.5, 1)
    for key, val in single.components.items():
        assert combined.components[key] == pytest.approx(np.sqrt(5.0) * val,
                                                         rel=1e-12)

