import numpy as np
import pytest

from adiapack.corrections import (ScalarPropagator, assemble_correction,
                                  averaging_probe)
from adiapack.eigenframe import coupling_profile
from adiapack.grids import ScalarField, l2_norm, make_grid, sigma_norm
from adiapack.potentials import decompose
from tests.test_potentials import rotating_family


def duhamel_march(g, lam, coupling_fn, phi_fn, eps, T, dt):
    """g(T) from g(0) = 0 by `ScalarPropagator.duhamel_step` on the carried
    h = U(dt/2) g, with the source (φ r)(t) = phi_fn(t) coupling_fn(t) read
    at the step midpoints, and `recover` at T."""
    prop = ScalarPropagator(g, lam, eps)
    h = np.zeros(g.n, dtype=complex)
    for step in range(int(round(T / dt))):
        t_mid = (step + 0.5) * dt
        h = prop.duhamel_step(h, phi_fn(t_mid) * coupling_fn(t_mid), dt)
    return prop.recover(h, dt)


def test_free_plane_wave_is_exact():
    g = make_grid(-8.0, 8.0, 256)
    eps, dt = 0.1, 1e-2
    k = g.frequencies[5]
    prop = ScalarPropagator(g, np.zeros(g.n), eps)
    out = np.exp(1j * k * g.points)
    for _ in range(10):
        out = prop.step(out, dt)
    exact = np.exp(1j * k * g.points) * np.exp(-0.5j * eps * k**2 * 10 * dt)
    assert np.max(np.abs(out - exact)) < 1e-12


def test_zero_source_is_isometric():
    g = make_grid(-8.0, 8.0, 512)
    f = np.exp(-g.points**2 + 0.3j * g.points)
    prop = ScalarPropagator(g, g.points**2 / 2.0, 0.05)
    out = f
    for _ in range(50):
        out = prop.step(out, 1e-3)
    assert abs(l2_norm(g, out) - l2_norm(g, f)) < 1e-12


def test_midpoint_duhamel_matches_brute_force_oracle():
    # λ = 0, constant-in-time Gaussian source: compare against the direct
    # quadrature Σ dt U(T-s)(src)/(iε) built from the exact free multiplier;
    # the steps carry h = U(dt/2) g, and g is recovered at T
    g = make_grid(-16.0, 16.0, 512)
    eps, T, dt = 0.1, 0.1, 1e-3
    src = np.exp(-g.points**2).astype(complex)
    prop = ScalarPropagator(g, np.zeros(g.n), eps)
    out = np.zeros(g.n, dtype=complex)
    steps = int(round(T / dt))
    for _ in range(steps):
        out = prop.duhamel_step(out, src, dt)
    out = prop.recover(out, dt)

    dt_f = dt / 10.0

    def u_free(tau, values):
        mult = np.exp(-0.5j * eps * g.frequencies**2 * tau)
        return np.fft.ifft(mult * np.fft.fft(values))

    oracle = np.zeros(g.n, dtype=complex)
    for m in range(int(round(T / dt_f))):
        s = (m + 0.5) * dt_f
        oracle += dt_f / (1j * eps) * u_free(T - s, src)
    rel = l2_norm(g, out - oracle) / l2_norm(g, oracle)
    assert rel < 1e-6


def test_carried_duhamel_matches_the_two_step_rule():
    # g ← U(dt)g + dt/(iε)·U(dt/2)s, two split steps a step, against the
    # carried h ← U(dt)(h + dt/(iε)·s) with g = U(-dt/2)h read at the end
    g = make_grid(-2.5, 2.5, 2048)
    data = decompose(rotating_family(), g)
    eps, dt, steps = 1.0 / 64, 1e-3, 400
    prop = ScalarPropagator(g, data.branches[1], eps)
    rho = coupling_profile(data, 1, 0, source_branch=0)

    def source(t):
        x_c, xi = np.cos(t), -np.sin(t)
        phi = eps**-0.25 * np.pi**-0.25 * np.exp(
            -((g.points - x_c) ** 2) / (2.0 * eps) + 1j * xi * g.points / eps)
        return phi * (xi * rho)

    two_step = np.zeros(g.n, dtype=complex)
    carried = np.zeros(g.n, dtype=complex)
    for m in range(steps):
        src = source((m + 0.5) * dt)
        two_step = prop.step(two_step, dt) \
            + (dt / (1j * eps)) * prop.step(src, 0.5 * dt)
        carried = prop.duhamel_step(carried, src, dt)
    recovered = prop.recover(carried, dt)
    assert l2_norm(g, recovered - two_step) <= 1e-9 * l2_norm(g, two_step)
    # the carry is unitary: ‖h‖ = ‖g‖
    assert l2_norm(g, carried) == pytest.approx(l2_norm(g, recovered), rel=1e-13)


def test_solve_correction_zero_coupling_stays_zero():
    g = make_grid(-8.0, 8.0, 256)
    out = duhamel_march(g, g.points**2 / 2.0,
                        coupling_fn=lambda t: np.zeros(g.n),
                        phi_fn=lambda t: np.ones(g.n, dtype=complex),
                        eps=0.05, T=0.5, dt=1e-3)
    assert l2_norm(g, out) == 0.0
    assert sigma_norm(ScalarField(grid=g, values=out, epsilon=0.05, time=0.5),
                      0).value == 0.0


def test_solve_correction_additive_in_coupling():
    g = make_grid(-8.0, 8.0, 256)
    lam = g.points**2 / 2.0
    phi = lambda t: np.exp(-g.points**2 + 0.2j * g.points / 0.05)

    def r1(t):
        return np.cos(t) * np.ones(g.n)

    def r2(t):
        return np.sin(g.points) * np.exp(-0.1 * t)

    def run(r):
        return duhamel_march(g, lam, r, phi, 0.05, 0.3, 1e-3)

    combined = run(lambda t: r1(t) + r2(t))
    assert np.max(np.abs(combined - run(r1) - run(r2))) < 1e-10


def test_solve_correction_second_order_in_dt():
    g = make_grid(-8.0, 8.0, 512)
    lam = g.points**2 / 2.0
    eps = 0.05

    def phi(t):
        return np.exp(-(g.points - 0.3 * t) ** 2 + 0.4j * g.points / eps)

    def r(t):
        return np.cos(2.0 * t) * np.tanh(g.points)

    outs = {}
    for dt in (4e-3, 2e-3, 1e-3):
        outs[dt] = duhamel_march(g, lam, r, phi, eps, 0.4, dt)
    err_coarse = l2_norm(g, outs[4e-3] - outs[2e-3])
    err_fine = l2_norm(g, outs[2e-3] - outs[1e-3])
    assert err_coarse / err_fine == pytest.approx(4.0, abs=1.0)


def test_assemble_single_component_norm():
    g = make_grid(-8.0, 8.0, 512)
    data = decompose(rotating_family(), g)
    comp = 0.7 * np.exp(-g.points**2).astype(complex)
    out = assemble_correction({(1, 0): comp}, data, epsilon=0.1)
    assert l2_norm(g, out.values) == pytest.approx(l2_norm(g, comp), rel=1e-12)


def test_assemble_pythagoras_and_orthogonality():
    g = make_grid(-8.0, 8.0, 512)
    data = decompose(rotating_family(), g)
    c0 = np.exp(-g.points**2).astype(complex)
    c1 = 1j * np.exp(-((g.points - 1.0) ** 2)).astype(complex)
    out = assemble_correction({(0, 0): c0, (1, 0): c1}, data, epsilon=0.1)
    lhs = l2_norm(g, out.values) ** 2
    rhs = l2_norm(g, c0) ** 2 + l2_norm(g, c1) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-8)
    # a single off-branch component stays pointwise orthogonal to the carrier
    out0 = assemble_correction({(0, 0): c0}, data, epsilon=0.1)
    chi1 = data.frames[1][:, :, 0]
    overlap = np.abs(np.sum(out0.values * chi1, axis=1))
    assert np.max(overlap) < 1e-7


def test_averaging_probe_equal_constant_branches():
    # integrand is the identity: value = (t/ε)‖f‖ exactly
    g = make_grid(-16.0, 16.0, 256)
    eps, t = 0.05, 0.2
    f = ScalarField(grid=g, values=np.exp(-g.points**2).astype(complex),
                    epsilon=eps)
    lam = np.ones(g.n)
    val = averaging_probe(g, lam, lam, f, eps, t, eps / 64.0)
    assert val == pytest.approx(t / eps * l2_norm(g, f.values), rel=1e-12)


def test_averaging_probe_constant_gap_closed_form():
    # branches 0 and 1: value = |e^{it/ε} - 1| ‖f‖; at t/ε = π this is 2‖f‖
    g = make_grid(-16.0, 16.0, 256)
    eps = 0.04
    t = np.pi * eps
    f = ScalarField(grid=g, values=np.exp(-g.points**2).astype(complex),
                    epsilon=eps)
    val = averaging_probe(g, np.zeros(g.n), np.ones(g.n), f, eps, t, t / 2048.0)
    assert val == pytest.approx(2.0 * l2_norm(g, f.values), abs=1e-6)


def test_averaging_probe_off_diagonal_bounded():
    # mismatched rotating-family branches: bounded in ε, unlike the 1/ε control
    g = make_grid(-10.0, 10.0, 4096)
    data = decompose(rotating_family(), g)
    f = ScalarField(grid=g, values=np.exp(-g.points**2).astype(complex))
    t = 0.5
    cross, control = {}, {}
    for eps in (0.04, 0.02):
        cross[eps] = averaging_probe(g, data.branches[0], data.branches[1],
                                     f, eps, t, eps / 8.0)
        control[eps] = averaging_probe(g, data.branches[0], data.branches[0],
                                       f, eps, t, eps / 8.0)
    assert max(cross.values()) / min(cross.values()) < 2.0
    assert control[0.02] / control[0.04] == pytest.approx(2.0, rel=0.1)


def test_averaging_probe_needs_a_positive_multiple_of_dt():
    # t must be a whole number of steps: rounding t/dt would integrate
    # t = 0.01 over no step and t = 0.1 over 0.09
    g = make_grid(-16.0, 16.0, 256)
    f = ScalarField(grid=g, values=np.exp(-g.points**2).astype(complex))
    lam = np.ones(g.n)
    for t in (0.01, 0.1, 0.0):
        with pytest.raises(ValueError, match="positive multiple of dt"):
            averaging_probe(g, lam, lam, f, 0.05, t, 0.03)
    assert averaging_probe(g, lam, lam, f, 0.05, 0.09, 0.03) == pytest.approx(
        0.09 / 0.05 * l2_norm(g, f.values), rel=1e-12)
