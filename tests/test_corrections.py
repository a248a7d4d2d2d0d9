import numpy as np
import pytest

from adiapack.classical import BranchCurve, integrate_trajectory
from adiapack.corrections import (ScalarPropagator, assemble_correction,
                                  averaging_probe, solve_correction)
from adiapack.eigenframe import coupling_profile
from adiapack.envelope import solve_envelope
from adiapack.errors import SolverAbort
from adiapack.expressions import parse_expr
from adiapack.grids import ScalarField, l2_norm, make_grid
from adiapack.potentials import decompose
from tests.test_potentials import rotating_family


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
    series = solve_correction(g, g.points**2 / 2.0,
                              coupling_fn=lambda t: np.zeros(g.n),
                              phi_fn=lambda t: np.ones(g.n, dtype=complex),
                              epsilon=0.05, T=0.5, dt=1e-3,
                              store_times=np.array([0.0, 0.5]))
    assert l2_norm(g, series.values[-1]) == 0.0
    assert series.sigma_log[0][-1] == 0.0


def test_solve_correction_additive_in_coupling():
    g = make_grid(-8.0, 8.0, 256)
    lam = g.points**2 / 2.0
    phi = lambda t: np.exp(-g.points**2 + 0.2j * g.points / 0.05)

    def r1(t):
        return np.cos(t) * np.ones(g.n)

    def r2(t):
        return np.sin(g.points) * np.exp(-0.1 * t)

    def run(r):
        return solve_correction(g, lam, r, phi, 0.05, 0.3, 1e-3,
                                store_times=np.array([0.3])).values[-1]

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
        outs[dt] = solve_correction(g, lam, r, phi, eps, 0.4, dt,
                                    store_times=np.array([0.4])).values[-1]
    err_coarse = l2_norm(g, outs[4e-3] - outs[2e-3])
    err_fine = l2_norm(g, outs[2e-3] - outs[1e-3])
    assert err_coarse / err_fine == pytest.approx(4.0, abs=1.0)


def test_correction_norm_guard():
    g = make_grid(-8.0, 8.0, 256)
    big = 1e7

    with pytest.raises(SolverAbort, match="correction norm"):
        solve_correction(g, np.zeros(g.n),
                         coupling_fn=lambda t: big * np.ones(g.n),
                         phi_fn=lambda t: np.exp(-g.points**2).astype(complex),
                         epsilon=1e-3, T=0.1, dt=1e-3,
                         store_times=np.array([0.1]))


def test_correction_sigma_bounded_across_epsilon():
    # rotating family: drive the lower-branch packet's coupling into the upper
    # branch and watch the correction's L²-type norm stay O(1) in ε
    spec = rotating_family()
    branch = BranchCurve.from_expr(parse_expr("x^2/2 - (1+x^2)^(-1/2)"))
    y_grid = make_grid(-40.0, 40.0, 2048)
    a = lambda y: np.pi**-0.25 * np.exp(-(y**2) / 2.0)
    T = 1.0
    terminal = {}
    for eps in (0.02, 0.01, 0.005):
        n = 4096 if eps > 0.006 else 16384
        g = make_grid(-2.0, 2.0, n)
        data = decompose(spec, g)
        dt = min(1e-3, eps / 4.0)
        steps = int(np.ceil(T / dt - 1e-12))
        dt = T / steps
        traj = integrate_trajectory(branch, 1.0, 0.0, T, dt / 4.0)
        mids = (np.arange(steps) + 0.5) * dt
        env = solve_envelope(a, traj, 1.0, y_grid, dt / 2.0, store_times=mids)
        from scipy.interpolate import CubicSpline
        rho = CubicSpline(data.grid.points,
                          coupling_profile(data, 1, 0, source_branch=0))(g.points)

        def phi(t):
            m = int(round(t / dt - 0.5))
            u = CubicSpline(y_grid.points, env[m].values, extrapolate=False)(
                (g.points - float(traj.x_of(t))) / np.sqrt(eps))
            u[np.isnan(u)] = 0.0
            ph = np.exp(1j * (float(traj.action_of(t))
                              + float(traj.xi_of(t)) * (g.points - float(traj.x_of(t)))) / eps)
            return eps**-0.25 * u * ph

        series = solve_correction(g, data.branches[1],
                                  coupling_fn=lambda t: float(traj.xi_of(t)) * rho,
                                  phi_fn=phi, epsilon=eps, T=T, dt=dt,
                                  store_times=np.array([T]))
        terminal[eps] = series.sigma_log[0][-1]
    vals = list(terminal.values())
    assert max(vals) / min(vals) <= 2.0


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
