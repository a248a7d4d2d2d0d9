"""The per-step kernels against the plain forms they replace.

Each reference below is the textbook form of the kernel: `einsum` over an
(n, N, N) half-step matrix and `numpy.fft` along axis 0 for the vector NLS
step, `numpy.fft` for the scalar and envelope steps, |v|² through `np.abs`
for the L² norm, and an RK4 over a numpy state vector for the trajectory.
"""

import numpy as np
import pytest

from adiapack.classical import BranchCurve, integrate_trajectory
from adiapack.corrections import ScalarPropagator
from adiapack.envelope import EnvelopeStepper
from adiapack.expressions import parse_expr
from adiapack.grids import l2_norm, make_grid
from adiapack.nls import NLSPropagator, coherent_packet
from adiapack.potentials import MatrixPotentialSpec, decompose
from tests.test_potentials import rotating_family

EPS = 1.0 / 16


def gaussian(y):
    return np.pi**-0.25 * np.exp(-(y**2) / 2.0)


def three_level_family():
    return MatrixPotentialSpec.from_strings(
        ["x^2/2", "x^2/2+1", "x^2/2+2"],
        ["cos(x)/4", "sin(x)/4", "0", "-cos(x)/4", "sin(x)/8", "x/8"])


FAMILIES = {
    1: lambda: MatrixPotentialSpec.from_strings(["x^2/2"], ["0"]),
    2: rotating_family,
    3: three_level_family,
}


def reference_nls_step(data, epsilon, lambda_coupling, dt, values, beta=0.75):
    phases = [np.exp(-0.5j * lam * dt / epsilon) for lam in data.branches]
    half_v = sum(ph[:, None, None] * pi for ph, pi in zip(phases, data.projectors))
    kin = np.exp(-0.5j * epsilon * data.grid.frequencies**2 * dt)
    nl_rate = lambda_coupling * epsilon ** (2.0 * beta) / epsilon

    def pot_half(v):
        out = np.einsum("nab,nb->na", half_v, v)
        if nl_rate != 0.0:
            dens = np.sum(np.abs(out) ** 2, axis=1)
            out *= np.exp(-0.5j * dt * nl_rate * dens)[:, None]
        return out

    out = pot_half(values)
    out = np.fft.ifft(kin[:, None] * np.fft.fft(out, axis=0), axis=0)
    return pot_half(out)


def packet_on_branch(data, x0=0.8, xi0=0.5):
    chi = data.frames[0][:, :, 0]
    return coherent_packet(data.grid, gaussian, x0, xi0, EPS)[:, None] * chi


@pytest.mark.parametrize("n_levels", [1, 2, 3])
@pytest.mark.parametrize("lambda_coupling", [0.0, 1.0])
def test_nls_step_matches_einsum_reference(n_levels, lambda_coupling):
    data = decompose(FAMILIES[n_levels](), make_grid(-4.0, 4.0, 1024))
    dt = 1e-3
    prop = NLSPropagator(data, EPS, lambda_coupling, dt)
    psi0 = packet_on_branch(data)
    fast, ref = psi0.copy(), psi0.copy()
    for _ in range(50):
        fast = prop.step(fast)
        ref = reference_nls_step(data, EPS, lambda_coupling, dt, ref)
    assert fast.shape == (data.grid.n, n_levels)
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(psi0, packet_on_branch(data))  # input left intact


def test_nls_step_returns_transpose_view_and_accepts_any_layout():
    data = decompose(rotating_family(), make_grid(-4.0, 4.0, 512))
    prop = NLSPropagator(data, EPS, 1.0, 1e-3)
    psi = packet_on_branch(data)
    out = prop.step(psi)
    assert out.T.flags.c_contiguous
    assert np.array_equal(prop.step(out), prop.step(np.ascontiguousarray(out)))


def test_scalar_step_matches_numpy_fft_reference():
    grid = make_grid(-4.0, 4.0, 1024)
    lam = 0.5 * grid.points**2 + 1.0
    prop = ScalarPropagator(grid, lam, EPS)
    values = coherent_packet(grid, gaussian, 0.8, 0.5, EPS)
    kept = values.copy()
    for dt in (1e-3, 5e-4):
        half = np.exp(-0.5j * lam * dt / EPS)
        kin = np.exp(-0.5j * EPS * grid.frequencies**2 * dt)
        ref = half * np.fft.ifft(kin * np.fft.fft(half * values))
        out = prop.step(values, dt)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(values, kept)


@pytest.mark.parametrize("lambda_coupling", [0.0, 1.0])
def test_envelope_advance_matches_numpy_fft_reference(lambda_coupling):
    y_grid = make_grid(-20.0, 20.0, 512)
    stepper = EnvelopeStepper(y_grid, gaussian(y_grid.points), lambda_coupling,
                              lambda t: 1.0 + 0.5 * np.sin(t))
    ref = np.asarray(gaussian(y_grid.points), dtype=complex)
    half_y2 = 0.5 * y_grid.points**2
    dt = 1e-3

    def phase(u, h, curv):
        pot = curv * half_y2 + lambda_coupling * np.abs(u) ** 2
        return u * np.exp(-1j * h * pot)

    t = 0.0
    for _ in range(50):
        curv = 1.0 + 0.5 * np.sin(t + 0.5 * dt)
        kin = np.exp(-0.5j * y_grid.frequencies**2 * dt)
        ref = phase(ref, 0.5 * dt, curv)
        ref = np.fft.ifft(kin * np.fft.fft(ref))
        ref = phase(ref, 0.5 * dt, curv)
        stepper.advance(dt)
        t += dt
    assert np.max(np.abs(stepper.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_l2_norm_matches_abs_square_form():
    grid = make_grid(-4.0, 4.0, 2048)
    rng = np.random.default_rng(3)
    complex_2d = (rng.standard_normal((grid.n, 3))
                  + 1j * rng.standard_normal((grid.n, 3)))
    cases = {
        "real 1-D": rng.standard_normal(grid.n),
        "complex 1-D": complex_2d[:, 0],
        "real (n, N)": rng.standard_normal((grid.n, 2)),
        "complex (n, N)": complex_2d,
        "transposed view": np.ascontiguousarray(complex_2d.T).T,
    }
    for name, values in cases.items():
        mag2 = np.abs(values) ** 2
        if mag2.ndim == 2:
            mag2 = mag2.sum(axis=1)
        ref = np.sqrt(grid.spacing * mag2.sum())
        assert l2_norm(grid, values) == pytest.approx(ref, rel=1e-14), name


def reference_trajectory(branch, x0, xi0, T, dt):
    """RK4 over a numpy (x, ξ, S) state, with three scalar evaluator calls a stage."""
    def rhs(state):
        x, xi, _ = state
        return np.array([xi, -branch.deriv(x), 0.5 * xi * xi - branch.value(x)])

    n_steps = int(round(T / dt))
    out = np.empty((n_steps + 1, 3))
    out[0] = (x0, xi0, 0.0)
    state = out[0].copy()
    for i in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = state
    return out


@pytest.mark.parametrize("kind", ["spline", "expression"])
def test_trajectory_byte_identical_to_array_state_rk4(kind):
    if kind == "spline":
        data = decompose(rotating_family(), make_grid(-2.5, 2.5, 2048))
        branch = BranchCurve.from_data(data, 0)
        x0, xi0 = 1.0, 0.0
    else:
        branch = BranchCurve.from_expr(parse_expr("x^2/2+cos(x)/(1+x^2)"))
        x0, xi0 = -1.0, 0.5
    traj = integrate_trajectory(branch, x0, xi0, 1.0, 1e-3)
    ref = reference_trajectory(branch, x0, xi0, 1.0, 1e-3)
    assert np.array_equal(traj.x, ref[:, 0])
    assert np.array_equal(traj.xi, ref[:, 1])
    assert np.array_equal(traj.action, ref[:, 2])
