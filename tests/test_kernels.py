"""The per-step and set-up kernels against the plain forms they replace.

Each reference below is the textbook form of the kernel: `einsum` over an
(n, N, N) half-step matrix and `numpy.fft` along axis 0 for the vector NLS
step, `numpy.fft` for the scalar and envelope steps, |v|² through `np.abs`
for the L² norm, an RK4 over a numpy state vector for the trajectory,
`scipy.interpolate.CubicSpline` for the uniform-grid spline, and the
point-by-point loop for branch tracking.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from adiapack.classical import integrate_trajectory
from adiapack.corrections import ScalarPropagator
from adiapack.envelope import EnvelopeStepper
from adiapack.expressions import parse_expr
from adiapack.grids import UniformCubicSpline, l2_norm, make_grid, unit_phase
from adiapack.nls import NLSPropagator, coherent_packet
from adiapack.potentials import (MatrixPotentialSpec, _track_branches,
                                 _track_branches_loop, branch_spline,
                                 decompose, evaluate_potential)
from tests.test_potentials import rotating_family

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


@pytest.mark.parametrize("n_levels", [1, 2, 3])
@pytest.mark.parametrize("lambda_coupling", [0.0, 1.0])
def test_merged_nls_steps_match_plain_steps(n_levels, lambda_coupling):
    # k steps that leave their trailing half potential step to the next one,
    # P(dt/2)P(dt/2) = P(dt), and close at the end are k plain Strang steps
    data = decompose(FAMILIES[n_levels](), make_grid(-4.0, 4.0, 1024))
    prop = NLSPropagator(data, EPS, lambda_coupling, 1e-3)
    plain = merged = packet_on_branch(data)
    k = 40
    for i in range(k):
        plain = prop.step(plain)
        merged = prop.step(merged, pending=i > 0, close=i == k - 1)
    assert np.max(np.abs(merged - plain)) <= 1e-12 * np.max(np.abs(plain))


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
    stepper = EnvelopeStepper(y_grid, gaussian(y_grid.points), lambda_coupling)
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
        stepper.advance(dt, curv)
        t += dt
    assert np.max(np.abs(stepper.values - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("lambda_coupling", [0.0, 1.0])
def test_envelope_pending_half_phases_match_closed_steps(lambda_coupling):
    # read after every step, each step closes; read only at the end, the
    # steps merge adjacent half phases with the midpoint curvatures averaged
    y_grid = make_grid(-20.0, 20.0, 512)

    def stepper():
        return EnvelopeStepper(y_grid, gaussian(y_grid.points), lambda_coupling)

    def advance(s, dt):   # at the curvature 1 + sin(3t)/2 of the step midpoint
        s.advance(dt, 1.0 + 0.5 * np.sin(3.0 * (s.time + 0.5 * dt)))

    closed, merged = stepper(), stepper()
    for _ in range(40):
        advance(closed, 1e-3)
        closed.values
        advance(merged, 1e-3)
        # the guards read |u| on the open samples
        assert l2_norm(y_grid, merged._u) == pytest.approx(merged.mass0,
                                                          rel=1e-13)
    ref = closed.values
    assert np.max(np.abs(merged.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    # a pending half of one step size merges with a leading half of another
    advance(merged, 5e-4)
    advance(closed, 5e-4)
    ref = closed.values
    assert np.max(np.abs(merged.values - ref)) <= 1e-12 * np.max(np.abs(ref))


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
        return np.array([xi, -branch(x, 1), 0.5 * xi * xi - branch(x)])

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
        branch = branch_spline(data, 0)
        x0, xi0 = 1.0, 0.0
    else:
        branch = parse_expr("x^2/2+cos(x)/(1+x^2)")
        x0, xi0 = -1.0, 0.5
    traj = integrate_trajectory(branch, x0, xi0, 1.0, 1e-3)
    ref = reference_trajectory(branch, x0, xi0, 1.0, 1e-3)
    assert np.array_equal(traj.x, ref[:, 0])
    assert np.array_equal(traj.xi, ref[:, 1])
    assert np.array_equal(traj.action, ref[:, 2])


@pytest.mark.parametrize("x_c", [0.3, -3.9, 3.95, 7.0])
@pytest.mark.parametrize("half_width", [20.0, 80.0])
def test_phi_on_the_window_equals_the_full_grid_form(x_c, half_width):
    # the plain form evaluates the spline and the phase at every lab point
    # and zeroes the points whose y lies outside the y-domain: the same values
    from adiapack.experiments import _phi_values

    lab = make_grid(-4.0, 4.0, 2048)
    y_grid = make_grid(-half_width, half_width, 1024)
    u = gaussian(y_grid.points) * np.exp(0.2j * y_grid.points)
    u_of = UniformCubicSpline(y_grid.x_min, y_grid.spacing, u)
    eps, xi, action = 1.0 / 128, 0.7, 0.25
    y = (lab.points - x_c) / np.sqrt(eps)
    plain = u_of(y)
    plain[(y < u_of.knots[0]) | (y > u_of.knots[-1])] = 0.0
    plain = eps**-0.25 * plain * np.exp(
        1j * (action + xi * (lab.points - x_c)) / eps)
    phi = _phi_values(lab, u_of, x_c, xi, action, eps)
    assert np.array_equal(phi, plain)


def spline_cases():
    data = decompose(rotating_family(), make_grid(-2.5, 2.5, 4096))
    y_grid = make_grid(-40.0, 40.0, 2048)
    y = y_grid.points
    envelope = gaussian(y) * np.exp(0.3j * y - 0.05j * y**2)
    short = make_grid(-1.0, 1.0, 8)
    return {
        "real branch": (data.grid, data.branches[0]),
        "complex envelope": (y_grid, envelope),
        "(n, N, d) frames": (data.grid, data.frames[0]),
        "4 samples": (short, np.cos(3.0 * short.points[:4])),
        "5 samples, complex": (short, np.exp(2j * short.points[:5])),
    }


@pytest.mark.parametrize("name", list(spline_cases()))
def test_uniform_spline_matches_scipy(name):
    grid, values = spline_cases()[name]
    n = values.shape[0]
    knots = grid.points[:n]
    ours = UniformCubicSpline(grid.x_min, grid.spacing, values)
    ref = CubicSpline(knots, values, axis=0)
    h = grid.spacing
    x = np.concatenate([np.linspace(knots[0], knots[-1], 3001), knots,
                        [knots[0] - 0.5 * h, knots[-1] + 0.5 * h]])
    got, want = ours(x), ref(x)
    assert got.shape == want.shape == x.shape + values.shape[1:]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_uniform_spline_rejects_fewer_than_four_samples():
    with pytest.raises(ValueError, match="at least 4"):
        UniformCubicSpline(0.0, 0.1, [0.0, 1.0, 4.0])


@pytest.mark.parametrize("x_c", [0.5e-9, -0.5e-9, 1.3])
def test_phi_is_zero_exactly_where_y_leaves_the_knots(x_c):
    # y = (x - x_c)/√ε = 2x ∓ 1e-9 puts the lab point x = -4 just beyond
    # the first knot (x_c > 0) or x = 3.875 just beyond the last (x_c < 0),
    # where the end cubic extrapolates to about 0.02; half the lab grid
    # lies outside the run of points that φ evaluates
    from adiapack.experiments import _phi_values

    lab = make_grid(-8.0, 8.0, 512)
    y_grid = make_grid(-8.0, 8.0, 64)
    u = (1.0 + 0.5j * y_grid.points) * np.exp(-y_grid.points**2 / 16.0)
    u_of = UniformCubicSpline(y_grid.x_min, y_grid.spacing, u)
    eps, xi, action = 0.25, 0.7, 0.25
    phi = _phi_values(lab, u_of, x_c, xi, action, eps)
    y = (lab.points - x_c) / np.sqrt(eps)
    outside = (y < u_of.knots[0]) | (y > u_of.knots[-1])
    assert not phi[outside].any()
    if x_c != 1.3:
        edge = y_grid.points[0] if x_c > 0 else y_grid.points[-1]
        beyond = np.abs(y - edge) < 2e-9
        assert beyond.sum() == 1 and outside[beyond].all()
        assert abs(u_of(y[beyond])[0]) > 0.01
    x, y = lab.points[~outside], y[~outside]
    want = eps**-0.25 * u_of(y) * unit_phase((action + xi * (x - x_c)) / eps)
    assert np.array_equal(phi[~outside], want)
    assert np.count_nonzero(phi) == np.count_nonzero(want) > 200


def test_uniform_spline_scalar_path_equals_array_path():
    grid = make_grid(-2.5, 2.5, 512)
    values = np.sin(3.0 * grid.points) / (1.0 + grid.points**2)
    spline = UniformCubicSpline(grid.x_min, grid.spacing, values)
    x = np.random.default_rng(5).uniform(-2.7, 2.7, 500)
    x[:3] = grid.points[[0, 200, -1]]
    for nu in (0, 1, 2):
        array_path = spline(x, nu)
        scalar_path = [spline(float(xi), nu) for xi in x]
        assert all(type(v) is float for v in scalar_path)
        assert np.array(scalar_path).tobytes() == array_path.tobytes()


def config_specs():
    specs = {}
    for path in sorted(CONFIGS.glob("*.json")):
        raw = json.loads(path.read_text())
        pot, grid = raw["potential"], raw["grid"]
        spec = MatrixPotentialSpec.from_strings(pot["diag"], pot["sym"])
        specs[path.stem] = (spec, make_grid(grid["x_min"], grid["x_max"], 4096))
    return specs


@pytest.mark.parametrize("name", ["constant_direction", "crossing_control",
                                  "rotating", "scalar_harmonic", "smoke",
                                  "superposition"])
def test_batched_tracker_equals_loop(name):
    spec, grid = config_specs()[name]
    vals, vecs = np.linalg.eigh(evaluate_potential(spec, grid.points))
    fast_vals, fast_vecs = _track_branches(grid.points, vals, vecs)
    loop_vals, loop_vecs = _track_branches_loop(grid.points, vals, vecs)
    assert fast_vals.tobytes() == loop_vals.tobytes()
    assert fast_vecs.tobytes() == loop_vecs.tobytes()


def test_tracker_falls_back_where_order_swaps():
    # the branches x and -x cross at 0: eigh's ascending order swaps there,
    # so only the point-by-point loop can keep branch 0 equal to x
    spec = MatrixPotentialSpec.from_strings(["x", "-x"], ["0", "0", "0"])
    grid = make_grid(-1.01, 1.0, 64)
    assert np.all(grid.points != 0.0)
    data = decompose(spec, grid)
    assert np.array_equal(data.branches[0], grid.points)
    assert np.array_equal(data.branches[1], -grid.points)
    vals, vecs = np.linalg.eigh(evaluate_potential(spec, grid.points))
    fast_vals, fast_vecs = _track_branches(grid.points, vals, vecs)
    loop_vals, loop_vecs = _track_branches_loop(grid.points, vals, vecs)
    assert fast_vals.tobytes() == loop_vals.tobytes()
    assert fast_vecs.tobytes() == loop_vecs.tobytes()
