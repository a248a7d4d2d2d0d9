"""The per-step and set-up kernels against the plain forms they replace.

Each reference below is the textbook form of the kernel: `einsum` over an
(n, N, N) half-step matrix and `numpy.fft` along axis 0 for the vector NLS
step, `numpy.fft` for the scalar and envelope steps, |v|² through `np.abs`
for the L² norm, an RK4 over a numpy state vector for the trajectory,
`scipy.interpolate.CubicSpline` for the uniform-grid spline, and the
point-by-point loop for branch tracking.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from adiapack.classical import integrate_trajectory
from adiapack.corrections import ScalarPropagator
from adiapack.envelope import EnvelopeStepper
from adiapack.errors import BranchTrackingError, SolverAbort
from adiapack.expressions import parse_expr
from adiapack.grids import UniformCubicSpline, l2_norm, make_grid, unit_phase
from adiapack.nls import NLSPropagator, coherent_packet
from adiapack.potentials import (_OVERLAP_FLOOR, MatrixPotentialSpec,
                                 _track_branches, branch_spline, decompose,
                                 evaluate_potential)
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


def _track_branches_loop(xs, vals, vecs):
    """The point-by-point tracker `potentials._track_branches` replaced, kept
    verbatim as its reference."""
    m, n = vals.shape
    out_vals = vals.copy()
    out_vecs = vecs.copy()
    for i in range(1, m):
        prev = out_vecs[i - 1]
        cur_vals, cur_vecs = out_vals[i], out_vecs[i]
        overlap = np.abs(prev.T @ cur_vecs)
        perm = np.full(n, -1)
        used = np.zeros(n, dtype=bool)
        work = overlap.copy()
        for _ in range(n):
            a, b = np.unravel_index(np.argmax(work), work.shape)
            if work[a, b] < _OVERLAP_FLOOR:
                break
            perm[a] = b
            used[b] = True
            work[a, :] = -1.0
            work[:, b] = -1.0
        if (perm < 0).any():
            # ambiguous overlap: match leftover branches by eigenvalue proximity
            left_rows = np.where(perm < 0)[0]
            left_cols = np.where(~used)[0]
            prev_vals = out_vals[i - 1][left_rows]
            order = np.argsort(prev_vals)
            col_order = left_cols[np.argsort(cur_vals[left_cols])]
            for r, c in zip(left_rows[order], col_order):
                if len(left_cols) > 1:
                    gaps = np.abs(cur_vals[left_cols] - out_vals[i - 1][r])
                    gaps.sort()
                    if gaps[1] - gaps[0] < 1e-14:
                        raise BranchTrackingError(xs[i])
                perm[r] = c
        out_vals[i] = cur_vals[perm]
        out_vecs[i] = cur_vecs[:, perm]
        signs = np.sign(np.einsum("na,na->a", prev, out_vecs[i]))
        signs[signs == 0] = 1.0
        out_vecs[i] *= signs
    return out_vals, out_vecs


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


def reference_two_call_trajectory(curve, x0, xi0, T, dt):
    """RK4 on a Python-float state with the two calls `curve(x, 1)` and
    `curve(x)` a stage (the blow-up guard left out)."""
    def rhs(x, xi):
        return xi, -curve(x, 1), 0.5 * xi * xi - curve(x)

    half, sixth = 0.5 * dt, dt / 6.0
    x, xi, s = float(x0), float(xi0), 0.0
    out = np.empty((int(round(T / dt)) + 1, 3))
    out[0] = (x, xi, s)
    for i in range(len(out) - 1):
        k1x, k1p, k1s = rhs(x, xi)
        k2x, k2p, k2s = rhs(x + half * k1x, xi + half * k1p)
        k3x, k3p, k3s = rhs(x + half * k2x, xi + half * k2p)
        k4x, k4p, k4s = rhs(x + dt * k3x, xi + dt * k3p)
        x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        xi = xi + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        out[i + 1] = (x, xi, s)
    return out


def crossing_control_probe_branch():
    """Branch 0 of crossing_control.json on its 4096-point probe: a spline."""
    raw = json.loads((CONFIGS / "crossing_control.json").read_text())
    spec = MatrixPotentialSpec.from_strings(raw["potential"]["diag"],
                                            raw["potential"]["sym"])
    return branch_spline(decompose(spec, make_grid(-4.0, 4.0, 4096)), 0)


@pytest.mark.parametrize("kind", ["spline", "x^2/2",
                                  "x^2/2-(1+x^2)^(-1/2)+sin(x)/3"])
def test_fused_stage_calls_are_byte_identical_to_two_calls(kind):
    # one `slope_and_value` a stage gives the samples of `curve(x, 1)` and
    # `curve(x)`, bit for bit: on crossing_control's run (x0 = 1, dt/4 =
    # 2.5e-4, T = 2) and on two parsed entries
    branch = crossing_control_probe_branch() if kind == "spline" else \
        parse_expr(kind)
    traj = integrate_trajectory(branch, 1.0, 0.0, 2.0, 2.5e-4)
    ref = reference_two_call_trajectory(branch, 1.0, 0.0, 2.0, 2.5e-4)
    assert traj.x.tobytes() == ref[:, 0].tobytes()
    assert traj.xi.tobytes() == ref[:, 1].tobytes()
    assert traj.action.tobytes() == ref[:, 2].tobytes()
    for x in (0.3, -1.7, 5.0):
        assert branch.slope_and_value(x) == (branch(x, 1), branch(x))


@pytest.mark.filterwarnings("error")
def test_fused_stage_keeps_the_fallback_and_the_blowup_guard():
    # where `math` raises (a pole at the start), the stage falls back to
    # the two calls and numpy's inf; the path turns NaN at the first step
    pole = parse_expr("1/(x-0.3)")
    assert pole.slope_and_value(0.3) == (pole(0.3, 1), pole(0.3)) \
        == (-np.inf, np.inf)
    with pytest.raises(SolverAbort, match=re.escape(
            "trajectory blow-up max(|x|, |ξ|) nan above 1.0e+08 at t = 0.00025")):
        integrate_trajectory(pole, 0.3, 0.0, 1.0, 2.5e-4)


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
    pairs = np.array([spline.slope_and_value(float(xi)) for xi in x])
    assert pairs.T.tobytes() == np.stack([spline(x, 1), spline(x)]).tobytes()


def config_specs():
    specs = {}
    for path in sorted(CONFIGS.glob("*.json")):
        raw = json.loads(path.read_text())
        pot, grid = raw["potential"], raw["grid"]
        spec = MatrixPotentialSpec.from_strings(pot["diag"], pot["sym"])
        specs[path.stem] = (spec, make_grid(grid["x_min"], grid["x_max"], 4096))
    return specs


def crossing_family():
    """The branches x and -x, which cross at 0."""
    return MatrixPotentialSpec.from_strings(["x", "-x"], ["0", "0", "0"])


@pytest.mark.parametrize("name", ["constant_direction", "crossing_control",
                                  "rotating", "scalar_harmonic", "smoke",
                                  "superposition", "exact_crossing"])
def test_batched_tracker_equals_loop(name):
    # exact_crossing: x = 0 is a grid point, where the branches meet exactly
    spec, grid = {**config_specs(), "exact_crossing": (
        crossing_family(), make_grid(-4.0, 4.0, 256))}[name]
    vals, vecs = np.linalg.eigh(evaluate_potential(spec, grid.points))
    fast_vals, fast_vecs = _track_branches(grid.points, vals, vecs)
    loop_vals, loop_vecs = _track_branches_loop(grid.points, vals, vecs)
    assert fast_vals.tobytes() == loop_vals.tobytes()
    assert fast_vecs.tobytes() == loop_vecs.tobytes()


def test_tracker_falls_back_where_order_swaps():
    # the branches x and -x cross at 0: eigh's ascending order swaps there,
    # and the tracker walks that point, so branch 0 stays equal to x
    spec = crossing_family()
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


def test_tracker_matches_by_eigenvalue_where_a_frame_turns_fast():
    # a 4-level frame turning about 1 rad between the 16 points: at every
    # point one branch has no overlap above the floor and is matched to the
    # nearest eigenvalue instead
    xs = np.linspace(0.0, 1.0, 16)
    a = np.random.default_rng(0).normal(size=(4, 4))
    q = np.stack([expm(5.0 * x * (a - a.T)) for x in xs])
    v = np.einsum("mab,b,mcb->mac", q, [-2.0, -0.5, 1.0, 3.0], q)
    vals, vecs = np.linalg.eigh(v)
    fast_vals, fast_vecs = _track_branches(xs, vals, vecs)
    loop_vals, loop_vecs = _track_branches_loop(xs, vals, vecs)
    overlaps = np.abs(np.einsum("ina,ina->ia", loop_vecs[:-1], loop_vecs[1:]))
    assert (overlaps < _OVERLAP_FLOOR).any(axis=1).sum() == 15
    assert fast_vals.tobytes() == loop_vals.tobytes()
    assert fast_vecs.tobytes() == loop_vecs.tobytes()


@pytest.mark.parametrize("seed", [None, 153])
def test_tracker_signs_a_proximity_match_as_the_loop(seed):
    # two decoupled 3-level blocks, each leaving one branch unmatched at
    # x = 0.2; eigenvalue proximity pairs them across the blocks, where the
    # overlap is 0.  Unrotated (None) it is exactly 0, and the reference signs
    # that column +1 whatever its running sign was (-1 here, after eigh's
    # frame flipped at x = 0.1).  In a frame turned by a random rotation the
    # overlaps are within roundoff of 0, where the batched matmul and the
    # loop's einsum can disagree in sign (they do for seed 153 here)
    block = np.eye(3) - 2.0 / 3.0 * np.ones((3, 3))
    q = np.kron(np.eye(2), block)
    turn = np.eye(6) if seed is None else np.linalg.qr(
        np.random.default_rng(seed).normal(size=(6, 6)))[0]
    xs = np.array([0.0, 0.1, 0.2, 0.3])
    vecs = np.stack([turn, -turn, turn @ q, turn @ q])
    vals = np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]] * 2
                    + [[0.0, 1.0, 7.0, 3.0, 4.0, -2.0]] * 2)
    fast_vals, fast_vecs = _track_branches(xs, vals, vecs)
    loop_vals, loop_vecs = _track_branches_loop(xs, vals, vecs)
    overlaps = np.einsum("na,na->a", loop_vecs[1], loop_vecs[2])
    assert np.sum(np.abs(overlaps) < 1e-15) == 2
    assert fast_vals.tobytes() == loop_vals.tobytes()
    assert fast_vecs.tobytes() == loop_vecs.tobytes()


def test_tracker_raises_on_an_eigenvalue_tie():
    # at x = 0.1 the frame turns so that two branches have no overlap above
    # the floor, and the first of them (λ = 1 at x = 0) lies halfway between
    # the two free eigenvalues 0.5 and 1.5: proximity cannot choose
    a = np.zeros((4, 4))
    a[0, 2], a[0, 3], a[1, 3] = 2.0, -1.0, 2.0
    q = expm(1.1 * (a - a.T))
    xs = np.array([0.0, 0.1])
    vals, vecs = np.linalg.eigh(np.stack([
        np.diag([0.0, 1.0, 2.0, 3.0]), q @ np.diag([0.0, 0.5, 1.5, 3.0]) @ q.T]))
    for tracker in (_track_branches, _track_branches_loop):
        with pytest.raises(BranchTrackingError,
                           match="unresolvable branch crossing near x = 0.1$") as exc:
            tracker(xs, vals, vecs)
        assert exc.value.x == 0.1
