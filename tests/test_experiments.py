import numpy as np
import pytest

from adiapack.corrections import assemble_correction
from adiapack.envelope import EnvelopeStepper
from adiapack.errors import ConfigError
from adiapack.experiments import (PacketSpec, _branch_curve_for,
                                  _envelope_spline, _error_norms, _phi_values,
                                  convergence_study, fit_order, make_profile,
                                  run_single_packet, study_setup,
                                  superposition_experiment)
from adiapack.grids import VectorField, l2_norm, make_grid, sigma_norm
from adiapack.nls import build_initial_data
from adiapack.potentials import MatrixPotentialSpec, decompose
from tests.test_potentials import rotating_family

HARMONIC = MatrixPotentialSpec.from_strings(["x^2/2"], ["0"])
MULTIPLET = MatrixPotentialSpec.from_strings(["x^2/2", "x^2/2"], ["0", "0", "0"],
                                             multiplicities=(2,))
GAUSSIAN_AT_1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)


@pytest.fixture(scope="module")
def harmonic_run():
    return run_single_packet(HARMONIC, GAUSSIAN_AT_1, 1.0 / 64, 0.0, 0.2, -4.0,
                             4.0, observe_every=0.05, snapshot_times=(0.2,))


@pytest.fixture(scope="module")
def rotating_run():
    return run_single_packet(rotating_family(), GAUSSIAN_AT_1, 1.0 / 64, 1.0,
                             0.2, -2.5, 2.5, observe_every=0.05)


@pytest.fixture(scope="module")
def harmonic_setup():
    return study_setup(HARMONIC, [GAUSSIAN_AT_1], [1.0 / 64], 0.0, 0.2, -4.0,
                       4.0, observe_every=0.05)


@pytest.fixture(scope="module")
def rotating_setup():
    return study_setup(rotating_family(), [GAUSSIAN_AT_1], [1.0 / 64], 1.0, 0.2,
                       -2.5, 2.5, observe_every=0.05)


def ansatz_at(setup, epsilon, t):
    """(lab grid, u(t) on the run window, φ(t) on the lab grid) of the
    set-up's one packet at ε, built from the pieces a run uses: an
    `EnvelopeStepper` along the set-up's run trajectory, `_envelope_spline`
    and `_phi_values`."""
    (packet,), dt = setup.packets, setup.steps[epsilon].dt
    (traj,), y_grid = setup.trajectories[dt], setup.y_grid
    env = EnvelopeStepper(y_grid, packet.evaluator()(y_grid.points),
                          setup.lambda_coupling, traj.curvature_of)
    for _ in range(int(round(t / dt))):
        env.advance(dt)
    probe = setup.probe.grid
    lab = make_grid(probe.x_min, probe.x_max, setup.grid_n[epsilon])
    u = env.values.copy()
    return lab, u, _phi_values(lab, _envelope_spline(y_grid, u), traj, t, epsilon)


def test_profiles_are_normalized():
    y = np.linspace(-40.0, 40.0, 20001)
    for prof in ({"type": "gaussian"}, {"type": "hermite"},
                 {"type": "gaussian", "width": 1.5, "center": 0.3}):
        a = make_profile(prof)(y)
        assert np.trapezoid(np.abs(a) ** 2, y) == pytest.approx(1.0, abs=1e-9)


def test_ansatz_t0_matches_initial_data(harmonic_setup):
    lab, _, phi0 = ansatz_at(harmonic_setup, 1.0 / 64, 0.0)
    direct = build_initial_data(make_profile({"type": "gaussian"}), 1.0, 0.0,
                                np.ones((lab.n, 1)), 1.0 / 64, lab)
    assert l2_norm(lab, phi0[:, None] - direct) < 1e-6


def test_ansatz_norm_is_envelope_norm(harmonic_setup):
    for t in (0.0, 0.1, 0.2):
        lab, u, phi = ansatz_at(harmonic_setup, 1.0 / 64, t)
        u_norm = l2_norm(harmonic_setup.y_grid, u)
        assert l2_norm(lab, phi) == pytest.approx(u_norm, abs=1e-6)


def test_ansatz_peak_scales_like_quarter_root():
    setup = study_setup(HARMONIC, [GAUSSIAN_AT_1], [1.0 / 16, 1.0 / 64], 0.0,
                        0.05, -4.0, 4.0, observe_every=0.05)
    peaks = {eps: np.max(np.abs(ansatz_at(setup, eps, 0.05)[2]))
             for eps in (1.0 / 16, 1.0 / 64)}
    ratio = peaks[1.0 / 64] / peaks[1.0 / 16]
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.1)


def test_taylor_residual_quadratic_branch_is_zero(harmonic_run):
    # the run's Taylor series, at t = 0, 0.05, ..., 0.2
    assert len(harmonic_run.taylor) == 5
    assert np.all(harmonic_run.taylor < 1e-10)


def test_taylor_residual_order_three_halves():
    res = {}
    for eps in (1.0 / 64, 1.0 / 256):
        r = run_single_packet(rotating_family(), GAUSSIAN_AT_1, eps, 1.0, 0.1,
                              -2.5, 2.5, observe_every=0.05)
        res[eps] = r.taylor[-1]        # at t = 0.1
    order = np.log(res[1.0 / 64] / res[1.0 / 256]) / np.log(4.0)
    assert order == pytest.approx(1.5, abs=0.15)


def test_taylor_residual_below_remainder_bound(rotating_run, rotating_setup):
    # quadrature oracle: |λ - 𝒯| ≤ max|λ'''| / 6 · |x - x_c|³ near the packet,
    # so the residual is at most that times ‖y³u‖ ε^{3/2} (plus far tails)
    t, eps = 0.2, rotating_run.epsilon
    res = rotating_run.taylor[-1]
    lab, u, _ = ansatz_at(rotating_setup, eps, t)
    (traj,) = rotating_setup.trajectories[rotating_run.dt]
    x_c = float(traj.x_of(t))
    h = 1e-3
    xs = x_c + np.linspace(-6.0 * np.sqrt(eps), 6.0 * np.sqrt(eps), 101)
    curve = _branch_curve_for(rotating_family(),
                              decompose(rotating_family(), lab), 0)
    third = (curve.curvature(xs + h) - curve.curvature(xs - h)) / (2.0 * h)
    y = rotating_setup.y_grid.points
    y3u = np.sqrt(np.trapezoid(np.abs(y**3 * u) ** 2, y))
    bound = np.max(np.abs(third)) / 6.0 * eps**1.5 * y3u
    assert res <= 1.2 * bound


def test_error_report_exact_ansatz_is_zero(harmonic_setup):
    lab, _, phi = ansatz_at(harmonic_setup, 1.0 / 64, 0.1)
    chi = decompose(HARMONIC, lab).frames[0][:, :, 0]
    w_rep, th_rep = _error_norms(phi[:, None] * chi, [(phi, chi)], lab,
                                 1.0 / 64, 0.1)
    assert w_rep.value == 0.0
    assert th_rep.value == 0.0


def test_error_report_t0_is_interpolation_noise(harmonic_run):
    assert harmonic_run.w_sigma1[0] < 1e-6


def test_theta_pythagoras_with_orthogonal_correction(rotating_setup):
    # mode-1 error plus an off-branch correction: the L² components obey
    # ‖θ‖² = ‖w‖² + ‖εg‖² exactly
    eps, t = 1.0 / 64, 0.2
    lab, _, phi = ansatz_at(rotating_setup, eps, t)
    data = decompose(rotating_family(), lab)
    chi1 = data.frames[0][:, :, 0]  # packet rides branch 0
    bump = 0.05 * np.exp(-((lab.points - 1.0) ** 2) / 0.1).astype(complex)
    psi = (phi + bump)[:, None] * chi1
    g = {(1, 0): 0.4 * np.exp(-((lab.points - 1.0) ** 2) / 0.2).astype(complex)}
    w_rep, th_rep = _error_norms(psi, [(phi, chi1)], lab, eps, t,
                                 assemble_correction(g, data, eps).values)
    gf = sigma_norm(VectorField(grid=lab,
                                values=(eps * g[(1, 0)])[:, None]
                                * data.frames[1][:, :, 0],
                                epsilon=eps), 1)
    lhs = th_rep.components[(0, 0)] ** 2
    rhs = w_rep.components[(0, 0)] ** 2 + gf.components[(0, 0)] ** 2
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_assembled_correction_orthogonal_to_carrier(rotating_run):
    # the correction uses only off-branch frames, so it has no overlap with χ¹
    lab = make_grid(-2.5, 2.5, rotating_run.grid_n)
    data = decompose(rotating_family(), lab)
    g = {(1, 0): np.exp(-((lab.points - 1.0) ** 2)).astype(complex)}
    vec = assemble_correction(g, data, rotating_run.epsilon)
    chi1 = data.frames[0][:, :, 0]
    overlap = np.abs(np.sum(vec.values * chi1.conj(), axis=1))
    assert np.max(overlap) < 1e-7


def test_non_simple_branch_rejected():
    # the static carrier is the transported frame only on a simple branch
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.0)
    with pytest.raises(ConfigError, match="must be simple"):
        run_single_packet(MULTIPLET, p1, 1.0 / 16, 0.0, 0.1, -4.0, 4.0,
                          observe_every=0.05)
    with pytest.raises(ConfigError, match="must be simple"):
        superposition_experiment(MULTIPLET, (p1, p2), [1.0 / 16], 0.0, 0.1,
                                 -4.0, 4.0, observe_every=0.05)


def test_convergence_study_propagates_programming_errors(monkeypatch):
    import adiapack.experiments as experiments

    def broken(*args, **kwargs):
        raise TypeError("synthetic programming error")

    # the per-ε lane is where the lockstep isolates AdiapackErrors
    monkeypatch.setattr(experiments, "_Lane", broken)
    packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    with pytest.raises(TypeError):
        convergence_study(HARMONIC, packet, [1.0 / 16], 0.0, 0.1, -4.0, 4.0)


def test_fit_order_exact_line():
    fit = fit_order([0.04, 0.02, 0.01], [0.1, 0.05, 0.025])
    assert fit.defined
    assert fit.order == pytest.approx(1.0, abs=1e-12)
    assert fit.max_residual < 1e-12


def test_fit_order_undefined_for_zeros():
    fit = fit_order([0.04, 0.02], [0.0, 0.0])
    assert not fit.defined
    assert np.isnan(fit.order)


def test_scalar_control_order_half():
    # exactly quadratic scalar branch: the only error source is the ε^κ
    # perturbation, so the measured order is κ = 1/2
    packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0,
                        kappa=0.5, r0_profile={"type": "hermite"})
    sups = {}
    for eps in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        r = run_single_packet(HARMONIC, packet, eps, 0.0, 0.2, -4.0, 4.0,
                              observe_every=0.1)
        sups[eps] = r.sup_w_sigma1
    fit = fit_order(list(sups.keys()), list(sups.values()))
    assert fit.order == pytest.approx(0.5, abs=0.1)
    vals = list(sups.values())
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_correction_improves_off_mode_error(rotating_run):
    # θ = w + εg should not exceed w once the off-mode source is absorbed
    assert rotating_run.theta_sigma1[-1] <= rotating_run.w_sigma1[-1]


def test_mass_drift_tiny(rotating_run, harmonic_run):
    assert rotating_run.mass_drift < 1e-10
    assert harmonic_run.mass_drift < 1e-10


def test_superposition_gamma_same_branch_is_energy_difference():
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    rep = superposition_experiment(HARMONIC, (p1, p2), [1.0 / 32], 0.0, 0.1,
                                   -4.0, 4.0, gamma_exponent=0.3,
                                   observe_every=0.05)
    # E1 = 1/2, E2 = 1/8 + 1/2 = 5/8
    assert rep.big_gamma == pytest.approx(0.125, abs=1e-12)
    assert rep.big_gamma_edge_ok


def test_superposition_gamma_constant_difference():
    spec = MatrixPotentialSpec.from_strings(["0", "1"], ["0", "0", "0"])
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=0.0, xi0=1.0, branch=0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0, branch=1)
    rep = superposition_experiment(spec, (p1, p2), [1.0 / 32], 0.0, 0.1,
                                   -6.0, 6.0, gamma_exponent=0.3,
                                   observe_every=0.05)
    # λ̃1 - λ̃2 = -1 and E1 - E2 = 1/2 - 1 = -1/2, so Γ = 1/2 exactly
    assert rep.big_gamma == pytest.approx(0.5, abs=1e-12)


def test_superposition_rejects_identical_packets():
    p = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    with pytest.raises(ConfigError, match="must differ"):
        superposition_experiment(HARMONIC, (p, p), [1.0 / 32], 0.0, 0.1,
                                 -4.0, 4.0)


def test_superposition_rejects_bad_gamma():
    # the same failure, and class, as load_config's check of "gamma"
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.0)
    for gamma in (0.7, 0.0):
        with pytest.raises(ConfigError, match=r"gamma must lie in \(0, 1/2\)") \
                as exc:
            superposition_experiment(HARMONIC, (p1, p2), [1.0 / 32], 0.0, 0.1,
                                     -4.0, 4.0, gamma_exponent=gamma)
        assert exc.value.exit_code == 2


def test_snapshot_times_off_the_cadence_are_a_config_error():
    # load_config rejects these times with a ConfigError; a direct call does too
    packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    for times in ((0.0, 0.03), (0.15,)):
        with pytest.raises(ConfigError, match="observation times") as exc:
            run_single_packet(HARMONIC, packet, 1.0 / 16, 0.0, 0.1, -4.0, 4.0,
                              observe_every=0.05, snapshot_times=times)
        assert exc.value.exit_code == 2


def test_mass_guard_aborts_both_run_paths(monkeypatch):
    import adiapack.experiments as experiments
    from adiapack.errors import SolverAbort
    from adiapack.nls import NLSPropagator

    class Leaky(NLSPropagator):
        def step(self, values, *args, **kwargs):
            return super().step(values, *args, **kwargs) * (1.0 + 1e-6)

    monkeypatch.setattr(experiments, "NLSPropagator", Leaky)
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    with pytest.raises(SolverAbort, match="mass drift"):
        run_single_packet(HARMONIC, p1, 1.0 / 16, 0.0, 0.1, -4.0, 4.0,
                          observe_every=0.05)
    with pytest.raises(SolverAbort, match="mass drift"):
        superposition_experiment(HARMONIC, (p1, p2), [1.0 / 16], 0.0, 0.1,
                                 -4.0, 4.0, observe_every=0.05)



def test_lab_grid_rule_takes_the_largest_envelope_width_over_the_run():
    # width 2 in x²/2 narrows to width 1/2 at t = π/2: η_τ grows 4×, and
    # |ξ(t)| = |sin t| peaks at 1
    from adiapack.experiments import lab_grid_rule
    from adiapack.grids import make_grid
    from adiapack.nls import spectral_half_width
    from adiapack.potentials import decompose

    y = make_grid(-40.0, 40.0, 2048)
    probe = decompose(HARMONIC, make_grid(-4.0, 4.0, 4096))
    wide = PacketSpec(profile={"type": "gaussian", "width": 2.0}, x0=1.0, xi0=0.0)
    eta0 = spectral_half_width(y, wide.evaluator()(y.points))
    rule = lab_grid_rule(HARMONIC, probe, [wide], 0.0, 2.0, y)
    assert abs(rule.eta - 4.0 * eta0) <= 2.0 * np.pi / y.length
    assert rule.xi_max == pytest.approx(1.0, abs=1e-6)
    assert rule.points(1.0 / 64) == 1024


def test_lab_grid_rule_sizing_march_matches_a_fine_march(monkeypatch):
    # the cubic term widens a unit Gaussian's spectrum (η_τ 6.6 → 13); the
    # rule's 0.025 steps find the same largest η_τ as 1e-3 steps within 2%,
    # and two packets with the same profile and curvature are marched once
    import adiapack.experiments as experiments
    from adiapack.envelope import EnvelopeStepper
    from adiapack.grids import make_grid
    from adiapack.nls import spectral_half_width
    from adiapack.potentials import decompose

    y = make_grid(-40.0, 40.0, 2048)
    unit = make_profile({"type": "gaussian"})(y.points)
    env = EnvelopeStepper(y, unit, 1.0, lambda t: 1.0)
    fine = spectral_half_width(y, env.values)
    for _ in range(2000):
        env.advance(1e-3)
        fine = max(fine, spectral_half_width(y, env.values))

    marches = []

    class Counting(EnvelopeStepper):
        def __init__(self, *args):
            marches.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(experiments, "EnvelopeStepper", Counting)
    probe = decompose(HARMONIC, make_grid(-4.0, 4.0, 4096))
    packets = [PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0),
               PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)]
    rule = experiments.lab_grid_rule(HARMONIC, probe, packets, 1.0, 2.0, y)
    assert len(marches) == 1
    assert fine > 12.0
    assert abs(rule.eta - fine) <= 0.02 * fine


def test_lockstep_runs_match_each_epsilon_run_alone():
    # ε that share a step size march in one lockstep, with one envelope and
    # one trajectory per packet: every value is the solo run's, to the bit
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    pair = superposition_experiment(HARMONIC, (p1, p2), [1.0 / 16, 1.0 / 32],
                                    1.0, 0.1, -4.0, 4.0, observe_every=0.05)
    for i, eps in enumerate(pair.epsilons):
        solo = superposition_experiment(HARMONIC, (p1, p2), [eps], 1.0, 0.1,
                                        -4.0, 4.0, observe_every=0.05)
        for name in ("sup_errors", "terminal_errors", "crossing_measures",
                     "interaction_integrals", "grid_n", "energy_drift",
                     "fourier_tail"):
            assert getattr(pair, name)[i] == getattr(solo, name)[0], name

    packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0, branch=0)
    study = convergence_study(rotating_family(), packet, [1.0 / 32, 1.0 / 64],
                              1.0, 0.1, -2.5, 2.5, observe_every=0.05)
    assert [run.dt for run in study.runs] == [1e-3, 1e-3]
    for run in study.runs:
        solo = run_single_packet(rotating_family(), packet, run.epsilon, 1.0,
                                 0.1, -2.5, 2.5, observe_every=0.05)
        assert run.to_dict() == solo.to_dict()


def test_lockstep_steps_a_shared_envelope_once(monkeypatch):
    # both packets ride x²/2 with the same profile, so their curvature
    # samples agree and one envelope serves both packets and both ε:
    # T/dt = 100 steps, plus ⌈T/0.025⌉ = 4 steps of the sizing march
    from adiapack.envelope import EnvelopeStepper

    calls = []
    advance = EnvelopeStepper.advance

    def counting(self, dt):
        calls.append(dt)
        return advance(self, dt)

    monkeypatch.setattr(EnvelopeStepper, "advance", counting)
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    superposition_experiment(HARMONIC, (p1, p2), [1.0 / 16, 1.0 / 32], 1.0,
                             0.1, -4.0, 4.0, observe_every=0.05)
    assert len(calls) == 100 + 4


def test_step_rule_rejects_t_off_the_observation_cadence(monkeypatch):
    # the one step rule runs in the study set-up, before any decomposition
    import adiapack.experiments as experiments

    sizes = []
    monkeypatch.setattr(experiments, "decompose",
                        lambda spec, grid: sizes.append(grid.n))
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    runs = (lambda: run_single_packet(HARMONIC, p1, 1.0 / 16, 0.0, 0.12,
                                      -4.0, 4.0, observe_every=0.05),
            lambda: convergence_study(HARMONIC, p1, [1.0 / 16], 0.0, 0.12,
                                      -4.0, 4.0, observe_every=0.05),
            lambda: superposition_experiment(HARMONIC, (p1, p2), [1.0 / 16],
                                             0.0, 0.12, -4.0, 4.0,
                                             observe_every=0.05))
    for run in runs:
        with pytest.raises(ConfigError, match="multiple of observe_every") as exc:
            run()
        assert exc.value.exit_code == 2
    # a zero step bound was a ZeroDivisionError once the lab grid was built
    with pytest.raises(ConfigError, match="must be positive"):
        run_single_packet(HARMONIC, p1, 1.0 / 16, 0.0, 0.1, -4.0, 4.0,
                          observe_every=0.05, dt_max=0.0)
    assert sizes == []


def test_run_window_holds_the_measured_envelope_support():
    # Y_τ (|u| > 1e-13 max|u| at some sizing step) picks the smallest centred
    # power-of-two slice of the ±40/2048 y-grid: ±20/1024 where Y_τ is
    # 12.6-14.8, ±10/512 where it is 8.1; the lab grids are unchanged
    import json
    from pathlib import Path

    from adiapack.config import load_config
    from adiapack.experiments import study_setup
    from adiapack.grids import make_grid

    configs = Path(__file__).resolve().parent.parent / "configs"
    expected = {"rotating": (12.6, 1024), "superposition": (14.8, 1024),
                "crossing_control": (14.8, 1024), "scalar_harmonic": (8.1, 512),
                "smoke": (8.1, 512), "constant_direction": (8.1, 512)}
    full = make_grid(-40.0, 40.0, 2048)
    for name, (y_tau, points) in expected.items():
        cfg = load_config(configs / f"{name}.json")
        setup = study_setup(cfg.potential, cfg.packets, cfg.epsilons,
                            cfg.lambda_coupling, cfg.T, cfg.x_min, cfg.x_max,
                            cfg.y_half_width, cfg.y_points, cfg.n_override)
        window = setup.y_grid
        assert setup.rule.y_tau == pytest.approx(y_tau, abs=0.1), name
        assert window.n == points, name
        half = 0.5 * points * full.spacing
        assert (window.x_min, window.x_max, window.spacing) == \
            (-half, half, full.spacing)
        start = (full.n - points) // 2
        assert window.points.tobytes() == \
            full.points[start:start + points].tobytes()
        assert json.loads((configs / f"{name}.json").read_text()).get(
            "y_points", 2048) == 2048

    # wider Gaussians reach further out (e^{-y²/2w²} > 1e-13 for |y| < 7.7w
    # at t = 0): width 1 keeps ±10, width 2 gets ±20 and width 3 all of ±40
    for width, points in ((1.0, 512), (2.0, 1024), (3.0, 2048)):
        packet = PacketSpec(profile={"type": "gaussian", "width": width},
                            x0=1.0, xi0=0.0)
        setup = study_setup(HARMONIC, [packet], [1.0 / 64], 0.0, 0.5, -4.0, 4.0)
        assert setup.rule.y_tau >= 7.7 * width
        assert setup.y_grid.n == points, width


def test_lockstep_calls_the_nls_step_once_per_step(monkeypatch):
    # merged half steps still take one `NLSPropagator.step` per NLS step, and
    # ψ is closed exactly at the observations
    import adiapack.experiments as experiments
    from adiapack.nls import NLSPropagator

    calls = {}

    class Counting(NLSPropagator):
        def step(self, values, pending=False, close=True):
            counts = calls.setdefault(self.epsilon, [0, 0])
            counts[0] += 1
            counts[1] += close
            return super().step(values, pending, close)

    monkeypatch.setattr(experiments, "NLSPropagator", Counting)
    packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    eps_list = [1.0 / 16, 1.0 / 32, 1.0 / 256]
    convergence_study(HARMONIC, packet, eps_list, 0.0, 0.1, -4.0, 4.0,
                      observe_every=0.05)
    # dt = 1e-3 for the first two ε; dt = 0.05/52 for ε = 1/256
    assert calls == {1.0 / 16: [100, 2], 1.0 / 32: [100, 2],
                     1.0 / 256: [104, 2]}
