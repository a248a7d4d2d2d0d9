from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adiapack.classical import integrate_trajectory
from adiapack.corrections import assemble_correction
from adiapack.envelope import EnvelopeClock, EnvelopeStepper
from adiapack.errors import ConfigError
from adiapack.experiments import (PacketSpec, RunOptions, Study,
                                  _branch_curve_for, _error_norms,
                                  _phi_values, convergence_study,
                                  fit_order, make_profile, run_single_packet,
                                  study_setup, superposition_experiment)
from adiapack.expressions import parse_expr
from adiapack.grids import UniformCubicSpline, l2_norm, make_grid, sigma_norm
from adiapack.nls import build_initial_data
from adiapack.potentials import MatrixPotentialSpec, decompose
from tests.test_envelope import TickedClock
from tests.test_potentials import rotating_family

HARMONIC = MatrixPotentialSpec.from_strings(["x^2/2"], ["0"])
MULTIPLET = MatrixPotentialSpec.from_strings(["x^2/2", "x^2/2"], ["0", "0", "0"],
                                             multiplicities=(2,))
GAUSSIAN_AT_1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
EVERY_005 = RunOptions(observe_every=0.05)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def study(spec, packets, epsilons, lambda_coupling, T, x_min, x_max, **kwargs):
    """A `Study` of the given fields, in this order."""
    return Study(potential=spec, packets=packets, epsilons=epsilons,
                 lambda_coupling=lambda_coupling, T=T, x_min=x_min,
                 x_max=x_max, **kwargs)


@pytest.fixture(scope="module")
def harmonic_run():
    return run_single_packet(study(HARMONIC, [GAUSSIAN_AT_1], [1.0 / 64], 0.0,
                                   0.2, -4.0, 4.0, options=EVERY_005,
                                   snapshot_times=(0.2,)))


@pytest.fixture(scope="module")
def rotating_run():
    return run_single_packet(study(rotating_family(), [GAUSSIAN_AT_1],
                                   [1.0 / 64], 1.0, 0.2, -2.5, 2.5,
                                   options=EVERY_005))


@pytest.fixture(scope="module")
def harmonic_setup():
    return study_setup(study(HARMONIC, [GAUSSIAN_AT_1], [1.0 / 64], 0.0, 0.2,
                             -4.0, 4.0, options=EVERY_005))


@pytest.fixture(scope="module")
def rotating_setup():
    return study_setup(study(rotating_family(), [GAUSSIAN_AT_1], [1.0 / 64],
                             1.0, 0.2, -2.5, 2.5, options=EVERY_005))


def lockstep_clock(stepper, curvature, steps) -> TickedClock:
    """The lockstep's clock for `steps`, ticked on demand: curvature
    samples at steps.dt/4, a clock point every steps.per_clock steps and
    one at the last step."""
    return TickedClock(EnvelopeClock(stepper, curvature, steps.dt / 4.0), [
        4 * b for b in range(0, steps.total, steps.per_clock)] + [4 * steps.total])


def ansatz_at(setup, epsilon, t):
    """(lab grid, u(t) on the run window, φ(t) on the lab grid) of the
    set-up's one packet at ε, built from the pieces a run uses: the
    envelope's clock (`lockstep_clock`) along the set-up's one path, read
    at the path's sample at t (four per step of the finest dt), the
    envelope's spline and `_phi_values` there."""
    (packet,), (traj,) = setup.study.packets, setup.trajectories
    fine, y_grid = min(setup.steps.values()), setup.y_grid
    env = EnvelopeStepper(y_grid, packet.evaluator()(y_grid.points),
                          setup.study.lambda_coupling)
    i = 4 * int(round(t / fine.dt))
    u = lockstep_clock(env, traj.curvature, fine).at(i).copy()
    probe = setup.probe.grid
    lab = make_grid(probe.x_min, probe.x_max, setup.grid_n[epsilon])
    u_of = UniformCubicSpline(y_grid.x_min, y_grid.spacing, u)
    return lab, u, _phi_values(lab, u_of, traj.x[i], traj.xi[i],
                               traj.action[i], epsilon)


def harmonic_trajectories(packets, T, dt=1e-3):
    """Each packet's run trajectory of step size dt on x²/2 (samples at
    dt/4), as `study_setup` integrates it."""
    curve = parse_expr("x^2/2")
    return [integrate_trajectory(curve, pk.x0, pk.xi0, T, dt / 4.0)
            for pk in packets]


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
    setup = study_setup(study(HARMONIC, [GAUSSIAN_AT_1], [1.0 / 16, 1.0 / 64],
                              0.0, 0.05, -4.0, 4.0, options=EVERY_005))
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
        r = run_single_packet(study(rotating_family(), [GAUSSIAN_AT_1], [eps],
                                    1.0, 0.1, -2.5, 2.5, options=EVERY_005))
        res[eps] = r.taylor[-1]        # at t = 0.1
    order = np.log(res[1.0 / 64] / res[1.0 / 256]) / np.log(4.0)
    assert order == pytest.approx(1.5, abs=0.15)


def test_taylor_residual_below_remainder_bound(rotating_run, rotating_setup):
    # quadrature oracle: |λ - 𝒯| ≤ max|λ'''| / 6 · |x - x_c|³ near the packet,
    # so the residual is at most that times ‖y³u‖ ε^{3/2} (plus far tails)
    t, eps = 0.2, rotating_run.epsilon
    res = rotating_run.taylor[-1]
    lab, u, _ = ansatz_at(rotating_setup, eps, t)
    (traj,) = rotating_setup.trajectories
    x_c = float(traj.x[4 * int(round(t / rotating_run.dt))])
    h = 1e-3
    xs = x_c + np.linspace(-6.0 * np.sqrt(eps), 6.0 * np.sqrt(eps), 101)
    curve = _branch_curve_for(rotating_family(),
                              decompose(rotating_family(), lab), 0)
    third = (curve(xs + h, 2) - curve(xs - h, 2)) / (2.0 * h)
    y = rotating_setup.y_grid.points
    y3u = np.sqrt(np.trapezoid(np.abs(y**3 * u) ** 2, y))
    bound = np.max(np.abs(third)) / 6.0 * eps**1.5 * y3u
    assert res <= 1.2 * bound


def test_error_report_exact_ansatz_is_zero(harmonic_setup):
    lab, _, phi = ansatz_at(harmonic_setup, 1.0 / 64, 0.1)
    chi = decompose(HARMONIC, lab).frames[0][:, :, 0]
    w_rep, th_rep = _error_norms(phi[:, None] * chi, [(phi, chi)], lab,
                                 1.0 / 64)
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
    w_rep, th_rep = _error_norms(psi, [(phi, chi1)], lab, eps,
                                 assemble_correction(g, data))
    gf = sigma_norm(lab, (eps * g[(1, 0)])[:, None] * data.frames[1][:, :, 0],
                    eps, 1)
    lhs = th_rep.components[(0, 0)] ** 2
    rhs = w_rep.components[(0, 0)] ** 2 + gf.components[(0, 0)] ** 2
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_assembled_correction_orthogonal_to_carrier(rotating_run):
    # the correction uses only off-branch frames, so it has no overlap with χ¹
    lab = make_grid(-2.5, 2.5, rotating_run.grid_n)
    data = decompose(rotating_family(), lab)
    g = {(1, 0): np.exp(-((lab.points - 1.0) ** 2)).astype(complex)}
    vec = assemble_correction(g, data)
    chi1 = data.frames[0][:, :, 0]
    overlap = np.abs(np.sum(vec * chi1.conj(), axis=1))
    assert np.max(overlap) < 1e-7


def test_non_simple_branch_rejected():
    # the static carrier is the transported frame only on a simple branch
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.0)
    # building the study checks every packet, the one check of the scope
    for packets in ([p1], [p1, p2]):
        with pytest.raises(ConfigError, match="must be simple"):
            study(MULTIPLET, packets, [1.0 / 16], 0.0, 0.1, -4.0, 4.0,
                  options=EVERY_005)


def test_convergence_study_propagates_programming_errors(monkeypatch):
    import adiapack.experiments as experiments

    def broken(*args, **kwargs):
        raise TypeError("synthetic programming error")

    # the per-ε lane is where the lockstep isolates AdiapackErrors
    monkeypatch.setattr(experiments, "_Lane", broken)
    packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    with pytest.raises(TypeError):
        convergence_study(study(HARMONIC, [packet], [1.0 / 16], 0.0, 0.1,
                                -4.0, 4.0))


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
        r = run_single_packet(study(HARMONIC, [packet], [eps], 0.0, 0.2, -4.0,
                                    4.0, options=RunOptions(observe_every=0.1)))
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
    rep = superposition_experiment(study(HARMONIC, (p1, p2), [1.0 / 32], 0.0,
                                         0.1, -4.0, 4.0, gamma_exponent=0.3,
                                         options=EVERY_005))
    # E1 = 1/2, E2 = 1/8 + 1/2 = 5/8
    assert rep.big_gamma == pytest.approx(0.125, abs=1e-12)
    assert rep.big_gamma_edge_ok


def test_superposition_gamma_constant_difference():
    spec = MatrixPotentialSpec.from_strings(["0", "1"], ["0", "0", "0"])
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=0.0, xi0=1.0, branch=0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0, branch=1)
    rep = superposition_experiment(study(spec, (p1, p2), [1.0 / 32], 0.0, 0.1,
                                         -6.0, 6.0, gamma_exponent=0.3,
                                         options=EVERY_005))
    # λ̃1 - λ̃2 = -1 and E1 - E2 = 1/2 - 1 = -1/2, so Γ = 1/2 exactly
    assert rep.big_gamma == pytest.approx(0.5, abs=1e-12)


def test_swapping_the_two_packets_leaves_the_superposition_report():
    # the swap relation on superposition.json at ε = 1/64 and 1/256 (lanes
    # of dt 1e-3 and 0.01/11): w = ψ - φ₁χ¹ - φ₂χ², the crossing set and Γ
    # do not depend on the packets' order (the norms moved by 1.6e-16;
    # ‖|φ₁|²φ₂‖, the interaction integrand, is not symmetric)
    from adiapack.config import load_config

    cfg = replace(load_config(CONFIGS / "superposition.json"),
                  epsilons=[1.0 / 64, 1.0 / 256])
    plain = superposition_experiment(cfg)
    swapped = superposition_experiment(replace(cfg, packets=cfg.packets[::-1]))
    for name in ("sup_errors", "terminal_errors"):
        assert getattr(swapped, name) == pytest.approx(getattr(plain, name),
                                                       rel=1e-9), name
    assert swapped.crossing_measures == plain.crossing_measures
    assert swapped.big_gamma == plain.big_gamma


def test_superposition_rejects_identical_packets():
    p = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    with pytest.raises(ConfigError, match="must differ"):
        superposition_experiment(study(HARMONIC, (p, p), [1.0 / 32], 0.0, 0.1,
                                       -4.0, 4.0))
    # and a study of one packet has no pair to superpose
    with pytest.raises(ConfigError, match="needs two packets"):
        superposition_experiment(study(HARMONIC, (p,), [1.0 / 32], 0.0, 0.1,
                                       -4.0, 4.0))


def test_superposition_rejects_bad_gamma():
    # the same failure, and class, as load_config's check of "gamma": the
    # study's one check
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.0)
    for gamma in (0.7, 0.0):
        with pytest.raises(ConfigError, match=r"gamma must lie in \(0, 1/2\)") \
                as exc:
            study(HARMONIC, (p1, p2), [1.0 / 32], 0.0, 0.1, -4.0, 4.0,
                  gamma_exponent=gamma)
        assert exc.value.exit_code == 2


def test_snapshot_times_off_the_cadence_are_a_config_error():
    # load_config rejects these times with a ConfigError; building the study
    # of a direct call does too, with the same rule (0.0500001 labelled the
    # step at 0.05 once)
    packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    for times in ((0.0, 0.03), (0.15,), (0.0500001,)):
        with pytest.raises(ConfigError, match="not a multiple of "
                           r"observe_every in \[0, T\]") as exc:
            study(HARMONIC, [packet], [1.0 / 16], 0.0, 0.1, -4.0, 4.0,
                  options=EVERY_005, snapshot_times=times)
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
        run_single_packet(study(HARMONIC, [p1], [1.0 / 16], 0.0, 0.1, -4.0,
                                4.0, options=EVERY_005))
    with pytest.raises(SolverAbort, match="mass drift"):
        superposition_experiment(study(HARMONIC, (p1, p2), [1.0 / 16], 0.0,
                                       0.1, -4.0, 4.0, options=EVERY_005))



def test_superpose_raises_its_second_lane_failure_after_the_march(
        monkeypatch):
    # both ε share dt = 1e-3 and step together in one lockstep: the second
    # lane's abort leaves the first lane marching to T, and then it is raised
    import adiapack.experiments as experiments
    from adiapack.errors import SolverAbort

    last_steps = {}

    class FailsSecond(experiments._Lane):
        def nls_step(self, step, close):
            if self.epsilon == 1.0 / 32 and step == 10:
                raise SolverAbort("synthetic abort of the second lane")
            super().nls_step(step, close)
            last_steps[self.epsilon] = step

    monkeypatch.setattr(experiments, "_Lane", FailsSecond)
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    with pytest.raises(SolverAbort, match="second lane") as exc:
        superposition_experiment(study(HARMONIC, (p1, p2), [1.0 / 16, 1.0 / 32],
                                       0.0, 0.1, -4.0, 4.0, options=EVERY_005))
    assert exc.value.exit_code == 4
    assert last_steps == {1.0 / 16: 100, 1.0 / 32: 9}


def test_lab_grid_rule_takes_the_largest_envelope_width_over_the_run():
    # width 2 in x²/2 narrows to width 1/2 at t = π/2: η_τ grows 4×, and
    # |ξ(t)| = |sin t| peaks at 1
    from adiapack.experiments import lab_grid_rule
    from adiapack.grids import make_grid
    from adiapack.nls import lab_grid_points, spectral_half_width

    y = make_grid(-40.0, 40.0, 2048)
    wide = PacketSpec(profile={"type": "gaussian", "width": 2.0}, x0=1.0, xi0=0.0)
    eta0 = spectral_half_width(y, wide.evaluator()(y.points))
    rule = lab_grid_rule([wide], harmonic_trajectories([wide], 2.0), 1e-3,
                         0.0, y)
    assert abs(rule.eta - 4.0 * eta0) <= 2.0 * np.pi / y.length
    assert rule.xi_max == pytest.approx(1.0, abs=1e-6)
    assert lab_grid_points(8.0, 1.0 / 64, rule.xi_max, rule.eta) == 1024


def test_lab_grid_rule_sizing_march_matches_a_fine_march(monkeypatch):
    # the cubic term widens a unit Gaussian's spectrum (η_τ 6.6 → 13); the
    # rule's 0.025 steps find the same largest η_τ as 1e-3 steps within 2%,
    # and two packets with the same profile and curvature are marched once
    import adiapack.experiments as experiments
    from adiapack.envelope import EnvelopeStepper
    from adiapack.grids import make_grid
    from adiapack.nls import spectral_half_width

    y = make_grid(-40.0, 40.0, 2048)
    unit = make_profile({"type": "gaussian"})(y.points)
    env = EnvelopeStepper(y, unit, 1.0)
    fine = spectral_half_width(y, env.values)
    for _ in range(2000):
        env.advance(1e-3, 1.0)
        fine = max(fine, spectral_half_width(y, env.values))

    marches = []

    class Counting(EnvelopeStepper):
        def __init__(self, *args):
            marches.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(experiments, "EnvelopeStepper", Counting)
    packets = [PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0),
               PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)]
    rule = experiments.lab_grid_rule(
        packets, harmonic_trajectories(packets, 2.0), 1e-3, 1.0, y)
    assert len(marches) == 1
    assert fine > 12.0
    assert abs(rule.eta - fine) <= 0.02 * fine


def test_a_sizing_march_guard_names_its_step_end(monkeypatch):
    # the sizing march's third 0.025 step ends at step 75 of dt = 1e-3: its
    # guard names t = 0.075, not the float sum 0.07500000000000001
    calls, advance = [], EnvelopeStepper.advance

    def leaky(self, dt, curvature, time=None):
        calls.append(dt)
        if len(calls) == 3:
            self.values *= 1.0 + 1e-6
        advance(self, dt, curvature, time)

    monkeypatch.setattr(EnvelopeStepper, "advance", leaky)
    with pytest.raises(ConfigError) as exc:
        study_setup(study(HARMONIC, [GAUSSIAN_AT_1], [1.0 / 64], 0.0, 0.1,
                          -4.0, 4.0, options=EVERY_005))
    assert calls == [0.025] * 3
    assert exc.value.messages == [
        "grid derivation failed: envelope mass drift 1.000e-06 above "
        "1.0e-08 at t = 0.075"]


def test_a_crossing_set_that_covers_the_run_measures_t():
    # Γ = 0: both packets start at one phase-space point on x²/2 ± 1, so
    # |x₁ - x₂| = 0 ≤ ε^γ at every sample of [0, T]; counting both end
    # samples read T plus one sample spacing, 0.10025
    spec = MatrixPotentialSpec.from_strings(["x^2/2", "x^2/2"],
                                            ["cos(x)", "sin(x)", "-cos(x)"])
    pair = [PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0, branch=b)
            for b in (0, 1)]
    report = superposition_experiment(study(spec, pair, [1.0 / 16], 1.0, 0.1,
                                            -4.0, 4.0, options=EVERY_005))
    assert report.gamma_zero_warning
    assert report.crossing_measures == [pytest.approx(0.1, rel=1e-12)]


def test_lockstep_runs_match_each_epsilon_run_alone():
    # ε that share a step size step together in one lockstep, with one
    # envelope and one trajectory per packet: every value is the solo run's,
    # to the bit
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    pair = superposition_experiment(study(HARMONIC, (p1, p2),
                                          [1.0 / 16, 1.0 / 32], 1.0, 0.1,
                                          -4.0, 4.0, options=EVERY_005))
    for i, eps in enumerate(pair.epsilons):
        solo = superposition_experiment(study(HARMONIC, (p1, p2), [eps], 1.0,
                                              0.1, -4.0, 4.0,
                                              options=EVERY_005))
        for name in ("sup_errors", "terminal_errors", "crossing_measures",
                     "interaction_integrals", "grid_n", "energy_drift",
                     "fourier_tail"):
            assert getattr(pair, name)[i] == getattr(solo, name)[0], name

    packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0, branch=0)
    sweep = convergence_study(study(rotating_family(), [packet],
                                    [1.0 / 32, 1.0 / 64], 1.0, 0.1, -2.5, 2.5,
                                    options=EVERY_005))
    assert [run.dt for run in sweep.runs] == [1e-3, 1e-3]
    for run in sweep.runs:
        solo = run_single_packet(study(rotating_family(), [packet],
                                       [run.epsilon], 1.0, 0.1, -2.5, 2.5,
                                       options=EVERY_005))
        assert run.to_dict() == solo.to_dict()


def test_one_march_holds_lanes_of_two_step_sizes(monkeypatch):
    # a shadow lane: on rotating.json, ε = 1/32 steps dt = 0.005 next to
    # ε = 1/64 at dt = 0.0025, in one march on one clock of T/0.01 = 50
    # triple jumps (a march per step size took 100).  The clock runs on the
    # finest dt's curvature samples: that lane's report is its run alone's,
    # and the coarser lane's sup ‖w‖ moves by less than 1e-6
    import adiapack.experiments as experiments
    from adiapack.config import load_config
    from adiapack.nls import NLSPropagator

    cfg = load_config(CONFIGS / "rotating.json")
    options = replace(cfg.options, dt_max=0.01, dt_over_epsilon=0.16)

    def sweep(epsilons):
        return convergence_study(replace(cfg, T=0.5, epsilons=epsilons,
                                         options=options, snapshot_times=None))

    jumps, steps, jump = [], {}, EnvelopeClock.jump

    class Counting(NLSPropagator):
        def step(self, *args, **kwargs):
            steps[self.epsilon] = steps.get(self.epsilon, 0) + 1
            return super().step(*args, **kwargs)

    monkeypatch.setattr(EnvelopeClock, "jump",
                        lambda self, b1: jumps.append(jump(self, b1)))
    monkeypatch.setattr(experiments, "NLSPropagator", Counting)
    pair = sweep([1.0 / 32, 1.0 / 64])
    assert len(jumps) == 50
    assert steps == {1.0 / 32: 100, 1.0 / 64: 200}
    assert [run.dt for run in pair.runs] == [0.005, 0.0025]
    monkeypatch.undo()
    coarse, fine = (sweep([eps]).runs[0] for eps in (1.0 / 32, 1.0 / 64))
    assert pair.runs[1].to_dict() == fine.to_dict()
    assert pair.runs[0].sup_w_sigma1 == pytest.approx(coarse.sup_w_sigma1,
                                                      rel=1e-6)


def test_lockstep_steps_a_shared_envelope_once(monkeypatch):
    # both packets ride x²/2 with the same profile, so their curvature
    # samples agree and one envelope serves both packets and both ε: three
    # triple-jump stages for each of the T/0.01 = 10 clock intervals, plus
    # ⌈T/0.025⌉ = 4 steps of the sizing march
    from adiapack.envelope import EnvelopeStepper

    calls = []
    advance = EnvelopeStepper.advance

    def counting(self, dt, curvature, time=None):
        calls.append(dt)
        return advance(self, dt, curvature, time)

    monkeypatch.setattr(EnvelopeStepper, "advance", counting)
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    superposition_experiment(study(HARMONIC, (p1, p2), [1.0 / 16, 1.0 / 32],
                                   1.0, 0.1, -4.0, 4.0, options=EVERY_005))
    assert len(calls) == 3 * 10 + 4


def clock_and_strang_errors(name):
    """On the shipped config's first packet and ε (T = 1, dt = 1e-3, its
    run trajectory's curvature samples at dt/4), the worst L² error against
    a fine Strang march (steps of dt/8, midpoint curvatures from a
    trajectory at dt/16 on the same branch curve) of u read at observations
    (every 0.01) and at step midpoints: by the clock, and by the Strang
    marches the clock replaced (steps of dt read at observations; dt/2
    halves read at midpoints)."""
    from adiapack.config import load_config

    raw = load_config(CONFIGS / f"{name}.json")
    setup = study_setup(replace(raw, T=1.0, packets=raw.packets[:1],
                                epsilons=raw.epsilons[:1], snapshot_times=None))
    (packet,), steps = setup.study.packets, setup.steps[raw.epsilons[0]]
    (traj,), y, lam = (setup.trajectories, setup.y_grid,
                       setup.study.lambda_coupling)
    a = packet.evaluator()(y.points)
    fine = integrate_trajectory(
        _branch_curve_for(raw.potential, setup.probe, packet.branch),
        packet.x0, packet.xi0, 1.0, steps.dt / 16.0)
    ref, marches = EnvelopeStepper(y, a, lam), [EnvelopeStepper(y, a, lam)
                                                for _ in range(2)]
    clock = lockstep_clock(EnvelopeStepper(y, a, lam), traj.curvature, steps)
    errors = {key: 0.0 for key in ("clock obs", "strang obs", "clock mid",
                                   "strang mid")}

    def worst(key, u, u_ref):
        errors[key] = max(errors[key], l2_norm(y, u - u_ref))

    for s in range(1, steps.total + 1):
        for k in range(8 * s - 8, 8 * s):
            ref.advance(steps.dt / 8.0, fine.curvature[2 * k + 1])
            if k == 8 * s - 5:          # the step's midpoint
                worst("clock mid", clock.at(4 * s - 2), ref.values)
                marches[1].advance(0.5 * steps.dt, traj.curvature[4 * s - 3])
                worst("strang mid", marches[1].values, ref.values)
                marches[1].advance(0.5 * steps.dt, traj.curvature[4 * s - 1])
        marches[0].advance(steps.dt, traj.curvature[4 * s - 2])
        if s % steps.per_obs == 0:
            worst("clock obs", clock.at(4 * s), ref.values)
            worst("strang obs", marches[0].values, ref.values)
    return errors


@pytest.mark.parametrize("name", ["rotating", "crossing_control",
                                  "constant_direction"])
def test_clock_reads_are_within_the_strang_march_error(name):
    # on branch splines, whose λ'' is piecewise linear in x: with each
    # stage at the spline's midpoint value instead of its stage mean, the
    # midpoint reads on constant_direction.json erred 4.6e-8 (Strang 3.0e-8)
    errors = clock_and_strang_errors(name)
    assert errors["clock obs"] <= errors["strang obs"], errors
    assert errors["clock mid"] <= errors["strang mid"], errors


def test_a_read_at_a_clock_point_is_the_clock_sample():
    # clock points every 10 steps of dt = 1e-3 (sample 40, 80, ...): a read
    # there is the stepper's closed samples after the interval's three
    # stages, byte for byte, whether or not a Hermite read came first
    setup = study_setup(study(rotating_family(), [GAUSSIAN_AT_1], [1.0 / 64],
                              1.0, 0.1, -2.5, 2.5))
    steps, (traj,), y = setup.steps[1.0 / 64], setup.trajectories, \
        setup.y_grid
    clocks = [lockstep_clock(EnvelopeStepper(
        y, GAUSSIAN_AT_1.evaluator()(y.points), 1.0), traj.curvature, steps)
              for _ in range(2)]
    between = clocks[0].at(22)
    assert not np.array_equal(between, clocks[0].at(40))
    assert clocks[0].at(40).tobytes() == clocks[1].at(40).tobytes() \
        == clocks[1].clock.stepper.values.tobytes()
    assert clocks[1].clock.stepper.time == 0.01


def test_a_path_read_is_the_coarse_lane_path_or_the_sample_itself():
    # rotating.json's one path is at q = 0.01/84, a quarter of its finest
    # dt; the ε = 1/64 lane steps dt = 1e-3, 10 steps a clock interval of
    # 84 samples.  Its step ends and midpoints read as the lockstep does
    # agree with that lane's own path at dt/4 within 1e-13 (Hermite reads
    # between samples erred at most 4.3e-15), and a read that lands on a
    # sample (step ends 5 and 10 and midpoints 3 and 8 of each interval)
    # is that sample's floats, bit for bit
    from adiapack.config import load_config

    cfg = load_config(CONFIGS / "rotating.json")
    setup = study_setup(cfg)
    (path,), (packet,) = setup.trajectories, cfg.packets
    steps = setup.steps[1.0 / 64]
    assert steps.dt == 1e-3 and path.times[1] == 0.01 / 84
    own = integrate_trajectory(
        _branch_curve_for(cfg.potential, setup.probe, packet.branch),
        packet.x0, packet.xi0, cfg.T, 2.5e-4)
    worst, on_samples = 0.0, 0
    for j in range(steps.total // steps.per_clock):
        b0, b1, n = 84 * j, 84 * (j + 1), steps.per_clock
        for k in range(1, 2 * n + 1):   # half steps: midpoints and ends
            read = path.at(b0, b1, k, 2 * n)
            i = 2 * (j * n) + k
            mine = (own.x[2 * i], own.xi[2 * i], own.action[2 * i])
            worst = max(worst, *(abs(a - b) for a, b in zip(read, mine)))
            if (b1 - b0) * k % (2 * n) == 0:
                on_samples += 1
                at = b0 + (b1 - b0) * k // (2 * n)
                assert [v.tobytes() for v in read] == [v.tobytes() for v in (
                    path.x[at], path.xi[at], path.action[at])]
    assert on_samples == 4 * 100 and worst < 1e-13, worst


def test_step_rule_rejects_t_off_the_observation_cadence(monkeypatch):
    # building the study checks T on the cadence, and every other rule,
    # before any decomposition; a driver once met these values late, as
    # ZeroDivisionError (ε = 0, -1/16), OverflowError (NaN ε), ValueError
    # (empty ε list, T = -0.1, x_min > x_max) or a run (T = 0, λ = NaN, a
    # snapshot at 0.0500001 labelled with step 50)
    import adiapack.experiments as experiments

    sizes = []
    monkeypatch.setattr(experiments, "decompose",
                        lambda spec, grid: sizes.append(grid.n))
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    nan, in_range = float("nan"), "epsilons: every value must lie in (0, 1]"
    cadence = "T must be an integer multiple of observe_every"
    cases = [(dict(T=0.12), cadence),
             (dict(T=0.12, packets=[p1, p2]), cadence),
             (dict(epsilons=[0.0]), in_range),
             (dict(epsilons=[-1.0 / 16]), in_range),
             (dict(epsilons=[nan]), in_range),
             (dict(epsilons=[]), "epsilons: need a list of at least one value"),
             (dict(T=0.0), "T must be positive"),
             (dict(T=-0.1), "T must be positive"),
             (dict(x_min=4.0), "grid: x_min must be below x_max"),
             (dict(x_min=5.0), "grid: x_min must be below x_max"),
             (dict(lambda_coupling=nan), "lambda must be a finite number"),
             (dict(snapshot_times=(0.0500001,)), "snapshot_times[0]: 0.0500001 "
              "is not a multiple of observe_every in [0, T]")]
    base = dict(potential=HARMONIC, packets=[p1], epsilons=[1.0 / 16], T=0.1,
                x_min=-4.0, x_max=4.0, options=EVERY_005)
    for fields, message in cases:
        with pytest.raises(ConfigError) as exc:
            Study(**{**base, **fields})
        assert exc.value.errors == [message]
        assert exc.value.exit_code == 2
    # a zero step bound was a ZeroDivisionError once the lab grid was built
    with pytest.raises(ConfigError, match="must be positive"):
        run_single_packet(study(HARMONIC, [p1], [1.0 / 16], 0.0, 0.1, -4.0,
                                4.0, options=RunOptions(observe_every=0.05,
                                                        dt_max=0.0)))
    assert sizes == []


def test_run_window_holds_the_measured_envelope_support():
    # Y_τ (|u| > 1e-13 max|u| at some sizing step) picks the smallest centred
    # power-of-two slice of the ±40/2048 y-grid: ±20/1024 where Y_τ is
    # 12.6-14.8, ±10/512 where it is 8.1; the lab grids are unchanged, and
    # every config's lab grid sizes for its own ε list are pinned
    import json
    from pathlib import Path

    from adiapack.config import load_config
    from adiapack.experiments import study_setup
    from adiapack.grids import make_grid

    configs = Path(__file__).resolve().parent.parent / "configs"
    expected = {
        "rotating": (12.6, 1024, [1024, 1024, 2048, 4096]),
        "superposition": (14.8, 1024, [2048, 4096, 8192]),
        "crossing_control": (14.8, 1024, [2048, 4096, 8192]),
        "scalar_harmonic": (8.1, 512, [1024, 1024, 2048, 4096]),
        "smoke": (8.1, 512, [256, 256]),
        "constant_direction": (8.1, 512, [1024])}
    full = make_grid(-40.0, 40.0, 2048)
    for name, (y_tau, points, grid_n) in expected.items():
        cfg = load_config(configs / f"{name}.json")
        setup = study_setup(cfg)
        window = setup.y_grid
        assert setup.rule.y_tau == pytest.approx(y_tau, abs=0.1), name
        assert window.n == points, name
        assert [setup.grid_n[eps] for eps in cfg.epsilons] == grid_n, name
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
        setup = study_setup(study(HARMONIC, [packet], [1.0 / 64], 0.0, 0.5,
                                  -4.0, 4.0))
        assert setup.rule.y_tau >= 7.7 * width
        assert setup.y_grid.n == points, width


def test_lockstep_calls_the_nls_step_once_per_step(monkeypatch):
    # merged half steps still take one `NLSPropagator.step` per NLS step, and
    # ψ is closed exactly at the observations; every ε shares one clock of
    # T/0.01 triple jumps, also when observing every step (observe_every =
    # dt = 1e-3)
    import adiapack.experiments as experiments
    from adiapack.nls import NLSPropagator

    calls, ends, jump = {}, [], EnvelopeClock.jump

    class Counting(NLSPropagator):
        def step(self, values, pending=False, close=True):
            counts = calls.setdefault(self.epsilon, [0, 0])
            counts[0] += 1
            counts[1] += close
            return super().step(values, pending, close)

    def recording(self, b1):
        jump(self, b1)
        ends.append(self.stepper.time)

    monkeypatch.setattr(experiments, "NLSPropagator", Counting)
    monkeypatch.setattr(EnvelopeClock, "jump", recording)
    packet = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    eps_list = [1.0 / 16, 1.0 / 32, 1.0 / 256]
    convergence_study(study(HARMONIC, [packet], eps_list, 0.0, 0.1, -4.0, 4.0,
                            options=EVERY_005))
    # dt = 1e-3 for the first two ε; dt = 0.01/11 for ε = 1/256, the
    # largest that lands on the 0.01 clock points
    assert calls == {1.0 / 16: [100, 2], 1.0 / 32: [100, 2],
                     1.0 / 256: [110, 2]}
    every_001 = pytest.approx([0.01 * j for j in range(1, 11)], abs=1e-15)
    assert ends == every_001
    calls.clear()
    ends.clear()
    convergence_study(study(HARMONIC, [packet], [1.0 / 16], 0.0, 0.1, -4.0,
                            4.0, options=RunOptions(observe_every=1e-3)))
    assert calls == {1.0 / 16: [100, 100]}
    assert ends == every_001


def test_a_two_packet_lane_carries_no_correction(monkeypatch, rotating_setup):
    # the study decides the corrections: one packet carries g on the other
    # branch, two carry none and build no `ScalarPropagator`
    import adiapack.experiments as experiments

    assert list(experiments._Lane(rotating_setup, 1.0 / 64).carried) == [(1, 0)]
    lanes = []

    class Recording(experiments._Lane):
        def __init__(self, setup, epsilon):
            super().__init__(setup, epsilon)
            lanes.append(self)

    def no_propagator(*args, **kwargs):
        raise AssertionError("a two-packet lane built a ScalarPropagator")

    monkeypatch.setattr(experiments, "_Lane", Recording)
    monkeypatch.setattr(experiments, "ScalarPropagator", no_propagator)
    p1 = PacketSpec(profile={"type": "gaussian"}, x0=1.0, xi0=0.0)
    p2 = PacketSpec(profile={"type": "gaussian"}, x0=-1.0, xi0=0.5)
    superposition_experiment(study(rotating_family(), (p1, p2), [1.0 / 64],
                                   1.0, 0.1, -2.5, 2.5, options=EVERY_005))
    assert len(lanes) == 1
    assert lanes[0].carried == {} and lanes[0].g_props == {}


def test_only_single_runs_keep_their_snapshot_times(harmonic_run,
                                                     rotating_run):
    assert list(harmonic_run.snapshots) == [0.2]
    assert list(rotating_run.snapshots) == [0.0, 0.2]   # the default (0, T)
    run = run_single_packet(study(HARMONIC, [GAUSSIAN_AT_1], [1.0 / 16], 0.0,
                                  0.2, -4.0, 4.0, options=EVERY_005,
                                  snapshot_times=(0.05, 0.15)))
    assert list(run.snapshots) == [0.05, 0.15]
    # a converge run keeps none, whatever the study's snapshot times
    sweep = convergence_study(study(HARMONIC, [GAUSSIAN_AT_1],
                                    [1.0 / 16, 1.0 / 32], 0.0, 0.2, -4.0, 4.0,
                                    options=EVERY_005,
                                    snapshot_times=(0.05, 0.15)))
    assert len(sweep.runs) == 2
    assert all(r.snapshots == {} for r in sweep.runs)
