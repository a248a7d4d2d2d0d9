"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The whole module takes a
few minutes single-threaded; the heavy sweeps are shared module fixtures.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from adiapack.classical import BranchCurve, integrate_trajectory
from adiapack.cli import main
from adiapack.config import load_config
from adiapack.corrections import averaging_probe
from adiapack.eigenframe import (frame_at, initial_frame, parallel_residual,
                                 transport_frame)
from adiapack.experiments import (convergence_study, fit_order, lab_grid_rule,
                                  make_profile, superposition_experiment)
from adiapack.expressions import parse_expr
from adiapack.grids import ScalarField, l2_norm, make_grid
from adiapack.nls import NLSPropagator, build_initial_data, check_step_mass
from adiapack.potentials import (decompose, growth_scan,
                                 projector_identity_residuals)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ALL_CONFIGS = ("scalar_harmonic", "rotating", "superposition",
               "crossing_control", "constant_direction", "smoke")


def check(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _study(cfg):
    return convergence_study(
        cfg.potential, cfg.packets[0], cfg.epsilons, cfg.lambda_coupling,
        cfg.T, cfg.x_min, cfg.x_max,
        observe_every=cfg.observe_every, dt_max=cfg.dt_max,
        dt_over_eps=cfg.dt_over_epsilon, y_half_width=cfg.y_half_width,
        y_points=cfg.y_points, n_override=cfg.n_override, beta=cfg.beta)


@pytest.fixture(scope="module")
def scalar_report():
    return _study(load_config(CONFIGS / "scalar_harmonic.json"))


@pytest.fixture(scope="module")
def rotating_report():
    return _study(load_config(CONFIGS / "rotating.json"))


@pytest.fixture(scope="module")
def superposition_report():
    cfg = load_config(CONFIGS / "superposition.json")
    return superposition_experiment(
        cfg.potential, tuple(cfg.packets[:2]), cfg.epsilons,
        cfg.lambda_coupling, cfg.T, cfg.x_min, cfg.x_max,
        gamma_exponent=cfg.gamma_exponent, observe_every=cfg.observe_every)


@pytest.fixture(scope="module")
def crossing_report():
    cfg = load_config(CONFIGS / "crossing_control.json")
    return superposition_experiment(
        cfg.potential, tuple(cfg.packets[:2]), cfg.epsilons,
        cfg.lambda_coupling, cfg.T, cfg.x_min, cfg.x_max,
        gamma_exponent=cfg.gamma_exponent, observe_every=cfg.observe_every)


def test_criterion_01_mass_conservation():
    # drift ≤ 1e-10 relative over T = 2 for every packaged config
    T = 2.0
    worst = 0.0
    for name in ALL_CONFIGS:
        cfg = load_config(CONFIGS / f"{name}.json")
        eps = max(cfg.epsilons)
        probe = decompose(cfg.potential, make_grid(cfg.x_min, cfg.x_max, 2048))
        y_grid = make_grid(-cfg.y_half_width, cfg.y_half_width, cfg.y_points)
        n = lab_grid_rule(cfg.potential, probe, cfg.packets, cfg.lambda_coupling,
                          T, y_grid).points(eps)
        lab = make_grid(cfg.x_min, cfg.x_max, n)
        data = decompose(cfg.potential, lab)
        values = np.zeros((lab.n, cfg.potential.n_levels), dtype=complex)
        for pk in cfg.packets:
            chi = data.frames[pk.branch][:, :, 0]
            values += build_initial_data(make_profile(pk.profile), pk.x0,
                                         pk.xi0, chi, eps, lab, pk.r0())
        masses = [l2_norm(lab, values)]
        if masses[0] == 0.0:
            continue
        dt_raw = min(cfg.dt_max, cfg.dt_over_epsilon * eps)
        n_steps = int(np.ceil(T / dt_raw - 1e-12))
        dt = T / n_steps
        # the run's schedule: merged half steps, ψ closed (and read) every 0.5
        prop = NLSPropagator(data, eps, cfg.lambda_coupling, dt)
        stride = int(round(0.5 / dt))
        pending = False
        for step in range(1, n_steps + 1):
            close = step % stride == 0 or step == n_steps
            values = prop.step(values, pending=pending, close=close)
            pending = not close
            check_step_mass(lab, values, masses[0], step)
            if close:
                # l2_norm sums in memory order; the printed drift is that of
                # ψ in (n, N) row order
                masses.append(l2_norm(lab, np.ascontiguousarray(values)))
        masses = np.array(masses)
        drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
        worst = max(worst, drift)
    check("criterion 1 (mass conservation, T=2, all packaged configs)",
          worst <= 1e-10, f"worst relative drift {worst:.3e}")


def test_criterion_02_scalar_control(scalar_report):
    r = scalar_report
    decreasing = all(a > b for a, b in zip(r.sup_errors, r.sup_errors[1:]))
    order = r.fitted_order.order
    ok = decreasing and 0.35 <= order <= 0.65
    check("criterion 2 (scalar control order)",
          ok, f"errors {['%.4e' % e for e in r.sup_errors]}, order {order:.3f}")


def test_criterion_03_matrix_nonlinear(rotating_report):
    r = rotating_report
    decreasing = all(a > b for a, b in zip(r.sup_errors, r.sup_errors[1:]))
    order = r.fitted_order.order
    leak_order = r.leakage_order.order
    leak_decreasing = all(a > b for a, b in zip(r.leakages, r.leakages[1:]))
    ok = decreasing and 0.3 <= order <= 0.7 and leak_decreasing \
        and leak_order >= 0.4
    check("criterion 3 (matrix nonlinear order + leakage)",
          ok, f"order {order:.3f}, leakage order {leak_order:.3f}, "
          f"errors {['%.3e' % e for e in r.sup_errors]}")


def test_criterion_04_taylor_residual(scalar_report, rotating_report):
    quad_max = max(float(run.taylor.max()) for run in scalar_report.runs)
    eps_list = [run.epsilon for run in rotating_report.runs]
    residuals = [float(run.taylor.max()) for run in rotating_report.runs]
    fit = fit_order(eps_list, residuals)
    ok = quad_max <= 1e-10 and abs(fit.order - 1.5) <= 0.15
    check("criterion 4 (Taylor remainder scaling)",
          ok, f"quadratic branch {quad_max:.2e}, fitted order {fit.order:.3f}")


def test_criterion_05_eigenframe_suite():
    jb = "(1+x^2)^(-1/2)"
    from adiapack.potentials import MatrixPotentialSpec
    spec = MatrixPotentialSpec.from_strings(
        ["x^2/2", "x^2/2"],
        [f"cos(x)*{jb}", f"sin(x)*{jb}", f"-cos(x)*{jb}"],
        gap_constants=(2.0, 1.0))
    data = decompose(spec, make_grid(-8.0, 8.0, 4096))
    branch = BranchCurve.from_expr(parse_expr(f"x^2/2 + {jb}"))
    traj = integrate_trajectory(branch, 0.0, 1.0, 5.0, 1e-3, branch_id=1)
    z_grid = make_grid(-6.0, 6.0, 2048)
    frame = transport_frame(data, 1, traj, initial_frame(data, 1, z_grid.points),
                            z_grid, 1e-3, T=5.0, store_stride=10)
    lab = make_grid(-2.0, 2.0, 512)
    chi = frame_at(frame, 2.5, lab)[:, :, 0]
    analytic = np.stack([np.cos(lab.points / 2.0), np.sin(lab.points / 2.0)],
                        axis=1)
    sign = np.sign(np.sum(chi * analytic))
    match = float(np.max(np.abs(chi - sign * analytic)))
    presid = max(abs(parallel_residual(frame, data, 1, 0, t, x, dt=1e-2))
                 for t, x in ((1.0, 0.3), (3.0, -0.4)))
    ok = (frame.gram_deviation <= 1e-8 and frame.eigen_residual <= 1e-6
          and presid <= 1e-6 and match <= 1e-6)
    check("criterion 5 (eigenframe suite, T=5)",
          ok, f"gram {frame.gram_deviation:.2e}, eigres "
          f"{frame.eigen_residual:.2e}, transport residual {presid:.2e}, "
          f"analytic match {match:.2e}")


def test_criterion_06_projector_identities():
    rot = load_config(CONFIGS / "rotating.json").potential
    const = load_config(CONFIGS / "constant_direction.json").potential
    names = ("sandwich", "leibniz", "offdiag_expansion", "gap_right", "gap_left")
    coarse = projector_identity_residuals(rot, 0.3, 1e-2)
    fine = projector_identity_residuals(rot, 0.3, 5e-3)
    ratios = []
    ratio_ok = True
    for nm in names:
        c, f = getattr(coarse, nm), getattr(fine, nm)
        if f < 1e-13:
            ratio_ok &= c < 1e-12
        else:
            ratios.append(c / f)
            ratio_ok &= 3.0 <= c / f <= 5.0
    const_max = projector_identity_residuals(const, 0.7, 1e-2).max
    xs = np.linspace(-19.0, 19.0, 39)
    growth_ok = True
    for beta in (0, 1, 2):
        scan = growth_scan(rot, 0, 1, beta, xs, n0=1.0)
        interior = max(scan.gamma_ratios[len(xs) // 3],
                       scan.projector_ratios[len(xs) // 3])
        edge = max(scan.gamma_ratios[0], scan.projector_ratios[0],
                   scan.gamma_ratios[-1], scan.projector_ratios[-1])
        growth_ok &= edge <= max(2.0 * interior, scan.max_gamma_ratio + 1e-9,
                                 scan.max_projector_ratio + 1e-9)
        growth_ok &= max(scan.max_gamma_ratio, scan.max_projector_ratio) < 10.0
    ok = ratio_ok and const_max <= 1e-12 and growth_ok
    check("criterion 6 (projector identities + growth)",
          ok, f"h-ratios {['%.2f' % r for r in ratios]}, constant-direction "
          f"max {const_max:.2e}")


def test_criterion_07_averaging_probe():
    cfg = load_config(CONFIGS / "rotating.json")
    grid = make_grid(-10.0, 10.0, 4096)
    data = decompose(cfg.potential, grid)
    f = ScalarField(grid=grid, values=np.exp(-grid.points**2).astype(complex))
    t = 0.5
    eps_list = (0.04, 0.02, 0.01)
    cross, control = [], []
    for eps in eps_list:
        cross.append(averaging_probe(grid, data.branches[0], data.branches[1],
                                     f, eps, t, eps / 8.0))
        control.append(averaging_probe(grid, data.branches[0],
                                       data.branches[0], f, eps, t, eps / 8.0))
    cross_ok = max(cross) / min(cross) <= 2.0
    slope = fit_order(eps_list, control).order
    slope_ok = abs(slope + 1.0) <= 0.1
    eps0 = 0.04
    tt = np.pi * eps0
    closed = averaging_probe(grid, np.zeros(grid.n), np.ones(grid.n), f, eps0,
                             tt, tt / 2048.0)
    closed_dev = abs(closed - 2.0 * l2_norm(grid, f.values))
    ok = cross_ok and slope_ok and closed_dev <= 1e-6
    check("criterion 7 (oscillatory averaging probe)",
          ok, f"cross variation {max(cross) / min(cross):.3f}, control slope "
          f"{slope:.3f}, closed form dev {closed_dev:.2e}")


def test_criterion_08_correction_bounds(rotating_report):
    ratios = []
    keys = rotating_report.runs[0].g_sigma1.keys()
    for key in keys:
        terminal = [float(run.g_sigma1[key][-1]) for run in rotating_report.runs]
        ratios.append(max(terminal) / min(terminal))
    ok = bool(ratios) and max(ratios) <= 2.0
    check("criterion 8 (correction norms ε-uniform)",
          ok, f"max/min ratios {['%.3f' % r for r in ratios]}")


def test_criterion_09_superposition(superposition_report, crossing_report):
    pos = superposition_report
    neg = crossing_report
    decreasing = all(a > b for a, b in zip(pos.sup_errors, pos.sup_errors[1:]))
    gamma_ok = abs(pos.crossing_order.order - pos.gamma_exponent) <= 0.1
    control_flat = neg.gamma_zero_warning and \
        neg.sup_errors[-1] >= 0.5 * neg.sup_errors[0]
    ok = pos.big_gamma > 0 and decreasing and gamma_ok and control_flat
    check("criterion 9 (two-packet superposition + negative control)",
          ok, f"Gamma {pos.big_gamma:.3f}, errors "
          f"{['%.3e' % e for e in pos.sup_errors]}, crossing order "
          f"{pos.crossing_order.order:.3f}, control errors "
          f"{['%.3e' % e for e in neg.sup_errors]}")


def test_criterion_10_determinism(tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["converge", "--config", str(CONFIGS / "smoke.json"),
                     "--out", str(out)])
        assert code == 0
        blobs.append((out / "convergence.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    check("criterion 10 (byte-identical reruns)",
          ok, f"{len(blobs[0])} bytes compared")
