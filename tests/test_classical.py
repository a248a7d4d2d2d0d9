import re

import numpy as np
import pytest

from adiapack.classical import integrate_trajectory
from adiapack.errors import TRAJECTORY_BLOWUP, SolverAbort
from adiapack.expressions import parse_expr
from adiapack.grids import make_grid
from adiapack.potentials import MatrixPotentialSpec, branch_spline, decompose
from tests.test_potentials import rotating_family


def test_free_motion():
    traj = integrate_trajectory(parse_expr("0"), 0.0, 1.0, 2.0, 1e-3)
    assert traj.x[-1] == pytest.approx(2.0, abs=1e-10)
    assert traj.xi[-1] == pytest.approx(1.0, abs=1e-12)


def test_harmonic_quarter_period():
    # (x0, xi0) = (1, 0) rotates to (0, -1) at t = π/2
    T = np.pi / 2.0
    traj = integrate_trajectory(parse_expr("x^2/2"), 1.0, 0.0, T, T / 1600)
    assert traj.x[-1] == pytest.approx(0.0, abs=1e-8)
    assert traj.xi[-1] == pytest.approx(-1.0, abs=1e-8)


def test_richardson_ratio_is_fourth_order():
    # analytic lower branch of the rotating family, dt large enough that
    # truncation dominates roundoff
    branch = parse_expr("x^2/2 - (1+x^2)^(-1/2)")
    runs = {}
    for dt in (1.0 / 64, 1.0 / 128, 1.0 / 256):
        tr = integrate_trajectory(branch, 1.0, 0.0, 1.0, dt)
        runs[dt] = np.array([tr.x[-1], tr.xi[-1]])
    err_coarse = np.max(np.abs(runs[1.0 / 64] - runs[1.0 / 128]))
    err_fine = np.max(np.abs(runs[1.0 / 128] - runs[1.0 / 256]))
    assert err_coarse / err_fine == pytest.approx(16.0, rel=0.35)


def test_rotating_branch_from_data_halfstep_agreement():
    grid = make_grid(-10.0, 10.0, 4096)
    data = decompose(rotating_family(), grid)
    branch = branch_spline(data, 0)
    full = integrate_trajectory(branch, 1.0, 0.0, 1.0, 1e-3)
    half = integrate_trajectory(branch, 1.0, 0.0, 1.0, 5e-4)
    assert abs(full.x[-1] - half.x[-1]) < 1e-8
    assert abs(full.xi[-1] - half.xi[-1]) < 1e-8


def test_action_free_particle():
    traj = integrate_trajectory(parse_expr("0"), 0.0, 1.0, 2.0, 1e-3)
    s = traj.action
    assert s[0] == 0.0
    assert s[-1] == pytest.approx(1.0, abs=1e-10)


def test_action_harmonic_closed_form():
    # (x0, xi0) = (0, 1): S(t) = sin(2t)/4
    T = np.pi / 4.0
    traj = integrate_trajectory(parse_expr("x^2/2"), 0.0, 1.0, T, T / 800)
    assert traj.action[-1] == pytest.approx(0.25, abs=1e-8)


def test_energy_free_and_harmonic():
    free = integrate_trajectory(parse_expr("0"), 0.0, 1.0, 2.0, 1e-2)
    energies = 0.5 * free.xi**2 + free.lam
    assert energies[0] == pytest.approx(0.5)
    assert energies[-1] == pytest.approx(0.5)
    harm = integrate_trajectory(parse_expr("x^2/2"), 1.0, 0.0, 5.0, 1e-3)
    energies = 0.5 * harm.xi**2 + harm.lam
    assert np.max(np.abs(energies - 0.5)) < 1e-9


def test_energy_drift_on_rotating_branch():
    grid = make_grid(-10.0, 10.0, 4096)
    data = decompose(rotating_family(), grid)
    branch = branch_spline(data, 0)
    traj = integrate_trajectory(branch, 1.0, 0.0, 5.0, 1e-3)
    assert traj.energy_drift < 1e-8


def test_exponential_growth_envelope():
    # log(1 + |x| + |ξ|) stays below an affine function of t: the instantaneous
    # exponential rate is bounded even on the inverted (unstable) branch
    traj = integrate_trajectory(parse_expr("-(x^2/2)"), 0.1, 0.0, 6.0, 1e-3)
    size = np.log(1.0 + np.abs(traj.x) + np.abs(traj.xi))
    rate = np.max(np.diff(size)) / 1e-3
    assert rate < 2.0
    assert np.all(size <= size[0] + rate * traj.times + 1e-9)


def test_blowup_guard():
    with pytest.raises(SolverAbort, match="blow-up"):
        integrate_trajectory(parse_expr("-(x^2/2)"), 1.0, 0.0, 25.0, 1e-2)


@pytest.mark.filterwarnings("error")
def test_nan_path_trips_the_blowup_guard():
    # sqrt(x+4) is NaN past x = -4: its NaN λ' failed no `>` test, so the
    # path ran on as NaN, with numpy's RuntimeWarning on stderr
    with pytest.raises(SolverAbort, match=re.escape(
            f"{TRAJECTORY_BLOWUP.name} nan above 1.0e+08 at t = 0.42")):
        integrate_trajectory(parse_expr("sqrt(x+4)"), -3.5, -1.0, 1.0, 2.5e-4)


def test_branch_curve_from_data_matches_analytic():
    grid = make_grid(-10.0, 10.0, 4096)
    data = decompose(rotating_family(), grid)
    branch = branch_spline(data, 0)
    lam = parse_expr("x^2/2 - (1+x^2)^(-1/2)")
    dlam = lam.diff()
    d2lam = dlam.diff()
    for x in (-1.2, 0.3, 2.0):
        assert branch(x) == pytest.approx(lam(x), abs=1e-10)
        assert branch(x, 1) == pytest.approx(dlam(x), abs=1e-7)
        assert branch(x, 2) == pytest.approx(d2lam(x), abs=1e-4)


def test_branch_curve_from_data_curvature_converges():
    # λ'' = 1 - (2x²-1)(1+x²)^(-5/2) on the lower rotating branch; the
    # spline's own second derivative converges like h², where a second
    # difference at a fixed step stalls at its roundoff/h² floor
    x = np.linspace(-1.2, 1.2, 241)
    exact = 1.0 - (2.0 * x**2 - 1.0) * (1.0 + x**2) ** -2.5
    errors = []
    for n in (4096, 8192, 16384):
        data = decompose(rotating_family(), make_grid(-2.5, 2.5, n))
        curvature = branch_spline(data, 0)(x, 2)
        errors.append(np.max(np.abs(curvature - exact)))
    assert errors[1] <= 1e-6
    assert errors[0] > errors[1] > errors[2]


def test_both_branch_curves_answer_one_call():
    # on a quadratic branch the not-a-knot spline is exact: the parsed entry
    # and the branch's spline agree in λ, λ' and λ'' on every kind of x
    text = "x^2/2 - 0.3*x + 1"
    expr = parse_expr(text)
    data = decompose(MatrixPotentialSpec.from_strings([text], ["0"]),
                     make_grid(-2.0, 2.0, 64))
    spline = branch_spline(data, 0)
    xs = np.linspace(-1.5, 1.5, 7)
    for nu in (0, 1, 2):
        for x in (0.7, np.float64(-1.1), xs):
            assert np.allclose(expr(x, nu), spline(x, nu), rtol=0.0, atol=1e-12)
        assert type(expr(0.7, nu)) is float
    for branch in (expr, spline):
        with pytest.raises(ValueError, match="nu must be 0, 1 or 2"):
            branch(0.5, 3)


def test_expression_branch_survives_math_domain_errors():
    # the compiled float form raises where numpy returns NaN; a call on a
    # Python float then takes numpy's answer from the compiled array form
    branch = parse_expr("sqrt(x)")
    with np.errstate(invalid="ignore"):
        lam, dlam = branch(-1.0), branch(-1.0, 1)
    assert type(lam) is float and type(dlam) is float
    assert np.isnan(lam) and np.isnan(dlam)
    assert (branch(4.0), branch(4.0, 1)) == (2.0, 0.25)


def test_constant_curvature_has_a_sample_per_time():
    # λ'' of the branch x is the constant 0, still one sample per time
    traj = integrate_trajectory(parse_expr("x"), 0.0, 1.0, 0.1, 1e-2)
    assert traj.curvature.shape == traj.times.shape == (11,)
    assert np.all(traj.curvature == 0.0)


def test_rejects_mismatched_horizon():
    with pytest.raises(ValueError):
        integrate_trajectory(parse_expr("0"), 0.0, 0.0, 1.05, 1e-1)
