import numpy as np
import pytest

from adiapack.envelope import EnvelopeClock, EnvelopeStepper, envelope_moments
from adiapack.errors import InvariantViolation, SolverAbort
from adiapack.grids import l2_norm, make_grid

Y_GRID = make_grid(-40.0, 40.0, 2048)


def gaussian(y):
    return np.pi**-0.25 * np.exp(-(y**2) / 2.0)


def run(a, curvature, lam, T, dt, grid=Y_GRID):
    """The stepper after `EnvelopeStepper.advance` has taken u(0) = a to T,
    each step at the midpoint value of the curvature function."""
    stepper = EnvelopeStepper(grid, a(grid.points), lam)
    for _ in range(int(round(T / dt))):
        stepper.advance(dt, curvature(stepper.time + 0.5 * dt))
    return stepper


class TickedClock:
    """An `EnvelopeClock` ticked on demand through the clock points
    `bounds` (increasing sample indices from 0): `at(i, per)` jumps until
    sample i/per is covered, then reads it at its fraction of the interval,
    as the lockstep does.  Reads must not decrease."""

    def __init__(self, clock: EnvelopeClock, bounds):
        self.clock, self.ends, self._rest = clock, bounds[:1] * 2, iter(bounds[1:])

    def at(self, i: int, per: int = 1) -> np.ndarray:
        while self.ends[1] * per < i:
            self.ends = [self.ends[1], next(self._rest)]
            self.clock.jump(self.ends[1])
        b0, b1 = self.ends
        return self.clock.at(i - b0 * per, (b1 - b0) * per)


def test_free_gaussian_peak_decay():
    # |u(t,0)|² = (π(1+t²))^{-1/2} for the free flow
    final = run(gaussian, lambda t: 0.0, 0.0, 1.0, 1e-3)
    i0 = np.argmin(np.abs(Y_GRID.points))
    assert np.abs(final.values[i0]) ** 2 == pytest.approx((2.0 * np.pi) ** -0.5,
                                                          abs=1e-6)


def test_harmonic_gaussian_matches_width_ode_oracle():
    # squeezed Gaussian in the λ'' = 1 well: u = A(t) exp(-α(t) y²/2) with
    # α' = -i(α² - 1), A' = -iαA/2 (independent RK4 integration)
    sigma = 1.5
    T, dt = 0.5, 5e-4

    def a(y):
        return (np.pi * sigma**2) ** -0.25 * np.exp(-(y**2) / (2.0 * sigma**2))

    final = run(a, lambda t: 1.0, 0.0, T, dt)

    alpha = 1.0 / sigma**2 + 0.0j
    amp = (np.pi * sigma**2) ** -0.25 + 0.0j
    n_oracle = 20000
    h = T / n_oracle

    def rhs(state):
        al, am = state
        return np.array([-1j * (al**2 - 1.0), -0.5j * al * am])

    state = np.array([alpha, amp])
    for _ in range(n_oracle):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    oracle = state[1] * np.exp(-0.5 * state[0] * Y_GRID.points**2)
    assert np.max(np.abs(final.values - oracle)) < 1e-8


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.5])
def test_mass_conservation(lam):
    final = run(gaussian, lambda t: np.cos(t), lam, 1.0, 1e-3)
    assert abs(l2_norm(Y_GRID, final.values) - final.mass0) < 1e-10 * final.mass0


def test_moment_00_is_mass():
    state = run(gaussian, lambda t: 0.0, 0.0, 0.0, 1e-3)
    assert envelope_moments(Y_GRID, state.values, 0, 0) == pytest.approx(
        state.mass0, rel=1e-12)


def test_gaussian_bracket_moment():
    # ‖⟨y⟩ a‖ = sqrt(‖a‖² + ‖y a‖²) = sqrt(3/2) for the unit Gaussian
    state = run(gaussian, lambda t: 0.0, 0.0, 0.0, 1e-3)
    assert envelope_moments(Y_GRID, state.values, 1, 0) == pytest.approx(
        np.sqrt(1.5), abs=1e-6)


def test_free_flow_preserves_derivative_norm():
    state0 = run(gaussian, lambda t: 0.0, 0.0, 0.0, 1e-3)
    state1 = run(gaussian, lambda t: 0.0, 0.0, 1.0, 1e-3)
    assert envelope_moments(Y_GRID, state1.values, 0, 1) == pytest.approx(
        envelope_moments(Y_GRID, state0.values, 0, 1), abs=1e-8)


def test_moment_order_cap():
    state = run(gaussian, lambda t: 0.0, 0.0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        envelope_moments(Y_GRID, state.values, 3, 2)


def test_strang_self_convergence_second_order():
    # nonlinear run: halving dt shrinks the terminal deviation by ≈ 4
    outs = {}
    for dt in (4e-3, 2e-3, 1e-3):
        outs[dt] = run(gaussian, lambda t: 1.0, 1.0, 1.0, dt).values
    err_coarse = l2_norm(Y_GRID, outs[4e-3] - outs[2e-3])
    err_fine = l2_norm(Y_GRID, outs[2e-3] - outs[1e-3])
    assert err_coarse / err_fine == pytest.approx(4.0, abs=1.0)


def test_clock_self_convergence_fourth_order():
    # triple jumps of h along λ'' = 1 + 0.3 sin 3t sampled every 2.5e-4:
    # halving h shrinks the deviation by ≈ 16 at a clock point (t = 0.48)
    # and at a Hermite read between two (t = 0.255)
    q = 2.5e-4
    samples = 1.0 + 0.3 * np.sin(3.0 * q * np.arange(1921))
    reads = {}
    for m in (160, 80, 40):
        clock = TickedClock(EnvelopeClock(EnvelopeStepper(
            Y_GRID, gaussian(Y_GRID.points), 1.0), samples, q),
            list(range(0, 1921, m)))
        reads[m] = [clock.at(1020).copy(), clock.at(1920).copy()]
    for k in (0, 1):
        err_coarse = l2_norm(Y_GRID, reads[160][k] - reads[80][k])
        err_fine = l2_norm(Y_GRID, reads[80][k] - reads[40][k])
        assert err_coarse / err_fine == pytest.approx(16.0, abs=3.0)


def test_reads_never_march():
    # two reads at one fraction of the interval just jumped, between its
    # ends and at its end, are the same bytes and leave the stepper's time
    # and samples as the jump left them
    q = 2.5e-4
    stepper = EnvelopeStepper(Y_GRID, gaussian(Y_GRID.points), 1.0)
    clock = EnvelopeClock(stepper, 1.0 + 0.3 * np.sin(3.0 * q * np.arange(81)), q)
    clock.jump(40)
    time, samples = stepper.time, stepper.values.tobytes()
    for k, n in ((3, 10), (10, 10)):
        first = clock.at(k, n).tobytes()
        assert clock.at(k, n).tobytes() == first
        assert stepper.time == time
        assert stepper.values.tobytes() == samples
    assert clock.at(10, 10).tobytes() == samples
    assert clock.at(3, 10).tobytes() != samples


def test_moment_growth_below_affine():
    # harmonic confinement: moments oscillate, so log(1 + m) sits within a
    # bounded band around an affine fit over [0, 5]
    times = np.linspace(0.0, 5.0, 26)
    stepper = EnvelopeStepper(Y_GRID, gaussian(Y_GRID.points), 1.0)
    samples = [stepper.values.copy()]
    for _ in times[1:]:
        for _ in range(200):
            stepper.advance(1e-3, 1.0)
        samples.append(stepper.values.copy())
    for (k, p) in ((1, 0), (0, 1), (2, 1), (1, 2)):
        m = np.array([envelope_moments(Y_GRID, u, k, p) for u in samples])
        size = np.log(1.0 + m)
        a = np.stack([np.ones_like(times), times], axis=1)
        coef, *_ = np.linalg.lstsq(a, size, rcond=None)
        assert np.max(np.abs(size - a @ coef)) < 1.0


def test_rejects_non_decaying_profile():
    with pytest.raises(InvariantViolation, match="y-domain edge"):
        EnvelopeStepper(Y_GRID, np.ones(Y_GRID.n), 0.0)


def test_mass_guard_trips_on_corruption():
    stepper = EnvelopeStepper(Y_GRID, gaussian(Y_GRID.points), 0.0)
    stepper.values[:] *= 1.1  # corrupt the state under the guard
    with pytest.raises(SolverAbort, match="mass drift"):
        stepper.advance(1e-3, 0.0)


def test_edge_stays_tiny_during_confined_run():
    final = run(gaussian, lambda t: 1.0, 1.0, 5.0, 1e-3)
    assert max(abs(final.values[0]), abs(final.values[-1])) <= 1e-10
