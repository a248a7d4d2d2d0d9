"""Wave-packet approximation experiments and ε-scaling studies.

The moving ansatz for a packet on its branch is

    φ(t, x) = ε^{-1/4} u(t, (x - x(t))/√ε) e^{i(S(t) + ξ(t)(x - x(t)))/ε},

polarized along the eigenvector field χ¹(t, x) of its branch.  Within the
package's scope (V real symmetric, transported branch simple) a normalized
real eigenvector χ already satisfies (χ, ∂ₓχ) = 0, so the parallel-transported
frame is the static eigenframe: χ¹(t, x) = χ(x).  Runs therefore read the
carrier, and every off-branch frame, from the one lab decomposition they do
per ε; `eigenframe.transport_frame` stays as an independent oracle for that
identity.  The measured errors are

    w = ψ - Σ_k φ_k χ_k   (raw approximation error, packets subtracted in order)
    θ = w + ε g           (with the off-mode coupling absorbed by g)

in the scaled norms of `grids.sigma_norm`.  Studies sweep ε at fixed horizon
T, fit the decay order by least squares in log-log, and include a two-packet
superposition experiment with the trajectory-crossing diagnostics Γ and
|I^ε(T)| = |{t ≤ T : |x₁(t) - x₂(t)| ≤ ε^γ}|.

A command does its ε-free work once (`study_setup`): the probe
decomposition, the grid rule, every ε's grid size and step rule, the
envelopes' run window (the part of the y-grid their profiles fill), and each
packet's run trajectory once per distinct dt.  In the critical scaling the
envelope equation and the classical path do not contain ε, so the ε that
share a dt run in one lockstep march (`_Lockstep`): each distinct envelope
is stepped once per step and read by every packet and ε that use it, and
each ε keeps its own lab state (`_Lane`).  `run_single_packet`,
`convergence_study` and `superposition_experiment` configure it with their
observers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .classical import BranchCurve, integrate_trajectory
from .corrections import ScalarPropagator, assemble_correction
from .eigenframe import coupling_profile
from .envelope import EnvelopeStepper
from .errors import CORRECTION_NORM, ENVELOPE_SUPPORT, AdiapackError, \
    ConfigError
from .grids import ScalarField, SpatialGrid, UniformCubicSpline, VectorField, \
    centred_slice, l2_norm, make_grid, sigma_norm
from .nls import NLSPropagator, build_initial_data, check_lab_field, \
    check_step_mass, lab_grid_points, mode_populations, spectral_half_width
from .potentials import MatrixPotentialSpec, SpectralData, decompose

__all__ = [
    "PacketSpec", "OrderFit", "SingleRunResult", "ConvergenceReport",
    "SuperpositionReport", "LabGridRule", "StudySetup", "make_profile",
    "fit_order", "lab_grid_rule", "study_setup", "run_single_packet",
    "convergence_study", "superposition_experiment",
]


# ---------------------------------------------------------------------------
# profiles

def gaussian_profile(width: float = 1.0, center: float = 0.0):
    norm = (np.pi * width**2) ** -0.25

    def a(y):
        return norm * np.exp(-((y - center) ** 2) / (2.0 * width**2))

    return a


def hermite_profile(width: float = 1.0, center: float = 0.0):
    """First excited oscillator profile (unit L² norm, odd about the center)."""
    norm = np.sqrt(2.0) * (np.pi * width**2) ** -0.25

    def a(y):
        u = (y - center) / width
        return norm * u * np.exp(-(u**2) / 2.0)

    return a


def noise_profile(seed: int = 0, modes: int = 6, width: float = 1.0):
    """Random smooth localized profile, deterministic per seed (unit L² norm)."""
    rng = np.random.default_rng(seed)
    coefs = rng.standard_normal(modes + 1)

    def raw(y):
        u = np.asarray(y, dtype=float) / width
        return np.exp(-(u**2) / 2.0) * np.polynomial.polynomial.polyval(u, coefs)

    yy = np.linspace(-20.0 * width, 20.0 * width, 40001)
    nrm = np.sqrt(np.trapezoid(np.abs(raw(yy)) ** 2, yy))

    return lambda y: raw(y) / nrm


def zero_profile():
    return lambda y: np.zeros(np.shape(y))


_PROFILES = {"gaussian": gaussian_profile, "hermite": hermite_profile,
             "noise": noise_profile, "zero": zero_profile}


def make_profile(profile):
    """Profile evaluator from a {'type': ..., params...} dict (or pass through)."""
    if callable(profile):
        return profile
    kind = profile.get("type", "gaussian")
    params = {k: v for k, v in profile.items() if k != "type"}
    if kind not in _PROFILES:
        raise ValueError(f"unknown profile type '{kind}'")
    return _PROFILES[kind](**params)


@dataclass(frozen=True)
class PacketSpec:
    """One coherent packet: profile, phase-space point, branch, optional perturbation."""

    profile: object
    x0: float
    xi0: float
    branch: int = 0
    kappa: float | None = None
    r0_profile: object | None = None

    def evaluator(self):
        return make_profile(self.profile)

    def r0(self):
        if self.kappa is None:
            return None
        prof = self.r0_profile if self.r0_profile is not None else {"type": "hermite"}
        return (self.kappa, make_profile(prof))

    def profiles(self):
        """Every profile the packet puts on the lab grid: a, and r₀'s if set."""
        r0 = self.r0()
        return [self.evaluator()] + ([r0[1]] if r0 is not None else [])


# ---------------------------------------------------------------------------
# the ansatz and its error norms

def _envelope_spline(y_grid: SpatialGrid, u_vals) -> UniformCubicSpline:
    """The not-a-knot cubic spline of envelope samples on the y-grid, NaN
    outside it.  It reads `u_vals` without a copy: evaluate it before the
    samples' stepper advances."""
    return UniformCubicSpline(y_grid.x_min, y_grid.spacing, u_vals,
                              extrapolate=False)


def _phi_values(lab_grid, u_of, traj, t, epsilon):
    """φ(t, ·) on the lab grid from `u_of`, the envelope's `_envelope_spline`.

    u is evaluated at y = (x - x(t))/√ε.  The spline and the phase are
    evaluated only on a contiguous run of lab indices that holds every y of
    the y-domain, with a point of margin on each side (where the spline's
    NaN outside its knots becomes 0); every other lab point is 0.  The run
    has the same length at every call, so its temporaries keep one size
    (runs that followed the window's edges point for point fragmented the
    heap).  The samples come from an `EnvelopeStepper`, which has checked
    that they vanish at the y-domain edges.
    """
    x_c = float(traj.x_of(t))
    xi = float(traj.xi_of(t))
    action = float(traj.action_of(t))
    root = np.sqrt(epsilon)
    span = root * (u_of.knots[-1] - u_of.knots[0]) / lab_grid.spacing
    width = min(lab_grid.n, int(np.ceil(span)) + 4)
    first = (x_c + root * u_of.knots[0] - lab_grid.x_min) / lab_grid.spacing
    lo = min(max(0, int(np.floor(first)) - 1), lab_grid.n - width)
    x = lab_grid.points[lo:lo + width]
    u = u_of((x - x_c) / root)
    u[np.isnan(u)] = 0.0
    phase = np.exp(1j * (action + xi * (x - x_c)) / epsilon)
    out = np.zeros(lab_grid.n, dtype=complex)
    out[lo:lo + width] = epsilon**-0.25 * u * phase
    return out


def _taylor_remainder(grid, lam, curve, x_c, phi):
    """‖(λ - 𝒯)φ‖, 𝒯 the second-order Taylor polynomial of the branch λ
    (samples `lam`, evaluators `curve`) at x_c.

    Exactly zero for quadratic branches; scales like ε^{3/2} otherwise, since
    φ concentrates at x_c on the √ε scale.
    """
    dx = grid.points - x_c
    taylor = (float(curve.value(x_c)) + float(curve.deriv(x_c)) * dx
              + 0.5 * float(curve.curvature(x_c)) * dx**2)
    return l2_norm(grid, (lam - taylor) * phi)


def _error_norms(psi, terms, grid, epsilon, t, g=None, p=1):
    """σ_p reports of w = ψ - Σ_k φ_k χ_k and θ = w + εg (θ = w when g is None).

    `terms` holds each packet's (φ, χ) at time t; they are subtracted in order.
    """
    w = psi
    for phi, chi in terms:
        w = w - phi[:, None] * chi
    w_rep = sigma_norm(VectorField(grid=grid, values=w, epsilon=epsilon, time=t), p)
    if g is None:
        return w_rep, w_rep
    theta = VectorField(grid=grid, values=w + epsilon * g, epsilon=epsilon, time=t)
    return w_rep, sigma_norm(theta, p)


# ---------------------------------------------------------------------------
# order fitting

@dataclass(frozen=True)
class OrderFit:
    order: float
    intercept: float
    max_residual: float
    defined: bool


def fit_order(epsilons, errors) -> OrderFit:
    """Least-squares slope of log(error) against log(ε), with residual diagnostics.

    Zero or negative errors make the order undefined (flagged, not raised).
    """
    eps = np.asarray(epsilons, dtype=float)
    err = np.asarray(errors, dtype=float)
    if len(eps) < 2 or np.any(err <= 0.0) or np.any(eps <= 0.0):
        return OrderFit(order=float("nan"), intercept=float("nan"),
                        max_residual=float("nan"), defined=False)
    a = np.stack([np.log(eps), np.ones_like(eps)], axis=1)
    coef, *_ = np.linalg.lstsq(a, np.log(err), rcond=None)
    resid = np.log(err) - a @ coef
    return OrderFit(order=float(coef[0]), intercept=float(coef[1]),
                    max_residual=float(np.max(np.abs(resid))), defined=True)


def _json_fields(report, skip=()) -> dict:
    """A report's fields for `report.json`: arrays as lists, fits as their order."""
    return {k: v.tolist() if isinstance(v, np.ndarray)
            else v.order if isinstance(v, OrderFit) else v
            for k, v in vars(report).items() if k not in skip}


# ---------------------------------------------------------------------------
# the ε-free study set-up of a command, and the lockstep march of its ε

def _branch_curve_for(spec: MatrixPotentialSpec, data: SpectralData,
                      branch: int) -> BranchCurve:
    """Analytic branch evaluators for diagonal potentials, interpolated otherwise."""
    pts = data.grid.points
    w_mag = max(np.max(np.abs(e(pts))) for e in spec.sym) if spec.sym else 0.0
    if w_mag < 1e-14:
        for entry in spec.diag:
            if np.max(np.abs(entry(pts) - data.branches[branch])) < 1e-10:
                return BranchCurve.from_expr(entry)
    return BranchCurve.from_data(data, branch)


def _branch_scope_error(spec: MatrixPotentialSpec, branch: int) -> str | None:
    """Why a packet on `branch` is out of scope, or None: by the declared
    multiplicities (which `decompose` enforces) it must exist and be simple,
    the one condition under which the static frame is the transported one."""
    mult = spec.multiplicities or (1,) * spec.n_levels
    if not 0 <= branch < len(mult):
        return f"branch {branch} out of range ({len(mult)} branches)"
    if mult[branch] != 1:
        return (f"branch {branch} has multiplicity {mult[branch]}: out of "
                f"scope, the transported branch must be simple")
    return None


class _Steps(NamedTuple):
    """The march of one ε: step size, steps per observation, step total."""

    dt: float
    per_obs: int
    total: int


def _step_rule(T: float, observe_every: float, dt_max: float,
               dt_over_eps: float, epsilon: float) -> _Steps:
    """The one step rule: dt = observe_every/k for the smallest k with
    dt ≤ min(dt_max, dt_over_eps·ε), so that steps land on every observation.
    T must be a multiple of observe_every, and the three step options must be
    positive (`ConfigError`)."""
    if not (observe_every > 0 and dt_max > 0 and dt_over_eps > 0):
        raise ConfigError("observe_every, dt_max and dt_over_epsilon must be "
                          "positive")
    n_obs = round(T / observe_every)
    if abs(n_obs * observe_every - T) > 1e-9:
        raise ConfigError("T must be an integer multiple of observe_every")
    per_obs = int(np.ceil(observe_every / min(dt_max, dt_over_eps * epsilon)
                          - 1e-12))
    return _Steps(observe_every / per_obs, per_obs, per_obs * n_obs)


def _envelopes(y_grid: SpatialGrid, pairs, lambda_coupling: float) -> list:
    """An `EnvelopeStepper` for each (profile, trajectory) pair.  Pairs whose
    profile samples and curvature samples agree byte for byte (no tolerance)
    march the same u, so they share one stepper."""
    shared, out = {}, []
    for a, traj in pairs:
        samples = np.asarray(a(y_grid.points), dtype=complex)
        key = (samples.tobytes(), traj.curvature.tobytes())
        if key not in shared:
            shared[key] = EnvelopeStepper(y_grid, samples, lambda_coupling,
                                          traj.curvature_of)
        out.append(shared[key])
    return out


# step of the sizing march: against 1e-3 steps the largest η_τ agrees within
# 2% on the shipped configs and on a breathing Gaussian, or comes out larger
# (by up to 15% at strong coupling), which only adds points
_SIZING_DT = 2.5e-2


@dataclass(frozen=True, eq=False)
class LabGridRule:
    """The ε-free momentum data of a run's packets, for `nls.lab_grid_points`,
    and the envelopes' measured support."""

    length: float
    xi_max: float                    # largest |ξ| on the probe trajectories
    eta: float                       # largest η_τ of any envelope over the run
    n_packets: int
    trajectories: list               # the packets' probe trajectories
    y_tau: float                     # largest |y| with |u| > τ_y max|u| over the run

    def points(self, epsilon: float, n_override: int | None = None) -> int:
        return lab_grid_points(self.length, epsilon, self.xi_max, self.eta,
                               n_packets=self.n_packets, n_override=n_override)


def lab_grid_rule(spec: MatrixPotentialSpec, probe: SpectralData, packets,
                  lambda_coupling: float, T: float,
                  y_grid: SpatialGrid) -> LabGridRule:
    """Measure, once for every ε, the momentum data that sizes the lab grid.

    Each packet's trajectory is integrated to T on the probe decomposition
    (dt = 1e-3); each of its profiles (a, and r₀'s if set) is marched as an
    envelope along that trajectory's curvature, and η_τ is the largest
    `nls.spectral_half_width` over all steps: the spectrum breathes when a
    profile is not the coherent width, and the cubic term widens it.  A
    profile that does not vanish at the y-domain edges fails the stepper's
    edge guard (`InvariantViolation`) before it is measured.  The same
    march measures Y_τ, the largest |y| at which |u| > τ_y · max|u|
    (τ_y = `errors.ENVELOPE_SUPPORT`) at any of its steps, which sizes the
    envelopes' run window (`_run_window`).
    """
    trajs = [integrate_trajectory(_branch_curve_for(spec, probe, pk.branch),
                                  pk.x0, pk.xi0, T, 1e-3, branch_id=pk.branch)
             for pk in packets]
    steps = max(1, int(np.ceil(T / _SIZING_DT - 1e-12)))
    pairs = [(a, tr) for pk, tr in zip(packets, trajs) for a in pk.profiles()]
    eta = y_tau = 0.0
    for env in dict.fromkeys(_envelopes(y_grid, pairs, lambda_coupling)):
        for k in range(steps + 1):
            if k:
                env.advance(T / steps)
            u = env.values
            eta = max(eta, spectral_half_width(y_grid, u))
            mag = np.abs(u)
            y_tau = max(y_tau, float(np.abs(
                y_grid.points[mag > ENVELOPE_SUPPORT * mag.max()]).max(initial=0.0)))
    return LabGridRule(length=probe.grid.length,
                       xi_max=max(float(np.max(np.abs(tr.xi))) for tr in trajs),
                       eta=eta, n_packets=len(packets), trajectories=trajs,
                       y_tau=y_tau)


def _run_window(y_grid: SpatialGrid, y_tau: float) -> SpatialGrid:
    """The envelopes' run grid: the smallest centred power-of-two slice of
    `y_grid` (`grids.centred_slice`, same spacing, the same points) whose
    points span [-Y_τ, Y_τ]; the whole `y_grid` when no smaller one does."""
    m = 8
    while m < y_grid.n:
        window = centred_slice(y_grid, m)
        if window.points[0] <= -y_tau and window.points[-1] >= y_tau:
            return window
        m *= 2
    return y_grid


@dataclass(frozen=True, eq=False)
class StudySetup:
    """The ε-free work of one command, done before its first ε runs."""

    spec: MatrixPotentialSpec
    packets: tuple
    lambda_coupling: float
    T: float
    y_grid: SpatialGrid              # the envelopes' run window (`_run_window`)
    probe: SpectralData              # the 4096-point decomposition
    rule: LabGridRule
    grid_n: dict                     # requested ε -> lab grid size
    steps: dict                      # requested ε -> its `_Steps`
    trajectories: dict               # dt -> each packet's run trajectory

    def groups(self) -> list:
        """The requested ε, in their order, grouped by step rule: one
        lockstep each."""
        groups = {}
        for eps, steps in self.steps.items():
            groups.setdefault(steps, []).append(eps)
        return list(groups.values())


def study_setup(spec: MatrixPotentialSpec, packets, epsilons,
                lambda_coupling: float, T: float, x_min: float, x_max: float,
                y_half_width: float = 40.0, y_points: int = 2048,
                n_override: int | None = None, observe_every: float = 0.01,
                dt_max: float = 1e-3, dt_over_eps: float = 0.25) -> StudySetup:
    """Scope check, every ε's `_step_rule`, the 4096-point probe
    decomposition, `lab_grid_rule` on the configured y-grid (±y_half_width,
    y_points), the lab grid size of every ε (a `grid.n` override must meet
    the rule at all of them), the envelopes' run window (the configured
    y-grid's smallest centred power-of-two slice that holds the measured
    Y_τ) and, once per distinct dt, each packet's run trajectory at dt/4 (so
    every step midpoint is a sample) on the probe's branch curve.  Every
    failure is a `ConfigError` (exit 2)."""
    problems = [_branch_scope_error(spec, pk.branch) for pk in packets]
    if any(problems):
        raise ConfigError([p for p in problems if p])
    steps = {eps: _step_rule(T, observe_every, dt_max, dt_over_eps, eps)
             for eps in epsilons}
    y_grid = make_grid(-y_half_width, y_half_width, y_points)
    try:
        probe = decompose(spec, make_grid(x_min, x_max, 4096))
        rule = lab_grid_rule(spec, probe, packets, lambda_coupling, T, y_grid)
        curves = [_branch_curve_for(spec, probe, pk.branch) for pk in packets]
        trajectories = {
            dt: tuple(integrate_trajectory(curve, pk.x0, pk.xi0, T, dt / 4.0,
                                           branch_id=pk.branch)
                      for curve, pk in zip(curves, packets))
            for dt in dict.fromkeys(s.dt for s in steps.values())}
    except AdiapackError as exc:
        raise ConfigError(f"grid derivation failed: {exc}") from exc
    return StudySetup(spec=spec, packets=tuple(packets),
                      lambda_coupling=lambda_coupling, T=T,
                      y_grid=_run_window(y_grid, rule.y_tau), probe=probe,
                      rule=rule,
                      grid_n={eps: rule.points(eps, n_override) for eps in epsilons},
                      steps=steps, trajectories=trajectories)


class _Lane:
    """One ε of a lockstep: ψ on its lab grid (one decomposition), each
    packet's static carrier, the NLS propagator and, with `corrections`, the
    one packet's g_{j,ℓ} on every other branch, carried half a step ahead as
    h_{j,ℓ} = U_j(dt/2) g_{j,ℓ}.  ψ₀ is the sum of the packets'
    `build_initial_data`.  Between observations ψ stays open: each step
    leaves its trailing half potential step to the next one."""

    def __init__(self, setup: StudySetup, epsilon, beta, corrections):
        spec, packets, lam = setup.spec, setup.packets, setup.lambda_coupling
        self.epsilon, self.n = epsilon, setup.grid_n[epsilon]
        self.steps = setup.steps[epsilon]
        grid = setup.probe.grid
        self.lab = lab = make_grid(grid.x_min, grid.x_max, self.n)
        self.data = data = decompose(spec, lab)
        # the carriers and every off-branch frame below come from this one
        # decomposition, so their signs agree
        self.chis = [data.frames[pk.branch][:, :, 0] for pk in packets]
        # ψ₀ from the analytic profiles: spline interpolation noise in the data
        # would disperse at high group velocity and pollute the whole domain
        parts = [build_initial_data(pk.evaluator(), pk.x0, pk.xi0, chi, epsilon,
                                    lab, pk.r0())
                 for pk, chi in zip(packets, self.chis)]
        self.psi = sum(parts[1:], parts[0])
        self.pending = False             # ψ owes its last step's trailing half
        self.mass0, self.max_drift, self.tails = l2_norm(lab, self.psi), 0.0, []
        self.prop = NLSPropagator(data, epsilon, lam, self.steps.dt, beta)
        branch = packets[0].branch
        others = [j for j in range(data.n_branches) if j != branch] if corrections else []
        self.rho = {(j, ell): coupling_profile(data, j, ell, source_branch=branch)
                    for j in others for ell in range(data.multiplicities[j])}
        self.g_props = {j: ScalarPropagator(lab, data.branches[j], epsilon)
                        for j in others}
        self.carried = {key: np.zeros(lab.n, dtype=complex) for key in self.rho}

    def source_step(self, phi_mid, xi_mid):
        """The midpoint Duhamel step of every carried h_{j,ℓ}, from φ and ξ
        at t + dt/2."""
        for key, h in self.carried.items():
            self.carried[key] = self.g_props[key[0]].duhamel_step(
                h, phi_mid * (xi_mid * self.rho[key]), self.steps.dt)

    def corrections(self) -> dict:
        """Every g_{j,ℓ} = U_j(-dt/2) h_{j,ℓ} at the current step."""
        return {key: self.g_props[key[0]].recover(h, self.steps.dt)
                for key, h in self.carried.items()}

    def nls_step(self, step, close):
        """One NLS step; it closes ψ only with `close` (the guard reads |ψ|,
        which the pending half step keeps)."""
        self.psi = self.prop.step(self.psi, pending=self.pending, close=close)
        self.pending = not close
        self.max_drift = max(self.max_drift, check_step_mass(
            self.lab, self.psi, self.mass0, step))


class _Lockstep:
    """Every ε of one step group (equal `_Steps`) in one march, one `_Lane`
    per ε.  The ε-free parts are marched once: each packet's trajectory is
    the set-up's for this dt, and packets and ε whose profile and curvature
    samples agree share one `EnvelopeStepper` (`_envelopes`), whose y-spline
    is built once per evaluation time and read on every lane's grid.  With
    correction components the envelope step is split into dt/2 halves (the
    source needs u(t + dt/2)); otherwise it takes one dt step.  ψ and the
    envelopes close only where they are read: ψ at the step that lands on
    an observation, an envelope when its samples are splined.

    A lane whose construction or guard fails with an `AdiapackError` leaves
    the march: with `isolate` it is listed in `failures` and the other lanes
    go on, otherwise the error propagates.  A tripped envelope guard fails
    every live lane."""

    def __init__(self, setup: StudySetup, epsilons, beta, corrections, isolate):
        self.setup, self.isolate, self.failures = setup, isolate, []
        self.steps = setup.steps[epsilons[0]]
        self.trajs = setup.trajectories[self.steps.dt]
        self.lanes = []
        for eps in epsilons:
            try:
                self.lanes.append(_Lane(setup, eps, beta, corrections))
            except AdiapackError as exc:
                self._fail(eps, exc)
        self.envs = _envelopes(setup.y_grid,
                               [(pk.evaluator(), tr)
                                for pk, tr in zip(setup.packets, self.trajs)],
                               setup.lambda_coupling)

    def _fail(self, eps, exc):
        if not self.isolate:
            raise exc
        self.failures.append((eps, exc))

    def _each(self, work):
        """work(lane) on every live lane; a lane whose work fails leaves."""
        for lane in list(self.lanes):
            try:
                work(lane)
            except AdiapackError as exc:
                self.lanes.remove(lane)
                self._fail(lane.epsilon, exc)

    def _advance(self, dt):
        try:
            for env in dict.fromkeys(self.envs):
                env.advance(dt)
        except AdiapackError as exc:
            lanes, self.lanes = self.lanes, []
            for lane in lanes:
                self._fail(lane.epsilon, exc)

    def _splines(self):
        """Each packet's envelope spline, built once per distinct envelope."""
        built = {env: _envelope_spline(self.setup.y_grid, env.values)
                 for env in dict.fromkeys(self.envs)}
        return [built[env] for env in self.envs]

    def march(self, observers: dict):
        """March to T.  At each observation every lane runs `check_lab_field`
        and then observers[lane](t, [φ_k(t) per packet])."""
        dt = self.steps.dt
        split = any(lane.carried for lane in self.lanes)

        def observe_at(t):
            splines = self._splines()

            def observe(lane):
                lane.tails.append(check_lab_field(lane.psi, t))
                observers[lane](t, [_phi_values(lane.lab, u_of, traj, t,
                                                lane.epsilon)
                                    for u_of, traj in zip(splines, self.trajs)])
            self._each(observe)

        observe_at(0.0)
        for step in range(1, self.steps.total + 1):
            if not self.lanes:
                return
            if split:
                self._advance(0.5 * dt)
                t_mid = (step - 0.5) * dt
                (u_of,), (traj,) = self._splines(), self.trajs
                xi_mid = float(traj.xi_of(t_mid))
                self._each(lambda lane: lane.source_step(_phi_values(
                    lane.lab, u_of, traj, t_mid, lane.epsilon), xi_mid))
                self._advance(0.5 * dt)
            else:
                self._advance(dt)
            observed = step % self.steps.per_obs == 0
            self._each(lambda lane: lane.nls_step(step, close=observed))
            if observed:
                observe_at(step * dt)


# ---------------------------------------------------------------------------
# single-packet runs

@dataclass(eq=False)
class SingleRunResult:
    """Observer time series for one ε."""

    epsilon: float
    grid_n: int
    dt: float
    times: np.ndarray
    masses: np.ndarray
    w_sigma1: np.ndarray
    theta_sigma1: np.ndarray
    leakage: np.ndarray
    taylor: np.ndarray
    populations: np.ndarray          # (n_obs, P)
    g_sigma1: dict                   # (j, ell) -> array over times
    mass_drift: float
    sup_w_sigma1: float
    terminal_w_sigma1: float
    energy_drift: float              # max |E(t) - E(0)| along the trajectory
    fourier_tail: float              # worst energy fraction at |k| ≥ ¾ k_Nyquist
    y_points: int                    # points of the envelope's run window
    y_tau: float                     # measured support Y_τ of the envelopes
    snapshots: dict = field(default_factory=dict)

    def to_dict(self):
        return dict(_json_fields(self, skip=("snapshots",)),
                    g_sigma1={f"{j},{ell}": v.tolist()
                              for (j, ell), v in self.g_sigma1.items()})


class _SingleObserver:
    """The observer of one single-packet lane: w, θ, leakage, Taylor
    remainder, populations and the correction norms (`errors.CORRECTION_NORM`)
    at every observation, ψ at the snapshot steps, and the lane's
    `SingleRunResult` once the march is done."""

    def __init__(self, march: _Lockstep, lane: _Lane, snapshot_steps):
        setup = march.setup
        self.march, self.lane, self.branch = march, lane, setup.packets[0].branch
        self.curve = _branch_curve_for(setup.spec, lane.data, self.branch)
        self.series = {name: [] for name in (
            "times", "masses", "w_sigma1", "theta_sigma1", "leakage", "taylor",
            "populations")}
        self.g_log = {key: [] for key in lane.carried}
        self.snapshot_steps, self.snapshots = snapshot_steps, {}

    def __call__(self, t, phis):
        lane, branch, (phi,), (traj,) = self.lane, self.branch, phis, self.march.trajs
        lab, data, eps, psi = lane.lab, lane.data, lane.epsilon, lane.psi
        corrections = lane.corrections()
        g = assemble_correction(corrections, data, eps, time=t).values \
            if corrections else None
        w_rep, th_rep = _error_norms(psi, [(phi, lane.chis[0])], lab, eps, t, g)
        proj = np.einsum("nab,nb->na", data.projectors[branch], psi)
        row = (t, l2_norm(lab, psi), w_rep.value, th_rep.value,
               l2_norm(lab, psi - proj),
               _taylor_remainder(lab, data.branches[branch], self.curve,
                                 float(traj.x_of(t)), phi),
               mode_populations(psi, data))
        for values, value in zip(self.series.values(), row):
            values.append(value)
        for key, values in corrections.items():
            g_rep = sigma_norm(ScalarField(grid=lab, values=values, epsilon=eps,
                                           time=t), 1)
            # the (0, 0) component is the L² norm ‖g‖
            CORRECTION_NORM.check(g_rep.components[(0, 0)], where=f" at t = {t}")
            self.g_log[key].append(g_rep.value)
        step = int(round(t / lane.steps.dt))
        if step in self.snapshot_steps:
            self.snapshots[self.snapshot_steps[step]] = psi.copy()

    def result(self) -> SingleRunResult:
        lane, (traj,), w = self.lane, self.march.trajs, self.series["w_sigma1"]
        setup = self.march.setup
        return SingleRunResult(
            epsilon=lane.epsilon, grid_n=lane.n, dt=lane.steps.dt,
            **{name: np.asarray(values) for name, values in self.series.items()},
            g_sigma1={key: np.asarray(v) for key, v in self.g_log.items()},
            mass_drift=lane.max_drift / max(lane.mass0, 1e-300),
            sup_w_sigma1=float(max(w)), terminal_w_sigma1=float(w[-1]),
            energy_drift=traj.energy_drift, fourier_tail=max(lane.tails),
            y_points=setup.y_grid.n, y_tau=setup.rule.y_tau,
            snapshots=self.snapshots)


def _single_packet_runs(setup: StudySetup, epsilons, beta, isolate,
                        snapshot_steps=None):
    """One lockstep over `epsilons` (one step group) of a single-packet study
    with corrections: (results of the lanes that finished, failures)."""
    march = _Lockstep(setup, epsilons, beta, corrections=True, isolate=isolate)
    observers = {lane: _SingleObserver(march, lane, snapshot_steps or {})
                 for lane in march.lanes}
    march.march(observers)
    return [observers[lane].result() for lane in march.lanes], march.failures


def run_single_packet(spec: MatrixPotentialSpec, packet: PacketSpec,
                      epsilon: float, lambda_coupling: float, T: float,
                      x_min: float, x_max: float, observe_every: float = 0.01,
                      dt_max: float = 1e-3, dt_over_eps: float = 0.25,
                      y_half_width: float = 40.0, y_points: int = 2048,
                      n_override: int | None = None, beta: float = 0.75,
                      snapshot_times=()) -> SingleRunResult:
    """One single-packet march with corrections, and its error time series.

    Every step passes `nls.check_step_mass` (worst relative drift:
    `mass_drift`), every observation `nls.check_lab_field` (worst tail:
    `fourier_tail`) and `errors.CORRECTION_NORM`.  Snapshot times must be
    observation times in [0, T] (`ConfigError` otherwise, as in
    `config.load_config`).
    """
    setup = study_setup(spec, [packet], [epsilon], lambda_coupling, T, x_min,
                        x_max, y_half_width, y_points, n_override, observe_every,
                        dt_max, dt_over_eps)
    steps = setup.steps[epsilon]
    snapshot_steps = {int(round(ts / steps.dt)): ts for ts in snapshot_times}
    if any(k % steps.per_obs or not 0 <= k <= steps.total for k in snapshot_steps):
        raise ConfigError("snapshot times must be observation times in [0, T]")
    (run,), _ = _single_packet_runs(setup, [epsilon], beta, isolate=False,
                                    snapshot_steps=snapshot_steps)
    return run


# ---------------------------------------------------------------------------
# convergence study

@dataclass(eq=False)
class ConvergenceReport:
    epsilons: list
    sup_errors: list
    terminal_errors: list
    leakages: list
    fitted_order: OrderFit
    leakage_order: OrderFit
    strictly_decreasing: bool
    runs: list
    failures: list = field(default_factory=list)  # (epsilon, AdiapackError)

    def to_dict(self):
        return dict(_json_fields(self),
                    fitted_order_residual=self.fitted_order.max_residual,
                    runs=[r.to_dict() for r in self.runs],
                    failures=[[eps, str(exc)] for eps, exc in self.failures])


def convergence_study(spec: MatrixPotentialSpec, packet: PacketSpec, epsilons,
                      lambda_coupling: float, T: float, x_min: float, x_max: float,
                      observe_every: float = 0.01, dt_max: float = 1e-3,
                      dt_over_eps: float = 0.25, y_half_width: float = 40.0,
                      y_points: int = 2048, n_override: int | None = None,
                      beta: float = 0.75) -> ConvergenceReport:
    """Sweep ε, collect sup-in-t error norms, and fit the decay order.

    One `study_setup` serves every ε, and the ε that share a step size run
    in one lockstep; runs and failures are listed in decreasing ε.  A
    sub-run that fails with an `AdiapackError` is listed in
    `report.failures` instead of killing the sweep, even when every sub-run
    fails (the report then has no ε); any other exception is a programming
    error and propagates.
    """
    epsilons = sorted(epsilons, reverse=True)
    setup = study_setup(spec, [packet], epsilons, lambda_coupling, T, x_min,
                        x_max, y_half_width, y_points, n_override, observe_every,
                        dt_max, dt_over_eps)
    runs, failures = [], []
    for group in setup.groups():
        done, failed = _single_packet_runs(setup, group, beta, isolate=True)
        runs += done
        failures += failed
    failures.sort(key=lambda failure: failure[0], reverse=True)

    eps_ok = [r.epsilon for r in runs]
    sup_err = [r.sup_w_sigma1 for r in runs]
    leak = [float(r.leakage[-1]) for r in runs]
    return ConvergenceReport(
        epsilons=eps_ok, sup_errors=sup_err, leakages=leak,
        terminal_errors=[r.terminal_w_sigma1 for r in runs],
        fitted_order=fit_order(eps_ok, sup_err),
        leakage_order=fit_order(eps_ok, leak),
        strictly_decreasing=all(a > b for a, b in zip(sup_err, sup_err[1:])),
        runs=runs, failures=failures)


# ---------------------------------------------------------------------------
# superposition

@dataclass(eq=False)
class SuperpositionReport:
    epsilons: list
    gamma_exponent: float
    big_gamma: float
    big_gamma_edge_ok: bool
    gamma_zero_warning: bool
    sup_errors: list
    terminal_errors: list
    crossing_measures: list
    interaction_integrals: list
    error_order: OrderFit
    crossing_order: OrderFit
    grid_n: list
    energy_drift: list               # per ε, [packet 1, packet 2]
    fourier_tail: list               # per ε, worst fraction at |k| ≥ ¾ k_Nyquist
    y_points: list                   # per ε, points of the envelopes' run window
    y_tau: list                      # per ε, measured support Y_τ of the envelopes

    def to_dict(self):
        return _json_fields(self)


class _SuperposeObserver:
    """The observer of one two-packet lane: w against φ₁χ¹ + φ₂χ², and the
    integrand ‖|φ₁|²φ₂‖ of the interaction integral."""

    def __init__(self, lane: _Lane):
        self.lane, self.w, self.inter, self.times = lane, [], [], []

    def __call__(self, t, phis):
        lane = self.lane
        w_rep, _ = _error_norms(lane.psi, zip(phis, lane.chis), lane.lab,
                                lane.epsilon, t)
        self.w.append(w_rep.value)
        self.inter.append(l2_norm(lane.lab, np.abs(phis[0]) ** 2 * phis[1]))
        self.times.append(t)


def superposition_experiment(spec: MatrixPotentialSpec, packets, epsilons,
                             lambda_coupling: float, T: float, x_min: float,
                             x_max: float, gamma_exponent: float = 0.3,
                             observe_every: float = 0.01, dt_max: float = 1e-3,
                             dt_over_eps: float = 0.25, y_half_width: float = 40.0,
                             y_points: int = 2048, n_override: int | None = None,
                             beta: float = 0.75) -> SuperpositionReport:
    """Two-packet run: ψ₀ = φ₁χ¹ + φ₂χ² (plus r₀'s), error against φ₁χ¹ + φ₂χ².

    Reports Γ = inf |λ̃₁ - λ̃₂ - (E₁ - E₂)| (0 means the separation hypothesis
    fails — the run still executes as a documented negative control), the
    crossing-set measure |I^ε(T)| for the configured γ, and the interaction
    integral ∫‖|φ₁|²φ₂‖ dt.  The infimum runs over the lab domain
    [x_min, x_max], sampled by the probe decomposition; the shipped superpose
    configs have a constant objective there.  Identical packets are a
    `ConfigError`, and so is a `gamma_exponent` outside (0, ½).  The
    `study_setup` takes both packets (the bound
    3ξ_max/ε + √3 η_τ/√ε covers the cubic term's 2ξ_a - ξ_b products); the
    ε that share a step size run in one lockstep, without corrections, with
    the guards of `run_single_packet`, and the first failure propagates.
    """
    if not 0.0 < gamma_exponent < 0.5:
        raise ConfigError("gamma must lie in (0, 1/2)")
    p1, p2 = packets
    if (p1.branch, p1.x0, p1.xi0) == (p2.branch, p2.x0, p2.xi0):
        raise ConfigError("the two packets must differ in branch or "
                          "phase-space point")
    epsilons = sorted(epsilons, reverse=True)
    setup = study_setup(spec, [p1, p2], epsilons, lambda_coupling, T, x_min,
                        x_max, y_half_width, y_points, n_override, observe_every,
                        dt_max, dt_over_eps)

    probe, (tr1, tr2) = setup.probe, setup.rule.trajectories
    objective = np.abs(probe.branches[p1.branch] - probe.branches[p2.branch]
                       - (tr1.energy0 - tr2.energy0))
    big_gamma = float(objective.min())
    m = max(4, probe.grid.n // 64)
    edge_ok = bool(objective[-1] >= objective[-m] - 1e-12
                   and objective[0] >= objective[m - 1] - 1e-12)

    results = []
    for group in setup.groups():
        march = _Lockstep(setup, group, beta, corrections=False, isolate=False)
        observers = {lane: _SuperposeObserver(lane) for lane in march.lanes}
        march.march(observers)
        # crossing window |I^ε(T)| from the dense trajectory samples
        t1, t2 = march.trajs
        for lane, obs in observers.items():
            crossing = float(np.count_nonzero(
                np.abs(t1.x - t2.x) <= lane.epsilon**gamma_exponent)
                * (t1.times[1] - t1.times[0]))
            results.append((float(max(obs.w)), float(obs.w[-1]), crossing,
                            float(np.trapezoid(np.asarray(obs.inter),
                                               np.asarray(obs.times))),
                            lane.n, [t1.energy_drift, t2.energy_drift],
                            max(lane.tails), setup.y_grid.n, setup.rule.y_tau))
    rows = {name: [r[i] for r in results] for i, name in enumerate((
        "sup_errors", "terminal_errors", "crossing_measures",
        "interaction_integrals", "grid_n", "energy_drift", "fourier_tail",
        "y_points", "y_tau"))}
    return SuperpositionReport(
        epsilons=list(epsilons), gamma_exponent=gamma_exponent,
        big_gamma=big_gamma, big_gamma_edge_ok=edge_ok,
        gamma_zero_warning=bool(big_gamma < 1e-12),
        error_order=fit_order(epsilons, rows["sup_errors"]),
        crossing_order=fit_order(epsilons, rows["crossing_measures"]), **rows)
