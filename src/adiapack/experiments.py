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

    w = ψ - φ χ¹          (raw approximation error)
    θ = w + ε g           (with the off-mode coupling absorbed by g)

in the scaled norms of `grids.sigma_norm`.  Studies sweep ε at fixed horizon
T, fit the decay order by least squares in log-log, and include a two-packet
superposition experiment with the trajectory-crossing diagnostics Γ and
|I^ε(T)| = |{t ≤ T : |x₁(t) - x₂(t)| ≤ ε^γ}|.

One run marches everything in lockstep: the trajectory is integrated at dt/4
so that envelope midpoints (dt/2 steps) and Duhamel midpoints (dt steps) land
exactly on trajectory samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classical import BranchCurve, ClassicalTrajectory, integrate_trajectory
from .corrections import ScalarPropagator, assemble_correction
from .eigenframe import coupling_profile
from .envelope import EnvelopeStepper
from .errors import CORRECTION_NORM, AdiapackError, ConfigError
from .grids import ScalarField, SpatialGrid, UniformCubicSpline, VectorField, \
    l2_norm, make_grid, sigma_norm
from .nls import FieldState, NLSPropagator, build_initial_data, \
    check_lab_field, check_step_mass, coherent_packet, lab_grid_points, \
    mode_populations, spectral_half_width
from .potentials import MatrixPotentialSpec, SpectralData, decompose

__all__ = [
    "PacketSpec", "AnsatzBundle", "OrderFit", "SingleRunResult",
    "ConvergenceReport", "SuperpositionReport", "LabGridRule", "make_profile",
    "assemble_ansatz", "taylor_residual", "error_report", "fit_order",
    "lab_grid_rule", "run_single_packet", "convergence_study",
    "superposition_experiment",
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
# ansatz assembly and error reports

@dataclass(eq=False)
class AnsatzBundle:
    """Everything needed to evaluate the moving ansatz at stored times."""

    data: SpectralData
    branch: int
    branch_curve: BranchCurve
    traj: ClassicalTrajectory
    epsilon: float
    lambda_coupling: float
    y_grid: SpatialGrid
    u_times: np.ndarray = field(repr=False)
    u_values: list = field(repr=False)

    def u_at(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.u_times - t)))
        if abs(self.u_times[i] - t) > 1e-9 + 1e-9 * abs(t):
            raise ValueError(f"t = {t} is not a stored envelope time")
        return self.u_values[i]

    def phi_at(self, t: float, lab_grid: SpatialGrid | None = None) -> ScalarField:
        grid = lab_grid if lab_grid is not None else self.data.grid
        values = _phi_values(grid, self.y_grid, self.u_at(t), self.traj, t,
                             self.epsilon)
        return ScalarField(grid=grid, values=values, epsilon=self.epsilon, time=t)


def _phi_values(lab_grid, y_grid, u_vals, traj, t, epsilon):
    """φ(t, ·) on the lab grid from the envelope samples u on the y-grid.

    u is interpolated by the not-a-knot cubic spline of `grids` at
    y = (x - x(t))/√ε; a lab point outside the y-domain gets NaN from the
    spline and then 0.  The samples come from an `EnvelopeStepper`, which
    has checked that they vanish at the y-domain edges.
    """
    x_c = float(traj.x_of(t))
    xi = float(traj.xi_of(t))
    action = float(traj.action_of(t))
    y = (lab_grid.points - x_c) / np.sqrt(epsilon)
    u = UniformCubicSpline(y_grid.x_min, y_grid.spacing, u_vals,
                           extrapolate=False)(y)
    u[np.isnan(u)] = 0.0
    phase = np.exp(1j * (action + xi * (lab_grid.points - x_c)) / epsilon)
    return epsilon**-0.25 * u * phase


def assemble_ansatz(bundle: AnsatzBundle, t: float) -> VectorField:
    """φ(t, ·) χ¹ on the lab grid, χ¹ the static eigenvector of the branch."""
    phi = bundle.phi_at(t)
    chi = bundle.data.frames[bundle.branch][:, :, 0]
    return VectorField(grid=phi.grid, values=phi.values[:, None] * chi,
                       epsilon=bundle.epsilon, time=t)


def taylor_residual(bundle: AnsatzBundle, t: float) -> float:
    """‖(λ₁ - 𝒯)φ‖ where 𝒯 is the second-order Taylor polynomial of λ₁ at x(t).

    Exactly zero for quadratic branches; scales like ε^{3/2} otherwise, since
    φ concentrates at x(t) on the √ε scale.
    """
    return _taylor_remainder(bundle.data.grid, bundle.data.branches[bundle.branch],
                             bundle.branch_curve, float(bundle.traj.x_of(t)),
                             bundle.phi_at(t).values)


def _taylor_remainder(grid, lam, curve, x_c, phi):
    dx = grid.points - x_c
    taylor = (float(curve.value(x_c)) + float(curve.deriv(x_c)) * dx
              + 0.5 * float(curve.curvature(x_c)) * dx**2)
    return l2_norm(grid, (lam - taylor) * phi)


def error_report(psi: FieldState, bundle: AnsatzBundle, corrections: dict | None,
                 p: int = 1):
    """Scaled norms of w = ψ - φχ¹ and θ = w + εg at the state's time.

    `corrections` maps (j, ℓ) to component values at the matching time (or
    None for θ = w).  Vector norms combine components in quadrature.
    """
    t = psi.time
    ansatz = assemble_ansatz(bundle, t)
    w_values = psi.values - ansatz.values
    w = VectorField(grid=psi.grid, values=w_values, epsilon=psi.epsilon, time=t)
    w_report = sigma_norm(w, p)
    if corrections:
        g = assemble_correction(corrections, bundle.data, psi.epsilon, time=t)
        theta = VectorField(grid=psi.grid, values=w_values + psi.epsilon * g.values,
                            epsilon=psi.epsilon, time=t)
    else:
        theta = w
    return w_report, sigma_norm(theta, p)


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


# ---------------------------------------------------------------------------
# single-packet pipeline

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


def _require_simple_branch(data: SpectralData, branch: int):
    """Scope guard for the static carrier: the branch exists and is simple.

    A declared multiplet is the one input where the static eigenframe and the
    parallel-transported frame can differ; V is real by construction.
    """
    if branch >= data.n_branches:
        raise ConfigError(f"branch {branch} out of range "
                          f"({data.n_branches} branches)")
    d = data.multiplicities[branch]
    if d != 1:
        raise ConfigError(
            f"branch {branch} has multiplicity {d}: out of scope, the "
            f"transported branch must be simple")


# step of the sizing march: against 1e-3 steps the largest η_τ agrees within
# 2% on the shipped configs and on a breathing Gaussian, or comes out larger
# (by up to 15% at strong coupling), which only adds points
_SIZING_DT = 2.5e-2


@dataclass(frozen=True, eq=False)
class LabGridRule:
    """The ε-free momentum data of a run's packets, for `nls.lab_grid_points`."""

    length: float
    xi_max: float                    # largest |ξ| on the probe trajectories
    eta: float                       # largest η_τ of any envelope over the run
    n_packets: int
    trajectories: list               # the packets' probe trajectories

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
    edge guard (`InvariantViolation`) before it is measured.
    """
    trajs = [integrate_trajectory(_branch_curve_for(spec, probe, pk.branch),
                                  pk.x0, pk.xi0, T, 1e-3, branch_id=pk.branch)
             for pk in packets]
    steps = max(1, int(np.ceil(T / _SIZING_DT - 1e-12)))
    eta, marched = 0.0, set()
    for pk, tr in zip(packets, trajs):
        for a in pk.profiles():
            samples = np.asarray(a(y_grid.points), dtype=complex)
            key = (samples.tobytes(), tr.curvature.tobytes())
            if key not in marched:
                marched.add(key)
                env = EnvelopeStepper(y_grid, samples, lambda_coupling,
                                      tr.curvature_of)
                eta = max(eta, spectral_half_width(y_grid, env.values))
                for _ in range(steps):
                    env.advance(T / steps)
                    eta = max(eta, spectral_half_width(y_grid, env.values))
    return LabGridRule(length=probe.grid.length,
                       xi_max=max(float(np.max(np.abs(tr.xi))) for tr in trajs),
                       eta=eta, n_packets=len(packets), trajectories=trajs)


def _time_steps(T, observe_every, dt_max, dt_over_eps, epsilon):
    """(dt, steps per observation, total steps): dt divides the cadence."""
    if abs(round(T / observe_every) * observe_every - T) > 1e-9:
        raise ValueError("T must be a multiple of observe_every")
    steps_per_obs = int(np.ceil(observe_every / min(dt_max, dt_over_eps * epsilon)
                                - 1e-12))
    return (observe_every / steps_per_obs, steps_per_obs,
            steps_per_obs * int(round(T / observe_every)))


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
    snapshots: dict = field(default_factory=dict)
    bundle: AnsatzBundle | None = None

    def to_dict(self):
        return {
            "epsilon": self.epsilon,
            "grid_n": self.grid_n,
            "dt": self.dt,
            "times": self.times.tolist(),
            "masses": self.masses.tolist(),
            "w_sigma1": self.w_sigma1.tolist(),
            "theta_sigma1": self.theta_sigma1.tolist(),
            "leakage": self.leakage.tolist(),
            "taylor": self.taylor.tolist(),
            "populations": self.populations.tolist(),
            "g_sigma1": {f"{j},{ell}": v.tolist()
                         for (j, ell), v in self.g_sigma1.items()},
            "mass_drift": self.mass_drift,
            "sup_w_sigma1": self.sup_w_sigma1,
            "terminal_w_sigma1": self.terminal_w_sigma1,
            "energy_drift": self.energy_drift,
            "fourier_tail": self.fourier_tail,
        }


def run_single_packet(spec: MatrixPotentialSpec, packet: PacketSpec,
                      epsilon: float, lambda_coupling: float, T: float,
                      x_min: float, x_max: float, observe_every: float = 0.01,
                      dt_max: float = 1e-3, dt_over_eps: float = 0.25,
                      y_half_width: float = 40.0, y_points: int = 2048,
                      n_override: int | None = None, beta: float = 0.75,
                      with_corrections: bool = True,
                      snapshot_times=(), keep_bundle: bool = False) -> SingleRunResult:
    """One full pipeline run: solver, ansatz, corrections, error time series.

    The lab grid is sized by `lab_grid_rule` for the one packet (its branch
    must be simple, `ConfigError` otherwise); a forced `n_override` must meet
    the same rule.  Every step passes `nls.check_step_mass` (the largest
    drift, relative to the initial mass, is `mass_drift`); every observation
    passes `nls.check_lab_field` (the worst Fourier tail is `fourier_tail`)
    and `errors.CORRECTION_NORM` on each correction component.
    """
    branch = packet.branch
    a = packet.evaluator()
    y_grid = make_grid(-y_half_width, y_half_width, y_points)

    # momentum probe on a coarse grid, then the lab grid from the spectral rule
    probe_data = decompose(spec, make_grid(x_min, x_max, 4096))
    _require_simple_branch(probe_data, branch)
    n = lab_grid_rule(spec, probe_data, [packet], lambda_coupling, T,
                      y_grid).points(epsilon, n_override)
    lab = make_grid(x_min, x_max, n)
    data = decompose(spec, lab)
    curve = _branch_curve_for(spec, data, branch)

    dt, steps_per_obs, total_steps = _time_steps(T, observe_every, dt_max,
                                                 dt_over_eps, epsilon)

    traj = integrate_trajectory(curve, packet.x0, packet.xi0, T, dt / 4.0,
                                branch_id=branch)

    env = EnvelopeStepper(y_grid, a(y_grid.points), lambda_coupling,
                          traj.curvature_of)

    # the carrier χ¹ is static (module docstring); it and every off-branch
    # frame below come from this one decomposition, so their signs agree
    chi = data.frames[branch][:, :, 0]
    state0 = build_initial_data(a, packet.x0, packet.xi0, chi, epsilon, lab,
                                lambda_coupling, packet.r0())
    prop = NLSPropagator(data, epsilon, lambda_coupling, dt, beta)

    # correction components for every other branch
    others = [j for j in range(data.n_branches) if j != branch] if with_corrections else []
    rho = {(j, ell): coupling_profile(data, j, ell, source_branch=branch)
           for j in others for ell in range(data.multiplicities[j])}
    g_props = {j: ScalarPropagator(lab, data.branches[j], epsilon) for j in others}
    g_vals = {key: np.zeros(lab.n, dtype=complex) for key in rho}

    psi = state0.values.astype(complex).copy()
    mass0 = l2_norm(lab, psi)
    snapshot_steps = {int(round(ts / dt)): ts for ts in snapshot_times}

    u_times = [0.0]
    u_values = [env.values.copy()]

    times, masses, w_list, th_list, leak_list, tay_list = [], [], [], [], [], []
    pops_list, tails = [], []
    g_log = {key: [] for key in rho}
    snapshots = {}
    max_drift = 0.0

    def observe(t, u_now):
        tails.append(check_lab_field(psi, t))
        phi = _phi_values(lab, y_grid, u_now, traj, t, epsilon)
        w_values = psi - phi[:, None] * chi
        wf = VectorField(grid=lab, values=w_values, epsilon=epsilon, time=t)
        w_rep = sigma_norm(wf, 1)
        if rho:
            g_vec = np.zeros_like(psi)
            for (j, ell), arr in g_vals.items():
                g_vec += arr[:, None] * data.frames[j][:, :, ell]
            th = VectorField(grid=lab, values=w_values + epsilon * g_vec,
                             epsilon=epsilon, time=t)
            th_rep = sigma_norm(th, 1)
        else:
            th_rep = w_rep
        proj = np.einsum("nab,nb->na", data.projectors[branch], psi)
        leak = l2_norm(lab, psi - proj)
        vf = VectorField(grid=lab, values=psi, epsilon=epsilon, time=t)
        st = FieldState(field=vf, lambda_coupling=lambda_coupling)
        pops = mode_populations(st, data)
        tay = _taylor_remainder(lab, data.branches[branch], curve,
                                float(traj.x_of(t)), phi)

        times.append(t)
        masses.append(l2_norm(lab, psi))
        w_list.append(w_rep.value)
        th_list.append(th_rep.value)
        leak_list.append(leak)
        pops_list.append(pops)
        tay_list.append(tay)
        for key, arr in g_vals.items():
            gf = ScalarField(grid=lab, values=arr, epsilon=epsilon, time=t)
            g_rep = sigma_norm(gf, 1)
            # the (0, 0) component is the L² norm ‖g‖
            CORRECTION_NORM.check(g_rep.components[(0, 0)], where=f" at t = {t}")
            g_log[key].append(g_rep.value)

    observe(0.0, env.values)
    if 0 in snapshot_steps:
        snapshots[0.0] = psi.copy()

    for step in range(total_steps):
        t_mid = (step + 0.5) * dt
        env.advance(0.5 * dt)
        if rho:
            phi_mid = _phi_values(lab, y_grid, env.values, traj, t_mid, epsilon)
            xi_mid = float(traj.xi_of(t_mid))
            for (j, ell), arr in g_vals.items():
                src = phi_mid * (xi_mid * rho[(j, ell)])
                g_vals[(j, ell)] = g_props[j].step(arr, dt) \
                    + (dt / (1j * epsilon)) * g_props[j].step(src, 0.5 * dt)
        env.advance(0.5 * dt)
        psi = prop.step(psi)
        max_drift = max(max_drift, check_step_mass(lab, psi, mass0, step + 1))
        if (step + 1) % steps_per_obs == 0:
            observe((step + 1) * dt, env.values)
            u_times.append((step + 1) * dt)
            u_values.append(env.values.copy())
        if step + 1 in snapshot_steps:
            snapshots[snapshot_steps[step + 1]] = psi.copy()

    bundle = AnsatzBundle(data=data, branch=branch, branch_curve=curve, traj=traj,
                          epsilon=epsilon, lambda_coupling=lambda_coupling,
                          y_grid=y_grid, u_times=np.asarray(u_times),
                          u_values=u_values)
    w_arr = np.asarray(w_list)
    return SingleRunResult(
        epsilon=epsilon, grid_n=n, dt=dt, times=np.asarray(times),
        masses=np.asarray(masses), w_sigma1=w_arr,
        theta_sigma1=np.asarray(th_list), leakage=np.asarray(leak_list),
        taylor=np.asarray(tay_list), populations=np.asarray(pops_list),
        g_sigma1={k: np.asarray(v) for k, v in g_log.items()},
        mass_drift=max_drift / max(mass0, 1e-300),
        sup_w_sigma1=float(w_arr.max()), terminal_w_sigma1=float(w_arr[-1]),
        energy_drift=traj.energy_drift, fourier_tail=max(tails),
        snapshots=snapshots,
        bundle=bundle if keep_bundle else None,
    )


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
        return {
            "epsilons": list(self.epsilons),
            "sup_errors": list(self.sup_errors),
            "terminal_errors": list(self.terminal_errors),
            "leakages": list(self.leakages),
            "fitted_order": self.fitted_order.order,
            "fitted_order_residual": self.fitted_order.max_residual,
            "leakage_order": self.leakage_order.order,
            "strictly_decreasing": self.strictly_decreasing,
            "runs": [r.to_dict() for r in self.runs],
            "failures": [[eps, str(exc)] for eps, exc in self.failures],
        }


def convergence_study(spec: MatrixPotentialSpec, packet: PacketSpec, epsilons,
                      lambda_coupling: float, T: float, x_min: float, x_max: float,
                      **run_kwargs) -> ConvergenceReport:
    """Sweep ε, collect sup-in-t error norms, and fit the decay order.

    Runs go one after another in decreasing ε.  A sub-run that fails with
    an `AdiapackError` is listed in `report.failures` instead of killing the
    sweep, even when every sub-run fails (the report then has no ε); any
    other exception is a programming error and propagates.
    """
    epsilons = sorted(epsilons, reverse=True)

    def job(eps):
        try:
            return run_single_packet(spec, packet, eps, lambda_coupling, T,
                                     x_min, x_max, **run_kwargs)
        except AdiapackError as exc:
            return exc

    outcomes = [job(e) for e in epsilons]

    runs = [r for r in outcomes if isinstance(r, SingleRunResult)]
    failures = [(e, r) for e, r in zip(epsilons, outcomes)
                if not isinstance(r, SingleRunResult)]

    eps_ok = [r.epsilon for r in runs]
    sup_err = [r.sup_w_sigma1 for r in runs]
    term_err = [r.terminal_w_sigma1 for r in runs]
    leak = [float(r.leakage[-1]) for r in runs]
    return ConvergenceReport(
        epsilons=eps_ok, sup_errors=sup_err, terminal_errors=term_err,
        leakages=leak, fitted_order=fit_order(eps_ok, sup_err),
        leakage_order=fit_order(eps_ok, leak),
        strictly_decreasing=all(a > b for a, b in zip(sup_err, sup_err[1:])),
        runs=runs, failures=failures,
    )


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

    def to_dict(self):
        return {
            "epsilons": list(self.epsilons),
            "gamma_exponent": self.gamma_exponent,
            "big_gamma": self.big_gamma,
            "big_gamma_edge_ok": self.big_gamma_edge_ok,
            "gamma_zero_warning": self.gamma_zero_warning,
            "sup_errors": list(self.sup_errors),
            "terminal_errors": list(self.terminal_errors),
            "crossing_measures": list(self.crossing_measures),
            "interaction_integrals": list(self.interaction_integrals),
            "error_order": self.error_order.order,
            "crossing_order": self.crossing_order.order,
            "grid_n": list(self.grid_n),
            "energy_drift": [list(row) for row in self.energy_drift],
            "fourier_tail": list(self.fourier_tail),
        }


def superposition_experiment(spec: MatrixPotentialSpec, packets, epsilons,
                             lambda_coupling: float, T: float, x_min: float,
                             x_max: float, gamma_exponent: float = 0.3,
                             observe_every: float = 0.01, dt_max: float = 1e-3,
                             dt_over_eps: float = 0.25, y_half_width: float = 40.0,
                             y_points: int = 2048, n_override: int | None = None,
                             beta: float = 0.75) -> SuperpositionReport:
    """Two-packet run: ψ₀ = φ₁χ¹ + φ₂χ², error against the sum ansatz.

    Reports Γ = inf |λ̃₁ - λ̃₂ - (E₁ - E₂)| (0 means the separation hypothesis
    fails — the run still executes as a documented negative control), the
    crossing-set measure |I^ε(T)| for the configured γ, and the interaction
    integral ∫‖|φ₁|²φ₂‖ dt.  The infimum runs over the lab domain
    [x_min, x_max], sampled by the probe decomposition; the shipped superpose
    configs have a constant objective there.  Both branches must be simple
    (`ConfigError` otherwise).  Grid sizes follow `lab_grid_rule` for both
    packets (the bound 3ξ_max/ε + √3 η_τ/√ε covers the cubic term's
    2ξ_a - ξ_b products); steps and observations pass the same guards as in
    `run_single_packet`, and each ε's worst tail is `fourier_tail`.
    """
    if not 0.0 < gamma_exponent < 0.5:
        raise ValueError("gamma_exponent must lie in (0, 1/2)")
    p1, p2 = packets
    if (p1.branch, p1.x0, p1.xi0) == (p2.branch, p2.x0, p2.xi0):
        raise ValueError("the two packets must differ in branch or phase-space point")
    epsilons = sorted(epsilons, reverse=True)

    # ε-independent preparation: trajectories, Γ
    probe = decompose(spec, make_grid(x_min, x_max, 4096))
    for p in (p1, p2):
        _require_simple_branch(probe, p.branch)
    y_grid = make_grid(-y_half_width, y_half_width, y_points)
    rule = lab_grid_rule(spec, probe, [p1, p2], lambda_coupling, T, y_grid)
    probe_trajs = rule.trajectories
    lam1 = probe.branches[p1.branch]
    lam2 = probe.branches[p2.branch]
    e1, e2 = probe_trajs[0].energy0, probe_trajs[1].energy0
    objective = np.abs(lam1 - lam2 - (e1 - e2))
    big_gamma = float(objective.min())
    m = max(4, probe.grid.n // 64)
    edge_ok = bool(objective[-1] >= objective[-m] - 1e-12
                   and objective[0] >= objective[m - 1] - 1e-12)
    gamma_zero = bool(big_gamma < 1e-12)

    def job(eps):
        n = rule.points(eps, n_override)
        lab = make_grid(x_min, x_max, n)
        data = decompose(spec, lab)
        dt, steps_per_obs, total_steps = _time_steps(T, observe_every, dt_max,
                                                     dt_over_eps, eps)

        trajs, envs = [], []
        for pk in (p1, p2):
            curve = _branch_curve_for(spec, data, pk.branch)
            tr = integrate_trajectory(curve, pk.x0, pk.xi0, T, dt / 4.0,
                                      branch_id=pk.branch)
            a = pk.evaluator()
            envs.append(EnvelopeStepper(y_grid, a(y_grid.points), lambda_coupling,
                                        tr.curvature_of))
            trajs.append(tr)
        chis = [data.frames[pk.branch][:, :, 0] for pk in (p1, p2)]

        # analytic profiles at t = 0 (spline interpolation noise in the data
        # would disperse at high group velocity and pollute the whole domain)
        psi = sum(coherent_packet(lab, pk.evaluator(), pk.x0, pk.xi0, eps)[:, None]
                  * chi for pk, chi in zip((p1, p2), chis))
        prop = NLSPropagator(data, eps, lambda_coupling, dt, beta)
        mass0 = l2_norm(lab, psi)

        w_series, inter_series, t_series, tails = [], [], [], []

        def observe(t):
            tails.append(check_lab_field(psi, t))
            f1, f2 = (_phi_values(lab, y_grid, env.values, tr, t, eps)
                      for env, tr in zip(envs, trajs))
            w = psi - f1[:, None] * chis[0] - f2[:, None] * chis[1]
            wf = VectorField(grid=lab, values=w, epsilon=eps, time=t)
            w_series.append(sigma_norm(wf, 1).value)
            inter_series.append(l2_norm(lab, np.abs(f1) ** 2 * f2))
            t_series.append(t)

        observe(0.0)
        for step in range(total_steps):
            envs[0].advance(dt)
            envs[1].advance(dt)
            psi = prop.step(psi)
            check_step_mass(lab, psi, mass0, step + 1)
            if (step + 1) % steps_per_obs == 0:
                observe((step + 1) * dt)

        # crossing window |I^ε(T)| from the dense trajectory samples
        sep = np.abs(trajs[0].x - trajs[1].x)
        dt_traj = trajs[0].times[1] - trajs[0].times[0]
        crossing = float(np.count_nonzero(sep <= eps**gamma_exponent) * dt_traj)
        interaction = float(np.trapezoid(np.asarray(inter_series),
                                         np.asarray(t_series)))
        w_arr = np.asarray(w_series)
        drifts = [tr.energy_drift for tr in trajs]
        return (float(w_arr.max()), float(w_arr[-1]), crossing, interaction, n,
                drifts, max(tails))

    rows = [job(e) for e in epsilons]

    sups, terms, crossings, inters, grid_n, energy_drift, fourier_tail = (
        [r[i] for r in rows] for i in range(7))
    return SuperpositionReport(
        epsilons=list(epsilons), gamma_exponent=gamma_exponent,
        big_gamma=big_gamma, big_gamma_edge_ok=edge_ok,
        gamma_zero_warning=gamma_zero, sup_errors=sups, terminal_errors=terms,
        crossing_measures=crossings, interaction_integrals=inters,
        error_order=fit_order(epsilons, sups),
        crossing_order=fit_order(epsilons, crossings), grid_n=grid_n,
        energy_drift=energy_drift, fourier_tail=fourier_tail,
    )
