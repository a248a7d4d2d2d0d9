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

A study travels as one validated `Study`, its run options one `RunOptions`:
each rule is checked once, when it is built, and every driver takes one.  A
command does its ε-free work once (`study_setup`): the probe decomposition,
each packet's one path, the grid rule, every ε's grid size and step rule,
and the envelopes' run window (the part of the y-grid their profiles fill).
In the critical scaling the envelope equation and the classical path do not
contain ε, so every ε of a command runs in one lockstep march (`_Lockstep`):
each distinct envelope is marched once, on its own fourth-order clock
(`envelope.EnvelopeClock`, a clock point about every `_ENVELOPE_DT`, ticked
once per interval), and each ε keeps its own lab state and dt (`_Lane`)
and reads every envelope and path (`ClassicalTrajectory.at`) at its own
fraction of the clock interval.  `run_single_packet`, `convergence_study`
and `superposition_experiment` share that march and differ only in their
observer and failure handling.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .classical import integrate_trajectory
from .corrections import ScalarPropagator, assemble_correction
from .eigenframe import coupling_profile
from .envelope import EnvelopeClock, EnvelopeStepper
from .errors import BOUNDARY, CORRECTION_NORM, ENVELOPE_SUPPORT, \
    FOURIER_TAIL, AdiapackError, ConfigError, finite_number
from .grids import SpatialGrid, UniformCubicSpline, centred_slice, l2_norm, \
    make_grid, sigma_norm, unit_phase
from .nls import MAX_GRID_POINTS, MAX_POINT_STEPS, MAX_STEPS, NLSPropagator, \
    project, build_initial_data, check_lab_field, check_step_mass, \
    fourier_tail, kappa_problem, lab_grid_points, mode_populations, \
    spectral_half_width
from .potentials import MatrixPotentialSpec, SpectralData, branch_spline, \
    decompose

__all__ = [
    "PacketSpec", "RunOptions", "Study", "OrderFit", "SingleRunResult",
    "ConvergenceReport", "SuperpositionReport", "LabGridRule", "StudySetup",
    "make_profile", "fit_order", "lab_grid_rule", "study_setup",
    "run_single_packet", "convergence_study", "superposition_experiment",
]


# ---------------------------------------------------------------------------
# profiles

def _width(width) -> float:
    if not (finite_number(width) and width > 0):
        raise ValueError(f"width must be a finite number > 0, not {width!r}")
    return width


def gaussian_profile(width: float = 1.0, center: float = 0.0):
    norm = (np.pi * _width(width)**2) ** -0.25

    def a(y):
        return norm * np.exp(-((y - center) ** 2) / (2.0 * width**2))

    return a


def hermite_profile(width: float = 1.0, center: float = 0.0):
    """First excited oscillator profile (unit L² norm, odd about the center)."""
    norm = np.sqrt(2.0) * (np.pi * _width(width)**2) ** -0.25

    def a(y):
        u = (y - center) / width
        return norm * u * np.exp(-(u**2) / 2.0)

    return a


def noise_profile(seed: int = 0, modes: int = 6, width: float = 1.0):
    """Random smooth localized profile, deterministic per seed (unit L² norm)."""
    # over five seeds, 128 modes are 4e-28 of the peak at the ends of the
    # normalisation window below, 192 modes 2.7e-15; 256 modes overflow
    if not (isinstance(modes, numbers.Integral) and not isinstance(modes, bool)
            and 0 <= modes <= 128):
        raise ValueError(f"modes must be an integer in [0, 128], not {modes!r}")
    _width(width)
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

def _phi_values(lab_grid, u_of, x_c, xi, action, epsilon):
    """φ on the lab grid from `u_of`, the envelope's spline on the y-grid,
    and the path's point (x_c, ξ) and action S at the same time.

    u is evaluated at y = (x - x_c)/√ε, and is 0 where y leaves the knots.
    The spline and the phase are evaluated only on a contiguous run of lab
    indices that holds every y of the y-domain, with a point of margin on
    each side; every other lab point is 0.  The run has the same length at
    every call, so its temporaries keep one size (runs that followed the
    window's edges point for point fragmented the heap).  The samples come
    from an `EnvelopeStepper`, which has checked that they vanish at the
    y-domain edges.
    """
    root = np.sqrt(epsilon)
    span = root * (u_of.knots[-1] - u_of.knots[0]) / lab_grid.spacing
    width = min(lab_grid.n, int(np.ceil(span)) + 4)
    first = (x_c + root * u_of.knots[0] - lab_grid.x_min) / lab_grid.spacing
    lo = min(max(0, int(np.floor(first)) - 1), lab_grid.n - width)
    dx = lab_grid.points[lo:lo + width] - x_c
    y = dx / root
    u = u_of(y)
    u[(y < u_of.knots[0]) | (y > u_of.knots[-1])] = 0.0
    phase = unit_phase((action + xi * dx) / epsilon)
    out = np.zeros(lab_grid.n, dtype=complex)
    out[lo:lo + width] = epsilon**-0.25 * u * phase
    return out


def _taylor_remainder(grid, lam, traj, i, phi):
    """‖(λ - 𝒯)φ‖, 𝒯 the second-order Taylor polynomial of the branch λ
    (samples `lam`) at x_c = x(t_i), from `traj`'s λ, λ', λ'' at sample i.

    Exactly zero for quadratic branches; scales like ε^{3/2} otherwise, since
    φ concentrates at x_c on the √ε scale.
    """
    dx = grid.points - traj.x[i]
    taylor = traj.lam[i] + traj.slope[i] * dx + 0.5 * traj.curvature[i] * dx**2
    return l2_norm(grid, (lam - taylor) * phi)


def _error_norms(psi, terms, grid, epsilon, g=None):
    """σ_1 reports of w = ψ - Σ_k φ_k χ_k and θ = w + εg (θ = w when g is None).

    `terms` holds each packet's (φ, χ) at the time of ψ; they are subtracted
    in order.
    """
    w = psi
    for phi, chi in terms:
        w = w - phi[:, None] * chi
    w_rep = sigma_norm(grid, w, epsilon, 1)
    if g is None:
        return w_rep, w_rep
    return w_rep, sigma_norm(grid, w + epsilon * g, epsilon, 1)


# ---------------------------------------------------------------------------
# order fitting

@dataclass(frozen=True)
class OrderFit:
    order: float
    max_residual: float
    defined: bool


def fit_order(epsilons, errors) -> OrderFit:
    """Least-squares slope of log(error) against log(ε), with residual diagnostics.

    Zero or negative errors make the order undefined (flagged, not raised).
    """
    eps = np.asarray(epsilons, dtype=float)
    err = np.asarray(errors, dtype=float)
    if len(eps) < 2 or np.any(err <= 0.0) or np.any(eps <= 0.0):
        return OrderFit(order=float("nan"), max_residual=float("nan"),
                        defined=False)
    a = np.stack([np.log(eps), np.ones_like(eps)], axis=1)
    coef, *_ = np.linalg.lstsq(a, np.log(err), rcond=None)
    resid = np.log(err) - a @ coef
    return OrderFit(order=float(coef[0]), max_residual=float(np.max(np.abs(resid))),
                    defined=True)


def _json_fields(report, skip=()) -> dict:
    """A report's fields for `report.json`: arrays as lists, fits as order or null."""
    return {k: v.tolist() if isinstance(v, np.ndarray)
            else (v.order if v.defined else None) if isinstance(v, OrderFit) else v
            for k, v in vars(report).items() if k not in skip}


# ---------------------------------------------------------------------------
# the ε-free study set-up of a command, and the lockstep march of its ε

def _branch_curve_for(spec: MatrixPotentialSpec, data: SpectralData, branch: int):
    """The branch curve, called `curve(x, nu)`: the diagonal entry it is
    for diagonal potentials, else `branch_spline`."""
    pts = data.grid.points
    with np.errstate(all="ignore"):   # finite: `data`'s decompose refused the rest
        w_mag = max(np.max(np.abs(e(pts))) for e in spec.sym) if spec.sym else 0.0
        if w_mag < 1e-14:
            for entry in spec.diag:
                if np.max(np.abs(entry(pts) - data.branches[branch])) < 1e-10:
                    return entry
    return branch_spline(data, branch)


@dataclass(frozen=True)
class RunOptions:
    """The run options of a `Study` (its `options`) under their config keys
    (`grid_n` is `grid.n`; β = 3/4 is fixed, see `nls`), each default written
    once; a bad value raises a `ConfigError` that lists every problem."""

    observe_every: float = 0.01      # observation cadence; T is a multiple
    dt_max: float = 1e-3             # `_step_rule`'s two step bounds
    dt_over_epsilon: float = 0.25
    y_half_width: float = 40.0       # the configured envelope y-grid
    y_points: int = 2048
    grid_n: int | None = None        # a fixed lab grid size, else the rule's

    def __post_init__(self):
        if problems := self._problems():
            raise ConfigError(problems)

    def _problems(self) -> list:   # every problem, one string each
        out = [f"{key} must be positive and finite" for key in (
            "observe_every", "dt_max", "dt_over_epsilon", "y_half_width")
            if not (finite_number(getattr(self, key)) and getattr(self, key) > 0)]
        for key, n in (("grid.n", 8 if self.grid_n is None else self.grid_n),
                       ("y_points", self.y_points)):
            if not (isinstance(n, numbers.Integral) and n >= 8 and not n & (n - 1)):
                out.append(f"{key} must be a power of two, at least 8")
            elif n > MAX_GRID_POINTS:
                out.append(f"{key} must be at most 2**20")
        return out


def _multiple(value: float, step: float) -> bool:   # to 1e-9, no overflow
    ratio = value / step
    return bool(np.isfinite(ratio)) and abs(round(ratio) * step - value) <= 1e-9


def _study_problems(v: dict) -> list:
    """Every rule of a `Study` that the fields in `v` break, one string each
    under its config key.  A rule is checked only when its fields are in
    `v`: `load_config` leaves out a field whose JSON it already rejected.

    A packet's branch must exist and be simple by the declared
    multiplicities (which `decompose` enforces), the one condition under
    which the static frame is the transported one."""
    out, spec, options = [], v.get("potential"), v.get("options")
    mult = spec and (spec.multiplicities or (1,) * spec.n_levels)
    for i, pk in enumerate(v.get("packets", ())):
        out += [f"packets[{i}].{key} must be a finite number"
                for key in ("x0", "xi0") if not finite_number(getattr(pk, key))]
        if pk.kappa is not None and (problem := kappa_problem(pk.kappa)):
            out.append(f"packets[{i}]: {problem}")
        if mult and not 0 <= pk.branch < len(mult):
            out.append(f"packets[{i}]: branch {pk.branch} out of range "
                       f"({len(mult)} branches)")
        elif mult and mult[pk.branch] != 1:
            out.append(f"packets[{i}]: branch {pk.branch} has multiplicity "
                       f"{mult[pk.branch]}: out of scope, the transported "
                       f"branch must be simple")
    if "packets" in v and not v["packets"]:
        out.append("packets: need at least one packet")
    eps = v.get("epsilons", ())
    if "epsilons" in v and (not isinstance(eps, (list, tuple)) or not eps):
        out.append("epsilons: need a list of at least one value")
    elif not all(finite_number(e) and 0.0 < e <= 1.0 for e in eps):
        out.append("epsilons: every value must lie in (0, 1]")
    elif len(set(eps)) < len(eps):   # runs and their set-up key on ε
        out.append("epsilons: a value is repeated")
    for key, label in (("T", "T"), ("x_min", "grid.x_min"),
                       ("x_max", "grid.x_max"), ("lambda_coupling", "lambda")):
        if key in v and not finite_number(v[key]):
            out.append(f"{label} must be a finite number")
    T, every = v.get("T"), options.observe_every if options else None
    if finite_number(T) and T <= 0.0:
        out.append("T must be positive")
    elif finite_number(T) and every:
        if not _multiple(T, every):
            out.append("T must be an integer multiple of observe_every")
        for i, ts in enumerate(v.get("snapshot_times") or ()):
            if not (finite_number(ts) and 0.0 <= ts <= T and _multiple(ts, every)):
                out.append(f"snapshot_times[{i}]: {ts!r} is not a multiple of "
                           f"observe_every in [0, T]")
    if (all(finite_number(v.get(k)) for k in ("x_min", "x_max"))
            and v["x_min"] >= v["x_max"]):
        out.append("grid: x_min must be below x_max")
    if "gamma_exponent" in v and not (finite_number(gamma := v["gamma_exponent"])
                                      and 0.0 < gamma < 0.5):
        out.append("gamma must lie in (0, 1/2)")
    return out


@dataclass(frozen=True, eq=False, kw_only=True)
class Study:
    """The data the theorem fixes and a run's choices, each default written
    once; building one with a bad value raises a `ConfigError` that lists
    every problem.  `out_dir` is the CLI's output directory without `--out`."""

    potential: MatrixPotentialSpec
    packets: tuple                   # `PacketSpec`s on simple branches
    epsilons: tuple                  # each in (0, 1]
    T: float                         # horizon > 0, a multiple of observe_every
    x_min: float                     # the lab domain, x_min < x_max
    x_max: float
    lambda_coupling: float = 0.0
    options: RunOptions = RunOptions()
    gamma_exponent: float = 0.3      # the crossing window ε^γ, γ in (0, ½)
    snapshot_times: tuple | None = None   # `single`'s; None is (0, T)
    out_dir: str = "results"

    def __post_init__(self):
        if problems := _study_problems(vars(self)):
            raise ConfigError(problems)
        object.__setattr__(self, "epsilons", tuple(map(float, self.epsilons)))
        if self.snapshot_times is None:
            object.__setattr__(self, "snapshot_times", (0.0, self.T))


# the envelope clock's interval: its fourth-order step there is more
# accurate than 1e-3 Strang steps; every shipped cadence is a multiple
_ENVELOPE_DT = 1e-2


class _Steps(NamedTuple):
    """The march of one ε: step size, steps per observation, step total,
    steps per envelope clock interval."""

    dt: float
    per_obs: int
    total: int
    per_clock: int


def _step_rule(T: float, options: RunOptions, epsilon: float) -> _Steps:
    """The one step rule.  The cell c = observe_every/⌈observe_every/
    `_ENVELOPE_DT`⌉ does not contain ε; dt = c/k for the smallest k with
    dt ≤ min(dt_max, dt_over_epsilon·ε), so that every ε's steps land on
    every observation (a `Study` has T on that cadence) and on every clock
    point: one every ⌊`_ENVELOPE_DT`/c⌋ cells, and one at T."""
    every, n_obs = options.observe_every, round(T / options.observe_every)
    cells = int(np.ceil(every / _ENVELOPE_DT - 1e-12))   # per observation
    cell = every / cells
    dt = min(options.dt_max, options.dt_over_epsilon * epsilon)
    k = int(np.ceil(cell / dt - 1e-12))
    return _Steps(cell / k, cells * k, cells * k * n_obs,
                  k * max(1, int(_ENVELOPE_DT / cell + 1e-9)))


def _within(budget: int, what: str, work: dict):
    """A `ConfigError` unless the study's total work (`work`: ε -> its
    estimate) is within `budget`; it names the ε that needs the most."""
    if (total := sum(work.values())) > budget:
        eps = max(work, key=work.get)
        raise ConfigError(f"the study needs {total:.4g} {what}, above the "
                          f"budget of {budget:.0e}; epsilon = {eps} alone "
                          f"needs {work[eps]:.4g}")


def _envelopes(y_grid: SpatialGrid, pairs, lambda_coupling: float) -> tuple:
    """An `EnvelopeStepper` for each (profile, curvature samples) pair, and
    each distinct stepper's curvature.  Pairs whose samples agree byte for
    byte (no tolerance) march the same u, so they share one stepper."""
    shared, out, curvatures = {}, [], {}
    for a, curvature in pairs:
        samples = np.asarray(a(y_grid.points), dtype=complex)
        key = (samples.tobytes(), curvature.tobytes())
        if key not in shared:
            shared[key] = EnvelopeStepper(y_grid, samples, lambda_coupling)
            curvatures[shared[key]] = curvature
        out.append(shared[key])
    return out, curvatures


# step of the sizing march: against 1e-3 steps the largest η_τ agrees within
# 2% on the shipped configs and on a breathing Gaussian, or comes out larger
# (by up to 15% at strong coupling), which only adds points
_SIZING_DT = 2.5e-2


@dataclass(frozen=True, eq=False)
class LabGridRule:
    """The ε-free momentum data of a run's packets, for `nls.lab_grid_points`,
    and the envelopes' measured support."""

    xi_max: float                    # largest |ξ| on the run trajectories
    eta: float                       # largest η_τ of any envelope over the run
    y_tau: float                     # largest |y| with |u| > τ_y max|u| over the run


def lab_grid_rule(packets, trajectories, dt: float, lambda_coupling: float,
                  y_grid: SpatialGrid, epsilons=(),
                  domain=(-np.inf, np.inf)) -> LabGridRule:
    """Measure, once for every ε, the momentum data that sizes the lab grid.

    ξ_max is the largest |ξ| on `trajectories`, the packets' paths, samples
    at dt/4 of the command's finest step dt.  Each profile of a packet (a,
    and r₀'s if set) is marched as an envelope along its trajectory's
    curvature in steps of m·dt, m = max(1, round(`_SIZING_DT`/dt)), the last
    one shorter if need be; the step from b₀·dt to b₁·dt reads its midpoint
    sample 2(b₀ + b₁).  η_τ is the largest `nls.spectral_half_width` over
    all steps: the spectrum breathes when a profile is not the coherent
    width, and the cubic term widens it.  A profile that does not vanish at
    the y-domain edges fails the stepper's edge guard (`InvariantViolation`)
    before it is measured, and an η_τ that reaches the lattice's top shell
    π/Δy, from t = 0 on, is a `ConfigError` naming `y_points`: the y-grid
    aliases that envelope.  The same march measures Y_τ, the largest |y| at
    which |u| > τ_y · max|u| (τ_y = `errors.ENVELOPE_SUPPORT`) at any of its
    steps, which sizes the envelopes' run window (`_run_window`).  A profile
    whose part of ψ at an ε of `epsilons`, ε^{κ-1/4}|u| (κ = 0 for a, r₀'s κ
    for r₀), tops `errors.BOUNDARY`'s level at an x(t) + √ε y past `domain`
    after a step, not at t = 0, is a `ConfigError` naming `grid.x_{min,max}`.
    """
    total, m = (len(trajectories[0].x) - 1) // 4, max(1, round(_SIZING_DT / dt))
    bounds = list(range(0, total, m)) + [total]
    pairs = [(a, tr, kappa) for pk, tr in zip(packets, trajectories)
             for a, kappa in zip(pk.profiles(), (0.0, pk.kappa))]
    envs, curvatures = _envelopes(y_grid, [(a, tr.curvature) for a, tr, _ in pairs],
                                  lambda_coupling)
    levels = {env: [] for env in curvatures}   # (trajectory, ε, level of |u|)
    for env, (_, tr, kappa) in zip(envs, pairs):
        levels[env] += [(tr, eps, BOUNDARY.tol * eps ** (0.25 - kappa))
                        for eps in epsilons]
    eta = y_tau = 0.0
    for env, curvature in curvatures.items():
        for b0, b1 in zip([0] + bounds, bounds):
            if b1 > b0:
                env.advance((b1 - b0) * dt, curvature[2 * (b0 + b1)], b1 * dt)
            u = env.values
            eta = max(eta, spectral_half_width(y_grid, u))
            if eta >= np.pi / y_grid.spacing:
                raise ConfigError(f"the envelope's η_τ reaches π/Δy, the "
                                  f"y-grid's Nyquist limit, at t = "
                                  f"{b1 * dt:.6g}: raise y_points")
            mag = np.abs(u)
            y_tau = max(y_tau, float(np.abs(
                y_grid.points[mag > ENVELOPE_SUPPORT * mag.max()]).max(initial=0.0)))
            inside = []   # a ψ₀ past the domain trips the run's guard at t = 0
            for tr, eps, level in levels[env]:
                y = np.sqrt(eps) * y_grid.points[mag > level]
                lo, hi = tr.x[4 * b1] + y[[0, -1]] if y.size else domain
                if domain[0] <= lo and hi <= domain[1]:
                    inside.append((tr, eps, level))
                elif b1 > 0:
                    raise ConfigError(
                        f"at epsilon = {eps} a packet reaches x in [{lo:.4g}, "
                        f"{hi:.4g}] at t = {b1 * dt:.6g}, past grid.x_"
                        f"{'min' if lo < domain[0] else 'max'}: enlarge the domain")
            levels[env] = inside
    return LabGridRule(xi_max=max(float(np.max(np.abs(tr.xi))) for tr in trajectories),
                       eta=eta, y_tau=y_tau)


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

    study: Study                     # its packets and ε are the set-up's
    y_grid: SpatialGrid              # the envelopes' run window (`_run_window`)
    probe: SpectralData              # the 4096-point decomposition
    rule: LabGridRule
    grid_n: dict                     # requested ε -> lab grid size
    steps: dict                      # requested ε -> its `_Steps`
    trajectories: tuple              # each packet's path, at the finest dt/4


def study_setup(study: Study) -> StudySetup:
    """For every packet and ε of the study: every ε's `_step_rule`, the
    4096-point probe decomposition, each packet's one path at dt/4 of the
    finest dt on the probe's branch curve, `lab_grid_rule` on those paths
    and the configured y-grid (±y_half_width, y_points), the lab grid size
    of every ε (a `grid.n` must meet the rule at all of them) and the
    envelopes' run window (the configured y-grid's smallest centred
    power-of-two slice that holds the measured Y_τ).  Every failure is a
    `ConfigError` (exit 2), and so is a study above `nls.MAX_STEPS` steps,
    checked first, or above `nls.MAX_POINT_STEPS` lab grid point-steps,
    checked once the grid sizes are known."""
    spec, packets, options = study.potential, study.packets, study.options
    steps = {eps: _step_rule(study.T, options, eps) for eps in study.epsilons}
    _within(MAX_STEPS, "steps", {eps: s.total for eps, s in steps.items()})
    y_grid = make_grid(-options.y_half_width, options.y_half_width,
                       options.y_points)
    try:
        probe = decompose(spec, make_grid(study.x_min, study.x_max, 4096))
        dt = min(steps.values()).dt
        trajectories = tuple(integrate_trajectory(
            _branch_curve_for(spec, probe, pk.branch), pk.x0, pk.xi0, study.T,
            dt / 4.0) for pk in packets)
        rule = lab_grid_rule(packets, trajectories, dt, study.lambda_coupling,
                             y_grid, study.epsilons, (study.x_min, study.x_max))
    except AdiapackError as exc:
        raise ConfigError(f"grid derivation failed: {exc}") from exc
    grid_n = {eps: lab_grid_points(probe.grid.length, eps, rule.xi_max, rule.eta,
                                   n_packets=len(packets), n_override=options.grid_n)
              for eps in study.epsilons}
    _within(MAX_POINT_STEPS, "lab grid point-steps",
            {eps: n * steps[eps].total for eps, n in grid_n.items()})
    return StudySetup(study=study, y_grid=_run_window(y_grid, rule.y_tau),
                      probe=probe, rule=rule, steps=steps,
                      trajectories=trajectories, grid_n=grid_n)


def _setup_of(study: Study, n_packets: int) -> StudySetup:
    """The set-up of the study's first `n_packets` packets and its ε in
    decreasing order, the order of every report."""
    return study_setup(replace(study, packets=study.packets[:n_packets],
                               epsilons=sorted(study.epsilons, reverse=True)))


class _Lane:
    """One ε of a lockstep: ψ on its lab grid (one decomposition), each
    packet's static carrier, the NLS propagator and, when the set-up has one
    packet, its g_{j,ℓ} on every other branch, carried half a step ahead as
    h_{j,ℓ} = U_j(dt/2) g_{j,ℓ}.  ψ₀ is the sum of the packets'
    `build_initial_data`; a ψ₀ whose ends pass `BOUNDARY` and whose Fourier
    tail does not (the lab grid rule does not count χ's turning) is a
    `ConfigError` naming `grid.n`.  Between observations ψ stays open: each
    step leaves its trailing half potential step to the next one."""

    def __init__(self, setup: StudySetup, epsilon):
        study = setup.study
        spec, packets, lam = study.potential, study.packets, study.lambda_coupling
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
        tail = fourier_tail(self.psi)
        if not tail <= FOURIER_TAIL.tol and \
                np.abs(self.psi[[0, -1]]).max() <= BOUNDARY.tol:
            raise ConfigError(
                f"grid.n: the initial data's Fourier tail {tail:.3e} is above "
                f"{FOURIER_TAIL.tol:.1e} on the {self.n}-point lab grid at "
                f"epsilon = {epsilon}; raise grid.n")
        self.pending = False             # ψ owes its last step's trailing half
        self.mass0, self.max_drift, self.tails = l2_norm(lab, self.psi), 0.0, []
        self.prop = NLSPropagator(data, epsilon, lam, self.steps.dt)
        branch = packets[0].branch
        others = [j for j in range(data.n_branches)
                  if j != branch and len(packets) == 1]
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
    """Every ε of a command in one march, one `_Lane` per ε.  The ε-free
    parts are marched once: every lane reads the set-up's paths, and
    packets and ε whose profile and curvature samples agree share one
    `EnvelopeStepper` (`_envelopes`) and its `EnvelopeClock`.  The march
    goes one clock interval, path samples b₀ to b₁, at a time: it ticks each
    distinct clock through it (the one place that does), then each lane
    takes its own steps, first + 1 to first + n, which land on the clock
    points.  Step s reads the clocks and paths at (s - first)/n of the
    interval when observed, a path sample, and at (2(s - first) - 1)/(2n),
    its midpoint, for the Duhamel source of the correction components;
    lanes of equal dt step together, so each read is made once for all of
    them.  ψ closes only at the step that lands on an observation.

    A lane whose construction or guard fails with an `AdiapackError` leaves
    the march and is listed in `failures`, in the order the lanes fail; the
    other lanes go on.  A tripped envelope guard fails every live lane at
    the tick of its clock interval, before any lane steps in it."""

    def __init__(self, setup: StudySetup):
        self.setup, self.failures, self.lanes = setup, [], []
        for eps in setup.study.epsilons:
            try:
                self.lanes.append(_Lane(setup, eps))
            except AdiapackError as exc:
                self.failures.append((eps, exc))
        fine = min(setup.steps.values())   # the paths' step: 4 samples each
        envs, curvatures = _envelopes(setup.y_grid, [
            (pk.evaluator(), tr.curvature) for pk, tr in zip(
                setup.study.packets, setup.trajectories)],
            setup.study.lambda_coupling)
        clocks = {env: EnvelopeClock(env, c, fine.dt / 4.0)
                  for env, c in curvatures.items()}
        self.clocks = [clocks[env] for env in envs]
        self.bounds = [*range(0, 4 * fine.total, 4 * fine.per_clock), 4 * fine.total]

    def _each(self, steps, work):
        """work(lane) on every live lane of `steps`; a lane that fails leaves."""
        for lane in [lane for lane in self.lanes if lane.steps == steps]:
            try:
                work(lane)
            except AdiapackError as exc:
                self.lanes.remove(lane)
                self.failures.append((lane.epsilon, exc))

    def _read(self, b0, b1, k, n):
        """Each packet's (envelope spline, x, ξ, S) at k/n of the clock
        interval just jumped, path samples b0 to b1; a spline per clock."""
        y = self.setup.y_grid
        built = {clock: UniformCubicSpline(y.x_min, y.spacing, clock.at(k, n))
                 for clock in dict.fromkeys(self.clocks)}
        return [(built[clock], *tr.at(b0, b1, k, n))
                for clock, tr in zip(self.clocks, self.setup.trajectories)]

    def march(self, observer):
        """March to T with observer(self, lane) on every lane: at each
        observation every lane runs `check_lab_field` and then its observer
        (step, t, path sample, [φ_k(t) per packet]).  Returns (each finished
        lane's observer `result()`, every failed lane's (ε, error) in order)."""
        observers = {lane: observer(self, lane) for lane in self.lanes}
        split = any(lane.carried for lane in self.lanes)

        def phis(lane, reads):   # φ_k on the lane's grid
            return [_phi_values(lane.lab, *read, lane.epsilon) for read in reads]

        def observe_at(steps, step, b0, b1, k, n):   # at k/n, a path sample
            t, reads = step * steps.dt, self._read(b0, b1, k, n)

            def observe(lane):
                lane.tails.append(check_lab_field(lane.psi, t))
                observers[lane](step, t, b0 + (b1 - b0) * k // n, phis(lane, reads))
            self._each(steps, observe)

        rules = list(dict.fromkeys(lane.steps for lane in self.lanes))
        for steps in rules:
            observe_at(steps, 0, 0, 0, 0, 1)
        for j, (b0, b1) in enumerate(zip(self.bounds, self.bounds[1:])):
            if not self.lanes:
                break
            try:   # tick every clock through clock interval j
                for clock in dict.fromkeys(self.clocks):
                    clock.jump(b1)
            except AdiapackError as exc:
                self.failures += [(lane.epsilon, exc) for lane in self.lanes]
                self.lanes = []
                break
            for steps in rules:   # clock interval j, in each lane's steps
                first = j * steps.per_clock
                n = min(steps.per_clock, steps.total - first)
                for step in range(first + 1, first + n + 1):
                    if split:   # the one packet's u and path at the midpoint
                        reads = self._read(b0, b1, 2 * (step - first) - 1, 2 * n)
                        self._each(steps, lambda lane: lane.source_step(
                            phis(lane, reads)[0], reads[0][2]))
                    observed = step % steps.per_obs == 0
                    self._each(steps, lambda lane: lane.nls_step(
                        step, close=observed))
                    if observed:
                        observe_at(steps, step, b0, b1, step - first, n)
        return [observers[lane].result() for lane in self.lanes], self.failures


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
    at every observation, ψ at the study's `snapshot_times`, and the lane's
    `SingleRunResult` once the march is done."""

    def __init__(self, march: _Lockstep, lane: _Lane):
        study = march.setup.study
        self.march, self.lane, self.branch = march, lane, study.packets[0].branch
        self.traj, = march.setup.trajectories
        self.series = {name: [] for name in (
            "times", "masses", "w_sigma1", "theta_sigma1", "leakage", "taylor",
            "populations")}
        self.g_log = {key: [] for key in lane.carried}
        self.snapshot_steps = {int(round(ts / lane.steps.dt)): ts
                               for ts in study.snapshot_times}
        self.snapshots = {}

    def __call__(self, step, t, i, phis):
        lane, branch, (phi,), traj = self.lane, self.branch, phis, self.traj
        lab, data, eps, psi = lane.lab, lane.data, lane.epsilon, lane.psi
        corrections = lane.corrections()
        g = assemble_correction(corrections, data) if corrections else None
        w_rep, th_rep = _error_norms(psi, [(phi, lane.chis[0])], lab, eps, g)
        projs = project(data.projectors, psi)   # every Π_j ψ, once
        row = (t, l2_norm(lab, psi), w_rep.value, th_rep.value,
               l2_norm(lab, psi - projs[branch]),
               _taylor_remainder(lab, data.branches[branch], traj, i, phi),
               mode_populations(projs, data.grid))
        for values, value in zip(self.series.values(), row):
            values.append(value)
        for key, values in corrections.items():
            g_rep = sigma_norm(lab, values, eps, 1)
            # the (0, 0) component is the L² norm ‖g‖
            CORRECTION_NORM.check(g_rep.components[(0, 0)], where=f" at t = {t}")
            self.g_log[key].append(g_rep.value)
        if step in self.snapshot_steps:
            self.snapshots[self.snapshot_steps[step]] = psi.copy()

    def result(self) -> SingleRunResult:
        lane, traj, w = self.lane, self.traj, self.series["w_sigma1"]
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


def run_single_packet(study: Study) -> SingleRunResult:
    """One single-packet march with corrections, and its error time series,
    of the study's first packet at its one ε (several are a `ConfigError`),
    with ψ at its `snapshot_times`.

    Every step passes `nls.check_step_mass` (worst relative drift:
    `mass_drift`), every observation `nls.check_lab_field` (worst tail:
    `fourier_tail`) and `errors.CORRECTION_NORM`, or its error is raised.
    """
    if len(study.epsilons) != 1:
        raise ConfigError(f"run_single_packet runs one ε, not {len(study.epsilons)}")
    runs, failures = _Lockstep(_setup_of(study, 1)).march(_SingleObserver)
    if failures:
        raise failures[0][1]
    return runs[0]


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
                    fitted_order_residual=self.fitted_order.max_residual
                    if self.fitted_order.defined else None,
                    runs=[r.to_dict() for r in self.runs],
                    failures=[[eps, str(exc)] for eps, exc in self.failures])


def convergence_study(study: Study) -> ConvergenceReport:
    """Sweep the study's ε with its first packet, collect sup-in-t error
    norms, and fit the decay order.

    One `study_setup` and one lockstep serve every ε; runs and failures
    are listed in decreasing ε, and no run keeps a snapshot.  A sub-run
    that fails with an `AdiapackError` is listed in `report.failures`
    instead of killing the sweep, even when every sub-run fails (the report
    then has no ε); any other exception is a programming error and
    propagates.
    """
    runs, failures = _Lockstep(_setup_of(
        replace(study, snapshot_times=()), 1)).march(_SingleObserver)
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
    integrand ‖|φ₁|²φ₂‖ of the interaction integral; its `result()` is the
    lane's row of the `SuperpositionReport`."""

    def __init__(self, march: _Lockstep, lane: _Lane):
        self.march, self.lane = march, lane
        self.w, self.inter, self.times = [], [], []

    def __call__(self, step, t, i, phis):
        lane = self.lane
        w_rep, _ = _error_norms(lane.psi, zip(phis, lane.chis), lane.lab,
                                lane.epsilon)
        self.w.append(w_rep.value)
        self.inter.append(l2_norm(lane.lab, np.abs(phis[0]) ** 2 * phis[1]))
        self.times.append(t)

    def result(self) -> dict:
        lane, setup = self.lane, self.march.setup
        t1, t2 = setup.trajectories
        # |I^ε(T)|: the trapezoid rule of its indicator on the dense samples
        near = np.abs(t1.x - t2.x) <= lane.epsilon ** setup.study.gamma_exponent
        samples = np.count_nonzero(near) - 0.5 * np.count_nonzero(near[[0, -1]])
        return dict(
            sup_errors=float(max(self.w)), terminal_errors=float(self.w[-1]),
            crossing_measures=float(samples * (t1.times[1] - t1.times[0])),
            interaction_integrals=float(np.trapezoid(
                np.asarray(self.inter), np.asarray(self.times))),
            grid_n=lane.n, energy_drift=[t1.energy_drift, t2.energy_drift],
            fourier_tail=max(lane.tails), y_points=setup.y_grid.n,
            y_tau=setup.rule.y_tau)


def superposition_experiment(study: Study) -> SuperpositionReport:
    """Two-packet run of the study's first two packets: ψ₀ = φ₁χ¹ + φ₂χ²
    (plus r₀'s), error against φ₁χ¹ + φ₂χ².

    Reports Γ = inf |λ̃₁ - λ̃₂ - (E₁ - E₂)| (0 means the separation hypothesis
    fails — the run still executes as a documented negative control), the
    crossing-set measure |I^ε(T)| for the study's γ, and the interaction
    integral ∫‖|φ₁|²φ₂‖ dt.  The infimum runs over the lab domain
    [x_min, x_max], sampled by the probe decomposition; the shipped superpose
    configs have a constant objective there.  Fewer than two packets, or
    two that start alike, are a `ConfigError`.  The `study_setup` takes both
    packets (the bound 3ξ_max/ε + √3 η_τ/√ε covers the cubic term's
    2ξ_a - ξ_b products); every ε runs in one lockstep, without
    corrections (a two-packet lane carries none), with the guards of
    `run_single_packet`; the first failure is raised once every ε ran.
    """
    if len(study.packets) < 2:
        raise ConfigError("superpose needs two packets in the config")
    p1, p2 = study.packets[:2]
    if (p1.branch, p1.x0, p1.xi0) == (p2.branch, p2.x0, p2.xi0):
        raise ConfigError("the two packets must differ in branch or "
                          "phase-space point")
    setup = _setup_of(study, 2)
    epsilons = setup.study.epsilons

    probe, (tr1, tr2) = setup.probe, setup.trajectories
    objective = np.abs(probe.branches[p1.branch] - probe.branches[p2.branch]
                       - (tr1.energy0 - tr2.energy0))
    big_gamma = float(objective.min())
    m = max(4, probe.grid.n // 64)
    edge_ok = bool(objective[-1] >= objective[-m] - 1e-12
                   and objective[0] >= objective[m - 1] - 1e-12)

    results, failures = _Lockstep(setup).march(_SuperposeObserver)
    if failures:
        raise failures[0][1]
    rows = {name: [r[name] for r in results] for name in results[0]}
    return SuperpositionReport(
        epsilons=list(epsilons), gamma_exponent=study.gamma_exponent,
        big_gamma=big_gamma, big_gamma_edge_ok=edge_ok,
        gamma_zero_warning=bool(big_gamma < 1e-12),
        error_order=fit_order(epsilons, rows["sup_errors"]),
        crossing_order=fit_order(epsilons, rows["crossing_measures"]), **rows)
