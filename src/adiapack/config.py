"""JSON experiment configurations.

A config file carries the potential (expression strings for the diagonal and
symmetric parts), the packet(s), the ε list, the coupling constant, horizon,
step and grid policies, and output options.  Validation is exhaustive: every
violation is collected and reported at once, and grid sizes are derived per ε
from the adequacy rule (spacing ε / (8(|ξ|+1)), at least 16π ≈ 50 points per
wavelength at the fastest momentum seen on the classical trajectory) before
any run starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .classical import integrate_trajectory
from .errors import ConfigError
from .experiments import PacketSpec, _branch_curve_for
from .expressions import ParseError, parse_expr
from .grids import make_grid
from .nls import adequate_spacing, required_points
from .potentials import MatrixPotentialSpec, decompose

__all__ = ["ExperimentConfig", "load_config"]

_PROFILE_TYPES = {"gaussian", "hermite", "noise", "zero"}


@dataclass(eq=False)
class ExperimentConfig:
    potential: MatrixPotentialSpec
    packets: list
    epsilons: list
    lambda_coupling: float
    T: float
    x_min: float
    x_max: float
    observe_every: float = 0.01
    dt_max: float = 1e-3
    dt_over_epsilon: float = 0.25
    y_half_width: float = 40.0
    y_points: int = 2048
    n_override: int | None = None
    gamma_exponent: float = 0.3
    beta: float = 0.75
    out_dir: str = "results"
    seed: int = 0
    derived_grid_sizes: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _packet_from_dict(d, errors, prefix, seed):
    profile = d.get("profile", {"type": "gaussian"})
    if isinstance(profile, dict):
        kind = profile.get("type", "gaussian")
        if kind not in _PROFILE_TYPES:
            errors.append(f"{prefix}: unknown profile type '{kind}'")
        if kind == "noise" and "seed" not in profile:
            profile = dict(profile, seed=seed)
    kappa = d.get("kappa")
    if kappa is not None and not kappa > 0.25:
        errors.append(f"{prefix}: kappa must exceed 1/4")
    r0_profile = d.get("r0_profile")
    if isinstance(r0_profile, dict) and r0_profile.get("type") == "noise" \
            and "seed" not in r0_profile:
        r0_profile = dict(r0_profile, seed=seed)
    for key in ("x0", "xi0"):
        if key not in d:
            errors.append(f"{prefix}: missing required field: {key}")
    return PacketSpec(profile=profile, x0=float(d.get("x0", 0.0)),
                      xi0=float(d.get("xi0", 0.0)),
                      branch=int(d.get("branch", 0)), kappa=kappa,
                      r0_profile=r0_profile)


def _potential_from_dict(d, errors):
    diag = d.get("diag")
    sym = d.get("sym")
    if not isinstance(diag, list) or not diag:
        errors.append("potential: missing or empty 'diag' entry list")
        return None
    n = len(diag)
    if not isinstance(sym, list) or len(sym) != n * (n + 1) // 2:
        errors.append(
            f"potential: 'sym' must list the upper triangle "
            f"({n * (n + 1) // 2} entries for {n} levels)")
        return None
    parsed_diag, parsed_sym = [], []
    ok = True
    for label, entries, target in (("diag", diag, parsed_diag),
                                   ("sym", sym, parsed_sym)):
        for i, text in enumerate(entries):
            try:
                target.append(parse_expr(text))
            except ParseError as exc:
                errors.append(f"potential.{label}[{i}]: {exc}")
                ok = False
    if not ok:
        return None
    mult = d.get("multiplicities")
    gap = d.get("gap_constants")
    try:
        return MatrixPotentialSpec.from_strings(
            parsed_diag, parsed_sym,
            multiplicities=mult, gap_constants=gap)
    except ValueError as exc:
        errors.append(f"potential: {exc}")
        return None


def load_config(path) -> ExperimentConfig:
    """Parse, validate, and derive.  Raises ConfigError listing every problem."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"])

    errors = []
    for key in ("potential", "epsilons", "T", "packets", "grid"):
        if key not in raw:
            errors.append(f"missing required field: {key}")

    seed = int(raw.get("seed", 0))
    spec = None
    if "potential" in raw:
        spec = _potential_from_dict(raw["potential"], errors)

    packets = []
    for i, pd in enumerate(raw.get("packets", [])):
        packets.append(_packet_from_dict(pd, errors, f"packets[{i}]", seed))
    if "packets" in raw and not packets:
        errors.append("packets: need at least one packet")
    if spec is not None:
        for i, pk in enumerate(packets):
            if not 0 <= pk.branch < spec.n_levels:
                errors.append(f"packets[{i}]: branch {pk.branch} out of range")

    epsilons = [float(e) for e in raw.get("epsilons", [])]
    if "epsilons" in raw:
        if not epsilons:
            errors.append("epsilons: need at least one value")
        if any(e <= 0.0 or e > 1.0 for e in epsilons):
            errors.append("epsilons: every value must lie in (0, 1]")

    T = float(raw.get("T", 0.0))
    if "T" in raw and T <= 0.0:
        errors.append("T must be positive")
    observe_every = float(raw.get("observe_every", 0.01))
    if observe_every <= 0.0:
        errors.append("observe_every must be positive")
    elif T > 0 and abs(round(T / observe_every) * observe_every - T) > 1e-9:
        errors.append("T must be an integer multiple of observe_every")

    grid = raw.get("grid", {})
    x_min = float(grid.get("x_min", -10.0))
    x_max = float(grid.get("x_max", 10.0))
    if "grid" in raw:
        for key in ("x_min", "x_max"):
            if key not in grid:
                errors.append(f"grid: missing required field: {key}")
        if x_min >= x_max:
            errors.append("grid: x_min must be below x_max")
    n_override = grid.get("n")

    gamma_exponent = float(raw.get("gamma", 0.3))
    if not 0.0 < gamma_exponent < 0.5:
        errors.append("gamma must lie in (0, 1/2)")

    cfg = ExperimentConfig(
        potential=spec, packets=packets, epsilons=epsilons,
        lambda_coupling=float(raw.get("lambda", 0.0)), T=T,
        x_min=x_min, x_max=x_max, observe_every=observe_every,
        dt_max=float(raw.get("dt_max", 1e-3)),
        dt_over_epsilon=float(raw.get("dt_over_epsilon", 0.25)),
        y_half_width=float(raw.get("y_half_width", 40.0)),
        y_points=int(raw.get("y_points", 2048)),
        n_override=None if n_override is None else int(n_override),
        gamma_exponent=gamma_exponent, beta=float(raw.get("beta", 0.75)),
        out_dir=str(raw.get("out_dir", "results")), seed=seed, raw=raw,
    )

    if not errors and spec is not None and packets and epsilons and T > 0:
        try:
            cfg.derived_grid_sizes = _derive_grid_sizes(cfg)
        except ConfigError as exc:
            errors.extend(exc.errors)
        except Exception as exc:
            errors.append(f"grid derivation failed: {exc}")

    if errors:
        raise ConfigError(errors)
    return cfg


def _derive_grid_sizes(cfg: ExperimentConfig) -> dict:
    """Per-ε grid sizes from the adequacy rule, via a coarse momentum probe.

    The probe decomposition also checks the run-time scope: every packet's
    branch must be simple, since runs polarize along the static eigenframe.
    """
    probe = decompose(cfg.potential, make_grid(cfg.x_min, cfg.x_max, 4096))
    scope = []
    for i, pk in enumerate(cfg.packets):
        if pk.branch >= probe.n_branches:
            scope.append(f"packets[{i}]: branch {pk.branch} out of range "
                         f"({probe.n_branches} branches)")
        elif probe.multiplicities[pk.branch] != 1:
            scope.append(f"packets[{i}]: branch {pk.branch} has multiplicity "
                         f"{probe.multiplicities[pk.branch]}: out of scope, the "
                         f"transported branch must be simple")
    if scope:
        raise ConfigError(scope)
    xi_max = 0.0
    for pk in cfg.packets:
        curve = _branch_curve_for(cfg.potential, probe, pk.branch)
        traj = integrate_trajectory(curve, pk.x0, pk.xi0, cfg.T, 1e-3)
        xi_max = max(xi_max, float(np.max(np.abs(traj.xi))))
    sizes = {}
    length = cfg.x_max - cfg.x_min
    for eps in cfg.epsilons:
        n = required_points(length, eps, xi_max)
        if cfg.n_override is not None:
            if length / cfg.n_override > adequate_spacing(eps, xi_max):
                raise ConfigError([
                    f"grid.n = {cfg.n_override} violates the adequacy rule at "
                    f"epsilon = {eps} (need at least {n} points)"])
            n = cfg.n_override
        sizes[eps] = n
    return sizes
