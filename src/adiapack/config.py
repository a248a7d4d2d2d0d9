"""JSON experiment configurations.

A config file carries the potential (expression strings for the diagonal and
symmetric parts), the packet(s), the ε list, the coupling constant, horizon,
step and grid policies, and output options.  `load_config` only parses and
validates, exhaustively: every violation is collected and reported at once,
an unknown profile type or parameter and a packet on a missing or
non-simple branch included.  The lab grid sizes, and the `grid.n` check,
belong to the run commands' `experiments.study_setup`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .experiments import PacketSpec, _branch_scope_error, make_profile
from .expressions import ParseError, parse_expr
from .potentials import MatrixPotentialSpec

__all__ = ["ExperimentConfig", "load_config"]


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
    snapshot_times: tuple = ()


def _profile_from_dict(profile, errors, label, seed):
    """The profile dict if `make_profile` builds and evaluates it, else None."""
    if not isinstance(profile, dict):
        errors.append(f"{label}: must be an object with a 'type'")
        return None
    if profile.get("type", "gaussian") == "noise" and "seed" not in profile:
        profile = dict(profile, seed=seed)
    try:
        make_profile(profile)(np.linspace(-1.0, 1.0, 3))
    except (ValueError, TypeError, ArithmeticError) as exc:
        errors.append(f"{label}: {exc}")
        return None
    return profile


def _packet_from_dict(d, errors, prefix, seed):
    profile = _profile_from_dict(d.get("profile", {"type": "gaussian"}), errors,
                                 f"{prefix}.profile", seed)
    kappa = d.get("kappa")
    if kappa is not None and not kappa > 0.25:
        errors.append(f"{prefix}: kappa must exceed 1/4")
    r0_profile = d.get("r0_profile")
    if r0_profile is not None:
        r0_profile = _profile_from_dict(r0_profile, errors,
                                        f"{prefix}.r0_profile", seed)
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
    """Parse and validate.  Raises ConfigError listing every problem."""
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
            problem = _branch_scope_error(spec, pk.branch)
            if problem:
                errors.append(f"packets[{i}]: {problem}")

    epsilons = [float(e) for e in raw.get("epsilons", [])]
    if "epsilons" in raw:
        if not epsilons:
            errors.append("epsilons: need at least one value")
        if any(not 0.0 < e <= 1.0 for e in epsilons):
            errors.append("epsilons: every value must lie in (0, 1]")

    T = float(raw.get("T", 0.0))
    if "T" in raw and T <= 0.0:
        errors.append("T must be positive")
    observe_every = float(raw.get("observe_every", 0.01))
    if observe_every <= 0.0:
        errors.append("observe_every must be positive")
    elif T > 0 and abs(round(T / observe_every) * observe_every - T) > 1e-9:
        errors.append("T must be an integer multiple of observe_every")
    snapshot_times = raw.get("snapshot_times", [0.0, T])
    if not isinstance(snapshot_times, list):
        errors.append("snapshot_times must be a list")
        snapshot_times = []
    for i, ts in enumerate(snapshot_times if "snapshot_times" in raw else []):
        if not (isinstance(ts, (int, float)) and 0.0 <= ts <= T and observe_every > 0
                and abs(round(ts / observe_every) * observe_every - ts) <= 1e-9):
            errors.append(f"snapshot_times[{i}]: {ts!r} is not a multiple of "
                          f"observe_every in [0, T]")

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
    y_half_width = float(raw.get("y_half_width", 40.0))
    y_points = int(raw.get("y_points", 2048))
    if y_half_width <= 0.0:
        errors.append("y_half_width must be positive")
    for label, size in (("grid.n", n_override), ("y_points", y_points)):
        if size is not None and (int(size) < 8 or int(size) & (int(size) - 1)):
            errors.append(f"{label} must be a power of two, at least 8")

    gamma_exponent = float(raw.get("gamma", 0.3))
    if not 0.0 < gamma_exponent < 0.5:
        errors.append("gamma must lie in (0, 1/2)")

    cfg = ExperimentConfig(
        potential=spec, packets=packets, epsilons=epsilons,
        lambda_coupling=float(raw.get("lambda", 0.0)), T=T,
        x_min=x_min, x_max=x_max, observe_every=observe_every,
        dt_max=float(raw.get("dt_max", 1e-3)),
        dt_over_epsilon=float(raw.get("dt_over_epsilon", 0.25)),
        y_half_width=y_half_width, y_points=y_points,
        n_override=None if n_override is None else int(n_override),
        gamma_exponent=gamma_exponent, beta=float(raw.get("beta", 0.75)),
        out_dir=str(raw.get("out_dir", "results")), seed=seed,
        snapshot_times=tuple(snapshot_times),
    )
    if errors:
        raise ConfigError(errors)
    return cfg

