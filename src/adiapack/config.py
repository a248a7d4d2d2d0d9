"""JSON experiment configurations.

A config file carries the potential (expression strings for the diagonal and
symmetric parts), the packet(s), the ε list, the coupling constant, horizon,
the run options (`experiments.RunOptions`) and output options.
`load_config` only parses and validates, exhaustively: every violation is
collected and reported at once, a value that is not a finite number, an
unknown profile type or parameter and a packet on a missing or non-simple
branch included.  The lab grid sizes belong to `experiments.study_setup`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .experiments import PacketSpec, RunOptions, _branch_scope_error, \
    _finite, make_profile
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
    options: RunOptions
    gamma_exponent: float
    out_dir: str
    snapshot_times: tuple


def _number(raw, key, label, errors, default=None):
    """raw[key] (`default` if absent) as a float; a violation, read as NaN
    (which fails every later comparison), if missing or not finite."""
    value = raw.get(key, default)
    if _finite(value):
        return float(value)
    errors.append(f"missing required field: {label}" if value is None
                  else f"{label} must be a finite number")
    return float("nan")


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
    if kappa is not None and not (_finite(kappa) and kappa > 0.25):
        errors.append(f"{prefix}: kappa must exceed 1/4")
    r0_profile = d.get("r0_profile")
    if r0_profile is not None:
        r0_profile = _profile_from_dict(r0_profile, errors,
                                        f"{prefix}.r0_profile", seed)
    return PacketSpec(profile=profile,
                      x0=_number(d, "x0", f"{prefix}.x0", errors),
                      xi0=_number(d, "xi0", f"{prefix}.xi0", errors),
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
    for key in ("potential", "epsilons", "packets"):
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

    epsilons = raw.get("epsilons", [])
    if "epsilons" in raw:
        if not epsilons:
            errors.append("epsilons: need at least one value")
        if any(not (_finite(e) and 0.0 < e <= 1.0) for e in epsilons):
            errors.append("epsilons: every value must lie in (0, 1]")

    T = _number(raw, "T", "T", errors)
    if T <= 0.0:
        errors.append("T must be positive")
    grid = raw.get("grid", {})
    settings = {f.name: raw[f.name] for f in fields(RunOptions)
                if f.name in raw}
    settings["grid_n"] = grid.get("n")
    try:
        options = RunOptions(**settings)
    except ConfigError as exc:
        errors += exc.errors
    every = settings.get("observe_every", RunOptions.observe_every)
    cadence = T > 0 and _finite(every) and every > 0  # else already listed
    if cadence and abs(round(T / every) * every - T) > 1e-9:
        errors.append("T must be an integer multiple of observe_every")
    snapshot_times = raw.get("snapshot_times", [0.0, T])
    if not isinstance(snapshot_times, list):
        errors.append("snapshot_times must be a list")
        snapshot_times = []
    for i, ts in enumerate(snapshot_times if "snapshot_times" in raw else []):
        if cadence and not (_finite(ts) and 0.0 <= ts <= T and abs(
                round(ts / every) * every - ts) <= 1e-9):
            errors.append(f"snapshot_times[{i}]: {ts!r} is not a multiple of "
                          f"observe_every in [0, T]")

    x_min = _number(grid, "x_min", "grid.x_min", errors)
    x_max = _number(grid, "x_max", "grid.x_max", errors)
    if x_min >= x_max:
        errors.append("grid: x_min must be below x_max")

    lambda_coupling = _number(raw, "lambda", "lambda", errors, 0.0)
    gamma_exponent = raw.get("gamma", 0.3)
    if not (_finite(gamma_exponent) and 0.0 < gamma_exponent < 0.5):
        errors.append("gamma must lie in (0, 1/2)")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        potential=spec, packets=packets, epsilons=[float(e) for e in epsilons],
        lambda_coupling=lambda_coupling, T=T, x_min=x_min, x_max=x_max,
        options=options, gamma_exponent=float(gamma_exponent),
        out_dir=str(raw.get("out_dir", "results")),
        snapshot_times=tuple(snapshot_times))
