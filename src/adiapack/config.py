"""JSON experiment configurations.

A config file carries the potential (expression strings for the diagonal and
symmetric parts), the packet(s), the ε list, the coupling constant, horizon,
the run options (`experiments.RunOptions`) and output options.
`load_config` only parses and validates, exhaustively: every violation is
collected and reported at once, a value of the wrong JSON type, an unknown
profile type or parameter and a packet on a missing or non-simple branch
included.  The lab grid sizes belong to `experiments.study_setup`.
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

__all__ = ["ExperimentConfig", "epsilon_problem", "load_config"]


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


_SHAPES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _shaped(raw, key, shape, errors, default, label=None):
    """raw[key] if of JSON type `shape` (a bool is no integer), else `default`
    and a violation unless absent."""
    value = raw.get(key, default)
    if key in raw and type(value) is not shape:
        errors.append(f"{label or key} must be {_SHAPES[shape]}")
        return default
    return value


def _multiple(value: float, step: float) -> bool:   # to 1e-9, no overflow
    ratio = value / step
    return bool(np.isfinite(ratio)) and abs(round(ratio) * step - value) <= 1e-9


def epsilon_problem(epsilons) -> str | None:
    """What breaks the one ε rule of the config and `--epsilon-override`, a
    non-empty list of numbers in (0, 1], or None."""
    if not isinstance(epsilons, list) or not epsilons:
        return "need a list of at least one value"
    if not all(_finite(e) and 0.0 < e <= 1.0 for e in epsilons):
        return "every value must lie in (0, 1]"
    return None


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
                      branch=_shaped(d, "branch", int, errors, 0,
                                     f"{prefix}.branch"),
                      kappa=kappa, r0_profile=r0_profile)


def _potential_from_dict(d, errors):
    if d is None:
        return None
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
    mult, gap = d.get("multiplicities"), d.get("gap_constants")
    if mult is not None and not (isinstance(mult, list) and all(
            type(m) is int and m > 0 for m in mult)):
        errors.append("potential.multiplicities must be positive integers")
        ok = False
    if gap is not None and not (isinstance(gap, list) and len(gap) == 2
                                and all(_finite(g) for g in gap)):
        errors.append("potential.gap_constants must be two numbers [c0, n0]")
        ok = False
    if not ok:
        return None
    try:
        return MatrixPotentialSpec.from_strings(
            parsed_diag, parsed_sym,
            multiplicities=mult, gap_constants=gap)
    except ValueError as exc:
        errors.append(f"potential: {exc}")
        return None


def load_config(path) -> ExperimentConfig:
    """Parse and validate.  Raises ConfigError listing every problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:   # no such file, not UTF-8 or not JSON
        raise ConfigError([f"cannot read the config as JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["the config must be a JSON object"])

    errors = []
    for key in ("potential", "epsilons", "packets"):
        if key not in raw:
            errors.append(f"missing required field: {key}")

    seed = _shaped(raw, "seed", int, errors, 0)
    spec = _potential_from_dict(_shaped(raw, "potential", dict, errors, None),
                                errors)

    packets = []
    for i, pd in enumerate(_shaped(raw, "packets", list, errors, [])):
        if not isinstance(pd, dict):
            errors.append(f"packets[{i}] must be an object")
            continue
        packets.append(_packet_from_dict(pd, errors, f"packets[{i}]", seed))
    if "packets" in raw and not packets:
        errors.append("packets: need at least one packet")
    if spec is not None:
        for i, pk in enumerate(packets):
            problem = _branch_scope_error(spec, pk.branch)
            if problem:
                errors.append(f"packets[{i}]: {problem}")

    epsilons = raw.get("epsilons", [])
    if "epsilons" in raw and (problem := epsilon_problem(epsilons)):
        errors.append(f"epsilons: {problem}")

    T = _number(raw, "T", "T", errors)
    if T <= 0.0:
        errors.append("T must be positive")
    grid = _shaped(raw, "grid", dict, errors, {})
    settings = {f.name: raw[f.name] for f in fields(RunOptions)
                if f.name in raw}
    settings["grid_n"] = grid.get("n")
    try:
        options = RunOptions(**settings)
    except ConfigError as exc:
        errors += exc.errors
    every = settings.get("observe_every", RunOptions.observe_every)
    cadence = T > 0 and _finite(every) and every > 0  # else already listed
    if cadence and not _multiple(T, every):
        errors.append("T must be an integer multiple of observe_every")
    snapshot_times = _shaped(raw, "snapshot_times", list, errors, [0.0, T])
    for i, ts in enumerate(snapshot_times if "snapshot_times" in raw else []):
        if cadence and not (_finite(ts) and 0.0 <= ts <= T
                            and _multiple(ts, every)):
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
    out_dir = _shaped(raw, "out_dir", str, errors, "results")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        potential=spec, packets=packets, epsilons=[float(e) for e in epsilons],
        lambda_coupling=lambda_coupling, T=T, x_min=x_min, x_max=x_max,
        options=options, gamma_exponent=float(gamma_exponent),
        out_dir=out_dir,
        snapshot_times=tuple(snapshot_times))
