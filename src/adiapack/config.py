"""JSON experiment configurations.

A config file carries the potential (expression strings for the diagonal and
symmetric parts), the packet(s), the ε list, the coupling constant, horizon,
the run options (`experiments.RunOptions`) and output options.
`load_config` reads the JSON shapes and builds the one `experiments.Study`
they describe, which checks the study's rules.  Every violation is collected
and reported at once: a key that no run reads (`unknown field: grid.nn`),
a value of the wrong JSON type, an unknown profile type or parameter, and
every rule of the `Study` on the fields that did parse.  The lab grid sizes
belong to `experiments.study_setup`.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .errors import ConfigError, finite_number
from .experiments import PacketSpec, RunOptions, Study, _study_problems, \
    make_profile
from .expressions import ParseError, parse_expr
from .potentials import MatrixPotentialSpec

__all__ = ["load_config"]


_SHAPES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}

# the keys read at each JSON object, one table each; any other is refused
_STUDY_KEYS = {"epsilons": "epsilons", "T": "T", "lambda": "lambda_coupling",
               "gamma": "gamma_exponent"}
_OPTION_KEYS = [f.name for f in fields(RunOptions) if f.name != "grid_n"]
_TOP_KEYS = {"potential", "packets", "grid", "seed", "snapshot_times",
             "out_dir", *_STUDY_KEYS, *_OPTION_KEYS}
_GRID_KEYS = {"x_min", "x_max", "n"}           # `n` is the option `grid_n`
_POTENTIAL_KEYS = {"diag", "sym", "multiplicities", "gap_constants"}
_PACKET_KEYS = {f.name for f in fields(PacketSpec)}


def _unknown(d, known, prefix, errors):
    errors += [f"unknown field: {prefix}{key}" for key in d if key not in known]


def _shaped(raw, key, shape, errors, default, label=None):
    """raw[key] if of JSON type `shape` (a bool is no integer), else `default`
    and a violation unless absent."""
    value = raw.get(key, default)
    if key in raw and type(value) is not shape:
        errors.append(f"{label or key} must be {_SHAPES[shape]}")
        return default
    return value


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
    _unknown(d, _PACKET_KEYS, f"{prefix}.", errors)
    profile = _profile_from_dict(d.get("profile", {"type": "gaussian"}), errors,
                                 f"{prefix}.profile", seed)
    r0_profile = d.get("r0_profile")
    if r0_profile is not None:
        r0_profile = _profile_from_dict(r0_profile, errors,
                                        f"{prefix}.r0_profile", seed)
    return PacketSpec(profile=profile, x0=d.get("x0"), xi0=d.get("xi0"),
                      branch=_shaped(d, "branch", int, errors, 0,
                                     f"{prefix}.branch"),
                      kappa=d.get("kappa"), r0_profile=r0_profile)


def _potential_from_dict(d, errors):
    if d is None:
        return None
    _unknown(d, _POTENTIAL_KEYS, "potential.", errors)
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
                                and all(finite_number(g) for g in gap)):
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


def load_config(path) -> Study:
    """Read the JSON and build its `Study`.  Raises ConfigError listing every
    problem: the JSON shapes' and, on the fields that did parse, the
    `Study`'s rules."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:   # no such file, not UTF-8 or not JSON
        raise ConfigError([f"cannot read the config as JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["the config must be a JSON object"])

    errors = [f"missing required field: {key}"
              for key in ("potential", "epsilons", "packets", "T")
              if key not in raw]
    _unknown(raw, _TOP_KEYS, "", errors)
    study = {name: raw[key] for key, name in _STUDY_KEYS.items() if key in raw}

    seed = _shaped(raw, "seed", int, errors, 0)
    spec = _potential_from_dict(_shaped(raw, "potential", dict, errors, None),
                                errors)
    if spec is not None:
        study["potential"] = spec

    packets = []
    for i, pd in enumerate(_shaped(raw, "packets", list, errors, [])):
        if not isinstance(pd, dict):
            errors.append(f"packets[{i}] must be an object")
            continue
        packets.append(_packet_from_dict(pd, errors, f"packets[{i}]", seed))
    if "packets" in raw:
        study["packets"] = packets

    grid = _shaped(raw, "grid", dict, errors, {})
    _unknown(grid, _GRID_KEYS, "grid.", errors)
    study.update((key, grid[key]) for key in ("x_min", "x_max") if key in grid)
    errors += [f"missing required field: grid.{key}"
               for key in ("x_min", "x_max") if key not in grid]
    settings = {key: raw[key] for key in _OPTION_KEYS if key in raw}
    settings["grid_n"] = grid.get("n")
    try:
        study["options"] = RunOptions(**settings)
    except ConfigError as exc:
        errors += exc.errors
    for key, shape in (("snapshot_times", list), ("out_dir", str)):
        if (value := _shaped(raw, key, shape, errors, None)) is not None:
            study[key] = value

    if errors:
        raise ConfigError(errors + _study_problems(study))
    return Study(**study)
