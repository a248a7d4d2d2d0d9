"""Command-line driver.

    adiapack <command> --config <path> [--out <dir>]
    adiapack single|converge|superpose --config <path> [--out <dir>]
             [--epsilon-override <list>]

Only the commands that run at an ε take `--epsilon-override`.  Commands:
    decompose   spectral decomposition, gap reports
    single      one-ε pipeline with snapshots
    converge    ε-sweep of the single-packet error (order fit)
    superpose   two-packet superposition study
    identities  projector-identity residuals and growth scans

Exit codes: 0 success, 2 configuration error, 3 numerical-invariant failure,
4 runtime abort.  `converge` writes its outputs even when some ε sub-runs
fail, then exits with the code of the first failure.  Results are CSV + JSON
plus a gnuplot script; all text is UTF-8 with LF line endings, and floats use
shortest round-trip formatting so repeated runs diff byte-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import AdiapackError, ConfigError
from .experiments import (convergence_study, run_single_packet,
                          superposition_experiment)
from .grids import make_grid
from .potentials import (decompose, gap_report, growth_scan,
                         projector_identity_residuals)

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header, rows, footer=None):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    if footer:
        lines.append(",".join(_fmt(v) for v in footer))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               allow_nan=False) + "\n",
                    encoding="utf-8", newline="\n")


def write_plot_script(path: Path, title, xlabel, ylabel, plots, logscale=True):
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key left top",
    ]
    if logscale:
        lines.append("set logscale xy")
    lines.append("plot " + ", \\\n     ".join(plots))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _overridden(study, override):
    """The study with the `--epsilon-override` list, if given, as its ε."""
    if not override:
        return study
    try:
        return replace(study, epsilons=[float(tok) for tok in override.split(",")
                                        if tok])
    except ValueError as exc:      # a token that is not a number
        raise ConfigError(f"--epsilon-override: {exc}") from exc
    except ConfigError as exc:     # only the ε rule reads the new list
        raise ConfigError([e.replace("epsilons:", "--epsilon-override:", 1)
                           for e in exc.errors]) from exc


def cmd_decompose(study, out: Path, args) -> int:
    n = study.options.grid_n or 4096
    grid = make_grid(study.x_min, study.x_max, n)
    data = decompose(study.potential, grid)
    header = ["x"] + [f"lambda_{j}" for j in range(data.n_branches)]
    rows = [[x] + [data.branches[j][i] for j in range(data.n_branches)]
            for i, x in enumerate(grid.points)]
    write_csv(out / "branches.csv", header, rows)
    gaps = {}
    for j in range(data.n_branches):
        for k in range(j + 1, data.n_branches):
            rep = gap_report(data, j, k)
            gaps[f"{j}-{k}"] = {"min_gap": rep.min_gap, "fitted_c0": rep.fitted_c0,
                                "fitted_n0": rep.fitted_n0,
                                "violated": rep.violated}
    write_json(out / "report.json", {"command": "decompose", "n": n,
                                     "multiplicities": list(data.multiplicities),
                                     "gaps": gaps})
    write_plot_script(out / "plot.gp", "eigenvalue branches", "x", "lambda",
                      [f"'branches.csv' using 1:{j + 2} with lines "
                       f"title 'branch {j}'" for j in range(data.n_branches)],
                      logscale=False)
    return 0


def cmd_identities(study, out: Path, args) -> int:
    spec = study.potential
    margin = 0.15 * (study.x_max - study.x_min)
    xs = np.linspace(study.x_min + margin, study.x_max - margin, 9)
    rows = []
    worst = 0.0
    for x in xs:
        for h in (1e-2, 5e-3):
            res = projector_identity_residuals(spec, float(x), h)
            rows.append([res.x, res.h, res.sandwich, res.leibniz,
                         res.offdiag_expansion, res.gap_right, res.gap_left])
            worst = max(worst, res.max)
    write_csv(out / "identities.csv",
              ["x", "h", "sandwich", "leibniz", "offdiag_expansion",
               "gap_right", "gap_left"], rows)

    scan_rows = []
    scan_max = {}
    if spec.n_levels > 1:
        scan_xs = np.linspace(study.x_min + margin, study.x_max - margin, 17)
        n0 = spec.gap_constants[1] if spec.gap_constants else None
        if n0 is None:
            data = decompose(spec, make_grid(study.x_min, study.x_max, 2048))
            n0 = max(0.0, gap_report(data, 0, 1).fitted_n0)
        for beta in (0, 1, 2):
            scan = growth_scan(spec, 0, 1, beta, scan_xs, n0=n0)
            for x, gr, pr in zip(scan.x_samples, scan.gamma_ratios,
                                 scan.projector_ratios):
                scan_rows.append([x, beta, gr, pr])
            scan_max[str(beta)] = {"gamma": scan.max_gamma_ratio,
                                   "projector": scan.max_projector_ratio}
    write_csv(out / "growth.csv", ["x", "beta", "gamma_ratio", "projector_ratio"],
              scan_rows)
    write_json(out / "report.json", {"command": "identities",
                                     "max_identity_residual": worst,
                                     "growth_ratio_max": scan_max})
    write_plot_script(out / "plot.gp", "identity residuals", "x", "residual",
                      ["'identities.csv' using 1:3 with points title 'sandwich'",
                       "'identities.csv' using 1:4 with points title 'leibniz'"])
    return 0


def cmd_single(study, out: Path, args) -> int:
    # the one override value, or the config's first ε
    if args.epsilon_override:
        study = _overridden(study, args.epsilon_override)
        if len(study.epsilons) > 1:
            raise ConfigError("--epsilon-override: single runs one ε")
    run = run_single_packet(replace(study, epsilons=study.epsilons[:1]))
    rows = [[t, m, w, th, lk, ty] for t, m, w, th, lk, ty in
            zip(run.times, run.masses, run.w_sigma1, run.theta_sigma1,
                run.leakage, run.taylor)]
    write_csv(out / "single.csv",
              ["t", "mass", "sigma1_w", "sigma1_theta", "leakage", "taylor"],
              rows)
    grid = make_grid(study.x_min, study.x_max, run.grid_n)
    for t, values in sorted(run.snapshots.items()):
        header = ["x"]
        cols = [grid.points]
        for comp in range(values.shape[1]):
            header += [f"re_{comp}", f"im_{comp}"]
            cols += [values[:, comp].real, values[:, comp].imag]
        rows = list(zip(*cols))
        write_csv(out / f"snapshot_t{_fmt(float(t))}.csv", header, rows)
    write_json(out / "report.json", {"command": "single", **run.to_dict()})
    write_plot_script(out / "plot.gp", "error norms", "t", "scaled norm",
                      ["'single.csv' using 1:3 with lines title 'w'",
                       "'single.csv' using 1:4 with lines title 'theta'",
                       "'single.csv' using 1:5 with lines title 'leakage'"],
                      logscale=False)
    return 0


def cmd_converge(study, out: Path, args) -> int:
    report = convergence_study(_overridden(study, args.epsilon_override))
    rows = [[e, s, t, l] for e, s, t, l in
            zip(report.epsilons, report.sup_errors, report.terminal_errors,
                report.leakages)]
    write_csv(out / "convergence.csv",
              ["epsilon", "sup_sigma1_w", "terminal_sigma1_w", "leakage"],
              rows, footer=["fitted_order", report.fitted_order.order])
    write_json(out / "report.json", {"command": "converge", **report.to_dict()})
    write_plot_script(out / "plot.gp", "error vs epsilon", "epsilon",
                      "sup sigma1 norm",
                      ["'convergence.csv' using 1:2 with linespoints title 'w'",
                       "'convergence.csv' using 1:4 with linespoints "
                       "title 'leakage'"])
    if report.failures:
        print(f"warning: {len(report.failures)} sub-runs failed: "
              f"{[[eps, str(exc)] for eps, exc in report.failures]}",
              file=sys.stderr)
        return report.failures[0][1].exit_code
    return 0


def cmd_superpose(study, out: Path, args) -> int:
    report = superposition_experiment(_overridden(study, args.epsilon_override))
    rows = [[e, s, t, c, i] for e, s, t, c, i in
            zip(report.epsilons, report.sup_errors, report.terminal_errors,
                report.crossing_measures, report.interaction_integrals)]
    write_csv(out / "superpose.csv",
              ["epsilon", "sup_sigma1_w", "terminal_sigma1_w",
               "crossing_measure", "interaction_integral"],
              rows, footer=["big_gamma", report.big_gamma])
    write_json(out / "report.json", {"command": "superpose", **report.to_dict()})
    write_plot_script(out / "plot.gp", "superposition error vs epsilon",
                      "epsilon", "sup sigma1 norm",
                      ["'superpose.csv' using 1:2 with linespoints title 'w'",
                       "'superpose.csv' using 1:4 with linespoints "
                       "title 'crossing measure'"])
    if report.gamma_zero_warning:
        print("warning: Gamma = 0 — the separation hypothesis fails and the "
              "error is not expected to decrease", file=sys.stderr)
    return 0


_COMMANDS = {
    "decompose": cmd_decompose,
    "single": cmd_single,
    "converge": cmd_converge,
    "superpose": cmd_superpose,
    "identities": cmd_identities,
}
_RUNS_AT_EPSILON = ("single", "converge", "superpose")   # --epsilon-override


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adiapack",
        description="semiclassical wave-packet experiments for vector NLS")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON experiment configuration")
        p.add_argument("--out", default=None, help="output directory")
        if name in _RUNS_AT_EPSILON:
            p.add_argument("--epsilon-override", default=None,
                           help="comma-separated ε list replacing the config's")
    args = parser.parse_args(argv)

    out = None if args.out is None else Path(args.out)
    try:
        study = load_config(args.config)
        out = Path(args.out or study.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:   # a file in the way, or under a file
            raise ConfigError(f"cannot use {out} as the output directory: "
                              f"{exc}") from exc
        return _COMMANDS[args.command](study, out, args)
    except AdiapackError as exc:   # each class carries its own report
        for line in exc.messages:
            print(f"{exc.label}: {line}", file=sys.stderr)
        if out is not None:
            with suppress(OSError):   # an unusable `out` gets no record
                out.mkdir(parents=True, exist_ok=True)
                write_json(out / "failure.json",
                           {"failure": exc.kind, "messages": exc.messages})
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
