"""Command-line driver.

    adiapack <command> --config <path> [--out <dir>] [--epsilon-override <list>]

Commands:
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
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import ConfigError, InvariantViolation, SolverAbort
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
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
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


def _epsilons(cfg, override):
    if not override:
        return list(cfg.epsilons)
    try:
        epsilons = [float(tok) for tok in override.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"--epsilon-override: {exc}") from exc
    if not epsilons:
        raise ConfigError("--epsilon-override: need at least one value")
    bad = [e for e in epsilons if not 0.0 < e < float("inf")]
    if bad:
        raise ConfigError(f"--epsilon-override: every value must be finite "
                          f"and positive, got {bad}")
    return epsilons


def cmd_decompose(cfg, out: Path, args) -> int:
    n = cfg.n_override or 4096
    grid = make_grid(cfg.x_min, cfg.x_max, n)
    data = decompose(cfg.potential, grid)
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


def cmd_identities(cfg, out: Path, args) -> int:
    spec = cfg.potential
    margin = 0.15 * (cfg.x_max - cfg.x_min)
    xs = np.linspace(cfg.x_min + margin, cfg.x_max - margin, 9)
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
        scan_xs = np.linspace(cfg.x_min + margin, cfg.x_max - margin, 17)
        n0 = spec.gap_constants[1] if spec.gap_constants else None
        if n0 is None:
            data = decompose(spec, make_grid(cfg.x_min, cfg.x_max, 2048))
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


def _run_options(cfg) -> dict:
    """The step, y-grid and lab-grid options every run command passes on."""
    return dict(observe_every=cfg.observe_every, dt_max=cfg.dt_max,
                dt_over_eps=cfg.dt_over_epsilon, y_half_width=cfg.y_half_width,
                y_points=cfg.y_points, n_override=cfg.n_override, beta=cfg.beta)


def cmd_single(cfg, out: Path, args) -> int:
    eps = _epsilons(cfg, args.epsilon_override)[0]
    run = run_single_packet(cfg.potential, cfg.packets[0], eps,
                            cfg.lambda_coupling, cfg.T, cfg.x_min, cfg.x_max,
                            snapshot_times=cfg.snapshot_times,
                            **_run_options(cfg))
    rows = [[t, m, w, th, lk, ty] for t, m, w, th, lk, ty in
            zip(run.times, run.masses, run.w_sigma1, run.theta_sigma1,
                run.leakage, run.taylor)]
    write_csv(out / "single.csv",
              ["t", "mass", "sigma1_w", "sigma1_theta", "leakage", "taylor"],
              rows)
    grid = make_grid(cfg.x_min, cfg.x_max, run.grid_n)
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


def cmd_converge(cfg, out: Path, args) -> int:
    report = convergence_study(
        cfg.potential, cfg.packets[0], _epsilons(cfg, args.epsilon_override),
        cfg.lambda_coupling, cfg.T, cfg.x_min, cfg.x_max, **_run_options(cfg))
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


def cmd_superpose(cfg, out: Path, args) -> int:
    if len(cfg.packets) < 2:
        raise ConfigError(["superpose needs two packets in the config"])
    report = superposition_experiment(
        cfg.potential, tuple(cfg.packets[:2]),
        _epsilons(cfg, args.epsilon_override), cfg.lambda_coupling, cfg.T,
        cfg.x_min, cfg.x_max, gamma_exponent=cfg.gamma_exponent,
        **_run_options(cfg))
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
        p.add_argument("--epsilon-override", default=None,
                       help="comma-separated ε list replacing the config's")
    args = parser.parse_args(argv)

    out = None if args.out is None else Path(args.out)
    try:
        cfg = load_config(args.config)
        out = Path(args.out or cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        _write_failure(out, "config", exc.errors)
        return exc.exit_code
    except InvariantViolation as exc:
        print(f"numerical invariant failed: {exc}", file=sys.stderr)
        _write_failure(out, "invariant", [str(exc)])
        return exc.exit_code
    except SolverAbort as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        _write_failure(out, "abort", [str(exc)])
        return exc.exit_code


def _write_failure(out, kind, messages):
    if out is None:
        return
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "failure.json", {"failure": kind, "messages": messages})
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
