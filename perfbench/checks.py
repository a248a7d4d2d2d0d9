"""Output checks for the benchmark workloads.

Every check uses a property the method must have (unitarity, projector
completeness, the proven ε-orders) or a quantity computed here from the
config alone (closed-form harmonic paths and energies, step counts).  None
compares against a stored copy of an earlier output.  Each check returns a
list of (description, passed, detail) triples.
"""

from __future__ import annotations

import math

import numpy as np

# the config defaults that `adiapack.config.load_config` applies
_DT_MAX = 1e-3
_DT_OVER_EPSILON = 0.25
_OBSERVE_EVERY = 0.01


def fit_order(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def steps_per_observation(raw, eps):
    observe_every = raw.get("observe_every", _OBSERVE_EVERY)
    dt = min(raw.get("dt_max", _DT_MAX),
             raw.get("dt_over_epsilon", _DT_OVER_EPSILON) * eps)
    return math.ceil(observe_every / dt - 1e-9)


def expected_nls_steps(raw, epsilons):
    """Σ over ε of (T / observe_every) · ⌈observe_every / min(dt_max, dt_over_epsilon · ε)⌉."""
    n_obs = round(raw["T"] / raw.get("observe_every", _OBSERVE_EVERY))
    return sum(n_obs * steps_per_observation(raw, eps) for eps in epsilons)


def trajectory_sample(raw, eps):
    """Spacing of the trajectory samples: a quarter of the solver step."""
    observe_every = raw.get("observe_every", _OBSERVE_EVERY)
    return observe_every / steps_per_observation(raw, eps) / 4.0


def _strictly_decreasing(values):
    return all(a > b for a, b in zip(values, values[1:]))


def check_converge(raw, report, requested, stderr):
    """Single-packet study: unitarity, completeness and the paper's ε-orders."""
    out = []
    for run in report["runs"]:
        eps = run["epsilon"]
        out.append((f"mass drift <= 1e-10 at eps={eps}",
                    run["mass_drift"] <= 1e-10, f"{run['mass_drift']:.3e}"))
        masses = np.asarray(run["masses"])
        pops = np.asarray(run["populations"]).sum(axis=1)
        dev = float(np.max(np.abs(pops - masses**2) / masses**2))
        out.append((f"populations sum to mass^2 at eps={eps}", dev <= 1e-10,
                    f"{dev:.3e}"))
    if sorted(report["epsilons"]) != sorted(requested) or len(requested) < 2:
        return out
    eps = report["epsilons"]
    order = fit_order(eps, report["sup_errors"])
    out.append(("sup|w| order in [0.3, 0.7]", 0.3 <= order <= 0.7,
                f"{order:.4f}"))
    leak = report["leakages"]
    leak_order = fit_order(eps, leak)
    out.append(("leakage decreasing, order >= 0.4",
                _strictly_decreasing(leak) and leak_order >= 0.4,
                f"{leak_order:.4f}"))
    taylor = [max(run["taylor"]) for run in report["runs"]]
    taylor_order = fit_order([run["epsilon"] for run in report["runs"]], taylor)
    out.append(("Taylor remainder order 1.5 +- 0.15",
                abs(taylor_order - 1.5) <= 0.15, f"{taylor_order:.4f}"))
    keys = report["runs"][0]["g_sigma1"].keys()
    ratios = [max(t) / min(t) for t in
              ([run["g_sigma1"][k][-1] for run in report["runs"]] for k in keys)]
    out.append(("terminal correction norms uniform within x2",
                bool(ratios) and max(ratios) <= 2.0,
                ", ".join(f"{r:.4f}" for r in ratios)))
    return out


def _closed_form_crossing(raw, eps, samples=2_000_001):
    """|{t <= T : |x1(t) - x2(t)| <= eps^gamma}| for x(t) = x0 cos t + xi0 sin t."""
    p1, p2 = raw["packets"][:2]
    t = np.linspace(0.0, raw["T"], samples)
    sep = np.abs((p1["x0"] - p2["x0"]) * np.cos(t)
                 + (p1["xi0"] - p2["xi0"]) * np.sin(t))
    return raw["T"] * np.count_nonzero(sep <= eps ** raw["gamma"]) / samples


def _check_crossings(raw, report, tolerance_samples):
    out = []
    for eps, measure in zip(report["epsilons"], report["crossing_measures"]):
        exact = _closed_form_crossing(raw, eps)
        # a relative 1e-9 absorbs rounding in a count of whole samples
        tol = tolerance_samples * trajectory_sample(raw, eps) * (1.0 + 1e-9)
        out.append((f"crossing measure at eps={eps} within "
                    f"{tolerance_samples} trajectory samples of closed form",
                    abs(measure - exact) <= tol,
                    f"{measure} vs {exact:.6f} (tol {tol:.2e})"))
    return out


def check_superpose_pair(raw, report, requested, stderr):
    """Harmonic two-packet run: Γ = |E1 - E2|, crossings, decreasing error."""
    p1, p2 = raw["packets"][:2]
    energy = [0.5 * p["xi0"] ** 2 + 0.5 * p["x0"] ** 2 for p in (p1, p2)]
    gap = abs(energy[0] - energy[1])
    out = [("big_gamma equals |E1 - E2|", abs(report["big_gamma"] - gap) <= 1e-9,
            f"{report['big_gamma']} vs {gap}"),
           ("no Gamma = 0 warning", not report["gamma_zero_warning"]
            and "Gamma = 0" not in stderr, "")]
    out += _check_crossings(raw, report, 4)
    if sorted(report["epsilons"]) == sorted(requested) and len(requested) >= 2:
        out.append(("errors decrease with eps",
                    _strictly_decreasing(report["sup_errors"]),
                    str(report["sup_errors"])))
    return out


def check_crossing_control(raw, report, requested, stderr):
    """Γ = 0 negative control: identical trajectories, the whole horizon crosses."""
    out = [("big_gamma is 0", report["big_gamma"] <= 1e-12,
            str(report["big_gamma"])),
           ("Gamma = 0 warning printed",
            report["gamma_zero_warning"] and "Gamma = 0" in stderr, "")]
    return out + _check_crossings(raw, report, 1)
