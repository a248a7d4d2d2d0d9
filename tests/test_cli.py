import json
import os
import runpy
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adiapack.cli import main
from adiapack.config import load_config
from adiapack.errors import ConfigError
from adiapack.experiments import (PacketSpec, RunOptions, Study,
                                  run_single_packet, study_setup,
                                  superposition_experiment)
from adiapack.grids import make_grid
from adiapack.nls import spectral_half_width
from adiapack.potentials import MatrixPotentialSpec, decompose

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name="cfg.json", **overrides):
    base = {
        "potential": {"diag": ["x^2/2"], "sym": ["0"]},
        "packets": [{"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0}],
        "epsilons": [0.0625],
        "lambda": 0.0,
        "T": 0.1,
        "observe_every": 0.05,
        "grid": {"x_min": -4.0, "x_max": 4.0},
        "seed": 7,
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base), encoding="utf-8")
    return path


def nan_path_config(tmp_path):
    """λ = sqrt(x+4), a packet that runs out of its domain x ≥ -4 at t ≈ 0.42."""
    return write_config(tmp_path, name="nan_path.json",
                        potential={"diag": ["sqrt(x+4)"], "sym": ["0"]},
                        packets=[{"profile": {"type": "gaussian"}, "x0": -3.5,
                                  "xi0": -1.0}], T=1.0)


@pytest.mark.filterwarnings("error")
def test_nan_path_warns_nothing(tmp_path, capsys):
    # the float form's fallback to numpy ran without `np.errstate`:
    # "<string>:3: RuntimeWarning: invalid value encountered in sqrt"
    assert main(["single", "--config", str(nan_path_config(tmp_path)),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "trajectory blow-up" in err and "Warning" not in err


@pytest.mark.filterwarnings("error")
def test_branch_curve_of_a_finite_entry_warns_nothing(tmp_path, capsys):
    # -2.49·exp(x²) written through (x²/2)^-1, which is inf at x = 0: the
    # entry is finite, but choosing the branch curve evaluated it outside
    # `np.errstate`, and "<string>:2: RuntimeWarning: divide by zero
    # encountered in power" came before the report
    raw = json.loads((CONFIGS / "smoke.json").read_text())
    raw["potential"]["diag"] = ["(-2.49)*(exp(((x^2/2)^-1/2)^-1))"]
    raw["packets"][0]["x0"] = 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["single", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: grid derivation failed: trajectory blow-up "
        "max(|x|, |ξ|) nan above 1.0e+08 at t = 0.00025\n")


def config_setup(study):
    """The study set-up of all the config's packets, as `superpose` builds it."""
    return study_setup(study)


def test_study_setup_sizes_the_minimal_config(tmp_path):
    # ξ_max = sin(0.1) on the harmonic path, η_τ of the Gaussian on the
    # default y-grid: K = ξ_max/ε + η_τ/√ε needs k_Nyquist = πn/8 ≥ 2K
    cfg = load_config(write_config(tmp_path))
    n = config_setup(cfg).grid_n[0.0625]
    assert n == 256
    # the unit Gaussian is the coherent width of x²/2: η_τ stays at its t = 0 value
    y = make_grid(-40.0, 40.0, 2048)
    eta = spectral_half_width(y, cfg.packets[0].evaluator()(y.points))
    k_bound = np.sin(0.1) / 0.0625 + eta / 0.25
    assert 0.5 * np.pi * (n // 2) / 8.0 < k_bound <= 0.5 * np.pi * n / 8.0


def test_kappa_below_quarter_rejected(tmp_path):
    path = write_config(tmp_path, packets=[
        {"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0, "kappa": 0.2}])
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("kappa must exceed 1/4" in e for e in exc.value.errors)


def test_missing_potential_named(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epsilons": [0.1], "T": 1.0,
                                "packets": [], "grid": {"x_min": -1, "x_max": 1}}),
                    encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("potential" in e for e in exc.value.errors)


def test_all_violations_collected(tmp_path):
    path = write_config(
        tmp_path,
        potential={"diag": ["x^2/"], "sym": ["0"]},   # parse error
        epsilons=[2.0],                               # out of range
        T=-1.0,                                       # not positive
        grid={"x_min": -4.0, "x_max": 4.0, "n": 768},  # not a power of two
        y_points=1000,                                # not a power of two
        packets=[{"profile": {"type": "gaussian", "widht": 2.0},  # misspelled
                  "x0": 1.0, "xi0": 0.0, "kappa": 0.5,
                  "r0_profile": {"type": "bogus"}}],  # unknown type
    )
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    errors = exc.value.errors
    assert len(errors) >= 7
    assert "grid.n must be a power of two, at least 8" in errors
    assert "y_points must be a power of two, at least 8" in errors
    assert "packets[0].r0_profile: unknown profile type 'bogus'" in errors
    assert any(e.startswith("packets[0].profile: ") and "'widht'" in e
               for e in errors)


def test_bad_profile_is_a_config_error_for_every_command(tmp_path, capsys):
    path = write_config(tmp_path, packets=[
        {"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0, "kappa": 0.5,
         "r0_profile": {"type": "hermite", "center": "left"}}])
    for command in ("decompose", "identities", "single"):
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / command)]) == 2
        assert "packets[0].r0_profile: " in capsys.readouterr().err


def test_fixed_grid_must_satisfy_adequacy(tmp_path, capsys):
    path = write_config(tmp_path, grid={"x_min": -4.0, "x_max": 4.0, "n": 256},
                        epsilons=[0.01])
    with pytest.raises(ConfigError, match="adequacy"):
        config_setup(load_config(path))
    assert main(["single", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "spectral adequacy rule" in capsys.readouterr().err


def test_nan_epsilon_is_a_collected_violation(tmp_path, capsys):
    # NaN fails every comparison, so it must fail the range check as well
    path = write_config(tmp_path, epsilons=[0.0625, float("nan")])
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == ["epsilons: every value must lie in (0, 1]"]
    assert main(["converge", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "epsilons: every value" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, epsilons=[])
    assert main(["converge", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_invariant_violation_exit_code(tmp_path, capsys):
    # packet squeezed against the boundary: the edge check trips
    path = write_config(tmp_path, grid={"x_min": -1.6, "x_max": 1.6},
                        epsilons=[0.0625])
    code = main(["single", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "invariant" in capsys.readouterr().err


def test_decompose_command(tmp_path):
    out = tmp_path / "out"
    code = main(["decompose", "--config", str(CONFIGS / "rotating.json"),
                 "--out", str(out)])
    assert code == 0
    lines = (out / "branches.csv").read_text().splitlines()
    assert lines[0] == "x,lambda_0,lambda_1"
    report = json.loads((out / "report.json").read_text())
    assert report["gaps"]["0-1"]["fitted_n0"] == pytest.approx(1.0, abs=0.05)
    assert (out / "plot.gp").exists()


def test_identities_command_constant_direction(tmp_path):
    out = tmp_path / "out"
    code = main(["identities", "--config",
                 str(CONFIGS / "constant_direction.json"), "--out", str(out)])
    assert code == 0
    rows = (out / "identities.csv").read_text().splitlines()[1:]
    for row in rows:
        residuals = [float(v) for v in row.split(",")[2:]]
        assert max(residuals) <= 1e-12
    report = json.loads((out / "report.json").read_text())
    assert report["max_identity_residual"] <= 1e-12


def test_single_command_with_snapshots(tmp_path):
    out = tmp_path / "out"
    code = main(["single", "--config", str(CONFIGS / "smoke.json"),
                 "--out", str(out)])
    assert code == 0
    lines = (out / "single.csv").read_text().splitlines()
    assert lines[0] == "t,mass,sigma1_w,sigma1_theta,leakage,taylor"
    assert len(lines) == 1 + 3  # t = 0, 0.05, 0.1
    snaps = sorted(out.glob("snapshot_t*.csv"))
    assert len(snaps) == 2
    header = snaps[0].read_text().splitlines()[0]
    assert header == "x,re_0,im_0"


def test_single_zero_amplitude_packet(tmp_path):
    path = write_config(tmp_path, packets=[
        {"profile": {"type": "zero"}, "x0": 0.0, "xi0": 0.0}])
    out = tmp_path / "out"
    assert main(["single", "--config", str(path), "--out", str(out)]) == 0
    for line in (out / "single.csv").read_text().splitlines()[1:]:
        vals = [float(v) for v in line.split(",")[1:]]
        assert max(vals) == 0.0


def test_converge_command_csv_contract(tmp_path):
    out = tmp_path / "out"
    code = main(["converge", "--config", str(CONFIGS / "smoke.json"),
                 "--out", str(out)])
    assert code == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "epsilon,sup_sigma1_w,terminal_sigma1_w,leakage"
    assert len(lines) == 1 + 2 + 1
    assert lines[-1].startswith("fitted_order,")
    order = float(lines[-1].split(",")[1])
    assert order == pytest.approx(0.5, abs=0.1)


def test_converge_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["converge", "--config", str(CONFIGS / "smoke.json"),
                     "--out", str(out)]) == 0
        outs.append((out / "convergence.csv").read_bytes())
    assert outs[0] == outs[1]


def test_epsilon_override(tmp_path):
    out = tmp_path / "out"
    code = main(["converge", "--config", str(CONFIGS / "smoke.json"),
                 "--out", str(out), "--epsilon-override", "0.0625"])
    assert code == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert len(lines) == 1 + 1 + 1


def test_report_json_round_trip(tmp_path):
    out = tmp_path / "out"
    main(["converge", "--config", str(CONFIGS / "smoke.json"),
          "--out", str(out)])
    text = (out / "report.json").read_text()
    data = json.loads(text)
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text


def test_packaged_configs_all_load():
    for name in ("scalar_harmonic", "rotating", "superposition",
                 "crossing_control", "constant_direction", "smoke"):
        cfg = load_config(CONFIGS / f"{name}.json")
        assert cfg.potential is not None and cfg.packets and cfg.epsilons


def test_packaged_grid_sizes_meet_measured_floors():
    # the smallest n at which a full run kept its Fourier tail ≤ 1e-20
    # (superposition at ε = 1/256 was not safe at 4096)
    floors = {
        "rotating": {1 / 64: 512, 1 / 128: 1024, 1 / 256: 1024, 1 / 512: 2048},
        "scalar_harmonic": {1 / 64: 512, 1 / 128: 1024, 1 / 256: 2048,
                            1 / 512: 2048},
        "superposition": {1 / 64: 2048, 1 / 128: 4096, 1 / 256: 8192},
        "crossing_control": {1 / 64: 512, 1 / 128: 1024, 1 / 256: 2048},
    }
    for name, floor in floors.items():
        sizes = config_setup(load_config(CONFIGS / f"{name}.json")).grid_n
        assert sizes.keys() == floor.keys()
        assert all(sizes[eps] >= floor[eps] for eps in floor), name


def test_cli_import_does_not_load_scipy_interpolate():
    # set-up cost: scipy.interpolate alone took about a third of the import,
    # and scipy.fft pulled in scipy.special; the run path needs neither
    import adiapack

    src = str(Path(adiapack.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys, adiapack.cli; "
            f"adiapack.cli.load_config({str(CONFIGS / 'rotating.json')!r}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_solver_abort_exit_code(tmp_path, capsys, monkeypatch):
    import adiapack.cli as cli
    from adiapack.errors import SolverAbort

    def boom(*args, **kwargs):
        raise SolverAbort("synthetic abort")

    monkeypatch.setattr(cli, "run_single_packet", boom)
    path = write_config(tmp_path)
    assert main(["single", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 4
    assert "runtime abort" in capsys.readouterr().err


def test_failure_record_written(tmp_path):
    path = write_config(tmp_path, grid={"x_min": -1.6, "x_max": 1.6},
                        epsilons=[0.0625])
    out = tmp_path / "o"
    assert main(["single", "--config", str(path), "--out", str(out)]) == 3
    record = json.loads((out / "failure.json").read_text())
    assert record["failure"] == "invariant"
    assert record["messages"]


def test_superpose_command_contract(tmp_path):
    out = tmp_path / "out"
    code = main(["superpose", "--config", str(CONFIGS / "superposition.json"),
                 "--out", str(out), "--epsilon-override", "0.03125"])
    assert code == 0
    lines = (out / "superpose.csv").read_text().splitlines()
    assert lines[0] == ("epsilon,sup_sigma1_w,terminal_sigma1_w,"
                        "crossing_measure,interaction_integral")
    assert lines[-1].startswith("big_gamma,")
    assert float(lines[-1].split(",")[1]) == 0.125
    report = json.loads((out / "report.json").read_text())
    assert report["gamma_zero_warning"] is False


def test_converge_failed_subrun_recorded(tmp_path):
    # ε = 1 puts the packet's tail on the boundary; ε = 1/32 still runs
    out = tmp_path / "out"
    code = main(["converge", "--config", str(CONFIGS / "smoke.json"),
                 "--out", str(out), "--epsilon-override", "1.0,0.03125"])
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["epsilons"] == [0.03125]
    assert [eps for eps, _ in report["failures"]] == [1.0]
    assert "boundary" in report["failures"][0][1]
    assert (out / "convergence.csv").exists()


def test_superpose_honours_grid_n(tmp_path):
    raw = json.loads((CONFIGS / "superposition.json").read_text())
    raw.update(T=0.1, epsilons=[0.0625])
    raw["grid"]["n"] = 65536
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["superpose", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["grid_n"] == [65536]


def test_non_simple_branch_exit_code(tmp_path, capsys):
    multiplet = {"diag": ["x^2/2", "x^2/2"], "sym": ["0", "0", "0"],
                 "multiplicities": [2]}
    packets = [{"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0},
               {"profile": {"type": "gaussian"}, "x0": -1.0, "xi0": 0.0}]
    path = write_config(tmp_path, potential=multiplet, packets=packets)
    for command in ("single", "superpose"):
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / command)]) == 2
        assert "must be simple" in capsys.readouterr().err


def test_converge_every_subrun_failed(tmp_path, monkeypatch):
    import adiapack.experiments as experiments
    from adiapack.errors import SolverAbort

    def boom(setup, eps, *args, **kwargs):
        raise SolverAbort(f"synthetic abort at {eps}")

    monkeypatch.setattr(experiments, "_Lane", boom)
    out = tmp_path / "out"
    code = main(["converge", "--config", str(CONFIGS / "smoke.json"),
                 "--out", str(out), "--epsilon-override", "0.0625,0.03125"])
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["epsilons"] == []
    assert [eps for eps, _ in report["failures"]] == [0.0625, 0.03125]
    assert (out / "convergence.csv").read_text().splitlines()[0].startswith(
        "epsilon,")


def test_load_config_rejects_packet_on_multiplet(tmp_path):
    multiplet = {"diag": ["x^2/2", "x^2/2"], "sym": ["0", "0", "0"],
                 "multiplicities": [2]}
    packets = [{"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0},
               {"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0,
                "branch": 1}]
    path = write_config(tmp_path, potential=multiplet, packets=packets)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == [
        "packets[0]: branch 0 has multiplicity 2: out of scope, the "
        "transported branch must be simple",
        "packets[1]: branch 1 out of range (1 branches)"]


def two_packet_config(tmp_path):
    packets = [{"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0},
               {"profile": {"type": "gaussian"}, "x0": -1.0, "xi0": 0.5}]
    return write_config(tmp_path, packets=packets)


def test_mass_guard_exit_code_in_both_run_paths(tmp_path, capsys, monkeypatch):
    import adiapack.experiments as experiments
    from adiapack.nls import NLSPropagator

    class Leaky(NLSPropagator):
        def step(self, values, *args, **kwargs):
            return super().step(values, *args, **kwargs) * (1.0 + 1e-6)

    monkeypatch.setattr(experiments, "NLSPropagator", Leaky)
    path = two_packet_config(tmp_path)
    for command in ("single", "superpose"):
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / command)]) == 4
        assert "mass drift" in capsys.readouterr().err


def test_envelope_guard_in_the_last_clock_interval_fails_the_run(
        tmp_path, capsys, monkeypatch):
    # a single packet on two branches carries corrections; the mass guard
    # trips at the tick of the last clock interval, [0.09, 0.1], which fails
    # every lane before step 91, its Duhamel midpoint read or its
    # observation (observing every step)
    import adiapack.experiments as experiments
    from adiapack.envelope import EnvelopeClock, EnvelopeStepper

    advance, clocked = EnvelopeStepper.advance, set()

    class Marking(EnvelopeClock):
        def __init__(self, stepper, *args):
            clocked.add(stepper)
            super().__init__(stepper, *args)

    def leaky(self, dt, curvature, time=None):
        # the clock's last interval, not the sizing march's last step
        if time == 0.1 and self in clocked:
            self.values *= 1.0 + 1e-6
        advance(self, dt, curvature, time)

    monkeypatch.setattr(experiments, "EnvelopeClock", Marking)
    monkeypatch.setattr(EnvelopeStepper, "advance", leaky)
    path = write_config(tmp_path, potential={"diag": ["x^2/2", "x^2/2"],
                                             "sym": ["0.5", "0.5", "-0.5"]},
                        observe_every=0.001)
    message = "envelope mass drift 1.000e-06 above 1.0e-08 at t = 0.1"
    assert main(["single", "--config", str(path),
                 "--out", str(tmp_path / "single")]) == 4
    assert capsys.readouterr().err == f"runtime abort: {message}\n"
    out = tmp_path / "converge"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] == [[0.0625, message]]


def test_envelope_guard_at_a_tick_fails_every_lane_before_it_steps(
        tmp_path, capsys, monkeypatch):
    # two packets carry no corrections, so at cadence 0.05 the lanes read u
    # only at t = 0, 0.05 and 0.1, yet their one shared clock (same profile,
    # λ'' = 1) is ticked once per 0.01: the mass guard trips at the tick of
    # [0.02, 0.03], a non-final interval that no read ends, and fails both
    # lanes (dt = 1e-3 and 0.01/11) before either steps in it, after 20 and
    # 22 steps, not at the read at 0.05
    import adiapack.experiments as experiments
    from adiapack.envelope import EnvelopeClock
    from adiapack.nls import NLSPropagator

    jump, march, ticks, steps, failed = (EnvelopeClock.jump,
                                         experiments._Lockstep.march, [], {}, [])

    def leaky(self, b1):
        ticks.append(b1)
        if len(ticks) == 3:   # the tick of [0.02, 0.03]
            self.stepper.values *= 1.0 + 1e-6
        jump(self, b1)

    class Counting(NLSPropagator):
        def step(self, *args, **kwargs):
            steps[self.epsilon] = steps.get(self.epsilon, 0) + 1
            return super().step(*args, **kwargs)

    def recording(self, observer):
        results, failures = march(self, observer)
        failed.extend((eps, str(exc)) for eps, exc in failures)
        return results, failures

    monkeypatch.setattr(EnvelopeClock, "jump", leaky)
    monkeypatch.setattr(experiments, "NLSPropagator", Counting)
    monkeypatch.setattr(experiments._Lockstep, "march", recording)
    packets = [{"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0},
               {"profile": {"type": "gaussian"}, "x0": -1.0, "xi0": 0.5}]
    path = write_config(tmp_path, packets=packets,
                        epsilons=[0.0625, 0.00390625])
    message = "envelope mass drift 1.000e-06 above 1.0e-08 at t = 0.03"
    assert main(["superpose", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == f"runtime abort: {message}\n"
    assert failed == [(0.0625, message), (0.00390625, message)]
    assert steps == {0.0625: 20, 0.00390625: 22}
    assert ticks == [44, 88, 132]   # samples of 0.01/44: no tick after it


def test_energy_drift_in_report_not_csv(tmp_path):
    path = two_packet_config(tmp_path)
    for command, csv in (("single", "single.csv"), ("superpose", "superpose.csv")):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        drift = np.asarray(report["energy_drift"], dtype=float)
        assert drift.shape == (() if command == "single" else (1, 2))
        assert np.all((drift >= 0.0) & (drift < 1e-8))
        assert "energy" not in (out / csv).read_text()


def test_study_setup_propagates_programming_errors(tmp_path, monkeypatch):
    import adiapack.experiments as experiments
    from adiapack.errors import SolverAbort

    cfg = load_config(write_config(tmp_path))

    def broken(*args, **kwargs):
        raise TypeError("synthetic programming error")

    monkeypatch.setattr(experiments, "integrate_trajectory", broken)
    with pytest.raises(TypeError, match="synthetic"):
        config_setup(cfg)

    def aborts(*args, **kwargs):
        raise SolverAbort("synthetic trajectory abort")

    monkeypatch.setattr(experiments, "integrate_trajectory", aborts)
    with pytest.raises(ConfigError) as exc:
        config_setup(cfg)
    assert exc.value.errors == [
        "grid derivation failed: synthetic trajectory abort"]


def test_envelope_edge_same_exit_code_in_both_run_paths(tmp_path, capsys,
                                                       monkeypatch):
    # a width-1/2 Gaussian breathes out to width 2 in the harmonic well: on
    # |y| ≤ 3.5 it leaves the window during the run, on |y| ≤ 3 it does not
    # vanish at t = 0.  The study set-up marches the envelope before any lab
    # grid is sized: both commands and both direct calls fail with the same
    # ConfigError (exit 2) having decomposed only the 4096-point probe grid.
    import adiapack.experiments as experiments

    sizes = []

    def recording(spec, grid):
        sizes.append(grid.n)
        return decompose(spec, grid)

    monkeypatch.setattr(experiments, "decompose", recording)
    packets = [{"profile": {"type": "gaussian", "width": 0.5}, "x0": 1.0,
                "xi0": 0.0},
               {"profile": {"type": "gaussian", "width": 0.5}, "x0": -1.0,
                "xi0": 0.5}]
    for half_width in (3.0, 3.5):
        path = write_config(tmp_path, packets=packets, T=0.5,
                            y_half_width=half_width)
        for command in ("single", "superpose"):
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert "y-domain edge" in err
            assert (" at t = 0.0;" in err) == (half_width == 3.0)
        spec = MatrixPotentialSpec.from_strings(["x^2/2"], ["0"])
        pk = [PacketSpec(profile=d["profile"], x0=d["x0"], xi0=d["xi0"])
              for d in packets]
        study = Study(potential=spec, packets=pk, epsilons=[0.0625], T=0.5,
                      x_min=-4.0, x_max=4.0,
                      options=RunOptions(observe_every=0.05,
                                         y_half_width=half_width))
        for run in (run_single_packet, superposition_experiment):
            with pytest.raises(ConfigError, match="y-domain edge") as exc:
                run(study)
            assert exc.value.exit_code == 2
    assert set(sizes) == {4096}


def test_an_envelope_the_y_grid_aliases_is_refused_naming_y_points(tmp_path,
                                                                   capsys):
    # a width-0.05 Gaussian has η_τ·Δy = π, the top shell, at t = 0 on the
    # default ±40 / 2048-point y-grid; its run failed the envelope edge guard
    # at t = 0.025 with "enlarge y_half_width", though aliasing is the cause
    packets = [{"profile": {"type": "gaussian", "width": 0.05}, "x0": 1.0,
                "xi0": 0.0}]
    path = write_config(tmp_path, packets=packets)
    assert main(["single", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "y_points" in err and " at t = 0:" in err
    assert "y-domain edge" not in err
    # on [-4, 4) the resolved envelope reaches past x_max (the next test)
    fine = write_config(tmp_path, name="fine.json", packets=packets,
                        y_points=8192, grid={"x_min": -8.0, "x_max": 8.0})
    assert config_setup(load_config(fine)).rule.eta * 80.0 / 8192 < np.pi


def test_an_envelope_past_the_domain_is_refused_naming_x_max(
        tmp_path, capsys, monkeypatch):
    # the width-0.05 Gaussian on an 8192-point y-grid spreads to |y| ≤ 12.14
    # at the ψ-level 1e-8 by t = 0.1, x ≤ 0.995 + 12.14/4 = 4.03 at ε = 1/16:
    # its run marched and exited 3 on the boundary guard at t = 0.1
    import adiapack.experiments as experiments

    built = []

    class Counting(experiments._Lane):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(experiments, "_Lane", Counting)
    path = write_config(tmp_path, y_points=8192, packets=[
        {"profile": {"type": "gaussian", "width": 0.05}, "x0": 1.0, "xi0": 0.0}])
    assert main(["single", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: grid derivation failed: at epsilon = 0.0625 a packet "
        "reaches x in [-2.04, 4.03] at t = 0.1, past grid.x_max: enlarge the "
        "domain\n")
    assert built == []


@pytest.mark.filterwarnings("error")
def test_initial_data_the_lab_grid_cannot_hold_is_refused_naming_grid_n(
        tmp_path, capsys):
    # ξ ≡ 0, and the carrier χ turns at the avoided crossing at x = 0, which
    # the lab grid rule does not count (n = 256): the run aborted at t = 0.0
    # on the Fourier tail, "the lab grid is too coarse for the packet's
    # momentum" (exit 4); grid.n = 512 resolves ψ₀
    raw = json.loads((CONFIGS / "smoke.json").read_text())
    raw.update(epsilons=[0.0625],
               potential={"diag": ["x", "-x"], "sym": ["0", "0.14", "0"]},
               packets=[{"profile": {"type": "gaussian"}, "x0": 0, "xi0": 0}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["single", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: grid.n: the initial data's Fourier tail 3.310e-12 is "
        "above 1.0e-20 on the 256-point lab grid at epsilon = 0.0625; raise "
        "grid.n\n")


def test_breathing_envelope_sizes_the_grid_for_the_whole_run(tmp_path):
    # a width-2 Gaussian in x²/2 narrows to width 1/2 at t = π/2, so its
    # momentum width grows 4×; sized from the t = 0 profile alone (n = 512)
    # the run's Fourier tail passed 1e-20 at t = 1.09
    path = write_config(
        tmp_path, packets=[{"profile": {"type": "gaussian", "width": 2.0},
                            "x0": 1.0, "xi0": 0.0}],
        epsilons=[0.015625], T=1.6, observe_every=0.05)
    out = tmp_path / "out"
    assert main(["single", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["grid_n"] == 1024
    assert report["fourier_tail"] <= 1e-20


def test_correction_norm_guard_fails_converge_subrun(tmp_path, monkeypatch):
    from adiapack.errors import CORRECTION_NORM

    monkeypatch.setattr(CORRECTION_NORM, "tol", 1e-12)
    out = tmp_path / "out"
    code = main(["converge", "--config", str(CONFIGS / "rotating.json"),
                 "--out", str(out), "--epsilon-override", "0.015625"])
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["epsilons"] == []
    assert [eps for eps, _ in report["failures"]] == [0.015625]
    assert "correction norm" in report["failures"][0][1]


def test_fourier_tail_guard_aborts_under_resolved_superposition(
        tmp_path, capsys, monkeypatch):
    # n = 512 at ε = 1/128 puts packet 2's momentum content (|ξ| up to 1.118,
    # width η_τ/√ε) into the outer quarter of the band; without the tail
    # guard the run finishes with a sup error off by 1%
    import adiapack.experiments as experiments

    def unchecked(*args, n_override=None, **kwargs):
        return n_override

    monkeypatch.setattr(experiments, "lab_grid_points", unchecked)
    raw = json.loads((CONFIGS / "superposition.json").read_text())
    raw.update(epsilons=[0.0078125])
    raw["grid"]["n"] = 512
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["superpose", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 4
    assert "Fourier tail" in capsys.readouterr().err


def test_report_records_grid_n_and_fourier_tail(tmp_path):
    path = two_packet_config(tmp_path)
    reports = {}
    for command in ("single", "converge", "superpose"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        reports[command] = json.loads((out / "report.json").read_text())
        assert "tail" not in next(out.glob("*.csv")).read_text()
    single, (run,) = reports["single"], reports["converge"]["runs"]
    sup = reports["superpose"]
    # one packet's momentum bound for single and converge; superpose's
    # set-up takes both packets' (3ξ_max/ε + √3 η_τ/√ε)
    assert single["grid_n"] == run["grid_n"] == 256
    assert sup["grid_n"] == [config_setup(load_config(path)).grid_n[0.0625]] \
        == [512]
    for tail in (single["fourier_tail"], run["fourier_tail"],
                 *sup["fourier_tail"]):
        assert 0.0 <= tail <= 1e-20


def test_report_records_the_envelope_window(tmp_path):
    # every run says on how many y-points its envelopes marched, and the
    # measured support Y_τ that chose them; the CSVs do not change
    path = two_packet_config(tmp_path)
    setup = config_setup(load_config(path))
    reports = {}
    for command in ("single", "converge", "superpose"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        reports[command] = json.loads((out / "report.json").read_text())
        assert "y_" not in next(out.glob("*.csv")).read_text()
    single, (run,) = reports["single"], reports["converge"]["runs"]
    sup = reports["superpose"]
    assert single["y_points"] == run["y_points"] == 512
    assert 7.7 < single["y_tau"] == run["y_tau"] <= 10.0
    assert sup["y_points"] == [setup.y_grid.n] == [512]
    assert sup["y_tau"] == [setup.rule.y_tau]


def test_superpose_honours_kappa(tmp_path):
    # the ε^κ perturbation r₀ rides in ψ₀ but not in the ansatz, so it
    # raises the superposition error
    sups = []
    for kappa in (None, 0.3):
        packets = [{"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0},
                   {"profile": {"type": "gaussian"}, "x0": -1.0, "xi0": 0.5}]
        if kappa is not None:
            packets[0]["kappa"] = kappa
        path = write_config(tmp_path, name=f"cfg{kappa}.json", packets=packets)
        out = tmp_path / f"out{kappa}"
        assert main(["superpose", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "superpose.csv").read_text().splitlines()
        sups.append(float(rows[1].split(",")[1]))
    assert sups[1] > sups[0] + 0.1


def test_bad_command_input_is_a_config_error(tmp_path, capsys):
    same = {"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0}
    ok = write_config(tmp_path, name="ok.json")
    # an override must give at least one ε in (0, 1], the config's range,
    # before any run (2.0 ran and failed on the boundary, exit 3)
    cases = [("superpose", write_config(tmp_path, packets=[same, same]), [],
              "must differ"),
             ("converge", ok, ["--epsilon-override", "0.0625,abc"],
              "--epsilon-override")]
    cases += [(command, ok, ["--epsilon-override", value],
               "--epsilon-override")
              for command in ("single", "converge")
              for value in (",", "0", "-0.01", "nan", "inf", "0.0625,-1",
                            "2.0")]
    # single runs one ε: an override with more, which it dropped, is refused
    cases.append(("single", ok, ["--epsilon-override", "0.0625,0.03125"],
                  "single runs one ε"))
    # the set-up keys its steps by ε: a repeated ε was a LinAlgError
    # traceback in superpose (exit 1) and one run fewer in converge (exit 0)
    cases += [("superpose", CONFIGS / "superposition.json",
               ["--epsilon-override", "0.0625,0.0625"],
               "--epsilon-override: a value is repeated"),
              ("converge", CONFIGS / "smoke.json",
               ["--epsilon-override", "0.0625,0.0625,0.03125"],
               "--epsilon-override: a value is repeated")]
    # a malformed number was a ValueError traceback (exit 1), a NaN ran on
    # (β, λ) or failed later (exit 1), and 512.5 was truncated to 512
    nan = float("nan")
    packet = {"profile": {"type": "gaussian"}, "x0": 1.0, "xi0": 0.0}
    bad_numbers = [
        ({"beta": "x"}, "unknown field: beta"),
        ({"beta": nan}, "unknown field: beta"),
        ({"dt_max": "abc"}, "dt_max must be positive and finite"),
        ({"y_points": "abc"}, "y_points must be a power of two"),
        ({"y_points": 512.5}, "y_points must be a power of two"),
        ({"T": "abc"}, "T must be a finite number"),
        ({"T": nan}, "T must be a finite number"),
        ({"lambda": "x"}, "lambda must be a finite number"),
        ({"lambda": nan}, "lambda must be a finite number"),
        ({"grid": {"x_min": "a", "x_max": 4.0}},
         "grid.x_min must be a finite number"),
        ({"observe_every": nan}, "observe_every must be positive and finite"),
        ({"y_half_width": nan}, "y_half_width must be positive and finite")]
    # a grid size is at most 2**20 points: grid.n = 2**1100 was an
    # OverflowError traceback (exit 1); a lab grid rule size above the
    # bound is refused before the lab grid is built (dt_over_epsilon keeps
    # the steps of ε = 1e-9 at dt = 1e-3)
    bad_numbers += [
        ({"grid": {"x_min": -4.0, "x_max": 4.0, "n": n}},
         "grid.n must be at most 2**20") for n in (2**21, 2**1100)]
    bad_numbers += [({"y_points": n}, "y_points must be at most 2**20")
                    for n in (2**21, 2**1100)]
    bad_numbers.append(({"epsilons": [1e-9], "dt_over_epsilon": 1e6},
                        "the lab grid rule needs more than 2**20 points"))
    # a profile's parameters are bounded: a noise profile's "modes" of -1 was
    # an IndexError traceback (exit 1), 3000000 did not return within 30 s,
    # and true, like an infinite width, was accepted
    modes = "packets[0].profile: modes must be an integer in [0, 128]"
    width = "packets[0].profile: width must be a finite number > 0"
    bad_numbers += [
        ({"packets": [dict(packet, profile={"type": "noise", "modes": m})]},
         modes) for m in (-1, 3000000, True, 2.0)]
    bad_numbers += [
        ({"packets": [dict(packet, profile={"type": kind, "width": w})]}, width)
        for kind in ("gaussian", "hermite", "noise")
        for w in (float("inf"), 0.0, -1.0, nan, "x")]
    # a JSON integer beyond the float range is no finite number: T was a
    # TypeError traceback and kappa an OverflowError in the initial data
    bad_numbers += [
        (fields, message) for big in (10**400, -10**400) for fields, message in (
            ({"T": big}, "T must be a finite number"),
            ({"lambda": big}, "lambda must be a finite number"),
            ({"packets": [dict(packet, x0=big)]},
             "packets[0].x0 must be a finite number"),
            ({"epsilons": [big]}, "epsilons: every value must lie in (0, 1]"),
            ({"observe_every": big}, "observe_every must be positive and finite"),
            ({"packets": [dict(packet, profile={"type": "gaussian",
                                                "width": big})]}, width),
            ({"packets": [dict(packet, kappa=big)]},
             "packets[0]: kappa must exceed 1/4"))]
    cases += [("single", write_config(tmp_path, name=f"bad{i}.json", **fields),
               [], message) for i, (fields, message) in enumerate(bad_numbers)]
    # a value of the wrong JSON shape was a traceback (exit 1), a float or
    # bool branch was read as branch 1, fractional multiplicities passed and
    # a null out_dir wrote to a directory named "None"
    harmonic = {"diag": ["x^2/2"], "sym": ["0"]}
    pair = {"diag": ["x^2/2", "x^2/2"], "sym": ["0", "0", "0"]}
    branch = "packets[0].branch must be an integer"
    gaps = "potential.gap_constants must be two numbers"
    mults = "potential.multiplicities must be positive integers"
    bad_shapes = [
        ({"packets": [dict(packet, branch="a")]}, branch),
        ({"packets": [dict(packet, branch=1.5)]}, branch),
        ({"packets": [dict(packet, branch=True)]}, branch),
        ({"seed": "x"}, "seed must be an integer"),
        ({"out_dir": None}, "out_dir must be a string"),
        ({"grid": [1, 2]}, "grid must be an object"),
        ({"packets": {"a": 1}}, "packets must be a list"),
        ({"packets": [1]}, "packets[0] must be an object"),
        ({"potential": [1]}, "potential must be an object"),
        ({"epsilons": 0.1}, "epsilons: need a list of at least one value"),
        ({"potential": dict(harmonic, gap_constants=2)}, gaps),
        ({"potential": dict(harmonic, gap_constants=[2.0])}, gaps),
        ({"potential": dict(harmonic, multiplicities=2)}, mults),
        ({"potential": dict(pair, multiplicities=[1.5, 0.5])}, mults),
        ({"potential": dict(pair, diag=["x^2/2", 3])},
         "potential.diag[1]: syntax error at offset 0: expected an "
         "expression string")]
    # a key that no run reads was ignored (decompose exited 0): a
    # misspelling, the deleted dt_over_eps and beta, and a top-level grid_n,
    # which grid.n overwrote
    bad_shapes += [({key: value}, f"unknown field: {key}") for key, value in (
        ("dt_over_eps", 0.25), ("observe_evry", 0.01), ("grid_n", 512),
        ("beta", 1.0))]
    bad_shapes += [
        ({"grid": {"x_min": -4.0, "x_max": 4.0, "nn": 512}},
         "unknown field: grid.nn"),
        ({"packets": [dict(packet, branh=0)]}, "unknown field: packets[0].branh"),
        ({"potential": dict(harmonic, multiplicity=[1])},
         "unknown field: potential.multiplicity")]
    shapes = [(write_config(tmp_path, name=f"shape{i}.json", **fields), message)
              for i, (fields, message) in enumerate(bad_shapes)]
    top = tmp_path / "top.json"
    top.write_text("[1, 2]", encoding="utf-8")
    shapes += [(top, "the config must be a JSON object"),
               (tmp_path / "missing.json", "cannot read the config")]
    cases += [(command, path, [], message) for path, message in shapes
              for command in ("decompose", "identities")]
    # a potential entry that is NaN on the lab domain ran: decompose and
    # identities exited 0 with NaN rows, single and converge 4 on the mass
    # drift
    rooted = {"diag": ["sqrt(x)"], "sym": ["0"]}
    other = dict(packet, x0=-1.0, xi0=0.5)
    cases += [(command, write_config(tmp_path, name=f"nan_{command}.json",
                                     potential=rooted, packets=[packet, other]),
               [], "potential.diag[0] is not finite at x = -4.0")
              for command in ("decompose", "single", "converge", "superpose")]
    cases.append(("identities", write_config(tmp_path, name="nan_identities.json",
                                             potential=rooted),
                  [], "potential.diag[0] is not finite"))
    # a path that leaves the branch's domain turns NaN, which passed the
    # trajectory's `>` test: the sizing march then failed on "envelope mass
    # drift nan", with numpy's RuntimeWarnings on stderr
    cases += [(command, nan_path_config(tmp_path), [],
               "grid derivation failed: trajectory blow-up max(|x|, |ξ|) nan "
               "above 1.0e+08 at t = 0.42") for command in ("single", "converge")]
    # a pole at the packet's start, off the probe grid: where `math` raised,
    # the fallback gave the array form the same Python float, which raised
    # ZeroDivisionError again (a traceback from the trajectory, exit 1)
    pole = write_config(tmp_path, name="pole.json",
                        potential={"diag": ["1/(x-0.3)"], "sym": ["0"]},
                        packets=[dict(packet, x0=0.3)])
    cases.append(("single", pole, [], "grid derivation failed: trajectory "
                  "blow-up max(|x|, |ξ|) nan above 1.0e+08 at t = 0.00025"))
    # deep nesting was a RecursionError traceback (250 calls) or a
    # SyntaxError on the first evaluation (101 unary minus), exit 1
    for i, text in enumerate(("sin(" * 250 + "x" + ")" * 250, "-" * 101 + "x")):
        deep = write_config(tmp_path, name=f"deep{i}.json",
                            potential={"diag": [text], "sym": ["0"]})
        cases.append(("decompose", deep, [], "expected at most 32 levels of "
                                             "nesting"))
    # a long flat sum or product was a RecursionError traceback (exit 1):
    # the parser builds it iteratively, a left-deep tree one level per term
    for i, text in enumerate(("x^2/2" + "+0*x" * 1000, "x" + "*1" * 1000)):
        flat = write_config(tmp_path, name=f"flat{i}.json",
                            potential={"diag": [text], "sym": ["0"]})
        cases.append(("decompose", flat, [], "potential.diag[0]: syntax error "
                      "at offset 256: expected at most 256 numbers, names and "
                      "operators"))
    # work without bound: ε = 2**-18 asks 1,048,600 steps and ran for days;
    # 10,000 steps at 2**20 points are 1.05e10 point-steps
    cases += [("converge", CONFIGS / "rotating.json",
               ["--epsilon-override", "3.814697265625e-06"],
               "the study needs 1.049e+06 steps, above the budget of 1e+05; "
               "epsilon = 3.814697265625e-06 alone needs 1.049e+06"),
              ("single", write_config(tmp_path, name="point_steps.json", T=10.0,
                                      grid={"x_min": -4.0, "x_max": 4.0,
                                            "n": 2**20}),
               [], "the study needs 1.049e+10 lab grid point-steps, above the "
                   "budget of 1e+10")]
    for i, (command, path, extra, message) in enumerate(cases):
        out = tmp_path / f"{command}{i}"
        start = time.perf_counter()
        assert main([command, "--config", str(path), "--out", str(out)]
                    + extra) == 2
        # the step total is refused before the set-up integrates anything
        assert "1e+05" not in message or time.perf_counter() - start < 2.0
        assert message in capsys.readouterr().err
        record = json.loads((out / "failure.json").read_text())
        assert record["failure"] == "config"


def _positions(value, at=()):
    """The key path of every value in a JSON document, the root included."""
    yield at
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _positions(item, at + (key,))


SMOKE = json.loads((CONFIGS / "smoke.json").read_text())
# ints of any size, and two beyond the float range
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([10**400, -10**400]) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@given(at=st.sampled_from(list(_positions(SMOKE))), value=JSON_VALUES)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_config_fails_only_with_config_errors(tmp_path, at, value):
    # any one value of smoke.json, at any depth, replaced by any JSON value:
    # the config loads or is a ConfigError, never another exception
    raw = json.loads(json.dumps(SMOKE))
    if at:
        parent = raw
        for key in at[:-1]:
            parent = parent[key]
        parent[at[-1]] = value
    else:
        raw = value
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    try:
        load_config(path)
    except ConfigError:
        pass


def test_snapshot_times_are_validated(tmp_path, capsys):
    raw = json.loads((CONFIGS / "smoke.json").read_text())
    raw["snapshot_times"] = [0.0, 7.5, 0.03]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == [
        "snapshot_times[1]: 7.5 is not a multiple of observe_every in [0, T]",
        "snapshot_times[2]: 0.03 is not a multiple of observe_every in [0, T]"]
    assert main(["single", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert not list((tmp_path / "o").glob("snapshot_t*.csv"))
    # a config that load_config rejects still leaves its failure record
    record = json.loads((tmp_path / "o" / "failure.json").read_text())
    assert record["failure"] == "config"
    assert record["messages"] == exc.value.errors


def test_converge_does_its_epsilon_free_work_once(tmp_path, monkeypatch):
    # load_config only parses; the command decomposes the 4096-point probe
    # once and once per ε, and integrates the run trajectory once for both
    # ε, which share dt = 1e-3 (the grid rule reads the same samples)
    import adiapack.experiments as experiments

    calls = {"decompose": 0, "integrate_trajectory": 0}
    for name in calls:
        def recording(*args, _name=name, _original=getattr(experiments, name),
                      **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, recording)
    load_config(CONFIGS / "smoke.json")
    assert calls == {"decompose": 0, "integrate_trajectory": 0}
    assert main(["converge", "--config", str(CONFIGS / "smoke.json"),
                 "--out", str(tmp_path / "o")]) == 0
    assert calls == {"decompose": 3, "integrate_trajectory": 1}
    # superpose: one trajectory per packet
    calls["integrate_trajectory"] = 0
    assert main(["superpose", "--config", str(two_packet_config(tmp_path)),
                 "--out", str(tmp_path / "s")]) == 0
    assert calls["integrate_trajectory"] == 2
    # rotating.json's four ε take three distinct dt and read one path
    calls["integrate_trajectory"] = 0
    setup = config_setup(load_config(CONFIGS / "rotating.json"))
    assert len({steps.dt for steps in setup.steps.values()}) == 3
    assert calls["integrate_trajectory"] == 1


def test_converge_builds_one_branch_curve_per_packet(monkeypatch):
    # the set-up builds each packet's branch curve once, and the runs read
    # λ, λ' and λ'' from its trajectory; every lane also built its own
    import adiapack.experiments as experiments

    calls = []

    def recording(*args, _original=experiments._branch_curve_for):
        calls.append(args[2])
        return _original(*args)

    monkeypatch.setattr(experiments, "_branch_curve_for", recording)
    cfg = load_config(CONFIGS / "rotating.json")
    experiments.convergence_study(replace(cfg, epsilons=[0.015625, 0.0078125]))
    assert calls == [0]


def test_epsilon_override_is_refused_where_no_epsilon_runs(tmp_path, capsys):
    # decompose and identities run at no ε: they exited 0 and ignored it
    for command in ("decompose", "identities"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(CONFIGS / "smoke.json"),
                  "--out", str(tmp_path / command),
                  "--epsilon-override", "banana"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --epsilon-override banana"
                in capsys.readouterr().err)


def test_converge_isolates_a_guard_that_trips_for_one_epsilon(tmp_path,
                                                              monkeypatch):
    # both ε share dt = 1e-3 and step together in one lockstep; the ε on the
    # 256-point grid trips the Fourier-tail guard at t = 0.05 and leaves it,
    # and the other ε finishes exactly as it does alone
    import adiapack.experiments as experiments
    from adiapack.errors import SolverAbort

    check = experiments.check_lab_field

    def trips_on_256(values, t):
        if values.shape[0] == 256 and t > 0.0:
            raise SolverAbort("synthetic Fourier tail")
        return check(values, t)

    smoke = str(CONFIGS / "smoke.json")
    solo = tmp_path / "solo"
    assert main(["converge", "--config", smoke, "--out", str(solo),
                 "--epsilon-override", "0.015625"]) == 0
    monkeypatch.setattr(experiments, "check_lab_field", trips_on_256)
    out = tmp_path / "out"
    assert main(["converge", "--config", smoke, "--out", str(out),
                 "--epsilon-override", "0.0625,0.015625"]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] == [[0.0625, "synthetic Fourier tail"]]
    alone = json.loads((solo / "report.json").read_text())
    assert report["runs"] == alone["runs"]
    assert report["runs"][0]["grid_n"] == 512
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[:2] == (solo / "convergence.csv").read_text().splitlines()[:2]


def test_every_run_option_reaches_the_run(tmp_path):
    # each of the six run options away from its default: the CLI's report
    # is the direct call's with the config's study, and the step size, envelope
    # window and lab grid show the values (the defaults give dt = 0.001,
    # 512 y-points and the rule's n = 256)
    path = write_config(tmp_path, **{"lambda": 1.0}, observe_every=0.05,
                        dt_max=4e-3, dt_over_epsilon=0.032, y_half_width=20.0,
                        y_points=256,
                        grid={"x_min": -4.0, "x_max": 4.0, "n": 512})
    cfg = load_config(path)
    defaults = RunOptions()
    assert all(getattr(cfg.options, f.name) != getattr(defaults, f.name)
               for f in fields(RunOptions))
    out = tmp_path / "out"
    assert main(["single", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    run = run_single_packet(cfg)
    assert report == json.loads(json.dumps({"command": "single",
                                            **run.to_dict()}))
    # dt = 0.05/k for the smallest k with dt ≤ min(4e-3, 0.032 ε) = 0.002
    assert report["dt"] == 0.002
    # ±10 of the ±20/256 y-grid holds the envelope
    assert report["y_points"] == 128
    assert report["grid_n"] == 512


def test_benchmark_checks_keep_the_run_option_defaults():
    # perfbench/checks.py predicts step counts from its own copy of three
    # defaults; read it by path, without importing or editing it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    checks = runpy.run_path(str(path))
    defaults = RunOptions()
    assert (checks["_DT_MAX"], checks["_DT_OVER_EPSILON"],
            checks["_OBSERVE_EVERY"]) == (defaults.dt_max,
                                          defaults.dt_over_epsilon,
                                          defaults.observe_every)


def test_unusable_output_directory_is_a_config_error(tmp_path, capsys):
    # a file at the output path, or above it, was a FileExistsError or a
    # NotADirectoryError traceback (exit 1); no failure.json can be written
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    for out in (blocker, blocker / "sub"):
        assert main(["decompose", "--config", str(CONFIGS / "smoke.json"),
                     "--out", str(out)]) == 2
        assert (f"cannot use {out} as the output directory"
                in capsys.readouterr().err)


@pytest.mark.parametrize("args", [
    ["converge", "--config", str(CONFIGS / "smoke.json")],
    ["superpose", "--config", str(CONFIGS / "superposition.json"),
     "--epsilon-override", "0.0625"]], ids=["converge", "superpose"])
def test_benchmark_tracer_finds_every_traced_callable(tmp_path, args):
    # perfbench/tracer.py binds the traced callables by name and parameter:
    # run it by path, without editing it, and compare with an untraced run
    root = CONFIGS.parent
    path = [str(root / "src")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans),
         *args, "--out", str(tmp_path / "traced")],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(spans.read_text())["missing"] == []
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    csvs = sorted((tmp_path / "plain").glob("*.csv"))
    assert csvs
    for csv in csvs:
        assert (tmp_path / "traced" / csv.name).read_bytes() == csv.read_bytes()
