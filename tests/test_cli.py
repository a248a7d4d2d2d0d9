import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adiapack.cli import main
from adiapack.config import load_config
from adiapack.errors import ConfigError
from adiapack.experiments import (PacketSpec, run_single_packet, study_setup,
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


def config_setup(cfg):
    """The study set-up of all the config's packets, as `superpose` builds it."""
    return study_setup(cfg.potential, cfg.packets, cfg.epsilons,
                       cfg.lambda_coupling, cfg.T, cfg.x_min, cfg.x_max,
                       cfg.y_half_width, cfg.y_points, cfg.n_override)


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
    # ε = 4 pushes the packet onto the boundary; ε = 1/32 still runs
    out = tmp_path / "out"
    code = main(["converge", "--config", str(CONFIGS / "smoke.json"),
                 "--out", str(out), "--epsilon-override", "4.0,0.03125"])
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["epsilons"] == [0.03125]
    assert [eps for eps, _ in report["failures"]] == [4.0]
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
        kwargs = dict(observe_every=0.05, y_half_width=half_width)
        runs = (lambda: run_single_packet(spec, pk[0], 0.0625, 0.0, 0.5, -4.0,
                                          4.0, **kwargs),
                lambda: superposition_experiment(spec, pk, [0.0625], 0.0, 0.5,
                                                 -4.0, 4.0, **kwargs))
        for run in runs:
            with pytest.raises(ConfigError, match="y-domain edge") as exc:
                run()
            assert exc.value.exit_code == 2
    assert set(sizes) == {4096}


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
    # an override must give at least one finite, positive ε before any run
    cases = [("superpose", write_config(tmp_path, packets=[same, same]), [],
              "must differ"),
             ("converge", ok, ["--epsilon-override", "0.0625,abc"],
              "--epsilon-override")]
    cases += [(command, ok, ["--epsilon-override", value],
               "--epsilon-override")
              for command in ("single", "converge")
              for value in (",", "0", "-0.01", "nan", "inf", "0.0625,-1")]
    for i, (command, path, extra, message) in enumerate(cases):
        out = tmp_path / f"{command}{i}"
        assert main([command, "--config", str(path), "--out", str(out)]
                    + extra) == 2
        assert message in capsys.readouterr().err
        record = json.loads((out / "failure.json").read_text())
        assert record["failure"] == "config"


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
    # and integrates the probe trajectory once, decomposes once per ε, and
    # integrates the run trajectory once for both ε, which share dt = 1e-3
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
    assert calls == {"decompose": 3, "integrate_trajectory": 2}


def test_converge_isolates_a_guard_that_trips_for_one_epsilon(tmp_path,
                                                              monkeypatch):
    # both ε share dt = 1e-3, so they march in one lockstep; the ε on the
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
