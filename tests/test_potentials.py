import numpy as np
import pytest

from adiapack.errors import InvariantViolation
from adiapack.grids import make_grid
from adiapack.potentials import (MatrixPotentialSpec, decompose,
                                 evaluate_potential, gap_report, growth_scan,
                                 projector_identity_residuals)

JB_INV = "(1+x^2)^(-1/2)"


def constant_direction_family():
    """Two-level family with u = v: eigenvectors do not depend on x."""
    return MatrixPotentialSpec.from_strings(
        ["x^2/2", "x^2/2"], [JB_INV, JB_INV, f"-({JB_INV})"],
        gap_constants=(2.0 * np.sqrt(2.0), 1.0))


def rotating_family():
    """Two-level family whose eigenvector direction rotates at half the angle x."""
    return MatrixPotentialSpec.from_strings(
        ["x^2/2", "x^2/2"],
        [f"cos(x)*{JB_INV}", f"sin(x)*{JB_INV}", f"-cos(x)*{JB_INV}"],
        gap_constants=(2.0, 1.0))


def diagonal_family():
    return MatrixPotentialSpec.from_strings(["0", "1"], ["0", "0", "0"])


def test_example_family_value_at_zero():
    spec = constant_direction_family()
    v = evaluate_potential(spec, 0.0)
    assert np.allclose(v, [[1.0, 1.0], [1.0, -1.0]], atol=1e-15)


def test_scalar_harmonic_value():
    spec = MatrixPotentialSpec.from_strings(["x^2/2"], ["0"])
    assert evaluate_potential(spec, 2.0)[0, 0] == pytest.approx(2.0)


def test_potential_is_symmetric():
    spec = rotating_family()
    for x in (-2.3, 0.0, 1.7):
        v = evaluate_potential(spec, x)
        assert np.array_equal(v, v.T)


def test_potential_derivative_matches_finite_difference():
    spec = rotating_family()
    h = 1e-6
    for x in (-1.1, 0.4):
        fd = (evaluate_potential(spec, x + h) - evaluate_potential(spec, x - h)) / (2 * h)
        assert np.allclose(evaluate_potential(spec, x, 1), fd, atol=1e-8)


def test_decompose_constant_direction_branches():
    # eigenvalues x^2/2 ± sqrt(2)(1+x^2)^(-1/2)
    grid = make_grid(-10.0, 10.0, 512)
    data = decompose(constant_direction_family(), grid)
    x = grid.points
    amp = np.sqrt(2.0) / np.sqrt(1.0 + x**2)
    assert np.max(np.abs(data.branches[0] - (x**2 / 2.0 - amp))) < 1e-12
    assert np.max(np.abs(data.branches[1] - (x**2 / 2.0 + amp))) < 1e-12


def test_decompose_diagonal_constant_branches():
    grid = make_grid(-5.0, 5.0, 128)
    data = decompose(diagonal_family(), grid)
    assert np.max(np.abs(data.branches[0] - 0.0)) < 1e-14
    assert np.max(np.abs(data.branches[1] - 1.0)) < 1e-14
    assert np.allclose(np.abs(data.frames[0][:, :, 0]), [1.0, 0.0], atol=1e-14)
    assert np.allclose(np.abs(data.frames[1][:, :, 0]), [0.0, 1.0], atol=1e-14)


def test_decompose_rotating_eigenvector_matches_half_angle():
    grid = make_grid(-8.0, 8.0, 1024)
    data = decompose(rotating_family(), grid)
    x = grid.points
    v = evaluate_potential(data.spec, x)
    upper = data.branches[1]
    analytic = np.stack([np.cos(x / 2.0), np.sin(x / 2.0)], axis=1)
    # residual of the analytic candidate under the decomposed eigenvalue
    res = np.einsum("nab,nb->na", v, analytic) - upper[:, None] * analytic
    assert np.max(np.abs(res)) < 1e-10
    # and the tracked frame agrees with it up to a global sign
    frame = data.frames[1][:, :, 0]
    sign = np.sign(np.sum(frame * analytic, axis=1))
    assert np.max(np.abs(frame - sign[:, None] * analytic)) < 1e-10
    assert np.all(sign == sign[0])  # sign is continuous, hence constant


def test_spectral_invariants():
    grid = make_grid(-10.0, 10.0, 512)
    for spec in (constant_direction_family(), rotating_family(), diagonal_family()):
        data = decompose(spec, grid)
        total = data.projectors.sum(axis=0)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12
        prod = np.einsum("nab,nbc->nac", data.projectors[0], data.projectors[1])
        assert np.max(np.abs(prod)) < 1e-11
        v = evaluate_potential(spec, grid.points)
        for lam, pi in zip(data.branches, data.projectors):
            res = np.einsum("nab,nbc->nac", v, pi) - lam[:, None, None] * pi
            assert np.max(np.abs(res)) < 1e-10
        # idempotent and symmetric projectors
        for pi in data.projectors:
            assert np.max(np.abs(np.einsum("nab,nbc->nac", pi, pi) - pi)) < 1e-12
            assert np.max(np.abs(pi - pi.transpose(0, 2, 1))) < 1e-12


def test_branch_continuity_through_crossing():
    # diagonal entries x and -x cross at the origin; tracking keeps the
    # smooth renumbering (branches are straight lines, not sorted kinks)
    spec = MatrixPotentialSpec.from_strings(["x", "-x"], ["0", "0", "0"])
    grid = make_grid(-4.0, 4.0, 256)
    data = decompose(spec, grid)
    jumps = [np.max(np.abs(np.diff(lam))) for lam in data.branches]
    assert max(jumps) <= (1.0 + 1.0) * grid.spacing  # |λ'| = 1 on both lines
    assert np.max(np.abs(np.abs(data.branches[0]) - np.abs(grid.points))) < 1e-13


def test_declared_multiplicity_grouping():
    spec = MatrixPotentialSpec.from_strings(["x^2/2", "x^2/2"], ["0", "0", "0"],
                                            multiplicities=(2,))
    grid = make_grid(-3.0, 3.0, 128)
    data = decompose(spec, grid)
    assert data.n_branches == 1
    assert data.multiplicities == (2,)
    gram = np.einsum("nal,nam->nlm", data.frames[0], data.frames[0])
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12
    assert np.max(np.abs(data.projectors[0] - np.eye(2))) < 1e-12


def test_multiplicity_mismatch_fails_loudly():
    spec = MatrixPotentialSpec.from_strings(["x^2/2", "x^2/2"], ["0", "0", "0"],
                                            multiplicities=(1, 1))
    with pytest.raises(InvariantViolation, match="multiplicities"):
        decompose(spec, make_grid(-3.0, 3.0, 128))


def test_gap_report_rotating_family():
    grid = make_grid(-20.0, 20.0, 2048)
    data = decompose(rotating_family(), grid)
    rep = gap_report(data, 0, 1)
    assert rep.fitted_n0 == pytest.approx(1.0, abs=0.05)
    assert rep.fitted_c0 == pytest.approx(2.0, abs=0.1)
    assert not rep.violated


def test_gap_report_constant_direction_amplitude():
    grid = make_grid(-20.0, 20.0, 2048)
    data = decompose(constant_direction_family(), grid)
    rep = gap_report(data, 0, 1)
    assert rep.fitted_c0 == pytest.approx(2.0 * np.sqrt(2.0), abs=0.1)


def test_gap_report_diagonal():
    grid = make_grid(-20.0, 20.0, 512)
    data = decompose(diagonal_family(), grid)
    rep = gap_report(data, 0, 1)
    assert rep.min_gap == pytest.approx(1.0)
    assert rep.fitted_n0 == pytest.approx(0.0, abs=1e-12)


def test_gap_report_rejects_same_branch():
    grid = make_grid(-5.0, 5.0, 128)
    data = decompose(diagonal_family(), grid)
    with pytest.raises(ValueError):
        gap_report(data, 1, 1)


def test_identity_residuals_vanish_for_constant_direction():
    res = projector_identity_residuals(constant_direction_family(), 0.7, 1e-2)
    assert res.max < 1e-12


def test_identity_residuals_vanish_for_diagonal():
    res = projector_identity_residuals(diagonal_family(), 0.3, 1e-2)
    assert res.max < 1e-12


def test_identity_residuals_second_order_in_h():
    spec = rotating_family()
    coarse = projector_identity_residuals(spec, 0.3, 1e-2)
    fine = projector_identity_residuals(spec, 0.3, 5e-3)
    for name in ("sandwich", "leibniz", "offdiag_expansion", "gap_right", "gap_left"):
        c, f = getattr(coarse, name), getattr(fine, name)
        if f < 1e-13:
            assert c < 1e-12
        else:
            assert c / f == pytest.approx(4.0, abs=1.0)


def test_growth_scan_rotating_gamma():
    # |γ| = ⟨x⟩/2 against ⟨x⟩^{n0}, n0 = 1: the ratio is 1/2 everywhere
    spec = rotating_family()
    scan = growth_scan(spec, 0, 1, 0, np.linspace(-20.0, 20.0, 41))
    assert scan.max_gamma_ratio == pytest.approx(0.5, abs=1e-10)
    assert np.all(scan.gamma_ratios <= 0.5 + 1e-10)


def test_growth_scan_rotating_projector_derivative():
    # ‖∂Π‖ = 1/2 for the half-angle rotation vs the bound ⟨x⟩²
    spec = rotating_family()
    xs = np.linspace(-10.0, 10.0, 21)
    scan = growth_scan(spec, 1, 0, 1, xs)
    assert scan.projector_ratios[np.argmin(np.abs(xs))] == pytest.approx(
        scan.max_projector_ratio)
    assert scan.max_projector_ratio == pytest.approx(0.5, abs=1e-4)
    # ratios decrease away from the origin
    assert scan.projector_ratios[0] < 0.1 * scan.max_projector_ratio


def test_growth_scan_diagonal_derivatives_vanish():
    spec = diagonal_family()
    for beta in (1, 2):
        scan = growth_scan(spec, 0, 1, beta, np.linspace(-5.0, 5.0, 11), n0=0.0)
        assert scan.max_gamma_ratio < 1e-9
        assert scan.max_projector_ratio < 1e-9


def test_growth_scan_requires_n0():
    with pytest.raises(ValueError):
        growth_scan(diagonal_family(), 0, 1, 0, [0.0])


def test_gap_report_flags_exact_crossing():
    spec = MatrixPotentialSpec.from_strings(["x", "-x"], ["0", "0", "0"])
    grid = make_grid(-4.0, 4.0, 256)  # x = 0 is a grid point
    data = decompose(spec, grid)
    rep = gap_report(data, 0, 1)
    assert rep.min_gap == 0.0
    assert rep.violated
