"""Matrix-valued potentials V(x) = D(x) + W(x) and their spectral geometry.

D is diagonal with at-most-quadratic entries, W is bounded symmetric; both are
given as expressions in x.  `decompose` produces smoothly tracked eigenvalue
branches λ_j(x), orthonormal eigenframes, and spectral projectors Π_j(x) on a
grid, renumbering branches across crossings by eigenvector overlap so that
each branch stays continuous in x.

The module also ships consistency suites for the projector calculus:

    Π_j (∂Π_j) Π_j = 0
    ∂Π_j = (∂Π_j) Π_j + Π_j (∂Π_j)
    ∂Π_j = Σ_k ( Π_k (∂Π_j) Π_j + Π_j (∂Π_j) Π_k )
    (λ_j − λ_k) (∂Π_j) Π_k = Π_j (∂V − ∂λ_j) Π_k      (and its left variant)

plus growth scans for the inverse gap γ_{j,k} = (λ_k − λ_j)^{-1} and the
projector derivatives against the weights ⟨x⟩^{n0+β(1+n0)} and ⟨x⟩^{β(1+n0)}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BranchTrackingError, InvariantViolation
from .expressions import Expr, parse_expr
from .grids import SpatialGrid

__all__ = [
    "MatrixPotentialSpec",
    "SpectralData",
    "GapReport",
    "IdentityResiduals",
    "GrowthScan",
    "evaluate_potential",
    "evaluate_potential_derivative",
    "decompose",
    "gap_report",
    "gamma",
    "gamma_values",
    "projector_identity_residuals",
    "growth_scan",
    "d_projectors",
]

_GROUP_TOL = 1e-10  # max branch distance inside a declared multiplet


@dataclass(frozen=True)
class MatrixPotentialSpec:
    """Symbolic N×N potential: diagonal part D plus symmetric part W.

    `diag` holds the N diagonal entries of D; `sym` holds the upper triangle
    of W row by row (N(N+1)/2 entries).  `multiplicities` optionally declares
    the intended eigenvalue multiplicities d_1..d_P; `gap_constants` optionally
    declares (c0, n0) for the gap lower bound c0·⟨x⟩^(-n0).
    """

    n_levels: int
    diag: tuple
    sym: tuple
    multiplicities: tuple | None = None
    gap_constants: tuple | None = None

    def __post_init__(self):
        n = self.n_levels
        if len(self.diag) != n:
            raise ValueError(f"need {n} diagonal entries, got {len(self.diag)}")
        if len(self.sym) != n * (n + 1) // 2:
            raise ValueError(
                f"need {n * (n + 1) // 2} symmetric entries, got {len(self.sym)}"
            )
        if self.multiplicities is not None and sum(self.multiplicities) != n:
            raise ValueError("declared multiplicities must sum to n_levels")

    @classmethod
    def from_strings(cls, diag, sym, multiplicities=None, gap_constants=None):
        return cls(
            n_levels=len(diag),
            diag=tuple(e if isinstance(e, Expr) else parse_expr(e) for e in diag),
            sym=tuple(e if isinstance(e, Expr) else parse_expr(e) for e in sym),
            multiplicities=None if multiplicities is None else tuple(multiplicities),
            gap_constants=None if gap_constants is None else tuple(gap_constants),
        )


def _sym_index_pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _assemble(entries_diag, entries_sym, n, shape):
    v = np.zeros(shape + (n, n))
    for i, e in enumerate(entries_diag):
        v[..., i, i] += e
    for (i, j), e in zip(_sym_index_pairs(n), entries_sym):
        v[..., i, j] += e
        if i != j:
            v[..., j, i] += e
    return v


def evaluate_potential(spec: MatrixPotentialSpec, x) -> np.ndarray:
    """Evaluate V(x); returns (N, N) for scalar x, (m, N, N) for an array."""
    x = np.asarray(x, dtype=float)
    dvals = [np.broadcast_to(e(x), x.shape) if x.ndim else e(x) for e in spec.diag]
    svals = [np.broadcast_to(e(x), x.shape) if x.ndim else e(x) for e in spec.sym]
    return _assemble(dvals, svals, spec.n_levels, x.shape)


def evaluate_potential_derivative(spec: MatrixPotentialSpec, x) -> np.ndarray:
    """Entrywise analytic derivative V'(x)."""
    x = np.asarray(x, dtype=float)
    dvals = [np.broadcast_to(e.diff()(x), x.shape) if x.ndim else e.diff()(x)
             for e in spec.diag]
    svals = [np.broadcast_to(e.diff()(x), x.shape) if x.ndim else e.diff()(x)
             for e in spec.sym]
    return _assemble(dvals, svals, spec.n_levels, x.shape)


def _track_branches(xs, vals, vecs, overlap_floor=0.5):
    """Reorder eigenpairs so branches are continuous in x, signs included.

    Matching is by maximal eigenvector overlap with the previous point (greedy
    on the magnitude of the overlap matrix), falling back to nearest-eigenvalue
    matching when the overlap is ambiguous; signs are flipped for continuity.
    The greedy matching first runs for all points at once on the batched
    |V_(i-1)ᵀ V_i| of eigh's own columns.  When every point keeps eigh's order,
    the sign of each column is the running product of the overlap signs (one
    `cumprod`); otherwise the point-by-point loop `_track_branches_loop`
    tracks the grid.  Both make the same matches and sign flips, so their
    arrays agree to the bit (the tests check every shipped config).
    """
    m, n = vals.shape
    if m > 1:
        overlap = np.matmul(vecs[:-1].transpose(0, 2, 1), vecs[1:])
        if _keeps_order(np.abs(overlap), overlap_floor):
            steps = np.sign(np.diagonal(overlap, axis1=1, axis2=2))
            signs = np.cumprod(np.concatenate([np.ones((1, n)), steps]), axis=0)
            return vals.copy(), vecs * signs[:, None, :]
    return _track_branches_loop(xs, vals, vecs, overlap_floor)


def _keeps_order(overlap, overlap_floor):
    """Whether the greedy matching of every (m, N, N) overlap is the identity.

    The same N rounds as the loop's matching, each an argmax over all points
    at once; an overlap below the floor counts as a change of order.  The
    rounds mask matched rows and columns in `overlap` itself.
    """
    m, n, _ = overlap.shape
    flat = overlap.reshape(m, n * n)
    rows = np.arange(m)
    for _ in range(n):
        k = np.argmax(flat, axis=1)
        a, b = np.divmod(k, n)
        if (flat[rows, k] < overlap_floor).any() or (a != b).any():
            return False
        overlap[rows, a, :] = -1.0
        overlap[rows, :, b] = -1.0
    return True


def _track_branches_loop(xs, vals, vecs, overlap_floor=0.5):
    """`_track_branches` one point at a time, for grids where the order changes."""
    m, n = vals.shape
    out_vals = vals.copy()
    out_vecs = vecs.copy()
    for i in range(1, m):
        prev = out_vecs[i - 1]
        cur_vals, cur_vecs = out_vals[i], out_vecs[i]
        overlap = np.abs(prev.T @ cur_vecs)
        perm = np.full(n, -1)
        used = np.zeros(n, dtype=bool)
        work = overlap.copy()
        for _ in range(n):
            a, b = np.unravel_index(np.argmax(work), work.shape)
            if work[a, b] < overlap_floor:
                break
            perm[a] = b
            used[b] = True
            work[a, :] = -1.0
            work[:, b] = -1.0
        if (perm < 0).any():
            # ambiguous overlap: match leftover branches by eigenvalue proximity
            left_rows = np.where(perm < 0)[0]
            left_cols = np.where(~used)[0]
            prev_vals = out_vals[i - 1][left_rows]
            order = np.argsort(prev_vals)
            col_order = left_cols[np.argsort(cur_vals[left_cols])]
            for r, c in zip(left_rows[order], col_order):
                if len(left_cols) > 1:
                    gaps = np.abs(cur_vals[left_cols] - out_vals[i - 1][r])
                    gaps.sort()
                    if gaps[1] - gaps[0] < 1e-14:
                        raise BranchTrackingError(xs[i])
                perm[r] = c
        out_vals[i] = cur_vals[perm]
        out_vecs[i] = cur_vecs[:, perm]
        signs = np.sign(np.einsum("na,na->a", prev, out_vecs[i]))
        signs[signs == 0] = 1.0
        out_vecs[i] *= signs
    return out_vals, out_vecs


def _group_branches(xs, vals, multiplicities):
    """Group tracked simple branches into declared multiplets.

    Branches are merged when their pairwise distance stays below 1e-10 over
    the whole sweep; the result must reproduce the declared multiplicities.
    """
    n = vals.shape[1]
    if multiplicities is None:
        multiplicities = (1,) * n
    groups = []
    current = [0]
    for b in range(1, n):
        if np.max(np.abs(vals[:, b] - vals[:, current[-1]])) < _GROUP_TOL:
            current.append(b)
        else:
            groups.append(current)
            current = [b]
    groups.append(current)
    found = tuple(len(g) for g in groups)
    if found != tuple(multiplicities):
        raise InvariantViolation(
            f"declared multiplicities {tuple(multiplicities)} do not match the "
            f"grouping {found} found on the grid"
        )
    return groups


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Tracked eigendecomposition of V on a grid.

    branches[j] is λ_j on the grid; frames[j] is an (n, N, d_j) array of
    orthonormal eigenvectors; projectors[j] is (n, N, N).
    """

    spec: MatrixPotentialSpec
    grid: SpatialGrid
    branches: list = field(repr=False)
    frames: list = field(repr=False)
    projectors: np.ndarray = field(repr=False)
    multiplicities: tuple = ()

    @property
    def n_branches(self) -> int:
        return len(self.branches)


def decompose(spec: MatrixPotentialSpec, grid: SpatialGrid) -> SpectralData:
    """Eigendecompose V on the grid with smooth branch renumbering.

    One batched `eigh` over the grid; `_track_branches` then matches and signs
    the columns for all points at once, point by point only where eigh's order
    of the eigenvalues changes along the grid.  Declared multiplicities d_j > 1 group branches whose distance stays below
    1e-10 on the whole grid; in-group frames are reorthonormalized by QR with
    a deterministic sign convention.
    """
    v = evaluate_potential(spec, grid.points)
    raw_vals, raw_vecs = np.linalg.eigh(v)
    vals, vecs = _track_branches(grid.points, raw_vals, raw_vecs)
    groups = _group_branches(grid.points, vals, spec.multiplicities)

    branches, frames = [], []
    projectors = np.zeros((len(groups), grid.n, spec.n_levels, spec.n_levels))
    for j, g in enumerate(groups):
        branches.append(vals[:, g].mean(axis=1))
        cols = vecs[:, :, g]
        if len(g) > 1:
            q, r = np.linalg.qr(cols)
            signs = np.sign(np.einsum("nii->ni", r))
            signs[signs == 0] = 1.0
            cols = q * signs[:, None, :]
        frames.append(cols)
        projectors[j] = np.einsum("nak,nbk->nab", cols, cols)

    data = SpectralData(spec=spec, grid=grid, branches=branches, frames=frames,
                        projectors=projectors,
                        multiplicities=tuple(len(g) for g in groups))
    _validate_spectral(data, v)
    return data


def _validate_spectral(data: SpectralData, v: np.ndarray):
    total = data.projectors.sum(axis=0)
    eye = np.eye(data.spec.n_levels)
    if np.max(np.abs(total - eye)) > 1e-11:
        raise InvariantViolation("projector completeness failed")
    for lam, pi in zip(data.branches, data.projectors):
        res = np.einsum("nab,nbc->nac", v, pi) - lam[:, None, None] * pi
        if np.max(np.abs(res)) > 1e-9:
            raise InvariantViolation("eigen-residual VΠ - λΠ too large")


@dataclass(frozen=True)
class GapReport:
    min_gap: float
    fitted_c0: float
    fitted_n0: float
    violated: bool


def gap_report(data: SpectralData, j: int, k: int) -> GapReport:
    """Minimum gap |λ_j − λ_k| on the grid and a power-law fit gap ≈ c0·⟨x⟩^(-n0)."""
    if j == k:
        raise ValueError("gap_report needs two distinct branches")
    gap = np.abs(data.branches[j] - data.branches[k])
    min_gap = float(gap.min())
    if min_gap == 0.0:
        return GapReport(min_gap=0.0, fitted_c0=0.0, fitted_n0=0.0, violated=True)
    logw = np.log(np.hypot(1.0, data.grid.points))
    a = np.stack([np.ones_like(logw), -logw], axis=1)
    coef, *_ = np.linalg.lstsq(a, np.log(gap), rcond=None)
    return GapReport(min_gap=min_gap, fitted_c0=float(np.exp(coef[0])),
                     fitted_n0=float(coef[1]), violated=False)


def gamma_values(data: SpectralData, j: int, k: int) -> np.ndarray:
    """Inverse gap γ_{j,k} = (λ_k − λ_j)^(-1) on the whole grid."""
    if j == k:
        raise ValueError("gamma needs two distinct branches")
    diff = data.branches[k] - data.branches[j]
    if np.any(diff == 0.0):
        i = int(np.argmin(np.abs(diff)))
        raise ZeroDivisionError(f"zero gap between branches at x = {data.grid.points[i]}")
    return 1.0 / diff


def gamma(data: SpectralData, j: int, k: int, x_index: int) -> float:
    if j == k:
        raise ValueError("gamma needs two distinct branches")
    diff = data.branches[k][x_index] - data.branches[j][x_index]
    if diff == 0.0:
        raise ZeroDivisionError(
            f"zero gap between branches at x = {data.grid.points[x_index]}"
        )
    return float(1.0 / diff)


def _local_spectral(spec: MatrixPotentialSpec, xs):
    """Tracked branches/projectors at a short ordered sequence of points."""
    xs = np.asarray(xs, dtype=float)
    v = evaluate_potential(spec, xs)
    raw_vals, raw_vecs = np.linalg.eigh(v)
    vals, vecs = _track_branches(xs, raw_vals, raw_vecs)
    groups = _group_branches(xs, vals, spec.multiplicities)
    lam = np.stack([vals[:, g].mean(axis=1) for g in groups], axis=0)
    pis = np.stack(
        [np.einsum("nak,nbk->nab", vecs[:, :, g], vecs[:, :, g]) for g in groups],
        axis=0,
    )
    return lam, pis  # shapes (P, m), (P, m, N, N)


@dataclass(frozen=True)
class IdentityResiduals:
    """Spectral norms of the five projector-calculus identities at one point."""

    x: float
    h: float
    sandwich: float          # ‖Π (∂Π) Π‖
    leibniz: float           # ‖∂Π − (∂Π)Π − Π(∂Π)‖
    offdiag_expansion: float  # ‖∂Π − Σ_k(Π_k ∂Π Π + Π ∂Π Π_k)‖
    gap_right: float         # ‖(λ_j−λ_k)(∂Π_j)Π_k − Π_j(∂V−∂λ_j)Π_k‖
    gap_left: float          # ‖(λ_j−λ_k)Π_k(∂Π_j) − Π_k(∂V−∂λ_j)Π_j‖

    @property
    def max(self) -> float:
        return max(self.sandwich, self.leibniz, self.offdiag_expansion,
                   self.gap_right, self.gap_left)


def projector_identity_residuals(spec: MatrixPotentialSpec, x: float,
                                 h: float) -> IdentityResiduals:
    """Check the projector identities with central-difference derivatives.

    ∂Π and ∂λ come from central differences of the eigendecomposition at
    x ± h; ∂V is analytic.  All residuals are O(h²) on smooth families and
    vanish to roundoff when the eigenvectors do not depend on x.
    """
    lam, pis = _local_spectral(spec, [x - h, x, x + h])
    p_count = lam.shape[0]
    gaps = [abs(lam[j, 1] - lam[k, 1]) for j in range(p_count)
            for k in range(p_count) if j != k]
    if gaps and min(gaps) < 1e-12:
        raise InvariantViolation(f"degenerate gap at x = {x}")

    dpi = (pis[:, 2] - pis[:, 0]) / (2.0 * h)
    dlam = (lam[:, 2] - lam[:, 0]) / (2.0 * h)
    pi0 = pis[:, 1]
    dv = evaluate_potential_derivative(spec, x)

    def mnorm(m):
        return float(np.linalg.norm(m, ord=2))

    sandwich = max(mnorm(pi0[j] @ dpi[j] @ pi0[j]) for j in range(p_count))
    leibniz = max(mnorm(dpi[j] - dpi[j] @ pi0[j] - pi0[j] @ dpi[j])
                  for j in range(p_count))
    expansion = max(
        mnorm(dpi[j] - sum(pi0[k] @ dpi[j] @ pi0[j] + pi0[j] @ dpi[j] @ pi0[k]
                           for k in range(p_count)))
        for j in range(p_count)
    )
    gr, gl = 0.0, 0.0
    for j in range(p_count):
        for k in range(p_count):
            if j == k:
                continue
            dgap = lam[j, 1] - lam[k, 1]
            rhs = dv - dlam[j] * np.eye(spec.n_levels)
            gr = max(gr, mnorm(dgap * dpi[j] @ pi0[k] - pi0[j] @ rhs @ pi0[k]))
            gl = max(gl, mnorm(dgap * pi0[k] @ dpi[j] - pi0[k] @ rhs @ pi0[j]))
    return IdentityResiduals(x=x, h=h, sandwich=sandwich, leibniz=leibniz,
                             offdiag_expansion=expansion, gap_right=gr, gap_left=gl)


@dataclass(frozen=True, eq=False)
class GrowthScan:
    """Ratios of |∂^β γ| and ‖∂^β Π_j‖ against their polynomial weights."""

    beta: int
    n0: float
    x_samples: np.ndarray
    gamma_ratios: np.ndarray
    projector_ratios: np.ndarray

    @property
    def max_gamma_ratio(self) -> float:
        return float(self.gamma_ratios.max())

    @property
    def max_projector_ratio(self) -> float:
        return float(self.projector_ratios.max())


def growth_scan(spec: MatrixPotentialSpec, j: int, k: int, beta: int,
                x_samples, n0: float | None = None, h: float = 1e-3) -> GrowthScan:
    """Scan |∂^β γ_{j,k}| / ⟨x⟩^(n0+β(1+n0)) and ‖∂^β Π_j‖ / ⟨x⟩^(β(1+n0)).

    Bounded ratios out to the domain edge are the numerical signature of the
    polynomial growth bounds implied by the gap condition.
    """
    if beta not in (0, 1, 2):
        raise ValueError("beta must be 0, 1, or 2")
    if n0 is None:
        if spec.gap_constants is None:
            raise ValueError("growth_scan needs a declared or explicit n0")
        n0 = spec.gap_constants[1]
    xs = np.asarray(x_samples, dtype=float)
    g_ratios = np.empty(xs.shape)
    p_ratios = np.empty(xs.shape)
    for i, x in enumerate(xs):
        lam, pis = _local_spectral(spec, [x - h, x, x + h])
        gam = 1.0 / (lam[k] - lam[j])
        if beta == 0:
            dg = gam[1]
            dp = pis[j, 1]
        elif beta == 1:
            dg = (gam[2] - gam[0]) / (2.0 * h)
            dp = (pis[j, 2] - pis[j, 0]) / (2.0 * h)
        else:
            dg = (gam[2] - 2.0 * gam[1] + gam[0]) / h**2
            dp = (pis[j, 2] - 2.0 * pis[j, 1] + pis[j, 0]) / h**2
        w = np.hypot(1.0, x)
        g_ratios[i] = abs(dg) / w ** (n0 + beta * (1.0 + n0))
        p_ratios[i] = np.linalg.norm(dp, ord=2) / w ** (beta * (1.0 + n0))
    return GrowthScan(beta=beta, n0=float(n0), x_samples=xs,
                      gamma_ratios=g_ratios, projector_ratios=p_ratios)


def d_projectors(data: SpectralData) -> np.ndarray:
    """Exact ∂Π_j on the grid via the gap formula.

    ∂Π_j = Σ_{k≠j} (Π_j ∂V Π_k + Π_k ∂V Π_j) / (λ_j − λ_k), with ∂V analytic;
    this avoids stencil error entirely and is used to build transport
    generators.
    """
    dv = evaluate_potential_derivative(data.spec, data.grid.points)
    p_count = data.n_branches
    out = np.zeros_like(data.projectors)
    for j in range(p_count):
        for k in range(p_count):
            if j == k:
                continue
            denom = (data.branches[j] - data.branches[k])[:, None, None]
            cross = np.einsum("nab,nbc,ncd->nad", data.projectors[j], dv,
                              data.projectors[k])
            out[j] += (cross + cross.transpose(0, 2, 1)) / denom
    return out
