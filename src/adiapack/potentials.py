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

and growth scans (`growth_scan`) of the inverse gap γ_{j,k} = (λ_k − λ_j)^{-1}
and ∂^β Π_j against the weights ⟨x⟩^{n0+β(1+n0)}, ⟨x⟩^{β(1+n0)}, each from
the tracked spectrum on a 3-point stencil x ± h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DECOMPOSITION_RESIDUAL, PROJECTOR_COMPLETENESS, \
    BranchTrackingError, ConfigError, InvariantViolation
from .expressions import Expr, parse_expr
from .grids import SpatialGrid, UniformCubicSpline

__all__ = [
    "MatrixPotentialSpec",
    "SpectralData",
    "GapReport",
    "IdentityResiduals",
    "GrowthScan",
    "evaluate_potential",
    "decompose",
    "branch_spline",
    "gap_report",
    "projector_identity_residuals",
    "growth_scan",
    "d_projectors",
    "orthonormalize",
]

_GROUP_TOL = 1e-10  # max branch distance inside a declared multiplet
_OVERLAP_FLOOR = 0.5  # |overlap| below which a branch match is ambiguous


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


def evaluate_potential(spec: MatrixPotentialSpec, x,
                       nu: int = 0) -> np.ndarray:
    """V(x), or with nu = 1 or 2 its entrywise analytic derivative: (N, N)
    for scalar x, (m, N, N) for an array.  An entry that is not finite at
    some x is a `ConfigError` naming its config key."""
    x = np.asarray(x, dtype=float)
    n = spec.n_levels
    v = np.zeros(x.shape + (n, n))
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n)
                                          for j in range(i, n)]
    keys = [f"diag[{i}]" for i in range(n)] + [f"sym[{k}]" for k in
                                               range(len(spec.sym))]
    for (i, j), e, key in zip(pairs, (*spec.diag, *spec.sym), keys):
        with np.errstate(all="ignore"):   # a non-finite value is refused
            val = e(x, nu)                 # every tree keeps x's shape
        if not np.isfinite(val).all():
            raise ConfigError(
                f"potential.{key}{'' if nu == 0 else f' (derivative {nu})'} "
                f"is not finite at x = {float(x[~np.isfinite(val)][0])!r}")
        v[..., i, j] += val
        if i != j:
            v[..., j, i] += val
    return v


def _track_branches(xs, vals, vecs):
    """Reorder eigh's (m, N) pairs along the points xs so that each branch is
    continuous in x, signs included.

    Each branch follows its eigenvector to the column of largest overlap at
    the next point: N greedy rounds on the batched |V_(i-1)ᵀ V_i| of eigh's
    own columns, for all points at once, where a round whose best overlap is
    below the floor leaves its row unmatched (later rounds can only be lower).
    The one walk visits only the points whose match is not the identity or
    leaves a row unmatched, where it composes the branch -> column order and
    matches the unmatched rows by eigenvalue proximity to the previous point,
    an exact tie being a `BranchTrackingError`; between them the order holds.
    Each column's sign is the running product of the signs of its overlaps
    with the previous point (one `cumprod`), restarting at +1 after an
    overlap of exactly 0, which only a proximity match can have.
    """
    m, n = vals.shape
    overlap = np.matmul(vecs[:-1].transpose(0, 2, 1), vecs[1:])
    work = np.abs(overlap)
    match = np.full((m - 1, n), -1)      # eigh's column at i -> at i + 1, or -1
    at = np.arange(m - 1)
    for _ in range(n):
        a, b = np.divmod(np.argmax(work.reshape(m - 1, n * n), axis=1), n)
        hit = work[at, a, b] >= _OVERLAP_FLOOR
        match[at[hit], a[hit]] = b[hit]
        work[at, a, :] = -1.0
        work[at, :, b] = -1.0
    order = np.tile(np.arange(n), (m, 1))  # branch -> eigh's column
    walk = np.flatnonzero((match != np.arange(n)).any(axis=1)) + 1
    for i, end in zip(walk, [*walk[1:], m]):
        perm = match[i - 1][order[i - 1]]
        prev_vals = vals[i - 1][order[i - 1]]
        left_rows = np.flatnonzero(perm < 0)
        left_cols = np.setdiff1d(np.arange(n), perm)
        col_order = left_cols[np.argsort(vals[i][left_cols])]
        for r, c in zip(left_rows[np.argsort(prev_vals[left_rows])], col_order):
            if len(left_cols) > 1:
                gaps = np.sort(np.abs(vals[i][left_cols] - prev_vals[r]))
                if gaps[1] - gaps[0] < 1e-14:
                    raise BranchTrackingError(xs[i])
            perm[r] = c
        order[i:end] = perm
    out_vals = np.take_along_axis(vals, order, axis=1)
    out_vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    steps = np.ones((m, n))
    steps[1:] = np.sign(overlap[at[:, None], order[:-1], order[1:]])
    # a proximity match's overlap can be within roundoff of 0, where the sign
    # of the batched matmul need not be that of the columns' own dot product
    for i in walk:
        steps[i] = np.sign(np.einsum("na,na->a", out_vecs[i - 1], out_vecs[i]))
    restart = np.maximum.accumulate(
        np.where(steps == 0, np.arange(m)[:, None], 0), axis=0)
    signs = np.cumprod(np.where(steps == 0, 1.0, steps), axis=0)
    signs *= np.take_along_axis(signs, restart, axis=0)
    return out_vals, out_vecs * signs[:, None, :]


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


def _tracked_spectrum(spec: MatrixPotentialSpec, xs):
    """(V, (P, m) branches λ_j, frames, (P, m, N, N) projectors Π_j) at the
    ordered points xs: eigh's pairs tracked along xs (`_track_branches`) and
    grouped into the declared multiplets, whose frames are reorthonormalized."""
    xs = np.asarray(xs, dtype=float)
    v = evaluate_potential(spec, xs)
    vals, vecs = _track_branches(xs, *np.linalg.eigh(v))
    groups = _group_branches(xs, vals, spec.multiplicities)
    branches = np.stack([vals[:, g].mean(axis=1) for g in groups])
    frames = [orthonormalize(vecs[:, :, g]) if len(g) > 1 else vecs[:, :, g]
              for g in groups]
    projectors = np.stack([np.einsum("nak,nbk->nab", f, f) for f in frames])
    return v, branches, frames, projectors


def orthonormalize(cols: np.ndarray) -> np.ndarray:
    """QR of each point's (N, d) columns in the (m, N, d) array `cols`, with
    the deterministic sign convention: each column is signed so that the
    real part of R's diagonal is nonnegative."""
    q, r = np.linalg.qr(cols)
    signs = np.sign(np.real(np.einsum("nii->ni", r)))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Tracked eigendecomposition of V on a grid.

    branches[j] is λ_j on the grid, a row of a (P, n) array; frames[j] is an
    (n, N, d_j) array of orthonormal eigenvectors; projectors[j] is (n, N, N).
    """

    spec: MatrixPotentialSpec
    grid: SpatialGrid
    branches: np.ndarray = field(repr=False)
    frames: list = field(repr=False)
    projectors: np.ndarray = field(repr=False)
    multiplicities: tuple = ()

    @property
    def n_branches(self) -> int:
        return len(self.branches)


def branch_spline(data: SpectralData, j: int) -> UniformCubicSpline:
    """The not-a-knot spline of branch j's samples on the decomposition grid."""
    return UniformCubicSpline(data.grid.x_min, data.grid.spacing, data.branches[j])


def decompose(spec: MatrixPotentialSpec, grid: SpatialGrid) -> SpectralData:
    """Eigendecompose V on the grid (`_tracked_spectrum`), branches renumbered
    to stay smooth; declared multiplicities d_j > 1 group branches whose
    distance stays below 1e-10 on the whole grid.  Every grid point passes
    `errors.PROJECTOR_COMPLETENESS` and `errors.DECOMPOSITION_RESIDUAL`."""
    v, branches, frames, projectors = _tracked_spectrum(spec, grid.points)
    eye = np.eye(spec.n_levels)
    PROJECTOR_COMPLETENESS.check(np.max(np.abs(projectors.sum(axis=0) - eye)))
    for lam, pi in zip(branches, projectors):
        res = np.einsum("nab,nbc->nac", v, pi) - lam[:, None, None] * pi
        DECOMPOSITION_RESIDUAL.check(np.max(np.abs(res)))
    return SpectralData(spec=spec, grid=grid, branches=branches, frames=frames,
                        projectors=projectors,
                        multiplicities=tuple(f.shape[2] for f in frames))


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
    _, lam, _, pis = _tracked_spectrum(spec, [x - h, x, x + h])
    p_count = lam.shape[0]
    gaps = [abs(lam[j, 1] - lam[k, 1]) for j in range(p_count)
            for k in range(p_count) if j != k]
    if gaps and min(gaps) < 1e-12:
        raise InvariantViolation(f"degenerate gap at x = {x}")

    dpi = (pis[:, 2] - pis[:, 0]) / (2.0 * h)
    dlam = (lam[:, 2] - lam[:, 0]) / (2.0 * h)
    pi0 = pis[:, 1]
    dv = evaluate_potential(spec, x, 1)

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
        _, lam, _, pis = _tracked_spectrum(spec, [x - h, x, x + h])
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
    dv = evaluate_potential(data.spec, data.grid.points, 1)
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
