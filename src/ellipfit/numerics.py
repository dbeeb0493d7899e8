"""Dense symmetric linear algebra and the small constrained solvers that
every other module builds on: Cholesky, the symmetric eigendecomposition
and inverse square root, a bounded linear-program solver and nonnegative
least squares.

Everything operates on plain float ndarrays at desk scale (matrix order
<= ~20).  All kernels are deterministic: Cholesky and the eigensolver are
LAPACK through numpy.linalg, and the LP/NNLS backends (HiGHS and
Lawson-Hanson via scipy) are single-threaded and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize as _opt


class NotPositiveDefiniteError(ValueError):
    """A factorization met a pivot at or below the degeneracy threshold."""


class NoConvergenceError(RuntimeError):
    """An iterative kernel exhausted its iteration cap."""


class InfeasibleError(RuntimeError):
    """A linear program has no feasible point inside its box."""


def sym_matrix(entries) -> np.ndarray:
    """Square float matrix symmetrized by averaging with its transpose."""
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return 0.5 * (m + m.T)


def cholesky(s: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == s.

    Raises NotPositiveDefiniteError when any pivot L_ii^2 falls at or below
    1e-12 * trace(s) / dim, which signals a degenerate or indefinite form.
    """
    a = np.asarray(s, dtype=float)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"not positive definite: {exc}") from exc
    return _nondegenerate(low, np.trace(a))


def factor_cholesky(half: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == half.T @ half, read off the QR of
    `half` without rounding the product; degenerate as in `cholesky`."""
    low = np.linalg.qr(half, mode="r").T
    return _nondegenerate(low * np.copysign(1.0, np.diag(low)), np.sum(half * half))


def _nondegenerate(low: np.ndarray, trace: float) -> np.ndarray:
    thresh = 1e-12 * trace / low.shape[0]
    pivots = np.diag(low) ** 2
    i = int(np.argmin(pivots))
    if pivots[i] <= thresh:
        raise NotPositiveDefiniteError(
            f"pivot {pivots[i]:.3e} at index {i} is not above {thresh:.3e}")
    return low


def sym_eigen(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix (LAPACK via numpy.linalg.eigh).

    Returns (values, vectors) with eigenvalues sorted descending (equal
    values keep eigh's order) and the matching orthonormal eigenvectors as
    columns.
    """
    vals, vecs = np.linalg.eigh(sym_matrix(s))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def inv_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root S^{-1/2} of a positive-definite matrix:
    the whitening map that takes {x : x^T S x <= 1} to the unit ball."""
    vals, vecs = sym_eigen(s)
    return vecs @ np.diag(vals**-0.5) @ vecs.T


@dataclass(frozen=True)
class LpProblem:
    """min objective . x  s.t.  a . x >= b for each (a, b), and |x_k| <= box.

    The box is mandatory and keeps every instance bounded; callers detect
    box-active solutions and react (the cutting-plane loops add cuts).
    """

    objective: np.ndarray
    constraints: tuple = ()
    box: float = 1e6

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        rows = tuple((np.asarray(a, dtype=float), float(b)) for a, b in self.constraints)
        for a, _ in rows:
            if a.shape != obj.shape:
                raise ValueError("constraint length does not match objective")
        if not np.isfinite(self.box) or self.box <= 0:
            raise ValueError("box bound must be finite and positive")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", rows)


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    status: str
    active: tuple[int, ...]
    box_active: tuple[int, ...]
    iterations: int


_HIGHS_OPTS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the boxed LP; raises InfeasibleError when no point satisfies
    all constraints within the box.

    On success the solution is feasible to ~1e-9 and optimal to ~1e-8
    relative; `active` lists constraints tight at the solution and
    `box_active` the variables sitting on the box.
    """
    c = problem.objective
    k = c.size
    bounds = [(-problem.box, problem.box)] * k
    if problem.constraints:
        a = np.vstack([row for row, _ in problem.constraints])
        b = np.array([rhs for _, rhs in problem.constraints])
        res = _opt.linprog(c, A_ub=-a, b_ub=-b, bounds=bounds, method="highs",
                           options=_HIGHS_OPTS)
    else:
        a = b = None
        res = _opt.linprog(c, bounds=bounds, method="highs", options=_HIGHS_OPTS)
    if res.status == 2:
        raise InfeasibleError("no feasible point inside the box")
    if res.status != 0:
        raise NoConvergenceError(f"LP solver failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    if a is not None:
        resid = a @ x - b
        active = tuple(int(i) for i in np.flatnonzero(np.abs(resid) <= 1e-7 * (1.0 + np.abs(b))))
    else:
        active = ()
    box_active = tuple(int(i) for i in np.flatnonzero(
        np.abs(x) >= problem.box - 1e-7 * (1.0 + problem.box)))
    iters = int(getattr(res, "nit", 0) or 0)
    return LpSolution(x=x, status="optimal", active=active, box_active=box_active,
                      iterations=iters)


@dataclass(frozen=True)
class NnlsSolution:
    weights: np.ndarray
    residual: float
    support: tuple[int, ...]


def solve_nnls(columns, target) -> NnlsSolution:
    """Least squares over the nonnegative orthant (Lawson-Hanson).

    `columns` is a nonempty sequence of equal-length vectors; returns the
    weights, the residual 2-norm and the support (indices of positive
    weights).
    """
    cols = [np.asarray(col, dtype=float) for col in columns]
    if not cols:
        raise ValueError("columns must be nonempty")
    length = cols[0].size
    if any(col.size != length for col in cols):
        raise ValueError("columns must all have the same length")
    a = np.column_stack(cols)
    b = np.asarray(target, dtype=float)
    if b.size != length:
        raise ValueError("target length does not match columns")
    w, rnorm = _opt.nnls(a, b, maxiter=max(300, 30 * len(cols)))
    support = tuple(int(i) for i in np.flatnonzero(w > 0))
    return NnlsSolution(weights=w, residual=float(rnorm), support=support)
