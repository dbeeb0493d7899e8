"""Ellipsoids as positive-definite quadratic forms.

An ellipsoid E = {x : x^T Q x <= 1} carries the scalar product
<x, y>_E = x^T Q y and a unique rotation-invariant probability measure on
its boundary.  The mean-square gauge of one ellipsoid over the boundary of
another reduces to a trace:

    M_E(F)^2  = trace(Q_E^{-1} Q_F) / n
    M*_E(F)^2 = trace(Q_F^{-1} Q_E) / n

and the polar of F with respect to E has form Q_E Q_F^{-1} Q_E.  Those
identities are checked against Monte-Carlo quadrature in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import invertible_map
from .numerics import cholesky, inv_sqrt, sym_matrix


@dataclass(frozen=True)
class Ellipsoid:
    """Positive-definite form with cached inverse and Cholesky factor."""

    q: np.ndarray
    q_inv: np.ndarray
    chol: np.ndarray

    @property
    def dim(self) -> int:
        return self.q.shape[0]


def make_ellipsoid(q) -> Ellipsoid:
    """Validate a symmetric positive-definite form and cache factorizations.

    Raises NotPositiveDefiniteError for degenerate or indefinite input.
    """
    qs = sym_matrix(q)
    chol = cholesky(qs)
    q_inv = sym_matrix(np.linalg.solve(qs, np.eye(qs.shape[0])))
    return Ellipsoid(q=qs, q_inv=q_inv, chol=chol)


def unit_ball(dim: int) -> Ellipsoid:
    return make_ellipsoid(np.eye(dim))


def inner_product(e: Ellipsoid, x, y) -> float:
    """<x, y>_E = x^T Q_E y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (e.dim,) or y.shape != (e.dim,):
        raise ValueError("vector dimensions do not match the ellipsoid")
    return float(x @ e.q @ y)


def m_ellipsoid(e: Ellipsoid, f: Ellipsoid) -> float:
    """Root-mean-square gauge of F over the boundary measure of E."""
    if e.dim != f.dim:
        raise ValueError("dimension mismatch")
    return float(np.sqrt(np.trace(e.q_inv @ f.q) / e.dim))


def m_star(e: Ellipsoid, f: Ellipsoid) -> float:
    """M of the E-polar of F; closed form sqrt(trace(Q_F^{-1} Q_E) / n)."""
    if e.dim != f.dim:
        raise ValueError("dimension mismatch")
    return float(np.sqrt(np.trace(f.q_inv @ e.q) / e.dim))


def polar_wrt(e: Ellipsoid, f: Ellipsoid) -> Ellipsoid:
    """Polar of F in the scalar product of E: form Q_E Q_F^{-1} Q_E."""
    if e.dim != f.dim:
        raise ValueError("dimension mismatch")
    return make_ellipsoid(e.q @ f.q_inv @ e.q)


def ellipsoid_linear_image(matrix, e: Ellipsoid) -> Ellipsoid:
    """The ellipsoid T E, i.e. the form T^{-T} Q_E T^{-1}."""
    ti = np.linalg.inv(invertible_map(matrix, e.dim))
    return make_ellipsoid(ti.T @ e.q @ ti)


def sample_mu(e: Ellipsoid, count: int, seed: int) -> np.ndarray:
    """Draw `count` points of the invariant boundary measure of E.

    Implemented as the push-forward of the uniform sphere measure under
    the symmetric inverse square root of Q_E (eigendecomposition, not
    Cholesky, so the map commutes with E-isometries).  Deterministic for a
    fixed seed; every row x satisfies x^T Q_E x = 1 to round-off.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    root_inv = inv_sqrt(e.q)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, e.dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g @ root_inv


def form_distance(a, b) -> float:
    """Relative Frobenius distance between two forms (or ellipsoids)."""
    qa = a.q if isinstance(a, Ellipsoid) else np.asarray(a, dtype=float)
    qb = b.q if isinstance(b, Ellipsoid) else np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(qa), np.linalg.norm(qb))
    return float(np.linalg.norm(qa - qb) / denom)


def ellipsoid_from_json(obj) -> Ellipsoid:
    """Parse {"dim": n, "Q": [[...], ...]}; Q must be symmetric positive definite."""
    if not isinstance(obj, dict) or set(obj) != {"dim", "Q"}:
        raise ValueError('ellipsoid document must have exactly the fields "dim" and "Q"')
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("dim must be a positive integer")
    q = np.asarray(obj["Q"], dtype=float)
    if q.shape != (dim, dim):
        raise ValueError("Q shape does not match dim")
    if np.linalg.norm(q - q.T) > 1e-9 * (1.0 + np.linalg.norm(q)):
        raise ValueError("Q must be symmetric")
    return make_ellipsoid(q)


def ellipsoid_to_json(e: Ellipsoid) -> dict:
    return {"dim": e.dim, "Q": e.q.tolist()}
