"""Contact points and isotropy certificates.

An inscribed ellipsoid F is the minimizer of the mean-square gauge over E
inside K exactly when some nonnegative weights on contact points
u_i in (boundary of F) intersect (boundary of K) satisfy

    sum_i  lambda_i  u_i u_i^T  =  Q_E^{-1}.

That matrix identity is checkable independently of how F was produced, so
it serves as a solver-free optimality proof: `verify_u` re-derives the
contact points, fits the weights by nonnegative least squares, and accepts
only when the fit is essentially exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bodies import (ConvexBody, boundary_quadratic_scan, contains_ellipsoid,
                     facet_margins, fold_merge, linear_image)
from .ellipsoids import Ellipsoid, ellipsoid_linear_image, unit_ball
from .numerics import inv_sqrt, solve_nnls, sym_eigen

VERIFIED = "verified"
FAILED_CONTAINMENT = "failed_containment"
FAILED_ISOTROPY = "failed_isotropy"


@dataclass(frozen=True)
class Certificate:
    """Contact points, nonnegative weights and the relative residual of
    || sum_i lambda_i u_i u_i^T - Q_E^{-1} ||_F / || Q_E^{-1} ||_F."""

    points: np.ndarray  # (s, n)
    weights: np.ndarray  # (s,)
    residual: float
    metric: Ellipsoid


@dataclass(frozen=True)
class VerifyResult:
    verdict: str
    residual: float
    certificate: Certificate | None


class _Packing(NamedTuple):
    """Gather indices and weights of the packed coordinates in one
    dimension n: entry i of _svec(m) is m[rows[i], cols[i]] * weight[i],
    the diagonal first, then the upper triangle by rows, with weight
    sqrt(2) off the diagonal, so the 2-norm of the packed vector equals
    the Frobenius norm of the matrix; `flat` indexes the flattened matrix.
    The flattened _smat(v, n) is v[place] / div, div = 1 on the diagonal
    and sqrt(2) off it."""

    rows: np.ndarray
    cols: np.ndarray
    weight: np.ndarray
    flat: np.ndarray
    place: np.ndarray
    div: np.ndarray


@functools.cache
def _packing(n: int) -> _Packing:
    """The `_Packing` of dimension n, built once and shared, so read-only."""
    p, q = np.triu_indices(n, k=1)
    rows, cols = np.concatenate([np.arange(n), p]), np.concatenate([np.arange(n), q])
    weight = np.concatenate([np.ones(n), np.full(p.size, np.sqrt(2.0))])
    place = np.empty((n, n), dtype=np.intp)
    place[rows, cols] = place[cols, rows] = np.arange(rows.size)
    pack = _Packing(rows, cols, weight, rows * n + cols, place.ravel(), weight[place.ravel()])
    for array in pack:
        array.setflags(write=False)
    return pack


def _svec(m: np.ndarray) -> np.ndarray:
    pack = _packing(m.shape[0])
    return np.take(m, pack.flat) * pack.weight


def _svec_dyads(points: np.ndarray) -> np.ndarray:
    """Row k is _svec(outer(x_k, x_k)) for row x_k of `points`."""
    pack = _packing(points.shape[1])
    # take keeps the rows C-ordered (an index array on axis 1 would not), so
    # later BLAS products with the result sum in the same order
    return points.take(pack.rows, 1) * points.take(pack.cols, 1) * pack.weight


def _smat(v: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix m with _svec(m) == v."""
    pack = _packing(n)
    return (v[pack.place] / pack.div).reshape(n, n)


def contact_points(body: ConvexBody, e: Ellipsoid, f: Ellipsoid, tol: float) -> np.ndarray:
    """Points of the body boundary where the inscribed ellipsoid F touches.

    For facet forms each facet with h^T Q_F^{-1} h within tol of 1
    contributes Q_F^{-1} h normalized to the touching point, both read
    through the factor of Q_F (`bodies.facet_margins`).  On a quadric body
    {x : x^T Q_K x <= 1}, with W = Q_K^{-1/2}, F touches along the
    span U of the eigenvectors of W Q_F W with eigenvalue within tol of 1;
    the contacts are W u_i for the u_i in U that diagonalize
    W^{-1} Q_E^{-1} W^{-1} there, so they carry the isotropy weights
    exactly when U is the whole space.  Other bodies take the points of
    the boundary scan of Q_F with |x^T Q_F x - 1| <= tol, closest first.
    Antipodal pairs are folded and near-duplicates merged; the result can
    be empty, in which case certification fails downstream.
    """
    if f.dim != body.dim or e.dim != body.dim:
        raise ValueError("dimension mismatch")
    facets, q_k = body.facet_form, body.quadric_form
    if facets is not None:
        t, d = facet_margins(facets, f.chol)
        near = np.abs(t - 1.0) <= tol
        found = d[near] / np.sqrt(t[near])[:, None]
    elif q_k is not None:
        w = inv_sqrt(q_k)
        vals, vecs = sym_eigen(w @ f.q @ w)
        span = vecs[:, np.abs(vals - 1.0) <= tol]
        root = q_k @ w  # W^{-1}
        sub = span.T @ root @ e.q_inv @ root @ span
        found = (w @ span @ sym_eigen(sub)[1]).T if span.size else []
    else:
        pts, vals = boundary_quadratic_scan(body, f.q, sense=1)
        gaps = np.abs(vals - 1.0)
        order = np.argsort(gaps)
        found = pts[order[gaps[order] <= tol]]
    if not len(found):
        return np.empty((0, body.dim))
    return fold_merge(found)


def isotropy_certificate(e: Ellipsoid, points) -> Certificate:
    """Fit nonnegative weights so the contact dyads reproduce Q_E^{-1}.

    Solved as nonnegative least squares over the symmetric-matrix space
    (off-diagonals scaled by sqrt(2) so the reported residual is the
    relative Frobenius error).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("points must be nonempty")
    if pts.shape[1] != e.dim:
        raise ValueError("point dimension does not match the metric")
    target = _svec(e.q_inv)
    sol = solve_nnls(_svec_dyads(pts), target)
    residual = sol.residual / np.linalg.norm(target)
    return Certificate(points=pts, weights=sol.weights, residual=float(residual), metric=e)


def verify_u(body: ConvexBody, e: Ellipsoid, f: Ellipsoid, tol: float) -> VerifyResult:
    """Solver-independent optimality check for a candidate minimizer F.

    Verified exactly when F sits inside the body (within tol) and the
    contact points of F with the body carry an isotropy certificate with
    relative residual at most 100 * tol.  A scanned smooth body is scanned
    whitened, L^T F in L^T K against the unit ball (Q_E = L L^T), once for
    containment and contacts, which are mapped back.
    """
    white, g, metric = body, f, e
    if body.scaled_normal is not None and body.quadric_form is None:
        white, metric = linear_image(e.chol.T, body), unit_ball(e.dim)
        g = ellipsoid_linear_image(e.chol.T, f)
    verdict = contains_ellipsoid(white, g, tol)
    if not verdict.contained:
        return VerifyResult(FAILED_CONTAINMENT, float("nan"), None)
    pts = contact_points(white, metric, g, tol)
    if white is not body:
        pts = np.linalg.solve(e.chol.T, pts.T).T
    if pts.shape[0] == 0:
        empty = Certificate(points=pts, weights=np.empty(0), residual=1.0, metric=e)
        return VerifyResult(FAILED_ISOTROPY, 1.0, empty)
    cert = isotropy_certificate(e, pts)
    if cert.residual <= 100.0 * tol:
        return VerifyResult(VERIFIED, cert.residual, cert)
    return VerifyResult(FAILED_ISOTROPY, cert.residual, cert)
