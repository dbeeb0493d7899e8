"""Centrally-symmetric convex bodies and the oracles the solvers need.

Four representations:

* ``PolytopeH``    -- facet form {x : |h_j . x| <= 1 for every row h_j}
* ``PolytopeV``    -- vertex form conv{+-w_k}
* ``LpBall``       -- {x : ||x||_p <= r} for p in [1, inf]
* ``LinearImage``  -- T K for an invertible T and any inner body K

Each class holds its variant's logic: the gauge norm (the unique norm
whose unit ball is the body), the polar body, linear images and the JSON
form, plus whatever exact structure it has (a facet form, extreme points,
a quadric or a smooth boundary normal), computed on first use and kept.
The support function is the polar body's gauge.  A boundary-point map and
the ellipsoid containment test (the solvers' separation oracle) sit on top,
on the boundary scan of x^T Q x where no closed form exists.

Facet and vertex data use the symmetric convention (each row stands for a
+- pair), so symmetry holds by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import inv_sqrt, sym_eigen

_SING_TOL = 1e-10  # smallest/largest singular value ratio below which a map is rejected
_SCAN_SEED = 1234  # multistart directions of boundary_quadratic_scan
_MERGE_COS = np.cos(1e-4)  # fold_merge treats unit vectors this close in angle as one


class ZeroDirectionError(ValueError):
    """A boundary point was requested along the zero direction."""


class SingularTransformError(ValueError):
    """A linear map is numerically singular."""


def _check_spanning(rows: np.ndarray, what: str) -> None:
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError(f"{what} must be a nonempty 2-d array")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0):
        raise ValueError(f"{what} must not contain zero vectors")
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv[-1] <= 1e-9 * sv[0] or rows.shape[0] < rows.shape[1]:
        raise ValueError(f"{what} must span the whole space")


def invertible_map(matrix, dim: int) -> np.ndarray:
    """`matrix` as a float (dim, dim) array.  Raises ValueError for another
    shape and SingularTransformError for a numerically singular map."""
    t = np.array(matrix, dtype=float)
    if t.shape != (dim, dim):
        raise ValueError(f"matrix must be square and match the dimension {dim}")
    sv = np.linalg.svd(t, compute_uv=False)
    if sv[-1] <= _SING_TOL * sv[0]:
        raise SingularTransformError("transform is numerically singular")
    return t


class ConvexBody:
    """Base type.  A concrete body implements the batched gauge
    `norm_many`, `polar()` and its JSON form: `to_json()`, and `from_json`
    for a document of type `kind` with the fields `fields`.  The support
    function is the polar body's gauge.

    Exact structure is computed on first use and kept; each attribute is
    None for a body without that structure:

    * ``facet_form``     -- rows h_j with body = {x : |h_j . x| <= 1}
    * ``extreme_points`` -- rows whose +- pairs include every extreme point
    * ``quadric_form``   -- Q with body = {x : x^T Q x <= 1}
    * ``scaled_normal``  -- for a smooth boundary, a callable n with n(x)
      normal to the boundary at x and n(x) . x = 1 there (the gradient of
      the gauge, Euler-scaled)
    * ``gauge_hessian``  -- with it, the gauge's Hessian at boundary rows x, (k, n, n)

    The body also keeps its `polar_body`, its scans' net boundary points,
    effort (`scan_effort`) and last result, so a repeated scan
    (containment, then contact finding, of one form) costs nothing; the
    kept arrays are read-only.
    """

    facet_form = None
    extreme_points = None
    quadric_form = None
    scaled_normal = None
    gauge_hessian = None

    def __init__(self, dim: int):
        self.dim = dim
        # Boundary points of the fixed direction net, by net size: the net
        # does not depend on the form scanned, and gauge evaluation
        # dominates the cost of a scan.
        self.boundary_nets: dict = {}
        # (arguments, points, values) of the last boundary_quadratic_scan
        self.last_scan: tuple | None = None
        self.scan_effort = [0, 0, 0]  # ascent rounds, compass-search starts and Newton rounds of its scans

    def norm(self, x) -> float:
        return float(norm_many(self, np.asarray(x, dtype=float)[None])[0])

    def norm_many(self, pts: np.ndarray) -> np.ndarray:
        """Gauge of every row of the 2-d float array `pts`."""
        raise NotImplementedError

    @cached_property
    def polar_body(self) -> ConvexBody:
        """`polar()`, built once and kept."""
        return self.polar()

    def support(self, theta) -> float:
        """max of theta . x over the body, the gauge of the polar body at theta."""
        return self.polar_body.norm(theta)

    def linear_image(self, t: np.ndarray) -> ConvexBody:
        """T K for an `invertible_map` T."""
        return LinearImage(t, self)


class PolytopeH(ConvexBody):
    """{x : |h_j . x| <= 1 for every facet row h_j}."""

    kind, fields = "polytope_h", ("facets",)

    def __init__(self, facets):
        f = np.array(facets, dtype=float)
        _check_spanning(f, "facets")
        super().__init__(f.shape[1])
        self.facets = f

    @property
    def facet_form(self):
        return self.facets

    def norm_many(self, pts):
        return np.max(np.abs(pts @ self.facets.T), axis=1)

    def polar(self):
        return PolytopeV(self.facets)

    def linear_image(self, t):
        return PolytopeH(self.facets @ np.linalg.inv(t))

    def to_json(self):
        return {"dim": self.dim, "type": self.kind, "facets": self.facets.tolist()}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["facets"])


class PolytopeV(ConvexBody):
    """conv{+-w_k} for the generator rows w_k."""

    kind, fields = "polytope_v", ("generators",)

    def __init__(self, generators):
        w = np.array(generators, dtype=float)
        _check_spanning(w, "generators")
        super().__init__(w.shape[1])
        self.generators = w

    @property
    def extreme_points(self):
        return self.generators

    def norm_many(self, pts):
        # One block-diagonal LP: each block solves min sum(z) s.t. [W^T -W^T] z = x.
        # scipy is imported here, so a process that evaluates no vertex gauge never loads it.
        from scipy import sparse
        from scipy.optimize import linprog

        k = pts.shape[0]
        a = self.generators.T
        n, m = a.shape
        wide = np.hstack([a, -a])
        if k <= 32:  # dense skips scipy's sparse input path (~0.7 ms per LP) until ~64 points
            blocks = np.kron(np.eye(k), wide)
        else:  # row i of block b holds wide[i] in columns 2mb .. 2mb + 2m - 1
            cols = np.tile(2 * m * np.arange(k)[:, None, None] + np.arange(2 * m), (1, n, 1))
            blocks = sparse.csr_matrix((np.tile(wide.ravel(), k), cols.ravel(),
                                        np.arange(0, 2 * m * n * k + 1, 2 * m)),
                                       shape=(n * k, 2 * m * k))
        res = linprog(np.ones(2 * m * k), A_eq=blocks, b_eq=pts.ravel(),
                      bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"batched gauge LP failed: {res.message}")
        out = res.x.reshape(k, 2 * m).sum(axis=1)
        out[~np.any(pts, axis=1)] = 0.0
        return out

    def polar(self):
        return PolytopeH(self.generators)

    def linear_image(self, t):
        return PolytopeV(self.generators @ t.T)

    def to_json(self):
        return {"dim": self.dim, "type": self.kind, "generators": self.generators.tolist()}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["generators"])


class LpBall(ConvexBody):
    """{x : ||x||_p <= radius} with p in [1, inf]."""

    kind, fields = "lp_ball", ("p", "radius")

    def __init__(self, p, radius, dim):
        p = float(p)
        if not (p >= 1.0):
            raise ValueError("p must lie in [1, inf]")
        if not (radius > 0 and np.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        if dim < 1:
            raise ValueError("dim must be positive")
        super().__init__(int(dim))
        self.p = p
        self.radius = float(radius)

    def norm_many(self, pts):
        """||x||_p / radius of every row from |x| in one pass: the row max, or
        the row sum (a matmul with ones) of |x|^p and its root; rows whose
        powers over- or underflow go again with max |x_i| factored out."""
        a, p = np.abs(pts), self.p
        if p == np.inf:
            return a.max(axis=1, initial=0.0) / self.radius
        ones = np.ones(a.shape[1])
        if p == 1.0:
            return a @ ones / self.radius
        with np.errstate(over="ignore"):
            out = (a**p @ ones) ** (1.0 / p) / self.radius
            if not (out.min(initial=1.0) > 0.0 and out.max(initial=0.0) < np.inf):
                bad = ~np.isfinite(out) | ((out == 0.0) & np.any(a, axis=1))
                top = a[bad].max(axis=1, keepdims=True)
                out[bad] = top[:, 0] * ((a[bad] / top) ** p @ ones) ** (1.0 / p) / self.radius
        return out

    def polar(self):
        p = self.p
        dual = np.inf if p == 1.0 else 1.0 if np.isinf(p) else p / (p - 1.0)
        return LpBall(dual, 1.0 / self.radius, self.dim)

    def to_json(self):
        p = "inf" if np.isinf(self.p) else self.p
        return {"dim": self.dim, "type": self.kind, "p": p, "radius": self.radius}

    @classmethod
    def from_json(cls, obj):
        p, radius = (np.inf if obj["p"] == "inf" else obj["p"]), obj["radius"]
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (p, radius)):
            raise ValueError('p must be a number or "inf", and radius a number')
        return cls(p, radius, obj["dim"])

    @cached_property
    def facet_form(self):
        if np.isinf(self.p):
            return np.eye(self.dim) / self.radius
        if self.p == 1.0 and self.dim <= 12:
            return _sign_rows(self.dim) / self.radius
        return None

    @cached_property
    def extreme_points(self):
        if self.p == 1.0:
            return np.eye(self.dim) * self.radius
        if np.isinf(self.p) and self.dim <= 12:
            return _sign_rows(self.dim) * self.radius
        return None

    @cached_property
    def quadric_form(self):
        return np.eye(self.dim) / self.radius**2 if self.p == 2.0 else None

    @cached_property
    def scaled_normal(self):  # r**p overflows for large p
        p, r = self.p, self.radius
        return (lambda x: np.copysign((np.abs(x) / r) ** (p - 1.0) / r, x)) if 1.0 < p < np.inf else None

    @cached_property
    def gauge_hessian(self):  # (p - 1) / r^2 [diag(a^(p-2)) - w w^T], a = |x| / r, w = sign(x) a^(p-1)
        @np.errstate(divide="ignore")  # a zero coordinate of a p < 2 ball curves infinitely
        def hessian(x, p=self.p, r=self.radius):
            a = np.abs(x) / r
            w = np.copysign(a ** (p - 1.0), x)
            h = w[:, :, None] * -w[:, None, :]
            h.reshape(len(x), -1)[:, :: x.shape[1] + 1] += a ** (p - 2.0)
            return (p - 1.0) / r**2 * h
        return None if self.scaled_normal is None else hessian


def _sign_rows(n: int) -> np.ndarray:
    """The sign vectors of length n, one row per +- pair."""
    return np.array([s for s in itertools.product((1.0, -1.0), repeat=n) if s[0] > 0])


class LinearImage(ConvexBody):
    """T K for an invertible matrix T and inner body K."""

    kind, fields = "linear_image", ("matrix", "inner")

    def __init__(self, matrix, inner: ConvexBody):
        t = invertible_map(matrix, inner.dim)
        super().__init__(inner.dim)
        self.matrix = t
        self.matrix_inv = np.linalg.inv(t)
        self.inner = inner

    def norm_many(self, pts):
        return norm_many(self.inner, pts @ self.matrix_inv.T)

    def polar(self):
        return LinearImage(self.matrix_inv.T, self.inner.polar())

    def linear_image(self, t):
        return self.inner.linear_image(invertible_map(t @ self.matrix, self.dim))

    def to_json(self):
        return {"dim": self.dim, "type": self.kind, "matrix": self.matrix.tolist(),
                "inner": self.inner.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["matrix"], body_from_json(obj["inner"]))

    # The inner body's structure composed with the map, once per body.

    @cached_property
    def facet_form(self):
        inner = self.inner.facet_form
        return None if inner is None else inner @ self.matrix_inv

    @cached_property
    def extreme_points(self):
        inner = self.inner.extreme_points
        return None if inner is None else inner @ self.matrix.T

    @cached_property
    def quadric_form(self):
        inner = self.inner.quadric_form
        return None if inner is None else self.matrix_inv.T @ inner @ self.matrix_inv

    @cached_property
    def scaled_normal(self):
        inner = self.inner.scaled_normal
        if inner is None:
            return None
        t_inv = self.matrix_inv
        return lambda x: inner(x @ t_inv.T) @ t_inv  # a point or rows of points

    @cached_property
    def gauge_hessian(self):
        inner, t_inv = self.inner.gauge_hessian, self.matrix_inv
        return None if inner is None else lambda x: t_inv.T @ inner(x @ t_inv.T) @ t_inv


def boundary_point(body: ConvexBody, direction) -> np.ndarray:
    """The point of the body boundary along `direction`: direction / gauge."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (body.dim,):
        raise ValueError("direction has the wrong dimension")
    if not np.any(d):
        raise ZeroDirectionError("boundary point of the zero direction")
    g = body.norm(d)
    if g <= 0:
        raise ZeroDirectionError("gauge vanished along a nonzero direction")
    return d / g


def polar(body: ConvexBody) -> ConvexBody:
    """Standard polar body {y : x . y <= 1 for all x in K}: facet and vertex
    forms swap, an lp ball dualizes its exponent and inverts its radius, a
    linear image maps by the inverse transpose."""
    return body.polar()


def linear_image(matrix, body: ConvexBody) -> ConvexBody:
    """The body T K.  Pushes through polytope data and composes images;
    otherwise wraps."""
    return body.linear_image(invertible_map(matrix, body.dim))


def canonical_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The representative of the antipodal pair {x, -x} whose unit vector
    has a positive largest-magnitude entry, with that unit vector."""
    u = x / np.linalg.norm(x)
    return (-x, -u) if u[int(np.argmax(np.abs(u)))] < 0 else (x, u)


def fold_merge(points) -> np.ndarray:
    """The rows of `points` folded to their canonical sign (`canonical_pair`;
    antipodes carry the same dyad) as a (k, n) array, less those within
    1e-4 radians of an earlier kept row; each kept row drops them at once."""
    points = np.asarray(points, dtype=float)
    units = points / np.sqrt(points[:, None] @ points[:, :, None])[:, 0]  # a dot per row, as canonical_pair
    keep, live = [], np.arange(len(points))
    points = points * np.copysign(1.0, units[live, np.abs(units).argmax(1)])[:, None]
    while live.size:
        keep.append(live[0])
        live = live[np.abs(units[live] @ units[live[0]]) < _MERGE_COS]
    return points[keep]


# ---------------------------------------------------------------------------
# Batched gauge evaluation and the sampled separation oracle.

def norm_many(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    """Gauge norm of every row of `points`."""
    return body.norm_many(np.atleast_2d(np.asarray(points, dtype=float)))


def direction_net(dim: int, size: int | None = None) -> np.ndarray:
    """Fixed quasi-uniform unit directions: uniform angles for dim 2, a
    Fibonacci sphere for dim 3, a seeded Gaussian cloud above that."""
    if size is None:
        size = {2: 720, 3: 1280}.get(dim, 3000)
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        ang = np.pi * np.arange(size) / size  # antipodal halves carry the same data
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if dim == 3:
        i = np.arange(size) + 0.5
        phi = np.pi * (1.0 + np.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / size
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(20231110 + dim)
    g = rng.standard_normal((size, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _quad(x: np.ndarray, form: np.ndarray) -> np.ndarray:
    """x^T Q x for every row x, by matmuls: on the scans' 2-4 wide rows an
    einsum or an axis-1 sum costs several times more."""
    return (x @ form * x) @ np.ones(x.shape[1])


def _unit(x: np.ndarray) -> np.ndarray:
    """The rows of x scaled to unit Euclidean length."""
    return x / np.sqrt((x * x) @ np.ones(x.shape[1]))[:, None]


def _boundary_values(body: ConvexBody, form: np.ndarray, dirs: np.ndarray):
    """The boundary points x = dir / gauge(dir) and x^T Q x at them."""
    x = dirs / norm_many(body, dirs)[:, None]
    return x, _quad(x, form)


def _net_boundary(body: ConvexBody, size: int | None) -> np.ndarray:
    """Boundary points of the fixed direction net, kept on the body."""
    nets = body.boundary_nets
    if size not in nets:
        net = direction_net(body.dim, size)
        nets[size] = net / norm_many(body, net)[:, None]
    return nets[size]


def _pattern_descent(body, form, starts, sense, rounds):
    """Batched compass search of sense * x^T Q x over boundary directions:
    each round takes one gauge batch of the moves +-step e_i (step 0.35 at
    first) from every start; a start moves, in place, to its best candidate
    if that gains over 1e-15, else its step shrinks by 0.6.  Stops once every
    step is below 1e-8.  Deterministic; returns refined unit directions."""
    pts = _unit(starts)
    k, n = pts.shape
    rows = np.arange(k)
    step = np.full(k, 0.35)
    body.scan_effort[1] += k
    best = sense * _boundary_values(body, form, pts)[1]
    moves = np.concatenate([np.eye(n), -np.eye(n)])  # (2n, n)
    for _ in range(rounds):
        if step.max() < 1e-8:
            break
        cand = _unit((pts[:, None, :] + step[:, None, None] * moves).reshape(-1, n))
        vals = (sense * _boundary_values(body, form, cand)[1]).reshape(k, 2 * n)
        idx = np.argmin(vals, axis=1)
        low = vals[rows, idx]
        improved = low < best - 1e-15
        pts[improved] = cand.reshape(k, 2 * n, n)[rows[improved], idx[improved]]
        best[improved] = low[improved]
        step[~improved] *= 0.6
    return pts


def _kkt_point(hessian, form, x, normal):
    """x + dx from boundary rows x with gauge gradients `normal`, one Newton step on the KKT
    system of min x^T Q x there: [Q - mu H, n; n^T, 0] [dx; .] = [mu n - Q x; 0], H = hessian(x)."""
    (k, n), qx = x.shape, x @ form
    mu = (qx * x) @ np.ones(n)  # the multiplier, as n . x = 1
    a, b = np.zeros((k, n + 1, n + 1)), np.zeros((k, n + 1, 1))
    a[:, :n, :n], a[:, :n, n], a[:, n, :n] = form - mu[:, None, None] * hessian(x), normal, normal
    b[:, :n, 0] = mu[:, None] * normal - qx
    try:
        return x + np.linalg.solve(a, b)[:, :n, 0]
    except np.linalg.LinAlgError:  # an exactly singular system: every row keeps its power point
        return np.full_like(x, np.nan)


def _normal_ascent(body, form, starts, sense, rounds):
    """Generalized power method (Journee, Nesterov, Richtarik & Sepulchre
    2010) for the minimum of x^T Q x on the boundary, batched: x climbs the
    gauge g over {z^T Q z = 1} by x <- z / g(z), z = Q^{-1} grad g(x) (grad
    g: `scaled_normal`).  A maximum is the minimum of y^T Q^{-1} y on the
    polar's boundary, from y = Q x / h(Q x), mapped back to the support
    point grad h(y).  No power round loses value, but they contract only
    linearly.  A start is steady while its squared relative move shrinks by
    a factor in (1/16, 1) on three rounds running, each within half of the
    last; once half the live starts are, every steady start steers by
    Newton-KKT rounds (`_kkt_point`) in place of power rounds, while one of
    them would settle last by power rounds.  A Newton point is kept if it is
    finite and no worse to 1e-14; else the start takes the power point and
    stops steering, as after a Newton move below 1e-7 of its length.  A
    start settles once it moves by under 1e-12 of its length; it is slow if
    its power round after a refusal contracts slower than 0.9 with moves
    below 1e-2, or if it is unsettled after `rounds` rounds.  Returns the
    boundary points and the slow mask."""
    # the body the ascent runs on, the inverse of the form it minimizes there, and that form
    gauge, inv, kform = (body, np.linalg.inv(form), form) if sense > 0 else (body.polar_body, form, None)
    x = starts if sense > 0 else starts @ form
    (k, n), x = x.shape, x / norm_many(gauge, x)[:, None]
    ones, live, slow = np.ones(n), np.arange(k), np.zeros(k, dtype=bool)
    # per live start: last squared relative move, its ratio to the one before, steadiness, steering
    last, rate, steady, steer = np.full(k, np.nan), np.full(k, np.nan), np.zeros(k, dtype=bool), None
    for r in range(rounds):
        if not live.size:
            break
        body.scan_effort[0] += 1
        old = x[live]
        take = () if steer is None else np.flatnonzero(steer)  # the rows that take a Newton round
        if 0 < len(take) < len(old):  # only while a steered start would settle last by power rounds
            need = np.log(1e-24 / last) / np.log(np.minimum(rate, 1.0 - 1e-9))
            take = take if need[steer].max() > need[~steer].max() else ()
        normal = gauge.scaled_normal(old)
        z = normal @ inv
        if len(take):
            body.scan_effort[2] += 1
            kform = np.linalg.pinv(form) if kform is None else kform  # a maximum's Q may be singular
            z = np.vstack([z, _kkt_point(gauge.gauge_hessian, kform, old[take], normal[take])])
        new = z / norm_many(gauge, z)[:, None]
        if len(take):
            vals = _quad(new, kform)  # the comparison is false where the Newton point is not finite
            power, new, kkt = vals[take], new[: len(old)], new[len(old):]
            better = vals[len(old):] - power <= 1e-14 * power
            new[take[better]], refused = kkt[better], take[~better]
        move = (new - old) ** 2 @ ones / ((old * old) @ ones)
        x[live] = new
        ratio, keep = move / last, move > 1e-24
        if len(take) and len(refused):  # a refused start goes back to power rounds, or if slow to compass
            stuck = refused[(move[refused] < 1e-4) & (ratio[refused] > 0.81)]
            slow[live[stuck]], keep[stuck], steer[refused] = True, False, False
        if r > 1:  # a contraction factor in (1/16, 1), within half of the last one, twice running
            fresh = (ratio > 1 / 16) & (ratio < 1.0) & (np.abs(ratio - rate) < 0.5 * rate)
            fresh, steady = fresh & steady, fresh
            if steer is not None or 2 * np.count_nonzero(fresh) >= len(fresh):  # once half are steady
                steer = fresh if steer is None else (steer & (move > 1e-14)) | fresh  # till a move < 1e-7
        live, last, rate, steady = live[keep], move[keep], ratio[keep], steady[keep]
        steer = None if steer is None else steer[keep]
    slow[live] = True
    return (x if sense > 0 else gauge.scaled_normal(x)), slow


def boundary_quadratic_scan(body: ConvexBody, form: np.ndarray, sense: int = 1, *,
                            net_size: int | None = None, starts: int | None = None,
                            rounds: int = 48):
    """Sampled extremum of x^T Q x over the body boundary.

    sense=+1 searches the minimum (Q positive definite on a body with a
    normal), sense=-1 the maximum.  Multistarts (`starts` seeded
    directions, 64n by default, and the best net points) are refined by
    `_normal_ascent` on a body with a `scaled_normal` (steadily slow starts
    finish by Newton rounds on its `gauge_hessian`), its slow starts and
    every start on other bodies by `_pattern_descent`, for at most `rounds`
    rounds each.  Returns (points, values): the boundary points of the net
    and the refined starts, and x^T Q x at them.  Deterministic, so the body
    keeps the last result: a repeated call with the same arguments returns
    the same read-only arrays.
    """
    form = np.asarray(form, dtype=float)
    key = (form.tobytes(), sense, net_size, starts, rounds)
    if body.last_scan is not None and body.last_scan[0] == key:
        return body.last_scan[1:]
    n = body.dim
    net_pts = _net_boundary(body, net_size)
    rng = np.random.default_rng(_SCAN_SEED)
    count = 64 * n if starts is None else starts
    g = _unit(rng.standard_normal((count, n)))
    net_vals = _quad(net_pts, form)
    top = _unit(net_pts[np.argsort(sense * net_vals)[: max(8, n * 4)]])
    refined, slow = np.vstack([g, top]), np.ones(len(g) + len(top), dtype=bool)
    if body.scaled_normal is not None:
        refined, slow = _normal_ascent(body, form, refined, sense, rounds)
    if slow.any():
        refined[slow] = _pattern_descent(body, form, refined[slow], sense, rounds)
    refined, refined_vals = _boundary_values(body, form, refined)
    pts, vals = np.vstack([net_pts, refined]), np.concatenate([net_vals, refined_vals])
    pts.flags.writeable = vals.flags.writeable = False
    body.last_scan = (key, pts, vals)
    return pts, vals


@dataclass(frozen=True)
class ContainmentVerdict:
    """Result of the ellipsoid-in-body test.

    worst_margin is min over the body boundary of x^T Q_F x - 1 (negative
    means the ellipsoid pokes out); witness is the boundary point of K
    where the worst margin was found.  method is "exact" when the body
    structure admits a closed-form test and "sampled" otherwise.
    """

    contained: bool
    worst_margin: float
    witness: np.ndarray
    method: str


def facet_margins(facets: np.ndarray, chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h_j^T Q^{-1} h_j, rows Q^{-1} h_j) for the rows h_j of `facets`,
    Q = chol chol^T, by two solves with the factor; a formed Q^{-1} would
    misread the margins of a thin form by about cond(Q) eps."""
    g = np.linalg.solve(chol, facets.T)
    return np.sum(g * g, axis=0), np.linalg.solve(chol.T, g).T


def _boundary_extremum(body: ConvexBody, form: np.ndarray, sense: int, chol=None,
                       **scan) -> tuple[float, np.ndarray, str]:
    """Min (sense=+1) or max (sense=-1) of x^T Q x over the body boundary,
    as (value, boundary point where it lies, method).  "exact" through
    the facets for the min (1 / max_j h_j^T Q^{-1} h_j at d / max|H d|
    with d = Q^{-1} h_j, both from `facet_margins` on the Cholesky factor
    `chol` of Q), the extreme points for the max, or the eigenvalues of a
    quadric; "sampled" by `boundary_quadratic_scan` otherwise, the point
    copied out of the kept scan."""
    facets = body.facet_form
    if sense > 0 and facets is not None:
        t, d = facet_margins(facets, chol)
        j = int(np.argmax(t))
        return float(1.0 / t[j]), d[j] / np.max(np.abs(facets @ d[j])), "exact"
    pts = body.extreme_points
    if sense < 0 and pts is not None:
        vals = _quad(pts, form)
        i = int(np.argmax(vals))
        return float(vals[i]), pts[i], "exact"
    if body.quadric_form is not None:
        w = inv_sqrt(body.quadric_form)
        mvals, mvecs = sym_eigen(w @ form @ w)
        k = -1 if sense > 0 else 0
        return float(mvals[k]), w @ mvecs[:, k], "exact"
    pts, vals = boundary_quadratic_scan(body, form, sense, **scan)
    i = int(np.argmin(sense * vals))
    return float(vals[i]), pts[i].copy(), "sampled"


def contains_ellipsoid(body: ConvexBody, ellipsoid, tol: float, *,
                       net_size: int | None = None, starts: int | None = None,
                       rounds: int = 48) -> ContainmentVerdict:
    """Separation oracle: is {x : x^T Q x <= 1} inside the body?

    Containment is equivalent to x^T Q x >= 1 on the whole body boundary,
    so the verdict reads the boundary minimum of `_boundary_extremum`:
    exact for facet forms (h^T Q^{-1} h <= 1 per facet) and ellipsoidal
    bodies, `boundary_quadratic_scan` otherwise.  The witness is the
    boundary point where that minimum lies.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if ellipsoid.dim != body.dim:
        raise ValueError("dimension mismatch between body and ellipsoid")
    low, witness, method = _boundary_extremum(
        body, ellipsoid.q, 1, ellipsoid.chol, net_size=net_size, starts=starts, rounds=rounds)
    margin = low - 1.0
    return ContainmentVerdict(bool(margin >= -tol), float(margin), witness, method)


def boundary_form_max(body: ConvexBody, form: np.ndarray) -> tuple[float, np.ndarray]:
    """Max of x^T B x over the body boundary, with the boundary point
    where it is found.  Exact through extreme points or a quadric form
    when the body has them, sampled otherwise."""
    return _boundary_extremum(body, form, -1)[:2]


def body_in_ellipsoid(body: ConvexBody, ellipsoid, tol: float) -> tuple[bool, float]:
    """Is the body inside {x : x^T Q x <= 1}?  Returns (verdict, worst excess).

    The excess is max over the boundary of x^T Q x - 1, from
    `boundary_form_max`.
    """
    if ellipsoid.dim != body.dim:
        raise ValueError("dimension mismatch between body and ellipsoid")
    worst, _ = boundary_form_max(body, ellipsoid.q)
    excess = worst - 1.0
    return excess <= tol, excess


# ---------------------------------------------------------------------------
# Serialization.  {"dim": n, "type": ..., variant fields}; the type picks
# the class, which reads and writes its own fields.  Unknown fields are
# rejected so schema drift fails loudly.

_BODY_TYPES = {cls.kind: cls for cls in (PolytopeH, PolytopeV, LpBall, LinearImage)}


def body_from_json(obj) -> ConvexBody:
    """Parse the body file schema, validating shape and field names.  A
    nested image stays nested, as built."""
    if not isinstance(obj, dict):
        raise ValueError("body document must be an object")
    kind = obj.get("type")
    if kind not in _BODY_TYPES:
        raise ValueError(f"unknown body type {kind!r}")
    cls = _BODY_TYPES[kind]
    fields = {"dim", "type", *cls.fields}
    extra, missing = set(obj) - fields, fields - set(obj)
    if extra or missing:
        raise ValueError(f"bad fields for {kind}: extra={sorted(extra)} missing={sorted(missing)}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("dim must be a positive integer")
    body = cls.from_json(obj)
    if body.dim != dim:
        raise ValueError("dim field does not match the body data")
    return body


def body_to_json(body: ConvexBody) -> dict:
    return body.to_json()
