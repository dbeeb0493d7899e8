"""Solvers for the extremal-ellipsoid problems.

`solve_u` computes the unique inscribed ellipsoid minimizing the
mean-square gauge over a reference ellipsoid E, i.e. the form B = Q_F
minimizing trace(Q_E^{-1} B) subject to containment in the body.

Bodies with a facet form {x : |h_j . x| <= 1} (facet polytopes, lp balls
with p in {1, inf}, their linear images) are solved through the
Lagrangian dual.  With Q_E = L L^T and whitened facets g_j = L^{-1} h_j,

    n J^2 = max over the simplex of (tr N(mu)^{1/2})^2,
    N(mu) = sum_j mu_j g_j g_j^T,

and omega_j = g_j^T N^{-1/2} g_j satisfies sum_j mu_j omega_j =
tr N^{1/2}.  Any weights give the feasible form
B = max_j omega_j * L N^{1/2} L^T, whose objective exceeds the dual
bound by the factor 1 + gap with gap = max_j omega_j / tr N^{1/2} - 1,
so the gap certifies the answer.  The weights move by the multiplicative
update mu_j <- mu_j omega_j / tr N^{1/2} until the gap is below one, then
by line-searched Newton steps on the concave function
2 tr N(nu)^{1/2} - sum(nu), whose support comes from the nonnegative
quadratic model; where a Newton step fails, a pairwise step between two
facets may replace the multiplicative one.  The positive weights at the
optimum are the isotropy certificate.

An ellipsoidal body {x : x^T Q_K x <= 1} is its own minimizer: every
inscribed form satisfies B >= Q_K, so B = Q_K in closed form.

Other bodies run a cutting-plane loop on the n(n+1)/2 free entries of B:
the semi-infinite constraint family "x^T B x >= 1 on the body boundary"
is relaxed to finitely many boundary-point cuts:

* the LP relaxation (boxed, so always solvable) is solved;
* an indefinite B gets an eigenvector cut, a boundary point along the
  most negative eigendirection, which is always violated;
* otherwise the containment oracle either accepts or supplies a violated
  boundary point as the next cut.

After convergence a guarded Newton polish solves the contact equations
(touching points on their facets, tangency, and the weighted-dyad
identity for the objective gradient) at the points
`certificates.contact_points` finds, to pin the optimum well below the
LP feasibility floor, and a final rescale makes containment exact.

`solve_u_bar` runs the circumscribed problem, max trace(Q_E^{-1} B) over
B >= 0 with w_k^T B w_k <= 1 at boundary points w_k, by a log-barrier
central path (Vandenberghe & Boyd 1996).  With B = L X L^T, v_k = L^T w_k
and slacks s_k = 1 - v_k^T X v_k, the center at t maximizes tr X +
t (log det X + sum_k log s_k); there lam_k = t / s_k and Z = t X^{-1} =
sum_k lam_k v_k v_k^T - I are dual feasible, so its gap is t (n + m).
As t -> 0 the centers reach the analytic center of the optimal face,
which decides attainment and uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import (ConvexBody, PolytopeV, body_in_ellipsoid,
                     boundary_form_max, boundary_point, canonical_pair,
                     contains_ellipsoid, linear_image, norm_many, polar)
from .certificates import _pairs, _svec, _svec_dyads, contact_points
from .ellipsoids import Ellipsoid, form_distance, m_ellipsoid, make_ellipsoid
from .numerics import (LpProblem, NotPositiveDefiniteError, cholesky, inv_sqrt,
                       solve_lp, solve_nnls, sym_eigen)

# Violation floor near the LP solver's own feasibility tolerance; below it
# further cutting cannot make progress and the polish takes over.
_LP_FLOOR = 3e-9

# Duality gap at which the facet dual stops: a few units of round-off.
_GAP_TOL = 1e-14
# Share of the old weights every Newton step keeps, so that no facet weight
# becomes exactly zero and the multiplicative update can revive any facet.
_KEEP = 1e-3


class SolverError(RuntimeError):
    """The cutting-plane solve failed structurally (box too small, ...)."""


class RestartDisagreementError(SolverError):
    """Randomized restarts disagreed beyond the uniqueness tolerance."""


class UnsupportedBodyError(ValueError):
    """The operation is not defined for this body representation."""


@dataclass(frozen=True)
class SolveConfig:
    tol_feas: float = 1e-8
    tol_obj: float = 1e-9
    max_cuts: int = 2000
    box_R: float = 1e6
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if min(self.tol_feas, self.tol_obj) <= 0:
            raise ValueError("tolerances must be positive")
        if self.box_R <= 0 or not np.isfinite(self.box_R):
            raise ValueError("box_R must be finite and positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of `solve_u`.

    Ellipsoidal bodies are solved in closed form: `cuts` are the contacts
    `contact_points` finds and `gap` is 0.  Facet-form bodies are solved
    by the dual: `cuts` holds the boundary point along Q_F^{-1} h_j for
    each facet h_j, `gap` is the final duality gap and `lp_iterations` is
    0.  Other bodies run the cutting-plane loop: `cuts` are its
    boundary-point cuts, `gap` is None and `lp_iterations` counts the LP
    solves over all restarts.
    """

    minimizer: Ellipsoid
    j_value: float
    status: str  # "optimal" | "max_cuts_reached"
    cuts: np.ndarray  # (k, n) boundary points used as constraints
    active_cuts: np.ndarray  # cuts with x^T Q_F x = 1 within 10*tol_feas
    lp_iterations: int  # LP solves, not simplex iterations
    gap: float | None


@dataclass(frozen=True)
class DualReport:
    """Outcome of `solve_u_bar`; `gap` is the relative duality gap
    t (n + m) / tr X of the last center the path reached (None if the
    step budget ran out before the first).  When the supremum is not
    attained, `null_space` has orthonormal rows spanning the null space of
    the limit form, `degenerate_direction` first."""

    status: str  # "attained" | "non_attained" | "max_cuts_reached"
    i_value: float
    maximizer: Ellipsoid | None
    degenerate_direction: np.ndarray | None
    null_space: np.ndarray | None  # (k, n)
    uniqueness: str  # "unknown" | "multiple_found"
    second: Ellipsoid | None
    gap: float | None


@dataclass(frozen=True)
class JohnReport:
    is_fixed_point: bool
    distance: float
    contained: bool


@dataclass(frozen=True)
class IterateReport:
    trajectory: list
    fixed_point_reached: bool


# --------------------------------------------------------------------------
# Facet dual.  The state at weights mu comes from the SVD of
# diag(sqrt(mu)) G, not from an eigendecomposition of N = G^T diag(mu) G,
# so the singular values s (with N = V diag(s^2) V^T) keep their accuracy
# on bodies that are long and thin relative to E.

@dataclass(frozen=True)
class _DualState:
    s: np.ndarray  # singular values, the eigenvalues of N^{1/2}
    vt: np.ndarray  # V^T
    gt: np.ndarray  # G V
    omega: np.ndarray  # g_j^T N^{-1/2} g_j
    trace: float  # tr N^{1/2}
    gap: float


def _dual_state(g, mu) -> _DualState:
    _, s, vt = np.linalg.svd(np.sqrt(mu)[:, None] * g, full_matrices=False)
    gt = g @ vt.T
    with np.errstate(divide="ignore"):
        omega = np.sum(gt**2 / s, axis=1)
    trace = float(np.sum(s))
    return _DualState(s, vt, gt, omega, trace, float(np.max(omega) / trace - 1.0))


def _newton_target(mu, st: _DualState):
    """Weights on the simplex after one Newton step on the concave function
    f(nu) = 2 tr N(nu)^{1/2} - sum(nu) at nu = (tr N^{1/2})^2 mu, the
    point of the ray through mu where f is largest.  The nonnegative
    quadratic model of f picks the support; on it the step is solved
    directly, so its accuracy is relative to the step, not to nu."""
    t = st.trace
    nu = mu * t * t
    sn = t * st.s  # singular values at nu
    a, b = np.triu_indices(sn.size)
    # -Hessian of f = A^T A with A[(a, b), j] = c_ab gt_ja gt_jb, where
    # c_ab^2 = (2 - [a == b]) / (s_a s_b (s_a + s_b)).
    coef = np.sqrt(np.where(a == b, 1.0, 2.0) / (sn[a] * sn[b] * (sn[a] + sn[b])))
    amat = coef[:, None] * (st.gt[:, a] * st.gt[:, b]).T
    hess = amat.T @ amat
    grad = st.omega / t - 1.0
    # max grad.(x - nu) - |A (x - nu)|^2 / 2 over x >= 0, as least squares
    # min |R x - R^{-T} c| with R^T R = hess (plus a ridge for repeated
    # facets) and c = grad + hess nu
    ridged = hess + 1e-12 * np.trace(hess) / mu.size * np.eye(mu.size)
    r = np.linalg.cholesky(ridged).T
    x = solve_nnls(list(r.T), np.linalg.solve(r.T, grad + ridged @ nu)).weights
    sup = np.flatnonzero(x > 0)
    step = np.linalg.lstsq(hess[np.ix_(sup, sup)], grad[sup], rcond=1e-12)[0]
    if np.all(nu[sup] + step > 0):
        x = np.zeros_like(mu)
        x[sup] = nu[sup] + step
    return x / np.sum(x)


def _newton_step(g, mu, st: _DualState):
    """Backtrack from the Newton target (keeping _KEEP of mu) until
    tr N^{1/2} rises, or ties within round-off while the gap falls.
    Returns (mu, state) or None."""
    target = _newton_target(mu, st)
    alpha = 1.0 - _KEEP
    while alpha > 1e-3:
        cand = (1.0 - alpha) * mu + alpha * target
        cst = _dual_state(g, cand)
        if np.isfinite(cst.gap) and (
                cst.trace > st.trace
                or (cst.trace >= st.trace * (1.0 - 1e-15) and cst.gap < st.gap)):
            return cand, cst
        alpha *= 0.5
    return None


def _pairwise_step(g, mu, st: _DualState):
    """Move weight to the most violated facet i from the facet k with the
    most to gain, mu_k (omega_i - omega_k), as far as tr N^{1/2} rises:
    its derivative along e_i - e_k is (omega_i - omega_k) / 2, so bisect
    on that sign.  Returns (mu, state) or None."""
    i = int(np.argmax(st.omega))
    k = int(np.argmax(mu * (st.omega[i] - st.omega)))
    if k == i:
        return None
    d = np.zeros_like(mu)
    d[i], d[k] = 1.0, -1.0
    lo, hi = 0.0, (1.0 - _KEEP) * mu[k]
    cst = _dual_state(g, mu + hi * d)
    if cst.omega[i] >= cst.omega[k]:
        return mu + hi * d, cst
    best = None
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        cst = _dual_state(g, mu + mid * d)
        if cst.omega[i] >= cst.omega[k]:
            lo, best = mid, (mu + mid * d, cst)
        else:
            hi = mid
    return best


def _dual_ascent(g, mu, max_iter):
    """Raise tr N(mu)^{1/2} over the simplex from the weights mu until the
    gap reaches _GAP_TOL or max_iter steps are spent.  From gap < 1 on a
    Newton step is tried first.  Otherwise the multiplicative update
    moves the weights, or the pairwise step when that raises tr N^{1/2}
    more: it shifts weight between facets that compete for a thin
    direction, where the Newton model and the multiplicative update are
    both slow.  Returns (state, steps)."""
    st = _dual_state(g, mu)
    steps = 0
    while st.gap > _GAP_TOL and steps < max_iter:
        steps += 1
        nxt = _newton_step(g, mu, st) if st.gap < 1.0 else None
        if nxt is None:
            scaled = mu * st.omega / st.trace
            nxt = (scaled, _dual_state(g, scaled))
            pair = _pairwise_step(g, mu, st) if st.gap < 1.0 else None
            if pair is not None and pair[1].trace > nxt[1].trace:
                nxt = pair
        mu, st = nxt
    return st, steps


def _dual_run(facets, e: Ellipsoid, max_iter: int, seed: int):
    """One dual solve from Dirichlet weights.  Returns (B, gap, status)."""
    g = np.linalg.solve(e.chol, facets.T).T  # g_j = L^{-1} h_j, Q_E = L L^T
    mu0 = np.random.default_rng(seed).dirichlet(np.ones(g.shape[0]))
    st, _ = _dual_ascent(g, mu0, max_iter)
    c = np.max(st.omega) * (st.vt.T * st.s) @ st.vt
    status = "optimal" if st.gap <= _GAP_TOL else "max_cuts_reached"
    return e.chol @ c @ e.chol.T, st.gap, status


# --------------------------------------------------------------------------
# Symmetric-form packing: diagonal entries first, then the strict upper
# triangle (p < q) row by row, as indexed by `_pairs`.

def _pack(m, pairs):
    return np.concatenate([np.diag(m), m[pairs]])


def _unpack(v, n, pairs):
    b = np.diag(v[:n]).astype(float)
    b[pairs] = b.T[pairs] = v[n:]
    return b


def _cut_row(x, pairs):
    p, q = pairs
    return np.concatenate([x * x, 2.0 * x[p] * x[q]])


def _obj_vec(c, pairs):
    # trace(C B) in packed coordinates.
    return np.concatenate([np.diag(c), 2.0 * c[pairs]])


class _CutPool:
    """Boundary-point cuts with antipodal folding; near-duplicates
    (angular distance < 1e-6) are merged, keeping the newest point."""

    def __init__(self):
        self.points: list[np.ndarray] = []
        self._units: list[np.ndarray] = []

    def push(self, x) -> bool:
        x, u = canonical_pair(np.asarray(x, dtype=float))
        cos_tol = np.cos(1e-6)
        for i, old in enumerate(self._units):
            if abs(float(old @ u)) >= cos_tol:
                self.points[i] = x
                self._units[i] = u
                return False
        self.points.append(x)
        self._units.append(u)
        return True


def _initial_cuts(body: ConvexBody, seed: int) -> _CutPool:
    """Boundary points along the axes, 4n random directions and the listed
    extreme points, all through one batched gauge."""
    n = body.dim
    dirs = [np.eye(n), np.random.default_rng(seed).standard_normal((4 * n, n))]
    # extreme points lie where violations concentrate for vertex-described
    # bodies; seeding them saves separation-oracle rounds.  They go through
    # the gauge because the listed points may include interior ones
    # (redundant generators), where x^T B x >= 1 would be an invalid cut.
    pts = body.extreme_points
    if pts is not None and pts.shape[0] <= 64:
        dirs.append(pts)
    dirs = np.vstack(dirs)
    dirs = dirs[np.any(dirs, axis=1)]
    pool = _CutPool()
    for x in dirs / norm_many(body, dirs)[:, None]:
        pool.push(x)
    return pool


def _cut_loop(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig, seed: int):
    """One cutting-plane run.  Returns (B, pool, lp_count, status)."""
    n = body.dim
    pairs = _pairs(n)
    obj = _obj_vec(e.q_inv, pairs)
    pool = _initial_cuts(body, seed)
    floor = max(cfg.tol_feas, _LP_FLOOR)
    prev_obj = None
    floor_rounds = 0
    last_pd = None
    status = "max_cuts_reached"
    lp_count = 0
    while lp_count < cfg.max_cuts:
        rows = tuple((_cut_row(x, pairs), 1.0) for x in pool.points)
        sol = solve_lp(LpProblem(obj, rows, cfg.box_R))
        lp_count += 1
        b = _unpack(sol.x, n, pairs)
        try:
            cholesky(b)
        except NotPositiveDefiniteError:
            _, vecs = sym_eigen(b)
            pool.push(boundary_point(body, vecs[:, -1]))
            continue
        last_pd = b
        candidate = make_ellipsoid(b)
        # cheap scan first: any violation it finds is a valid cut, and only
        # an apparent pass pays for the full-resolution scan
        verdict = contains_ellipsoid(body, candidate, cfg.tol_feas,
                                     net_size=max(180, 32 * n), starts=16, rounds=24)
        if verdict.worst_margin >= -cfg.tol_feas:
            verdict = contains_ellipsoid(body, candidate, cfg.tol_feas)
        margin = verdict.worst_margin
        obj_val = float(obj @ sol.x)
        if margin < -cfg.tol_feas:
            # Below the LP feasibility floor further cuts only churn;
            # accept after a few stagnant rounds and let the polish finish.
            if margin >= -floor:
                floor_rounds += 1
            else:
                floor_rounds = 0
            if not (floor_rounds >= 10):
                pool.push(verdict.witness)
                prev_obj = obj_val
                continue
        if sol.box_active:
            raise SolverError("LP box is active at a contained solution; "
                              "increase box_R")
        if prev_obj is not None and abs(obj_val - prev_obj) <= cfg.tol_obj * max(1.0, abs(obj_val)):
            status = "optimal"
            break
        prev_obj = obj_val
    if last_pd is None:
        last_pd = np.eye(n)
    return last_pd, pool, lp_count, status


# --------------------------------------------------------------------------
# Terminal polish: Newton on the contact equations.  At the optimum each
# touching point x_j (scaled so that the boundary normal n_j satisfies
# n_j . x_j = 1) obeys B x_j = n_j, and the weighted contact dyads satisfy
# sum_j lambda_j x_j x_j^T = Q_E^{-1}.  Solving that system pins the flat
# directions that the LP relaxation leaves wobbling at the feasibility
# tolerance.  Guarded: any failure falls back to the unpolished iterate.
#
# A contact is a triple (kind, x0, payload):
#   "plane"  -- payload h, a fixed facet normal with h . x = 1 on the facet
#   "smooth" -- payload (normal_fn, boundary_fn) for curved boundaries
#   "frozen" -- point held fixed (vertex-like contact); only its weight moves

def _vrep_facet_normal(body, x):
    """Local supporting-facet normal of a 2-d vertex polytope at a boundary
    point x: solve for h with h . w = 1 on the two generators bracketing x
    by angle.  None when x sits at a vertex or validation fails."""
    w = np.vstack([body.generators, -body.generators])
    ang = np.arctan2(w[:, 1], w[:, 0])
    ax = np.arctan2(x[1], x[0])
    rel = np.mod(ang - ax, 2.0 * np.pi)
    eps = 1e-9
    ccw = rel.copy()
    ccw[ccw < eps] = np.inf
    cw = np.mod(-rel, 2.0 * np.pi)
    cw[cw < eps] = np.inf
    if np.all(np.isinf(ccw)) or np.all(np.isinf(cw)):
        return None
    if np.min(ccw) > np.pi - 1e-9 or np.min(cw) > np.pi - 1e-9:
        return None  # x aligned with a generator: vertex contact
    a = w[int(np.argmin(cw))]
    b = w[int(np.argmin(ccw))]
    mat = np.array([a, b])
    if abs(np.linalg.det(mat)) < 1e-12:
        return None
    h = np.linalg.solve(mat, np.ones(2))
    if abs(float(h @ x) - 1.0) > 1e-6:
        return None
    if np.max(np.abs(w @ h)) > 1.0 + 1e-7:
        return None
    return h


def _collect_contacts(body, e, b0, cfg):
    """Contact triples for the polish: the scaled normal on a smooth
    boundary; on a 2-d vertex polytope the supporting facet, or a frozen
    point at a vertex.  Other bodies get none."""
    smooth = body.scaled_normal
    if smooth is None and not (isinstance(body, PolytopeV) and body.dim == 2):
        return []
    window = max(1e-3, 100.0 * cfg.tol_feas)
    points = contact_points(body, e, make_ellipsoid(b0), window)
    if smooth is not None:
        def on_boundary(x, _body=body):
            return _body.norm(x) - 1.0

        return [("smooth", x, (smooth, on_boundary)) for x in points]
    contacts = []
    for x in points:
        h = _vrep_facet_normal(body, x)
        contacts.append(("frozen", x, None) if h is None else ("plane", x, h))
    return contacts


def _kkt_residual(z, n, pairs, c_mat, contacts):
    m = n + pairs[0].size
    s = len(contacts)
    b = _unpack(z[:m], n, pairs)
    xs = []
    pos = m
    for kind, x0, _ in contacts:
        if kind == "frozen":
            xs.append(x0)
        else:
            xs.append(z[pos:pos + n])
            pos += n
    lam = z[pos:pos + s]
    acc = c_mat.copy()
    for lj, xj in zip(lam, xs):
        acc -= lj * np.outer(xj, xj)
    parts = [_pack(acc, pairs)]
    for (kind, _, payload), xj in zip(contacts, xs):
        if kind == "plane":
            parts.append(b @ xj - payload)
            parts.append([payload @ xj - 1.0])
        elif kind == "smooth":
            normal, on_boundary = payload
            parts.append(b @ xj - normal(xj))
            parts.append([on_boundary(xj)])
        else:
            parts.append([xj @ b @ xj - 1.0])
    return np.concatenate(parts)


def _newton_contacts(c_mat, b0, contacts, pairs):
    n = b0.shape[0]
    m = n + pairs[0].size
    s = len(contacts)
    dyads = [np.outer(x, x) for _, x, _ in contacts]
    lam0 = solve_nnls([_pack(d, pairs) for d in dyads], _pack(c_mat, pairs)).weights
    z = np.concatenate([_pack(b0, pairs)]
                       + [x for kind, x, _ in contacts if kind != "frozen"]
                       + [lam0])
    scale = 1.0 + np.linalg.norm(c_mat)

    def res(zz):
        return _kkt_residual(zz, n, pairs, c_mat, contacts)

    r = res(z)
    for _ in range(15):
        if np.max(np.abs(r)) <= 1e-13 * scale:
            break
        jac = np.empty((r.size, z.size))
        h = 1e-6
        for k in range(z.size):
            zp = z.copy()
            zp[k] += h
            zm = z.copy()
            zm[k] -= h
            jac[:, k] = (res(zp) - res(zm)) / (2.0 * h)
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        improved = False
        for alpha in (1.0, 0.5, 0.25):
            cand = z + alpha * step
            rc = res(cand)
            if np.linalg.norm(rc) < np.linalg.norm(r):
                z, r = cand, rc
                improved = True
                break
        if not improved:
            break
    if np.max(np.abs(r)) > 1e-8 * scale:
        return None
    b1 = _unpack(z[:m], n, pairs)
    lam = z[-s:] if s else np.empty(0)
    return b1, lam


def _polish(body, e, b0, cfg):
    pairs = _pairs(body.dim)
    contacts = _collect_contacts(body, e, b0, cfg)
    n = body.dim
    if len(contacts) > n:
        # flat boundaries put whole arcs of near-contacts inside the window;
        # the nonnegative fit of Q_E^{-1} picks the carrying subset and the
        # Newton step relocates those points exactly
        dyads = [_pack(np.outer(x, x), pairs) for _, x, _ in contacts]
        w0 = solve_nnls(dyads, _pack(e.q_inv, pairs)).weights
        if np.max(w0) > 0:
            keep = [c for c, w in zip(contacts, w0) if w > 1e-12 * np.max(w0)]
            if len(keep) >= n:
                contacts = keep
    while len(contacts) >= n:
        out = _newton_contacts(e.q_inv, b0, contacts, pairs)
        if out is None:
            return b0
        b1, lam = out
        if np.min(lam) < -1e-8 and len(contacts) > n:
            contacts.pop(int(np.argmin(lam)))
            continue
        break
    else:
        return b0
    if np.min(lam) < -1e-8:
        return b0
    try:
        cholesky(b1)
    except NotPositiveDefiniteError:
        return b0
    if np.linalg.norm(b1 - b0) > 0.05 * max(1.0, np.linalg.norm(b0)):
        return b0
    obj0 = float(np.trace(e.q_inv @ b0))
    obj1 = float(np.trace(e.q_inv @ b1))
    bound = max(1.0, abs(obj0))
    if not (-1e-7 * bound <= obj1 - obj0 <= max(1e-5, 100.0 * cfg.tol_feas) * bound):
        return b0
    if contains_ellipsoid(body, make_ellipsoid(b1), cfg.tol_feas).worst_margin < -10.0 * cfg.tol_feas:
        return b0
    return b1


def _finalize(body, e, b, cfg):
    """Rescale to exact containment and wrap into an ellipsoid."""
    margin = contains_ellipsoid(body, make_ellipsoid(b), cfg.tol_feas).worst_margin
    if margin < 0:
        if margin > -1e-3:
            b = b * (1.0 + (-margin))
        else:
            # only reachable on aborted (max-cuts) runs
            b = b / (1.0 + margin)
    return make_ellipsoid(b)


def _quadric_report(body: ConvexBody, e: Ellipsoid) -> SolveReport:
    """B = Q_K for the ellipsoidal body {x : x^T Q_K x <= 1}.  Its
    contacts (`contact_points`: W v_i with W = Q_K^{-1/2} for the
    eigenvectors v_i of W^{-1} Q_E^{-1} W^{-1}, weighted by its
    eigenvalues) certify it and are the cuts."""
    minimizer = make_ellipsoid(body.quadric_form)
    # W Q_K W = I up to round-off, so any tol below 1 keeps every direction
    cuts = contact_points(body, e, minimizer, 0.5)
    return SolveReport(minimizer=minimizer, j_value=m_ellipsoid(e, minimizer),
                       status="optimal", cuts=cuts, active_cuts=cuts, lp_iterations=0,
                       gap=0.0)


def solve_u(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig = SolveConfig()) -> SolveReport:
    """The inscribed ellipsoid of minimal mean-square gauge over E.

    Ellipsoidal bodies are their own minimizer (closed form, no restart).
    Bodies with a facet form are solved by the dual (no LP), others by
    the cutting-plane loop; cfg.max_cuts caps dual steps or LP solves per
    restart, and box_R applies to the cutting-plane loop only.  The
    minimizer is unique; the solve is repeated from cfg.restarts
    randomized seeds (starting weights or cuts) and the results must agree
    within 1e-4 relative Frobenius distance, else RestartDisagreementError
    is raised.  The returned ellipsoid is contained in the body within
    10 * tol_feas.
    """
    if e.dim != body.dim:
        raise ValueError("dimension mismatch between body and ellipsoid")
    if cfg.max_cuts < 2 * body.dim:
        raise ValueError("max_cuts must be at least 2 * dim")
    if body.quadric_form is not None:
        return _quadric_report(body, e)
    facets = body.facet_form
    runs = []
    total_lp = 0
    for r in range(cfg.restarts):
        seed = cfg.seed + 7919 * r
        if facets is not None:
            b, gap, status = _dual_run(facets, e, cfg.max_cuts, seed)
            points = None
        else:
            b, pool, lp_count, status = _cut_loop(body, e, cfg, seed)
            total_lp += lp_count
            if status == "optimal":
                b = _polish(body, e, b, cfg)
            gap, points = None, pool.points
        runs.append((_finalize(body, e, b, cfg), points, status, gap))
    # uniqueness contract: completed restarts must land on the same form;
    # aborted runs only promise a feasible iterate and are exempt
    done = [run for run in runs if run[2] == "optimal"]
    for i in range(len(done)):
        for j in range(i + 1, len(done)):
            d = form_distance(done[i][0], done[j][0])
            if d > 1e-4:
                raise RestartDisagreementError(
                    f"restarts {i} and {j} disagree by {d:.2e} (> 1e-4)")
    minimizer, points, _, gap = min(runs, key=lambda run: m_ellipsoid(e, run[0]))
    if facets is not None:
        points = facets @ minimizer.q_inv
        points /= norm_many(body, points)[:, None]
    cuts = np.array(points)
    vals = np.einsum("ij,jk,ik->i", cuts, minimizer.q, cuts)
    active = cuts[np.abs(vals - 1.0) <= 10.0 * cfg.tol_feas]
    overall = "optimal" if all(run[2] == "optimal" for run in runs) else "max_cuts_reached"
    return SolveReport(minimizer=minimizer, j_value=m_ellipsoid(e, minimizer),
                       status=overall, cuts=cuts, active_cuts=active,
                       lp_iterations=total_lp, gap=gap)


def j_value(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig = SolveConfig()) -> float:
    """Minimal mean-square gauge over E among inscribed ellipsoids."""
    return solve_u(body, e, cfg).j_value


def check_john(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig = SolveConfig()) -> JohnReport:
    """Fixed-point test: E is the maximal-volume inscribed ellipsoid of the
    body exactly when the inscribed minimizer over E is E itself."""
    verdict = contains_ellipsoid(body, e, cfg.tol_feas)
    if not verdict.contained:
        return JohnReport(False, float("inf"), False)
    rep = solve_u(body, e, cfg)
    dist = form_distance(rep.minimizer, e)
    return JohnReport(bool(dist <= 100.0 * cfg.tol_feas), dist, True)


def iterate_u(body: ConvexBody, e0: Ellipsoid, steps: int,
              cfg: SolveConfig = SolveConfig()) -> IterateReport:
    """Iterate the inscribed-minimizer map from e0, recording the trajectory.

    Stops early once successive forms differ by less than 100 * tol_feas
    relative.  No convergence claim is made; the trajectory is data.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    current = e0
    trajectory = []
    for _ in range(steps):
        nxt = solve_u(body, current, cfg).minimizer
        trajectory.append(nxt)
        if form_distance(nxt, current) < 100.0 * cfg.tol_feas:
            return IterateReport(trajectory, True)
        current = nxt
    return IterateReport(trajectory, False)


# --------------------------------------------------------------------------
# Circumscribed problem: the central path of the module docstring.

_PATH_GAP = 1e-12  # relative gap at which the path stops
_PATH_SHRINK = 0.01  # reduction of t at each center
_PATH_CENTERED = 1.0  # Newton decrement below which the iterate is a center
_PATH_SETTLED = 1e-8  # gap of the iterate that fixes the position along a flat face


def _path_step(v, root, s, t):
    """One Newton step at t on phi = tr X / t + log det X + sum_k log s_k
    for X = R R^T, in Y with X -> R (I + Y) R^T so that vanishing
    eigenvalues of X keep their relative accuracy.  With u_k = R^T v_k and
    a_k = svec(u_k u_k^T) the Hessian I + A^T diag(s^-2) A is inverted by
    an SVD that resolves weights ~1 / s^2 and 1 alike.  The slacks
    s_k = 1 - v_k^T X v_k move with the step, s - alpha A y, exactly as
    their constraints do; recomputed from X, a slack near 1e-13 would keep
    few digits.  tr X, log det X and s are closed-form in
    the step length, chosen by a line search on phi.  Returns (root, s,
    decrement)."""
    n = root.shape[0]
    u = v @ root
    a = _svec_dyads(u)
    xs = root.T @ root
    h = _svec(xs / t + np.eye(n)) - a.T @ (1.0 / s)
    _, sv, vt = np.linalg.svd(a / s[:, None])
    den = np.ones(vt.shape[0])
    den[:sv.size] += sv * sv
    y = vt.T @ ((vt @ h) / den)
    ay = a @ y
    ratio = ay / s
    decrement = float(np.sqrt(y @ y + ratio @ ratio))
    ymat = _unpack(np.concatenate([y[:n], y[n:] / np.sqrt(2.0)]), n, _pairs(n))
    yvals = np.linalg.eigvalsh(ymat)
    grow = float((xs * ymat).sum()) / t  # slope of tr X / t along the step
    top = max(-yvals[0], ratio.max())  # the step reaches the boundary at 1 / top
    lo, hi = 0.0, 1.0 if top <= 0.99 else 0.99 / top
    alpha = hi
    for _ in range(20):  # safeguarded Newton on the slope of phi, concave along the step
        py, ps = yvals / (1.0 + alpha * yvals), ay / (s - alpha * ay)
        slope = grow + py.sum() - ps.sum()
        if (slope >= 0 and alpha == hi) or abs(slope) <= 1e-9 * (
                abs(grow) + np.abs(py).sum() + np.abs(ps).sum()):
            break
        lo, hi = (alpha, hi) if slope > 0 else (lo, alpha)
        alpha = min(max(alpha + slope / (py @ py + ps @ ps), lo), hi)
    root = root @ np.linalg.cholesky(np.eye(n) + alpha * ymat)
    return root, s - alpha * ay, decrement


@dataclass(frozen=True)
class _PathEnd:
    root: np.ndarray  # R with X = R R^T
    s: np.ndarray  # slacks 1 - v_k^T X v_k
    t: float
    gap: float | None  # gap of the last center, None before the first
    steps: int
    settled: np.ndarray | None  # X where the gap first fell below _PATH_SETTLED


def _central_path(v, max_steps) -> _PathEnd:
    """Follow the path, lowering t by _PATH_SHRINK at each center (Newton
    decrement below _PATH_CENTERED), until the gap t (n + m) / tr X is at
    most _PATH_GAP or max_steps Newton steps are spent.  The start
    X = (V^T V)^{-1} / (2 max_k h_k) has the shape of the points; their
    leverages h_k are at most 1."""
    m, n = v.shape
    root = np.linalg.inv(np.linalg.cholesky(v.T @ v)).T
    lev = np.sum((v @ root) ** 2, axis=1)
    root *= np.sqrt(0.5 / lev.max())
    s = 1.0 - 0.5 * lev / lev.max()
    t = float(np.sum(root * root)) / (n + m)
    gap = settled = None
    steps = 0
    while steps < max_steps:
        root, s, decrement = _path_step(v, root, s, t)
        steps += 1
        if decrement < _PATH_CENTERED:
            tr = float(np.sum(root * root))
            gap = t * (n + m) / tr
            if settled is None and gap <= _PATH_SETTLED:
                settled = root @ root.T
            if gap > _PATH_GAP:
                t = max(_PATH_SHRINK * gap, 0.5 * _PATH_GAP) * tr / (n + m)
            elif decrement < 0.25:  # and the last center to quadratic accuracy
                break
    return _PathEnd(root, s, t, gap, steps, settled)


def _optimal_face(v, end: _PathEnd):
    """(X, flat, null): `flat` spans (rows, `_pack` coordinates) the D with
    tr D = 0 and v_k^T D v_k = 0 where s_k^2 <= t / tr X; `null` has as
    columns the eigenvectors of X with eigenvalue x^2 <= t tr X, smallest
    x first, or is None if there are none.  A positive definite X takes
    its part along `flat` (which moves neither tr X nor an active
    constraint) from the settled iterate, as far as the inactive points
    allow."""
    n = end.root.shape[0]
    x = end.root @ end.root.T
    active = v[end.s ** 2 <= end.t / np.trace(x)]
    rows = np.array([_obj_vec(np.eye(n), _pairs(n))] + [_cut_row(w, _pairs(n)) for w in active])
    _, sv, vt = np.linalg.svd(rows)
    flat = vt[int(np.sum(sv > 1e-9 * sv[0])):]
    left, roots, _ = np.linalg.svd(end.root)
    null = roots ** 4 <= end.t * np.trace(x)
    if null[-1]:
        return x, flat, left[:, null][:, ::-1]
    if flat.size and end.settled is not None:
        d = _unpack(flat.T @ (flat @ _pack(end.settled - x, _pairs(n))), n, _pairs(n))
        rise = np.einsum("ki,ij,kj->k", v, d, v)  # short of any inactive point it would cross
        x = x + min(1.0, np.min(end.s[rise > 0] / rise[rise > 0], initial=np.inf)) * d
    return x, flat, None


def solve_u_bar(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig = SolveConfig()) -> DualReport:
    """Circumscribed ellipsoids maximizing the mean-square gauge over E.

    Bodies with extreme points run the central path over them; bodies
    with a quadric or smooth boundary over a point set grown by the point
    where `boundary_form_max` finds the last form poking out by more than
    cfg.tol_feas.  Facet-only bodies raise UnsupportedBodyError.  The
    supremum is attained iff the center of the optimal face is positive
    definite, else the null space of its limit is reported; a second
    maximizer is X + eps D along a flat D of the face (half way to the
    nearest inactive point or PSD boundary; checked on a smooth body).
    cfg.max_cuts caps the Newton steps; out of budget, I is that of the
    feasible iterate (a lower bound).  cfg.restarts and cfg.box_R are not
    used.
    """
    if body.extreme_points is None and body.quadric_form is None and body.scaled_normal is None:
        raise UnsupportedBodyError("circumscribed solve needs extreme points or a smooth boundary")
    if e.dim != body.dim:
        raise ValueError("dimension mismatch between body and ellipsoid")
    if cfg.max_cuts < 1:
        raise ValueError("max_cuts must be at least 1")
    n, exact, steps = body.dim, body.extreme_points is not None, 0
    points = body.extreme_points if exact else np.array(_initial_cuts(body, cfg.seed + 17).points)
    while True:
        v = points @ e.chol
        end = _central_path(v, cfg.max_cuts - steps)
        steps += end.steps
        done = end.gap is not None and end.gap <= _PATH_GAP
        x, flat, null = _optimal_face(v, end) if done else (end.root @ end.root.T, None, None)
        worst, point = (1.0, None) if exact else boundary_form_max(body, e.chol @ x @ e.chol.T)
        if not done or worst <= 1.0 + cfg.tol_feas:
            break
        points = np.vstack([points, point])
    report = dict(i_value=float(np.sqrt(np.trace(x) / n)), maximizer=None,
                  degenerate_direction=None, null_space=None, uniqueness="unknown",
                  second=None, gap=end.gap)
    if not done:
        report["i_value"] /= np.sqrt(max(1.0, worst))
        return DualReport(status="max_cuts_reached", **report)
    if null is not None:
        direction = canonical_pair(np.linalg.solve(e.chol.T, null[:, 0]))[1]
        basis = np.linalg.qr(np.column_stack([direction, np.linalg.solve(e.chol.T, null[:, 1:])]))[0].T
        basis[0] = direction
        report.update(degenerate_direction=direction, null_space=basis)
        return DualReport(status="non_attained", **report)
    report["maximizer"] = make_ellipsoid(e.chol @ x @ e.chol.T)
    if flat.size:
        d = _unpack(flat[0], n, _pairs(n))
        w = inv_sqrt(x)
        eps = 1.0 / np.max(np.abs(np.linalg.eigvalsh(w @ d @ w)))
        growth = np.einsum("ki,ij,kj->k", v, d, v)
        up = (growth > 0) & (end.s ** 2 > end.t / np.trace(x))  # inactive points it nears
        slack = 1.0 - np.einsum("ki,ij,kj->k", v, x, v)
        eps = min(eps, np.min(slack[up] / growth[up], initial=np.inf))
        b = e.chol @ (x + 0.5 * eps * d) @ e.chol.T
        # on a smooth body the point set is a relaxation whose flat directions
        # the body may cut off: the step must be long and pass the same check
        if exact or (form_distance(b, e.chol @ x @ e.chol.T) > 1e-3
                     and boundary_form_max(body, b)[0] <= 1.0 + cfg.tol_feas):
            report.update(uniqueness="multiple_found", second=make_ellipsoid(b))
    return DualReport(status="attained", **report)


def verify_dual_equivalence(body: ConvexBody, e: Ellipsoid, f: Ellipsoid,
                            cfg: SolveConfig = SolveConfig()) -> bool:
    """Check the two-problem correspondence for a circumscribed candidate F:
    F maximizes the gauge functional over E among ellipsoids containing the
    body exactly when the inscribed solve on the F-polar of the body
    returns F.  The F-polar is computed as Q_F^{-1} applied to the
    standard polar body."""
    ok, excess = body_in_ellipsoid(body, f, 10.0 * cfg.tol_feas)
    if not ok:
        raise ValueError(f"the body is not inside F (excess {excess:.2e})")
    f_polar_body = linear_image(f.q_inv, polar(body))
    rep = solve_u(f_polar_body, e, cfg)
    return bool(form_distance(rep.minimizer, f) <= 1e-4)
