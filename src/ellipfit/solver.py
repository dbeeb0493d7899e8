"""Solvers for the extremal-ellipsoid problems.

`solve_u` computes the unique inscribed ellipsoid minimizing the
mean-square gauge over a reference ellipsoid E, i.e. the form B = Q_F
minimizing trace(Q_E^{-1} B) subject to containment in the body;
`solve_u_bar` the circumscribed forms maximizing it.  With Q_E = L L^T
both run one log-barrier central path (Vandenberghe, Boyd & Wu 1998) on
a whitened form X under constraints v_k^T X v_k <= 1, with the objective
tr X^power / power.  The circumscribed path (power 1) maximizes tr X
with B = L X L^T and v_k = L^T w_k for boundary points w_k.  The
inscribed one (power -1), for a facet form {x : |h_j . x| <= 1} (facet
polytopes, lp balls with p in {1, inf}, their linear images), minimizes
tr X^{-1} = trace(Q_E^{-1} B) with B = L X^{-1} L^T and v_j = L^{-1} h_j,
as h_j^T Q_F^{-1} h_j = v_j^T X v_j.  With slacks s_k = 1 - v_k^T X v_k
the center at t maximizes tr X^power / power + t (log det X +
sum_k log s_k); there lam_k = t / s_k and Z = t X^{-1} are dual feasible,
so the gap is t (n + m), relative to tr X^power.  The circumscribed path
stops at 1e-12 and reads attainment and uniqueness off the analytic
center of the optimal face, which the centers reach as t -> 0; the
inscribed one, whose minimizer is unique, stops at 1e-16 and reads
containment off the factor of X it ends with.

An ellipsoidal body {x : x^T Q_K x <= 1} is its own minimizer and its
own maximizer: every inscribed form satisfies B >= Q_K and every
circumscribed one B <= Q_K, so B = Q_K in closed form.

A smooth body (a scaled normal: lp balls with 1 < p < inf and their
images) runs an exchange of supporting slabs on the inscribed path: the
slabs of its supporting hyperplanes at finitely many boundary points
bound a facet body that contains K, whose minimizer is a lower bound;
the first slabs include those at the boundary minima of E's metric, and
each round adds slabs where that minimizer pokes out of K, and its path
starts warm from the last round's.  No LP runs.  Once none pokes out,
slab rounds from its contacts (as below) pin the directions of the form
that the contacts leave flat.  Its circumscribed path starts at the
boundary maxima of E's metric and adds each round every scanned maximum
of x^T B x above 1 + tol_feas; each round's path starts warm from the
last round's, rerun cold when it falls short.

Vertex polytopes run a cutting-plane loop on svec(B)
(`certificates._svec`, the coordinates of the path and the certificate):
the semi-infinite constraint family "x^T B x >= 1 on the body boundary"
is relaxed to finitely many boundary-point cuts:

* the LP relaxation (boxed, so always solvable) is solved;
* an indefinite B gets an eigenvector cut, a boundary point along the
  most negative eigendirection, which is always violated;
* otherwise the containment oracle either accepts or supplies a violated
  boundary point as the next cut.

After convergence a supporting-slab refinement pins the optimum of a
2-d polygon well below the LP feasibility floor: the slabs of its edges
at the contacts `certificates.contact_points` finds bound a facet body
that contains K, whose minimizer (the inscribed path above) touches it
at points that, projected onto the boundary of K, are the next
contacts.  A final rescale makes containment exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bodies import (ConvexBody, PolytopeH, PolytopeV, _net_boundary, body_in_ellipsoid,
                     boundary_form_max, boundary_point, boundary_quadratic_scan,
                     canonical_pair, contains_ellipsoid, fold_merge, linear_image, norm_many,
                     polar)
from .certificates import (FAILED_CONTAINMENT, VERIFIED, Certificate, _packing, _smat, _svec,
                           _svec_dyads, contact_points, verify_u)
from .ellipsoids import Ellipsoid, form_distance, m_ellipsoid, make_ellipsoid, unit_ball
from .numerics import (LpProblem, NotPositiveDefiniteError, cholesky, factor_cholesky, inv_sqrt,
                       solve_lp, sym_eigen)

# Violation floor near the LP solver's own feasibility tolerance; below it
# further cutting cannot make progress and the refinement takes over.
_LP_FLOOR = 3e-9


class SolverError(RuntimeError):
    """The cutting-plane solve failed structurally (box too small, ...)."""


class RestartDisagreementError(SolverError):
    """Randomized restarts disagreed beyond the uniqueness tolerance."""


class UnsupportedBodyError(ValueError):
    """The operation is not defined for this body representation."""


@dataclass(frozen=True)
class SolveConfig:
    """Solver settings.  `tol_feas` is the containment tolerance of every
    solve.  `max_cuts` caps the Newton steps of each central path, the
    rounds of the smooth-body exchange, and the LP solves of each
    cutting-plane restart.  `restarts`, `tol_obj` and `box_R` apply to
    the cutting-plane loop (vertex polytopes) only; `seed` draws its
    random cuts and the starting point sets of the smooth-body exchange
    and of `solve_u_bar` on a smooth body.  The central path itself is
    deterministic."""

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
    `contact_points` finds and `gap` is 0.  Facet-form bodies run the
    inscribed central path: `cuts` holds the boundary point along
    Q_F^{-1} h_j for each facet h_j, `lp_iterations` is 0, and `gap`
    bounds the relative excess of n J^2 over the optimum,
    (1 + path gap)(1 + r) - 1 with r = max(0, max_j |R^T g_j|^2 - 1) the
    whitened excess of the factor R the path ended with (g_j = L^{-1} h_j;
    no float re-check of Q_F runs); it is None if cfg.max_cuts ran out
    before the first center.  Smooth bodies run the supporting-slab
    exchange: `cuts` are the boundary points of its slabs,
    `lp_iterations` is 0 and `gap` is max(0, (1 + path gap) / low - 1),
    with low the minimum of x^T Q_F x that the last boundary scan found
    (an exact lower bound on J and a sampled upper one); F is the slab
    body's minimizer, or, once its form is pinned, that of the slabs at
    its contacts.  Vertex
    polytopes run the cutting-plane loop: `cuts` are its boundary-point
    cuts, `gap` is None and `lp_iterations` counts the LP solves over all
    restarts.  `steps` counts the Newton steps of every central path the
    solve ran (the slab refinement's, on the cutting-plane loop), 0 for
    the closed form.
    """

    minimizer: Ellipsoid
    j_value: float
    status: str  # "optimal" | "max_cuts_reached"
    cuts: np.ndarray  # (k, n) boundary points used as constraints
    active_cuts: np.ndarray  # cuts with x^T Q_F x = 1 within 10*tol_feas
    lp_iterations: int  # LP solves, not simplex iterations
    gap: float | None
    steps: int  # Newton steps of every central path the solve ran


@dataclass(frozen=True)
class DualReport:
    """Outcome of `solve_u_bar`; `gap` is the relative duality gap
    g = t (n + m) / tr X of the last center the path reached (None before
    the first, 0 for an ellipsoidal body's closed form), on scanned bodies
    (1 + g) sqrt(max) - 1, max the full scan's maximum of x^T B x, so that
    I <= I_true <= I (1 + gap).  When the supremum is not attained,
    `null_space` has orthonormal rows spanning the null space of the limit
    form, `degenerate_direction` first.  `steps` counts the Newton steps
    of every round's central path, 0 for the closed form."""

    status: str  # "attained" | "non_attained" | "max_cuts_reached"
    i_value: float
    maximizer: Ellipsoid | None
    degenerate_direction: np.ndarray | None
    null_space: np.ndarray | None  # (k, n)
    uniqueness: str  # "unknown" | "multiple_found"
    second: Ellipsoid | None
    gap: float | None
    steps: int  # Newton steps of every central path the solve ran


@dataclass(frozen=True)
class JohnReport:
    """Outcome of `check_john`. `distance` is form_distance(u_K(E), E): 0.0 on
    a yes, inf when E is not inside K, else read off one `solve_u`. `certificate`
    holds E's contacts and weights, John's decomposition of Q_E^{-1} on a yes."""

    is_fixed_point: bool
    distance: float
    contained: bool
    certificate: Certificate | None = None


@dataclass(frozen=True)
class IterateReport:
    trajectory: list
    fixed_point_reached: bool


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
    obj = _svec(e.q_inv)  # trace(Q_E^{-1} B) = obj . _svec(B)
    pool = _initial_cuts(body, seed)
    floor = max(cfg.tol_feas, _LP_FLOOR)
    prev_obj = None
    floor_rounds = 0
    last_pd = None
    status = "max_cuts_reached"
    lp_count = 0
    while lp_count < cfg.max_cuts:
        rows = tuple((row, 1.0) for row in _svec_dyads(np.array(pool.points)))
        sol = solve_lp(LpProblem(obj, rows, cfg.box_R))
        lp_count += 1
        b = _smat(sol.x, n)
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
            # accept after a few stagnant rounds and let the refinement finish.
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
# Supporting-slab refinement.  At the optimum F touches K at its contacts
# x_j, where it is tangent to K, so F is also the minimizer for the facet
# body cut out by K's supporting slabs {|h_j . x| <= 1}, h_j . x_j = 1.
# That body contains K, so its exact minimizer bounds J from below; its own
# contacts, projected radially onto the boundary of K, are the next x_j.

_REFINE_ROUNDS = 30  # cap on slab rounds, which converge linearly
_REFINE_STALL = 5  # rounds without a new smallest move between forms that end them


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


def _slab_rounds(body, normal, e, points, cfg, start=None):
    """Supporting-slab rounds (above) from the boundary points `points`,
    with slab normals `normal(x)` (None skips a point), each outer body
    solved by `_facet_path`.  Stops once successive forms agree to 1e-15
    relative, once their distance has made no new minimum for
    _REFINE_STALL rounds (near p = 2 the rounds contract at a rate near
    p - 1, so round-off ends their progress), or after _REFINE_ROUNDS
    rounds.  Each path starts cold, or, given the factor `start`, warm
    from it and then from the last round's end.  Returns the last round's
    report (None when the slabs do not span), the rounds run and the
    Newton steps spent."""
    rep, steps, least, stalled = None, 0, np.inf, 0
    for rounds in range(1, _REFINE_ROUNDS + 1):
        try:
            outer = PolytopeH([h for h in map(normal, points) if h is not None])
        except ValueError:
            return None, rounds - 1, steps
        last = rep
        rep, end = _facet_path(outer, e, cfg, start)
        steps, start = steps + end.steps, None if start is None else end.root
        if last is not None:
            moved = form_distance(rep.minimizer, last.minimizer)
            least, stalled = (moved, 0) if moved < least else (least, stalled + 1)
            if moved <= 1e-15 or stalled >= _REFINE_STALL:
                break
        points = contact_points(outer, e, rep.minimizer, 1e-9)
        points /= norm_many(body, points)[:, None]
    return rep, rounds, steps


def _refine(body, e, b0, cfg):
    """The cut-loop answer b0 pinned by `_slab_rounds` from its contacts,
    with slab normals on a 2-d vertex polytope from `_vrep_facet_normal`
    (contacts at a vertex are skipped).  b0 is kept on other bodies, when
    the slabs do not span or when the refined form pokes out of the body
    by more than 10 * tol_feas.  Returns the form and the Newton steps
    spent."""
    if not (isinstance(body, PolytopeV) and body.dim == 2):
        return b0, 0
    points = contact_points(body, e, make_ellipsoid(b0), max(1e-3, 100.0 * cfg.tol_feas))
    done, _, steps = _slab_rounds(body, functools.partial(_vrep_facet_normal, body), e, points, cfg)
    if done is None:
        return b0, steps
    f = done.minimizer
    if contains_ellipsoid(body, f, cfg.tol_feas).worst_margin < -10.0 * cfg.tol_feas:
        return b0, steps
    return f.q, steps


def _finalize(body, e, b, cfg):
    """Rescale to exact containment and wrap into an ellipsoid."""
    margin = contains_ellipsoid(body, make_ellipsoid(b), cfg.tol_feas).worst_margin
    if margin < 0:
        # 1 / (1 + margin) - 1 is only reachable on aborted (max-cuts) runs
        b = b * (1.0 + (-margin if margin > -1e-3 else -margin / (1.0 + margin)))
    return make_ellipsoid(b)


def _report(e, minimizer, status, cuts, lp_iterations, gap, steps, cfg) -> SolveReport:
    vals = np.einsum("ij,jk,ik->i", cuts, minimizer.q, cuts)
    active = cuts[np.abs(vals - 1.0) <= 10.0 * cfg.tol_feas]
    return SolveReport(minimizer=minimizer, j_value=m_ellipsoid(e, minimizer), status=status,
                       cuts=cuts, active_cuts=active, lp_iterations=lp_iterations, gap=gap,
                       steps=steps)


def _quadric_report(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig) -> SolveReport:
    """B = Q_K for the ellipsoidal body {x : x^T Q_K x <= 1}.  Its
    contacts (`contact_points`: W v_i with W = Q_K^{-1/2} for the
    eigenvectors v_i of W^{-1} Q_E^{-1} W^{-1}, weighted by its
    eigenvalues) certify it and are the cuts."""
    minimizer = make_ellipsoid(body.quadric_form)
    # W Q_K W = I up to round-off, so any tol below 1 keeps every direction
    return _report(e, minimizer, "optimal", contact_points(body, e, minimizer, 0.5), 0, 0.0, 0, cfg)


def _facet_report(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig) -> SolveReport:
    return _facet_path(body, e, cfg)[0]


def _facet_path(body, e, cfg, start=None):
    """The inscribed central path over the whitened facets g_j = L^{-1} h_j
    (module docstring), B = L X^{-1} L^T.  Containment is read from the
    factor R the path ends with, not from a float check of Q_F, whose
    condition misreads thin bodies: X is scaled by 1 / (1 + r),
    r = max_j |R^T g_j|^2 - 1, so its largest g_j^T X g_j is 1.  A form
    that pokes out (r > 0) is scaled down and the gap covers it,
    (1 + gap)(1 + r) - 1; one strictly inside is scaled up, which only
    lowers tr X^{-1}.  The minimizer's Cholesky factor is read off
    half = R^{-1} L^T, not off the rounded Q_F, so facet checks of it read
    the path's margins.  The cuts are the boundary points along
    Q_F^{-1} h_j.  Returns the report and the path's end; `start` warm-starts
    the path (`_central_path`)."""
    facets = body.facet_form
    g = np.linalg.solve(e.chol, facets.T).T
    end = _central_path(g, cfg.max_cuts, -1, start)
    touch = float(np.max(np.sum((g @ end.root) ** 2, axis=1)))  # 1 + r
    half = np.linalg.solve(end.root, e.chol.T) * np.sqrt(touch)  # R^{-1} L^T, so B = half^T half
    minimizer = replace(make_ellipsoid(half.T @ half), chol=factor_cholesky(half))
    rescale = max(0.0, touch - 1.0)
    gap = None if end.gap is None else end.gap + rescale + end.gap * rescale
    done = end.gap is not None and end.gap <= _PATH_GAP[-1]
    cuts = facets @ minimizer.q_inv
    cuts /= norm_many(body, cuts)[:, None]
    status = "optimal" if done else "max_cuts_reached"
    return _report(e, minimizer, status, cuts, 0, gap, end.steps, cfg), end


# --------------------------------------------------------------------------
# Supporting-slab exchange for smooth bodies (Hettich & Kortanek 1993, SIAM
# Review).  The slabs {|h_j . x| <= 1}, h_j = scaled_normal(x_j) at boundary
# points x_j, cut out a facet body that contains K, so its minimizer F
# (`_facet_report`) bounds J from below.  Each round adds slabs where F
# pokes out of K, until the scan finds it poking out nowhere.

_EXCHANGE_VIOLATION = 1e-13  # gauge excess or form deficit that earns a point its slab
_EXCHANGE_DESCENT = 96  # cap on the ascent rounds of its scans (and compass rounds of slow starts)
_CHEAP_DESCENT = 48  # the same cap for the cheap scans of `solve_u_bar`, which a full scan backs


def _violations(body, form, sense, starts, tol=_EXCHANGE_VIOLATION, rounds=_EXCHANGE_DESCENT):
    """Refined endpoints of the boundary scan of x^T Q x (`starts` multistarts,
    None for the default) more than tol below 1 (sense 1, a minimum) or
    above it (-1, a maximum), most violated first, and the scan's extremum."""
    pts, vals = boundary_quadratic_scan(body, form, sense, starts=starts, rounds=rounds)
    ends = np.arange(len(_net_boundary(body, None)), len(vals))
    ends = ends[sense * vals[ends] < sense - tol]
    return pts[ends[np.argsort(sense * vals[ends])]], float(sense * np.min(sense * vals))


def _exchange_report(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig) -> SolveReport:
    """The exchange above, run on the whitened body L^T K (Q_E = L L^T),
    where E is the unit ball, so the scans see every reference alike.  It
    starts from the slabs at the `_initial_cuts` points and at the seeds,
    the refined endpoints of one cheap scan of |x|^2 (the local minima,
    where u_K's fixed point touches K), fold-merged together (on lp balls
    with p > 2 both hold the axes); each round's path starts warm.  Each
    round solves the slab body for F, then looks for new slab points: F's
    contacts with the slab body, projected radially onto the boundary of
    K, where their gauge exceeds 1 + _EXCHANGE_VIOLATION, and the violated
    refined endpoints of a cheap boundary scan of Q_F (n multistarts
    besides the scan's 4n best net points; 4n multistarts took as many
    rounds).  When neither finds one,
    F's form is pinned: it is only held to second order along directions
    that its contacts leave flat, so `_slab_rounds` from its contacts gives
    F'.  The full scan then confirms F', else F; the first it finds inside
    K ends the exchange, and if neither, F's violations go on.  It also
    stops after cfg.max_cuts rounds or when a round's path runs out of its
    cfg.max_cuts Newton steps.  The answer is scaled by its full scan's
    minimum `low` of x^T Q_F x, so that it touches K where the scan looks;
    `gap` is (1 + path gap) / low - 1, at least 0: the slab body's J is an
    exact lower bound, the rescaled J a sampled upper one."""
    n = body.dim
    white = linear_image(e.chol.T, body)
    ball = unit_ball(n)
    seeds = fold_merge(_violations(white, np.eye(n), 1, n, -np.inf, _CHEAP_DESCENT)[0])
    points = fold_merge(np.vstack([_initial_cuts(white, cfg.seed).points, seeds]))
    rounds, steps, scans, pins = 0, 0, 1, 0  # scans counts the seed scan
    end = stop = None
    while stop is None:
        outer = PolytopeH(white.scaled_normal(points))
        rep, end = _facet_path(outer, ball, cfg, None if end is None else end.root)
        rounds, steps = rounds + 1, steps + end.steps
        touch = contact_points(outer, ball, rep.minimizer, 1e-9)
        gauge = norm_many(white, touch)
        touch /= gauge[:, None]
        new = touch[gauge > 1.0 + _EXCHANGE_VIOLATION]
        ends, low = _violations(white, rep.minimizer.q, 1, n)
        scans, full = scans + 1, False
        if not len(new) and not len(ends) and rep.status == "optimal":
            pinned, pin_rounds, pin_steps = _slab_rounds(white, white.scaled_normal, ball, touch,
                                                         cfg, end.root)
            pins, steps = pins + pin_rounds, steps + pin_steps
            if pinned is not None and pinned.status == "optimal":
                pin_ends, pin_low = _violations(white, pinned.minimizer.q, 1, None)
                scans += 1
                if not len(pin_ends):
                    rep, low, full, stop = pinned, pin_low, True, "converged"
                    break
            ends, low = _violations(white, rep.minimizer.q, 1, None)
            scans, full = scans + 1, True
            if not len(ends):
                stop = "converged"
                break
        if rep.status != "optimal" or rounds >= cfg.max_cuts:
            stop = "budget"
        else:
            points = np.vstack([points, fold_merge(np.vstack([new, ends]))])
    if not full:
        low = _violations(white, rep.minimizer.q, 1, None)[1]
        scans += 1
    minimizer = make_ellipsoid(e.chol @ (rep.minimizer.q / low) @ e.chol.T)
    gap = None if rep.gap is None else max(0.0, (1.0 + rep.gap) / low - 1.0)
    import logging  # here, so that a process that solves no smooth body never loads it

    logging.getLogger("ellipfit").debug(
        "smooth exchange: %d seed points, %d rounds, %d slabs, %d pinning rounds, %d Newton steps, "
        "%d scans, %d ascent rounds, %d compass starts, %d Newton rounds, gap %s, stop %s", len(seeds), rounds,
        len(points), pins, steps, scans, *white.scan_effort, gap, stop)
    done = stop == "converged" and rep.status == "optimal"
    return _report(e, minimizer, "optimal" if done else "max_cuts_reached",
                   np.linalg.solve(e.chol.T, points.T).T, 0, gap, steps, cfg)


def solve_u(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig = SolveConfig()) -> SolveReport:
    """The inscribed ellipsoid of minimal mean-square gauge over E.

    Ellipsoidal bodies are their own minimizer (closed form).  Bodies with
    a facet form run the inscribed central path once (no LP; it is
    deterministic, so cfg.restarts and cfg.seed do not apply), smooth
    bodies the supporting-slab exchange on that path once (no LP; started
    at the `_initial_cuts` points, drawn with cfg.seed, and at the boundary
    minima of E's metric), vertex polytopes the cutting-plane loop;
    cfg.max_cuts caps the Newton steps of each path, the exchange's rounds
    and the LP solves per restart, and box_R applies to the cutting-plane
    loop only.  The minimizer is unique; the cutting-plane loop is repeated
    from cfg.restarts randomized seeds and the results must agree within
    1e-4 relative Frobenius distance, else RestartDisagreementError is
    raised.  The returned ellipsoid is contained in the body within
    10 * tol_feas (on smooth and vertex bodies, as far as the boundary
    scan samples).
    """
    if e.dim != body.dim:
        raise ValueError("dimension mismatch between body and ellipsoid")
    if cfg.max_cuts < 2 * body.dim:
        raise ValueError("max_cuts must be at least 2 * dim")
    if body.quadric_form is not None:
        return _quadric_report(body, e, cfg)
    if body.facet_form is not None:
        return _facet_report(body, e, cfg)
    if body.scaled_normal is not None:
        return _exchange_report(body, e, cfg)
    runs = []
    total_lp = steps = 0
    for r in range(cfg.restarts):
        b, pool, lp_count, status = _cut_loop(body, e, cfg, cfg.seed + 7919 * r)
        total_lp += lp_count
        if status == "optimal":
            b, refine_steps = _refine(body, e, b, cfg)
            steps += refine_steps
        runs.append((_finalize(body, e, b, cfg), pool.points, status))
    # uniqueness contract: completed restarts must land on the same form;
    # aborted runs only promise a feasible iterate and are exempt
    done = [run for run in runs if run[2] == "optimal"]
    for i in range(len(done)):
        for j in range(i + 1, len(done)):
            d = form_distance(done[i][0], done[j][0])
            if d > 1e-4:
                raise RestartDisagreementError(
                    f"restarts {i} and {j} disagree by {d:.2e} (> 1e-4)")
    minimizer, points, _ = min(runs, key=lambda run: m_ellipsoid(e, run[0]))
    overall = "optimal" if all(run[2] == "optimal" for run in runs) else "max_cuts_reached"
    return _report(e, minimizer, overall, np.array(points), total_lp, None, steps, cfg)


def j_value(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig = SolveConfig()) -> float:
    """Minimal mean-square gauge over E among inscribed ellipsoids."""
    return solve_u(body, e, cfg).j_value


def check_john(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig = SolveConfig()) -> JohnReport:
    """Fixed-point test: E is the John ellipsoid of the body exactly when
    u_K(E) = E, that is when `verify_u(body, E, E, tol_feas)` holds with no
    solve: E lies in the body within tol_feas, and its contacts within
    tol_feas fit Q_E^{-1} to a relative residual of at most 100 * tol_feas."""
    res = verify_u(body, e, e, cfg.tol_feas)
    if res.verdict == FAILED_CONTAINMENT:
        return JohnReport(False, float("inf"), False)
    dist = 0.0 if res.verdict == VERIFIED else form_distance(solve_u(body, e, cfg).minimizer, e)
    return JohnReport(res.verdict == VERIFIED, dist, True, res.certificate)


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
# The central path of the module docstring, for both problems.

# relative gap at which each path stops, by power; a direction that carries
# a share r of tr X^{-1} is pinned to ~gap / r
_PATH_GAP = {1: 1e-12, -1: 1e-16}
_PATH_SHRINK = 0.01  # reduction of t at each center
_PATH_CENTERED = 1.0  # Newton decrement below which the iterate is a center
_PATH_SETTLED = 1e-8  # gap of the iterate that fixes the position along a flat face
_PATH_WARM = (1e-12, 1e-3)  # range of the gap at which a warm start enters the path


def _path_step(v, root, s, t, power):
    """One Newton step at t on phi = tr X^power / (power t) + log det X +
    sum_k log s_k, X = R R^T (power 1: circumscribed, -1: inscribed), in Y
    with X -> R (I + Y) R^T so that vanishing eigenvalues of X keep their
    relative accuracy.  The objective enters only as its gradient G and
    curvature D - I in an orthonormal frame F of the columns of R: F = I,
    G = R^T R / t and D = I for power 1, so neither F nor D enters; for
    -1, F is the eigenbasis of R^T R, where G = (R^T R)^{-1} / t =
    diag(g) and D = 1 + g_i + g_j (svec) are diagonal and enter as
    vectors.  With a_k = svec(u_k u_k^T), u_k = F R^T v_k, the Hessian
    D + A^T diag(s^-2) A is inverted by an SVD of diag(1 / s) A D^{-1/2},
    reduced once m >= n(n+1)/2.  svec(G + I), A and Y are packed through
    the gather indices and weights `certificates._packing` keeps per
    dimension, with the products of `_svec`, `_svec_dyads` and `_smat`.
    The slacks move with the step, s - alpha A y (recomputed from X, one
    near 1e-13 would keep few digits).  With Y = V diag(y) V^T,
    e = [y, -A y / s] and m = diag(V^T G V) the slope of phi is
    sum_i e_i / (1 + alpha e_i) + m_i y_i (1 + alpha y_i)^(power - 1),
    decreasing, with a pole at alpha = 1 / top, top = -min e, where the
    step reaches the boundary.  The line search starts at
    min(1, 0.99 / top) and takes Newton steps on the slope inside the
    bracket its signs have fixed, until the slope is 1e-9 of the sum of
    its terms' magnitudes (or nonnegative at the start), 20 at most.
    R moves to R (I + alpha Y)^{1/2} =
    R + R W diag((1 + alpha y)^{1/2} - 1) W^T, W = F^T V, whose round-off
    scales with the step.  Returns (root, s, decrement)."""
    n = root.shape[0]
    if power > 0:  # tr X / t: F = I, D = I
        grad = root.T @ root / t
        x = v @ root
        c = _svec(grad)
        c[:n] += 1.0  # svec(G + I)
    else:  # -tr X^{-1} / t: G and D diagonal in the frame
        _, sig, frame = np.linalg.svd(root)  # R^T R = F^T diag(sig^2) F
        mw = 1.0 / (t * sig * sig)
        scale = np.sqrt(1.0 + np.take(mw[:, None] + mw, _packing(n).flat))  # D^{1/2}
        x = v @ (root @ frame.T)
        c = np.zeros(scale.size)
        c[:n] = mw + 1.0  # svec(G + I)
    a = _svec_dyads(x)
    inv = 1.0 / s
    h = c - a.T @ inv
    lhs = a * inv[:, None]
    if power < 0:
        h /= scale
        lhs /= scale
    _, sv, vt = np.linalg.svd(lhs, full_matrices=a.shape[0] < a.shape[1])
    z = vt @ h
    z[:sv.size] /= 1.0 + sv * sv  # (I + S^2)^{-1} on the rows of vt, I beyond them
    z = vt.T @ z  # D^{1/2} y
    y = z if power > 0 else z / scale  # the slacks move by the same y as the form
    ay = a @ y
    ratio = ay * inv
    decrement = math.sqrt(z @ z + ratio @ ratio)
    yvals, yvecs = np.linalg.eigh(_smat(y, n))
    e = np.concatenate([yvals, -ratio])
    me = np.zeros(e.size)  # m_i y_i, 0 on the slack entries
    # reductions run as ufunc methods, without the Python layer of ndarray.sum and .min
    if power > 0:
        me[:n] = np.add.reduce((grad @ yvecs) * yvecs) * yvals
    else:
        me[:n] = np.add.reduce(mw[:, None] * yvecs * yvecs) * yvals
    top = -np.minimum.reduce(e)  # the step reaches the boundary at 1 / top
    lo, hi = 0.0, 1.0 if top <= 0.99 else 0.99 / top
    alpha = hi
    for _ in range(20):
        grow = 1.0 + alpha * e
        pe = e / grow
        obj = me if power > 0 else me * grow ** (power - 1)
        terms = pe + obj  # the slope of phi is their sum
        slope = np.add.reduce(terms)
        if (slope >= 0 and alpha == hi) or abs(slope) <= 1e-9 * np.add.reduce(np.abs(terms)):
            break
        lo, hi = (alpha, hi) if slope > 0 else (lo, alpha)
        curve = pe @ pe if power > 0 else pe @ pe + (1 - power) * (obj @ pe)
        alpha = min(max(alpha + slope / curve, lo), hi)
    turn = yvecs if power > 0 else frame.T @ yvecs
    grow = alpha * yvals
    root = root + (root @ turn) * (grow / (1.0 + np.sqrt(1.0 + grow))) @ turn.T
    return root, s - alpha * ay, decrement


@dataclass(frozen=True)
class _PathEnd:
    root: np.ndarray  # R with X = R R^T
    s: np.ndarray  # slacks 1 - v_k^T X v_k
    t: float
    gap: float | None  # gap of the last center, None before the first
    steps: int
    settled: np.ndarray | None  # X where the gap first fell below _PATH_SETTLED


def _central_path(v, max_steps, power, start=None) -> _PathEnd:
    """Follow the path of `_path_step`, lowering t by _PATH_SHRINK at each
    center (Newton decrement below _PATH_CENTERED), until the gap
    t (n + m) / tr X^power is at most _PATH_GAP[power] or max_steps Newton
    steps are spent.  The cold start X = (V^T V)^{-1} / (2 max_k h_k) has
    the shape of the points (their leverages h_k are at most 1) and gap 1.
    A warm start from the factor `start` of a nearby solution enters at
    gap w = 100 |max_k h_k - 1| (clipped to _PATH_WARM), scaled into the
    points so that max_k h_k = 1 - w: the nearer `start` is to the new
    points' optimum, the fewer centers are left."""
    m, n = v.shape
    if start is None:
        root, share, gap = np.linalg.inv(np.linalg.cholesky(v.T @ v)).T, 0.5, 1.0
        lev = np.sum((v @ root) ** 2, axis=1)
    else:
        root = start
        lev = np.sum((v @ root) ** 2, axis=1)
        gap = min(max(100.0 * abs(lev.max() - 1.0), _PATH_WARM[0]), _PATH_WARM[1])
        share = 1.0 - gap
    root = root * np.sqrt(share / lev.max())
    s = 1.0 - share * lev / lev.max()

    def objective(root):  # tr X^power = |R^power|_F^2
        r = root if power > 0 else np.linalg.inv(root)
        return float(np.sum(r * r))

    t = gap * objective(root) / (n + m)
    gap = settled = None
    steps = 0
    while steps < max_steps:
        root, s, decrement = _path_step(v, root, s, t, power)
        steps += 1
        if decrement < _PATH_CENTERED:
            tr = objective(root)
            gap = t * (n + m) / tr
            if settled is None and gap <= _PATH_SETTLED:
                settled = root @ root.T
            if gap > _PATH_GAP[power]:
                t = max(_PATH_SHRINK * gap, 0.5 * _PATH_GAP[power]) * tr / (n + m)
            elif decrement < 0.25:  # and the last center to quadratic accuracy
                break
    return _PathEnd(root, s, t, gap, steps, settled)


def _optimal_face(v, end: _PathEnd):
    """(X, flat, null): `flat` spans (orthonormal rows in `_svec`
    coordinates) the D with tr D = 0 and v_k^T D v_k = 0 where
    s_k^2 <= t / tr X; `null` has as
    columns the eigenvectors of X with eigenvalue x^2 <= t tr X, smallest
    x first, or is None if there are none.  A positive definite X takes
    its part along `flat` (which moves neither tr X nor an active
    constraint) from the settled iterate, projected in the Frobenius
    metric, as far as the inactive points allow."""
    n = end.root.shape[0]
    x = end.root @ end.root.T
    active = v[end.s ** 2 <= end.t / np.trace(x)]
    _, sv, vt = np.linalg.svd(np.vstack([_svec(np.eye(n)), _svec_dyads(active)]))
    flat = vt[int(np.sum(sv > 1e-9 * sv[0])):]
    left, roots, _ = np.linalg.svd(end.root)
    null = roots ** 4 <= end.t * np.trace(x)
    if null[-1]:
        return x, flat, left[:, null][:, ::-1]
    if flat.size and end.settled is not None:
        d = _smat(flat.T @ (flat @ _svec(end.settled - x)), n)
        rise = np.einsum("ki,ij,kj->k", v, d, v)  # short of any inactive point it would cross
        x = x + min(1.0, np.min(end.s[rise > 0] / rise[rise > 0], initial=np.inf)) * d
    return x, flat, None


def solve_u_bar(body: ConvexBody, e: Ellipsoid, cfg: SolveConfig = SolveConfig()) -> DualReport:
    """Circumscribed ellipsoids maximizing the mean-square gauge over E.

    An ellipsoidal body {x : x^T Q_K x <= 1} is its own maximizer, as
    every F containing it has Q_F <= Q_K: `attained`, I = M_E(K), gap 0,
    in closed form.  Bodies with extreme points run the central path over
    them; bodies with a smooth boundary over a point set that starts at
    the `_initial_cuts` points (seed cfg.seed + 17) and the fold-merged
    refined endpoints of one cheap scan of x^T Q_E x (its local maxima,
    where the fixed point of u_bar touches K), and each round
    grows by the refined endpoints of a cheap boundary scan (`_violations`,
    n multistarts) with x^T B x > 1 + cfg.tol_feas, or, if it finds none,
    of the full scan, which otherwise confirms B; B is then divided by the
    full scan's maximum (if above 1).  A round's path starts warm from the
    last round's for at most the last cold path's steps, and reruns cold,
    with the steps left, if it falls short.  Facet-only bodies raise
    UnsupportedBodyError.  The supremum is attained iff the center of the
    optimal face is positive definite, else the null space of its limit is
    reported; a second maximizer is X + eps D along a flat D of the face
    (half way to the nearest inactive point or PSD boundary; checked on a
    smooth body).  cfg.max_cuts caps the Newton steps of all rounds; out
    of budget, I is that of the scaled iterate, or of the last round's
    center if the iterate reached none (a lower bound).  A scanned
    body's solve leaves a debug record on the `ellipfit` logger: seed
    points, rounds, points, Newton steps, cold reruns, scans and their
    effort, gap and stop reason."""
    if body.extreme_points is None and body.quadric_form is None and body.scaled_normal is None:
        raise UnsupportedBodyError("circumscribed solve needs extreme points or a smooth boundary")
    if e.dim != body.dim:
        raise ValueError("dimension mismatch between body and ellipsoid")
    if cfg.max_cuts < 1:
        raise ValueError("max_cuts must be at least 1")
    if body.quadric_form is not None:
        k = make_ellipsoid(body.quadric_form)
        return DualReport(status="attained", i_value=m_ellipsoid(e, k), maximizer=k,
                          degenerate_direction=None, null_space=None, uniqueness="unknown",
                          second=None, gap=0.0, steps=0)
    n, exact, steps, effort = body.dim, body.extreme_points is not None, 0, list(body.scan_effort)
    seeds = [] if exact else fold_merge(_violations(body, e.q, -1, n, -np.inf, _CHEAP_DESCENT)[0])
    points = body.extreme_points if exact else np.vstack([_initial_cuts(body, cfg.seed + 17).points,
                                                          seeds])
    worst, rounds, cheap, full, reruns, cold, end = 1.0, 0, 1, 0, 0, 0, None  # the seed scan is cheap
    while True:
        v, last, rounds = points @ e.chol, end, rounds + 1
        if last is not None:  # warm from the last round, for at most the last cold path's steps
            end = _central_path(v, min(cold, cfg.max_cuts - steps), 1, last.root)
            steps += end.steps
        done = last is not None and end.gap is not None and end.gap <= _PATH_GAP[1]
        if not done and (last is None or cfg.max_cuts > steps):  # cold, or the fallback
            reruns += last is not None
            end = _central_path(v, cfg.max_cuts - steps, 1)
            steps, cold = steps + end.steps, end.steps
            done = end.gap is not None and end.gap <= _PATH_GAP[1]
        if end.gap is None and last is not None:  # no center within the budget: the last round's
            end = last
        x, flat, null = _optimal_face(v, end) if done else (end.root @ end.root.T, None, None)
        form = e.chol @ x @ e.chol.T
        if exact:
            break
        new = _violations(body, form, -1, n, cfg.tol_feas, _CHEAP_DESCENT)[0] if done else ()
        cheap += done
        if not len(new):
            new, worst = _violations(body, form, -1, None, cfg.tol_feas)
            full += 1
        if not done or not len(new):
            break
        points = np.vstack([points, fold_merge(new)])
    scale = max(1.0, worst)
    gap = end.gap if exact or end.gap is None else (1.0 + end.gap) * np.sqrt(scale) - 1.0
    report = dict(i_value=float(np.sqrt(np.trace(x) / n / scale)), maximizer=None,
                  degenerate_direction=None, null_space=None, uniqueness="unknown",
                  second=None, gap=gap, steps=steps)
    if not exact:
        import logging  # here, so that a process that solves no smooth body never loads it
        logging.getLogger("ellipfit").debug(
            "smooth circumscribed solve: %d seed points, %d rounds, %d points, %d Newton steps, "
            "%d cold reruns, %d cheap scans, %d full scans, %d ascent rounds, %d compass starts, "
            "%d Newton rounds, gap %s, stop %s", len(seeds), rounds, len(v), steps, reruns, cheap, full,
            *np.subtract(body.scan_effort, effort), gap, "converged" if done else "budget")
    if not done:
        return DualReport(status="max_cuts_reached", **report)
    if null is not None:
        direction = canonical_pair(np.linalg.solve(e.chol.T, null[:, 0]))[1]
        basis = np.linalg.qr(np.column_stack([direction, np.linalg.solve(e.chol.T, null[:, 1:])]))[0].T
        basis[0] = direction
        report.update(degenerate_direction=direction, null_space=basis)
        return DualReport(status="non_attained", **report)
    report["maximizer"] = make_ellipsoid(form / scale)
    if flat.size:
        d = _smat(flat[0], n)
        w = inv_sqrt(x)
        eps = 1.0 / np.max(np.abs(np.linalg.eigvalsh(w @ d @ w)))
        growth = np.einsum("ki,ij,kj->k", v, d, v)
        up = (growth > 0) & (end.s ** 2 > end.t / np.trace(x))  # inactive points it nears
        slack = 1.0 - np.einsum("ki,ij,kj->k", v, x, v)
        eps = min(eps, np.min(slack[up] / growth[up], initial=np.inf))
        b = e.chol @ (x + 0.5 * eps * d) @ e.chol.T / scale
        # on a smooth body the point set is a relaxation whose flat directions
        # the body may cut off: the step must be long and pass the same check
        if exact or (form_distance(b, form / scale) > 1e-3
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
