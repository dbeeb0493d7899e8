import logging

import numpy as np
import pytest

import ellipfit as ef
import ellipfit.solver as solver_module
from ellipfit.certificates import _smat, _svec, _svec_dyads
from ellipfit.solver import SolveConfig, _initial_cuts
from util import (cross_h, cross_v, cube_h, cube_v_rows, rand_invertible, rand_polytope_h,
                  rand_spd_ellipsoid, rectangle_h, square_h, standard_corpus)

BALL2 = ef.unit_ball(2)
SQRT58 = np.sqrt(5.0 / 8.0)


def _report_invariants(body, e, rep, cfg=SolveConfig()):
    assert ef.contains_ellipsoid(body, rep.minimizer, 10.0 * cfg.tol_feas).contained
    assert abs(rep.j_value - ef.m_ellipsoid(e, rep.minimizer)) <= 1e-12
    for cut in rep.active_cuts:
        assert abs(float(cut @ rep.minimizer.q @ cut) - 1.0) <= 10.0 * cfg.tol_feas


def test_solve_u_square():
    rep = ef.solve_u(square_h(), BALL2)
    assert rep.status == "optimal"
    assert abs(rep.j_value - 1.0) < 1e-9
    assert np.linalg.norm(rep.minimizer.q - np.eye(2)) < 1e-9
    _report_invariants(square_h(), BALL2, rep)


def test_solve_u_rectangle():
    rep = ef.solve_u(rectangle_h(), BALL2)
    assert abs(rep.j_value - SQRT58) < 1e-9
    assert np.linalg.norm(rep.minimizer.q - np.diag([0.25, 1.0])) < 1e-8
    _report_invariants(rectangle_h(), BALL2, rep)


def test_solve_u_cross_polytope():
    rep = ef.solve_u(cross_h(2), BALL2)
    assert abs(rep.j_value - np.sqrt(2.0)) < 1e-9
    assert np.linalg.norm(rep.minimizer.q - 2.0 * np.eye(2)) < 1e-8
    _report_invariants(cross_h(2), BALL2, rep)


def test_solve_u_vertex_polytope_matches_facet_form():
    rep_v = ef.solve_u(cross_v(2), BALL2)
    rep_h = ef.solve_u(cross_h(2), BALL2)
    assert ef.form_distance(rep_v.minimizer, rep_h.minimizer) < 1e-12
    # a vertex polytope has no facet form and no smooth boundary: it runs the LP loop
    assert rep_v.lp_iterations >= 3


def test_initial_cuts_lie_on_the_boundary():
    # Two of these five generators are interior (gauges 0.26 and 0.81);
    # seeded as cuts x^T B x >= 1 they cut off the optimum, and the solve
    # ended "optimal" with J = 3.6171 instead of 2.93928521871.
    body = ef.PolytopeV(np.random.default_rng(7).standard_normal((5, 2)))
    for seed in (0, 7919):
        pool = _initial_cuts(body, seed)
        gauges = ef.norm_many(body, np.array(pool.points))
        assert np.all(np.abs(gauges - 1.0) <= 1e-7)


def test_svec_coordinates_carry_the_lp_identities():
    # the cut-loop LP, both central paths and the face analysis rely on these
    rng = np.random.default_rng(14)
    for n in range(1, 6):
        x = rng.standard_normal((3, n))
        m, b, c = (a + a.T for a in rng.standard_normal((3, n, n)))
        assert np.allclose(_smat(_svec(m), n), m, rtol=0.0, atol=1e-15 * np.abs(m).max())
        assert np.allclose(_svec_dyads(x) @ _svec(b), np.einsum("ki,ij,kj->k", x, b, x),
                           rtol=1e-13, atol=1e-13)
        assert np.isclose(_svec(c) @ _svec(b), np.trace(c @ b), rtol=1e-13, atol=1e-13)


def test_solve_u_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        ef.solve_u(square_h(), ef.unit_ball(3))


def test_j_value_examples_and_monotonicity():
    assert abs(ef.j_value(square_h(), BALL2) - 1.0) < 1e-9
    assert abs(ef.j_value(rectangle_h(), BALL2) - SQRT58) < 1e-9
    # the square sits inside the rectangle, so its value can only be larger
    assert ef.j_value(rectangle_h(), BALL2) <= ef.j_value(square_h(), BALL2) + 1e-8
    # dropping a facet slab enlarges the body and lowers the value
    rng = np.random.default_rng(0)
    body = rand_polytope_h(rng, 2, 5)
    smaller_body = ef.PolytopeH(np.vstack([body.facets, rng.standard_normal((1, 2))]))
    assert ef.j_value(body, BALL2) <= ef.j_value(smaller_body, BALL2) + 1e-8


def test_check_john_square():
    rep = ef.check_john(square_h(), BALL2)
    assert rep.is_fixed_point and rep.distance < 1e-9


def test_check_john_cross_ball():
    rep = ef.check_john(cross_h(2), ef.make_ellipsoid(2.0 * np.eye(2)))
    assert rep.is_fixed_point


def test_check_john_rejects_non_fixed_point():
    e = ef.make_ellipsoid(np.diag([1.0, 4.0]))  # inscribed but not extremal
    rep = ef.check_john(square_h(), e)
    assert not rep.is_fixed_point
    # the map sends it to the unit disk
    out = ef.solve_u(square_h(), e)
    assert np.linalg.norm(out.minimizer.q - np.eye(2)) < 1e-8


def test_check_john_not_contained():
    rep = ef.check_john(square_h(), ef.make_ellipsoid(0.25 * np.eye(2)))
    assert not rep.is_fixed_point and not rep.contained


def test_iterate_square_fixed_immediately():
    rep = ef.iterate_u(square_h(), BALL2, steps=5)
    assert rep.fixed_point_reached and len(rep.trajectory) == 1


def test_iterate_rectangle_reaches_fixed_point():
    rep = ef.iterate_u(rectangle_h(), BALL2, steps=5)
    assert rep.fixed_point_reached
    assert np.linalg.norm(rep.trajectory[0].q - np.diag([0.25, 1.0])) < 1e-8
    assert len(rep.trajectory) == 2


def test_iterate_cross_records_trajectory():
    rep = ef.iterate_u(cross_h(2), ef.make_ellipsoid(np.diag([1.0, 4.0])), steps=4)
    assert len(rep.trajectory) >= 1
    # no convergence assertion; just record the gap to the known fixed point
    gap = ef.form_distance(rep.trajectory[-1], ef.make_ellipsoid(2.0 * np.eye(2)))
    assert np.isfinite(gap)


def test_dual_square_multiple_maximizers():
    rep = ef.solve_u_bar(ef.PolytopeV([[1.0, 1.0], [1.0, -1.0]]), BALL2)
    assert rep.status == "attained"
    assert abs(rep.i_value - 1.0 / np.sqrt(2.0)) < 1e-9
    assert rep.uniqueness == "multiple_found"
    assert rep.second is not None
    assert ef.form_distance(rep.maximizer, rep.second) > 1e-3
    # both witnesses really circumscribe the square at the optimal value
    for cand in (rep.maximizer, rep.second):
        ok, excess = ef.body_in_ellipsoid(ef.PolytopeV([[1.0, 1.0], [1.0, -1.0]]),
                                          cand, 1e-7)
        assert ok, excess
        assert abs(ef.m_ellipsoid(BALL2, cand) - rep.i_value) < 1e-7


def test_dual_narrow_box_not_attained():
    rep = ef.solve_u_bar(ef.PolytopeV([[0.1, 1.0], [0.1, -1.0]]), BALL2)
    assert rep.status == "non_attained"
    assert abs(rep.i_value - np.sqrt(50.0)) < 1e-9
    assert abs(abs(rep.degenerate_direction[1]) - 1.0) < 1e-6


def test_dual_ball_unique():
    rep = ef.solve_u_bar(ef.LpBall(2, 1.0, 2), BALL2)
    assert rep.status == "attained"
    assert abs(rep.i_value - 1.0) <= rep.gap * rep.i_value <= 1e-9
    assert ef.body_in_ellipsoid(ef.LpBall(2, 1.0, 2), rep.maximizer, 1e-12)[0]
    assert ef.form_distance(rep.maximizer, BALL2) < 1e-9
    assert rep.uniqueness == "unknown"


@pytest.mark.parametrize("body, e, q, i_value", [
    (ef.LpBall(2, 1.0, 2), BALL2, np.eye(2), 1.0),
    (ef.linear_image([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]], ef.LpBall(2, 1.0, 3)),
     ef.unit_ball(3), [[1.0, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], np.sqrt(5.0 / 6.0)),
], ids=["ball2", "image3"])
def test_dual_ellipsoidal_body_is_its_own_maximizer(monkeypatch, body, e, q, i_value):
    # every F containing K = {x^T Q_K x <= 1} has Q_F <= Q_K, so the maximizer
    # is K in closed form: no path, no scan, gap exactly 0
    def unused(*args, **kwargs):
        raise AssertionError("the closed form runs no path and no scan")

    monkeypatch.setattr(solver_module, "_central_path", unused)
    monkeypatch.setattr(solver_module, "_violations", unused)
    rep = ef.solve_u_bar(body, e)
    assert (rep.status, rep.uniqueness, rep.gap) == ("attained", "unknown", 0.0)
    assert abs(rep.i_value - i_value) <= 1e-15
    assert np.max(np.abs(rep.maximizer.q - np.array(q))) <= 1e-15
    assert rep.second is None and rep.null_space is None


def test_dual_rejects_facet_polytopes():
    with pytest.raises(ef.UnsupportedBodyError):
        ef.solve_u_bar(square_h(), BALL2)


@pytest.mark.parametrize("gens, seed, i_value", [(cube_v_rows(3), 0, 1.0 / np.sqrt(3.0)),
                                                 (np.eye(3), 20, 1.0)],
                         ids=["cube_v3", "cross_v3"])
def test_dual_attained_on_images_of_3d_polytopes(gens, seed, i_value):
    # seeded images of the 3-cube and the 3-d cross-polytope: the maxima are attained
    t = rand_invertible(np.random.default_rng(seed), 3, cond=3.0)
    body = ef.linear_image(t, ef.PolytopeV(gens))
    e = ef.ellipsoid_linear_image(t, ef.unit_ball(3))
    rep = ef.solve_u_bar(body, e)
    assert rep.status == "attained"
    assert abs(rep.i_value - i_value) <= 1e-9
    assert rep.gap <= 1e-12
    assert np.all(np.linalg.eigvalsh(rep.maximizer.q) > 0)
    assert ef.body_in_ellipsoid(body, rep.maximizer, 1e-9)[0]
    assert abs(ef.m_ellipsoid(e, rep.maximizer) - rep.i_value) <= 1e-9


def test_dual_cube_has_multiple_maximizers():
    # every diag(a, b, c) with a + b + c = 1 circumscribes the 3-cube at I = 1/sqrt(3)
    body = ef.PolytopeV(cube_v_rows(3))
    rep = ef.solve_u_bar(body, ef.unit_ball(3))
    assert (rep.status, rep.uniqueness) == ("attained", "multiple_found")
    assert ef.form_distance(rep.maximizer, np.eye(3) / 3.0) <= 1e-6
    assert ef.form_distance(rep.maximizer, rep.second) > 1e-3
    for cand in (rep.maximizer, rep.second):
        assert ef.body_in_ellipsoid(body, cand, 1e-9)[0]
        assert abs(ef.m_ellipsoid(ef.unit_ball(3), cand) - 1.0 / np.sqrt(3.0)) <= 1e-9


def test_dual_accepts_bodies_by_structure():
    # a linear image of a smooth ball has no extreme points but a smooth
    # boundary; its I equals the ball's against the mapped reference
    t = rand_invertible(np.random.default_rng(6), 2, cond=5.0)
    ball = ef.solve_u_bar(ef.LpBall(3, 1.0, 2), BALL2)
    image = ef.solve_u_bar(ef.linear_image(t, ef.LpBall(3, 1.0, 2)),
                           ef.ellipsoid_linear_image(t, BALL2))
    assert (ball.status, image.status) == ("attained", "attained")
    for rep in (ball, image):  # I = 2^(-1/6) for both
        assert abs(rep.i_value - 2.0 ** (-1.0 / 6.0)) <= rep.gap * rep.i_value
    assert abs(image.i_value - ball.i_value) <= 1e-6 * ball.i_value
    assert ef.body_in_ellipsoid(ef.LpBall(3, 1.0, 2), ball.maximizer, 1e-12)[0]
    assert ef.body_in_ellipsoid(ef.linear_image(t, ef.LpBall(3, 1.0, 2)), image.maximizer, 1e-12)[0]
    wrapped = ef.LinearImage(t, ef.PolytopeV([[1.0, 1.0], [1.0, -1.0]]))
    rep = ef.solve_u_bar(wrapped, ef.ellipsoid_linear_image(t, BALL2))
    assert abs(rep.i_value - 1.0 / np.sqrt(2.0)) <= 1e-9


# Smooth circumscribed solves.  The maximizer over the unit ball of the
# unit lp ball with p > 2 is the ball of radius n^(1/2 - 1/p), I = n^(1/p - 1/2).
# The relaxation's form is divided by the full scan's maximum, so the body
# is inside the answer, and its gap brackets I from above.  The 6-d p = 3
# ball takes about 1570 of the default 2000 Newton steps; without the seed
# points (see the seeded exchanges below) it ends max_cuts_reached with I
# 5.8e-4 low.

@pytest.mark.parametrize("p, n", [(3, 2), (4, 2), (3, 3), (4, 3), (3, 6)])
def test_smooth_dual_is_feasible_and_brackets_the_closed_form(p, n):
    body = ef.LpBall(p, 1.0, n)
    rep = ef.solve_u_bar(body, ef.unit_ball(n))
    assert rep.status == "attained"
    assert ef.body_in_ellipsoid(body, rep.maximizer, 1e-12)[0]
    assert rep.i_value <= n ** (1.0 / p - 0.5) <= rep.i_value * (1.0 + rep.gap) * (1.0 + 1e-12)
    assert abs(ef.m_ellipsoid(ef.unit_ball(n), rep.maximizer) - rep.i_value) <= 1e-12


def test_smooth_dual_on_a_non_round_3d_reference():
    # the answer rests on about 130 boundary points, which the default 2000
    # Newton steps reach only when a round adds every violated scan maximum
    body = ef.LpBall(3, 1.0, 3)
    e = rand_spd_ellipsoid(np.random.default_rng(5), 3, cond=10.0)
    rep = ef.solve_u_bar(body, e)
    assert rep.status == "attained"
    assert ef.body_in_ellipsoid(body, rep.maximizer, 1e-12)[0]
    t = rand_invertible(np.random.default_rng(0), 3)
    mapped = ef.solve_u_bar(ef.linear_image(t, body), ef.ellipsoid_linear_image(t, e))
    assert mapped.status == "attained"
    assert abs(mapped.i_value / rep.i_value - 1.0) <= 1e-7


def test_smooth_dual_logs_one_debug_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="ellipfit"):
        rep = ef.solve_u_bar(ef.LpBall(3, 1.0, 2), BALL2)
    records = [r for r in caplog.records if r.name == "ellipfit"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    message = records[0].getMessage()
    for word in ("seed points", "rounds", "points", "Newton steps", "cheap scans", "1 full scans",
                 "ascent rounds", ", 0 compass starts", "stop converged"):
        assert word in message
    assert int(message.split(" seed points")[0].rsplit(" ", 1)[1]) >= 1
    assert f"gap {rep.gap}" in message
    assert not logging.getLogger("ellipfit").handlers


def test_dual_equivalence_examples():
    sq = ef.PolytopeV([[1.0, 1.0], [1.0, -1.0]])
    assert ef.verify_dual_equivalence(sq, BALL2, ef.make_ellipsoid(0.5 * np.eye(2)))
    assert not ef.verify_dual_equivalence(sq, BALL2, ef.make_ellipsoid(0.25 * np.eye(2)))
    ball_body = ef.LpBall(2, 1.0, 2)
    assert ef.verify_dual_equivalence(ball_body, BALL2, BALL2)
    with pytest.raises(ValueError):
        ef.verify_dual_equivalence(sq, BALL2, ef.make_ellipsoid(4.0 * np.eye(2)))


def test_uniqueness_across_seeds():
    rng = np.random.default_rng(1)
    for _ in range(4):
        n = int(rng.integers(2, 4))
        body = rand_polytope_h(rng, n, int(rng.integers(3, 7)))
        e = rand_spd_ellipsoid(rng, n)
        a = ef.solve_u(body, e, SolveConfig(seed=11))
        b = ef.solve_u(body, e, SolveConfig(seed=222))
        assert ef.form_distance(a.minimizer, b.minimizer) <= 1e-4


def test_equivariance_under_linear_maps():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(2, 4))
        body = rand_polytope_h(rng, n, n + 2)
        e = rand_spd_ellipsoid(rng, n)
        t = rand_invertible(rng, n, cond=10.0)
        direct = ef.solve_u(ef.linear_image(t, body), ef.ellipsoid_linear_image(t, e))
        mapped = ef.ellipsoid_linear_image(t, ef.solve_u(body, e).minimizer)
        assert ef.form_distance(direct.minimizer, mapped) <= 1e-4


def test_scale_invariance_of_reference():
    rng = np.random.default_rng(3)
    body = rand_polytope_h(rng, 2, 4)
    e = rand_spd_ellipsoid(rng, 2)
    base = ef.solve_u(body, e).minimizer
    for t in (0.5, 3.0):
        scaled = ef.solve_u(body, ef.make_ellipsoid(e.q / t**2)).minimizer
        assert ef.form_distance(base, scaled) <= 1e-6


def test_continuity_smoke():
    rng = np.random.default_rng(4)
    for body in (square_h(), rectangle_h(), cross_h(2)):
        e = rand_spd_ellipsoid(rng, 2, cond=4.0)
        base = ef.solve_u(body, e).minimizer
        bump = rng.standard_normal((2, 2))
        bump = 1e-3 * np.linalg.norm(e.q) * (bump + bump.T) / np.linalg.norm(bump + bump.T)
        moved = ef.solve_u(body, ef.make_ellipsoid(e.q + bump)).minimizer
        assert ef.form_distance(base, moved) <= 0.05


def test_gauge_of_fixed_point_dominates_inscribed():
    # with E the square's extremal inscribed ellipsoid, every other inscribed
    # ellipsoid has mean-square gauge above 1
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = rng.standard_normal((2, 2))
        q = g.T @ g + 0.1 * np.eye(2)
        q = q * np.max(np.diag(np.linalg.inv(q)))  # scale to touch the square
        f = ef.make_ellipsoid(q)
        assert ef.m_ellipsoid(BALL2, f) >= 1.0 - 1e-8


def test_solve_report_smooth_exchange_runs_no_lp():
    # a smooth lp ball runs the supporting-slab exchange: no LP, and a gap
    rep = ef.solve_u(ef.LpBall(1.5, 1.0, 2), BALL2)
    assert rep.status == "optimal"
    assert rep.lp_iterations == 0
    assert rep.gap is not None and rep.gap <= 1e-12
    assert rep.cuts.shape[0] >= 2
    _report_invariants(ef.LpBall(1.5, 1.0, 2), BALL2, rep)


def test_smooth_exchange_logs_one_debug_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="ellipfit"):
        rep = ef.solve_u(ef.LpBall(3, 1.0, 2), BALL2)
    records = [r for r in caplog.records if r.name == "ellipfit"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    message = records[0].getMessage()
    for word in ("seed points", "rounds", "slabs", "pinning rounds", "Newton steps", "scans",
                 "ascent rounds", ", 0 compass starts", "gap", "stop converged"):
        assert word in message
    assert int(message.split(" seed points")[0].rsplit(" ", 1)[1]) >= 1
    assert f"gap {rep.gap}" in message
    assert not logging.getLogger("ellipfit").handlers  # the library adds none


def test_solve_report_dual_path():
    body = cross_h(3)
    rep = ef.solve_u(body, ef.unit_ball(3))
    assert rep.status == "optimal"
    assert rep.lp_iterations == 0
    assert rep.gap is not None and rep.gap <= 1e-14
    assert rep.cuts.shape == body.facets.shape
    _report_invariants(body, ef.unit_ball(3), rep)


def test_solve_u_absolute_scale():
    # the box [-1e-3, 1e-3]^2: the answer must not depend on absolute scale
    rep = ef.solve_u(ef.PolytopeH([[1e3, 0.0], [0.0, 1e3]]), BALL2)
    assert rep.status == "optimal"
    assert abs(rep.j_value - 1e3) <= 1e-9 * 1e3
    assert np.linalg.norm(rep.minimizer.q - 1e6 * np.eye(2)) <= 1e-9 * 1e6


def test_solve_u_aspect_ratio():
    # a 1000:1 box: the answer must not depend on the aspect ratio
    rep = ef.solve_u(ef.PolytopeH([[1e-3, 0.0], [0.0, 1.0]]), BALL2)
    assert rep.status == "optimal"
    target = np.diag([1e-6, 1.0])
    assert np.linalg.norm(rep.minimizer.q - target) <= 1e-9 * np.linalg.norm(target)
    assert abs(rep.minimizer.q[0, 0] - 1e-6) <= 1e-9 * 1e-6


def test_solve_u_smooth_ball_bodies():
    # the ball of any p-norm is invariant under axis flips, so the
    # minimizer over the round reference must be a round ball itself
    rep = ef.solve_u(ef.LpBall(4, 1.0, 2), BALL2)
    assert np.linalg.norm(rep.minimizer.q - np.eye(2)) < 1e-8
    assert abs(rep.j_value - 1.0) <= 1e-12
    rep = ef.solve_u(ef.LpBall(1.5, 1.0, 2), BALL2)
    assert np.linalg.norm(rep.minimizer.q - 2.0 ** (1.0 / 3.0) * np.eye(2)) < 1e-6
    assert abs(rep.j_value - 2.0 ** (1.0 / 6.0)) <= 1e-12


@pytest.mark.parametrize("p, j_value", [(3.0, 1.0), (1.5, 2.0 ** (1.0 / 6.0))])
def test_solve_u_smooth_ball_answer_is_scale_free(p, j_value):
    # the unit-scale instance scaled by 1e3 (body) and 1e3 (reference): J is
    # unchanged, so no step of the solve may be absolute
    rep = ef.solve_u(ef.LpBall(p, 1e3, 2), ef.make_ellipsoid(1e-6 * np.eye(2)))
    assert rep.status == "optimal"
    assert abs(rep.j_value - j_value) <= 1e-12 * j_value


@pytest.mark.parametrize("n", [2, 3, 4])
def test_smooth_exchange_pins_the_form(n):
    # u_K(E) for p = 1.5 against the unit ball is the ball of radius
    # n^(1/2 - 1/p); its 2^n diagonal contacts leave directions of the form
    # flat, which the slab rounds from the exchange's contacts pin
    rep = ef.solve_u(ef.LpBall(1.5, 1.0, n), ef.unit_ball(n))
    exact = ef.make_ellipsoid(n ** (2.0 / 1.5 - 1.0) * np.eye(n))
    assert rep.status == "optimal"
    assert ef.form_distance(rep.minimizer, exact) <= 1e-12


# Seeded exchanges.  Both smooth solvers start their rounds at the boundary
# extrema of E's metric as well as at the axes and the seeded directions:
# the inscribed exchange at the local minima of |x|^2 on the whitened body
# (where the fixed point of u_K touches K), and the circumscribed rounds at
# the local maxima of x^T Q_E x.  The step bounds sit between the counts with and without
# the seeds (in parentheses).

def test_seeded_exchange_reaches_the_3d_lp_ball_quickly():
    # 51 Newton steps (410)
    rep = ef.solve_u(ef.LpBall(1.5, 1.0, 3), ef.unit_ball(3))
    assert rep.status == "optimal" and rep.steps <= 120, rep.steps
    assert abs(rep.j_value - 3.0 ** (1.0 / 6.0)) <= 1e-15


def test_seeded_smooth_dual_reaches_the_2d_lp_ball_quickly():
    # 140 Newton steps (310)
    rep = ef.solve_u_bar(ef.LpBall(3, 1.0, 2), BALL2)
    assert rep.status == "attained" and rep.steps <= 200, rep.steps


def test_check_john_on_the_3d_lp_ball_solves_quickly(monkeypatch):
    # the ball of radius 3^(-1/6) is the John ellipsoid of the 3-d p = 1.5
    # ball; the solve behind the verdict takes 51 Newton steps (410)
    reports = []
    solve = solver_module.solve_u

    def recording(*args):
        reports.append(solve(*args))
        return reports[-1]

    monkeypatch.setattr(solver_module, "solve_u", recording)
    john = ef.make_ellipsoid(3.0 ** (1.0 / 3.0) * np.eye(3))
    verdict = ef.check_john(ef.LpBall(1.5, 1.0, 3), john)
    assert verdict.is_fixed_point and verdict.contained
    assert len(reports) == 1 and reports[0].steps <= 120, [r.steps for r in reports]


def test_solve_u_ellipsoidal_body_closed_form():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        body = ef.linear_image(rand_invertible(rng, n), ef.LpBall(2, 1.7, n))
        e = rand_spd_ellipsoid(rng, n)
        q_k = body.quadric_form
        rep = ef.solve_u(body, e)
        assert (rep.status, rep.lp_iterations, rep.gap) == ("optimal", 0, 0.0)
        assert np.linalg.norm(rep.minimizer.q - q_k) <= 1e-12 * np.linalg.norm(q_k)
        assert ef.isotropy_certificate(e, rep.cuts).residual <= 1e-12
        assert np.all(np.abs(ef.norm_many(body, rep.cuts) - 1.0) <= 1e-12)


@pytest.mark.parametrize("body, max_cuts", [(ef.PolytopeV(np.eye(3)), 6),
                                            (ef.LpBall(3, 1.0, 2), 4)],
                         ids=["cross_v3", "lp3_ball2"])
def test_solve_u_bar_budget_stops_before_probing(monkeypatch, body, max_cuts):
    # max_cuts caps the Newton steps of the central path; out of budget the
    # face is not analysed and I comes from the feasible iterate
    calls = []
    step = solver_module._path_step

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(solver_module, "_path_step", counting)
    rep = ef.solve_u_bar(body, ef.unit_ball(body.dim), SolveConfig(max_cuts=max_cuts))
    assert rep.status == "max_cuts_reached"
    assert np.isfinite(rep.i_value) and rep.i_value > 0
    assert len(calls) == max_cuts


def test_solve_u_bar_rejects_an_empty_budget():
    # with no LP to read I from, this used to fail with an AttributeError
    with pytest.raises(ValueError):
        ef.solve_u_bar(cross_v(2), BALL2, SolveConfig(max_cuts=0))


def test_solve_u_max_cuts_reports_feasible_iterate():
    cfg = SolveConfig(max_cuts=4)
    rep = ef.solve_u(square_h(), BALL2, cfg)
    assert rep.status == "max_cuts_reached"
    assert ef.contains_ellipsoid(square_h(), rep.minimizer, 10.0 * cfg.tol_feas).contained
    assert rep.j_value >= 1.0 - 1e-9  # cannot beat the true optimum


@pytest.mark.parametrize("max_cuts", [4, 20])
def test_smooth_exchange_budget_keeps_a_feasible_iterate(max_cuts):
    # the first round's path runs out of its Newton steps
    cfg, body, j_value = SolveConfig(max_cuts=max_cuts), ef.LpBall(1.5, 1.0, 2), 2.0 ** (1.0 / 6.0)
    rep = ef.solve_u(body, BALL2, cfg)
    assert rep.status == "max_cuts_reached"
    assert ef.contains_ellipsoid(body, rep.minimizer, 10.0 * cfg.tol_feas).contained
    assert 0.0 <= (rep.j_value / j_value) ** 2 - 1.0 <= rep.gap


def test_facet_gap_covers_the_rescale(monkeypatch):
    # random facet polytopes K and their images TK with cond(T) = 1e3: the
    # reported gap is never negative and covers the whitened excess
    # max_j |R^T g_j|^2 - 1 (g = L^{-1} h) of the path's end, by which the
    # form was scaled down to containment
    ends = []
    path = solver_module._central_path

    def recording(*args):
        ends.append(path(*args))
        return ends[-1]

    monkeypatch.setattr(solver_module, "_central_path", recording)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 6)
        extra = rng.integers(1, 9)
        body = rand_polytope_h(rng, n, n + extra)
        e = rand_spd_ellipsoid(rng, n, cond=100.0)
        t = rand_invertible(rng, n, cond=1e3)
        for k, f in ((body, e), (ef.linear_image(t, body), ef.ellipsoid_linear_image(t, e))):
            rep = ef.solve_u(k, f)
            g = np.linalg.solve(f.chol, k.facet_form.T).T
            excess = float(np.max(np.sum((g @ ends[-1].root) ** 2, axis=1))) - 1.0
            assert rep.status == "optimal" and rep.gap >= 0.0, seed
            assert rep.gap >= max(0.0, excess), seed


def test_solve_u_rotated_thin_box():
    # a rotated 1e4 : 3 : 1 box with two redundant facets: its thin direction
    # carries a tiny share of the objective, which the solve must still pin
    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    facets = np.vstack([(u * [1e4, 3.0, 1.0]) @ u.T, 0.3 * rng.standard_normal((2, 3))])
    e = rand_spd_ellipsoid(rng, 3, cond=10.0)
    body = ef.PolytopeH(facets)
    rep = ef.solve_u(body, e)
    assert rep.status == "optimal" and rep.gap <= 1e-14
    assert ef.verify_u(body, e, rep.minimizer, 1e-6).verdict == ef.VERIFIED
    assert abs(rep.j_value - 7225.142634559162) <= 1e-10 * 7225.142634559162


def _thin_box(k):
    # the recipe of test_solve_u_rotated_thin_box, drawn from default_rng(k)
    rng = np.random.default_rng(k)
    u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    facets = np.vstack([(u * [1e4, 3.0, 1.0]) @ u.T, 0.3 * rng.standard_normal((2, 3))])
    return facets, rand_spd_ellipsoid(rng, 3, cond=10.0)


@pytest.mark.parametrize("k", range(30))
def test_thin_box_containment_is_read_from_the_factor(k):
    # Q_F has condition up to ~1e8 here, so a float check of h^T Q_F^{-1} h
    # misreads the margin by up to ~1e-9; the whitened excess |R^T g_j|^2 - 1
    # does not, nor does a check through the minimizer's own factor, and an
    # equal body listed in another order with negated duplicates gets the
    # same J
    facets, e = _thin_box(k)
    rep = ef.solve_u(ef.PolytopeH(facets), e)
    assert rep.status == "optimal" and 0.0 <= rep.gap <= 1e-12
    assert ef.contains_ellipsoid(ef.PolytopeH(facets), rep.minimizer, 1e-12).contained
    twin = ef.solve_u(ef.PolytopeH(np.vstack([facets[::-1], -facets])), e)
    assert abs(twin.j_value - rep.j_value) <= 1e-11 * rep.j_value


def _phi(v, root, t, power):
    # tr X^power / (power t) + log det X + sum_k log(1 - v_k^T X v_k), X = R R^T
    x = root @ root.T
    slacks = 1.0 - np.einsum("ki,ij,kj->k", v, x, v)
    return (np.trace(np.linalg.matrix_power(x, power)) / (power * t)
            + np.linalg.slogdet(x)[1] + np.sum(np.log(slacks)))


@pytest.mark.parametrize("power", [1, -1])
def test_path_step_ascends_and_tracks_the_slacks(power):
    # from the path's own start, at a t below its starting value: every step
    # keeps X strictly feasible, never lowers phi_t, and moves the tracked
    # slacks with the factor
    rng = np.random.default_rng(41)
    for k in range(24):
        n = int(rng.integers(2, 7))
        # m below the n(n+1)/2 form entries (full SVD) and at or above them (reduced SVD)
        entries = n * (n + 1) // 2
        m = int(rng.integers(n, entries) if k % 2 else rng.integers(entries, entries + 6))
        v = rng.standard_normal((m, n))
        start = solver_module._central_path(v, 0, power)
        root, s = start.root, start.s
        t = start.t * 10.0 ** rng.uniform(-3.0, 0.0)
        phi = _phi(v, root, t, power)
        for _ in range(6):
            root, s, _ = solver_module._path_step(v, root, s, t, power)
            slacks = 1.0 - np.sum((v @ root) ** 2, axis=1)
            assert np.linalg.svd(root, compute_uv=False)[-1] > 0.0 and np.all(slacks > 0.0)
            assert np.max(np.abs(s - slacks)) <= 1e-12
            nxt = _phi(v, root, t, power)
            assert nxt >= phi - 1e-12 * abs(phi)
            phi = nxt


def test_solve_u_bar_cube_10():
    # 512 extreme-point pairs against 55 form entries: the reduced SVD of the
    # circumscribed step; the round form through the vertices is a maximizer
    # but not the only one
    rep = ef.solve_u_bar(ef.LpBall(np.inf, 1.0, 10), ef.unit_ball(10))
    assert rep.status == "attained" and rep.uniqueness == "multiple_found"
    assert abs(rep.i_value - 1.0 / np.sqrt(10.0)) <= 1e-12


@pytest.mark.parametrize("n", [6, 8, 10])
def test_solve_u_cross_polytope_ladder(n):
    # 2^(n-1) facets against n(n+1)/2 form entries: the reduced SVD of the
    # inscribed step; the minimizer is the inscribed ball of radius
    # 1/sqrt(n), so J = sqrt(n)
    rep = ef.solve_u(ef.LpBall(1, 1.0, n), ef.unit_ball(n))
    assert rep.status == "optimal" and rep.gap <= 1e-14
    assert abs(rep.j_value - np.sqrt(n)) <= 1e-14 * np.sqrt(n)


@pytest.mark.parametrize("solve, body", [
    (ef.solve_u, cube_h(3)),
    (ef.solve_u, ef.LpBall(1.5, 1.0, 2)),
    (ef.solve_u_bar, cross_v(2)),
    (ef.solve_u_bar, ef.LpBall(3, 1.0, 2)),
    (ef.solve_u, ef.LpBall(2, 1.0, 3)),
    (ef.solve_u_bar, ef.LpBall(2, 1.0, 3)),
], ids=["facet", "smooth", "vertex_dual", "smooth_dual", "ellipsoidal", "ellipsoidal_dual"])
def test_reports_count_every_newton_step(monkeypatch, solve, body):
    calls = []
    step = solver_module._path_step

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(solver_module, "_path_step", counting)
    rep = solve(body, ef.unit_ball(body.dim))
    assert rep.steps == len(calls)
    assert (rep.steps == 0) == (body.quadric_form is not None)


def test_pinning_rounds_stop_once_they_stall(caplog):
    # near p = 2 the pinning rounds contract at a rate near p - 1, so their
    # moves between forms fall to round-off and stop shrinking; the rounds
    # end once no move has set a new minimum for 5 rounds, short of their
    # cap of 30, and J keeps its accuracy
    n, p = 3, 1.99
    with caplog.at_level(logging.DEBUG, logger="ellipfit"):
        rep = ef.solve_u(ef.LpBall(p, 1.0, n), ef.unit_ball(n))
    message = [r for r in caplog.records if r.name == "ellipfit"][-1].getMessage()
    pins = int(message.split(" pinning rounds")[0].rsplit(" ", 1)[1])
    assert rep.status == "optimal" and pins <= 15, message
    assert abs(rep.j_value - n ** (1.0 / p - 0.5)) <= 1e-13


def test_facet_solves_ignore_seed_and_restarts():
    # the central path is deterministic: seed and restarts drive the
    # cutting-plane loop only
    for name, body, e in standard_corpus():
        base = ef.solve_u(body, e).minimizer.q
        for seed in (0, 101, 2002):
            for restarts in (1, 3):
                rep = ef.solve_u(body, e, SolveConfig(seed=seed, restarts=restarts))
                assert np.array_equal(rep.minimizer.q, base), (name, seed, restarts)
