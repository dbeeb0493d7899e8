"""Property tests of the facet-form solve against independent routes (the
solver-free certificate check, a redundant representation of the same
body, and a linear image of the whole instance), and of the circumscribed
solve against forms that touch the body and against linear images, and
of the slab normals that the refinement of cut-loop answers builds on."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ellipfit as ef
from ellipfit.solver import _vrep_facet_normal
from util import rand_invertible, rand_polytope_h, rand_spd_ellipsoid

PROPERTY = settings(max_examples=30, deadline=None)


def _instance(seed, n, extra):
    rng = np.random.default_rng(seed)
    body = rand_polytope_h(rng, n, n + extra)
    return rng, body, rand_spd_ellipsoid(rng, n, cond=100.0)


instances = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
                 extra=st.integers(1, 8))


@PROPERTY
@given(**instances)
def test_dual_minimizer_is_certified(seed, n, extra):
    _, body, e = _instance(seed, n, extra)
    rep = ef.solve_u(body, e)
    assert rep.status == "optimal" and rep.gap <= 1e-14
    assert ef.verify_u(body, e, rep.minimizer, 1e-6).verdict == ef.VERIFIED


@PROPERTY
@given(**instances)
def test_redundant_facets_leave_minimizer_unchanged(seed, n, extra):
    rng, body, e = _instance(seed, n, extra)
    j, k = rng.integers(0, body.facets.shape[0], 2)
    padded = ef.PolytopeH(np.vstack([body.facets, body.facets[j], -body.facets[j],
                                     0.5 * body.facets[k]]))
    base = ef.solve_u(body, e).minimizer
    assert ef.form_distance(ef.solve_u(padded, e).minimizer, base) <= 1e-8


@PROPERTY
@given(**instances, log_cond=st.floats(0.0, 3.0))
def test_linear_maps_commute_with_the_solve(seed, n, extra, log_cond):
    rng, body, e = _instance(seed, n, extra)
    t = rand_invertible(rng, n, cond=10.0**log_cond)
    direct = ef.solve_u(ef.linear_image(t, body), ef.ellipsoid_linear_image(t, e))
    assert direct.status == "optimal"
    mapped = ef.ellipsoid_linear_image(t, ef.solve_u(body, e).minimizer)
    assert ef.form_distance(direct.minimizer, mapped) <= 1e-8


# Circumscribed solve on random vertex polytopes.  The supremum is often
# not attained there (a singular optimal form), so the properties that need
# a maximizer are checked when there is one.

def _vertex_instance(seed, n, extra):
    rng = np.random.default_rng(seed)
    while True:
        try:
            body = ef.PolytopeV(rng.standard_normal((n + extra, n)))
            break
        except ValueError:
            continue
    return rng, body, rand_spd_ellipsoid(rng, n, cond=100.0)


vertex_instances = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3),
                        extra=st.integers(0, 10))


@PROPERTY
@given(**vertex_instances)
def test_circumscribed_maximizer_is_tight(seed, n, extra):
    _, body, e = _vertex_instance(seed, n, extra)
    rep = ef.solve_u_bar(body, e)
    assert rep.status in ("attained", "non_attained")
    assert rep.gap <= 1e-12
    if rep.status == "attained":
        assert ef.body_in_ellipsoid(body, rep.maximizer, 1e-9)[0]
        assert abs(ef.m_ellipsoid(e, rep.maximizer) - rep.i_value) <= 1e-9 * rep.i_value


@PROPERTY
@given(**vertex_instances)
def test_no_touching_form_beats_the_circumscribed_value(seed, n, extra):
    rng, body, e = _vertex_instance(seed, n, extra)
    i_value = ef.solve_u_bar(body, e).i_value
    w = body.generators
    for _ in range(50):
        g = rng.standard_normal((n, n + int(rng.integers(0, 2)) - 1))
        b = g @ g.T  # rank n or n - 1
        b /= np.max(np.einsum("ij,jk,ik->i", w, b, w))  # scaled to touch the body
        assert np.sqrt(np.trace(e.q_inv @ b) / n) <= i_value * (1.0 + 1e-9)


@PROPERTY
@given(**vertex_instances, log_cond=st.floats(0.0, 3.0))
@example(seed=2764331683, n=3, extra=2, log_cond=0.0)  # X ends with a 2-d null space
def test_linear_maps_commute_with_the_circumscribed_solve(seed, n, extra, log_cond):
    rng, body, e = _vertex_instance(seed, n, extra)
    t = rand_invertible(rng, n, cond=10.0**log_cond)
    base = ef.solve_u_bar(body, e)
    image = ef.solve_u_bar(ef.linear_image(t, body), ef.ellipsoid_linear_image(t, e))
    assert image.status == base.status
    assert abs(image.i_value - base.i_value) <= 1e-9 * base.i_value
    if base.status == "non_attained":  # the null space N of the limit form maps to T N
        assert np.array_equal(base.null_space[0], base.degenerate_direction)
        mapped = np.linalg.qr(t @ base.null_space.T)[0]
        assert image.null_space.shape == base.null_space.shape
        assert np.linalg.norm(mapped @ mapped.T - image.null_space.T @ image.null_space) <= 1e-8
    elif base.uniqueness == "unknown":
        mapped = ef.ellipsoid_linear_image(t, base.maximizer)
        assert ef.form_distance(image.maximizer, mapped) <= 1e-6


# The premise of the supporting-slab refinement of cut-loop answers: the
# slab normal h at a boundary point x supports the body there, h . x = 1
# and support(h) = max over the body of h . y <= 1, so the slab body
# {|h_j . y| <= 1} contains K and its minimizer is a lower bound.

def _assert_supporting(body, x, h):
    assert abs(float(h @ x) - 1.0) <= 1e-12
    assert body.support(h) <= 1.0 + 1e-12


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       p=st.floats(1.0, 20.0, exclude_min=True).filter(lambda p: p != 2.0),
       log_radius=st.floats(-3.0, 3.0),
       image=st.booleans())
def test_scaled_normal_supports_the_smooth_body(seed, n, p, log_radius, image):
    rng = np.random.default_rng(seed)
    body = ef.LpBall(p, 10.0**log_radius, n)
    if image:
        body = ef.linear_image(rand_invertible(rng, n, cond=100.0), body)
    for d in rng.standard_normal((5, n)):
        x = ef.boundary_point(body, d)
        _assert_supporting(body, x, body.scaled_normal(x))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), generators=st.integers(2, 7))
def test_vertex_facet_normal_supports_the_polygon(seed, generators):
    rng = np.random.default_rng(seed)
    body = ef.PolytopeV(rng.standard_normal((generators, 2)))
    for d in rng.standard_normal((5, 2)):
        x = ef.boundary_point(body, d)
        h = _vrep_facet_normal(body, x)
        if h is not None:
            _assert_supporting(body, x, h)
