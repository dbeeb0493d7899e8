"""Property tests of the facet-dual solve against independent routes: the
solver-free certificate check, a redundant representation of the same
body, and a linear image of the whole instance."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ellipfit as ef
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
