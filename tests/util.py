"""Shared test fixtures: standard bodies, random instance generators."""

import itertools

import numpy as np

import ellipfit as ef


def square_h():
    return ef.PolytopeH(np.eye(2))


def rectangle_h():
    # facets (1/2, 0) and (0, 1): the box [-2, 2] x [-1, 1]
    return ef.PolytopeH([[0.5, 0.0], [0.0, 1.0]])


def cube_h(n):
    return ef.PolytopeH(np.eye(n))


def cube_v_rows(n):
    """The sign vectors of length n, one row per +- pair: the vertices of
    the cube [-1, 1]^n and the facets of the cross-polytope."""
    return np.array([s for s in itertools.product((1.0, -1.0), repeat=n) if s[0] > 0])


def cross_h(n):
    """The ||.||_1 unit ball as a facet polytope (one facet per sign pattern)."""
    return ef.PolytopeH(cube_v_rows(n))


def cross_v(n):
    return ef.PolytopeV(np.eye(n))


def rand_polytope_h(rng, n, pairs):
    while True:
        try:
            return ef.PolytopeH(rng.standard_normal((pairs, n)))
        except ValueError:
            continue


def rand_spd_ellipsoid(rng, n, cond=25.0):
    """Random reference ellipsoid with eigenvalue ratio at most `cond`."""
    g = rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    lam = np.exp(rng.uniform(0.0, np.log(cond), n))
    lam /= np.sqrt(lam.min() * lam.max())
    return ef.make_ellipsoid(u @ np.diag(lam) @ u.T)


def rand_invertible(rng, n, cond=10.0):
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.exp(rng.uniform(-0.5 * np.log(cond), 0.5 * np.log(cond), n))
    return u @ np.diag(s) @ v


def standard_corpus():
    """Named (body, reference ellipsoid) instances reused across suites."""
    rng = np.random.default_rng(90210)
    ball2 = ef.unit_ball(2)
    ball3 = ef.unit_ball(3)
    return [
        ("square", square_h(), ball2),
        ("rectangle", rectangle_h(), ball2),
        ("cross2", cross_h(2), ball2),
        ("cube3", cube_h(3), ball3),
        ("cross3", cross_h(3), ball3),
        ("hex2", rand_polytope_h(rng, 2, 4), rand_spd_ellipsoid(rng, 2)),
        ("rand3", rand_polytope_h(rng, 3, 5), rand_spd_ellipsoid(rng, 3)),
    ]
