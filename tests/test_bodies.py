import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ellipfit as ef
from ellipfit import bodies
from util import (cross_h, cross_v, cube_v_rows, rand_invertible, rand_polytope_h, rand_spd_ellipsoid,
                  rectangle_h, square_h)


def test_norm_square():
    assert square_h().norm([3.0, 1.0]) == 3.0
    assert square_h().norm([0.0, 0.0]) == 0.0


def test_norm_cross_vrep():
    assert abs(cross_v(2).norm([1.0, 1.0]) - 2.0) < 1e-9
    assert abs(cross_v(2).norm([0.3, -0.2]) - 0.5) < 1e-9


def test_norm_lp_ball():
    assert abs(ef.LpBall(2, 2.0, 2).norm([3.0, 4.0]) - 2.5) < 1e-12
    assert abs(ef.LpBall(np.inf, 1.0, 2).norm([0.5, -0.75]) - 0.75) < 1e-12
    assert abs(ef.LpBall(1, 1.0, 2).norm([0.5, -0.75]) - 1.25) < 1e-12


def test_norm_homogeneity():
    rng = np.random.default_rng(0)
    bodies = [square_h(), cross_v(2), ef.LpBall(3, 1.5, 2),
              ef.linear_image([[2.0, 1.0], [0.0, 1.0]], square_h())]
    for body in bodies:
        for _ in range(20):
            x = rng.standard_normal(2)
            t = rng.uniform(-3.0, 3.0)
            assert abs(body.norm(t * x) - abs(t) * body.norm(x)) <= 1e-12 * (
                1.0 + body.norm(x))


def test_norm_is_the_batched_gauge():
    t = np.array([[1.0, 0.4], [-0.3, 0.9]])
    bodies = [square_h(), cross_v(2), ef.LpBall(1, 1.0, 2), ef.LpBall(1.5, 2.0, 2),
              ef.LpBall(2, 0.5, 2), ef.LpBall(np.inf, 1.0, 2), ef.LinearImage(t, square_h()),
              ef.LinearImage(t, cross_v(2)), ef.LinearImage(t, ef.LpBall(3, 1.0, 2))]
    rng = np.random.default_rng(12)
    for body in bodies:
        for x in list(rng.standard_normal((5, 2))) + [np.zeros(2)]:
            assert body.norm(x) == ef.norm_many(body, x[None])[0], (body, x)
        assert body.norm(np.zeros(2)) == 0.0


@pytest.mark.parametrize("generators", [np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]),
                                        np.random.default_rng(3).standard_normal((7, 3))])
def test_vertex_gauge_dense_and_sparse_batches_agree(generators):
    # 40 points take the sparse block LP, chunks of 20 and 1 the dense one
    body = ef.PolytopeV(generators)
    pts = np.random.default_rng(4).standard_normal((40, generators.shape[1]))
    pts[7] = 0.0
    whole = ef.norm_many(body, pts)
    chunks = np.concatenate([ef.norm_many(body, pts[:20]), ef.norm_many(body, pts[20:])])
    np.testing.assert_allclose(whole, chunks, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(whole, [body.norm(x) for x in pts], rtol=1e-12, atol=0.0)
    assert whole[7] == 0.0


def _dual_norm(theta, p):
    """||theta||_q for q = p / (p - 1), with max |theta_i| factored out."""
    a = np.abs(theta)
    if p == 1.0:
        return a.max()
    if np.isinf(p):
        return a.sum()
    q = p / (p - 1.0)
    return a.max() * np.sum((a / a.max()) ** q) ** (1.0 / q)


def test_support_examples():
    # support is defined once, as the polar body's gauge: closed forms to
    # 1e-12, and to 1e-9 where that gauge is a vertex LP (a facet body's polar)
    assert abs(square_h().support([1.0, 1.0]) - 2.0) <= 1e-9 * 2.0
    assert abs(cross_v(2).support([1.0, 1.0]) - 1.0) < 1e-12
    assert abs(ef.LpBall(2, 2.0, 2).support([0.0, 3.0]) - 6.0) < 1e-12
    rng = np.random.default_rng(8)
    thetas = list(rng.standard_normal((6, 2))) + [np.array([2e3, 1.0])]
    assert 101 * np.log(2e3) > np.log(np.finfo(float).max)  # |2e3|^101 overflows
    t = np.array([[1.0, 0.4], [-0.3, 0.9]])
    cases = [(square_h(), 1e-9, lambda th: np.abs(th).sum()),
             (cross_v(2), 1e-12, lambda th: np.abs(th).max()),
             (ef.LinearImage(t, square_h()), 1e-9, lambda th: np.abs(t.T @ th).sum()),
             (ef.linear_image(t, ef.LpBall(3, 1.5, 2)), 1e-12,
              lambda th: 1.5 * _dual_norm(t.T @ th, 3.0))]
    for p, radius in [(1, 1.0), (1.01, 1.0), (1.01, 1e-3), (1.01, 1e3), (3, 2.0), (np.inf, 0.5)]:
        cases.append((ef.LpBall(p, radius, 2), 1e-12,
                      lambda th, p=p, radius=radius: radius * _dual_norm(th, p)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for body, rtol, closed in cases:
            for theta in thetas:
                want = closed(theta)
                assert abs(body.support(theta) - want) <= rtol * want, (body, theta)
            assert body.support(np.zeros(2)) == 0.0


def test_support_is_the_vertex_maximum():
    # h_K(theta) = max_k |theta . v_k| over the vertex pairs +-v_k of a
    # polytope, whichever form it is given in; to 1e-9 where support is a
    # vertex LP (the polar of a facet body)
    rng = np.random.default_rng(1)
    t = np.array([[1.0, 0.5], [0.0, 1.0]])
    w = rng.standard_normal((5, 3))
    cases = [(square_h(), cube_v_rows(2)), (rectangle_h(), [[2.0, 1.0], [2.0, -1.0]]),
             (cross_v(2), np.eye(2)), (ef.linear_image(t, cross_h(2)), t.T),
             (cross_h(3), np.eye(3)), (ef.PolytopeV(w), w)]
    for body, vertices in cases:
        for theta in rng.standard_normal((20, body.dim)):
            want = np.max(np.abs(np.asarray(vertices) @ theta))
            assert abs(body.support(theta) - want) <= 1e-9 * want, (body, theta)


def test_boundary_point_examples():
    assert np.allclose(ef.boundary_point(square_h(), [2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(ef.boundary_point(cross_v(2), [1.0, 1.0]), [0.5, 0.5])
    assert np.allclose(ef.boundary_point(ef.LpBall(2, 1.0, 2), [3.0, 4.0]), [0.6, 0.8])
    with pytest.raises(ef.ZeroDirectionError):
        ef.boundary_point(square_h(), [0.0, 0.0])


def test_polar_examples():
    p = ef.polar(square_h())
    assert isinstance(p, ef.PolytopeV)
    assert np.allclose(p.generators, np.eye(2))
    b = ef.polar(ef.LpBall(1, 1.0, 2))
    assert isinstance(b, ef.LpBall) and np.isinf(b.p) and b.radius == 1.0


def test_support_of_an_image_is_the_inner_support_at_the_transpose():
    # h_TK(theta) = h_K(T^T theta), in closed form for each inner body; no
    # boundary point of a fine net of TK exceeds it, and the net comes close
    t2 = np.array([[2.0, 0.5], [0.0, 1.0]])
    t3 = np.array([[1.0, 0.3, 0.0], [-0.2, 0.9, 0.4], [0.1, 0.0, 1.5]])
    cases = [(ef.linear_image(t2, square_h()), 1e-9, lambda th: np.abs(t2.T @ th).sum()),
             (ef.LinearImage(t2, cross_v(2)), 1e-12, lambda th: np.abs(t2.T @ th).max()),
             (ef.LinearImage(t2, ef.LpBall(3, 1.5, 2)), 1e-12,
              lambda th: 1.5 * _dual_norm(t2.T @ th, 3.0)),
             (ef.LinearImage(t3, ef.LpBall(4, 1.0, 3)), 1e-12,
              lambda th: _dual_norm(t3.T @ th, 4.0))]
    rng = np.random.default_rng(2)
    for body, rtol, closed in cases:
        net = bodies.direction_net(body.dim, 20000)
        net /= ef.norm_many(body, net)[:, None]
        for theta in rng.standard_normal((20, body.dim)):
            want, sampled = closed(theta), np.max(np.abs(net @ theta))
            assert abs(body.support(theta) - want) <= rtol * want, (body, theta)
            assert want * (1.0 - 2e-3) <= sampled <= want * (1.0 + 1e-12), (body, theta)


def test_bipolar_identity():
    rng = np.random.default_rng(3)
    bodies = [square_h(), cross_v(2), ef.LpBall(1.5, 2.0, 2),
              ef.linear_image([[1.0, 0.3], [-0.2, 0.9]], cross_h(2)),
              rand_polytope_h(rng, 3, 5)]
    for body in bodies:
        double = ef.polar(ef.polar(body))
        for _ in range(20):
            x = rng.standard_normal(body.dim)
            assert abs(double.norm(x) - body.norm(x)) <= 1e-8 * (1.0 + body.norm(x))


def test_linear_image_pushes_through():
    img = ef.linear_image(np.diag([2.0, 1.0]), square_h())
    assert isinstance(img, ef.PolytopeH)
    assert np.allclose(img.facets, [[0.5, 0.0], [0.0, 1.0]])
    same = ef.linear_image(np.eye(2), cross_v(2))
    assert isinstance(same, ef.PolytopeV)
    assert np.allclose(same.generators, np.eye(2))


def test_linear_image_rotation_norm_sampling():
    phi = np.pi / 4.0
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    img = ef.linear_image(rot, cross_v(2))
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal(2)
        direct = np.sum(np.abs(rot.T @ x))  # gauge of the rotated ||.||_1 ball
        assert abs(img.norm(x) - direct) <= 1e-9 * (1.0 + direct)


def test_linear_image_rejects_singular():
    with pytest.raises(ef.SingularTransformError):
        ef.linear_image([[1.0, 1.0], [1.0, 1.0]], square_h())


def test_contains_ellipsoid_square_disk():
    v = ef.contains_ellipsoid(square_h(), ef.unit_ball(2), 1e-9)
    assert v.contained and abs(v.worst_margin) < 1e-12 and v.method == "exact"
    assert abs(square_h().norm(v.witness) - 1.0) < 1e-9


def test_contains_ellipsoid_wide_ellipse_rejected():
    f = ef.make_ellipsoid(np.diag([0.25, 1.0]))
    v = ef.contains_ellipsoid(square_h(), f, 1e-9)
    assert not v.contained
    assert abs(v.worst_margin - (-0.75)) < 1e-12
    assert np.allclose(v.witness, [1.0, 0.0])
    assert abs(float(v.witness @ f.q @ v.witness) - 0.25) < 1e-12


def test_contains_ellipsoid_rectangle_touching():
    f = ef.make_ellipsoid(np.diag([0.25, 1.0]))
    v = ef.contains_ellipsoid(rectangle_h(), f, 1e-9)
    assert v.contained and abs(v.worst_margin) < 1e-12


def test_contains_ellipsoid_ball_body_exact():
    body = ef.LpBall(2, 2.0, 2)
    v = ef.contains_ellipsoid(body, ef.unit_ball(2), 1e-9)
    assert v.contained and abs(v.worst_margin - 3.0) < 1e-12 and v.method == "exact"


def test_contains_ellipsoid_sampled_flag():
    v = ef.contains_ellipsoid(ef.LpBall(4, 1.0, 2), ef.unit_ball(2), 1e-8)
    assert v.method == "sampled" and v.contained


def _dense_margin(body, form, samples=4096):
    ang = 2.0 * np.pi * np.arange(samples) / samples
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    x = dirs / ef.norm_many(body, dirs)[:, None]
    return float(np.min(np.einsum("ij,jk,ik->i", x, form, x)) - 1.0)


def test_containment_agrees_with_dense_sampling():
    rng = np.random.default_rng(5)
    tol = 1e-8
    for k in range(50):
        if k % 3 == 0:
            body = rand_polytope_h(rng, 2, int(rng.integers(2, 6)))
        elif k % 3 == 1:
            body = ef.LpBall(float(rng.uniform(1.2, 4.0)), float(rng.uniform(0.5, 2.0)), 2)
        else:
            body = ef.linear_image(rng.standard_normal((2, 2)) + 2 * np.eye(2),
                                   cross_h(2))
        g = rng.standard_normal((2, 2))
        f = ef.make_ellipsoid(g.T @ g + 0.05 * np.eye(2))
        v = ef.contains_ellipsoid(body, f, tol, net_size=360, starts=32)
        dense = _dense_margin(body, f.q)
        if v.contained:
            assert dense >= -10.0 * tol
        assert abs(body.norm(v.witness) - 1.0) <= 1e-9


def test_scan_repeats_are_kept_and_read_only():
    a, b = np.diag([1.0, 2.0, 3.0]), np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
    calls = [(a, 1, {}), (b, 1, {}), (a, 1, {}), (a, -1, {}),
             (a, 1, dict(net_size=180, starts=16, rounds=24)), (a, 1, {})]
    body = ef.LpBall(3, 1.0, 3)
    for form, sense, scan in calls:
        kept = bodies.boundary_quadratic_scan(body, form, sense, **scan)
        fresh = bodies.boundary_quadratic_scan(ef.LpBall(3, 1.0, 3), form, sense, **scan)
        assert all(k.tobytes() == f.tobytes() for k, f in zip(kept, fresh))
        assert bodies.boundary_quadratic_scan(body, form, sense, **scan)[0] is kept[0]
    dirs, vals = kept
    with pytest.raises(ValueError):
        dirs[0, 0] = 1.0
    with pytest.raises(ValueError):
        vals[0] = 1.0


def _fold_merge_pairwise(points):
    """The pairwise loop `fold_merge` replaced, kept as its reference."""
    kept, units = [], []
    for p in points:
        p, u = bodies.canonical_pair(p)
        if any(abs(float(u @ v)) >= np.cos(1e-4) for v in units):
            continue
        kept.append(p)
        units.append(u)
    return kept


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fold_merge_matches_the_pairwise_loop(n):
    rng = np.random.default_rng(n)
    base = rng.standard_normal((30, n))

    def turned(x, angle):  # x rotated by `angle` radians in a random plane
        u = x / np.linalg.norm(x)
        w = rng.standard_normal(n)
        w -= (w @ u) * u
        return np.linalg.norm(x) * (np.cos(angle) * u + np.sin(angle) * w / np.linalg.norm(w))

    cloud = np.vstack([base, -base[::2], base[1::3], 2.0 * base[::5],
                       [turned(x, 0.5e-4) for x in base[::2]],
                       [-turned(x, 2e-4) for x in base[1::2]]])
    cloud = cloud[rng.permutation(len(cloud))]
    units = cloud / np.linalg.norm(cloud, axis=1, keepdims=True)
    cos = np.abs(units @ units.T)
    assert np.min(np.abs(cos - np.cos(1e-4))) > 1e-9  # every pair is clear of the threshold
    ref = _fold_merge_pairwise(cloud)
    assert len(ref) == len(base) + len(base[1::2])  # copies and 0.5e-4 turns merge, 2e-4 turns stay
    assert np.array_equal(bodies.fold_merge(cloud), ref)
    assert np.array_equal(bodies.fold_merge(list(cloud)), ref)


def _fold_merge_per_row(points):
    """The per-row loop `fold_merge` ran before it signed its rows in one
    batch, kept as its reference."""
    kept, units = [], np.empty((len(points), len(points[0])))
    for p in points:
        p, u = bodies.canonical_pair(p)
        if kept and np.abs(units[:len(kept)] @ u).max() >= bodies._MERGE_COS:
            continue
        units[len(kept)] = u
        kept.append(p)
    return np.array(kept)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), k=st.integers(1, 200))
def test_fold_merge_matches_the_per_row_loop(seed, n, k):
    # k rows in n dimensions, drawn among random rows, their antipodes and
    # scaled copies, and turns by 0.5e-4 radians (merged) and 2e-4 (kept)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((k, n)) * rng.exponential(size=(k, 1))
    turn = rng.standard_normal((k, n))
    turn -= np.sum(turn * base, axis=1, keepdims=True) / np.sum(base * base, axis=1, keepdims=True) * base
    turn *= np.linalg.norm(base, axis=1, keepdims=True) / np.linalg.norm(turn, axis=1, keepdims=True)
    cloud = np.vstack([base, -base, -3.0 * base, base + 0.5e-4 * turn, -(base + 2e-4 * turn)])
    cloud = cloud[rng.choice(len(cloud), k, replace=False)]
    units = cloud / np.linalg.norm(cloud, axis=1, keepdims=True)
    # the batched cosines may round apart from the per-row ones, which only
    # matters for a pair within rounding of the threshold
    assume(np.min(np.abs(np.abs(units @ units.T) - bodies._MERGE_COS)) > 1e-12)
    kept = bodies.fold_merge(cloud)
    ref = _fold_merge_per_row(cloud)
    assert kept.shape == ref.shape and kept.tobytes() == ref.tobytes()
    assert bodies.fold_merge(list(cloud)).tobytes() == ref.tobytes()


def test_norm_triangle_inequality():
    rng = np.random.default_rng(6)
    cheap = [square_h(), ef.LpBall(1.7, 1.3, 2), cross_h(3),
             ef.linear_image([[2.0, 0.4], [0.1, 1.1]], square_h())]
    for body in cheap:
        xs = rng.standard_normal((1000, body.dim))
        ys = rng.standard_normal((1000, body.dim))
        nx = ef.norm_many(body, xs)
        ny = ef.norm_many(body, ys)
        ns = ef.norm_many(body, xs + ys)
        assert np.all(ns <= nx + ny + 1e-9)
    vbody = ef.PolytopeV(rng.standard_normal((4, 2)))
    xs = rng.standard_normal((150, 2))
    ys = rng.standard_normal((150, 2))
    assert np.all(ef.norm_many(vbody, xs + ys)
                  <= ef.norm_many(vbody, xs) + ef.norm_many(vbody, ys) + 1e-9)


def test_body_json_roundtrip():
    bodies = [square_h(), cross_v(2), ef.LpBall(np.inf, 2.0, 3),
              ef.LpBall(1.5, 1.0, 2),
              ef.LinearImage([[2.0, 0.0], [0.0, 1.0]], ef.LpBall(3, 1.0, 2))]
    # the documents as each variant writes them, key order included
    docs = ['{"dim": 2, "type": "polytope_h", "facets": [[1.0, 0.0], [0.0, 1.0]]}',
            '{"dim": 2, "type": "polytope_v", "generators": [[1.0, 0.0], [0.0, 1.0]]}',
            '{"dim": 3, "type": "lp_ball", "p": "inf", "radius": 2.0}',
            '{"dim": 2, "type": "lp_ball", "p": 1.5, "radius": 1.0}',
            '{"dim": 2, "type": "linear_image", "matrix": [[2.0, 0.0], [0.0, 1.0]], '
            '"inner": {"dim": 2, "type": "lp_ball", "p": 3.0, "radius": 1.0}}']
    rng = np.random.default_rng(7)
    for body, doc in zip(bodies, docs):
        assert json.dumps(ef.body_to_json(body)) == doc
        back = ef.body_from_json(ef.body_to_json(body))
        assert type(back) is type(body) and json.dumps(ef.body_to_json(back)) == doc
        for _ in range(10):
            x = rng.standard_normal(body.dim)
            assert abs(back.norm(x) - body.norm(x)) < 1e-10


def test_body_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        ef.body_from_json({"dim": 2, "type": "polytope_h", "facets": [[1, 0], [0, 1]],
                           "color": "red"})
    with pytest.raises(ValueError):
        ef.body_from_json({"dim": 2, "type": "mystery"})
    with pytest.raises(ValueError):
        ef.body_from_json({"dim": 2, "type": "lp_ball", "p": "two", "radius": 1.0})
    with pytest.raises(ValueError):
        ef.body_from_json({"dim": 3, "type": "polytope_h", "facets": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError):
        ef.body_from_json({"dim": 2, "type": "polytope_h",
                           "facets": [[1, 0], [2, 0]]})  # does not span


@pytest.mark.parametrize("doc", [
    {"dim": True, "type": "lp_ball", "p": 2, "radius": 1},
    {"dim": 2, "type": "lp_ball", "p": True, "radius": 1},
    {"dim": 2, "type": "lp_ball", "p": 1, "radius": True},
    {"dim": 2, "type": "lp_ball", "p": False, "radius": 1},
    {"dim": True, "type": "polytope_h", "facets": [[1.0]]},
    {"dim": 2, "type": "linear_image", "matrix": [[1, 0], [0, 1]],
     "inner": {"dim": 2, "type": "lp_ball", "p": 2, "radius": True}},
], ids=["dim", "p", "radius", "p_false", "dim_1d_facets", "nested_radius"])
def test_body_json_rejects_booleans_as_numbers(doc):
    # JSON true and false are Python bools, and bool is an int: unchecked,
    # "p": true built the l1 ball and "radius": true the unit ball
    with pytest.raises(ValueError):
        ef.body_from_json(doc)


def test_construction_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        ef.PolytopeH([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        ef.PolytopeV([[1.0, 0.0]])
    with pytest.raises(ValueError):
        ef.LpBall(0.5, 1.0, 2)
    with pytest.raises(ValueError):
        ef.LpBall(2, -1.0, 2)


def test_nested_json_image_matches_linear_image_twin():
    # body_from_json keeps LinearImage(T2, LinearImage(T1, K)) as built, while
    # linear_image pushes T2 T1 into polytope data: the structure each body
    # composes through its maps must give the same oracles and solves.
    t1 = np.array([[1.0, 0.4], [-0.3, 0.9]])
    t2 = np.array([[0.7, 0.0], [0.5, 1.2]])
    inners = [
        {"dim": 2, "type": "polytope_h", "facets": [[1.0, 0.0], [0.3, 1.0], [1.0, -1.0]]},
        {"dim": 2, "type": "polytope_v", "generators": [[1.0, 0.2], [0.1, 1.0], [0.8, -0.7]]},
    ] + [{"dim": 2, "type": "lp_ball", "p": p, "radius": 1.5} for p in (1, 2, 3, "inf")]
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((40, 2))
    small, large = ef.make_ellipsoid(25.0 * np.eye(2)), ef.make_ellipsoid(0.01 * np.eye(2))
    e = ef.make_ellipsoid([[2.0, 0.7], [0.7, 1.3]])
    for inner in inners:
        doc = {"dim": 2, "type": "linear_image", "matrix": t2.tolist(),
               "inner": {"dim": 2, "type": "linear_image", "matrix": t1.tolist(),
                         "inner": inner}}
        nested = ef.body_from_json(doc)
        twin = ef.linear_image(t2 @ t1, ef.body_from_json(inner))
        a, b = ef.norm_many(nested, pts), ef.norm_many(twin, pts)
        assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b)), inner
        for ell in (small, large):
            # a coarse scan keeps the sampled (vertex-polytope) case fast
            va, vb = (ef.contains_ellipsoid(body, ell, 1e-9, net_size=90, starts=4, rounds=8)
                      for body in (nested, twin))
            assert (va.method, va.contained) == (vb.method, vb.contained), inner
            (oka, exa), (okb, exb) = (ef.body_in_ellipsoid(nested, ell, 1e-9),
                                      ef.body_in_ellipsoid(twin, ell, 1e-9))
            assert oka == okb and abs(exa - exb) <= 1e-9 * (1.0 + abs(exb)), inner
        if nested.facet_form is None and nested.quadric_form is None \
                and nested.scaled_normal is None:
            continue  # the vertex polytope runs the cut loop: too slow for this suite
        ra, rb = ef.solve_u(nested, e), ef.solve_u(twin, e)
        assert abs(ra.j_value - rb.j_value) <= 1e-9 * rb.j_value, inner
        if nested.quadric_form is None:
            assert ra.gap is not None and rb.gap is not None, inner


def test_containment_witness_is_a_boundary_point_of_its_own():
    t = np.array([[1.2, 0.4, 0.0], [-0.3, 0.9, 0.2], [0.1, 0.0, 1.4]])
    inner = [square_h(), cross_v(2), ef.LpBall(1, 1.0, 2), ef.LpBall(2, 1.5, 2),
             ef.LpBall(3, 1.0, 3), ef.LpBall(np.inf, 0.5, 3)]
    for body in inner + [ef.linear_image(t[:b.dim, :b.dim], b) for b in inner]:
        f = ef.make_ellipsoid(np.diag(np.arange(2.0, 2.0 + body.dim)) * 4.0)
        v = ef.contains_ellipsoid(body, f, 1e-6)
        assert abs(body.norm(v.witness) - 1.0) <= 1e-12, type(body)
        if body.last_scan is not None:
            assert not np.shares_memory(v.witness, body.last_scan[1])


def test_lp_gauge_and_normal_survive_extreme_exponents():
    # |x_i|^p overflows at p = 101 and |x_i| = 2e3, r**p at p = 150 and
    # r = 1e3, and |x_i|^3 underflows at 1e-200; ordinary rows keep the
    # bits of the plain p-norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = ef.polar(ef.LpBall(1.01, 1e-3, 2))  # the p = 101 ball of radius 1e3
        assert abs(ef.norm_many(big, [[2e3, 1.0]])[0] - 2.0) <= 1e-12
        x = ef.boundary_point(ef.LpBall(101, 1.0, 2), [2e3, 1.0])
        assert np.allclose(x, [1.0, 5e-4], rtol=1e-12, atol=0.0)
        tiny = ef.norm_many(ef.LpBall(3, 1.0, 2), [[1e-200, 0.0]])[0]
        assert abs(tiny / 1e-200 - 1.0) <= 1e-12
        body = ef.LpBall(150, 1e3, 2)
        x = ef.boundary_point(body, [1.0, 0.5])
        h = body.scaled_normal(x)
        assert abs(float(h @ x) - 1.0) <= 1e-12 and body.support(h) <= 1.0 + 1e-12
    pts = np.random.default_rng(3).standard_normal((20, 3))
    assert np.array_equal(ef.norm_many(ef.LpBall(3, 2.0, 3), pts),
                          np.linalg.norm(pts, ord=3, axis=1) / 2.0)


def test_image_scaled_normal_takes_a_point_or_rows():
    # one expression serves both: rows k = n and k != n give the per-row
    # normals, each supporting at its point (h . x = 1)
    t3 = np.array([[1.0, 0.3, 0.0], [-0.2, 0.9, 0.4], [0.1, 0.0, 1.5]])
    rng = np.random.default_rng(9)
    for body in (ef.linear_image([[2.0, 0.5], [0.0, 1.0]], ef.LpBall(3, 1.0, 2)),
                 ef.linear_image(t3, ef.LpBall(1.5, 2.0, 3)),
                 ef.LinearImage(t3, ef.LinearImage(t3.T, ef.LpBall(4, 1.0, 3)))):
        for k in (body.dim, body.dim + 1, 5):
            dirs = rng.standard_normal((k, body.dim))
            x = dirs / ef.norm_many(body, dirs)[:, None]
            h = body.scaled_normal(x)
            rows = np.array([body.scaled_normal(p) for p in x])
            assert np.all(np.abs(h - rows) <= 1e-14 * np.abs(rows).max(axis=1, keepdims=True))
            assert np.all(np.abs(np.sum(h * x, axis=1) - 1.0) <= 1e-12)


_EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), k=st.integers(1, 40),
       p=st.sampled_from([1.0, 1.5, 3.0, 4.0, 101.0, np.inf]), log_scale=st.floats(0.0, 200.0))
def test_scan_kernels_match_einsum_and_linalg_norm(seed, n, k, p, log_scale):
    # rows scaled by up to 10^(+-log_scale), so |x_i|^p over- and underflows;
    # where np.linalg.norm then reads inf or 0, the reference is np.linalg.norm
    # of the row with max |x_i| factored out
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, n))
    x[rng.random(x.shape) < 0.1] = 0.0
    g = rng.standard_normal((n, n))
    q = g + g.T
    bound = 4 * n * _EPS
    exact = np.einsum("ij,jk,ik->i", x, q, x)
    scale = ((np.abs(x) @ np.abs(q)) * np.abs(x)).sum(1)  # |x|^T |Q| |x|
    assert np.all(np.abs(bodies._quad(x, q) - exact) <= bound * scale)
    live = np.any(x, axis=1)
    unit = x[live] / np.linalg.norm(x[live], axis=1, keepdims=True)
    assert np.all(np.abs(bodies._unit(x[live]) - unit) <= bound)
    wide = x * 10.0 ** rng.uniform(-log_scale, log_scale, (k, 1))
    with np.errstate(over="ignore"):
        ref = np.linalg.norm(wide, ord=p, axis=1) / 0.7
    lost = ~np.isfinite(ref) | ((ref == 0.0) & np.any(wide, axis=1))
    top = np.abs(wide[lost]).max(axis=1, keepdims=True)
    ref[lost] = top[:, 0] * np.linalg.norm(wide[lost] / top, ord=p, axis=1) / 0.7
    got = ef.LpBall(p, 0.7, n).norm_many(wide)
    assert np.all(np.abs(got - ref) <= bound * ref), (got, ref)


# (p, T, Q, min, max) of x^T Q x over the boundary of T B_p, each from a
# KKT solve in mpmath at 40 digits, rounded to the nearest double: with
# M = T^T Q T and ||u||_p = 1, Newton on M u = mu s(u), s(u) = sign(u) |u|^(p-1),
# in the unknowns u (p > 2) or s(u) (p < 2, where u = sign(s) |s|^(1/(p-1))
# stays smooth), from the scan's point; the extremum is mu = u^T M u, and
# KKT solves from the best of 200000 random boundary points found none
# beyond it.  The scan must agree to 1e-14.  p = 1.01 and p = 100 put
# |u|^(p-1) and the polar body's |y|^(q-1) near 1e-30, where the normals
# under- and overflow.
_T3 = [[1.0, 0.3, 0.0], [-0.2, 0.9, 0.4], [0.1, 0.0, 1.5]]
_Q3 = [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.6]]
_PINNED_SCANS = [
    (1.5, [[2.0, 0.5], [0.0, 1.0]], [[1.3, 0.2], [0.2, 0.7]],
     0.5158613144220745, 5.328367864445578),
    (3.0, _T3, _Q3, 0.8998464156505556, 3.326325828922055),
    (4.0, [[0.8, -0.6], [0.6, 0.8]], [[1.0, 0.4], [0.4, 3.0]],
     1.2806211521518833, 4.346309198845615),
    (1.01, _T3, _Q3, 0.30032098802729335, 1.954),
    (100.0, _T3, _Q3, 0.9281901899166554, 6.553824021790803),
]


@pytest.mark.parametrize("p, t, q, low, high", _PINNED_SCANS)
def test_scan_extremum_is_pinned(p, t, q, low, high):
    body = ef.linear_image(t, ef.LpBall(p, 1.0, len(t)))
    for sense, want in ((1, low), (-1, high)):
        value, x, method = bodies._boundary_extremum(body, np.array(q), sense)
        assert method == "sampled" and abs(value - want) <= 1e-14 * want, (sense, value)
        assert abs(body.norm(x) - 1.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       p=st.sampled_from([1.01, 1.3, 1.5, 3.0, 4.0, 8.0, 100.0]), sense=st.sampled_from([1, -1]))
def test_normal_ascent_climbs_to_stationary_points(seed, n, p, sense):
    # no start loses value, and a settled one is a KKT point of x^T Q x on
    # the boundary: a minimum where the body's normal is parallel to Q x, a
    # maximum where x is the support point of Q x, the polar body's normal
    # there (near a corner of the p = 1.01 ball the body's own normal turns
    # too fast to tell)
    rng = np.random.default_rng(seed)
    body = ef.linear_image(rand_invertible(rng, n, cond=10.0), ef.LpBall(p, 1.0, n))
    q = rand_spd_ellipsoid(rng, n, cond=10.0).q
    starts = rng.standard_normal((32, n))
    x, slow = bodies._normal_ascent(body, q, starts, sense, 96)
    before, after = bodies._boundary_values(body, q, starts)[1], bodies._quad(x, q)
    assert np.all(sense * (after - before) <= 1e-14 * before)
    assert np.all(np.abs(body.norm_many(x) - 1.0) <= 1e-13)
    if sense > 0:
        pair = body.scaled_normal(x), x @ q
    else:
        y = x @ q
        pair = body.polar_body.scaled_normal(y / body.polar_body.norm_many(y)[:, None]), x
    normal, point = (bodies._unit(v[~slow]) for v in pair)
    assert np.all(np.abs(normal - point) <= 1e-10), np.abs(normal - point).max()


def test_compass_search_serves_only_bodies_without_a_normal(monkeypatch):
    calls = []
    descent = bodies._pattern_descent
    monkeypatch.setattr(bodies, "_pattern_descent", lambda *args: calls.append(1) or descent(*args))
    form = np.array([[1.0, 0.2], [0.2, 2.0]])
    for sense in (1, -1):
        bodies.boundary_quadratic_scan(ef.LpBall(3, 1.0, 2), form, sense)
    assert not calls
    bodies.boundary_quadratic_scan(ef.PolytopeV([[1.0, 0.2], [0.1, 1.0]]), form, -1)
    assert len(calls) == 1


def test_gauge_hessian_matches_finite_differences():
    # the closed-form curvature at boundary rows against central differences
    # of the gradient z -> scaled_normal(z / g(z)); bodies without a scaled
    # normal have none
    rng = np.random.default_rng(11)
    for p in (1.3, 1.5, 3.0, 4.0, 8.0):
        for n in (2, 3, 4):
            for body in (ef.LpBall(p, 0.7, n), ef.linear_image(rand_invertible(rng, n), ef.LpBall(p, 1.3, n))):
                x = rng.standard_normal((5, n))
                x /= body.norm_many(x)[:, None]

                def grad(z):
                    return body.scaled_normal(z / body.norm_many(z)[:, None])

                fd = np.stack([(grad(x + 1e-6 * e) - grad(x - 1e-6 * e)) / 2e-6 for e in np.eye(n)], axis=2)
                h = body.gauge_hessian(x)
                assert h.shape == (5, n, n) and np.abs(fd - h).max() <= 4e-6 * np.abs(h).max()
    for body in (square_h(), cross_v(2), ef.LpBall(1, 1.0, 2), ef.LpBall(np.inf, 1.0, 2),
                 ef.LinearImage(np.eye(2), cross_v(2))):
        assert body.gauge_hessian is None and body.scaled_normal is None


def test_only_slowly_contracting_starts_take_newton_rounds():
    # power rounds contract at 1/2 toward the minima on the p = 1.5 ball and
    # the maxima on the p = 3 ball and at 1/3 toward the maxima on the p = 4
    # ball (42, 42 and 27 rounds); their starts finish by Newton rounds, at
    # KKT points to round-off.  Toward the minima on the p = 3 ball and the
    # maxima on the p = 1.5 ball they contract ever faster and take none.
    for p, n, sense, newton in ((1.5, 4, 1, True), (3.0, 2, -1, True), (4.0, 3, -1, True),
                                (3.0, 3, 1, False), (1.5, 3, -1, False)):
        body = ef.LpBall(p, 1.0, n)
        x, slow = bodies._normal_ascent(body, np.eye(n), np.random.default_rng(0).standard_normal((64 * n, n)),
                                        sense, 48)
        rounds, compass, newton_rounds = body.scan_effort
        assert not slow.any() and rounds <= 16 and (newton_rounds > 0) == newton, body.scan_effort
        if sense > 0:
            pair = body.scaled_normal(x), x
        else:
            pair = body.polar_body.scaled_normal(x / body.polar_body.norm_many(x)[:, None]), x
        normal, point = (bodies._unit(v) for v in pair)
        assert np.all(np.abs(normal - point) <= 1e-14)


def test_scan_finds_the_flat_minimum():
    # a condition-10 image of the 3-d p = 4 ball against a condition-10 form
    # whose boundary minimum is flat: the scan must reach 0.67094231513, the
    # value of a 192-start compass search (power rounds alone ended at
    # 0.670942424)
    rng = np.random.default_rng(2066484347)
    body = ef.linear_image(rand_invertible(rng, 3, cond=10.0), ef.LpBall(4, 1.0, 3))
    form = rand_spd_ellipsoid(rng, 3, cond=10.0).q
    assert bodies.boundary_quadratic_scan(body, form, 1)[1].min() <= 0.67094231513
