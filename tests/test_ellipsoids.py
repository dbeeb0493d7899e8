import numpy as np
import pytest

import ellipfit as ef
from ellipfit.oracle import quadrature_m
from util import rand_invertible, rand_spd_ellipsoid

SQRT58 = np.sqrt(5.0 / 8.0)
SQRT52 = np.sqrt(5.0 / 2.0)


def test_make_ellipsoid_validates():
    ball = ef.unit_ball(2)
    assert np.allclose(ball.q, np.eye(2))
    e = ef.make_ellipsoid(np.diag([0.25, 1.0]))
    assert abs(float(np.array([2.0, 0.0]) @ e.q @ np.array([2.0, 0.0])) - 1.0) < 1e-12
    with pytest.raises(ef.NotPositiveDefiniteError):
        ef.make_ellipsoid(np.diag([1.0, 0.0]))
    assert np.linalg.norm(e.q @ e.q_inv - np.eye(2)) <= 1e-9


def test_inner_product():
    ball = ef.unit_ball(2)
    assert ef.inner_product(ball, [1.0, 0.0], [0.0, 1.0]) == 0.0
    e2 = ef.make_ellipsoid(2.0 * np.eye(2))
    x = np.array([1.0 / np.sqrt(2.0), 0.0])
    assert abs(ef.inner_product(e2, x, x) - 1.0) < 1e-12
    e3 = ef.make_ellipsoid(np.diag([0.25, 1.0]))
    assert abs(ef.inner_product(e3, [2.0, 0.0], [2.0, 0.0]) - 1.0) < 1e-12


def test_m_ellipsoid_closed_form():
    ball = ef.unit_ball(2)
    assert ef.m_ellipsoid(ball, ball) == 1.0
    f = ef.make_ellipsoid(np.diag([0.25, 1.0]))
    assert abs(ef.m_ellipsoid(ball, f) - SQRT58) < 1e-14
    e = ef.make_ellipsoid(np.diag([1.0, 0.25]))
    assert abs(ef.m_ellipsoid(e, ball) - SQRT52) < 1e-14


def test_m_ellipsoid_matches_quadrature():
    # independent Monte-Carlo route: mean square gauge of F over boundary of E
    ball = ef.unit_ball(2)
    body = ef.LinearImage(np.diag([2.0, 1.0]), ef.LpBall(2, 1.0, 2))  # gauge of diag(1/4,1)
    est, se = quadrature_m(ball, body, 100_000, seed=7)
    assert abs(est - SQRT58) <= 3.0 * se
    e = ef.make_ellipsoid(np.diag([1.0, 0.25]))
    est2, se2 = quadrature_m(e, ef.LpBall(2, 1.0, 2), 100_000, seed=8)
    assert abs(est2 - SQRT52) <= 3.0 * se2


def test_m_star_closed_form():
    ball = ef.unit_ball(2)
    assert ef.m_star(ball, ball) == 1.0
    # ||.||_1 ball in the plane: maximal inscribed disk has form 2*Id, and the
    # axis-aligned family diag(1/l1, 1/l2) with l1+l2=1 all sit at value 1
    d = ef.make_ellipsoid(2.0 * np.eye(2))
    f = ef.make_ellipsoid(np.diag([3.0, 1.5]))  # l = (1/3, 2/3)
    assert abs(ef.m_star(d, f) - 1.0) < 1e-14
    g = ef.make_ellipsoid(np.diag([0.25, 1.0]))
    assert abs(ef.m_star(ball, g) - SQRT52) < 1e-14


def test_m_star_is_m_of_polar():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        e = rand_spd_ellipsoid(rng, n)
        f = rand_spd_ellipsoid(rng, n)
        assert abs(ef.m_star(e, f) - ef.m_ellipsoid(e, ef.polar_wrt(e, f))) <= 1e-10


def test_polar_wrt():
    ball = ef.unit_ball(2)
    f = ef.make_ellipsoid(np.diag([0.25, 1.0]))
    assert np.allclose(ef.polar_wrt(ball, f).q, np.diag([4.0, 1.0]))
    e = rand_spd_ellipsoid(np.random.default_rng(1), 3)
    assert ef.form_distance(ef.polar_wrt(e, e), e) < 1e-12
    e2 = ef.make_ellipsoid(2.0 * np.eye(2))
    assert np.allclose(ef.polar_wrt(e2, ef.unit_ball(2)).q, 4.0 * np.eye(2))


def test_polar_wrt_involution():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        e = rand_spd_ellipsoid(rng, n)
        f = rand_spd_ellipsoid(rng, n)
        assert ef.form_distance(ef.polar_wrt(e, ef.polar_wrt(e, f)), f) <= 1e-9


def test_ellipsoid_linear_image():
    ball = ef.unit_ball(2)
    assert ef.form_distance(ef.ellipsoid_linear_image(np.eye(2), ball), ball) == 0.0
    img = ef.ellipsoid_linear_image(np.diag([2.0, 1.0]), ball)
    assert np.allclose(img.q, np.diag([0.25, 1.0]))
    phi = np.pi / 4.0
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    rotated = ef.ellipsoid_linear_image(rot, ef.make_ellipsoid(np.diag([0.25, 1.0])))
    vals, _ = ef.sym_eigen(rotated.q)
    assert np.allclose(vals, [1.0, 0.25], atol=1e-12)
    with pytest.raises(ef.SingularTransformError):
        ef.ellipsoid_linear_image(np.zeros((2, 2)), ball)


def test_sample_mu_moments():
    ball = ef.unit_ball(2)
    pts = ef.sample_mu(ball, 100_000, seed=0)
    assert np.allclose(np.einsum("ij,ij->i", pts, pts), 1.0, atol=1e-10)
    second = pts.T @ pts / pts.shape[0]
    assert np.max(np.abs(second - np.eye(2) / 2.0)) <= 3.0 / np.sqrt(pts.shape[0])
    e = ef.make_ellipsoid(np.diag([1.0, 0.25]))
    pts = ef.sample_mu(e, 100_000, seed=1)
    assert np.allclose(np.einsum("ij,jk,ik->i", pts, e.q, pts), 1.0, atol=1e-10)
    sq = np.einsum("ij,ij->i", pts, pts)
    assert abs(sq.mean() - 2.5) <= 4.0 * sq.std(ddof=1) / np.sqrt(pts.shape[0])


def test_sample_mu_deterministic():
    e = ef.make_ellipsoid([[2.0, 0.3], [0.3, 1.0]])
    a = ef.sample_mu(e, 100, seed=5)
    b = ef.sample_mu(e, 100, seed=5)
    assert np.array_equal(a, b)


def test_closed_form_matches_quadrature_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 4))
        e = rand_spd_ellipsoid(rng, n)
        f = rand_spd_ellipsoid(rng, n)
        pts = ef.sample_mu(e, 100_000, seed=int(rng.integers(1 << 30)))
        vals = np.einsum("ij,jk,ik->i", pts, f.q, pts)
        est = np.sqrt(vals.mean())
        se = vals.std(ddof=1) / np.sqrt(vals.size) / (2.0 * est)
        assert abs(est - ef.m_ellipsoid(e, f)) <= 3.0 * se


def test_m_times_m_star_at_least_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        e = rand_spd_ellipsoid(rng, n)
        f = rand_spd_ellipsoid(rng, n)
        assert ef.m_ellipsoid(e, f) * ef.m_star(e, f) >= 1.0 - 1e-10
    e = rand_spd_ellipsoid(rng, 3)
    f = ef.make_ellipsoid(2.7 * e.q)
    assert abs(ef.m_ellipsoid(e, f) * ef.m_star(e, f) - 1.0) <= 1e-10


def test_m_equivariance_and_scale_law():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        e = rand_spd_ellipsoid(rng, n)
        f = rand_spd_ellipsoid(rng, n)
        t = rand_invertible(rng, n)
        lhs = ef.m_ellipsoid(ef.ellipsoid_linear_image(t, e),
                             ef.ellipsoid_linear_image(t, f))
        assert abs(lhs - ef.m_ellipsoid(e, f)) <= 1e-9 * (1.0 + lhs)
        for scale in (0.5, 3.0):
            te = ef.make_ellipsoid(e.q / scale**2)
            assert abs(ef.m_ellipsoid(te, f) - scale * ef.m_ellipsoid(e, f)) <= 1e-10 * (
                1.0 + scale * ef.m_ellipsoid(e, f))


def test_ellipsoid_json_roundtrip():
    e = ef.make_ellipsoid([[2.0, 0.5], [0.5, 1.0]])
    back = ef.ellipsoid_from_json(ef.ellipsoid_to_json(e))
    assert ef.form_distance(e, back) == 0.0
    with pytest.raises(ValueError):
        ef.ellipsoid_from_json({"dim": 2, "Q": [[1, 0], [0, 1]], "extra": 1})
    with pytest.raises(ValueError):
        ef.ellipsoid_from_json({"dim": 2, "Q": [[1, 0.5], [0, 1]]})
    with pytest.raises(ef.NotPositiveDefiniteError):
        ef.ellipsoid_from_json({"dim": 2, "Q": [[1, 0], [0, 0]]})
    with pytest.raises(ValueError):  # JSON true is a bool, and so an int: it read as dim 1
        ef.ellipsoid_from_json({"dim": True, "Q": [[1.0]]})
