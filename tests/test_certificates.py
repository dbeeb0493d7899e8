import numpy as np
import pytest

import ellipfit as ef
from ellipfit import bodies, certificates
from ellipfit.certificates import _svec, _svec_dyads
from ellipfit.numerics import inv_sqrt
from util import (cross_h, rand_invertible, rand_polytope_h, rand_spd_ellipsoid, rectangle_h,
                  square_h)


def test_contact_points_square_disk():
    pts = ef.contact_points(square_h(), ef.unit_ball(2), ef.unit_ball(2), 1e-6)
    assert pts.shape == (2, 2)
    assert np.allclose(np.sort(np.abs(pts).max(axis=1)), [1.0, 1.0])
    got = {tuple(np.round(np.abs(p), 9)) for p in pts}
    assert got == {(1.0, 0.0), (0.0, 1.0)}


def test_contact_points_rectangle():
    f = ef.make_ellipsoid(np.diag([0.25, 1.0]))
    pts = ef.contact_points(rectangle_h(), ef.unit_ball(2), f, 1e-6)
    got = {tuple(np.round(np.abs(p), 9)) for p in pts}
    assert got == {(2.0, 0.0), (0.0, 1.0)}


def test_contact_points_none_when_strictly_inside():
    small = ef.make_ellipsoid(4.0 * np.eye(2))  # disk of radius 1/2
    assert ef.contact_points(square_h(), ef.unit_ball(2), small, 1e-6).shape[0] == 0


def test_contact_points_sampled_body():
    # unit disk inscribed in the p=4 ball touches exactly on the axes
    pts = ef.contact_points(ef.LpBall(4, 1.0, 2), ef.unit_ball(2), ef.unit_ball(2), 1e-8)
    assert pts.shape[0] == 2
    for p in pts:
        assert abs(np.linalg.norm(p) - 1.0) < 1e-6
        assert min(abs(abs(p[0]) - 1.0), abs(abs(p[1]) - 1.0)) < 1e-4


def test_verify_u_scans_the_candidate_once(monkeypatch):
    # containment and contact finding read the same scan of Q_F, kept on the body;
    # on a body with a normal each scan runs one ascent
    calls = []
    ascent = bodies._normal_ascent
    monkeypatch.setattr(bodies, "_normal_ascent", lambda *args: calls.append(1) or ascent(*args))
    ball = ef.unit_ball(3)  # the minimizer of the p=3 ball: it touches on the axes
    res = ef.verify_u(ef.LpBall(3, 1.0, 3), ball, ball, 1e-6)
    assert res.verdict == ef.VERIFIED and res.certificate.points.shape[0] == 3
    assert len(calls) == 1


def test_isotropy_certificate_examples():
    ball = ef.unit_ball(2)
    cert = ef.isotropy_certificate(ball, [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(cert.weights, [1.0, 1.0]) and cert.residual < 1e-12
    cert = ef.isotropy_certificate(ball, [[2.0, 0.0], [0.0, 1.0]])
    assert np.allclose(cert.weights, [0.25, 1.0]) and cert.residual < 1e-12
    cert = ef.isotropy_certificate(ball, [[1.0, 0.0]])
    assert abs(cert.residual - 1.0 / np.sqrt(2.0)) < 1e-12
    with pytest.raises(ValueError):
        ef.isotropy_certificate(ball, np.empty((0, 2)))


def test_verify_u_examples():
    ball = ef.unit_ball(2)
    assert ef.verify_u(square_h(), ball, ball, 1e-6).verdict == ef.VERIFIED
    f = ef.make_ellipsoid(np.diag([0.25, 1.0]))
    res = ef.verify_u(rectangle_h(), ball, f, 1e-6)
    assert res.verdict == ef.VERIFIED
    assert np.allclose(np.sort(res.certificate.weights), [0.25, 1.0])
    inflated = ef.make_ellipsoid(np.diag([0.25, 1.0]) / 1.01**2)  # axes grown 1%
    assert ef.verify_u(rectangle_h(), ball, inflated, 1e-6).verdict == ef.FAILED_CONTAINMENT


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_u_accepts_smooth_minimizers_under_anisotropic_maps(seed):
    # 25 lp balls (p in [1.1, 1.8] or [2.2, 12], n = 2-3) mapped with their
    # unit ball by a rand_invertible(cond=100) draw; the minimizer is the
    # mapped ball of radius n^(1/2 - 1/p) for p < 2 and 1 for p > 2.  A scan
    # in the body's own coordinates missed contacts of 32 of the 75; verify_u
    # scans the body whitened by the reference, where every instance is a
    # rotated lp ball against a round form.  Instance 24 of seed 0 is the CI
    # step "Console script, anisotropic smooth certificate".
    rng = np.random.default_rng(seed)
    for i in range(25):
        p = rng.uniform(1.1, 1.8) if rng.random() < 0.5 else rng.uniform(2.2, 12.0)
        n = int(rng.integers(2, 4))
        t = rand_invertible(rng, n, cond=100.0)
        r = n ** (0.5 - 1.0 / p) if p < 2 else 1.0
        body = ef.linear_image(t, ef.LpBall(p, 1.0, n))
        e = ef.ellipsoid_linear_image(t, ef.unit_ball(n))
        f = ef.ellipsoid_linear_image(t, ef.make_ellipsoid(np.eye(n) / r**2))
        res = ef.verify_u(body, e, f, 1e-9)
        assert res.verdict == ef.VERIFIED, (i, n, p, res.verdict, res.residual)


def test_verify_u_contacts_come_out_to_round_off():
    # the 75 instances above: the starts whose power rounds contract slowly
    # (p near 2) finish by Newton rounds, so the contacts, and the isotropy
    # residual of their weights, are exact to round-off (power rounds alone
    # left 8.2e-9 on instance 10 of seed 0, p = 1.7964 in 3-d: the CI step
    # "Console script, slow-contraction certificate")
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        for i in range(25):
            p = rng.uniform(1.1, 1.8) if rng.random() < 0.5 else rng.uniform(2.2, 12.0)
            n = int(rng.integers(2, 4))
            t = rand_invertible(rng, n, cond=100.0)
            r = n ** (0.5 - 1.0 / p) if p < 2 else 1.0
            body = ef.linear_image(t, ef.LpBall(p, 1.0, n))
            e = ef.ellipsoid_linear_image(t, ef.unit_ball(n))
            f = ef.ellipsoid_linear_image(t, ef.make_ellipsoid(np.eye(n) / r**2))
            res = ef.verify_u(body, e, f, 1e-9)
            assert res.verdict == ef.VERIFIED and res.residual <= 1e-12, (seed, i, n, p, res.residual)


def test_verify_u_soundness_on_solver_outputs():
    rng = np.random.default_rng(0)
    ball2 = ef.unit_ball(2)
    instances = [(square_h(), ball2), (rectangle_h(), ball2), (cross_h(2), ball2)]
    for _ in range(3):
        n = int(rng.integers(2, 4))
        instances.append((rand_polytope_h(rng, n, int(rng.integers(3, 7))),
                          rand_spd_ellipsoid(rng, n)))
    for body, e in instances:
        rep = ef.solve_u(body, e)
        res = ef.verify_u(body, e, rep.minimizer, 1e-6)
        assert res.verdict == ef.VERIFIED, (res.verdict, res.residual)
        # shrinking the minimizer keeps containment but loses every contact
        shrunk = ef.make_ellipsoid(rep.minimizer.q / 0.99**2)
        res2 = ef.verify_u(body, e, shrunk, 1e-6)
        assert res2.verdict == ef.FAILED_ISOTROPY
        assert ef.contains_ellipsoid(body, shrunk, 1e-6).contained
        # support size stays moderate (observed, not asserted as a bound)
        s = len(res.certificate.weights)
        assert s >= body.dim


def test_certificate_transforms_with_the_instance():
    rng = np.random.default_rng(1)
    body = rand_polytope_h(rng, 2, 4)
    e = rand_spd_ellipsoid(rng, 2)
    rep = ef.solve_u(body, e)
    t = np.array([[1.3, 0.4], [-0.2, 0.9]])
    tbody = ef.linear_image(t, body)
    te = ef.ellipsoid_linear_image(t, e)
    tf = ef.ellipsoid_linear_image(t, rep.minimizer)
    assert ef.verify_u(tbody, te, tf, 1e-6).verdict == ef.VERIFIED


def test_verify_u_reports_residual_when_isotropy_fails():
    ball = ef.unit_ball(2)
    lopsided = ef.make_ellipsoid(np.diag([1.0, 4.0]))  # inscribed, touches only (+-1, 0)
    res = ef.verify_u(square_h(), ball, lopsided, 1e-6)
    assert res.verdict == ef.FAILED_ISOTROPY
    assert res.residual > 0.1


def test_dyads_pack_like_single_forms():
    # the batched packing must give the per-dyad columns bit for bit
    rng = np.random.default_rng(15)
    for n in range(1, 6):
        pts = rng.standard_normal((7, n))
        rows = _svec_dyads(pts)
        for p, row in zip(pts, rows):
            assert np.array_equal(row, _svec(np.outer(p, p)))


def _ellipsoidal_image():
    t = np.array([[1.5, 0.3, -0.2], [0.1, 0.8, 0.4], [-0.3, 0.2, 1.2]])
    body = ef.linear_image(t, ef.LpBall(2, 1.0, 3))
    return body, ef.make_ellipsoid(body.quadric_form)


def test_quadric_contacts_are_closed_form():
    # the image of the 2-ball is its own minimizer; it touches itself
    # everywhere, and the isotropy weights pick one contact per axis
    body, own = _ellipsoidal_image()
    for e in (own, ef.make_ellipsoid(np.diag([1.0, 2.0, 3.0]))):
        res = ef.verify_u(body, e, own, 1e-6)
        assert res.verdict == ef.VERIFIED
        assert res.certificate.points.shape[0] == 3
        assert res.residual <= 1e-12


def test_quadric_contacts_on_a_subspace():
    # W Q_F W with eigenvalues 1, 1, 2: F touches K on a plane only
    body, own = _ellipsoidal_image()
    root = inv_sqrt(own.q_inv)  # Q_K^{1/2} = W^{-1}
    v = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0], [1.5, 0.2, -0.7]]))[0]
    f = ef.make_ellipsoid(root @ v @ np.diag([1.0, 1.0, 2.0]) @ v.T @ root)
    res = ef.verify_u(body, own, f, 1e-6)
    assert res.verdict == ef.FAILED_ISOTROPY
    assert res.certificate.points.shape[0] == 2
    for x in res.certificate.points:
        assert abs(body.norm(x) - 1.0) <= 1e-12
        assert abs(float(x @ f.q @ x) - 1.0) <= 1e-12


def test_quadric_contacts_none_when_strictly_inside():
    body, own = _ellipsoidal_image()
    inner = ef.make_ellipsoid(1.01 * own.q)
    assert ef.contact_points(body, own, inner, 1e-6).shape == (0, 3)
    res = ef.verify_u(body, own, inner, 1e-6)
    assert res.verdict == ef.FAILED_ISOTROPY and res.residual == 1.0


def test_sampled_contacts_come_from_the_scan(monkeypatch):
    # every binding of boundary_point counts, so no module calls it
    calls = []
    original = bodies.boundary_point
    for module in (ef, bodies, certificates):
        if getattr(module, "boundary_point", None) is original:
            monkeypatch.setattr(module, "boundary_point",
                                lambda *args: calls.append(1) or original(*args))
    inscribed = ef.make_ellipsoid(2.0 * np.eye(2))  # touches the cross-polytope at (+-1, +-1) / 2
    res = ef.verify_u(ef.PolytopeV(np.eye(2)), ef.unit_ball(2), inscribed, 1e-6)
    assert res.verdict == ef.VERIFIED and res.certificate.points.shape[0] == 2
    assert calls == []
