"""Seeded workloads: the ops each pass runs, with raw-array inputs and the
expected outcome of every op.

A body is a tuple of raw arrays, built into a package object inside the
timed op:

* ``("h", facets)``           -- facet polytope
* ``("v", generators)``       -- vertex polytope
* ``("lp", p, dim)``          -- unit lp ball
* ``("image", T, inner)``     -- the linear image T K

Ops whose inputs come from the seed have ``rand_``, ``image_`` or
``interior_`` in their id; all other inputs are fixed.

The three known-bad cases of the roadmap are kept exactly as it states them.
They, and any defect this benchmark found, are listed in KNOWN_DEFECTS with
the defect they show; they count as failed ops until the defect is fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import reference as ref

# Relative tolerance of J and I against their reference.
VALUE_RTOL = 1e-6
# Tolerance handed to verify_u, as in acceptance criterion C05.
CERTIFY_TOL = 1e-6

KNOWN_DEFECTS = {
    "facet/solve_u/scale_box_1e3":
        "ROADMAP item 4: absolute box_R makes the LP box active (SolverError)",
    "facet/solve_u/aspect_box_1e-3":
        "ROADMAP item 4: 1000:1 aspect ratio exhausts the cut budget (max_cuts_reached)",
    "vertex/solve_u/item2_counterexample":
        "ROADMAP item 2: interior generators seeded as cuts give J = 3.6171 labelled optimal",
    "vertex/solve_u_bar/image_cube_v3":
        "found by this benchmark: on some seeded images of the 3-cube solve_u_bar reports "
        "non_attained for an attained maximum (I is right)",
    "vertex/solve_u_bar/image_cross_v3":
        "found by this benchmark: on some seeded images of the 3-d cross-polytope "
        "solve_u_bar reports non_attained for an attained maximum (I is right)",
}


@dataclass(frozen=True)
class Op:
    """One public call with its inputs and expected outcome.

    kind is solve_u, certify, check_john, solve_u_bar,
    verify_dual_equivalence or cli.  `expect` holds the expected status,
    verdict or flag and the reference J or I; `source` says where the
    reference comes from.  `candidate` is the form handed to verify_u or
    verify_dual_equivalence; `twin` names the in-process solve whose J a
    CLI run must reproduce.  A pass runs the op `repeats` times, each run
    one attempted op and one time sample.
    """

    id: str
    kind: str
    body: tuple
    q_e: np.ndarray
    expect: dict
    source: str
    candidate: np.ndarray | None = None
    twin: str | None = None
    known_defect: str | None = None
    repeats: int = 1


SOLVE_KINDS = ("solve_u", "check_john", "solve_u_bar", "verify_dual_equivalence", "cli")
WORKLOADS = ("facet", "vertex", "smooth")


# ---------------------------------------------------------------------------
# Seeded inputs.

def rand_spd(rng, n, cond=25.0):
    """Random form with eigenvalue ratio at most `cond` (same draws as the
    test suite's rand_spd_ellipsoid, so the roadmap's cases reproduce)."""
    g = rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    lam = np.exp(rng.uniform(0.0, np.log(cond), n))
    lam /= np.sqrt(lam.min() * lam.max())
    return u @ np.diag(lam) @ u.T


def rand_map(rng, n, cond=3.0):
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.exp(rng.uniform(-0.5 * np.log(cond), 0.5 * np.log(cond), n))
    return u @ np.diag(s) @ v


def rand_facets(rng, n, m):
    while True:
        h = rng.standard_normal((m, n))
        sv = np.linalg.svd(h, compute_uv=False)
        if sv[-1] > 1e-2 * sv[0]:
            return h


def rand_generators_with_interior(rng, n, outer, inner):
    """`outer` random generators plus `inner` generators of gauge <= 0.6,
    which lie strictly inside conv{+-w} and are not vertices."""
    w = rng.standard_normal((outer, n))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w *= rng.uniform(0.8, 1.2, (outer, 1))
    coef = rng.uniform(-1.0, 1.0, (inner, outer))
    coef *= rng.uniform(0.2, 0.6, (inner, 1)) / np.abs(coef).sum(axis=1, keepdims=True)
    return np.vstack([w, coef @ w])


def sign_rows(n):
    return np.array([s for s in itertools.product((1.0, -1.0), repeat=n) if s[0] > 0])


# ---------------------------------------------------------------------------
# Op groups.

def _solve(ops, name, body, q_e, j_ref, source):
    ops.append(Op(f"solve_u/{name}", "solve_u", body, q_e,
                  {"status": "optimal", "j": j_ref}, source))


def _solve_and_certify(ops, name, body, q_e, q_ref, j_ref, source):
    _solve(ops, name, body, q_e, j_ref, source)
    _certify(ops, name, body, q_e, q_ref, source)


def _certify(ops, name, body, q_e, q_ref, source):
    ops.append(Op(f"certify/{name}", "certify", body, q_e,
                  {"verdict": "verified"}, source, candidate=q_ref))
    ops.append(Op(f"certify/{name}*1.01", "certify", body, q_e,
                  {"verdict": "rejected"}, source, candidate=1.01 * q_ref))


def _dual(facets, q_e):
    q_ref, j_ref, _ = ref.dual_minimizer(facets, q_e)
    return q_ref, j_ref


def facet_ops(rng):
    ops = []
    for n in (2, 3, 4):
        _solve_and_certify(ops, f"cube_h{n}", ("h", np.eye(n)), np.eye(n),
                           np.eye(n), 1.0, "closed_form")
    for n in (2, 3, 4):
        _solve_and_certify(ops, f"cross_h{n}", ("h", sign_rows(n)), np.eye(n),
                           n * np.eye(n), np.sqrt(n), "closed_form")
        _solve_and_certify(ops, f"l1_ball{n}", ("lp", 1.0, n), np.eye(n),
                           n * np.eye(n), np.sqrt(n), "closed_form")
    # The 4-d max-norm ball has the same facets as cube_h4 and another 4 s
    # solve; it is left out so that a pass fits one run.
    for n in (2, 3):
        _solve_and_certify(ops, f"linf_ball{n}", ("lp", np.inf, n), np.eye(n),
                           np.eye(n), 1.0, "closed_form")
    _solve_and_certify(ops, "scale_box_1e3", ("h", np.array([[1e3, 0.0], [0.0, 1e3]])),
                       np.eye(2), 1e6 * np.eye(2), 1e3, "closed_form")
    _solve_and_certify(ops, "aspect_box_1e-3", ("h", np.array([[1e-3, 0.0], [0.0, 1.0]])),
                       np.eye(2), np.diag([1e-6, 1.0]), float(np.sqrt((1e-6 + 1.0) / 2.0)),
                       "closed_form")
    for n, count in ((2, 1), (3, 2), (4, 1)):
        for k in range(count):
            h = rand_facets(rng, n, n + int(rng.integers(1, 4)))
            q_e = rand_spd(rng, n, cond=10.0)
            _solve_and_certify(ops, f"rand_h{n}_{k}", ("h", h), q_e, *_dual(h, q_e), "dual")
    t = rand_map(rng, 3)
    _solve_and_certify(ops, "image_cube_h3", ("image", t, ("h", np.eye(3))),
                       ref.image_form(t, np.eye(3)), ref.image_form(t, np.eye(3)), 1.0, "equivariance")
    t = rand_map(rng, 2)
    _solve_and_certify(ops, "image_cross_h2", ("image", t, ("h", sign_rows(2))),
                       ref.image_form(t, np.eye(2)), ref.image_form(t, 2.0 * np.eye(2)), np.sqrt(2.0),
                       "equivariance")
    t = rand_map(rng, 2)
    h = rand_facets(rng, 2, 2 + int(rng.integers(1, 4)))
    q_e = rand_spd(rng, 2, cond=10.0)
    q_ref, j_ref = _dual(h, q_e)
    _solve_and_certify(ops, "image_rand_h2", ("image", t, ("h", h)), ref.image_form(t, q_e),
                       ref.image_form(t, q_ref), j_ref, "dual+equivariance")

    t = rand_map(rng, 2)
    for name, body, q_e, fixed, source in (
            ("cube_h2", ("h", np.eye(2)), np.eye(2), True, "closed_form"),
            ("image_cross_h2", ("image", t, ("h", sign_rows(2))),
             ref.image_form(t, 2.0 * np.eye(2)), True, "equivariance"),
            ("cube_h2_small_ball", ("h", np.eye(2)), 2.0 * np.eye(2), False, "closed_form"),
            ("image_cube_h2_big_ball", ("image", t, ("h", np.eye(2))),
             ref.image_form(t, 0.5 * np.eye(2)), False, "equivariance")):
        ops.append(Op(f"check_john/{name}", "check_john", body, q_e, {"fixed": fixed}, source))

    for twin in ("cube_h2", "rand_h2_0"):
        solve = next(op for op in ops if op.id == f"solve_u/{twin}")
        ops.append(Op(f"cli/{twin}", "cli", solve.body, solve.q_e,
                      {"exit": 0, "j": solve.expect["j"]}, solve.source, twin=solve.id))
    return ops


def vertex_ops(rng):
    ops = []
    w = np.random.default_rng(7).standard_normal((5, 2))
    q_e = rand_spd(np.random.default_rng(8), 2)
    _solve(ops, "item2_counterexample", ("v", w), q_e, _dual(ref.hull_facets(w), q_e)[1],
           "dual+hull")
    _certify(ops, "cross_v2", ("v", np.eye(2)), np.eye(2), 2.0 * np.eye(2), "closed_form")
    w = rand_generators_with_interior(rng, 2, 3, 2)
    q_e = rand_spd(rng, 2, cond=10.0)
    # Reference candidate only: each certify op on this body takes ~3 s, and
    # cross_v2 already checks that an inflated candidate is rejected.
    ops.append(Op("certify/interior_v2", "certify", ("v", w), q_e, {"verdict": "verified"},
                  "dual+hull", candidate=_dual(ref.hull_facets(w), q_e)[0]))

    square = np.array([[1.0, 1.0], [1.0, -1.0]])
    narrow = np.array([[0.1, 1.0], [0.1, -1.0]])
    cube3 = sign_rows(3)
    bars = [("c10_square_v", square, np.eye(2), "attained", 1.0 / np.sqrt(2.0), "closed_form"),
            ("c10_narrow_v", narrow, np.eye(2), "non_attained", np.sqrt(50.0), "closed_form"),
            ("cross_v2", np.eye(2), np.eye(2), "attained", 1.0, "closed_form"),
            ("cross_v3", np.eye(3), np.eye(3), "attained", 1.0, "closed_form"),
            ("cube_v3", cube3, np.eye(3), "attained", 1.0 / np.sqrt(3.0), "closed_form")]
    for name, gens, status, i_ref in (("square_v", square, "attained", 1.0 / np.sqrt(2.0)),
                                      ("narrow_v", narrow, "non_attained", np.sqrt(50.0)),
                                      ("cube_v3", cube3, "attained", 1.0 / np.sqrt(3.0)),
                                      ("cross_v3", np.eye(3), "attained", 1.0)):
        t = rand_map(rng, gens.shape[1])
        bars.append((f"image_{name}", gens @ t.T, ref.image_form(t, np.eye(t.shape[0])), status,
                     i_ref, "equivariance"))
    for name, gens, q_e, status, i_ref, source in bars:
        expect = {"status": status, "i": i_ref}
        if name == "c10_square_v":
            expect["uniqueness"] = "multiple_found"
        ops.append(Op(f"solve_u_bar/{name}", "solve_u_bar", ("v", gens), q_e, expect, source))

    t = rand_map(rng, 2)
    for name, body, q_e, f, equivalent, source in (
            ("c11_square_v_half", ("v", square), np.eye(2), 0.5 * np.eye(2), True, "closed_form"),
            ("c11_square_v_quarter", ("v", square), np.eye(2), 0.25 * np.eye(2), False,
             "closed_form"),
            ("cross_v2", ("v", np.eye(2)), np.eye(2), np.eye(2), True, "closed_form"),
            ("image_square_v_half", ("v", square @ t.T), ref.image_form(t, np.eye(2)),
             ref.image_form(t, 0.5 * np.eye(2)), True, "equivariance")):
        ops.append(Op(f"verify_dual_equivalence/{name}", "verify_dual_equivalence", body, q_e,
                      {"equivalent": equivalent}, source, candidate=f))
    return ops


def smooth_ops(rng):
    ops = []
    # n = 4 for p = 1.5 and 3 only: the 4-d p = 4 ball adds a 6.5 s solve,
    # and a pass has to fit one run.
    for p, n in itertools.product((1.5, 3.0, 4.0), (2, 3, 4)):
        if (p, n) != (4.0, 4):
            j = ref.lp_ball_j(p, n)
            _solve_and_certify(ops, f"lp{p:g}_ball{n}", ("lp", p, n), np.eye(n),
                               j * j * np.eye(n), j, "closed_form")
    for p, n in ((1.5, 2), (3.0, 3), (4.0, 2)):
        t = rand_map(rng, n)
        j = ref.lp_ball_j(p, n)
        _solve_and_certify(ops, f"image_lp{p:g}_ball{n}", ("image", t, ("lp", p, n)),
                           ref.image_form(t, np.eye(n)), ref.image_form(t, j * j * np.eye(n)), j,
                           "equivariance")
    for n in (2, 3):
        t = rand_map(rng, n)
        q = ref.image_form(t, np.eye(n))
        _solve_and_certify(ops, f"image_l2_ball{n}", ("image", t, ("lp", 2.0, n)), np.eye(n),
                           q, float(np.sqrt(np.trace(q) / n)), "closed_form")
    for p in (1.5, 3.0, 4.0):
        ops.append(Op(f"solve_u_bar/lp{p:g}_ball2", "solve_u_bar", ("lp", p, 2), np.eye(2),
                      {"status": "attained", "i": ref.lp_ball_i(p, 2)}, "closed_form"))
    return ops


def body_dim(spec) -> int:
    return spec[2] if spec[0] == "lp" else spec[1].shape[1]


SEEDED_TAGS = ("rand_", "image_", "interior_")


def _repeats(workload, op):
    """Runs of an op per pass.

    Cheap ops whose inputs do not depend on the seed run several times per
    pass, spread over it by run.schedule; each run is one more sample.  Seeded ops run once: their cost
    moves by 20-30% from seed to seed, so a median that falls on them moves
    with the seed.  The counts put each workload's median and tail inside a
    group of fixed ops rather than in the gap between two groups, where
    they jumped by 25% from seed to seed:
    - facet: certify ops (under a millisecond) run 7 times; 2-d solve ops
      run 4 times, so the solve median falls among them and the tail among
      the 3-d solves;
    - vertex: 2-d solve_u_bar runs 10 times and 2-d verify_dual_equivalence
      5 times, so the median falls among the first and the tail among the
      second;
    - smooth: 2-d solve_u and solve_u_bar run 3 times, and certify ops on
      the reference minimizer 3 times.
    """
    if any(tag in op.id for tag in SEEDED_TAGS):
        return 1
    dim = body_dim(op.body)
    if workload == "facet":
        return 7 if op.kind == "certify" else 4 if dim == 2 else 1
    if workload == "vertex" and dim == 2:
        return {"solve_u_bar": 10, "verify_dual_equivalence": 5}.get(op.kind, 1)
    if workload == "smooth":
        if op.kind == "certify":
            return 3 if op.expect["verdict"] == "verified" else 1
        return 3 if dim == 2 else 1
    return 1


def build(workload: str, seed: int) -> list[Op]:
    """The ops of one pass, in run order; the same seed gives the same ops."""
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index])
    ops = {"facet": facet_ops, "vertex": vertex_ops, "smooth": smooth_ops}[workload](rng)
    out = []
    for op in ops:
        op_id = f"{workload}/{op.id}"
        twin = None if op.twin is None else f"{workload}/{op.twin}"
        defect = KNOWN_DEFECTS.get(op_id)
        repeats = 1 if defect or op.kind == "cli" else _repeats(workload, op)
        out.append(Op(op_id, op.kind, op.body, op.q_e, op.expect, op.source,
                      op.candidate, twin, defect, repeats))
    ids = [op.id for op in out]
    if len(set(ids)) != len(ids):
        raise ValueError("op ids must be unique")
    return out
