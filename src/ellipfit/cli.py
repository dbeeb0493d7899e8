"""Batch front door.

Load bodies and ellipsoids from JSON files, run one operation, write a
JSON report (or an SVG for `render`).  Exit codes: 0 success, 1 invalid
input, 2 numerical failure, 3 verification failure.  All randomness flows
from the seed recorded in the report, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import certificates, oracle, render, solver
from .bodies import body_from_json, contains_ellipsoid
from .ellipsoids import ellipsoid_from_json
from .numerics import InfeasibleError, NoConvergenceError

_SOLVE_KEYS = {"tol_feas", "tol_obj", "max_cuts", "box_R", "restarts", "seed"}
_GRID_KEYS = {"axis_steps", "angle_steps", "refine_rounds", "boundary_samples"}


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_body(path):
    return body_from_json(_load_json(path))


def _load_ellipsoid(path):
    return ellipsoid_from_json(_load_json(path))


def _load_configs(path):
    if path is None:
        return solver.SolveConfig(), oracle.GridConfig()
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError("config document must be an object")
    unknown = set(obj) - _SOLVE_KEYS - _GRID_KEYS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    solve_cfg = solver.SolveConfig(**{k: obj[k] for k in obj if k in _SOLVE_KEYS})
    grid_cfg = oracle.GridConfig(**{k: obj[k] for k in obj if k in _GRID_KEYS})
    return solve_cfg, grid_cfg


def _emit(doc, out_path):
    # numpy arrays and scalars other than np.float64 (a float) go through tolist
    text = json.dumps(doc, indent=2, default=lambda v: v.tolist()) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _with_certificate(doc, cert):
    """doc with the certificate's points, weights and residual, when there is one."""
    if cert is not None:
        doc["certificate"] = {"points": cert.points, "weights": cert.weights,
                              "residual": cert.residual}
    return doc


def _cmd_compute_u(args):
    body = _load_body(args.body)
    e = _load_ellipsoid(args.ellipsoid)
    cfg, _ = _load_configs(args.config)
    rep = solver.solve_u(body, e, cfg)
    tol = max(1e-6, 10.0 * cfg.tol_feas)
    cert = certificates.verify_u(body, e, rep.minimizer, tol).certificate
    doc = {
        "status": rep.status,
        "J": rep.j_value,
        "Q_F": rep.minimizer.q,
        "cuts": rep.cuts,
        "active_cuts": rep.active_cuts,
        "certificate": {"points": [], "weights": [], "residual": 1.0},  # F not inside the body
        "seed": cfg.seed,
    }
    _emit(_with_certificate(doc, cert), args.out)
    return 0 if rep.status == "optimal" else 2


def _cmd_j_value(args):
    body = _load_body(args.body)
    e = _load_ellipsoid(args.ellipsoid)
    cfg, _ = _load_configs(args.config)
    rep = solver.solve_u(body, e, cfg)
    _emit({"status": rep.status, "J": rep.j_value, "seed": cfg.seed}, args.out)
    return 0 if rep.status == "optimal" else 2


def _cmd_check_john(args):
    body = _load_body(args.body)
    e = _load_ellipsoid(args.ellipsoid)
    cfg, _ = _load_configs(args.config)
    rep = solver.check_john(body, e, cfg)
    _emit(_with_certificate({"is_fixed_point": rep.is_fixed_point, "distance": rep.distance,
                             "contained": rep.contained, "seed": cfg.seed}, rep.certificate), args.out)
    if args.expect_fixed and not rep.is_fixed_point:
        return 3
    return 0


def _cmd_iterate(args):
    body = _load_body(args.body)
    e = _load_ellipsoid(args.ellipsoid)
    cfg, _ = _load_configs(args.config)
    rep = solver.iterate_u(body, e, args.steps, cfg)
    _emit({"trajectory": [el.q for el in rep.trajectory],
           "fixed_point_reached": rep.fixed_point_reached, "seed": cfg.seed}, args.out)
    return 0


def _cmd_dual(args):
    body = _load_body(args.body)
    e = _load_ellipsoid(args.ellipsoid)
    cfg, _ = _load_configs(args.config)
    rep = solver.solve_u_bar(body, e, cfg)
    doc = {
        "status": rep.status,
        "i_value": rep.i_value,
        "gap": rep.gap,
        "Q": None if rep.maximizer is None else rep.maximizer.q,
        "degenerate_direction": rep.degenerate_direction,
        "uniqueness": rep.uniqueness,
        "second_Q": None if rep.second is None else rep.second.q,
        "seed": cfg.seed,
    }
    _emit(doc, args.out)
    return 0 if rep.status != "max_cuts_reached" else 2


def _cmd_certify(args):
    body = _load_body(args.body)
    e = _load_ellipsoid(args.ellipsoid)
    f = _load_ellipsoid(args.candidate)
    cfg, _ = _load_configs(args.config)
    tol = max(1e-6, 10.0 * cfg.tol_feas)
    result = certificates.verify_u(body, e, f, tol)
    _emit(_with_certificate({"verdict": result.verdict, "residual": result.residual},
                            result.certificate), args.out)
    return 0 if result.verdict == certificates.VERIFIED else 3


def _cmd_oracle(args):
    body = _load_body(args.body)
    e = _load_ellipsoid(args.ellipsoid)
    _, grid_cfg = _load_configs(args.config)
    q_best, j_best = oracle.brute_force_u(body, e, grid_cfg)
    _emit({"J": j_best, "Q": q_best}, args.out)
    return 0


def _cmd_render(args):
    body = _load_body(args.body)
    ellipsoids = [_load_ellipsoid(p) for p in args.ellipsoid]
    cfg, _ = _load_configs(args.config)
    tol = max(1e-6, 10.0 * cfg.tol_feas)
    contacts = []
    for e in ellipsoids:
        if contains_ellipsoid(body, e, tol).contained:  # each ellipsoid is its own reference
            contacts.extend(certificates.contact_points(body, e, e, tol))
    text = render.render_svg(body, ellipsoids, np.array(contacts) if contacts else None)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(prog="ellipfit",
                                     description="extremal ellipsoids of symmetric convex bodies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ellipsoid_many=False):
        p.add_argument("--body", required=True, help="body JSON file")
        if ellipsoid_many:
            p.add_argument("--ellipsoid", required=True, action="append",
                           help="ellipsoid JSON file (repeatable)")
        else:
            p.add_argument("--ellipsoid", required=True, help="ellipsoid JSON file")
        p.add_argument("--config", default=None, help="solver/grid config JSON file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("compute-u", help="inscribed minimizer and gauge value")
    common(p)
    p.set_defaults(func=_cmd_compute_u)

    p = sub.add_parser("j-value", help="minimal mean-square gauge only")
    common(p)
    p.set_defaults(func=_cmd_j_value)

    p = sub.add_parser("check-john", help="fixed-point test for the reference ellipsoid")
    common(p)
    p.add_argument("--expect-fixed", action="store_true",
                   help="exit 3 unless the ellipsoid is the fixed point")
    p.set_defaults(func=_cmd_check_john)

    p = sub.add_parser("iterate", help="iterate the inscribed-minimizer map")
    common(p)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("dual", help="circumscribed maximizer problem")
    common(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("certify", help="solver-independent optimality check")
    common(p)
    p.add_argument("--candidate", required=True, help="candidate minimizer JSON file")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("oracle", help="2-d brute-force reference solve")
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render", help="SVG figure of body, ellipsoids, contacts")
    common(p, ellipsoid_many=True)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"ellipfit: invalid input: {exc}", file=sys.stderr)
        return 1
    except (NoConvergenceError, InfeasibleError, solver.SolverError,
            oracle.NoFeasiblePointError) as exc:
        print(f"ellipfit: numerical failure: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
