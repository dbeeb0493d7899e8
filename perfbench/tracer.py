"""Outside-in layer tracing.

`from .numerics import solve_lp` copies the function into the importing
module, so each module calls through its own binding.  The tracer replaces
every binding of the traced functions, in the package namespace and in
each module, with a wrapper that records a span: the function, the module
whose binding was called (the caller), the op, the parent span and the
start and end times.  Spans are kept in flat arrays in memory, reduced to
per-layer metrics after the pass and written out when the run ends.
`uninstall` puts every original binding back.

Self time is a span's duration minus the durations of its direct children,
so a recursive call (norm_many through LinearImage) is counted once.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

TRACED = {
    "numerics": ("solve_lp", "cholesky", "sym_eigen", "solve_nnls"),
    "bodies": ("contains_ellipsoid", "norm_many", "boundary_quadratic_scan", "boundary_point"),
    "ellipsoids": ("make_ellipsoid",),
    "solver": ("solve_u", "solve_u_bar", "check_john", "verify_dual_equivalence"),
    "certificates": ("verify_u", "contact_points", "isotropy_certificate"),
}
BINDING_MODULES = ("", "numerics", "bodies", "ellipsoids", "solver", "certificates")
PACKAGE = "ellipfit"

RAISED = -1


def _measure(name, args, result):
    """(value, flag) recorded on a span that returned normally."""
    if name == "numerics.solve_lp":
        return float(result.iterations), len(args[0].constraints)
    if name == "bodies.norm_many":
        vrep = type(args[0]).__name__ == "PolytopeV"
        return float(len(np.atleast_2d(args[1]))), int(vrep)
    if name == "bodies.contains_ellipsoid":
        return 0.0, 1 if result.method == "exact" else 2
    if name == "solver.solve_u":
        return float(result.lp_iterations), int(result.status == "max_cuts_reached")
    if name == "certificates.verify_u":
        return 0.0, 1 if result.verdict == "verified" else 2
    return 0.0, 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.callers: list[str] = []
        self.name = array("H")
        self.caller = array("H")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.flag = array("l")
        self.current_op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _code(self, table, label):
        if label not in table:
            table.append(label)
        return table.index(label)

    def open(self, name: str, caller: str) -> int:
        idx = len(self.start)
        self.name.append(self._code(self.names, name))
        self.caller.append(self._code(self.callers, caller))
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0.0)
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, end: float, value: float = 0.0, flag: int = 0) -> None:
        self.end[idx] = end
        self.value[idx] = value
        self.flag[idx] = flag
        self._stack.pop()

    def _wrap(self, fn, name, caller):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, caller)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, perf_counter(), flag=RAISED)
                raise
            end = perf_counter()
            self.close(idx, end, *_measure(name, args, result))
            return result
        return wrapper

    def install(self) -> None:
        originals = {}
        for mod, funcs in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            for func in funcs:
                originals[id(getattr(module, func))] = f"{mod}.{func}"
        try:
            for mod in BINDING_MODULES:
                module = importlib.import_module(f"{PACKAGE}.{mod}" if mod else PACKAGE)
                for attr, fn in list(vars(module).items()):
                    name = originals.get(id(fn))
                    if name is not None:
                        setattr(module, attr, self._wrap(fn, name, mod or "bench"))
                        self._patched.append((module, attr, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.name, dtype=int),
            "caller": np.asarray(self.caller, dtype=int),
            "op": np.asarray(self.op, dtype=int),
            "parent": np.asarray(self.parent, dtype=int),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "value": np.asarray(self.value, dtype=float),
            "flag": np.asarray(self.flag, dtype=int),
        }

    def save(self, path, op_ids) -> None:
        np.savez_compressed(path, names=np.array(self.names), callers=np.array(self.callers),
                            op_ids=np.array(op_ids), **self.arrays())


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times of everything recorded so far."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = dur - child
    names = np.array(tracer.names + [""])[a["name"]]
    callers = np.array(tracer.callers + [""])[a["caller"]]
    parent_names = np.where(has_parent, names[np.maximum(a["parent"], 0)], "")

    def sel(name, caller=None):
        mask = names == name
        return mask if caller is None else mask & (callers == caller)

    def tot(x, mask):
        return float(x[mask].sum())

    lp = sel("numerics.solve_lp")
    lp_s, lp_b = sel("numerics.solve_lp", "solver"), sel("numerics.solve_lp", "bodies")
    chol = sel("numerics.cholesky", "solver")
    eig, nnls = sel("numerics.sym_eigen"), sel("numerics.solve_nnls")
    cont = sel("bodies.contains_ellipsoid")
    norm = sel("bodies.norm_many")
    outer_norm = norm & (parent_names != "bodies.norm_many")
    scan, bpt = sel("bodies.boundary_quadratic_scan"), sel("bodies.boundary_point")
    mk = sel("ellipsoids.make_ellipsoid")
    su, sub = sel("solver.solve_u"), sel("solver.solve_u_bar")
    ver = sel("certificates.verify_u")
    cli = sel("cli")
    ones = np.ones_like(dur)
    return {
        "numerics.solve_lp.from_solver.calls": tot(ones, lp_s),
        "numerics.solve_lp.from_solver.s": tot(self_s, lp_s),
        "numerics.solve_lp.from_solver.nit": tot(a["value"], lp_s),
        "numerics.solve_lp.from_bodies.calls": tot(ones, lp_b),
        "numerics.solve_lp.from_bodies.s": tot(self_s, lp_b),
        "numerics.solve_lp.rows_mean": float(a["flag"][lp].mean()) if lp.any() else 0.0,
        "numerics.cholesky.from_solver.calls": tot(ones, chol),
        "numerics.cholesky.from_solver.not_pd": tot(ones, chol & (a["flag"] == RAISED)),
        "numerics.sym_eigen.calls": tot(ones, eig),
        "numerics.sym_eigen.s": tot(self_s, eig),
        "numerics.solve_nnls.calls": tot(ones, nnls),
        "numerics.solve_nnls.s": tot(self_s, nnls),
        "bodies.contains_ellipsoid.calls": tot(ones, cont),
        "bodies.contains_ellipsoid.s": tot(self_s, cont),
        "bodies.contains_ellipsoid.exact": tot(ones, cont & (a["flag"] == 1)),
        "bodies.contains_ellipsoid.sampled": tot(ones, cont & (a["flag"] == 2)),
        "bodies.norm_many.calls": tot(ones, outer_norm),
        "bodies.norm_many.rows": tot(a["value"], outer_norm),
        "bodies.norm_many.s": tot(self_s, norm),
        "bodies.norm_many.vrep.s": tot(self_s, norm & (a["flag"] == 1)),
        "bodies.boundary_quadratic_scan.calls": tot(ones, scan),
        "bodies.boundary_quadratic_scan.s": tot(self_s, scan),
        "bodies.boundary_point.calls": tot(ones, bpt),
        "bodies.boundary_point.s": tot(self_s, bpt),
        "ellipsoids.make_ellipsoid.calls": tot(ones, mk),
        "ellipsoids.make_ellipsoid.s": tot(self_s, mk),
        "solver.solve_u.calls": tot(ones, su),
        "solver.solve_u.s": tot(self_s, su),
        "solver.solve_u.lp_solves": tot(a["value"], su),
        "solver.solve_u.max_cuts_reached": tot(ones, su & (a["flag"] == 1)),
        "solver.solve_u_bar.calls": tot(ones, sub),
        "solver.solve_u_bar.s": tot(self_s, sub),
        "solver.check_john.s": tot(self_s, sel("solver.check_john")),
        "solver.verify_dual_equivalence.s": tot(self_s, sel("solver.verify_dual_equivalence")),
        "certificates.verify_u.calls": tot(ones, ver),
        "certificates.verify_u.s": tot(self_s, ver),
        "certificates.verify_u.verified": tot(ones, ver & (a["flag"] == 1)),
        "certificates.verify_u.rejected": tot(ones, ver & (a["flag"] == 2)),
        "certificates.contact_points.s": tot(self_s, sel("certificates.contact_points")),
        "certificates.isotropy_certificate.s": tot(self_s, sel("certificates.isotropy_certificate")),
        "cli.calls": tot(ones, cli),
        "cli.s": tot(self_s, cli),
    }


def lp_calls_by_op(tracer: Tracer) -> np.ndarray:
    """Count of numerics.solve_lp calls through the solver's binding, per scheduled op."""
    a = tracer.arrays()
    if "numerics.solve_lp" not in tracer.names or "solver" not in tracer.callers:
        return np.zeros(0, dtype=int)
    mask = ((a["name"] == tracer.names.index("numerics.solve_lp"))
            & (a["caller"] == tracer.callers.index("solver")) & (a["op"] >= 0))
    return np.bincount(a["op"][mask])
