"""The benchmark under perfbench/ reads the package by name: the tracer
rebinds the functions it lists, `_measure` and `run.py` read report fields,
and `run.py` calls the public API.  These checks read perfbench/ without
changing it, so a rename or a removal that would break a benchmark run
fails here first."""

import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import ellipfit as ef
from ellipfit import bodies, certificates, numerics, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer_module):
    """Every (module, name) -> object binding the tracer may rebind."""
    out = {}
    for mod in tracer_module.BINDING_MODULES:
        module = importlib.import_module(f"ellipfit.{mod}" if mod else "ellipfit")
        out.update({(module.__name__, k): v for k, v in vars(module).items()})
    return out


def test_tracer_installs_on_the_package_and_uninstalls():
    tracer_module = _load_tracer()
    before = _bindings(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()  # looks up every name in TRACED: fails if one is gone
    try:
        for mod, funcs in tracer_module.TRACED.items():
            module = importlib.import_module(f"ellipfit.{mod}")
            for func in funcs:
                assert getattr(module, func) is not before[(module.__name__, func)], func
        # one call through each span kind that _measure reads a result of
        square, ball = ef.PolytopeH(np.eye(2)), ef.unit_ball(2)
        ef.solve_u(square, ball)
        ef.verify_u(square, ball, ball, 1e-6)
        ef.norm_many(ef.PolytopeV(np.eye(2)), [[1.0, 0.5]])
        numerics.solve_lp(numerics.LpProblem(np.array([1.0]), ((np.array([1.0]), 0.5),), 2.0))
        metrics = tracer_module.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert _bindings(tracer_module) == before
    assert metrics["solver.solve_u.calls"] == 1
    assert metrics["certificates.verify_u.verified"] == 1
    assert metrics["bodies.contains_ellipsoid.exact"] >= 1
    assert metrics["bodies.norm_many.vrep.s"] > 0.0
    assert metrics["numerics.solve_lp.rows_mean"] == 1.0


# the fields of each result that run.py or tracer._measure read
_FIELDS_READ = {
    solver.SolveReport: {"status", "j_value", "lp_iterations"},
    solver.DualReport: {"status", "i_value", "uniqueness"},
    solver.JohnReport: {"is_fixed_point", "distance"},
    numerics.LpProblem: {"constraints"},
    numerics.LpSolution: {"iterations"},
    bodies.ContainmentVerdict: {"method"},
    certificates.VerifyResult: {"verdict", "residual"},
}


@pytest.mark.parametrize("cls", list(_FIELDS_READ), ids=lambda cls: cls.__name__)
def test_report_fields_the_benchmark_reads(cls):
    assert _FIELDS_READ[cls] <= {f.name for f in dataclasses.fields(cls)}


def test_public_names_the_benchmark_calls():
    text = (PERFBENCH / "run.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bef\.(\w+)", text))
    assert {"solve_u", "solve_u_bar", "verify_u", "linear_image"} <= names
    assert [n for n in sorted(names) if not hasattr(ef, n)] == []
    assert ef.PolytopeV.__name__ == "PolytopeV"  # _measure tells vertex gauges by class name
