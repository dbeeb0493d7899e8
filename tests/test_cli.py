import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellipfit as ef
from ellipfit.cli import main


@pytest.fixture
def files(tmp_path):
    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "square": dump("square.json", {"dim": 2, "type": "polytope_h",
                                       "facets": [[1, 0], [0, 1]]}),
        "rect": dump("rect.json", {"dim": 2, "type": "polytope_h",
                                   "facets": [[0.5, 0], [0, 1]]}),
        "narrow": dump("narrow.json", {"dim": 2, "type": "polytope_v",
                                       "generators": [[0.1, 1], [0.1, -1]]}),
        # the square [-1, 1]^2 by its vertices: its gauge is an LP
        "square_v": dump("square_v.json", {"dim": 2, "type": "polytope_v",
                                           "generators": [[1, 1], [1, -1]]}),
        "ball": dump("ball.json", {"dim": 2, "Q": [[1, 0], [0, 1]]}),
        "skew": dump("skew.json", {"dim": 2, "Q": [[1, 0], [0, 4]]}),
        "inflated": dump("inflated.json",
                         {"dim": 2, "Q": [[0.25 / 1.01**2, 0], [0, 1 / 1.01**2]]}),
        "grid": dump("grid.json", {"axis_steps": 40, "angle_steps": 30,
                                   "refine_rounds": 2, "boundary_samples": 512}),
        # an ellipsoidal image of the unit 3-ball and its own form: exact containment and
        # closed-form contacts
        "image": dump("image.json", {"dim": 3, "type": "linear_image",
                                     "matrix": [[1, 1, 0], [0, 2, 0], [0, 0, 1]],
                                     "inner": {"dim": 3, "type": "lp_ball", "p": 2, "radius": 1}}),
        "own": dump("own.json", {"dim": 3, "Q": [[1, -0.5, 0], [-0.5, 0.5, 0], [0, 0, 1]]}),
        "ball3": dump("ball3.json", {"dim": 3, "Q": np.eye(3).tolist()}),
        # no facet form and no quadric, so its solve runs the supporting-slab exchange
        "l15": dump("l15.json", {"dim": 2, "type": "lp_ball", "p": 1.5, "radius": 1}),
        "dir": tmp_path,
    }


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_compute_u_report(files):
    out = str(files["dir"] / "report.json")
    code = main(["compute-u", "--body", files["square"], "--ellipsoid", files["ball"],
                 "--out", out])
    assert code == 0
    doc = _read(out)
    assert doc["status"] == "optimal"
    assert abs(doc["J"] - 1.0) < 1e-9
    rebuilt = ef.make_ellipsoid(doc["Q_F"])
    assert np.linalg.norm(rebuilt.q - np.eye(2)) < 1e-8
    assert doc["certificate"]["residual"] < 1e-8
    assert len(doc["cuts"]) >= len(doc["active_cuts"]) >= 2


def test_reports_are_byte_identical(files):
    for body in ("rect", "l15"):
        out1 = str(files["dir"] / f"{body}_a.json")
        out2 = str(files["dir"] / f"{body}_b.json")
        for out in (out1, out2):
            assert main(["compute-u", "--body", files[body], "--ellipsoid", files["ball"],
                         "--out", out]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read(), body


def test_j_value(files, capsys):
    assert main(["j-value", "--body", files["rect"], "--ellipsoid", files["ball"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["J"] ** 2 - 5.0 / 8.0) < 1e-8


def test_j_value_near_round_smooth_ball(files, capsys):
    # p = 1.99 in 3-d: the exchange converges only linearly (about 37 rounds),
    # inside the default budget, so the command exits 0 with the closed form
    body = files["dir"] / "l199.json"
    body.write_text('{"dim": 3, "type": "lp_ball", "p": 1.99, "radius": 1}')
    assert main(["j-value", "--body", str(body), "--ellipsoid", files["ball3"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal"
    assert abs(doc["J"] / 3.0 ** (1.0 / 1.99 - 0.5) - 1.0) <= 1e-12


def test_invalid_body_exits_1(files, capsys):
    bad = files["dir"] / "bad.json"
    bad.write_text('{"dim": 2, "type": "polytope_h"}')
    assert main(["compute-u", "--body", str(bad), "--ellipsoid", files["ball"]]) == 1
    missing = str(files["dir"] / "nope.json")
    assert main(["compute-u", "--body", missing, "--ellipsoid", files["ball"]]) == 1
    assert main(["compute-u", "--body", files["square"]]) == 1  # missing argument


@pytest.mark.parametrize("kind, doc", [
    ("body", {"dim": True, "type": "lp_ball", "p": 2, "radius": 1}),
    ("body", {"dim": 2, "type": "lp_ball", "p": True, "radius": 1}),
    ("body", {"dim": 2, "type": "lp_ball", "p": 2, "radius": True}),
    ("ellipsoid", {"dim": True, "Q": [[1]]}),
], ids=["dim", "p", "radius", "ellipsoid_dim"])
def test_boolean_numbers_exit_1(files, kind, doc):
    path = files["dir"] / "boolean.json"
    path.write_text(json.dumps(doc))
    body, ellipsoid = (str(path), files["ball"]) if kind == "body" else (files["square"], str(path))
    assert main(["j-value", "--body", body, "--ellipsoid", ellipsoid]) == 1


def test_certify_paths(files):
    good = str(files["dir"] / "good_candidate.json")
    with open(good, "w") as fh:
        json.dump({"dim": 2, "Q": [[0.25, 0], [0, 1]]}, fh)
    assert main(["certify", "--body", files["rect"], "--ellipsoid", files["ball"],
                 "--candidate", good]) == 0
    assert main(["certify", "--body", files["rect"], "--ellipsoid", files["ball"],
                 "--candidate", files["inflated"]]) == 3


def test_check_john_expect_fixed(files):
    assert main(["check-john", "--body", files["square"], "--ellipsoid", files["ball"],
                 "--expect-fixed"]) == 0
    assert main(["check-john", "--body", files["square"], "--ellipsoid", files["skew"],
                 "--expect-fixed"]) == 3



def test_check_john_writes_the_certificate(files, capsys):
    assert main(["check-john", "--body", files["square"], "--ellipsoid", files["ball"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_fixed_point"] and doc["contained"] and doc["distance"] == 0.0
    cert = doc["certificate"]
    assert set(cert) == {"points", "weights", "residual"} and cert["residual"] <= 1e-12
    assert {tuple(np.abs(np.round(p, 12))) for p in cert["points"]} == {(1.0, 0.0), (0.0, 1.0)}
    assert np.allclose(cert["weights"], [1.0, 1.0])
    # the disk of radius 2 is not inside the square: no contacts, no certificate
    big = str(files["dir"] / "big.json")
    with open(big, "w") as fh:
        json.dump({"dim": 2, "Q": [[0.25, 0], [0, 0.25]]}, fh)
    assert main(["check-john", "--body", files["square"], "--ellipsoid", big]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["contained"] and not doc["is_fixed_point"] and "certificate" not in doc

def test_dual_report(files, capsys):
    assert main(["dual", "--body", files["narrow"], "--ellipsoid", files["ball"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "non_attained"
    assert abs(doc["i_value"] - np.sqrt(50.0)) < 1e-6
    assert doc["gap"] <= 1e-12
    assert abs(abs(doc["degenerate_direction"][1]) - 1.0) < 1e-6


def test_iterate_report(files, capsys):
    assert main(["iterate", "--body", files["rect"], "--ellipsoid", files["ball"],
                 "--steps", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fixed_point_reached"]
    assert np.allclose(doc["trajectory"][0], [[0.25, 0.0], [0.0, 1.0]], atol=1e-8)


def test_oracle_subcommand(files, capsys):
    assert main(["oracle", "--body", files["square"], "--ellipsoid", files["ball"],
                 "--config", files["grid"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["J"] - 1.0) < 5e-3


def test_render_svg(files):
    out = str(files["dir"] / "fig.svg")
    assert main(["render", "--body", files["square"], "--ellipsoid", files["ball"],
                 "--out", out]) == 0
    text = open(out).read()
    assert text.startswith("<svg ") and 'version="1.1"' in text and "viewBox=" in text
    assert text.count("<polyline") == 2  # body outline plus one ellipse
    assert text.count("<circle") == 2  # two contact dots
    assert "np.float" not in text


def test_config_rejects_unknown_fields(files):
    cfg = files["dir"] / "cfg.json"
    cfg.write_text('{"tol_feas": 1e-9, "mystery": 3}')
    assert main(["compute-u", "--body", files["square"], "--ellipsoid", files["ball"],
                 "--config", str(cfg)]) == 1


def test_numerical_failure_exits_2(files, capsys):
    cfg = files["dir"] / "starved.json"
    cfg.write_text('{"max_cuts": 4}')
    out = str(files["dir"] / "starved_report.json")
    code = main(["compute-u", "--body", files["square"], "--ellipsoid", files["ball"],
                 "--config", str(cfg), "--out", out])
    assert code == 2
    assert _read(out)["status"] == "max_cuts_reached"  # report still written


def test_booleans_are_json_booleans(files, capsys):
    assert main(["check-john", "--body", files["square"], "--ellipsoid", files["ball"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_fixed_point"] is True and doc["contained"] is True
    assert main(["check-john", "--body", files["square"], "--ellipsoid", files["skew"]]) == 0
    assert json.loads(capsys.readouterr().out)["is_fixed_point"] is False
    assert main(["iterate", "--body", files["rect"], "--ellipsoid", files["ball"],
                 "--steps", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["fixed_point_reached"] is True
    assert main(["iterate", "--body", files["rect"], "--ellipsoid", files["ball"],
                 "--steps", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["fixed_point_reached"] is False


_COLD_START = """
import json, sys
from ellipfit.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def _fresh_cli(args):
    """Run cli.main(args) in a fresh interpreter: its exit code and the scipy modules it loaded."""
    src = str(Path(ef.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _COLD_START, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_facet_and_quadric_commands_load_no_scipy(files):
    runs = {"compute-u": ["compute-u", "--body", files["square"], "--ellipsoid", files["ball"]],
            "j-value": ["j-value", "--body", files["rect"], "--ellipsoid", files["ball"]],
            "certify": ["certify", "--body", files["image"], "--ellipsoid", files["ball3"],
                        "--candidate", files["own"]],
            # a smooth body: the supporting-slab exchange runs no LP either
            "l15": ["j-value", "--body", files["l15"], "--ellipsoid", files["ball"]]}
    for name, args in runs.items():
        out = str(files["dir"] / f"cold_{name}.json")
        assert _fresh_cli(args + ["--out", out]) == {"code": 0, "scipy": []}, name
    assert _read(str(files["dir"] / "cold_compute-u.json"))["certificate"]["residual"] <= 1e-12
    cert = _read(str(files["dir"] / "cold_certify.json"))
    assert cert["verdict"] == "verified" and cert["residual"] <= 1e-12
    assert abs(_read(str(files["dir"] / "cold_l15.json"))["J"] - 2.0 ** (1.0 / 6.0)) <= 1e-12


def test_dual_on_an_ellipsoidal_body_is_closed_form(files):
    # the image of the 3-ball is its own maximizer: I = M_E(K) = sqrt(5/6), gap 0, no scipy
    out = str(files["dir"] / "cold_dual_image.json")
    assert _fresh_cli(["dual", "--body", files["image"], "--ellipsoid", files["ball3"],
                       "--out", out]) == {"code": 0, "scipy": []}
    doc = _read(out)
    assert (doc["status"], doc["gap"], doc["uniqueness"]) == ("attained", 0.0, "unknown")
    assert abs(doc["i_value"] - np.sqrt(5.0 / 6.0)) <= 1e-15
    assert np.max(np.abs(np.array(doc["Q"]) - _read(files["own"])["Q"])) <= 1e-15


def test_lp_paths_import_highs_on_first_use(files):
    out = str(files["dir"] / "cold_dual.json")
    assert _fresh_cli(["dual", "--body", files["narrow"], "--ellipsoid", files["ball"],
                       "--out", out])["code"] == 0
    assert _read(out)["status"] == "non_attained"
    # the unit disk in the vertex square: every gauge of the containment scan is an LP
    out = str(files["dir"] / "cold_square_v.json")
    run = _fresh_cli(["certify", "--body", files["square_v"], "--ellipsoid", files["ball"],
                      "--candidate", files["ball"], "--out", out])
    assert run["code"] == 0 and "scipy" in run["scipy"]
    assert _read(out)["verdict"] == "verified"
