"""Seeded end-to-end benchmark of ellipfit, one workload per run.

    python3 perfbench/run.py --workload facet --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ./src.  Each
run builds the workload's ops from the seed, runs whole passes over them in
one closed loop (the next op starts when the previous one returns) while
another pass fits in --seconds, and always at least one pass.  Every answer
is checked against a reference computed in this directory.  Times are in
reference seconds (see calibrate.py).  With --trace 0 the last line of
standard output is the JSON result with the end-to-end metrics; with
--trace 1 one untraced and one traced pass run, and the result holds the
per-layer metrics.  Reports and spans go to ./.perfbench_out.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import corpus
from calibrate import Speed
from tracer import Tracer, layer_metrics, lp_calls_by_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 2, 1
CHILD_TIMEOUT_S = 60
WRONG_REFERENCE_SHIFT = 1e-4

END_TO_END_UNITS = {
    "corpus_s": "s", "corpus_cpu_s": "s", "solve_ms_p50": "ms", "solve_ms_tail": "ms",
    "certify_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up (imports, corpus, warm-up solve) and exit; used to time set-up")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package():
    if not (SRC / "ellipfit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'ellipfit'}; "
                         "run from the root of an ellipfit checkout")
    sys.path.insert(0, str(SRC))
    import ellipfit
    return ellipfit


def warm_up(ef):
    ef.solve_u(ef.PolytopeH([[1.0, 0.0], [0.0, 1.0]]), ef.unit_ball(2))


# ---------------------------------------------------------------------------
# Ops.

def build_body(ef, spec):
    kind = spec[0]
    if kind == "h":
        return ef.PolytopeH(spec[1])
    if kind == "v":
        return ef.PolytopeV(spec[1])
    if kind == "lp":
        return ef.LpBall(spec[1], 1.0, spec[2])
    return ef.linear_image(spec[1], build_body(ef, spec[2]))


def body_json(spec):
    kind = spec[0]
    if kind == "h":
        return {"dim": spec[1].shape[1], "type": "polytope_h", "facets": spec[1].tolist()}
    if kind == "v":
        return {"dim": spec[1].shape[1], "type": "polytope_v", "generators": spec[1].tolist()}
    if kind == "lp":
        p = "inf" if spec[1] == float("inf") else spec[1]
        return {"dim": spec[2], "type": "lp_ball", "p": p, "radius": 1.0}
    return {"dim": spec[1].shape[0], "type": "linear_image", "matrix": spec[1].tolist(),
            "inner": body_json(spec[2])}


def run_cli(op, tmp, tracer):
    body_path, ell_path = tmp / "body.json", tmp / "ellipsoid.json"
    body_path.write_text(json.dumps(body_json(op.body)), encoding="utf-8")
    ell_path.write_text(json.dumps({"dim": op.q_e.shape[0], "Q": op.q_e.tolist()}),
                        encoding="utf-8")
    cmd = [sys.executable, "-m", "ellipfit.cli", "compute-u",
           "--body", str(body_path), "--ellipsoid", str(ell_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    idx = tracer.open("cli", "bench") if tracer else None
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        if tracer:
            tracer.close(idx, perf_counter())
    obs = {"exit": proc.returncode}
    if proc.stdout.strip():
        doc = json.loads(proc.stdout)
        obs["j"], obs["status"] = doc["J"], doc["status"]
    return obs


def execute(ef, op, tmp, tracer):
    """Run one op, building its inputs from raw arrays inside the timer."""
    if op.kind == "cli":
        return run_cli(op, tmp, tracer)
    body = build_body(ef, op.body)
    e = ef.make_ellipsoid(op.q_e)
    if op.kind == "solve_u":
        rep = ef.solve_u(body, e)
        return {"status": rep.status, "j": rep.j_value, "lp_iterations": rep.lp_iterations}
    if op.kind == "certify":
        res = ef.verify_u(body, e, ef.make_ellipsoid(op.candidate), corpus.CERTIFY_TOL)
        return {"verdict": "verified" if res.verdict == ef.VERIFIED else "rejected",
                "detail": res.verdict, "residual": res.residual}
    if op.kind == "check_john":
        rep = ef.check_john(body, e)
        return {"fixed": rep.is_fixed_point, "distance": rep.distance}
    if op.kind == "solve_u_bar":
        rep = ef.solve_u_bar(body, e)
        return {"status": rep.status, "i": rep.i_value, "uniqueness": rep.uniqueness}
    if op.kind == "verify_dual_equivalence":
        return {"equivalent": ef.verify_dual_equivalence(body, e,
                                                         ef.make_ellipsoid(op.candidate))}
    raise ValueError(f"unknown op kind {op.kind!r}")


def judge(op, obs, values):
    """None when the op met its expected outcome, else the reason it failed."""
    exp = op.expect
    for key in ("status", "verdict", "fixed", "equivalent", "exit", "uniqueness"):
        if key in exp and obs.get(key) != exp[key]:
            return f"{key} {obs.get(key)!r}, expected {exp[key]!r}"
    for key in ("j", "i"):
        if key in exp:
            got = obs.get(key)
            if got is None or not abs(got - exp[key]) <= corpus.VALUE_RTOL * abs(exp[key]):
                return f"{key.upper()} {got!r} off reference {exp[key]!r} ({op.source})"
    if op.twin is not None and obs.get("j") != values.get(op.twin):
        return f"CLI J {obs.get('j')!r} differs from in-process J {values.get(op.twin)!r}"
    return None


@dataclasses.dataclass
class Record:
    """One executed op: raw wall and CPU seconds, and `scale`, the factor to
    reference seconds at the time it ran (see calibrate.py)."""

    op: object
    start: float
    end: float
    wall_s: float
    cpu_s: float
    obs: dict
    reason: str | None
    scale: float = 1.0

    @property
    def seconds(self):
        return self.wall_s * self.scale


@dataclasses.dataclass
class Pass:
    records: list

    @property
    def corpus_s(self):
        return sum(r.seconds for r in self.records)

    @property
    def corpus_cpu_s(self):
        return sum(r.cpu_s * r.scale for r in self.records)

    @property
    def raw_wall_s(self):
        return sum(r.wall_s for r in self.records)


def cpu_now():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def schedule(ops):
    """The ops of one pass in run order.

    An op with repeats > 1 runs that many times, spread evenly over the
    pass: run k sits a fraction k / repeats of the pass after the op's own
    place.  Samples taken at many moments of a run vary less from run to
    run than samples taken together.  With all certify ops run in one
    block, the IQR of certify_ms_p50 on facet over ten seeds was 0.32; with
    each op's repeats back to back, 0.19.
    """
    keyed = []
    for index, op in enumerate(ops):
        place = (index + 0.5) / len(ops)
        keyed += [((place + k / op.repeats) % 1.0, index, op) for k in range(op.repeats)]
    return [op for _, _, op in sorted(keyed, key=lambda item: item[:2])]


def run_pass(ef, ops, tmp, speed, tracer=None):
    records, values = [], {}
    for index, op in enumerate(schedule(ops)):
        if tracer:
            tracer.current_op = index
        busy0, cpu0, start = speed.busy_s, cpu_now(), perf_counter()
        try:
            with speed.paused() if op.kind == "cli" else contextlib.nullcontext():
                obs, error = execute(ef, op, tmp, tracer), None
        except Exception as exc:  # a raising op is a failed op; the pass goes on
            obs, error = {}, f"raised {type(exc).__name__}: {exc}"
        end, cpu1 = perf_counter(), cpu_now()
        busy = speed.busy_s - busy0
        if "j" in obs:
            values[op.id] = obs["j"]
        records.append(Record(op, start, end, end - start - busy, cpu1 - cpu0 - busy, obs,
                              error or judge(op, obs, values)))
    if tracer:
        tracer.current_op = -1
    return Pass(records)


def calibrate(passes, speed):
    """Set each record's factor to reference seconds, once the kernel
    samples after the last op are in."""
    for p in passes:
        for r in p.records:
            r.scale = speed.scale(r.start, r.end)


# ---------------------------------------------------------------------------
# Set-up, metrics and self-checks.

def measure_setup(args, count, speed):
    """(start, end) of fresh processes that import, build the corpus and run
    the warm-up solve: from process start to where the first op would start.
    The kernel is sampled right before and after each."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    spans = []
    for _ in range(count):
        speed.sample()
        start = perf_counter()
        with speed.paused():
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        spans.append((start, perf_counter()))
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    speed.sample()
    return spans


def setup_times(spans, speed):
    """Set-up probe times in reference seconds."""
    return [(end - start) * speed.scale(start, end) for start, end in spans]


def tail(times):
    """Highest order statistic with at least 10 samples beyond it, or the max."""
    s = sorted(times)
    if len(s) < 11:
        return s[-1], f"max of {len(s)}"
    k = len(s) - 11
    return s[k], f"p{100.0 * (k + 1) / len(s):.1f} of {len(s)}"


def end_to_end(passes, setup_s):
    solve = [r.seconds for p in passes for r in p.records if r.op.kind in corpus.SOLVE_KINDS]
    certify = [r.seconds for p in passes for r in p.records
               if r.op.kind == "certify" and r.op.expect["verdict"] == "verified"]
    tail_s, tail_rule = tail(solve)
    values = {
        "corpus_s": statistics.median(p.corpus_s for p in passes),
        "corpus_cpu_s": statistics.median(p.corpus_cpu_s for p in passes),
        "solve_ms_p50": 1e3 * statistics.median(solve),
        "solve_ms_tail": 1e3 * tail_s,
        "certify_ms_p50": 1e3 * statistics.median(certify),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, tail_rule


def gate_can_fail(passes):
    """Re-judge a passing op against a deliberately wrong reference."""
    for r in passes[0].records:
        key = next((k for k in ("j", "i") if k in r.op.expect), None)
        if r.reason is None and key and r.op.twin is None:
            shifted = r.op.expect[key] * (1 + WRONG_REFERENCE_SHIFT)
            wrong = dataclasses.replace(r.op, expect={**r.op.expect, key: shifted})
            return r.op.id, judge(wrong, r.obs, {}) is not None
    return None, False


def same_value(a, b):
    return a == b or (a != a and b != b)


def bit_identical(untraced, traced):
    bad = []
    for ru, rt in zip(untraced.records, traced.records):
        for key in ("j", "i"):
            if not same_value(ru.obs.get(key), rt.obs.get(key)):
                bad.append(f"{ru.op.id} {key}: {ru.obs.get(key)!r} vs {rt.obs.get(key)!r}")
    return bad


def lp_count_mismatches(traced, counts):
    bad = []
    for index, r in enumerate(traced.records):
        if r.op.kind == "solve_u" and "lp_iterations" in r.obs:
            seen = int(counts[index]) if index < len(counts) else 0
            if seen != r.obs["lp_iterations"]:
                bad.append(f"{r.op.id}: traced {seen} LPs, report {r.obs['lp_iterations']}")
    return bad


# ---------------------------------------------------------------------------
# Environment record and output.

def commit_id():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def environment(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "ellipfit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "workload": args.workload,
        "commit": commit_id(),
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def op_rows(passes):
    rows = []
    for number, p in enumerate(passes):
        for r in p.records:
            rows.append({"pass": number, "op": r.op.id, "kind": r.op.kind,
                         "ms": 1e3 * r.seconds, "raw_ms": 1e3 * r.wall_s,
                         "ok": r.reason is None, "reason": r.reason,
                         "known_defect": r.op.known_defect, "reference": r.op.source,
                         "expect": r.op.expect,
                         "observed": {k: v for k, v in r.obs.items()
                                      if isinstance(v, (bool, int, float, str, type(None)))}})
    return rows


def main(argv=None):
    args = parse_args(argv)
    ef = import_package()
    if args.probe:
        corpus.build(args.workload, args.seed)
        warm_up(ef)
        return 0

    ops = corpus.build(args.workload, args.seed)
    warm_up(ef)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    checks = {}
    with Speed() as speed:
        try:
            probes = measure_setup(args, SETUP_PROBES_BEFORE, speed)
            passes, traced, layers = measure_passes(args, ef, ops, tmp, speed, checks)
            # more probes after the passes, so set-up is sampled across the run
            probes += measure_setup(args, SETUP_PROBES_AFTER, speed)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    calibrate(passes + ([traced] if traced else []), speed)
    setup_samples = setup_times(probes, speed)
    if traced:
        layers["trace.overhead_s"] = traced.corpus_s - passes[0].corpus_s
    return report(args, passes, traced, layers, checks, speed, setup_samples)


def measure_passes(args, ef, ops, tmp, speed, checks):
    """Untraced passes, or one untraced and one traced pass with --trace 1."""
    begin = perf_counter()
    passes, traced, layers = [run_pass(ef, ops, tmp, speed)], None, None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ef, ops, tmp, speed, tracer)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer)
        checks["bit_identical_mismatches"] = bit_identical(passes[0], traced)
        checks["lp_count_mismatches"] = lp_count_mismatches(traced, lp_calls_by_op(tracer))
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
                    [op.id for op in schedule(ops)])
    else:
        while (perf_counter() - begin) * (len(passes) + 1) / len(passes) <= args.seconds:
            passes.append(run_pass(ef, ops, tmp, speed))
    return passes, traced, layers


def report(args, passes, traced, layers, checks, speed, setup_samples):
    """Print the readable report and the result line; write the JSON report."""
    e2e, tail_rule = end_to_end(passes, statistics.median(setup_samples))
    gate_op, gate_ok = gate_can_fail(passes)
    checks["wrong_reference_rejected"] = {"op": gate_op, "rejected": gate_ok}
    all_records = [r for p in passes + ([traced] if traced else []) for r in p.records]
    failed = [r for r in all_records if r.reason is not None]
    unexpected = [r for r in failed if r.op.known_defect is None]
    correct = (not unexpected and gate_ok and not checks.get("bit_identical_mismatches")
               and not checks.get("lp_count_mismatches"))

    env = environment(args)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(passes)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for row in op_rows(passes[:1]):
        mark = "ok" if row["ok"] else ("FAIL (known defect)" if row["known_defect"] else "FAIL")
        print(f"  {row['op']:52s} {row['ms']:11.1f} ms  {mark}"
              + ("" if row["ok"] else f": {row['reason']}"))
    print(f"failed ops: {len(failed)} of {len(all_records)} attempted")
    for r in failed:
        note = f" [known defect: {r.op.known_defect}]" if r.op.known_defect else ""
        print(f"  FAILED {r.op.id}: {r.reason}{note}")
    print(f"fail_rate = {len(failed) / len(all_records):.6f} ratio "
          f"(failed {len(failed)} / attempted {len(all_records)})")
    print(f"solve_ms_tail is the {tail_rule} solve-op times; setup samples "
          + ", ".join(f"{s:.3f}" for s in setup_samples) + " s")
    kernel = {"samples": len(speed.took), "median_s": statistics.median(speed.took),
              "min_s": min(speed.took), "max_s": max(speed.took)}
    print("times are in reference seconds (calibrate.py); calibration kernel "
          + json.dumps(kernel) + "; raw pass wall times "
          + ", ".join(f"{p.raw_wall_s:.3f}" for p in passes) + " s")
    for name, value in e2e.items():
        print(f"{name} = {value:.6f} {END_TO_END_UNITS[name]}")
    print("self-checks " + json.dumps(checks))

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6f} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    doc = {"environment": env, "correct": correct, "checks": checks,
              "end_to_end": e2e, "solve_ms_tail_rule": tail_rule, "kernel": kernel,
              "raw_pass_wall_s": [p.raw_wall_s for p in passes],
              "setup_samples_s": setup_samples, "metrics": metrics, "ops": op_rows(passes)}
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1, default=str), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(all_records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def layer_unit(name):
    leaf = name.rsplit(".", 1)[-1]
    if leaf in ("s", "overhead_s"):
        return "s"
    return "rows" if leaf == "rows_mean" else "count"


if __name__ == "__main__":
    sys.exit(main())
