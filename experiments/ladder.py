"""Dimension ladder of the smooth solvers against their closed forms.

    PYTHONPATH=src python experiments/ladder.py [--out experiments/ladder.md]

For the lp balls LpBall(p, 1, n), p in {1.5, 3}, n = 2..8 (and n = 10 for
the inscribed p = 1.5 case), against the unit ball, runs `solve_u` and
`solve_u_bar` with the default SolveConfig (seed 0) and writes one table
row per solve: status, Newton steps, wall time, the error against the
closed form and the reported gap.  By the symmetry of the ball both optima are balls: the
inscribed one of radius r_in = min |x| on the boundary, so J = 1 / r_in,
and the circumscribed one of radius r_out = max |x|, so I = 1 / r_out,
where the two extremes are 1 (on the axes) and n^(1/2 - 1/p) (on the
diagonals).  The error column is J / J_ref - 1, or I / I_ref - 1 for an
I, which the solver reports from below, so that a solve that reaches
its gap has I <= I_ref <= I (1 + gap).  The solver is deterministic, so
only the time column changes from run to run.
"""

import argparse
import os
import platform
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import ellipfit as ef

CASES = ([("solve_u", 1.5, n) for n in (*range(2, 9), 10)]
         + [("solve_u", 3, n) for n in range(2, 9)]
         + [("solve_u_bar", p, n) for p in (1.5, 3) for n in range(2, 9)])


def closed_form(problem, p, n):
    axis, diagonal = 1.0, n ** (0.5 - 1.0 / p)
    radius = min(axis, diagonal) if problem == "solve_u" else max(axis, diagonal)
    return 1.0 / radius


def row(problem, p, n):
    body, ball = ef.LpBall(p, 1.0, n), ef.unit_ball(n)
    start = time.perf_counter()
    rep = getattr(ef, problem)(body, ball)
    wall = time.perf_counter() - start
    value = rep.j_value if problem == "solve_u" else rep.i_value
    error = value / closed_form(problem, p, n) - 1.0
    gap = "-" if rep.gap is None else f"{rep.gap:.1e}"
    return (f"| `{problem}` | {p:g} | {n} | {rep.status} | {rep.steps} | {wall:.2f} | "
            f"{error:.1e} | {gap} |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the table here as well as to standard output")
    args = parser.parse_args(argv)
    lines = [f"Made by `python experiments/ladder.py`, one run, one thread, on "
             f"{platform.machine()} {platform.system()} with {os.cpu_count()} CPUs; "
             "only the wall times vary from run to run.", "",
             "| solve | p | n | status | Newton steps | wall s | error | gap |",
             "|---|---|---|---|---|---|---|---|"]
    print("\n".join(lines), flush=True)
    for case in CASES:
        lines.append(row(*case))
        print(lines[-1], flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
