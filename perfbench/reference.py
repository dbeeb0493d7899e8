"""Reference answers computed without the package under test.

Three sources, each recorded on the op that uses it:

* ``closed_form``  -- cubes, cross-polytopes and lp balls against the unit
  ball, and images of the 2-ball, whose extremal ellipsoids are known;
* ``equivariance`` -- for a body T K with reference ellipsoid T E the
  values J and I equal those of (K, E) and the minimizer maps along;
* ``dual``         -- the Lagrangian dual of the inscribed problem over a
  facet form, solved by the multiplicative weight update; vertex bodies get
  their facets from qhull (``dual+hull``).

Only numpy and scipy are used here; nothing is imported from ``src/``.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull


def sym_power(m: np.ndarray, power: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * vals**power) @ vecs.T


def lp_ball_j(p: float, n: int) -> float:
    """Inscribed value of the unit lp ball against the unit 2-ball."""
    return float(n ** max(0.0, 1.0 / p - 0.5))


def lp_ball_i(p: float, n: int) -> float:
    """Circumscribed value of the unit lp ball against the unit 2-ball."""
    return float(n ** min(0.0, 1.0 / p - 0.5))


def dual_minimizer(facets: np.ndarray, q_e: np.ndarray, gap_tol: float = 1e-12,
                   max_iter: int = 200_000) -> tuple[np.ndarray, float, float]:
    """Inscribed minimizer over E of the facet body {x : |h_j . x| <= 1}.

    With S = Q_E^{-1/2}, g_j = S h_j and N(mu) = sum_j mu_j g_j g_j^T over
    the simplex, n J^2 = max (tr N^{1/2})^2, attained by B = S^{-1} C S^{-1}
    with C = tr(N^{1/2}) N^{1/2}.  The update mu_j <- mu_j omega_j / tr N^{1/2}
    with omega_j = g_j^T N^{-1/2} g_j stays on the simplex and stops once the
    duality gap max_j omega_j / tr N^{1/2} - 1 is at most `gap_tol`.  C is
    scaled by 1 + gap so the returned form is feasible.  Returns (Q_F, J, gap).
    """
    g = np.asarray(facets, dtype=float) @ sym_power(q_e, -0.5)
    m, n = g.shape
    mu = np.full(m, 1.0 / m)
    for _ in range(max_iter):
        vals, vecs = np.linalg.eigh((g * mu[:, None]).T @ g)
        root = np.sqrt(vals)
        trace = root.sum()
        omega = np.einsum("ij,jk,ik->i", g, (vecs / root) @ vecs.T, g)
        gap = float(omega.max() / trace - 1.0)
        if gap <= gap_tol:
            break
        mu = mu * omega / trace
    else:
        raise RuntimeError(f"dual update did not reach gap {gap_tol:g} (gap {gap:.2e})")
    c = (1.0 + gap) * trace * (vecs * root) @ vecs.T
    s_inv = sym_power(q_e, 0.5)
    return s_inv @ c @ s_inv, float(np.sqrt(np.trace(c) / n)), gap


def hull_facets(generators: np.ndarray) -> np.ndarray:
    """Facet rows h with conv{+-w_k} = {x : |h . x| <= 1}, one per antipodal pair."""
    w = np.asarray(generators, dtype=float)
    eq = ConvexHull(np.vstack([w, -w])).equations
    h = eq[:, :-1] / -eq[:, -1:]
    lead = h[np.arange(len(h)), np.argmax(np.abs(h), axis=1)]
    h = h * np.sign(lead)[:, None]
    _, keep = np.unique(np.round(h, 9), axis=0, return_index=True)
    return h[np.sort(keep)]


def image_form(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Form of the ellipsoid T F when F has form Q: T^{-T} Q T^{-1}."""
    t_inv = np.linalg.inv(t)
    return t_inv.T @ q @ t_inv
