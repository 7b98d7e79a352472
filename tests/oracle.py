"""Reference optima for checking the embedded simplex.

`oracle_solve` enumerates every basic point from constraint/bound subsets and
keeps the best feasible one: exact, but only for small LPs. For LPs of any
size, the `highs_objective` fixture (conftest.py) gives the benchmark's HiGHS
adapter, `perfbench/checks.highs_objective`, which needs scipy.

Both read `problem.constraints` (relation, coefficients, rhs) directly, not
`LpProblem.matrix()`: the solver, its feasibility check and its dual
certificate all take the constraints from `matrix()`, so a reference built on
it would share any error in how `matrix()` encodes the relations and pass.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from reservoirplan.lp import (FEAS_TOL, GREATER_EQUAL, INFEASIBLE, LESS_EQUAL,
                              OPTIMAL, UNBOUNDED, LpProblem, LpSolution)

_ORACLE_MAX_VARIABLES = 12
_ORACLE_MAX_SYSTEMS = 2_000_000
_ORACLE_BOX = 1e7


def _enumerate_candidates(normals: np.ndarray, offsets: np.ndarray,
                          parallel_groups: list[tuple[int, int]],
                          dim: int) -> np.ndarray:
    """All intersection points of dim-subsets of hyperplanes (skipping subsets
    with two parallel planes of the same variable)."""
    count = normals.shape[0]
    excluded = set(parallel_groups)
    combos = []
    for subset in itertools.combinations(range(count), dim):
        chosen = set(subset)
        if any(a in chosen and b in chosen for a, b in excluded):
            continue
        combos.append(subset)
    if not combos:
        return np.empty((0, dim))
    idx = np.array(combos)
    mats = normals[idx]                      # (k, dim, dim)
    rhs = offsets[idx]                       # (k, dim)
    dets = np.linalg.det(mats)
    scale = np.prod(np.linalg.norm(mats, axis=2) + 1e-30, axis=1)
    solvable = np.abs(dets) > 1e-10 * scale
    if not np.any(solvable):
        return np.empty((0, dim))
    points = np.linalg.solve(mats[solvable], rhs[solvable][..., None])[..., 0]
    return points


def _feasible_mask(points: np.ndarray, a_rows: np.ndarray, relations: list[str],
                   rhs: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                   tol: float) -> np.ndarray:
    ok = np.ones(points.shape[0], dtype=bool)
    if a_rows.size:
        lhs = points @ a_rows.T
        for i, rel in enumerate(relations):
            if rel == LESS_EQUAL:
                ok &= lhs[:, i] <= rhs[i] + tol
            elif rel == GREATER_EQUAL:
                ok &= lhs[:, i] >= rhs[i] - tol
            else:
                ok &= np.abs(lhs[:, i] - rhs[i]) <= tol
    ok &= np.all(points >= lower - tol, axis=1)
    ok &= np.all(points <= upper + tol, axis=1)
    return ok


def _vertex_enumerate(a_rows: np.ndarray, relations: list[str], rhs: np.ndarray,
                      lower: np.ndarray, upper: np.ndarray,
                      tol: float = 1e-7) -> np.ndarray:
    """Feasible basic points of {x : Ax rel b, lower <= x <= upper} (finite box)."""
    dim = lower.size
    normals = []
    offsets = []
    for i in range(a_rows.shape[0]):
        normals.append(a_rows[i])
        offsets.append(rhs[i])
    parallel = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        lo_idx = len(normals)
        normals.append(e)
        offsets.append(lower[j])
        if upper[j] > lower[j]:
            normals.append(e)
            offsets.append(upper[j])
            parallel.append((lo_idx, lo_idx + 1))
    normals = np.array(normals)
    offsets = np.array(offsets)

    n_planes = normals.shape[0]
    n_systems = math.comb(n_planes, dim)
    if n_systems > _ORACLE_MAX_SYSTEMS:
        raise ValueError(
            f"problem too large for the enumeration oracle ({n_systems} systems)")

    points = _enumerate_candidates(normals, offsets, parallel, dim)
    if points.size == 0:
        return points
    mask = _feasible_mask(points, a_rows, relations, rhs, lower, upper, tol)
    return points[mask]


def oracle_solve(problem: LpProblem) -> LpSolution:
    """Exact reference optimum by basic-point enumeration (test oracle only).

    Accepts at most 12 variables. Variables without finite bounds are boxed at
    +/-1e7 for enumeration; an explicit recession-direction search then decides
    unboundedness, so the listed trivial unbounded cases are still certified.
    """
    n = problem.num_variables
    if n > _ORACLE_MAX_VARIABLES:
        raise ValueError(
            f"oracle_solve accepts at most {_ORACLE_MAX_VARIABLES} variables")
    lower = np.array(problem.lower)
    upper = np.array(problem.upper)
    if np.any(lower > upper + FEAS_TOL):
        return LpSolution(status=INFEASIBLE)

    a_rows = np.zeros((problem.num_constraints, n))
    rhs = np.zeros(problem.num_constraints)
    relations = []
    for i, con in enumerate(problem.constraints):
        for idx, coef in con.coefficients:
            a_rows[i, idx] += coef
        rhs[i] = con.rhs
        relations.append(con.relation)

    boxed_lower = np.where(np.isfinite(lower), lower, -_ORACLE_BOX)
    boxed_upper = np.where(np.isfinite(upper), upper, _ORACLE_BOX)
    vertices = _vertex_enumerate(a_rows, relations, rhs, boxed_lower, boxed_upper)
    if vertices.shape[0] == 0:
        return LpSolution(status=INFEASIBLE)

    c = problem.objective_vector()
    objectives = vertices @ c
    best = int(np.argmax(objectives))

    if not np.all(np.isfinite(lower) & np.isfinite(upper)):
        ray = _improving_recession_direction(a_rows, relations, lower, upper, c)
        if ray is not None:
            return LpSolution(status=UNBOUNDED, ray=ray)

    values = vertices[best]
    return LpSolution(status=OPTIMAL, values=values,
                      objective=float(objectives[best]))


def _improving_recession_direction(a_rows, relations, lower, upper,
                                   c) -> np.ndarray | None:
    """Search the (normalized) recession cone for a direction with c'd > 0."""
    n = lower.size
    d_lower = np.where(np.isfinite(lower), 0.0, -1.0)
    d_upper = np.where(np.isfinite(upper), 0.0, 1.0)
    cone_rhs = np.zeros(len(relations))
    dirs = _vertex_enumerate(a_rows, relations, cone_rhs, d_lower, d_upper,
                             tol=1e-9)
    if dirs.shape[0] == 0:
        return None
    gains = dirs @ c
    best = int(np.argmax(gains))
    if gains[best] > 1e-9:
        return dirs[best]
    return None

