"""Reference planning LPs in the epigraph form, for checking the package's.

The package writes each piecewise-linear term, the overflow penalty
included, as bounded piece columns (see `reservoirplan.formulation`). This
builder writes the same programs the way the package did before: every term
gets one free variable, a hypograph z <= every cut of a concave profit (+z)
or an epigraph z >= every cut of a convex transfer cost or expected risk
(-z), with one row per cut, and the overflow penalty keeps its slack w >= 0,
priced -F, with one row w - v >= -V per reservoir and period. The two forms
have the same optimal objective, which is what the tests compare.

`cuts` and `expected_cuts` give those rows; the tests in `test_pwl.py` check
them against `PwlFunction.evaluate`.
"""
from __future__ import annotations

import itertools

import numpy as np

from reservoirplan import lp
from reservoirplan.model import Scenario
from reservoirplan.pwl import SLOPE_TOL, PwlFunction


def cuts(f: PwlFunction) -> tuple[tuple[float, float], ...]:
    """Supporting lines as (slope, intercept) pairs, one per distinct slope.

    For convex f, f(x) = max over cuts of slope*x + intercept; for concave
    f the max becomes a min. Rejects functions that are neither. Each line
    passes through the breakpoint where its piece starts.
    """
    starts, slopes = f._starts_and_slopes()
    y = dict(f.breakpoints)
    return tuple((slope, y[start] - slope * start)
                 for start, slope in zip(starts, slopes))


def expected_cuts(f: PwlFunction, support) -> tuple[tuple[float, float], ...]:
    """Cuts of x -> sum_k p_k * f(x - xi_k) over (xi_k, p_k) in `support`.

    On each interval between consecutive shifted kinks the cut is the
    probability-weighted sum of the cuts of f active there. Every such sum
    bounds the expectation, so nearly coincident kinks cannot spoil it.
    """
    starts, lines = f._starts_and_slopes()[0], cuts(f)
    kinks = sorted((start + xi, k) for k, (xi, _) in enumerate(support)
                   for start in starts[1:])
    active = [0] * len(support)
    result: list[tuple[float, float]] = []
    for group in [()] + [list(g) for _, g in
                         itertools.groupby(kinks, key=lambda e: e[0])]:
        for _, k in group:
            active[k] += 1
        slope = sum(p * lines[j][0] for j, (_, p) in zip(active, support))
        intercept = sum(p * (lines[j][1] - lines[j][0] * xi)
                        for j, (xi, p) in zip(active, support))
        if not result or abs(slope - result[-1][0]) > SLOPE_TOL:
            result.append((float(slope), float(intercept)))
    return tuple(result)


def _add_term(problem: lp.LpProblem, name: str, arg: int, term_cuts,
              concave: bool) -> None:
    """Add f(arg) to the objective through one free variable z: z <= every
    cut of a concave f (+z) or z >= every cut of a convex f (-z)."""
    z = problem.add_variable(name, -np.inf, np.inf)
    problem.set_objective_coefficient(z, 1.0 if concave else -1.0)
    relation = lp.LESS_EQUAL if concave else lp.GREATER_EQUAL
    for slope, intercept in term_cuts:
        problem.add_constraint([(z, 1.0), (arg, -slope)], relation, intercept)


def build_epigraph(scenario: Scenario, stochastic: bool) -> lp.LpProblem:
    """The proposed (`stochastic`) or deterministic planning LP, with one
    variable per transfer, release, inflow prediction, volume and overflow,
    and one hypograph or epigraph variable per piecewise-linear term."""
    problem = lp.LpProblem(name=f"{scenario.name}:epigraph")
    links = scenario.sorted_links()
    q, g, x, v, w = {}, {}, {}, {}, {}
    for t in scenario.periods():
        for link in links:
            q[t, link.source, link.target] = problem.add_variable(
                f"q[{t},{link.source}->{link.target}]", 0.0, link.capacity)
        for n in scenario.ids():
            g[t, n] = problem.add_variable(f"g[{t},{n}]", 0.0)
        for n in scenario.ids():
            inflow = scenario.inflow[(n, t)]
            lo, hi = inflow.bounds() if stochastic else (inflow.mean(),) * 2
            x[t, n] = problem.add_variable(f"x[{t},{n}]", lo, hi)
        for n in scenario.ids():
            v[t, n] = problem.add_variable(f"v[{t},{n}]", 0.0)
        for n in scenario.ids():
            w[t, n] = problem.add_variable(f"w[{t},{n}]", 0.0)
            problem.set_objective_coefficient(
                w[t, n], -float(scenario.overflow_penalty[(n, t)]))

        for n in scenario.ids():
            spec = scenario.reservoir(n)
            if t == 1:
                prev, rhs = [], spec.initial_volume
            else:
                prev, rhs = [(v[t - 1, n], -1.0)], 0.0
            outflows = [(q[t, n, link.target], 1.0)
                        for link in links if link.source == n]
            inflows = [(q[t, link.source, n], -1.0)
                       for link in links if link.target == n]
            problem.add_constraint(
                [(v[t, n], 1.0), (g[t, n], 1.0), (x[t, n], -1.0)]
                + inflows + outflows + prev, lp.EQUAL, rhs)
            problem.add_constraint([(g[t, n], 1.0)] + outflows + prev,
                                   lp.LESS_EQUAL, rhs)
            problem.add_constraint([(w[t, n], 1.0), (v[t, n], -1.0)],
                                   lp.GREATER_EQUAL, -spec.max_volume)
            _add_term(problem, f"u[{t},{n}]", g[t, n],
                      cuts(scenario.release_profit[(n, t)]), concave=True)
            if stochastic:
                _add_term(problem, f"rho[{t},{n}]", x[t, n],
                          expected_cuts(scenario.shortfall_risk[(n, t)],
                                        scenario.inflow[(n, t)].support),
                          concave=False)
        for link in links:
            _add_term(problem, f"y[{t},{link.source}->{link.target}]",
                      q[t, link.source, link.target],
                      cuts(scenario.transfer_cost[(link.source, link.target, t)]),
                      concave=False)

    for n in scenario.ids():
        problem.add_constraint([(v[scenario.horizon, n], 1.0)],
                               lp.GREATER_EQUAL,
                               scenario.reservoir(n).final_min_volume)
    return problem
