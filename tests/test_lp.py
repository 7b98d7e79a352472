import copy
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import random_lp, random_scenario
from oracle import oracle_solve
from reservoirplan import lp
from reservoirplan.formulation import (build_deterministic, build_proposed,
                                       extract_plan, plan_violations)
from reservoirplan.scenarios import BUILTINS, sweep_scenario


def test_bound_only_problem():
    p = lp.LpProblem()
    x = p.add_variable("x", 0.0, 5.0)
    p.set_objective_coefficient(x, 1.0)
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == pytest.approx(5.0, abs=1e-9)
    assert s.values[x] == pytest.approx(5.0, abs=1e-9)


def test_simplex_on_one_face():
    p = lp.LpProblem()
    x = p.add_variable("x")
    y = p.add_variable("y")
    p.set_objective_coefficient(x, 1.0)
    p.set_objective_coefficient(y, 1.0)
    p.add_constraint([(x, 1.0), (y, 1.0)], lp.LESS_EQUAL, 1.0)
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == pytest.approx(1.0, abs=1e-9)


def test_equality_and_free_variables():
    p = lp.LpProblem()
    x = p.add_variable("x", -math.inf, math.inf)
    z = p.add_variable("z", -math.inf, math.inf)
    p.set_objective_coefficient(z, -1.0)
    p.add_constraint([(z, 1.0), (x, -1.0)], lp.GREATER_EQUAL, 0.0)
    p.add_constraint([(z, 1.0), (x, 1.0)], lp.GREATER_EQUAL, 0.0)
    p.add_constraint([(x, 1.0)], lp.EQUAL, 3.0)
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == pytest.approx(-3.0, abs=1e-8)


def test_oracle_matches_listed_cases():
    p = lp.LpProblem()
    x = p.add_variable("x", 0.0, 5.0)
    p.set_objective_coefficient(x, 1.0)
    assert oracle_solve(p).objective == pytest.approx(5.0)

    p = lp.LpProblem()
    x = p.add_variable("x")
    y = p.add_variable("y")
    p.set_objective_coefficient(x, 1.0)
    p.set_objective_coefficient(y, 1.0)
    p.add_constraint([(x, 1.0), (y, 1.0)], lp.LESS_EQUAL, 1.0)
    assert oracle_solve(p).objective == pytest.approx(1.0)


def test_infeasible_box():
    p = lp.LpProblem()
    p.add_variable("x", 2.0, 1.0)
    assert oracle_solve(p).status == lp.INFEASIBLE
    assert lp.solve(p).status == lp.INFEASIBLE


def test_unbounded_above():
    p = lp.LpProblem()
    x = p.add_variable("x", 0.0, math.inf)
    p.set_objective_coefficient(x, 1.0)
    assert oracle_solve(p).status == lp.UNBOUNDED
    s = lp.solve(p)
    assert s.status == lp.UNBOUNDED
    assert s.ray is not None and s.ray[x] > 0


def test_infeasible_constraints():
    p = lp.LpProblem()
    x = p.add_variable("x", 0.0, 10.0)
    p.add_constraint([(x, 1.0)], lp.GREATER_EQUAL, 5.0)
    p.add_constraint([(x, 1.0)], lp.LESS_EQUAL, 2.0)
    assert lp.solve(p).status == lp.INFEASIBLE
    assert oracle_solve(p).status == lp.INFEASIBLE


def test_unbounded_ray_improves_objective():
    p = lp.LpProblem()
    x = p.add_variable("x", 0.0, math.inf)
    y = p.add_variable("y", 0.0, math.inf)
    p.set_objective_coefficient(x, 1.0)
    p.set_objective_coefficient(y, 0.5)
    p.add_constraint([(x, 1.0), (y, -1.0)], lp.LESS_EQUAL, 4.0)
    s = lp.solve(p)
    assert s.status == lp.UNBOUNDED
    gain = float(np.dot(p.objective_vector(), s.ray))
    assert gain > 1e-9


def test_oracle_rejects_oversized_problems():
    p = lp.LpProblem()
    for j in range(13):
        p.add_variable(f"x{j}", 0.0, 1.0)
    with pytest.raises(ValueError, match="at most 12"):
        oracle_solve(p)


def test_solver_matches_oracle_on_50_random_boxed_instances():
    rng = np.random.default_rng(1729)
    optimal_seen = 0
    for _ in range(50):
        p = random_lp(rng, anchored=True)
        s = lp.solve(p)
        o = oracle_solve(p)
        assert s.status == o.status
        if s.status == lp.OPTIMAL:
            optimal_seen += 1
            assert s.objective == pytest.approx(o.objective, abs=1e-7)
            assert lp.constraint_violation(p, s.values) <= 1e-7
    assert optimal_seen >= 40


def test_solver_matches_oracle_including_infeasible_instances():
    rng = np.random.default_rng(888)
    statuses = set()
    for _ in range(60):
        p = random_lp(rng, anchored=False)
        s = lp.solve(p)
        o = oracle_solve(p)
        assert s.status == o.status
        statuses.add(s.status)
        if s.status == lp.OPTIMAL:
            assert s.objective == pytest.approx(o.objective, abs=1e-7)
    assert lp.INFEASIBLE in statuses and lp.OPTIMAL in statuses


def _dependent_rows_problem(rhs: float) -> lp.LpProblem:
    """x + y = 3 and 2x + 2y = rhs, plus a free z with z <= 1 + x."""
    p = lp.LpProblem()
    x = p.add_variable("x", 0.0, 10.0)
    y = p.add_variable("y", 0.0, 10.0)
    z = p.add_variable("z", -math.inf, math.inf)
    p.set_objective_coefficient(z, 1.0)
    p.set_objective_coefficient(y, 1.0)
    p.add_constraint([(x, 1.0), (y, 1.0)], lp.EQUAL, 3.0)
    p.add_constraint([(x, 2.0), (y, 2.0)], lp.EQUAL, rhs)
    p.add_constraint([(z, 1.0), (x, -1.0)], lp.LESS_EQUAL, 1.0)
    return p


def test_linearly_dependent_equality_rows():
    feasible = _dependent_rows_problem(6.0)
    s = lp.solve(feasible)
    o = oracle_solve(feasible)
    assert s.status == o.status == lp.OPTIMAL
    assert s.objective == pytest.approx(o.objective, abs=1e-9)
    assert s.objective == pytest.approx(4.0, abs=1e-9)
    assert lp.constraint_violation(feasible, s.values) <= lp.FEAS_TOL

    infeasible = _dependent_rows_problem(7.0)
    assert oracle_solve(infeasible).status == lp.INFEASIBLE
    assert lp.solve(infeasible).status == lp.INFEASIBLE


def test_solver_matches_oracle_with_dependent_equality_pairs():
    rng = np.random.default_rng(6061)
    statuses = []
    for _ in range(40):
        p = random_lp(rng, anchored=True)
        if not p.constraints:
            continue
        # Turn a random row into an equality and add a scaled copy of it,
        # so two equality rows are linearly dependent.
        con = p.constraints[int(rng.integers(p.num_constraints))]
        for scale in (1.0, -2.5):
            p.add_constraint([(j, scale * c) for j, c in con.coefficients],
                             lp.EQUAL, scale * con.rhs)
        s = lp.solve(p)
        o = oracle_solve(p)
        assert s.status == o.status
        statuses.append(s.status)
        if s.status == lp.OPTIMAL:
            assert s.objective == pytest.approx(o.objective, abs=1e-7)
            assert lp.constraint_violation(p, s.values) <= lp.FEAS_TOL
    assert statuses.count(lp.OPTIMAL) >= 20


def test_violated_slack_basis_in_every_direction():
    p = lp.LpProblem()
    x = p.add_variable("x", 0.0, 10.0)
    y = p.add_variable("y", 0.0, 10.0)
    w = p.add_variable("w", 0.0, 5.0)
    p.set_objective_coefficient(w, -1.0)
    p.add_constraint([(x, 1.0), (y, 1.0), (w, 1.0)], lp.GREATER_EQUAL, 5.0)
    p.add_constraint([(x, 1.0), (y, -1.0), (w, -1.0)], lp.LESS_EQUAL, -2.0)
    p.add_constraint([(x, 1.0), (y, 2.0)], lp.EQUAL, 6.0)
    p.add_constraint([(x, 1.0), (y, -1.0)], lp.EQUAL, -1.0)
    # At x = y = w = 0 each slack starts outside its bounds: above for the
    # >= row and the first equality, below for the <= row and the second.
    state = lp._Tableau(p, p.matrix())
    assert state.infeasibility_cost().tolist() == [-1, 1, -1, 1]
    s = lp.solve(p)
    o = oracle_solve(p)
    assert s.status == o.status == lp.OPTIMAL
    assert s.objective == pytest.approx(o.objective, abs=1e-9)
    assert s.objective == pytest.approx(-4.0 / 3.0, abs=1e-9)
    assert s.values.tolist() == pytest.approx([4 / 3, 7 / 3, 4 / 3], abs=1e-9)


def test_total_bound_violation_never_increases(monkeypatch):
    # Phase 1 lets a violated basic variable block only on reaching the bound
    # it violates, so no step can add violation anywhere; phase 2 keeps it 0.
    history = []
    refresh = lp._Tableau.refresh_basic_values

    def recording_refresh(state):
        refresh(state)
        history.append(float(np.sum(np.maximum(state.lower - state.x, 0.0)
                                    + np.maximum(state.x - state.upper, 0.0))))

    monkeypatch.setattr(lp._Tableau, "refresh_basic_values", recording_refresh)
    rng = np.random.default_rng(1)
    problems = [random_lp(rng, anchored=bool(i % 2)) for i in range(60)]
    problems += [build_proposed(random_scenario(rng))[0] for _ in range(10)]
    repaired = 0
    for p in problems:
        history.clear()
        lp.solve(p)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        repaired += history[0] > lp.FEAS_TOL and history[-1] <= lp.FEAS_TOL
    assert repaired >= 30


def _dense_rows(problem):
    """A, b and the slack bounds of A x + s = b, read straight from
    problem.constraints."""
    m, n = problem.num_constraints, problem.num_variables
    a, b = np.zeros((m, n)), np.zeros(m)
    slack_lower, slack_upper = np.zeros(m), np.zeros(m)
    for i, con in enumerate(problem.constraints):
        for j, coef in con.coefficients:
            a[i, j] += coef
        b[i] = con.rhs
        if con.relation == lp.LESS_EQUAL:
            slack_upper[i] = math.inf
        elif con.relation == lp.GREATER_EQUAL:
            slack_lower[i] = -math.inf
    return a, b, slack_lower, slack_upper


def test_tableau_is_constraints_by_structural_plus_slack_columns():
    rng = np.random.default_rng(77)
    problems = [random_lp(rng, anchored=anchored)
                for anchored in (True, False) for _ in range(10)]
    repeated = lp.LpProblem("repeated")
    for j in range(3):
        repeated.add_variable(f"x{j}", -1.0, 4.0)
    repeated.add_constraint([(0, 1.5), (2, -1.0), (0, 2.25)], lp.GREATER_EQUAL, 4.0)
    repeated.add_constraint([(1, 1.0)], lp.EQUAL, -2.0)
    repeated.add_constraint([(2, 0.5), (1, 3.0)], lp.LESS_EQUAL, 1.0)
    unconstrained = lp.LpProblem("unconstrained")
    unconstrained.add_variable("x", -1.0, 1.0)
    problems += [repeated, unconstrained]
    for p in problems:
        m, n = p.num_constraints, p.num_variables
        state = lp._Tableau(p, p.matrix())
        a, b, slack_lower, slack_upper = _dense_rows(p)
        assert state.tab.shape == (m, n + m)
        assert np.array_equal(state.tab[:, :n], a)
        assert np.array_equal(state.tab[:, n:], np.eye(m))
        assert np.array_equal(state.tab[:, n:] @ state.b, b)
        assert np.array_equal(state.lower, np.concatenate([p.lower, slack_lower]))
        assert np.array_equal(state.upper, np.concatenate([p.upper, slack_upper]))
        assert state.basis.tolist() == list(range(n, n + m))
    assert lp._Tableau(repeated, repeated.matrix()).tab[0, 0] == 3.75


@pytest.mark.parametrize("constraint, point, expected", [
    (None, [3.0, 0.5], 0.0),
    (([(0, 1.0), (1, 1.0)], lp.LESS_EQUAL, 1.0), [3.0, 0.5], 2.5),
    (([(0, 1.0), (1, 1.0)], lp.LESS_EQUAL, 4.0), [3.0, 0.5], 0.0),
    (([(0, 1.0), (1, -1.0)], lp.GREATER_EQUAL, 4.0), [3.0, 0.5], 1.5),
    (([(0, 1.0), (1, -1.0)], lp.GREATER_EQUAL, 1.0), [3.0, 0.5], 0.0),
    (([(0, 1.0), (1, 1.0)], lp.EQUAL, 4.25), [3.0, 0.5], 0.75),
    (([(0, 1.0), (1, 1.0)], lp.EQUAL, 2.5), [3.0, 0.5], 1.0),
    (([(0, 1.0), (0, 1.0)], lp.LESS_EQUAL, 5.0), [3.0, 0.5], 1.0),
    (None, [5.0, 0.5], 1.0),
    (None, [3.0, -1.5], 0.5),
    (([(0, 1.0), (1, 1.0)], lp.LESS_EQUAL, 1.0), [5.0, 0.5], 4.5),
], ids=["feasible", "le", "le_slack", "ge", "ge_slack", "eq_below", "eq_above",
        "repeated_column", "upper_bound", "lower_bound", "worst_of_bound_and_row"])
def test_constraint_violation_is_the_largest_gap(constraint, point, expected):
    p = lp.LpProblem()
    p.add_variable("x", 0.0, 4.0)
    p.add_variable("y", -1.0, 1.0)
    if constraint is not None:
        p.add_constraint(*constraint)
    assert lp.constraint_violation(p, np.array(point)) == expected


def _two_variable_problem():
    p = lp.LpProblem("checks")
    p.add_variable("x", 0.0, 4.0)
    p.add_variable("y", -1.0, 1.0)
    p.add_constraint([(0, 1.0), (1, 2.0)], lp.LESS_EQUAL, 3.0)
    return p


@pytest.mark.parametrize("coefficients, relation, rhs, error, message", [
    ([(0, 1.0)], "<", 1.0, ValueError,
     "relation must be one of ('<=', '=', '>='), got '<'"),
    ([(0, 1.0)], lp.LESS_EQUAL, math.nan, ValueError,
     "constraint rhs must be finite"),
    ([(0, 1.0)], lp.GREATER_EQUAL, math.inf, ValueError,
     "constraint rhs must be finite"),
    ([(0, 1.0)], lp.EQUAL, -math.inf, ValueError,
     "constraint rhs must be finite"),
    ([(0, 1.0), (1, math.nan)], lp.LESS_EQUAL, 1.0, ValueError,
     "constraint coefficients must be finite"),
    ([(0, 1.0), (1, -math.inf)], lp.LESS_EQUAL, 1.0, ValueError,
     "constraint coefficients must be finite"),
    ([(0, 1.0), (-1, 1.0)], lp.LESS_EQUAL, 1.0, IndexError,
     "variable index -1 out of range"),
    ([(0, 1.0), (2, 1.0)], lp.LESS_EQUAL, 1.0, IndexError,
     "variable index 2 out of range"),
], ids=["relation", "nan_rhs", "inf_rhs", "minus_inf_rhs", "nan_coefficient",
        "inf_coefficient", "index_minus_one", "index_num_variables"])
def test_add_constraint_rejects_bad_input_and_leaves_the_problem_as_it_was(
        coefficients, relation, rhs, error, message):
    p = _two_variable_problem()
    before = p.matrix()
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        p.add_constraint(coefficients, relation, rhs)
    assert p.num_constraints == 1
    assert len(p.constraints) == 1
    for kept, array in zip(before, p.matrix()):
        assert np.array_equal(kept, array)


def test_add_variable_and_objective_reject_bad_input():
    p = _two_variable_problem()
    for lower, upper in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match=r"^variable z: bounds must not be NaN$"):
            p.add_variable("z", lower, upper)
    # A lower bound of +inf or an upper bound of -inf leaves no finite
    # value; the solve would subtract inf from inf.
    for lower, upper in ((math.inf, math.inf), (-math.inf, -math.inf)):
        with pytest.raises(ValueError, match=r"^variable z: bounds "
                           r"\[-?inf, -?inf\] admit no finite value$"):
            p.add_variable("z", lower, upper)
    assert p.num_variables == 2
    for coefficient in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError,
                           match=r"^objective coefficients must be finite$"):
            p.set_objective_coefficient(0, coefficient)
    for index in (-1, 2):
        with pytest.raises(IndexError, match=rf"^variable index {index} out of range$"):
            p.set_objective_coefficient(index, 1.0)
    assert p.objective == {}


def test_add_constraint_drops_zeros_and_takes_numpy_scalars():
    p = _two_variable_problem()
    row = p.add_constraint([(np.int64(1), np.float64(0.0)), (np.int32(0), np.float32(0.5)),
                            (1, -0.0), (np.intp(1), np.int64(3))],
                           lp.GREATER_EQUAL, np.float64(-2.0))
    assert row == 1
    assert p.constraints[1] == lp.Constraint(((0, 0.5), (1, 3.0)), lp.GREATER_EQUAL, -2.0)
    assert all(type(value) is float for _, value in p.constraints[1].coefficients)
    assert all(type(index) is int for index, _ in p.constraints[1].coefficients)
    assert type(p.constraints[1].rhs) is float
    empty = p.add_constraint([(0, 0.0)], lp.EQUAL, 0.0)
    assert empty == 2 and p.constraints[2].coefficients == ()
    rows, cols, values, row_lower, row_upper = p.matrix()
    assert rows.tolist() == [0, 0, 1, 1]
    assert cols.tolist() == [0, 1, 0, 1]
    assert values.tolist() == [1.0, 2.0, 0.5, 3.0]
    assert row_lower.tolist() == [-math.inf, -2.0, 0.0]
    assert row_upper.tolist() == [3.0, math.inf, 0.0]


def _lp_digest(problem):
    """SHA-256 of everything the solver reads of an LP: the `matrix()`
    arrays, the bounds and the objective (each with its dtype), and the
    variable names."""
    digest = hashlib.sha256()
    for array in (*problem.matrix(), np.array(problem.lower),
                  np.array(problem.upper), problem.objective_vector()):
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update("\n".join(problem.variable_names).encode())
    return digest.hexdigest()


def _planning_lps():
    """(label, method, LP): the built-ins, six random scenarios and one
    angpuang sweep variant per sweep parameter, each with both methods."""
    scenarios = [(name, BUILTINS[name]()) for name in ("simple1", "simple2", "angpuang")]
    rng = np.random.default_rng(2020)
    scenarios += [(f"random{i}", random_scenario(rng)) for i in range(6)]
    base = BUILTINS["angpuang"]()
    scenarios += [(parameter, sweep_scenario(base, parameter, value))
                  for parameter, value in [("transfer-cost-slope", 1.5),
                                           ("risk-slope", 5.0),
                                           ("profit-slope", 0.5),
                                           ("initial-volume-fraction", 0.75)]]
    for label, scenario in scenarios:
        for method, build in (("proposed", build_proposed),
                              ("deterministic", build_deterministic)):
            yield label, method, build(scenario)[0]


# Recorded with each piecewise-linear term, the overflow penalty included,
# written as piece columns.
PLANNING_LP_DIGESTS = {
    ("simple1", "proposed"):
        "8788fdd03993bcf3d64617191c34dfc9f3f45553ee4726caeddcd6447e6519cf",
    ("simple1", "deterministic"):
        "30c8ec00c1733698ccdd507c68cf7e910d71bb9ac12efeab5ef539453d861b8b",
    ("simple2", "proposed"):
        "04e0bcf230ebccd6eba0b12c1f410f45dbebf6731ef979e298634b49f6b0a424",
    ("simple2", "deterministic"):
        "d2501c24588d44e1f3a59a9803043c6e8468248580bf2bc96385c2295d3bb0a2",
    ("angpuang", "proposed"):
        "4b4f9fbac70710df0c5413b9ffa17c1a148e8a0156f9abf8dd2464d0be4fc171",
    ("angpuang", "deterministic"):
        "44fc7b1699b6a499db0e379d057e4be797688f16385d9db29e62f32c7f669898",
    ("random0", "proposed"):
        "e7500f1e31e408daef6629ea74a376aac469c4c4c53ea70db4551fd869a9e111",
    ("random0", "deterministic"):
        "dbadad994e403504558715adc092c3810b6a82b83a69a36a9a315f4ac67051c0",
    ("random1", "proposed"):
        "16d784d7cd3ead7f6d709a7d2e819cc264b49c5ad34f81fafbdb045dbdec99b4",
    ("random1", "deterministic"):
        "a4844683f391ae6b9a4edbd70cda60ab8bba27e1d1d2fd255c61c871b12ef5f4",
    ("random2", "proposed"):
        "a526b8af16803be58f10c0cc7cbd745af12ecef3bc6481e3463a5c5d61f2b759",
    ("random2", "deterministic"):
        "f3c2fba8d00a61d4d1020dd164ed3b9e3ba1c4d85898583d7b2f345dfda3a3e7",
    ("random3", "proposed"):
        "332948c7db156d662c53acf248fedd5a4cd26ad67865e29b22c0b43350d56dff",
    ("random3", "deterministic"):
        "ee0364336ced046431debabc2997c292fce506e4f6e787580352c2db9dd22fb3",
    ("random4", "proposed"):
        "ab8c46eb82796e435fa604e4bdcd5d44d3125941b35c7f650f4f3670af158965",
    ("random4", "deterministic"):
        "e915c9651e29109cf2a6eaed60520d8557c3bf69163aa3a856e4f9a27f0d892d",
    ("random5", "proposed"):
        "012756c89e50d29af84723e98a35d317186e8a91a3574d6050760b4cf187669f",
    ("random5", "deterministic"):
        "ea34a4c34e3f04088b15f71541f10c239c187a97a39c8b5e5cad8ca7bff80d57",
    ("transfer-cost-slope", "proposed"):
        "fd7875285210998d0ad76eaf17975edc5c8eef8823dc07d83fe82e1744eef2ab",
    ("transfer-cost-slope", "deterministic"):
        "f9ee711c740d1018ea79dbef64ec895182d2f29d0838faa89b3e40a71bb63117",
    ("risk-slope", "proposed"):
        "a70daf634552c9db3118030fd3fafcfcf32d8380b9aef842e53e37ea26c50dfe",
    ("risk-slope", "deterministic"):
        "44fc7b1699b6a499db0e379d057e4be797688f16385d9db29e62f32c7f669898",
    ("profit-slope", "proposed"):
        "b37580195b41301da4e7c408ea1153ff27f74e6dde8d07786f73e70b0580c8a1",
    ("profit-slope", "deterministic"):
        "1cbd3ec87694f2efe19ee9aac7adb4fc33b38a48e1245bf4905e73bd58f8c809",
    ("initial-volume-fraction", "proposed"):
        "6736527fb07865db46aba4b5d7cc597090960a5021a2938c946b927e6b14d5e0",
    ("initial-volume-fraction", "deterministic"):
        "3c20a93867d3629ff7cf5c74e931bc7f4c8e803379bebf11373f96b613f532bb",
}


def test_planning_lps_are_bitwise_those_recorded():
    digests = {(label, method): _lp_digest(problem)
               for label, method, problem in _planning_lps()}
    assert digests == PLANNING_LP_DIGESTS


def test_constraints_view_rebuilds_matrix():
    # The per-row view and `matrix()` must describe the same rows: A summed
    # over repeated entries, and row bounds decoded from each relation here.
    for label, method, p in _planning_lps():
        m, n = p.num_constraints, p.num_variables
        view = p.constraints
        assert len(view) == m
        a = np.zeros((m, n))
        row_lower, row_upper = np.full(m, -math.inf), np.full(m, math.inf)
        for i, con in enumerate(view):
            for j, coef in con.coefficients:
                a[i, j] += coef
            if con.relation != lp.LESS_EQUAL:
                row_lower[i] = con.rhs
            if con.relation != lp.GREATER_EQUAL:
                row_upper[i] = con.rhs
        rows, cols, values, lower, upper = p.matrix()
        dense = np.zeros((m, n))
        np.add.at(dense, (rows, cols), values)
        assert np.array_equal(dense, a), (label, method)
        assert np.array_equal(lower, row_lower), (label, method)
        assert np.array_equal(upper, row_upper), (label, method)
        assert sum(len(con.coefficients) for con in view) == values.size


def test_objective_scaling_invariance():
    rng = np.random.default_rng(4242)
    for _ in range(20):
        p = random_lp(rng, anchored=True)
        s1 = lp.solve(p)
        if s1.status != lp.OPTIMAL:
            continue
        lam = float(rng.uniform(0.5, 10.0))
        original = dict(p.objective)
        for idx, coef in original.items():
            p.set_objective_coefficient(idx, lam * coef)
        s2 = lp.solve(p)
        for idx, coef in original.items():
            p.set_objective_coefficient(idx, coef)
        assert s2.status == lp.OPTIMAL
        assert s2.objective == pytest.approx(
            lam * s1.objective, rel=1e-6, abs=1e-9)


def _dense_pivot(tab, row, col):
    """Reference pivot: the rank-1 update applied to the whole tableau."""
    tab = tab.copy()
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    return tab


def test_pivot_equals_dense_rank1_update_on_sparse_tableaux():
    rng = np.random.default_rng(2718)
    zero_in_row = zero_in_col = False
    for _ in range(12):
        n = int(rng.integers(3, 15))
        p = lp.LpProblem()
        for j in range(n):
            p.add_variable(f"x{j}", 0.0, 10.0)
        for _ in range(int(rng.integers(3, 12))):
            idx = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            p.add_constraint([(int(j), float(rng.uniform(-3, 3))) for j in idx],
                             lp.LESS_EQUAL, float(rng.uniform(0, 5)))
        # A cold start keeps the all-slack basis [A | I].
        state = lp._Tableau(p, p.matrix())
        for _ in range(6):
            row, col = rng.choice(
                np.argwhere((np.abs(state.tab) > 0.1) & ~state.is_basic))
            zero_in_row |= bool(np.any(state.tab[row] == 0.0))
            zero_in_col |= bool(np.any(state.tab[:, col] == 0.0))
            expected = _dense_pivot(state.tab, row, col)
            leaving = state.basis[row]
            state.pivot(row, col, state.tab[:, col].nonzero()[0])
            assert np.array_equal(state.tab, expected)
            assert state.basis[row] == col
            assert state.is_basic[col] and not state.is_basic[leaving]
    assert zero_in_row and zero_in_col


def test_optimal_status_requires_a_feasible_point(monkeypatch):
    p = lp.LpProblem()
    x = p.add_variable("x", 0.0, 5.0)
    p.set_objective_coefficient(x, 1.0)
    monkeypatch.setattr(lp, "constraint_violation",
                        lambda problem, x, matrix=None: 1e-3)
    with pytest.raises(ArithmeticError, match="violates"):
        lp.solve(p)


@pytest.mark.parametrize("refresh_every", [None, 1, 10**9],
                         ids=["default", "every_iteration", "only_at_optimum"])
def test_solver_matches_highs_on_random_networks(monkeypatch, refresh_every,
                                                highs_objective):
    # 1 recomputes reduced costs and basic values every iteration; 10**9
    # exceeds any pivot count, so only the recompute before `optimal` is left.
    if refresh_every is not None:
        monkeypatch.setattr(lp, "REFRESH_EVERY", refresh_every)
    rng = np.random.default_rng(5150)
    largest = 0
    for _ in range(8):
        scenario = random_scenario(rng, max_reservoirs=8, max_horizon=8)
        largest = max(largest, len(scenario.reservoirs) * scenario.horizon)
        for build in (build_proposed, build_deterministic):
            problem, _ = build(scenario)
            solution = lp.solve(problem)
            reference = highs_objective(problem)
            assert solution.status == lp.OPTIMAL and reference is not None
            assert solution.objective == pytest.approx(reference, rel=1e-9)
    assert largest >= 36


def test_maintained_reduced_costs_and_basic_values_match_recompute(monkeypatch):
    # After every pivot the phase-2 reduced costs kept by the pivot and the
    # basic values moved along the entering column equal a from-scratch
    # recompute; refreshes are switched off so the updates run unchecked.
    monkeypatch.setattr(lp, "REFRESH_EVERY", 10**9)
    phase = {}
    run_simplex, pivot = lp._run_simplex, lp._Tableau.pivot

    def recording_run(state, objective, iterations_left):
        phase["objective"] = objective
        return run_simplex(state, objective, iterations_left)

    checked = []

    def checked_pivot(state, row, col, rows):
        pivot(state, row, col, rows)
        nonbasic = ~state.is_basic
        n = state.n_structural
        basic_values = (state.tab[:, n:] @ state.b
                        - state.tab[:, nonbasic] @ state.x[nonbasic])
        assert np.allclose(state.x[state.basis], basic_values, rtol=0, atol=1e-9)
        c = phase["objective"]
        if c is not None:
            reduced = c - c[state.basis] @ state.tab
            assert np.allclose(state.reduced, reduced, rtol=0, atol=1e-9)
            checked.append(col)

    monkeypatch.setattr(lp, "_run_simplex", recording_run)
    monkeypatch.setattr(lp._Tableau, "pivot", checked_pivot)
    rng = np.random.default_rng(6)
    for _ in range(40):
        lp.solve(random_lp(rng, max_vars=12, max_cons=12, anchored=True))
    assert len(checked) >= 100


def test_stale_reduced_costs_are_recomputed_before_optimal(monkeypatch):
    # A maintained row that prices nothing must not end phase 2: it is
    # recomputed before `optimal` is declared, and the search goes on.
    pivot = lp._Tableau.pivot

    def forgetful_pivot(state, row, col, rows):
        pivot(state, row, col, rows)
        state.reduced[:] = 0.0

    monkeypatch.setattr(lp._Tableau, "pivot", forgetful_pivot)
    problem, _ = build_proposed(BUILTINS["angpuang"]())
    solution = lp.solve(problem)
    assert solution.status == lp.OPTIMAL
    assert solution.objective == pytest.approx(38.25, rel=1e-12)


@pytest.mark.parametrize("scenario", ["simple1", "angpuang"])
@pytest.mark.parametrize("build", [build_proposed, build_deterministic])
def test_early_phase2_stop_fails_the_dual_certificate(monkeypatch, scenario,
                                                      build):
    # Stopping phase 2 one iteration before its end leaves a feasible point
    # that passes the primal check, so only the dual certificate can refuse it.
    problem, _ = build(BUILTINS[scenario]())
    run_simplex = lp._run_simplex

    def stop_early(state, objective, iterations_left):
        if objective is None:
            return run_simplex(state, objective, iterations_left)
        _, needed, _ = run_simplex(copy.deepcopy(state), objective,
                                   iterations_left)
        status, used, _ = run_simplex(state, objective, needed - 1)
        assert status == lp.ITERATION_LIMIT
        return lp.OPTIMAL, used, None

    monkeypatch.setattr(lp, "_run_simplex", stop_early)
    with pytest.raises(ArithmeticError, match="reduced cost|dual bound"):
        lp.solve(problem)


def _assert_same_solution(a, b):
    assert (a.status, a.iterations, a.objective) == (b.status, b.iterations,
                                                     b.objective)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.basis.columns, b.basis.columns)
    assert np.array_equal(a.basis.at_upper, b.basis.at_upper)


def test_start_from_own_optimal_basis_takes_no_iterations():
    rng = np.random.default_rng(404)
    problems = [build(factory())[0] for factory in BUILTINS.values()
                for build in (build_proposed, build_deterministic)]
    problems += [random_lp(rng, max_vars=8, max_cons=8) for _ in range(30)]
    for p in problems:
        cold = lp.solve(p)
        assert (cold.status, cold.start) == (lp.OPTIMAL, lp.COLD)
        warm = lp.solve(p, start=cold.basis)
        assert warm.start == lp.WARM and warm.iterations == 0
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12,
                                               abs=1e-12)
        assert np.allclose(warm.values, cold.values, rtol=0, atol=1e-9)


SWEEP_GRIDS = {"transfer-cost-slope": [0.25, 1.0, 1.5, 2.0],
               "risk-slope": [0.5, 1.0, 2.5, 5.0],
               "profit-slope": [0.5, 1.0, 2.5, 5.0],
               "initial-volume-fraction": [0.1, 0.5, 0.75, 1.0]}


@pytest.mark.parametrize("build", [build_proposed, build_deterministic])
@pytest.mark.parametrize("parameter", sorted(SWEEP_GRIDS))
def test_chained_sweep_solves_match_cold_solves_and_highs(parameter, build,
                                                         highs_objective):
    # Each grid point starts from the previous point's optimal basis, as
    # `sweep` does. The new right-hand sides of initial-volume-fraction push
    # basic values out of their bounds, so phase 1 has repairs to make.
    base = BUILTINS["angpuang"]()
    basis, starts = None, []
    for value in SWEEP_GRIDS[parameter]:
        scenario = sweep_scenario(base, parameter, value)
        problem, vm = build(scenario)
        cold = lp.solve(problem)
        warm = lp.solve(problem, start=basis)
        starts.append(warm.start)
        assert warm.is_optimal
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        assert warm.objective == pytest.approx(highs_objective(problem),
                                               rel=1e-9)
        assert plan_violations(extract_plan(warm, vm, scenario), scenario) == []
        basis = warm.basis
    assert starts == [lp.COLD] + [lp.WARM] * (len(starts) - 1)


def _changed_coefficient(problem):
    """`problem` with the first coefficient of its first row scaled by
    1.001: the same shape, with an A that differs in one entry."""
    changed = copy.deepcopy(problem)
    changed._values[0] *= 1.001
    return changed


def _swapped_columns(basis):
    """`basis` with its first two basic columns swapped in place, so the
    tableau it kept no longer belongs to it."""
    basis.columns[[0, 1]] = basis.columns[[1, 0]]
    return basis


def _two_row_problem(second_row):
    p = lp.LpProblem("two_rows")
    x = p.add_variable("x", 0.0, 4.0)
    y = p.add_variable("y", 0.0, 4.0)
    p.set_objective_coefficient(x, 1.0)
    p.set_objective_coefficient(y, 2.0)
    p.add_constraint([(x, 1.0), (y, 1.0)], lp.LESS_EQUAL, 3.0)
    p.add_constraint(second_row, lp.LESS_EQUAL, 5.0)
    return p


@pytest.mark.parametrize("case", ["coefficient", "columns", "bare", "reused",
                                  "foreign-A"])
def test_a_start_without_a_tableau_of_the_lp_is_solved_cold(case):
    # Each start passes the input checks but carries no tableau of its LP: A
    # differs in one coefficient from the one its tableau was built from, its
    # columns were swapped in place, it is bare, an earlier start took its
    # tableau and pivoted on it, or it is the optimal basis of an LP of the
    # same shape with another A.
    problem, _ = build_proposed(BUILTINS["angpuang"]())
    start = lp.solve(problem).basis
    if case == "coefficient":
        problem = _changed_coefficient(problem)
    elif case == "columns":
        start = _swapped_columns(start)
    elif case == "bare":
        start = lp.Basis(start.columns, start.at_upper)
    elif case == "reused":
        moved, _ = build_proposed(sweep_scenario(
            BUILTINS["angpuang"](), "initial-volume-fraction", 0.75))
        first = lp.solve(moved, start=start)
        assert first.start == lp.WARM and first.iterations > 0
    else:
        # x and y are dependent on the rows of `problem`, so the basis {x, y}
        # is singular there.
        start = lp.solve(_two_row_problem([(0, 1.0), (1, 3.0)])).basis
        assert sorted(start.columns.tolist()) == [0, 1]
        problem = _two_row_problem([(0, 2.0), (1, 2.0)])
    solution = lp.solve(problem, start=start)
    assert solution.start == "shape" and start._kept == []
    _assert_same_solution(solution, lp.solve(problem))


def _record_warm_states(monkeypatch):
    """A list that gets the `_Tableau` each simplex run starts from."""
    states = []
    run_simplex = lp._run_simplex

    def recording(state, objective, iterations_left):
        if objective is None:
            states.append(state)
        return run_simplex(state, objective, iterations_left)

    monkeypatch.setattr(lp, "_run_simplex", recording)
    return states


def test_a_warm_start_takes_over_the_kept_tableau(monkeypatch):
    # Each grid point changes only the objective, so the warm solve from the
    # previous point's basis works on the very array that solve ended with,
    # not a copy, and hands it on through its own basis.
    base = BUILTINS["angpuang"]()
    for build in (build_proposed, build_deterministic):
        problems = [build(sweep_scenario(base, "risk-slope", value))[0]
                    for value in (1.0, 2.5)]
        start = lp.solve(problems[0]).basis
        kept = start._kept[0][0]
        states = _record_warm_states(monkeypatch)
        warm = lp.solve(problems[1], start=start)
        monkeypatch.undo()
        assert warm.start == lp.WARM and start._kept == []
        assert len(states) == 1 and np.shares_memory(states[0].tab, kept)
        assert warm.basis._kept[0][0] is states[0].tab


# Cold-start iterations of the built-in plans, so that a changed entering or
# leaving choice shows as a count.
BUILTIN_COLD_PIVOTS = {("simple1", "proposed"): 19,
                       ("simple1", "deterministic"): 15,
                       ("simple2", "proposed"): 25,
                       ("simple2", "deterministic"): 15,
                       ("angpuang", "proposed"): 172,
                       ("angpuang", "deterministic"): 163}


@pytest.mark.parametrize("name,method", sorted(BUILTIN_COLD_PIVOTS))
def test_builtin_cold_pivot_counts(name, method):
    build = build_proposed if method == "proposed" else build_deterministic
    solution = lp.solve(build(BUILTINS[name]())[0])
    assert solution.start == lp.COLD
    assert solution.iterations == BUILTIN_COLD_PIVOTS[name, method]


# The cold-start plan of each built-in and method, as `extract_plan` reads it,
# keyed "name/method". A refactor of the simplex that changes no choice must
# reproduce it, but the tableau's products go through BLAS, so the entries are
# compared within 1e-9 rather than bit for bit. After a change that moves a
# plan on purpose, re-record with
#   PYTHONPATH=src:tests python -c "import test_lp; test_lp.record_builtin_plans()"
# and list each plan that moved.
BUILTIN_PLANS = Path(__file__).resolve().parent / "builtin_plans.json"
PLAN_FIELDS = ("releases", "predicted_inflows", "volumes", "transfers")


def _builtin_plan(name, method):
    build = build_proposed if method == "proposed" else build_deterministic
    scenario = BUILTINS[name]()
    problem, vm = build(scenario)
    return extract_plan(lp.solve(problem), vm, scenario)


def record_builtin_plans():
    """Write BUILTIN_PLANS, one line per plan field."""
    records = []
    for name, method in sorted(BUILTIN_COLD_PIVOTS):
        plan = _builtin_plan(name, method)
        fields = [("objective", plan.objective)] + [
            (field, getattr(plan, field).tolist()) for field in PLAN_FIELDS]
        records.append(f' "{name}/{method}": {{\n' + ",\n".join(
            f"  {json.dumps(field)}: {json.dumps(value)}"
            for field, value in fields) + "\n }")
    BUILTIN_PLANS.write_text("{\n" + ",\n".join(records) + "\n}\n")


@pytest.mark.parametrize("name,method", sorted(BUILTIN_COLD_PIVOTS))
def test_builtin_plans_are_those_recorded(name, method):
    recorded = json.loads(BUILTIN_PLANS.read_text())[f"{name}/{method}"]
    plan = _builtin_plan(name, method)
    assert plan.objective == pytest.approx(recorded["objective"], rel=0, abs=1e-9)
    for field in PLAN_FIELDS:
        expected = np.array(recorded[field])
        assert getattr(plan, field).shape == expected.shape, field
        assert np.allclose(getattr(plan, field), expected, rtol=0, atol=1e-9), field


# Cold-start iterations of the built-in plans with Bland's rule taking over
# after every degenerate pivot (BLAND_TRIGGER = 1). At the default trigger no
# other test runs the rule. Four of the six counts differ from
# BUILTIN_COLD_PIVOTS, so a Bland branch that never runs, or picks otherwise,
# shows as a count.
BLAND_COLD_PIVOTS = {("simple1", "proposed"): 20,
                     ("simple1", "deterministic"): 15,
                     ("simple2", "proposed"): 28,
                     ("simple2", "deterministic"): 15,
                     ("angpuang", "proposed"): 173,
                     ("angpuang", "deterministic"): 164}


def test_bland_rule_reaches_the_highs_optimum(monkeypatch, highs_objective):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    from network import synthetic_network
    monkeypatch.setattr(lp, "BLAND_TRIGGER", 1)
    builds = {"proposed": build_proposed, "deterministic": build_deterministic}
    cases = [(builds[method](BUILTINS[name]())[0], pivots)
             for (name, method), pivots in sorted(BLAND_COLD_PIVOTS.items())]
    cases += [(build(synthetic_network(7))[0], None) for build in builds.values()]
    for problem, pivots in cases:
        solution = lp.solve(problem)
        assert (solution.status, solution.start) == (lp.OPTIMAL, lp.COLD)
        assert solution.objective == pytest.approx(highs_objective(problem),
                                                   rel=1e-9)
        if pivots is not None:
            assert solution.iterations == pivots, problem.name


# Cold-start iterations of the benchmark's synthetic networks (seed, proposed,
# deterministic), so that a changed entering or leaving choice shows as a
# count. Each case keeps a fixed id, "seed-proposed-deterministic" with the
# counts first recorded for the cut-row LP and its crash start, so that
# re-recording a count keeps the test's name.
NETWORK_COLD_PIVOTS = [(0, 256, 187), (1, 240, 185), (2, 257, 193),
                       (3, 268, 180), (4, 263, 213), (5, 262, 215),
                       (6, 246, 185), (7, 256, 202), (8, 278, 207),
                       (9, 242, 205)]
NETWORK_CASE_IDS = ["0-299-209", "1-291-205", "2-328-228", "3-312-184",
                    "4-298-218", "5-324-221", "6-299-198", "7-303-221",
                    "8-318-229", "9-281-225"]


@pytest.mark.parametrize("seed,proposed,deterministic", NETWORK_COLD_PIVOTS,
                         ids=NETWORK_CASE_IDS)
def test_network_cold_pivot_counts(monkeypatch, seed, proposed, deterministic):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    from network import synthetic_network
    scenario = synthetic_network(seed)
    for build, expected in ((build_proposed, proposed),
                            (build_deterministic, deterministic)):
        solution = lp.solve(build(scenario)[0])
        assert (solution.status, solution.start) == (lp.OPTIMAL, lp.COLD)
        assert solution.iterations == expected


@pytest.mark.parametrize("reservoirs,horizon", [(8, 12), (16, 6)],
                         ids=["8x12", "16x6"])
def test_network_installs_its_own_optimal_basis(monkeypatch, reservoirs,
                                                horizon):
    # Sizes the benchmark does not run, with the generator's size constants
    # set as CI's 16x12 memory step sets them. The cold optimum's basis keeps
    # the cold solve's final tableau, and the warm solve from it takes that
    # array over, so it takes no iteration and ends where the cold solve did.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    import network
    monkeypatch.setattr(network, "RESERVOIRS", reservoirs)
    monkeypatch.setattr(network, "HORIZON", horizon)
    scenario = network.synthetic_network(31)
    finals = []
    dual_residuals, run_simplex = lp._dual_residuals, lp._run_simplex

    def recording(matrix, state, c):
        finals.append(state.tab)
        return dual_residuals(matrix, state, c)

    for build in (build_proposed, build_deterministic):
        problem = build(scenario)[0]
        monkeypatch.setattr(lp, "_dual_residuals", recording)
        cold = lp.solve(problem)
        monkeypatch.setattr(lp, "_dual_residuals", dual_residuals)
        assert (cold.status, cold.start) == (lp.OPTIMAL, lp.COLD)
        kept = cold.basis._kept[0][0]
        assert kept is finals[-1]
        states = _record_warm_states(monkeypatch)
        warm = lp.solve(problem, start=cold.basis)
        monkeypatch.setattr(lp, "_run_simplex", run_simplex)
        assert (warm.start, warm.iterations) == (lp.WARM, 0)
        assert len(states) == 1 and np.shares_memory(states[0].tab, kept)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12,
                                               abs=1e-12)
        assert np.allclose(warm.values, cold.values, rtol=0, atol=1e-9)


def _check_directions(state):
    """`direction`, `two_way` and `free` agree with a classification of every
    column from scratch."""
    movable = ~state.is_basic & (state.upper - state.lower > lp.PIVOT_TOL)
    at_lower = state.x <= state.lower + lp.FEAS_TOL
    at_upper = (state.x >= state.upper - lp.FEAS_TOL) & ~at_lower
    rise, fall = movable & ~at_upper, movable & ~at_lower
    assert np.array_equal(state.direction, rise.astype(float) - fall)
    assert np.array_equal(state.two_way, rise & fall)
    assert state.free.tolist() == np.flatnonzero(rise & fall).tolist()


def test_direction_agrees_with_a_classification_from_scratch(monkeypatch):
    # Checked once each pivot or bound flip has classified the columns it
    # moved, and at each exit. A pivot classifies its leaving column and then
    # its entering one, so the check waits for the entering one.
    checks = {"iterations": 0, "free": 0}
    run_simplex, pivot = lp._run_simplex, lp._Tableau.pivot
    classify = lp._Tableau.classify
    entered = []

    def recording_pivot(state, row, col, rows):
        pivot(state, row, col, rows)
        entered[:] = [col]

    def checked_classify(state, cols):
        classify(state, cols)
        if not isinstance(cols, int):
            entered.clear()   # a new tableau
            return
        if entered and cols != entered[0]:
            return
        entered.clear()
        _check_directions(state)
        checks["iterations"] += 1
        checks["free"] += state.free.size > 0

    def checked_run(state, objective, iterations_left):
        result = run_simplex(state, objective, iterations_left)
        _check_directions(state)
        return result

    monkeypatch.setattr(lp._Tableau, "pivot", recording_pivot)
    monkeypatch.setattr(lp._Tableau, "classify", checked_classify)
    monkeypatch.setattr(lp, "_run_simplex", checked_run)
    rng = np.random.default_rng(25)
    problems = [build(BUILTINS["angpuang"]())[0]
                for build in (build_proposed, build_deterministic)]
    for _ in range(40):
        # Some variables free, so that columns move both ways.
        problem = random_lp(rng, max_vars=10, max_cons=10, anchored=True)
        for j in np.flatnonzero(rng.random(problem.num_variables) < 0.3):
            problem.lower[j], problem.upper[j] = -math.inf, math.inf
        problems.append(problem)
    for problem in problems:
        lp.solve(problem)
    assert checks["iterations"] > 500 and checks["free"] > 0


def test_unusable_start_falls_back_to_the_cold_solve():
    angpuang, _ = build_proposed(BUILTINS["angpuang"]())
    simple, _ = build_proposed(BUILTINS["simple1"]())
    foreign = lp.solve(simple).basis
    n, m = angpuang.num_variables, angpuang.num_constraints
    slack = np.arange(n, n + m)
    out_of_range = slack.copy()
    out_of_range[0] = n + m
    cold = lp.solve(angpuang)
    own = cold.basis
    starts = [
        foreign,
        lp.Basis(slack, np.zeros(n + m - 1, dtype=bool)),
        lp.Basis(out_of_range, np.zeros(n + m, dtype=bool)),
        # Float columns, and an integer `at_upper`, which would index; both
        # carry the kept tableau, which stays where it is.
        lp.Basis(own.columns.astype(float), own.at_upper, own._kept),
        lp.Basis(own.columns, own.at_upper.astype(int), own._kept),
    ]
    for start in starts:
        solution = lp.solve(angpuang, start=start)
        assert solution.start == "shape"
        _assert_same_solution(solution, cold)
    assert len(own._kept) == 1
    # Lists are read as the arrays they hold. Each list-valued start carries
    # the kept tableau of a solve of its own, so each one takes it over.
    warm = lp.solve(angpuang, start=own)
    assert (warm.start, warm.iterations) == (lp.WARM, 0)
    for listed in ("columns", "at_upper"):
        basis = lp.solve(angpuang).basis
        columns, at_upper = basis.columns, basis.at_upper
        start = lp.Basis(columns.tolist() if listed == "columns" else columns,
                         at_upper.tolist() if listed == "at_upper" else at_upper,
                         basis._kept)
        solution = lp.solve(angpuang, start=start)
        assert solution.start == lp.WARM
        _assert_same_solution(solution, warm)


@pytest.mark.parametrize("check", ["dual", "primal", "status"])
def test_warm_result_that_fails_a_check_is_resolved_cold(monkeypatch, check):
    # The first call of the patched function is the warm solve's; it fails the
    # dual certificate, the primal check, or ends in a status other than optimal.
    problem, _ = build_proposed(BUILTINS["angpuang"]())
    cold = lp.solve(problem)
    calls = []

    def fail_first(original, failed):
        def wrapper(*args):
            calls.append(args)
            return failed if len(calls) == 1 else original(*args)
        return wrapper

    if check == "dual":
        monkeypatch.setattr(lp, "_dual_residuals",
                            fail_first(lp._dual_residuals, (1.0, 0.0)))
    elif check == "primal":
        monkeypatch.setattr(lp, "constraint_violation",
                            fail_first(lp.constraint_violation, 1.0))
    else:
        # The warm phase 1 stops without an optimum.
        monkeypatch.setattr(lp, "_run_simplex", fail_first(
            lp._run_simplex, (lp.ITERATION_LIMIT, 0, None)))
    solution = lp.solve(problem, start=cold.basis)
    assert solution.start == "check"
    _assert_same_solution(solution, cold)


def test_iteration_limit_is_distinguishable():
    p = lp.LpProblem()
    x = p.add_variable("x", 0.0, 5.0)
    y = p.add_variable("y", 0.0, 5.0)
    p.set_objective_coefficient(x, 1.0)
    p.set_objective_coefficient(y, 1.0)
    p.add_constraint([(x, 1.0), (y, 1.0)], lp.LESS_EQUAL, 3.0)
    forced = lp.solve(p, max_iterations=0)
    assert forced.status == lp.ITERATION_LIMIT
    assert lp.solve(p).status == lp.OPTIMAL


_LAYOUT_MPS = """NAME          layout
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  C000001
 E  C000002
 G  C000003
COLUMNS
    X000001   C000001   3.0
    X000001   C000002   -1.0
    X000001   C000002   0.5
    X000002   OBJ       2.5
    X000002   C000001   1.0
    X000002   C000003   2.0
    X000003   OBJ       0.0
RHS
    RHS       C000001   6.0
    RHS       C000003   -1.5
BOUNDS
 UP BND       X000001   4.0
 LO BND       X000002   -1.0
ENDATA
"""

_BOUND_KINDS_MPS = """NAME          edge
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  C000001
 G  C000002
COLUMNS
    X000001   OBJ       1.0
    X000001   C000001   1.0
    X000001   C000002   -1.0
    X000002   OBJ       0.0
    X000003   C000001   1.0
    X000004   C000002   1.0
    X000004   C000002   2.0
RHS
    RHS       C000001   1.0
    RHS       C000002   0.5
BOUNDS
 FR BND       X000001
 FX BND       X000002   2.5
 MI BND       X000003
 UP BND       X000003   3.0
 LO BND       X000004   1.5
 UP BND       X000004   3.0
ENDATA
"""


def test_to_mps_layout():
    # Per column: objective entry first, then constraint entries in constraint
    # order (a repeated index stays repeated); an untouched column gets OBJ 0.0
    # and a zero RHS is left out.
    p = lp.LpProblem("layout")
    for name, lower, upper in [("a", 0.0, 4.0), ("b", -1.0, math.inf),
                               ("c", 0.0, math.inf)]:
        p.add_variable(name, lower, upper)
    p.set_objective_coefficient(1, 2.5)
    p.add_constraint([(1, 1.0), (0, 3.0)], lp.LESS_EQUAL, 6.0)
    p.add_constraint([(0, -1.0), (0, 0.5)], lp.EQUAL, 0.0)
    p.add_constraint([(1, 2.0)], lp.GREATER_EQUAL, -1.5)
    assert lp.to_mps(p) == _LAYOUT_MPS
    # Each bound kind: free, fixed, upper-only and boxed columns.
    p = lp.LpProblem("edge")
    for name, lower, upper in [("free", -math.inf, math.inf),
                               ("fixed", 2.5, 2.5),
                               ("upper_only", -math.inf, 3.0),
                               ("boxed", 1.5, 3.0)]:
        p.add_variable(name, lower, upper)
    p.set_objective_coefficient(0, 1.0)
    p.add_constraint([(0, 1.0), (2, 1.0)], lp.LESS_EQUAL, 1.0)
    p.add_constraint([(3, 1.0), (0, -1.0), (3, 2.0)], lp.GREATER_EQUAL, 0.5)
    assert lp.to_mps(p) == _BOUND_KINDS_MPS
