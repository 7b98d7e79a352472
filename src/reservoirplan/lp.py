"""Bounded-variable linear programs: representation, embedded simplex, MPS I/O.

The solver is a two-phase primal simplex on the bounded-variable standard form
with a dense tableau. Inequalities get a slack variable; rows whose slack
cannot absorb the initial residual get a phase-1 artificial. Nonbasic
variables rest at a finite bound (free ones at zero) and may flip bounds
without a basis change. The tableau is stored dense, but the planning LPs are
only a few percent nonzero, so each iteration touches only nonzeros: the pivot
updates the rows where the entering column is nonzero and the columns where
the pivot row is nonzero, basic values use only the nonbasic columns away from
zero, and duals use only the basic rows with nonzero cost.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OPT_TOL = 1e-8
BLAND_TRIGGER = 1000


@dataclasses.dataclass(frozen=True)
class Constraint:
    coefficients: tuple[tuple[int, float], ...]
    relation: str
    rhs: float


class LpProblem:
    """Maximization problem over bounded variables with sparse linear constraints."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.variable_names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: dict[int, float] = {}
        self.constraints: list[Constraint] = []

    @property
    def num_variables(self) -> int:
        return len(self.variable_names)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def add_variable(self, name: str, lower: float = 0.0,
                     upper: float = math.inf) -> int:
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError(f"variable {name}: bounds must not be NaN")
        self.variable_names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.variable_names) - 1

    def set_objective_coefficient(self, index: int, coefficient: float) -> None:
        self._check_index(index)
        if not np.isfinite(coefficient):
            raise ValueError("objective coefficients must be finite")
        if coefficient == 0.0:
            self.objective.pop(index, None)
        else:
            self.objective[index] = float(coefficient)

    def add_objective_coefficient(self, index: int, coefficient: float) -> None:
        self.set_objective_coefficient(
            index, self.objective.get(index, 0.0) + coefficient)

    def add_constraint(self, coefficients, relation: str, rhs: float) -> int:
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
        if not np.isfinite(rhs):
            raise ValueError("constraint rhs must be finite")
        pairs = []
        for index, coef in coefficients:
            self._check_index(index)
            if not np.isfinite(coef):
                raise ValueError("constraint coefficients must be finite")
            if coef != 0.0:
                pairs.append((int(index), float(coef)))
        self.constraints.append(Constraint(tuple(pairs), relation, float(rhs)))
        return len(self.constraints) - 1

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.num_variables)
        for idx, coef in self.objective.items():
            c[idx] = coef
        return c

    def objective_value(self, x: np.ndarray) -> float:
        return float(np.dot(self.objective_vector(), x))

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.num_variables):
            raise IndexError(f"variable index {index} out of range")


@dataclasses.dataclass
class LpSolution:
    status: str
    values: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    ray: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def constraint_violation(problem: LpProblem, x: np.ndarray) -> float:
    """Largest bound or constraint violation of a point (0 means feasible)."""
    worst = 0.0
    for j in range(problem.num_variables):
        worst = max(worst, problem.lower[j] - x[j], x[j] - problem.upper[j])
    for con in problem.constraints:
        lhs = sum(coef * x[idx] for idx, coef in con.coefficients)
        if con.relation == LESS_EQUAL:
            worst = max(worst, lhs - con.rhs)
        elif con.relation == GREATER_EQUAL:
            worst = max(worst, con.rhs - lhs)
        else:
            worst = max(worst, abs(lhs - con.rhs))
    return float(worst)


# ---------------------------------------------------------------------------
# Two-phase bounded-variable simplex
# ---------------------------------------------------------------------------


class _Tableau:
    def __init__(self, problem: LpProblem):
        n = problem.num_variables
        m = problem.num_constraints
        self.n_structural = n
        self.m = m

        lower = np.array(problem.lower, dtype=float)
        upper = np.array(problem.upper, dtype=float)
        a = np.zeros((m, n + m))
        b = np.zeros(m)
        slack_lower = np.zeros(m)
        slack_upper = np.zeros(m)
        for i, con in enumerate(problem.constraints):
            for idx, coef in con.coefficients:
                a[i, idx] += coef
            a[i, n + i] = 1.0
            b[i] = con.rhs
            if con.relation == LESS_EQUAL:
                slack_lower[i], slack_upper[i] = 0.0, math.inf
            elif con.relation == GREATER_EQUAL:
                slack_lower[i], slack_upper[i] = -math.inf, 0.0
            else:
                slack_lower[i], slack_upper[i] = 0.0, 0.0

        self.lower = np.concatenate([lower, slack_lower])
        self.upper = np.concatenate([upper, slack_upper])

        # Nonbasic starting values: finite lower bound if any, else finite
        # upper bound, else 0 for free variables.
        start = np.where(np.isfinite(self.lower), self.lower,
                         np.where(np.isfinite(self.upper), self.upper, 0.0))
        residual = b - a @ start

        self.basis = np.empty(m, dtype=int)
        art_cols = []
        art_signs = []
        art_rows = []
        for i in range(m):
            slack = n + i
            if self.lower[slack] - FEAS_TOL <= residual[i] <= self.upper[slack] + FEAS_TOL:
                self.basis[i] = slack
            else:
                sign = 1.0 if residual[i] >= 0 else -1.0
                col = np.zeros(m)
                col[i] = sign
                art_cols.append(col)
                art_signs.append(sign)
                art_rows.append(i)
                self.basis[i] = n + m + len(art_cols) - 1

        self.n_artificial = len(art_cols)
        if art_cols:
            a = np.hstack([a, np.column_stack(art_cols)])
            self.lower = np.concatenate([self.lower, np.zeros(self.n_artificial)])
            self.upper = np.concatenate(
                [self.upper, np.full(self.n_artificial, math.inf)])
            start = np.concatenate([start, np.zeros(self.n_artificial)])

        self.total = a.shape[1]
        self.artificial_mask = np.zeros(self.total, dtype=bool)
        self.artificial_mask[n + m:] = True

        # Initial basis matrix is identity up to the +/-1 signs of artificial
        # columns, so B^-1 A is just a row rescale.
        self.tab = a
        self.tab_b = b.copy()
        for row, sign in zip(art_rows, art_signs):
            if sign < 0:
                self.tab[row] *= -1.0
                self.tab_b[row] *= -1.0

        self.x = start
        self.is_basic = np.zeros(self.total, dtype=bool)
        self.is_basic[self.basis] = True
        self.refresh_basic_values()

    def refresh_basic_values(self) -> None:
        active = np.flatnonzero(~self.is_basic & (self.x != 0.0))
        self.x[self.basis] = self.tab_b - self.tab[:, active] @ self.x[active]

    def pivot(self, row: int, col: int) -> None:
        pivot = self.tab[row, col]
        self.tab[row] /= pivot
        self.tab_b[row] /= pivot
        # Rank-1 update restricted to the nonzeros of the pivot column and
        # row; every skipped entry would subtract an exact zero.
        rows = np.flatnonzero(self.tab[:, col])
        rows = rows[rows != row]
        cols = np.flatnonzero(self.tab[row])
        factors = self.tab[rows, col]
        self.tab[np.ix_(rows, cols)] -= np.outer(factors, self.tab[row, cols])
        self.tab_b[rows] -= factors * self.tab_b[row]
        # Snap the entering column to a unit vector to avoid residue buildup.
        self.tab[:, col] = 0.0
        self.tab[row, col] = 1.0
        leaving = self.basis[row]
        self.is_basic[leaving] = False
        self.is_basic[col] = True
        self.basis[row] = col


def _run_simplex(state: _Tableau, c: np.ndarray, allow_enter: np.ndarray,
                 iterations_left: int) -> tuple[str, int, np.ndarray | None]:
    """Iterate to optimality of max c'x. Returns (status, iterations, ray)."""
    iterations = 0
    degenerate_streak = 0
    bland = False
    lower, upper = state.lower, state.upper

    while True:
        state.refresh_basic_values()
        costed = np.flatnonzero(c[state.basis])
        reduced = c - c[state.basis[costed]] @ state.tab[costed]

        x = state.x
        nonbasic = ~state.is_basic & allow_enter
        not_fixed = upper - lower > PIVOT_TOL
        at_lower = nonbasic & np.isfinite(lower) & (x <= lower + FEAS_TOL)
        at_upper = nonbasic & np.isfinite(upper) & (x >= upper - FEAS_TOL) & ~at_lower
        free = nonbasic & ~at_lower & ~at_upper

        score = np.full(state.total, -math.inf)
        up_ok = (at_lower | free) & not_fixed & (reduced > OPT_TOL)
        down_ok = (at_upper | free) & not_fixed & (reduced < -OPT_TOL)
        score[up_ok] = reduced[up_ok]
        score[down_ok] = np.maximum(score[down_ok], -reduced[down_ok])
        candidates = np.nonzero(score > 0)[0]
        if candidates.size == 0:
            return OPTIMAL, iterations, None
        if iterations >= iterations_left:
            return ITERATION_LIMIT, iterations, None

        if bland:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmax(score[candidates])])
        direction = 1.0 if up_ok[col] and (not down_ok[col] or reduced[col] > 0) \
            else -1.0

        iterations += 1

        if state.m:
            w = direction * state.tab[:, col]
            basic_lower = lower[state.basis]
            basic_upper = upper[state.basis]
            basic_x = x[state.basis]
            ratios = np.full(state.m, math.inf)
            pos = w > PIVOT_TOL
            neg = w < -PIVOT_TOL
            ratios[pos] = np.maximum(basic_x[pos] - basic_lower[pos], 0.0) / w[pos]
            ratios[neg] = np.maximum(basic_upper[neg] - basic_x[neg], 0.0) / (-w[neg])
            step_basic = float(ratios.min())
        else:
            ratios = np.empty(0)
            step_basic = math.inf

        span = upper[col] - lower[col]
        step_own = span if np.isfinite(span) else math.inf
        step = min(step_basic, step_own)

        if math.isinf(step):
            ray = np.zeros(state.total)
            ray[col] = direction
            if state.m:
                ray[state.basis] = -direction * state.tab[:, col]
            return UNBOUNDED, iterations, ray

        if step_own <= step_basic:
            # Bound flip: nonbasic variable moves to its opposite bound.
            state.x[col] = upper[col] if direction > 0 else lower[col]
            degenerate_streak = 0
            bland = False
            continue

        tied = np.nonzero(ratios <= step + 1e-9)[0]
        if bland:
            row = int(tied[np.argmin(state.basis[tied])])
        else:
            row = int(tied[np.argmax(np.abs(state.tab[tied, col]))])

        leaving = state.basis[row]
        leaving_to_upper = direction * state.tab[row, col] < 0
        state.x[col] = x[col] + direction * step
        state.x[leaving] = upper[leaving] if leaving_to_upper else lower[leaving]
        state.pivot(row, col)

        if step <= PIVOT_TOL:
            degenerate_streak += 1
            if degenerate_streak >= BLAND_TRIGGER:
                bland = True
        else:
            degenerate_streak = 0
            bland = False


def solve(problem: LpProblem, max_iterations: int | None = None) -> LpSolution:
    """Solve a bounded-variable LP; statuses: optimal / infeasible / unbounded /
    iteration_limit. An optimal point is checked to be feasible within FEAS_TOL
    (1e-7) per bound and constraint; if it is not, ArithmeticError is raised."""
    lower = np.array(problem.lower)
    upper = np.array(problem.upper)
    if np.any(lower > upper + FEAS_TOL):
        return LpSolution(status=INFEASIBLE)

    if max_iterations is None:
        max_iterations = 50 * (problem.num_variables + problem.num_constraints)

    state = _Tableau(problem)
    total_iterations = 0

    if state.n_artificial:
        c1 = np.zeros(state.total)
        c1[state.artificial_mask] = -1.0
        allow = np.ones(state.total, dtype=bool)
        status, used, _ = _run_simplex(state, c1, allow, max_iterations)
        total_iterations += used
        if status == ITERATION_LIMIT:
            return LpSolution(status=ITERATION_LIMIT, iterations=total_iterations)
        if status == UNBOUNDED:
            # The phase-1 objective is bounded above by zero; this can only be
            # numerical breakdown.
            raise ArithmeticError("phase-1 simplex reported unbounded")
        state.refresh_basic_values()
        infeasibility = float(np.sum(state.x[state.artificial_mask]))
        if infeasibility > FEAS_TOL:
            return LpSolution(status=INFEASIBLE, iterations=total_iterations)
        _drive_out_artificials(state)
        # Pin artificials at zero so phase 2 can never revive them.
        state.upper[state.artificial_mask] = 0.0
        state.lower[state.artificial_mask] = 0.0
        state.x[state.artificial_mask & ~state.is_basic] = 0.0

    c2 = np.zeros(state.total)
    c2[:state.n_structural] = problem.objective_vector()
    allow = ~state.artificial_mask
    status, used, ray = _run_simplex(
        state, c2, allow, max_iterations - total_iterations)
    total_iterations += used

    if status == ITERATION_LIMIT:
        return LpSolution(status=ITERATION_LIMIT, iterations=total_iterations)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, iterations=total_iterations,
                          ray=ray[:state.n_structural])

    state.refresh_basic_values()
    values = state.x[:state.n_structural].copy()
    violation = constraint_violation(problem, values)
    if violation > FEAS_TOL:
        raise ArithmeticError(
            f"simplex optimum violates a bound or constraint by {violation:.3g}")
    return LpSolution(status=OPTIMAL, values=values,
                      objective=problem.objective_value(values),
                      iterations=total_iterations)


def _drive_out_artificials(state: _Tableau) -> None:
    """Swap basic artificials (at value 0) for real columns; redundant rows keep
    their artificial pinned at zero."""
    for row in range(state.m):
        var = state.basis[row]
        if not state.artificial_mask[var]:
            continue
        row_coefs = np.abs(state.tab[row])
        row_coefs[state.artificial_mask] = 0.0
        row_coefs[state.is_basic] = 0.0
        col = int(np.argmax(row_coefs))
        if row_coefs[col] > PIVOT_TOL:
            entering_value = state.x[col]
            state.pivot(row, col)
            state.x[var] = 0.0
            state.x[col] = entering_value


# ---------------------------------------------------------------------------
# Fixed-column interchange text format (MPS subset)
# ---------------------------------------------------------------------------


def to_mps(problem: LpProblem) -> str:
    """Render as fixed-column MPS text (OBJSENSE MAX extension, free-format
    friendly). Layout is documented in the repository README."""
    lines = [f"NAME          {problem.name or 'LP'}", "OBJSENSE", "    MAX", "ROWS",
             " N  OBJ"]
    row_names = []
    for i, con in enumerate(problem.constraints):
        kind = {LESS_EQUAL: "L", EQUAL: "E", GREATER_EQUAL: "G"}[con.relation]
        row_name = f"C{i + 1:06d}"
        row_names.append(row_name)
        lines.append(f" {kind}  {row_name}")

    lines.append("COLUMNS")
    col_names = [f"X{j + 1:06d}" for j in range(problem.num_variables)]
    entries: dict[int, list[tuple[str, float]]] = {
        j: [] for j in range(problem.num_variables)}
    c = problem.objective_vector()
    for j in range(problem.num_variables):
        if c[j] != 0.0:
            entries[j].append(("OBJ", c[j]))
    for i, con in enumerate(problem.constraints):
        for idx, coef in con.coefficients:
            entries[idx].append((row_names[i], coef))
    for j in range(problem.num_variables):
        if not entries[j]:
            # Every column must be declared, even if it touches nothing.
            entries[j].append(("OBJ", 0.0))
        for row, coef in entries[j]:
            lines.append(f"    {col_names[j]:<10}{row:<10}{float(coef)!r}")

    lines.append("RHS")
    for i, con in enumerate(problem.constraints):
        if con.rhs != 0.0:
            lines.append(f"    RHS       {row_names[i]:<10}{float(con.rhs)!r}")

    lines.append("BOUNDS")
    for j in range(problem.num_variables):
        lo, up = problem.lower[j], problem.upper[j]
        name = col_names[j]
        if lo == up:
            lines.append(f" FX BND       {name:<10}{float(lo)!r}")
            continue
        if math.isinf(lo) and math.isinf(up):
            lines.append(f" FR BND       {name}")
            continue
        if math.isinf(lo):
            lines.append(f" MI BND       {name}")
        elif lo != 0.0:
            lines.append(f" LO BND       {name:<10}{float(lo)!r}")
        if not math.isinf(up):
            lines.append(f" UP BND       {name:<10}{float(up)!r}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def from_mps(text: str) -> LpProblem:
    """Parse the MPS subset emitted by `to_mps` (sections NAME, OBJSENSE, ROWS,
    COLUMNS, RHS, BOUNDS, ENDATA). RANGES is rejected, not ignored."""
    problem = LpProblem()
    section = None
    row_relation: dict[str, str] = {}
    objective_row = None
    columns: dict[str, int] = {}
    # Coefficients by row name, then by column index; the objective row too.
    row_coefs: dict[str, dict[int, float]] = {}
    rhs_values: dict[str, float] = {}
    bounds: dict[str, dict[str, float | None]] = {}
    maximize = False

    def fail(line_no: int, message: str) -> None:
        raise ValueError(f"MPS parse error at line {line_no}: {message}")

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        tokens = raw.split()
        if is_header:
            section = tokens[0].upper()
            if section == "NAME":
                problem.name = tokens[1] if len(tokens) > 1 else "LP"
            elif section == "ENDATA":
                break
            elif section == "RANGES":
                fail(line_no, "RANGES section is not supported")
            elif section not in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS"):
                fail(line_no, f"unknown section {section!r}")
            continue
        if section == "OBJSENSE":
            maximize = tokens[0].upper().startswith("MAX")
        elif section == "ROWS":
            kind, name = tokens[0].upper(), tokens[1]
            if kind == "N":
                objective_row = name
            elif kind in ("L", "G", "E"):
                row_relation[name] = {"L": LESS_EQUAL, "G": GREATER_EQUAL,
                                      "E": EQUAL}[kind]
            else:
                fail(line_no, f"unknown row kind {kind!r}")
            row_coefs[name] = {}
        elif section == "COLUMNS":
            col = tokens[0]
            if col not in columns:
                columns[col] = problem.add_variable(col, 0.0, math.inf)
            j = columns[col]
            pairs = tokens[1:]
            if len(pairs) % 2:
                fail(line_no, "COLUMNS entries must be row/value pairs")
            for row, value in zip(pairs[::2], pairs[1::2]):
                if row not in row_coefs:
                    fail(line_no, f"entry for unknown row {row!r}")
                row_coefs[row][j] = row_coefs[row].get(j, 0.0) + float(value)
        elif section == "RHS":
            pairs = tokens[1:]
            if len(pairs) % 2:
                fail(line_no, "RHS entries must be row/value pairs")
            for row, value in zip(pairs[::2], pairs[1::2]):
                rhs_values[row] = float(value)
        elif section == "BOUNDS":
            kind = tokens[0].upper()
            col = tokens[2]
            if col not in columns:
                fail(line_no, f"bound for unknown column {col!r}")
            record = bounds.setdefault(col, {"lower": 0.0, "upper": math.inf})
            if kind == "UP":
                record["upper"] = float(tokens[3])
            elif kind == "LO":
                record["lower"] = float(tokens[3])
            elif kind == "FX":
                record["lower"] = record["upper"] = float(tokens[3])
            elif kind == "FR":
                record["lower"], record["upper"] = -math.inf, math.inf
            elif kind == "MI":
                record["lower"] = -math.inf
            elif kind == "PL":
                record["upper"] = math.inf
            else:
                fail(line_no, f"unknown bound kind {kind!r}")
        elif section is None:
            fail(line_no, "data before any section header")

    for col, record in bounds.items():
        problem.lower[columns[col]] = record["lower"]
        problem.upper[columns[col]] = record["upper"]
    # The embedded representation always maximizes; flip a MIN objective.
    sign = 1.0 if maximize else -1.0
    for j, value in row_coefs.get(objective_row, {}).items():
        problem.add_objective_coefficient(j, sign * value)
    for row, relation in row_relation.items():
        problem.add_constraint(row_coefs[row].items(), relation,
                               rhs_values.get(row, 0.0))
    return problem
