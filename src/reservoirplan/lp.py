"""Bounded-variable linear programs: representation, embedded simplex, MPS output.

An `LpProblem` keeps its rows as flat column and value lists plus each row's entry
count, relation and rhs. The solver reads them through `matrix()`; `constraints` is a per-row view.

The solver is a two-phase primal simplex on the bounded-variable standard form
with a dense tableau [A | I]: every row gets a slack whose bounds carry the
relation. A cold solve starts from the all-slack basis. A warm one starts
from a given basis and takes over the final tableau B^-1 [A | I] that the
solve which ended there kept with it, if A is unchanged; any other start is
solved cold.
Phase 1 minimizes the total bound violation of the start basis (a basic
variable may start outside its bounds); phase 2 maximizes the objective
from the feasible basis it leaves.
Both phases run the same loop, with one ratio test, one leaving rule and one
`pivot`; there are no artificial variables. Nonbasic variables rest at a
finite bound (free ones at zero) and may flip bounds without a basis change.
Each column has a direction: +1 if it may only rise, -1 if it may only fall,
0 if it may do neither (or both: a free nonbasic column, scored by the
absolute value of its reduced cost). The entering column is then one argmax
of the reduced costs times the directions. The tableau is stored dense, but
the planning LPs are only a few percent nonzero, so each iteration touches
only nonzeros: the pivot updates the tableau over the rows where the
entering column is nonzero and the columns where the pivot row is nonzero,
and the reduced costs over the same columns; a move of the entering variable
updates the basic values over the nonzeros of its column, and the ratio test
reads only those rows. Phase 1's cost is kept per row of the basis (+1 below
the lower bound, -1 above the upper bound), so it follows the set of violated
rows and is repriced every iteration. A violated basic variable is bounded
only by the bound it violates: it lies in (-inf, lower] below its lower
bound and in [upper, inf) above its upper bound (the textbook bounded phase
1; Maros 2003, Computational Techniques of the Simplex Method). With those
bounds, phase 1 uses the ratio test and leaving rule of phase 2 as they are.
Reduced costs and basic values are recomputed from scratch at the start of
each phase, every REFRESH_EVERY iterations and before optimality is
declared. The tableau holds B^-1 only in its slack block: each recompute
forms the basic values x_B = B^-1 b - B^-1 N x_N from it, for cold and warm
starts alike, and both phases price through one routine, c - c_B tab. An
optimal point must pass a primal check and a dual certificate taken from the
original rows, or ArithmeticError is raised.
"""
from __future__ import annotations

import dataclasses
import itertools
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
# Iterations between from-scratch recomputes of the reduced costs and basic
# values; see CHANGES.md for how it was measured.
REFRESH_EVERY = 50


@dataclasses.dataclass(frozen=True)
class Constraint:
    coefficients: tuple[tuple[int, float], ...]
    relation: str
    rhs: float


class LpProblem:
    """Maximization problem over bounded variables; rows stored as the module docstring says."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.variable_names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: dict[int, float] = {}
        self._cols: list[int] = []
        self._values: list[float] = []
        self._sizes: list[int] = []
        self._relations: list[str] = []
        self._rhs: list[float] = []

    @property
    def num_variables(self) -> int:
        return len(self.variable_names)

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """Each row, its relation as given; built on every read."""
        entries = zip(self._cols, self._values)
        return tuple(Constraint(tuple(itertools.islice(entries, size)), relation, rhs)
                     for size, relation, rhs in zip(self._sizes, self._relations, self._rhs))

    def add_variable(self, name: str, lower: float = 0.0,
                     upper: float = math.inf) -> int:
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError(f"variable {name}: bounds must not be NaN")
        if lower == math.inf or upper == -math.inf:
            raise ValueError(f"variable {name}: bounds [{lower}, {upper}] "
                             "admit no finite value")
        self.variable_names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.variable_names) - 1

    def set_objective_coefficient(self, index: int, coefficient: float) -> None:
        if not 0 <= index < len(self.variable_names):
            raise IndexError(f"variable index {index} out of range")
        if not math.isfinite(coefficient):
            raise ValueError("objective coefficients must be finite")
        if coefficient == 0.0:
            self.objective.pop(index, None)
        else:
            self.objective[index] = float(coefficient)

    def add_constraint(self, coefficients, relation: str, rhs: float) -> int:
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
        if not math.isfinite(rhs):
            raise ValueError("constraint rhs must be finite")
        n, cols, values = len(self.variable_names), [], []
        for index, coef in coefficients:
            if not 0 <= index < n:
                raise IndexError(f"variable index {index} out of range")
            if not math.isfinite(coef):
                raise ValueError("constraint coefficients must be finite")
            if coef != 0.0:
                cols.append(int(index))
                values.append(float(coef))
        self._cols += cols
        self._values += values
        self._sizes.append(len(cols))
        self._relations.append(relation)
        self._rhs.append(float(rhs))
        return len(self._rhs) - 1

    def matrix(self) -> tuple[np.ndarray, ...]:
        """(rows, cols, values, row_lower, row_upper): the constraints as
        row_lower <= A x <= row_upper, with A as COO triplets in constraint
        order whose repeated (row, col) pairs sum. Only an equality row has
        both bounds finite."""
        rhs = np.array(self._rhs, dtype=float)
        relation = np.array(self._relations, dtype=str)
        return (np.repeat(np.arange(rhs.size), self._sizes),
                np.array(self._cols, dtype=np.intp), np.array(self._values, dtype=float),
                np.where(relation == LESS_EQUAL, -math.inf, rhs),
                np.where(relation == GREATER_EQUAL, math.inf, rhs))

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.num_variables)
        c[list(self.objective)] = list(self.objective.values())
        return c


@dataclasses.dataclass(frozen=True)
class Basis:
    """A simplex basis in the column numbering of [A | I], where column n + i
    is the slack of row i: `columns[i]` is the basic column of row i, and
    `at_upper` marks the nonbasic columns that rest at their upper bound (the
    others rest at their lower bound, or at zero if free).

    The optimal basis `solve` returns also keeps the solve's final tableau
    B^-1 [A | I], for one warm start from it to take over (see `solve`).
    The tableau is no part of the basis's value: == and repr leave it out,
    and `Basis(columns, at_upper)` makes a bare basis, which starts cold."""

    columns: np.ndarray
    at_upper: np.ndarray
    # Empty, or one (tableau, the basis array it belongs to, the (rows, cols,
    # values) of the A it was built from); a start from the basis takes it
    # out (`_take_kept`).
    _kept: list = dataclasses.field(default_factory=list, compare=False,
                                    repr=False)


# LpSolution.start: no start basis was given, or the given one was used.
COLD = "cold"
WARM = "warm"


@dataclasses.dataclass
class LpSolution:
    status: str
    values: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    ray: np.ndarray | None = None
    # The optimal basis, for a later warm start; it keeps the final tableau.
    basis: Basis | None = None
    # COLD, WARM, or why the start basis was dropped for a cold solve:
    # "shape" (it carries no tableau of the problem) or "check" (the warm
    # solve gave no verified optimum).
    start: str = COLD

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def constraint_violation(problem: LpProblem, x: np.ndarray,
                         matrix: tuple[np.ndarray, ...] | None = None) -> float:
    """Largest bound or constraint violation of a point (0 means feasible);
    `matrix` is `problem.matrix()`, built here if not given."""
    x = np.asarray(x, dtype=float)
    rows, cols, values, row_lower, row_upper = matrix or problem.matrix()
    lhs = np.bincount(rows, values * x[cols], problem.num_constraints)
    gaps = (np.array(problem.lower) - x, x - np.array(problem.upper),
            row_lower - lhs, lhs - row_upper)
    return float(max(gap.max(initial=0.0) for gap in gaps))


def _rhs(row_lower: np.ndarray, row_upper: np.ndarray) -> np.ndarray:
    """Each row's finite bound: the rhs of its relation."""
    return np.where(np.isfinite(row_upper), row_upper, row_lower)


# ---------------------------------------------------------------------------
# Two-phase bounded-variable simplex
# ---------------------------------------------------------------------------


def _take_kept(start: Basis, matrix: tuple[np.ndarray, ...],
               shape: tuple[int, int]) -> np.ndarray | None:
    """Take the tableau kept with `start` out of it, and return it if it has
    `shape`, still belongs to `start.columns` and was built from the A of
    `matrix`, bit for bit; else None."""
    if not start._kept:
        return None
    tab, columns, triplets = start._kept.pop()
    if (tab.shape == shape and np.array_equal(columns, start.columns)
            and all(map(np.array_equal, triplets, matrix[:3]))):
        return tab
    return None


class _Tableau:
    def __init__(self, problem: LpProblem, matrix: tuple[np.ndarray, ...],
                 start: tuple[Basis, np.ndarray] | None = None):
        """The all-slack tableau [A | I] if `start` is None; else `start` is
        (basis, tab), a start basis and the tableau B^-1 [A | I] it kept,
        built from the A of `matrix`."""
        n, m = problem.num_variables, problem.num_constraints
        self.n_structural = n
        self.m = m
        self.total = n + m

        # Row i reads A_i x + s_i = b_i; the bounds of slack s_i carry the
        # relation.
        rows, cols, values, row_lower, row_upper = matrix
        self.b = b = _rhs(row_lower, row_upper)
        slack_lower = b - row_upper
        slack_upper = b - row_lower

        self.lower = np.concatenate([np.array(problem.lower, dtype=float), slack_lower])
        self.upper = np.concatenate([np.array(problem.upper, dtype=float), slack_upper])
        self.not_fixed = self.upper - self.lower > PIVOT_TOL

        # Nonbasic starting values: the upper bound if the start rests the
        # variable there and it is finite, else the finite lower bound if
        # any, else the finite upper bound, else 0 for free variables. A
        # basic variable may start outside its bounds; phase 1 repairs that.
        self.x = np.where(np.isfinite(self.lower), self.lower,
                          np.where(np.isfinite(self.upper), self.upper, 0.0))
        if start is None:
            # The all-slack basis is the identity, so tab = [A | I].
            self.tab = np.zeros((m, n + m))
            np.add.at(self.tab, (rows, cols), values)
            self.tab[np.arange(m), n + np.arange(m)] = 1.0
            self.basis = np.arange(n, n + m)
        else:
            # B^-1 [A | I] of the start basis, as the solve that ended there
            # left it.
            basis, self.tab = start
            self.basis = np.array(basis.columns, dtype=np.intp)
            at_upper = basis.at_upper & np.isfinite(self.upper)
            self.x[at_upper] = self.upper[at_upper]
        self.is_basic = np.zeros(n + m, dtype=bool)
        self.is_basic[self.basis] = True
        self.reduced = np.zeros(n + m)
        # +1 on a column that may only rise, -1 on one that may only fall, 0
        # on one that may do neither or both; `two_way` marks those that may
        # move both ways (free variables resting at zero), and `free` lists
        # them. Kept by `classify`.
        self.direction = np.zeros(n + m)
        self.two_way = np.zeros(n + m, dtype=bool)
        self.free = np.zeros(0, dtype=np.intp)
        self.classify(np.arange(n + m))
        self.refresh_basic_values()

    def refresh_basic_values(self) -> None:
        """x_B = B^-1 b - B^-1 N x_N, with B^-1 read from the slack block."""
        active = np.flatnonzero(~self.is_basic & (self.x != 0.0))
        self.x[self.basis] = (self.tab[:, self.n_structural:] @ self.b
                              - self.tab[:, active] @ self.x[active])

    def price(self, c: np.ndarray | float, basic_cost: np.ndarray) -> None:
        """Reduced costs c - c_B tab from scratch, where c_B = `basic_cost`
        is the cost of each row's basic variable, over the rows it costs."""
        costed = np.flatnonzero(basic_cost)
        self.reduced = c - basic_cost[costed] @ self.tab[costed]

    def resting(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the nonbasic variables at their lower bound and at their
        upper bound."""
        nonbasic = ~self.is_basic
        at_lower = nonbasic & (self.x <= self.lower + FEAS_TOL)
        at_upper = nonbasic & (self.x >= self.upper - FEAS_TOL) & ~at_lower
        return at_lower, at_upper

    def classify(self, cols: np.ndarray | int) -> None:
        """Update the `direction` and `two_way` of each of `cols` (an index
        array, or one index) from whether it may enter the basis moving up (a
        nonbasic, unfixed variable not at its upper bound) or moving down (one
        not at its lower bound). A free variable may do both. One index is
        classified with scalar comparisons, the same ones the array path
        makes."""
        if isinstance(cols, int):
            x = self.x.item(cols)
            at_lower = x <= self.lower.item(cols) + FEAS_TOL
            at_upper = not at_lower and x >= self.upper.item(cols) - FEAS_TOL
            movable = not self.is_basic.item(cols) and self.not_fixed.item(cols)
            rise, fall = movable and not at_upper, movable and not at_lower
            self.direction[cols] = rise - fall
            if self.two_way.item(cols) != (rise and fall):
                self.two_way[cols] = rise and fall
                self.free = np.flatnonzero(self.two_way)
            return
        x = self.x[cols]
        at_lower = x <= self.lower[cols] + FEAS_TOL
        at_upper = (x >= self.upper[cols] - FEAS_TOL) & ~at_lower
        movable = ~self.is_basic[cols] & self.not_fixed[cols]
        rise, fall = movable & ~at_upper, movable & ~at_lower
        self.two_way[cols] = rise & fall
        self.direction[cols] = rise.astype(float) - fall
        self.free = np.flatnonzero(self.two_way)

    def infeasibility_cost(self) -> np.ndarray:
        """Phase-1 cost of each row's basic variable: +1 if it is below its
        lower bound and -1 if above its upper bound (each by more than
        FEAS_TOL), else 0. Maximizing it reduces the total bound violation."""
        basic_x = self.x[self.basis]
        below = basic_x < self.lower[self.basis] - FEAS_TOL
        above = basic_x > self.upper[self.basis] + FEAS_TOL
        return below.astype(float) - above

    def pivot(self, row: int, col: int, rows: np.ndarray) -> None:
        """Make `col` basic in `row`, updating the tableau over the nonzeros
        of the entering column (`rows` lists them, `row` among them) and of
        the pivot row, and the reduced costs over the same columns. Dividing
        the pivot row keeps its entry nonzero."""
        tab, total = self.tab, self.total
        pivot = tab[row, col]
        pivot_row = tab[row]
        pivot_row /= pivot
        # Rank-1 update restricted to the nonzeros of the pivot column and
        # row; every skipped entry would subtract an exact zero. It goes
        # through flat indices into a view of the (C-ordered) tableau, taken
        # here: a view kept on the tableau would not follow a copy of it.
        rows = rows[rows != row]
        cols = pivot_row.nonzero()[0]
        values = pivot_row[cols]
        flat = tab.reshape(-1)
        starts = rows * total
        factors = flat[starts + col]
        flat[starts[:, None] + cols] -= factors[:, None] * values
        self.reduced[cols] -= self.reduced[col] * values
        self.reduced[col] = 0.0
        # Snap the entering column to a unit vector to avoid residue buildup;
        # it is zero outside `rows` already.
        flat[starts + col] = 0.0
        tab[row, col] = 1.0
        leaving = self.basis[row]
        self.is_basic[leaving] = False
        self.is_basic[col] = True
        self.basis[row] = col


def _run_simplex(state: _Tableau, objective: np.ndarray | None,
                 iterations_left: int) -> tuple[str, int, np.ndarray | None]:
    """Iterate to optimality of max c'x. Phase 1 passes objective=None: c is
    then the infeasibility cost of each row, repriced every iteration, and a
    violated basic variable is bounded only by the bound it violates. The
    phases differ in nothing else: in both, the pivots keep the reduced costs
    up to date and the basic values move along the entering column. Reduced
    costs and basic values are recomputed from scratch at the start, every
    REFRESH_EVERY iterations and before optimality is declared. Returns
    (status, iterations, ray)."""
    if state.total == 0:
        return OPTIMAL, 0, None
    iterations = 0
    degenerate_streak = 0
    bland = False
    lower, upper, x = state.lower, state.upper, state.x
    stale = REFRESH_EVERY

    while True:
        fresh = stale >= REFRESH_EVERY
        if fresh:
            state.refresh_basic_values()
            if objective is not None:
                state.price(objective, objective[state.basis])
            stale = 0
        if objective is None:
            # The phase-1 cost is zero off the basis, so c = 0 prices every
            # nonbasic column right; a basic one scores zero either way.
            cost = state.infeasibility_cost()
            state.price(0.0, cost)
        reduced = state.reduced

        # A candidate improves the objective by more than OPT_TOL per unit in
        # a direction its bounds allow; its score is that improvement. Any
        # other column scores a zero, which never exceeds OPT_TOL.
        score = reduced * state.direction
        if state.free.size:
            score[state.free] = np.abs(reduced[state.free])
        col = int((score > OPT_TOL).argmax() if bland else score.argmax())
        if not score[col] > OPT_TOL:
            if fresh:
                return OPTIMAL, iterations, None
            stale = REFRESH_EVERY   # confirm on recomputed values first
            continue
        if iterations >= iterations_left:
            return ITERATION_LIMIT, iterations, None
        direction = 1.0 if reduced[col] > 0 else -1.0

        iterations += 1
        stale += 1

        # Over the nonzeros of the entering column: basic values move by
        # -step * w as the entering variable moves by step, each within
        # [low, high]. In phase 1 a violated basic value is bounded only by
        # the bound it violates: (-inf, lower] below it, [upper, inf) above
        # it. A basic value blocks at the bound it moves towards, if |w|
        # exceeds PIVOT_TOL.
        column = state.tab[:, col]
        rows = column.nonzero()[0]
        w = direction * column[rows]
        size = np.abs(w)
        basic = state.basis[rows]
        basic_x = x[basic]
        low, high = lower[basic], upper[basic]
        if objective is None:
            sign = cost[rows]
            below, above = sign > 0, sign < 0
            low[above], high[below] = high[above], low[below]
            low[below], high[above] = -math.inf, math.inf
        gap = np.where(w > 0, basic_x - low, high - basic_x)
        np.maximum(gap, 0.0, out=gap)
        ratios = np.full(rows.size, math.inf)
        np.divide(gap, size, out=ratios, where=size > PIVOT_TOL)
        step_basic = float(ratios.min(initial=math.inf))

        span = upper[col] - lower[col]
        step_own = span if math.isfinite(span) else math.inf
        step = min(step_basic, step_own)

        if math.isinf(step):
            ray = np.zeros(state.total)
            ray[col] = direction
            ray[basic] = -w
            return UNBOUNDED, iterations, ray

        x[basic] -= step * w
        if step_own <= step_basic:
            # Bound flip: nonbasic variable moves to its opposite bound.
            x[col] = upper[col] if direction > 0 else lower[col]
            state.classify(col)
            degenerate_streak = 0
            bland = False
            continue

        tied = (ratios <= step + 1e-9).nonzero()[0]
        if bland:
            pick = int(tied[basic[tied].argmin()])
        else:
            pick = int(tied[size[tied].argmax()])

        leaving = int(basic[pick])
        x[col] += direction * step
        x[leaving] = high[pick] if w[pick] < 0 else low[pick]
        state.pivot(int(rows[pick]), col, rows)
        state.classify(leaving)
        state.classify(col)

        if step <= PIVOT_TOL:
            degenerate_streak += 1
            if degenerate_streak >= BLAND_TRIGGER:
                bland = True
        else:
            degenerate_streak = 0
            bland = False


def solve(problem: LpProblem, max_iterations: int | None = None,
          start: Basis | None = None) -> LpSolution:
    """Solve a bounded-variable LP; statuses: optimal / infeasible / unbounded /
    iteration_limit. An optimal point is checked to be feasible within FEAS_TOL
    (1e-7) per bound and constraint, and its basis to be dual feasible within
    OPT_TOL (1e-8) with a primal-dual gap within OPT_TOL relative to the
    objective; if either check fails, ArithmeticError is raised.

    `start` is a basis to start from, typically the `basis` of an optimal
    solution of an LP of the same shape and A. That basis keeps its solve's
    final tableau, and the start takes it over, without a copy, if the
    tableau has the problem's shape, the problem's A triplets equal those it
    was built from and the basis's `columns` are those it belongs to. Any
    other start carries no tableau of the problem and is solved cold from
    the all-slack basis, with `LpSolution.start` "shape": one whose
    `columns` are not integers or whose `at_upper` is not n + m bools, a
    bare `Basis(columns, at_upper)`, one from an LP with another A, one whose
    columns were changed in place, and one whose tableau an earlier start
    already took, so a basis serves one warm start. A warm solve that ends
    in anything but a verified optimum is solved cold too, with "check"."""
    if np.any(np.array(problem.lower) > np.array(problem.upper) + FEAS_TOL):
        return LpSolution(status=INFEASIBLE)

    m = problem.num_constraints
    total = problem.num_variables + m
    if max_iterations is None:
        max_iterations = 50 * total
    matrix = problem.matrix()
    if start is None:
        return _solve_from(problem, matrix, max_iterations, None)
    columns, at_upper = np.asarray(start.columns), np.asarray(start.at_upper)
    tab = None
    # _take_kept settles the columns' shape and range; float ones would pass it.
    if (columns.dtype.kind in "iu" and at_upper.shape == (total,)
            and at_upper.dtype == bool):
        tab = _take_kept(start, matrix, (m, total))
    if tab is None:
        reason = "shape"
    else:
        try:
            solution = _solve_from(problem, matrix, max_iterations,
                                   (Basis(columns, at_upper), tab))
        except ArithmeticError:
            reason = "check"
        else:
            if solution.is_optimal:
                solution.start = WARM
                return solution
            reason = "check"
    solution = _solve_from(problem, matrix, max_iterations, None)
    solution.start = reason
    return solution


def _solve_from(problem: LpProblem, matrix: tuple[np.ndarray, ...],
                max_iterations: int,
                start: tuple[Basis, np.ndarray] | None) -> LpSolution:
    """Both simplex phases from the tableau `_Tableau` builds of `start`, then
    the checks of an optimum."""
    state = _Tableau(problem, matrix, start)
    status, used, _ = _run_simplex(state, None, max_iterations)
    if status == ITERATION_LIMIT:
        return LpSolution(status=ITERATION_LIMIT, iterations=used)
    if status == UNBOUNDED:
        # The phase-1 objective is bounded above by zero; this can only be
        # numerical breakdown.
        raise ArithmeticError("phase-1 simplex reported unbounded")
    if np.any(state.infeasibility_cost()):
        return LpSolution(status=INFEASIBLE, iterations=used)

    c = np.concatenate([problem.objective_vector(), np.zeros(state.m)])
    status, more, ray = _run_simplex(state, c, max_iterations - used)
    used += more

    if status == ITERATION_LIMIT:
        return LpSolution(status=ITERATION_LIMIT, iterations=used)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, iterations=used,
                          ray=ray[:state.n_structural])

    values = state.x[:state.n_structural].copy()
    violation = constraint_violation(problem, values, matrix)
    if violation > FEAS_TOL:
        raise ArithmeticError(
            f"simplex optimum violates a bound or constraint by {violation:.3g}")
    objective = float(c[:state.n_structural] @ values)
    wrong_sign, gap = _dual_residuals(matrix, state, c)
    if wrong_sign > OPT_TOL:
        raise ArithmeticError(
            f"simplex optimum has a reduced cost of the wrong sign by "
            f"{wrong_sign:.3g}")
    if gap > OPT_TOL * max(1.0, abs(objective)):
        raise ArithmeticError(
            f"simplex optimum differs from its dual bound by {gap:.3g}")
    basis = Basis(state.basis.copy(), state.resting()[1],
                  [(state.tab, state.basis, matrix[:3])])
    return LpSolution(status=OPTIMAL, values=values, objective=objective,
                      iterations=used, basis=basis)


def _dual_residuals(matrix: tuple[np.ndarray, ...], state: _Tableau,
                    c: np.ndarray) -> tuple[float, float]:
    """Dual certificate of the final basis, independent of the reduced costs
    the simplex kept. The slack columns of the tableau hold B^-1, so the duals
    are y = c_B B^-1; the reduced costs d = c - y [A | I] are taken from the
    original rows of `matrix`. Returns the largest wrong-sign reduced cost
    (a basic one away from 0, a nonbasic one that would improve the objective
    by leaving its bound) and |c'x - (y'b + sum of d_j x_j over nonbasic j)|."""
    n = state.n_structural
    rows, cols, values, row_lower, row_upper = matrix
    y = c[state.basis] @ state.tab[:, n:]
    d = c.copy()
    d[n:] -= y
    d[:n] -= np.bincount(cols, weights=y[rows] * values, minlength=n)
    # Basic and free reduced costs must be 0; a fixed variable's may be any.
    at_lower, at_upper = state.resting()
    priced = np.where(state.not_fixed | state.is_basic, d, 0.0)
    wrong = np.abs(priced)
    wrong[at_lower] = np.maximum(priced[at_lower], 0.0)
    wrong[at_upper] = np.maximum(-priced[at_upper], 0.0)
    x, nonbasic = state.x, ~state.is_basic
    dual_objective = float(y @ _rhs(row_lower, row_upper) + d[nonbasic] @ x[nonbasic])
    gap = abs(float(c[:n] @ x[:n]) - dual_objective)
    return float(wrong.max(initial=0.0)), gap


# ---------------------------------------------------------------------------
# MPS output (a fixed-column subset)
# ---------------------------------------------------------------------------


def to_mps(problem: LpProblem) -> str:
    """Render as fixed-column MPS text (OBJSENSE MAX extension, free-format
    friendly). Layout is documented in the repository README."""
    rows, cols, values, row_lower, row_upper = problem.matrix()
    kinds = np.where(row_lower == row_upper, "E",
                     np.where(np.isinf(row_lower), "L", "G"))
    row_names = [f"C{i + 1:06d}" for i in range(len(kinds))] + ["OBJ"]
    lines = [f"NAME          {problem.name or 'LP'}", "OBJSENSE", "    MAX", "ROWS",
             " N  OBJ"]
    lines += [f" {kind}  {name}" for kind, name in zip(kinds, row_names)]

    lines.append("COLUMNS")
    col_names = [f"X{j + 1:06d}" for j in range(problem.num_variables)]
    c = problem.objective_vector()
    # Entries (column, row, value) by column: the objective entry (row -1, so
    # the last row name) first, then the constraint entries in constraint order.
    # Every column must be declared, so one that touches nothing gets a zero
    # objective entry.
    costed = np.flatnonzero((c != 0.0) | (np.bincount(cols, minlength=c.size) == 0))
    objective = np.column_stack([costed, np.full(costed.size, -1), c[costed]])
    entries = np.concatenate([objective, np.column_stack([cols, rows, values])])
    for j, i, value in entries[np.argsort(entries[:, 0], kind="stable")].tolist():
        lines.append(f"    {col_names[int(j)]:<10}{row_names[int(i)]:<10}{value!r}")

    lines.append("RHS")
    for name, rhs in zip(row_names, _rhs(row_lower, row_upper).tolist()):
        if rhs != 0.0:
            lines.append(f"    RHS       {name:<10}{rhs!r}")

    lines.append("BOUNDS")
    for name, lo, up in zip(col_names, problem.lower, problem.upper):
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

