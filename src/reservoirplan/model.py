"""Network, horizon, stochastic-inflow and scenario data model with validation.

Reservoirs are identified 1..N and periods run 1..T to match planner-facing
files and reports; in-memory arrays are 0-based. Scenario and Plan are treated
as immutable once validated and are safe for concurrent readers.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Mapping

import numpy as np

from .pwl import CONCAVE, CONVEX, NONDECREASING, PwlFunction

PROB_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class ReservoirSpec:
    id: int
    max_volume: float
    initial_volume: float
    final_min_volume: float
    provenance: str = "unspecified"


@dataclasses.dataclass(frozen=True)
class LinkSpec:
    """Directed transfer pipe; capacities of opposite directions are independent."""

    source: int
    target: int
    capacity: float
    provenance: str = "unspecified"


@dataclasses.dataclass(frozen=True)
class DiscreteDistribution:
    """Finite inflow distribution; support sorted ascending with positive mass.

    Immutable, so `violations` checks the support once, on first use."""

    support: tuple[tuple[float, float], ...]
    provenance: str = "unspecified"
    # What `violations` found, once it has looked.
    _problems: tuple[str, ...] | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple((float(v), float(p)) for v, p in self.support)
        if not pts:
            raise ValueError("distribution needs a nonempty support")
        object.__setattr__(self, "support", pts)

    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.support])

    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.support])

    def mean(self) -> float:
        return float(np.dot(self.values(), self.probabilities()))

    def bounds(self) -> tuple[float, float]:
        vals = [v for v, _ in self.support]
        return min(vals), max(vals)

    def violations(self) -> list[str]:
        if self._problems is None:
            object.__setattr__(self, "_problems", tuple(self._check()))
        return list(self._problems)

    def _check(self) -> list[str]:
        problems = []
        vals, probs = self.values(), self.probabilities()
        if not np.all(np.isfinite(vals)):
            problems.append("support values must be finite")
        if not np.all(np.isfinite(probs)):
            problems.append("probabilities must be finite")
        if np.any(vals < 0):
            problems.append("support values must be nonnegative")
        if np.any(np.diff(vals) <= 0):
            problems.append("support values must be distinct and sorted ascending")
        if np.any(probs <= 0):
            problems.append("probabilities must be positive")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            problems.append(f"distribution sums to {total:.10g}")
        return problems


@dataclasses.dataclass
class Scenario:
    """Complete planning problem: topology, horizon, functions, inflows, penalties.

    Function keys: release_profit and shortfall_risk by (reservoir, period),
    transfer_cost by (source, target, period), inflow by (reservoir, period),
    overflow_penalty by (reservoir, period). All indices 1-based.
    """

    name: str
    horizon: int
    reservoirs: tuple[ReservoirSpec, ...]
    links: tuple[LinkSpec, ...]
    release_profit: Mapping[tuple[int, int], PwlFunction]
    shortfall_risk: Mapping[tuple[int, int], PwlFunction]
    transfer_cost: Mapping[tuple[int, int, int], PwlFunction]
    inflow: Mapping[tuple[int, int], DiscreteDistribution]
    overflow_penalty: Mapping[tuple[int, int], float]
    physical_sim: bool = False
    # What `validate_scenario` found, once it has looked. A scenario is not
    # changed after it is made, and one made from it by dataclasses.replace
    # starts without a report, so it is validated afresh.
    _report: ValidationReport | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    @property
    def num_reservoirs(self) -> int:
        return len(self.reservoirs)

    def reservoir(self, n: int) -> ReservoirSpec:
        for spec in self.reservoirs:
            if spec.id == n:
                return spec
        raise KeyError(f"no reservoir with id {n}")

    def sorted_links(self) -> tuple[LinkSpec, ...]:
        return tuple(sorted(self.links, key=lambda l: (l.source, l.target)))

    def max_volumes(self) -> np.ndarray:
        return np.array([self.reservoir(n).max_volume for n in self.ids()])

    def initial_volumes(self) -> np.ndarray:
        return np.array([self.reservoir(n).initial_volume for n in self.ids()])

    def ids(self) -> range:
        return range(1, self.num_reservoirs + 1)

    def periods(self) -> range:
        return range(1, self.horizon + 1)


@dataclasses.dataclass(frozen=True)
class Violation:
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "scenario valid"
        return "\n".join(str(v) for v in self.violations)


class ScenarioValidationError(ValueError):
    """A scenario that fails validation; `source`, if given, names its file.
    The message is one line: the first violation and how many more there
    are; `report` keeps them all."""

    def __init__(self, report: ValidationReport, source: object = None):
        first, *rest = report.violations or (report.summary(),)
        summary = (f"{first} (and {len(rest)} more violations)" if rest
                   else str(first))
        super().__init__(summary if source is None else f"{source}: {summary}")
        self.report = report


def _risk_zero_on_nonpositive(f: PwlFunction) -> bool:
    """True iff every piece covering arguments < 0 is flat and f(0) == 0."""
    if abs(f.evaluate(0.0)) > 1e-9:
        return False
    slopes = f.slopes()
    xs = [p[0] for p in f.breakpoints]
    # Piece 0 covers (-inf, xs[0]]; interior piece i covers [xs[i-1], xs[i]].
    for i, slope in enumerate(slopes[:-1]):
        piece_start = -math.inf if i == 0 else xs[i - 1]
        if piece_start < 0 and abs(slope) > 1e-12:
            return False
    # Right extension covers [xs[-1], inf); only relevant if xs[-1] < 0.
    if xs[-1] < 0 and abs(f.right_slope) > 1e-12:
        return False
    return True


# The shape each role of a function requires; a violation names the role.
_ROLE_SHAPES = {"release profit": (CONCAVE, NONDECREASING),
                "shortfall risk": (CONVEX, NONDECREASING),
                "transfer cost": (CONVEX, NONDECREASING)}


def _shape_fault(role: str, f: PwlFunction) -> str:
    """Why `f` cannot serve as a `role` function, or "" if it can."""
    report = f.verify_shape(_ROLE_SHAPES[role])
    if not report.ok:
        return f"{role} {report.message()}"
    if role == "shortfall risk" and not _risk_zero_on_nonpositive(f):
        return "shortfall risk must be zero on nonpositive arguments"
    return ""


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Check every type invariant; collects all violations, never aborts
    mid-scan. The report is kept on the scenario, so each scenario is
    checked once however many callers ask."""
    if scenario._report is None:
        scenario._report = _check_scenario(scenario)
    return scenario._report


def _check_scenario(scenario: Scenario) -> ValidationReport:
    """Every violation of `scenario`, in scan order. A function's shape
    verdict is worked out once per distinct (role, function), compared by
    value, and reported at every key that holds that function."""
    out: list[Violation] = []
    verdicts: dict[tuple[str, PwlFunction], str] = {}

    def bad(location: str, message: str) -> None:
        out.append(Violation(location, message))

    def check_function(location: str, role: str, f: PwlFunction | None) -> None:
        if f is None:
            bad(location, f"missing {role} function")
            return
        key = (role, f)
        fault = verdicts.get(key)
        if fault is None:
            fault = verdicts[key] = _shape_fault(role, f)
        if fault:
            bad(location, fault)

    if scenario.horizon < 1:
        bad("scenario", f"horizon must be >= 1, got {scenario.horizon}")
    n_res = scenario.num_reservoirs
    if n_res < 1:
        bad("scenario", "at least one reservoir required")
    ids = [r.id for r in scenario.reservoirs]
    if sorted(ids) != list(range(1, n_res + 1)):
        bad("scenario", f"reservoir ids must be exactly 1..{n_res}, got {sorted(ids)}")

    for r in scenario.reservoirs:
        loc = f"reservoir {r.id}"
        volumes = (("maximum volume", r.max_volume),
                   ("initial volume", r.initial_volume),
                   ("final minimum volume", r.final_min_volume))
        non_finite = [(name, v) for name, v in volumes if not math.isfinite(v)]
        for name, volume in non_finite:
            bad(loc, f"{name} must be finite, got {volume:g}")
        if non_finite:
            continue
        if not (0 <= r.initial_volume <= r.max_volume):
            bad(loc, f"initial volume {r.initial_volume:g} exceeds capacity "
                     f"bounds [0, {r.max_volume:g}]")
        if not (0 <= r.final_min_volume <= r.max_volume):
            bad(loc, f"final minimum volume {r.final_min_volume:g} outside "
                     f"[0, {r.max_volume:g}]")

    seen_pairs = set()
    id_set = set(ids)
    for link in scenario.links:
        loc = f"link {link.source}->{link.target}"
        if link.source == link.target:
            bad(loc, "link endpoints must differ")
        if link.source not in id_set or link.target not in id_set:
            bad(loc, "link endpoint is not a reservoir id")
        if not (link.capacity > 0):
            bad(loc, f"capacity must be positive, got {link.capacity:g}")
        pair = (link.source, link.target)
        if pair in seen_pairs:
            bad(loc, "duplicate link for ordered pair")
        seen_pairs.add(pair)

    for n in scenario.ids():
        for t in scenario.periods():
            loc = f"reservoir {n}, period {t}"
            check_function(loc, "release profit",
                           scenario.release_profit.get((n, t)))
            check_function(loc, "shortfall risk",
                           scenario.shortfall_risk.get((n, t)))
            dist = scenario.inflow.get((n, t))
            if dist is None:
                bad(loc, "missing inflow distribution")
            else:
                for problem in dist.violations():
                    bad(loc, problem)
            penalty = scenario.overflow_penalty.get((n, t))
            if penalty is None:
                bad(loc, "missing overflow penalty")
            elif not (penalty > 0 and np.isfinite(penalty)):
                bad(loc, "overflow penalty must be positive and finite, got "
                    f"{penalty!r}")

    for link in scenario.links:
        for t in scenario.periods():
            loc = f"link {link.source}->{link.target}, period {t}"
            check_function(loc, "transfer cost", scenario.transfer_cost.get(
                (link.source, link.target, t)))

    return ValidationReport(tuple(out))


@dataclasses.dataclass
class Plan:
    """Optimized decision variables; arrays are 0-based over (period, reservoir).

    transfers[t, n, m] is the flow from reservoir n+1 to m+1 in period t+1 and
    is zero where no link exists; volumes[t] holds end-of-period planned volume.
    """

    transfers: np.ndarray      # (T, N, N)
    releases: np.ndarray       # (T, N)
    predicted_inflows: np.ndarray  # (T, N)
    volumes: np.ndarray        # (T, N)
    objective: float

    def check_dimensions(self, scenario: Scenario) -> None:
        t, n = scenario.horizon, scenario.num_reservoirs
        expected = {
            "transfers": (t, n, n),
            "releases": (t, n),
            "predicted_inflows": (t, n),
            "volumes": (t, n),
        }
        for field, shape in expected.items():
            actual = getattr(self, field).shape
            if actual != shape:
                raise ValueError(
                    f"plan.{field} has shape {actual}, scenario needs {shape}")
        for field in expected:
            if not np.all(np.isfinite(getattr(self, field))):
                raise ValueError(f"plan.{field} contains non-finite entries")
        if np.any(self.transfers < 0) or np.any(self.releases < 0):
            raise ValueError("plan transfers and releases must be nonnegative")
        # Water moved on a pair without a link would be simulated but never
        # costed.
        unlinked = np.ones((n, n), dtype=bool)
        for link in scenario.links:
            unlinked[link.source - 1, link.target - 1] = False
        stray = np.argwhere((self.transfers != 0) & unlinked)
        if stray.size:
            period, source, target = stray[0]
            amount = float(self.transfers[period, source, target])
            raise ValueError(
                f"plan.transfers moves {amount!r} "
                f"from {source + 1} to {target + 1} in period {period + 1}, "
                f"but {source + 1}->{target + 1} is not a scenario link")
