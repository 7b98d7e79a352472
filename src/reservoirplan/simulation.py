"""Seeded Monte Carlo evaluation of a plan against sampled inflow sequences.

Replications are scored against the plan's declared targets: release profit is
earned on the target release, transfer cost on the planned transfers, and a
shortfall risk is charged whenever the realizable release falls below target.
The plan is static, so release profit and transfer cost are constants of the
plan, computed once; only the risk varies from replication to replication.
Each (seed, replication, reservoir, period) draw comes from its own
counter-based stream: the SplitMix64 chain seed -> rep -> reservoir -> period,
each prefix hashed once per batch. The draw is the chain's top 53 bits, and
its support index is the number of integer CDF thresholds it reaches, so the
inversion is exact in integers. A point mass needs no draw and hashes nothing.

In literal mode the realizable release at period t absorbs exactly the period
t-1 inflow deviation, so the risk charged at (n, t) is a function of the one
draw at (n, t-1). `run_monte_carlo` builds one risk table per (reservoir,
period) once per run, holding that risk for each support point, and a
replication's risk is the sum of the tables at its sampled support indices.
Each table is split once per run into runs of bit-equal consecutive entries,
and a draw is counted only against the thresholds where a run starts: that
count is its run, whose value is bitwise the entry. A table of a single run
is a constant and, like a point mass, needs no draw. The same tables give
the exact mean and standard deviation (`exact_moments`), because the draws
are independent. Physical mode floors releases and spills volumes, which
couples the periods, so it keeps the recursion: it samples inflows, realizes
and scores each block. `realize` and `score` run that recursion for one
replication and are the reference for both modes.

Replications are processed in blocks of `_BLOCK_REPS` so the working set stays
cache-sized. A physical-mode block's arrays are laid out (T, N, R), periods by
reservoirs by replications, so each (period, reservoir) slice is one
contiguous run of replications. Every per-replication quantity is elementwise
in the replication, so results are bitwise identical whatever the block size,
order or batching.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .model import Plan, Scenario

_MIX_1 = np.uint64(0x9E3779B97F4A7C15)
_MIX_2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_3 = np.uint64(0x94D049BB133111EB)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)

# Replications sampled and scored together by run_monte_carlo.
_BLOCK_REPS = 8192

# Per reservoir, per period: (support values, CDF thresholds).
_InverseCdfTables = list[list[tuple[np.ndarray, np.ndarray]]]


def _splitmix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; input/output uint64 arrays."""
    z = (z + _MIX_1)
    z = (z ^ (z >> _SHIFT_30)) * _MIX_2
    z = (z ^ (z >> _SHIFT_27)) * _MIX_3
    return z ^ (z >> _SHIFT_31)


def _cdf_thresholds(probabilities: np.ndarray) -> np.ndarray:
    """Integer thresholds ceil(cdf[j] * 2**53) of all but the last CDF entry.

    Scaling by a power of two is exact, so cdf[j] <= m * 2**-53 holds exactly
    when the j-th threshold is <= m. The last entry is left out: taken as 1,
    it is never reached by a 53-bit m, and leaving it out keeps a CDF that
    rounds below 1 from falling off its support. A point mass has no
    thresholds.
    """
    cdf = np.cumsum(probabilities)
    return np.ceil(cdf[:-1] * 2.0 ** 53).astype(np.uint64)


def _count_reached(thresholds: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Number of thresholds each 53-bit draw in `m` reaches: its support index.

    The count is held in the narrowest unsigned type that holds
    `thresholds.size`, so it cannot wrap.
    """
    picks = np.zeros(m.shape, dtype=np.min_scalar_type(thresholds.size))
    for threshold in thresholds:
        picks += m >= threshold
    return picks


def _inverse_cdf_tables(scenario: Scenario) -> _InverseCdfTables:
    """Per reservoir, per period: the inflow support values and CDF thresholds."""
    tables = []
    for n in scenario.ids():
        row = []
        for t in scenario.periods():
            dist = scenario.inflow[(n, t)]
            row.append((dist.values(), _cdf_thresholds(dist.probabilities())))
        tables.append(row)
    return tables


def _sample_indices(thresholds: list[list[np.ndarray]], seed: int,
                    reps: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """Support indices for the given uint64 replication ids.

    Returns (n, t, picks) for each zero-based (reservoir, period) that has
    thresholds, reservoirs outer and periods inner; `picks` holds one support
    index per replication. The draw m at (rep, n, t) is the top 53 bits of
    splitmix(splitmix(splitmix(splitmix(seed) ^ rep) ^ n) ^ t) with one-based
    n and t, and its index is the number of the (n, t) thresholds m reaches.
    A (reservoir, period) without thresholds hashes nothing, and a
    reservoir's key is hashed only if one of its periods needs a draw; the
    streams are counter-based, so skipping a draw changes no other.
    """
    drawn = []
    with np.errstate(over="ignore"):
        seed_key = _splitmix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        rep_keys = _splitmix(seed_key ^ reps)
        for n, row in enumerate(thresholds, start=1):
            if not any(period.size for period in row):
                continue
            reservoir_keys = _splitmix(rep_keys ^ np.uint64(n))
            for t, period in enumerate(row, start=1):
                if period.size:
                    m = _splitmix(reservoir_keys ^ np.uint64(t)) >> _SHIFT_11
                    drawn.append((n - 1, t - 1, _count_reached(period, m)))
    return drawn


def _sample_batch(tables: _InverseCdfTables, seed: int,
                  reps: np.ndarray) -> np.ndarray:
    """Inflows for the given uint64 replication ids: (T, N, len(reps)).

    The inflow is the support value at the index `_sample_indices` draws; a
    point mass is its support value.
    """
    out = np.empty((len(tables[0]), len(tables), reps.size))
    for n, row in enumerate(tables):
        for t, (values, period) in enumerate(row):
            if not period.size:
                out[t, n] = values[0]
    thresholds = [[period for _, period in row] for row in tables]
    for n, t, picks in _sample_indices(thresholds, seed, reps):
        out[t, n] = tables[n][t][0].take(picks)
    return out


def sample_inflows(scenario: Scenario, seed: int, rep: int) -> np.ndarray:
    """One sampled inflow matrix (T, N); inverse-CDF per discrete support.

    The draw at (rep, n, t) is a pure function of (seed, rep, n, t).
    """
    return _sample_batch(_inverse_cdf_tables(scenario), seed,
                         np.array([rep], dtype=np.uint64))[..., 0]


@dataclasses.dataclass
class RealizedTrajectory:
    """Ex-post quantities under one sampled inflow sequence.

    volumes has T+1 rows; row 0 is the scenario's initial volumes.
    """

    inflows: np.ndarray    # (T, N) sampled
    releases: np.ndarray   # (T, N) realizable releases (may be negative)
    volumes: np.ndarray    # (T+1, N) actual volumes


def _planned_starts_and_net_links(plan: Plan, scenario: Scenario
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """The planned volume at the start of each period, the initial volumes
    first, and the net transfer into each reservoir (in - out); both (T, N)."""
    v0 = scenario.initial_volumes()
    planned_prev = np.concatenate([v0[None, :], plan.volumes[:-1]], axis=0)
    net_links = plan.transfers.sum(axis=1) - plan.transfers.sum(axis=2)
    return planned_prev, net_links


def _absorbed_volume(previous, target, inflow, net_link):
    """Literal-mode volume at the end of a period: the realizable release
    absorbs the start volume's deviation exactly, so the period starts from
    the planned volume `previous` and releases the `target`."""
    return previous - target + inflow + net_link


def _realize_batch(plan: Plan, inflows: np.ndarray, scenario: Scenario
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized recursion over a batch of inflows (T, N, R) in the
    scenario's mode; returns the releases (T, N, R) and volumes (T+1, N, R).
    A literal-mode volume is `_absorbed_volume`, the float operations of
    `_risk_tables`, so the two agree bitwise."""
    t_count, n_count, r_count = inflows.shape
    planned_prev, net_links = _planned_starts_and_net_links(plan, scenario)
    max_volumes = scenario.max_volumes()[:, None]

    releases = np.empty((t_count, n_count, r_count))
    volumes = np.empty((t_count + 1, n_count, r_count))
    volumes[0] = planned_prev[0][:, None]

    for t in range(t_count):
        # The volume deviation is applied as one term so a zero deviation
        # leaves the target release bitwise unchanged.
        g = plan.releases[t][:, None] + (volumes[t] - planned_prev[t][:, None])
        if scenario.physical_sim:
            g = np.maximum(g, 0.0)
            v = np.minimum(volumes[t] - g + inflows[t] + net_links[t][:, None],
                           max_volumes)
        else:
            v = _absorbed_volume(planned_prev[t][:, None],
                                 plan.releases[t][:, None], inflows[t],
                                 net_links[t][:, None])
        releases[t] = g
        volumes[t + 1] = v
    return releases, volumes


def realize(plan: Plan, inflows: np.ndarray,
            scenario: Scenario) -> RealizedTrajectory:
    """Apply the realizable-release recursion literally: the realizable release
    absorbs the previous period's volume deviation and may go negative under
    extreme deficits. A scenario with `physical_sim` floors releases at zero
    and spills above capacity instead."""
    plan.check_dimensions(scenario)
    inflows = np.asarray(inflows, dtype=float)
    releases, volumes = _realize_batch(plan, inflows[..., None], scenario)
    return RealizedTrajectory(inflows=inflows, releases=releases[..., 0],
                              volumes=volumes[..., 0])


@dataclasses.dataclass(frozen=True)
class ProfitBreakdown:
    release_profit: float
    transfer_cost: float
    risk_cost: float

    @property
    def total(self) -> float:
        return self.release_profit - self.transfer_cost - self.risk_cost


def _plan_release_profit(plan: Plan, scenario: Scenario) -> float:
    total = 0.0
    for n in scenario.ids():
        for t in scenario.periods():
            total += scenario.release_profit[(n, t)].evaluate(
                plan.releases[t - 1, n - 1])
    return total


def _plan_transfer_cost(plan: Plan, scenario: Scenario) -> float:
    total = 0.0
    for link in scenario.links:
        for t in scenario.periods():
            total += scenario.transfer_cost[(link.source, link.target, t)].evaluate(
                plan.transfers[t - 1, link.source - 1, link.target - 1])
    return total


def _risk_batch(plan: Plan, realized_releases: np.ndarray,
                scenario: Scenario) -> np.ndarray:
    """Risk cost per replication of realized releases (T, N, R); deficit is
    target minus realizable release."""
    total = np.zeros(realized_releases.shape[-1])
    for n in scenario.ids():
        for t in scenario.periods():
            deficit = plan.releases[t - 1, n - 1] - realized_releases[t - 1, n - 1]
            total += scenario.shortfall_risk[(n, t)].evaluate(deficit)
    return total


def score(plan: Plan, trajectory: RealizedTrajectory,
          scenario: Scenario) -> ProfitBreakdown:
    """Profit breakdown of one replication. Release profit is earned on the
    declared target (the risk payment tops consumers up to the plan)."""
    risk = _risk_batch(plan, trajectory.releases[..., None], scenario)[0]
    return ProfitBreakdown(
        release_profit=_plan_release_profit(plan, scenario),
        transfer_cost=_plan_transfer_cost(plan, scenario),
        risk_cost=float(risk),
    )


# Per reservoir, per period t: (risk charged at t, probabilities), one entry
# per support point of the period t-1 inflow and a single entry at t = 1.
_RiskTables = list[list[tuple[np.ndarray, np.ndarray]]]


def _risk_tables(plan: Plan, scenario: Scenario) -> _RiskTables:
    """The literal-mode risk charged at each (reservoir, period), per support
    point of the previous period's inflow.

    In literal mode the realizable release at t absorbs exactly the period
    t-1 inflow deviation, so the risk charged at t is a function of that one
    draw: risk[n, t](c[n, t-1] - inflow[n, t-1]) with c a constant of the
    plan, and risk[n, 1](0) at t = 1. Each entry is computed by the float
    operations of the literal recursion in `_realize_batch`, the volume by
    the same `_absorbed_volume`, so the two agree bitwise.
    """
    planned_prev, net_links = _planned_starts_and_net_links(plan, scenario)
    tables = []
    for n in scenario.ids():
        i = n - 1
        row = []
        for t in range(scenario.horizon):
            if t == 0:
                volume, probabilities = planned_prev[0, i:i + 1], np.ones(1)
            else:
                inflow = scenario.inflow[(n, t)]
                volume = _absorbed_volume(planned_prev[t - 1, i],
                                          plan.releases[t - 1, i],
                                          inflow.values(), net_links[t - 1, i])
                probabilities = inflow.probabilities()
            realized = plan.releases[t, i] + (volume - planned_prev[t, i])
            deficit = plan.releases[t, i] - realized
            risk = scenario.shortfall_risk[(n, t + 1)].evaluate(deficit)
            row.append((risk, probabilities))
        tables.append(row)
    return tables


def _risk_runs(charged: np.ndarray, probabilities: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """A risk table's runs of bit-equal consecutive entries: each run's value,
    and the CDF threshold at which each run after the first starts.

    The thresholds are non-decreasing, so the number of these boundary
    thresholds a draw reaches is the run of its support index, and the run's
    value is bitwise the entry. Entries are compared by bit pattern, so -0.0
    and 0.0 stay apart. A table with a single run has no thresholds.
    """
    # Tables are a few entries long and most hold one, so the runs are found
    # in Python, and a single run skips the CDF.
    bits = charged.view(np.uint64).tolist()
    starts = [j for j in range(1, len(bits)) if bits[j] != bits[j - 1]]
    if not starts:
        return charged[:1], np.empty(0, dtype=np.uint64)
    return (charged[[0] + starts],
            _cdf_thresholds(probabilities)[[j - 1 for j in starts]])


def _gathered_risk(tables: _RiskTables, seed: int, reps: int) -> np.ndarray:
    """Literal-mode risk cost of replications 0..reps-1 by table gathers.

    Each table is split once per run into runs of bit-equal entries
    (`_risk_runs`), and a draw is counted against the run boundaries only.
    Only the inflows that a table with several runs reads are drawn: never
    the last period's, never a point mass and never a table whose entries
    are all equal, which is a constant like a single-entry table. Each
    replication's terms are summed from +0.0 in the order of `_risk_batch`
    (reservoirs outer, periods inner), a constant is added as a scalar, and
    a constant ±0.0 is skipped: a sum that starts at +0.0 never becomes
    -0.0, so adding ±0.0 leaves it unchanged. The sum is thus bitwise that
    of the recursion's risks whenever the tables are.
    """
    runs = [[_risk_runs(charged, probabilities)
             for charged, probabilities in row] for row in tables]
    thresholds = [[boundaries for _, boundaries in row[1:]]
                  + [np.empty(0, dtype=np.uint64)] for row in runs]
    terms = [((n, t), values) for n, row in enumerate(runs)
             for t, (values, _) in enumerate(row)
             if values.size > 1 or values[0]]
    risk = np.empty(reps)
    for start in range(0, reps, _BLOCK_REPS):
        rep_ids = np.arange(start, min(start + _BLOCK_REPS, reps),
                            dtype=np.uint64)
        picks = {(n, t + 1): drawn for n, t, drawn
                 in _sample_indices(thresholds, seed, rep_ids)}
        block = np.zeros(rep_ids.size)
        for key, values in terms:
            drawn = picks.get(key)
            block += values[0] if drawn is None else values.take(drawn)
        risk[start:start + rep_ids.size] = block
    return risk


@dataclasses.dataclass(frozen=True)
class ExactMoments:
    """Exact mean and standard deviation of one literal-mode replication."""

    mean_total: float
    std_total: float
    mean_risk: float
    std_risk: float


def _exact_moments(tables: _RiskTables, release_profit: float,
                   transfer_cost: float) -> ExactMoments:
    """Moments of the sum of independent table draws: the means add, and so
    do the variances. Each table is shifted by its first entry, so a constant
    table adds that entry to the mean and exactly zero to the variance."""
    mean_risk = variance = 0.0
    for row in tables:
        for risk, probabilities in row:
            shifted = risk - risk[0]
            mean = float(probabilities @ shifted)
            mean_risk += float(risk[0]) + mean
            variance += float(probabilities @ (shifted - mean) ** 2)
    std = float(np.sqrt(variance))
    return ExactMoments(mean_total=release_profit - transfer_cost - mean_risk,
                        std_total=std, mean_risk=mean_risk, std_risk=std)


def exact_moments(plan: Plan, scenario: Scenario) -> ExactMoments:
    """Exact mean and std of a replication's total profit and risk cost.

    Literal mode only: physical mode floors releases and spills volumes, so
    its risk has no closed form, and a physical scenario raises ValueError.
    """
    plan.check_dimensions(scenario)
    if scenario.physical_sim:
        raise ValueError("physical mode has no closed form")
    return _exact_moments(_risk_tables(plan, scenario),
                          _plan_release_profit(plan, scenario),
                          _plan_transfer_cost(plan, scenario))


@dataclasses.dataclass
class SimulationReport:
    """A plan's profit breakdown over replications, and its aggregates.

    Release profit and transfer cost are the plan's constants; the risk cost
    is the only per-replication array, and the total is derived from the
    three. The aggregates are computed from `risk_cost` and `total_profit` at
    construction. `exact` holds the exact moments in literal mode and is
    None in physical mode.
    """

    seed: int
    release_profit: float
    transfer_cost: float
    risk_cost: np.ndarray        # (reps,)
    exact: ExactMoments | None = None
    mean_total: float = dataclasses.field(init=False)
    std_total: float = dataclasses.field(init=False)
    mean_risk: float = dataclasses.field(init=False)
    std_risk: float = dataclasses.field(init=False)

    def __post_init__(self):
        # The risk's moments come first, so the fresh total, which is then
        # shifted in place, is never alive next to a shifted copy of the risk.
        self.mean_risk = float(self.risk_cost.mean())
        self.std_risk = _sample_std(self.risk_cost)
        total = self.total_profit
        self.mean_total = float(total.mean())
        self.std_total = _sample_std(total, in_place=True)

    @property
    def total_profit(self) -> np.ndarray:
        """Total profit per replication, (reps,)."""
        return self.release_profit - self.transfer_cost - self.risk_cost

    @property
    def replications(self) -> int:
        return self.risk_cost.size


def _sample_std(values: np.ndarray, in_place: bool = False) -> float:
    """Sample standard deviation of `values`, shifted by the first value
    first; `in_place` shifts `values` itself instead of a copy, which saves
    one array where the caller no longer needs it."""
    if values.size < 2:
        return 0.0
    # Shifting by the first value keeps identical inputs at exactly zero.
    if in_place:
        values -= values[0]
    else:
        values = values - values[0]
    return float(np.std(values, ddof=1))


def _physical_risk(plan: Plan, scenario: Scenario, seed: int,
                   reps: int) -> np.ndarray:
    """Physical-mode risk cost of replications 0..reps-1: sample inflows,
    realize and score each block."""
    tables = _inverse_cdf_tables(scenario)
    risk = np.empty(reps)
    for start in range(0, reps, _BLOCK_REPS):
        rep_ids = np.arange(start, min(start + _BLOCK_REPS, reps),
                            dtype=np.uint64)
        inflows = _sample_batch(tables, seed, rep_ids)
        realized_releases, _ = _realize_batch(plan, inflows, scenario)
        risk[start:start + rep_ids.size] = _risk_batch(plan, realized_releases,
                                                       scenario)
    return risk


def run_monte_carlo(plan: Plan, scenario: Scenario, reps: int = 100,
                    seed: int = 0) -> SimulationReport:
    """Evaluate a plan over `reps` independently sampled inflow sequences.

    Bitwise deterministic in (plan, scenario, reps, seed): every draw comes
    from its own (seed, rep, n, t) stream, independent of execution order.
    The scenario's `physical_sim` picks the mode. Literal mode gathers from
    the risk tables and also reports their exact moments; physical mode runs
    the recursion.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    plan.check_dimensions(scenario)

    release_profit = _plan_release_profit(plan, scenario)
    transfer_cost = _plan_transfer_cost(plan, scenario)
    if scenario.physical_sim:
        risk = _physical_risk(plan, scenario, seed, reps)
        exact = None
    else:
        tables = _risk_tables(plan, scenario)
        risk = _gathered_risk(tables, seed, reps)
        exact = _exact_moments(tables, release_profit, transfer_cost)
    return SimulationReport(seed=seed, release_profit=release_profit,
                            transfer_cost=transfer_cost, risk_cost=risk,
                            exact=exact)
