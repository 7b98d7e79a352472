"""Risk-aware long-term demand-supply planning for multi-connection reservoir
networks: piecewise-linear formulation compiler, embedded LP solver, and a
seeded Monte Carlo evaluation harness."""

from .formulation import (VariableMap, build_deterministic, build_proposed,
                          extract_plan, plan_violations)
from .lp import LpProblem, LpSolution, solve
from .model import (DiscreteDistribution, LinkSpec, Plan, ReservoirSpec,
                    Scenario, ValidationReport, validate_scenario)
from .pwl import PwlFunction, capped_linear, hinge, linear
from .scenarios import (SweepConfig, builtin_angpuang, builtin_simple,
                        expand_sweep, load_scenario, resolve_scenario,
                        save_scenario)
from .simulation import (RealizedTrajectory, SimulationReport, realize,
                         run_monte_carlo, sample_inflows, score)

__all__ = [
    "PwlFunction", "capped_linear", "hinge", "linear",
    "DiscreteDistribution", "LinkSpec", "Plan", "ReservoirSpec", "Scenario",
    "ValidationReport", "validate_scenario",
    "LpProblem", "LpSolution", "solve",
    "VariableMap", "build_deterministic", "build_proposed", "extract_plan",
    "plan_violations",
    "RealizedTrajectory", "SimulationReport", "realize", "run_monte_carlo",
    "sample_inflows", "score",
    "SweepConfig", "builtin_angpuang", "builtin_simple", "expand_sweep",
    "load_scenario", "resolve_scenario", "save_scenario",
]

__version__ = "0.1.0"
