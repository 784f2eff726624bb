"""Optimal lockdown planning on an SIR model, with the planner's
death valuation derived from explicit population-ethics criteria."""

__version__ = "0.1.0"

from .epidemic import (EpidemicState, IntegrationError, PlannerParams,
                       Trajectory, basic_reproduction_number,
                       integrate_trajectory, stability_bound)
from .planner import (GridSpec, PolicyField, ScenarioSummary,
                      SolverConvergenceError, SolverNumericalError,
                      ValueField, bellman_residual, boundary_value_s_zero,
                      simulate_optimal, solve_value_function)
from .ethics import (Allocation, AxiomReport, Ordering, PropertyMatrix,
                     UtilityTransform, WelfareCriterion, check_axiom,
                     check_axioms, compare, criterion_value, default_criteria,
                     property_matrix, replay_witness, repugnant_witness,
                     very_sadistic_witness)
from .sensitivity import (SensitivityReport, SensitivityRow, VictimProfile,
                          death_cost_from_criterion, run_sensitivity)
from .config import (ConfigError, RunConfig, criterion_from_spec,
                     criterion_spec, parse_config, serialize_config)

__all__ = [
    "Allocation",
    "AxiomReport",
    "ConfigError",
    "EpidemicState",
    "GridSpec",
    "IntegrationError",
    "Ordering",
    "PlannerParams",
    "PolicyField",
    "PropertyMatrix",
    "RunConfig",
    "ScenarioSummary",
    "SensitivityReport",
    "SensitivityRow",
    "SolverConvergenceError",
    "SolverNumericalError",
    "Trajectory",
    "UtilityTransform",
    "ValueField",
    "VictimProfile",
    "WelfareCriterion",
    "basic_reproduction_number",
    "bellman_residual",
    "boundary_value_s_zero",
    "check_axiom",
    "check_axioms",
    "compare",
    "criterion_from_spec",
    "criterion_spec",
    "criterion_value",
    "death_cost_from_criterion",
    "default_criteria",
    "integrate_trajectory",
    "parse_config",
    "property_matrix",
    "replay_witness",
    "repugnant_witness",
    "run_sensitivity",
    "serialize_config",
    "simulate_optimal",
    "solve_value_function",
    "stability_bound",
    "very_sadistic_witness",
    "__version__",
]
