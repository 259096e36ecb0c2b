"""Conditional waiting times in a two-station, two-class tandem polling queue.

Three routes to the same quantity, for cross-validation:

* ``analyze`` - analytic mean conditional wait by sample-path scenario
  decomposition;
* ``simulate_conditional`` / ``simulate_steady_state`` - discrete-event
  simulation;
* ``deterministic_wait`` - exact timeline with constant rates.
"""

# lattice_solution, drain_wait and race_busy_period are here only for the
# benchmark's tracer, which reads their cache statistics from the root
from .absorption import lattice_solution
from .errors import (
    InvalidSupport,
    NonPositiveRate,
    NonTermination,
    SingularSystem,
    TandemPollError,
    ThresholdUnreached,
    TruncationTooTight,
    UnstableQueue,
    UnstableSystem,
)
from .model import (
    ArrivalState,
    SystemParams,
    TruncationConfig,
    validate_params,
)
from .primitives import drain_wait, race_busy_period
from .reporting import (
    ComparisonRow,
    ExperimentConfig,
    ExperimentResult,
    emit_report,
    load_config,
    parse_report,
    run_experiment,
)
from .scenarios import ScenarioReport, SubScenarioOutcome, analyze
from .simulator import (
    SimConfig,
    SimEstimate,
    SteadyStateEstimate,
    deterministic_wait,
    simulate_conditional,
    simulate_steady_state,
    write_trace,
)

__version__ = "0.1.0"
