"""Path-guessing games with odds-weighted wagering on directed graphs.

Values and optimal strategies for both players, Markov dynamics of optimal
play, reproducible Monte Carlo, lying-oracle game generation, and
independent verification oracles.
"""

__version__ = "0.1.0"

from .graph import (
    GameGraph,
    GraphClass,
    GraphError,
    GraphKind,
    aperiodicity_gcd,
    build_graph,
    classify,
    parse_graph,
    serialize_graph,
    to_dot,
)
from .markov import (
    FairnessVerdict,
    MarkovReport,
    analyze,
    fairness_check,
    invariant_measure,
    steady_state_fortunes,
    stopping_analysis,
)
from .oracle import (
    Gn1Reference,
    OracleSpec,
    build_forbidden_pattern_game,
    build_stopping_variant,
    build_window_game,
    gn1_reference,
    stop_probability_formula,
)
from .simulate import (
    ExploitReport,
    SimulationConfig,
    SimulationResult,
    StepRng,
    exploit_search,
    play_step,
    run,
    step_uniforms,
)
from .strategy import (
    StrategyError,
    StrategyProfile,
    build_profile,
)
from .values import (
    ConvergenceError,
    GameSolution,
    PropagationMatrix,
    SpectralData,
    UnsupportedGraphError,
    build_propagation_matrix,
    solve,
    solve_strongly_connected,
    solve_terminating,
    solve_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
