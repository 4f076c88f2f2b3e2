"""Edge-weighted MAX k-VERTEX COVER on bipartite graphs: solvers, a weight
scaling reduction, ratio analysis, and a benchmark harness."""

from .analysis import (
    Schedule, SubsetStats, cw_lower_bound, improve_ratio, improvement_gap,
    inverse_improve, minimum_claim_holds, prop1_sweep, ptas_schedule,
    secondary_bounds, subset_stats,
)
from .bench import RunRecord, run_matrix, write_csv
from .errors import MkvcError, ParseError
from .fileio import read_instance, write_instance
from .generate import GenKind, GenSpec, generate
from .graph import (
    BipartiteInstance, CoverSolution, Residual, Side, VertexRef,
    covered_weight, residual,
)
from .reduction import ReductionReceipt, ratio_transfer, scale_weights
from .solvers import (
    GREEDY_RHO, ORACLE_BUDGET, RatedSolver, SolverKind, SolverSpec,
    build_solver, exact_solver, greedy_solver, guess_split_runner,
    solve_alg1, solve_alg2, solve_exact, solve_greedy, solve_ptas,
    solve_semiregular_exact, solve_top_side,
)

__version__ = "0.1.0"
