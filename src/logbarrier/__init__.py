"""Log-barrier continuation for feasible sets that are convex even when
their defining inequalities are not concave, with KKT certificates and
numerical checks of the hypotheses behind them."""

from .barrier import BarrierEvaluation, barrier_eval, barrier_hessian, barrier_value
from .certificate import (
    KKTCertificate,
    KKTTolerances,
    Verdict,
    check_kkt,
    global_optimality_statement,
)
from .continuation import ContinuationError, MuSchedule, PathPoint, SolveTrace, solve
from .corpus import CorpusEntry, KnownOptimum, builtin, names
from .diagnostics import (
    SlaterUnverifiedError,
    levelset_convexity_probe,
    nondegeneracy_probe,
    phi_convexity_probe,
    slater_find,
    tangential_curvature_probe,
)
from .expr import EvalError, Expr, ParseError, evaluate, evaluate_dual, evaluate_many, parse
from .inner import InfeasibleStartError, InnerResult, InnerStatus, solve_inner
from .oracle import OracleResult, grid_minimize
from .problem import (
    ActiveSet,
    Feasibility,
    Problem,
    ProblemError,
    active_set,
    evaluate_constraints,
    feasibility,
    load,
    problem_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "BarrierEvaluation",
    "ContinuationError",
    "CorpusEntry",
    "EvalError",
    "Expr",
    "Feasibility",
    "InfeasibleStartError",
    "InnerResult",
    "InnerStatus",
    "KKTCertificate",
    "KKTTolerances",
    "KnownOptimum",
    "MuSchedule",
    "OracleResult",
    "ParseError",
    "PathPoint",
    "Problem",
    "ProblemError",
    "SlaterUnverifiedError",
    "SolveTrace",
    "Verdict",
    "active_set",
    "barrier_eval",
    "barrier_hessian",
    "barrier_value",
    "builtin",
    "check_kkt",
    "evaluate",
    "evaluate_constraints",
    "evaluate_dual",
    "evaluate_many",
    "feasibility",
    "global_optimality_statement",
    "grid_minimize",
    "levelset_convexity_probe",
    "load",
    "names",
    "nondegeneracy_probe",
    "parse",
    "phi_convexity_probe",
    "problem_from_dict",
    "slater_find",
    "solve",
    "solve_inner",
    "tangential_curvature_probe",
]
