"""Constrained risk sharing on finite probability spaces.

Exact finite-space primitives, convex-order checks, distortion and
mean-variance risk measures, comonotonic improvement of allocations,
feasibility and solidity classification of constraint sets, capped
mean-variance solvers, and a grid oracle, with a JSON-driven CLI.

Importing the package runs no submodule body.  Every submodule is
registered in ``sys.modules`` and bound as ``coshare.<module>`` with
``importlib.util.LazyLoader``; its body runs at the first attribute access,
so a process compiles and executes only the modules it uses.  A public name
``coshare.X`` is looked up in its defining module at every access, so it is
that module's current attribute.  On Python 3.11 the first access to a
submodule is not thread-safe: touch it once before starting threads.
"""

import importlib.util
import sys

# defining module -> the public names it exports
_EXPORTS = {
    "errors": ("ContractError", "ConvergenceError", "CoshareError", "DomainError",
               "InfeasibleError", "NonterminationError", "SchemaError",
               "ValidationError"),
    "probspace": ("FiniteSpace", "GammaAggregate", "RandomVariable", "distribution_of",
                  "gamma_quantile", "moments"),
    "stochorder": ("convex_order_leq", "pigou_dalton_transfer", "stop_loss"),
    "riskmeasures": ("Consistency", "RiskMeasureSpec", "convex_ladder",
                     "cx_consistency_flag", "es", "evaluate", "expected_convex_loss",
                     "mean_variance", "var"),
    "allocation": ("Allocation", "ImprovementCertificate", "check_clearing",
                   "comonotonic_improvement", "condition_on_aggregate",
                   "is_comonotonic"),
    "constraints": ("AggregateEnvelope", "Constraint", "ExpectationConstraint",
                    "IdiosyncraticRetention", "OrliczBound", "PathwiseBounds",
                    "RiskCeiling", "RiskFloor", "Solidity", "SolidityVerdict",
                    "SolidityWitness", "Violation", "check_feasible",
                    "classify_constraint", "classify_solidity", "falsify_solidity"),
    "mvsolver": ("MVProblem", "RegimeReport", "VarScenarioReport", "mv_objective",
                 "saturation_curve", "solve_capped_mv", "statewise_projection",
                 "two_agent_fixed_point", "unconstrained_shares", "var_scenario"),
    "oracle": ("GridSpec", "ScalarFamily", "comonotone_minimize", "grid_minimize"),
    "cli": ("ReproduceMismatch", "emit_report", "load_problem", "main", "reproduce",
            "run_problem"),
}
# public name -> its defining module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = list(_HOME)


def _register(module):
    """Bind coshare.<module> to a module whose body runs at first use."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _EXPORTS:
    _register(_module)
del _module


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
