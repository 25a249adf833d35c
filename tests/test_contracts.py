"""Every number a public callable takes is read one way.

Each scalar parameter of each callable in ``coshare._EXPORTS`` (a number,
or one number inside a tuple argument) is a slot below.  Every value of
POOL goes into every slot, and the call either returns or raises a
CoshareError subclass: no bare TypeError, OverflowError or IndexError.
The accepted numeric forms (float, np.float32, Fraction, and for an
integral value int and np.int64) give the float's own result.

Names with no numeric parameter are listed in NO_NUMBER with the reason, so
a new export that is in neither table fails test_every_export_is_covered.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import coshare
from coshare import (
    AggregateEnvelope,
    Allocation,
    Constraint,
    CoshareError,
    DomainError,
    ExpectationConstraint,
    FiniteSpace,
    GammaAggregate,
    GridSpec,
    IdiosyncraticRetention,
    MVProblem,
    OrliczBound,
    PathwiseBounds,
    RandomVariable,
    RiskCeiling,
    RiskFloor,
    RiskMeasureSpec,
    ScalarFamily,
    ValidationError,
    check_clearing,
    check_feasible,
    classify_solidity,
    comonotonic_improvement,
    condition_on_aggregate,
    convex_ladder,
    es,
    expected_convex_loss,
    falsify_solidity,
    gamma_quantile,
    is_comonotonic,
    mean_variance,
    mv_objective,
    pigou_dalton_transfer,
    saturation_curve,
    statewise_projection,
    stop_loss,
    two_agent_fixed_point,
    unconstrained_shares,
    var,
)

INF = math.inf
POOL = (None, "1", True, np.bool_(True), 10 ** 400, -10 ** 400, Fraction(10 ** 400, 3),
        math.nan, INF, -INF, 5e-324, 1.7976931348623157e308)

SPACE = FiniteSpace.uniform(2)
S = RandomVariable(SPACE, (0.0, 2.0))
HALVES = Allocation(SPACE, (S * 0.5, S * 0.5), S)
LADDER = (0.5, 1.0, 0.0, 1.0)


def _put(values, k, v):
    return values[:k] + (v,) + values[k + 1:]


def _ladder_slots(name, call):
    return [(f"{name}-ladder{k}", "real", g, lambda v, k=k: call(_put(LADDER, k, v)))
            for k, g in enumerate(LADDER)]


def _start():
    x = RandomVariable(SPACE, (0.0, 1.0))
    return Allocation(SPACE, (x, S - x), S)


# (id, "real" or "count", an accepted value, the call with the value in the slot)
SLOTS = [
    ("FiniteSpace-prob", "real", 0.5, lambda v: FiniteSpace([("a", v), ("b", 0.5)])),
    ("FiniteSpace.uniform", "count", 2, FiniteSpace.uniform),
    ("RandomVariable-value", "real", 2.0, lambda v: RandomVariable(SPACE, (0.0, v))),
    ("RandomVariable.constant", "real", 2.0, lambda v: RandomVariable.constant(SPACE, v)),
    ("S+v", "real", 2.0, lambda v: S + v),
    ("S-v", "real", 2.0, lambda v: S - v),
    ("v-S", "real", 2.0, lambda v: v - S),
    ("S*v", "real", 2.0, lambda v: S * v),
    ("S/v", "real", 2.0, lambda v: S / v),
    ("gamma_quantile", "real", 0.5, lambda v: gamma_quantile(GammaAggregate(), v)),
    ("stop_loss", "real", 1.0, lambda v: stop_loss(S, v)),
    ("pigou-down", "count", 1, lambda v: pigou_dalton_transfer(S, v, 0, 0.5, 0.5)),
    ("pigou-up", "count", 0, lambda v: pigou_dalton_transfer(S, 1, v, 0.5, 0.5)),
    ("pigou-a", "real", 0.5, lambda v: pigou_dalton_transfer(S, 1, 0, v, 0.5)),
    ("pigou-b", "real", 0.5, lambda v: pigou_dalton_transfer(S, 1, 0, 0.5, v)),
    ("RiskMeasureSpec-var", "real", 0.5, lambda v: RiskMeasureSpec("var", level=v)),
    ("RiskMeasureSpec-es", "real", 0.5, lambda v: RiskMeasureSpec("es", level=v)),
    ("RiskMeasureSpec-mv", "real", 2.0, lambda v: RiskMeasureSpec("mean_variance", delta=v)),
    ("RiskMeasureSpec.var", "real", 0.5, RiskMeasureSpec.var),
    ("RiskMeasureSpec.es", "real", 0.5, RiskMeasureSpec.es),
    ("RiskMeasureSpec.mean_variance", "real", 2.0, RiskMeasureSpec.mean_variance),
    *_ladder_slots("RiskMeasureSpec.expected_convex_loss",
                   lambda ladder: RiskMeasureSpec.expected_convex_loss(*ladder)),
    ("convex_ladder-x", "real", 2.0, lambda v: convex_ladder(v, LADDER)),
    *_ladder_slots("convex_ladder", lambda ladder: convex_ladder(2.0, ladder)),
    ("var", "real", 0.5, lambda v: var(S, v)),
    ("es", "real", 0.5, lambda v: es(S, v)),
    ("mean_variance", "real", 2.0, lambda v: mean_variance(S, v)),
    *_ladder_slots("expected_convex_loss", lambda ladder: expected_convex_loss(S, ladder)),
    ("AggregateEnvelope-s", "real", 0.0,
     lambda v: AggregateEnvelope(((v, 0.0), (4.0, 0.0)), ((0.0, 4.0), (4.0, 8.0)))),
    ("AggregateEnvelope-value", "real", 8.0,
     lambda v: AggregateEnvelope(((0.0, 0.0), (4.0, 0.0)), ((0.0, 4.0), (4.0, v)))),
    ("Constraint-scope", "count", 1, lambda v: Constraint(PathwiseBounds(0.0), scope=v)),
    ("ExpectationConstraint", "real", 1.0, lambda v: ExpectationConstraint("<=", v)),
    ("IdiosyncraticRetention", "real", 1.0, lambda v: IdiosyncraticRetention(S, v)),
    *_ladder_slots("OrliczBound", lambda ladder: OrliczBound(ladder, 1.0)),
    ("OrliczBound-bound", "real", 1.0, lambda v: OrliczBound(LADDER, v)),
    ("PathwiseBounds-lower", "real", 0.0, lambda v: PathwiseBounds(lower=v)),
    ("PathwiseBounds-upper", "real", 2.0, lambda v: PathwiseBounds(upper=v)),
    ("RiskCeiling", "real", 1.0, lambda v: RiskCeiling(RiskMeasureSpec.es(0.5), v)),
    ("RiskFloor", "real", 1.0, lambda v: RiskFloor(RiskMeasureSpec.es(0.5), v)),
    ("falsify_solidity-budget", "count", 8, lambda v: falsify_solidity(
        (Constraint(PathwiseBounds(0.0, 2.0)),), SPACE, S, budget=v, start=_start())),
    ("falsify_solidity-seed", "count", 3, lambda v: falsify_solidity(
        (Constraint(PathwiseBounds(0.0, 2.0)),), SPACE, S, budget=8, seed=v, start=_start())),
    ("MVProblem-delta", "real", 1.0, lambda v: MVProblem((v, 1.0), (0.0, 0.0), (INF, 2.0),
                                                         (SPACE, S))),
    ("MVProblem-lower", "real", 0.0, lambda v: MVProblem((1.0, 1.0), (v, 0.0), (INF, 2.0),
                                                         (SPACE, S))),
    ("MVProblem-upper", "real", 2.0, lambda v: MVProblem((1.0, 1.0), (0.0, 0.0), (INF, v),
                                                         (SPACE, S))),
    ("mv_objective", "real", 1.0, lambda v: mv_objective((v, 1.0), HALVES)),
    ("saturation_curve-delta", "real", 1.0, lambda v: saturation_curve((v, 1), (2, 4))),
    ("saturation_curve-upper", "real", 2.0, lambda v: saturation_curve((1, 1), (v, 4))),
    ("statewise_projection-c", "real", 0.0, lambda v: statewise_projection(
        (v, 0.0), (1.0, 1.0), (0.0, 0.0), (2.0, 2.0), 1.0)),
    ("statewise_projection-delta", "real", 1.0, lambda v: statewise_projection(
        (0.0, 0.0), (v, 1.0), (0.0, 0.0), (2.0, 2.0), 1.0)),
    ("statewise_projection-lower", "real", 0.0, lambda v: statewise_projection(
        (0.0, 0.0), (1.0, 1.0), (v, 0.0), (2.0, 2.0), 1.0)),
    ("statewise_projection-upper", "real", 2.0, lambda v: statewise_projection(
        (0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (v, 2.0), 1.0)),
    ("statewise_projection-s", "real", 1.0, lambda v: statewise_projection(
        (0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (2.0, 2.0), v)),
    ("two_agent_fixed_point-a", "real", 0.5, lambda v: two_agent_fixed_point(v, 1.0, S)),
    ("two_agent_fixed_point-C", "real", 1.0, lambda v: two_agent_fixed_point(0.5, v, S)),
    ("unconstrained_shares", "real", 2.0, lambda v: unconstrained_shares((v, 1.0))),
    ("GridSpec-lo", "real", 0.0, lambda v: GridSpec(ranges=(((v, 1.0, 0.5),),))),
    ("GridSpec-hi", "real", 1.0, lambda v: GridSpec(ranges=(((0.0, v, 0.5),),))),
    ("GridSpec-step", "real", 0.5, lambda v: GridSpec(ranges=(((0.0, 1.0, v),),))),
    ("GridSpec.uniform-agents", "count", 1, lambda v: GridSpec.uniform(v, 2, 0.0, 1.0, 0.5)),
    ("GridSpec.uniform-atoms", "count", 2, lambda v: GridSpec.uniform(1, v, 0.0, 1.0, 0.5)),
    ("GridSpec.uniform-lo", "real", 0.0, lambda v: GridSpec.uniform(1, 2, v, 1.0, 0.5)),
    ("GridSpec.uniform-hi", "real", 1.0, lambda v: GridSpec.uniform(1, 2, 0.0, v, 0.5)),
    ("GridSpec.uniform-step", "real", 0.5, lambda v: GridSpec.uniform(1, 2, 0.0, 1.0, v)),
    ("ScalarFamily-base", "real", 0.0,
     lambda v: ScalarFamily(((v, 0.0),), ((1.0, 1.0),), 0.0, 1.0, 0.5)),
    ("ScalarFamily-direction", "real", 1.0,
     lambda v: ScalarFamily(((0.0, 0.0),), ((v, 1.0),), 0.0, 1.0, 0.5)),
    ("GridSpec.from_family-lo", "real", 0.0,
     lambda v: GridSpec.from_family(((0.0, 0.0),), ((1.0, 1.0),), v, 1.0, 0.5)),
    ("GridSpec.from_family-hi", "real", 1.0,
     lambda v: GridSpec.from_family(((0.0, 0.0),), ((1.0, 1.0),), 0.0, v, 0.5)),
    ("GridSpec.from_family-step", "real", 0.5,
     lambda v: GridSpec.from_family(((0.0, 0.0),), ((1.0, 1.0),), 0.0, 1.0, v)),
]

# the exported names in SLOTS' calls, and those that take no number
COVERED = {
    "FiniteSpace", "RandomVariable", "GammaAggregate", "gamma_quantile", "stop_loss",
    "pigou_dalton_transfer", "RiskMeasureSpec", "convex_ladder", "var", "es",
    "mean_variance", "expected_convex_loss", "AggregateEnvelope", "Constraint",
    "ExpectationConstraint", "IdiosyncraticRetention", "OrliczBound", "PathwiseBounds",
    "RiskCeiling", "RiskFloor", "falsify_solidity", "MVProblem", "mv_objective",
    "saturation_curve", "statewise_projection", "two_agent_fixed_point",
    "unconstrained_shares", "GridSpec", "ScalarFamily",
}
NO_NUMBER = {
    # exceptions take a message, and records the library fills from numbers
    # it has already read; they store what they are given
    **dict.fromkeys(("ContractError", "ConvergenceError", "CoshareError", "DomainError",
                     "InfeasibleError", "NonterminationError", "SchemaError",
                     "ValidationError", "ReproduceMismatch"), "an exception"),
    **dict.fromkeys(("ImprovementCertificate", "SolidityVerdict", "SolidityWitness",
                     "Violation", "RegimeReport", "VarScenarioReport"), "a result record"),
    **dict.fromkeys(("Consistency", "Solidity"), "an enum, looked up by name"),
    # variables, allocations, specs, constraint sets, grids and paths only
    **dict.fromkeys(("distribution_of", "moments", "convex_order_leq", "cx_consistency_flag",
                     "evaluate", "Allocation", "check_clearing", "comonotonic_improvement",
                     "condition_on_aggregate", "is_comonotonic", "check_feasible",
                     "classify_constraint", "classify_solidity", "solve_capped_mv",
                     "var_scenario", "comonotone_minimize", "grid_minimize",
                     "emit_report", "load_problem", "main", "reproduce", "run_problem"),
                    "no number argument"),
}


def _canon(x):
    """x as plain values that compare by number, whatever their types."""
    if isinstance(x, RandomVariable):
        return ("variable", x.space.labels, x.values.tolist())
    if isinstance(x, FiniteSpace):
        return ("space", x.labels, x.probs.tolist())
    if isinstance(x, Allocation):
        return ("allocation",) + tuple(map(_canon, x.shares + (x.aggregate,)))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_canon(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(map(_canon, x))
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


def _forms(kind, good):
    if kind == "count":
        return (int(good), np.int64(good))
    forms = (float(good), np.float32(good), Fraction(good))
    return forms + ((int(good), np.int64(good)) if float(good).is_integer() else ())


def test_every_export_is_covered():
    assert COVERED.isdisjoint(NO_NUMBER)
    assert COVERED | set(NO_NUMBER) == set(coshare.__all__)


@pytest.mark.parametrize("kind, good, call", [s[1:] for s in SLOTS], ids=[s[0] for s in SLOTS])
def test_only_library_errors_escape(kind, good, call):
    escaped = []
    for value in POOL:
        try:
            call(value)
        except CoshareError:
            pass
        except Exception as exc:  # noqa: BLE001 - the failure names it
            escaped.append(f"{value!r:.30}: {type(exc).__name__}: {exc}")
    assert not escaped


@pytest.mark.parametrize("kind, good, call", [s[1:] for s in SLOTS], ids=[s[0] for s in SLOTS])
def test_accepted_forms_give_the_same_result(kind, good, call):
    want = _canon(call(good))
    for form in _forms(kind, good):
        assert _canon(call(form)) == want, type(form).__name__


def test_non_numbers_and_far_values_name_their_class():
    # None, strings and bools are not numbers; a value past the float range
    # is outside every operation's domain
    for value, error in ((None, ValidationError), ("1", ValidationError),
                         (True, ValidationError), (np.bool_(True), ValidationError),
                         (10 ** 400, DomainError), (Fraction(10 ** 400, 3), DomainError)):
        for call in (PathwiseBounds, RiskMeasureSpec.es,
                     lambda v: MVProblem((v, 1.0), (0.0, 0.0), (INF, 2.0), (SPACE, S)),
                     lambda v: RandomVariable(SPACE, (v, 1.0)),
                     lambda v: GridSpec.uniform(1, 2, 0.0, v, 0.5)):
            with pytest.raises(error):
                call(value)


def test_exact_paths_stay_exact():
    assert RiskMeasureSpec("es", level=Fraction(1, 2)).level == Fraction(1, 2)
    assert type(RiskMeasureSpec("es", level=Fraction(1, 2)).level) is Fraction
    shares = unconstrained_shares((10 ** 400, 1))
    assert shares == (Fraction(1, 10 ** 400 + 1), Fraction(10 ** 400, 10 ** 400 + 1))
    with pytest.raises(ValidationError, match="must be finite"):
        saturation_curve((1, 1), (1, 10 ** 400))


def test_index_past_the_space():
    with pytest.raises(ValidationError, match="atom indices"):
        pigou_dalton_transfer(S, 5, 1, 0.0, 0.0)


def test_weight_arrays_read_like_tuples():
    # an ndarray of weights is read element by element, as a tuple is: a
    # float array gives floats, an int array exact Fractions of Python ints
    # (int64 arithmetic would wrap on these weights)
    assert unconstrained_shares(np.array([1.0, 2.0])) == unconstrained_shares((1.0, 2.0))
    assert type(unconstrained_shares(np.array([1.0, 2.0]))[0]) is float
    big = (3 * 10 ** 9, 7 * 10 ** 9 + 1, 5 * 10 ** 9 + 3)
    for weights in ((1, 2), big):
        shares = unconstrained_shares(np.array(weights))
        assert shares == unconstrained_shares(weights)
        assert all(type(x.numerator) is int for x in shares)
    caps = (5 * 10 ** 9 + 3, 2 * 10 ** 9 + 1, 10 ** 9)
    assert (saturation_curve(np.array(big), np.array(caps)).breakpoints
            == saturation_curve(big, caps).breakpoints)


@pytest.mark.parametrize("call", [
    lambda: FiniteSpace(None),
    lambda: FiniteSpace(np.array([0.5, 0.5])),
    lambda: Allocation(SPACE, None),
    lambda: Allocation(SPACE, [np.array([0.0, 2.0])]),
], ids=["space-None", "space-ndarray", "allocation-None", "allocation-ndarray"])
def test_constructors_refuse_what_is_not_their_sequence(call):
    with pytest.raises(ValidationError):
        call()


BOX = (Constraint(PathwiseBounds(0.0, 2.0)),)


@pytest.mark.parametrize("call", [
    lambda: falsify_solidity(None, SPACE, S, start=_start()),
    lambda: falsify_solidity(BOX, SPACE, S.values, start=_start()),
    lambda: falsify_solidity(BOX, SPACE, None, start=_start()),
    lambda: falsify_solidity(BOX, SPACE, S, start=_start().share_matrix()),
    lambda: classify_solidity(None),
    lambda: check_feasible(HALVES, None),
    lambda: check_feasible(None, BOX),
    lambda: check_feasible(HALVES.share_matrix(), BOX),
    lambda: check_clearing(None),
    lambda: is_comonotonic(HALVES.share_matrix()),
    lambda: condition_on_aggregate(None),
    lambda: comonotonic_improvement(HALVES.share_matrix()),
], ids=["falsify-constraints-None", "falsify-S-ndarray", "falsify-S-None",
        "falsify-start-ndarray", "classify-None", "feasible-constraints-None",
        "feasible-None", "feasible-ndarray", "clearing-None", "comonotonic-ndarray",
        "conditioning-None", "improvement-ndarray"])
def test_allocation_and_constraint_arguments_are_checked(call):
    with pytest.raises(ValidationError):
        call()
