"""Translation-invariant scalarization functionals with uniform sublevel sets.

The central object is phi(y) = inf {t : y in t*k + A} for a closed set
A and a direction k admissible for A. The package evaluates phi exactly
on the whole set grammar, with monotone bisection as an opt-in oracle, verifies
its defining identities as seeded property checks, separates point
clouds from sets, scalarizes finite multiobjective clouds against
reference points, and exposes the induced gauges and order-unit norms.
The `analysis`, `norms`, `scalarization` and `boxes` modules load on first
use; every public name can still be imported from `ulset`.
"""

import importlib.util
import sys

from .errors import (
    DirectionRejected,
    EmptyContour,
    InvalidInput,
    PreconditionFailed,
    UlsetError,
    Unsupported,
)
from .geometry import (
    ComplementClosure,
    HalfSpace,
    Polyhedron,
    RecessionCone,
    SetExpr,
    SetIntersection,
    SetUnion,
    Shift,
    certify_direction,
    complement_closure,
    contains,
    contains_many,
    recession_cone,
    set_from_json,
    set_to_json,
)
from .evaluator import (
    MINUS_INF,
    NU,
    ExtReal,
    FunctionalHandle,
    Strategy,
    contour2d,
    evaluate,
    evaluate_batch,
    evaluate_dual,
    evaluate_dual_many,
    evaluate_level_shifted,
    evaluate_many,
    evaluate_scaled,
    make_handle,
)


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


analysis, norms, scalarization, boxes = map(_lazy, ("analysis", "norms", "scalarization", "boxes"))
_LAZY_NAMES = dict.fromkeys((
    "HOLDS", "INAPPLICABLE", "VIOLATED", "LipschitzEstimate", "MonotoneCone", "PropertyReport",
    "SeparationVerdict", "check_dual_relation", "check_monotone", "check_recession_inequality",
    "check_sublevel_identity", "check_subgradient_bound", "check_translation_invariance",
    "classify_convexity", "estimate_lipschitz", "separate"), analysis) | dict.fromkeys((
    "check_norm_score_identity", "gauge_cone_shift", "order_unit_norm"), norms) | dict.fromkeys((
    "OrderCone", "PointCloud", "load_points_csv", "scalarize", "trace_front",
    "weakly_efficient"), scalarization)


def __getattr__(name: str):
    """A name of a LazyLoader module, whose code runs on first attribute access."""
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))


__version__ = "0.1.0"

__all__ = [
    "UlsetError", "InvalidInput", "DirectionRejected", "Unsupported",
    "PreconditionFailed", "EmptyContour",
    "HalfSpace", "SetExpr", "Polyhedron", "SetUnion", "SetIntersection",
    "Shift", "ComplementClosure", "RecessionCone",
    "contains", "contains_many", "recession_cone", "certify_direction",
    "complement_closure",
    "set_from_json", "set_to_json",
    "ExtReal", "MINUS_INF", "NU", "FunctionalHandle", "Strategy",
    "make_handle",
    "evaluate", "evaluate_many", "evaluate_batch",
    "evaluate_scaled", "evaluate_level_shifted",
    "evaluate_dual", "evaluate_dual_many", "contour2d",
    "PropertyReport", "MonotoneCone", "SeparationVerdict", "LipschitzEstimate",
    "HOLDS", "VIOLATED", "INAPPLICABLE",
    "check_sublevel_identity", "check_translation_invariance", "check_monotone",
    "classify_convexity", "check_recession_inequality", "check_dual_relation",
    "check_subgradient_bound", "estimate_lipschitz", "separate",
    "PointCloud", "OrderCone", "scalarize", "weakly_efficient", "trace_front",
    "load_points_csv",
    "gauge_cone_shift", "order_unit_norm", "check_norm_score_identity",
    "__version__",
]
