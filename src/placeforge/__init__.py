"""placeforge: exact places of rational function fields.

Evaluate monomial and composite places (values, residues, invariants) over
Q or GF(p), and construct places of prescribed good classes (discrete,
prime divisor, maximal rank, zero-dimensional towers) inside prescribed
patch neighborhoods, preserving requested residues and values.
"""

from ._kernels import backend as kernel_backend
from .ordgroup import (
    AmbientGroup,
    GroupElem,
    QuadScalar,
    Subgroup,
    convex_rank,
    order_embedding_check,
    rational_rank,
)
from .parsing import ParseError, format_ratfunc, parse_expr
from .places import (
    INFINITY,
    CompositePlace,
    InfeasibleShapeError,
    MonomialPlace,
    Place,
    PlaceInvariants,
    ResidueFieldDesc,
    check_spv_axioms,
    compose,
    place_from_json,
)
from .ratfunc import BaseField, Poly, RatFunc

__version__ = "0.1.0"

# Served from `approx` on first use (PEP 562): importing placeforge, and
# every command but goodify and witness, does not load it.  Nothing is
# cached here; each access reads the attribute of `approx` itself.
_APPROX = ("GoodifyResult", "SignSignature", "TargetShape", "density_witness", "goodify",
           "perturb_weights", "signature")


def __getattr__(name):
    if name in _APPROX:
        from . import approx

        return getattr(approx, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AmbientGroup",
    "BaseField",
    "CompositePlace",
    "GoodifyResult",
    "GroupElem",
    "INFINITY",
    "InfeasibleShapeError",
    "MonomialPlace",
    "ParseError",
    "Place",
    "PlaceInvariants",
    "Poly",
    "QuadScalar",
    "RatFunc",
    "ResidueFieldDesc",
    "SignSignature",
    "Subgroup",
    "TargetShape",
    "check_spv_axioms",
    "compose",
    "convex_rank",
    "density_witness",
    "format_ratfunc",
    "goodify",
    "kernel_backend",
    "order_embedding_check",
    "parse_expr",
    "perturb_weights",
    "place_from_json",
    "rational_rank",
    "signature",
]
