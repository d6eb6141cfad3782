"""Exact symbolic calculus for fiber-wise polynomial differential operators
on the total space of a vector bundle chart."""

from .symcore import (
    Chart,
    MultiIndex,
    Poly,
    Rational,
    Space,
    Var,
    VarKind,
    parse_poly,
    poly_to_str,
)
from .diffop import DiffOp, diffop_dumps, diffop_loads
from .multivec import (
    Section,
    SectionRole,
    SymMultivector,
    core_to_dualpoly,
    fwl_check_multivector,
    fwl_metric_laplacian,
    hamiltonian_field,
    multiderivation_D,
    multiderivation_l,
    poisson,
    sym_product,
)
from .lbundle import (
    FrameDerivation,
    LPair,
    a_inverse,
    a_iso,
    lderiv_commutator,
    pair_bracket,
    pair_product,
    pair_to_lderivation,
)
from .linearize import (
    is_linearizable_multivector,
    is_order_q_linearizable,
    linearize_do,
    linearize_function,
    linearize_multivector,
)

__all__ = [
    "Chart",
    "MultiIndex",
    "Poly",
    "Rational",
    "Space",
    "Var",
    "VarKind",
    "parse_poly",
    "poly_to_str",
    "DiffOp",
    "diffop_dumps",
    "diffop_loads",
    "Section",
    "SectionRole",
    "SymMultivector",
    "core_to_dualpoly",
    "fwl_check_multivector",
    "fwl_metric_laplacian",
    "hamiltonian_field",
    "multiderivation_D",
    "multiderivation_l",
    "poisson",
    "sym_product",
    "FrameDerivation",
    "LPair",
    "a_inverse",
    "a_iso",
    "lderiv_commutator",
    "pair_bracket",
    "pair_product",
    "pair_to_lderivation",
    "is_linearizable_multivector",
    "is_order_q_linearizable",
    "linearize_do",
    "linearize_function",
    "linearize_multivector",
]

__version__ = "0.1.0"
