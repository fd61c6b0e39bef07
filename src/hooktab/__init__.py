"""Hook-valued tableaux, uncrowding, tableau switching and exact
generating-function checks for refined canonical stable Grothendieck
polynomials."""

from .enumeration import (
    EnumBounds,
    VerificationReport,
    enum_biflagged,
    enum_exquisite,
    enum_hvt,
    enum_mixed,
    enum_sorted_strict,
    enum_ssyt,
    phi,
    verify,
)
from .genfun import (
    det_formula_check,
    determinant_side,
    extract_weight_counts,
    hvt_genfun,
    schur_expansion_genfun,
    schur_poly,
    vandermonde,
)
from .polynomials import (
    CapMismatch,
    CapTooSmall,
    Monomial,
    TruncatedPolynomial,
    determinant,
    exact_divide,
    poly_add,
    poly_mul,
)
from .shapes import (
    partitions_between,
    partitions_containing,
    partitions_of,
    partitions_up_to,
    skew_shapes,
    subpartitions,
)
from .switching import (
    InternalError,
    OutOfOrderWitness,
    PreconditionViolation,
    SwitchMove,
    available_switches,
    fully_switch,
    gg_jdt,
    gg_out_of_order,
    is_biflagged,
    shuffle,
    try_switch,
)
from .tableaux import (
    HookCell,
    HookValuedTableau,
    MixedEntry,
    MixedTableau,
    NonpositiveBetaIndex,
    StrictnessFlags,
    alpha,
    beta,
    c_beta_shift,
    classify_mixed,
    hvt_violations,
    is_exquisite,
    is_valid_hvt,
    validate_hvt,
    weight_hvt,
    weight_mixed,
)
from .textform import (
    TableauSyntaxError,
    parse_hvt,
    parse_mixed,
    parse_tableau,
    serialize_hvt,
    serialize_mixed,
)
from .uncrowding import (
    BumpRecord,
    UncrowdResult,
    arm_bump,
    arm_uncrowd,
    has_type,
    leg_bump,
    leg_uncrowd,
    uncrowd,
    uncrowd_canonical,
)

__all__ = [name for name in dir() if not name.startswith("_")]
