"""Exact workbench for almost-disjoint branch families and zero-set filter bases.

The library side: branch codecs and registries (`branches`), points and
symbolic zero-set algebra over the compact sequence space (`space`),
filter bases with certified membership (`filters`), certificate-producing
engines (`engines`), and an independent checker (`checking`).  The `cli`
module wraps everything for the command line; `demos/` in the repository
walks each capability.
"""

from .branches import (
    BranchError,
    BranchIndex,
    Registry,
    branch_elements,
    branch_member,
    decode_code,
    density_count,
    encode_string,
    find_cover,
    find_separator,
    intersection_exact,
    make_registry,
)
from .certificates import Certificate, CertificateError
from .checking import CheckReport, check_certificate, check_certificate_text
from .engines import (
    AFailure,
    AFailureVerificationError,
    CertificationError,
    EngineError,
    check_extendibility_a,
    check_extendibility_b,
    containment_decreasing,
    containment_full_product,
    cover_certificate,
    decreasing_chain_engine,
    increasing_chain_engine,
    property_a_check,
    property_b_refute,
)
from .filters import (
    FilterBase,
    FilterError,
    MemberVerdict,
    combine_nonredundancy_witnesses,
    filter_member,
    pairwise_union_base,
    pseudo_finite_exceptions,
    shifted_filter,
)
from .formats import (
    FormatError,
    parse_branch_literal,
    parse_point_literal,
    parse_registry,
    parse_setexpr,
    setexpr_text,
)
from .space import (
    ApproxSequence,
    Atom,
    Diff,
    Inter,
    PI,
    SetExpr,
    Singleton,
    SpaceError,
    Truncation,
    Union,
    Whole,
    XI,
    XiPoint,
    approx_sequence,
    closure_member,
    enumerate_truncated,
    eval_setexpr,
    exact_counterexample,
    in_zero_set,
    inter_atoms,
    multi_escape_sequence,
    union_atoms,
    validate_point,
)

__version__ = "0.1.0"
