"""Exact workbench for almost-disjoint branch families and zero-set filter bases.

The library side: branch codecs and registries (`branches`), points and
symbolic zero-set algebra over the compact sequence space (`space`),
filter bases with certified membership (`filters`), certificate-producing
engines (`engines`), and an independent checker (`checking`).  The `cli`
module wraps everything for the command line; `demos/` in the repository
walks each capability.

Importing the package loads none of these modules: each module, and each name
re-exported below, is looked up on first use (PEP 562), so a command pays only
for the modules it runs.
"""

import sys

# each module's names re-exported here
_EXPORTS = {
    "branches": (
        "BranchError", "BranchIndex", "Registry", "branch_elements", "branch_member",
        "decode_code", "density_count", "encode_string", "find_cover", "find_separator",
        "intersection_exact", "make_registry",
    ),
    "certificates": ("Certificate", "CertificateError"),
    "checking": ("CheckReport", "check_certificate", "check_certificate_text"),
    "engines": (
        "AFailure", "AFailureVerificationError", "CertificationError", "EngineError",
        "check_extendibility_a", "check_extendibility_b", "containment_decreasing",
        "containment_full_product", "cover_certificate", "decreasing_chain_engine",
        "increasing_chain_engine", "property_a_check", "property_b_refute",
    ),
    "filters": (
        "FilterBase", "FilterError", "MemberVerdict", "combine_nonredundancy_witnesses",
        "filter_member", "pairwise_union_base", "pseudo_finite_exceptions", "shifted_filter",
    ),
    "formats": (
        "FormatError", "parse_branch_literal", "parse_point_literal", "parse_registry",
        "parse_setexpr", "setexpr_text",
    ),
    "space": (
        "ApproxSequence", "Atom", "Diff", "Inter", "PI", "SetExpr", "Singleton", "SpaceError",
        "Truncation", "Union", "Whole", "XI", "XiPoint", "closure_member",
        "enumerate_truncated", "eval_setexpr", "exact_counterexample", "in_zero_set",
        "inter_atoms", "multi_escape_sequence", "union_atoms", "validate_point",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # A module is imported on first use, and the import binds it here.  An
    # export is read from its module on every use, so a name rebound there
    # (as perfbench's tracer does) reads the current binding here too.
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    __import__(f"{__name__}.{module}")
    loaded = sys.modules[f"{__name__}.{module}"]
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
