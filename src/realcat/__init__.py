"""Exact computations with continuous t-norms and real-enriched categories.

``import realcat`` loads no submodule: each exported name and each
submodule is imported on its first use (PEP 562), so a command pays only
for the modules it runs.  A resolved name is kept in this module's
globals, where later reads find it without a call.

The modules follow the paper's layers: ``qcat`` holds the categories,
their validation and both lifts; ``functors`` the functor search,
products, tensors and hom objects; ``subconstructs`` the suitable sets
and Cat_S; ``ccc`` the cartesian-closedness criterion and its witness.
So ``construct final_lift``, ``validate`` and ``construct reflect`` load
neither ``functors`` nor ``ccc``, and ``witness`` loads ``ccc`` but
neither ``functors`` nor ``subconstructs``.
"""

import sys as _sys

# each exported name, by the submodule that defines it
_EXPORTS = {
    "errors": (
        "DomainError",
        "InvalidWitness",
        "NotForwardCauchy",
        "NotMValued",
        "ParseError",
        "ProductIrrational",
        "RealcatError",
        "SizeLimitExceeded",
    ),
    "intervals": ("IntervalSet",),
    "qcat": ("QCat", "final_lift", "initial_lift", "validate_qcat"),
    "functors": (
        "QFunctor",
        "enumerate_functors",
        "hom_power",
        "hom_tensor",
        "product",
        "tensor",
        "tensor_transpose",
        "tensor_untranspose",
    ),
    "subconstructs": (
        "SuitableSet",
        "SuitableVariant",
        "check_suitable",
        "coreflect_c",
        "explicit",
        "k_diagonal",
        "k_square",
        "por_coreflection",
        "por_reflection",
        "reflect_r",
        "sqrt_band",
    ),
    "ccc": (
        "CCCWitness",
        "ccc_criterion",
        "ccc_identity_check",
        "ccc_witness",
        "power_existence_check",
    ),
    "tnorm": (
        "Block",
        "BlockKind",
        "CheckResult",
        "TNorm",
        "godel",
        "idempotent_set",
        "lukasiewicz",
        "m_set",
        "meet_residual",
        "product_tnorm",
        "remark4",
        "sqrt_with",
        "subquantale_check",
        "tnorm_eval",
        "tnorm_residual",
        "way_below_in_m",
    ),
    "yoneda": (
        "ApproxReport",
        "FCSequence",
        "approx_property",
        "canonical_limit",
        "check_ev",
        "curry",
        "function_space_limit",
        "is_forward_cauchy",
        "uncurry",
        "yoneda_limits",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# exported under another name: tnorm.product, apart from functors.product
_RENAMED = {"product_tnorm": "product"}
_SUBMODULES = (
    "ccc",
    "cli",
    "errors",
    "functors",
    "intervals",
    "qcat",
    "serialize",
    "subconstructs",
    "suites",
    "tnorm",
    "values",
    "yoneda",
)

__all__ = sorted(_MODULE_OF) + list(_SUBMODULES)
__version__ = "0.1.0"


def _submodule(name: str):
    """realcat.<name>, imported the way an import statement imports it,
    so that ``-X importtime`` lists it."""
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    """An exported name or a submodule, imported now and kept."""
    if name in _MODULE_OF:
        value = getattr(_submodule(_MODULE_OF[name]), _RENAMED.get(name, name))
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
