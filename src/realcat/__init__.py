"""Exact computations with continuous t-norms and real-enriched categories."""

from .errors import (
    DomainError,
    InvalidWitness,
    NotForwardCauchy,
    NotMValued,
    ParseError,
    ProductIrrational,
    RealcatError,
    SizeLimitExceeded,
)
from .intervals import IntervalSet
from .qcat import (
    QCat,
    QFunctor,
    enumerate_functors,
    final_lift,
    hom_power,
    hom_tensor,
    initial_lift,
    product,
    tensor,
    tensor_transpose,
    tensor_untranspose,
    validate_qcat,
)
from .subconstructs import (
    CCCWitness,
    SuitableSet,
    SuitableVariant,
    ccc_criterion,
    ccc_identity_check,
    ccc_witness,
    check_suitable,
    coreflect_c,
    explicit,
    k_diagonal,
    k_square,
    por_coreflection,
    por_reflection,
    power_existence_check,
    reflect_r,
    sqrt_band,
)
from .tnorm import (
    Block,
    BlockKind,
    CheckResult,
    TNorm,
    godel,
    idempotent_set,
    lukasiewicz,
    m_set,
    meet_residual,
    product as product_tnorm,
    remark4,
    sqrt_with,
    subquantale_check,
    tnorm_eval,
    tnorm_residual,
    way_below_in_m,
)
from .yoneda import (
    ApproxReport,
    FCSequence,
    approx_property,
    canonical_limit,
    check_ev,
    curry,
    function_space_limit,
    is_forward_cauchy,
    uncurry,
    yoneda_limits,
)

__version__ = "0.1.0"
