"""cmwitness: exact classification of the integral closure of S[w, u].

S is Z[x1..xn] localized at (2, x1..xn) and A = S[w, u] with w^2 = f,
u^2 = g.  The package decides where (f, g) falls in the case map for
the integral closure R of A, builds R's generators and multiplication
table, verifies conductor and free-resolution data, and in the
non-Cohen-Macaulay cases machine-checks a certificate that R still
admits a birational small Cohen-Macaulay module.

Everything is exact: sparse integer polynomials, spans over S solved
by back-substitution, and GF(2) residue computations.  No floating
point and no randomness.  The S^{2,4} verdict on f (likewise g) reads
the parity of a in f = h^2 + 2a, which is the same for every lift h
of the mod-2 square root.
"""

from .errors import (
    BoundTooLargeError,
    CaseConflictError,
    CmWitnessError,
    DimensionMismatchError,
    HypothesisViolationError,
    InternalError,
    InternalVerificationError,
    LiftInvalidError,
    MalformedInputError,
    MalformedSequenceError,
    MissingCertificateError,
    NotClosedError,
    PolyParseError,
    RejectedInputError,
    SpanNotFreeError,
    UnknownVariableError,
    UnsupportedError,
    UnverifiedComplexError,
    WitnessMismatchError,
    WrongCaseError,
    ZeroInputError,
)
from .poly import (
    BaseRing,
    Poly,
    divide_exact,
    format_poly,
    is_divisible,
    is_even,
    parse_poly,
    partial_derivative,
    poly_dot,
    sqrt_f2,
    substitute_ints,
)
from .gcd import gcd_f2, gcd_many_q, gcd_q, gcd_z, is_ring_square
from .linalg import (
    PolyFraction,
    bareiss_rank,
    fraction_kernel,
    poly_det,
    solve_fraction_system,
    solve_in_S,
)
from .predicates import (
    QShape,
    S2Witness,
    S2w4Witness,
    decompose_S2,
    degree_four_check,
    ideal_Q_classify,
    in_S2wedge4,
    is_squarefree,
    product_in_S2wedge4,
    regular_sequence_certificate,
    satisfies_A1,
)
from .algebra import (
    AlgebraDesc,
    IdealGens,
    KElement,
    a_membership,
    admit_input,
    admit_pair,
    express_in_span,
    generator_products,
    in_colon,
    k_mul,
    make_algebra,
    span_closure_check,
)
from .homology import (
    FreeComplex,
    VerifiedComplex,
    be_exactness_check,
    check_composition_zero,
    generating_identities,
    kernel_saturation_check,
    minor_ideal_generators,
    pd_depth_report,
    resolution_of_I,
    resolution_of_S_mod_Q,
    standard_grade_certificates,
    verify_complex,
)
from .classifier import (
    CASE_A_BOTH,
    CASE_A_ONE,
    CASE_B,
    CASE_C_CM,
    CASE_C_NONCM_GRADE2,
    CASE_C_NONCM_GRADE3,
    CASE_TAGS,
    OUTSIDE_SCOPE,
    CmModuleCertificate,
    ConductorReport,
    GenericClaims,
    RingPresentation,
    build_R,
    build_small_cm_certificate,
    classify,
    conductor,
    generic_claims,
    presentation_complex,
    q_shape,
)
from .report import DEFAULT_OPTIONS, assemble_report, parse_job, render_json

__version__ = "0.1.0"
