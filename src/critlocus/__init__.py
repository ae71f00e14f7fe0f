"""critlocus: exact symbolic engine for derived critical loci.

Materializes the derived critical locus of a polynomial functional as a
Koszul differential graded algebra over the rationals and decides its
concrete claims: regular-sequence equivalence with the strict locus,
Hessian non-degeneracy, the inverse-Hessian fibration map at rational
points, and the shifted-cotangent comparison for smooth critical families.
"""

__version__ = "0.1.0"

from .polynomials import (
    ArityError,
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    ParseError,
    parse_polynomial,
)
from .groebner import (
    GroebnerBasis,
    NotZeroDimensional,
    buchberger,
    hilbert_function,
    is_unit_mod,
    is_zero_dimensional,
    krull_dimension,
    normal_form,
    quotient_basis,
)
from .linalg import PolyMatrix
from .koszul import (
    BoundTooSmall,
    CdgaElement,
    FormElement,
    HomologyReport,
    KoszulComplex,
    de_rham_and_internal,
    default_homology_bound,
    homology_representatives,
    koszul_differential,
    koszul_homology,
)
from .critical import (
    INFINITE,
    CriticalPointReport,
    EngineError,
    LambdaVerdict,
    PhiComparisonReport,
    SplittingData,
    SplittingError,
    build_crit,
    fat_point_signal,
    hessian,
    lambda_equivalence_verdict,
    milnor_number,
    normal_hessian,
    phi_comparison,
    point_report,
    validate_splitting,
)
from .symplectic import (
    omega_minus_one,
    one_form_closed,
    zero_locus_one_form,
)
