"""Exact generalized Stirling/Eulerian triangles and operator ordering
identities, verified over the rational Weyl algebra.

Everything is exact: entries are integers or Fractions, verification is
symbolic (monomial action plus string rewriting), and no floating point is
used anywhere.
"""

from .kernels import (
    as_rational,
    binomial,
    binomial_general,
    falling,
    rising,
    strided_falling,
    strided_rising,
    hyp2f1_hat,
)
from .poly import ALPHA, BETA, R, ParamPoly
from .triangles import (
    KINDS,
    Triangle,
    build_recurrence,
    symbolic_triangle,
    entry_by_sum,
    triangle_by_sum,
    triangle_by_transform,
    triangle_by_decomposition,
    decompose_classical,
    binomial_transform,
    shat_from_s_row,
    triangle_product,
    identity_triangle,
    vandermonde_ldu_check,
    reflection_check,
    stirling_subset,
    stirling_cycle,
    CLOSED_FORM_FAMILIES,
    closed_form,
    closed_form_params,
    row_polynomial_euler,
    shift_r,
    ConjectureCell,
    ConjectureReport,
    conjecture_check,
)
from .egf import egf_coefficients
from .oracles import COMBINATORIAL_TAGS, combinatorial_oracle
from .operators import (
    MixedExcessError,
    OperatorExpr,
    Word,
    WordPower,
    XPower,
)
from .boson import MAX_STRING_LENGTH, normal_order_oracle
from .identities import (
    TEMPLATES,
    TEMPLATE_ORDER,
    IdentityTemplate,
    TemplateInstance,
    VacuousRunError,
    VerifyReport,
    templates_matching,
    verify_identity,
    normal_form,
    wc_admissibility_check,
    AdmissibilityReport,
    hermite_identity_check,
    ttv_check,
    adjoint_pairing_check,
)
from .fixtures import FIXTURES, Fixture, fixture_triangle, check_fixture

__version__ = "0.1.0"
