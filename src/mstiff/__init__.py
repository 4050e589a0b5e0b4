"""Exact decision procedures for stiff point configurations on spheres.

A degree-m stiff configuration is a finite weighted point set on the unit
sphere, supported on m parallel hyperplane sections, whose weighted moments
match the uniform measure through degree 2m - 1.  Everything here is exact:
rational arithmetic end to end, existence decided with a verified quadrature
certificate and nonexistence with a checkable witness (a non-integral
coefficient, a fractional Newton-polygon slope, an isolated irrational root,
or a proven degree threshold).
"""
__version__ = "0.1.0"

from .diophantine import (
    UnitElement,
    bounded_mordell_search,
    dims_for_degree4,
    dims_for_degree5,
    fundamental_unit,
    mordell_obstruction,
    pell_representatives,
)
from .gegenbauer import (
    QuadSurd,
    SymmetricQuadrature,
    closed_form_quadrature,
    moment,
    quadrature_from_node_squares,
)
from .render import render_table, table_rows
from .search import (
    classify_degree,
    classify_dimension,
    resolve_theorem_tag,
    theorem_tags,
    verify_theorem,
)
from .stiffness import (
    StiffCertificate,
    StiffVerdict,
    UndecidedError,
    n_upper_bound,
    s_coefficients,
    s_poly,
    stiff_exists,
)

__all__ = [
    "__version__",
    "UnitElement",
    "bounded_mordell_search",
    "dims_for_degree4",
    "dims_for_degree5",
    "fundamental_unit",
    "mordell_obstruction",
    "pell_representatives",
    "QuadSurd",
    "SymmetricQuadrature",
    "closed_form_quadrature",
    "moment",
    "quadrature_from_node_squares",
    "render_table",
    "table_rows",
    "classify_degree",
    "classify_dimension",
    "resolve_theorem_tag",
    "theorem_tags",
    "verify_theorem",
    "StiffCertificate",
    "StiffVerdict",
    "UndecidedError",
    "n_upper_bound",
    "s_coefficients",
    "s_poly",
    "stiff_exists",
]
