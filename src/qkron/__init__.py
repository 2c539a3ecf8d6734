"""Exact rank-2 quantum cluster computations for r-arrow Kronecker quivers.

Two independent routes to the cluster variables (a quantum-torus recursion
and a lattice-path family expansion), extraction of quiver-Grassmannian
polynomials, stratification transforms with closed forms, and a finite-field
point-counting oracle.
"""

from .cluster import GrTable, assemble_xvar, gr_table, xvar_recursive
from .dyck import Color, DyckPath, build_dyck, classify, render_ascii, slope_exceeds
from .errors import (
    AmbiguousGreenLabel,
    BudgetExceeded,
    ConstructionFailed,
    DivisionFailed,
    ExhaustivenessViolation,
    ExtractionFailed,
    IndexOutOfRange,
    InvalidParameter,
    NonIntegralEvaluation,
    NotAPowerSeriesInQr,
    NotSupported,
    QkronError,
)
from .families import (
    Family,
    SingleEdge,
    Subpath,
    count_families,
    edge_weight,
    enumerate_families,
    family_degrees,
    family_term,
    path_elements,
    xvar_enum,
)
from .fforacle import FFModule, build_module, count_gr, count_strata, end_dim
from .qlaurent import QLaurent, c_sequence, dim_vector, q_binomial, q_int
from .strata import (
    StrataTable,
    closed_gr_m6,
    closed_zbar_m6,
    euler_char,
    gr_from_strata,
    q_binomial_matrix,
    strata_from_gr,
    transform_matrix,
)
from .torus import TorusElement, left_divide, word_to_torus

__version__ = "0.1.0"
