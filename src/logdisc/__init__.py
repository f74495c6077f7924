"""Exact discriminants, logarithmic vector fields, trace forms and Euler
characteristics for versal deformations of isolated singularities."""

from .poly import Polynomial, VarTable
from .parse import parse_poly, PolyParseError
from .matrix import PolyMatrix, det_bareiss, discriminant
from .groebner import (ParamIdeal, GroebnerBasis, QuotientBasis,
                       ReductionCertificate, buchberger, reduce_poly,
                       standard_basis, coordinates, NonConstantScaleError,
                       InfiniteQuotientError)
from .ci import (CISpec, CITables, GMCoefficients, minor_ideal, ci_tables,
                 gm_coefficients, ci_weights, hyper_to_ci,
                 NotQuasihomogeneousError)
from .hyper import (DeformationSpec, WeightSystem, TraceForms,
                    derive_weights, mul_tables, log_matrix, trace_forms,
                    maxwell_bifurcation)
from .inertia import (SymMatrixQ, InertiaTriple, ChiReport, inertia,
                      critical_count, euler_characteristics,
                      DegeneratePointError)
from .oracle import (CriticalPointReport, GridChi, find_critical_points,
                     grid_euler)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
