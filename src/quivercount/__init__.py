"""Exact point counting for quiver representation spaces over small
finite fields: slope stability, Harder-Narasimhan filtrations and
strata, stratum counting polynomials and purity-signature fitting."""

from .counting import (StratumFormula, coprime_witness, first_piece_factor,
                       moduli_count_poly, rep_count_poly,
                       semistable_count_poly, semistable_count_polys,
                       stratum_count_poly, stratum_formula, torsor_orbit_count)
from .errors import (BudgetExceeded, CoprimalityError, ProblemParseError,
                     QuiverCountError, TheoremViolation)
from .exhaustive import (ScanClassifier, classify_direct, classify_scan,
                         count_hn_filtrations)
from .ffield import FieldTable, PrimePower, field_table, make_field, prime_power
from .polynomial import CountPolynomial, InexactDivisionError
from .purity import (CountSamples, PurityReport, interpolate_poly,
                     strong_purity_check, weak_purity_periodic_fit)
from .quiver import (Quiver, gl_order, gl_order_poly, group_order_poly,
                     kronecker, nonzero_subvectors, pg_order, rep_space_dim,
                     slope, total_dim)
from .rep import (Filtration, RepSpace, Representation, SubspaceTuple,
                  associated_graded, enumerate_reps, enumerate_subreps,
                  enumerate_subspaces, is_subrep, pullback, quotient_rep,
                  sub_rep)
from .stability import (SEMISTABLE, SEMISTABLE_NOT_STABLE, STABLE, UNSTABLE,
                        StabilityVerdict, hn_filtration, is_semistable,
                        is_stable, maximal_destabilizing)
from .strata import HNType, StratumTable, enumerate_hn_types, trivial_type

__version__ = "0.1.0"
