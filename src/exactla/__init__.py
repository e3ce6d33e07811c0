"""Exact linear algebra over pluggable computable fields.

Division-minimized characteristic polynomials and determinants, a
rank/solve/kernel suite that works through rational-function fields,
arithmetic circuits with division elimination, and the classical
linear-algebra-method bounds from extremal combinatorics.
"""

from .errors import (CapExceeded, CertificateFailed, DimensionMismatch,
                     DivisionByZero, ExactLAError, IndexOutOfRange,
                     InvalidInput, MalformedInput, NonSquare, NotLIntersecting,
                     PreconditionViolated, ScaleExceeded, SingularMatrix,
                     SizeExceeded, SystemUnsolvable, Unsolvable,
                     ZeroDenominator, ZeroMatrix)
from .field import GF2, GF3, QQ, Field, PrimeField, Rationals, Ring
from .matrix import Matrix, mat_vec
from .poly import (NEG_INF, Polynomial, PolynomialRing, PolyMatrix,
                   conv_matrix, distinct_point_witness, poly_mul, subst)
from .ratfunc import (RationalFunction, RationalFunctionField, RatMatrixCode,
                      poly_divmod, poly_gcd, rat_matrix_pow,
                      to_common_denominator)
from .charpoly import CharPoly, adjugate, charpoly, det, inverse, quasi_inverse
from .rank import (BasisSelection, MinorSelection, RankReport, count_nonzero,
                   decompose, greedy_basis, iota, kernel_basis,
                   max_nonsingular_minor, mulmuley_rank, polize, rank,
                   solvable, solve, symm)
from .circuit import (add, const, div, evaluate, eval_direct, format_sexpr,
                      gate_count, is_division_free, mul, num_den, parse_sexpr,
                      var, variables)
from .combinatorics import (Graph, SetFamily, SymmetricPolySpec, binom,
                            binom_table, clique_number, fisher_check,
                            graham_pollak_check, grolmusz_graph,
                            independence_number, lincoeff, oddtown_check,
                            or_poly_mod_pe, ramsey_check, rcw_verify,
                            subset_rank, subset_unrank, subsets_up_to)
from .rng import SplitMix64

__version__ = "0.1.0"
