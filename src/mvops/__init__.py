"""Multivariate orthogonal polynomial systems and their linear relations.

Build orthogonal systems from moment functionals, extract and validate
vector three-term recurrences, compute the two-term linear structure
relation between systems, and verify the rank and compatibility
characterizations on a catalog of concrete families.
"""

from .construct import (GramBlocks, NotPositiveDefiniteError, PolySystem,
                        QuasiDefiniteFailure, RhoMap, gram_blocks, gram_offdiag_residual,
                        gram_schmidt_monic, inner_block, koornwinder_system,
                        orthonormalize)
from .indexing import GradedBasis, basis_for, enumerate_indices, joint_matrix, rank_count
from .linrel import (LinearRelation, classify_ranks, combined_from_reference,
                     compute_relation, counterexample, functional_match_residual,
                     recover_lambda, reference_from_combined, relation_residual,
                     verify_mh)
from .moments import (LinearPoly, MomentFunctional, Recurrence1D,
                      chebyshev_functional_1d, cube_jacobi_functional,
                      disk_functional, jacobi_functional_1d,
                      koornwinder_symmetrized_functional,
                      krall_jacobi_functional, krall_laguerre_functional,
                      laguerre_functional_1d, left_multiply,
                      multiple_laguerre_functional, parse_functional,
                      product_chebyshev_functional, simplex_functional, tensor)
from .ttr import (ThreeTermData, compute_ttr, fit_ttr, generate_from_ttr,
                  validate_rank_conditions)

__version__ = "0.1.0"
