"""Exact toolkit for biquiver representations.

Biquivers are directed multigraphs whose full arrows carry linear maps and
dashed arrows semilinear ones. The package classifies representation type
(finite / tame / wild), analyzes the Tits form, enumerates roots, computes
morphism spaces exactly over the Gaussian rationals, tests isomorphism and
consimilarity with verified certificates, and produces Krull-Schmidt
decompositions.
"""

from .classify import RepKind, RepType, diagram_shape, representation_type
from .conjugation import (DashEliminationObstruction, DashEliminationPlan,
                          apply_conjugations,
                          apply_conjugations_representation,
                          conjugate_biquiver, conjugate_representation,
                          dash_elimination_plan, transport_isomorphism)
from .errors import FormatError, PreconditionError, SingularMatrixError
from .gadgets import (gadget_biquiver, gadget_cycle, gadget_g1, gadget_g2,
                      gadget_g3, gadget_g4)
from .linalg import CMatrix, block_diag, from_blocks, hstack, vstack
from .model import (Arrow, ArrowKind, Biquiver, DimensionVector,
                    biquiver_to_obj, connected_components,
                    induced_subbiquiver, is_connected, parse_biquiver,
                    parse_biquiver_obj, serialize_biquiver)
from .morphisms import (Decomposition, IndecomposabilityStatus, IsoResult,
                        MorphismBasis, Verdict, are_isomorphic, decompose,
                        hom_basis, krull_schmidt_compare)
from .representation import (MatrixRepresentation, apply_base_change,
                             direct_sum, direct_sum_list, matrix_to_obj,
                             parse_matrix_obj, parse_representation,
                             parse_representation_obj, random_representation,
                             representation_to_obj, serialize_representation,
                             zero_representation)
from .roots import positive_root_count, roots_with_value
from .scalars import GaussianRational, gaussian
from .semilinear import (MapKind, apply_map, are_consimilar, change_of_basis,
                         compose)
from .tits import (Definiteness, TitsGram, definiteness, evaluate,
                   gram_matrix, radical_vector)

__version__ = "0.1.0"
