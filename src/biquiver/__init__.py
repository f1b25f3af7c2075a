"""Exact toolkit for biquiver representations.

Biquivers are directed multigraphs whose full arrows carry linear maps and
dashed arrows semilinear ones. The package classifies representation type
(finite / tame / wild), analyzes the Tits form, enumerates roots, computes
morphism spaces exactly over the Gaussian rationals, tests isomorphism and
consimilarity with verified certificates, and produces Krull-Schmidt
decompositions.

`import biquiver` loads the graph layer alone: the names of `classify`,
`conjugation`, `errors`, `model`, `roots` and `tits` are bound here. `_LAZY`
is the one place that decides what loads later: it maps each name of
`linalg`, `scalars`, `representation`, `morphisms`, `gadgets` and
`semilinear` to its home module, which the module `__getattr__` imports on
first use; it reads the name from it on every access, from `sys.modules`
once loaded, and never copies it here, so a name replaced in its home
module, as by a tracer or a test's patch (or read by the CLI as
`bq.<name>`), reads as replaced, and as the original once put back.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .classify import RepKind, RepType, diagram_shape, representation_type
from .conjugation import (DashEliminationObstruction, DashEliminationPlan,
                          apply_conjugations, conjugate_biquiver, dash_elimination_plan)
from .errors import FormatError, PreconditionError, SingularMatrixError
from .model import (Arrow, ArrowKind, Biquiver, DimensionVector,
                    biquiver_to_obj, connected_components,
                    induced_subbiquiver, is_connected, parse_biquiver,
                    parse_biquiver_obj, serialize_biquiver)
from .roots import positive_root_count, roots_with_value
from .tits import (Definiteness, TitsGram, definiteness, evaluate,
                   gram_matrix, radical_vector)

__version__ = "0.1.0"

# The home module of each name resolved on first use, by its full name.
_LAZY = {name: f"{__name__}.{module}" for module, names in (
    ("gadgets", ("gadget_biquiver", "gadget_cycle", "gadget_g1", "gadget_g2",
                 "gadget_g3", "gadget_g4")),
    ("linalg", ("CMatrix", "block_diag", "from_blocks", "hstack", "vstack")),
    ("morphisms", ("Decomposition", "IndecomposabilityStatus", "IsoResult",
                   "MorphismBasis", "Verdict", "are_isomorphic", "decompose",
                   "hom_basis", "krull_schmidt_compare")),
    ("representation", ("MatrixRepresentation", "apply_base_change",
                        "apply_conjugations_representation", "conjugate_representation",
                        "direct_sum", "direct_sum_list", "matrix_to_obj", "parse_matrix_obj",
                        "parse_representation", "parse_representation_obj",
                        "random_representation", "representation_to_obj",
                        "serialize_representation", "transport_isomorphism",
                        "zero_representation")),
    ("scalars", ("GaussianRational", "gaussian")),
    ("semilinear", ("MapKind", "apply_map", "are_consimilar", "change_of_basis", "compose")),
) for name in names}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_LAZY))


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_sys.modules.get(home) or _import_module(home), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
