"""hderlab: an exact-arithmetic workbench for associative algebras carrying
higher derivations — axiom verifiers, the coupled cochain complex and its
cohomology over the rationals, extension constructions classified by the
second cohomology, and truncated deformation machinery with obstruction
calculus."""

from .algebras import (
    Algebra, Bimodule, CheckReport, Violation, adjoint_bimodule,
    trivial_bimodule, verify_algebra,
)
from .cochain import (
    Cochain, CohomologyReport, MultiMap, NotACocycleError, cochain_dim,
    cochain_to_vector, cohomology, differential, differential_matrix,
    is_coboundary, matrix_to_multimap, multimap_to_matrix, preimage,
    vector_to_cochain, zero_cochain,
)
from .deform import (
    Deformation, ExtendOutcome, GaugeMap, TrivializeOutcome, apply_gauge,
    extend_deformation, extend_to, gauge_compose, gauge_inverse, infinitesimal,
    obstruction, product_multimap, trivial_deformation, trivialize,
    truncate_deformation, try_extend, verify_deformation,
)
from .exactlin import (
    BrokenComplexError, Matrix, ShapeError, kernel_basis, rank, rat, rat_str,
    solve_affine,
)
from .extensions import (
    ExtensionPair, SectionError, check_equivalence,
    classify_central, cocycle_from_section, equivalence_from_cochain,
    extension_from_cocycle, extension_structure, find_equivalence,
    semidirect, verify_bimodule,
)
from .freecons import (
    LieHDerPair, TruncatedTensorAlgebra, UniversalExtensionReport,
    build_tensor_algebra, commutator_liehder, induced_tensor_hder,
    universal_extension, verify_liehder,
)
from .hder import (
    AssHDerMorphism, AssHDerPair, HigherDerivation, check_morphism, inner_hder,
    ordinary_hder, polynomial_truncation, power_commutator_hder, stretch_hder,
    truncated_morphism_check, verify_hder,
)

__version__ = "0.1.0"
