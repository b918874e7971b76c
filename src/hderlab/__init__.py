"""hderlab: an exact-arithmetic workbench for associative algebras carrying
higher derivations — axiom verifiers, the coupled cochain complex and its
cohomology over the rationals, extension constructions classified by the
second cohomology, and truncated deformation machinery with obstruction
calculus.  Each public name loads its module on first use (a module
``__getattr__``, PEP 562), so a process imports only the modules it reads."""

from importlib import import_module

_EXPORTS = {
    "algebras": "Algebra Bimodule CheckReport Violation adjoint_bimodule trivial_bimodule "
                "verify_algebra",
    "cochain": "Cochain CohomologyReport MultiMap NotACocycleError cochain_dim cochain_to_vector "
               "cohomology differential differential_matrix is_coboundary matrix_to_multimap "
               "multimap_to_matrix preimage vector_to_cochain zero_cochain",
    "deform": "Deformation ExtendOutcome GaugeMap TrivializeOutcome apply_gauge extend_deformation "
              "extend_to gauge_compose gauge_inverse infinitesimal obstruction product_multimap "
              "trivial_deformation trivialize truncate_deformation try_extend verify_deformation",
    "exactlin": "BrokenComplexError Matrix ShapeError kernel_basis rank rat rat_str solve_affine",
    "extensions": "ExtensionPair SectionError check_equivalence classify_central "
                  "cocycle_from_section equivalence_from_cochain extension_from_cocycle "
                  "extension_structure find_equivalence semidirect verify_bimodule",
    "freecons": "LieHDerPair TruncatedTensorAlgebra UniversalExtensionReport build_tensor_algebra "
                "commutator_liehder induced_tensor_hder universal_extension verify_liehder",
    "hder": "AssHDerMorphism AssHDerPair HigherDerivation check_morphism inner_hder ordinary_hder "
            "polynomial_truncation power_commutator_hder stretch_hder truncated_morphism_check "
            "verify_hder",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
