"""What a call imports, the lazy package namespace, and the value classes.

A ``check`` call in a fresh interpreter must not import the deformation or
free-construction modules, nor ``dataclasses``; every name the package
exported when it imported all of its modules must still resolve, to the
object its module holds; and each value class must behave as the frozen
dataclass it was written as (``helpers.dataclass_twin``) on ==, hash, repr,
defaults and keyword construction, refusing assignment.
"""

import dataclasses
import json
import random
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import hderlab as H
from hderlab import samples
from hderlab.exactlin import ONE, ZERO, Value
from hderlab.serialize import parse_algebra, parse_deformation, parse_hder

from helpers import DATACLASS_FIELDS, dataclass_twin, rand_cochain, rand_gauge, rand_multimap

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(H.__file__).resolve().parent.parent)

# Every name hderlab/__init__.py exported when it imported every module.
EXPORTS = {
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

_CHECK_CALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hderlab
before = sorted(m for m in sys.modules if m.startswith("hderlab."))
from hderlab import cli
code = cli.main(["check", sys.argv[2], "--json"])
loaded = [m for m in ("hderlab.deform", "hderlab.freecons", "dataclasses")
          if m in sys.modules]
print(json.dumps({"code": code, "before": before, "loaded": loaded}), file=sys.stderr)
"""


def test_check_call_imports_only_its_modules():
    proc = subprocess.run([sys.executable, "-c", _CHECK_CALL, SRC, str(FIXTURES / "dual_pair.json")],
                          capture_output=True, text=True, timeout=60)
    status = json.loads(proc.stderr.splitlines()[-1])
    assert status == {"code": 0, "before": [], "loaded": []}, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names.split()])
def test_exported_name_is_its_module_attribute(module, name):
    namespace: dict = {}
    exec(f"from hderlab import {name}", namespace)
    assert namespace[name] is getattr(import_module(f"hderlab.{module}"), name)
    assert getattr(H, name) is namespace[name]
    assert name in H.__all__ and name in dir(H)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        H.nonesuch  # noqa: B018
    assert sorted(H.__all__) == sorted([*(n for names in EXPORTS.values() for n in names.split()),
                                        "__version__"])


def _instances() -> dict:
    """Two or three instances of every value class, not all equal, and one
    equal to the first but built apart."""
    rng = random.Random(25)
    dual, p3 = samples.dual_numbers(), samples.truncated_polynomials(3)
    hd2, hd3 = samples.dual_numbers_hder(2), samples.dual_numbers_hder(3)
    adj = H.adjoint_bimodule(dual, hd2)
    triv = H.trivial_bimodule(dual, 1, (H.Matrix.zeros(1, 1),) * 2)
    doc = json.loads((FIXTURES / "dual_deform.json").read_text())
    alg = parse_algebra(doc["algebra"])
    hd = parse_hder(doc["hder"], alg.dim)
    defm = parse_deformation(doc["deformation"], alg.dim, hd.rank)
    pair = H.AssHDerPair(dual, hd2)
    extended = H.try_extend(alg, hd, defm)
    assert extended.candidate is not None
    ext = H.extension_from_cocycle(dual, hd2, triv, H.zero_cochain(2, 1, 2, 2))
    m2 = samples.matrix_algebra_2x2()
    m2_hd = H.power_commutator_hder(m2, samples.matrix_unit_vector(1, 2), 2)
    half = Fraction(1, 2)
    return {
        H.Violation: [H.Violation("associativity", (0, 1, 2), (ONE,), (ZERO,)),
                      H.Violation("unit", (1,)), H.Violation("associativity", (0, 1, 2), (ONE,), (ZERO,))],
        H.CheckReport: [H.CheckReport.passed(), H.CheckReport.failed("unit", (1, 0), (half,), (ONE,)),
                        H.CheckReport(True)],
        H.Algebra: [dual, p3, samples.dual_numbers()],
        H.Bimodule: [adj, triv, H.adjoint_bimodule(samples.dual_numbers(), hd2)],
        H.MultiMap: [H.MultiMap.zero(2, 2, 1), rand_multimap(rng, 2, 2, 1), H.MultiMap.zero(2, 2, 1)],
        H.Cochain: [H.zero_cochain(2, 1, 2, 2), rand_cochain(rng, 2, 1, 2, 2), H.zero_cochain(2, 1, 2, 2)],
        H.CohomologyReport: [H.cohomology(dual, adj, hd2, 2), H.cohomology(dual, adj, hd2, 1),
                             H.cohomology(samples.dual_numbers(), adj, hd2, 2)],
        H.Deformation: [H.trivial_deformation(alg, hd, 1), defm, H.trivial_deformation(alg, hd, 1)],
        H.GaugeMap: [H.GaugeMap(0, (H.Matrix.identity(2),)), rand_gauge(rng, 2, 1),
                     H.GaugeMap(0, (H.Matrix.identity(2),))],
        H.ExtendOutcome: [H.ExtendOutcome(None, extended.obstruction), extended,
                          H.ExtendOutcome(None, extended.obstruction)],
        H.TrivializeOutcome: [H.TrivializeOutcome(None, 1, H.zero_cochain(2, 2, 2, 2)),
                              H.trivialize(alg, hd, defm),
                              H.TrivializeOutcome(gauge=None, blocked_order=1,
                                                  blocking_class=H.zero_cochain(2, 2, 2, 2))],
        H.ExtensionPair: [ext, H.extension_from_cocycle(dual, hd2, adj, H.zero_cochain(2, 2, 2, 2)),
                          H.extension_from_cocycle(dual, hd2, triv, H.zero_cochain(2, 1, 2, 2))],
        H.TruncatedTensorAlgebra: [H.build_tensor_algebra(1, 2), H.build_tensor_algebra(2, 2),
                                   H.build_tensor_algebra(1, 2)],
        H.LieHDerPair: [H.commutator_liehder(m2, m2_hd), H.commutator_liehder(dual, hd2),
                        H.commutator_liehder(m2, m2_hd)],
        H.UniversalExtensionReport: [
            H.UniversalExtensionReport(True, None, H.Matrix.identity(2), "mapped-to-unit"),
            H.UniversalExtensionReport(False, H.Violation("unit", (0,)), H.Matrix.zeros(2, 2),
                                       "degree-zero-skipped"),
            H.UniversalExtensionReport(True, None, H.Matrix.identity(2), "mapped-to-unit")],
        H.HigherDerivation: [hd2, hd3, samples.dual_numbers_hder(2)],
        H.AssHDerPair: [pair, H.AssHDerPair(dual, hd3), H.AssHDerPair(samples.dual_numbers(), hd2)],
        H.AssHDerMorphism: [H.AssHDerMorphism(pair, pair, H.Matrix.identity(2)),
                            H.AssHDerMorphism(pair, pair, H.Matrix.zeros(2, 2)),
                            H.AssHDerMorphism(pair, pair, H.Matrix.identity(2))],
    }


INSTANCES = _instances()


def test_every_value_class_is_covered():
    assert set(INSTANCES) == set(Value.__subclasses__())
    assert {cls.__name__ for cls in INSTANCES} == set(DATACLASS_FIELDS)


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_value_class_matches_its_dataclass_twin(cls):
    twin = dataclass_twin(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    assert cls._defaults == {f.name: f.default for f in dataclasses.fields(twin)
                             if f.default is not dataclasses.MISSING}
    objs = INSTANCES[cls]
    assert objs[0] == objs[-1] and objs[0] != objs[1] and objs[0] is not objs[-1]
    twins = []
    for x in objs:
        values = {name: getattr(x, name) for name in cls._fields}
        t = twin(**values)
        twins.append(t)
        assert repr(x) == repr(t)
        assert hash(x) == hash(t)
        assert cls(**values) == x == cls(*values.values())
        required = {name: v for name, v in values.items() if name not in cls._defaults}
        assert repr(cls(**required)) == repr(twin(**required))
        assert (x == object()) is (t == object()) is False
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
    if "__eq__" in vars(cls):  # CohomologyReport: its own ==, as under eq=False
        return
    for x, tx in zip(objs, twins):
        for y, ty in zip(objs, twins):
            assert (x == y) is (tx == ty) and (x != y) is (tx != ty)


def test_value_class_rejects_bad_arguments_like_a_dataclass():
    # __post_init__ runs after positional, keyword and default construction
    one = H.MultiMap.zero(1, 1, 1)
    for build in (lambda: H.MultiMap(0, 1, 1, ()), lambda: H.MultiMap(arity=0, dim=1, mdim=1, values=()),
                  lambda: H.Cochain.from_maps(one, (one,)), lambda: H.Algebra.from_table([[[ONE]]], ())):
        with pytest.raises(H.ShapeError):
            build()
    for args, kwargs in [((), {}), ((True, None, 3), {}), ((True,), {"ok": True}),
                         ((), {"violation": None}), ((True,), {"nonesuch": 1})]:
        with pytest.raises(TypeError):
            H.CheckReport(*args, **kwargs)
        with pytest.raises(TypeError):
            dataclass_twin(H.CheckReport)(*args, **kwargs)
