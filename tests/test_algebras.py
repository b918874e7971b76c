import random
from fractions import Fraction

import pytest

import hderlab as H
from hderlab import samples
from hderlab.exactlin import ShapeError

from helpers import rand_matrix


def test_dual_numbers_is_associative():
    assert H.verify_algebra(samples.dual_numbers()).ok


def test_product_of_fields_is_associative():
    assert H.verify_algebra(samples.product_of_fields()).ok


def test_matrix_algebra_fixtures():
    assert H.verify_algebra(samples.matrix_algebra_2x2()).ok
    assert H.verify_algebra(samples.matrix_units_with_unit()).ok


def test_truncated_polynomials():
    for n in (2, 3, 4):
        assert H.verify_algebra(samples.truncated_polynomials(n)).ok


def test_broken_product_is_caught():
    # make x absorb on the left (x*u = u): (x u) x = x but x (u x) = x x = 0
    d2 = samples.dual_numbers()
    table = [[list(inner) for inner in row] for row in d2.c]
    table[1][0] = [Fraction(1), Fraction(0)]
    broken = H.Algebra.from_table(table, labels=d2.basis_labels)
    report = H.verify_algebra(broken)
    assert not report.ok
    assert report.violation.law == "associativity"
    assert report.violation.at == (1, 0, 1)


def test_square_root_of_unit_is_associative():
    # x*x = u is the group algebra of Z/2: a valid algebra, not a violation
    d2 = samples.dual_numbers()
    table = [[list(inner) for inner in row] for row in d2.c]
    table[1][1] = [Fraction(1), Fraction(0)]
    assert H.verify_algebra(
        H.Algebra.from_table(table, labels=d2.basis_labels, unit_index=0)).ok


def test_unit_law_enforced_only_when_declared():
    z = samples.zero_algebra(2)
    assert H.verify_algebra(z).ok
    with_unit = H.Algebra.from_table(z.c, z.basis_labels, unit_index=0)
    report = H.verify_algebra(with_unit)
    assert not report.ok and "unit" in report.violation.law


def test_mult_matches_structure_constants():
    alg = samples.matrix_algebra_2x2()
    e12 = samples.matrix_unit_vector(1, 2)
    e21 = samples.matrix_unit_vector(2, 1)
    assert alg.mult(e12, e21) == samples.matrix_unit_vector(1, 1)
    assert alg.mult(e21, e12) == samples.matrix_unit_vector(2, 2)


def test_adjoint_bimodule_verifies():
    alg = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    mod = H.adjoint_bimodule(alg, hd)
    assert H.verify_bimodule(alg, hd, mod).ok
    assert mod.left == alg.c and mod.right == alg.c


def test_adjoint_bimodule_zero_derivation():
    qq = samples.product_of_fields()
    hd = H.HigherDerivation.zero(2, 2)
    mod = H.adjoint_bimodule(qq, hd)
    assert all(m.is_zero() for m in mod.dmaps)
    assert H.verify_bimodule(qq, hd, mod).ok


def test_trivial_bimodule_accepts_any_dmaps():
    rng = random.Random(77)
    alg = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    for mdim in (1, 2):
        mod = H.trivial_bimodule(alg, mdim, tuple(rand_matrix(rng, mdim) for _ in range(2)))
        assert H.verify_bimodule(alg, hd, mod).ok
    qq = samples.product_of_fields()
    qhd = H.HigherDerivation.zero(2, 2)
    mod = H.trivial_bimodule(qq, 2, tuple(rand_matrix(rng, 2) for _ in range(2)))
    assert H.verify_bimodule(qq, qhd, mod).ok


def test_corrupted_module_map_is_caught():
    alg = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    mod = H.adjoint_bimodule(alg, hd)
    broken = H.Bimodule(mod.mdim, mod.int_form, (H.Matrix.identity(2), mod.dmaps[1]))
    report = H.verify_bimodule(alg, hd, broken)
    assert not report.ok
    assert "derivation law" in report.violation.law


def test_bimodule_shape_errors():
    alg = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    mod = H.adjoint_bimodule(alg, hd)
    with pytest.raises(ShapeError):
        H.verify_bimodule(alg, H.HigherDerivation.zero(2, 3), mod)
    with pytest.raises(ShapeError):
        H.Bimodule(2, mod.int_form, (H.Matrix.zeros(1, 1), H.Matrix.zeros(2, 2)))


def test_adjoint_construction_verifies_on_all_fixtures():
    from helpers import pair_fixtures
    for name, alg, hd in pair_fixtures():
        assert H.verify_bimodule(alg, hd, H.adjoint_bimodule(alg, hd)).ok, name
