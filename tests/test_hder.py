import random
from fractions import Fraction

import pytest

import hderlab as H
from hderlab import samples

from helpers import derivative_matrix, mat_add, pair_fixtures, rand_matrix


def test_ordinary_on_dual_numbers_matches_hand_values():
    hd = samples.dual_numbers_hder(2)
    assert hd.maps[0] == H.Matrix.from_rows([[0, 0], [0, 1]])
    assert hd.maps[1] == H.Matrix.from_rows([[0, 0], ["0", "1/2"]])
    assert H.verify_hder(samples.dual_numbers(), hd).ok


def test_ordinary_zero_derivation():
    qq = samples.product_of_fields()
    hd = H.ordinary_hder(qq, H.Matrix.zeros(2, 2), 3)
    assert all(m.is_zero() for m in hd.maps)


def test_divided_powers_on_truncated_polynomials():
    p3 = samples.truncated_polynomials(3)
    d1 = samples.euler_matrix(3)
    hd = H.ordinary_hder(p3, d1, 3)
    assert H.verify_hder(p3, hd).ok
    # d_2 = (x d/dx)^2 / 2 sends x^2 to 2 x^2
    assert hd.maps[1].column(2) == (Fraction(0), Fraction(0), Fraction(2))


def test_plain_derivative_does_not_survive_truncation():
    # d/dx fails the product rule on x * x^2 in the truncation, so the
    # ordinary constructor must refuse it
    p3 = samples.truncated_polynomials(3)
    with pytest.raises(ValueError, match="not a derivation"):
        H.ordinary_hder(p3, derivative_matrix(3), 2)


def test_ordinary_rejects_non_derivation():
    with pytest.raises(ValueError, match="not a derivation"):
        H.ordinary_hder(samples.dual_numbers(), H.Matrix.identity(2), 2)


def test_all_zero_maps_always_verify():
    for _, alg, _ in pair_fixtures():
        assert H.verify_hder(alg, H.HigherDerivation.zero(alg.dim, 2)).ok


def test_identity_map_fails_at_first_pair():
    report = H.verify_hder(samples.dual_numbers(),
                           H.HigherDerivation(1, (H.Matrix.identity(2),)))
    assert not report.ok
    assert report.violation.at == (1, 0, 0)


def test_single_slot_derivation_sequence():
    # a derivation placed at one slot with zeros elsewhere is a valid sequence
    d2 = samples.dual_numbers()
    d1 = H.Matrix.from_rows([[0, 0], [0, 1]])
    for slot in (1, 2, 3):
        maps = [H.Matrix.zeros(2, 2)] * 3
        maps[slot - 1] = d1
        assert H.verify_hder(d2, H.HigherDerivation(3, tuple(maps))).ok


def test_first_map_of_verified_sequence_is_derivation():
    for _, alg, hd in pair_fixtures():
        assert H.verify_hder(alg, H.HigherDerivation(1, (hd.maps[0],))).ok


def test_power_commutator_on_commutative_algebra_is_zero():
    d2 = samples.dual_numbers()
    hd = H.power_commutator_hder(d2, (Fraction(2), Fraction(-1)), 3)
    assert all(m.is_zero() for m in hd.maps)


def test_power_commutator_on_matrices():
    m2 = samples.matrix_algebra_2x2()
    for p, q in ((1, 1), (1, 2)):
        x = samples.matrix_unit_vector(p, q)
        hd = H.power_commutator_hder(m2, x, 3)
        assert H.verify_hder(m2, hd).ok
    hd = H.power_commutator_hder(m2, samples.matrix_unit_vector(1, 1), 2)
    assert not hd.maps[0].is_zero()


def test_power_commutator_on_central_element_is_zero():
    m2u = samples.matrix_units_with_unit()
    hd = H.power_commutator_hder(m2u, m2u.unit_vector(), 2)
    assert all(m.is_zero() for m in hd.maps)


def test_stretch_identity_step():
    hd = samples.dual_numbers_hder(3)
    assert H.stretch_hder(hd, 1) == hd


def test_stretch_respacing_values():
    hd = samples.dual_numbers_hder(2)
    stretched = H.stretch_hder(hd, 2)
    assert stretched.maps[0].is_zero()
    assert stretched.maps[1] == hd.maps[0]
    assert H.verify_hder(samples.dual_numbers(), stretched).ok


def test_stretch_preserves_validity():
    for _, alg, hd in pair_fixtures():
        for q in range(1, hd.rank + 1):
            assert H.verify_hder(alg, H.stretch_hder(hd, q)).ok


def test_stretch_range_check():
    hd = samples.dual_numbers_hder(2)
    with pytest.raises(ValueError):
        H.stretch_hder(hd, 3)
    with pytest.raises(ValueError):
        H.stretch_hder(hd, 0)


def test_inner_zero_tails():
    m2u = samples.matrix_units_with_unit()
    zero4 = (Fraction(0),) * 4
    hd = H.inner_hder(m2u, [zero4, zero4], [zero4, zero4])
    assert all(m.is_zero() for m in hd.maps)


def test_inner_nilpotent_family():
    m2u = samples.matrix_units_with_unit()
    e12 = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    zero4 = (Fraction(0),) * 4
    hd = H.inner_hder(m2u, [e12, zero4], [tuple(-v for v in e12), zero4])
    assert H.verify_hder(m2u, hd).ok
    assert not hd.maps[0].is_zero()


def test_inner_precondition_failure():
    m2u = samples.matrix_units_with_unit()
    zero4 = (Fraction(0),) * 4
    e11 = (Fraction(1), Fraction(0), Fraction(0), Fraction(-1))  # I - E22
    with pytest.raises(ValueError, match="n=1"):
        H.inner_hder(m2u, [e11], [zero4])


def test_inner_requires_unit():
    with pytest.raises(ValueError, match="unital"):
        H.inner_hder(samples.zero_algebra(2), [(Fraction(0),) * 2], [(Fraction(0),) * 2])


def test_truncated_morphism_route_agrees_on_fixtures():
    for name, alg, hd in pair_fixtures():
        assert H.truncated_morphism_check(alg, hd).ok, name


def test_truncated_morphism_route_agrees_on_corruptions():
    rng = random.Random(1234)
    for _, alg, hd in pair_fixtures():
        for _ in range(3):
            maps = list(hd.maps)
            k = rng.randrange(len(maps))
            maps[k] = mat_add(maps[k], rand_matrix(rng, alg.dim))
            cand = H.HigherDerivation(hd.rank, tuple(maps))
            assert H.verify_hder(alg, cand).ok == H.truncated_morphism_check(alg, cand).ok


def test_zero_maps_pass_morphism_route():
    d2 = samples.dual_numbers()
    assert H.truncated_morphism_check(d2, H.HigherDerivation.zero(2, 2)).ok


def test_polynomial_truncation_is_associative():
    d2 = samples.dual_numbers()
    big = H.polynomial_truncation(d2, 2)
    assert big.dim == 6
    assert H.verify_algebra(big).ok


def test_check_morphism_identity_and_zero():
    d2 = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    pair = H.AssHDerPair(d2, hd)
    assert H.check_morphism(H.AssHDerMorphism(pair, pair, H.Matrix.identity(2))).ok
    assert H.check_morphism(H.AssHDerMorphism(pair, pair, H.Matrix.zeros(2, 2))).ok


def test_check_morphism_scaling_example():
    # f = diag(1, 2) is an algebra endomorphism of the dual numbers
    # intertwining the ordinary sequence
    d2 = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    pair = H.AssHDerPair(d2, hd)
    f = H.Matrix.from_rows([[1, 0], [0, 2]])
    assert H.check_morphism(H.AssHDerMorphism(pair, pair, f)).ok


def test_check_morphism_catches_non_morphism():
    d2 = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    pair = H.AssHDerPair(d2, hd)
    f = H.Matrix.from_rows([[1, 1], [0, 1]])
    report = H.check_morphism(H.AssHDerMorphism(pair, pair, f))
    assert not report.ok
