import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hderlab as H
from hderlab import samples

from helpers import oracle_induced_tensor_hder, pair_fixtures, rand_matrix, word_index


def test_tensor_algebra_basis_order_and_unit():
    tta = H.build_tensor_algebra(2, 2)
    assert tta.words == ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))
    assert tta.algebra.unit_index == 0
    assert tta.algebra.basis_labels[0] == "1"
    assert "⊗" in tta.algebra.basis_labels[3]
    assert H.verify_algebra(tta.algebra).ok


def test_overflow_products_vanish():
    tta = H.build_tensor_algebra(2, 2)
    i = word_index(tta, (0, 1))
    j = word_index(tta, (1,))
    assert all(not x for x in tta.algebra.basis_product(i, j))


def test_rank_one_induced_is_leibniz():
    lam = Fraction(7, 2)
    tta, hd = H.induced_tensor_hder(1, 2, (H.Matrix(1, 1, (lam,)),))
    vv = word_index(tta, (0, 0))
    assert hd.maps[0].entry(vv, vv) == 2 * lam


def test_rank_two_induced_hand_value():
    lam, mu = Fraction(3), Fraction(-1, 2)
    tta, hd = H.induced_tensor_hder(1, 2, (H.Matrix(1, 1, (lam,)), H.Matrix(1, 1, (mu,))))
    vv = word_index(tta, (0, 0))
    assert hd.maps[1].entry(vv, vv) == 2 * mu + lam * lam
    assert H.verify_hder(tta.algebra, hd).ok


def test_induced_maps_preserve_degree():
    rng = random.Random(31)
    tta, hd = H.induced_tensor_hder(2, 3, tuple(rand_matrix(rng, 2) for _ in range(2)))
    by_len = {}
    for i, w in enumerate(tta.words):
        by_len[i] = len(w)
    for mat in hd.maps:
        for j, w in enumerate(tta.words):
            col = mat.column(j)
            for i, x in enumerate(col):
                if x:
                    assert by_len[i] == len(w)


def test_induced_vanishes_on_empty_word():
    rng = random.Random(32)
    tta, hd = H.induced_tensor_hder(2, 2, tuple(rand_matrix(rng, 2) for _ in range(3)))
    for mat in hd.maps:
        assert all(not x for x in mat.column(0))


@st.composite
def _tensor_cases(draw):
    """vdim <= 2 with at most 7 words (degree <= 6 on a line, <= 2 on a
    plane) and 1 to 4 maps, each zero or with mostly-zero Fraction entries."""
    vdim = draw(st.integers(1, 2))
    degree = draw(st.integers(1, 6 if vdim == 1 else 2))
    entries = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=-3, max_value=3, max_denominator=4))
    theta = st.one_of(
        st.just(H.Matrix.zeros(vdim, vdim)),
        st.lists(entries, min_size=vdim * vdim, max_size=vdim * vdim).map(
            lambda xs: H.Matrix(vdim, vdim, tuple(xs))))
    return vdim, degree, tuple(draw(st.lists(theta, min_size=1, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(_tensor_cases())
@example((1, 6, (H.Matrix.zeros(1, 1),) * 4))
@example((2, 2, (H.Matrix.from_rows([[1, 2], [0, -1]]), H.Matrix.zeros(2, 2),
                 H.Matrix.from_rows([[Fraction(1, 3), 0], [Fraction(-1, 2), 1]]))))
def test_induced_recursion_matches_composition_sum(case):
    vdim, degree, thetas = case
    tta, hd = H.induced_tensor_hder(vdim, degree, thetas)
    assert len(tta.words) <= 7
    assert hd.maps == oracle_induced_tensor_hder(vdim, degree, thetas).maps


@pytest.mark.parametrize("vdim,deg,nrank", [(1, 2, 2), (1, 3, 3), (2, 2, 2), (2, 3, 3)])
def test_induced_passes_verifier_on_random_maps(vdim, deg, nrank):
    rng = random.Random(100 * vdim + 10 * deg + nrank)
    thetas = tuple(rand_matrix(rng, vdim) for _ in range(nrank))
    tta, hd = H.induced_tensor_hder(vdim, deg, thetas)
    assert H.verify_hder(tta.algebra, hd).ok


def test_universal_extension_zero_map():
    rng = random.Random(41)
    thetas = tuple(rand_matrix(rng, 2) for _ in range(2))
    tta, _ = H.induced_tensor_hder(2, 2, thetas)
    target = H.AssHDerPair(samples.dual_numbers(), samples.dual_numbers_hder(2))
    rep = H.universal_extension(tta, thetas, target, H.Matrix.zeros(2, 2))
    assert rep.ok and rep.unit_handling == "mapped-to-unit"


def test_universal_extension_eigen_example():
    thetas = (H.Matrix(1, 1, (Fraction(1),)), H.Matrix(1, 1, (Fraction(1, 2),)))
    tta, _ = H.induced_tensor_hder(1, 2, thetas)
    target = H.AssHDerPair(samples.dual_numbers(), samples.dual_numbers_hder(2))
    f = H.Matrix(2, 1, (Fraction(0), Fraction(1)))  # generator -> x
    rep = H.universal_extension(tta, thetas, target, f)
    assert rep.ok
    # the word v (x) v maps to x^2 = 0
    assert all(not x for x in rep.map.column(word_index(tta, (0, 0))))


def test_universal_extension_into_nonunital_target():
    rng = random.Random(42)
    z2 = samples.zero_algebra(2)
    zh = H.HigherDerivation(2, tuple(rand_matrix(rng, 2) for _ in range(2)))
    thetas = tuple(zh.maps)
    tta, _ = H.induced_tensor_hder(2, 2, thetas)
    rep = H.universal_extension(tta, thetas, H.AssHDerPair(z2, zh), H.Matrix.identity(2))
    assert rep.ok and rep.unit_handling == "degree-zero-skipped"


def test_universal_extension_precondition_error_names_k():
    thetas = (H.Matrix(1, 1, (Fraction(0),)), H.Matrix(1, 1, (Fraction(0),)))
    tta, _ = H.induced_tensor_hder(1, 2, thetas)
    target = H.AssHDerPair(samples.dual_numbers(), samples.dual_numbers_hder(2))
    f = H.Matrix(2, 1, (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError, match="k=1"):
        H.universal_extension(tta, thetas, target, f)


def test_commutator_pair_on_commutative_algebra_is_abelian():
    d2 = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    lie = H.commutator_liehder(d2, hd)
    assert all(not x for mid in lie.bracket for inner in mid for x in inner)
    assert H.verify_liehder(lie).ok


def test_commutator_pair_on_matrices():
    m2 = samples.matrix_algebra_2x2()
    hd = H.power_commutator_hder(m2, samples.matrix_unit_vector(1, 1), 2)
    lie = H.commutator_liehder(m2, hd)
    assert any(x for mid in lie.bracket for inner in mid for x in inner)
    assert H.verify_liehder(lie).ok


def test_commutator_pair_on_all_fixtures():
    for name, alg, hd in pair_fixtures():
        assert H.verify_liehder(H.commutator_liehder(alg, hd)).ok, name


def test_sl2_bracket_with_zero_maps():
    # (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    z = Fraction(0)
    b = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    b[0][1][1] = Fraction(2)
    b[1][0][1] = Fraction(-2)
    b[0][2][2] = Fraction(-2)
    b[2][0][2] = Fraction(2)
    b[1][2][0] = Fraction(1)
    b[2][1][0] = Fraction(-1)
    pair = H.LieHDerPair(3, tuple(tuple(tuple(r) for r in mid) for mid in b),
                         (H.Matrix.zeros(3, 3),))
    assert H.verify_liehder(pair).ok


def test_verify_liehder_catches_broken_jacobi():
    z = Fraction(0)
    b = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    b[0][1][0] = Fraction(1)
    b[1][0][0] = Fraction(-1)
    b[1][2][1] = Fraction(1)
    b[2][1][1] = Fraction(-1)
    pair = H.LieHDerPair(3, tuple(tuple(tuple(r) for r in mid) for mid in b),
                         (H.Matrix.zeros(3, 3),))
    report = H.verify_liehder(pair)
    assert not report.ok and report.violation.law == "jacobi identity"


def test_verify_liehder_catches_broken_map_law():
    # [e0, e1] = e0 with phi = identity: phi[x,y] = [x,y] but the law
    # demands [phi x, y] + [x, phi y] = 2 [x, y]
    z = Fraction(0)
    b = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    b[0][1][0] = Fraction(1)
    b[1][0][0] = Fraction(-1)
    pair = H.LieHDerPair(2, tuple(tuple(tuple(r) for r in mid) for mid in b),
                         (H.Matrix.identity(2),))
    report = H.verify_liehder(pair)
    assert not report.ok and "derivation" in report.violation.law


def test_verify_liehder_catches_broken_antisymmetry():
    z = Fraction(0)
    b = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    b[0][1][0] = Fraction(1)
    pair = H.LieHDerPair(2, tuple(tuple(tuple(r) for r in mid) for mid in b),
                         (H.Matrix.zeros(2, 2),))
    report = H.verify_liehder(pair)
    assert not report.ok and report.violation.law == "antisymmetry"


def test_commutator_bridge_is_functorial():
    # a morphism of pairs is also a morphism of the commutator pairs
    d2 = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    f = H.Matrix.from_rows([[1, 0], [0, 2]])
    pair = H.AssHDerPair(d2, hd)
    assert H.check_morphism(H.AssHDerMorphism(pair, pair, f)).ok
    lie = H.commutator_liehder(d2, hd)
    for i, j in itertools.product(range(2), repeat=2):
        lhs = f.apply(lie.bracket_vec(lie.basis_vector(i), lie.basis_vector(j)))
        rhs = lie.bracket_vec(f.column(i), f.column(j))
        assert lhs == rhs
    for k in range(1, 3):
        assert lie.maps[k - 1] * f == f * lie.maps[k - 1]
