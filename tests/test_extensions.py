import itertools
import random
from fractions import Fraction

import pytest

import hderlab as H
from hderlab import samples

from helpers import (
    betti2_by_rank_count, cochain_sub, cochains_equal, delta_hoch, mm_neg, rand_matrix, rand_multimap, to_rows,
)


def _dual_adjoint():
    alg = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    return alg, hd, H.adjoint_bimodule(alg, hd)


def _pair_verifies(pair):
    return H.verify_algebra(pair.algebra).ok and \
        H.verify_hder(pair.algebra, pair.hder).ok


def test_semidirect_with_trivial_module():
    alg, hd, _ = _dual_adjoint()
    rng = random.Random(80)
    mod = H.trivial_bimodule(alg, 2, tuple(rand_matrix(rng, 2) for _ in range(2)))
    pair = H.semidirect(alg, hd, mod)
    assert _pair_verifies(pair)
    # products land in the base: the module block is square-zero
    for a, b in itertools.product(range(2, 4), repeat=2):
        assert all(not x for x in pair.algebra.basis_product(a, b))


def test_semidirect_with_adjoint_module():
    alg, hd, mod = _dual_adjoint()
    pair = H.semidirect(alg, hd, mod)
    assert pair.algebra.dim == 4
    assert _pair_verifies(pair)


def test_extension_of_zero_cocycle_is_semidirect():
    alg, hd, mod = _dual_adjoint()
    ext = H.extension_from_cocycle(alg, hd, mod, H.zero_cochain(2, 2, 2, 2))
    assert ext.total == H.semidirect(alg, hd, mod)
    # the twisting data must be a 2-cochain with one part per map d_k
    for nrank, n in ((2, 1), (2, 3), (1, 2)):
        with pytest.raises(H.ShapeError, match="2-cochain"):
            H.extension_structure(alg, hd, mod, H.zero_cochain(2, 2, nrank, n))


def test_extension_from_coboundary_is_equivalent_to_semidirect():
    rng = random.Random(81)
    alg, hd, mod = _dual_adjoint()
    h = rand_multimap(rng, 1, 2, 2)
    z = H.differential(alg, mod, hd, H.Cochain.from_maps(h))
    ext = H.extension_from_cocycle(alg, hd, mod, z)
    assert _pair_verifies(ext.total)
    semi = H.extension_from_cocycle(alg, hd, mod, H.zero_cochain(2, 2, 2, 2))
    # z - 0 = d(h), so the shear by h carries the twisted extension to the
    # semidirect one
    psi = H.equivalence_from_cochain(h)
    assert H.check_equivalence(ext, semi, psi).ok


def test_iff_both_directions_on_random_cochains():
    rng = random.Random(82)
    alg, hd, mod = _dual_adjoint()
    mat = H.differential_matrix(alg, mod, hd, 2)
    kernel = H.kernel_basis(mat)
    positives = negatives = 0
    for _ in range(40):
        if rng.random() < 0.5:
            vec = [Fraction(0)] * mat.cols
            for v in kernel:
                c = Fraction(rng.randint(-2, 2))
                vec = [a + c * b for a, b in zip(vec, v)]
            z = H.vector_to_cochain(2, 2, 2, 2, tuple(vec))
        else:
            z = H.Cochain.from_maps(rand_multimap(rng, 2, 2, 2),
                                    tuple(rand_multimap(rng, 1, 2, 2) for _ in range(2)))
        is_cocycle = H.differential(alg, mod, hd, z).is_zero()
        structure = H.extension_structure(alg, hd, mod, z)
        verifies = _pair_verifies(structure)
        assert verifies == is_cocycle
        if is_cocycle:
            positives += 1
            assert _pair_verifies(H.extension_from_cocycle(alg, hd, mod, z).total)
        else:
            negatives += 1
            with pytest.raises(H.NotACocycleError):
                H.extension_from_cocycle(alg, hd, mod, z)
    assert positives and negatives


def test_not_a_cocycle_error_names_component():
    alg, hd, mod = _dual_adjoint()
    rng = random.Random(83)
    # break only the bilinear component
    bad_main = H.Cochain.from_maps(rand_multimap(rng, 2, 2, 2),
                                   tuple(H.MultiMap.zero(1, 2, 2) for _ in range(2)))
    assert not delta_hoch(alg, mod, bad_main.main).is_zero()
    with pytest.raises(H.NotACocycleError, match="bilinear"):
        H.extension_from_cocycle(alg, hd, mod, bad_main)
    # cocycle whose k = 1 condition fails: zero psi, nonzero chi_1 on a
    # trivial module makes delta' chi_1 = -chi_1(ab) the only term
    tmod = H.trivial_bimodule(alg, 1, (H.Matrix.zeros(1, 1), H.Matrix.zeros(1, 1)))
    chi = H.MultiMap(1, 2, 1, (Fraction(1), Fraction(0)))
    bad_k = H.Cochain.from_maps(H.MultiMap.zero(2, 2, 1), (chi, H.MultiMap.zero(1, 2, 1)))
    with pytest.raises(H.NotACocycleError, match="k=1"):
        H.extension_from_cocycle(alg, hd, tmod, bad_k)


def test_cocycle_section_roundtrip_is_identity():
    rng = random.Random(84)
    alg, hd, mod = _dual_adjoint()
    mat = H.differential_matrix(alg, mod, hd, 2)
    for v in H.kernel_basis(mat):
        z = H.vector_to_cochain(2, 2, 2, 2, v)
        ext = H.extension_from_cocycle(alg, hd, mod, z)
        assert H.cocycle_from_section(ext) == z


def test_section_of_semidirect_gives_zero_cocycle():
    alg, hd, mod = _dual_adjoint()
    semi = H.extension_from_cocycle(alg, hd, mod, H.zero_cochain(2, 2, 2, 2))
    z = H.cocycle_from_section(semi)
    assert z.is_zero()


def test_two_sections_differ_by_coboundary():
    rng = random.Random(85)
    alg, hd, mod = _dual_adjoint()
    h = rand_multimap(rng, 1, 2, 2)
    z = H.differential(alg, mod, hd, H.Cochain.from_maps(h))
    ext = H.extension_from_cocycle(alg, hd, mod, z)
    gap = rand_multimap(rng, 1, 2, 2)
    gmat = H.multimap_to_matrix(gap)
    rows = to_rows(ext.section)
    for r in range(2):
        for c in range(2):
            rows[2 + r][c] = gmat.entry(r, c)
    other = H.Matrix.from_rows(rows)
    z2 = H.cocycle_from_section(ext, other)
    diff = cochain_sub(z2, z)
    expected = H.differential(alg, mod, hd, H.Cochain.from_maps(gap))
    assert cochains_equal(diff, expected)


def test_cocycle_from_section_rejects_non_section():
    alg, hd, mod = _dual_adjoint()
    ext = H.extension_from_cocycle(alg, hd, mod, H.zero_cochain(2, 2, 2, 2))
    with pytest.raises(H.SectionError):
        H.cocycle_from_section(ext, H.Matrix.zeros(4, 2))


def test_cocycle_from_section_rejects_wrong_bimodule():
    alg, hd, mod = _dual_adjoint()
    ext = H.extension_from_cocycle(alg, hd, mod, H.zero_cochain(2, 2, 2, 2))
    wrong = H.trivial_bimodule(alg, 2, tuple(mod.dmaps))
    doctored = H.ExtensionPair(ext.base, wrong, ext.total, ext.include,
                               ext.project, ext.section)
    with pytest.raises(H.SectionError, match="induced"):
        H.cocycle_from_section(doctored)


def test_equivalence_from_cochain_properties():
    rng = random.Random(86)
    h = rand_multimap(rng, 1, 2, 2)
    psi = H.equivalence_from_cochain(h)
    inv = H.equivalence_from_cochain(mm_neg(h))
    assert psi * inv == H.Matrix.identity(4)
    assert H.equivalence_from_cochain(H.MultiMap.zero(1, 2, 2)) == H.Matrix.identity(4)


def test_check_equivalence_identity_and_negative():
    rng = random.Random(87)
    z1 = samples.zero_algebra(1)
    hd = H.HigherDerivation.zero(1, 1)
    mod = H.trivial_bimodule(z1, 1, (H.Matrix.zeros(1, 1),))
    classes = H.classify_central(z1, hd, mod)
    assert len(classes) == 3
    exts = [e for _, e in classes]
    assert H.check_equivalence(exts[1], exts[1], H.Matrix.identity(2)).ok
    rep = H.check_equivalence(exts[1], exts[0], H.Matrix.identity(2))
    assert not rep.ok


def test_classify_central_rejects_nonzero_actions():
    alg, hd, mod = _dual_adjoint()
    with pytest.raises(ValueError, match="zero actions"):
        H.classify_central(alg, hd, mod)


def test_classify_central_counts_match_rank_oracle():
    z1 = samples.zero_algebra(1)
    hd = H.HigherDerivation.zero(1, 1)
    mod = H.trivial_bimodule(z1, 1, (H.Matrix.zeros(1, 1),))
    classes = H.classify_central(z1, hd, mod)
    assert len(classes) == betti2_by_rank_count(z1, hd, mod) + 1
    qq = samples.product_of_fields()
    qhd = H.HigherDerivation.zero(2, 1)
    qmod = H.trivial_bimodule(qq, 1, (H.Matrix.zeros(1, 1),))
    qclasses = H.classify_central(qq, qhd, qmod)
    assert len(qclasses) == betti2_by_rank_count(qq, qhd, qmod) + 1 == 1


def test_classify_central_representatives_are_pairwise_inequivalent():
    z1 = samples.zero_algebra(1)
    hd = H.HigherDerivation.zero(1, 1)
    mod = H.trivial_bimodule(z1, 1, (H.Matrix.zeros(1, 1),))
    classes = H.classify_central(z1, hd, mod)
    for (za, ea), (zb, eb) in itertools.combinations(classes, 2):
        diff = cochain_sub(za, zb)
        assert H.is_coboundary(z1, mod, hd, diff) is None
        assert _pair_verifies(ea.total) and _pair_verifies(eb.total)


def test_classification_transports_cocycles_along_equivalences():
    # transporting the canonical section through the shear recovers the
    # other cocycle exactly
    rng = random.Random(88)
    alg, hd, mod = _dual_adjoint()
    h = rand_multimap(rng, 1, 2, 2)
    mat = H.differential_matrix(alg, mod, hd, 2)
    vec = [Fraction(0)] * mat.cols
    for v in H.kernel_basis(mat):
        c = Fraction(rng.randint(-2, 2))
        vec = [a + c * b for a, b in zip(vec, v)]
    z = H.vector_to_cochain(2, 2, 2, 2, tuple(vec))
    dz = H.differential(alg, mod, hd, H.Cochain.from_maps(h))
    z2 = cochain_sub(z, dz)
    e1 = H.extension_from_cocycle(alg, hd, mod, z)
    e2 = H.extension_from_cocycle(alg, hd, mod, z2)
    psi = H.equivalence_from_cochain(h)
    assert H.check_equivalence(e1, e2, psi).ok
    transported = psi * e1.section
    assert H.cocycle_from_section(e2, transported) == z


def test_find_equivalence_between_cohomologous_extensions():
    rng = random.Random(89)
    alg, hd, mod = _dual_adjoint()
    h = rand_multimap(rng, 1, 2, 2)
    z = H.differential(alg, mod, hd, H.Cochain.from_maps(h))
    ext = H.extension_from_cocycle(alg, hd, mod, z)
    semi = H.extension_from_cocycle(alg, hd, mod, H.zero_cochain(2, 2, 2, 2))
    psi = H.find_equivalence(ext, semi)
    assert psi is not None
    assert H.check_equivalence(ext, semi, psi).ok


def _semidirect_line(alg):
    hd = H.HigherDerivation.zero(2, 1)
    mod = H.trivial_bimodule(alg, 1, (H.Matrix.zeros(1, 1),))
    return H.extension_from_cocycle(alg, hd, mod, H.zero_cochain(2, 1, 1, 2))


def test_find_equivalence_rejects_extensions_over_different_bases():
    # the dual numbers and Q x Q share dim 2, mdim 1 and rank 1
    dual = _semidirect_line(samples.dual_numbers())
    split = _semidirect_line(samples.product_of_fields())
    with pytest.raises(H.ShapeError, match="not over the same base and module"):
        H.find_equivalence(dual, split)


def test_check_equivalence_rejects_extensions_over_different_bases():
    dual = _semidirect_line(samples.dual_numbers())
    split = _semidirect_line(samples.product_of_fields())
    with pytest.raises(H.ShapeError, match="not over the same base and module"):
        H.check_equivalence(dual, split, H.Matrix.identity(3))
    other_module = H.ExtensionPair(dual.base, H.trivial_bimodule(dual.base.algebra, 1, (
        H.Matrix.identity(1),)), dual.total, dual.include, dual.project, dual.section)
    with pytest.raises(H.ShapeError, match="not over the same base and module"):
        H.check_equivalence(dual, other_module, H.Matrix.identity(3))


def test_find_equivalence_rejects_fresh_classes():
    # a non-coboundary cocycle builds a valid extension that is not
    # equivalent to the semidirect product
    z1 = samples.zero_algebra(1)
    hd = H.HigherDerivation.zero(1, 1)
    mod = H.trivial_bimodule(z1, 1, (H.Matrix.zeros(1, 1),))
    classes = H.classify_central(z1, hd, mod)
    semi = classes[0][1]
    for _, ext in classes[1:]:
        assert _pair_verifies(ext.total)
        assert H.find_equivalence(ext, semi) is None
