"""Acceptance suite: one test per criterion, exact rational equality throughout.

Every check is an equality of Fractions (zero tolerance).  Each test prints
one pass line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hderlab as H
from hderlab import samples
from hderlab.cli import main as cli_main

from helpers import (
    betti2_by_rank_count, cochain_sub, cochains_equal, coefficient_fixtures, delta_hoch,
    delta_k, delta_prime, mat_add, pair_fixtures, rand_cochain, rand_gauge, rand_matrix,
    rand_multimap, to_rows,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _verifies(pair):
    return H.verify_algebra(pair.algebra).ok and H.verify_hder(pair.algebra, pair.hder).ok


def test_criterion_1_complex_axioms():
    rng = random.Random(202401)
    fixtures = coefficient_fixtures()
    draws = 204
    for i in range(draws):
        name, alg, hd, mod = fixtures[i % len(fixtures)]
        n = (i % 3) + 1
        c = rand_cochain(rng, alg.dim, mod.mdim, hd.rank, n)
        dd = H.differential(alg, mod, hd, H.differential(alg, mod, hd, c))
        assert dd.is_zero(), (name, n, "differential does not square to zero")

        parts = tuple(rand_multimap(rng, n, alg.dim, mod.mdim) for _ in range(hd.rank))
        twice = delta_prime(alg, mod, hd, delta_prime(alg, mod, hd, parts))
        assert all(p.is_zero() for p in twice), (name, n, "delta-prime does not square to zero")

        f = rand_multimap(rng, n, alg.dim, mod.mdim)
        family = tuple(delta_k(alg, mod, hd, f, k) for k in range(1, hd.rank + 1))
        lhs = delta_prime(alg, mod, hd, family)
        dh = delta_hoch(alg, mod, f)
        for k in range(1, hd.rank + 1):
            assert lhs[k - 1].values == delta_k(alg, mod, hd, dh, k).values, \
                (name, n, k, "commutation lemma fails")
    print(f"\ncriterion 1 PASS: complex axioms exact on {draws} random draws "
          f"across {len(fixtures)} fixtures (dim <= 3, rank <= 3, degree <= 3)")


def test_criterion_2_constructors_and_dual_route():
    rng = random.Random(202402)
    d2 = samples.dual_numbers()
    p3 = samples.truncated_polynomials(3)
    m2 = samples.matrix_algebra_2x2()
    m2u = samples.matrix_units_with_unit()

    constructed = []
    for rank in (2, 3):
        constructed.append((d2, samples.dual_numbers_hder(rank)))
    # divided powers on the degree-3 truncation via the Euler derivation
    constructed.append((p3, H.ordinary_hder(p3, samples.euler_matrix(3), 3)))
    for p, q in ((1, 1), (1, 2), (2, 1)):
        constructed.append((m2, H.power_commutator_hder(
            m2, samples.matrix_unit_vector(p, q), 3)))
    constructed.append((m2, H.power_commutator_hder(
        m2, tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)), 2)))
    e12 = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    zero4 = (Fraction(0),) * 4
    constructed.append((m2u, H.inner_hder(m2u, [e12, zero4],
                                          [tuple(-v for v in e12), zero4])))
    constructed.append((m2u, H.inner_hder(m2u, [zero4, zero4], [zero4, zero4])))
    base_count = len(constructed)
    for alg, hd in list(constructed):
        for q in range(1, hd.rank + 1):
            constructed.append((alg, H.stretch_hder(hd, q)))
    for alg, hd in constructed:
        assert H.verify_hder(alg, hd).ok

    agreements = 0
    candidates = []
    for _, alg, hd in pair_fixtures():
        candidates.append((alg, hd))
        for _ in range(4):
            maps = list(hd.maps)
            slot = rng.randrange(len(maps))
            maps[slot] = mat_add(maps[slot], rand_matrix(rng, alg.dim))
            candidates.append((alg, H.HigherDerivation(hd.rank, tuple(maps))))
        for _ in range(10):
            nrank = rng.randint(1, 3)
            candidates.append((alg, H.HigherDerivation(
                nrank, tuple(rand_matrix(rng, alg.dim) for _ in range(nrank)))))
    valid = invalid = 0
    for alg, cand in candidates:
        direct = H.verify_hder(alg, cand).ok
        via_morphism = H.truncated_morphism_check(alg, cand).ok
        assert direct == via_morphism
        agreements += 1
        valid += direct
        invalid += not direct
    assert agreements >= 100 and valid and invalid
    print(f"\ncriterion 2 PASS: {base_count} constructed sequences (+stretches) verify; "
          f"verifier and truncated-morphism route agree on {agreements} candidates "
          f"({valid} valid, {invalid} corrupted)")


def test_criterion_3_free_constructions():
    rng = random.Random(202403)
    combos = 0
    for vdim, deg, nrank in itertools.product((1, 2), (1, 2, 3), (1, 2, 3)):
        thetas = tuple(rand_matrix(rng, vdim) for _ in range(nrank))
        tta, hd = H.induced_tensor_hder(vdim, deg, thetas)
        assert H.verify_hder(tta.algebra, hd).ok, (vdim, deg, nrank)
        combos += 1

    instances = 0
    # scaled inclusions into a larger truncation of the same generators
    for _ in range(24):
        vdim = rng.randint(1, 2)
        deg = rng.randint(1, 2)
        nrank = rng.randint(1, 3)
        thetas = tuple(rand_matrix(rng, vdim) for _ in range(nrank))
        tta, _ = H.induced_tensor_hder(vdim, deg, thetas)
        big, big_hd = H.induced_tensor_hder(vdim, deg + 1, thetas)
        lam = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        cols = [tuple(lam if big.words[r] == (v,) else Fraction(0)
                      for r in range(big.algebra.dim)) for v in range(vdim)]
        f = H.Matrix.from_columns(cols)
        rep = H.universal_extension(tta, thetas, H.AssHDerPair(big.algebra, big_hd), f)
        assert rep.ok
        instances += 1
    # eigen-matched maps into the divided-power pair on the 3-truncation
    p3 = samples.truncated_polynomials(3)
    p3hd = H.ordinary_hder(p3, samples.euler_matrix(3), 2)
    target = H.AssHDerPair(p3, p3hd)
    for _ in range(16):
        vdim = rng.randint(1, 2)
        degrees = [rng.randint(0, 2) for _ in range(vdim)]
        thetas = tuple(
            H.Matrix.from_rows([[Fraction(degrees[i] ** k, 1) if i == j else 0
                                 for j in range(vdim)] for i in range(vdim)]).scale(
                Fraction(1, (1, 1, 2)[k]))
            for k in (1, 2))
        cols = [tuple(Fraction(rng.randint(-2, 2)) if r == degrees[i] else Fraction(0)
                      for r in range(3)) for i in range(vdim)]
        f = H.Matrix.from_columns(cols)
        tta, _ = H.induced_tensor_hder(vdim, 2, thetas)
        rep = H.universal_extension(tta, thetas, target, f)
        assert rep.ok
        instances += 1
    # the zero map always satisfies the compatibility condition
    d2_pair = H.AssHDerPair(samples.dual_numbers(), samples.dual_numbers_hder(2))
    for _ in range(12):
        vdim = rng.randint(1, 2)
        thetas = tuple(rand_matrix(rng, vdim) for _ in range(2))
        tta, _ = H.induced_tensor_hder(vdim, 2, thetas)
        rep = H.universal_extension(tta, thetas, d2_pair, H.Matrix.zeros(2, vdim))
        assert rep.ok
        instances += 1
    assert instances >= 50
    print(f"\ncriterion 3 PASS: induced maps verify on {combos} (vdim, degree, rank) "
          f"combinations; universal extension checks pass on {instances} compatible instances")


def _extension_fixtures():
    rng = random.Random(202404)
    d2 = samples.dual_numbers()
    d2h = samples.dual_numbers_hder(2)
    qq = samples.product_of_fields()
    qqh = H.HigherDerivation.zero(2, 2)
    return [
        ("dual/adjoint", d2, d2h, H.adjoint_bimodule(d2, d2h)),
        ("dual/trivial", d2, d2h,
         H.trivial_bimodule(d2, 1, tuple(rand_matrix(rng, 1) for _ in range(2)))),
        ("split/adjoint", qq, qqh, H.adjoint_bimodule(qq, qqh)),
    ]


def test_criterion_4_extension_iff():
    rng = random.Random(202405)
    fixtures = _extension_fixtures()
    positives = negatives = 0
    while positives < 102 or negatives < 102:
        name, alg, hd, mod = fixtures[(positives + negatives) % len(fixtures)]
        mat = H.differential_matrix(alg, mod, hd, 2)
        want_positive = positives < 102 and (negatives >= 102 or rng.random() < 0.5)
        if want_positive:
            vec = [Fraction(0)] * mat.cols
            for v in H.kernel_basis(mat):
                coeff = Fraction(rng.randint(-2, 2))
                vec = [a + coeff * b for a, b in zip(vec, v)]
            z = H.vector_to_cochain(alg.dim, mod.mdim, hd.rank, 2, tuple(vec))
        else:
            z = H.Cochain.from_maps(rand_multimap(rng, 2, alg.dim, mod.mdim),
                                    tuple(rand_multimap(rng, 1, alg.dim, mod.mdim)
                                          for _ in range(hd.rank)))
        is_cocycle = H.differential(alg, mod, hd, z).is_zero()
        structure = H.extension_structure(alg, hd, mod, z)
        assert _verifies(structure) == is_cocycle, name
        if is_cocycle:
            ext = H.extension_from_cocycle(alg, hd, mod, z)
            assert _verifies(ext.total)
            positives += 1
        else:
            with pytest.raises(H.NotACocycleError):
                H.extension_from_cocycle(alg, hd, mod, z)
            negatives += 1
    print(f"\ncriterion 4 PASS: builder success coincides with the cocycle condition "
          f"on {positives} cocycles and {negatives} non-cocycles")


def test_criterion_5_classification():
    rng = random.Random(202406)
    fixtures = _extension_fixtures()
    roundtrips = sections = shears = 0
    for trial in range(30):
        name, alg, hd, mod = fixtures[trial % len(fixtures)]
        mat = H.differential_matrix(alg, mod, hd, 2)
        vec = [Fraction(0)] * mat.cols
        for v in H.kernel_basis(mat):
            coeff = Fraction(rng.randint(-2, 2))
            vec = [a + coeff * b for a, b in zip(vec, v)]
        z = H.vector_to_cochain(alg.dim, mod.mdim, hd.rank, 2, tuple(vec))
        ext = H.extension_from_cocycle(alg, hd, mod, z)
        assert H.cocycle_from_section(ext) == z
        roundtrips += 1

        gap = rand_multimap(rng, 1, alg.dim, mod.mdim)
        gmat = H.multimap_to_matrix(gap)
        rows = to_rows(ext.section)
        for r in range(mod.mdim):
            for c in range(alg.dim):
                rows[alg.dim + r][c] = gmat.entry(r, c)
        other = H.Matrix.from_rows(rows)
        z2 = H.cocycle_from_section(ext, other)
        diff = cochain_sub(z2, z)
        expected = H.differential(alg, mod, hd, H.Cochain.from_maps(gap))
        assert cochains_equal(diff, expected)
        sections += 1

        h = rand_multimap(rng, 1, alg.dim, mod.mdim)
        dh = H.differential(alg, mod, hd, H.Cochain.from_maps(h))
        z3 = cochain_sub(z, dh)
        e2 = H.extension_from_cocycle(alg, hd, mod, z3)
        assert H.check_equivalence(ext, e2, H.equivalence_from_cochain(h)).ok
        shears += 1

    qq = samples.product_of_fields()
    qqh = H.HigherDerivation.zero(2, 2)
    qmod = H.trivial_bimodule(qq, 1, (H.Matrix.zeros(1, 1), H.Matrix.zeros(1, 1)))
    classes = H.classify_central(qq, qqh, qmod)
    independent = betti2_by_rank_count(qq, qqh, qmod)
    assert len(classes) == independent + 1
    assert H.cohomology(qq, qmod, qqh, 2).betti == independent

    z1 = samples.zero_algebra(1)
    z1h = H.HigherDerivation.zero(1, 1)
    z1mod = H.trivial_bimodule(z1, 1, (H.Matrix.zeros(1, 1),))
    z1classes = H.classify_central(z1, z1h, z1mod)
    assert len(z1classes) == betti2_by_rank_count(z1, z1h, z1mod) + 1 == 3
    for (za, _), (zb, _) in itertools.combinations(z1classes, 2):
        assert H.is_coboundary(z1, z1mod, z1h, cochain_sub(za, zb)) is None
    print(f"\ncriterion 5 PASS: {roundtrips} exact round-trips, {sections} section gaps "
          f"are exact coboundaries, {shears} shear equivalences accepted; central "
          f"classes = betti+1 with betti confirmed by the independent rank oracle")


def _deformation_family():
    rng = random.Random(202407)
    d2 = samples.dual_numbers()
    d2h = samples.dual_numbers_hder(2)
    qq = samples.product_of_fields()
    qqh = H.HigherDerivation.zero(2, 2)
    p3 = samples.truncated_polynomials(3)
    p3h = H.ordinary_hder(p3, samples.euler_matrix(3), 2)
    family = []
    for order in (1, 2, 3):
        for alg, hd in ((d2, d2h), (qq, qqh)):
            g = rand_gauge(rng, alg.dim, order)
            family.append((alg, hd, H.apply_gauge(H.trivial_deformation(alg, hd, order), g), g))
    g = rand_gauge(rng, 3, 2)
    family.append((p3, p3h, H.apply_gauge(H.trivial_deformation(p3, p3h, 2), g), g))
    return family


def test_criterion_6_deformations():
    rng = random.Random(202408)
    family = _deformation_family()
    for alg, hd, defm, gauge in family:
        assert H.verify_deformation(alg, hd, defm).ok
        mod = H.adjoint_bimodule(alg, hd)
        coeff, rep = H.infinitesimal(alg, hd, defm)
        assert rep.ok
        assert H.differential(alg, mod, hd, coeff).is_zero()

        extra = rand_gauge(rng, alg.dim, defm.order)
        gauged = H.apply_gauge(defm, extra)
        assert H.verify_deformation(alg, hd, gauged).ok
        coeff2, rep2 = H.infinitesimal(alg, hd, gauged)
        assert rep2.ok
        shift = H.differential(alg, mod, hd,
                               H.Cochain.from_maps(H.matrix_to_multimap(extra.phis[1])))
        assert cochains_equal(cochain_sub(coeff2, coeff), shift)

        out = H.try_extend(alg, hd, defm)
        assert out.candidate is not None
        assert H.verify_deformation(alg, hd, H.extend_deformation(defm, out.candidate)).ok

    qq = samples.product_of_fields()
    qqh = H.HigherDerivation.zero(2, 2)
    qmod = H.adjoint_bimodule(qq, qqh)
    assert H.cohomology(qq, qmod, qqh, 2).betti == 0
    trivialized = 0
    for _ in range(20):
        g = rand_gauge(rng, 2, 4)
        defm = H.apply_gauge(H.trivial_deformation(qq, qqh, 4), g)
        out = H.trivialize(qq, qqh, defm, 4)
        assert out.gauge is not None
        assert H.apply_gauge(defm, out.gauge) == H.trivial_deformation(qq, qqh, 4)
        trivialized += 1

    obstructions = 0
    for alg, hd, defm, _ in family:
        mod = H.adjoint_bimodule(alg, hd)
        ob = H.obstruction(alg, hd, defm)
        assert H.differential(alg, mod, hd, ob).is_zero()
        assert H.is_coboundary(alg, mod, hd, ob) is not None
        obstructions += 1
    print(f"\ncriterion 6 PASS: {len(family)} verified deformations have exact cocycle "
          f"infinitesimals shifting by the gauge coboundary; extensions re-verify; "
          f"{trivialized} gauged families trivialize to order 4 over the rigid fixture; "
          f"{obstructions} gauge-trivial obstructions certified coboundaries with zero differential")


CLI_MATRIX = [
    ["check", "dual_pair.json"],
    ["check", "split_pair.json"],
    ["cohomology", "split_pair.json", "--degree", "2"],
    ["cohomology", "dual_pair.json", "--degree", "1"],
    ["cohomology", "nil_central.json", "--degree", "2", "--coefficients", "file"],
    ["classify-central", "nil_central.json"],
    ["extend-abelian", "dual_cocycle.json"],
    ["extend-abelian", "dual_bad_cocycle.json"],
    ["cocycle-from-section", "dual_cocycle.json"],
    ["deform-verify", "dual_deform.json"],
    ["deform-verify", "dual_deform_bad.json"],
    ["deform-obstruct", "dual_deform.json"],
    ["deform-obstruct", "nil_deform_blocked.json"],
    ["deform-extend", "dual_deform.json", "--to", "4"],
    ["deform-extend", "nil_deform_blocked.json"],
    ["deform-trivialize", "dual_deform.json"],
    ["free-tensor", "tensor_line.json"],
]


def test_criterion_7_cli_determinism(capsys):
    reports = 0
    for args in CLI_MATRIX:
        argv = [args[0], str(FIXTURES / args[1]), *args[2:], "--json"]
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1.encode() == out2.encode()
        json.loads(out1)
        reports += 1
    argv = [sys.executable, "-m", "hderlab.cli", "classify-central",
            str(FIXTURES / "nil_central.json"), "--json"]
    runs = [subprocess.run(argv, capture_output=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    print(f"\ncriterion 7 PASS: {reports} command invocations byte-identical across "
          f"repeated in-process runs, plus a byte-identical subprocess pair")
