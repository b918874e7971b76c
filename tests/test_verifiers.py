"""The law-kernel verifiers against the Fraction scans kept as oracles in
``helpers``: ``verify_algebra``, ``verify_hder``, ``verify_liehder`` and
``verify_bimodule`` must return the same whole report, and the same
violation string, on verified pairs and bimodules, on rescaled copies with
non-trivial denominators, on commutator Lie pairs, and on single-entry
perturbations of products, maps, brackets and actions.  The three readers of
the one morphism-law scan (``check_morphism``, ``universal_extension`` and
``cocycle_from_section``) must match their own loops, kept as oracles too,
on perturbed maps, targets, sections and extensions: the same report, the
same error message, the same cochain."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import hderlab as H
from hderlab import samples
from hderlab.exactlin import ONE, ZERO
from hderlab.hder import _pair_reports

from helpers import (
    bimodule_from_tensors, coefficient_fixtures, doubled, mat_add, oracle_check_morphism, oracle_cocycle_from_section,
    oracle_universal_extension, oracle_verify_algebra, oracle_verify_bimodule,
    oracle_verify_hder, oracle_verify_liehder, pair_fixtures, rand_matrix, rescaled_pair,
)


def _noncommutative_pairs():
    m2 = samples.matrix_algebra_2x2()
    m2u = samples.matrix_units_with_unit()
    e11, e12 = samples.matrix_unit_vector(1, 1), samples.matrix_unit_vector(1, 2)
    return [(m2, H.power_commutator_hder(m2, e12, 2)),
            (m2, H.power_commutator_hder(m2, e11, 3)),
            (m2u, H.power_commutator_hder(m2u, m2u.basis_vector(1), 2))]


# the commutator bracket of a commutative algebra is zero, which every map
# satisfies: the Lie checks draw from the noncommutative pairs
NONCOMMUTATIVE = _noncommutative_pairs()
PAIRS = [(alg, hd) for _name, alg, hd in pair_fixtures()] + NONCOMMUTATIVE
VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SCALES = VALUES.filter(bool)


@st.composite
def pairs(draw, menu=PAIRS):
    """A verified pair, rescaled by a random basis change half of the time."""
    alg, hd = draw(st.sampled_from(menu))
    if draw(st.booleans()):
        alg, hd = rescaled_pair(alg, hd, tuple(draw(SCALES) for _ in range(alg.dim)))
    return alg, hd


def _with_entry(t, at, value):
    """The nested tuple ``t`` with the entry at index tuple ``at`` replaced."""
    if not at:
        return value
    head, rest = at[0], at[1:]
    return tuple(_with_entry(x, rest, value) if n == head else x for n, x in enumerate(t))


def _draw_index(data, dims):
    return tuple(data.draw(st.integers(0, n - 1)) for n in dims)


def _perturb_map(data, maps):
    """``maps`` with one entry of one matrix set to a drawn value."""
    k = data.draw(st.integers(0, len(maps) - 1))
    m = maps[k]
    r, c = _draw_index(data, (m.rows, m.cols))
    entries = _with_entry(m.entries, (r * m.cols + c,), data.draw(VALUES))
    return maps[:k] + (H.Matrix(m.rows, m.cols, entries),) + maps[k + 1:]


def _same(report, oracle):
    assert report == oracle
    assert str(report.violation) == str(oracle.violation)


@settings(max_examples=60, deadline=None)
@given(pairs(), st.data())
def test_verify_algebra_matches_oracle(pair, data):
    alg, _ = pair
    if data.draw(st.booleans()):
        at = _draw_index(data, (alg.dim,) * 3)
        alg = H.Algebra.from_table(_with_entry(alg.c, at, data.draw(VALUES)), alg.basis_labels, alg.unit_index)
    _same(H.verify_algebra(alg), oracle_verify_algebra(alg))


@settings(max_examples=60, deadline=None)
@given(pairs(), st.sampled_from(("none", "product", "map")), st.data())
def test_verify_hder_matches_oracle(pair, where, data):
    alg, hd = pair
    if where == "product":
        at = _draw_index(data, (alg.dim,) * 3)
        alg = H.Algebra.from_table(_with_entry(alg.c, at, data.draw(VALUES)), alg.basis_labels, alg.unit_index)
    elif where == "map":
        hd = H.HigherDerivation(hd.rank, _perturb_map(data, hd.maps))
    _same(H.verify_hder(alg, hd), oracle_verify_hder(alg, hd))
    # the input checks of a command share one table: both reports are the
    # oracles', and the hder verdict is the truncated morphism check's
    alg_report, hder_report = _pair_reports(alg, hd)
    _same(alg_report, oracle_verify_algebra(alg))
    _same(hder_report, oracle_verify_hder(alg, hd))
    assert hder_report.ok == H.truncated_morphism_check(alg, hd).ok


@settings(max_examples=60, deadline=None)
@given(pairs(NONCOMMUTATIVE), st.sampled_from(("none", "entry", "antisymmetric", "map")),
       st.data())
def test_verify_liehder_matches_oracle(pair, where, data):
    lie = H.commutator_liehder(*pair)
    bracket, maps = lie.bracket, lie.maps
    if where in ("entry", "antisymmetric"):
        i, j, k = _draw_index(data, (lie.dim,) * 3)
        value = data.draw(VALUES)
        bracket = _with_entry(bracket, (i, j, k), value)
        if where == "antisymmetric" and i != j:
            # keeps antisymmetry, so Jacobi and the map law are reached
            bracket = _with_entry(bracket, (j, i, k), -value)
    elif where == "map":
        maps = _perturb_map(data, maps)
    lie = H.LieHDerPair(lie.dim, bracket, maps)
    _same(H.verify_liehder(lie), oracle_verify_liehder(lie))


def _one_sided_units() -> list:
    """E11 and E12 of the 2x2 matrices, E11 declared the unit: a left unit
    only; in the opposite algebra a right unit only."""
    z, e0, e1 = (0, 0), (1, 0), (0, 1)
    return [H.Algebra.from_table([[e0, e1], [z, z]], unit_index=0),
            H.Algebra.from_table([[e0, z], [e1, z]], unit_index=0)]


UNITAL = [samples.dual_numbers(), samples.truncated_polynomials(3),
          samples.matrix_units_with_unit(), *_one_sided_units()]


def _rescaled_unital(alg, scales, unit):
    d = alg.dim
    table = rescaled_pair(alg, H.HigherDerivation.zero(d, 1), scales)[0].c
    return H.Algebra.from_table(table, alg.basis_labels, unit)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(UNITAL), st.data())
def test_unit_laws_match_oracle_with_denominators(alg, data):
    # associativity survives the basis change, so the unit laws are judged,
    # on a declared unit that a scale other than 1 or another index breaks
    scales = tuple(data.draw(SCALES) for _ in range(alg.dim))
    alg = _rescaled_unital(alg, scales, data.draw(st.integers(0, alg.dim - 1)))
    _same(H.verify_algebra(alg), oracle_verify_algebra(alg))


@pytest.mark.parametrize("alg, scales, text", [
    (samples.dual_numbers(), (Fraction(1, 2), Fraction(3, 5)),
     "left unit law fails at (0, 0): lhs=(1/2, 0) rhs=(1, 0)"),
    (_one_sided_units()[0], (ONE, Fraction(2, 3)), "right unit law fails at (1, 0): lhs=(0, 0) rhs=(0, 1)"),
    (_one_sided_units()[1], (ONE, Fraction(2, 3)), "left unit law fails at (0, 1): lhs=(0, 0) rhs=(0, 1)"),
])
def test_unit_law_violations_match_oracle(alg, scales, text):
    alg = _rescaled_unital(alg, scales, 0)
    report = H.verify_algebra(alg)
    _same(report, oracle_verify_algebra(alg))
    _same(_pair_reports(alg, H.HigherDerivation.zero(alg.dim, 1))[0], report)
    assert str(report.violation) == text


def test_rescaled_violation_keeps_its_denominators():
    # d(u) = x with u the unit breaks d(u u) = d(u) u + u d(u); in the basis
    # (2u/3, 5x/7) both sides of the report carry denominators
    d2 = samples.dual_numbers()
    bad = H.HigherDerivation(1, (H.Matrix.from_rows([[0, 0], [1, 0]]),))
    alg, hd = rescaled_pair(d2, bad, (Fraction(2, 3), Fraction(5, 7)))
    report = H.verify_hder(alg, hd)
    _same(report, oracle_verify_hder(alg, hd))
    assert str(report.violation) == \
        "higher derivation identity fails at (1, 0, 0): lhs=(0, 28/45) rhs=(0, 56/45)"


COEFFICIENTS = coefficient_fixtures()


@st.composite
def coefficient_triples(draw):
    """A verified bimodule, over a rescaled pair half of the time: an adjoint
    module follows the new basis, a trivial one stays lawful as it is."""
    name, alg, hd, mod = draw(st.sampled_from(COEFFICIENTS))
    if draw(st.booleans()):
        alg, hd = rescaled_pair(alg, hd, tuple(draw(SCALES) for _ in range(alg.dim)))
        if name.endswith("/adjoint"):
            mod = H.adjoint_bimodule(alg, hd)
        elif name.endswith("/adjoint+adjoint"):
            mod = doubled(H.adjoint_bimodule(alg, hd))
    return alg, hd, mod


@settings(max_examples=120, deadline=None)
@given(coefficient_triples(), st.sampled_from(("none", "left", "right", "dmaps")), st.data())
def test_verify_bimodule_matches_oracle(triple, where, data):
    alg, hd, mod = triple
    d, md = alg.dim, mod.mdim
    left, right, dmaps = mod.left, mod.right, mod.dmaps
    if where == "left":
        left = _with_entry(left, _draw_index(data, (d, md, md)), data.draw(VALUES))
    elif where == "right":
        right = _with_entry(right, _draw_index(data, (md, d, md)), data.draw(VALUES))
    elif where == "dmaps":
        dmaps = _perturb_map(data, dmaps)
    mod = bimodule_from_tensors(md, left, right, dmaps)
    _same(H.verify_bimodule(alg, hd, mod), oracle_verify_bimodule(alg, hd, mod))


@settings(max_examples=60, deadline=None)
@given(coefficient_triples(), st.sampled_from(("as is", "trivial", "adjoint")), st.data())
def test_verify_bimodule_judges_only_module_tuples_over_a_non_associative_algebra(
        triple, module, data):
    # one structure constant moved until associativity fails: the bimodule
    # laws read only the tuples holding a module vector, so a trivial module
    # still passes and any other report is the oracle's
    alg, hd, mod = triple
    d, value, rng = alg.dim, data.draw(SCALES), data.draw(st.randoms())
    spots = list(itertools.product(range(d), repeat=3))
    rng.shuffle(spots)
    moved = (H.Algebra.from_table(_with_entry(alg.c, at, alg.c[at[0]][at[1]][at[2]] + value),
                                  alg.basis_labels, alg.unit_index) for at in spots)
    bad = next((b for b in moved if not H.verify_algebra(b).ok), None)
    assume(bad is not None)  # every algebra of dimension 1 is associative
    if module == "trivial":
        mod = H.trivial_bimodule(bad, mod.mdim, mod.dmaps)
    elif module == "adjoint":
        mod = H.adjoint_bimodule(bad, hd)
    report = H.verify_bimodule(bad, hd, mod)
    _same(report, oracle_verify_bimodule(bad, hd, mod))
    if module == "trivial":
        assert report.ok


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _morphisms():
    """Morphisms of pairs: identities, the projection and the section of each
    semidirect product, and rescalings (drawn in the test)."""
    out = [(H.AssHDerPair(alg, hd),) * 2 + (H.Matrix.identity(alg.dim),)
           for _name, alg, hd in pair_fixtures()]
    for _name, alg, hd, mod in COEFFICIENTS:
        ext = H.extension_from_cocycle(alg, hd, mod,
                                       H.zero_cochain(alg.dim, mod.mdim, hd.rank, 2))
        out += [(ext.total, ext.base, ext.project), (ext.base, ext.total, ext.section)]
    return out


MORPHISMS = _morphisms()


def _with_map(pair, maps):
    return H.AssHDerPair(pair.algebra, H.HigherDerivation(pair.hder.rank, maps))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("none", "matrix", "target map", "source map")), st.data())
def test_check_morphism_matches_oracle(where, data):
    if data.draw(st.booleans()):
        src, tgt, f = data.draw(st.sampled_from(MORPHISMS))
    else:  # x' in the basis (s_i e_i) is sum s_i x'_i e_i
        alg, hd = data.draw(st.sampled_from(PAIRS))
        scales = tuple(data.draw(SCALES) for _ in range(alg.dim))
        src = H.AssHDerPair(*rescaled_pair(alg, hd, scales))
        tgt = H.AssHDerPair(alg, hd)
        f = H.Matrix(alg.dim, alg.dim, tuple(scales[i] if i == j else ZERO
                                              for i in range(alg.dim) for j in range(alg.dim)))
    assert H.check_morphism(H.AssHDerMorphism(src, tgt, f)).ok
    if where == "matrix":
        f = _perturb_map(data, (f,))[0]
    elif where == "target map":
        tgt = _with_map(tgt, _perturb_map(data, tgt.hder.maps))
    elif where == "source map":
        src = _with_map(src, _perturb_map(data, src.hder.maps))
    mor = H.AssHDerMorphism(src, tgt, f)
    _same(H.check_morphism(mor), oracle_check_morphism(mor))


def _universal_cases():
    """(tta, thetas, target, f) with d_k f = f theta_k on the generators."""
    rng = random.Random(4242)
    dual = H.AssHDerPair(samples.dual_numbers(), samples.dual_numbers_hder(2))
    eigen = (H.Matrix(1, 1, (Fraction(1),)), H.Matrix(1, 1, (Fraction(1, 2),)))
    zh = H.HigherDerivation(2, tuple(rand_matrix(rng, 2) for _ in range(2)))
    thetas = tuple(rand_matrix(rng, 2) for _ in range(2))
    tta, induced = H.induced_tensor_hder(2, 2, thetas)
    inclusion = H.Matrix.from_columns([tuple(ONE if w == (v,) else ZERO for w in tta.words)
                                       for v in range(2)])
    return [
        (H.build_tensor_algebra(2, 2), thetas, dual, H.Matrix.zeros(2, 2)),
        (H.build_tensor_algebra(1, 2), eigen, dual, H.Matrix(2, 1, (ZERO, ONE))),
        (H.build_tensor_algebra(1, 3), eigen, dual, H.Matrix(2, 1, (ZERO, ONE))),
        (H.build_tensor_algebra(2, 2), zh.maps, H.AssHDerPair(samples.zero_algebra(2), zh),
         H.Matrix.identity(2)),
        (tta, thetas, H.AssHDerPair(tta.algebra, induced), inclusion),
    ]


UNIVERSAL = _universal_cases()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(UNIVERSAL), st.sampled_from(("none", "product", "map", "generator")),
       st.data())
def test_universal_extension_matches_oracle(case, where, data):
    tta, thetas, target, f = case
    assert H.universal_extension(tta, thetas, target, f).ok
    alg = target.algebra
    if where == "product":
        at = _draw_index(data, (alg.dim,) * 3)
        alg = H.Algebra.from_table(_with_entry(alg.c, at, data.draw(VALUES)), alg.basis_labels, alg.unit_index)
        target = H.AssHDerPair(alg, target.hder)
    elif where == "map":
        target = _with_map(target, _perturb_map(data, target.hder.maps))
    elif where == "generator":
        f = _perturb_map(data, (f,))[0]
    got = _outcome(H.universal_extension, tta, thetas, target, f)
    want = _outcome(oracle_universal_extension, tta, thetas, target, f)
    assert got == want
    if got[0] == "returned":
        assert str(got[1].violation) == str(want[1].violation)


def _extensions():
    """The semidirect product of each bimodule and the extensions by the
    first two vectors of its canonical 2-cocycle basis."""
    out = []
    for _name, alg, hd, mod in COEFFICIENTS:
        vectors = H.kernel_basis(H.differential_matrix(alg, mod, hd, 2))[:2]
        for v in [None, *vectors]:
            z = H.zero_cochain(alg.dim, mod.mdim, hd.rank, 2) if v is None else \
                H.vector_to_cochain(alg.dim, mod.mdim, hd.rank, 2, v)
            out.append(H.extension_from_cocycle(alg, hd, mod, z))
    return out


EXTENSIONS = _extensions()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(EXTENSIONS), st.booleans(),
       st.sampled_from(("none", "section", "product", "map")), st.data())
def test_cocycle_from_section_matches_oracle(ext, shifted, where, data):
    d, md = ext.dim, ext.mdim
    s = ext.section
    if shifted:  # s + i h for a linear h: A -> M is a section as well
        h = H.Matrix(md, d, tuple(data.draw(VALUES) for _ in range(md * d)))
        s = mat_add(s, ext.include * h)
    total = ext.total
    if where == "section":
        s = _perturb_map(data, (s,))[0]
    elif where == "product":
        at = _draw_index(data, (d + md,) * 3)
        c = _with_entry(total.algebra.c, at, data.draw(VALUES))
        total = H.AssHDerPair(H.Algebra.from_table(c, total.algebra.basis_labels), total.hder)
    elif where == "map":
        total = _with_map(total, _perturb_map(data, total.hder.maps))
    ext = H.ExtensionPair(ext.base, ext.module, total, ext.include, ext.project, ext.section)
    got = _outcome(H.cocycle_from_section, ext, s)
    want = _outcome(oracle_cocycle_from_section, ext, s)
    assert got == want
    if got[0] == "returned":
        assert got[1].main.values == want[1].main.values
        assert [p.values for p in got[1].parts] == [p.values for p in want[1].parts]
