import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hderlab as H
from hderlab import cli, deform, samples
from hderlab.algebras import LawTables
from hderlab.exactlin import ZERO, as_fractions, int_form
from hderlab.serialize import (
    ParseError, deformation_to_json, parse_algebra, parse_deformation, parse_hder,
)

from helpers import (
    BAD_TOKENS, cochains_equal, dense_apply_gauge, dense_series_inverse, dense_series_product,
    fraction_apply_gauge, fraction_extend_deformation, fraction_trivial_deformation,
    fraction_truncate_deformation, law_table_members, oracle_parse_deformation,
    loop_obstruction, loop_trivialize, loop_verify_deformation, mm_eval, pair_fixtures,
    rand_cochain, rand_fraction, rand_gauge, rand_matrix, rand_multimap, spelled, two_scan_extend_to,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _dual_pair():
    alg = samples.dual_numbers()
    return alg, samples.dual_numbers_hder(2)


def _nil_line():
    z1 = samples.zero_algebra(1)
    return z1, H.HigherDerivation.zero(1, 1)


def _order_one(alg, hd, mu1, d1s):
    """The order-1 family over (alg, hd) whose first coefficient is
    (mu1; d_{1,1}, ..., d_{N,1}), the d_{k,1} given as matrices."""
    return H.extend_deformation(H.trivial_deformation(alg, hd, 0),
                                H.Cochain(mu1, tuple(map(H.matrix_to_multimap, d1s))))


def test_trivial_deformation_verifies():
    alg, hd = _dual_pair()
    for order in (0, 1, 3):
        assert H.verify_deformation(alg, hd, H.trivial_deformation(alg, hd, order)).ok


def test_base_mismatch_is_an_error():
    alg, hd = _dual_pair()
    defm = H.trivial_deformation(alg, hd, 1)
    base, first = defm.coeffs
    doctored = H.Deformation.from_coeffs((H.Cochain(H.MultiMap.zero(2, 2, 2), base.parts), first))
    with pytest.raises(deform.NotVerifiedError, match="order-0"):
        H.verify_deformation(alg, hd, doctored)


def test_gauge_of_trivial_verifies():
    rng = random.Random(90)
    alg, hd = _dual_pair()
    for order in (1, 2, 3):
        g = rand_gauge(rng, 2, order)
        defm = H.apply_gauge(H.trivial_deformation(alg, hd, order), g)
        assert H.verify_deformation(alg, hd, defm).ok


def test_identity_gauge_is_neutral():
    alg, hd = _dual_pair()
    defm = H.trivial_deformation(alg, hd, 2)
    assert H.apply_gauge(defm, H.GaugeMap.identity(2, 2)) == defm


def test_gauge_action_roundtrip():
    rng = random.Random(91)
    alg, hd = _dual_pair()
    g = rand_gauge(rng, 2, 3)
    defm = H.apply_gauge(H.trivial_deformation(alg, hd, 3), g)
    assert H.apply_gauge(defm, H.gauge_inverse(g)) == H.trivial_deformation(alg, hd, 3)


def test_gauge_composition_matches_sequential_application():
    rng = random.Random(92)
    alg, hd = _dual_pair()
    defm = H.apply_gauge(H.trivial_deformation(alg, hd, 3), rand_gauge(rng, 2, 3))
    g1, g2 = rand_gauge(rng, 2, 3), rand_gauge(rng, 2, 3)
    seq = H.apply_gauge(H.apply_gauge(defm, g1), g2)
    assert seq == H.apply_gauge(defm, H.gauge_compose(g1, g2))


@pytest.mark.parametrize("op", [
    lambda g: H.apply_gauge(H.trivial_deformation(*_dual_pair(), 1), g),
    H.gauge_inverse,
    lambda g: H.gauge_compose(H.GaugeMap.identity(2, 1), g),
    lambda g: H.gauge_compose(g, H.GaugeMap.identity(2, 1)),
], ids=["apply_gauge", "gauge_inverse", "gauge_compose_second", "gauge_compose_first"])
def test_gauge_requires_identity_at_zero(op):
    bad = H.GaugeMap(1, (H.Matrix.zeros(2, 2), H.Matrix.identity(2)))
    with pytest.raises(ValueError, match="identity"):
        op(bad)


@pytest.mark.parametrize("order, phis", [
    (1, (H.Matrix.identity(2), H.Matrix.zeros(3, 3))),
    (1, (H.Matrix.identity(2), H.Matrix.identity(3))),
    (1, (H.Matrix.identity(2), H.Matrix(2, 3, (Fraction(1),) * 6))),
    (1, (H.Matrix.zeros(2, 3), H.Matrix.zeros(2, 3))),
    (-1, ()),
], ids=["zero", "nonzero", "not_square", "first_not_square", "negative_order"])
def test_gauge_checks_member_shapes(order, phis):
    with pytest.raises(H.ShapeError):
        H.GaugeMap(order, phis)


def test_gauge_compose_rejects_different_dimensions():
    with pytest.raises(H.ShapeError):
        H.gauge_compose(H.GaugeMap.identity(2, 1), H.GaugeMap.identity(3, 1))


def _gauge_with_zeros(rng: random.Random, dim: int, order: int) -> H.GaugeMap:
    """A gauge whose members past Phi_0 are each zero with probability 1/3."""
    return H.GaugeMap(order, (H.Matrix.identity(dim), *(
        H.Matrix.zeros(dim, dim) if rng.random() < 1 / 3 else rand_matrix(rng, dim)
        for _ in range(order))))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2 ** 32))
def test_gauge_compose_and_inverse_match_dense_series(dim, order, other_order, seed):
    rng = random.Random(seed)
    g, h = _gauge_with_zeros(rng, dim, order), _gauge_with_zeros(rng, dim, other_order)
    inverse = H.gauge_inverse(g)
    assert inverse == H.GaugeMap(order, tuple(dense_series_inverse(g.phis)))
    low = min(order, other_order)
    assert H.gauge_compose(g, h) == H.GaugeMap(low, tuple(dense_series_product(g.phis, h.phis, low)))
    assert H.gauge_compose(g, inverse) == H.GaugeMap.identity(dim, order)
    assert H.gauge_compose(inverse, g) == H.GaugeMap.identity(dim, order)


def test_broken_first_order_coefficient_is_reported_at_s1():
    alg, hd = _dual_pair()
    bad = H.MultiMap(2, 2, 2, tuple(Fraction(x) for x in (1, 0, 0, 2, 1, 1, 0, 0)))
    defm = _order_one(alg, hd, bad, [H.Matrix.zeros(2, 2)] * 2)
    report = H.verify_deformation(alg, hd, defm)
    assert not report.ok
    assert report.violation.law.startswith("order-1")


def test_infinitesimal_is_a_cocycle_and_shifts_by_gauge():
    rng = random.Random(93)
    alg, hd = _dual_pair()
    mod = H.adjoint_bimodule(alg, hd)
    for _ in range(5):
        g = rand_gauge(rng, 2, 2)
        defm = H.apply_gauge(H.trivial_deformation(alg, hd, 2), g)
        coeff, rep = H.infinitesimal(alg, hd, defm)
        assert rep.ok
        dphi = H.differential(alg, mod, hd, H.Cochain(H.matrix_to_multimap(g.phis[1])))
        assert cochains_equal(coeff, dphi)


def test_infinitesimal_of_trivial_is_zero():
    alg, hd = _dual_pair()
    coeff, rep = H.infinitesimal(alg, hd, H.trivial_deformation(alg, hd, 1))
    assert rep.ok and coeff.is_zero()


def test_generalized_infinitesimal_at_higher_order():
    alg, hd = _dual_pair()
    rng = random.Random(94)
    g = H.GaugeMap(2, (H.Matrix.identity(2), H.Matrix.zeros(2, 2), rand_matrix(rng, 2)))
    defm = H.apply_gauge(H.trivial_deformation(alg, hd, 2), g)
    assert defm.coeffs[1].is_zero()
    coeff, rep = H.infinitesimal(alg, hd, defm, at_order=2)
    assert rep.ok and not coeff.is_zero()
    # asking for order 2 on a family with a nonzero lower coefficient errors
    noisy = H.apply_gauge(defm, rand_gauge(rng, 2, 1))
    if not noisy.coeffs[1].is_zero():
        with pytest.raises(ValueError, match="nonzero below"):
            H.infinitesimal(alg, hd, noisy, at_order=2)


def test_any_first_coefficient_deforms_the_nil_line():
    # zero multiplication in dimension one: every candidate is a cocycle and
    # every order-1 family verifies
    rng = random.Random(95)
    alg, hd = _nil_line()
    mod = H.adjoint_bimodule(alg, hd)
    mu1 = rand_multimap(rng, 2, 1, 1)
    defm = _order_one(alg, hd, mu1, [rand_matrix(rng, 1)])
    assert H.verify_deformation(alg, hd, defm).ok
    coeff, rep = H.infinitesimal(alg, hd, defm)
    assert rep.ok
    assert H.cohomology(alg, mod, hd, 2).dim_coboundaries == 0


def test_obstruction_of_trivial_is_zero():
    alg, hd = _dual_pair()
    ob = H.obstruction(alg, hd, H.trivial_deformation(alg, hd, 2))
    assert ob.is_zero()


def test_obstruction_order_one_is_the_associator_term():
    rng = random.Random(96)
    alg, hd = _nil_line()
    mu1 = rand_multimap(rng, 2, 1, 1)
    defm = _order_one(alg, hd, mu1, [H.Matrix.zeros(1, 1)])
    ob = H.obstruction(alg, hd, defm)
    lam = mu1.value_at((0, 0))[0]
    # Ob(a,a,a) = mu1(mu1(a,a),a) - mu1(a,mu1(a,a)) = lam^2 - lam^2 = 0
    assert ob.main.is_zero()
    # Ob_1(a,b) = d_{1,1}(mu_1(a,b)) - mu_1(d_{1,1}a, b) - mu_1(a, d_{1,1}b)
    # with d_{1,1} = 0 here, so zero
    assert all(p.is_zero() for p in ob.parts)


def test_obstruction_matches_differential_of_dropped_coefficient():
    # gauge the trivial family to order n+1, truncate to n: the obstruction
    # equals the differential of the dropped extension candidate
    rng = random.Random(97)
    alg, hd = _dual_pair()
    mod = H.adjoint_bimodule(alg, hd)
    for order in (1, 2):
        g = rand_gauge(rng, 2, order + 1)
        full = H.apply_gauge(H.trivial_deformation(alg, hd, order + 1), g)
        trunc = H.truncate_deformation(full, order)
        ob = H.obstruction(alg, hd, trunc)
        dropped = full.coeffs[order + 1]
        assert cochains_equal(ob, H.differential(alg, mod, hd, dropped))


def test_try_extend_roundtrip_reverifies():
    rng = random.Random(98)
    alg, hd = _dual_pair()
    for order in (1, 2):
        g = rand_gauge(rng, 2, order)
        defm = H.apply_gauge(H.trivial_deformation(alg, hd, order), g)
        out = H.try_extend(alg, hd, defm)
        assert out.candidate is not None
        bigger = H.extend_deformation(defm, out.candidate)
        assert H.verify_deformation(alg, hd, bigger).ok


def test_try_extend_blocked_by_nonassociative_first_coefficient():
    z2 = samples.zero_algebra(2)
    zh = H.HigherDerivation.zero(2, 1)
    vals = [Fraction(0)] * 8
    vals[(0 * 2 + 0) * 2 + 1] = Fraction(1)  # mu1(a,a) = b
    vals[(0 * 2 + 1) * 2 + 0] = Fraction(1)  # mu1(a,b) = a
    mu1 = H.MultiMap(2, 2, 2, tuple(vals))
    defm = _order_one(z2, zh, mu1, [H.Matrix.zeros(2, 2)])
    assert H.verify_deformation(z2, zh, defm).ok
    out = H.try_extend(z2, zh, defm)
    assert out.candidate is None
    mod = H.adjoint_bimodule(z2, zh)
    assert H.differential(z2, mod, zh, out.obstruction).is_zero()
    assert H.is_coboundary(z2, mod, zh, out.obstruction) is None


def test_trivialize_identity_on_trivial():
    alg, hd = _dual_pair()
    out = H.trivialize(alg, hd, H.trivial_deformation(alg, hd, 3))
    assert out.gauge is not None
    assert out.gauge.phis[0].is_identity()
    assert all(m.is_zero() for m in out.gauge.phis[1:])


def test_trivialize_gauged_families():
    rng = random.Random(99)
    alg, hd = _dual_pair()
    for order in (1, 2, 3):
        defm = H.apply_gauge(H.trivial_deformation(alg, hd, order),
                             rand_gauge(rng, 2, order))
        out = H.trivialize(alg, hd, defm)
        assert out.gauge is not None
        assert H.apply_gauge(defm, out.gauge) == H.trivial_deformation(alg, hd, order)


def test_trivialize_blocked_reports_order_and_class():
    rng = random.Random(101)
    alg, hd = _nil_line()
    mod = H.adjoint_bimodule(alg, hd)
    mu1 = H.MultiMap(2, 1, 1, (Fraction(1),))
    defm = _order_one(alg, hd, mu1, [H.Matrix.zeros(1, 1)])
    out = H.trivialize(alg, hd, defm)
    assert out.gauge is None
    assert out.blocked_order == 1
    assert H.is_coboundary(alg, mod, hd, out.blocking_class) is None


def test_trivialize_order_cap():
    alg, hd = _dual_pair()
    defm = H.trivial_deformation(alg, hd, 2)
    with pytest.raises(ValueError, match="past the stored order"):
        H.trivialize(alg, hd, defm, 3)


def test_try_extend_trivial_returns_zero_candidate():
    alg, hd = _dual_pair()
    out = H.try_extend(alg, hd, H.trivial_deformation(alg, hd, 2))
    assert out.candidate is not None and out.candidate.is_zero()
    assert out.obstruction.is_zero()


def test_blocked_obstruction_main_is_the_associator_sum():
    z2 = samples.zero_algebra(2)
    zh = H.HigherDerivation.zero(2, 1)
    vals = [Fraction(0)] * 8
    vals[(0 * 2 + 0) * 2 + 1] = Fraction(1)
    vals[(0 * 2 + 1) * 2 + 0] = Fraction(1)
    mu1 = H.MultiMap(2, 2, 2, tuple(vals))
    defm = _order_one(z2, zh, mu1, [H.Matrix.zeros(2, 2)])
    ob = H.obstruction(z2, zh, defm)
    basis = [z2.basis_vector(i) for i in range(2)]
    for i in range(2):
        for j in range(2):
            for l in range(2):
                direct = tuple(
                    x - y for x, y in zip(
                        mm_eval(mu1, (mu1.value_at((i, j)), basis[l])),
                        mm_eval(mu1, (basis[i], mu1.value_at((j, l))))))
                assert ob.main.value_at((i, j, l)) == direct


def test_vanishing_third_cohomology_means_always_extensible():
    rng = random.Random(103)
    qq = samples.product_of_fields()
    qqh = H.HigherDerivation.zero(2, 2)
    mod = H.adjoint_bimodule(qq, qqh)
    assert H.cohomology(qq, mod, qqh, 3).betti == 0
    for order in (1, 2):
        defm = H.apply_gauge(H.trivial_deformation(qq, qqh, order),
                             rand_gauge(rng, 2, order))
        assert H.try_extend(qq, qqh, defm).candidate is not None


DEFORMATION_FILES = ("dual_deform.json", "dual_deform_bad.json", "nil_deform_blocked.json")


def _load_deformation(name):
    doc = json.loads((FIXTURES / name).read_text())
    alg = parse_algebra(doc["algebra"])
    hd = parse_hder(doc["hder"], alg.dim)
    return alg, hd, parse_deformation(doc["deformation"], alg.dim, hd.rank)


DEFORMATION_FIXTURES = [_load_deformation(name) for name in DEFORMATION_FILES]
PAIRS = pair_fixtures()


def _roundtrip_cases():
    """(id, deformation, the JSON section it was read from or None): every
    fixture, then one gauge-trivial family per pair at orders 2, 3, 0, 1, ..."""
    cases = [(name, defm, json.loads((FIXTURES / name).read_text())["deformation"])
             for name, (_alg, _hd, defm) in zip(DEFORMATION_FILES, DEFORMATION_FIXTURES)]
    rng = random.Random(102)
    for index, (name, alg, hd) in enumerate(PAIRS):
        order = (index + 2) % 4
        defm = H.apply_gauge(H.trivial_deformation(alg, hd, order),
                             rand_gauge(rng, alg.dim, order))
        cases.append((f"gauged {name} order {order}", defm, None))
    return cases


ROUNDTRIP_CASES = _roundtrip_cases()


@pytest.mark.parametrize("defm,section", [case[1:] for case in ROUNDTRIP_CASES],
                         ids=[case[0] for case in ROUNDTRIP_CASES])
def test_serialization_roundtrip(defm, section):
    doc = deformation_to_json(defm)
    assert parse_deformation(doc, defm.dim, defm.rank) == defm
    if section is not None:
        assert doc == section


def _spelled_family(rng: random.Random, dim: int, rank: int, order: int) -> dict:
    """A deformation section of random entries, some near 2^40 over 7 and
    11, each token spelled by ``helpers.spelled``; no law is asked to hold."""
    def entry():
        big = Fraction(rng.choice((-1, 1)) * rng.randint(2 ** 39, 2 ** 40), rng.choice((7, 11)))
        return spelled(rng.choice((ZERO, ZERO, rand_fraction(rng), big)), rng)

    def square():
        return [[entry() for _ in range(dim)] for _ in range(dim)]

    return {"order": order, "mu": [[square() for _ in range(dim)] for _ in range(order + 1)],
            "d": [[square() for _ in range(order + 1)] for _ in range(rank)]}


def _read_or_error(read, doc, dim, rank):
    try:
        return read(doc, dim, rank)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 3), st.integers(0, 2 ** 32))
def test_integer_reader_matches_the_fraction_reader(dim, rank, order, seed):
    doc = _spelled_family(random.Random(seed), dim, rank, order)
    read, oracle = parse_deformation(doc, dim, rank), oracle_parse_deformation(doc, dim, rank)
    assert "coeffs" not in vars(read)  # read into the law tables alone
    assert law_table_members(read.tables) == law_table_members(oracle.tables)
    assert read.tables.den == oracle.tables.den
    assert read == oracle and hash(read) == hash(oracle) and repr(read) == repr(oracle)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2), st.integers(0, 2 ** 32),
       st.one_of(st.sampled_from(BAD_TOKENS),
                 st.sampled_from(("short row", "not a list", "no d", "order", "short series"))))
def test_integer_reader_rejects_what_the_fraction_reader_rejects(dim, rank, order, seed, bad):
    # one bad token or one bad shape; the readers walk the file in one order,
    # so they name the same first failure
    rng = random.Random(seed)
    doc = _spelled_family(rng, dim, rank, order)
    rows = [row for t in doc["mu"] for m in t for row in m] + \
        [row for ser in doc["d"] for m in ser for row in m]
    row = rng.choice(rows)
    if bad == "short row":
        row.pop()
    elif bad == "not a list":
        doc["mu" if rng.random() < 0.5 else "d"][0] = "x"
    elif bad == "no d":
        del doc["d"]
    elif bad == "order":
        doc["order"] += 1
    elif bad == "short series":
        doc["d"][-1].pop()
    else:
        row[rng.randrange(len(row))] = bad
    got = _read_or_error(parse_deformation, doc, dim, rank)
    assert isinstance(got, str) and got == _read_or_error(oracle_parse_deformation, doc, dim, rank)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(1, 3), st.integers(0, 2 ** 32))
def test_appended_orders_equal_tables_read_from_fractions(index, appended, seed):
    # candidates over 1, 2, 3, 5 and 7: most of their denominators do not
    # divide D, so the older members are rescaled to the new lcm
    rng = random.Random(seed)
    _alg, _hd, defm = DEFORMATION_FIXTURES[index]
    tables, coeffs, size = defm.tables, defm.coeffs, H.cochain_dim(defm.dim, defm.dim, defm.rank, 2)
    for _ in range(appended):
        values = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5, 7))) for _ in range(size)]
        tables = tables.extended(*int_form(values))
        coeffs += (H.vector_to_cochain(defm.dim, defm.dim, defm.rank, 2, tuple(values)),)
        rebuilt = H.Deformation.from_coeffs(coeffs).tables
        assert law_table_members(tables) == law_table_members(rebuilt)
        assert tables.den == rebuilt.den
        assert H.Deformation(tables) == H.Deformation.from_coeffs(coeffs)


def _perturbed(defm: H.Deformation, rng: random.Random,
               delta: Fraction | None = None, s: int | None = None) -> H.Deformation:
    """One entry of one mu_s or d_{k,s} moved by a nonzero amount; s is
    drawn from 1..order unless given."""
    if s is None:
        s = rng.randint(1, defm.order)
    if delta is None:
        delta = rand_fraction(rng, 1, 3)
    k = rng.randint(0, defm.rank)
    maps = [defm.coeffs[s].main, *defm.coeffs[s].parts]  # mu_s, then d_{k,s}
    vals = list(maps[k].values)
    vals[rng.randrange(len(vals))] += delta
    maps[k] = H.MultiMap(maps[k].arity, maps[k].dim, maps[k].mdim, tuple(vals))
    coeffs = list(defm.coeffs)
    coeffs[s] = H.Cochain(maps[0], tuple(maps[1:]))
    return H.Deformation.from_coeffs(tuple(coeffs))


def _assert_matches_loops(alg, hd, defm):
    report = H.verify_deformation(alg, hd, defm)
    expected = loop_verify_deformation(alg, hd, defm)
    assert report == expected
    assert str(report.violation) == str(expected.violation)
    reference = loop_obstruction(alg, hd, defm)
    assert cochains_equal(deform._known_defect(defm), reference)
    if report.ok:
        assert cochains_equal(H.obstruction(alg, hd, defm), reference)


@pytest.mark.parametrize("index", range(len(DEFORMATION_FIXTURES)))
def test_fixture_deformations_match_loop_oracles(index):
    _assert_matches_loops(*DEFORMATION_FIXTURES[index])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(PAIRS) - 1), st.integers(0, 3), st.booleans(),
       st.integers(0, 2 ** 32))
def test_gauge_trivial_deformations_match_loop_oracles(index, order, perturb, seed):
    rng = random.Random(seed)
    _name, alg, hd = PAIRS[index]
    defm = H.apply_gauge(H.trivial_deformation(alg, hd, order),
                         rand_gauge(rng, alg.dim, order))
    if perturb and order:
        defm = _perturbed(defm, rng)
    _assert_matches_loops(alg, hd, defm)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, len(DEFORMATION_FIXTURES) - 1), st.integers(0, 2 ** 32))
def test_perturbed_fixture_deformations_match_loop_oracles(index, seed):
    alg, hd, defm = DEFORMATION_FIXTURES[index]
    _assert_matches_loops(alg, hd, _perturbed(defm, random.Random(seed)))


@pytest.mark.parametrize("s", [None, 0, 1, 2, 3, 4])
def test_wide_slot_fixture_matches_loop_oracles(s):
    # slots of 239 bits; s is the order of a moved entry, None for none
    alg, hd, defm = _load_deformation("tp3_wide_deform.json")
    if s is not None:
        defm = _perturbed(defm, random.Random(s), Fraction(1, 7), s)
        if s == 0:
            alg, hd = _base_pair(defm)
    _assert_matches_loops(alg, hd, defm)


def _non_integral(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(PAIRS) - 1), st.integers(0, 3), st.integers(0, 4),
       st.sampled_from(("trivial", "gauged", "perturbed")), st.integers(0, 2 ** 32))
def test_apply_gauge_matches_dense_oracle(index, order, gauge_order, start, seed):
    # rand_gauge entries have denominators 2 and 3, so the integer tables
    # run over denominators D > 1 and E > 1
    rng = random.Random(seed)
    _name, alg, hd = PAIRS[index]
    defm = H.trivial_deformation(alg, hd, order)
    if start != "trivial":
        defm = dense_apply_gauge(defm, rand_gauge(rng, alg.dim, order))
    if start == "perturbed" and order:
        defm = _perturbed(defm, rng, _non_integral(rng))
    gauge = rand_gauge(rng, alg.dim, gauge_order)
    assert H.apply_gauge(defm, gauge) == dense_apply_gauge(defm, gauge)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(PAIRS) - 1), st.integers(0, 3), st.integers(0, 4), st.booleans(),
       st.integers(0, 2 ** 32))
def test_table_producers_match_their_fraction_bodies(index, order, gauge_order, perturb, seed):
    # trivial_deformation and apply_gauge fill law tables straight from
    # integers; as rationals they give what their Fraction bodies gave (the
    # denominator D of the tables may differ, so members are not compared)
    rng = random.Random(seed)
    _name, alg, hd = PAIRS[index]
    trivial = H.trivial_deformation(alg, hd, order)
    assert "coeffs" not in vars(trivial)
    assert trivial == fraction_trivial_deformation(alg, hd, order)
    assert trivial.coeffs == fraction_trivial_deformation(alg, hd, order).coeffs
    defm = H.apply_gauge(trivial, rand_gauge(rng, alg.dim, order))
    if perturb and order:
        defm = _perturbed(defm, rng, _non_integral(rng))
    gauge = rand_gauge(rng, alg.dim, gauge_order)
    got, want = H.apply_gauge(defm, gauge), fraction_apply_gauge(defm, gauge)
    assert "coeffs" not in vars(got)
    assert got == want and got.coeffs == want.coeffs and hash(got) == hash(want)
    assert deformation_to_json(got) == deformation_to_json(want)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 3), st.integers(0, 2 ** 32))
def test_law_tables_keep_their_vectors(dim, rank, order, seed):
    rng = random.Random(seed)
    size = H.cochain_dim(dim, dim, rank, 2)
    den = rng.choice((1, 2, 6, 35))
    vectors = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(size)] for _ in range(order + 1)]
    tables = LawTables(dim, den, vectors)
    assert tables.orders == vectors and (tables.order, tables.rank) == (order, rank)
    defm = H.Deformation(tables)
    rebuilt = H.Deformation.from_coeffs(defm.coeffs)
    assert defm == rebuilt and hash(defm) == hash(rebuilt)
    assert [[x * rebuilt.tables.den for x in v] for v in vectors] == \
        [[x * den for x in v] for v in rebuilt.tables.orders]
    assert parse_deformation(deformation_to_json(defm), dim, rank) == defm


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 3), st.integers(2, 12), st.integers(0, 2 ** 32))
def test_a_deformation_keeps_one_form(dim, rank, order, k, seed):
    # the tables in lowest terms are the one form: a rescaled family is the
    # same value, the Fraction view reads back to it, one moved numerator
    # is another value, and appending or slicing orders on the tables gives
    # what the Fraction bodies gave
    rng = random.Random(seed)
    size = H.cochain_dim(dim, dim, rank, 2)
    den = rng.choice((1, 2, 6, 35))
    vectors = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(size)] for _ in range(order + 1)]
    defm = H.Deformation(LawTables(dim, den, vectors))
    scaled = H.Deformation(LawTables(dim, k * den, [[k * x for x in v] for v in vectors]))
    assert scaled == defm and hash(scaled) == hash(defm) and repr(scaled) == repr(defm)
    assert H.Deformation.from_coeffs(defm.coeffs) == defm
    moved = [list(v) for v in vectors]
    moved[rng.randint(0, order)][rng.randrange(size)] += rng.choice((-1, 1))
    assert H.Deformation(LawTables(dim, den, moved)) != defm
    candidate = rand_cochain(rng, dim, dim, rank, 2)
    got, want = H.extend_deformation(defm, candidate), fraction_extend_deformation(defm, candidate)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    for T in range(-1, order + 2):
        assert _outcome_or_error(H.truncate_deformation, defm, T) == \
            _outcome_or_error(fraction_truncate_deformation, defm, T)


def test_extend_deformation_rejects_a_candidate_of_the_wrong_shape():
    alg, hd = _dual_pair()
    defm = H.trivial_deformation(alg, hd, 1)
    for candidate in (H.zero_cochain(2, 2, 2, 3), H.zero_cochain(2, 2, 1, 2), H.zero_cochain(3, 3, 2, 2),
                      H.zero_cochain(2, 3, 2, 2)):
        with pytest.raises(H.ShapeError):
            H.extend_deformation(defm, candidate)
    assert H.extend_deformation(defm, H.zero_cochain(2, 2, 2, 2)) == H.trivial_deformation(alg, hd, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(PAIRS) - 1), st.integers(1, 3), st.integers(0, 2 ** 32))
def test_non_integral_perturbations_match_loop_oracles(index, order, seed):
    rng = random.Random(seed)
    _name, alg, hd = PAIRS[index]
    defm = dense_apply_gauge(H.trivial_deformation(alg, hd, order),
                             rand_gauge(rng, alg.dim, order))
    _assert_matches_loops(alg, hd, defm)
    _assert_matches_loops(alg, hd, _perturbed(defm, rng, _non_integral(rng)))


def test_non_integral_violations_render_as_fractions():
    rendered = []
    for seed in range(12):
        rng = random.Random(seed)
        _name, alg, hd = PAIRS[seed % len(PAIRS)]
        defm = _perturbed(dense_apply_gauge(H.trivial_deformation(alg, hd, 2),
                                            rand_gauge(rng, alg.dim, 2)),
                          rng, _non_integral(rng))
        _assert_matches_loops(alg, hd, defm)
        rendered.append(str(H.verify_deformation(alg, hd, defm).violation))
    assert any("/" in text for text in rendered)  # p/q in the lhs or rhs


def test_deform_extend_verifies_its_input_once(monkeypatch, capsys):
    calls = []
    verify = deform.verify_deformation
    monkeypatch.setattr(deform, "verify_deformation",
                        lambda *args: calls.append(args) or verify(*args))
    argv = ["deform-extend", str(FIXTURES / "dual_deform.json"), "--to", "6", "--json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"]["reached_order"] == 6
    assert len(calls) == 1


def _solve_one_entry_off(monkeypatch, pick, delta):
    """Make ``deform.solve_ints`` move the entry ``pick(columns)`` of each
    solution by ``delta()``, where ``columns`` lists, in order, the
    columns j with d(e_j) != 0."""
    solve = deform.solve_ints

    def one_entry_off(m, nums, den):
        x, q = solve(m, nums, den)
        sol = list(as_fractions(x, q))
        sol[pick(sorted({j for row in m.int_rows[0] for j in row}))] += delta()
        return int_form(sol)

    monkeypatch.setattr(deform, "solve_ints", one_entry_off)


def test_deform_extend_rejects_a_wrong_candidate(monkeypatch, capsys):
    # an appended coefficient that fails its check is a fault of hderlab:
    # exit 3, one stderr line and no report
    _solve_one_entry_off(monkeypatch, lambda columns: columns[0], lambda: 1)
    argv = ["deform-extend", str(FIXTURES / "dual_deform.json"), "--to", "3", "--json"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("internal error: RuntimeError: appended coefficient does not verify")


def _non_cocycle(rng, alg, hd, n):
    mod = H.adjoint_bimodule(alg, hd)
    while True:
        c = rand_cochain(rng, alg.dim, alg.dim, hd.rank, n)
        if not H.differential(alg, mod, hd, c).is_zero():
            return c


def test_trivialize_tests_the_cocycle_when_the_solve_fails(monkeypatch):
    alg, hd = _dual_pair()
    coeff = _non_cocycle(random.Random(7), alg, hd, 2)
    defm = H.extend_deformation(H.trivial_deformation(alg, hd, 0), coeff)
    monkeypatch.setattr(deform, "_require_verified", lambda *args: None)
    with pytest.raises(RuntimeError, match="lowest coefficient at order 1 is not a cocycle"):
        H.trivialize(alg, hd, defm)


def test_deform_obstruct_tests_the_cocycle_when_the_solve_fails(monkeypatch, capsys):
    alg, hd, _defm = DEFORMATION_FIXTURES[0]  # dual_deform.json
    bad = _non_cocycle(random.Random(8), alg, hd, 3)
    monkeypatch.setattr(deform, "_defect", lambda tables: int_form(H.cochain_to_vector(bad)))
    assert cli.main(["deform-obstruct", str(FIXTURES / "dual_deform.json"), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == ["degree-3 input is not a cocycle"]
    assert report["results"] == {}


def test_obstruction_preimage_solves_first(monkeypatch):
    tested = []
    coboundary = deform._coboundary
    monkeypatch.setattr(deform, "_coboundary", lambda *args: tested.append(args[-1]) or coboundary(*args))
    # a found preimage skips the cocycle test, and is the obstruction's
    alg, hd, defm = DEFORMATION_FIXTURES[0]  # dual_deform.json
    (nums, den), pre = deform.obstruction_preimage(alg, hd, defm)
    ob = H.vector_to_cochain(alg.dim, alg.dim, hd.rank, 3, as_fractions(nums, den))
    assert tested == [] and cochains_equal(ob, H.obstruction(alg, hd, defm))
    assert cochains_equal(H.vector_to_cochain(alg.dim, alg.dim, hd.rank, 2, as_fractions(*pre)),
                          H.is_coboundary(alg, H.adjoint_bimodule(alg, hd), hd, ob))
    # no preimage: the test runs on a nonzero class, and a non-cocycle raises
    assert deform.obstruction_preimage(*DEFORMATION_FIXTURES[2])[1] is None  # nil_deform_blocked.json
    assert len(tested) == 1
    bad = _non_cocycle(random.Random(9), alg, hd, 3)
    monkeypatch.setattr(deform, "_defect", lambda tables: int_form(H.cochain_to_vector(bad)))
    with pytest.raises(H.NotACocycleError, match="degree-3 input is not a cocycle"):
        deform.obstruction_preimage(alg, hd, defm)
    assert tested[-1] == int_form(H.cochain_to_vector(bad))[0]


LOOP_FILES = DEFORMATION_FILES + ("tp3_gauged_deform.json", "tp3_wide_deform.json",
                                  "dual_deform_spelled.json")


def _outcome_or_error(run, *args):
    """What ``run(*args)`` returns, or the type and text of what it raises."""
    try:
        return run(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _assert_extends_like_two_scans(alg, hd, defm, target):
    got = _outcome_or_error(H.extend_to, alg, hd, defm, target)
    assert got == _outcome_or_error(two_scan_extend_to, alg, hd, defm, target)
    return got


@pytest.mark.parametrize("name", LOOP_FILES)
def test_extend_to_matches_two_scan_loop_on_fixtures(name):
    alg, hd, defm = _load_deformation(name)
    for target in (defm.order, defm.order + 1, defm.order + 2):
        _assert_extends_like_two_scans(alg, hd, defm, target)


def _tp3_or_dual(kind: str, rank: int):
    if kind == "dual":
        return samples.dual_numbers(), samples.dual_numbers_hder(rank)
    p3 = samples.truncated_polynomials(3)
    return p3, H.ordinary_hder(p3, samples.euler_matrix(3), rank)


def _base_pair(defm: H.Deformation) -> tuple[H.Algebra, H.HigherDerivation]:
    """The pair whose product and maps are the order-0 coefficient."""
    d, c0 = defm.dim, defm.coeffs[0]
    table = [[c0.main.values[(i * d + j) * d:(i * d + j + 1) * d] for j in range(d)]
             for i in range(d)]
    return (H.Algebra.from_table(table),
            H.HigherDerivation(defm.rank, tuple(H.multimap_to_matrix(p) for p in c0.parts)))


@pytest.mark.parametrize("kind", ["tp3", "dual"])
@pytest.mark.parametrize("s", range(5))
@pytest.mark.parametrize("seed", range(4))
def test_one_entry_off_at_each_order_matches_loop_oracles(kind, s, seed):
    # a gauge-trivial order-4 family with one entry of mu_s or d_{k,s}
    # moved; at s = 0 the pair moves with it, so the base check passes and
    # the order-0 laws are what fails
    rng = random.Random(seed)
    alg, hd = _tp3_or_dual(kind, 1 + seed % 2)
    defm = _perturbed(H.apply_gauge(H.trivial_deformation(alg, hd, 4), rand_gauge(rng, alg.dim, 4)),
                      rng, s=s)
    if s == 0:
        alg, hd = _base_pair(defm)
    _assert_matches_loops(alg, hd, defm)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("tp3", "dual")), st.integers(1, 2), st.integers(0, 4),
       st.integers(1, 2), st.integers(0, 2 ** 32))
def test_extend_to_matches_two_scan_loop_on_gauged_families(kind, rank, order, more, seed):
    alg, hd = _tp3_or_dual(kind, rank)
    defm = H.apply_gauge(H.trivial_deformation(alg, hd, order),
                         rand_gauge(random.Random(seed), alg.dim, order))
    reached, blocked = _assert_extends_like_two_scans(alg, hd, defm, order + more)
    assert reached.order == order + more and blocked is None


@pytest.mark.parametrize("name", ["dual_deform.json", "tp3_gauged_deform.json", "tp3_wide_deform.json"])
@pytest.mark.parametrize("seed", range(3))
def test_extend_to_rejects_a_candidate_with_one_entry_changed(monkeypatch, name, seed):
    alg, hd, defm = _load_deformation(name)
    rng = random.Random(seed)
    _solve_one_entry_off(monkeypatch, lambda columns: rng.choice(columns),
                         lambda: rand_fraction(rng, 1, 3))
    kind, text = _outcome_or_error(H.extend_to, alg, hd, defm, defm.order + 1)
    assert kind is RuntimeError and text.startswith("appended coefficient does not verify")
    rng = random.Random(seed)  # the oracle's solve changes the same entry
    assert (kind, text) == _outcome_or_error(two_scan_extend_to, alg, hd, defm, defm.order + 1)


def _assert_trivializes_like_the_loop(alg, hd, defm, max_order=None):
    got = _outcome_or_error(H.trivialize, alg, hd, defm, max_order)
    assert got == _outcome_or_error(loop_trivialize, alg, hd, defm, max_order)
    if isinstance(got, H.TrivializeOutcome) and got.gauge is not None:
        T = got.gauge.order
        assert H.apply_gauge(H.truncate_deformation(defm, T), got.gauge) \
            == H.trivial_deformation(alg, hd, T)
    return got


@pytest.mark.parametrize("name", LOOP_FILES)
def test_trivialize_matches_fraction_loop_on_fixtures(name):
    alg, hd, defm = _load_deformation(name)
    for max_order in range(defm.order + 2):
        _assert_trivializes_like_the_loop(alg, hd, defm, max_order)


def test_trivialize_fixtures_reach_both_outcomes():
    outcomes = [H.trivialize(*_load_deformation(name)) for name in
                ("dual_deform.json", "nil_deform_blocked.json", "tp3_gauged_deform.json")]
    assert [out.gauge is None for out in outcomes] == [False, True, False]
    assert outcomes[1].blocked_order == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(PAIRS) - 1), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2 ** 32))
def test_trivialize_matches_fraction_loop_on_gauged_families(index, order, cap, seed):
    rng = random.Random(seed)
    _name, alg, hd = PAIRS[index]
    defm = H.apply_gauge(H.trivial_deformation(alg, hd, order),
                         rand_gauge(rng, alg.dim, order))
    out = _assert_trivializes_like_the_loop(alg, hd, defm, min(cap, order))
    assert out.gauge is not None


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 2 ** 32))
def test_trivialize_matches_fraction_loop_on_nil_first_orders(dim, rank, seed):
    # zero product and zero maps: every order-1 coefficient verifies, and
    # most are not coboundaries, so the loops block at order 1
    rng = random.Random(seed)
    alg, hd = samples.zero_algebra(dim), H.HigherDerivation.zero(dim, rank)
    coeff = rand_cochain(rng, dim, dim, rank, 2)
    defm = H.extend_deformation(H.trivial_deformation(alg, hd, 0), coeff)
    _assert_trivializes_like_the_loop(alg, hd, defm)
