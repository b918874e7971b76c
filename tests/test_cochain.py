import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hderlab as H
from hderlab import cochain, exactlin, samples
from hderlab.deform import product_multimap
from hderlab.serialize import algebra_to_json, cochain_to_json, parse_algebra, parse_bimodule, parse_cochain

from helpers import (
    betti2_by_rank_count, bimodule_from_tensors, cochain_add, cochain_scale, cochains_equal, coefficient_fixtures,
    delta_hoch, delta_k, delta_prime, differential_matrix_by_columns, mm_add, mm_eval,
    mm_scale, oracle_differential, oracle_stencil_tables, rand_cochain, rand_fraction,
    rand_multimap, raw_coboundary, rescaled_pair,
)

FIXTURES = coefficient_fixtures()
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _dual_adjoint():
    alg = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    return alg, hd, H.adjoint_bimodule(alg, hd)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 2), st.integers(1, 3), st.integers(2, 6),
       st.integers(0, 2 ** 32))
def test_a_cochain_stores_one_form_at_any_scale(dim, mdim, nrank, n, k, seed):
    # the form in lowest terms whatever scale built it; the multimap views,
    # the Fraction vector and the report cells all read it
    rng = random.Random(seed)
    c = rand_cochain(rng, dim, mdim, nrank, n)
    nums, den = c.int_form
    assert math.gcd(den, *nums) == 1 and c.shape == (dim, mdim, nrank if n > 1 else 0)
    scaled = H.Cochain(dim, mdim, nrank, n, ([x * k for x in nums], den * k))
    assert scaled.int_form == c.int_form
    assert scaled == c and hash(scaled) == hash(c) and repr(scaled) == repr(c)
    assert H.Cochain.from_maps(c.main, c.parts) == c
    assert H.cochain_to_vector(c) == tuple(Fraction(x, den) for x in nums)
    assert parse_cochain(cochain_to_json(c), dim, mdim, nrank) == c
    moved = list(nums)
    moved[rng.randrange(len(moved))] += 1
    assert H.Cochain(dim, mdim, nrank, n, (moved, den)) != c
    with pytest.raises(H.ShapeError):
        H.Cochain(dim, mdim, nrank, n, (nums + (0,), den))


def test_multimap_indexing_matches_flat_layout():
    mm = H.MultiMap(2, 2, 3, tuple(Fraction(i) for i in range(12)))
    assert mm.value_at((1, 0)) == (Fraction(6), Fraction(7), Fraction(8))
    assert mm_eval(mm, ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))) == \
        (Fraction(6), Fraction(7), Fraction(8))


def test_delta_hoch_of_zero_is_zero():
    alg, hd, mod = _dual_adjoint()
    assert delta_hoch(alg, mod, H.MultiMap.zero(2, 2, 2)).is_zero()


def test_delta_hoch_of_identity_is_multiplication():
    alg, hd, mod = _dual_adjoint()
    ident = H.matrix_to_multimap(H.Matrix.identity(2))
    df = delta_hoch(alg, mod, ident)
    assert df.values == product_multimap(alg).values
    assert df.value_at((0, 0)) == (Fraction(1), Fraction(0))  # (u, u) -> u


def test_delta_hoch_squares_to_zero():
    rng = random.Random(60)
    for _, alg, hd, mod in coefficient_fixtures()[:6]:
        for n in (1, 2):
            f = rand_multimap(rng, n, alg.dim, mod.mdim)
            assert delta_hoch(alg, mod, delta_hoch(alg, mod, f)).is_zero()


def test_delta_prime_zero_actions_reduces_to_composition_term():
    alg = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    mod = H.trivial_bimodule(alg, 1, (H.Matrix.zeros(1, 1), H.Matrix.zeros(1, 1)))
    rng = random.Random(61)
    parts = tuple(rand_multimap(rng, 1, 2, 1) for _ in range(2))
    out = delta_prime(alg, mod, hd, parts)
    for k in (1, 2):
        fk = parts[k - 1]
        for i in range(2):
            for j in range(2):
                expected = [Fraction(0)]
                for r, coeff in enumerate(alg.c[i][j]):
                    if coeff:
                        expected[0] -= coeff * fk.value_at((r,))[0]
                assert out[k - 1].value_at((i, j)) == tuple(expected)


def test_delta_prime_squares_to_zero():
    rng = random.Random(62)
    for _, alg, hd, mod in coefficient_fixtures()[:8]:
        for n in (1, 2):
            parts = tuple(rand_multimap(rng, n, alg.dim, mod.mdim)
                          for _ in range(hd.rank))
            once = delta_prime(alg, mod, hd, parts)
            assert all(p.is_zero() for p in delta_prime(alg, mod, hd, once))


def test_delta_k_zero_maps_give_zero():
    alg = samples.product_of_fields()
    hd = H.HigherDerivation.zero(2, 2)
    mod = H.adjoint_bimodule(alg, hd)
    rng = random.Random(63)
    for n in (1, 2):
        f = rand_multimap(rng, n, 2, 2)
        for k in (1, 2):
            assert delta_k(alg, mod, hd, f, k).is_zero()


def test_delta_k_arity_one_is_commutator():
    alg, hd, mod = _dual_adjoint()
    rng = random.Random(64)
    f = rand_multimap(rng, 1, 2, 2)
    fmat = H.multimap_to_matrix(f)
    for k in (1, 2):
        expected = fmat * hd.maps[k - 1] - mod.dmaps[k - 1] * fmat
        assert H.multimap_to_matrix(delta_k(alg, mod, hd, f, k)) == expected


def test_delta_one_of_identity_vanishes_on_adjoint():
    alg, hd, mod = _dual_adjoint()
    ident = H.matrix_to_multimap(H.Matrix.identity(2))
    assert delta_k(alg, mod, hd, ident, 1).is_zero()


def test_differential_squares_to_zero_across_fixtures():
    rng = random.Random(65)
    for _, alg, hd, mod in coefficient_fixtures():
        for n in (1, 2):
            c = rand_cochain(rng, alg.dim, mod.mdim, hd.rank, n)
            dd = H.differential(alg, mod, hd, H.differential(alg, mod, hd, c))
            assert dd.is_zero()


def test_one_pass_assembly_matches_unit_columns():
    for name, alg, hd, mod in FIXTURES:
        for n in (1, 2, 3):
            assert H.differential_matrix(alg, mod, hd, n) == \
                differential_matrix_by_columns(alg, mod, hd, n), (name, n)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("index", range(len(FIXTURES)), ids=lambda i: FIXTURES[i][0])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_differential_matches_oracle(index, n, data):
    _, alg, hd, mod = FIXTURES[index]
    size = H.cochain_dim(alg.dim, mod.mdim, hd.rank, n)
    if data.draw(st.booleans(), label="sparse"):
        # 1-3 nonzero coordinates: most columns are skipped
        vec = [Fraction(0)] * size
        for pos in data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                      max_size=3, unique=True), label="positions"):
            vec[pos] = data.draw(RATIONALS.filter(bool))
    else:
        vec = data.draw(st.lists(RATIONALS, min_size=size, max_size=size), label="dense")
    c = H.vector_to_cochain(alg.dim, mod.mdim, hd.rank, n, tuple(vec))
    assert cochains_equal(H.differential(alg, mod, hd, c),
                          oracle_differential(alg, mod, hd, c))


def test_differential_rejects_wrong_shape():
    rng = random.Random(72)
    alg, hd, mod = _dual_adjoint()
    for dim, mdim in ((1, 2), (3, 2), (2, 1), (2, 3)):
        for n in (1, 2):
            c = rand_cochain(rng, dim, mdim, hd.rank, n)
            with pytest.raises(H.ShapeError, match="shape"):
                H.differential(alg, mod, hd, c)


def test_differential_on_trivial_module_spot_value():
    alg = samples.dual_numbers()
    hd = samples.dual_numbers_hder(2)
    mod = H.trivial_bimodule(alg, 1, (H.Matrix.zeros(1, 1), H.Matrix.zeros(1, 1)))
    f = H.MultiMap(1, 2, 1, (Fraction(1), Fraction(0)))  # f(u)=1, f(x)=0
    out = H.differential(alg, mod, hd, H.Cochain.from_maps(f))
    assert out.main.value_at((0, 0)) == (Fraction(-1),)  # -f(u u) = -1
    assert len(out.parts) == 2


def test_operators_are_linear():
    rng = random.Random(66)
    alg, hd, mod = _dual_adjoint()
    lam = rand_fraction(rng)
    for n in (1, 2):
        c1 = rand_cochain(rng, 2, 2, 2, n)
        c2 = rand_cochain(rng, 2, 2, 2, n)
        combo = H.differential(alg, mod, hd, cochain_add(c1, cochain_scale(c2, lam)))
        split = cochain_add(H.differential(alg, mod, hd, c1),
                            cochain_scale(H.differential(alg, mod, hd, c2), lam))
        assert cochains_equal(combo, split)
        f1 = rand_multimap(rng, n, 2, 2)
        f2 = rand_multimap(rng, n, 2, 2)
        assert delta_hoch(alg, mod, mm_add(f1, mm_scale(f2, lam))).values == \
            mm_add(delta_hoch(alg, mod, f1), mm_scale(delta_hoch(alg, mod, f2), lam)).values
        for k in (1, 2):
            assert delta_k(alg, mod, hd, mm_add(f1, mm_scale(f2, lam)), k).values == \
                mm_add(delta_k(alg, mod, hd, f1, k),
                       mm_scale(delta_k(alg, mod, hd, f2, k), lam)).values


def test_commutation_lemma():
    rng = random.Random(67)
    for _, alg, hd, mod in coefficient_fixtures()[:8]:
        for n in (1, 2):
            f = rand_multimap(rng, n, alg.dim, mod.mdim)
            family = tuple(delta_k(alg, mod, hd, f, k)
                           for k in range(1, hd.rank + 1))
            lhs = delta_prime(alg, mod, hd, family)
            dh = delta_hoch(alg, mod, f)
            for k in range(1, hd.rank + 1):
                assert lhs[k - 1].values == delta_k(alg, mod, hd, dh, k).values


def test_raw_coboundary_agrees_with_differential():
    rng = random.Random(68)
    for _, alg, hd, mod in coefficient_fixtures()[:8]:
        h = rand_multimap(rng, 1, alg.dim, mod.mdim)
        raw = raw_coboundary(alg, hd, mod, h)
        assert cochains_equal(raw, H.differential(alg, mod, hd, H.Cochain.from_maps(h)))


def test_cochain_space_dimensions():
    assert H.cochain_dim(2, 2, 2, 2) == 2 * 4 + 2 * 2 * 2
    assert H.cochain_dim(3, 1, 2, 3) == 27 + 2 * 9
    assert H.cochain_dim(2, 5, 3, 1) == 10


def test_cohomology_split_adjoint_vanishes():
    qq = samples.product_of_fields()
    hd = H.HigherDerivation.zero(2, 2)
    mod = H.adjoint_bimodule(qq, hd)
    rep = H.cohomology(qq, mod, hd, 2)
    assert rep.betti == 0
    assert rep.dim_cochains == 16
    assert rep.dim_cocycles == rep.dim_coboundaries == 4
    assert H.cohomology(qq, mod, hd, 1).betti == 0


def test_cohomology_degree_one_is_pure_kernel():
    qq = samples.product_of_fields()
    hd = H.HigherDerivation.zero(2, 2)
    mod = H.trivial_bimodule(qq, 1, (H.Matrix.zeros(1, 1), H.Matrix.zeros(1, 1)))
    rep = H.cohomology(qq, mod, hd, 1)
    assert rep.betti == 0 and rep.dim_coboundaries == 0


def test_cohomology_matches_raw_rank_oracle():
    cases = []
    qq = samples.product_of_fields()
    hd1 = H.HigherDerivation.zero(2, 1)
    cases.append((qq, hd1, H.trivial_bimodule(qq, 1, (H.Matrix.zeros(1, 1),))))
    z1 = samples.zero_algebra(1)
    zh = H.HigherDerivation.zero(1, 1)
    cases.append((z1, zh, H.trivial_bimodule(z1, 1, (H.Matrix.zeros(1, 1),))))
    d2 = samples.dual_numbers()
    d2h = samples.dual_numbers_hder(2)
    cases.append((d2, d2h, H.adjoint_bimodule(d2, d2h)))
    cases.append((z1, H.HigherDerivation(1, (H.Matrix(1, 1, (Fraction(2),)),)),
                  H.trivial_bimodule(z1, 1, (H.Matrix(1, 1, (Fraction(2),)),))))
    for alg, hd, mod in cases:
        assert H.cohomology(alg, mod, hd, 2).betti == betti2_by_rank_count(alg, hd, mod)


def test_cohomology_eliminates_each_matrix_once(monkeypatch):
    alg, hd, mod = _dual_adjoint()
    echelons, insert = [], exactlin.Echelon._insert

    def counted(ech, v, end=math.inf):  # [echelon, rows kept] per run of inserts
        if not echelons or echelons[-1][0] is not ech:
            echelons.append([ech, 0])
        pivot = insert(ech, v, end)
        echelons[-1][1] += pivot is not None
        return pivot

    monkeypatch.setattr(exactlin.Echelon, "_insert", counted)
    for limit in (0, exactlin.FACTOR_KERNEL_COLS):  # the row route, then the factor route
        monkeypatch.setattr(exactlin, "FACTOR_KERNEL_COLS", limit)
        H.differential_matrix.cache_clear()  # a cached matrix keeps its solve factor
        echelons.clear()
        rep = H.cohomology(alg, mod, hd, 2)
        # one echelon per differential: the rank of the incoming 16x4 one,
        # which bounds the outgoing one, and the kernel of the outgoing 32x16 one
        assert [kept for _ech, kept in echelons] == \
            [rep.dim_coboundaries, rep.dim_cochains - rep.dim_cocycles] == [3, 11]


def _int_rows_digest(m) -> str:
    rows, scale = m.int_rows(), m.int_form[1]
    text = json.dumps([scale, [sorted(row.items()) for row in rows]], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_consumers_leave_the_cached_column_store_as_built():
    # a zero-multiplication plane with a module map of 3 and betti 2 in
    # degree 2: classify-central hands the columns of d_1 to an echelon that
    # takes them over, a solve factors d_1, and cohomology reads d_1 and d_2
    alg = samples.zero_algebra(2)
    hd = H.HigherDerivation(1, (H.Matrix.from_rows([[1, 1], [0, 2]]),))
    mod = H.trivial_bimodule(alg, 1, (H.Matrix.from_rows([[3]]),))
    H.differential_matrix.cache_clear()
    assert len(H.classify_central(alg, hd, mod)) == 3
    c = H.differential(alg, mod, hd, H.vector_to_cochain(2, 1, 1, 1, (Fraction(1, 2), Fraction(-3))))
    assert H.is_coboundary(alg, mod, hd, c) is not None
    assert [H.cohomology(alg, mod, hd, n).betti for n in (1, 2, 3)] == [0, 2, 3]
    for n in (1, 2, 3):
        cached, fresh = H.differential_matrix(alg, mod, hd, n), H.differential_matrix.__wrapped__(alg, mod, hd, n)
        assert cached == fresh and hash(cached) == hash(fresh)
        assert cached.int_columns() == fresh.int_columns()
        assert _int_rows_digest(cached) == _int_rows_digest(fresh)


def test_cached_differentials_keep_their_column_store_and_no_rows():
    # the benchmark's M2(Q) rank-1 pair: degrees 1 and 2 read the kernel off
    # the solve factor, degree 3 (320 columns) takes the row echelon, and a
    # preimage solve factors d_3; no matrix keeps the rows an echelon read
    alg = samples.matrix_algebra_2x2()
    hd = H.power_commutator_hder(alg, samples.matrix_unit_vector(1, 2), 1)
    mod = H.adjoint_bimodule(alg, hd)
    H.differential_matrix.cache_clear()
    for n in (1, 2, 3):
        H.cohomology(alg, mod, hd, n)
    c = H.differential(alg, mod, hd, rand_cochain(random.Random(3), 4, 4, 1, 3))
    assert H.preimage(alg, mod, hd, c) is not None
    assert H.differential_matrix.cache_info().currsize == 3
    for n in (1, 2, 3):
        m = H.differential_matrix(alg, mod, hd, n)
        assert set(vars(m)) == {"rows", "cols", "int_form", "_factor"}, n


def test_zero_multiplication_line_has_expected_classes():
    # one-dimensional zero algebra: d_1 = (c), module map (e) on a line;
    # hand analysis: betti(2) = [2c == e] + [c == e]
    z1 = samples.zero_algebra(1)
    for c, e, expected in ((0, 0, 2), (1, 1, 1), (1, 2, 1), (1, 3, 0)):
        hd = H.HigherDerivation(1, (H.Matrix(1, 1, (Fraction(c),)),))
        mod = H.trivial_bimodule(z1, 1, (H.Matrix(1, 1, (Fraction(e),)),))
        assert H.cohomology(z1, mod, hd, 2).betti == expected, (c, e)


def test_is_coboundary_roundtrip_and_zero():
    rng = random.Random(69)
    alg, hd, mod = _dual_adjoint()
    c1 = rand_cochain(rng, 2, 2, 2, 1)
    img = H.differential(alg, mod, hd, c1)
    pre = H.is_coboundary(alg, mod, hd, img)
    assert pre is not None
    assert cochains_equal(H.differential(alg, mod, hd, pre), img)
    zero = H.zero_cochain(2, 2, 2, 2)
    assert H.is_coboundary(alg, mod, hd, zero).is_zero()


def test_is_coboundary_rejects_non_cocycle():
    rng = random.Random(70)
    alg, hd, mod = _dual_adjoint()
    c = rand_cochain(rng, 2, 2, 2, 2)
    assert not H.differential(alg, mod, hd, c).is_zero()
    with pytest.raises(H.NotACocycleError):
        H.is_coboundary(alg, mod, hd, c)


def test_is_coboundary_detects_fresh_class():
    z1 = samples.zero_algebra(1)
    hd = H.HigherDerivation.zero(1, 1)
    mod = H.trivial_bimodule(z1, 1, (H.Matrix.zeros(1, 1),))
    rep = H.cohomology(z1, mod, hd, 2)
    assert rep.betti > 0
    assert H.is_coboundary(z1, mod, hd, rep.cocycle_basis[0]) is None


def test_vectorization_roundtrip():
    rng = random.Random(71)
    for n in (1, 2, 3):
        c = rand_cochain(rng, 2, 2, 2, n)
        vec = H.cochain_to_vector(c)
        assert len(vec) == H.cochain_dim(2, 2, 2, n)
        back = H.vector_to_cochain(2, 2, 2, n, vec)
        assert cochains_equal(c, back)


def test_cohomology_cap():
    alg, hd, mod = _dual_adjoint()
    with pytest.raises(H.ShapeError, match="exceeds"):
        H.cohomology(alg, mod, hd, 2, max_dim=3)


def test_delta_prime_of_zero_family_is_zero():
    alg, hd, mod = _dual_adjoint()
    parts = tuple(H.MultiMap.zero(2, 2, 2) for _ in range(2))
    assert all(p.is_zero() for p in delta_prime(alg, mod, hd, parts))


def test_differential_of_zero_cochain_is_zero():
    alg, hd, mod = _dual_adjoint()
    for n in (1, 2, 3):
        out = H.differential(alg, mod, hd, H.zero_cochain(2, 2, 2, n))
        assert out.is_zero()


def test_integer_stencil_on_fractional_structure_constants():
    # products over 375, d_q over 50, and module maps over 50 (adjoint) or
    # 77 (trivial): every column is integer numerators over one scale
    rng = random.Random(74)
    rescaled = [f for f in FIXTURES if f[0].startswith("poly3-rescaled/")]
    assert len(rescaled) == 2
    def den(values):  # the lcm of the denominators
        return exactlin.int_form([*values])[1]

    for name, alg, hd, mod in rescaled:
        d_alg = den(x for t in alg.c for row in t for x in row)
        d_hd = den(x for m in hd.maps for x in m.entries)
        d_mod = den(x for m in mod.dmaps for x in m.entries)
        assert min(d_alg, d_hd, d_mod) > 1, name
        for n in (1, 2, 3):
            m = H.differential_matrix(alg, mod, hd, n)
            cols, scale = m.int_form
            assert all(isinstance(x, int) and x for col in cols for x in col.values())
            assert m == differential_matrix_by_columns(alg, mod, hd, n), (name, n)
            c = H.vector_to_cochain(alg.dim, mod.mdim, hd.rank, n, tuple(
                Fraction(rng.randint(-50, 50), rng.randint(1, 10 ** 4))
                for _ in range(H.cochain_dim(alg.dim, mod.mdim, hd.rank, n))))
            assert cochains_equal(H.differential(alg, mod, hd, c),
                                  oracle_differential(alg, mod, hd, c)), (name, n)
    assert rescaled[1][3].dmaps != rescaled[0][3].dmaps


def test_equal_structures_hash_equal_and_hit_the_cache():
    def build():
        alg = samples.truncated_polynomials(3)
        hd = H.ordinary_hder(alg, samples.euler_matrix(3), 2)
        return alg, H.adjoint_bimodule(alg, hd), hd

    first, second = build(), build()
    for a, b in zip(first, second):
        assert a is not b and a == b and hash(a) == hash(b) == hash(b)
    H.differential_matrix.cache_clear()
    cochain._tables.cache_clear()
    m = H.differential_matrix(*first, 2)
    assert H.differential_matrix(*second, 2) is m
    info = H.differential_matrix.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # differential(c) reads the stencil tables the matrix was built from
    alg, mod, hd = second
    c = rand_cochain(random.Random(75), alg.dim, mod.mdim, hd.rank, 2)
    assert H.cochain_to_vector(H.differential(alg, mod, hd, c)) == m.apply(H.cochain_to_vector(c))
    info = cochain._tables.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def _tokens(values, rng: random.Random) -> list[str]:
    """Each rational as a "p/q" token, p and q multiplied by 1 to 4: "2/4"
    and "1/2" name one value."""
    out = []
    for x in values:
        k = rng.randint(1, 4)
        out.append(f"{x.numerator * k}/{x.denominator * k}")
    return out


def _tensor_tokens(t, rng: random.Random) -> list:
    return [[_tokens(inner, rng) for inner in mid] for mid in t]


def _hashed_without_fraction_hash(*structures) -> list[int]:
    """``hash`` of each structure, failing if any Fraction is hashed."""
    original = Fraction.__hash__
    calls = []
    Fraction.__hash__ = lambda self: calls.append(self) or original(self)
    try:
        hashes = [hash(x) for x in structures]
    finally:
        Fraction.__hash__ = original
    assert calls == []
    return hashes


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 6))
def test_structures_from_every_route_share_one_integer_form_hash_and_cache_entry(seed, k):
    # one pair reached three ways: tokens written over unreduced
    # denominators ("2/4") against rat_str's ("1/2"), the maps as integer rows over
    # k times their scale against Fraction rows, and the adjoint module
    # against the same tensors read as a file bimodule
    rng = random.Random(seed)
    name, alg, hd, _mod = FIXTURES[rng.randrange(len(FIXTURES))]
    alg, hd = rescaled_pair(alg, hd, tuple(Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2, 5)))
                                           for _ in range(alg.dim)))
    d = alg.dim
    first = (parse_algebra({"dim": d, "table": algebra_to_json(alg)["table"], "basis": list(alg.basis_labels)}),
             H.adjoint_bimodule(alg, hd),
             H.HigherDerivation(hd.rank, tuple(H.Matrix.from_rows([m.row(i) for i in range(d)])
                                               for m in hd.maps)))
    table = _tensor_tokens(alg.c, rng)
    second = (parse_algebra({"dim": d, "table": table, "basis": list(alg.basis_labels)}),
              parse_bimodule({"mdim": d, "left": table, "right": _tensor_tokens(alg.c, rng),
                              "dmaps": [[_tokens(m.row(i), rng) for i in range(d)]
                                        for m in hd.maps]}, d, hd.rank),
              H.HigherDerivation(hd.rank, tuple(
                  H.Matrix.from_int_columns([{i: x * k for i, x in col.items()} for col in m.int_form[0]],
                                            m.int_form[1] * k, d) for m in hd.maps)))
    hashes = [_hashed_without_fraction_hash(*first), _hashed_without_fraction_hash(*second)]
    # a matrix hashes from its integer columns, without making dense entries
    m = second[2].maps[0]
    assert "entries" not in m.__dict__
    assert hashes[0] == hashes[1], name
    for a, b in zip(first, second):
        assert a == b, name
    assert first[0].int_form == second[0].int_form and first[1].int_form == second[1].int_form
    H.differential_matrix.cache_clear()
    dm = H.differential_matrix(first[0], first[1], first[2], 2)
    assert H.differential_matrix(second[0], second[1], second[2], 2) is dm
    hash(dm)
    assert "entries" not in dm.__dict__
    # one changed entry changes the form
    i, j, c = (rng.randrange(d) for _ in range(3))
    bumped = [[list(inner) for inner in mid] for mid in alg.c]
    bumped[i][j][c] += Fraction(1, 3)
    assert H.Algebra.from_table(bumped).int_form != first[0].int_form
    assert bimodule_from_tensors(d, alg.c, bumped, hd.maps).int_form != first[1].int_form
    rows = [list(m.row(r)) for r in range(d)]
    rows[i][j] += 1
    assert H.Matrix.from_rows(rows).int_form != m.int_form


@pytest.mark.parametrize("name,alg,hd,mod", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_stencil_tables_match_the_per_degree_oracle(name, alg, hd, mod):
    for n in range(1, 5):
        assert cochain._tables(alg, mod, hd, n) == oracle_stencil_tables(alg, mod, hd, n), (name, n)


def _rational_tokens(rng: random.Random, count: int, dens) -> list[str]:
    return [f"{rng.randint(-9, 9) if rng.random() < 0.6 else 0}/{rng.choice(dens)}"
            for _ in range(count)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(2, 3))
def test_stencil_tables_scale_with_the_degree_when_the_maps_have_denominators(seed, dim, rank):
    # d_k = d1^k / k! has denominators from rank 2 on, so the scale of the
    # degree-n table grows with n by D_hd > 1; the module is a file
    # bimodule whose entries have denominators of their own (3, 7, 9)
    rng = random.Random(seed)
    base = samples.truncated_polynomials(dim)
    # an odd numerator: d_2 = d1^2 / 2 has an even denominator
    d1 = samples.euler_matrix(dim).scale(Fraction(rng.choice((1, 3)), rng.choice((1, 2, 5))))
    alg, hd = rescaled_pair(base, H.ordinary_hder(base, d1, rank),
                            tuple(Fraction(rng.choice((1, -1, 3)), rng.choice((1, 2))) for _ in range(dim)))
    md = rng.randint(1, 3)

    def tensor(a, b, c):
        return [[_rational_tokens(rng, c, (1, 3, 7, 9)) for _ in range(b)] for _ in range(a)]

    mod = parse_bimodule({"mdim": md, "left": tensor(dim, md, md), "right": tensor(md, dim, md),
                          "dmaps": [[_rational_tokens(rng, md, (1, 3, 7)) for _ in range(md)]
                                    for _ in range(rank)]}, dim, rank)
    first = cochain._tables(alg, mod, hd, 1)
    assert first[-1] // first[-2] > 1  # D_hd
    for n in range(1, 5):
        assert cochain._tables(alg, mod, hd, n) == oracle_stencil_tables(alg, mod, hd, n), n
