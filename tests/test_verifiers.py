"""The integer input verifiers against the Fraction scans kept as oracles in
``helpers``: ``verify_algebra``, ``verify_hder`` and ``verify_liehder`` must
return the same whole report, and the same violation string, on verified
pairs, on rescaled copies with non-trivial denominators, on commutator Lie
pairs, and on single-entry perturbations of products, maps and brackets."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import hderlab as H
from hderlab import samples

from helpers import (
    oracle_verify_algebra, oracle_verify_hder, oracle_verify_liehder, pair_fixtures,
    rescaled_pair,
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
        alg = H.Algebra(alg.dim, _with_entry(alg.c, at, data.draw(VALUES)),
                        alg.basis_labels, alg.unit_index)
    _same(H.verify_algebra(alg), oracle_verify_algebra(alg))


@settings(max_examples=60, deadline=None)
@given(pairs(), st.sampled_from(("none", "product", "map")), st.data())
def test_verify_hder_matches_oracle(pair, where, data):
    alg, hd = pair
    if where == "product":
        at = _draw_index(data, (alg.dim,) * 3)
        alg = H.Algebra(alg.dim, _with_entry(alg.c, at, data.draw(VALUES)),
                        alg.basis_labels, alg.unit_index)
    elif where == "map":
        hd = H.HigherDerivation(hd.rank, _perturb_map(data, hd.maps))
    _same(H.verify_hder(alg, hd), oracle_verify_hder(alg, hd))


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
