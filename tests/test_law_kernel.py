"""The packed law kernel, ``algebras.LawTables``, against the per-tuple
integer scans it replaced, kept as oracles in ``helpers``: every unpacked
plane, every first failure (in scan order or over a chosen list of tuples)
and the first failure over all orders must match, on random sparse tables of
dims 1-4, ranks 1-3 and orders 0-5 with entries up to 2^64 over denominators
up to 2^20, on zero tables, and on tables whose every entry is the table
maximum, where the slot sums reach the bound that sets the slot width.  The
one codec offset is checked against a window per order (``window_digits``)
at every order 0..n+1."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hderlab as H

from helpers import oracle_associativity_terms, oracle_derivation_law_terms, window_digits


def _oracle_terms(tables, k: int, s: int, at=None):
    """``(tuple, lhs, rhs)`` of law k at order s from the oracles, in order."""
    if k == 0:
        return [(t, lhs, rhs) for _k, t, lhs, rhs, _q in oracle_associativity_terms(tables, s, at)]
    return [(t, lhs, rhs) for kk, t, lhs, rhs, _q in oracle_derivation_law_terms(tables, s, at)
            if kk == k]


def _oracle_failure(tables, k: int, s: int, at=None):
    return next(((t, lhs, rhs) for t, lhs, rhs in _oracle_terms(tables, k, s, at) if lhs != rhs),
                None)


def _tables(dim: int, rank: int, order: int, value):
    """Law tables of random coefficients: ``value()`` draws each entry."""
    products = [tuple(value() for _ in range(dim ** 3)) for _ in range(order + 1)]
    series = [[tuple(value() for _ in range(dim ** 2)) for _ in range(order + 1)]
              for _ in range(rank)]
    vectors = [mu + sum((ser[s] for ser in series), ()) for s, mu in enumerate(products)]
    return H.Deformation.from_coeffs([H.vector_to_cochain(dim, dim, rank, 2, v) for v in vectors]).tables


def _assert_reads_every_window(tables):
    """At every order 0..n+1, ``unpack`` and ``failure`` through the one
    codec offset read what the window of that order alone reads."""
    for k in range(tables.rank + 1):
        lhs, rhs = tables.sides(k)
        for s in range(tables.order + 2):
            windows = [(window_digits(tables, x, s), window_digits(tables, y, s)) for x, y in zip(lhs, rhs)]
            assert tables.unpack(k, s) == tuple([x for pair in windows for x in pair[side]] for side in (0, 1))
            assert tables.failure(k, s) == next(((tables.tuple_at(k, t), x, y) for t, (x, y) in enumerate(windows)
                                                 if x != y), None)


def _assert_matches_oracle(tables, rng: random.Random):
    d, n = tables.dim, tables.order
    _assert_reads_every_window(tables)
    for k in range(tables.rank + 1):
        assert tables.scale(k) == tables.den ** (2 if k == 0 else 3)
        for s in range(n + 2):
            terms = _oracle_terms(tables, k, s)
            assert tables.unpack(k, s) == ([x for _t, lhs, _r in terms for x in lhs],
                                           [x for _t, _l, rhs in terms for x in rhs])
            assert [tables.tuple_at(k, t) for t in range(len(terms))] == [t for t, _l, _r in terms]
            failure = tables.failure(k, s)
            assert failure == _oracle_failure(tables, k, s)
            at = [t for t, _l, _r in terms if rng.random() < 0.5]
            rng.shuffle(at)
            assert tables.failure(k, s, at) == _oracle_failure(tables, k, s, at)
    for upto in range(n + 2):
        first = next(((s, k, *bad) for s in range(upto + 1) for k in range(tables.rank + 1)
                      if (bad := _oracle_failure(tables, k, s)) is not None), None)
        assert tables.first_failure(upto) == first


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 5), st.integers(0, 64),
       st.integers(0, 20), st.sampled_from((0.0, 0.5, 0.8, 0.95, 1.0)), st.integers(0, 2 ** 32))
def test_packed_planes_match_the_integer_scans(dim, rank, order, size, den_bits, zeros, seed):
    # ``zeros`` is the share of zero entries: 1.0 gives the zero tables, and
    # the sparse ones leave many tuples holding, so first failures move
    rng = random.Random(seed)
    if dim ** 3 * (order + 1) * rank > 600:
        order = 600 // (dim ** 3 * rank) - 1
    dens = [rng.randint(1, 2 ** den_bits) for _ in range(2)]

    def value():
        if rng.random() < zeros:
            return Fraction(0)
        return Fraction(rng.randint(-2 ** size, 2 ** size), rng.choice(dens))

    _assert_matches_oracle(_tables(dim, rank, order, value), rng)


def _maxima(tables, top: int) -> int:
    """The largest |slot| over both sides of every plane up to order top."""
    return max(abs(x) for k in range(tables.rank + 1) for s in range(top + 1)
               for side in tables.unpack(k, s) for x in side)


@pytest.mark.parametrize("dim,rank,order", [(1, 1, 0), (2, 1, 0), (2, 2, 1), (3, 2, 2),
                                            (3, 1, 4), (4, 3, 1), (2, 3, 5)])
@pytest.mark.parametrize("entry", [Fraction(1), Fraction(3, 7), Fraction(2 ** 64 - 1, 2 ** 20 - 3),
                                   Fraction(-(2 ** 40) - 5, 11)])
def test_every_entry_at_the_maximum_reaches_the_bound(dim, rank, order, entry):
    # every numerator of mu and of d_1..d_N is the table maximum: each term
    # of a slot sum has the bound's size, and with one sign throughout the
    # sums reach it, so a width one bit short would not hold them
    tables = _tables(dim, rank, order, lambda: entry)
    _assert_matches_oracle(tables, random.Random(0))
    if entry > 0:
        assert _maxima(tables, order + 1) >= 1 << tables.bits - 2


def test_zero_tables_hold_everywhere():
    tables = _tables(3, 2, 3, lambda: Fraction(0))
    assert tables.bits == 1
    assert tables.first_failure(4) is None
    assert all(x == 0 for k in range(3) for side in tables.unpack(k, 4) for x in side)
