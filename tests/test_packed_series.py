"""The packed matrix series of the gauge algebra (``algebras._Packed``) at the
edge of its slot width: gauge composition against ``dense_series_product``
and gauge inversion against ``dense_series_inverse``, on dims 1-4 and orders
0-6, for gauges whose every entry past Phi_0 = id is one number, of either
sign and over denominators other than 1.  When the entries are positive,
like id, every term of a slot sum of the product has the size of its bound,
and so do the terms of Psi when they are negative (id - Phi is then
positive): the slot sums reach the bound that sets the width, so a width
one bit short would not hold them.  The codec itself is checked at the slot
edge: digits of the largest size the width holds, of either sign, must come
back from ``members`` and ``digits`` and survive ``cut``, whatever the slots
past it hold."""

import random
from fractions import Fraction

import pytest

import hderlab as H
from hderlab import algebras

from helpers import dense_series_inverse, dense_series_product

ENTRIES = [Fraction(1), Fraction(3, 7), Fraction(2 ** 40 + 5, 7), Fraction(-(2 ** 40) - 5, 11),
           Fraction(-2, 3)]


def _flat_gauge(dim: int, order: int, entry: Fraction) -> H.GaugeMap:
    """id + sum_{s=1..order} t^s M, every entry of M equal to ``entry``."""
    member = H.Matrix(dim, dim, (entry,) * dim * dim)
    return H.GaugeMap(order, (H.Matrix.identity(dim),) + (member,) * order)


def _widths(monkeypatch) -> list[int]:
    """The slot widths of the packed series made from now on."""
    widths, init = [], algebras._Packed.__init__

    def record(self, *args):
        init(self, *args)
        widths.append(self.bits)

    monkeypatch.setattr(algebras._Packed, "__init__", record)
    return widths


def _largest(gauge: H.GaugeMap, scale: int) -> int:
    """The largest |numerator| of the gauge's entries over ``scale``."""
    return max(abs(x * scale) for m in gauge.phis for x in m.entries)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("first", ENTRIES)
@pytest.mark.parametrize("second", ENTRIES[::2])
def test_composition_at_the_bound(dim, order, first, second, monkeypatch):
    g, h = _flat_gauge(dim, order, first), _flat_gauge(dim, order, second)
    widths = _widths(monkeypatch)
    got = H.gauge_compose(g, h)
    assert got == H.GaugeMap(order, tuple(dense_series_product(g.phis, h.phis, order)))
    if order and first > 0 and second > 0:
        bits = widths[-1]
        assert _largest(got, first.denominator * second.denominator) >= 1 << bits - 2


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("entry", ENTRIES)
def test_inverse_at_the_bound(dim, order, entry, monkeypatch):
    g = _flat_gauge(dim, order, entry)
    widths = _widths(monkeypatch)
    got = H.gauge_inverse(g)
    bits = widths[-1]
    assert got == H.GaugeMap(order, tuple(dense_series_inverse(g.phis)))
    assert H.gauge_compose(g, got) == H.GaugeMap.identity(dim, order)
    if order and entry < 0:
        assert _largest(got, entry.denominator ** order) >= 1 << bits - 2


@pytest.mark.parametrize("slots", range(1, 13))
@pytest.mark.parametrize("bound", [1, 6, 2 ** 40 + 5])
def test_codec_round_trip_at_the_slot_edge(slots, bound):
    rng = random.Random(slots * 7919 + bound)
    p = algebras._Packed(bound, slots)
    top = (1 << p.bits - 1) - 1  # the largest |digit| the width holds
    # entry 0 holds top in every slot, entry 1 -top, the rest draw from both
    # and from inside, so the last slot read holds a digit of each sign
    digits = [[top, -top] + [rng.choice((top, -top, rng.randint(-top, top))) for _ in range(6)]
              for _ in range(slots)]
    entries = p.pack(digits)
    assert p.members(entries) == digits
    assert p.cut(entries) == entries
    for high in (top, -top, 1, -1, rng.randint(-2 ** 300, 2 ** 300)):
        above = [x + (high << p.bits * slots) for x in entries]
        assert p.cut(above) == entries
        assert p.members(above) == digits
        for start in range(slots):  # every window of slots, read entry by entry
            assert p.digits(above, start, slots - start) == [
                row[e] for e in range(len(entries)) for row in digits[start:]]
