"""The packed matrix series of the gauge algebra (``deform._Packed``) at the
edge of its slot width: gauge composition against ``dense_series_product``
and gauge inversion against ``dense_series_inverse``, on dims 1-4 and orders
0-6, for gauges whose every entry past Phi_0 = id is one number, of either
sign and over denominators other than 1.  When the entries are positive,
like id, every term of a slot sum of the product has the size of its bound,
and so do the terms of Psi when they are negative (id - Phi is then
positive): the slot sums reach the bound that sets the width, so a width
one bit short would not hold them."""

from fractions import Fraction

import pytest

import hderlab as H
from hderlab import deform

from helpers import dense_series_inverse, dense_series_product

ENTRIES = [Fraction(1), Fraction(3, 7), Fraction(2 ** 40 + 5, 7), Fraction(-(2 ** 40) - 5, 11),
           Fraction(-2, 3)]


def _flat_gauge(dim: int, order: int, entry: Fraction) -> H.GaugeMap:
    """id + sum_{s=1..order} t^s M, every entry of M equal to ``entry``."""
    member = H.Matrix(dim, dim, (entry,) * dim * dim)
    return H.GaugeMap(order, (H.Matrix.identity(dim),) + (member,) * order)


def _widths(monkeypatch) -> list[int]:
    """The slot widths of the packed series made from now on."""
    widths, init = [], deform._Packed.__init__

    def record(self, *args):
        init(self, *args)
        widths.append(self.bits)

    monkeypatch.setattr(deform._Packed, "__init__", record)
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
