"""sympy as a third, independent elimination oracle; skipped without it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from hderlab.exactlin import kernel_basis

from helpers import reduced_matrix, sparse_matrices

sympy = pytest.importorskip("sympy")


def _to_sympy(m):
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator) for x in m.entries])


def _to_fraction(x):
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_rref_matches_sympy(m):
    red, pivots = reduced_matrix(m)
    sym_red, sym_pivots = _to_sympy(m).rref()
    assert pivots == tuple(sym_pivots)
    assert red.entries == tuple(_to_fraction(x) for x in sym_red)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_kernel_basis_matches_sympy(m):
    sym = [tuple(_to_fraction(x) for x in v) for v in _to_sympy(m).nullspace()]
    assert kernel_basis(m) == sym
