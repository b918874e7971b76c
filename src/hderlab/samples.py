"""Small stock algebras and derivation pairs used in tests and examples."""

from __future__ import annotations

from fractions import Fraction

from .algebras import Algebra
from .exactlin import Matrix, ZERO, ONE
from .hder import HigherDerivation, ordinary_hder


def dual_numbers() -> Algebra:
    """Q[x]/(x^2) on the basis (u, x) with u the unit and x^2 = 0."""
    u, x = (1, 0), (0, 1)
    zero = (0, 0)
    table = [
        [u, x],
        [x, zero],
    ]
    return Algebra.from_table(table, labels=("u", "x"), unit_index=0)


def dual_numbers_hder(rank: int = 2) -> HigherDerivation:
    """The ordinary sequence built from the Euler derivation x d/dx."""
    d1 = Matrix.from_rows([[0, 0], [0, 1]])
    return ordinary_hder(dual_numbers(), d1, rank)


def product_of_fields() -> Algebra:
    """Q x Q on idempotents (e, f): e^2 = e, f^2 = f, ef = fe = 0."""
    table = [
        [(1, 0), (0, 0)],
        [(0, 0), (0, 1)],
    ]
    return Algebra.from_table(table, labels=("e", "f"))


def matrix_algebra_2x2() -> Algebra:
    """2x2 matrices on the basis (E11, E12, E21, E22); unit is E11 + E22.

    The unit is not a basis vector, so unit_index stays unset; callers that
    need a unital fixture should use :func:`matrix_units_with_unit` instead.
    """
    return _matrix_units(unit_index=None)


def matrix_units_with_unit() -> Algebra:
    """2x2 matrices on the basis (I, E12, E21, E22) so the unit is basis 0."""
    # I = E11 + E22; rewrite the multiplication table in this basis.
    # With I as e0: E11 = e0 - e3.
    i_, a, b, c = range(4)  # I, E12, E21, E22
    one = _unit_vec
    table = [[_zero4()] * 4 for _ in range(4)]
    table[i_] = [one(i_), one(a), one(b), one(c)]
    for j in range(4):
        table[j][i_] = one(j)
    # E12*E21 = E11 = I - E22 ; E21*E12 = E22
    table[a][b] = (Fraction(1), ZERO, ZERO, Fraction(-1))
    table[b][a] = one(c)
    # E12*E22 = E12 ; E22*E21 = E21 ; E22*E22 = E22
    table[a][c] = one(a)
    table[c][b] = one(b)
    table[c][c] = one(c)
    # the rest vanish: E12*E12, E21*E21, E22*E12, E21*E22
    return Algebra.from_table(table, labels=("I", "E12", "E21", "E22"), unit_index=0)


def _matrix_units(unit_index):
    # basis order E11, E12, E21, E22; E_{pq} E_{rs} = delta_{qr} E_{ps}
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    table = [[[ZERO] * 4 for _ in range(4)] for _ in range(4)]
    for (p, q), i in idx.items():
        for (r, s), j in idx.items():
            if q == r:
                table[i][j][idx[(p, s)]] = ONE
    return Algebra.from_table(table, labels=("E11", "E12", "E21", "E22"),
                              unit_index=unit_index)


def _zero4():
    return (ZERO, ZERO, ZERO, ZERO)


def _unit_vec(i):
    return tuple(ONE if j == i else ZERO for j in range(4))


def matrix_unit_vector(p: int, q: int) -> tuple:
    """Coordinates of E_{pq} in the (E11, E12, E21, E22) basis."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    return tuple(ONE if k == idx[(p, q)] else ZERO for k in range(4))


def truncated_polynomials(degree_bound: int) -> Algebra:
    """Q[x]/(x^degree_bound) on the basis (1, x, ..., x^{degree_bound-1})."""
    n = degree_bound
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j < n:
                table[i][j][i + j] = ONE
    labels = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(n))
    return Algebra.from_table(table, labels=labels, unit_index=0)


def euler_matrix(degree_bound: int) -> Matrix:
    """The Euler derivation x d/dx on :func:`truncated_polynomials`."""
    n = degree_bound
    rows = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = Fraction(j)
    return Matrix.from_rows(rows)


def zero_algebra(dim: int) -> Algebra:
    """dim-dimensional algebra with identically zero multiplication."""
    table = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    return Algebra.from_table(table, labels=tuple(f"z{i}" for i in range(dim)))
