import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hderlab.exactlin import (
    ZERO, BrokenComplexError, Echelon, Matrix, ShapeError, echelon, kernel_basis,
    rank, rat, rat_str, require_image_in_kernel, solve_affine, solve_ints,
)

from helpers import (
    dense_kernel_basis, dense_rref, echelon_add, dense_solve_affine, from_int_rows, kernels_by_route,
    oracle_int_rows, reduced_matrix, sparse_matrices, to_rows,
)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def matrices(max_side=5):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(fractions, min_size=r * c, max_size=r * c).map(
                lambda xs: Matrix(r, c, tuple(xs)))))


SHAPES = {
    "tall": sparse_matrices(st.integers(5, 10), st.integers(1, 4)),
    "wide": sparse_matrices(st.integers(1, 4), st.integers(5, 10)),
    "zero_rows": sparse_matrices(st.just(0), st.integers(0, 5)),
    "any": sparse_matrices(),
}


def test_rat_parsing_and_formatting():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat(5) == Fraction(5)
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert rat_str(Fraction(8, 4)) == "2"
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(TypeError):
        rat(0.5)


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 4)) == 0


def test_rank_dependent_rows():
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_full_rank_and_zero_map():
    assert kernel_basis(Matrix.identity(2)) == []
    basis = kernel_basis(Matrix.zeros(1, 2))
    assert len(basis) == 2


def test_kernel_canonical_vector():
    (v,) = kernel_basis(Matrix.from_rows([[1, 2], [2, 4]]))
    # proportional to (2, -1); the canonical representative is (-2, 1)
    assert v == (Fraction(-2), Fraction(1))


def test_solve_identity():
    x = solve_affine(Matrix.identity(2), (Fraction(3), Fraction(5)))
    assert x == (Fraction(3), Fraction(5))


def test_solve_underdetermined_is_canonical():
    x = solve_affine(Matrix.from_rows([[1, 1]]), (Fraction(2),))
    assert x == (Fraction(2), Fraction(0))


def test_solve_inconsistent():
    assert solve_affine(Matrix.from_rows([[1], [1]]), (Fraction(0), Fraction(1))) is None


def test_quotient_dim_rejects_broken_complex():
    with pytest.raises(BrokenComplexError, match="image not contained in kernel"):
        require_image_in_kernel(Matrix.identity(2), Matrix.identity(2))


def test_shape_errors():
    with pytest.raises(ShapeError):
        Matrix(2, 2, (Fraction(1),))
    with pytest.raises(ShapeError):
        Matrix.identity(2).apply((Fraction(1),))
    with pytest.raises(ShapeError):
        solve_affine(Matrix.identity(2), (Fraction(1),))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_are_killed(m):
    for v in kernel_basis(m):
        assert all(not x for x in m.apply(v))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_exactness(m, data):
    x = tuple(data.draw(fractions) for _ in range(m.cols))
    b = m.apply(x)
    sol = solve_affine(m, b)
    assert sol is not None
    assert m.apply(sol) == b


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(0, 4),
       st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
def test_row_scaling_invariance(m, row, factor):
    row %= m.rows
    rows = to_rows(m)
    rows[row] = [factor * x for x in rows[row]]
    scaled = Matrix.from_rows(rows)
    assert rank(scaled) == rank(m)
    assert kernel_basis(scaled) == kernel_basis(m)


def test_rref_is_idempotent():
    m = Matrix.from_rows([[2, 4, 1], [1, 2, 0], [0, 0, 3]])
    red, pivots = reduced_matrix(m)
    again, pivots2 = reduced_matrix(red)
    assert red == again and pivots == pivots2


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_kernel_matches_dense_oracle(shape, data):
    m = data.draw(SHAPES[shape])
    red, pivots = dense_rref(m)
    assert reduced_matrix(m) == (red, pivots)
    assert rank(m) == len(pivots)
    assert kernel_basis(m) == dense_kernel_basis(m)
    x = tuple(data.draw(fractions) for _ in range(m.cols))
    consistent = m.apply(x)
    assert solve_affine(m, consistent) == dense_solve_affine(m, consistent)
    b = tuple(data.draw(fractions) for _ in range(m.rows))
    assert solve_affine(m, b) == dense_solve_affine(m, b)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.data())
def test_later_solves_on_one_matrix_match_dense_oracle(m, data):
    # the first solve factors m and keeps the factor on it; later ones
    # substitute into that factor and must still reject an inconsistent b
    factors = []
    for _ in range(data.draw(st.integers(2, 4), label="solves")):
        b = list(m.apply(tuple(data.draw(fractions) for _ in range(m.cols))))
        kind = data.draw(st.sampled_from(("consistent", "one entry off", "any")), label="kind")
        if kind == "one entry off" and b:
            b[data.draw(st.integers(0, len(b) - 1))] += data.draw(fractions.filter(bool))
        elif kind == "any":
            b = [data.draw(fractions) for _ in range(m.rows)]
        assert solve_affine(m, tuple(b)) == dense_solve_affine(m, tuple(b))
        factors.append(m.__dict__["_factor"])
    assert all(f is factors[0] for f in factors)


def test_solve_inconsistent_matches_dense_oracle():
    m = Matrix.from_rows([[1, 0, 2], [0, 0, 0], [2, 0, 4]])
    b = (Fraction(1), Fraction(0), Fraction(3))
    assert dense_solve_affine(m, b) is None
    assert solve_affine(m, b) is None


@settings(max_examples=40, deadline=None)
@given(sparse_matrices())
def test_echelon_add_reports_rank_growth(m):
    ech = Echelon()
    before = 0
    for i in range(m.rows):
        after = len(dense_rref(Matrix(i + 1, m.cols, m.entries[:(i + 1) * m.cols]))[1])
        assert echelon_add(ech, dict(enumerate(m.row(i)))) == (after > before)
        assert ech.rank == after
        before = after


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_matrices(), sparse_matrices(st.just(0)), sparse_matrices(cols=st.just(0)),
                 sparse_matrices(st.integers(1, 4), st.integers(1, 4)).map(
                     lambda m: Matrix(m.rows + 1, m.cols, m.entries + (Fraction(0),) * m.cols))))
def test_int_rows_match_oracle(m):
    # 0 x n, n x 0, zero rows (a computed zero last), denominators up to 6
    rows, scale = m.int_rows(), m.int_form[1]
    oracle_rows, oracle_scale = oracle_int_rows(m)
    assert (rows, scale) == (list(oracle_rows), oracle_scale)
    assert all(isinstance(x, int) and x for row in rows for x in row.values())
    assert "int_rows" not in m.__dict__  # derived on each call, never kept


# Wide denominators and negative entries, mostly zeros, for the integer rows.
NONZERO = st.fractions(min_value=-10 ** 3, max_value=10 ** 3,
                       max_denominator=10 ** 4).filter(bool)
WIDE = st.one_of(st.just(ZERO), st.just(ZERO), NONZERO)

CONSTRUCTORS = ("entries", "from_rows", "from_columns", "identity", "zeros", "from_int_columns", "product")


@st.composite
def constructed_matrices(draw, kind):
    """``(m, rows)``: a matrix built by ``kind`` and the dense Fraction rows
    it stands for, computed apart from the matrix (a product by the dense
    sum); integer columns are over a multiple of the lowest scale."""
    low = 1 if kind in ("from_rows", "from_columns") else 0  # their shape comes from the first row or column
    r, c = draw(st.integers(low, 4)), draw(st.integers(low, 4))
    if kind == "identity":
        return Matrix.identity(r), [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    if kind == "zeros":
        return Matrix.zeros(r, c), [[ZERO] * c for _ in range(r)]
    rows = [[draw(WIDE) for _ in range(c)] for _ in range(r)]
    if kind == "entries":
        return Matrix(r, c, tuple(x for row in rows for x in row)), rows
    if kind == "from_rows":
        return Matrix.from_rows(rows), rows
    if kind == "from_columns":
        return Matrix.from_columns([tuple(row[j] for row in rows) for j in range(c)]), rows
    if kind == "from_int_columns":
        scale = draw(st.integers(1, 6)) * math.lcm(*(x.denominator for row in rows for x in row))
        columns = [{i: int(row[j] * scale) for i, row in enumerate(rows) if row[j]} for j in range(c)]
        return Matrix.from_int_columns(columns, scale, r), rows
    a, a_rows = draw(constructed_matrices(draw(st.sampled_from(CONSTRUCTORS[:-1]))))
    b_rows = [[draw(WIDE) for _ in range(c)] for _ in range(a.cols)]
    product = [[sum((a_rows[i][k] * b_rows[k][j] for k in range(a.cols)), ZERO) for j in range(c)]
               for i in range(a.rows)]
    return a * Matrix(a.cols, c, tuple(x for row in b_rows for x in row)), product


@pytest.mark.parametrize("kind", CONSTRUCTORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_constructor_agrees_with_the_dense_oracles(kind, data):
    m, rows = data.draw(constructed_matrices(kind))
    dense = Matrix.from_rows(rows) if rows and rows[0] else None
    cols, scale = m.int_form
    assert scale > 0 and len(cols) == m.cols
    assert m.entries == tuple(x for row in rows for x in row)
    assert m.int_columns() == [{i: int(row[j] * scale) for i, row in enumerate(rows) if row[j]}
                               for j in range(m.cols)]
    assert m.int_columns() is not cols and all(a is not b for a, b in zip(m.int_columns(), cols))
    assert m.int_rows() == [{j: int(x * scale) for j, x in enumerate(row) if x} for row in rows]
    assert set(vars(m)) == {"rows", "cols", "int_form", "entries"}  # the store and the view read above
    if dense is not None:
        assert m == dense and dense == m and hash(m) == hash(dense)
        bumped = [list(row) for row in rows]
        bumped[0][0] += 1
        assert m != Matrix.from_rows(bumped)
    assert m == from_int_rows(m.int_rows(), scale, m.cols) == Matrix(m.rows, m.cols, m.entries)
    assert hash(m) == hash(Matrix(m.rows, m.cols, m.entries))


@st.composite
def degenerate_matrices(draw, max_side=7):
    """Wide-denominator rows mixed with duplicates, all-zero rows and
    nonzero scalar multiples of earlier rows."""
    cols = draw(st.integers(1, max_side))
    rows: list[list[Fraction]] = []
    for _ in range(draw(st.integers(1, max_side))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "duplicate", "multiple")))
        if kind == "zero" or (kind != "fresh" and not rows):
            rows.append([ZERO] * cols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "multiple":
            factor = draw(NONZERO)
            rows.append([factor * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(WIDE, min_size=cols, max_size=cols)))
    return Matrix.from_rows(rows)


def _assert_primitive(rows: dict, reduced: bool) -> None:
    """Stored rows are int dicts, primitive, with a positive pivot at their
    smallest column; reduced rows hold no other pivot column."""
    for p, row in rows.items():
        assert all(isinstance(x, int) and x for x in row.values())
        assert min(row) == p and row[p] > 0
        assert math.gcd(*row.values()) == 1
        if reduced:
            assert not any(q in rows for q in row if q != p)


@settings(max_examples=80, deadline=None)
@given(degenerate_matrices(), st.data())
def test_integer_echelon_matches_dense_oracle(m, data):
    ech = echelon(m)
    _assert_primitive(ech.rows, reduced=False)
    _assert_primitive(ech.reduced(), reduced=True)
    red, pivots = dense_rref(m)
    assert reduced_matrix(m) == (red, pivots)
    assert rank(m) == len(pivots)
    assert kernel_basis(m) == dense_kernel_basis(m)
    x = tuple(data.draw(WIDE) for _ in range(m.cols))
    consistent = m.apply(x)
    assert solve_affine(m, consistent) == dense_solve_affine(m, consistent)
    b = tuple(data.draw(WIDE) for _ in range(m.rows))
    assert solve_affine(m, b) == dense_solve_affine(m, b)


@settings(max_examples=30, deadline=None)
@given(degenerate_matrices(), st.data())
def test_many_fractional_right_hand_sides_on_one_matrix(m, data):
    for _ in range(8):
        if data.draw(st.booleans(), label="consistent"):
            b = m.apply(tuple(data.draw(WIDE) for _ in range(m.cols)))
        else:
            b = tuple(data.draw(WIDE) for _ in range(m.rows))
        sol = solve_affine(m, b)
        assert sol == dense_solve_affine(m, b)
        if sol is not None:
            assert m.apply(sol) == b


@st.composite
def int_row_matrices(draw, max_side=6):
    """``(m, d)``: m from integer rows over a scale > 1, its columns drawn
    from last to first as fresh, zero, a repeat of a later column or an
    integer combination of later ones; d is a row made a combination of the
    other rows (the column relations still hold), or None."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    small = st.integers(-4, 4)
    columns: list[list[int]] = []
    for _ in range(cols):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "combination")))
        if kind == "zero" or (kind != "fresh" and not columns):
            col = [0] * rows
        elif kind == "repeat":
            col = list(draw(st.sampled_from(columns)))
        elif kind == "combination":
            col = [0] * rows
            for later in columns:
                c = draw(small)
                col = [x + c * y for x, y in zip(col, later)]
        else:
            col = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7)),
                                min_size=rows, max_size=rows))
        columns.insert(0, col)
    int_rows = [list(r) for r in zip(*columns)]
    dependent = None
    if rows > 1 and draw(st.booleans()):
        dependent = draw(st.integers(0, rows - 1))
        combo = [0] * cols
        for i, row in enumerate(int_rows):
            if i != dependent:
                c = draw(small)
                combo = [x + c * y for x, y in zip(combo, row)]
        int_rows[dependent] = combo
    scale = draw(st.integers(2, 12))
    m = from_int_rows([{j: x for j, x in enumerate(r) if x} for r in int_rows], scale, cols)
    return m, dependent


@settings(max_examples=150, deadline=None)
@given(int_row_matrices(), st.data())
def test_factor_solves_integer_row_matrices_like_dense_oracle(md, data):
    m, dependent = md
    for _ in range(3):  # the first solve builds the factor, later ones reuse it
        b = list(m.apply(tuple(data.draw(fractions) for _ in range(m.cols))))
        off = dependent is not None and data.draw(st.booleans(), label="dependent row off")
        if off:  # m x = b on every row but the one that depends on the others
            b[dependent] += data.draw(fractions.filter(bool))
        sol = solve_affine(m, tuple(b))
        assert sol == dense_solve_affine(m, tuple(b))
        assert (sol is None) == off
        den = math.lcm(*(x.denominator for x in b))
        nums = [int(x * den) for x in b]
        ints = solve_ints(m, nums, den)
        assert ints == solve_ints(m, [-x for x in nums], -den)
        if ints is not None:
            xs, q = ints
            assert q > 0 and math.gcd(q, *xs) == 1
            assert tuple(Fraction(x, q) for x in xs) == sol


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_factor_free_columns_are_the_reduced_echelon_non_pivots(shape, data):
    m = data.draw(st.one_of(SHAPES[shape], degenerate_matrices(),
                            int_row_matrices().map(lambda md: md[0])))
    pivots, tags = m._factor
    assert tuple(tags) == tuple(j for j in range(m.cols) if j not in echelon(m).reduced())
    assert list(pivots) == sorted(pivots) and all(p < m.rows for p in pivots)
    assert all(min(v) >= m.rows for v in tags.values())  # a free column's row reduced to its tags


@st.composite
def integer_column_matrices(draw, max_side=12):
    """Integer matrices by columns: the zero matrix, full column rank
    (a nonzero at row j of column j, anything below it), wide, tall, or
    columns drawn as zero, a duplicate of an earlier one, or fresh."""
    kind = draw(st.sampled_from(("zero", "full column rank", "wide", "tall", "columns")))
    cols = draw(st.integers(0 if kind == "zero" else 1, max_side))
    low, high = {"full column rank": (cols, max_side), "wide": (0, cols - 1),
                 "tall": (cols + 1, max_side + 1)}.get(kind, (0, max_side))
    rows = draw(st.integers(low, max(low, high)))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 6, 35))
    columns: list[dict[int, int]] = []
    for j in range(cols):
        pick = draw(st.sampled_from(("fresh", "fresh", "zero", "duplicate"))) if kind == "columns" else kind
        if pick == "zero":
            columns.append({})
        elif pick == "duplicate" and columns:
            columns.append(dict(draw(st.sampled_from(columns))))
        else:
            top = j if kind == "full column rank" else 0
            col = {i: x for i in range(top, rows) if (x := draw(entry))}
            if kind == "full column rank":
                col[j] = draw(st.sampled_from((1, -2, 5)))
            columns.append(col)
    return Matrix.from_int_columns(columns, draw(st.integers(1, 6)), rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(integer_column_matrices(), degenerate_matrices(), *SHAPES.values()), st.booleans())
def test_null_space_routes_give_one_kernel(m, bounded):
    # the bound a caller may pass is a proven one: here the rank itself
    factor, rows = kernels_by_route(m, rank(m) if bounded else None)
    assert factor == rows
    assert len(factor[0]) == m.cols - rank(m)


@pytest.mark.parametrize("m", [Matrix.zeros(0, 3), Matrix.zeros(3, 0), Matrix.zeros(2, 3),
                               Matrix.from_rows([[0, 2, 0], [0, 1, 0]])],
                         ids=["0x3", "3x0", "all zero", "zero columns"])
def test_solve_edge_shapes_match_dense_oracle(m):
    zero = (ZERO,) * m.rows
    assert solve_affine(m, zero) == dense_solve_affine(m, zero) == (ZERO,) * m.cols
    assert solve_ints(m, [0] * m.rows, 5) == ([0] * m.cols, 1)
    assert tuple(m._factor[1]) == tuple(j for j in range(m.cols) if j not in echelon(m).reduced())
    if m.rows:
        b = (ZERO,) * (m.rows - 1) + (Fraction(3, 2),)
        assert solve_affine(m, b) == dense_solve_affine(m, b)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices())
def test_solve_of_zero_is_zero(m):
    assert solve_affine(m, (ZERO,) * m.rows) == (ZERO,) * m.cols


@settings(max_examples=40, deadline=None)
@given(degenerate_matrices())
def test_int_rows_are_one_scale_over_the_entries(m):
    rows, scale = m.int_rows(), m.int_form[1]
    assert all(isinstance(x, int) and x for row in rows for x in row.values())
    assert from_int_rows(rows, scale, m.cols) == m


def test_echelon_add_takes_fraction_rows_and_keeps_them_primitive():
    ech = Echelon()
    assert echelon_add(ech, {0: Fraction(-2, 3), 2: Fraction(4, 9)})
    assert ech.rows == {0: {0: 3, 2: -2}}
    assert not echelon_add(ech, {0: Fraction(6), 2: Fraction(-4)})  # a multiple
    assert not echelon_add(ech, {1: ZERO})
    assert echelon_add(ech, {1: Fraction(5, 7), 2: Fraction(10, 21)})
    assert ech.rows[1] == {1: 3, 2: 2}
    assert ech.reduced() == {0: {0: 3, 2: -2}, 1: {1: 3, 2: 2}}


@settings(max_examples=40, deadline=None)
@given(degenerate_matrices(), NONZERO)
def test_image_in_kernel_on_scaled_integer_rows(m, factor):
    basis = kernel_basis(m)
    if basis:
        require_image_in_kernel(Matrix.from_columns([tuple(factor * x for x in v)
                                                     for v in basis]), m)
    _, pivots = reduced_matrix(m)
    if pivots:  # a pivot column of m is not killed by m
        unit = tuple(factor if j == pivots[0] else ZERO for j in range(m.cols))
        with pytest.raises(BrokenComplexError):
            require_image_in_kernel(Matrix.from_columns([*basis, unit]), m)
