"""Exact rational linear algebra on one sparse, fraction-free elimination kernel.

Every cohomology and obstruction question downstream reduces to rank /
kernel / solve questions over the rationals, and the answers are equality
tests, so floating point is banned throughout.  The values a caller sees
(matrix entries, vectors, kernel bases, solutions) are
:class:`fractions.Fraction`; matrices are immutable and row-major.

Inside, every matrix also has one integer store, its nonzero entries as
Python-int numerators over one common denominator: by rows, ``int_rows``,
or, for a differential, by the columns the stencil yields (``_columns``,
handed out by ``int_columns``); the other form is derived on first use.
Elimination runs on it without a single Fraction operation: an
:class:`Echelon` keeps primitive rows (content 1, positive pivot) and
combines two rows as ``a*v - b*row``, in the manner of fraction-free
(Bareiss) elimination.  A solve substitutes into one factor per matrix,
kept from its first solve: the same :class:`Echelon` of the rows of
[m^T | I], built from the columns of m (:func:`solve_affine`).  A null
space is a :class:`Kernel`, the canonical vector of each free column as a
primitive integer vector, which ``kernel_basis`` and report writers read.
:func:`null_space` reads it off the solve factor for at most
``FACTOR_KERNEL_COLS`` columns; above that, :func:`echelon` takes the rows
until the rank reaches a bound the caller has proved, such as
cols - rank(d_{n-1}) for a checked complex, and back-substitutes.  Each
kernel vector is unique up to scale and the reduced row echelon form of a
row space is unique, so those outputs are canonical, and higher layers
reproduce bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class ShapeError(ValueError):
    """Dimensions of an input do not match its declared shape."""


class BrokenComplexError(RuntimeError):
    """A claimed chain complex failed im(d) <= ker(d); an upstream bug."""


def rat(value) -> Fraction:
    """Coerce an int, a Fraction, or a string like ``"-3/4"`` or ``"2"``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Render as ``p/q``, or just ``p`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def int_form(values) -> tuple[tuple[int, ...], int]:
    """The numerators of some rationals over the lcm of their denominators,
    and that lcm: the integer form a structure makes once and keeps."""
    den = math.lcm(*{x.denominator for x in values if x is not ZERO})  # parsed zeros are ZERO
    return tuple([0 if x is ZERO else x.numerator * (den // x.denominator) for x in values]), den


def as_fractions(numerators, q: int) -> tuple[Fraction, ...]:
    """The Fractions x/q for a sequence of integer numerators x, one made
    per distinct x, zeros the shared ``ZERO``."""
    made = {x: Fraction(x, q) if x else ZERO for x in set(numerators)}
    return tuple([made[x] for x in numerators])


_set = object.__setattr__


class Value:
    """Base of the frozen value classes, generating no code: the fields are a
    subclass's own annotations, in order, with class-level defaults, taken by
    position or keyword before ``__post_init__`` runs; ==, hash and repr read
    them as a frozen dataclass's do, and assignment raises AttributeError."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        key = attrgetter(*cls._fields)
        cls._key = staticmethod(key if len(cls._fields) > 1 else lambda self: (key(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):  # not __dict__: a made dict slows later reads
            _set(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The fields' values, in order, from the arguments and the defaults."""
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or values.keys() != set(names) or not kwargs.keys().isdisjoint(
                names[:len(args)]):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        return [values[name] for name in names]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Matrix:
    """Immutable rows x cols matrix of Fractions, entries row-major.

    A matrix is built from its ``entries`` or from an integer store, rows
    (``from_int_rows``) or columns (``from_int_columns``); the other forms
    are derived on first use and kept, so a large differential never holds
    its dense entries unless a caller reads them.
    """

    def __init__(self, rows: int, cols: int, entries: tuple[Fraction, ...]):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"matrix {rows}x{cols} needs {rows * cols} entries, got {len(entries)}")
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

    @classmethod
    def from_int_rows(cls, rows, scale: int, cols: int) -> "Matrix":
        """A matrix from ``{column: nonzero int}`` rows over the common
        denominator ``scale``, kept as ``int_rows``."""
        rows = tuple(rows)
        m = cls.__new__(cls)
        m.__dict__.update(rows=len(rows), cols=cols, int_rows=(rows, scale))
        return m

    @classmethod
    def from_int_columns(cls, columns: list, scale: int, rows: int) -> "Matrix":
        """A matrix kept as ``{row: nonzero int}`` columns over ``scale``."""
        m = cls.__new__(cls)
        m.__dict__.update(rows=rows, cols=len(columns), _columns=(columns, scale))
        return m

    def __setattr__(self, name, value):
        raise AttributeError(f"Matrix is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        """Row by row on ``int_rows`` (nonzeros only), each side's
        numerators times the other's scale: no dense entries."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        (rows, s), (others, t) = self.int_rows, other.int_rows
        return all(len(a) == len(b) and all(x * t == b.get(j, 0) * s for j, x in a.items())
                   for a, b in zip(rows, others))

    def __hash__(self) -> int:
        """The hash of ``int_rows`` over its lowest scale, so a matrix hashes
        as its equals do whatever scale built it, without dense entries."""
        rows, scale = self.int_rows
        g = math.gcd(scale, *(x for row in rows for x in row.values()))
        return hash((self.rows, self.cols, scale // g,
                     *(frozenset((j, x // g) for j, x in row.items()) for row in rows)))

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows}, cols={self.cols}, entries={self.entries})"

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries row-major, derived from ``int_rows`` for a matrix
        built from it."""
        rows, scale = self.int_rows
        entries = [ZERO] * (self.rows * self.cols)
        values: dict[int, Fraction] = {}  # few distinct numerators: share them
        for i, row in enumerate(rows):
            base = i * self.cols
            for j, x in row.items():
                f = values.get(x)
                if f is None:
                    f = values[x] = Fraction(x, scale)
                entries[base + j] = f
        return tuple(entries)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [tuple(rat(x) for x in row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ShapeError("ragged rows")
        return cls(len(rows), ncols, tuple(x for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def from_columns(cls, cols: list[Vector]) -> "Matrix":
        nrows = len(cols[0]) if cols else 0
        if any(len(c) != nrows for c in cols):
            raise ShapeError("ragged columns")
        return cls(nrows, len(cols), tuple(cols[j][i] for i in range(nrows) for j in range(len(cols))))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    @cached_property
    def int_rows(self) -> tuple[tuple[dict[int, int], ...], int]:
        """``(rows, S)``: each row's nonzero entries as ``{column: x}`` with
        x an int, and entry (i, j) equal to ``rows[i][j] / S``, S the lcm of
        the denominators; one pass scatters the nonzero numerators, or the
        columns of a matrix built from them."""
        if "_columns" in self.__dict__:
            return tuple(_transposed(self._columns[0], self.rows)), self._columns[1]
        entries, c = self.entries, self.cols
        scale = math.lcm(*{x.denominator for x in entries if x is not ZERO})
        rows = [{} for _ in range(self.rows)]
        for pos, x in enumerate(entries):
            if x is not ZERO and (v := x.numerator):
                rows[pos // c][pos % c] = v * (scale // x.denominator)
        return tuple(rows), scale

    @cached_property
    def _columns(self) -> tuple[list[dict[int, int]], int]:
        """``(columns, S)``: the integer store as ``{row: x}`` columns, read
        only; kept by ``from_int_columns``, else derived once."""
        rows, scale = self.int_rows
        return _transposed(rows, self.cols), scale

    def int_columns(self) -> list[dict[int, int]]:
        """``_columns`` in fresh dicts a caller may take over."""
        return [dict(c) for c in self._columns[0]]

    @cached_property
    def _factor(self) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]:
        """The echelon of the rows of [m^T | I], column j tagged 1 at
        ``rows + j``: its rows by ascending pivot, and for each free column f
        of m, whose row is not kept, the tags its row reduced to (kept at any
        size; :func:`null_space` reads them up to ``FACTOR_KERNEL_COLS``)."""
        ech, r, tags = Echelon(), self.rows, {}
        for j, v in enumerate(self.int_columns()):
            v[r + j] = 1
            if ech._insert(v, r) is None:
                tags[j] = v
        return dict(sorted(ech.rows.items())), tags

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product, skipping zero coordinates of ``v``."""
        if len(v) != self.cols:
            raise ShapeError(f"expected vector of length {self.cols}, got {len(v)}")
        out = [ZERO] * self.rows
        for j, vj in enumerate(v):
            if not vj:
                continue
            for i in range(self.rows):
                e = self.entries[i * self.cols + j]
                if e:
                    out[i] += e * vj
        return tuple(out)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product of the integer rows, over the lcm of its entries'
        denominators, as a product of the entries would store it."""
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = [{j: x for j, x in acc.items() if x} for acc in _products(self.int_rows[0], other.int_rows[0])]
        scale = self.int_rows[1] * other.int_rows[1]
        g = math.gcd(scale, *(x for row in rows for x in row.values()))
        return Matrix.from_int_rows([{j: x // g for j, x in row.items()} for row in rows], scale // g, other.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c: Fraction) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.entries[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)))

    def is_zero(self) -> bool:
        return all(not a for a in self.entries)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.entry(i, j) == (ONE if i == j else ZERO)
                   for i in range(self.rows) for j in range(self.cols))

    def _require_same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _transposed(store, n: int) -> list[dict[int, int]]:
    """The ``n`` columns of an integer row store, or the rows of a column store."""
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for i, vec in enumerate(store):
        for j, x in vec.items():
            out[j][i] = x
    return out


def _eliminate(v: dict[int, int], c: int, row: dict[int, int]) -> None:
    """Clear column c of ``v`` in place with ``row`` (``row[c] > 0``):
    ``v = a*v - b*row``, a and b the coprime multiples of ``row[c]`` and
    ``v[c]``; when a != 1 the content of ``v`` is divided out again."""
    b = v.pop(c)
    a = row[c]
    if a != 1:
        g = math.gcd(a, b)
        a //= g
        b //= g
        if a != 1:
            for j in v:
                v[j] *= a
    for j, y in row.items():
        if j == c:
            continue
        z = v.get(j)
        if z is None:
            v[j] = -b * y
        elif z := z - b * y:
            v[j] = z
        else:
            del v[j]
    if a != 1:
        _divide_content(v)


def _divide_content(v: dict[int, int], sign: int = 1) -> None:
    """Divide ``v`` in place by sign * the gcd of its entries."""
    if v:
        g = sign * math.gcd(*v.values())
        if g != 1:
            for j in v:
                v[j] //= g


class Echelon:
    """Exact row echelon form of a growing set of sparse rows.

    ``rows[p]`` is the stored row whose smallest column is the pivot ``p``,
    a ``{column: int}`` dict of nonzeros, primitive (the gcd of its entries
    is 1) with ``rows[p][p] > 0``; it stands for the rational row
    ``rows[p] / rows[p][p]``.
    """

    def __init__(self, rows=()):  # integer rows, taken over
        self.rows: dict[int, dict[int, int]] = {}
        for v in rows:
            self._insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _insert(self, v: dict[int, int], end: float = math.inf) -> int | None:
        """Reduce the integer row ``v``, which the echelon may take over,
        against the stored pivots, smallest column first, and keep it if it
        survives: the pivot of the new row, or None, and the row not kept,
        when its columns below ``end`` reduced to zero."""
        rows = self.rows
        while v and (c := min(v)) < end:
            prow = rows.get(c)
            if prow is None:
                _divide_content(v, -1 if v[c] < 0 else 1)
                rows[c] = v
                return c
            _eliminate(v, c, prow)
        return None

    def reduced(self) -> dict[int, dict[int, int]]:
        """The stored rows, back-substituted in place into reduced row
        echelon form: a row holds its pivot and non-pivot columns only, and
        its reduced entries are ``x / row[p]``."""
        rows = self.rows
        for p in sorted(rows, reverse=True):
            row = rows[p]
            done = [q for q in row if q != p and q in rows]
            for q in done:
                _eliminate(row, q, rows[q])
            if done:
                _divide_content(row)
        return rows


def echelon(m: Matrix, bound: int | None = None) -> Echelon:
    """The echelon form of the rows of ``m``; every elimination runs here.

    Rows are taken in order until the rank reaches ``bound`` (default
    ``m.cols``, where no further row can add to it).  A caller passes a
    smaller bound only when it has proved that the rank of ``m`` is at most
    that: the rows taken then already span the row space, and the reduced
    form is the canonical one.
    """
    bound = m.cols if bound is None else bound
    ech = Echelon()
    for row in m.int_rows[0]:
        if ech.rank >= bound:
            break
        if row:
            ech._insert(dict(row))
    return ech


def rank(m: Matrix) -> int:
    """Rank over the rationals: that of the columns when they are fewer
    than the rows, as the rank stops at the shorter side."""
    return Echelon(m.int_columns()).rank if m.cols < m.rows else echelon(m).rank


class Kernel:
    """The canonical basis of a right null space in sparse form: for each
    free column f, in order, ``vectors[f]`` is its basis vector (1 at f)
    times ``vectors[f][f]``, a primitive ``{column: int}`` vector nonzero
    only at f and at pivot columns before f.  No other kernel vector has
    that support, up to scale, so both routes of :func:`null_space` fill
    the same form.  ``entries`` states the vector once; ``forms`` makes
    integer vectors of it, and a report writer can format it without them.
    """

    def __init__(self, vectors: dict[int, dict[int, int]], cols: int):
        for f, v in vectors.items():
            _divide_content(v, -1 if v[f] < 0 else 1)
        self.vectors, self.cols, self.free = vectors, cols, tuple(vectors)

    def __len__(self) -> int:
        return len(self.free)

    def entries(self):
        """Yield ``(f, [(p, x, q), ...])`` for each free column f in order:
        the vector for f is 1 at f, x/q at each listed p and zero elsewhere,
        with ``q = vectors[f][f]``; x/q need not be in lowest terms."""
        for f, v in self.vectors.items():
            q = v[f]
            yield f, [(p, x, q) for p, x in v.items() if p != f]

    def forms(self):
        """Yield each basis vector as ``(nums, den)``: its numerators, dense,
        over den > 0, in lowest terms."""
        for f, v in self.vectors.items():
            nums = [0] * self.cols
            for p, x in v.items():
                nums[p] = x
            yield nums, v[f]


# The most columns whose kernel is read off m._factor: over a sweep of whole
# cohomology() calls, summed time is least for cut-offs of 80-96 columns.
FACTOR_KERNEL_COLS = 96


def null_space(m: Matrix, bound: int | None = None) -> Kernel:
    """The sparse kernel form of ``m``.  Up to ``FACTOR_KERNEL_COLS``
    columns it is read off ``m._factor``: the tags a free column f reduced
    to are a kernel vector on f and the pivot columns before it.  Above,
    :func:`echelon` takes ``bound``, a proven upper bound on the rank, and
    the vector of f is -R[p][f] / R[p][p] at each pivot p of the reduced
    rows R."""
    if m.cols <= FACTOR_KERNEL_COLS:
        r = m.rows
        return Kernel({f: {k - r: x for k, x in v.items()} for f, v in m._factor[1].items()}, m.cols)
    rows = echelon(m, bound).reduced()
    vectors: dict[int, dict[int, int]] = {f: {} for f in range(m.cols) if f not in rows}
    pivot = {}
    while rows:  # each reduced row is freed once it is read
        p, row = rows.popitem()
        pivot[p] = row.pop(p)
        for f, x in row.items():
            vectors[f][p] = -x
    for f, v in vectors.items():
        den = math.lcm(*(pivot[p] for p in v))
        for p in v:
            v[p] *= den // pivot[p]
        v[f] = den
    return Kernel(vectors, m.cols)


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the right null space, one vector per free column.

    The vector for free column f has a 1 at f, the negated reduced-echelon
    entries at the pivot columns, and zeros elsewhere; ordered by f
    (:meth:`Kernel.entries`).
    """
    return [as_fractions(*form) for form in null_space(m).forms()]


def solve_affine(m: Matrix, b: Vector) -> Vector | None:
    """Canonical solution of ``m @ x == b``, or None when inconsistent: the
    reduced-echelon particular solution, free variables zero.

    ``m._factor`` keeps, for the columns of m = M / S in order, a row per
    column that raised the rank: an integer combination of the columns up
    to it (its tags past ``m.rows``), pivot at its smallest row index.  The
    integer b = B / D enters as [S B | 0 | D], its tag at ``rows + cols``,
    and is reduced against those pivots.  The stored rows are an echelon
    basis of the column space, so a row index with no pivot means b is
    outside it: inconsistency is the remainder itself, and no residual
    check is needed.  Otherwise the tags say M (-v[rows + k])_k =
    S B v[tag] / D, so x_k = -v[rows + k] / v[tag].  x is zero on the free
    columns, and the others, the columns outside the span of the columns
    before them, are the pivot columns of the reduced echelon form of
    [m | b]: x is the solution that form gives.
    """
    sol = solve_ints(m, *int_form(b))
    return None if sol is None else as_fractions(*sol)


def solve_ints(m: Matrix, nums, den: int) -> tuple[list[int], int] | None:
    """:func:`solve_affine` for b = nums / den, ``den`` a nonzero int: x as
    ``(X, L)``, x = X / L over the lcm L > 0 of its denominators."""
    r, n = m.rows, m.cols
    if len(nums) != r:
        raise ShapeError(f"expected right-hand side of length {r}, got {len(nums)}")
    pivots, scale, tag = m._factor[0], m._columns[1], r + n
    v = {i: scale * x for i, x in enumerate(nums) if x}
    v[tag] = den
    for c, prow in pivots.items():  # ascending, so a cleared pivot stays cleared
        if c in v:
            _eliminate(v, c, prow)
    if min(v) < r:  # a row index with no pivot is left
        return None
    _divide_content(v, -1 if v[tag] < 0 else 1)
    return [-v.get(k, 0) for k in range(r, tag)], v[tag]


def require_image_in_kernel(boundary: Matrix, kernel_of: Matrix) -> None:
    """Raise unless ``kernel_of * boundary`` vanishes, column by column: each
    column of ``boundary`` weights the columns of ``kernel_of``, in their
    integer column stores; each factor carries one uniform scale, so the
    product is zero exactly when the rational one is.  A nonzero composite
    means the claimed complex is broken."""
    if kernel_of.cols != boundary.rows:
        raise ShapeError(
            f"boundary lands in a {boundary.rows}-dim space but the kernel map "
            f"expects {kernel_of.cols}")
    for acc in _products(boundary._columns[0], kernel_of._columns[0]):
        if any(acc.values()):
            raise BrokenComplexError("image not contained in kernel")


def _products(rows, others):
    """Yield each row of the product of two integer row stores as ``{column:
    x}``, zeros possible; of two column stores, given right factor first,
    each column."""
    for row in rows:
        acc: dict[int, int] = {}
        for k, a in row.items():
            for j, y in others[k].items():
                acc[j] = acc.get(j, 0) + a * y
        yield acc
