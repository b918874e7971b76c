"""Exact rational linear algebra on one sparse, fraction-free elimination kernel.

Every cohomology and obstruction question downstream reduces to rank /
kernel / solve questions over the rationals, and the answers are equality
tests, so floating point is banned throughout.  The values a caller sees
(matrix entries, vectors, kernel bases, solutions) are
:class:`fractions.Fraction`; matrices are immutable.

A matrix stores one form, its nonzero entries as Python-int numerators over
one common denominator, column by column (``int_form``): a differential
keeps the columns its stencil yields, a product combines columns
(``_combine``), and the Fraction entries are a view.  Elimination runs on
it without a single Fraction operation: an :class:`Echelon` keeps
primitive rows (content 1, positive pivot) and combines two rows as
``a*v - b*row``, in the manner of fraction-free (Bareiss) elimination.
``rank`` eliminates the columns.  A solve substitutes into one factor per
matrix, kept from its first solve: the same :class:`Echelon` of the rows of
[m^T | I], built from the columns of m (:func:`solve_affine`).  A null
space is a :class:`Kernel`, the canonical vector of each free column as a
primitive integer vector, which ``kernel_basis`` and report writers read.
:func:`null_space` reads it off the solve factor for at most
``FACTOR_KERNEL_COLS`` columns; above that, :func:`echelon` takes rows
derived fresh from the columns until the rank reaches a bound the caller
has proved, such as cols - rank(d_{n-1}) for a checked complex, and
back-substitutes.  Each kernel vector is unique up to scale and the
reduced row echelon form of a row space is unique, so those outputs are
canonical, and higher layers reproduce bit for bit.
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
    """Immutable rows x cols matrix over the rationals.

    A matrix stores one integer form, ``int_form``: ``(columns, S)``, each
    column a ``{row: nonzero int}`` dict, entry (i, j) equal to
    ``columns[j][i] / S``, kept as its builder gives it and read only.  The
    Fraction constructors convert to it once; ``entries``, row-major, is a
    view made on first read, and a row echelon derives fresh rows
    (``int_rows``) that the matrix never keeps.
    """

    def __init__(self, rows: int, cols: int, entries: tuple[Fraction, ...]):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"matrix {rows}x{cols} needs {rows * cols} entries, got {len(entries)}")
        scale = math.lcm(*{x.denominator for x in entries if x is not ZERO})
        columns: list[dict[int, int]] = [{} for _ in range(cols)]
        for pos, x in enumerate(entries):
            if x is not ZERO and (v := x.numerator):
                columns[pos % cols][pos // cols] = v * (scale // x.denominator)
        self.__dict__.update(rows=rows, cols=cols, int_form=(columns, scale))

    @classmethod
    def from_int_columns(cls, columns: list, scale: int, rows: int) -> "Matrix":
        """A matrix kept as ``{row: nonzero int}`` columns over ``scale``."""
        m = cls.__new__(cls)
        m.__dict__.update(rows=rows, cols=len(columns), int_form=(columns, scale))
        return m

    def __setattr__(self, name, value):
        raise AttributeError(f"Matrix is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        """Column by column on ``int_form`` (nonzeros only), each side's
        numerators times the other's scale: no dense entries."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        (cols, s), (others, t) = self.int_form, other.int_form
        return all(len(a) == len(b) and all(x * t == b.get(i, 0) * s for i, x in a.items())
                   for a, b in zip(cols, others))

    def __hash__(self) -> int:
        """The hash of ``int_form`` over its lowest scale, so a matrix hashes
        as its equals do whatever scale built it, without dense entries."""
        cols, scale = self.int_form
        g = math.gcd(scale, *(x for col in cols for x in col.values()))
        return hash((self.rows, self.cols, scale // g,
                     *(frozenset((i, x // g) for i, x in col.items()) for col in cols)))

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows}, cols={self.cols}, entries={self.entries})"

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries row-major, made from ``int_form`` on first read."""
        cols, scale = self.int_form
        c = self.cols
        entries = [ZERO] * (self.rows * c)
        values: dict[int, Fraction] = {}  # few distinct numerators: share them
        for j, col in enumerate(cols):
            for i, x in col.items():
                f = values.get(x)
                if f is None:
                    f = values[x] = Fraction(x, scale)
                entries[i * c + j] = f
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
        return cls.from_int_columns([{j: 1} for j in range(n)], 1, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_int_columns([{} for _ in range(cols)], 1, rows)

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

    def int_columns(self) -> list[dict[int, int]]:
        """The columns of ``int_form`` in fresh dicts a caller may take over."""
        return [dict(c) for c in self.int_form[0]]

    def int_rows(self) -> list[dict[int, int]]:
        """The rows of ``int_form``, ``{column: x}`` over its scale, made
        fresh on each call for a caller to take over; the matrix keeps none."""
        rows: list[dict[int, int]] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.int_form[0]):
            for i, x in col.items():
                rows[i][j] = x
        return rows

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
        """Column j of the product is the combination of this matrix's
        integer columns weighted by column j of ``other``, over the lcm of
        the product's denominators, as a product of the entries would store
        it."""
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        (cols, s), (weights, t) = self.int_form, other.int_form
        out = [{i: x for i, x in _combine(cols, w).items() if x} for w in weights]
        g = math.gcd(s * t, *(x for col in out for x in col.values()))
        return Matrix.from_int_columns([{i: x // g for i, x in col.items()} for col in out], s * t // g, self.rows)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c: Fraction) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix.from_int_columns(self.int_rows(), self.int_form[1], self.cols)

    def is_zero(self) -> bool:
        return not any(self.int_form[0])

    def is_identity(self) -> bool:
        cols, scale = self.int_form
        return self.rows == self.cols and all(col == {j: scale} for j, col in enumerate(cols))

    def _require_same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _combine(cols: list, weights: dict) -> dict[int, int]:
    """sum_c w_c cols[c] for sparse integer columns ``{row: x}`` and integer
    weights ``{c: w_c}``, zeros possible: column j of a product of column
    stores when the weights are column j of the right factor."""
    out: dict[int, int] = {}
    for c, w in weights.items():
        if w:
            for r, x in cols[c].items():
                out[r] = out.get(r, 0) + w * x
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
    """The echelon form of the rows of ``m``, derived fresh from its columns
    (``Matrix.int_rows``) and taken over, so the matrix keeps no rows.

    Rows are taken in order until the rank reaches ``bound`` (default
    ``m.cols``, where no further row can add to it).  A caller passes a
    smaller bound only when it has proved that the rank of ``m`` is at most
    that: the rows taken then already span the row space, and the reduced
    form is the canonical one.
    """
    bound = m.cols if bound is None else bound
    ech, rows = Echelon(), m.int_rows()
    rows.reverse()  # popped in order, so a row that reduces to zero is freed at once
    while rows and ech.rank < bound:
        if row := rows.pop():
            ech._insert(row)
    return ech


def rank(m: Matrix) -> int:
    """Rank over the rationals, that of the integer columns."""
    return Echelon(m.int_columns()).rank


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
    pivots, scale, tag = m._factor[0], m.int_form[1], r + n
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
    cols = kernel_of.int_form[0]
    for weights in boundary.int_form[0]:
        if any(_combine(cols, weights).values()):
            raise BrokenComplexError("image not contained in kernel")
