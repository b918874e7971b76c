"""Exact rational linear algebra on one sparse elimination kernel.

Every cohomology and obstruction question downstream reduces to rank /
kernel / solve questions over the rationals, and the answers are equality
tests, so floating point is banned throughout.  Scalars are
:class:`fractions.Fraction`; matrices are immutable and row-major.

Elimination is sparse: :func:`echelon` feeds the rows of a matrix, as
``{column: value}`` dicts, to an :class:`Echelon`, and back-substitution runs
only when the reduced form is asked for.  The reduced row echelon form of a
row space is unique, so ``rref``, kernel bases and particular solutions are
canonical, and higher layers reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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


@dataclass(frozen=True)
class Matrix:
    """Immutable rows x cols matrix of Fractions, entries row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"matrix {self.rows}x{self.cols} needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [tuple(rat(x) for x in row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ShapeError("ragged rows")
        return cls(len(rows), ncols, tuple(x for row in rows for x in row))

    @classmethod
    def from_sparse_rows(cls, rows, cols: int) -> "Matrix":
        """A matrix from ``{column: nonzero value}`` rows, kept as ``sparse_rows``."""
        rows = tuple(rows)
        entries = [ZERO] * (len(rows) * cols)
        for i, row in enumerate(rows):
            for j, x in row.items():
                entries[i * cols + j] = x
        m = cls(len(rows), cols, tuple(entries))
        m.__dict__["sparse_rows"] = rows
        return m

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

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @cached_property
    def sparse_rows(self) -> tuple[dict[int, Fraction], ...]:
        """The nonzero entries of each row as ``{column: value}``."""
        c = self.cols
        return tuple({j: x for j, x in enumerate(self.entries[i * c:(i + 1) * c]) if x}
                     for i in range(self.rows))

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product, skipping zero coordinates of ``v``."""
        if len(v) != self.cols:
            raise ShapeError(f"expected vector of length {self.cols}, got {len(v)}")
        out = [ZERO] * self.rows
        for j, vj in enumerate(v):
            if not vj:
                continue
            base = j
            for i in range(self.rows):
                e = self.entries[i * self.cols + base]
                if e:
                    out[i] += e * vj
        return tuple(out)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [ZERO] * (self.rows * other.cols)
        for i in range(self.rows):
            ibase = i * self.cols
            for k in range(self.cols):
                a = self.entries[ibase + k]
                if not a:
                    continue
                kbase = k * other.cols
                obase = i * other.cols
                for j in range(other.cols):
                    b = other.entries[kbase + j]
                    if b:
                        out[obase + j] += a * b
        return Matrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

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


def _subtract(v: dict[int, Fraction], x: Fraction, row: dict[int, Fraction],
              skip: int) -> None:
    """``v -= x * row`` in place over the columns of ``row`` other than ``skip``."""
    for j, y in row.items():
        if j == skip:
            continue
        z = v.get(j)
        if z is None:
            v[j] = -x * y
        elif z := z - x * y:
            v[j] = z
        else:
            del v[j]


class Echelon:
    """Exact row echelon form of a growing set of sparse rows.

    ``rows[p]`` is the stored row whose smallest column is the pivot ``p``,
    scaled to 1 there; rows are ``{column: Fraction}`` dicts of nonzeros.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: dict[int, Fraction]) -> bool:
        """Reduce a copy of ``row`` against the stored pivots, smallest
        column first, and keep it if it survives; True when the rank grew."""
        v = {j: x for j, x in row.items() if x}
        while v:
            c = min(v)
            prow = self.rows.get(c)
            if prow is None:
                inv = ONE / v[c]
                self.rows[c] = {j: y * inv for j, y in v.items()}
                return True
            _subtract(v, v.pop(c), prow, c)
        return False

    def reduced(self) -> dict[int, dict[int, Fraction]]:
        """The stored rows, back-substituted in place into reduced row
        echelon form: a row holds its pivot and non-pivot columns only."""
        rows = self.rows
        for p in sorted(rows, reverse=True):
            row = rows[p]
            for q in [q for q in row if q != p and q in rows]:
                _subtract(row, row.pop(q), rows[q], q)
        return rows


def echelon(m: Matrix) -> Echelon:
    """The echelon form of the rows of ``m``; every elimination runs here."""
    ech = Echelon()
    for row in m.sparse_rows:
        if ech.rank == m.cols:
            break
        ech.add(row)
    return ech


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns."""
    rows = echelon(m).reduced()
    pivots = tuple(sorted(rows))
    red = [rows[p] for p in pivots] + [{}] * (m.rows - len(pivots))
    return Matrix.from_sparse_rows(red, m.cols), pivots


def rank(m: Matrix) -> int:
    """Rank over the rationals."""
    return echelon(m).rank


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the right null space, one vector per free column.

    The vector for free column f has a 1 at f, the negated reduced-echelon
    entries at the pivot columns, and zeros elsewhere; ordered by f.
    """
    rows = echelon(m).reduced()
    basis = {f: [ZERO] * m.cols for f in range(m.cols) if f not in rows}
    for f, v in basis.items():
        v[f] = ONE
    for p, row in rows.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    return [tuple(v) for v in basis.values()]


def solve_affine(m: Matrix, b: Vector) -> Vector | None:
    """Canonical solution of ``m @ x == b``, or None when inconsistent.

    Free variables are set to zero, so the result is the reduced-echelon
    particular solution.
    """
    if len(b) != m.rows:
        raise ShapeError(f"expected right-hand side of length {m.rows}, got {len(b)}")
    n = m.cols
    aug = Matrix.from_sparse_rows(({**row, n: bi} if bi else row
                                   for row, bi in zip(m.sparse_rows, b)), n + 1)
    rows = echelon(aug).reduced()
    if n in rows:
        return None
    return tuple(rows[j].get(n, ZERO) if j in rows else ZERO for j in range(n))


def require_image_in_kernel(boundary: Matrix, kernel_of: Matrix) -> None:
    """Raise unless ``kernel_of * boundary`` vanishes, by a sparse product;
    a nonzero composite means the claimed complex is broken."""
    if kernel_of.cols != boundary.rows:
        raise ShapeError(
            f"boundary lands in a {boundary.rows}-dim space but the kernel map "
            f"expects {kernel_of.cols}")
    for row in kernel_of.sparse_rows:
        acc: dict[int, Fraction] = {}
        for k, a in row.items():
            for j, y in boundary.sparse_rows[k].items():
                acc[j] = acc.get(j, ZERO) + a * y
        if any(acc.values()):
            raise BrokenComplexError("image not contained in kernel")

