"""Finite-dimensional associative algebras and bimodules over the rationals.

An algebra is a structure-constant tensor: ``c[i][j][k]`` is the coefficient
of basis vector ``e_k`` in the product ``e_i * e_j``.  A bimodule is a pair
of action tensors plus the square matrices that play the role of the higher
derivation on the module side.  Everything is an immutable value; the
verifiers check every basis tuple, which is equivalent to the general
statement by multilinearity.  Associativity and the higher-derivation law
are stated once, at every order s, on integer tables over one denominator:
order 0 is what the input verifiers check, order s the deformation equations.

``LawTables`` evaluates both sides as packed integers (Kronecker
substitution), in slots of a width B proven wide enough, so that comparing
two integers decides every equation in them exactly.  Tables are built
from the 2-cochain vector of each order, (mu_s; d_{1,s}, ..., d_{N,s}),
as numerators over one denominator (``LawTables.orders``).  A pair's
order-0 vector comes from the integer form an algebra or a bimodule
stores (``int_form``, its numerators over one denominator, in lowest
terms: its one field for the structure constants, and what ==, hash and
repr read) and a map's ``int_rows``.  A ``deform.Deformation`` stores its
tables in lowest terms as its one field (tables compare on dim, den and
orders), and ``LawTables.extended`` appends an order to them.  A command
builds one table per pair (``hder._pair_reports``).  The Fraction tensors
(``c``; ``left``, ``right``) are views made from the form on first read;
``Algebra.from_table`` builds an algebra from rationals.

The bimodule laws are the same two laws on the semidirect product A + M,
scanned on the basis tuples that hold one module vector; that verifier lives
next to ``semidirect`` in ``extensions``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, reduce
from operator import lshift, mul, or_

from .exactlin import ONE, Matrix, ShapeError, Value, Vector, ZERO, _set, as_fractions, int_form, rat, rat_str

Tensor3 = tuple[tuple[tuple[Fraction, ...], ...], ...]


def _tensor3(nums, den: int, d1: int, d2: int) -> Tensor3:
    """The rationals nums / den, flat, as a tensor of d1 x d2 blocks: one
    Fraction per distinct numerator, every zero the shared ZERO."""
    made = {x: Fraction(x, den) if x else ZERO for x in set(nums)}
    rows = [tuple(made[x] for x in nums[b:b + d2]) for b in range(0, len(nums), d2)]
    return tuple(tuple(rows[b:b + d1]) for b in range(0, len(rows), d1))


def _lowest_terms(obj) -> None:
    """Keep ``obj.int_form``, numerators over a denominator > 0, as a tuple
    of them divided by their gcd with the denominator."""
    nums, den = obj.int_form
    g = math.gcd(den, *nums)
    _set(obj, "int_form", (tuple(nums), den) if g == 1 else (tuple(x // g for x in nums), den // g))


def _hash_once(self) -> int:
    """``__hash__`` for a value class: the hash of its fields (a map through
    ``Matrix.__hash__``), computed on first use and kept (``_set``)."""
    h = getattr(self, "_hash", None)
    if h is None:
        _set(self, "_hash", h := hash(tuple(getattr(self, name) for name in self._fields)))
    return h


def _contract(t: Tensor3, x: Vector, y: Vector, n: int) -> Vector:
    """sum_{i,j} x_i y_j t[i][j], a length-n vector, skipping zero coordinates."""
    out = [ZERO] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = t[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            coeff = xi * yj
            for k, tijk in enumerate(ti[j]):
                if tijk:
                    out[k] += coeff * tijk
    return tuple(out)


def _int_table(flat, d: int) -> tuple[list[int], int, int]:
    """The integers ``flat``, mx, the largest of their absolute values, and
    mx times the most nonzeros of a length-d block, bounding its l1 norm."""
    zeros = min(map(tuple.count, zip(*[iter(flat)] * d), itertools.repeat(0)), default=d)
    mx = max(map(abs, flat), default=0)
    return flat, mx, mx * (d - zeros)


def _columns(m: Matrix, mult: int = 1) -> list[int]:
    """The numerators of ``m.int_rows`` times ``mult``, column by column."""
    return [row.get(j, 0) * mult for j in range(m.cols) for row in m.int_rows[0]]


def _balanced_offset(bits: int, slots: int) -> int:
    """2^(B-1) in each of the low ``slots`` slots of B bits: added to balanced
    digits (|x| < 2^(B-1)), it makes them nonnegative with no carry."""
    return ((1 << bits * slots) - 1) // ((1 << bits) - 1) << bits - 1


def _pair_tables(d: int, form: tuple, maps=()) -> LawTables:
    """The order-0 law tables of a product given by its integer form (the
    numerators [i][j][k] over their denominator) and of the maps d_1..d_N."""
    nums, den = form
    top = math.lcm(den, *(m.int_rows[1] for m in maps))
    vector = [x * (top // den) for x in nums]
    for m in maps:
        vector += _columns(m, top // m.int_rows[1])
    return LawTables(d, top, [vector])


def _times(vectors: list, weights) -> list[list[int]]:
    """For each list w of ``weights``, sum_a w[a] vectors[a] coordinatewise
    over the nonzero w[a], a ranging over the shorter of w and vectors: for
    packed entries, a product of series over the index a."""
    out = []
    for ws in weights:
        acc = None
        for w, vec in zip(ws, vectors):
            if w:
                acc = [w * v for v in vec] if acc is None else [x + w * v for x, v in zip(acc, vec)]
        out.append([0] * len(vectors[0]) if acc is None else acc)
    return out


class LawTables:
    """The integer tables of a family (mu_0..mu_n; d_{k,0..n}) over one
    denominator D, and the order-s equations of the two laws on them.

    The equations are evaluated on packed integers (Kronecker
    substitution): a sequence of integers x_m is the one integer
    sum_m x_m 2^(B m), in slots of B bits, and a sum of products of such
    sequences is a sum of big-integer products.  Each basis tuple of the
    scan, (i, j, l) for associativity and (i, j) for law k, holds one packed
    integer per side, slot s d + b holding the numerator of order s at
    output coordinate b: one product is the whole convolution over the
    orders, and the slots of one order, tuple after tuple, are the order-s
    plane in the order of the 3-cochain vector.  The sums run over the
    nonzero entries only.

    ``bits`` fixes B so that each slot x of lhs and rhs at orders up to
    n + 1 has |x| < 2^(B-1).  A base-2^B expansion with digits that small
    is unique and no slot carries into the next, so the low slots of lhs
    and rhs agree exactly when their low bits do, and the lowest set bit of
    lhs - rhs lies in the first failing slot.  Digits are unpacked only to
    report a failure and to build or check an obstruction.

    Associativity at (i, j, l) is sum_c mu(e_i, e_j)_c mu(e_c, e_l) against
    sum_c mu(e_j, e_l)_c mu(e_i, e_c).  Law k at (i, j) is
    D sum_c mu(e_i, e_j)_c d_k(e_c) against
    sum_{a+b=k} sum_u d_a(e_i)_u S_b(u, j), where the staged series
    S_b(u, j) = sum_v d_b(e_j)_v mu(e_u, e_v) serves every k.

    ``orders[s]`` is the order-s coefficient, the numerators over D of its
    2-cochain vector: mu_s flat in [i][j][c] order, then each d_{k,s}
    column by column.  It is the family's one integer form, packed per
    basis tuple here and entry by entry by ``deform._Packed``.
    ``_tables[0][s]`` and ``_tables[k + 1][s]`` are its mu_s and d_{k,s}
    blocks (d_{0,0} = id) as ``(numerators, mx, l1)``, for ``bits``.
    """

    def __init__(self, dim: int, den: int, orders):
        """``orders``: each order's vector over ``den``, kept as given."""
        self.dim, self.den, self.orders = dim, den, orders
        self.order = len(orders) - 1
        self.rank = (len(orders[0]) - dim ** 3) // (dim * dim)
        self._sides: dict[int, tuple[list[int], list[int]]] = {}
        self._windows: dict[int, tuple[int, int, int]] = {}

    # ==, hash and repr read (dim, den, orders), each order as a tuple
    _key = property(lambda self: (self.dim, self.den, tuple(map(tuple, self.orders))))
    __eq__ = lambda self, other: self._key == other._key if isinstance(other, LawTables) else NotImplemented
    __hash__ = lambda self: hash(self._key)
    __repr__ = lambda self: f"LawTables{self._key!r}"

    @cached_property
    def _tables(self) -> list[list[tuple[list[int], int, int]]]:
        d, size, vectors = self.dim, self.dim ** 3, self.orders
        maps = [[_int_table(v[b:b + d * d], d) for v in vectors] for b in range(size, len(vectors[0]), d * d)]
        identity = [self.den if b == c else 0 for c in range(d) for b in range(d)]
        return [[_int_table(v[:size], d) for v in vectors], [(identity, self.den, self.den)], *maps]

    def extended(self, values, den: int) -> LawTables:
        """These tables with order n + 1 appended, over lcm(D, den): its
        vector's numerators over ``den`` are ``values``.  The older vectors
        are shared, or rescaled if D grows."""
        top = math.lcm(self.den, den)
        older = self.orders if top == self.den else [[x * (top // self.den) for x in v] for v in self.orders]
        new = list(values) if top == den else [x * (top // den) for x in values]
        return LawTables(self.dim, top, [*older, new])

    def scale(self, k: int) -> int:
        """The denominator of the numerators of law k: D^2 for
        associativity (k = 0), D^3 for the higher-derivation law."""
        return self.den ** (2 if k == 0 else 3)

    def tuple_at(self, k: int, t: int) -> tuple:
        """Basis tuple number t of law k, in scan order."""
        d = self.dim
        if k == 0:
            i, jl = divmod(t, d * d)
            return (i, *divmod(jl, d))
        return divmod(t, d)

    @cached_property
    def bits(self) -> int:
        """B: 1 + the bit length of the largest bound on a slot of lhs or
        rhs at orders 0..n+1, over both laws, and of a staged series.  With
        mx and l1 (``_int_table``) as series in the order, a slot at order s
        is at most the coefficient of t^s in l1(mu) mx(mu) for associativity;
        for law k, in D l1(mu) mx(d_k) on the left and sum_a l1(d_a) S_{k-a}
        on the right, S_b = l1(d_b) mx(mu) bounding the staged series.  These
        nonnegative series are multiplied packed too, in slots wide enough
        for any product of three norms summed over all terms."""
        top = self.order + 1
        tables = self._tables
        width = 3 * max(l1 for ser in tables for _flat, _mx, l1 in ser).bit_length() + \
            (self.rank + 1).bit_length() + 2 * (top + 1).bit_length() + 1

        def pack(series, at):
            if len(series) == 1:
                return series[0][at]
            return sum(norms[at] << width * s for s, norms in enumerate(series))

        mu, ones = pack(tables[0], 1), pack(tables[0], 2)
        rows = [pack(ser, 2) for ser in tables[1:]]
        staged = [row * mu for row in rows]
        bounds = [ones * mu, *staged]
        for k in range(1, self.rank + 1):
            bounds.append(self.den * ones * pack(tables[k + 1], 1))
            bounds.append(sum(map(mul, rows, staged[k::-1])))
        # the bounds hold nonnegative slots, so their bitwise or has, slot
        # by slot, the bit length of the largest
        slots, mask = reduce(or_, bounds), (1 << width) - 1
        return max(((slots >> width * s) & mask).bit_length() for s in range(top + 1)) + 1

    @cached_property
    def _packs(self) -> tuple[list[list[int]], list[int]]:
        """The packed series, X = 2^B, block by block (the d^2 blocks (x, y)
        of mu, then the d columns of each of d_0, ..., d_N): ``scalars[m][c]``
        = sum_p x_{p,c} X^(p d) for x_p block m of the order-p coefficient,
        and ``vectors[m]`` = sum_c scalars[m][c] X^c."""
        d, bits, size = self.dim, self.bits, self.dim ** 3
        offsets, shifts = [bits * d * p for p in range(self.order + 1)], [bits * c for c in range(d)]
        flat = list(self.orders[0]) if self.order == 0 else [sum(map(lshift, xs, offsets))
                                                            for xs in zip(*self.orders)]
        flat[size:size] = self._tables[1][0][0]  # d_0 = id
        scalars = [flat[base:base + d] for base in range(0, len(flat), d)]
        return scalars, [sum(map(lshift, at, shifts)) for at in scalars]

    def sides(self, k: int) -> tuple[list[int], list[int]]:
        """The packed lhs and rhs of law k (0 for associativity) at every
        basis tuple, in scan order, over ``scale(k)``; terms past the last
        stored order are zero.  The laws k >= 1 are evaluated together."""
        sides = self._sides.get(k)
        if sides is None:
            d, dd = self.dim, self.dim ** 2
            scalars, vectors = self._packs
            rows = [vectors[x * d:x * d + d] for x in range(d)]
            if k == 0:
                # at (i, j, .): sum_c mu(e_i, e_j)_c mu(e_c, e_.); at (., j, l):
                # sum_c mu(e_j, e_l)_c mu(e_., e_c), transposed into scan order
                by_jl = _times([vectors[c:dd:d] for c in range(d)], scalars[:dd])
                self._sides[0] = (list(itertools.chain(*_times(rows, scalars[:dd]))),
                                  [col[i] for i in range(d) for col in by_jl])
            else:
                self._law_sides(scalars, vectors, rows)
            sides = self._sides[k]
        return sides

    def _law_sides(self, scalars, vectors, rows) -> None:
        """The sides of law k = 1..N.  At (i, .), law k combines the staged
        rows S_k(u, .), ..., S_0(u, .), which ``right`` holds after step k,
        with the weights d_0(e_i)_u, ..., d_k(e_i)_u of ``left[i]``, block by
        block.  S_b(u, j) = sum_v mu(e_u, e_v) d_b(e_j)_v is cut off from
        order n + 2 on by its balanced residue (``bits`` bounds the rest)."""
        d, dd, den = self.dim, self.dim ** 2, self.den
        # orders reach 2n > n + 1 from n = 2 on
        half = 1 << self.bits * d * (self.order + 2) - 1 if self.order > 1 else 0
        mu = scalars[:dd]
        left = [list(itertools.chain(*scalars[dd + i::d])) for i in range(d)]
        by_u = [vectors[v:dd:d] for v in range(d)]  # mu(e_., e_v)
        right: list[list[int]] = []
        for k in range(self.rank + 1):
            staged = list(zip(*_times(by_u, scalars[dd + k * d:dd + k * d + d])))
            if half:
                staged = [[((x + half) & (2 * half - 1)) - half for x in row] for row in staged]
            right = staged + right
            if k:
                col = vectors[dd + k * d:dd + k * d + d]
                rhs = _times(right, left)
                self._sides[k] = ([den * sum(map(mul, at, col)) for at in mu],
                                  list(itertools.chain(*rhs)))

    def _window(self, s: int) -> tuple[int, int, int]:
        """``(offset, drop, mask)`` for order s: adding the balanced offset
        up to order s, shifting by drop and masking leaves its d slots."""
        window = self._windows.get(s)
        if window is None:
            bits, d = self.bits, self.dim
            window = self._windows[s] = (_balanced_offset(bits, d * (s + 1)), bits * d * s,
                                         (1 << bits * d) - 1)
        return window

    def _digits(self, packed: int, s: int) -> list[int]:
        """The d slots of order s of a packed side, balanced."""
        offset, drop, mask = self._window(s)
        bits = self.bits
        block, slot, half = (packed + offset) >> drop & mask, (1 << bits) - 1, 1 << (bits - 1)
        return [(block >> bits * b & slot) - half for b in range(self.dim)]

    def first_failure(self, upto: int) -> tuple | None:
        """``(s, k, tuple, lhs, rhs)`` at the first failing equation of
        orders 0..upto, in scan order: by order, then associativity before
        law k = 1..N, then tuple; None when all hold."""
        bits, d = self.bits, self.dim
        mask = (1 << bits * d * (upto + 1)) - 1
        first = None
        for k in range(self.rank + 1):
            for t, (lhs, rhs) in enumerate(zip(*self.sides(k))):
                diff = (lhs - rhs) & mask
                if diff:
                    s = ((diff & -diff).bit_length() - 1) // bits // d
                    if first is None or (s, k, t) < first:
                        first = (s, k, t)
        if first is None:
            return None
        s, k, t = first
        lhs, rhs = self.sides(k)
        return s, k, self.tuple_at(k, t), self._digits(lhs[t], s), self._digits(rhs[t], s)

    def failure(self, k: int, s: int, at=None) -> tuple | None:
        """``(tuple, lhs, rhs)`` at the first basis tuple where the order-s
        equations of law k fail, lhs and rhs the numerators over
        ``scale(k)``; None when they hold.  ``at`` lists the tuples to
        judge, in order; by default all of them in scan order."""
        d = self.dim
        lhs, rhs = self.sides(k)
        if lhs == rhs:  # every slot of every order agrees
            return None
        numbers = range(len(lhs)) if at is None else [
            (tup[0] * d + tup[1]) * d + tup[2] if k == 0 else tup[0] * d + tup[1] for tup in at]
        offset, drop, mask = self._window(s)
        for t in numbers:
            if (lhs[t] + offset) >> drop & mask != (rhs[t] + offset) >> drop & mask:
                return self.tuple_at(k, t), self._digits(lhs[t], s), self._digits(rhs[t], s)
        return None

    def unpack(self, k: int, s: int) -> tuple[list[int], list[int]]:
        """Every slot of order s of law k, lhs and rhs, in scan order."""
        offset, drop, mask = self._window(s)
        bits, places = self.bits, [self.bits * b for b in range(self.dim)]
        slot, half = (1 << bits) - 1, 1 << (bits - 1)
        return tuple([(block >> place & slot) - half
                      for block in [(packed + offset) >> drop & mask for packed in side] for place in places]
                     for side in self.sides(k))


class Violation(Value):
    """First failing instance of a law, in lexicographic scan order."""

    law: str
    at: tuple
    lhs: tuple | None = None
    rhs: tuple | None = None

    def __str__(self) -> str:
        msg = f"{self.law} fails at {self.at}"
        if self.lhs is not None:
            msg += f": lhs=({_fmt(self.lhs)}) rhs=({_fmt(self.rhs)})"
        return msg


def _fmt(values) -> str:
    return ", ".join(rat_str(x) for x in values)


class CheckReport(Value):
    ok: bool
    violation: Violation | None = None

    @classmethod
    def passed(cls) -> "CheckReport":
        return cls(True, None)

    @classmethod
    def failed(cls, law: str, at: tuple, lhs=None, rhs=None) -> "CheckReport":
        return cls(False, Violation(law, at, lhs, rhs))


class Algebra(Value):
    """Associative algebra by structure constants c[i][j][k], stored as
    ``int_form``: the numerators flat in [i][j][k] order over one
    denominator, in lowest terms.  ``c`` is the Fraction view of it."""

    dim: int
    int_form: tuple[tuple[int, ...], int]
    basis_labels: tuple[str, ...]
    unit_index: int | None = None

    __hash__ = _hash_once

    def __post_init__(self):
        d = self.dim
        if len(self.basis_labels) != d:
            raise ShapeError(f"{d} basis labels expected, got {len(self.basis_labels)}")
        if len(self.int_form[0]) != d ** 3:
            raise ShapeError(f"structure tensor is not {d}x{d}x{d}")
        if self.unit_index is not None and not 0 <= self.unit_index < d:
            raise ShapeError(f"unit index {self.unit_index} out of range")
        _lowest_terms(self)

    @cached_property
    def c(self) -> Tensor3:
        return _tensor3(*self.int_form, self.dim, self.dim)

    @classmethod
    def from_table(cls, table, labels=None, unit_index=None) -> "Algebra":
        """From nested [i][j][k] lists of rationals (``rat``); labels e0, e1, ..."""
        d = len(table)
        labels = tuple(f"e{i}" for i in range(d)) if labels is None else tuple(labels)
        if any(len(mid) != d or any(len(inner) != d for inner in mid) for mid in table):
            raise ShapeError(f"structure tensor is not {d}x{d}x{d}")
        return cls(d, int_form([rat(x) for mid in table for inner in mid for x in inner]), labels, unit_index)

    def basis_vector(self, i: int) -> Vector:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def basis_product(self, i: int, j: int) -> Vector:
        return self.c[i][j]

    def mult(self, x: Vector, y: Vector) -> Vector:
        return _contract(self.c, x, y, self.dim)

    def unit_vector(self) -> Vector:
        if self.unit_index is None:
            raise ValueError("algebra has no declared unit")
        return self.basis_vector(self.unit_index)

    def left_mult_matrix(self, x: Vector) -> Matrix:
        cols = [self.mult(x, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix.from_columns(cols)

    def right_mult_matrix(self, x: Vector) -> Matrix:
        cols = [self.mult(self.basis_vector(j), x) for j in range(self.dim)]
        return Matrix.from_columns(cols)


class Bimodule(Value):
    """Bimodule with module-side derivation maps.

    ``left[i][a][b]`` is the coefficient of m_b in e_i * m_a, and
    ``right[a][i][b]`` the coefficient of m_b in m_a * e_i; ``int_form``
    stores both flat, ``left`` then ``right``, in lowest terms, and the two
    are Fraction views of it.  ``dmaps`` holds the square matrices
    (d_1^M, ..., d_N^M) acting on module coordinates.
    """

    mdim: int
    int_form: tuple[tuple[int, ...], int]
    dmaps: tuple[Matrix, ...]

    __hash__ = _hash_once

    def __post_init__(self):
        md = self.mdim
        if md < 1 or len(self.int_form[0]) % (2 * md * md):
            raise ShapeError(f"action tensors do not fit a {md}-dimensional module")
        for k, m in enumerate(self.dmaps, start=1):
            if m.rows != md or m.cols != md:
                raise ShapeError(f"module map {k} is {m.rows}x{m.cols}, expected {md}x{md}")
        _lowest_terms(self)

    @cached_property
    def left(self) -> Tensor3:
        nums, den = self.int_form
        return _tensor3(nums[:len(nums) // 2], den, self.mdim, self.mdim)

    @cached_property
    def right(self) -> Tensor3:
        nums, den = self.int_form
        half = len(nums) // 2
        return _tensor3(nums[half:], den, half // self.mdim ** 2, self.mdim)

    def basis_vector(self, a: int) -> Vector:
        return tuple(ONE if b == a else ZERO for b in range(self.mdim))

    def has_zero_actions(self) -> bool:
        return not any(self.int_form[0])


def verify_algebra(alg: Algebra) -> CheckReport:
    """Associativity on all basis triples, plus unit laws when a unit is declared."""
    return _algebra_report(alg, _pair_tables(alg.dim, alg.int_form))


def _algebra_report(alg: Algebra, tables: LawTables) -> CheckReport:
    """``verify_algebra`` on ``tables``, the order-0 tables of
    ``alg.int_form`` (with or without maps)."""
    bad = tables.failure(0, 0)
    if bad is not None:
        at, lhs, rhs = bad
        q = tables.scale(0)
        return CheckReport.failed("associativity", at, as_fractions(lhs, q), as_fractions(rhs, q))
    u = alg.unit_index
    if u is not None:  # e_u e_j and e_j e_u read off the integer form: den at k = j, else 0
        d, (nums, den) = alg.dim, alg.int_form
        for j in range(d):
            ej = (0,) * j + (den,) + (0,) * (d - j - 1)
            for law, at, start in (("left unit law", (u, j), (u * d + j) * d),
                                   ("right unit law", (j, u), (j * d + u) * d)):
                if nums[start:start + d] != ej:
                    return CheckReport.failed(law, at, as_fractions(nums[start:start + d], den),
                                              alg.basis_vector(j))
    return CheckReport.passed()


def adjoint_bimodule(alg: Algebra, hder) -> Bimodule:
    """The algebra acting on itself, with the higher derivation as module maps."""
    nums, den = alg.int_form
    return Bimodule(alg.dim, (nums + nums, den), hder.maps)


def trivial_bimodule(alg: Algebra, mdim: int, dmaps: tuple[Matrix, ...]) -> Bimodule:
    """Zero left and right actions; any dmaps are lawful since every law vanishes."""
    return Bimodule(mdim, ((0,) * (2 * alg.dim * mdim * mdim), 1), tuple(dmaps))
