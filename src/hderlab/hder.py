"""Higher derivations on associative algebras.

A higher derivation of rank N is a sequence of matrices (d_1, ..., d_N)
acting on algebra coordinates and satisfying, for every k and all a, b,

    d_k(a b) = sum_{i+j=k} d_i(a) d_j(b)        (d_0 = identity, never stored).

The verifier checks this on basis pairs, on the integer tables of the law
that ``algebras`` states once.  ``truncated_morphism_check`` stays a
deliberately independent second route, in Fractions: it builds the
polynomial truncation A[t]/(t^{N+1}) and tests whether
a |-> a + d_1(a) t + ... + d_N(a) t^N is an algebra morphism; the two must
agree on every input.

The morphism law of pairs, f(ab) = f(a) f(b) and d_k f = f d_k, is stated
once as well (``_morphism_law_terms``), on the integer forms of the algebras
and the maps' integer columns, combined by ``exactlin._combine``.
``check_morphism``, the universal extension of ``freecons`` and the section
cocycle of ``extensions`` all read it, and make Fractions only for a
violation they report.
"""

from __future__ import annotations

import itertools
import math

from .algebras import (Algebra, CheckReport, LawTables, Violation, _algebra_report, _hash_once,
                       _pair_tables)
from .exactlin import Matrix, ShapeError, Value, Vector, ZERO, ONE, _combine, as_fractions, vec_add


class HigherDerivation(Value):
    """Rank-N sequence of square matrices; maps[k-1] is d_k on coordinates."""

    rank: int
    maps: tuple[Matrix, ...]

    __hash__ = _hash_once

    def __post_init__(self):
        if self.rank < 1:
            raise ShapeError("rank must be at least 1")
        if len(self.maps) != self.rank:
            raise ShapeError(f"rank {self.rank} needs {self.rank} maps, got {len(self.maps)}")
        n = self.maps[0].rows
        for k, m in enumerate(self.maps, start=1):
            if m.rows != n or m.cols != n:
                raise ShapeError(f"map {k} is {m.rows}x{m.cols}, expected {n}x{n}")

    @property
    def dim(self) -> int:
        return self.maps[0].rows

    def apply(self, k: int, v: Vector) -> Vector:
        if k == 0:
            return v
        return self.maps[k - 1].apply(v)

    @classmethod
    def zero(cls, dim: int, rank: int) -> "HigherDerivation":
        return cls(rank, (Matrix.zeros(dim, dim),) * rank)


class AssHDerPair(Value):
    algebra: Algebra
    hder: HigherDerivation

    def __post_init__(self):
        if self.hder.dim != self.algebra.dim:
            raise ShapeError(
                f"higher derivation acts on dim {self.hder.dim}, algebra has dim {self.algebra.dim}")


class AssHDerMorphism(Value):
    """A linear map between two pairs of equal rank, to be checked."""

    source: AssHDerPair
    target: AssHDerPair
    matrix: Matrix


def verify_hder(alg: Algebra, hd: HigherDerivation) -> CheckReport:
    """The defining identity for every k = 1..N on all basis pairs."""
    _require_same_dim(alg, hd)
    return _leibniz_report(_pair_tables(alg.dim, alg.int_form, hd.maps), "higher derivation identity")


def _pair_reports(alg: Algebra, hd: HigherDerivation) -> tuple[CheckReport, CheckReport]:
    """``(verify_algebra(alg), verify_hder(alg, hd))`` from one table: the
    input checks of a command that reads a pair."""
    _require_same_dim(alg, hd)
    tables = _pair_tables(alg.dim, alg.int_form, hd.maps)
    return _algebra_report(alg, tables), _leibniz_report(tables, "higher derivation identity")


def _require_same_dim(alg: Algebra, hd: HigherDerivation) -> None:
    if hd.dim != alg.dim:
        raise ShapeError(f"maps are {hd.dim}x{hd.dim}, algebra has dim {alg.dim}")


def _leibniz_report(tables: LawTables, law: str) -> CheckReport:
    """The higher-derivation law, k = 1..N on all basis pairs, on order-0 tables."""
    for k in range(1, tables.rank + 1):
        bad = tables.failure(k, 0)
        if bad is not None:
            (i, j), lhs, rhs = bad
            q = tables.scale(k)
            return CheckReport.failed(law, (k, i, j), as_fractions(lhs, q), as_fractions(rhs, q))
    return CheckReport.passed()


def ordinary_hder(alg: Algebra, d1: Matrix, n_rank: int) -> HigherDerivation:
    """d_k = d1^k / k! from a single derivation d1."""
    trial = HigherDerivation(1, (d1,))
    report = verify_hder(alg, trial)
    if not report.ok:
        raise ValueError(f"d1 is not a derivation: {report.violation}")
    maps = []
    power = Matrix.identity(alg.dim)
    for k in range(1, n_rank + 1):
        power = power * d1
        maps.append(power.scale(ONE / math.factorial(k)))
    return HigherDerivation(n_rank, tuple(maps))


def power_commutator_hder(alg: Algebra, x: Vector, n_rank: int) -> HigherDerivation:
    """d_n(a) = x^{n-1} (x a - a x); works for any element of any algebra."""
    lx = alg.left_mult_matrix(x)
    rx = alg.right_mult_matrix(x)
    comm = lx - rx
    maps = []
    power = Matrix.identity(alg.dim)
    for n in range(1, n_rank + 1):
        maps.append(power * comm)
        power = lx * power
    return HigherDerivation(n_rank, tuple(maps))


def stretch_hder(hd: HigherDerivation, q: int) -> HigherDerivation:
    """Respace a sequence: the new d_k is d_s when k = s*q, zero otherwise."""
    if not 1 <= q <= hd.rank:
        raise ValueError(f"stretch step {q} out of range 1..{hd.rank}")
    maps = []
    for k in range(1, hd.rank + 1):
        if k % q == 0:
            maps.append(hd.maps[k // q - 1])
        else:
            maps.append(Matrix.zeros(hd.dim, hd.dim))
    return HigherDerivation(hd.rank, tuple(maps))


def inner_hder(alg: Algebra, xs: list[Vector], ys: list[Vector]) -> HigherDerivation:
    """d_n(a) = sum_{i=0..n} x_i a y_{n-i} from two convolution-inverse sequences.

    Requires a unital algebra; x_0 = y_0 = 1 by convention, and the sequences
    must satisfy sum_i x_i y_{n-i} = delta_{n0} 1 = sum_i y_i x_{n-i} for
    n = 0..N.
    """
    if alg.unit_index is None:
        raise ValueError("inner higher derivations need a unital algebra")
    n_rank = len(xs)
    if len(ys) != n_rank:
        raise ShapeError("x and y sequences must have equal length")
    one = alg.unit_vector()
    x_seq = [one, *xs]
    y_seq = [one, *ys]
    for n in range(n_rank + 1):
        want = one if n == 0 else (ZERO,) * alg.dim
        conv_xy = (ZERO,) * alg.dim
        conv_yx = (ZERO,) * alg.dim
        for i in range(n + 1):
            conv_xy = vec_add(conv_xy, alg.mult(x_seq[i], y_seq[n - i]))
            conv_yx = vec_add(conv_yx, alg.mult(y_seq[i], x_seq[n - i]))
        if conv_xy != want or conv_yx != want:
            raise ValueError(f"convolution-inverse condition fails at n={n}")
    maps = []
    for n in range(1, n_rank + 1):
        cols = []
        for j in range(alg.dim):
            ej = alg.basis_vector(j)
            acc = (ZERO,) * alg.dim
            for i in range(n + 1):
                acc = vec_add(acc, alg.mult(alg.mult(x_seq[i], ej), y_seq[n - i]))
            cols.append(acc)
        maps.append(Matrix.from_columns(cols))
    return HigherDerivation(n_rank, tuple(maps))


def polynomial_truncation(alg: Algebra, order: int) -> Algebra:
    """A[t]/(t^{order+1}) on the basis e_i t^s, indexed s*dim + i."""
    d, (nums, den) = alg.dim, alg.int_form
    big = d * (order + 1)
    c = [0] * big ** 3
    for s in range(order + 1):
        for r in range(order + 1 - s):
            for i, j in itertools.product(range(d), repeat=2):
                at = ((s * d + i) * big + r * d + j) * big + (s + r) * d
                c[at:at + d] = nums[(i * d + j) * d:(i * d + j + 1) * d]
    labels = tuple(
        lbl if s == 0 else f"{lbl}*t^{s}"
        for s in range(order + 1) for lbl in alg.basis_labels)
    return Algebra(big, (c, den), labels, alg.unit_index)


def truncated_morphism_check(alg: Algebra, hd: HigherDerivation) -> CheckReport:
    """Is a |-> a + d_1(a) t + ... + d_N(a) t^N multiplicative into A[t]/(t^{N+1})?

    Built from the truncation's own structure constants, not from the
    higher-derivation identity, so it can cross-check verify_hder.
    """
    _require_same_dim(alg, hd)
    big = polynomial_truncation(alg, hd.rank)
    d = alg.dim
    cols = []
    for i in range(d):
        col = []
        for s in range(hd.rank + 1):
            col.extend(hd.apply(s, alg.basis_vector(i)))
        cols.append(tuple(col))
    f = Matrix.from_columns(cols)
    for i, j in itertools.product(range(d), repeat=2):
        lifted_product = f.apply(alg.basis_product(i, j))
        product_of_lifts = big.mult(f.column(i), f.column(j))
        if lifted_product != product_of_lifts:
            return CheckReport(False, Violation("truncated morphism multiplicativity",
                                                (i, j), lifted_product, product_of_lifts))
    return CheckReport.passed()


def _mult(alg: Algebra, x: dict, y: dict) -> dict:
    """The product x y in ``alg``, on its integer form, for sparse integer
    vectors ``{coordinate: x}``: numerators over the product of the scales
    of x, y and the form."""
    nums, n = alg.int_form[0], alg.dim
    out: dict[int, int] = {}
    for u, a in x.items():
        for v, b in y.items():
            at = (u * n + v) * n
            for r, z in enumerate(nums[at:at + n]):
                if z:
                    out[r] = out.get(r, 0) + a * b * z
    return out


def _morphism_law_terms(src: AssHDerPair, tgt: AssHDerPair, f: Matrix,
                        pairs=None, cols=None):
    """Both sides of the morphism law for the linear map f: src -> tgt, in
    scan order, on the integer forms of the algebras and the integer columns
    of the maps: each side lists the target coordinates as numerators over one
    scale q per k.  Yields ``(0, (i, j), f(e_i e_j), f(e_i) f(e_j), q)`` over
    the basis pairs, then ``(k, (i,), d_k f(e_i), f(d_k e_i), q)`` for
    k = 1..N over the columns.  ``pairs`` and ``cols`` list what to scan, in
    order; by default every basis pair and every column."""
    d, n = src.algebra.dim, tgt.algebra.dim
    images, fs = f.int_form
    (snums, sden), tden = src.algebra.int_form, tgt.algebra.int_form[1]

    def sides(lhs: dict, p: int, rhs: dict, r: int):
        q = math.lcm(p, r)
        return [lhs.get(b, 0) * (q // p) for b in range(n)], [rhs.get(b, 0) * (q // r) for b in range(n)], q

    for i, j in itertools.product(range(d), repeat=2) if pairs is None else pairs:
        at = (i * d + j) * d
        yield 0, (i, j), *sides(_combine(images, dict(enumerate(snums[at:at + d]))), sden * fs,
                                _mult(tgt.algebra, images[i], images[j]), fs * fs * tden)
    for k in range(1, src.hder.rank + 1):
        d_src, d_tgt = src.hder.maps[k - 1], tgt.hder.maps[k - 1]
        (scols, ss), (tcols, ts) = d_src.int_form, d_tgt.int_form
        for i in range(d) if cols is None else cols:
            yield k, (i,), *sides(_combine(tcols, images[i]), ts * fs, _combine(images, scols[i]), fs * ss)


def check_morphism(mor: AssHDerMorphism) -> CheckReport:
    """Algebra multiplicativity on basis pairs plus intertwining with all d_k;
    an intertwining failure names its k only."""
    src, tgt, f = mor.source, mor.target, mor.matrix
    if src.hder.rank != tgt.hder.rank:
        raise ShapeError("source and target ranks differ")
    if f.rows != tgt.algebra.dim or f.cols != src.algebra.dim:
        raise ShapeError(
            f"morphism matrix is {f.rows}x{f.cols}, expected "
            f"{tgt.algebra.dim}x{src.algebra.dim}")
    for k, at, lhs, rhs, q in _morphism_law_terms(src, tgt, f):
        if lhs != rhs:
            if k:
                return CheckReport.failed("intertwining", (k,))
            return CheckReport.failed("algebra morphism", at, as_fractions(lhs, q), as_fractions(rhs, q))
    return CheckReport.passed()
