"""Finite-dimensional associative algebras and bimodules over the rationals.

An algebra is a structure-constant tensor: ``c[i][j][k]`` is the coefficient
of basis vector ``e_k`` in the product ``e_i * e_j``.  A bimodule is a pair
of action tensors plus the square matrices that play the role of the higher
derivation on the module side.  Everything is an immutable value; the
verifiers check every basis tuple, which is equivalent to the general
statement by multilinearity.  Associativity and the higher-derivation law
are stated once, at every order s, on integer tables over one denominator:
order 0 is what the input verifiers check, order s the deformation equations.
The bimodule laws are the same two laws on the semidirect product A + M,
scanned on the basis tuples that hold one module vector; that verifier lives
next to ``semidirect`` in ``extensions``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from fractions import Fraction

from .exactlin import Matrix, ShapeError, Vector, ZERO, as_fractions, common_denominator, rat, rat_str

Tensor3 = tuple[tuple[tuple[Fraction, ...], ...], ...]


def tensor3(data, d0: int, d1: int, d2: int, what: str = "tensor") -> Tensor3:
    """Normalize a nested iterable into a d0 x d1 x d2 tuple of Fractions."""
    rows = tuple(tuple(tuple(rat(x) for x in inner) for inner in middle) for middle in data)
    if len(rows) != d0 or any(len(m) != d1 for m in rows) or any(
            len(inner) != d2 for m in rows for inner in m):
        raise ShapeError(f"{what} is not {d0}x{d1}x{d2}")
    return rows


def zero_tensor3(d0: int, d1: int, d2: int) -> Tensor3:
    return tuple(tuple((ZERO,) * d2 for _ in range(d1)) for _ in range(d0))


def tensor_values(t: Tensor3) -> tuple[Fraction, ...]:
    """The entries flat in [i][j][k] order: a bilinear map's values."""
    return tuple(x for mid in t for inner in mid for x in inner)


def _hash_once(self) -> int:
    """``__hash__`` for a frozen dataclass: the hash of its field values,
    computed on first use and kept, so that an ``lru_cache`` hit keyed on a
    structure does not rehash every structure constant."""
    h = self.__dict__.get("_hash")
    if h is None:
        h = self.__dict__["_hash"] = hash(tuple(getattr(self, f.name) for f in fields(self)))
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


def _int_chunks(values, d: int, den: int) -> tuple[dict[int, int], ...]:
    """Consecutive length-d blocks of ``values`` as ``{index: numerator}``
    over ``den`` (a multiple of every denominator), zeros left out."""
    return tuple({c: x.numerator * (den // x.denominator)
                  for c in range(d) if (x := values[base + c])}
                 for base in range(0, len(values), d))


def _law_tables(d: int, products, series) -> tuple[tuple, tuple, int]:
    """``(mus, dcols, D)`` from the flat values of each mu_p and the column-major
    values ``series[k - 1][s]`` of each d_{k,s}, D the lcm of their denominators:
    ``mus[p][i * d + j]`` is D * mu_p(e_i, e_j) as ``{c: x}`` and
    ``dcols[k][s][c]`` is D * column c of d_{k,s} as ``{b: x}``, d_{0,0} = id."""
    den = common_denominator(itertools.chain(*products, *itertools.chain(*series)))
    ident = tuple({c: den} for c in range(d))
    return (tuple(_int_chunks(v, d, den) for v in products),
            ((ident,),) + tuple(tuple(_int_chunks(v, d, den) for v in ser) for ser in series),
            den)


def _pair_tables(t: Tensor3, maps=()) -> tuple[tuple, tuple, int]:
    """The order-0 law tables of the product ``t`` and the maps d_1..d_N."""
    return _law_tables(len(t), (tensor_values(t),), tuple((m.transpose().entries,) for m in maps))


def _associativity_terms(tables, s: int = 0, _at=None):
    """Yields ``(0, (i, j, l), lhs, rhs, D^2)`` in scan order, the numerators of
    sum_{p+q=s} mu_p(mu_q(e_i, e_j), e_l) = sum_{p+q=s} mu_p(e_i, mu_q(e_j, e_l))
    over D^2, with mu_p past the last one stored taken as zero.  ``_at`` lists
    the basis triples to scan, in order; by default all of them."""
    mus, dcols, den = tables
    d, n = len(dcols[0][0]), len(mus) - 1
    pairs = [(mus[p], mus[s - p]) for p in range(max(0, s - n), min(s, n) + 1)]
    for i, j, l in itertools.product(range(d), repeat=3) if _at is None else _at:
        lhs, rhs = [0] * d, [0] * d
        for mp, mq in pairs:
            for c, x in mq[i * d + j].items():
                for b, y in mp[c * d + l].items():
                    lhs[b] += x * y
            for c, x in mq[j * d + l].items():
                for b, y in mp[i * d + c].items():
                    rhs[b] += x * y
        yield 0, (i, j, l), lhs, rhs, den * den


def _derivation_law_terms(tables, s: int = 0, _at=None):
    """Yields ``(k, (i, j), lhs, rhs, D^3)`` for k = 1..N in scan order, the
    numerators of sum_p d_{k,p}(mu_{s-p}(e_i, e_j)) = sum_{a+b=k}
    sum_{p+q+r=s} mu_p(d_{a,q} e_i, d_{b,r} e_j) over D^3 (the lhs scaled by
    D), with terms past the last stored order taken as zero.  ``_at`` lists
    the basis pairs scanned for each k, in order; by default all of them."""
    mus, dcols, den = tables
    d, n = len(dcols[0][0]), len(mus) - 1
    at = list(itertools.product(range(d), repeat=2)) if _at is None else _at
    orders = range(max(0, s - n), min(s, n) + 1)  # p with p <= n and s - p <= n
    for k in range(1, len(dcols)):
        left_terms = [(dcols[k][p], mus[s - p]) for p in orders]
        right_terms = []
        for a in range(k + 1):
            da, db = dcols[a], dcols[k - a]
            for q in range(min(s, len(da) - 1) + 1):
                for r in range(min(s - q, len(db) - 1) + 1):
                    if s - q - r <= n:
                        right_terms.append((mus[s - q - r], da[q], db[r]))
        for i, j in at:
            lhs, rhs = [0] * d, [0] * d
            for dk, mq in left_terms:
                for c, x in mq[i * d + j].items():
                    for b, y in dk[c].items():
                        lhs[b] += x * y
            for mp, da, db in right_terms:
                for u, x in da[i].items():
                    for v, y in db[j].items():
                        xy = x * y
                        for b, z in mp[u * d + v].items():
                            rhs[b] += xy * z
            yield k, (i, j), [x * den for x in lhs], rhs, den ** 3


@dataclass(frozen=True)
class Violation:
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


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violation: Violation | None = None

    @classmethod
    def passed(cls) -> "CheckReport":
        return cls(True, None)

    @classmethod
    def failed(cls, law: str, at: tuple, lhs=None, rhs=None) -> "CheckReport":
        return cls(False, Violation(law, at, lhs, rhs))


@dataclass(frozen=True)
class Algebra:
    """Associative algebra by structure constants c[i][j][k]."""

    dim: int
    c: Tensor3
    basis_labels: tuple[str, ...]
    unit_index: int | None = None

    __hash__ = _hash_once

    def __post_init__(self):
        d = self.dim
        if len(self.basis_labels) != d:
            raise ShapeError(f"{d} basis labels expected, got {len(self.basis_labels)}")
        if len(self.c) != d or any(len(m) != d for m in self.c) or any(
                len(inner) != d for m in self.c for inner in m):
            raise ShapeError(f"structure tensor is not {d}x{d}x{d}")
        if self.unit_index is not None and not 0 <= self.unit_index < d:
            raise ShapeError(f"unit index {self.unit_index} out of range")

    @classmethod
    def from_table(cls, table, labels=None, unit_index=None) -> "Algebra":
        dim = len(table)
        if labels is None:
            labels = tuple(f"e{i}" for i in range(dim))
        return cls(dim, tensor3(table, dim, dim, dim, "structure tensor"),
                   tuple(labels), unit_index)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1) if j == i else ZERO for j in range(self.dim))

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


@dataclass(frozen=True)
class Bimodule:
    """Bimodule with module-side derivation maps.

    ``left[i][a][b]`` is the coefficient of m_b in e_i * m_a, and
    ``right[a][i][b]`` the coefficient of m_b in m_a * e_i.  ``dmaps`` holds
    the square matrices (d_1^M, ..., d_N^M) acting on module coordinates.
    """

    mdim: int
    left: Tensor3
    right: Tensor3
    dmaps: tuple[Matrix, ...]

    __hash__ = _hash_once

    def __post_init__(self):
        for k, m in enumerate(self.dmaps, start=1):
            if m.rows != self.mdim or m.cols != self.mdim:
                raise ShapeError(f"module map {k} is {m.rows}x{m.cols}, expected {self.mdim}x{self.mdim}")

    def basis_vector(self, a: int) -> Vector:
        return tuple(Fraction(1) if b == a else ZERO for b in range(self.mdim))

    def has_zero_actions(self) -> bool:
        return all(not x for m in self.left for inner in m for x in inner) and \
            all(not x for m in self.right for inner in m for x in inner)


def verify_algebra(alg: Algebra) -> CheckReport:
    """Associativity on all basis triples, plus unit laws when a unit is declared."""
    d, c = alg.dim, alg.c
    for _, at, lhs, rhs, q in _associativity_terms(_pair_tables(c)):
        if lhs != rhs:
            return CheckReport.failed("associativity", at, as_fractions(lhs, q), as_fractions(rhs, q))
    u = alg.unit_index
    if u is not None:
        for j in range(d):
            ej = alg.basis_vector(j)
            if c[u][j] != ej:
                return CheckReport.failed("left unit law", (u, j), c[u][j], ej)
            if c[j][u] != ej:
                return CheckReport.failed("right unit law", (j, u), c[j][u], ej)
    return CheckReport.passed()


def adjoint_bimodule(alg: Algebra, hder) -> Bimodule:
    """The algebra acting on itself, with the higher derivation as module maps."""
    d = alg.dim
    left = alg.c
    right = alg.c
    return Bimodule(d, left, right, tuple(hder.maps))


def trivial_bimodule(alg: Algebra, mdim: int, dmaps: tuple[Matrix, ...]) -> Bimodule:
    """Zero left and right actions; any dmaps are lawful since every law vanishes."""
    return Bimodule(mdim, zero_tensor3(alg.dim, mdim, mdim),
                    zero_tensor3(mdim, alg.dim, mdim), tuple(dmaps))
