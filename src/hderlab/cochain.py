"""The cochain complex of an algebra-with-higher-derivation pair.

An n-cochain for n >= 2 is a pair (f; f_1, ..., f_N): one n-ary multilinear
map into the module plus N maps of arity n-1.  1-cochains are single linear
maps and the space of 0-cochains is zero by decree, so H^1 is the full
kernel of the degree-1 differential.

Conventions, fixed once and used everywhere:

* d_0 is the identity on the algebra and d_0^M the identity on the module;
  neither is ever stored.
* f_0 = 0: convolution sums over a family of cochains never produce an
  index-0 member.
* The differential is stated once, one basis tuple at a time
  (``_tuple_columns``).  The middle sum and the delta_k compositions of a
  unit map land on its own coordinate m_a and are otherwise the same for
  every a, so they are summed once per tuple; the action terms and -d_k^M
  are added per index a.  The delta_k terms of a main-block column carry
  (-1)^n, n the degree of the source cochain space; a unit map of arity m
  contributes its middle-sum term at slot pos with (-1)^{pos+1} and its
  right-action term with (-1)^{m+1}.  Parts of an n-cochain have arity
  n-1, so their right-action sign is (-1)^n as well.
* The stencil computes on integers.  With D_act the common denominator of
  the products, the actions and the module maps, and D_hd that of
  d_1, ..., d_N, every entry of the degree-n differential is an int over
  S = D_act * D_hd^n.  One table per pair and degree holds them, read
  from the integer forms the structures keep, so no Fraction of the
  structures is read to build it.  ``differential_matrix``
  keeps the ints as the matrix's ``int_rows`` store, which elimination reads
  directly; ``differential(c)`` sums ints over S times the denominator of c.
* Cochains vectorize main block first (row-major multi-index, module index
  fastest), then the parts for k = 1..N.  A ``Cochain`` stores that vector
  as one integer form, numerators over one denominator in lowest terms, and
  the differential, the coboundary test and the preimage solve all run on
  it; its multimaps are views.
* Degree-2 data has one type: a 2-cocycle twisting an extension and a
  deformation coefficient (mu_s; d_{1,s}, ..., d_{N,s}) are both 2-cochains,
  the latter with self coefficients.  An arity-1 map holds its matrix
  column-major: ``values[c * mdim + b]`` is entry (b, c).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebras import Algebra, Bimodule, _lowest_terms
from .exactlin import (
    Kernel, Matrix, ShapeError, Value, Vector, ZERO, _set, as_fractions, int_form, null_space, rank,
    require_image_in_kernel, solve_ints,
)
from .hder import HigherDerivation


class NegativeAnswer(ValueError):
    """A well-formed input that the mathematics rejects: a negative answer."""


class NotACocycleError(NegativeAnswer):
    """An input that must be killed by the differential is not."""


class MultiMap(Value):
    """Multilinear map A^{x arity} -> M as a flat row-major value tensor.

    ``values[(((i1*dim + i2)*dim + ...)*dim + i_n)*mdim + b]`` is the b-th
    module coordinate of the image of the basis tuple (i1, ..., i_n).
    """

    arity: int
    dim: int
    mdim: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ShapeError("arity must be at least 1")
        expected = self.dim ** self.arity * self.mdim
        if len(self.values) != expected:
            raise ShapeError(f"value tensor has {len(self.values)} entries, expected {expected}")

    @classmethod
    def zero(cls, arity: int, dim: int, mdim: int) -> "MultiMap":
        return cls(arity, dim, mdim, (ZERO,) * (dim ** arity * mdim))

    def is_zero(self) -> bool:
        return all(not a for a in self.values)

    def value_at(self, idx: tuple[int, ...]) -> Vector:
        flat = 0
        for i in idx:
            flat = flat * self.dim + i
        base = flat * self.mdim
        return self.values[base:base + self.mdim]


def matrix_to_multimap(mat: Matrix) -> MultiMap:
    """A linear map as an arity-1 multimap; columns become values."""
    return MultiMap(1, mat.cols, mat.rows, mat.transpose().entries)


def multimap_to_matrix(mm: MultiMap) -> Matrix:
    if mm.arity != 1:
        raise ShapeError("only arity-1 multimaps are matrices")
    return Matrix(mm.dim, mm.mdim, mm.values).transpose()


class Cochain(Value):
    """(f; f_1, ..., f_N) for degree n >= 2; a bare linear map in degree 1.

    A cochain stores one form, ``int_form``: its degree-n vector (the
    layout of ``cochain_blocks``) as numerators over one denominator, in
    lowest terms, on the shape ``(dim, mdim, nrank)``; nrank reads 0 in
    degree 1, which has no parts.  ==, hash and repr read the form.
    ``main`` and ``parts`` are Fraction multimap views made on first read,
    and ``from_maps`` builds a cochain from multimaps.
    """

    dim: int
    mdim: int
    nrank: int
    n: int
    int_form: tuple[tuple[int, ...], int]

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError("cochain degree must be at least 1")
        if self.n == 1:
            _set(self, "nrank", 0)
        if len(self.int_form[0]) != cochain_dim(*self.shape, self.n):
            raise ShapeError("vector length does not match the cochain space")
        _lowest_terms(self)

    @classmethod
    def from_maps(cls, main: MultiMap, parts=()) -> "Cochain":
        """The cochain (main; parts) of Fraction multimaps."""
        parts = tuple(parts)
        if main.arity == 1 and parts:
            raise ShapeError("degree-1 cochains have no parts")
        for p in parts:
            if (p.arity, p.dim, p.mdim) != (main.arity - 1, main.dim, main.mdim):
                raise ShapeError("part shape does not match the main map")
        return cls(main.dim, main.mdim, len(parts), main.arity,
                   int_form([*main.values, *(x for p in parts for x in p.values)]))

    shape = property(lambda self: (self.dim, self.mdim, self.nrank))
    main = property(lambda self: self._maps[0])
    parts = property(lambda self: self._maps[1:])

    @cached_property
    def _maps(self) -> tuple[MultiMap, ...]:
        values = as_fractions(*self.int_form)
        main, *parts = cochain_blocks(*self.shape, self.n)
        return (MultiMap(self.n, self.dim, self.mdim, values[main]),
                *(MultiMap(self.n - 1, self.dim, self.mdim, values[b]) for b in parts))

    def is_zero(self) -> bool:
        return not any(self.int_form[0])


def cochain_dim(dim: int, mdim: int, nrank: int, n: int) -> int:
    """Dimension of the degree-n cochain space."""
    if n < 1:
        raise ValueError("cochain degree must be >= 1")
    if n == 1:
        return dim * mdim
    return dim ** n * mdim + nrank * dim ** (n - 1) * mdim


def zero_cochain(dim: int, mdim: int, nrank: int, n: int) -> Cochain:
    return Cochain(dim, mdim, nrank, n, ((0,) * cochain_dim(dim, mdim, nrank, n), 1))


def cochain_to_vector(c: Cochain) -> Vector:
    return as_fractions(*c.int_form)


def cochain_blocks(dim: int, mdim: int, nrank: int, n: int) -> list[slice]:
    """The slices of a degree-n cochain vector that hold its main map and
    then, for n >= 2, each of its nrank parts."""
    main = dim ** n * mdim
    if n == 1:
        return [slice(0, main)]
    part = main // dim
    return [slice(0, main)] + [slice(main + k * part, main + (k + 1) * part)
                               for k in range(nrank)]


def vector_to_cochain(dim: int, mdim: int, nrank: int, n: int, vec: Vector) -> Cochain:
    return Cochain(dim, mdim, nrank, n, int_form(vec))


@lru_cache(maxsize=64)
def _tables(alg: Algebra, mod: Bimodule, hd: HigherDerivation, n: int) -> tuple:
    """The nonzero structure constants that ``_tuple_columns`` reads for the
    degree-n differential, as integer numerators over one scale, from the
    integer forms of the structures (cached, so read-only).

    D_act is the common denominator of the products, the actions and the
    module maps, D_hd that of d_1, ..., d_N, and S = D_act * D_hd^n is the
    scale of every column (the last entry of the tuple).  ``lefts[a]`` and
    ``rights[a]`` list ``(u, b, x)`` for x * D_hd / S the coefficient of m_b
    in e_u m_a and in m_a e_u; ``factors[r]`` lists ``(i, j, x)`` for x / S
    the coefficient of e_r in e_i e_j; ``drows[q][u]`` is row u of
    D_hd * d_q as ``{i: x}``, with d_0 = id; ``dmcols[k - 1][a]`` is column a
    of S * d_k^M as ``{b: x}``.  So an action entry times a row entry of a
    d_q, and D_act times n row entries, are numerators over S as well.
    """
    d, md = alg.dim, mod.mdim
    (anums, aden), (mnums, mden) = alg.int_form, mod.int_form
    dmaps = tuple(m.int_rows for m in mod.dmaps)
    d_act = math.lcm(aden, mden, *(den for _, den in dmaps))
    maps = tuple(m.int_rows for m in hd.maps)
    d_hd = math.lcm(*(den for _, den in maps))
    scale = d_act * d_hd ** n
    act, r0 = scale // d_hd // mden, d * md * md  # right[a][u][b] is at r0 + (a d + u) md + b
    lefts = tuple([(u, b, x * act) for u in range(d) for b in range(md)
                   if (x := mnums[(u * md + a) * md + b])] for a in range(md))
    rights = tuple([(u, b, x * act) for u in range(d) for b in range(md)
                    if (x := mnums[r0 + (a * d + u) * md + b])] for a in range(md))
    factors: list[list] = [[] for _ in range(d)]
    for at, x in enumerate(anums):
        if x:
            ij, r = divmod(at, d)
            factors[r].append((*divmod(ij, d), x * (scale // aden)))
    drows = (tuple({u: d_hd} for u in range(d)),) + tuple(
        tuple({i: x * (d_hd // den) for i, x in row.items()} for row in rows)
        for rows, den in maps)
    dmcols = []
    for rows, den in dmaps:
        cols: list[dict] = [{} for _ in range(md)]
        for b, row in enumerate(rows):
            for a, x in row.items():
                cols[a][b] = x * (scale // den)
        dmcols.append(cols)
    return d, md, hd.rank, lefts, rights, factors, drows, tuple(dmcols), d_act, scale


def _tuple_columns(tables: tuple, n: int, t: int, indices):
    """Yield ``(a, {row: x})`` for each module index a in ``indices``: the
    entries x / S (ints, zeros possible) of column t * mdim + a of the
    degree-n differential, the image of the unit cochain sending input basis
    tuple t to m_a.  Tuples t < dim^n are the main block's (arity n), the
    rest the parts' (arity n - 1).

    A unit map of arity m has its two action terms through d_q and its
    middle sum.  A main-block column adds (-1)^n times the delta_k terms in
    output part k: -d_k^M and the compositions f o (d_{q1} x ... x d_{qn})
    with q1 + ... + qn = k.  An input part j column writes its action terms
    through d_{k-j} into each output part k >= j, its middle sum into part
    j only.  ``shared`` holds the terms common to every a, by row minus a.
    """
    d, md, nrank, lefts, rights, factors, drows, dmcols, d_act, _ = tables
    block = d ** n * md  # the input main block, and each output part (arity n)
    parts_base = d * block  # the output main block comes first
    sign = 1 if n % 2 == 0 else -1  # (-1)^n
    if t < d ** n:  # outputs: (q, block base) per action term; dm: the k of each -d_k^M
        flat, m, middle, outputs, dm = t, n, 0, ((0, 0),), range(1, nrank + 1)
        # the compositions: (output tuple so far, q1 + ...) -> numerator, slot by slot
        states = {(0, 0): sign * d_act}
        for slot in range(n - 1, -1, -1):
            i = flat // d ** slot % d
            grown: dict = {}
            for (out, used), x in states.items():
                for q in range(nrank - used + 1):
                    for j, y in drows[q][i].items():
                        key = (out * d + j, used + q)
                        grown[key] = grown.get(key, 0) + x * y
            states = grown
        shared = {parts_base + (k - 1) * block + out * md: x
                  for (out, k), x in states.items() if k}
    else:
        part, flat = divmod(t - d ** n, d ** (n - 1))  # input parts have arity n - 1
        m, middle, shared, dm = n - 1, parts_base + part * block, {}, ()
        outputs = tuple((k - part, parts_base + k * block) for k in range(part, nrank))
    for pos in range(m):
        low = d ** (m - 1 - pos)
        high, rest = divmod(flat, low * d)
        r, lo = divmod(rest, low)
        for i, j, x in factors[r]:
            row = middle + (((high * d + i) * d + j) * low + lo) * md
            shared[row] = shared.get(row, 0) + (x if pos % 2 else -x)  # (-1)^{pos+1}
    shift, right = d ** m, (1 if m % 2 else -1)  # right: (-1)^{m+1}
    for a in indices:
        acc = {row + a: x for row, x in shared.items()}
        for q, base in outputs:
            for u, b, x in lefts[a]:
                for i, y in drows[q][u].items():
                    row = base + (i * shift + flat) * md + b
                    acc[row] = acc.get(row, 0) + x * y
            for u, b, x in rights[a]:
                for i, y in drows[q][u].items():
                    row = base + (flat * d + i) * md + b
                    acc[row] = acc.get(row, 0) + right * x * y
        for k in dm:
            base = parts_base + (k - 1) * block + flat * md
            for b, x in dmcols[k - 1][a].items():
                acc[base + b] = acc.get(base + b, 0) - sign * x
        yield a, acc


def differential(alg: Algebra, mod: Bimodule, hd: HigherDerivation,
                 c: Cochain) -> Cochain:
    """The coupled coboundary, summed over the basis tuples and module
    indices that c's nonzero coordinates touch; squares to zero exactly."""
    n = c.n
    if (c.dim, c.mdim) != (alg.dim, mod.mdim):
        raise ShapeError(f"cochain of shape ({c.dim}, {c.mdim}) on an "
                         f"algebra of dim {alg.dim} with module dim {mod.mdim}")
    if n > 1 and c.nrank != hd.rank:
        raise ShapeError(f"cochain has {c.nrank} parts, rank is {hd.rank}")
    nums, den = c.int_form
    out, scale = _coboundary(alg, mod, hd, n, nums)
    return Cochain(alg.dim, mod.mdim, hd.rank, n + 1, (out, den * scale))


def _coboundary(alg: Algebra, mod: Bimodule, hd: HigherDerivation, n: int, nums) -> tuple[list, int]:
    """``differential`` of the degree-n cochain nums / q, any q, as numerators
    over q S and S, the degree-n stencil scale; only touched tuples summed."""
    tables = _tables(alg, mod, hd, n)
    touched: dict[int, dict[int, int]] = {}  # tuple -> {a: numerator over q}
    for p, v in enumerate(nums):
        if v:
            t, a = divmod(p, mod.mdim)
            touched.setdefault(t, {})[a] = v
    out = [0] * cochain_dim(alg.dim, mod.mdim, hd.rank, n + 1)
    for t, coeffs in touched.items():
        for a, column in _tuple_columns(tables, n, t, coeffs):
            v = coeffs[a]
            for row, x in column.items():
                out[row] += v * x
    return out, tables[-1]


@lru_cache(maxsize=64)
def differential_matrix(alg: Algebra, mod: Bimodule, hd: HigherDerivation,
                        n: int) -> Matrix:
    """Matrix of the degree-n differential in the fixed cochain bases, its
    integer columns scattered into the rows of its ``int_rows`` store."""
    md = mod.mdim
    rows: list[dict[int, int]] = [{} for _ in range(cochain_dim(alg.dim, md, hd.rank, n + 1))]
    tables = _tables(alg, mod, hd, n)
    tuples = cochain_dim(alg.dim, 1, hd.rank, n)  # input basis tuples, mdim columns each
    for t in range(tuples):
        for a, column in _tuple_columns(tables, n, t, range(md)):
            p = t * md + a
            for row, x in column.items():
                if x:
                    rows[row][p] = x
    return Matrix.from_int_rows(rows, tables[-1], tuples * md)


class CohomologyReport(Value):
    """H^n in one degree.  The cocycles are kept in sparse form, ``kernel``
    (the reduced integer rows of the differential and its free columns), on
    the cochain shape ``(dim, mdim, nrank)``; ``cocycle_basis`` is built
    from them on first access.  Equality and hashing read the counts and
    ``cocycle_basis``, as for a report that stores the basis."""

    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    betti: int
    shape: tuple[int, int, int]
    kernel: Kernel

    @cached_property
    def cocycle_basis(self) -> tuple[Cochain, ...]:
        return tuple(Cochain(*self.shape, self.degree, form) for form in self.kernel.forms())

    def _public(self) -> tuple:
        return (self.degree, self.dim_cochains, self.dim_cocycles,
                self.dim_coboundaries, self.betti, self.cocycle_basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohomologyReport):
            return NotImplemented
        return self._public() == other._public()

    def __hash__(self) -> int:
        return hash(self._public())

    def __repr__(self) -> str:
        counts = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields
                           if name not in ("shape", "kernel"))
        return f"CohomologyReport({counts})"


def cohomology(alg: Algebra, mod: Bimodule, hd: HigherDerivation, degree: int,
               max_dim: int | None = None) -> CohomologyReport:
    """Exact cohomology in one degree.

    Degree 1 is the bare kernel of the differential, since there are no
    0-cochains.  For n >= 2 the inclusion im d_{n-1} <= ker d_n is verified
    first (failure means the complex itself is broken and raises), so
    rank(d_n) <= cols - rank(d_{n-1}); the rows of d_n are eliminated only
    until their rank reaches that bound, which ends a betti-0 case as soon
    as its rank is known.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n_cochains = cochain_dim(alg.dim, mod.mdim, hd.rank, degree)
    if max_dim is not None and n_cochains > max_dim:
        raise ShapeError(f"cochain space dimension {n_cochains} exceeds cap {max_dim}")
    outgoing = differential_matrix(alg, mod, hd, degree)
    n_coboundaries = 0
    if degree > 1:
        boundary = differential_matrix(alg, mod, hd, degree - 1)
        require_image_in_kernel(boundary, outgoing)
        n_coboundaries = rank(boundary)
    cocycles = null_space(outgoing, n_cochains - n_coboundaries)
    return CohomologyReport(degree, n_cochains, len(cocycles), n_coboundaries,
                            len(cocycles) - n_coboundaries,
                            (alg.dim, mod.mdim, hd.rank), cocycles)


def is_coboundary(alg: Algebra, mod: Bimodule, hd: HigherDerivation,
                  c: Cochain) -> Cochain | None:
    """Canonical preimage under the differential, or None for a fresh class.

    The input must be a cocycle of degree >= 2; a non-cocycle raises.
    """
    n = c.n
    if n < 2:
        raise ValueError("coboundary test needs degree >= 2")
    if not differential(alg, mod, hd, c).is_zero():
        raise NotACocycleError(f"degree-{n} input is not a cocycle")
    return preimage(alg, mod, hd, c)


def preimage(alg: Algebra, mod: Bimodule, hd: HigherDerivation,
             c: Cochain) -> Cochain | None:
    """The canonical (n-1)-cochain whose differential is the n-cochain c,
    free variables zero, or None when c is not in the image; n >= 2.

    Each solve on the cached d_{n-1} after the first is one substitution
    into its factor (``exactlin.solve_ints``, on the form of c).  The callers check what c
    must be; ``deform.trivialize`` solves integers on the same matrix."""
    sol = solve_ints(differential_matrix(alg, mod, hd, c.n - 1), *c.int_form)
    return None if sol is None else Cochain(alg.dim, mod.mdim, hd.rank, c.n - 1, sol)
