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
* The sign (-1)^n in the differential uses the degree n of the source
  cochain space; the trailing sign inside ``delta_prime`` uses the arity of
  the maps it acts on.  Parts of an n-cochain have arity n-1, so the two
  agree when the differential is assembled.
* Cochains vectorize main block first (row-major multi-index, module index
  fastest), then the parts for k = 1..N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebras import Algebra, Bimodule
from .exactlin import (
    Matrix, ShapeError, Vector, ZERO, ONE,
    kernel_basis, rank, require_image_in_kernel, solve_affine,
)
from .hder import HigherDerivation


class NotACocycleError(ValueError):
    """An input that must be killed by the differential is not."""


@dataclass(frozen=True)
class MultiMap:
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

    def value_at(self, idx: tuple[int, ...]) -> Vector:
        flat = 0
        for i in idx:
            flat = flat * self.dim + i
        base = flat * self.mdim
        return self.values[base:base + self.mdim]

    def eval(self, vectors) -> Vector:
        """Full multilinear evaluation at coordinate vectors, skipping zeros."""
        nonzero = [[(i, v) for i, v in enumerate(vec) if v] for vec in vectors]
        out = [ZERO] * self.mdim
        for combo in itertools.product(*nonzero):
            coeff = ONE
            flat = 0
            for i, v in combo:
                coeff *= v
                flat = flat * self.dim + i
            base = flat * self.mdim
            for b in range(self.mdim):
                x = self.values[base + b]
                if x:
                    out[b] += coeff * x
        return tuple(out)

    def compose_slot(self, slot: int, mat: Matrix) -> "MultiMap":
        """Precompose one argument slot with a dim x dim matrix."""
        n, d, md = self.arity, self.dim, self.mdim
        pos_stride = d ** (n - 1 - slot)
        nz_by_col = [[(b, mat.entry(b, c)) for b in range(d) if mat.entry(b, c)]
                     for c in range(d)]
        out = [ZERO] * len(self.values)
        for flat in range(d ** n):
            c = (flat // pos_stride) % d
            nz = nz_by_col[c]
            if not nz:
                continue
            base = flat * md
            for b, val in nz:
                src = base + (b - c) * pos_stride * md
                for m in range(md):
                    x = self.values[src + m]
                    if x:
                        out[base + m] += val * x
        return MultiMap(n, d, md, tuple(out))

    def postcompose(self, mat: Matrix) -> "MultiMap":
        """Apply a matrix on the module side."""
        n, d, md = self.arity, self.dim, self.mdim
        out: list[Fraction] = []
        for flat in range(d ** n):
            base = flat * md
            out.extend(mat.apply(self.values[base:base + md]))
        return MultiMap(n, d, mat.rows, tuple(out))

    def add(self, other: "MultiMap") -> "MultiMap":
        self._require_same_shape(other)
        return MultiMap(self.arity, self.dim, self.mdim,
                        tuple(a + b for a, b in zip(self.values, other.values)))

    def sub(self, other: "MultiMap") -> "MultiMap":
        self._require_same_shape(other)
        return MultiMap(self.arity, self.dim, self.mdim,
                        tuple(a - b for a, b in zip(self.values, other.values)))

    def neg(self) -> "MultiMap":
        return MultiMap(self.arity, self.dim, self.mdim, tuple(-a for a in self.values))

    def scale(self, c: Fraction) -> "MultiMap":
        return MultiMap(self.arity, self.dim, self.mdim, tuple(c * a for a in self.values))

    def is_zero(self) -> bool:
        return all(not a for a in self.values)

    def _require_same_shape(self, other: "MultiMap") -> None:
        if (self.arity, self.dim, self.mdim) != (other.arity, other.dim, other.mdim):
            raise ShapeError("multimap shape mismatch")


def matrix_to_multimap(mat: Matrix) -> MultiMap:
    """A linear map as an arity-1 multimap; columns become values."""
    values: list[Fraction] = []
    for i in range(mat.cols):
        values.extend(mat.column(i))
    return MultiMap(1, mat.cols, mat.rows, tuple(values))


def multimap_to_matrix(mm: MultiMap) -> Matrix:
    if mm.arity != 1:
        raise ShapeError("only arity-1 multimaps are matrices")
    return Matrix.from_columns([mm.value_at((i,)) for i in range(mm.dim)])


@dataclass(frozen=True)
class Cochain:
    """(f; f_1, ..., f_N) for degree >= 2; a bare linear map in degree 1."""

    main: MultiMap
    parts: tuple[MultiMap, ...] = ()

    def __post_init__(self):
        if self.main.arity == 1:
            if self.parts:
                raise ShapeError("degree-1 cochains have no parts")
            return
        for p in self.parts:
            if p.arity != self.main.arity - 1 or p.dim != self.main.dim or p.mdim != self.main.mdim:
                raise ShapeError("part shape does not match the main map")

    @property
    def n(self) -> int:
        return self.main.arity

    def add(self, other: "Cochain") -> "Cochain":
        return Cochain(self.main.add(other.main),
                       tuple(a.add(b) for a, b in zip(self.parts, other.parts, strict=True)))

    def sub(self, other: "Cochain") -> "Cochain":
        return Cochain(self.main.sub(other.main),
                       tuple(a.sub(b) for a, b in zip(self.parts, other.parts, strict=True)))

    def neg(self) -> "Cochain":
        return Cochain(self.main.neg(), tuple(p.neg() for p in self.parts))

    def scale(self, c: Fraction) -> "Cochain":
        return Cochain(self.main.scale(c), tuple(p.scale(c) for p in self.parts))

    def is_zero(self) -> bool:
        return self.main.is_zero() and all(p.is_zero() for p in self.parts)


def cochain_dim(dim: int, mdim: int, nrank: int, n: int) -> int:
    """Dimension of the degree-n cochain space."""
    if n < 1:
        raise ValueError("cochain degree must be >= 1")
    if n == 1:
        return dim * mdim
    return dim ** n * mdim + nrank * dim ** (n - 1) * mdim


def zero_cochain(dim: int, mdim: int, nrank: int, n: int) -> Cochain:
    if n == 1:
        return Cochain(MultiMap.zero(1, dim, mdim))
    return Cochain(MultiMap.zero(n, dim, mdim),
                   tuple(MultiMap.zero(n - 1, dim, mdim) for _ in range(nrank)))


def cochain_to_vector(c: Cochain) -> Vector:
    vec = list(c.main.values)
    for p in c.parts:
        vec.extend(p.values)
    return tuple(vec)


def vector_to_cochain(dim: int, mdim: int, nrank: int, n: int, vec: Vector) -> Cochain:
    if len(vec) != cochain_dim(dim, mdim, nrank, n):
        raise ShapeError("vector length does not match the cochain space")
    main_len = dim ** n * mdim
    main = MultiMap(n, dim, mdim, tuple(vec[:main_len]))
    if n == 1:
        return Cochain(main)
    part_len = dim ** (n - 1) * mdim
    parts = []
    for k in range(nrank):
        start = main_len + k * part_len
        parts.append(MultiMap(n - 1, dim, mdim, tuple(vec[start:start + part_len])))
    return Cochain(main, tuple(parts))


def _add_middle_sum(alg: Algebra, f: MultiMap, idx: tuple[int, ...], acc: list) -> None:
    """acc += sum_pos (-1)^{pos+1} f(e_i0, ..., e_ipos e_ipos+1, ..., e_in), in place."""
    for pos in range(f.arity):
        sign = -1 if pos % 2 == 0 else 1  # (-1)^{pos+1}
        prod = alg.basis_product(idx[pos], idx[pos + 1])
        for r, coeff in enumerate(prod):
            if coeff:
                sub = f.value_at(idx[:pos] + (r,) + idx[pos + 2:])
                for b in range(len(acc)):
                    if sub[b]:
                        acc[b] += sign * coeff * sub[b]


def delta_hoch(alg: Algebra, mod: Bimodule, f: MultiMap) -> MultiMap:
    """The classical Hochschild coboundary with respect to the actions."""
    n, d, md = f.arity, alg.dim, mod.mdim
    values: list[Fraction] = []
    for idx in itertools.product(range(d), repeat=n + 1):
        acc = list(mod.act_left(alg.basis_vector(idx[0]), f.value_at(idx[1:])))
        _add_middle_sum(alg, f, idx, acc)
        tail = mod.act_right(f.value_at(idx[:n]), alg.basis_vector(idx[n]))
        tail_sign = -1 if n % 2 == 0 else 1  # (-1)^{n+1}
        for b in range(md):
            if tail[b]:
                acc[b] += tail_sign * tail[b]
        values.extend(acc)
    return MultiMap(n + 1, d, md, tuple(values))


def delta_prime(alg: Algebra, mod: Bimodule, hd: HigherDerivation,
                parts) -> tuple[MultiMap, ...]:
    """The twisted Hochschild coboundary of an N-tuple of equal-arity maps.

    Component k pairs d_i against f_{k-i} in the two action terms, with
    f_0 = 0 dropping the boundary indices, and applies the plain alternating
    sum to f_k in the middle.
    """
    parts = tuple(parts)
    if len(parts) != hd.rank:
        raise ShapeError(f"{hd.rank} maps expected, got {len(parts)}")
    n, d, md = parts[0].arity, alg.dim, mod.mdim
    out = []
    for k in range(1, hd.rank + 1):
        fk = parts[k - 1]
        values: list[Fraction] = []
        for idx in itertools.product(range(d), repeat=n + 1):
            acc = [ZERO] * md
            for i in range(k):  # j = k - i >= 1
                avec = hd.apply(i, alg.basis_vector(idx[0]))
                term = mod.act_left(avec, parts[k - i - 1].value_at(idx[1:]))
                for b in range(md):
                    if term[b]:
                        acc[b] += term[b]
            _add_middle_sum(alg, fk, idx, acc)
            tail_sign = -1 if n % 2 == 0 else 1  # (-1)^{n+1}
            for i in range(1, k + 1):  # j = k - i, i >= 1
                avec = hd.apply(k - i, alg.basis_vector(idx[n]))
                term = mod.act_right(parts[i - 1].value_at(idx[:n]), avec)
                for b in range(md):
                    if term[b]:
                        acc[b] += tail_sign * term[b]
            values.extend(acc)
        out.append(MultiMap(n + 1, d, md, tuple(values)))
    return tuple(out)


def _compositions_nonneg(total: int, parts: int):
    """Ordered tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_nonneg(total - first, parts - 1):
            yield (first, *rest)


def delta_k(alg: Algebra, mod: Bimodule, hd: HigherDerivation,
            f: MultiMap, k: int) -> MultiMap:
    """sum over i_1+...+i_n = k of f o (d_{i_1} x ... x d_{i_n}) - d_k^M o f."""
    if not 1 <= k <= hd.rank:
        raise ValueError(f"k must be in 1..{hd.rank}")
    n = f.arity
    result = f.postcompose(mod.dmaps[k - 1]).neg()
    for multi in _compositions_nonneg(k, n):
        g = f
        dead = False
        for slot, qi in enumerate(multi):
            if qi == 0:
                continue
            mat = hd.maps[qi - 1]
            if mat.is_zero():
                dead = True
                break
            g = g.compose_slot(slot, mat)
        if not dead:
            result = result.add(g)
    return result


def differential(alg: Algebra, mod: Bimodule, hd: HigherDerivation,
                 c: Cochain) -> Cochain:
    """The coupled coboundary; squares to zero exactly."""
    n = c.n
    if n == 1:
        parts = tuple(delta_k(alg, mod, hd, c.main, k).neg()
                      for k in range(1, hd.rank + 1))
        return Cochain(delta_hoch(alg, mod, c.main), parts)
    if len(c.parts) != hd.rank:
        raise ShapeError(f"cochain has {len(c.parts)} parts, rank is {hd.rank}")
    primed = delta_prime(alg, mod, hd, c.parts)
    sign = ONE if n % 2 == 0 else -ONE  # (-1)^n, n = source degree
    parts = tuple(primed[k - 1].add(delta_k(alg, mod, hd, c.main, k).scale(sign))
                  for k in range(1, hd.rank + 1))
    return Cochain(delta_hoch(alg, mod, c.main), parts)


class LinearForm(dict):
    """A linear form ``{source position: coefficient}`` on a cochain space.

    It stands in for a Fraction coordinate when ``differential`` runs on the
    generic cochain: it adds, negates, scales and tests as zero when empty.
    A nonzero constant term or a product of two forms is not linear and
    raises TypeError, so a nonlinear step in the differential fails loudly
    instead of giving a wrong matrix.
    """

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, LinearForm):
            if other:
                raise TypeError("a linear form plus a nonzero constant is not linear")
            return self
        out = LinearForm(self)
        for j, y in other.items():
            z = out.get(j)
            if z is None:
                out[j] = y
            elif z := z + y:
                out[j] = z
            else:
                del out[j]
        return out

    __radd__ = __add__

    def __mul__(self, c):
        if isinstance(c, LinearForm):
            raise TypeError("a product of two linear forms is not linear")
        return LinearForm({j: c * y for j, y in self.items()} if c else ())

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1


@lru_cache(maxsize=64)
def differential_matrix(alg: Algebra, mod: Bimodule, hd: HigherDerivation,
                        n: int) -> Matrix:
    """Matrix of the degree-n differential in the fixed cochain bases.

    ``differential`` runs once, on the generic cochain whose coordinate at
    position p is the form x_p; output coordinate i is then row i.
    """
    src = cochain_dim(alg.dim, mod.mdim, hd.rank, n)
    generic = vector_to_cochain(alg.dim, mod.mdim, hd.rank, n,
                                tuple(LinearForm({p: ONE}) for p in range(src)))
    rows = cochain_to_vector(differential(alg, mod, hd, generic))
    if any(r and not isinstance(r, LinearForm) for r in rows):
        raise TypeError("the differential has a constant term")
    return Matrix.from_sparse_rows((r or {} for r in rows), src)


@dataclass(frozen=True)
class CohomologyReport:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    betti: int
    cocycle_basis: tuple[Cochain, ...]


def cohomology(alg: Algebra, mod: Bimodule, hd: HigherDerivation, degree: int,
               max_dim: int | None = None) -> CohomologyReport:
    """Exact cohomology in one degree.

    Degree 1 is the bare kernel of the differential, since there are no
    0-cochains.  For n >= 2 the inclusion im <= ker is verified; failure
    means the complex itself is broken and raises.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n_cochains = cochain_dim(alg.dim, mod.mdim, hd.rank, degree)
    if max_dim is not None and n_cochains > max_dim:
        raise ShapeError(f"cochain space dimension {n_cochains} exceeds cap {max_dim}")
    outgoing = differential_matrix(alg, mod, hd, degree)
    cocycles = kernel_basis(outgoing)
    n_coboundaries = 0
    if degree > 1:
        boundary = differential_matrix(alg, mod, hd, degree - 1)
        require_image_in_kernel(boundary, outgoing)
        n_coboundaries = rank(boundary)
    betti = len(cocycles) - n_coboundaries
    basis = tuple(vector_to_cochain(alg.dim, mod.mdim, hd.rank, degree, v)
                  for v in cocycles)
    return CohomologyReport(degree, n_cochains, len(cocycles), n_coboundaries,
                            betti, basis)


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
    mat = differential_matrix(alg, mod, hd, n - 1)
    sol = solve_affine(mat, cochain_to_vector(c))
    if sol is None:
        return None
    return vector_to_cochain(alg.dim, mod.mdim, hd.rank, n - 1, sol)

