"""Truncated one-parameter deformations of a pair and their calculus.

A deformation of order n is a family of n + 1 coefficients, each a 2-cochain
with self coefficients: coefficient s is (mu_s; d_{1,s}, ..., d_{N,s}), and
coefficient 0 is the algebra product with the maps d_1, ..., d_N
(d_{0,0} = id, d_{0,s} = 0 for s >= 1).  All series algebra runs on integer
numerators, truncated at the stored order.

A ``Deformation`` stores one form, ``tables`` (an ``algebras.LawTables``):
the 2-cochain vector of each order over one denominator, in lowest terms.
A problem file is read into it (``read_deformation``), ``apply_gauge``
writes its integers to it, an appended order extends it and a truncation
slices it.  The order-s equations are the two laws of ``algebras`` at order
s on these tables: verification masks the slots of orders 0..n and
compares.  A cocycle test sums the differential's stencil on numerators
(``cochain._coboundary``); the deform commands run one only when the solve
finds no preimage, since a preimage makes the cochain a coboundary.

The gauge group runs on the packed-digit codec of ``algebras`` too
(``_Packed``, one slot per order 0..T): an entry of a gauge, d_k or mu
series is one packed integer, and the action, composition, inverse and the
shears of ``trivialize`` are big-integer products of entries, cut to the
codec's slots.  A returned cochain (the obstruction and its
preimage, an infinitesimal, a blocking coefficient) is built from the
integers at hand, as a ``Cochain`` stores one integer form.  Fractions
appear only at the boundary: a reported violation, the multimap views of a
cochain, a deformation's ``coeffs`` and a gauge's entries (its matrices are
built from their integer columns).
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import or_

from .algebras import (Algebra, CheckReport, LawTables, Violation, _columns, _Packed, _pair_tables, _times,
                       adjoint_bimodule)
from .cochain import (
    Cochain, MultiMap, NegativeAnswer, NotACocycleError, _coboundary, cochain_blocks, differential_matrix,
    preimage,
)
from .exactlin import Matrix, ShapeError, Value, _set, as_fractions, solve_ints
from .hder import HigherDerivation, _require_same_dim


class NotVerifiedError(NegativeAnswer):
    """A deformation fails its equations, or does not start at the pair."""


class Deformation(Value):
    """Coefficients (mu_s; d_{1,s}, ..., d_{N,s}) for s = 0..order, stored
    as ``tables`` divided by their content, so that ==, hash and repr read
    one form whatever scale built it; ``coeffs`` is a view of it, one
    ``Cochain`` per order."""

    tables: LawTables

    def __post_init__(self):
        t = self.tables
        if (g := math.gcd(t.den, *itertools.chain(*t.orders))) > 1:
            _set(self, "tables", LawTables(t.dim, t.den // g, [[x // g for x in v] for v in t.orders]))

    @classmethod
    def from_coeffs(cls, coeffs) -> "Deformation":
        """The deformation with the 2-cochains ``coeffs``."""
        if not coeffs:
            raise ShapeError("a deformation needs its order-0 coefficient")
        _require_coefficients(coeffs, coeffs[0].dim, coeffs[0].nrank)
        den = math.lcm(*(c.int_form[1] for c in coeffs))
        return cls(LawTables(coeffs[0].dim, den, [[x * (den // q) for x in nums]
                                                  for nums, q in (c.int_form for c in coeffs)]))

    coeffs = property(lambda self: tuple(Cochain(self.dim, self.dim, self.rank, 2, (v, self.tables.den))
                                         for v in self.tables.orders))
    order = property(lambda self: self.tables.order)
    dim = property(lambda self: self.tables.dim)
    rank = property(lambda self: self.tables.rank)


def _require_coefficients(coeffs, d: int, rank: int) -> None:
    for c in coeffs:
        if (c.n, c.shape) != (2, (d, d, rank)):
            raise ShapeError(f"coefficients must be 2-cochains of self maps of "
                             f"dimension {d} with {rank} parts")


def read_deformation(dim: int, order: int, mu: list, ds: list) -> Deformation:
    """``serialize.parse_deformation`` on the ``(p, q)`` entries of mu_0..mu_n,
    each [i][j][k], and of each d_k series, each d_{k,s} [row][column]:
    each becomes its numerator over D, the lcm of the family's
    denominators, in the 2-cochain vector of its order; no Fraction."""
    den = math.lcm(*{q for _p, q in itertools.chain(mu, ds)})
    nums, size, dd, n = [p * (den // q) for p, q in itertools.chain(mu, ds)], dim ** 3, dim * dim, order + 1
    # maps[k * n + s] is d_{k,s} column by column
    maps = [[x for c in range(dim) for x in nums[b + c:b + dd:dim]] for b in range(n * size, len(nums), dd)]
    orders = [nums[s * size:s * size + size] + [x for m in maps[s::n] for x in m] for s in range(n)]
    return Deformation(LawTables(dim, den, orders))


class GaugeMap(Value):
    """Truncated formal isomorphism: dim x dim matrices (Phi_0 = id, Phi_1,
    ..., Phi_T); the operations check Phi_0 = id."""

    order: int
    phis: tuple[Matrix, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ShapeError("gauge order must be >= 0")
        if len(self.phis) != self.order + 1:
            raise ShapeError(f"{self.order + 1} coefficients expected, got {len(self.phis)}")
        d = self.dim
        if any((m.rows, m.cols) != (d, d) for m in self.phis):
            raise ShapeError(f"gauge coefficients must be {d}x{d} matrices")

    @property
    def dim(self) -> int:
        return self.phis[0].rows

    @classmethod
    def identity(cls, dim: int, order: int) -> "GaugeMap":
        return cls(order, (Matrix.identity(dim),
                           *(Matrix.zeros(dim, dim) for _ in range(order))))


def product_multimap(alg: Algebra) -> MultiMap:
    """The algebra multiplication as a bilinear self map."""
    return MultiMap(2, alg.dim, alg.dim, as_fractions(*alg.int_form))


def trivial_deformation(alg: Algebra, hd: HigherDerivation, order: int) -> Deformation:
    """The undeformed family: (mu_0; d_1, ..., d_N), the algebra product and
    the higher derivation, followed by zeros."""
    if order < 0:
        raise ShapeError("order must be >= 0")
    _require_same_dim(alg, hd)
    base = _pair_tables(alg.dim, alg.int_form, hd.maps)
    zero = [0] * len(base.orders[0])
    return Deformation(LawTables(alg.dim, base.den, [*base.orders, *[zero] * order]))


def _check_base(alg: Algebra, hd: HigherDerivation, defm: Deformation) -> None:
    """The order-0 vector against that of ``alg.int_form`` and the maps'
    integer columns (``algebras._pair_tables``), as rationals, entry by entry."""
    tables = defm.tables
    if tables.dim != alg.dim:
        raise ShapeError("deformation dimension differs from the algebra")
    if tables.rank != hd.rank:
        raise ShapeError("deformation rank differs from the higher derivation")
    base = _pair_tables(alg.dim, alg.int_form, hd.maps)
    for k, block in enumerate(cochain_blocks(alg.dim, alg.dim, hd.rank, 2)):
        if [x * base.den for x in tables.orders[0][block]] != [y * tables.den for y in base.orders[0][block]]:
            raise NotVerifiedError(f"order-0 derivation coefficient {k} is not d_{k}" if k else
                                   "order-0 product coefficient is not the algebra multiplication")


def _violation(s: int, k: int, at: tuple, lhs, rhs, q: int) -> Violation:
    law = "associativity" if k == 0 else f"higher-derivation law k={k}"
    return Violation(f"order-{s} {law}", at, as_fractions(lhs, q), as_fractions(rhs, q))


def _defect(tables: LawTables) -> tuple[list[int], int]:
    """lhs - rhs of the order-(n+1) equations, every slot unpacked in scan
    order (the 3-cochain vector's), over D^3: exactly the known terms."""
    out, top = [], tables.scale(tables.rank)
    for k in range(tables.rank + 1):
        lhs, rhs, up = *tables.unpack(k, tables.order + 1), top // tables.scale(k)
        out += [(x - y) * up for x, y in zip(lhs, rhs)]
    return out, top


def verify_deformation(alg: Algebra, hd: HigherDerivation,
                       defm: Deformation) -> CheckReport:
    """All order-s equations for s = 0..order, on all basis tuples; the
    first failure is reported by order, then law, then tuple."""
    _check_base(alg, hd, defm)
    tables = defm.tables
    bad = tables.first_failure(defm.order)
    if bad is not None:
        s, k, *located = bad
        return CheckReport(False, _violation(s, k, *located, tables.scale(k)))
    return CheckReport.passed()


def _require_verified(alg: Algebra, hd: HigherDerivation, defm: Deformation) -> None:
    report = verify_deformation(alg, hd, defm)
    if not report.ok:
        raise NotVerifiedError(f"deformation does not verify: {report.violation}")


def infinitesimal(alg: Algebra, hd: HigherDerivation, defm: Deformation,
                  at_order: int = 1) -> tuple[Cochain, CheckReport]:
    """The first interesting coefficient, with its cocycle certificate.

    With ``at_order`` = r, coefficients 1..r-1 must vanish; the returned
    report certifies that coefficient r is killed by the differential, which
    must happen for verified deformations.
    """
    if not 1 <= at_order <= defm.order:
        raise ValueError(f"coefficient index {at_order} out of range 1..{defm.order}")
    _require_verified(alg, hd, defm)
    orders = defm.tables.orders
    for s in range(1, at_order):
        if any(orders[s]):
            raise ValueError(f"coefficient {s} is nonzero below the requested order")
    coeff = Cochain(defm.dim, defm.dim, defm.rank, 2, (orders[at_order], defm.tables.den))
    if any(_coboundary(alg, adjoint_bimodule(alg, hd), hd, 2, orders[at_order])[0]):
        return coeff, CheckReport.failed("infinitesimal cocycle condition", (at_order,))
    return coeff, CheckReport.passed()


def _split(flat: list, dim: int) -> list:
    """The entries [a][rest] as ``dim`` vectors over rest, one per a."""
    m = len(flat) // dim
    return [flat[a * m:a * m + m] for a in range(dim)]


def _contract(vectors: list, weights: list) -> list[int]:
    """``_times`` laid out as the entries [rest][new index]."""
    return list(itertools.chain(*zip(*_times(vectors, weights))))


def _product(p: _Packed, a: list, b: list, dim: int) -> list[int]:
    """The product of two packed series given column by column."""
    return p.cut(itertools.chain(*_times(_split(a, dim), _split(b, dim))))


def _gauge_members(gauge: GaugeMap, order: int) -> tuple[list, int]:
    """Phi_0..Phi_order as integer numerators column by column over E, the
    lcm of their denominators; members past the gauge's order are zero."""
    if not gauge.phis[0].is_identity():
        raise ValueError("gauge must start at the identity")
    dim = gauge.dim
    phis = gauge.phis[:order + 1] + (Matrix.zeros(dim, dim),) * (order - gauge.order)
    e = math.lcm(*(m.int_form[1] for m in phis))
    return [_columns(m, e // m.int_form[1]) for m in phis], e


def _growth(members: list, e: int, dim: int, order: int) -> tuple[int, int]:
    """K and how much ``_conjugate`` can grow a digit, Phi (``members``)
    over e: Psi = sum_{k <= K} e^(K-k) Delta^k is Phi^{-1} over e^K for
    Delta = e id - Phi, K = T // r, r the lowest order of Delta."""
    r = next((s for s, m in enumerate(members) if s and any(m)), 0)
    steps, cols = order // r if r else 0, _split([sum(map(abs, xs)) for xs in zip(*members)], dim)
    row = max(map(sum, zip(*cols))) - e  # Phi_0 = e id
    return steps, e * max(map(sum, cols)) ** 2 * sum(e ** (steps - k) * row ** k for k in range(steps + 1))


def _inverse(p: _Packed, phi: list, e: int, steps: int) -> list[int]:
    """Psi by Horner's rule, P_j = e^j id + P_{j-1} Delta, column by column."""
    dim = math.isqrt(len(phi))
    delta = [[e * (u == c) - x for u, x in enumerate(col)] for c, col in enumerate(_split(phi, dim))]
    cols, scale = [[int(u == c) for u in range(dim)] for c in range(dim)], 1
    for _ in range(steps):
        cols, scale = _times(cols, delta), scale * e
        for c in range(dim):
            cols[c][c] += scale
    return p.cut(itertools.chain(*cols))


def _conjugate(p: _Packed, state: list, phi: list, e: int, steps: int) -> list[int]:
    """Psi mu (Phi x Phi), then e Psi d Phi for each d, over e^(K+2) times
    the scale of ``state`` (mu [i][j][c], then each d [c][b]).  A product
    contracts the leading index and puts the new one last; with the ds
    stacked [c][b][k] beside mu, Phi contracts i of mu and c of the ds,
    then j of mu, and Psi c of mu and b of the ds."""
    dim = math.isqrt(len(phi))
    size, cols = dim ** 3, _split(phi, dim)
    ds = list(itertools.chain(*zip(*(state[k:k + dim * dim] for k in range(size, len(state), dim * dim)))))
    both = _contract([u + v for u, v in zip(_split(state[:size], dim), _split(ds, dim))], cols)
    mu = _contract(_split(both[:size], dim), cols)
    rows = list(zip(*_split(_inverse(p, phi, e, steps), dim)))
    both = _contract([u + v for u, v in zip(_split(mu, dim), _split(both[size:], dim))], rows)
    return p.cut(both[:size] + [e * x for x in both[size:]])


def _gauge_map(p: _Packed, entries: list, scale: int, dim: int) -> GaugeMap:
    """The gauge of the packed entries given column by column, over ``scale``."""
    return GaugeMap(p.slots - 1, tuple(Matrix.from_int_columns([{i: x for i, x in enumerate(m[c:c + dim]) if x}
                                                                for c in range(0, dim * dim, dim)], scale, dim)
                                       for m in p.members(entries)))


def apply_gauge(defm: Deformation, gauge: GaugeMap) -> Deformation:
    """Conjugate coefficientwise: mu' = Psi mu (Phi x Phi), d' = Psi d Phi,
    Psi = Phi^{-1}, the gauge padded or truncated with zeros to the
    deformation's order, by ``_conjugate`` on the packed numerators."""
    dim, T = defm.dim, defm.order
    if gauge.dim != dim:
        raise ShapeError("gauge dimension differs from the deformation")
    (members, e), orders = _gauge_members(gauge, T), defm.tables.orders
    steps, growth = _growth(members, e, dim, T)
    p = _Packed(max(1, *map(abs, itertools.chain(*orders))) * growth, T + 1)
    state = _conjugate(p, p.pack(orders), p.pack(members), e, steps)
    return Deformation(LawTables(dim, defm.tables.den * e ** (steps + 2), p.members(state)))


def gauge_inverse(gauge: GaugeMap) -> GaugeMap:
    """The truncated inverse series Psi = sum_k (id - Phi)^k, by Horner's
    rule, in slots holding the digits of Psi for |id - Phi|: these bound the
    digits and reach them when id - Phi is positive."""
    dim, T = gauge.dim, gauge.order
    members, e = _gauge_members(gauge, T)
    steps, growth = _growth(members, e, dim, T)
    absolute, rough = [members[0]] + [[-abs(x) for x in m] for m in members[1:]], _Packed(growth, T + 1)
    p = _Packed(max(rough.digits(_inverse(rough, rough.pack(absolute), e, steps))), T + 1)
    return _gauge_map(p, _inverse(p, p.pack(members), e, steps), e ** steps, dim)


def gauge_compose(first: GaugeMap, second: GaugeMap) -> GaugeMap:
    """The gauge acting like `first` followed by `second`: the product
    first * second at the smaller order, in slots holding the digits of the
    product of absolute values, which reach its bound for positive entries."""
    if first.dim != second.dim:
        raise ShapeError("gauge dimensions differ")
    dim, order = first.dim, min(first.order, second.order)
    (a, e), (b, f) = _gauge_members(first, order), _gauge_members(second, order)
    rough = _Packed(sum(map(abs, itertools.chain(*a))) * sum(map(abs, itertools.chain(*b))), order + 1)
    absolute = [[list(map(abs, m)) for m in members] for members in (a, b)]
    p = _Packed(max(rough.digits(_product(rough, *map(rough.pack, absolute), dim))), order + 1)
    return _gauge_map(p, _product(p, p.pack(a), p.pack(b), dim), e * f, dim)


def obstruction(alg: Algebra, hd: HigherDerivation, defm: Deformation) -> Cochain:
    """All known terms of the order-(n+1) equations, as a 3-cochain: lhs -
    rhs with zero order-(n+1) coefficients.  A candidate next coefficient
    extends the deformation exactly when its differential equals it."""
    _require_verified(alg, hd, defm)
    return Cochain(defm.dim, defm.dim, defm.rank, 3, _defect(defm.tables))


class ExtendOutcome(Value):
    """Next-order candidate when one exists; the obstruction either way."""

    candidate: Cochain | None
    obstruction: Cochain


def try_extend(alg: Algebra, hd: HigherDerivation, defm: Deformation) -> ExtendOutcome:
    """Solve for a next coefficient; absence certifies a fresh obstruction
    class.  The solve comes first: the cocycle test, on the obstruction's
    numerators, runs only when it finds no preimage."""
    ob = obstruction(alg, hd, defm)
    mod = adjoint_bimodule(alg, hd)
    candidate = preimage(alg, mod, hd, ob)
    if candidate is None and any(_coboundary(alg, mod, hd, 3, ob.int_form[0])[0]):
        raise NotACocycleError("degree-3 input is not a cocycle")
    return ExtendOutcome(candidate, ob)


def extend_to(alg: Algebra, hd: HigherDerivation, defm: Deformation,
              target: int) -> tuple[Deformation, Cochain | None]:
    """Extend order by order up to ``target``, verifying the input once.

    Returns the deformation reached and the obstruction blocking the next
    order (None at ``target``).  Each defect is solved on integers, and the
    solution appended to the law tables (``LawTables.extended``) is checked
    there, a full check as the order-s equations involve only coefficients
    up to s; that one scan also holds the known terms of order s + 1.
    """
    _require_verified(alg, hd, defm)
    mod, tables = adjoint_bimodule(alg, hd), defm.tables
    while tables.order < target:
        ob = _defect(tables)
        candidate = solve_ints(differential_matrix(alg, mod, hd, 2), *ob)
        if candidate is None:
            return Deformation(tables), Cochain(tables.dim, tables.dim, tables.rank, 3, ob)
        tables = tables.extended(*candidate)
        for k in range(tables.rank + 1):
            if (bad := tables.failure(k, tables.order)) is not None:
                raise RuntimeError("appended coefficient does not verify: "
                                   f"{_violation(tables.order, k, *bad, tables.scale(k))}")
    return Deformation(tables), None


def extend_deformation(defm: Deformation, candidate: Cochain) -> Deformation:
    """Append a next-order coefficient."""
    if candidate.n != 2 or candidate.nrank != defm.rank:
        raise ShapeError("candidate must be a 2-cochain with one part per derivation map")
    _require_coefficients((candidate,), defm.dim, defm.rank)
    return Deformation(defm.tables.extended(*candidate.int_form))


def truncate_deformation(defm: Deformation, order: int) -> Deformation:
    if order < 0:
        raise ValueError("cannot truncate to a negative order")
    if order > defm.order:
        raise ValueError("cannot truncate to a higher order")
    return Deformation(LawTables(defm.dim, defm.tables.den, defm.tables.orders[:order + 1]))


class TrivializeOutcome(Value):
    """Either the trivializing gauge, or the order and class that block it."""

    gauge: GaugeMap | None
    blocked_order: int | None = None
    blocking_class: Cochain | None = None


def _reduce(p: _Packed, entries: list, scale: int) -> tuple[list, int]:
    """``entries`` and ``scale`` over their content, the gcd of the scale
    and every digit: its power of 2 from x + offset, whose slots share the
    low zero bits of the digits, and an odd factor checked on the digits."""
    two = scale & -scale
    g = math.gcd(scale // two, *entries)
    if g > 1:
        g = math.gcd(g, *p.digits(entries))
    slots = reduce(or_, [x + p.offset for x in entries])
    slots = reduce(or_, [slots >> p.bits * s for s in range(p.slots)]) & (1 << p.bits) - 1
    g *= min(two, slots & -slots)
    return ([x // g for x in entries], scale // g) if g > 1 else (entries, scale)


def trivialize(alg: Algebra, hd: HigherDerivation, defm: Deformation,
               max_order: int | None = None) -> TrivializeOutcome:
    """Kill coefficients from the bottom up by solving for gauge shears.

    The lowest nonzero coefficient of a verified deformation is a cocycle;
    when it is a coboundary with preimage -h, gauging by id + t^r h clears
    it without touching lower orders.  Success returns the accumulated gauge
    making the deformation trivial modulo t^{T+1}; a non-coboundary
    coefficient is returned as the blocking class.

    The state is packed once (``_Packed``) and stays packed: mu and the d_k
    over one scale, the gauge over another.  A shear e id + t^r H (over e)
    has an inverse of T // r + 1 terms; it conjugates the state and
    multiplies the gauge, each then divided by its content with its scale.
    The lowest order's digits go to the integer solve (``solve_ints``),
    whose preimage numerators over their lcm e are H.
    """
    _require_verified(alg, hd, defm)
    T = defm.order if max_order is None else max_order
    if T > defm.order:
        raise ValueError("cannot trivialize past the stored order")
    dim, identity = alg.dim, [int(k % (alg.dim + 1) == 0) for k in range(alg.dim ** 2)]
    members = [defm.tables.orders[:T + 1], [identity]]  # at hand until the first shear
    p = _Packed(max(1, *map(abs, itertools.chain(*members[0]))), T + 1)
    (state, acc), q, q_acc = map(p.pack, members), defm.tables.den, 1
    mod = adjoint_bimodule(alg, hd)
    while True:
        lowest = p.lowest(state)
        if lowest is None:
            return TrivializeOutcome(_gauge_map(p, acc, q_acc, dim))
        # over the negated scale the digits are the coefficient's negative
        sol = solve_ints(differential_matrix(alg, mod, hd, 1), p.digits(state, lowest, 1), -q)
        if sol is None:
            digits = p.digits(state, lowest, 1)
            if any(_coboundary(alg, mod, hd, 2, digits)[0]):
                raise RuntimeError(f"lowest coefficient at order {lowest} is not a cocycle; "
                                   "the input cannot have verified")
            return TrivializeOutcome(None, lowest, Cochain(dim, dim, hd.rank, 2, (digits, q)))
        h, e = sol
        shear = [[e * x for x in identity], h]
        steps, growth = _growth(shear, e, dim, T // lowest)  # in u = t^r, Phi = e id + u H
        if not (p.fits(state, growth) and p.fits(acc, growth)):  # widen, room for two shears
            members = members or [p.members(state), p.members(acc)]
            p = _Packed(max(1, *map(abs, itertools.chain(*members[0], *members[1]))) * growth ** 2, T + 1)
            state, acc = map(p.pack, members)
        members, phi = None, [x + (y << p.bits * lowest) for x, y in zip(*shear)]
        state, q = _reduce(p, _conjugate(p, state, phi, e, steps), q * e ** (steps + 2))
        acc, q_acc = _reduce(p, _product(p, acc, phi, dim), q_acc * e)
