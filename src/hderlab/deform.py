"""Truncated one-parameter deformations of a pair and their calculus.

A deformation of order n is a family of n + 1 coefficients, each a 2-cochain
with self coefficients (the same type as a 2-cocycle twisting an extension):
coefficient s is (mu_s; d_{1,s}, ..., d_{N,s}), and coefficient 0 is the
algebra product with the maps d_1, ..., d_N.  The index-0 derivation series
is the constant identity (d_{0,0} = id, d_{0,s} = 0 for s >= 1), which the
convolutions below bake in.  Nothing is ever symbolic: all series algebra is
convolution on coefficient lists, truncated at the stored order.  The
order-s equations are the two laws of ``algebras`` at order s.

The equations compute on tables of integer numerators over one common
denominator (``Deformation._tables``, an ``algebras.LawTables``), which packs
both sides of every equation: per basis tuple, one integer holds the
numerators of all orders 0..n+1 in slots of B bits, B chosen so that every
slot stays below 2^(B-1) in absolute value.  Two such integers are equal in
their low slots exactly when the equations there hold, since a base-2^B
expansion with digits that small is unique; so verification masks the slots
of orders 0..n and compares, and the lowest differing bit names the first
failing order, law and tuple.  The slots are unpacked only for a reported
violation, for the order-(n+1) slots that make the obstruction, and for the
append check of ``extend_to``.

The deform commands test a cocycle only when the solve finds no preimage
(``cochain.cocycle_preimage``): a preimage makes the cochain a coboundary,
and so a cocycle, since d^2 = 0 on the complex of the verified pair.
``extend_to`` scans each appended order once: the terms that build the
obstruction are kept, and the appended order is checked as those plus the
terms that carry the new index.  The gauge group
(action, composition, inverse) is one truncated matrix-series product,
``_series_mul``, on the same column form: the gauge is scaled to its own
denominator, and its inverse is the geometric series in id - Phi by
Horner's rule.  The gauge action is one integer conjugation core,
``_conjugate``, which ``trivialize`` runs on its integer state shear after
shear.  Fractions appear only at the boundary: in a reported violation,
the obstruction cochain, the gauged coefficients, the composed or inverted
gauge, and in ``trivialize`` the coefficient handed to the solve, a
blocking class and the final gauge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebras import (Algebra, CheckReport, LawTables, Violation, _chunks, _int_table, _law_tables,
                       adjoint_bimodule, tensor_values)
from .cochain import (
    Cochain, MultiMap, NotACocycleError, cocycle_preimage, differential, matrix_to_multimap,
    preimage, vector_to_cochain, zero_cochain,
)
from .exactlin import Matrix, ShapeError, as_fractions, common_denominator
from .hder import HigherDerivation


@dataclass(frozen=True)
class Deformation:
    """Coefficients ``coeffs[s]`` = (mu_s; d_{1,s}, ..., d_{N,s}) for
    s = 0..order, each a 2-cochain with self coefficients."""

    coeffs: tuple[Cochain, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ShapeError("a deformation needs its order-0 coefficient")
        d, rank = self.dim, self.rank
        for c in self.coeffs:
            if c.n != 2 or c.main.dim != d or c.main.mdim != d or len(c.parts) != rank:
                raise ShapeError(f"coefficients must be 2-cochains of self maps of "
                                 f"dimension {d} with {rank} parts")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.coeffs[0].main.dim

    @property
    def rank(self) -> int:
        return len(self.coeffs[0].parts)

    @cached_property
    def _tables(self) -> LawTables:
        """The coefficients as ``algebras._law_tables``."""
        return _law_tables(self.dim, [c.main.values for c in self.coeffs],
                           [[c.parts[k].values for c in self.coeffs]
                            for k in range(self.rank)])


@dataclass(frozen=True)
class GaugeMap:
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
    return MultiMap(2, alg.dim, alg.dim, tensor_values(alg.c))


def _base_coefficient(alg: Algebra, hd: HigherDerivation) -> Cochain:
    """(mu_0; d_1, ..., d_N): the algebra product and the higher derivation."""
    return Cochain(product_multimap(alg), tuple(map(matrix_to_multimap, hd.maps)))


def trivial_deformation(alg: Algebra, hd: HigherDerivation, order: int) -> Deformation:
    """The undeformed family: the base coefficient followed by zeros."""
    if order < 0:
        raise ShapeError("order must be >= 0")
    return Deformation((_base_coefficient(alg, hd),)
                       + (zero_cochain(alg.dim, alg.dim, hd.rank, 2),) * order)


def _check_base(alg: Algebra, hd: HigherDerivation, defm: Deformation) -> None:
    if defm.dim != alg.dim:
        raise ShapeError("deformation dimension differs from the algebra")
    if defm.rank != hd.rank:
        raise ShapeError("deformation rank differs from the higher derivation")
    have, want = defm.coeffs[0], _base_coefficient(alg, hd)
    if have.main != want.main:
        raise ValueError("order-0 product coefficient is not the algebra multiplication")
    for k, (part, dk) in enumerate(zip(have.parts, want.parts), start=1):
        if part != dk:
            raise ValueError(f"order-0 derivation coefficient {k} is not d_{k}")


def _violation(s: int, k: int, at: tuple, lhs, rhs, q: int) -> Violation:
    law = "associativity" if k == 0 else f"higher-derivation law k={k}"
    return Violation(f"order-{s} {law}", at, as_fractions(lhs, q), as_fractions(rhs, q))


def _known_terms(defm: Deformation) -> list[tuple[list, list, int]]:
    """``(lhs, rhs, q)`` of the order-(n+1) equations for k = 0..N, every
    slot unpacked in scan order: they hold exactly the known terms."""
    tables = defm._tables
    return [(*tables.unpack(k, defm.order + 1), tables.scale(k)) for k in range(tables.rank + 1)]


def verify_deformation(alg: Algebra, hd: HigherDerivation,
                       defm: Deformation) -> CheckReport:
    """All order-s equations for s = 0..order, on all basis tuples; the
    first failure is reported by order, then law, then tuple."""
    _check_base(alg, hd, defm)
    tables = defm._tables
    bad = tables.first_failure(defm.order)
    if bad is not None:
        s, k, *located = bad
        return CheckReport(False, _violation(s, k, *located, tables.scale(k)))
    return CheckReport.passed()


def _require_verified(alg: Algebra, hd: HigherDerivation, defm: Deformation) -> None:
    report = verify_deformation(alg, hd, defm)
    if not report.ok:
        raise ValueError(f"deformation does not verify: {report.violation}")


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
    for s in range(1, at_order):
        if not defm.coeffs[s].is_zero():
            raise ValueError(f"coefficient {s} is nonzero below the requested order")
    coeff = defm.coeffs[at_order]
    mod = adjoint_bimodule(alg, hd)
    defect = differential(alg, mod, hd, coeff)
    if defect.is_zero():
        return coeff, CheckReport.passed()
    return coeff, CheckReport.failed("infinitesimal cocycle condition", (at_order,))


def _series_mul(a: dict, b: dict, order: int) -> dict:
    """The product of two matrix series mod t^{order+1}, in column form.

    A series is ``{s: columns}`` for its nonzero members only, column c as
    ``{row: int}`` (the form of ``algebras._law_tables``), all over one
    scale; the product is over the product of the two scales.
    """
    out: dict[int, list[dict[int, int]]] = {}
    for p, acols in a.items():
        for q, bcols in b.items():
            if p + q <= order:
                cols = out.setdefault(p + q, [{} for _ in bcols])
                for acc, col in zip(cols, bcols):
                    for u, y in col.items():
                        for r, x in acols[u].items():
                            acc[r] = acc.get(r, 0) + x * y
    cleaned = ((s, tuple({r: x for r, x in col.items() if x} for col in cols))
               for s, cols in out.items())
    return {s: cols for s, cols in cleaned if any(cols)}


def _gauge_columns(gauge: GaugeMap, order: int) -> tuple[dict, int]:
    """Phi_0..Phi_order as a column series over E, the lcm of their
    denominators; members past the gauge's order are zero."""
    if not gauge.phis[0].is_identity():
        raise ValueError("gauge must start at the identity")
    live = [(s, m) for s, m in enumerate(gauge.phis[:order + 1]) if not m.is_zero()]
    e = common_denominator(itertools.chain(*(m.entries for _s, m in live)))
    return {s: _chunks(_int_table(m.entries, gauge.dim, e, True)[0], gauge.dim) for s, m in live}, e


def _inverse_columns(phi: dict, e: int, dim: int, order: int) -> dict:
    """Psi = sum_{k <= order} (id - Phi)^k by Horner's rule, over e^order
    for Phi over e; it is Phi^{-1} mod t^{order+1} because id - Phi has no
    constant term."""
    shift = {s: tuple({r: -x for r, x in col.items()} for col in cols)
             for s, cols in phi.items() if s}
    psi, scale = {}, 1
    for _ in range(order + 1):
        psi = {0: tuple({c: scale} for c in range(dim)), **_series_mul(shift, psi, order)}
        scale *= e
    return psi


def _fractions(cols, rows: int, scale: int) -> tuple:
    """Columns ``{row: int}`` over ``scale`` as column-major Fractions."""
    return as_fractions([col.get(r, 0) for col in cols for r in range(rows)], scale)


def _gauge_map(series: dict, scale: int, dim: int, order: int) -> GaugeMap:
    """The gauge whose members are a column series over ``scale``."""
    phis = [Matrix.zeros(dim, dim)] * (order + 1)
    for s, cols in series.items():
        phis[s] = Matrix(dim, dim, _fractions(cols, dim, scale)).transpose()
    return GaugeMap(order, tuple(phis))


def _columns(series) -> dict:
    """The nonzero members of a table series (one per order), as a column
    series."""
    return {s: cols for s, cols in enumerate(series) if any(cols)}


def _conjugate(mu: dict, ds: list, phi: dict, e: int, order: int) -> tuple[dict, list]:
    """Psi mu (Phi x Phi) and Psi d Phi for each d of ``ds``, mod t^{order+1}.

    All are column series; Phi is over e and Psi = Phi^{-1} over e^order
    (``_inverse_columns``), and Phi x Phi is (Phi x id)(id x Phi).  So the
    new mu is over e^(order+2) times the scale of mu, and each new d over
    e^(order+1) times the scale of the ds.
    """
    dim = len(phi[0])
    psi = _inverse_columns(phi, e, dim, order)
    pairs = list(itertools.product(range(dim), repeat=2))
    phi_id = {s: tuple({u * dim + j: x for u, x in cols[i].items()} for i, j in pairs)
              for s, cols in phi.items()}
    id_phi = {s: tuple({i * dim + v: y for v, y in cols[j].items()} for i, j in pairs)
              for s, cols in phi.items()}
    new_mu = _series_mul(psi, _series_mul(_series_mul(mu, phi_id, order), id_phi, order), order)
    return new_mu, [_series_mul(psi, _series_mul(d, phi, order), order) for d in ds]


def _coefficient(mu: dict, ds: list, q_mu: int, q_d: int, dim: int, s: int) -> Cochain:
    """Coefficient s of the column series mu (over q_mu) and ds (over q_d)."""
    zero_mu, zero_d = ({},) * (dim * dim), ({},) * dim
    return Cochain(MultiMap(2, dim, dim, _fractions(mu.get(s, zero_mu), dim, q_mu)),
                   tuple(MultiMap(1, dim, dim, _fractions(d.get(s, zero_d), dim, q_d))
                         for d in ds))


def apply_gauge(defm: Deformation, gauge: GaugeMap) -> Deformation:
    """Conjugate coefficientwise: mu' = Psi mu (Phi x Phi), d' = Psi d Phi.

    Psi = Phi^{-1}, and the gauge is padded or truncated with zeros to the
    deformation's order.  The conjugation is ``_conjugate`` on the column
    series of the deformation's tables (over D) and of Phi (over E), the
    integer core that ``trivialize`` runs too; each Fraction is built once,
    at the end, with mu' over D * E^(T+2) and d' over D * E^(T+1).
    """
    dim, T = defm.dim, defm.order
    if gauge.dim != dim:
        raise ShapeError("gauge dimension differs from the deformation")
    phi, e = _gauge_columns(gauge, T)
    tables = defm._tables
    mu, ds = _conjugate(_columns(tables.mus), [_columns(d) for d in tables.dcols[1:]], phi, e, T)
    den = tables.den
    q_mu, q_d = den * e ** (T + 2), den * e ** (T + 1)
    return Deformation(tuple(_coefficient(mu, ds, q_mu, q_d, dim, s) for s in range(T + 1)))


def gauge_inverse(gauge: GaugeMap) -> GaugeMap:
    """The truncated inverse series Psi = sum_k (id - Phi)^k, by Horner's rule
    on ``_series_mul``; composing back gives the identity mod t^{T+1}."""
    phi, e = _gauge_columns(gauge, gauge.order)
    return _gauge_map(_inverse_columns(phi, e, gauge.dim, gauge.order), e ** gauge.order,
                      gauge.dim, gauge.order)


def gauge_compose(first: GaugeMap, second: GaugeMap) -> GaugeMap:
    """The gauge acting like `first` followed by `second`: the series
    product first * second by ``_series_mul``, at the smaller order."""
    if first.dim != second.dim:
        raise ShapeError("gauge dimensions differ")
    order = min(first.order, second.order)
    (a, e), (b, f) = _gauge_columns(first, order), _gauge_columns(second, order)
    return _gauge_map(_series_mul(a, b, order), e * f, first.dim, order)


def obstruction(alg: Algebra, hd: HigherDerivation, defm: Deformation) -> Cochain:
    """All known terms of the order-(n+1) equations, as a 3-cochain.

    A candidate next coefficient extends the deformation exactly when its
    differential equals this cochain.  It is lhs - rhs of the order-(n+1)
    equations with zero order-(n+1) coefficients: every term left out
    carries an index n+1.
    """
    _require_verified(alg, hd, defm)
    return _known_defect(defm)


def _known_defect(defm: Deformation, known=None) -> Cochain:
    """The obstruction from the order-(n+1) equations ``known``
    (``_known_terms``), computed here unless given."""
    if known is None:
        known = _known_terms(defm)
    # the scan order of the equations is the order of the cochain vector
    defect = tuple(Fraction(x - y, q) for lhs, rhs, q in known for x, y in zip(lhs, rhs))
    return vector_to_cochain(defm.dim, defm.dim, defm.rank, 3, defect)


@dataclass(frozen=True)
class ExtendOutcome:
    """Next-order candidate when one exists; the obstruction either way."""

    candidate: Cochain | None
    obstruction: Cochain


def try_extend(alg: Algebra, hd: HigherDerivation, defm: Deformation) -> ExtendOutcome:
    """Solve for a next coefficient; absence certifies a fresh obstruction class."""
    ob = obstruction(alg, hd, defm)
    return ExtendOutcome(preimage(alg, adjoint_bimodule(alg, hd), hd, ob), ob)


def extend_to(alg: Algebra, hd: HigherDerivation, defm: Deformation,
              target: int) -> tuple[Deformation, Cochain | None]:
    """Extend order by order up to ``target``, verifying the input once.

    Returns the deformation reached and the obstruction blocking the next
    order (None at ``target``).  Each order is scanned once: the terms of
    the order-(n+1) equations that build the obstruction are kept, and once
    the solve appends a coefficient the order is checked as those terms
    plus the ones that carry the new index (``_append_checked``).  The
    equations involve only coefficients up to n+1, so this is a full check.
    """
    _require_verified(alg, hd, defm)
    mod = adjoint_bimodule(alg, hd)
    current = defm
    while current.order < target:
        known = _known_terms(current)
        ob = _known_defect(current, known)
        candidate = preimage(alg, mod, hd, ob)
        if candidate is None:
            return current, ob
        current = _append_checked(current, candidate, known)
    return current, None


def _append_checked(defm: Deformation, candidate: Cochain, known: list) -> Deformation:
    """``defm`` with ``candidate`` appended at order s = n+1, its order-s
    equations checked; ``known`` holds their terms with indices up to n.

    In every other term one index is s, which forces all the others to 0,
    so those terms are the order-1 equations of ``Deformation((c_0,
    candidate))``.  Each slot is the two sums added, denominators
    cross-multiplied, in scan order; the two sets of planes have their own
    widths, so both are unpacked.
    """
    ext = extend_deformation(defm, candidate)
    fresh = Deformation((defm.coeffs[0], candidate))._tables
    d = defm.dim
    for k, (lhs, rhs, q) in enumerate(known):
        r = fresh.scale(k)
        new_lhs, new_rhs = fresh.unpack(k, 1)
        gaps = [(x - y) * r for x, y in zip(lhs, rhs)]
        fills = [(w - v) * q for v, w in zip(new_lhs, new_rhs)]
        if gaps != fills:
            t = next(m for m, (g, f) in enumerate(zip(gaps, fills)) if g != f) // d
            cut = slice(t * d, t * d + d)
            bad = _violation(ext.order, k, fresh.tuple_at(k, t),
                             [x * r + v * q for x, v in zip(lhs[cut], new_lhs[cut])],
                             [y * r + w * q for y, w in zip(rhs[cut], new_rhs[cut])], q * r)
            raise RuntimeError(f"appended coefficient does not verify: {bad}")
    return ext


def extend_deformation(defm: Deformation, candidate: Cochain) -> Deformation:
    """Append a next-order coefficient."""
    if candidate.n != 2 or len(candidate.parts) != defm.rank:
        raise ShapeError("candidate must be a 2-cochain with one part per derivation map")
    return Deformation(defm.coeffs + (candidate,))


def truncate_deformation(defm: Deformation, order: int) -> Deformation:
    if order < 0:
        raise ValueError("cannot truncate to a negative order")
    if order > defm.order:
        raise ValueError("cannot truncate to a higher order")
    return Deformation(defm.coeffs[:order + 1])


@dataclass(frozen=True)
class TrivializeOutcome:
    """Either the trivializing gauge, or the order and class that block it."""

    gauge: GaugeMap | None
    blocked_order: int | None = None
    blocking_class: Cochain | None = None


def trivialize(alg: Algebra, hd: HigherDerivation, defm: Deformation,
               max_order: int | None = None) -> TrivializeOutcome:
    """Kill coefficients from the bottom up by solving for gauge shears.

    The lowest nonzero coefficient of a verified deformation is a cocycle;
    when it is a coboundary with preimage -h, gauging by id + t^r h clears
    it without touching lower orders.  Success returns the accumulated gauge
    making the deformation trivial modulo t^{T+1}; a non-coboundary
    coefficient is returned as the blocking class.

    The loop keeps one integer state: the column series of mu and of each
    d_k, conjugated by each shear with ``_conjugate``, and the accumulated
    gauge, multiplied by each shear with ``_series_mul``.  Fractions are
    built only for the coefficient handed to the solve, a blocking class
    and the returned gauge.
    """
    _require_verified(alg, hd, defm)
    T = defm.order if max_order is None else max_order
    if T > defm.order:
        raise ValueError("cannot trivialize past the stored order")
    dim = alg.dim
    tables = defm._tables
    mu, ds = _columns(tables.mus[:T + 1]), [_columns(d[:T + 1]) for d in tables.dcols[1:]]
    q_mu = q_d = tables.den
    acc, q_acc = {0: tuple({c: 1} for c in range(dim))}, 1
    mod = adjoint_bimodule(alg, hd)
    while True:
        lowest = next((s for s in range(1, T + 1) if s in mu or any(s in d for d in ds)), None)
        if lowest is None:
            return TrivializeOutcome(_gauge_map(acc, q_acc, dim, T))
        try:  # over the negated scales the coefficient is its own negative
            h = cocycle_preimage(alg, mod, hd, _coefficient(mu, ds, -q_mu, -q_d, dim, lowest))
        except NotACocycleError:
            raise RuntimeError(
                f"lowest coefficient at order {lowest} is not a cocycle; "
                "the input cannot have verified") from None
        if h is None:
            return TrivializeOutcome(None, lowest, _coefficient(mu, ds, q_mu, q_d, dim, lowest))
        e = common_denominator(h.main.values)
        shear = {0: tuple({c: e} for c in range(dim)),
                 lowest: _chunks(_int_table(h.main.values, dim, e)[0], dim)}
        mu, ds = _conjugate(mu, ds, shear, e, T)
        q_mu, q_d = q_mu * e ** (T + 2), q_d * e ** (T + 1)
        acc, q_acc = _series_mul(acc, shear, T), q_acc * e
