"""Truncated one-parameter deformations of a pair and their calculus.

A deformation of order n is a family of n + 1 coefficients, each a 2-cochain
with self coefficients (the same type as a 2-cocycle twisting an extension):
coefficient s is (mu_s; d_{1,s}, ..., d_{N,s}), and coefficient 0 is the
algebra product with the maps d_1, ..., d_N.  The index-0 derivation series
is the constant identity (d_{0,0} = id, d_{0,s} = 0 for s >= 1), which the
convolutions below bake in.  Nothing is ever symbolic: all series algebra is
convolution on coefficient lists, truncated at the stored order.  The
order-s equations are the two laws of ``algebras`` at order s.

The equations and the gauge action compute on sparse tables of integer
numerators over one common denominator (``Deformation._tables``; the gauge
and its inverse series get their own), so their inner sums are integer
sums; Fractions appear only at the boundary, in a reported violation, the
obstruction cochain and the gauged coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebras import (Algebra, CheckReport, Violation, _associativity_terms, _derivation_law_terms,
                       _int_chunks, _law_tables, adjoint_bimodule, tensor_values)
from .cochain import (
    Cochain, MultiMap, differential, matrix_to_multimap, multimap_to_matrix,
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
    def _tables(self) -> tuple[tuple, tuple, int]:
        """The coefficients as ``algebras._law_tables``."""
        return _law_tables(self.dim, [c.main.values for c in self.coeffs],
                           [[c.parts[k].values for c in self.coeffs]
                            for k in range(self.rank)])


@dataclass(frozen=True)
class GaugeMap:
    """Truncated formal isomorphism: matrices (Phi_0 = id, Phi_1, ..., Phi_T)."""

    order: int
    phis: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.phis) != self.order + 1:
            raise ShapeError(f"{self.order + 1} coefficients expected, got {len(self.phis)}")

    @property
    def dim(self) -> int:
        return self.phis[0].rows

    @classmethod
    def identity(cls, dim: int, order: int) -> "GaugeMap":
        return cls(order, (Matrix.identity(dim),
                           *(Matrix.zeros(dim, dim) for _ in range(order))))

    @classmethod
    def single(cls, dim: int, order: int, r: int, mat: Matrix) -> "GaugeMap":
        """id + t^r * mat, truncated at the given order."""
        if not 1 <= r <= order:
            raise ValueError(f"coefficient index {r} out of range 1..{order}")
        phis = [Matrix.identity(dim)] + [Matrix.zeros(dim, dim)] * order
        phis[r] = mat
        return cls(order, tuple(phis))


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


def _order_equations(defm: Deformation, s: int):
    """Both sides ``(k, at, lhs, rhs, q)`` of every order-s equation, over q,
    in scan order: associativity (k = 0), then the law for k = 1..N.  At
    s = order + 1 they hold exactly the known terms."""
    tables = defm._tables
    return itertools.chain(_associativity_terms(tables, s), _derivation_law_terms(tables, s))


def _first_violation(defm: Deformation, s: int) -> Violation | None:
    for k, at, lhs, rhs, q in _order_equations(defm, s):
        if lhs != rhs:
            law = "associativity" if k == 0 else f"higher-derivation law k={k}"
            return Violation(f"order-{s} {law}", at, as_fractions(lhs, q), as_fractions(rhs, q))
    return None


def verify_deformation(alg: Algebra, hd: HigherDerivation,
                       defm: Deformation) -> CheckReport:
    """All order-s equations for s = 0..order, on all basis tuples."""
    _check_base(alg, hd, defm)
    for s in range(defm.order + 1):
        bad = _first_violation(defm, s)
        if bad is not None:
            return CheckReport(False, bad)
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


def _series_inverse(phis: list[Matrix]) -> list[Matrix]:
    dim = phis[0].rows
    psis = [Matrix.identity(dim)]
    for s in range(1, len(phis)):
        acc = Matrix.zeros(dim, dim)
        for q in range(1, s + 1):
            if not phis[q].is_zero():
                acc = acc + psis[s - q] * phis[q]
        psis.append(-acc)
    return psis


def _series_product(a, b, order: int) -> list[Matrix]:
    """Coefficients 0..order of (sum_p a_p t^p)(sum_q b_q t^q), skipping zero terms."""
    a_zero = [m.is_zero() for m in a[:order + 1]]
    b_zero = [m.is_zero() for m in b[:order + 1]]
    out = []
    for s in range(order + 1):
        acc = Matrix.zeros(a[0].rows, b[0].cols)
        for p in range(s + 1):
            if not a_zero[p] and not b_zero[s - p]:
                acc = acc + a[p] * b[s - p]
        out.append(acc)
    return out


def apply_gauge(defm: Deformation, gauge: GaugeMap) -> Deformation:
    """Conjugate coefficientwise: mu' = Phi^{-1} mu (Phi x Phi), d' = Phi^{-1} d Phi.

    The gauge is padded or truncated with zeros to the deformation's order;
    the inverse series Psi is the truncated geometric series.  Phi and Psi
    are integer columns over one denominator E, the deformation's tables
    are over D, so mu'_s = sum Psi_p mu_q (Phi_r x Phi_w) accumulates over
    D * E^3 and d'_{k,s} = sum Psi_p d_{k,q} Phi_r over D * E^2; zero series
    terms are skipped and each Fraction is built once, at the end.
    """
    dim = defm.dim
    if gauge.dim != dim:
        raise ShapeError("gauge dimension differs from the deformation")
    if not gauge.phis[0].is_identity():
        raise ValueError("gauge must start at the identity")
    T = defm.order
    phis = [gauge.phis[s] if s <= gauge.order else Matrix.zeros(dim, dim)
            for s in range(T + 1)]
    psis = _series_inverse(phis)
    e = common_denominator(itertools.chain(*(m.entries for m in phis + psis)))
    phi = [(r, _int_chunks(m.transpose().entries, dim, e))
           for r, m in enumerate(phis) if not m.is_zero()]
    psi = [(p, _int_chunks(m.transpose().entries, dim, e))
           for p, m in enumerate(psis) if not m.is_zero()]
    mus, dcols, den = defm._tables
    live_mus = [(q, mu) for q, mu in enumerate(mus) if any(mu)]

    def conjugate(inner, out, offset):
        # out[p + m][offset + a] gains coordinate a of Psi_p inner[m]
        for m, vec in enumerate(inner):
            for c, z in enumerate(vec):
                if z:
                    for p, cols in psi:
                        if p + m > T:
                            break
                        for a, t in cols[c].items():
                            out[p + m][offset + a] += z * t

    new_mus = [[0] * (dim ** 3) for _ in range(T + 1)]
    for i, j in itertools.product(range(dim), repeat=2):
        inner = [[0] * dim for _ in range(T + 1)]  # sum mu_q (Phi_r x Phi_w) over D * E^2
        for r, cols_r in phi:
            for u, x in cols_r[i].items():
                for w, cols_w in phi:
                    if r + w > T:
                        break
                    for v, y in cols_w[j].items():
                        xy = x * y
                        for q, mu in live_mus:
                            if r + w + q > T:
                                break
                            acc = inner[r + w + q]
                            for c, z in mu[u * dim + v].items():
                                acc[c] += xy * z
        conjugate(inner, new_mus, (i * dim + j) * dim)

    new_ds = []  # column-major, as arity-1 values
    for series in dcols[1:]:
        live = [(q, cols) for q, cols in enumerate(series) if any(cols)]
        new = [[0] * (dim * dim) for _ in range(T + 1)]
        for c in range(dim):
            inner = [[0] * dim for _ in range(T + 1)]  # sum d_{k,q} Phi_r e_c over D * E
            for r, cols_r in phi:
                for u, x in cols_r[c].items():
                    for q, cols in live:
                        if r + q > T:
                            break
                        acc = inner[r + q]
                        for b, y in cols[u].items():
                            acc[b] += x * y
            conjugate(inner, new, c * dim)
        new_ds.append(new)
    q_mu, q_d = den * e ** 3, den * e * e
    return Deformation(tuple(
        Cochain(MultiMap(2, dim, dim, as_fractions(new_mus[s], q_mu)),
                tuple(MultiMap(1, dim, dim, as_fractions(new[s], q_d)) for new in new_ds))
        for s in range(T + 1)))


def gauge_inverse(gauge: GaugeMap) -> GaugeMap:
    """Truncated inverse series; composing back gives the identity mod t^{T+1}."""
    if not gauge.phis[0].is_identity():
        raise ValueError("gauge must start at the identity")
    return GaugeMap(gauge.order, tuple(_series_inverse(list(gauge.phis))))


def gauge_compose(first: GaugeMap, second: GaugeMap) -> GaugeMap:
    """The gauge acting like `first` followed by `second` (series product)."""
    order = min(first.order, second.order)
    return GaugeMap(order, tuple(_series_product(first.phis, second.phis, order)))


def obstruction(alg: Algebra, hd: HigherDerivation, defm: Deformation) -> Cochain:
    """All known terms of the order-(n+1) equations, as a 3-cochain.

    A candidate next coefficient extends the deformation exactly when its
    differential equals this cochain.  It is lhs - rhs of the order-(n+1)
    equations with zero order-(n+1) coefficients: every term left out
    carries an index n+1.
    """
    _require_verified(alg, hd, defm)
    return _known_defect(defm)


def _known_defect(defm: Deformation) -> Cochain:
    # the scan order of the equations is the order of the cochain vector
    defect = tuple(Fraction(x - y, q)
                   for _k, _at, lhs, rhs, q in _order_equations(defm, defm.order + 1)
                   for x, y in zip(lhs, rhs))
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
    order (None at ``target``).  Each appended order is checked: its
    equations involve only coefficients up to it, so this is a full check.
    """
    _require_verified(alg, hd, defm)
    mod = adjoint_bimodule(alg, hd)
    current = defm
    while current.order < target:
        ob = _known_defect(current)
        candidate = preimage(alg, mod, hd, ob)
        if candidate is None:
            return current, ob
        current = extend_deformation(current, candidate)
        bad = _first_violation(current, current.order)
        if bad is not None:
            raise RuntimeError(f"appended coefficient does not verify: {bad}")
    return current, None


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
    """
    _require_verified(alg, hd, defm)
    T = defm.order if max_order is None else max_order
    if T > defm.order:
        raise ValueError("cannot trivialize past the stored order")
    dim = alg.dim
    current = truncate_deformation(defm, T)
    acc = GaugeMap.identity(dim, T)
    mod = adjoint_bimodule(alg, hd)
    while True:
        lowest = next((s for s in range(1, T + 1) if not current.coeffs[s].is_zero()), None)
        if lowest is None:
            return TrivializeOutcome(acc)
        coeff = current.coeffs[lowest]
        if not differential(alg, mod, hd, coeff).is_zero():
            raise RuntimeError(
                f"lowest coefficient at order {lowest} is not a cocycle; "
                "the input cannot have verified")
        h = preimage(alg, mod, hd, coeff.neg())
        if h is None:
            return TrivializeOutcome(None, lowest, coeff)
        step = GaugeMap.single(dim, T, lowest, multimap_to_matrix(h.main))
        current = apply_gauge(current, step)
        acc = gauge_compose(acc, step)
