"""Extensions of an algebra-with-higher-derivation pair by a bimodule.

One construction serves both flavors: a central extension is the special
case in which the bimodule actions vanish.  Total spaces always live in
normal form on the coordinates of A followed by the coordinates of M, with
the canonical inclusion, projection and section matrices; a square-zero
M-block carries the module structure and a 2-cocycle, a ``Cochain``
(psi; chi_1, ..., chi_N) with n = 2, twists the product and the derivation
maps.

Two statements of the paper are the code here.  (M, d^M) is a
representation exactly when the semidirect product is a pair, so
``verify_bimodule`` checks the laws of ``algebras`` on ``semidirect``.  The
cocycle of a section s is how far s is from a morphism of pairs, so
``cocycle_from_section`` reads the two sides of the morphism law of ``hder``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebras import Algebra, Bimodule, CheckReport, _pair_tables
from .cochain import (
    Cochain, MultiMap, NotACocycleError, cochain_to_vector, cohomology,
    differential, differential_matrix, is_coboundary, multimap_to_matrix,
    zero_cochain,
)
from .exactlin import Echelon, Matrix, ShapeError, Value, Vector, ZERO, ONE, as_fractions
from .hder import (AssHDerMorphism, AssHDerPair, HigherDerivation, _morphism_law_terms,
                   check_morphism)


class SectionError(ValueError):
    """A claimed splitting is not one, or induces the wrong actions."""


class ExtensionPair(Value):
    """An extension in normal form, with its base data kept alongside."""

    base: AssHDerPair
    module: Bimodule
    total: AssHDerPair
    include: Matrix   # M -> E
    project: Matrix   # E -> A
    section: Matrix   # A -> E, the canonical splitting a |-> (a, 0)

    @property
    def dim(self) -> int:
        return self.base.algebra.dim

    @property
    def mdim(self) -> int:
        return self.module.mdim

    def module_part(self, v: Vector) -> Vector:
        return v[self.dim:]

    def algebra_part(self, v: Vector) -> Vector:
        return v[:self.dim]


def extension_structure(alg: Algebra, hd: HigherDerivation, mod: Bimodule,
                        z: Cochain) -> AssHDerPair:
    """The A + M structure twisted by the 2-cochain z = (psi; chi_1, ...,
    chi_N), with no cocycle check applied.

    Verifying the result is exactly the cocycle test: the pair passes the
    algebra and higher-derivation verifiers if and only if z is killed by
    the differential.
    """
    if z.n != 2 or len(z.parts) != hd.rank:
        raise ShapeError(f"a 2-cochain with {hd.rank} parts is required, "
                         f"got degree {z.n} with {len(z.parts)}")
    d, md = alg.dim, mod.mdim
    big = d + md
    c = [[[ZERO] * big for _ in range(big)] for _ in range(big)]
    for i, j in itertools.product(range(d), repeat=2):
        row = c[i][j]
        for k, coeff in enumerate(alg.c[i][j]):
            if coeff:
                row[k] = coeff
        for b, coeff in enumerate(z.main.value_at((i, j))):
            if coeff:
                row[d + b] = coeff
    for i, a in itertools.product(range(d), range(md)):
        for b, coeff in enumerate(mod.left[i][a]):
            if coeff:
                c[i][d + a][d + b] = coeff
        for b, coeff in enumerate(mod.right[a][i]):
            if coeff:
                c[d + a][i][d + b] = coeff
    labels = alg.basis_labels + tuple(f"m{a}" for a in range(md))
    total_alg = Algebra(big, tuple(tuple(tuple(r) for r in mid) for mid in c), labels)
    maps = []
    for k in range(1, hd.rank + 1):
        dk = hd.maps[k - 1]
        dkm = mod.dmaps[k - 1]
        fk = multimap_to_matrix(z.parts[k - 1])
        rows = []
        for r in range(d):
            rows.append((*dk.row(r), *([ZERO] * md)))
        for r in range(md):
            rows.append((*fk.row(r), *dkm.row(r)))
        maps.append(Matrix.from_rows(rows))
    return AssHDerPair(total_alg, HigherDerivation(hd.rank, tuple(maps)))


def _canonical_matrices(d: int, md: int) -> tuple[Matrix, Matrix, Matrix]:
    big = d + md
    include = Matrix.from_rows([[ONE if (r - d) == c else ZERO for c in range(md)]
                                for r in range(big)])
    project = Matrix.from_rows([[ONE if r == c else ZERO for c in range(big)]
                                for r in range(d)])
    section = Matrix.from_rows([[ONE if r == c else ZERO for c in range(d)]
                                for r in range(big)])
    return include, project, section


def semidirect(alg: Algebra, hd: HigherDerivation, mod: Bimodule) -> AssHDerPair:
    """(a, m)(b, n) = (ab, an + mb) with block-diagonal derivation maps."""
    return extension_structure(alg, hd, mod, zero_cochain(alg.dim, mod.mdim, hd.rank, 2))


def verify_bimodule(alg: Algebra, hder: HigherDerivation, mod: Bimodule) -> CheckReport:
    """Module laws and module-side higher-derivation laws on basis elements.

    (M, d^M) is a representation exactly when the semidirect product, with
    the maps d_k + d_k^M, is a pair; so the laws are associativity and the
    higher-derivation law there, on the basis tuples holding one module
    vector.  For each (i, j, a): associativity at (e_i, e_j, m_a) is the left
    module law, at (m_a, e_i, e_j) the right one (sides swapped) and at
    (e_i, m_a, e_j) bimodule compatibility.  Then for each k and (i, a): the
    law at (e_i, m_a) is d_k^M(a m) = sum_{p+q=k} d_p(a) d_q^M(m), and at
    (m_a, e_i) its right-handed twin.  A violation shows module coordinates.
    """
    if len(mod.dmaps) != hder.rank:
        raise ShapeError(f"{hder.rank} module maps expected, got {len(mod.dmaps)}")
    d, md = alg.dim, mod.mdim
    total = semidirect(alg, hder, mod)
    tables = _pair_tables(total.algebra.dim, total.algebra.int_form, total.hder.maps)

    def failed(law, at, lhs, rhs, k):
        q = tables.scale(k)
        return CheckReport.failed(law, at, as_fractions(lhs[d:], q), as_fractions(rhs[d:], q))

    triples = [t for i, j, a in itertools.product(range(d), range(d), range(d, d + md))
               for t in ((i, j, a), (a, i, j), (i, a, j))]
    bad = tables.failure(0, 0, triples)
    if bad is not None:
        (x, y, z), lhs, rhs = bad
        if z >= d:
            return failed("left module law", (x, y, z - d), lhs, rhs, 0)
        if x >= d:
            return failed("right module law", (y, z, x - d), rhs, lhs, 0)
        return failed("bimodule compatibility", (x, z, y - d), lhs, rhs, 0)
    pairs = [t for i, a in itertools.product(range(d), range(d, d + md)) for t in ((i, a), (a, i))]
    for k in range(1, hder.rank + 1):
        bad = tables.failure(k, 0, pairs)
        if bad is not None:
            (x, y), lhs, rhs = bad
            if y >= d:
                return failed("left derivation law", (k, x, y - d), lhs, rhs, k)
            return failed("right derivation law", (k, y, x - d), lhs, rhs, k)
    return CheckReport.passed()


def extension_from_cocycle(alg: Algebra, hd: HigherDerivation, mod: Bimodule,
                           z: Cochain) -> ExtensionPair:
    """Build the extension twisted by z after checking z really is a cocycle.

    The error names the first violated component: the bilinear one, or the
    index k of the first failing derivation condition.
    """
    defect = differential(alg, mod, hd, z)
    if not defect.main.is_zero():
        raise NotACocycleError("delta_hoch of the bilinear component is nonzero")
    for k, part in enumerate(defect.parts, start=1):
        if not part.is_zero():
            raise NotACocycleError(f"derivation cocycle condition fails at k={k}")
    total = extension_structure(alg, hd, mod, z)
    include, project, section = _canonical_matrices(alg.dim, mod.mdim)
    return ExtensionPair(AssHDerPair(alg, hd), mod, total, include, project, section)


def _check_induced_actions(ext: ExtensionPair, section: Matrix) -> None:
    alg, mod = ext.base.algebra, ext.module
    total = ext.total.algebra
    for i in range(alg.dim):
        s_i = section.column(i)
        for a in range(mod.mdim):
            inc = ext.include.column(a)
            left = ext.module_part(total.mult(s_i, inc))
            if left != mod.left[i][a]:
                raise SectionError(
                    f"induced left action at ({i}, {a}) differs from the declared bimodule")
            right = ext.module_part(total.mult(inc, s_i))
            if right != mod.right[a][i]:
                raise SectionError(
                    f"induced right action at ({a}, {i}) differs from the declared bimodule")


def cocycle_from_section(ext: ExtensionPair, section: Matrix | None = None) -> Cochain:
    """Twisting data read off a splitting: products and derivation defects.

    psi(a, b) = s(a) s(b) - s(ab) and chi_k(a) = d^E_k(s(a)) - s(d_k(a)),
    both landing in M.  Any linear right inverse of the projection works and
    must induce the declared bimodule actions.
    """
    s = ext.section if section is None else section
    d, md = ext.dim, ext.mdim
    if s.rows != d + md or s.cols != d:
        raise ShapeError(f"section must be {d + md}x{d}")
    if ext.project * s != Matrix.identity(d):
        raise SectionError("matrix is not a section: p o s is not the identity")
    _check_induced_actions(ext, s)
    # psi = s(a)s(b) - s(ab) is rhs - lhs of the multiplicativity terms,
    # chi_k = d_k^E s - s d_k is lhs - rhs of the k-th intertwining terms
    values: list[list[Fraction]] = [[] for _ in range(ext.base.hder.rank + 1)]
    for k, _, lhs, rhs in _morphism_law_terms(ext.base, ext.total, s):
        diff = [y - x for x, y in zip(lhs, rhs)] if k == 0 else [x - y for x, y in zip(lhs, rhs)]
        if any(ext.algebra_part(diff)):
            raise SectionError(("derivation" if k else "section") +
                               " defect does not land in the module part")
        values[k].extend(ext.module_part(diff))
    return Cochain(MultiMap(2, d, md, tuple(values[0])),
                   tuple(MultiMap(1, d, md, tuple(v)) for v in values[1:]))


def equivalence_from_cochain(h: MultiMap) -> Matrix:
    """The shear (a, m) |-> (a, m + h(a)) as a block matrix; always invertible."""
    if h.arity != 1:
        raise ShapeError("a linear map A -> M is required")
    d, md = h.dim, h.mdim
    hmat = multimap_to_matrix(h)
    rows = []
    for r in range(d):
        rows.append(tuple(ONE if c == r else ZERO for c in range(d + md)))
    for r in range(md):
        rows.append((*hmat.row(r), *(ONE if c == r else ZERO for c in range(md))))
    return Matrix.from_rows(rows)


def check_equivalence(e1: ExtensionPair, e2: ExtensionPair,
                      candidate: Matrix) -> CheckReport:
    """Is the candidate an equivalence of extensions over the same (A, M)?

    It must be an algebra morphism intertwining the derivation maps,
    restrict to the identity on M, and project to the identity on A.
    """
    if e1.base != e2.base or e1.module != e2.module:
        raise ShapeError("extensions are not over the same base and module")
    big = e1.dim + e1.mdim
    if candidate.rows != big or candidate.cols != big:
        raise ShapeError(f"candidate must be {big}x{big}")
    if e2.project * candidate != e1.project:
        return CheckReport.failed("projects to identity on base", ())
    if candidate * e1.include != e2.include:
        return CheckReport.failed("restricts to identity on module", ())
    return check_morphism(AssHDerMorphism(e1.total, e2.total, candidate))


def find_equivalence(e1: ExtensionPair, e2: ExtensionPair) -> Matrix | None:
    """Search for an equivalence between two extensions over the same data.

    Any equivalence has the shear normal form (a, m) |-> (a, m + h(a)), so
    existence reduces to a linear solve: the canonical section cocycles must
    differ by the coboundary of h.  Returns the shear matrix, or None when
    the extensions represent different cohomology classes.
    """
    if e1.base != e2.base or e1.module != e2.module:
        raise ShapeError("extensions are not over the same base and module")
    alg, hd, mod = e1.base.algebra, e1.base.hder, e1.module
    z1 = cocycle_from_section(e1)
    z2 = cocycle_from_section(e2)
    h = is_coboundary(alg, mod, hd, z1.sub(z2))
    if h is None:
        return None
    psi = equivalence_from_cochain(h.main)
    report = check_equivalence(e1, e2, psi)
    if not report.ok:
        raise RuntimeError(f"solved shear fails the equivalence check: {report.violation}")
    return psi


def classify_central(alg: Algebra, hd: HigherDerivation,
                     mod: Bimodule) -> list[tuple[Cochain, ExtensionPair]]:
    """One extension per second-cohomology basis class, semidirect first.

    Central classification needs the trivial representation, so nonzero
    actions are rejected.  Representatives are chosen greedily from the
    canonical cocycle kernel basis, keeping those that grow the span of the
    coboundaries; the output order is the kernel-basis order.
    """
    if not mod.has_zero_actions():
        raise ValueError("central classification requires a bimodule with zero actions")
    report = cohomology(alg, mod, hd, 2)
    span = Echelon(differential_matrix(alg, mod, hd, 1).int_columns())
    chosen: list[Cochain] = []
    for cocycle in report.cocycle_basis:
        if span.add(dict(enumerate(cochain_to_vector(cocycle)))):
            chosen.append(cocycle)
        if len(chosen) == report.betti:
            break
    zero = zero_cochain(alg.dim, mod.mdim, hd.rank, 2)
    return [(z, extension_from_cocycle(alg, hd, mod, z)) for z in (zero, *chosen)]
