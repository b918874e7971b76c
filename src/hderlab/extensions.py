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

The total pair is built from the integer forms of the algebra, the module,
the maps and the cocycle (``_total_pair``), and the cocycle test sums the
differential's stencil on the cocycle's numerators; ``classify_central``
reads its representatives off the sparse kernel form, so the CLI classifies
without a Fraction.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebras import Algebra, Bimodule, CheckReport, _pair_tables
from .cochain import (
    Cochain, MultiMap, NegativeAnswer, NotACocycleError, _coboundary, cochain_blocks, cochain_dim,
    cochain_to_vector, cohomology, differential_matrix, is_coboundary, multimap_to_matrix, vector_to_cochain,
)
from .exactlin import Echelon, Matrix, ShapeError, Value, Vector, ZERO, ONE, as_fractions, int_form
from .hder import (AssHDerMorphism, AssHDerPair, HigherDerivation, _morphism_law_terms,
                   check_morphism)


class SectionError(NegativeAnswer):
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
    return _total_pair(alg, hd, mod, *_cochain_form(alg, hd, mod, z))


def _cochain_form(alg: Algebra, hd: HigherDerivation, mod: Bimodule, z: Cochain) -> tuple:
    """``int_form`` of the vector of z, a 2-cochain of the pair's shape."""
    if z.n != 2 or len(z.parts) != hd.rank or (z.main.dim, z.main.mdim) != (alg.dim, mod.mdim):
        raise ShapeError(f"a 2-cochain of shape ({alg.dim}, {mod.mdim}) with {hd.rank} parts is required, "
                         f"got degree {z.n} of shape ({z.main.dim}, {z.main.mdim}) with {len(z.parts)}")
    return int_form(cochain_to_vector(z))


def _total_pair(alg: Algebra, hd: HigherDerivation, mod: Bimodule, nums, den: int) -> AssHDerPair:
    """``extension_structure`` of the 2-cochain vector nums / den, from the
    integer forms: A's product, psi and the actions over the lcm of their
    denominators, each map d_k + chi_k + d_k^M over that of its three."""
    d, md = alg.dim, mod.mdim
    big, r0 = d + md, d * md * md  # right[a][i][b] is at r0 + (a d + i) md + b
    (anums, aden), (mnums, mden) = alg.int_form, mod.int_form
    top = math.lcm(aden, mden, den)
    sa, sm, sz = top // aden, top // mden, top // den
    c = [0] * big ** 3
    for i in range(d):
        for j in range(d):  # e_i e_j = (e_i e_j in A, psi(e_i, e_j))
            at, ij = (i * big + j) * big, i * d + j
            c[at:at + d] = [x * sa for x in anums[ij * d:ij * d + d]]
            c[at + d:at + big] = [x * sz for x in nums[ij * md:ij * md + md]]
        for a in range(md):  # e_i m_a and m_a e_i
            at, left, right = (i * big + d + a) * big + d, (i * md + a) * md, r0 + (a * d + i) * md
            c[at:at + md] = [x * sm for x in mnums[left:left + md]]
            at = ((d + a) * big + i) * big + d
            c[at:at + md] = [x * sm for x in mnums[right:right + md]]
    maps, main = [], d * d * md
    for k, (dk, dkm) in enumerate(zip(hd.maps, mod.dmaps)):
        (rows, s1), (mrows, s2) = dk.int_rows, dkm.int_rows
        chi = nums[main + k * d * md:main + (k + 1) * d * md]  # entry (b, c) at c md + b
        scale = math.lcm(s1, s2, den)
        t1, t2, tz = scale // s1, scale // s2, scale // den
        out = [{j: x * t1 for j, x in row.items()} for row in rows]
        for b, row in enumerate(mrows):
            out.append({c: x * tz for c in range(d) if (x := chi[c * md + b])})
            out[-1].update((d + j, x * t2) for j, x in row.items())
        maps.append(Matrix.from_int_rows(out, scale, big))
    labels = alg.basis_labels + tuple(f"m{a}" for a in range(md))
    return AssHDerPair(Algebra(big, (c, top), labels),
                       HigherDerivation(hd.rank, tuple(maps)))


def _canonical_matrices(d: int, md: int) -> tuple[Matrix, Matrix, Matrix]:
    """The inclusion M -> E, projection E -> A and section A -> E, E = A + M."""
    big = d + md
    include = Matrix.from_int_rows([{} for _ in range(d)] + [{a: 1} for a in range(md)], 1, md)
    project = Matrix.from_int_rows([{r: 1} for r in range(d)], 1, big)
    section = Matrix.from_int_rows([{r: 1} for r in range(d)] + [{} for _ in range(md)], 1, d)
    return include, project, section


def semidirect(alg: Algebra, hd: HigherDerivation, mod: Bimodule) -> AssHDerPair:
    """(a, m)(b, n) = (ab, an + mb) with block-diagonal derivation maps."""
    return _total_pair(alg, hd, mod, [0] * cochain_dim(alg.dim, mod.mdim, hd.rank, 2), 1)


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
    return _extension(alg, hd, mod, _cochain_form(alg, hd, mod, z),
                      _canonical_matrices(alg.dim, mod.mdim))


def _extension(alg: Algebra, hd: HigherDerivation, mod: Bimodule, form: tuple,
               canonical: tuple) -> ExtensionPair:
    """``extension_from_cocycle`` of the 2-cochain vector nums / den, ``form``:
    the cocycle test sums the stencil on the numerators."""
    nums, den = form
    defect = _coboundary(alg, mod, hd, 2, nums)[0]
    main, *parts = cochain_blocks(alg.dim, mod.mdim, hd.rank, 3)
    if any(defect[main]):
        raise NotACocycleError("delta_hoch of the bilinear component is nonzero")
    for k, block in enumerate(parts, start=1):
        if any(defect[block]):
            raise NotACocycleError(f"derivation cocycle condition fails at k={k}")
    return ExtensionPair(AssHDerPair(alg, hd), mod, _total_pair(alg, hd, mod, nums, den), *canonical)


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
    shape = (alg.dim, mod.mdim, hd.rank)
    return [(vector_to_cochain(*shape, 2, as_fractions(*form)), ext)
            for form, ext in _central_classes(alg, hd, mod)]


def _central_classes(alg: Algebra, hd: HigherDerivation, mod: Bimodule) -> list[tuple[tuple, ExtensionPair]]:
    """``classify_central`` with each representative as the integer form
    ``(nums, den)`` of its vector, read off ``Kernel.entries``."""
    if not mod.has_zero_actions():
        raise ValueError("central classification requires a bimodule with zero actions")
    report = cohomology(alg, mod, hd, 2)
    span = Echelon(differential_matrix(alg, mod, hd, 1).int_columns())
    chosen: list[tuple] = []
    for f, entries in report.kernel.entries():
        if len(chosen) == report.betti:
            break
        den = math.lcm(*(q for _p, _x, q in entries))
        vector = {f: den, **{p: x * (den // q) for p, x, q in entries}}
        if span._insert(dict(vector)) is not None:
            chosen.append(([vector.get(p, 0) for p in range(report.kernel.cols)], den))
    canonical = _canonical_matrices(alg.dim, mod.mdim)
    zero = ([0] * report.dim_cochains, 1)
    return [(form, _extension(alg, hd, mod, form, canonical)) for form in (zero, *chosen)]
