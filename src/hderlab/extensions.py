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
the maps and the cocycle (``_total_pair``; its maps column by column, as
every matrix stores them), and the cocycle test sums the differential's
stencil on the cocycle's integer form; ``classify_central`` reads its
representatives off the sparse kernel form, and ``cocycle_from_section``
reads the morphism law on integers, so no extension command makes a
Fraction.
"""

from __future__ import annotations

import itertools
import math

from .algebras import Algebra, Bimodule, CheckReport, _pair_tables
from .cochain import (
    Cochain, MultiMap, NegativeAnswer, NotACocycleError, _coboundary, cochain_blocks, cochain_dim, cohomology,
    differential_matrix, is_coboundary,
)
from .exactlin import Echelon, Matrix, ShapeError, Value, as_fractions
from .hder import (AssHDerMorphism, AssHDerPair, HigherDerivation, _morphism_law_terms, _mult,
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


def extension_structure(alg: Algebra, hd: HigherDerivation, mod: Bimodule,
                        z: Cochain) -> AssHDerPair:
    """The A + M structure twisted by the 2-cochain z = (psi; chi_1, ...,
    chi_N), with no cocycle check applied.

    Verifying the result is exactly the cocycle test: the pair passes the
    algebra and higher-derivation verifiers if and only if z is killed by
    the differential.
    """
    _require_two_cochain(alg, hd, mod, z)
    return _total_pair(alg, hd, mod, *z.int_form)


def _require_two_cochain(alg: Algebra, hd: HigherDerivation, mod: Bimodule, z: Cochain) -> None:
    """Raise unless z is a 2-cochain of the pair's shape."""
    if (z.n, z.shape) != (2, (alg.dim, mod.mdim, hd.rank)):
        raise ShapeError(f"a 2-cochain of shape ({alg.dim}, {mod.mdim}) with {hd.rank} parts is required, "
                         f"got degree {z.n} of shape ({z.dim}, {z.mdim}) with {z.nrank}")


def _total_pair(alg: Algebra, hd: HigherDerivation, mod: Bimodule, nums, den: int) -> AssHDerPair:
    """``extension_structure`` of the 2-cochain vector nums / den, from the
    integer forms: A's product, psi and the actions over the lcm of their
    denominators, each map d_k + chi_k + d_k^M over that of its three, by
    columns: column j < dim is column j of d_k and of chi_k, the rest those
    of d_k^M."""
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
        (cols, s1), (mcols, s2) = dk.int_form, dkm.int_form
        chi = nums[main + k * d * md:main + (k + 1) * d * md]  # entry (b, c) at c md + b
        scale = math.lcm(s1, s2, den)
        t1, t2, tz = scale // s1, scale // s2, scale // den
        out = [{i: x * t1 for i, x in col.items()} for col in cols]
        for j, col in enumerate(out):
            col.update((d + b, x * tz) for b, x in enumerate(chi[j * md:j * md + md]) if x)
        out += [{d + b: x * t2 for b, x in col.items()} for col in mcols]
        maps.append(Matrix.from_int_columns(out, scale, big))
    labels = alg.basis_labels + tuple(f"m{a}" for a in range(md))
    return AssHDerPair(Algebra(big, (c, top), labels),
                       HigherDerivation(hd.rank, tuple(maps)))


def _canonical_matrices(d: int, md: int) -> tuple[Matrix, Matrix, Matrix]:
    """The inclusion M -> E, projection E -> A and section A -> E, E = A + M."""
    big = d + md
    include = Matrix.from_int_columns([{d + a: 1} for a in range(md)], 1, big)
    project = Matrix.from_int_columns([{r: 1} for r in range(d)] + [{} for _ in range(md)], 1, d)
    section = Matrix.from_int_columns([{r: 1} for r in range(d)], 1, big)
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
    _require_two_cochain(alg, hd, mod, z)
    return _extension(alg, hd, mod, z.int_form, _canonical_matrices(alg.dim, mod.mdim))


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
    """The actions s induces, s(e_i) m_a and m_a s(e_i) in the total
    algebra, against the declared ones, on the integer forms."""
    d, md, total = ext.dim, ext.mdim, ext.total.algebra
    (mnums, mden), r0 = ext.module.int_form, d * md * md  # right[a][i] is at r0 + (a d + i) md
    (images, s), (inc, t) = section.int_form, ext.include.int_form
    scale = s * t * total.int_form[1]
    for i in range(d):
        for a in range(md):
            for side, product, at in (("left", _mult(total, images[i], inc[a]), (i * md + a) * md),
                                      ("right", _mult(total, inc[a], images[i]), r0 + (a * d + i) * md)):
                if any(product.get(d + b, 0) * mden != x * scale for b, x in enumerate(mnums[at:at + md])):
                    where = (i, a) if side == "left" else (a, i)
                    raise SectionError(f"induced {side} action at {where} differs from the declared bimodule")


def cocycle_from_section(ext: ExtensionPair, section: Matrix | None = None) -> Cochain:
    """Twisting data read off a splitting: products and derivation defects.

    psi(a, b) = s(a) s(b) - s(ab) and chi_k(a) = d^E_k(s(a)) - s(d_k(a)),
    both landing in M.  Any linear right inverse of the projection works and
    must induce the declared bimodule actions.  The two sides come from the
    morphism law on integers, one scale per k.
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
    blocks: list[list[int]] = [[] for _ in range(ext.base.hder.rank + 1)]
    scales = [1] * len(blocks)
    for k, _, lhs, rhs, q in _morphism_law_terms(ext.base, ext.total, s):
        diff = [y - x for x, y in zip(lhs, rhs)] if k == 0 else [x - y for x, y in zip(lhs, rhs)]
        if any(diff[:d]):
            raise SectionError(("derivation" if k else "section") +
                               " defect does not land in the module part")
        blocks[k].extend(diff[d:])
        scales[k] = q
    den = math.lcm(*scales)
    return Cochain(d, md, ext.base.hder.rank, 2,
                   ([x * (den // q) for block, q in zip(blocks, scales) for x in block], den))


def equivalence_from_cochain(h: MultiMap) -> Matrix:
    """The shear (a, m) |-> (a, m + h(a)) as a block matrix; always invertible."""
    if h.arity != 1:
        raise ShapeError("a linear map A -> M is required")
    d, md = h.dim, h.mdim  # h holds its matrix column-major: row b is values[b::md]
    return Matrix.from_rows([[int(c == r) for c in range(d + md)] for r in range(d)] +
                            [[*h.values[r::md], *(int(c == r) for c in range(md))] for r in range(md)])


def _require_same_base(e1: ExtensionPair, e2: ExtensionPair) -> None:
    if e1.base != e2.base or e1.module != e2.module:
        raise ShapeError("extensions are not over the same base and module")


def check_equivalence(e1: ExtensionPair, e2: ExtensionPair,
                      candidate: Matrix) -> CheckReport:
    """Is the candidate an equivalence of extensions over the same (A, M)?

    It must be an algebra morphism intertwining the derivation maps,
    restrict to the identity on M, and project to the identity on A.
    """
    _require_same_base(e1, e2)
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
    _require_same_base(e1, e2)
    alg, hd, mod = e1.base.algebra, e1.base.hder, e1.module
    (x1, q1), (x2, q2) = cocycle_from_section(e1).int_form, cocycle_from_section(e2).int_form
    q = math.lcm(q1, q2)
    gap = Cochain(alg.dim, mod.mdim, hd.rank, 2, ([a * (q // q1) - b * (q // q2) for a, b in zip(x1, x2)], q))
    h = is_coboundary(alg, mod, hd, gap)
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
    canonical cocycle kernel basis, read off its sparse form
    (``Kernel.forms``), keeping those that grow the span of the
    coboundaries; the output order is the kernel-basis order.
    """
    if not mod.has_zero_actions():
        raise ValueError("central classification requires a bimodule with zero actions")
    report = cohomology(alg, mod, hd, 2)
    span = Echelon(differential_matrix(alg, mod, hd, 1).int_columns())
    chosen: list[tuple] = []
    for nums, den in report.kernel.forms():
        if len(chosen) == report.betti:
            break
        if span._insert({p: x for p, x in enumerate(nums) if x}) is not None:
            chosen.append((nums, den))
    canonical = _canonical_matrices(alg.dim, mod.mdim)
    return [(Cochain(*report.shape, 2, form), _extension(alg, hd, mod, form, canonical))
            for form in (([0] * report.dim_cochains, 1), *chosen)]
