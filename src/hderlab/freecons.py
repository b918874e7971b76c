"""Free constructions: induced maps on a truncated tensor algebra, the
universal property of the resulting pair, and the commutator bridge to
Lie-algebra higher derivations.

The tensor algebra here is truncated by the graded ideal of words longer
than ``max_degree``: concatenation that overflows the bound is zero.  That
quotient is an honest associative algebra, and the induced maps descend to
it because they preserve word length.  Words are enumerated by length and
then lexicographically, with the empty word (the unit) first.  The induced
maps come from one recursion over the first letter of a word,
D_k(a w) = sum_{p=0..k} theta_p(a) D_{k-p}(w), so their cost is polynomial
in the number of maps theta_1..theta_N.  The tensor algebra and the induced
maps are built on integers, from the thetas' ``int_rows``, and so are the
universal extension's map and the morphism law it is checked by.
"""

from __future__ import annotations

import itertools
import math

from .algebras import Algebra, CheckReport, Tensor3, Violation, _contract, _pair_tables
from .exactlin import Matrix, ShapeError, Value, Vector, ZERO, ONE, as_fractions, int_form, vec_add
from .hder import AssHDerPair, HigherDerivation, _leibniz_report, _morphism_law_terms, _mult

Word = tuple[int, ...]


class TruncatedTensorAlgebra(Value):
    vdim: int
    max_degree: int
    words: tuple[Word, ...]
    algebra: Algebra


class LieHDerPair(Value):
    """Lie algebra by an antisymmetric bracket tensor, plus maps phi_1..phi_N."""

    dim: int
    bracket: Tensor3
    maps: tuple[Matrix, ...]

    def bracket_vec(self, x: Vector, y: Vector) -> Vector:
        return _contract(self.bracket, x, y, self.dim)

    def basis_vector(self, i: int) -> Vector:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))


def _enumerate_words(vdim: int, max_degree: int) -> tuple[Word, ...]:
    words: list[Word] = []
    for length in range(max_degree + 1):
        words.extend(itertools.product(range(vdim), repeat=length))
    return tuple(words)


def _word_label(w: Word) -> str:
    if not w:
        return "1"
    return "⊗".join(f"v{i}" for i in w)


def build_tensor_algebra(vdim: int, max_degree: int) -> TruncatedTensorAlgebra:
    """Words of length <= max_degree under concatenation, overflow to zero."""
    if vdim < 1 or max_degree < 1:
        raise ShapeError("need vdim >= 1 and max_degree >= 1")
    words = _enumerate_words(vdim, max_degree)
    index = {w: i for i, w in enumerate(words)}
    n = len(words)
    nums = [0] * n ** 3
    for i, u in enumerate(words):
        for j, w in enumerate(words):
            if len(u) + len(w) <= max_degree:
                nums[(i * n + j) * n + index[u + w]] = 1
    alg = Algebra(n, (nums, 1), tuple(map(_word_label, words)), 0)
    return TruncatedTensorAlgebra(vdim, max_degree, words, alg)


def induced_tensor_hder(vdim: int, max_degree: int,
                        thetas: tuple[Matrix, ...]) -> tuple[TruncatedTensorAlgebra, HigherDerivation]:
    """Extend maps on V to the truncated tensor algebra.

    The k-th induced map is d_k(v_1 ... v_l) = sum over p_1 + ... + p_l = k
    of theta_{p_1} v_1 ... theta_{p_l} v_l, with theta_0 the identity.  It
    is computed by one recursion over the first letter,
    D_k(a w) = sum_{p=0..k} theta_p(a) D_{k-p}(w) with D_0 the identity,
    visiting words shortest first, so the work is polynomial in the number
    of maps.  The induced maps preserve word length, vanish on the empty
    word, and form a higher derivation on the truncation.
    """
    rank = len(thetas)
    if rank < 1:
        raise ShapeError("need at least one map")
    for k, th in enumerate(thetas, start=1):
        if th.rows != vdim or th.cols != vdim:
            raise ShapeError(f"theta {k} is {th.rows}x{th.cols}, expected {vdim}x{vdim}")
    tta = build_tensor_algebra(vdim, max_degree)
    words = tta.words
    index = {w: i for i, w in enumerate(words)}
    # images[p][a]: the nonzero (b, x) of theta_p(v_a), x over the lcm L of
    # the thetas' scales, theta_0 = id
    scale = math.lcm(*(th.int_rows[1] for th in thetas))
    images = [[[(a, scale)] for a in range(vdim)]]
    for th in thetas:
        rows, up = th.int_rows[0], scale // th.int_rows[1]
        images.append([[(b, row[a] * up) for b, row in enumerate(rows) if a in row]
                       for a in range(vdim)])
    # series[i][k]: D_k(words[i]) as {word index: numerator over L^len(words[i])}
    series: list[list[dict[int, int]]] = [[{0: 1}] + [{} for _ in range(rank)]]
    for w in words[1:]:
        tail = series[index[w[1:]]]
        dks = []
        for k in range(rank + 1):
            acc: dict[int, int] = {}
            for p in range(k + 1):
                for b, x in images[p][w[0]]:
                    for j, y in tail[k - p].items():
                        i = index[(b, *words[j])]
                        acc[i] = acc.get(i, 0) + x * y
            dks.append(acc)
        series.append(dks)
    n = len(words)
    maps = []
    for k in range(1, rank + 1):
        rows = [{} for _ in range(n)]
        for col, dks in enumerate(series):
            up = scale ** (max_degree - len(words[col]))
            for i, x in dks[k].items():
                if x:
                    rows[i][col] = x * up
        maps.append(Matrix.from_int_rows(rows, scale ** max_degree, n))
    return tta, HigherDerivation(rank, tuple(maps))


class UniversalExtensionReport(Value):
    ok: bool
    violation: Violation | None
    map: Matrix
    unit_handling: str  # "mapped-to-unit" or "degree-zero-skipped"


def universal_extension(tta: TruncatedTensorAlgebra, thetas: tuple[Matrix, ...],
                        target: AssHDerPair, f: Matrix) -> UniversalExtensionReport:
    """Extend a compatible map on generators to words, and check it.

    Precondition (raised on failure): d_k o f = f o theta_k for all k.  The
    extension sends a word to the product of the images of its letters; the
    empty word goes to the target unit when one is declared, else to zero
    with the degree-zero checks skipped and recorded.  The report then
    asserts multiplicativity on word pairs of total degree <= max_degree and
    intertwining with the induced maps on all words.
    """
    alg, hd = target.algebra, target.hder
    if len(thetas) != hd.rank:
        raise ShapeError(f"{hd.rank} generator maps expected, got {len(thetas)}")
    if f.rows != alg.dim or f.cols != tta.vdim:
        raise ShapeError(f"generator map is {f.rows}x{f.cols}, expected {alg.dim}x{tta.vdim}")
    for k in range(1, hd.rank + 1):
        if hd.maps[k - 1] * f != f * thetas[k - 1]:
            raise ValueError(f"generator map does not intertwine at k={k}")

    unital = alg.unit_index is not None
    unit_handling = "mapped-to-unit" if unital else "degree-zero-skipped"
    # the image of a word of length l >= 1, the product of its letters'
    # images, is over F^l A^(l-1) (F, A the scales of f and the algebra);
    # every column is brought to that of the longest words
    images, fs, den, top = f.int_columns(), f.int_rows[1], alg.int_form[1], tta.max_degree
    scale, columns = fs ** top * den ** (top - 1), []
    for w in tta.words:
        if not w:
            columns.append({alg.unit_index: scale} if unital else {})
            continue
        acc = images[w[0]]
        for letter in w[1:]:
            acc = _mult(alg, acc, images[letter])
        up = (fs * den) ** (top - len(w))
        columns.append({r: x * up for r, x in acc.items() if x})
    lifted = Matrix.from_int_rows([{c: col[r] for c, col in enumerate(columns) if r in col}
                                   for r in range(alg.dim)], scale, len(columns))

    _, induced = induced_tensor_hder(tta.vdim, tta.max_degree, thetas)
    words = tta.words
    pairs = [(i, j) for i, u in enumerate(words) for j, w in enumerate(words)
             if len(u) + len(w) <= tta.max_degree and (unital or (u and w))]
    cols = [i for i, w in enumerate(words) if unital or w]
    source = AssHDerPair(tta.algebra, induced)
    for k, at, lhs, rhs, q in _morphism_law_terms(source, target, lifted, pairs, cols):
        if lhs != rhs:
            lhs, rhs = as_fractions(lhs, q), as_fractions(rhs, q)
            violation = Violation("intertwining", (k, *at), lhs, rhs) if k else \
                Violation("multiplicativity", at, lhs, rhs)
            return UniversalExtensionReport(False, violation, lifted, unit_handling)
    return UniversalExtensionReport(True, None, lifted, unit_handling)


def commutator_liehder(alg: Algebra, hd: HigherDerivation) -> LieHDerPair:
    """Commutator bracket [a,b] = ab - ba with the same maps."""
    d = alg.dim
    bracket = tuple(
        tuple(
            tuple(alg.c[i][j][k] - alg.c[j][i][k] for k in range(d))
            for j in range(d))
        for i in range(d))
    return LieHDerPair(d, bracket, tuple(hd.maps))


def verify_liehder(pair: LieHDerPair) -> CheckReport:
    """Antisymmetry, Jacobi, and the higher-derivation law on basis tuples."""
    d = pair.dim
    b = pair.bracket
    for i, j, k in itertools.product(range(d), repeat=3):
        if b[i][j][k] + b[j][i][k] != 0:
            return CheckReport.failed("antisymmetry", (i, j, k))
    for i, j, k in itertools.product(range(d), repeat=3):
        ei, ej, ek = (pair.basis_vector(t) for t in (i, j, k))
        total = vec_add(
            vec_add(pair.bracket_vec(pair.bracket_vec(ei, ej), ek),
                    pair.bracket_vec(pair.bracket_vec(ej, ek), ei)),
            pair.bracket_vec(pair.bracket_vec(ek, ei), ej))
        if any(total):
            return CheckReport.failed("jacobi identity", (i, j, k), total, (ZERO,) * d)
    return _leibniz_report(_pair_tables(d, int_form([x for mid in b for row in mid for x in row]), pair.maps),
                           "lie higher derivation identity")
