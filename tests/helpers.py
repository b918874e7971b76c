"""Shared generators, fixture menus, and independent oracles for the tests.

The oracles here deliberately avoid the operators under test: second
cohomology is recomputed from the raw extension-law defects, coboundary
probes use the section-difference formulas directly, elimination is checked
against dense Gauss-Jordan, the differential against the whole-map operators
delta_hoch, delta' and delta_k evaluated tuple by tuple (and its matrix
against one such evaluation per unit cochain), the deformation verifier and
obstruction against the hand-written order-s convolutions, the packed law
sides against the per-tuple integer scans they replaced, extension and
trivialization against their loops with a second full scan per appended
order and with Fraction gauges at every step, the gauge action against
dense multimap composition and gauge composition and inversion against
dense Fraction matrix series, a matrix's integer rows against ``int_form``
read row by row, the one walker that reads every problem-file section
against the nested Fraction reader it replaced (with its own token read),
``trivial_deformation`` and ``apply_gauge`` against their Fraction
bodies, the input verifiers
(associativity, the higher-derivation law on a product or a bracket, the
bimodule laws) against their Fraction scans over basis tuples, the three
readers of the morphism law (morphisms, universal extensions, section
cocycles) against their own loops, the induced tensor-algebra maps against
their sum over compositions, the truncated tensor algebra, the total pair
of an extension and its cocycle test against their Fraction builds, the
report writer against the json module,
and the value classes against the frozen dataclasses they were written as.
The structure arithmetic only tests use (matrix, multimap and cochain sums
and differences, the module actions, multilinear evaluation, adding a
Fraction row to an echelon) is stated here as functions too.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

import hderlab as H
from hderlab import algebras, deform, exactlin, samples
from hderlab.algebras import LawTables, _contract
from hderlab.exactlin import ONE, ZERO, as_fractions, echelon, int_form, vec_add
from hderlab.extensions import _check_induced_actions
from hderlab.serialize import ParseError, Streamed, _int, _list, _need, cochain_to_json, write_report

# ---------------------------------------------------------------- generators


def rand_fraction(rng: random.Random, lo: int = -3, hi: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def rand_vector(rng: random.Random, n: int) -> tuple:
    return tuple(rand_fraction(rng) for _ in range(n))


def rand_matrix(rng: random.Random, rows: int, cols: int | None = None) -> H.Matrix:
    cols = rows if cols is None else cols
    return H.Matrix(rows, cols, tuple(rand_fraction(rng) for _ in range(rows * cols)))


def rand_multimap(rng: random.Random, arity: int, dim: int, mdim: int) -> H.MultiMap:
    return H.MultiMap(arity, dim, mdim,
                      tuple(rand_fraction(rng) for _ in range(dim ** arity * mdim)))


def rand_cochain(rng: random.Random, dim: int, mdim: int, nrank: int, n: int) -> H.Cochain:
    if n == 1:
        return H.Cochain.from_maps(rand_multimap(rng, 1, dim, mdim))
    return H.Cochain.from_maps(rand_multimap(rng, n, dim, mdim),
                               tuple(rand_multimap(rng, n - 1, dim, mdim) for _ in range(nrank)))


def rand_gauge(rng: random.Random, dim: int, order: int) -> H.GaugeMap:
    return H.GaugeMap(order, (H.Matrix.identity(dim),
                              *(rand_matrix(rng, dim) for _ in range(order))))


def sparse_matrices(rows=st.integers(0, 7), cols=st.integers(0, 7)):
    """Mostly-zero rational matrices, some of them products through a narrow
    middle dimension, so that dependent rows and kernels are common."""
    entries = st.one_of(st.just(ZERO), st.just(ZERO),
                        st.fractions(min_value=-20, max_value=20, max_denominator=6))

    def plain(r, c):
        return st.lists(entries, min_size=r * c, max_size=r * c).map(
            lambda xs: H.Matrix(r, c, tuple(xs)))

    def low_rank(r, c):
        return st.integers(0, 3).flatmap(
            lambda k: st.tuples(plain(r, k), plain(k, c)).map(lambda ab: ab[0] * ab[1]))

    return st.tuples(rows, cols).flatmap(
        lambda rc: st.one_of(plain(*rc), low_rank(*rc)))


# ------------------------------------------- arithmetic the package lacks
# The package computes each of these through one route of its own (integer
# tables, per-tuple stencils); the tests state them directly.


def mat_add(a: H.Matrix, b: H.Matrix) -> H.Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise H.ShapeError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return H.Matrix(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def mat_neg(a: H.Matrix) -> H.Matrix:
    return H.Matrix(a.rows, a.cols, tuple(-x for x in a.entries))


def to_rows(m: H.Matrix) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


def mm_eval(mm: H.MultiMap, vectors) -> tuple:
    """Full multilinear evaluation at coordinate vectors, skipping zeros."""
    nonzero = [[(i, v) for i, v in enumerate(vec) if v] for vec in vectors]
    out = [ZERO] * mm.mdim
    for combo in itertools.product(*nonzero):
        coeff = ONE
        flat = 0
        for i, v in combo:
            coeff *= v
            flat = flat * mm.dim + i
        base = flat * mm.mdim
        for b in range(mm.mdim):
            x = mm.values[base + b]
            if x:
                out[b] += coeff * x
    return tuple(out)


def mm_add(a: H.MultiMap, b: H.MultiMap) -> H.MultiMap:
    if (a.arity, a.dim, a.mdim) != (b.arity, b.dim, b.mdim):
        raise H.ShapeError("multimap shape mismatch")
    return H.MultiMap(a.arity, a.dim, a.mdim, tuple(x + y for x, y in zip(a.values, b.values)))


def mm_scale(a: H.MultiMap, c: Fraction) -> H.MultiMap:
    return H.MultiMap(a.arity, a.dim, a.mdim, tuple(c * x for x in a.values))


def echelon_add(ech, row: dict) -> bool:
    """``Echelon.add`` as it was: reduce the Fraction row ``{column:
    rational}`` against the stored pivots and keep it if it survives; True
    when the rank grew."""
    nums = int_form(row.values())[0]
    return ech._insert({j: x for j, x in zip(row, nums) if x}) is not None


def mm_neg(a: H.MultiMap) -> H.MultiMap:
    """``MultiMap.neg`` as it was, before the cochain layers subtracted integers."""
    return mm_scale(a, -ONE)


def mm_sub(a: H.MultiMap, b: H.MultiMap) -> H.MultiMap:
    """``MultiMap.sub`` as it was."""
    return mm_add(a, mm_neg(b))


def cochain_add(a: H.Cochain, b: H.Cochain) -> H.Cochain:
    return H.Cochain.from_maps(mm_add(a.main, b.main),
                               tuple(mm_add(x, y) for x, y in zip(a.parts, b.parts, strict=True)))


def cochain_scale(a: H.Cochain, c: Fraction) -> H.Cochain:
    return H.Cochain.from_maps(mm_scale(a.main, c), tuple(mm_scale(p, c) for p in a.parts))


def cochain_neg(a: H.Cochain) -> H.Cochain:
    """``Cochain.neg`` as it was, on the multimap views."""
    return cochain_scale(a, -ONE)


def cochain_sub(a: H.Cochain, b: H.Cochain) -> H.Cochain:
    """``Cochain.sub`` as it was, on the multimap views."""
    return cochain_add(a, cochain_neg(b))


def tensor_values(t) -> tuple:
    """The entries of a nested [i][j][k] tensor, flat in that order."""
    return tuple(x for mid in t for row in mid for x in row)


def bimodule_from_tensors(mdim: int, left, right, dmaps) -> H.Bimodule:
    """A ``Bimodule`` from its Fraction action tensors, through ``int_form``."""
    return H.Bimodule(mdim, int_form(tensor_values(left) + tensor_values(right)), tuple(dmaps))


def act_left(mod: H.Bimodule, avec: tuple, mvec: tuple) -> tuple:
    return _contract(mod.left, avec, mvec, mod.mdim)


def act_right(mod: H.Bimodule, mvec: tuple, avec: tuple) -> tuple:
    return _contract(mod.right, mvec, avec, mod.mdim)


def apply_dmap(mod: H.Bimodule, k: int, mvec: tuple) -> tuple:
    """d_k^M(mvec), with d_0^M = identity."""
    return mvec if k == 0 else mod.dmaps[k - 1].apply(mvec)


def word_index(tta: H.TruncatedTensorAlgebra, w: tuple) -> int:
    return tta.words.index(w)


def derivative_matrix(degree_bound: int) -> H.Matrix:
    """d/dx on the basis of ``samples.truncated_polynomials``.

    Beware: this linear map is NOT a derivation of the truncated algebra
    (d(x * x^{n-1}) = 0 but the product rule gives n x^{n-1} != 0); it only
    exists on the full polynomial ring.  ``samples.euler_matrix`` is a
    derivation that genuinely lives on the truncation.
    """
    n = degree_bound
    rows = [[ZERO] * n for _ in range(n)]
    for j in range(1, n):
        rows[j - 1][j] = Fraction(j)
    return H.Matrix.from_rows(rows)


def report_text(doc) -> str:
    """The text ``serialize.write_report`` writes for ``doc``, as one string."""
    pieces: list[str] = []
    write_report(doc, pieces.append)
    return "".join(pieces)


# ------------------------------------------------------------ fixture menus


def pair_fixtures() -> list[tuple[str, H.Algebra, H.HigherDerivation]]:
    """Verified pairs across dimensions 1..3 and ranks 1..3."""
    rng = random.Random(90125)
    d2 = samples.dual_numbers()
    qq = samples.product_of_fields()
    p3 = samples.truncated_polynomials(3)
    z1 = samples.zero_algebra(1)
    z2 = samples.zero_algebra(2)
    out = [
        ("dual/ordinary2", d2, samples.dual_numbers_hder(2)),
        ("dual/ordinary3", d2, samples.dual_numbers_hder(3)),
        ("split/zero1", qq, H.HigherDerivation.zero(2, 1)),
        ("split/zero2", qq, H.HigherDerivation.zero(2, 2)),
        ("poly3/divided2", p3, H.ordinary_hder(p3, samples.euler_matrix(3), 2)),
        # any maps at all are a higher derivation on a zero-multiplication algebra
        ("nil1/random3", z1, H.HigherDerivation(3, tuple(rand_matrix(rng, 1) for _ in range(3)))),
        ("nil2/random2", z2, H.HigherDerivation(2, tuple(rand_matrix(rng, 2) for _ in range(2)))),
    ]
    for name, alg, hd in out:
        assert H.verify_hder(alg, hd).ok, name
    return out


def rescaled_pair(alg: H.Algebra, hd: H.HigherDerivation,
                  scales: tuple) -> tuple[H.Algebra, H.HigherDerivation]:
    """The same pair in the basis e'_i = scales[i] * e_i: the coefficient of
    e'_k in e'_i e'_j is c_ijk * s_i s_j / s_k, and entry (i, j) of each
    d_q is multiplied by s_j / s_i.  No basis vector is declared the unit."""
    d = alg.dim
    table = [[[alg.c[i][j][k] * scales[i] * scales[j] / scales[k] for k in range(d)]
              for j in range(d)] for i in range(d)]
    maps = tuple(H.Matrix(d, d, tuple(m.entry(i, j) * scales[j] / scales[i]
                                      for i in range(d) for j in range(d)))
                 for m in hd.maps)
    return H.Algebra.from_table(table, labels=alg.basis_labels), H.HigherDerivation(hd.rank, maps)


def doubled(mod: H.Bimodule) -> H.Bimodule:
    """mod + mod: both actions and every module map act on each copy alone."""
    n = mod.mdim

    def diag(square):  # a square array, twice along the diagonal
        return tuple(tuple(row) + (ZERO,) * n for row in square) + \
            tuple((ZERO,) * n + tuple(row) for row in square)

    right = tuple(tuple(tuple(v) + (ZERO,) * n for v in ra) for ra in mod.right) + \
        tuple(tuple((ZERO,) * n + tuple(v) for v in ra) for ra in mod.right)
    return bimodule_from_tensors(2 * n, tuple(diag(m) for m in mod.left), right,
                                 tuple(H.Matrix.from_rows(diag(to_rows(m))) for m in mod.dmaps))


def coefficient_fixtures() -> list[tuple[str, H.Algebra, H.HigherDerivation, H.Bimodule]]:
    """Pairs with both adjoint and trivial-with-random-dmaps coefficients,
    then a pair with non-integral structure constants: Q[x]/(x^3) with the
    divided powers of the derivation x -> x + x^2, in the rescaled basis
    (2/3, 3x/5, 5x^2/7), with its adjoint module and a trivial line whose
    module maps have denominators 7 and 11 of their own.  Last, A + A over
    the dual numbers at rank 2 (d_2 has the entry 1/2): nonzero actions on
    a module of dimension 4, twice the algebra's."""
    rng = random.Random(5150)
    out = []
    for name, alg, hd in pair_fixtures():
        out.append((f"{name}/adjoint", alg, hd, H.adjoint_bimodule(alg, hd)))
        mdim = 1 if alg.dim >= 3 else 2
        dmaps = tuple(rand_matrix(rng, mdim) for _ in range(hd.rank))
        out.append((f"{name}/trivial{mdim}", alg, hd,
                    H.trivial_bimodule(alg, mdim, dmaps)))
    p3 = samples.truncated_polynomials(3)
    shear = H.ordinary_hder(p3, H.Matrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 1, 2]]), 2)
    alg, hd = rescaled_pair(p3, shear, (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7)))
    assert H.verify_algebra(alg).ok and H.verify_hder(alg, hd).ok
    dmaps = (H.Matrix(1, 1, (Fraction(4, 11),)), H.Matrix(1, 1, (Fraction(-13, 7),)))
    out.append(("poly3-rescaled/shear2/adjoint", alg, hd, H.adjoint_bimodule(alg, hd)))
    out.append(("poly3-rescaled/shear2/trivial1", alg, hd, H.trivial_bimodule(alg, 1, dmaps)))
    name, alg, hd, adjoint = out[0]
    assert name == "dual/ordinary2/adjoint" and hd.rank == 2
    out.append(("dual/ordinary2/adjoint+adjoint", alg, hd, doubled(adjoint)))
    assert H.verify_bimodule(alg, hd, out[-1][3]).ok
    return out


# ------------------------------------------------------- independent oracles


def raw_cocycle_defects(alg: H.Algebra, hd: H.HigherDerivation, mod: H.Bimodule,
                        z: H.Cochain) -> tuple:
    """Defects of the extension laws, straight from their displayed forms,
    for the 2-cochain z = (psi; chi_1, ..., chi_N).

    Associativity defect on basis triples:
        psi(i,j).e_l + psi(ij, l) - e_i.psi(j,l) - psi(i, jl)
    and for each k the derivation-law defect on basis pairs:
        d_k^M(psi(i,j)) + chi_k(ij)
           - sum_{p+q=k} [ d_p(e_i).chi_q(e_j) + chi_p(e_i).d_q(e_j) + psi(d_p e_i, d_q e_j) ]
    with the index-0 member of the chi family treated as zero.
    """
    d = alg.dim
    defects = []
    for i in range(d):
        for j in range(d):
            for l in range(d):
                acc = list(act_right(mod, z.main.value_at((i, j)), alg.basis_vector(l)))
                for r, coeff in enumerate(alg.c[i][j]):
                    if coeff:
                        for b, x in enumerate(z.main.value_at((r, l))):
                            acc[b] += coeff * x
                term = act_left(mod, alg.basis_vector(i), z.main.value_at((j, l)))
                for b, x in enumerate(term):
                    acc[b] -= x
                for r, coeff in enumerate(alg.c[j][l]):
                    if coeff:
                        for b, x in enumerate(z.main.value_at((i, r))):
                            acc[b] -= coeff * x
                defects.extend(acc)
    for k in range(1, hd.rank + 1):
        for i in range(d):
            for j in range(d):
                acc = list(mod.dmaps[k - 1].apply(z.main.value_at((i, j))))
                for r, coeff in enumerate(alg.c[i][j]):
                    if coeff:
                        for b, x in enumerate(z.parts[k - 1].value_at((r,))):
                            acc[b] += coeff * x
                for p in range(k + 1):
                    q = k - p
                    dpi = hd.apply(p, alg.basis_vector(i))
                    dqj = hd.apply(q, alg.basis_vector(j))
                    if q >= 1:
                        term = act_left(mod, dpi, z.parts[q - 1].value_at((j,)))
                        for b, x in enumerate(term):
                            acc[b] -= x
                    if p >= 1:
                        term = act_right(mod, z.parts[p - 1].value_at((i,)), dqj)
                        for b, x in enumerate(term):
                            acc[b] -= x
                    term = mm_eval(z.main, (dpi, dqj))
                    for b, x in enumerate(term):
                        acc[b] -= x
                defects.extend(acc)
    return tuple(defects)


def raw_coboundary(alg: H.Algebra, hd: H.HigherDerivation, mod: H.Bimodule,
                   h: H.MultiMap) -> H.Cochain:
    """Section-difference twisting data of a linear map, from the raw formulas.

    psi_h(a, b) = a.h(b) - h(ab) + h(a).b  and
    chi_{h,k}(a) = d_k^M(h(a)) - h(d_k(a)).
    """
    d, md = alg.dim, mod.mdim
    psi_vals = []
    for i in range(d):
        for j in range(d):
            acc = list(act_left(mod, alg.basis_vector(i), h.value_at((j,))))
            for r, coeff in enumerate(alg.c[i][j]):
                if coeff:
                    for b, x in enumerate(h.value_at((r,))):
                        acc[b] -= coeff * x
            term = act_right(mod, h.value_at((i,)), alg.basis_vector(j))
            for b, x in enumerate(term):
                acc[b] += x
            psi_vals.extend(acc)
    chis = []
    for k in range(1, hd.rank + 1):
        vals = []
        for i in range(d):
            acc = list(mod.dmaps[k - 1].apply(h.value_at((i,))))
            dk_ei = hd.apply(k, alg.basis_vector(i))
            term = mm_eval(h, (dk_ei,))
            for b, x in enumerate(term):
                acc[b] -= x
            vals.extend(acc)
        chis.append(H.MultiMap(1, d, md, tuple(vals)))
    return H.Cochain.from_maps(H.MultiMap(2, d, md, tuple(psi_vals)), tuple(chis))


def betti2_by_rank_count(alg: H.Algebra, hd: H.HigherDerivation,
                         mod: H.Bimodule) -> int:
    """Second cohomology dimension from raw defect and coboundary probes."""
    d, md, nrank = alg.dim, mod.mdim, hd.rank
    n2 = d * d * md + nrank * d * md
    cocycle_cols = []
    for pos in range(n2):
        vec = [ZERO] * n2
        vec[pos] = Fraction(1)
        z = H.vector_to_cochain(d, md, nrank, 2, tuple(vec))
        cocycle_cols.append(raw_cocycle_defects(alg, hd, mod, z))
    constraint = H.Matrix.from_columns(cocycle_cols)
    dim_z = n2 - H.rank(constraint)
    n1 = d * md
    boundary_cols = []
    for pos in range(n1):
        vec = [ZERO] * n1
        vec[pos] = Fraction(1)
        h = H.MultiMap(1, d, md, tuple(vec))
        boundary_cols.append(H.cochain_to_vector(raw_coboundary(alg, hd, mod, h)))
    dim_b = H.rank(H.Matrix.from_columns(boundary_cols))
    return dim_z - dim_b


def cochains_equal(a: H.Cochain, b: H.Cochain) -> bool:
    return a.main.values == b.main.values and len(a.parts) == len(b.parts) and \
        all(x.values == y.values for x, y in zip(a.parts, b.parts))


def from_int_rows(rows, scale: int, cols: int) -> H.Matrix:
    """The matrix of the ``{column: nonzero int}`` rows over ``scale``, as
    the columns they transpose to."""
    rows = list(rows)
    columns: list[dict] = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j][i] = x
    return H.Matrix.from_int_columns(columns, scale, len(rows))


def oracle_int_rows(m: H.Matrix) -> tuple[tuple[dict, ...], int]:
    """``Matrix.int_rows()`` over the lowest scale, as ``int_form`` of the
    entries, then a dict of the nonzero numerators per row."""
    nums, scale = int_form(m.entries)
    c = m.cols
    return tuple({j: x for j, x in enumerate(nums[i * c:(i + 1) * c]) if x}
                 for i in range(m.rows)), scale


# The problem-file reader as it was before one walker read every section:
# a ``_list`` per level, a path string per row, and its own token read.

_ORACLE_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def oracle_token(obj) -> Fraction:
    """A JSON int, or a string p or p/q of ASCII digits with q > 0, as a
    Fraction; otherwise the reader's error, naming no path."""
    if type(obj) is int:
        return Fraction(obj)
    if isinstance(obj, float):
        raise ParseError("floats are not accepted; use rational strings")
    if isinstance(obj, str) and _ORACLE_RATIONAL.fullmatch(obj):
        num, _, den = obj.partition("/")
        try:
            if int(den or 1):
                return Fraction(int(num), int(den or 1))
        except ValueError:  # past the int digit limit
            pass
    text = repr(obj)
    raise ParseError("not an exact rational: "
                     + (text if len(text) <= 64 else f"{text[:32]}... ({len(text)} characters)"))


def oracle_row(obj, length: int, path: str) -> tuple:
    out = []
    for i, x in enumerate(_list(obj, path, length)):
        try:
            out.append(oracle_token(x))
        except ParseError as exc:
            raise ParseError(f"{path}[{i}]: {exc}") from None
    return tuple(out)


def oracle_matrix(obj, rows: int, cols: int, path: str) -> H.Matrix:
    return H.Matrix(rows, cols, tuple(x for r, row in enumerate(_list(obj, path, rows))
                                      for x in oracle_row(row, cols, f"{path}[{r}]")))


def oracle_matrices(obj, count: int | None, rows: int, cols: int, path: str) -> tuple:
    return tuple(oracle_matrix(m, rows, cols, f"{path}[{k}]") for k, m in enumerate(_list(obj, path, count)))


def oracle_tensor3(obj, d0: int, d1: int, d2: int, path: str):
    return tuple(tuple(oracle_row(inner, d2, f"{path}[{i}][{j}]")
                       for j, inner in enumerate(_list(mid, f"{path}[{i}]", d1)))
                 for i, mid in enumerate(_list(obj, path, d0)))


def _oracle_count(doc, key: str, path: str, least: int = 1) -> int:
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected an object")
    n = _int(_need(doc, key, path), f"{path}.{key}")
    if n < least:
        raise ParseError(f"{path}.{key}: must be >= {least}")
    return n


def oracle_parse_algebra(doc, path: str = "algebra") -> H.Algebra:
    dim = _oracle_count(doc, "dim", path)
    table = oracle_tensor3(_need(doc, "table", path), dim, dim, dim, f"{path}.table")
    labels = doc.get("basis")
    labels = [str(x) for x in _list([f"e{i}" for i in range(dim)] if labels is None else labels,
                                    f"{path}.basis", dim)]
    unit = doc.get("unit")
    if unit is not None:
        unit = _int(unit, f"{path}.unit")
        if not 0 <= unit < dim:
            raise ParseError(f"{path}.unit: index {unit} out of range")
    return H.Algebra.from_table(table, labels, unit)


def oracle_parse_hder(doc, dim: int, path: str = "hder") -> H.HigherDerivation:
    nrank = _oracle_count(doc, "rank", path)
    maps = oracle_matrices(_need(doc, "maps", path), nrank, dim, dim, f"{path}.maps")
    return H.HigherDerivation(nrank, maps)


def oracle_parse_bimodule(doc, dim: int, nrank: int, path: str = "bimodule") -> H.Bimodule:
    mdim = _oracle_count(doc, "mdim", path)
    left = oracle_tensor3(_need(doc, "left", path), dim, mdim, mdim, f"{path}.left")
    right = oracle_tensor3(_need(doc, "right", path), mdim, dim, mdim, f"{path}.right")
    return bimodule_from_tensors(mdim, left, right,
                                 oracle_matrices(_need(doc, "dmaps", path), nrank, mdim, mdim, f"{path}.dmaps"))


def oracle_parse_cochain(doc, dim: int, mdim: int, nrank: int, path: str = "cochain") -> H.Cochain:
    n = _oracle_count(doc, "n", path)
    main = H.MultiMap(n, dim, mdim, oracle_row(_need(doc, "main", path), dim ** n * mdim, f"{path}.main"))
    if n == 1:
        return H.Cochain.from_maps(main)
    parts = _list(_need(doc, "parts", path), f"{path}.parts", nrank)
    return H.Cochain.from_maps(main, tuple(H.MultiMap(n - 1, dim, mdim, oracle_row(p, dim ** (n - 1) * mdim,
                                                                                   f"{path}.parts[{k}]"))
                                           for k, p in enumerate(parts)))


def oracle_parse_tensor_section(doc, path: str = "tensor") -> tuple:
    vdim = _oracle_count(doc, "vdim", path)
    degree = doc.get("degree")
    if degree is not None:
        degree = _int(degree, f"{path}.degree")
    theta_docs = _list(_need(doc, "thetas", path), f"{path}.thetas")
    if not theta_docs:
        raise ParseError(f"{path}.thetas: at least one map is required")
    return vdim, degree, oracle_matrices(theta_docs, None, vdim, vdim, f"{path}.thetas")


def oracle_parse_deformation(doc, dim: int, nrank: int, path: str = "deformation") -> H.Deformation:
    """``serialize.parse_deformation`` as it read a family through Fractions:
    each mu_p a ``MultiMap`` of the parsed tensor, each d_{k,s} a parsed
    ``Matrix`` made an arity-1 ``MultiMap``, the coefficients ``Cochain``s.
    The reference for the integer reader, its tables and its errors."""
    order = _oracle_count(doc, "order", path, 0)
    mu_docs = _list(_need(doc, "mu", path), f"{path}.mu", order + 1)
    mus = [H.MultiMap(2, dim, dim, tensor_values(oracle_tensor3(t, dim, dim, dim, f"{path}.mu[{p}]")))
           for p, t in enumerate(mu_docs)]
    dks = [[H.matrix_to_multimap(m) for m in oracle_matrices(series, order + 1, dim, dim, f"{path}.d[{k}]")]
           for k, series in enumerate(_list(_need(doc, "d", path), f"{path}.d", nrank))]
    return H.Deformation.from_coeffs(tuple(H.Cochain.from_maps(mu, tuple(series[s] for series in dks))
                               for s, mu in enumerate(mus)))


# tokens the reader rejects: floats, bools, null, unhashable leaves, strings
# outside -?digits(/digits)?, a zero denominator, past the int digit limit
BAD_TOKENS = (0.5, 1.0, True, False, None, [1], [], {"a": 1}, "+3", " 3", "0.5", "1e5", "1/0",
              "-0/0", "\u0663", "9" * 5000, "1/" + "7" * 5000)


def spelled(x: Fraction, rng: random.Random):
    """One of the JSON tokens that read as x: a JSON int, "p", "p/q" times
    a common factor, or for zero "-0" and "0/q"."""
    if not x:
        return rng.choice((0, "0", "-0", "0/5", "-0/7"))
    k = rng.choice((1, 1, 2, 3))
    if x.denominator == k == 1:
        return rng.choice((x.numerator, str(x.numerator)))
    return f"{x.numerator * k}/{x.denominator * k}"


def fraction_trivial_deformation(alg: H.Algebra, hd: H.HigherDerivation, order: int) -> H.Deformation:
    """``deform.trivial_deformation`` as it built its coefficients as
    Fraction cochains: the reference for the one built on the order-0
    vector of the pair's law tables."""
    if order < 0:
        raise H.ShapeError("order must be >= 0")
    return H.Deformation.from_coeffs((H.Cochain.from_maps(H.product_multimap(alg), tuple(map(H.matrix_to_multimap, hd.maps))),)
                         + (H.zero_cochain(alg.dim, alg.dim, hd.rank, 2),) * order)


def fraction_extend_deformation(defm: H.Deformation, candidate: H.Cochain) -> H.Deformation:
    """``deform.extend_deformation`` as it appended a Fraction cochain to
    ``coeffs``: the reference for the order appended to the law tables."""
    if candidate.n != 2 or len(candidate.parts) != defm.rank:
        raise H.ShapeError("candidate must be a 2-cochain with one part per derivation map")
    return H.Deformation.from_coeffs(defm.coeffs + (candidate,))


def fraction_truncate_deformation(defm: H.Deformation, order: int) -> H.Deformation:
    """``deform.truncate_deformation`` as it sliced ``coeffs``: the reference
    for the slice of the law tables' orders."""
    if order < 0:
        raise ValueError("cannot truncate to a negative order")
    if order > defm.order:
        raise ValueError("cannot truncate to a higher order")
    return H.Deformation.from_coeffs(defm.coeffs[:order + 1])


def fraction_apply_gauge(defm: H.Deformation, gauge: H.GaugeMap) -> H.Deformation:
    """``deform.apply_gauge`` as it returned Fraction cochains: the same
    packed conjugation, read back as cochains."""
    dim, T, tables = defm.dim, defm.order, defm.tables
    if gauge.dim != dim:
        raise H.ShapeError("gauge dimension differs from the deformation")
    series = [tables._tables[0], *tables._tables[2:]]
    state = [list(itertools.chain(*(ser[s][0] for ser in series))) for s in range(T + 1)]
    members, e = deform._gauge_members(gauge, T)
    steps, growth = deform._growth(members, e, dim, T)
    p = algebras._Packed(max(1, *map(abs, itertools.chain(*state))) * growth, T + 1)
    state = deform._conjugate(p, p.pack(state), p.pack(members), e, steps)
    return H.Deformation.from_coeffs(tuple(H.Cochain(dim, dim, defm.rank, 2, (m, tables.den * e ** (steps + 2)))
                                           for m in p.members(state)))


def law_table_members(tables: LawTables) -> list:
    """The members of ``tables`` as lists, whichever sequence holds them."""
    return [[(list(flat), mx, l1) for flat, mx, l1 in ser] for ser in tables._tables]


def reduced_matrix(m: H.Matrix) -> tuple[H.Matrix, tuple[int, ...]]:
    """``echelon(m).reduced()`` as a rows x cols matrix of Fractions (each
    integer row divided by its pivot, zero rows at the bottom) and the tuple
    of pivot columns: the kernel's RREF in the form of ``dense_rref``."""
    rows = echelon(m).reduced()
    pivots = tuple(sorted(rows))
    entries = [ZERO] * (m.rows * m.cols)
    for i, p in enumerate(pivots):
        for j, x in rows[p].items():
            entries[i * m.cols + j] = Fraction(x, rows[p][p])
    return H.Matrix(m.rows, m.cols, tuple(entries)), pivots


def kernels_by_route(m: H.Matrix, bound: int | None = None) -> list[tuple]:
    """``null_space(m, bound)`` read off the solve factor and by the
    bounded row echelon, each route forced by the column limit: for each,
    the free columns, the entries in lowest terms and the forms."""
    views = []
    for limit in (m.cols, m.cols - 1):
        with mock.patch.object(exactlin, "FACTOR_KERNEL_COLS", limit):
            k = exactlin.null_space(m, bound)
        views.append((k.free, [(f, sorted((p, Fraction(x, q)) for p, x, q in entries))
                               for f, entries in k.entries()], list(k.forms())))
    return views


def dense_rref(m: H.Matrix) -> tuple[H.Matrix, tuple[int, ...]]:
    """Reduced row echelon form by dense rational Gauss-Jordan.

    First-nonzero pivoting on full rows; the reference for ``reduced_matrix``.
    """
    work = to_rows(m)
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        pivot_row = None
        for r in range(pr, m.rows):
            if work[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            work[pr], work[pivot_row] = work[pivot_row], work[pr]
        inv = ONE / work[pr][pc]
        if inv != ONE:
            work[pr] = [inv * x for x in work[pr]]
        for r in range(m.rows):
            if r == pr:
                continue
            factor = work[r][pc]
            if factor:
                prow = work[pr]
                work[r] = [x - factor * p for x, p in zip(work[r], prow)]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return H.Matrix.from_rows(work) if m.rows else m, tuple(pivots)


def dense_kernel_basis(m: H.Matrix) -> list[tuple]:
    """Kernel basis read off ``dense_rref``, one vector per free column."""
    red, pivots = dense_rref(m)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red.entry(r, f)
        basis.append(tuple(v))
    return basis


def dense_solve_affine(m: H.Matrix, b: tuple) -> tuple | None:
    """Particular solution read off the dense RREF of ``[m | b]``, or None."""
    aug = H.Matrix(m.rows, m.cols + 1,
                   tuple(x for i in range(m.rows) for x in (*m.row(i), b[i])))
    red, pivots = dense_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ZERO] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.entry(r, m.cols)
    return tuple(x)


def compose_slot(mm: H.MultiMap, slot: int, mat: H.Matrix) -> H.MultiMap:
    """Precompose one argument slot of a multimap with a dim x dim matrix."""
    n, d, md = mm.arity, mm.dim, mm.mdim
    pos_stride = d ** (n - 1 - slot)
    nz_by_col = [[(b, mat.entry(b, c)) for b in range(d) if mat.entry(b, c)]
                 for c in range(d)]
    out = [ZERO] * len(mm.values)
    for flat in range(d ** n):
        c = (flat // pos_stride) % d
        nz = nz_by_col[c]
        if not nz:
            continue
        base = flat * md
        for b, val in nz:
            src = base + (b - c) * pos_stride * md
            for m in range(md):
                x = mm.values[src + m]
                if x:
                    out[base + m] += val * x
    return H.MultiMap(n, d, md, tuple(out))


def postcompose(mm: H.MultiMap, mat: H.Matrix) -> H.MultiMap:
    """Apply a matrix on the module side of a multimap."""
    n, d, md = mm.arity, mm.dim, mm.mdim
    out: list[Fraction] = []
    for flat in range(d ** n):
        base = flat * md
        out.extend(mat.apply(mm.values[base:base + md]))
    return H.MultiMap(n, d, mat.rows, tuple(out))


def _add_middle_sum(alg: H.Algebra, f: H.MultiMap, idx: tuple[int, ...], acc: list) -> None:
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


def delta_hoch(alg: H.Algebra, mod: H.Bimodule, f: H.MultiMap) -> H.MultiMap:
    """The classical Hochschild coboundary with respect to the actions."""
    n, d, md = f.arity, alg.dim, mod.mdim
    values: list[Fraction] = []
    for idx in itertools.product(range(d), repeat=n + 1):
        acc = list(act_left(mod, alg.basis_vector(idx[0]), f.value_at(idx[1:])))
        _add_middle_sum(alg, f, idx, acc)
        tail = act_right(mod, f.value_at(idx[:n]), alg.basis_vector(idx[n]))
        tail_sign = -1 if n % 2 == 0 else 1  # (-1)^{n+1}
        for b in range(md):
            if tail[b]:
                acc[b] += tail_sign * tail[b]
        values.extend(acc)
    return H.MultiMap(n + 1, d, md, tuple(values))


def delta_prime(alg: H.Algebra, mod: H.Bimodule, hd: H.HigherDerivation,
                parts) -> tuple[H.MultiMap, ...]:
    """The twisted Hochschild coboundary of an N-tuple of equal-arity maps.

    Component k pairs d_i against f_{k-i} in the two action terms, with
    f_0 = 0 dropping the boundary indices, and applies the plain alternating
    sum to f_k in the middle.
    """
    parts = tuple(parts)
    if len(parts) != hd.rank:
        raise H.ShapeError(f"{hd.rank} maps expected, got {len(parts)}")
    n, d, md = parts[0].arity, alg.dim, mod.mdim
    out = []
    for k in range(1, hd.rank + 1):
        fk = parts[k - 1]
        values: list[Fraction] = []
        for idx in itertools.product(range(d), repeat=n + 1):
            acc = [ZERO] * md
            for i in range(k):  # j = k - i >= 1
                avec = hd.apply(i, alg.basis_vector(idx[0]))
                term = act_left(mod, avec, parts[k - i - 1].value_at(idx[1:]))
                for b in range(md):
                    if term[b]:
                        acc[b] += term[b]
            _add_middle_sum(alg, fk, idx, acc)
            tail_sign = -1 if n % 2 == 0 else 1  # (-1)^{n+1}
            for i in range(1, k + 1):  # j = k - i, i >= 1
                avec = hd.apply(k - i, alg.basis_vector(idx[n]))
                term = act_right(mod, parts[i - 1].value_at(idx[:n]), avec)
                for b in range(md):
                    if term[b]:
                        acc[b] += tail_sign * term[b]
            values.extend(acc)
        out.append(H.MultiMap(n + 1, d, md, tuple(values)))
    return tuple(out)


def _compositions_nonneg(total: int, parts: int):
    """Ordered tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_nonneg(total - first, parts - 1):
            yield (first, *rest)


def delta_k(alg: H.Algebra, mod: H.Bimodule, hd: H.HigherDerivation,
            f: H.MultiMap, k: int) -> H.MultiMap:
    """sum over i_1+...+i_n = k of f o (d_{i_1} x ... x d_{i_n}) - d_k^M o f."""
    if not 1 <= k <= hd.rank:
        raise ValueError(f"k must be in 1..{hd.rank}")
    n = f.arity
    result = mm_neg(postcompose(f, mod.dmaps[k - 1]))
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
            g = compose_slot(g, slot, mat)
        if not dead:
            result = mm_add(result, g)
    return result


def oracle_differential(alg: H.Algebra, mod: H.Bimodule, hd: H.HigherDerivation,
                        c: H.Cochain) -> H.Cochain:
    """The coupled coboundary from whole-map operators, tuple by tuple.

    The reference for ``cochain.differential``: delta_hoch on the main map,
    and in part k delta' of the parts plus (-1)^n delta_k of the main map.
    """
    n = c.n
    if n == 1:
        parts = tuple(mm_neg(delta_k(alg, mod, hd, c.main, k))
                      for k in range(1, hd.rank + 1))
        return H.Cochain.from_maps(delta_hoch(alg, mod, c.main), parts)
    if len(c.parts) != hd.rank:
        raise H.ShapeError(f"cochain has {len(c.parts)} parts, rank is {hd.rank}")
    primed = delta_prime(alg, mod, hd, c.parts)
    sign = ONE if n % 2 == 0 else -ONE  # (-1)^n, n = source degree
    parts = tuple(mm_add(primed[k - 1], mm_scale(delta_k(alg, mod, hd, c.main, k), sign))
                  for k in range(1, hd.rank + 1))
    return H.Cochain.from_maps(delta_hoch(alg, mod, c.main), parts)


def differential_matrix_by_columns(alg: H.Algebra, mod: H.Bimodule,
                                   hd: H.HigherDerivation, n: int) -> H.Matrix:
    """The degree-n differential, one ``oracle_differential`` call per unit cochain."""
    src = H.cochain_dim(alg.dim, mod.mdim, hd.rank, n)
    cols = []
    for pos in range(src):
        unit = tuple(ONE if j == pos else ZERO for j in range(src))
        c = H.vector_to_cochain(alg.dim, mod.mdim, hd.rank, n, unit)
        cols.append(H.cochain_to_vector(oracle_differential(alg, mod, hd, c)))
    return H.Matrix.from_columns(cols)


def oracle_stencil_tables(alg: H.Algebra, mod: H.Bimodule, hd: H.HigherDerivation,
                          n: int) -> tuple:
    """The table that ``cochain._tuple_columns`` reads for the degree-n
    differential, built from the Fraction entries: the reference for
    ``cochain._tables(alg, mod, hd, n)``, which reads the integer forms.

    D_act is the common denominator of the products, the actions and the
    module maps, D_hd that of d_1, ..., d_N, and S = D_act * D_hd^n is the
    scale of every column (the last entry of the tuple).  ``lefts[a]`` and
    ``rights[a]`` list ``(u, b, x)`` for x * D_hd / S the coefficient of m_b
    in e_u m_a and in m_a e_u; ``factors[r]`` lists ``(i, j, x)`` for x / S
    the coefficient of e_r in e_i e_j; ``drows[q][u]`` is row u of
    D_hd * d_q as ``{i: x}``, with d_0 = id; ``dmcols[k - 1][a]`` is column a
    of S * d_k^M as ``{b: x}``."""
    def common_denominator(values):
        return math.lcm(*{x.denominator for x in values})

    d, md = alg.dim, mod.mdim
    dmaps = tuple((m.int_rows(), m.int_form[1]) for m in mod.dmaps)
    d_act = math.lcm(
        common_denominator(x for m in alg.c for inner in m for x in inner),
        common_denominator(x for t in (mod.left, mod.right) for m in t for inner in m
                           for x in inner),
        *(den for _, den in dmaps))
    maps = tuple((m.int_rows(), m.int_form[1]) for m in hd.maps)
    d_hd = math.lcm(*(den for _, den in maps))
    scale = d_act * d_hd ** n
    act = scale // d_hd  # an action entry always meets one entry of a d_q

    def num(x: Fraction, mult: int) -> int:
        return x.numerator * (mult // x.denominator)

    lefts = tuple([(u, b, num(x, act)) for u in range(d)
                   for b, x in enumerate(mod.left[u][a]) if x] for a in range(md))
    rights = tuple([(u, b, num(x, act)) for u in range(d)
                    for b, x in enumerate(mod.right[a][u]) if x] for a in range(md))
    factors: list[list] = [[] for _ in range(d)]
    for i, j in itertools.product(range(d), repeat=2):
        for r, x in enumerate(alg.c[i][j]):
            if x:
                factors[r].append((i, j, num(x, scale)))
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


def _series(defm: H.Deformation) -> tuple[list, list]:
    """(mus, dks) as the oracles index them: mus[s] is mu_s, dks[k - 1][s]
    the matrix of d_{k,s}."""
    mus = [c.main for c in defm.coeffs]
    dks = [[H.multimap_to_matrix(c.parts[k]) for c in defm.coeffs] for k in range(defm.rank)]
    return mus, dks


def _dcoeff(defm: H.Deformation, k: int, s: int) -> H.Matrix | None:
    """d_{k,s} with the constant-identity convention at k = 0; None means zero."""
    if k == 0:
        return H.Matrix.identity(defm.dim) if s == 0 else None
    mat = H.multimap_to_matrix(defm.coeffs[s].parts[k - 1])
    return None if mat.is_zero() else mat


def loop_verify_deformation(alg: H.Algebra, hd: H.HigherDerivation,
                            defm: H.Deformation) -> H.CheckReport:
    """All order-s equations for s = 0..order, as dense nested convolutions.

    The reference for ``deform.verify_deformation`` (same scan order, so the
    same first violation); the base coefficients must already match.
    """
    d = alg.dim
    basis = [alg.basis_vector(i) for i in range(d)]
    mus, _ = _series(defm)
    for s in range(defm.order + 1):
        for i, j, l in itertools.product(range(d), repeat=3):
            lhs = (ZERO,) * d
            rhs = (ZERO,) * d
            for p in range(s + 1):
                q = s - p
                lhs = vec_add(lhs, mm_eval(mus[p], (mus[q].value_at((i, j)), basis[l])))
                rhs = vec_add(rhs, mm_eval(mus[p], (basis[i], mus[q].value_at((j, l)))))
            if lhs != rhs:
                return H.CheckReport(
                    False, H.Violation(f"order-{s} associativity", (i, j, l), lhs, rhs))
        for k in range(1, defm.rank + 1):
            for i, j in itertools.product(range(d), repeat=2):
                lhs = (ZERO,) * d
                for p in range(s + 1):
                    mat = _dcoeff(defm, k, p)
                    if mat is not None:
                        lhs = vec_add(lhs, mat.apply(mus[s - p].value_at((i, j))))
                rhs = (ZERO,) * d
                for a in range(k + 1):
                    b = k - a
                    for p in range(s + 1):
                        for q in range(s - p + 1):
                            r = s - p - q
                            da = _dcoeff(defm, a, q)
                            db = _dcoeff(defm, b, r)
                            if a == 0 and q > 0:
                                continue
                            if b == 0 and r > 0:
                                continue
                            left = basis[i] if a == 0 else (da.apply(basis[i]) if da is not None else None)
                            right = basis[j] if b == 0 else (db.apply(basis[j]) if db is not None else None)
                            if left is None or right is None:
                                continue
                            rhs = vec_add(rhs, mm_eval(mus[p], (left, right)))
                if lhs != rhs:
                    return H.CheckReport(False, H.Violation(
                        f"order-{s} higher-derivation law k={k}", (i, j), lhs, rhs))
    return H.CheckReport.passed()


def loop_obstruction(alg: H.Algebra, hd: H.HigherDerivation,
                     defm: H.Deformation) -> H.Cochain:
    """All known terms of the order-(n+1) equations, summed term by term.

    The reference for ``deform.obstruction``: it keeps every term whose
    coefficient indices stay at or below the stored order and needs no
    padding; the input is not verified here.
    """
    d = alg.dim
    n = defm.order
    basis = [alg.basis_vector(i) for i in range(d)]
    mus, dks = _series(defm)
    main_values: list[Fraction] = []
    for i, j, l in itertools.product(range(d), repeat=3):
        acc = (ZERO,) * d
        for p in range(1, n + 1):
            q = n + 1 - p
            if not 1 <= q <= n:
                continue
            left = mm_eval(mus[p], (mus[q].value_at((i, j)), basis[l]))
            right = mm_eval(mus[p], (basis[i], mus[q].value_at((j, l))))
            acc = vec_add(acc, tuple(x - y for x, y in zip(left, right)))
        main_values.extend(acc)
    main = H.MultiMap(3, d, d, tuple(main_values))
    parts = []
    for k in range(1, defm.rank + 1):
        values: list[Fraction] = []
        for i, j in itertools.product(range(d), repeat=2):
            acc = [ZERO] * d
            for p in range(1, n + 1):
                q = n + 1 - p
                if not 1 <= q <= n:
                    continue
                term = dks[k - 1][p].apply(mus[q].value_at((i, j)))
                for b in range(d):
                    if term[b]:
                        acc[b] += term[b]
            for a in range(k + 1):
                bb = k - a
                for p in range(n + 1):
                    for q in range(n + 1):
                        r = n + 1 - p - q
                        if not 0 <= r <= n:
                            continue
                        if a == 0 and q > 0:
                            continue
                        if bb == 0 and r > 0:
                            continue
                        da = _dcoeff(defm, a, q)
                        db = _dcoeff(defm, bb, r)
                        left = basis[i] if a == 0 else (da.apply(basis[i]) if da is not None else None)
                        right = basis[j] if bb == 0 else (db.apply(basis[j]) if db is not None else None)
                        if left is None or right is None:
                            continue
                        term = mm_eval(mus[p], (left, right))
                        for b in range(d):
                            if term[b]:
                                acc[b] -= term[b]
            values.extend(acc)
        parts.append(H.MultiMap(2, d, d, tuple(values)))
    return H.Cochain.from_maps(main, tuple(parts))


def dense_series_product(a, b, order: int) -> list[H.Matrix]:
    """Coefficients 0..order of (sum_p a_p t^p)(sum_q b_q t^q), every term a
    dense Fraction product: the reference for ``deform.gauge_compose``."""
    return [functools.reduce(mat_add, (a[p] * b[s - p] for p in range(s + 1)),
                             H.Matrix.zeros(a[0].rows, b[0].cols))
            for s in range(order + 1)]


def dense_series_inverse(phis) -> list[H.Matrix]:
    """The inverse series Psi of Phi (Phi_0 = id) to Phi's order, from
    Psi_s = -sum_{q=1..s} Psi_{s-q} Phi_q: the reference for
    ``deform.gauge_inverse`` and the Psi of ``dense_apply_gauge``."""
    dim = phis[0].rows
    psis = [H.Matrix.identity(dim)]
    for s in range(1, len(phis)):
        acc = H.Matrix.zeros(dim, dim)
        for q in range(1, s + 1):
            acc = mat_add(acc, psis[s - q] * phis[q])
        psis.append(mat_neg(acc))
    return psis


def dense_apply_gauge(defm: H.Deformation, gauge: H.GaugeMap) -> H.Deformation:
    """mu' = Psi mu (Phi x Phi), d' = Psi d Phi with dense Fraction multimaps.

    The reference for ``deform.apply_gauge``: the gauge is padded or
    truncated to the deformation's order, Psi is ``dense_series_inverse``,
    and every term is composed slot by slot and added.
    """
    dim, T = defm.dim, defm.order
    mus_in, dks_in = _series(defm)
    phis = [gauge.phis[s] if s <= gauge.order else H.Matrix.zeros(dim, dim)
            for s in range(T + 1)]
    psis = dense_series_inverse(phis)
    mus = []
    for s in range(T + 1):
        acc = H.MultiMap.zero(2, dim, dim)
        for p, q, r in itertools.product(range(s + 1), repeat=3):
            w = s - p - q - r
            if w >= 0:
                term = compose_slot(compose_slot(mus_in[q], 0, phis[r]), 1, phis[w])
                acc = mm_add(acc, postcompose(term, psis[p]))
        mus.append(acc)
    dks = []
    for series in dks_in:
        new = []
        for s in range(T + 1):
            acc = H.Matrix.zeros(dim, dim)
            for p, q in itertools.product(range(s + 1), repeat=2):
                if p + q <= s:
                    acc = mat_add(acc, psis[p] * series[q] * phis[s - p - q])
            new.append(acc)
        dks.append(tuple(new))
    return H.Deformation.from_coeffs(tuple(
        H.Cochain.from_maps(mus[s], tuple(H.matrix_to_multimap(series[s]) for series in dks))
        for s in range(T + 1)))


def known_defect(defm: H.Deformation) -> H.Cochain:
    """The obstruction 3-cochain of ``defm``, unverified."""
    return H.Cochain(defm.dim, defm.dim, defm.rank, 3, deform._defect(defm.tables))


def two_scan_extend_to(alg: H.Algebra, hd: H.HigherDerivation, defm: H.Deformation,
                       target: int) -> tuple[H.Deformation, H.Cochain | None]:
    """Order-by-order extension of Fraction deformations that scans each
    appended order twice: once for the known defect, and in full after the
    solve.  The reference for ``deform.extend_to``; the solve is looked up
    as ``deform.solve_ints`` at call time, so a test can replace it for
    both."""
    deform._require_verified(alg, hd, defm)
    m = H.differential_matrix(alg, H.adjoint_bimodule(alg, hd), hd, 2)
    current = defm
    while current.order < target:
        ob = known_defect(current)
        sol = deform.solve_ints(m, *int_form(H.cochain_to_vector(ob)))
        if sol is None:
            return current, ob
        current = H.extend_deformation(
            current, H.vector_to_cochain(alg.dim, alg.dim, hd.rank, 2, as_fractions(*sol)))
        tables, s = current.tables, current.order
        for k in range(tables.rank + 1):
            bad = tables.failure(k, s)
            if bad is not None:
                raise RuntimeError("appended coefficient does not verify: "
                                   f"{deform._violation(s, k, *bad, tables.scale(k))}")
    return current, None


def loop_trivialize(alg: H.Algebra, hd: H.HigherDerivation, defm: H.Deformation,
                    max_order: int | None = None) -> H.TrivializeOutcome:
    """Kill the lowest nonzero coefficient by a shear id + t^r h, one
    Fraction deformation and gauge per step (``apply_gauge`` and
    ``gauge_compose``).  The reference for ``deform.trivialize``."""
    deform._require_verified(alg, hd, defm)
    T = defm.order if max_order is None else max_order
    if T > defm.order:
        raise ValueError("cannot trivialize past the stored order")
    dim = alg.dim
    current = H.truncate_deformation(defm, T)
    acc = H.GaugeMap.identity(dim, T)
    mod = H.adjoint_bimodule(alg, hd)
    while True:
        lowest = next((s for s in range(1, T + 1) if not current.coeffs[s].is_zero()), None)
        if lowest is None:
            return H.TrivializeOutcome(acc)
        coeff = current.coeffs[lowest]
        h = H.is_coboundary(alg, mod, hd, cochain_neg(coeff))
        if h is None:
            return H.TrivializeOutcome(None, lowest, coeff)
        phis = [H.Matrix.identity(dim)] + [H.Matrix.zeros(dim, dim)] * T
        phis[lowest] = H.multimap_to_matrix(h.main)
        step = H.GaugeMap(T, tuple(phis))
        current = H.apply_gauge(current, step)
        acc = H.gauge_compose(acc, step)


def _chunked(tables: LawTables) -> tuple[list, list]:
    """The oracles' own sparse view of the flat numerators of ``tables``:
    ``mus[p][i * d + j]`` = D mu_p(e_i, e_j) as ``{c: x}``, and
    ``dcols[k][s][c]`` = D times column c of d_{k,s} as ``{b: x}``, with
    d_{0,0} = id; zeros left out."""
    d = tables.dim

    def chunks(flat):
        return [{c: x for c, x in enumerate(flat[base:base + d]) if x}
                for base in range(0, len(flat), d)]

    return ([chunks(flat) for flat, _mx, _l1 in tables._tables[0]],
            [[chunks(flat) for flat, _mx, _l1 in ser] for ser in tables._tables[1:]])


def window_digits(tables: LawTables, packed: int, s: int) -> list[int]:
    """The d digits of order s of a packed side, read through a window of
    that order alone: 2^(B-1) added to each slot of orders 0..s, then the d
    slots of order s shifted down and masked.  The reference for the one
    offset of ``LawTables.codec``, which serves every order."""
    bits, d = tables.bits, tables.dim
    offset = ((1 << bits * d * (s + 1)) - 1) // ((1 << bits) - 1) << bits - 1
    block = (packed + offset) >> bits * d * s & (1 << bits * d) - 1
    return [(block >> bits * b & (1 << bits) - 1) - (1 << bits - 1) for b in range(d)]


def oracle_associativity_terms(tables: LawTables, s: int = 0, at=None):
    """Yields ``(0, (i, j, l), lhs, rhs, D^2)`` in scan order, the numerators of
    sum_{p+q=s} mu_p(mu_q(e_i, e_j), e_l) = sum_{p+q=s} mu_p(e_i, mu_q(e_j, e_l))
    over D^2, summed term by term on the integer tables, with mu_p past the
    last one stored taken as zero.  ``at`` lists the basis triples to scan,
    in order; by default all of them.  The reference for the associativity
    sides of ``algebras.LawTables``."""
    (mus, _dcols), den = _chunked(tables), tables.den
    d, n = tables.dim, len(mus) - 1
    pairs = [(mus[p], mus[s - p]) for p in range(max(0, s - n), min(s, n) + 1)]
    for i, j, l in itertools.product(range(d), repeat=3) if at is None else at:
        lhs, rhs = [0] * d, [0] * d
        for mp, mq in pairs:
            for c, x in mq[i * d + j].items():
                for b, y in mp[c * d + l].items():
                    lhs[b] += x * y
            for c, x in mq[j * d + l].items():
                for b, y in mp[i * d + c].items():
                    rhs[b] += x * y
        yield 0, (i, j, l), lhs, rhs, den * den


def oracle_derivation_law_terms(tables: LawTables, s: int = 0, at=None):
    """Yields ``(k, (i, j), lhs, rhs, D^3)`` for k = 1..N in scan order, the
    numerators of sum_p d_{k,p}(mu_{s-p}(e_i, e_j)) = sum_{a+b=k}
    sum_{p+q+r=s} mu_p(d_{a,q} e_i, d_{b,r} e_j) over D^3 (the lhs scaled by
    D), summed term by term, with terms past the last stored order taken as
    zero.  ``at`` lists the basis pairs scanned for each k, in order; by
    default all of them.  The reference for the law sides of
    ``algebras.LawTables``."""
    (mus, dcols), den = _chunked(tables), tables.den
    d, n = tables.dim, len(mus) - 1
    at = list(itertools.product(range(d), repeat=2)) if at is None else at
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


def oracle_verify_algebra(alg: H.Algebra) -> H.CheckReport:
    """Associativity as ``_contract`` products of basis vectors, then the
    unit laws: the reference for ``algebras.verify_algebra``."""
    d = alg.dim
    c = alg.c
    basis = [alg.basis_vector(i) for i in range(d)]
    for i, j, l in itertools.product(range(d), repeat=3):
        lhs = _contract(c, c[i][j], basis[l], d)
        rhs = _contract(c, basis[i], c[j][l], d)
        if lhs != rhs:
            return H.CheckReport.failed("associativity", (i, j, l), lhs, rhs)
    u = alg.unit_index
    if u is not None:
        for j in range(d):
            ej = alg.basis_vector(j)
            if c[u][j] != ej:
                return H.CheckReport.failed("left unit law", (u, j), c[u][j], ej)
            if c[j][u] != ej:
                return H.CheckReport.failed("right unit law", (j, u), c[j][u], ej)
    return H.CheckReport.passed()


def oracle_leibniz_check(t, maps: tuple, law: str) -> H.CheckReport:
    """d_k(e_i e_j) = sum_{p+q=k} d_p(e_i) d_q(e_j) for k = 1..len(maps) on all
    basis pairs, the product being the contraction with ``t`` and d_0 = id."""
    d = len(t)
    # images[p][i] = d_p(e_i)
    images = [[tuple(ONE if r == i else ZERO for r in range(d)) for i in range(d)]]
    images += [[m.column(i) for i in range(d)] for m in maps]
    for k in range(1, len(maps) + 1):
        for i, j in itertools.product(range(d), repeat=2):
            lhs = maps[k - 1].apply(t[i][j])
            rhs = (ZERO,) * d
            for p in range(k + 1):
                rhs = vec_add(rhs, _contract(t, images[p][i], images[k - p][j], d))
            if lhs != rhs:
                return H.CheckReport.failed(law, (k, i, j), lhs, rhs)
    return H.CheckReport.passed()


def oracle_verify_hder(alg: H.Algebra, hd: H.HigherDerivation) -> H.CheckReport:
    """The reference for ``hder.verify_hder``."""
    return oracle_leibniz_check(alg.c, hd.maps, "higher derivation identity")


def oracle_verify_liehder(pair: H.LieHDerPair) -> H.CheckReport:
    """Antisymmetry, Jacobi, then the Fraction law scan: the reference for
    ``freecons.verify_liehder``."""
    d = pair.dim
    b = pair.bracket
    for i, j, k in itertools.product(range(d), repeat=3):
        if b[i][j][k] + b[j][i][k] != 0:
            return H.CheckReport.failed("antisymmetry", (i, j, k))
    for i, j, k in itertools.product(range(d), repeat=3):
        ei, ej, ek = (pair.basis_vector(t) for t in (i, j, k))
        total = vec_add(
            vec_add(pair.bracket_vec(pair.bracket_vec(ei, ej), ek),
                    pair.bracket_vec(pair.bracket_vec(ej, ek), ei)),
            pair.bracket_vec(pair.bracket_vec(ek, ei), ej))
        if any(total):
            return H.CheckReport.failed("jacobi identity", (i, j, k), total, (ZERO,) * d)
    return oracle_leibniz_check(b, pair.maps, "lie higher derivation identity")


def oracle_report_text(doc) -> str:
    """The json module's indented, key-sorted text: the reference for
    ``serialize.write_report``."""
    return json.dumps(doc, indent=2, sort_keys=True)


def plain_cohomology_payload(rep: H.CohomologyReport) -> dict:
    """The cohomology payload with its cocycle basis a plain list made from
    ``rep.cocycle_basis`` by ``cochain_to_json``: the reference for the
    streamed basis of ``serialize.cohomology_to_json``."""
    return {
        "degree": rep.degree,
        "dim_cochains": rep.dim_cochains,
        "dim_cocycles": rep.dim_cocycles,
        "dim_coboundaries": rep.dim_coboundaries,
        "betti": rep.betti,
        "cocycle_basis": [cochain_to_json(c) for c in rep.cocycle_basis],
    }


def materialized(doc):
    """``doc`` with each ``serialize.Streamed`` list made a plain list, as
    the json module can write it."""
    if isinstance(doc, Streamed):
        return [materialized(x) for x in doc]
    if isinstance(doc, dict):
        return {k: materialized(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [materialized(x) for x in doc]
    return doc


def oracle_verify_bimodule(alg: H.Algebra, hder, mod: H.Bimodule) -> H.CheckReport:
    """The module laws, bimodule compatibility and the module-side derivation
    laws scanned with the action contractions in Fractions: the reference for
    ``extensions.verify_bimodule``."""
    d, md = alg.dim, mod.mdim
    if len(mod.dmaps) != hder.rank:
        raise H.ShapeError(f"{hder.rank} module maps expected, got {len(mod.dmaps)}")
    for i, j, a in itertools.product(range(d), range(d), range(md)):
        ma = mod.basis_vector(a)
        prod = alg.basis_product(i, j)
        ei, ej = alg.basis_vector(i), alg.basis_vector(j)
        lhs = act_left(mod, prod, ma)
        rhs = act_left(mod, ei, act_left(mod, ej, ma))
        if lhs != rhs:
            return H.CheckReport.failed("left module law", (i, j, a), lhs, rhs)
        lhs = act_right(mod, ma, prod)
        rhs = act_right(mod, act_right(mod, ma, ei), ej)
        if lhs != rhs:
            return H.CheckReport.failed("right module law", (i, j, a), lhs, rhs)
        lhs = act_right(mod, act_left(mod, ei, ma), ej)
        rhs = act_left(mod, ei, act_right(mod, ma, ej))
        if lhs != rhs:
            return H.CheckReport.failed("bimodule compatibility", (i, j, a), lhs, rhs)
    for k in range(1, hder.rank + 1):
        for i, a in itertools.product(range(d), range(md)):
            ei = alg.basis_vector(i)
            ma = mod.basis_vector(a)
            lhs = mod.dmaps[k - 1].apply(act_left(mod, ei, ma))
            rhs = tuple(
                sum(col) for col in zip(*(
                    act_left(mod, hder.apply(p, ei), apply_dmap(mod, k - p, ma))
                    for p in range(k + 1))))
            if lhs != rhs:
                return H.CheckReport.failed("left derivation law", (k, i, a), lhs, rhs)
            lhs = mod.dmaps[k - 1].apply(act_right(mod, ma, ei))
            rhs = tuple(
                sum(col) for col in zip(*(
                    act_right(mod, apply_dmap(mod, p, ma), hder.apply(k - p, ei))
                    for p in range(k + 1))))
            if lhs != rhs:
                return H.CheckReport.failed("right derivation law", (k, i, a), lhs, rhs)
    return H.CheckReport.passed()


def oracle_check_morphism(mor: H.AssHDerMorphism) -> H.CheckReport:
    """Multiplicativity on basis pairs, then d_k f = f d_k as whole matrix
    products: the reference for ``hder.check_morphism``."""
    src, tgt, f = mor.source, mor.target, mor.matrix
    if src.hder.rank != tgt.hder.rank:
        raise H.ShapeError("source and target ranks differ")
    if f.rows != tgt.algebra.dim or f.cols != src.algebra.dim:
        raise H.ShapeError(
            f"morphism matrix is {f.rows}x{f.cols}, expected "
            f"{tgt.algebra.dim}x{src.algebra.dim}")
    d = src.algebra.dim
    for i, j in itertools.product(range(d), repeat=2):
        lhs = f.apply(src.algebra.basis_product(i, j))
        rhs = tgt.algebra.mult(f.column(i), f.column(j))
        if lhs != rhs:
            return H.CheckReport.failed("algebra morphism", (i, j), lhs, rhs)
    for k in range(1, src.hder.rank + 1):
        if tgt.hder.maps[k - 1] * f != f * src.hder.maps[k - 1]:
            return H.CheckReport.failed("intertwining", (k,))
    return H.CheckReport.passed()


def oracle_build_tensor_algebra(vdim: int, max_degree: int) -> H.TruncatedTensorAlgebra:
    """``freecons.build_tensor_algebra`` as it built the structure tensor in
    Fractions: the reference for the integer build."""
    if vdim < 1 or max_degree < 1:
        raise H.ShapeError("need vdim >= 1 and max_degree >= 1")
    words = tuple(w for length in range(max_degree + 1)
                  for w in itertools.product(range(vdim), repeat=length))
    index = {w: i for i, w in enumerate(words)}
    n = len(words)
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, u in enumerate(words):
        for j, w in enumerate(words):
            if len(u) + len(w) <= max_degree:
                c[i][j][index[u + w]] = ONE
    labels = tuple("⊗".join(f"v{i}" for i in w) if w else "1" for w in words)
    alg = H.Algebra.from_table(c, labels, unit_index=0)
    return H.TruncatedTensorAlgebra(vdim, max_degree, words, alg)


def oracle_extension_structure(alg: H.Algebra, hd: H.HigherDerivation, mod: H.Bimodule,
                               z: H.Cochain) -> H.AssHDerPair:
    """``extensions.extension_structure`` as it built the A + M pair from
    the Fraction tensors, the multimaps of z and the maps' rows: the
    reference for the build on integer forms."""
    if z.n != 2 or len(z.parts) != hd.rank:
        raise H.ShapeError(f"a 2-cochain with {hd.rank} parts is required, "
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
    total_alg = H.Algebra.from_table(c, labels)
    maps = []
    for k in range(1, hd.rank + 1):
        dk, dkm = hd.maps[k - 1], mod.dmaps[k - 1]
        fk = H.multimap_to_matrix(z.parts[k - 1])
        rows = [(*dk.row(r), *([ZERO] * md)) for r in range(d)]
        rows += [(*fk.row(r), *dkm.row(r)) for r in range(md)]
        maps.append(H.Matrix.from_rows(rows))
    return H.AssHDerPair(total_alg, H.HigherDerivation(hd.rank, tuple(maps)))


def oracle_cocycle_error(alg: H.Algebra, hd: H.HigherDerivation, mod: H.Bimodule,
                         z: H.Cochain) -> str | None:
    """The ``NotACocycleError`` text ``extension_from_cocycle`` gave from the
    Fraction differential of z, or None for a cocycle."""
    defect = H.differential(alg, mod, hd, z)
    if not defect.main.is_zero():
        return "delta_hoch of the bilinear component is nonzero"
    for k, part in enumerate(defect.parts, start=1):
        if not part.is_zero():
            return f"derivation cocycle condition fails at k={k}"
    return None


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def oracle_induced_tensor_hder(vdim: int, max_degree: int, thetas: tuple) -> H.HigherDerivation:
    """The induced maps on the truncated tensor algebra by their defining sum:
    the k-th map sends a word to the sum, over every composition
    (p_1, ..., p_s) of k placed on chosen slots i_1 < ... < i_s, of the word
    with theta_{p_l} applied at slot i_l.  Exponential in the number of
    maps; the reference for the recursion of ``freecons.induced_tensor_hder``."""
    words = H.build_tensor_algebra(vdim, max_degree).words
    index = {w: i for i, w in enumerate(words)}
    maps = []
    for k in range(1, len(thetas) + 1):
        cols = []
        for w in words:
            out = [ZERO] * len(words)
            for s in range(1, min(len(w), k) + 1):
                for comp in _compositions(k, s):
                    for slots in itertools.combinations(range(len(w)), s):
                        choices = [[(b, thetas[p - 1].entry(b, w[slot])) for b in range(vdim)
                                    if thetas[p - 1].entry(b, w[slot])]
                                   for slot, p in zip(slots, comp)]
                        for picks in itertools.product(*choices):
                            coeff = ONE
                            new = list(w)
                            for slot, (b, val) in zip(slots, picks):
                                coeff *= val
                                new[slot] = b
                            out[index[tuple(new)]] += coeff
            cols.append(tuple(out))
        maps.append(H.Matrix.from_columns(cols))
    return H.HigherDerivation(len(thetas), tuple(maps))


def oracle_universal_extension(tta: H.TruncatedTensorAlgebra, thetas: tuple,
                               target: H.AssHDerPair, f: H.Matrix) -> H.UniversalExtensionReport:
    """The word images built letter by letter, then multiplicativity on the
    word pairs of total degree <= max_degree and intertwining word by word:
    the reference for ``freecons.universal_extension``."""
    alg, hd = target.algebra, target.hder
    if len(thetas) != hd.rank:
        raise H.ShapeError(f"{hd.rank} generator maps expected, got {len(thetas)}")
    if f.rows != alg.dim or f.cols != tta.vdim:
        raise H.ShapeError(f"generator map is {f.rows}x{f.cols}, expected {alg.dim}x{tta.vdim}")
    for k in range(1, hd.rank + 1):
        if hd.maps[k - 1] * f != f * thetas[k - 1]:
            raise ValueError(f"generator map does not intertwine at k={k}")
    unital = alg.unit_index is not None
    unit_handling = "mapped-to-unit" if unital else "degree-zero-skipped"
    images = []
    for w in tta.words:
        if not w:
            images.append(alg.unit_vector() if unital else (ZERO,) * alg.dim)
            continue
        acc = f.column(w[0])
        for letter in w[1:]:
            acc = alg.mult(acc, f.column(letter))
        images.append(acc)
    lifted = H.Matrix.from_columns(images)
    _, induced = H.induced_tensor_hder(tta.vdim, tta.max_degree, thetas)

    def failed(law, at, lhs, rhs):
        return H.UniversalExtensionReport(False, H.Violation(law, at, lhs, rhs), lifted,
                                          unit_handling)

    for i, u in enumerate(tta.words):
        for j, w in enumerate(tta.words):
            if len(u) + len(w) > tta.max_degree or (not unital and (not u or not w)):
                continue
            lhs = lifted.apply(tta.algebra.basis_product(i, j))
            rhs = alg.mult(images[i], images[j])
            if lhs != rhs:
                return failed("multiplicativity", (i, j), lhs, rhs)
    for k in range(1, hd.rank + 1):
        for i, w in enumerate(tta.words):
            if not unital and not w:
                continue
            lhs = hd.maps[k - 1].apply(images[i])
            rhs = lifted.apply(induced.maps[k - 1].column(i))
            if lhs != rhs:
                return failed("intertwining", (k, i), lhs, rhs)
    return H.UniversalExtensionReport(True, None, lifted, unit_handling)


def oracle_cocycle_from_section(ext: H.ExtensionPair, section: H.Matrix | None = None) -> H.Cochain:
    """psi(a, b) = s(a)s(b) - s(ab) on basis pairs, then chi_k(a) =
    d_k^E s(a) - s d_k(a) column by column, each checked to land in M: the
    reference for ``extensions.cocycle_from_section``."""
    s = ext.section if section is None else section
    alg, total = ext.base.algebra, ext.total
    d, md = ext.dim, ext.mdim
    if s.rows != d + md or s.cols != d:
        raise H.ShapeError(f"section must be {d + md}x{d}")
    if ext.project * s != H.Matrix.identity(d):
        raise H.SectionError("matrix is not a section: p o s is not the identity")
    _check_induced_actions(ext, s)
    psi_values = []
    for i, j in itertools.product(range(d), repeat=2):
        prod = total.algebra.mult(s.column(i), s.column(j))
        diff = tuple(x - y for x, y in zip(prod, s.apply(alg.basis_product(i, j))))
        if any(diff[:d]):
            raise H.SectionError("section defect does not land in the module part")
        psi_values.extend(diff[d:])
    chis = []
    for k in range(1, ext.base.hder.rank + 1):
        chi_values = []
        for i in range(d):
            diff = tuple(x - y for x, y in zip(
                total.hder.maps[k - 1].apply(s.column(i)),
                s.apply(ext.base.hder.apply(k, alg.basis_vector(i)))))
            if any(diff[:d]):
                raise H.SectionError("derivation defect does not land in the module part")
            chi_values.extend(diff[d:])
        chis.append(H.MultiMap(1, d, md, tuple(chi_values)))
    return H.Cochain.from_maps(H.MultiMap(2, d, md, tuple(psi_values)), tuple(chis))


# ------------------------------------------------------- dataclass twins
# Each value class as it was written as a frozen dataclass: its fields in
# order, and a (name, default) pair where a default was given.
DATACLASS_FIELDS = {
    "Violation": ("law", "at", ("lhs", None), ("rhs", None)),
    "CheckReport": ("ok", ("violation", None)),
    "Algebra": ("dim", "int_form", "basis_labels", ("unit_index", None)),
    "Bimodule": ("mdim", "int_form", "dmaps"),
    "MultiMap": ("arity", "dim", "mdim", "values"),
    "Cochain": ("dim", "mdim", "nrank", "n", "int_form"),
    "CohomologyReport": ("degree", "dim_cochains", "dim_cocycles", "dim_coboundaries", "betti",
                         "shape", "kernel"),
    "Deformation": ("tables",),
    "GaugeMap": ("order", "phis"),
    "ExtendOutcome": ("candidate", "obstruction"),
    "TrivializeOutcome": ("gauge", ("blocked_order", None), ("blocking_class", None)),
    "ExtensionPair": ("base", "module", "total", "include", "project", "section"),
    "TruncatedTensorAlgebra": ("vdim", "max_degree", "words", "algebra"),
    "LieHDerPair": ("dim", "bracket", "maps"),
    "UniversalExtensionReport": ("ok", "violation", "map", "unit_handling"),
    "HigherDerivation": ("rank", "maps"),
    "AssHDerPair": ("algebra", "hder"),
    "AssHDerMorphism": ("source", "target", "matrix"),
}


def dataclass_twin(cls):
    """``cls`` as a ``dataclasses.make_dataclass`` class with the fields of
    ``DATACLASS_FIELDS`` and the methods ``cls`` states itself, so that
    ``==``, hash and repr are the ones ``dataclasses`` generates unless the
    class states its own.  ``CohomologyReport`` was ``eq=False`` with shape
    and kernel left out of its repr."""
    report = cls.__name__ == "CohomologyReport"
    specs, names = [], []
    for spec in DATACLASS_FIELDS[cls.__name__]:
        name, default = spec if isinstance(spec, tuple) else (spec, dataclasses.MISSING)
        names.append(name)
        specs.append((name, "object", dataclasses.field(
            default=default, repr=not (report and name in ("shape", "kernel")))))
    own = {k: v for k, v in vars(cls).items()
           if k not in ("__dict__", "__weakref__", "__annotations__", "__repr__", "_defaults", "_key")
           and k not in names}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace={**own, "_fields": tuple(names)},
                                      frozen=True, eq=not report)
