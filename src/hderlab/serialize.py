"""JSON problem files, report payloads and the report writer.

Rationals are JSON integers or strings "p/q" or "p" (ASCII digits, p maybe
"-"-signed), never floats.  Matrices are nested row lists; structure-constant
tensors are nested [i][j][k] lists; multilinear maps are flat row-major lists
matching the cochain value layout.  Parse errors carry the failing JSON path.

Every section is read by one walker, ``_pairs``: it checks the nesting of
the lists and reads each token through one cache, ``_pair`` (p/q in lowest
terms as two ints; an ``lru_cache`` keyed by value and type, so ``true``
never reads as ``1``, that keeps its last 256 tokens alive process-wide).
A file repeats few tokens many times, so a token is parsed about once per
file.  Paths are built only when the read fails, by ``_walk``, which
raises the first error, depth first.  Matrices keep their integer rows,
and algebras and bimodules are built on the one form they store
(``int_form``); only multimaps, the cochains' values, make Fractions, one
per distinct p/q.
Payloads format numerators over a denominator as ``rat_str`` would, with no
Fraction made (``_int_cells``: algebras, matrices, deformations and integer
cochains), or a multimap's rationals with ``rat_str`` (``exactlin.ZERO`` as
"0" by identity).
``write_report`` writes a payload exactly as ``json.dumps(doc, indent=2,
sort_keys=True)`` does, but encodes each list of strings with one C-level
join, and hands the text to a ``write`` callable in pieces.  A
:class:`Streamed` list is made and written one item at a time:
``cohomology_to_json`` writes each member of the cocycle basis as text made
from the sparse kernel form ``rep.kernel``, cells quoted as they are made
from the integers and every zero the one quoted "0", so neither the
Fraction basis, nor a dict per cocycle, nor the whole text exists at once.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebras import Algebra, Bimodule
from .cochain import Cochain, MultiMap, cochain_blocks
from .exactlin import ZERO, Matrix, rat_str
from .hder import HigherDerivation


class ParseError(ValueError):
    """Malformed problem file; the message names the offending path."""


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ParseError(f"{path}: missing required key '{key}'")
    return doc[key]


def _int(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ParseError(f"{path}: expected an integer")
    return obj


def _list(obj, path: str, length: int | None = None) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{path}: expected a list")
    if length is not None and len(obj) != length:
        raise ParseError(f"{path}: expected {length} entries, got {len(obj)}")
    return obj


def _count(doc, key: str, path: str, least: int = 1) -> int:
    """The integer ``doc[key]``, at least ``least``, of the object ``doc``."""
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected an object")
    n = _int(_need(doc, key, path), f"{path}.{key}")
    if n < least:
        raise ParseError(f"{path}.{key}: must be >= {least}")
    return n


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _shown(obj) -> str:
    """``repr(obj)``, cut to its first 32 characters when it is long."""
    text = repr(obj)
    if len(text) <= 64:
        return text
    return f"{text[:32]}... ({len(text)} characters)"


def _parse_pair(obj) -> tuple[int, int]:
    """A JSON int or a string ``-?digits(/digits)?`` as ``(p, q)``, p/q in
    lowest terms with q > 0; the error names no path."""
    if type(obj) is int:
        return obj, 1
    if isinstance(obj, float):
        raise ParseError("floats are not accepted; use rational strings")
    m = _RATIONAL.fullmatch(obj) if isinstance(obj, str) else None
    try:
        if m is not None and (q := int(m[2] or 1)):  # not "p/0"
            g = math.gcd(p := int(m[1]), q)
            return p // g, q // g
    except ValueError:  # past the int digit limit
        pass
    raise ParseError(f"not an exact rational: {_shown(obj)}")


# typed: True == 1 and hash(True) == hash(1), so an untyped key would let a
# cached 1 answer for true
_pair = functools.lru_cache(maxsize=256, typed=True)(_parse_pair)


def _leaves(obj, shape: tuple):
    """The entries of ``obj`` in order when it nests lists of the lengths
    in ``shape``, level by level; None when it does not."""
    level = [obj]
    for length in shape:
        if not all(isinstance(x, list) and len(x) == length for x in level):
            return None
        level = list(itertools.chain.from_iterable(level))
    return level


def _pairs(obj, shape: tuple, path: str) -> list[tuple[int, int]]:
    """The entries of ``obj``, nested lists of the lengths in ``shape``, in
    order, each as ``_pair`` reads it.  When that fails, ``_walk`` raises
    the first error, named by its path."""
    try:  # TypeError: another shape than the one asked for (None), or an unhashable entry
        return list(map(_pair, _leaves(obj, shape)))
    except (ParseError, TypeError):
        _walk(obj, shape, path)
        raise


def _walk(obj, shape: tuple, path: str) -> None:
    """Raise the ParseError of the first failing list or entry of ``obj``,
    depth first: a list's type and length before its items."""
    for i, x in enumerate(_list(obj, path, shape[0])):
        if len(shape) > 1:
            _walk(x, shape[1:], f"{path}[{i}]")
            continue
        try:
            _parse_pair(x)
        except ParseError as exc:
            raise ParseError(f"{path}[{i}]: {exc}") from None


def _fractions(pairs) -> list[Fraction]:
    """The pairs as Fractions, one made per distinct p/q, zero as ``ZERO``."""
    made = {pq: Fraction(*pq) if pq[0] else ZERO for pq in set(pairs)}
    return [made[pq] for pq in pairs]


def _rat_strs(values) -> list[str]:
    """``rat_str`` of each value; the shared ``ZERO`` is "0" without a call."""
    return ["0" if x is ZERO else rat_str(x) for x in values]


def _int_form(pairs) -> tuple[list[int], int]:
    """The ``(p, q)`` pairs, each in lowest terms, as numerators over the
    lcm of the q: their ``int_form``."""
    den = math.lcm(*{q for _p, q in pairs})
    return [p * (den // q) for p, q in pairs], den


def _matrices(obj, shape: tuple, path: str) -> tuple[Matrix, ...]:
    """The matrices of ``obj``, nested lists of the lengths in ``shape``,
    the last two its rows and columns, read by ``_pairs``; each is kept as
    its ``int_rows``, numerators over the lcm of its denominators."""
    *counts, rows, cols = shape
    pairs, out, size = _pairs(obj, shape, path), [], rows * cols
    for k in range(math.prod(counts)):
        nums, den = _int_form(pairs[k * size:k * size + size])
        out.append(Matrix.from_int_rows([{j: x for j, x in enumerate(nums[r * cols:r * cols + cols]) if x}
                                         for r in range(rows)], den, cols))
    return tuple(out)


def parse_matrix(obj, rows: int, cols: int, path: str) -> Matrix:
    return _matrices(obj, (rows, cols), path)[0]


def matrix_to_json(mat: Matrix) -> list[list[str]]:
    """The rows of cells, written from ``int_rows``."""
    rows, scale = mat.int_rows
    c = mat.cols
    cells = _int_cells([row.get(j, 0) for row in rows for j in range(c)], scale)
    return [cells[r * c:(r + 1) * c] for r in range(mat.rows)]


def parse_algebra(doc, path: str = "algebra") -> Algebra:
    dim = _count(doc, "dim", path)
    table = _int_form(_pairs(_need(doc, "table", path), (dim, dim, dim), f"{path}.table"))
    labels = doc.get("basis")
    if labels is None:
        labels = [f"e{i}" for i in range(dim)]
    labels = [str(x) for x in _list(labels, f"{path}.basis", dim)]
    unit = doc.get("unit")
    if unit is not None:
        unit = _int(unit, f"{path}.unit")
        if not 0 <= unit < dim:
            raise ParseError(f"{path}.unit: index {unit} out of range")
    return Algebra(dim, table, tuple(labels), unit)


def algebra_to_json(alg: Algebra) -> dict:
    """Written from ``alg.int_form``."""
    d = alg.dim
    cells = _int_cells(*alg.int_form)
    doc = {"dim": d, "basis": list(alg.basis_labels),
           "table": [[cells[b:b + d] for b in range(i, i + d * d, d)] for i in range(0, d ** 3, d * d)]}
    if alg.unit_index is not None:
        doc["unit"] = alg.unit_index
    return doc


def parse_hder(doc, dim: int, path: str = "hder") -> HigherDerivation:
    nrank = _count(doc, "rank", path)
    return HigherDerivation(nrank, _matrices(_need(doc, "maps", path), (nrank, dim, dim), f"{path}.maps"))


def hder_to_json(hd: HigherDerivation) -> dict:
    return {"rank": hd.rank, "maps": [matrix_to_json(m) for m in hd.maps]}


def parse_bimodule(doc, dim: int, nrank: int, path: str = "bimodule") -> Bimodule:
    mdim = _count(doc, "mdim", path)
    left = _pairs(_need(doc, "left", path), (dim, mdim, mdim), f"{path}.left")
    right = _pairs(_need(doc, "right", path), (mdim, dim, mdim), f"{path}.right")
    dmaps = _matrices(_need(doc, "dmaps", path), (nrank, mdim, mdim), f"{path}.dmaps")
    return Bimodule(mdim, _int_form(left + right), dmaps)


def parse_multimap(obj, arity: int, dim: int, mdim: int, path: str) -> MultiMap:
    return MultiMap(arity, dim, mdim, tuple(_fractions(_pairs(obj, (dim ** arity * mdim,), path))))


def multimap_to_json(mm: MultiMap) -> list[str]:
    return _rat_strs(mm.values)


def parse_cochain(doc, dim: int, mdim: int, nrank: int, path: str = "cochain") -> Cochain:
    n = _count(doc, "n", path)
    main = parse_multimap(_need(doc, "main", path), n, dim, mdim, f"{path}.main")
    if n == 1:
        return Cochain(main)
    size = dim ** (n - 1) * mdim
    values = _fractions(_pairs(_need(doc, "parts", path), (nrank, size), f"{path}.parts"))
    return Cochain(main, tuple(MultiMap(n - 1, dim, mdim, tuple(values[b:b + size]))
                               for b in range(0, len(values), size)))


def cochain_to_json(c: Cochain) -> dict:
    return {"n": c.n, "main": multimap_to_json(c.main),
            "parts": [multimap_to_json(p) for p in c.parts]}


def parse_two_cocycle(doc, dim: int, mdim: int, nrank: int, path: str) -> Cochain:
    c = parse_cochain(doc, dim, mdim, nrank, path)
    if c.n != 2:
        raise ParseError(f"{path}.n: a 2-cochain is required")
    return c


def parse_deformation(doc, dim: int, nrank: int, path: str = "deformation") -> Deformation:
    """The JSON holds mu_p as tensors and the d_{k,s} as matrices, series
    by series; ``deform.read_deformation`` makes the pairs the family's law
    tables, no Fraction made."""
    from .deform import read_deformation
    order = _count(doc, "order", path, 0)
    mu = _pairs(_need(doc, "mu", path), (order + 1, dim, dim, dim), f"{path}.mu")
    ds = _pairs(_need(doc, "d", path), (nrank, order + 1, dim, dim), f"{path}.d")
    return read_deformation(dim, order, mu, ds)


def _int_cells(nums, den: int) -> list[str]:
    """``rat_str`` of x/den for each int x, den > 0, with no Fraction made."""
    return [str(x // g) if (g := math.gcd(x, den)) == den else f"{x // g}/{den // g}" for x in nums]


def int_cochain_to_json(nums, den: int, shape: tuple[int, int, int], n: int) -> dict:
    """``cochain_to_json`` of the degree-n cochain nums / den of ``shape``."""
    cells = _int_cells(nums, den)
    main, *parts = cochain_blocks(*shape, n)
    return {"n": n, "main": cells[main], "parts": [cells[b] for b in parts]}


def deformation_to_json(defm: Deformation) -> dict:
    """Written from the 2-cochain vectors of ``defm.tables``, numerators
    over D: mu_p [i][j][k] at (i * d + j) * d + k, then d_{k,s} column by
    column."""
    tables = defm.tables
    d, dd, cells = tables.dim, tables.dim ** 2, [_int_cells(v, tables.den) for v in tables.orders]
    return {"order": tables.order,
            "mu": [[[c[x:x + d] for x in range(i, i + dd, d)] for i in range(0, d * dd, dd)] for c in cells],
            "d": [[[c[b + r:b + dd:d] for r in range(d)] for c in cells]
                  for b in range(d * dd, d * dd + tables.rank * dd, dd)]}


def parse_tensor_section(doc, path: str = "tensor") -> tuple[int, int | None, tuple[Matrix, ...]]:
    vdim = _count(doc, "vdim", path)
    degree = doc.get("degree")
    if degree is not None:
        degree = _int(degree, f"{path}.degree")
    theta_docs = _list(_need(doc, "thetas", path), f"{path}.thetas")
    if not theta_docs:
        raise ParseError(f"{path}.thetas: at least one map is required")
    return vdim, degree, _matrices(theta_docs, (len(theta_docs), vdim, vdim), f"{path}.thetas")


def gauge_to_json(gauge: GaugeMap) -> dict:
    return {"order": gauge.order, "phis": [matrix_to_json(m) for m in gauge.phis]}


def extension_to_json(ext: ExtensionPair) -> dict:
    return {
        "total": {"algebra": algebra_to_json(ext.total.algebra),
                  "hder": hder_to_json(ext.total.hder)},
        "i": matrix_to_json(ext.include),
        "p": matrix_to_json(ext.project),
        "s": matrix_to_json(ext.section),
    }


def cohomology_to_json(rep: CohomologyReport) -> dict:
    """The cohomology payload.  Its ``cocycle_basis`` is a :class:`Streamed`
    list written as text made from the sparse kernel form, so neither
    ``rep.cocycle_basis`` nor a dict of it is built; its ``items()`` make
    ``cochain_to_json`` of each member, for a reader that wants the values."""
    return {
        "degree": rep.degree,
        "dim_cochains": rep.dim_cochains,
        "dim_cocycles": rep.dim_cocycles,
        "dim_coboundaries": rep.dim_coboundaries,
        "betti": rep.betti,
        "cocycle_basis": Streamed(lambda: map(cochain_to_json, rep.cocycle_basis),
                                  functools.partial(_cocycle_texts, rep)),
    }


def _cocycle_texts(rep: CohomologyReport, newline: str):
    """The text of ``cochain_to_json`` of each member of ``rep.cocycle_basis``
    at the indent ``newline`` ends with, from the entries of ``rep.kernel``
    with no Fraction in between: cells quoted as they are made, every zero
    the one ``'"0"'``, x/q in lowest terms as ``rat_str`` writes it."""
    n, one = rep.degree, newline + "  "
    main, *parts = cochain_blocks(*rep.shape, n)
    for f, entries in rep.kernel.entries():
        cells = ['"0"'] * rep.kernel.cols
        cells[f] = '"1"'
        for p, x, q in entries:
            g = math.gcd(x, q)
            cells[p] = f'"{x // g}"' if g == q else f'"{x // g}/{q // g}"'
        yield (f'{{{one}"main": {_json_list(cells[main], one)},{one}"n": {n},{one}"parts": '
               f'{_json_list([_json_list(cells[b], one + "  ") for b in parts], one)}{newline}}}')


def check_report_to_json(report) -> dict:
    doc = {"ok": report.ok}
    if report.violation is not None:
        doc["violation"] = str(report.violation)
    return doc


class Streamed:
    """A report list whose items are made as they are written: ``items()``
    returns a fresh iterator over them, and ``texts(newline)``, if given,
    one over their JSON at the indent ``newline`` ends with, written as it
    stands.  :func:`write_report` takes one as the whole document or as a
    dict value."""

    __slots__ = ("items", "texts")

    def __init__(self, items, texts=None):
        self.items, self.texts = items, texts

    def __iter__(self):
        return self.items()


def write_report(doc, write, newline: str = "\n") -> None:
    """Pass the text of ``doc`` to ``write`` in pieces: dicts key by key, a
    :class:`Streamed` list item by item, anything else whole.  The pieces
    join to what ``json.dumps(doc, indent=2, sort_keys=True)`` writes (with
    each Streamed as its list), so a streamed list is never held as text.

    Covers what reports hold: dicts with str keys, lists, str, int, bool and
    None.  A list of strings is encoded in one join, where the json module's
    pure-Python encoder (which ``indent`` selects) makes a call per item.
    """
    if isinstance(doc, dict):
        inner = newline + "  "
        head = "{"
        for key, value in sorted(doc.items()):
            write(f"{head}{inner}{_quote(key)}: ")
            write_report(value, write, inner)
            head = ","
        write("{}" if head == "{" else newline + "}")
    elif isinstance(doc, Streamed):
        inner = newline + "  "
        head = "["
        for text in doc.texts(inner) if doc.texts else (_encode(item, inner) for item in doc):
            write(f"{head}{inner}{text}")
            head = ","
        write("[]" if head == "[" else newline + "]")
    else:
        write(_encode(doc, newline))


def _json_list(items, newline: str) -> str:
    """A JSON list of encoded ``items`` (a nonempty iterable or a list)."""
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"


def _encode(obj, newline: str) -> str:
    """``obj`` as JSON; ``newline`` is a line break plus the current indent."""
    if isinstance(obj, list):
        if obj and type(obj[0]) is str:
            try:
                return _json_list(map(_quote, obj), newline)
            except TypeError:  # not every item is a string
                pass
        return _json_list([_encode(x, newline + "  ") for x in obj], newline)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        pieces: list[str] = []
        write_report(obj, pieces.append, newline)
        return "".join(pieces)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
