"""Algebras, bimodules and the structures the extension and free-tensor
commands build are made on integer forms; each is checked here against the
Fraction build it replaced (``helpers.oracle_*``): the integer form, the
tensor views and the maps' entries, == and hash.  An algebra or a bimodule
stores one form, in lowest terms, whatever scale built it, and one
``__post_init__`` checks it; a matrix compares on its integer rows.  The
commands that read and write only these make no Fraction at all, nor does
a command run again in the same process, whose cache hits compare equal
structures.
"""

import fractions
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hderlab as H
from hderlab import cli, samples, serialize
from hderlab.exactlin import Echelon, ZERO

from helpers import (
    bimodule_from_tensors, oracle_build_tensor_algebra, oracle_cocycle_error, oracle_extension_structure,
    oracle_induced_tensor_hder, oracle_parse_algebra, oracle_parse_bimodule, oracle_token,
    pair_fixtures, rand_cochain, rand_fraction, rand_matrix, rescaled_pair, spelled,
)

FIXTURES = Path(__file__).parent / "fixtures"
_M2 = samples.matrix_algebra_2x2()
# the verified pairs, and M2(Q), where left and right actions differ
PAIRS = pair_fixtures() + [("m2/e12", _M2, H.power_commutator_hder(_M2, samples.matrix_unit_vector(1, 2), 1))]
PAIR_FILES = sorted(p.name for p in FIXTURES.glob("*.json") if "algebra" in json.loads(p.read_text()))


def _same_structure(got, want) -> None:
    """``got``, built on integers, against ``want``, built from Fractions:
    hash first (from the form alone), then the forms, the tensor views
    (one Fraction per distinct value, zeros the shared ZERO) and ==."""
    assert hash(got) == hash(want)
    assert got.int_form == want.int_form
    views = ("c",) if isinstance(want, H.Algebra) else ("left", "right")
    for name in views:
        tensor = getattr(got, name)
        assert tensor == getattr(want, name)
        values = [x for mid in tensor for row in mid for x in row]
        assert len(set(map(id, values))) == len(set(values))
        assert all(x is ZERO for x in values if not x)
    assert got == want


def _same_maps(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.rows, a.cols, a.entries) == (b.rows, b.cols, b.entries)
        assert a == b and hash(a) == hash(b)


def _respelled(obj, rng: random.Random):
    """The nested token lists ``obj`` with every token written another way
    that reads as the same rational."""
    if isinstance(obj, list):
        return [_respelled(x, rng) for x in obj]
    return spelled(oracle_token(obj), rng)


def _spelled_tensor(t, rng: random.Random) -> list:
    return [[[spelled(x, rng) for x in row] for row in mid] for mid in t]


@pytest.mark.parametrize("name", PAIR_FILES)
def test_fixture_sections_read_as_the_fraction_reader_does(name):
    doc = json.loads((FIXTURES / name).read_text())
    rng = random.Random(name)
    for spell in (False, True):
        section = dict(doc["algebra"])
        if spell:
            section["table"] = _respelled(section["table"], rng)
        alg = serialize.parse_algebra(section)
        _same_structure(alg, oracle_parse_algebra(section))
        if "bimodule" in doc:
            rank = doc["hder"]["rank"]
            section = dict(doc["bimodule"])
            if spell:
                section["left"], section["right"] = (_respelled(section[k], rng) for k in ("left", "right"))
            mod = serialize.parse_bimodule(section, alg.dim, rank)
            want = oracle_parse_bimodule(section, alg.dim, rank)
            _same_structure(mod, want)
            _same_maps(mod.dmaps, want.dmaps)


def _scaled(rng: random.Random, alg, hd):
    """The pair as it is, or in a basis rescaled by rationals, so that the
    structure constants and maps have denominators."""
    if rng.random() < 0.5:
        return alg, hd
    return rescaled_pair(alg, hd, tuple(Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2, 5)))
                                        for _ in range(alg.dim)))


def _sparse_matrix(rng: random.Random, n: int):
    return H.Matrix(n, n, tuple(Fraction(rng.choice((0, 0, 1, -1, 2, 3)), rng.choice((1, 2, 3, 5)))
                                for _ in range(n * n)))


def _tensor(rng: random.Random, d0: int, d1: int, d2: int):
    return tuple(tuple(tuple(rand_fraction(rng) for _ in range(d2)) for _ in range(d1)) for _ in range(d0))


def _modules(rng: random.Random, alg, hd, kind: str):
    """A coefficient module as the commands build it and as a Fraction
    build of the same tensors: the adjoint module, a file bimodule of
    random actions (no law need hold to build a total pair or take a
    differential) read from spelled tokens, or a trivial one with random
    module maps."""
    d = alg.dim
    if kind == "trivial":
        mdim = rng.randint(1, 2)
        dmaps = tuple(_sparse_matrix(rng, mdim) for _ in range(hd.rank))
        zeros = lambda d0, d1, d2: tuple(tuple((ZERO,) * d2 for _ in range(d1)) for _ in range(d0))
        return H.trivial_bimodule(alg, mdim, dmaps), bimodule_from_tensors(mdim, zeros(d, mdim, mdim),
                                                                           zeros(mdim, d, mdim), dmaps)
    if kind == "adjoint":
        return H.adjoint_bimodule(alg, hd), bimodule_from_tensors(d, alg.c, alg.c, hd.maps)
    mdim = rng.randint(1, 2)
    want = bimodule_from_tensors(mdim, _tensor(rng, d, mdim, mdim), _tensor(rng, mdim, d, mdim),
                                 tuple(rand_matrix(rng, mdim) for _ in range(hd.rank)))
    doc = {"mdim": mdim, "left": _spelled_tensor(want.left, rng), "right": _spelled_tensor(want.right, rng),
           "dmaps": [[[spelled(m.entry(i, j), rng) for j in range(mdim)] for i in range(mdim)]
                     for m in want.dmaps]}
    return serialize.parse_bimodule(doc, d, hd.rank), want


def _read_algebra(alg, rng: random.Random):
    return serialize.parse_algebra({"dim": alg.dim, "table": _spelled_tensor(alg.c, rng),
                                    "basis": list(alg.basis_labels)})


def _read_cochain(z, rng: random.Random):
    """z written with spelled tokens and read back, as the CLI reads one."""
    doc = {"n": 2, "main": [spelled(x, rng) for x in z.main.values],
           "parts": [[spelled(x, rng) for x in p.values] for p in z.parts]}
    return serialize.parse_two_cocycle(doc, z.main.dim, z.main.mdim, len(z.parts), "cocycle")


CASES = st.tuples(st.integers(0, len(PAIRS) - 1), st.sampled_from(("adjoint", "file", "trivial")),
                  st.integers(0, 2 ** 32))


@settings(max_examples=80, deadline=None)
@given(CASES)
def test_total_pair_matches_the_fraction_build(case):
    index, kind, seed = case
    rng = random.Random(seed)
    _name, alg, hd = PAIRS[index]
    alg, hd = _scaled(rng, alg, hd)
    mod, fraction_mod = _modules(rng, alg, hd, kind)
    _same_structure(mod, fraction_mod)
    z = rand_cochain(rng, alg.dim, mod.mdim, hd.rank, 2)
    if rng.random() < 0.4:  # zero parts, or a zero main map whose parts' denominators
        # are not the total algebra's: its form must still be in lowest terms
        z = H.Cochain(z.main, tuple(H.MultiMap.zero(1, alg.dim, mod.mdim) for _ in z.parts)) \
            if rng.random() < 0.5 else H.Cochain(H.MultiMap.zero(2, alg.dim, mod.mdim), z.parts)
    read_alg = _read_algebra(alg, rng)
    for got, want in ((H.extension_structure(read_alg, hd, mod, _read_cochain(z, rng)),
                       oracle_extension_structure(alg, hd, fraction_mod, z)),
                      (H.semidirect(read_alg, hd, mod),
                       oracle_extension_structure(alg, hd, fraction_mod,
                                                  H.zero_cochain(alg.dim, mod.mdim, hd.rank, 2)))):
        _same_structure(got.algebra, want.algebra)
        assert got.algebra.basis_labels == want.algebra.basis_labels
        assert got.algebra.unit_index is want.algebra.unit_index is None
        _same_maps(got.hder.maps, want.hder.maps)
        assert got == want and hash(got) == hash(want)


@settings(max_examples=80, deadline=None)
@given(CASES)
def test_cocycle_test_names_the_component_the_fraction_route_named(case):
    # a cocycle of the kernel basis, or one with an entry of its main map or
    # of one part moved: the same error text as the Fraction differential's
    index, kind, seed = case
    rng = random.Random(seed)
    _name, alg, hd = PAIRS[index]
    alg, hd = _scaled(rng, alg, hd)
    mod, fraction_mod = _modules(rng, alg, hd, kind)
    m = H.differential_matrix(alg, mod, hd, 2)
    vec = [ZERO] * m.cols
    for v in H.kernel_basis(m):
        c = rand_fraction(rng)
        vec = [a + c * b for a, b in zip(vec, v)]
    block = rng.choice(("none", "main", "part"))
    main = alg.dim ** 2 * mod.mdim
    if block != "none":
        at = rng.randrange(main) if block == "main" else rng.randrange(main, m.cols)
        vec[at] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 7)))
    z = H.vector_to_cochain(alg.dim, mod.mdim, hd.rank, 2, tuple(vec))
    want = oracle_cocycle_error(alg, hd, fraction_mod, z)
    if want is None:
        ext = H.extension_from_cocycle(alg, hd, mod, _read_cochain(z, rng))
        assert ext.total == oracle_extension_structure(alg, hd, fraction_mod, z)
        assert (ext.include, ext.project, ext.section) == (
            H.Matrix.from_rows([[int(r - alg.dim == c) for c in range(mod.mdim)] for r in range(ext.dim + ext.mdim)]),
            H.Matrix.from_rows([[int(r == c) for c in range(ext.dim + ext.mdim)] for r in range(ext.dim)]),
            H.Matrix.from_rows([[int(r == c) for c in range(ext.dim)] for r in range(ext.dim + ext.mdim)]))
    else:
        with pytest.raises(H.NotACocycleError) as err:
            H.extension_from_cocycle(alg, hd, mod, _read_cochain(z, rng))
        assert str(err.value) == want


def _fraction_classify(alg, hd, mod):
    """``classify_central`` as it chose its classes from the Fraction
    cocycle basis and built each extension from Fraction tensors."""
    report = H.cohomology(alg, mod, hd, 2)
    span = Echelon(H.differential_matrix(alg, mod, hd, 1).int_columns())
    chosen = []
    for cocycle in report.cocycle_basis:
        if span.add(dict(enumerate(H.cochain_to_vector(cocycle)))):
            chosen.append(cocycle)
        if len(chosen) == report.betti:
            break
    zero = H.zero_cochain(alg.dim, mod.mdim, hd.rank, 2)
    return [(z, oracle_extension_structure(alg, hd, mod, z)) for z in (zero, *chosen)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(PAIRS)), st.integers(0, 2 ** 32))
@example(len(PAIRS), 136)  # classes whose kernel entries sit over pivot values 2 and 4,
@example(len(PAIRS), 210)  # and 3 and 9
def test_central_classes_match_the_fraction_route(index, seed):
    rng = random.Random(seed)
    if index < len(PAIRS):
        _name, alg, hd = PAIRS[index]
        alg, hd = _scaled(rng, alg, hd)
    else:  # any maps are a higher derivation of a zero algebra; with sparse
        # maps over several denominators, a class's kernel vector can hold
        # entries over different pivot values
        d, rank = rng.randint(1, 2), rng.randint(1, 2)
        alg, hd = samples.zero_algebra(d), H.HigherDerivation(rank, tuple(_sparse_matrix(rng, d)
                                                                          for _ in range(rank)))
    mod, fraction_mod = _modules(rng, alg, hd, "trivial")
    got, want = H.classify_central(alg, hd, mod), _fraction_classify(alg, hd, fraction_mod)
    assert [z for z, _ in got] == [z for z, _ in want]
    for (_, ext), (_, total) in zip(got, want):
        assert ext.total == total and hash(ext.total) == hash(total)


@pytest.mark.parametrize("vdim,degree", [(1, 1), (1, 3), (1, 6), (2, 1), (2, 2), (3, 1)])
def test_tensor_algebra_matches_the_fraction_build(vdim, degree):
    got, want = H.build_tensor_algebra(vdim, degree), oracle_build_tensor_algebra(vdim, degree)
    _same_structure(got.algebra, want.algebra)
    assert got.algebra.basis_labels == want.algebra.basis_labels and got.algebra.unit_index == 0
    assert got == want and hash(got) == hash(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32))
def test_induced_maps_from_read_thetas_match_the_fraction_sum(vdim, degree, rank, seed):
    # thetas with denominators, read from spelled tokens as free-tensor reads them
    rng = random.Random(seed)
    thetas = tuple(rand_matrix(rng, vdim) for _ in range(rank))
    doc = {"vdim": vdim, "thetas": [[[spelled(t.entry(i, j), rng) for j in range(vdim)]
                                     for i in range(vdim)] for t in thetas]}
    _vdim, _degree, read = serialize.parse_tensor_section(doc)
    tta, hd = H.induced_tensor_hder(vdim, degree, read)
    _same_maps(hd.maps, oracle_induced_tensor_hder(vdim, degree, thetas).maps)
    assert H.verify_hder(tta.algebra, hd).ok


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(2, 6), st.integers(0, 2 ** 32))
def test_one_form_at_any_scale_reads_the_same(d, mdim, k, seed):
    # numerators over a common denominator, times k: the same structure as
    # the unscaled form and as the from_table build of the Fractions
    rng = random.Random(seed)
    table, left, right = _tensor(rng, d, d, d), _tensor(rng, d, mdim, mdim), _tensor(rng, mdim, d, mdim)
    labels, unit = tuple(f"x{i}" for i in range(d)), rng.choice((None, rng.randrange(d)))
    dmaps = tuple(rand_matrix(rng, mdim) for _ in range(rng.randint(1, 2)))

    def form(*tensors):
        values = [x for t in tensors for mid in t for row in mid for x in row]
        den = math.lcm(*(x.denominator for x in values))
        return [int(x * den) for x in values], den

    for tensors, build, oracle, views in (
            ((table,), lambda f: H.Algebra(d, f, labels, unit), H.Algebra.from_table(table, labels, unit),
             ("c",)),
            ((left, right), lambda f: H.Bimodule(mdim, f, dmaps),
             bimodule_from_tensors(mdim, left, right, dmaps), ("left", "right"))):
        nums, den = form(*tensors)
        plain, scaled = build((nums, den)), build(([x * k for x in nums], den * k))
        assert scaled.int_form == plain.int_form == oracle.int_form
        assert math.gcd(*scaled.int_form[0], scaled.int_form[1]) == 1
        for a, b in ((scaled, plain), (scaled, oracle)):
            assert a == b and b == a and hash(a) == hash(b) and repr(a) == repr(b)
        for name, want in zip(views, tensors):
            assert getattr(scaled, name) == want
        moved = list(nums)
        moved[rng.randrange(len(moved))] += rng.choice((-1, 1))
        assert build((moved, den)) != plain


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 6), st.integers(0, 2 ** 32))
def test_matrix_equality_reads_the_integer_rows(rows, cols, k, seed):
    rng = random.Random(seed)
    entries = [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]
    scale = k * math.lcm(*(x.denominator for row in entries for x in row))
    stored = H.Matrix.from_int_rows([{j: int(x * scale) for j, x in enumerate(row) if x} for row in entries],
                                    scale, cols)
    dense = H.Matrix.from_rows(entries)
    assert dense == stored and stored == dense and hash(dense) == hash(stored)
    assert "entries" not in stored.__dict__  # compared without dense entries
    i, j = rng.randrange(rows), rng.randrange(cols)
    entries[i][j] += rng.choice((Fraction(-1, 2), Fraction(1), -entries[i][j] or Fraction(1, 3)))
    moved = H.Matrix.from_rows(entries)
    assert moved != stored and stored != moved and not moved == stored
    assert H.Matrix.from_rows([row + [ZERO] for row in entries]) != moved


def test_algebra_and_bimodule_check_their_form():
    form, labels = ((0,) * 8, 1), ("a", "b")
    assert H.Algebra(2, form, labels, 1).int_form == form
    for args in ((2, ((0,) * 8, 1), ["a"]),        # one label for two basis vectors
                 (2, ((0,) * 8, 1), ["a"], 5),     # and a unit past the basis
                 (2, form, labels, 2), (2, form, labels, -1),
                 (2, ((0,) * 7, 1), labels), (2, ((0,) * 27, 1), labels)):
        with pytest.raises(H.ShapeError):
            H.Algebra(*args)
    with pytest.raises(H.ShapeError):  # eight entries, but not 2x2x2
        H.Algebra.from_table([[[1, 2, 3], [4]], [[0, 0], [0, 0]]])
    one = (H.Matrix.zeros(1, 1),)
    assert H.Bimodule(1, ((0, 2, 4, 6), 2), one).int_form == ((0, 1, 2, 3), 1)
    for args in ((1, ((0,) * 3, 1), one), (2, ((0,) * 4, 1), (H.Matrix.zeros(2, 2),)),
                 (2, ((0,) * 8, 1), one), (0, ((), 1), ())):
        with pytest.raises(H.ShapeError):
            H.Bimodule(*args)


def _counting(monkeypatch) -> list:
    """Record every Fraction made from here on, through ``__new__`` or, where
    arithmetic bypasses it, ``_from_coprime_ints``."""
    made: list = []
    new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    coprime = vars(fractions.Fraction).get("_from_coprime_ints")
    if coprime is not None:
        monkeypatch.setattr(fractions.Fraction, "_from_coprime_ints", classmethod(
            lambda cls, n, d: made.append((n, d)) or coprime.__func__(cls, n, d)))
    return made


_EXTEND = ["deform-extend", "tp3_gauged_deform.json", "--to", "6"]
_COHOMOLOGY = ["cohomology", "split_pair.json", "--degree", "2"]


def _case(args, fractions_made, code=0, name=None):
    """One case, with the id it had before the exit code was a parameter."""
    return pytest.param(args, fractions_made, code, id=name or f"{' '.join(args)}-{fractions_made}")


@pytest.mark.parametrize("args,fractions_made,code", [
    _case(["check", "dual_pair.json"], False),
    _case(["classify-central", "nil_central.json"], False),
    _case(["free-tensor", "tensor_line.json"], False),
    _case(_COHOMOLOGY, False),
    _case(["deform-trivialize", "dual_deform.json"], False),
    # a nonzero class: the cocycle test of the failed solve sums the
    # stencil on the obstruction's numerators
    _case(["deform-obstruct", "nil_deform_blocked.json"], False, 1),
    # the cocycle is a multimap, read as Fractions: the count sees them
    _case(["extend-abelian", "dual_cocycle.json"], True),
    # the last of several commands in one process, counted alone: its cache
    # hits compare the structures it read with the equal ones cached before
    _case([_EXTEND, _EXTEND], False, name="deform-extend tp3_gauged_deform.json --to 6, again"),
    _case([_EXTEND, ["deform-obstruct", "tp3_gauged_deform.json"]], False,
          name="deform-obstruct tp3_gauged_deform.json after deform-extend"),
    _case([_COHOMOLOGY, _COHOMOLOGY], False, name="cohomology split_pair.json --degree 2, again"),
])
def test_integer_commands_make_no_fraction(args, fractions_made, code, monkeypatch, capsys):
    *before, args = args if isinstance(args[0], list) else [args]
    for cmd in before:
        assert cli.main([cmd[0], str(FIXTURES / cmd[1]), *cmd[2:], "--json"]) == 0
    capsys.readouterr()
    made = _counting(monkeypatch)
    got = cli.main([args[0], str(FIXTURES / args[1]), *args[2:], "--json"])
    monkeypatch.undo()
    assert got == code and json.loads(capsys.readouterr().out)["ok"] is (code == 0)
    assert bool(made) is fractions_made, made[:5]
