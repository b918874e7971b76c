"""The serialization boundary: the report writer against the json module,
the memoized problem-file token parser on the inputs where a cache could
give a wrong answer (a bool next to an equal int, equal rationals written
differently, bad tokens met after good ones), and the one walker that
reads every section against the nested Fraction reader kept in
``helpers``: equal values and integer forms on good files, the same
first error on bad ones."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hderlab as H
from hderlab import serialize
from hderlab.cli import main
from hderlab.exactlin import ZERO, Matrix
from hderlab.serialize import (
    ParseError, parse_algebra, parse_bimodule, parse_cochain, parse_deformation, parse_hder,
    parse_matrix, parse_tensor_section,
)

from helpers import (
    BAD_TOKENS, materialized, oracle_matrix, oracle_parse_algebra, oracle_parse_bimodule,
    oracle_parse_cochain, oracle_parse_deformation, oracle_parse_hder, oracle_parse_tensor_section,
    oracle_report_text, rand_fraction, report_text, spelled,
)

FIXTURES = Path(__file__).parent / "fixtures"

# basis labels, violation messages, and text the encoder has to escape
_TEXT = st.one_of(
    st.text(),
    st.text(alphabet='"\\\n\t\x00\x1f\x7f/éß∂⊗𝔤 ab', max_size=12),
    st.sampled_from(["0", "-3/4", "e0⊗e1", 'order-1 fails at (0, 1): lhs=(0, "3")']),
)
_INTS = st.one_of(st.integers(-5, 5), st.integers(-2 ** 200, 2 ** 200))
_SCALARS = st.one_of(_TEXT, _INTS, st.booleans(), st.none())
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(_TEXT, max_size=6),
                            st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_DOCS)
def test_report_text_matches_json_dumps(doc):
    assert report_text(doc) == oracle_report_text(doc)


def test_report_text_on_edge_shapes():
    for doc in ({}, [], [[]], {"a": {}}, ["x", 1], [1, "x"], ["x", ["y"]], [True, 1],
                ["x", None], [None, False], -(2 ** 70), "\u2028", "\x7f"):
        assert report_text(doc) == oracle_report_text(doc), doc
    # reports hold no floats or tuples
    for doc in ({"x": 0.5}, ["a", ("b",)], ("a",)):
        with pytest.raises(TypeError):
            report_text(doc)


_STREAMED = st.lists(_DOCS, max_size=4).map(lambda xs: serialize.Streamed(lambda: iter(xs)))


@settings(max_examples=200, deadline=None)
@given(st.recursive(st.one_of(_DOCS, _STREAMED),
                    lambda inner: st.dictionaries(_TEXT, inner, max_size=4), max_leaves=12))
def test_streamed_lists_are_written_as_their_items(doc):
    # a Streamed list, alone or as a dict value at any depth, reads as the
    # plain list of its items
    assert report_text(doc) == oracle_report_text(materialized(doc))


def test_zero_is_formatted_without_the_shared_object():
    m = Matrix(1, 3, (ZERO, Fraction(0), Fraction(-3, 4)))
    assert serialize.matrix_to_json(m) == [["0", "0", "-3/4"]]


# ------------------------------------------------------------- token parser

def _parse_row(entries):
    return parse_matrix([list(entries)], 1, len(entries), "m").entries


def test_bool_never_aliases_an_equal_int():
    serialize._pair.cache_clear()
    assert _parse_row([1, 0]) == (1, 0)
    for bad in (True, False):
        with pytest.raises(ParseError, match=r"m\[0\]\[1\]: not an exact rational: "
                           + repr(bad)):
            _parse_row([1, bad])
    serialize._pair.cache_clear()
    for bad in (True, False):
        with pytest.raises(ParseError):
            _parse_row([bad])
    assert _parse_row([1, 0, "1", "0"]) == (1, 0, 1, 0)
    assert all(type(x) is Fraction for x in _parse_row([1, 0]))
    # the same holds for a float equal to an int
    with pytest.raises(ParseError, match="floats are not accepted"):
        _parse_row([1, 1.0])


def test_bool_after_int_in_one_file_exits_2(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for entries in ('[1, 0], [0, true]', '[true, 0], [0, 1]', '["1", 0], [0, false]'):
        path.write_text('{"algebra": {"dim": 2, "table": [[%s], [[0, 0], [0, 0]]]}}'
                        % entries)
        assert main(["check", str(path)]) == 2
        assert "not an exact rational: " in capsys.readouterr().err


def test_equal_rationals_parse_equal():
    serialize._pair.cache_clear()
    half, other_half, minus_zero, zero = _parse_row(["2/4", "1/2", "-0", 0])
    assert half == other_half == Fraction(1, 2)
    assert minus_zero == zero == 0
    assert minus_zero is ZERO and zero is ZERO
    assert _parse_row(["-6/4", -1, "0/5"]) == (Fraction(-3, 2), -1, 0)


@pytest.mark.parametrize("entry,message", [
    ("0.5", "floats are not accepted; use rational strings"),
    ('"0.5"', "not an exact rational: '0.5'"),
    ('"+3"', "not an exact rational: '+3'"),
    ('" 3"', "not an exact rational: ' 3'"),
    ('"1/0"', "not an exact rational: '1/0'"),
    ("null", "not an exact rational: None"),
    ("[1]", "not an exact rational: [1]"),
    ('{"a": 1}', "not an exact rational: {'a': 1}"),
])
def test_bad_tokens_keep_their_messages(entry, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    # the good entries before the bad one are cached by the time it fails
    path.write_text('{"algebra": {"dim": 2, "table": [[["1", 0], [0, %s]], '
                    '[[0, 0], [0, 0]]]}}' % entry)
    for _ in range(2):
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: algebra.table[0][1][1]: {message}\n"


def test_long_token_error_line_is_short(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for entry in ('"%s"' % ("9" * 5000), '"1/%s"' % ("7" * 5000), '"%s"' % ("x" * 200),
                  json.dumps(list(range(2000)))):
        path.write_text('{"algebra": {"dim": 1, "table": [[[%s]]]}}' % entry)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: algebra.table[0][0][0]: not an exact rational: ")
        assert len(err.encode()) < 200, err
        assert f"({len(repr(json.loads(entry)))} characters)" in err


def test_parsing_one_file_twice_gives_equal_structures():
    doc = json.loads((FIXTURES / "dual_pair.json").read_text())
    serialize._pair.cache_clear()
    cold = parse_algebra(doc["algebra"])
    warm = parse_algebra(doc["algebra"])
    assert cold == warm
    assert serialize._pair.cache_info().hits > 0
    serialize._pair.cache_clear()
    assert parse_algebra(doc["algebra"]) == cold


# ------------------------------------------------ one walker, every section

def _nested(rng: random.Random, shape: tuple):
    """Nested lists of the lengths in ``shape`` holding spelled entries,
    some near 2^40 over 7 and 11."""
    if not shape:
        big = Fraction(rng.choice((-1, 1)) * rng.randint(2 ** 39, 2 ** 40), rng.choice((7, 11)))
        return spelled(rng.choice((ZERO, ZERO, rand_fraction(rng), big)), rng)
    return [_nested(rng, shape[1:]) for _ in range(shape[0])]


SECTIONS = ("algebra", "hder", "bimodule", "cochain", "section", "tensor", "deformation")


def _section(kind: str, rng: random.Random, dim: int, mdim: int, rank: int):
    """A section of random entries, its reader and the nested Fraction
    reader, each taking the section; no law is asked to hold."""
    if kind == "algebra":
        doc = {"dim": dim, "table": _nested(rng, (dim, dim, dim))}
        if rng.random() < 0.5:
            doc["unit"] = rng.randrange(dim)
        return doc, parse_algebra, oracle_parse_algebra
    if kind == "hder":
        return ({"rank": rank, "maps": _nested(rng, (rank, dim, dim))},
                lambda doc: parse_hder(doc, dim), lambda doc: oracle_parse_hder(doc, dim))
    if kind == "bimodule":
        doc = {"mdim": mdim, "left": _nested(rng, (dim, mdim, mdim)), "right": _nested(rng, (mdim, dim, mdim)),
               "dmaps": _nested(rng, (rank, mdim, mdim))}
        return (doc, lambda doc: parse_bimodule(doc, dim, rank),
                lambda doc: oracle_parse_bimodule(doc, dim, rank))
    if kind == "cochain":
        n = rng.randint(1, 3)
        doc = {"n": n, "main": _nested(rng, (dim ** n * mdim,))}
        if n > 1:
            doc["parts"] = _nested(rng, (rank, dim ** (n - 1) * mdim))
        return (doc, lambda doc: parse_cochain(doc, dim, mdim, rank),
                lambda doc: oracle_parse_cochain(doc, dim, mdim, rank))
    if kind == "section":
        rows = dim + mdim
        return ({"section": _nested(rng, (rows, dim))},
                lambda doc: parse_matrix(doc.get("section"), rows, dim, "section"),
                lambda doc: oracle_matrix(doc.get("section"), rows, dim, "section"))
    if kind == "tensor":
        doc = {"vdim": mdim, "thetas": _nested(rng, (rank, mdim, mdim))}
        if rng.random() < 0.5:
            doc["degree"] = rng.randint(1, 4)
        return doc, parse_tensor_section, oracle_parse_tensor_section
    order = rng.randint(0, 2)
    doc = {"order": order, "mu": _nested(rng, (order + 1, dim, dim, dim)),
           "d": _nested(rng, (rank, order + 1, dim, dim))}
    return (doc, lambda doc: parse_deformation(doc, dim, rank),
            lambda doc: oracle_parse_deformation(doc, dim, rank))


def _int_forms(value):
    """The integer forms a read structure keeps, as comparable values."""
    if isinstance(value, Matrix):
        return value.int_form
    if isinstance(value, H.Algebra):
        return value.int_form
    if isinstance(value, H.Bimodule):
        return value.int_form, _int_forms(value.dmaps)
    if isinstance(value, H.HigherDerivation):
        return _int_forms(value.maps)
    if isinstance(value, H.Deformation):
        return value.tables.orders, value.tables.den
    if isinstance(value, tuple):
        return tuple(map(_int_forms, value))
    return value


def _fraction_groups(value) -> list:
    """The Fractions of each tensor, and of the main map and the parts of
    a cochain, of a read structure."""
    if isinstance(value, H.Algebra):
        return [[x for m in value.c for row in m for x in row]]
    if isinstance(value, H.Bimodule):
        return [[x for m in t for row in m for x in row] for t in (value.left, value.right)]
    if isinstance(value, H.Cochain):
        return [list(value.main.values), [x for mm in value.parts for x in mm.values]]
    return []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SECTIONS), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 32))
def test_every_section_reads_as_the_nested_reader_does(kind, dim, mdim, rank, seed):
    doc, read, oracle = _section(kind, random.Random(seed), dim, mdim, rank)
    got, want = read(doc), oracle(doc)
    assert got == want and hash(got) == hash(want)
    assert _int_forms(got) == _int_forms(want)
    for values in _fraction_groups(got):
        # one Fraction per distinct p/q, and every zero the shared ZERO
        assert len(set(map(id, values))) == len(set(values))
        assert all(x is ZERO for x in values if not x)


def _lists(obj, out: list) -> list:
    """Every list nested in ``obj``, outermost first."""
    if isinstance(obj, list):
        out.append(obj)
        for x in obj:
            _lists(x, out)
    return out


def _read_or_error(read, doc):
    try:
        return read(doc)
    except ParseError as exc:
        return str(exc)


_FLAWS = ("token", "token", "short row", "long row", "not a list", "one level too deep", "missing")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SECTIONS), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 32), st.sampled_from(_FLAWS), st.sampled_from(BAD_TOKENS))
def test_every_section_fails_where_the_nested_reader_does(kind, dim, mdim, rank, seed, flaw, bad):
    # one flaw in a section of random entries; the readers walk it in one
    # order, so they name the same first failure, and a flaw not in the
    # table, maps or entries (a missing key) gives the same text too
    rng = random.Random(seed)
    doc, read, oracle = _section(kind, rng, dim, mdim, rank)
    keys = [key for key, value in doc.items() if isinstance(value, list)]
    key = rng.choice(keys)
    lists = _lists(doc[key], [])
    rows = [x for x in lists if not any(isinstance(y, list) for y in x)]
    row, outer = rng.choice(rows), rng.choice(lists)
    if flaw == "token":
        row[rng.randrange(len(row))] = bad
    elif flaw == "short row":
        row.pop()
    elif flaw == "long row":
        row.append("0")
    elif flaw == "not a list":
        outer[rng.randrange(len(outer))] = "x"
    elif flaw == "one level too deep":
        index = rng.randrange(len(outer))
        outer[index] = [outer[index]]
    else:
        del doc[key]
    got = _read_or_error(read, doc)
    assert isinstance(got, str) and got == _read_or_error(oracle, doc)


def test_a_failed_read_raises_when_the_walk_finds_nothing(monkeypatch):
    # the walk names the first failing entry; should it find none, the
    # failure of the fast read is raised, not an empty value returned
    def failing(obj):
        raise ParseError("not an exact rational: (cached)")

    monkeypatch.setattr(serialize, "_pair", failing)
    with pytest.raises(ParseError, match=r"^not an exact rational: \(cached\)$"):
        parse_matrix([[1, 2]], 1, 2, "m")
