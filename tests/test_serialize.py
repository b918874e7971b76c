"""The serialization boundary: the report writer against the json module,
and the memoized problem-file token parser on the inputs where a cache could
give a wrong answer (a bool next to an equal int, equal rationals written
differently, bad tokens met after good ones)."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hderlab import serialize
from hderlab.cli import main
from hderlab.exactlin import ZERO, Matrix
from hderlab.serialize import ParseError, parse_algebra, parse_matrix

from helpers import materialized, oracle_report_text, report_text

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
    serialize._token.cache_clear()
    assert _parse_row([1, 0]) == (1, 0)
    for bad in (True, False):
        with pytest.raises(ParseError, match=r"m\[0\]\[1\]: not an exact rational: "
                           + repr(bad)):
            _parse_row([1, bad])
    serialize._token.cache_clear()
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
    serialize._token.cache_clear()
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
    serialize._token.cache_clear()
    cold = parse_algebra(doc["algebra"])
    warm = parse_algebra(doc["algebra"])
    assert cold == warm
    assert serialize._token.cache_info().hits > 0
    serialize._token.cache_clear()
    assert parse_algebra(doc["algebra"]) == cold
