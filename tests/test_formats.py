"""gr/td readers and writers: examples, error line numbers, round trips."""

import random

import pytest

from vcwidth.decomposition import Decomposition
from vcwidth.errors import ParseError
from vcwidth.formats import emit_gr, emit_td, parse_cover, parse_gr, parse_td
from vcwidth.graph import Graph
from vcwidth.pathwidth import pathwidth_vc
from vcwidth.treewidth import treewidth_vc_4k

from genutil import path_graph, random_graph


def test_parse_gr_examples():
    assert parse_gr("p tw 3 2\n1 2\n2 3\n") == path_graph(3)
    assert parse_gr("p tw 2 0\n") == Graph(2)
    assert parse_gr(b"c comment\np tw 2 1\n 1   2 \n") == Graph(2, [(0, 1)])


def test_parse_gr_self_loop_line_number():
    with pytest.raises(ParseError) as err:
        parse_gr("p tw 2 1\n1 1\n")
    assert err.value.line == 2
    assert "self-loop" in err.value.message


def test_parse_gr_rejections():
    cases = [
        ("", 1),                                # no header at all
        ("1 2\n", 1),                           # edge before header
        ("p tw 3 1\np tw 3 1\n", 2),            # duplicate header
        ("p tw x 1\n", 1),                      # non-integer count
        ("p td 3 1\n", 1),                      # wrong problem tag
        ("p tw 3 1\n1 4\n", 2),                 # endpoint out of range
        ("p tw 3 2\n1 2\n2 1\n", 3),            # duplicate edge
        ("p tw 3 1\n1 2\n2 3\n", 3),            # more edges than declared
        ("p tw 3 2\n1 2\n", 2),                 # fewer edges than declared
        ("p tw 3 1\n1 2 3\n", 2),               # malformed edge line
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_gr(text)
        assert err.value.line == line, f"{text!r}: got line {err.value.line}"


def test_emit_gr_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(12), rng.random())
        assert parse_gr(emit_gr(g)) == g


def test_emit_td_single_bag():
    dec = Decomposition([{0, 1}], [])
    assert emit_td(dec, 2) == "s td 1 2 2\nb 1 1 2\n"


def test_emit_td_path_header():
    dec = Decomposition([{0, 1}, {1, 2}], [(0, 1)], kind="path")
    out = emit_td(dec, 3)
    assert out.startswith("c path\n")
    assert "s td 2 2 3" in out.splitlines()[1]


def test_parse_td_examples():
    dec, n = parse_td("s td 1 1 1\nb 1 1\n")
    assert n == 1 and dec.bags == [frozenset({0})] and dec.edges == []
    assert dec.kind == "tree"

    dec, n = parse_td("c path\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert n == 3 and dec.kind == "path"
    assert dec.bags == [frozenset({0, 1}), frozenset({1, 2})]
    assert dec.edges == [(0, 1)]


def test_parse_td_rejections():
    cases = [
        ("", 1),                                      # missing header
        ("b 1 1\n", 1),                               # bag before header
        ("s td 1 1 1\nb 0 1\n", 2),                   # bag id 0
        ("s td 1 1 1\nb 2 1\n", 2),                   # bag id out of range
        ("s td 1 1 1\nb 1 1\nb 1 1\n", 3),            # bag defined twice
        ("s td 1 1 2\nb 1 3\n", 2),                   # vertex out of range
        ("s td 1 1 1\n", 1),                          # bag never defined
        ("s td 1 2 2\nb 1 1\n", 2),                   # header width mismatch
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_td(text)
        assert err.value.line == line, f"{text!r}: got line {err.value.line}"


def test_td_round_trip_on_solver_witnesses():
    rng = random.Random(314)
    seen_paths = seen_trees = 0
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        if rng.random() < 0.5:
            _, dec = pathwidth_vc(g)
            seen_paths += 1
        else:
            _, dec = treewidth_vc_4k(g)
            seen_trees += 1
        back, n = parse_td(emit_td(dec, g.n))
        assert n == g.n
        assert back.bags == dec.bags
        assert sorted(back.edges) == sorted(dec.edges)
        assert back.kind == dec.kind
    assert seen_paths and seen_trees


def test_parse_cover():
    assert parse_cover("1 3\n", 3) == {0, 2}
    assert parse_cover("c note\n2\n", 2) == {1}
    assert parse_cover("", 4) == set()
    with pytest.raises(ParseError) as err:
        parse_cover("1\n2\n", 3)
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_cover("1 1\n", 3)
    with pytest.raises(ParseError):
        parse_cover("4\n", 3)
