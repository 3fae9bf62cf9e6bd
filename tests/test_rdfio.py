"""NT/Turtle parsing vs the reference's own fixtures.

Key conformance property (reference tests/test-commands.rs): banana.ttl and
banana.nt encode the same graph in two syntaxes — parsing either must give
the identical canonical triple set.
"""

import os

import pytest

from de_ray.rdfio.ntriples import format_nt_line, parse_nt_line, parse_nt_text
from de_ray.rdfio.turtle import parse_turtle

from conftest import REFERENCE_RES, RES


def _read(p):
    with open(p, encoding="utf-8") as f:
        return f.read()


def test_parse_nt_line_basic():
    t = parse_nt_line("<http://a/s> <http://a/p> <http://a/o> .")
    assert t == ("http://a/s", "http://a/p", "http://a/o")


def test_parse_nt_line_literal_lang_dtype():
    assert parse_nt_line('<http://a/s> <http://a/p> "v"@en .') == ("http://a/s", "http://a/p", '"v"@en')
    assert parse_nt_line(
        '<http://a/s> <http://a/p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .'
    ) == ("http://a/s", "http://a/p", '"1"^^<http://www.w3.org/2001/XMLSchema#integer>')
    # xsd:string datatype is implicit → dropped
    assert parse_nt_line(
        '<http://a/s> <http://a/p> "v"^^<http://www.w3.org/2001/XMLSchema#string> .'
    ) == ("http://a/s", "http://a/p", '"v"')


def test_parse_nt_comment_blank():
    assert parse_nt_line("# comment") is None
    assert parse_nt_line("   ") is None


def test_parse_nquads_drops_graph():
    t = parse_nt_line("<http://a/s> <http://a/p> <http://a/o> <http://a/g> .")
    assert t == ("http://a/s", "http://a/p", "http://a/o")


@pytest.mark.skipif(not os.path.exists(REFERENCE_RES), reason="reference fixtures absent")
def test_banana_nt_fixture():
    triples = parse_nt_text(_read(f"{REFERENCE_RES}/banana.nt"))
    assert len(triples) == 12
    assert (
        "http://example.org/Banana",
        "http://example.org/isEdible",
        '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>',
    ) in triples


@pytest.mark.skipif(not os.path.exists(REFERENCE_RES), reason="reference fixtures absent")
def test_banana_ttl_equals_banana_nt():
    nt = set(parse_nt_text(_read(f"{REFERENCE_RES}/banana.nt")))
    ttl = set(parse_turtle(_read(f"{REFERENCE_RES}/banana.ttl")))
    assert ttl == nt


@pytest.mark.skipif(not os.path.exists(REFERENCE_RES), reason="reference fixtures absent")
def test_apple_ttl():
    triples = parse_turtle(_read(f"{REFERENCE_RES}/apple.ttl"))
    assert len(triples) == 9  # void:triples "9" in apple.hdt header
    d = {(s, p): o for s, p, o in triples}
    assert d[("http://example.org/Apple", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type")] == "http://example.org/Fruit"
    assert d[("http://example.org/Apple", "http://example.org/isOrganic")] == '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>'


def test_in_repo_corpus_follows_fixtures_spec():
    """tests/resources is the FIXTURES.md §3 corpus: every fruit has the same
    12-triple shape with its documented colour, and banana.ttl ≡ banana.nt."""
    ex = "http://example.org/"
    colors = {"apple.ttl": "Red", "banana.ttl": "yellow", "pineapple.ttl": "yellow"}
    shapes = set()
    for name, color in colors.items():
        triples = parse_turtle(_read(f"{RES}/{name}"))
        assert len(triples) == 12, name
        fruit = ex + name[:-4].capitalize()
        d = {(s, p): o for s, p, o in triples}
        assert d[(fruit, ex + "hasColor")] == f'"{color}"'
        assert d[(fruit, ex + "hasVitamin")] == ex + "VitaminB6"
        assert d[(fruit, ex + "isEdible")] == (
            '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>'
        )
        shapes.add(frozenset(p for s, p, _o in triples if s == fruit))
    assert len(shapes) == 1
    nt = set(parse_nt_text(_read(f"{RES}/banana.nt")))
    assert set(parse_turtle(_read(f"{RES}/banana.ttl"))) == nt


def test_nt_roundtrip_bytes():
    lines = [
        '<http://example.org/Banana> <http://example.org/hasColor> "yellow" .',
        '<http://example.org/Banana> <http://example.org/isEdible> "true"^^<http://www.w3.org/2001/XMLSchema#boolean> .',
        "<http://example.org/Banana> <http://example.org/hasVitamin> <http://example.org/VitaminB6> .",
    ]
    for line in lines:
        s, p, o = parse_nt_line(line)
        assert format_nt_line(s, p, o) == line


def test_turtle_object_and_predicate_lists():
    t = parse_turtle(
        """
        @prefix ex: <http://e/> .
        ex:s ex:p ex:o1 , ex:o2 ; ex:q "v" ; a ex:T .
        """
    )
    assert set(t) == {
        ("http://e/s", "http://e/p", "http://e/o1"),
        ("http://e/s", "http://e/p", "http://e/o2"),
        ("http://e/s", "http://e/q", '"v"'),
        ("http://e/s", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://e/T"),
    }


def test_turtle_numbers():
    t = parse_turtle('@prefix ex: <http://e/> . ex:s ex:a 42 ; ex:b 3.14 ; ex:c 1.0e6 ; ex:d true .')
    d = {p: o for _, p, o in t}
    assert d["http://e/a"] == '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert d["http://e/b"] == '"3.14"^^<http://www.w3.org/2001/XMLSchema#decimal>'
    assert d["http://e/c"] == '"1.0e6"^^<http://www.w3.org/2001/XMLSchema#double>'
    assert d["http://e/d"] == '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>'


def test_turtle_bnode_property_list():
    t = parse_turtle('@prefix ex: <http://e/> . ex:s ex:knows [ ex:name "Ann" ] .')
    assert len(t) == 2
    (s1, p1, o1) = [x for x in t if x[1] == "http://e/knows"][0]
    (s2, p2, o2) = [x for x in t if x[1] == "http://e/name"][0]
    assert o1 == s2 and o1.startswith("_:")
