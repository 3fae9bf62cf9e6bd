"""SPARQL aggregates (G2), MINUS, FILTER [NOT] EXISTS over the fruit fixtures."""

import pytest

from de_ray.query.engine import StoreSource, evaluate
from de_ray.query.parser import parse_query
from de_ray.rdfio import read_rdf

from conftest import REFERENCE_RES, RES, needs_reference

FRUIT_FILES = ("apple.ttl", "banana.nt", "pineapple.ttl")


@pytest.fixture(scope="module")
def fruit_store(tmp_path_factory):
    from de_ray.hdt.store import Store, write_store

    out = str(tmp_path_factory.mktemp("agg") / "fruits")
    write_store(
        read_rdf([f"{RES}/apple.ttl", f"{RES}/banana.nt", f"{RES}/pineapple.ttl"]), out
    )
    return Store(out)


@pytest.fixture(scope="module")
def reference_fruit_store(tmp_path_factory):
    """Store over the upstream fruit files: the counts and vitamin facts
    asserted below hold for their 9-triple apple.ttl (no ex:hasVitamin),
    not for the 12-triple shape FIXTURES.md §3 gives every fruit."""
    from de_ray.hdt.store import Store, write_store

    out = str(tmp_path_factory.mktemp("agg") / "reference_fruits")
    write_store(read_rdf([f"{REFERENCE_RES}/{n}" for n in FRUIT_FILES]), out)
    return Store(out)


@needs_reference(*FRUIT_FILES)
def test_count_star_group_by(reference_fruit_store):
    q = parse_query(
        "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY DESC(?n)"
    )
    res = evaluate(q, StoreSource(reference_fruit_store))
    rows = {r["s"]: r["n"] for r in res.ds.take_all()}
    assert rows["http://example.org/Banana"] == '"10"^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert rows["http://example.org/Apple"] == '"7"^^<http://www.w3.org/2001/XMLSchema#integer>'


@needs_reference(*FRUIT_FILES)
def test_global_count(reference_fruit_store):
    q = parse_query("SELECT (COUNT(*) AS ?total) WHERE { ?s ?p ?o }")
    res = evaluate(q, StoreSource(reference_fruit_store))
    rows = res.ds.take_all()
    assert len(rows) == 1
    assert rows[0]["total"] == '"33"^^<http://www.w3.org/2001/XMLSchema#integer>'


@needs_reference(*FRUIT_FILES)
def test_count_distinct(reference_fruit_store):
    q = parse_query(
        "SELECT (COUNT(DISTINCT ?p) AS ?np) WHERE { ?s ?p ?o }"
    )
    res = evaluate(q, StoreSource(reference_fruit_store))
    # distinct predicates across the three fixtures
    n = int(res.ds.take_all()[0]["np"].split('"')[1])
    assert n == 15


@needs_reference(*FRUIT_FILES)
def test_having(reference_fruit_store):
    q = parse_query(
        "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s "
        'HAVING(?n > "7"^^<http://www.w3.org/2001/XMLSchema#integer>)'
    )
    res = evaluate(q, StoreSource(reference_fruit_store))
    rows = [r["s"] for r in res.ds.take_all()]
    assert set(rows) == {"http://example.org/Banana", "http://example.org/Pineapple"}


def test_min_max_over_typed(fruit_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> "
        "SELECT (MIN(?c) AS ?lo) (MAX(?c) AS ?hi) WHERE { ?f ex:hasColor ?c }"
    )
    rows = evaluate(q, StoreSource(fruit_store)).ds.take_all()
    assert rows[0]["lo"] == '"Red"'
    assert rows[0]["hi"] == '"yellow"'


def test_minus(fruit_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
        "SELECT ?f WHERE { ?f rdf:type ex:Fruit MINUS { ?f ex:hasColor \"yellow\" } }"
    )
    rows = [r["f"] for r in evaluate(q, StoreSource(fruit_store)).ds.take_all()]
    assert rows == ["http://example.org/Apple"]


@needs_reference(*FRUIT_FILES)
def test_filter_not_exists(reference_fruit_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
        "SELECT ?f WHERE { ?f a ex:Fruit FILTER NOT EXISTS { ?f ex:hasVitamin ?v } }"
    )
    rows = sorted(r["f"] for r in evaluate(q, StoreSource(reference_fruit_store)).ds.take_all())
    assert rows == ["http://example.org/Apple"]


@needs_reference(*FRUIT_FILES)
def test_filter_exists(reference_fruit_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?f WHERE { ?f a ex:Fruit FILTER EXISTS { ?f ex:hasVitamin ?v } }"
    )
    rows = sorted(r["f"] for r in evaluate(q, StoreSource(reference_fruit_store)).ds.take_all())
    assert rows == ["http://example.org/Banana", "http://example.org/Pineapple"]


def test_group_concat_and_sample(fruit_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> "
        "SELECT (GROUP_CONCAT(?c) AS ?colors) WHERE { ?f ex:hasColor ?c } "
    )
    rows = evaluate(q, StoreSource(fruit_store)).ds.take_all()
    vals = set(rows[0]["colors"].strip('"').split(" "))
    assert vals == {"Red", "yellow"}


def test_bind(fruit_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?f ?u WHERE { ?f ex:hasColor ?c BIND(UCASE(?c) AS ?u) } ORDER BY ?f"
    )
    rows = evaluate(q, StoreSource(fruit_store)).ds.take_all()
    assert [(r["f"], r["u"]) for r in rows] == [
        ("http://example.org/Apple", '"RED"'),
        ("http://example.org/Banana", '"YELLOW"'),
        ("http://example.org/Pineapple", '"YELLOW"'),
    ]


def test_values_restricts(fruit_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?f WHERE { VALUES ?f { ex:Banana ex:Apple } ?f ex:hasColor ?c } ORDER BY ?f"
    )
    rows = [r["f"] for r in evaluate(q, StoreSource(fruit_store)).ds.take_all()]
    assert rows == ["http://example.org/Apple", "http://example.org/Banana"]


def test_values_only_group(fruit_store):
    q = parse_query('SELECT ?x WHERE { VALUES ?x { "a" "b" } }')
    rows = sorted(r["x"] for r in evaluate(q, StoreSource(fruit_store)).ds.take_all())
    assert rows == ['"a"', '"b"']
