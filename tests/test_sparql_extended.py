"""Round-2 SPARQL surface: advisor bug fixes, expressions, paths, GRAPH,
subqueries (reference gets all of this from spareval, src/sparql.rs:511-521)."""

import pandas as pd
import pytest
import ray.data as rd

from de_ray.query.engine import DatasetSource, StoreSource, evaluate
from de_ray.query.parser import parse_query
from de_ray.rdfio import read_rdf
from de_ray.rdfio.ntriples import parse_nt_line

from conftest import RES

EX = "PREFIX ex: <http://example.org/> "


def _ds(nt_lines):
    rows = []
    for ln in nt_lines:
        s, p, o = parse_nt_line(ln)
        rows.append({"subj": s, "pred": p, "obj": o})
    return rd.from_pandas(pd.DataFrame(rows))


@pytest.fixture(scope="module")
def people():
    return DatasetSource(_ds([
        '<http://example.org/alice> <http://example.org/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .',
        '<http://example.org/alice> <http://example.org/name> "Alice" .',
        '<http://example.org/bob> <http://example.org/age> "20"^^<http://www.w3.org/2001/XMLSchema#integer> .',
        '<http://example.org/carol> <http://example.org/age> "40"^^<http://www.w3.org/2001/XMLSchema#integer> .',
        '<http://example.org/carol> <http://example.org/name> "Carol" .',
        '<http://example.org/alice> <http://example.org/knows> <http://example.org/bob> .',
        '<http://example.org/bob> <http://example.org/knows> <http://example.org/carol> .',
    ]))


def _rows(res):
    return res.ds.take_all()


# --- advisor bug fixes ------------------------------------------------------


def test_filter_after_optional_not_bound(people):
    """FILTER(!BOUND(?n)) after OPTIONAL must see optional bindings
    (SPARQL algebra Filter(LeftJoin(...)) — ADVICE #1)."""
    q = parse_query(
        EX + "SELECT ?p WHERE { ?p ex:age ?a OPTIONAL { ?p ex:name ?n } "
        "FILTER(!BOUND(?n)) }"
    )
    rows = _rows(evaluate(q, people))
    assert [r["p"] for r in rows] == ["http://example.org/bob"]


def test_filter_before_optional_same_result(people):
    """Syntactic position of the FILTER inside the group must not matter."""
    q = parse_query(
        EX + "SELECT ?p WHERE { ?p ex:age ?a FILTER(!BOUND(?n)) "
        "OPTIONAL { ?p ex:name ?n } }"
    )
    rows = _rows(evaluate(q, people))
    assert [r["p"] for r in rows] == ["http://example.org/bob"]


def test_optional_disjoint_empty_keeps_base(people):
    """OPTIONAL sharing no vars whose side is empty keeps all base rows
    (ADVICE #2)."""
    q = parse_query(
        EX + "SELECT ?p ?z WHERE { ?p ex:age ?a OPTIONAL { ?x ex:nothere ?z } }"
    )
    rows = _rows(evaluate(q, people))
    assert len(rows) == 3
    assert all(r["z"] is None for r in rows)


def test_optional_disjoint_nonempty_cross(people):
    """OPTIONAL with no shared vars and a non-empty side cross-joins."""
    q = parse_query(
        EX + 'SELECT ?p ?n WHERE { ?p ex:age ?a OPTIONAL { ?x ex:name ?n } }'
    )
    rows = _rows(evaluate(q, people))
    assert len(rows) == 6  # 3 ages x 2 names


def test_three_way_union(people):
    """A UNION B UNION C is a flat 3-way union (ADVICE #3)."""
    q = parse_query(
        EX + "SELECT ?who WHERE { { ex:alice ex:knows ?who } UNION "
        "{ ?who ex:name \"Carol\" } UNION { ?who ex:age "
        '"20"^^<http://www.w3.org/2001/XMLSchema#integer> } }'
    )
    rows = sorted(r["who"] for r in _rows(evaluate(q, people)))
    assert rows == [
        "http://example.org/bob",
        "http://example.org/bob",
        "http://example.org/carol",
    ]


def test_nested_group_keeps_bind_and_minus(people):
    """Nested { BIND } / { MINUS } are not silently dropped (ADVICE #4)."""
    q = parse_query(EX + 'SELECT ?y WHERE { { BIND("v" AS ?y) } }')
    rows = _rows(evaluate(q, people))
    assert [r["y"] for r in rows] == ['"v"']
    q2 = parse_query(
        EX + "SELECT ?p WHERE { { ?p ex:age ?a MINUS { ?p ex:name ?n } } }"
    )
    rows2 = sorted(r["p"] for r in _rows(evaluate(q2, people)))
    assert rows2 == ["http://example.org/bob"]


def test_nt_unspaced_dot():
    """`<s> <p> _:b1.` / `"v"@en.` terminate the term before the dot (ADVICE #5)."""
    s, p, o = parse_nt_line("<http://e/s> <http://e/p> _:b1.")
    assert o == "_:b1"
    s, p, o = parse_nt_line('<http://e/s> <http://e/p> "v"@en.')
    assert o == '"v"@en'


# --- arithmetic / builtins / casts -----------------------------------------


def test_arithmetic_filter(people):
    q = parse_query(EX + "SELECT ?p WHERE { ?p ex:age ?a FILTER(?a * 2 > 50) }")
    rows = sorted(r["p"] for r in _rows(evaluate(q, people)))
    assert rows == ["http://example.org/alice", "http://example.org/carol"]


def test_arithmetic_bind_and_select_expr(people):
    q = parse_query(
        EX + "SELECT ?p ?half WHERE { ?p ex:age ?a BIND(?a / 2 AS ?half) } ORDER BY ?half"
    )
    rows = _rows(evaluate(q, people))
    assert rows[0]["half"].startswith('"10')
    q2 = parse_query(
        EX + "SELECT ?p (?a - 10 AS ?m) WHERE { ?p ex:age ?a } ORDER BY ?m LIMIT 1"
    )
    rows2 = _rows(evaluate(q2, people))
    assert rows2[0]["m"] == '"10"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_if_coalesce(people):
    q = parse_query(
        EX + "SELECT ?p ?tag WHERE { ?p ex:age ?a OPTIONAL { ?p ex:name ?n } "
        'BIND(IF(BOUND(?n), "named", "anon") AS ?tag) } ORDER BY ?p'
    )
    rows = _rows(evaluate(q, people))
    assert [r["tag"] for r in rows] == ['"named"', '"anon"', '"named"']
    q2 = parse_query(
        EX + "SELECT ?p ?nm WHERE { ?p ex:age ?a OPTIONAL { ?p ex:name ?n } "
        'BIND(COALESCE(?n, "unknown") AS ?nm) } ORDER BY ?p'
    )
    rows2 = _rows(evaluate(q2, people))
    assert [r["nm"] for r in rows2] == ['"Alice"', '"unknown"', '"Carol"']


def test_string_builtins(people):
    q = parse_query(
        EX + "SELECT ?s WHERE { ?p ex:name ?n "
        'BIND(SUBSTR(?n, 1, 3) AS ?s) } ORDER BY ?s'
    )
    assert [r["s"] for r in _rows(evaluate(q, people))] == ['"Ali"', '"Car"']
    q2 = parse_query(
        EX + 'SELECT ?r WHERE { ?p ex:name ?n BIND(REPLACE(?n, "a", "o") AS ?r) } ORDER BY ?r'
    )
    assert [r["r"] for r in _rows(evaluate(q2, people))] == ['"Alice"', '"Corol"']
    q3 = parse_query(
        EX + 'SELECT ?b ?f WHERE { ex:alice ex:name ?n '
        'BIND(STRBEFORE(?n, "i") AS ?b) BIND(STRAFTER(?n, "l") AS ?f) }'
    )
    r = _rows(evaluate(q3, people))[0]
    assert r["b"] == '"Al"' and r["f"] == '"ice"'
    q4 = parse_query(
        EX + 'SELECT ?c WHERE { ex:alice ex:name ?n BIND(CONCAT(?n, "!") AS ?c) }'
    )
    assert _rows(evaluate(q4, people))[0]["c"] == '"Alice!"'


def test_xsd_casts():
    src = DatasetSource(_ds([
        '<http://e/a> <http://e/v> "12" .',
        '<http://e/b> <http://e/v> "7" .',
    ]))
    q = parse_query(
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
        "SELECT ?s WHERE { ?s <http://e/v> ?v FILTER(xsd:integer(?v) > 10) }"
    )
    assert [r["s"] for r in _rows(evaluate(q, src))] == ["http://e/a"]


def test_numeric_builtins(people):
    q = parse_query(
        EX + "SELECT ?r WHERE { ex:alice ex:age ?a "
        "BIND(FLOOR(?a / 7) + ABS(0 - 2) AS ?r) }"
    )
    assert _rows(evaluate(q, people))[0]["r"] == '"6"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_in_not_in(people):
    q = parse_query(
        EX + "SELECT ?p WHERE { ?p ex:age ?a FILTER(?a IN (20, 40)) } ORDER BY ?p"
    )
    assert [r["p"] for r in _rows(evaluate(q, people))] == [
        "http://example.org/bob", "http://example.org/carol",
    ]
    q2 = parse_query(
        EX + "SELECT ?p WHERE { ?p ex:age ?a FILTER(?a NOT IN (20, 40)) }"
    )
    assert [r["p"] for r in _rows(evaluate(q2, people))] == ["http://example.org/alice"]


def test_order_by_expression(people):
    q = parse_query(
        EX + "SELECT ?p WHERE { ?p ex:age ?a } ORDER BY DESC(?a * 2) LIMIT 1"
    )
    assert [r["p"] for r in _rows(evaluate(q, people))] == ["http://example.org/carol"]


# --- property paths ---------------------------------------------------------


def test_path_sequence(people):
    q = parse_query(EX + "SELECT ?x WHERE { ex:alice ex:knows/ex:knows ?x }")
    assert [r["x"] for r in _rows(evaluate(q, people))] == ["http://example.org/carol"]


def test_path_inverse(people):
    q = parse_query(EX + "SELECT ?x WHERE { ex:bob ^ex:knows ?x }")
    assert [r["x"] for r in _rows(evaluate(q, people))] == ["http://example.org/alice"]


def test_path_alternative(people):
    q = parse_query(EX + "SELECT ?v WHERE { ex:alice ex:name|ex:age ?v }")
    vals = sorted(r["v"] for r in _rows(evaluate(q, people)))
    assert vals == ['"30"^^<http://www.w3.org/2001/XMLSchema#integer>', '"Alice"']


def test_path_plus(people):
    q = parse_query(EX + "SELECT ?x WHERE { ex:alice ex:knows+ ?x } ORDER BY ?x")
    assert [r["x"] for r in _rows(evaluate(q, people))] == [
        "http://example.org/bob", "http://example.org/carol",
    ]


def test_path_star_and_opt(people):
    q = parse_query(EX + "SELECT ?x WHERE { ex:bob ex:knows* ?x } ORDER BY ?x")
    xs = [r["x"] for r in _rows(evaluate(q, people))]
    assert xs == ["http://example.org/bob", "http://example.org/carol"]
    q2 = parse_query(EX + "SELECT ?x WHERE { ex:bob ex:knows? ?x } ORDER BY ?x")
    assert [r["x"] for r in _rows(evaluate(q2, people))] == xs


def test_path_seq_with_inverse_join(people):
    """?x knows/^knows ?y: same-hub pairs."""
    q = parse_query(
        EX + "SELECT ?x ?y WHERE { ?x ex:knows/^ex:knows ?y } ORDER BY ?x ?y"
    )
    rows = [(r["x"], r["y"]) for r in _rows(evaluate(q, people))]
    assert ("http://example.org/alice", "http://example.org/alice") in rows


# --- GRAPH clause / subqueries ---------------------------------------------


@pytest.fixture(scope="module")
def fruit_store(tmp_path_factory):
    from de_ray.hdt.store import Store, write_store

    out = str(tmp_path_factory.mktemp("g") / "fruits")
    write_store(
        read_rdf([f"{RES}/apple.ttl", f"{RES}/pineapple.ttl"]), out
    )
    return Store(out)


def test_graph_var_binding(fruit_store):
    q = parse_query(
        EX + "SELECT ?g ?f WHERE { GRAPH ?g { ?f ex:hasColor ?c } } ORDER BY ?g"
    )
    rows = _rows(evaluate(q, StoreSource(fruit_store)))
    assert [(r["g"], r["f"]) for r in rows] == [
        ("file:///apple.ttl", "http://example.org/Apple"),
        ("file:///pineapple.ttl", "http://example.org/Pineapple"),
    ]


def test_graph_constant(fruit_store):
    q = parse_query(
        EX + "SELECT ?f WHERE { GRAPH <file:///apple.ttl> { ?f ex:hasColor ?c } }"
    )
    assert [r["f"] for r in _rows(evaluate(q, StoreSource(fruit_store)))] == [
        "http://example.org/Apple"
    ]


def test_graph_constant_missing(fruit_store):
    q = parse_query(
        EX + "SELECT ?f WHERE { GRAPH <file:///nope.ttl> { ?f ex:hasColor ?c } }"
    )
    assert _rows(evaluate(q, StoreSource(fruit_store))) == []


def test_subquery(people):
    q = parse_query(
        EX + "SELECT ?p ?ma WHERE { ?p ex:age ?a "
        "{ SELECT (MAX(?a2) AS ?ma) WHERE { ?x ex:age ?a2 } } "
        "FILTER(?a = ?ma) }"
    )
    rows = _rows(evaluate(q, people))
    assert [r["p"] for r in rows] == ["http://example.org/carol"]


def test_having_aggregate_expression(people):
    q = parse_query(
        EX + "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?p ?pr ?o } "
        "GROUP BY ?p HAVING (COUNT(?o) > 2)"
    )
    rows = _rows(evaluate(q, people))
    assert [r["p"] for r in rows] == ["http://example.org/alice"]


def test_aggregate_over_expression(people):
    q = parse_query(
        EX + "SELECT (SUM(?a * 2) AS ?t) WHERE { ?p ex:age ?a }"
    )
    rows = _rows(evaluate(q, people))
    assert rows[0]["t"] == '"180"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_path_raw_equals_store(fruit_store, people):
    """Reference conformance extended to paths: raw-RDF path query ≡ the
    same query over the store (tests/test-commands.rs raw≡HDT invariant)."""
    from de_ray.rdfio import read_rdf

    q = parse_query(
        EX + "SELECT ?x WHERE { ?x ex:hasColor|ex:hasVitamin ?v } ORDER BY ?x"
    )
    raw = evaluate(
        q, DatasetSource(read_rdf([f"{RES}/apple.ttl", f"{RES}/pineapple.ttl"]))
    ).ds.take_all()
    store = evaluate(q, StoreSource(fruit_store)).ds.take_all()
    assert raw == store and len(raw) > 0


# --- FROM / FROM NAMED dataset clause ----------------------------------------


def test_from_restricts_default_graph(fruit_store):
    q = parse_query(
        EX + "SELECT ?f FROM <file:///apple.ttl> WHERE { ?f ex:hasColor ?c }"
    )
    assert [r["f"] for r in _rows(evaluate(q, StoreSource(fruit_store)))] == [
        "http://example.org/Apple"
    ]


def test_from_merges_multiple_graphs(fruit_store):
    q = parse_query(
        EX + "SELECT ?f FROM <file:///apple.ttl> FROM <file:///pineapple.ttl> "
        "WHERE { ?f ex:hasColor ?c } ORDER BY ?f"
    )
    assert [r["f"] for r in _rows(evaluate(q, StoreSource(fruit_store)))] == [
        "http://example.org/Apple",
        "http://example.org/Pineapple",
    ]


def test_from_unknown_graph_is_empty(fruit_store):
    q = parse_query(
        EX + "SELECT ?f FROM <file:///nope.ttl> WHERE { ?f ex:hasColor ?c }"
    )
    assert _rows(evaluate(q, StoreSource(fruit_store))) == []


def test_from_named_only_empties_default_graph(fruit_store):
    q = parse_query(
        EX + "SELECT ?f FROM NAMED <file:///pineapple.ttl> "
        "WHERE { ?f ex:hasColor ?c }"
    )
    assert _rows(evaluate(q, StoreSource(fruit_store))) == []


def test_from_named_scopes_graph_enumeration(fruit_store):
    q = parse_query(
        EX + "SELECT ?g ?f FROM <file:///apple.ttl> "
        "FROM NAMED <file:///pineapple.ttl> "
        "WHERE { GRAPH ?g { ?f ex:hasColor ?c } }"
    )
    rows = _rows(evaluate(q, StoreSource(fruit_store)))
    assert [(r["g"], r["f"]) for r in rows] == [
        ("file:///pineapple.ttl", "http://example.org/Pineapple")
    ]


def test_from_named_constant_graph(fruit_store):
    # GRAPH <iri> outside the FROM NAMED set matches nothing
    q = parse_query(
        EX + "SELECT ?f FROM NAMED <file:///pineapple.ttl> "
        "WHERE { GRAPH <file:///apple.ttl> { ?f ex:hasColor ?c } }"
    )
    assert _rows(evaluate(q, StoreSource(fruit_store))) == []


def test_from_with_distinct_fastpath(fruit_store):
    # single-BGP DISTINCT goes through the integer-ID pushdown; the FROM
    # restriction must survive into the id-scan
    q = parse_query(
        EX + "SELECT DISTINCT ?f FROM <file:///apple.ttl> WHERE { ?f ?p ?o }"
    )
    rows = sorted(r["f"] for r in _rows(evaluate(q, StoreSource(fruit_store))))
    assert rows == ["http://example.org/Apple", "http://example.org/Fruit"]
