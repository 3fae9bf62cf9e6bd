"""SPARQL engine vs the reference's golden outputs (tests/test-commands.rs:155-253)."""

import pytest

from de_ray.query.engine import DatasetSource, StoreSource, evaluate
from de_ray.query.parser import Var, parse_query
from de_ray.query.serialize import serialize_result
from de_ray.rdfio import read_rdf

from conftest import REFERENCE_RES, RES, needs_reference


def _read(p):
    with open(p, encoding="utf-8") as f:
        return f.read()


@pytest.fixture(scope="module")
def pineapple_store(tmp_path_factory):
    from de_ray.hdt.store import Store, write_store

    out = str(tmp_path_factory.mktemp("q") / "pineapple")
    write_store(read_rdf([f"{RES}/pineapple.ttl"]), out)
    return Store(out)


@pytest.fixture(scope="module")
def reference_pineapple_store(tmp_path_factory):
    """Store over the upstream pineapple.ttl, whose price ("$2.50") and
    vitamin (ex:VitaminC) differ from FIXTURES.md §3."""
    from de_ray.hdt.store import Store, write_store

    out = str(tmp_path_factory.mktemp("q") / "reference_pineapple")
    write_store(read_rdf([f"{REFERENCE_RES}/pineapple.ttl"]), out)
    return Store(out)


def test_parse_fruit_color_query():
    q = parse_query(_read(f"{RES}/query-fruit-color.rq"))
    assert q.form == "SELECT"
    assert [v.name for v in q.variables] == ["fruit", "color"]
    assert len(q.where.patterns) == 1
    assert q.order_by == [(Var("fruit"), True)]


def test_parse_color_query_bgp():
    q = parse_query(_read(f"{RES}/query-color.rq"))
    assert len(q.where.patterns) == 2  # ';' shorthand → 2 patterns, same subject
    p1, p2 = q.where.patterns
    assert p1.s == p2.s == Var("fruit")
    assert p2.o == '"yellow"'


def test_golden_csv(pineapple_store):
    """Reference golden: fruit,color / http://example.org/Pineapple,yellow."""
    q = parse_query(_read(f"{RES}/query-fruit-color.rq"))
    res = evaluate(q, StoreSource(pineapple_store))
    out = serialize_result(res, "csv").replace("\r", "").strip()
    assert out == "fruit,color\nhttp://example.org/Pineapple,yellow"


def test_golden_tsv(pineapple_store):
    q = parse_query(_read(f"{RES}/query-fruit-color.rq"))
    out = serialize_result(evaluate(q, StoreSource(pineapple_store)), "tsv")
    assert out.replace("\r", "").strip() == '?fruit\t?color\n<http://example.org/Pineapple>\t"yellow"'


def test_golden_json(pineapple_store):
    q = parse_query(_read(f"{RES}/query-fruit-color.rq"))
    out = serialize_result(evaluate(q, StoreSource(pineapple_store)), "json")
    assert out.strip() == (
        '{"head":{"vars":["fruit","color"]},"results":{"bindings":'
        '[{"fruit":{"type":"uri","value":"http://example.org/Pineapple"},'
        '"color":{"type":"literal","value":"yellow"}}]}}'
    )


def test_golden_xml(pineapple_store):
    q = parse_query(_read(f"{RES}/query-fruit-color.rq"))
    out = serialize_result(evaluate(q, StoreSource(pineapple_store)), "xml")
    assert out.strip() == (
        '<?xml version="1.0"?><sparql xmlns="http://www.w3.org/2005/sparql-results#">'
        '<head><variable name="fruit"/><variable name="color"/></head>'
        "<results><result>"
        '<binding name="fruit"><uri>http://example.org/Pineapple</uri></binding>'
        '<binding name="color"><literal>yellow</literal></binding>'
        "</result></results></sparql>"
    )


def test_bgp_join_two_patterns(tmp_path):
    """query-color.rq over apple+banana+pineapple: yellow Fruits, ORDER BY DESC."""
    from de_ray.hdt.store import Store, write_store

    out = str(tmp_path / "fruits")
    write_store(
        read_rdf([f"{RES}/apple.ttl", f"{RES}/banana.nt", f"{RES}/pineapple.ttl"]), out
    )
    q = parse_query(_read(f"{RES}/query-color.rq"))
    res = evaluate(q, StoreSource(Store(out)))
    out_csv = serialize_result(res, "csv").replace("\r", "").strip().split("\n")
    assert out_csv == ["fruit", "http://example.org/Pineapple", "http://example.org/Banana"]


def test_select_distinct_star(pineapple_store):
    q = parse_query(_read(f"{RES}/all.rq"))
    res = evaluate(q, StoreSource(pineapple_store))
    assert res.variables == ["a", "prop", "c"]
    assert res.ds.count() == 12


def test_raw_dataset_source_equivalence(pineapple_store):
    """Reference conformance: query over raw RDF == query over store."""
    q = parse_query(_read(f"{RES}/query-fruit-color.rq"))
    raw = evaluate(q, DatasetSource(read_rdf([f"{RES}/pineapple.ttl"])))
    store = evaluate(q, StoreSource(pineapple_store))
    assert serialize_result(raw, "csv") == serialize_result(store, "csv")


@needs_reference("pineapple.ttl")
def test_ask_and_filters(reference_pineapple_store):
    src = StoreSource(reference_pineapple_store)
    yes = evaluate(parse_query(
        'PREFIX ex: <http://example.org/> ASK { ?f ex:hasColor "yellow" }'), src)
    no = evaluate(parse_query(
        'PREFIX ex: <http://example.org/> ASK { ?f ex:hasColor "mauve" }'), src)
    assert yes.value is True and no.value is False
    assert serialize_result(yes, "json") == '{"head":{},"boolean":true}'
    # FILTER with regex and comparison
    res = evaluate(
        parse_query(
            'PREFIX ex: <http://example.org/> SELECT ?p ?o WHERE '
            "{ ex:Pineapple ?p ?o FILTER(REGEX(STR(?o), \"^\\\\$\")) }"
        ),
        src,
    )
    rows = res.ds.take_all()
    assert [r["o"] for r in rows] == ['"$2.50"']


def test_order_by_limit(pineapple_store):
    res = evaluate(
        parse_query(
            "SELECT ?p WHERE { <http://example.org/Pineapple> ?p ?o } ORDER BY DESC(?p) LIMIT 3"
        ),
        StoreSource(pineapple_store),
    )
    ps = [r["p"] for r in res.ds.take_all()]
    assert len(ps) == 3
    assert ps == sorted(ps, reverse=True)


def test_construct(pineapple_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> "
        "CONSTRUCT { ?f ex:colour ?c } WHERE { ?f ex:hasColor ?c }"
    )
    res = evaluate(q, StoreSource(pineapple_store))
    out = serialize_result(res, "ntriple").strip()
    assert out == '<http://example.org/Pineapple> <http://example.org/colour> "yellow" .'


@needs_reference("pineapple.ttl")
def test_union(reference_pineapple_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> SELECT ?x WHERE "
        "{ { ?x ex:hasColor \"yellow\" } UNION { ?x ex:hasVitamin ex:VitaminC } }"
    )
    res = evaluate(q, StoreSource(reference_pineapple_store))
    xs = [r["x"] for r in res.ds.take_all()]
    assert xs.count("http://example.org/Pineapple") == 2


def test_optional(pineapple_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
        "SELECT ?f ?lbl WHERE { ?f a ex:Fruit OPTIONAL { ?f rdfs:label ?lbl } }"
    )
    res = evaluate(q, StoreSource(pineapple_store))
    rows = {r["f"]: r["lbl"] for r in res.ds.take_all()}
    assert rows == {"http://example.org/Pineapple": None}


def test_construct_rdfxml_roundtrip(pineapple_store):
    """CONSTRUCT → RDF/XML → parse back == original triples (K4)."""
    from de_ray.rdfio.rdfxml import parse_rdfxml

    q = parse_query(
        "PREFIX ex: <http://example.org/> "
        "CONSTRUCT { ?f ex:hasColor ?c } WHERE { ?f ex:hasColor ?c }"
    )
    res = evaluate(q, StoreSource(pineapple_store))
    xml = serialize_result(res, "rdfxml")
    back = set(parse_rdfxml(xml))
    assert back == {("http://example.org/Pineapple", "http://example.org/hasColor", '"yellow"')}


def test_construct_turtle_is_valid_nt_subset(pineapple_store):
    q = parse_query(
        "PREFIX ex: <http://example.org/> "
        "CONSTRUCT { ?f ex:hasColor ?c } WHERE { ?f ex:hasColor ?c }"
    )
    res = evaluate(q, StoreSource(pineapple_store))
    ttl = serialize_result(res, "turtle")
    from de_ray.rdfio.turtle import parse_turtle

    assert parse_turtle(ttl) == [
        ("http://example.org/Pineapple", "http://example.org/hasColor", '"yellow"')
    ]


def test_serializers_respect_projection_order_when_columns_differ():
    """The engine may emit result columns in join order, not projection
    order (e.g. SELECT ?n ?reg ?nname over a two-pattern BGP returns
    (n, nname, reg)). Every serializer must key values by the ACTUAL column
    names, not zip projection-order variables onto positional tuples —
    regression test for the swapped-bindings bug found via SERVICE
    federation returning 0 joined rows."""
    import json

    import pandas as pd
    import ray.data as rd

    from de_ray.query.serialize import (
        solutions_to_csv,
        solutions_to_json,
        solutions_to_tsv,
        solutions_to_xml,
    )

    class Res:
        variables = ["n", "reg", "nname"]
        # column order differs from projection order
        ds = rd.from_pandas(
            pd.DataFrame(
                {
                    "n": ["http://x/nation/0"],
                    "nname": ['"N0"'],
                    "reg": ["http://x/region/0"],
                }
            )
        )

    doc = json.loads(solutions_to_json(Res()))
    b = doc["results"]["bindings"][0]
    assert b["reg"]["value"] == "http://x/region/0"
    assert b["nname"] == {"type": "literal", "value": "N0"}
    assert doc["head"]["vars"] == ["n", "reg", "nname"]

    csv = solutions_to_csv(Res()).splitlines()
    assert csv[0] == "n,reg,nname"
    assert csv[1] == "http://x/nation/0,http://x/region/0,N0"

    tsv = solutions_to_tsv(Res()).splitlines()
    assert tsv[1].split("\t") == ["<http://x/nation/0>", "<http://x/region/0>", '"N0"']

    xml = solutions_to_xml(Res())
    assert '<binding name="reg"><uri>http://x/region/0</uri></binding>' in xml


def _solutions_df(res):
    import pandas as pd

    ds = res.ds if hasattr(res, "ds") else res
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize(
    "sparql",
    [
        "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n) ?p",
        "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
        "SELECT ?p (COUNT(*) AS ?n) WHERE { <http://example.org/Pineapple> ?p ?o } GROUP BY ?p",
        "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p HAVING (?n > 1)",
        "SELECT ?p (COUNT(*) AS ?n) (COUNT(?s) AS ?m) WHERE { ?s ?p ?o } GROUP BY ?p "
        "ORDER BY ?p LIMIT 2",
        "SELECT ?p (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
        "SELECT ?s (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
        # resolvable bound terms, zero matching triples → zero groups
        "SELECT ?o (COUNT(*) AS ?n) WHERE { <http://example.org/Fruit> "
        "<http://example.org/hasColor> ?o } GROUP BY ?o",
        # unresolvable bound term → dictionary short-circuit, zero groups
        "SELECT ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { <http://example.org/Nope> "
        "?p ?o } GROUP BY ?p",
    ],
)
def test_id_groupby_fastpath_matches_generic(pineapple_store, sparql, monkeypatch):
    """The int-domain aggregate pushdown must return exactly what the
    generic decode-then-group path returns, column for column."""
    import pandas as pd

    import de_ray.query.engine as E

    q1 = parse_query(sparql)
    src = StoreSource(pineapple_store)
    fast = E._try_id_groupby_fastpath(q1, src)
    assert fast is not None, "expected the fastpath to take this shape"
    # generic path: disable the fastpath and evaluate from scratch
    monkeypatch.setattr(E, "_try_id_groupby_fastpath", lambda *_a: None)
    slow = evaluate(parse_query(sparql), src)
    a, b = _solutions_df(fast), _solutions_df(slow)
    assert fast.variables == slow.variables
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize(
    "sparql",
    [
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
        "SELECT DISTINCT ?s ?o WHERE { ?s <http://example.org/hasColor> ?o }",
        "SELECT DISTINCT ?o ?p WHERE { ?s ?p ?o } ORDER BY ?p ?o LIMIT 5",
        # ORDER BY a non-projected var: distinct runs over sel+extra on the
        # generic path — the pushdown must replicate that semantics exactly
        "SELECT DISTINCT ?p ?o WHERE { <http://example.org/Nope> ?p ?o }",
    ],
)
def test_id_distinct_fastpath_matches_generic(pineapple_store, sparql, monkeypatch):
    import pandas as pd

    import de_ray.query.engine as E

    q1 = parse_query(sparql)
    src = StoreSource(pineapple_store)
    fast = E._try_id_distinct_fastpath(q1, src)
    assert fast is not None, "expected the distinct fastpath to take this shape"
    monkeypatch.setattr(E, "_try_id_distinct_fastpath", lambda *_a: None)
    slow = evaluate(parse_query(sparql), src)
    a, b = _solutions_df(fast), _solutions_df(slow)
    assert fast.variables == slow.variables
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize(
    "sparql",
    [
        "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p",
        "SELECT ?p (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
        # resolvable bound terms, zero matches, through the join decode
        "SELECT ?o (COUNT(*) AS ?n) WHERE { <http://example.org/Fruit> "
        "<http://example.org/hasColor> ?o } GROUP BY ?o",
    ],
)
def test_id_fastpaths_forced_join_decode(pineapple_store, sparql, monkeypatch):
    """TERM_MAP_LIMIT=0 forces the huge-dictionary regime: the pushdowns
    must decode their survivors via the on-disk hash joins and still match
    the generic path exactly."""
    import pandas as pd

    import de_ray.hdt.store as S
    import de_ray.query.engine as E

    src = StoreSource(pineapple_store)
    want = _solutions_df(evaluate(parse_query(sparql), src))
    monkeypatch.setattr(S, "TERM_MAP_LIMIT", 0)
    q = parse_query(sparql)
    fast = E._try_id_groupby_fastpath(q, src) or E._try_id_distinct_fastpath(q, src)
    assert fast is not None
    pd.testing.assert_frame_equal(_solutions_df(fast), want)


def test_id_distinct_fastpath_declines_unsupported_shapes(pineapple_store):
    import de_ray.query.engine as E

    src = StoreSource(pineapple_store)
    for sparql in [
        # not DISTINCT
        "SELECT ?p WHERE { ?s ?p ?o }",
        # expression projection
        "SELECT DISTINCT (STR(?p) AS ?x) WHERE { ?s ?p ?o }",
        # two patterns
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o . ?o ?p2 ?x } GROUP BY ?p",
        # FILTER
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o FILTER(?p != ?s) }",
        # repeated var
        "SELECT DISTINCT ?p WHERE { ?x ?p ?x }",
    ]:
        assert E._try_id_distinct_fastpath(parse_query(sparql), src) is None, sparql


def test_id_groupby_fastpath_declines_unsupported_shapes(pineapple_store):
    import de_ray.query.engine as E

    src = StoreSource(pineapple_store)
    for sparql in [
        # two patterns
        "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o . ?o ?p2 ?x } GROUP BY ?p",
        # non-COUNT aggregate
        "SELECT ?p (MIN(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
        # mixed plain + DISTINCT needs a result join
        "SELECT ?p (COUNT(*) AS ?n) (COUNT(DISTINCT ?s) AS ?m) "
        "WHERE { ?s ?p ?o } GROUP BY ?p",
        # COUNT(DISTINCT *) has distinct-solution semantics
        "SELECT ?p (COUNT(DISTINCT *) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
        # FILTER in the group
        "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o FILTER(?p != ?s) } GROUP BY ?p",
        # repeated var
        "SELECT ?p (COUNT(*) AS ?n) WHERE { ?x ?p ?x } GROUP BY ?p",
    ]:
        assert E._try_id_groupby_fastpath(parse_query(sparql), src) is None, sparql


def test_distinct_order_by_nonprojected_rejected(pineapple_store):
    """SPARQL restricts ORDER BY in SELECT DISTINCT to projected variables
    — deduping over (projection + key) would emit duplicate projected
    rows, so the engine rejects instead (engine review r3)."""
    import pytest as _pytest

    q = parse_query("SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p ?s")
    with _pytest.raises(ValueError, match="projected"):
        evaluate(q, StoreSource(pineapple_store))
