"""Binary .hdt ControlInfo/Header reader vs the reference's own apple.hdt."""

import os

import pytest

from conftest import REFERENCE_RES, RES, needs_reference

APPLE = f"{REFERENCE_RES}/apple.hdt"


@pytest.mark.skipif(not os.path.exists(APPLE), reason="reference fixture absent")
def test_read_apple_hdt_header():
    from de_ray.hdt.hdtfile import read_hdt_header

    h = read_hdt_header(APPLE)
    assert h["format"] == "http://purl.org/HDT/hdt#HDTv1"
    assert h["void:triples"] == 9
    assert h["void:properties"] == 7
    assert h["void:distinctSubjects"] == 2
    assert h["numSharedSubjectObject"] == 1
    assert h["dictionaryblockSize"] == 16


@pytest.mark.skipif(not os.path.exists(APPLE), reason="reference fixture absent")
def test_view_dispatches_to_hdt_file(tmp_path):
    from de_ray.hdt.store import view

    h = view(APPLE)
    assert h["void:triples"] == 9
    with pytest.raises(ValueError):
        view(str(tmp_path / "nope.bin")) if (tmp_path / "nope.bin").write_bytes(b"xxxx") else None


@pytest.mark.skipif(not os.path.exists(APPLE), reason="reference fixture absent")
def test_our_store_header_matches_reference_hdt_header(tmp_path):
    """The parity check, end to end: build OUR store from apple.ttl, read THEIR
    apple.hdt — the shared stat keys must agree."""
    from de_ray.hdt.hdtfile import read_hdt_header
    from de_ray.hdt.store import write_store
    from de_ray.rdfio import read_rdf

    ours = write_store(read_rdf([f"{REFERENCE_RES}/apple.ttl"]), str(tmp_path / "s"))
    theirs = read_hdt_header(APPLE)
    for key in ("void:triples", "void:properties", "void:distinctSubjects",
                "numSharedSubjectObject", "dictionaryblockSize"):
        assert ours[key] == theirs[key], key


@pytest.mark.skipif(not os.path.exists(APPLE), reason="reference fixture absent")
def test_read_reference_hdt_triples():
    """Full binary decode of the REFERENCE tool's own apple.hdt fixture:
    9 triples with correct IRI/typed-literal terms (interchange read)."""
    from de_ray.hdt.hdtfile import read_hdt_file

    hdr, triples = read_hdt_file(APPLE)
    assert len(triples) == 9
    ts = set(triples)
    assert (
        "http://example.org/apple#Apple",
        "http://example.org/apple#isOrganic",
        '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>',
    ) in ts
    assert (
        "http://example.org/apple#Apple",
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
        "http://example.org/apple#Fruit",
    ) in ts
    assert hdr["void:triples"] == 9 and hdr["numSharedSubjectObject"] == 1


@needs_reference("apple.ttl")
def test_write_hdt_roundtrip(tmp_path):
    """store → .hdt → read back: triples identical; view header parity."""
    from de_ray.hdt.hdtfile import read_hdt_file
    from de_ray.hdt.hdtfile import write_hdt_file
    from de_ray.hdt.store import Store, view, write_store
    from de_ray.rdfio import read_rdf

    out = str(tmp_path / "apple")
    write_store(read_rdf([f"{REFERENCE_RES}/apple.ttl"]), out)
    st = Store(out)
    p = str(tmp_path / "apple.hdt")
    info = write_hdt_file(st, p)
    assert info["n_triples"] == 9
    hdr, triples = read_hdt_file(p)
    ours = {(r["subj"], r["pred"], r["obj"]) for r in st.pattern_scan().take_all()}
    assert set(triples) == ours
    v = view(p)  # view() works on our own .hdt files too
    for k in ("void:triples", "void:properties", "void:distinctSubjects",
              "void:distinctObjects", "numSharedSubjectObject"):
        assert v[k] == st.header[k], k


def test_cli_create_hdt_and_query(tmp_path):
    """create -o out.hdt then query -d out.hdt: reference CLI interchange."""
    import io

    from de_ray.cli import do_create, do_query

    p = str(tmp_path / "fruits.hdt")
    do_create(p, [f"{RES}/apple.ttl", f"{RES}/pineapple.ttl"])
    qf = str(tmp_path / "q.rq")
    with open(qf, "w") as f:
        f.write("PREFIX ex: <http://example.org/> SELECT ?f WHERE "
                '{ ?f ex:hasColor "yellow" }')
    buf = io.StringIO()
    do_query([p], [qf], "csv", out=buf)
    assert buf.getvalue().replace("\r", "").strip() == "f\nhttp://example.org/Pineapple"
