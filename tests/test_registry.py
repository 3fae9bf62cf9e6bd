"""Store registry (AggregateHdt semantics): sync, insert/remove, union snapshot."""

import shutil

import pytest

from de_ray.hdt.registry import StoreRegistry
from de_ray.hdt.store import write_store
from de_ray.query.engine import evaluate
from de_ray.query.parser import parse_query
from de_ray.rdfio import read_rdf

from conftest import RES

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


@pytest.fixture(scope="module")
def stores_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("registry")
    write_store(read_rdf([f"{RES}/apple.ttl"]), str(root / "apple"))
    write_store(read_rdf([f"{RES}/banana.nt"]), str(root / "banana"))
    return root


def test_sync_and_union_query(stores_root):
    reg = StoreRegistry(str(stores_root))
    assert reg.names() == ["apple", "banana"]
    assert reg.graphs() == ["file:///apple.ttl", "file:///banana.nt"]
    # combined-store query answers across both graphs (reference
    # test-commands.rs:328-368 two-HDT semantics)
    q = parse_query(
        f"SELECT ?f WHERE {{ ?f <{RDF_TYPE}> <http://example.org/Fruit> }} ORDER BY ?f"
    )
    res = evaluate(q, reg.snapshot())
    fruits = [r["f"] for r in res.ds.take_all()]
    assert fruits == ["http://example.org/Apple", "http://example.org/Banana"]


def test_remove_and_resync(stores_root, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(stores_root, work)
    reg = StoreRegistry(str(work))
    assert reg.remove("banana") is True
    assert reg.names() == ["apple"]
    reg.sync()  # directory still has both → re-added
    assert reg.names() == ["apple", "banana"]
    shutil.rmtree(work / "banana")
    reg.sync()
    assert reg.names() == ["apple"]


def test_insert_rejects_incomplete(tmp_path):
    reg = StoreRegistry()
    with pytest.raises(FileNotFoundError):
        reg.insert("x", str(tmp_path))
