"""CLI end-to-end via subprocess — the reference's golden-diff CI pattern
(Makefile:40-44 pipes query output through diff against a golden file)."""

import os
import subprocess
import sys

import pytest

from conftest import RES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(*args, expect_fail=False):
    r = subprocess.run(
        [sys.executable, "-m", "de_ray.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=300,
        env={**os.environ, "RAY_ADDRESS": "local"},
    )
    if r.returncode != 0 and not expect_fail:
        # One retry: each CLI call boots its own Ray; under full-suite host
        # load the startup occasionally fails transiently.
        r = subprocess.run(
            [sys.executable, "-m", "de_ray.cli", *args],
            capture_output=True,
            text=True,
            cwd=REPO,
            timeout=300,
            env={**os.environ, "RAY_ADDRESS": "local"},
        )
    return r


@pytest.mark.slow
def test_cli_create_query_view_golden(tmp_path):
    store = str(tmp_path / "store")
    r = _cli("create", "-o", store, "-d", f"{RES}/pineapple.ttl", f"{RES}/banana.nt")
    assert r.returncode == 0, r.stderr[-500:]
    assert os.path.exists(os.path.join(store, "_SUCCESS"))

    r = _cli("query", "-d", store, "-s", f"{RES}/query-color.rq", "-o", "csv")
    assert r.returncode == 0, r.stderr[-500:]
    got = r.stdout.replace("\r", "").strip().splitlines()
    assert got == ["fruit", "http://example.org/Pineapple", "http://example.org/Banana"]

    r = _cli("view", store)
    assert r.returncode == 0
    assert '"void:triples": 24' in r.stdout  # 12 + 12

    r = _cli("query", "-d", store, "-s", "/nonexistent.rq", expect_fail=True)
    assert r.returncode == 14  # UNAVAILABLE-style exit (reference src/main.rs:88-93)
