import os

import pytest

_TESTS = os.path.dirname(os.path.abspath(__file__))

# In-repo fruit corpus, written from FIXTURES.md §3 (see tests/resources/).
RES = os.path.join(_TESTS, "resources")
# The upstream Rust checkout's own fixtures, expected in a `reference/`
# checkout next to this repository. Tests that assert facts of those exact
# files (apple.hdt, the 9-triple apple.ttl, ...) skip where it is absent.
REFERENCE_RES = os.path.join(
    os.path.dirname(os.path.dirname(_TESTS)), "reference", "tests", "resources"
)


def needs_reference(*names):
    """skipif marker: run only where every named upstream fixture exists."""
    missing = [n for n in names if not os.path.exists(os.path.join(REFERENCE_RES, n))]
    return pytest.mark.skipif(
        bool(missing), reason=f"upstream fixture absent: {', '.join(missing)}"
    )


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()
