import pathlib
import signal

import pytest

from mcflow import parse_network

DATA = pathlib.Path(__file__).parent / "data"

# Wall-clock limits per test, in seconds.  A test that hangs (a max flow
# that never ends, say) fails with TimeLimitExceeded instead of stalling
# the suite.  Tests marked `slow` (the oracle sweep, about 25 s) get the
# larger limit; every other test runs in a few seconds.
TIME_LIMIT_S = 60
SLOW_TIME_LIMIT_S = 900


class TimeLimitExceeded(BaseException):
    """A test ran past its limit.  Not an Exception, so that nothing which
    catches Exception (Hypothesis replaying a failing example, say) can
    swallow it and run the hanging code again with no alarm left."""


@pytest.fixture(autouse=True)
def time_limit(request):
    slow = request.node.get_closest_marker("slow") is not None
    limit = SLOW_TIME_LIMIT_S if slow else TIME_LIMIT_S

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past its {limit} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def golden_text() -> str:
    return (DATA / "two_commodity.net").read_text()


@pytest.fixture(scope="session")
def golden_net(golden_text):
    return parse_network(golden_text)


@pytest.fixture(scope="session")
def disjoint_text() -> str:
    return (DATA / "disjoint.net").read_text()


@pytest.fixture(scope="session")
def disjoint_net(disjoint_text):
    return parse_network(disjoint_text)


@pytest.fixture(scope="session")
def single_edge_text() -> str:
    return (DATA / "single_edge.net").read_text()
