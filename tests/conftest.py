import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def time_limit():
    """Context manager factory: `with time_limit(s):` raises TimeoutError after s seconds.

    A hang then fails its test instead of stalling the suite (SIGALRM, so
    the body must run in the main thread).
    """
    @contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
