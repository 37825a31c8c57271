"""Fixtures shared by the service tests."""

import threading
import time

import pytest

#: seconds a worker thread still exiting after a test gets to finish (a
#: service that shut down has joined its pool already)
JOIN_TIMEOUT = 0.25


@pytest.fixture(autouse=True)
def workers_are_joined():
    """Fail a test that leaves a ``repro-query`` worker thread running:
    a service that shuts down joins its pool, and no thread outlives the
    request it serves."""
    yield
    deadline = time.monotonic() + JOIN_TIMEOUT
    alive = []
    for thread in threading.enumerate():
        if thread.name.startswith("repro-query"):
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                alive.append(thread.name)
    if alive:
        pytest.fail(f"worker thread(s) still alive {JOIN_TIMEOUT:g} s "
                    f"after the test: {alive}")
