"""Fixtures every test module shares."""

import gc
import multiprocessing

import pytest

from vltrack import pipeline

call_failed = pytest.StashKey[bool]()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        item.stash[call_failed] = report.failed


@pytest.fixture(autouse=True)
def no_child_left(request):
    """Every process a test starts, such as a training peer or a tracking worker, has exited by its end.

    A test that already failed gets its training peer stopped first: the
    failure's traceback keeps the model, and with it the peer, alive.
    """
    yield
    if request.node.stash.get(call_failed, False):
        pipeline.close_peer()
    gc.collect()
    assert multiprocessing.active_children() == []
