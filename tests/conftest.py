"""Fixtures every test module shares."""

import gc
import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Every process a test starts, such as a training peer or a tracking worker, has exited by its end."""
    yield
    gc.collect()
    assert multiprocessing.active_children() == []
