"""Fixtures shared by the test modules."""

import os

import pytest

import fracstep


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the same fracstep as the tests."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracstep.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
