"""Fixtures shared by the test modules."""

import dataclasses
import os

import pytest

import fracstep


@pytest.fixture
def per_node():
    """p -> the same problem with its forcing folded into rhs, f = rhs + forcing, node by node.

    The result has no lam, so it steps by Newton: with lam, rhs must be lam*u.
    """

    def fold(p):
        return dataclasses.replace(p, rhs=lambda t, u: p.rhs(t, u) + p.forcing(t), forcing=None, lam=None)

    return fold


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the same fracstep as the tests."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracstep.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
