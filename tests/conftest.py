"""Shared fixtures."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def layers():
    """perfbench/layers.py, imported without writing anything under perfbench/."""
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        yield importlib.import_module("layers")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)
