"""Fixtures shared by the test modules."""

import composed_ops
import pytest


@pytest.fixture()
def algebra(monkeypatch):
    """The composed twins' generic algebra as ``ops.Var`` operators, for one test."""
    composed_ops.install(monkeypatch)
