"""The package surface: every exported name resolves."""

import anisostokes


def test_every_exported_name_resolves():
    assert [name for name in anisostokes.__all__ if not hasattr(anisostokes, name)] == []
    assert len(set(anisostokes.__all__)) == len(anisostokes.__all__)
    namespace = {}
    exec("from anisostokes import *", namespace)
    assert set(anisostokes.__all__) <= set(namespace)
