"""Tests for the package's public names."""

import slcl


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from slcl import *", namespace)
    missing = [name for name in slcl.__all__ if name not in namespace]
    assert not missing
