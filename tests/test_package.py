"""The package's public names."""

import hexnls


def test_every_exported_name_resolves():
    missing = [name for name in hexnls.__all__ if not hasattr(hexnls, name)]
    assert missing == []
    assert len(set(hexnls.__all__)) == len(hexnls.__all__)


def test_star_import():
    namespace = {}
    exec("from hexnls import *", namespace)
    assert set(hexnls.__all__) <= set(namespace)
