import importlib

import pytest


@pytest.mark.parametrize("module", ["ssadvae", "ssadvae.gradcore"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    ns = {}
    exec("from ssadvae import *", ns)
    import ssadvae
    assert set(ssadvae.__all__) <= set(ns)
