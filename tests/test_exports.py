"""Every name a public module exports resolves, so a deletion cannot leave
a stale entry in an ``__all__`` behind."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["qrr", "qrr.bailey", "qrr.telescoping", "qrr.binomial",
                                    "qrr.identities"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
