"""Every exported name resolves: no deleted name is left in an __all__."""

import importlib

import pytest

MODULES = ("adspet", "adspet.charges", "adspet.clifford", "adspet.geometry",
           "adspet.initial_data", "adspet.killing", "adspet.qmatrix",
           "adspet.spinors")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
