"""Every name a package lists in ``__all__`` resolves."""

import importlib

import pytest


@pytest.mark.parametrize(
    "package", ["gatesynth", "gatesynth.pop", "gatesynth.workbench"]
)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
