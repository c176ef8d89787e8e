"""Every name that a croftonlab module lists in `__all__` exists.

A stale export left behind by a deletion would otherwise go unnoticed by
callers that look names up with a default (`getattr(module, name, None)`).
"""

import importlib
import pkgutil

import pytest

import croftonlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(croftonlab.__path__))


def test_layers_are_listed():
    assert {"checks", "cli", "coeffcore", "extalg", "geom", "planes", "valuations",
            "varcheck"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"croftonlab.{name}")
    exported = getattr(module, "__all__", ())
    assert [export for export in exported if not hasattr(module, export)] == []
