import importlib
import pkgutil

import pytest

import stochwave

# __main__ runs the CLI when imported, so it is left out
MODULES = [stochwave] + [
    importlib.import_module(f"stochwave.{info.name}")
    for info in pkgutil.iter_modules(stochwave.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
