import doctest
import importlib
import inspect
import pkgutil

import lpa_lie


def test_module_doctests():
    # every module of the package, found by walking it, so no module with examples is missed
    names = [f"lpa_lie.{m.name}" for m in pkgutil.iter_modules(lpa_lie.__path__)]
    assert "lpa_lie.graph" in names
    for module in [lpa_lie, *map(importlib.import_module, names)]:
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
        assert result.attempted or ">>>" not in inspect.getsource(module), module.__name__
