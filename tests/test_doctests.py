import doctest

import lpa_lie.cohn
import lpa_lie.graph
import lpa_lie.linalg


def test_module_doctests():
    for module in (lpa_lie.cohn, lpa_lie.graph, lpa_lie.linalg):
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
        assert result.attempted > 0
