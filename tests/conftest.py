import sys
from pathlib import Path

import pytest

from cyclodet import detkit

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def fresh_prime_tables():
    """Each test starts and ends with no auxiliary-prime tables held (`detkit._tables`), so
    a test that mutates how they are built sees its own tables, in any order, and leaves
    none to the next test or to a fixture of wider scope."""
    detkit._tables.cache_clear()
    yield
    detkit._tables.cache_clear()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) -> a list that gets the first argument of every call of fn.

    Every attribute of a loaded cyclodet module that holds fn is rebound, so
    calls through a name imported into another module are counted too.
    """

    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return fn(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname == "cyclodet" or modname.startswith("cyclodet."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return install
