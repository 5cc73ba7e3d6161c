"""Search bounds are module constants, not parameters: no public entry
point takes a budget."""

import inspect

import pytest

import quatalg
from quatalg import algebras, chains, quaternions

KNOBS = {"budget", "tries", "limit"}


def _public_callables():
    found = {}
    for name in quatalg.__all__:
        obj = getattr(quatalg, name)
        is_error = inspect.isclass(obj) and issubclass(obj, Exception)
        if callable(obj) and not is_error:
            found["quatalg." + name] = obj
    for mod in (algebras, chains, quaternions):
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found["%s.%s" % (mod.__name__, name)] = obj
    return found


PUBLIC = _public_callables()


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_no_search_budget_parameter(name):
    params = set(inspect.signature(PUBLIC[name]).parameters)
    assert not params & KNOBS
