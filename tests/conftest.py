"""Fixtures shared by the test modules."""

import pytest
from mpmath import libmp


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names, module=libmp) counts calls to the named functions
    of ``module`` (the libmp primitives by default) for the rest of the test;
    returns name -> [count]."""
    def install(*names, module=libmp):
        counts = {}
        for name in names:
            real, tally = getattr(module, name), counts.setdefault(name, [0])

            def counting(*args, real=real, tally=tally):
                tally[0] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        return counts
    return install
