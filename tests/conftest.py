"""Fixtures shared by the test modules."""

import pytest
from mpmath import libmp


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names) counts calls to the named libmp primitives for the
    rest of the test; returns name -> [count]."""
    def install(*names):
        counts = {}
        for name in names:
            real, tally = getattr(libmp, name), counts.setdefault(name, [0])

            def counting(*args, real=real, tally=tally):
                tally[0] += 1
                return real(*args)

            monkeypatch.setattr(libmp, name, counting)
        return counts
    return install
