"""Shared test helpers."""

import pytest


@pytest.fixture
def spy_calls():
    """spy_calls(problem) wraps the problem's raw callbacks and returns the
    list that gets the kind and the bytes of x of every call; a tally of
    its kinds counts the calls."""
    def spy(problem):
        calls = []
        for kind in "fgcJ":
            fn = getattr(problem, f"eval_{kind}")
            if fn is not None:
                def called(x, kind=kind, fn=fn):
                    calls.append((kind, x.tobytes()))
                    return fn(x)
                setattr(problem, f"eval_{kind}", called)
        return calls

    return spy
