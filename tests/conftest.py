import tracemalloc

import pytest

from eisenlat import monodromy as mono


@pytest.fixture(scope="session")
def closures():
    """Shared closures of R_1..R_4, so each stabilizer chain and its reflection search are made once per session."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = mono.group_closure(mono.chain_triflections(n))
        return cache[n]

    return get


def traced_peak(f):
    """f() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak
