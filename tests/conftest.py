import concurrent.futures
import os

import pytest
from hypothesis import strategies as st

from mwb import catalog
from mwb.constructions import boundary_simplex, product
from mwb.core import from_facets
from mwb.flips import Schedule, reduce

CSASZAR_TRIANGLES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 7), (1, 4, 5), (1, 5, 6), (1, 6, 7),
    (2, 3, 6), (2, 4, 7), (2, 5, 6), (2, 5, 7), (3, 4, 5), (3, 4, 6),
    (3, 5, 7), (4, 6, 7),
]

# the unique 6-vertex real projective plane
RP2_TRIANGLES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


@pytest.fixture(scope="session")
def csaszar():
    return from_facets(CSASZAR_TRIANGLES)


@pytest.fixture(scope="session")
def rp2_6():
    return from_facets(RP2_TRIANGLES)


@pytest.fixture(scope="session")
def entries():
    return {e.name: e for e in catalog.catalog()}


@pytest.fixture(scope="session")
def complexes(entries):
    return {name: e.load() for name, e in entries.items()}


@pytest.fixture(scope="session")
def s2xs2_reduction():
    """(start, trace, final complex) of the S2xS2 seed-1 reduction of
    acceptance gate 3: 18,225 moves, 8,580 of them undoing the move before
    them on an undo stack."""
    P = product(boundary_simplex(2), boundary_simplex(2))
    _, trace, stats = reduce(P, seed=1, budget=500_000,
                             schedule=Schedule(target_f0=12))
    return P, trace, stats["final"]


@st.composite
def small_complexes(draw, max_dim=3, max_n=8, max_facets=12):
    """Pure complexes of dimension 1..max_dim on up to max_n vertices, any
    n >= d+1."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(d + 1, max_n))
    facet = st.sets(st.integers(1, n), min_size=d + 1, max_size=d + 1)
    return from_facets(draw(st.lists(facet, min_size=1, max_size=max_facets)))


@pytest.fixture()
def fake_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor in-process, on a machine with 2 CPUs.

    Returns the list of ``max_workers`` values the pools were opened with;
    no worker process is started.
    """
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return sizes
