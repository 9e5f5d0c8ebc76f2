import itertools

import pytest

from mwb.bounds import heawood_min_vertices
from mwb.census import (CensusResult, SurfaceClass, classify_surface,
                        enumerate_spheres, enumerate_surfaces)
from mwb.constructions import boundary_simplex, twisted_bundle
from mwb.core import is_pseudomanifold
from mwb.errors import CapExceeded, InvalidArgument, NotASurface, WorkbenchError
from mwb.iso import are_isomorphic

S2 = SurfaceClass(True, 0, 2)
T2 = SurfaceClass(True, 1, 0)
RP2 = SurfaceClass(False, 1, 1)
K2 = SurfaceClass(False, 2, 0)


def test_classify_surfaces(csaszar, rp2_6):
    assert classify_surface(csaszar) == T2
    assert classify_surface(rp2_6) == RP2
    assert classify_surface(twisted_bundle(2)) == K2
    assert classify_surface(boundary_simplex(2)) == S2


def test_classify_rejects_non_surfaces(complexes):
    with pytest.raises(NotASurface):
        classify_surface(complexes["RP3-11"])


def test_small_counts():
    assert enumerate_surfaces(4).counts == {S2: 1}
    assert enumerate_surfaces(5).counts == {S2: 1}
    assert enumerate_surfaces(6).counts == {S2: 2, RP2: 1}
    assert enumerate_surfaces(7).counts == {S2: 5, T2: 1, RP2: 3}


def test_counts_n8():
    assert enumerate_surfaces(8).counts == {S2: 14, T2: 7, RP2: 16, K2: 6}


def test_sphere_counts_small():
    assert enumerate_spheres(4) == 1
    assert enumerate_spheres(7) == 5
    assert enumerate_spheres(9) == 50


def test_representatives_are_distinct_closed_surfaces():
    result = enumerate_surfaces(7, representatives=True)
    reps = [C for lst in result.representatives.values() for C in lst]
    assert len(reps) == result.total()
    for C in reps:
        assert is_pseudomanifold(C)
        classify_surface(C)
    for A, B in itertools.combinations(reps, 2):
        assert not are_isomorphic(A, B)


def test_census_deterministic_across_workers():
    assert enumerate_surfaces(7, threads=2).counts == enumerate_surfaces(7).counts


def test_heawood_consistency_up_to_8():
    for n in range(4, 9):
        for sc in enumerate_surfaces(n).counts:
            exceptional = (sc.chi, sc.orientable) in {(-2, True), (0, False),
                                                      (-1, False)}
            assert n >= heawood_min_vertices(sc.chi, exceptional)


def test_caps():
    with pytest.raises(CapExceeded):
        enumerate_surfaces(11)
    with pytest.raises(CapExceeded):
        enumerate_spheres(13)
    assert isinstance(enumerate_surfaces(5, cap=5), CensusResult)


def test_census_output_lines():
    lines = enumerate_surfaces(6).lines()
    assert lines == ["n=6 chi=2 orient=+ genus=0 count=2",
                     "n=6 chi=1 orient=- genus=1 count=1"]


def test_census_rejects_too_few_vertices():
    for enumerate_ in (enumerate_surfaces, enumerate_spheres):
        with pytest.raises(InvalidArgument, match="n must be >= 4"):
            enumerate_(3)
    # callers that catch ValueError or WorkbenchError keep working
    assert issubclass(InvalidArgument, ValueError)
    assert issubclass(InvalidArgument, WorkbenchError)


def test_census_pool_is_capped(fake_pool):
    # 3 root degrees on n = 6, 2 CPUs: never 100000 processes
    assert enumerate_surfaces(6, threads=100_000).counts == \
        enumerate_surfaces(6).counts
    assert enumerate_spheres(5, threads=100_000) == 1  # 2 root degrees
    assert fake_pool == [2, 2]


def test_census_rejects_zero_threads():
    for enumerate_ in (enumerate_surfaces, enumerate_spheres):
        with pytest.raises(InvalidArgument, match="threads"):
            enumerate_(6, threads=0)
