"""The surface and sphere censuses as an oracle corpus for the other kernels.

The census finds every closed surface on up to 9 vertices, and every
2-sphere on 10 and 11, by its own orderly search, which shares no code with
``iso``, ``homology``, ``bounds`` or manifold recognition. Its
representatives are pairwise non-isomorphic, so their canonical forms must
all differ, and a relabeled copy of each must give back its representative's
form. Each surface's Euler characteristic, top homology, orientability and
manifold verdict must match the class the census put it in, and no bound
may be violated on any of them.
"""
import random
from collections import Counter

import pytest

from mwb.bounds import bound_report
from mwb.census import SPHERE_CAP_DEFAULT, _census, enumerate_surfaces
from mwb.core import Complex, f_vector, is_combinatorial_manifold, relabeled
from mwb.homology import homology, orientability
from mwb.iso import canonical_form


@pytest.fixture(scope="module")
def classed_surfaces():
    """(census class, representative) for every closed surface, n = 4..9."""
    return [(sc, C) for n in range(4, 10)
            for sc, reps in enumerate_surfaces(n, representatives=True)
            .representatives.items() for C in reps]


@pytest.fixture(scope="module")
def surfaces(classed_surfaces):
    return [C for _, C in classed_surfaces]


def test_census_representatives_have_distinct_canonical_forms(surfaces):
    # a form is a relabeled copy of its complex, so equal forms would mean
    # two isomorphic representatives
    assert len(surfaces) == 712
    assert len({canonical_form(C)[0] for C in surfaces}) == 712


def test_canonical_form_of_a_relabeled_census_surface_is_its_own(surfaces):
    rng = random.Random(34)
    for C in surfaces:
        D = relabeled(C, rng.sample(range(1, C.n + 1), C.n))
        assert canonical_form(D)[0] == canonical_form(C)[0]


def test_census_surfaces_agree_with_their_class(classed_surfaces):
    for sc, C in classed_surfaces:
        assert f_vector(C).euler == sc.chi
        assert homology(C).free[2] == (1 if sc.orientable else 0)
        assert orientability(C) == \
            ("orientable" if sc.orientable else "non-orientable")
        assert is_combinatorial_manifold(C).status == "yes"


def test_bound_report_is_clean_on_the_census_surfaces(surfaces):
    applies = Counter()
    for C in surfaces:
        report = bound_report(C)
        assert report.violations() == [], report.to_text()
        applies.update(e.bound_id for e in report.entries if e.applicable)
    assert applies == {
        "heawood": 712, "surface-f-relation": 712, "novik-even-reduced": 712,
        "lbt-k1": 712, "lbt-k2": 712, "kuehnel-triangle-j0": 712,
        "kuehnel-triangle-j1": 712, "bk-non-sphere": 639,
        "bk-sphere-product-homology": 120, "ubt-k1": 73, "ubt-k2": 73,
        "novik-even-unreduced": 5,
    }


@pytest.mark.parametrize("n, count", [(10, 233), (11, 1249)])
def test_sphere_census_canonical_forms(n, count):
    # enumerate_spheres returns only the count, so read the spheres from the
    # search it runs
    spheres = [Complex(facets, range(1, n + 1))
               for facets, _, _ in _census(n, SPHERE_CAP_DEFAULT, 2, 1)]
    forms = [canonical_form(C)[0] for C in spheres]
    assert len(set(forms)) == len(spheres) == count
    rng = random.Random(n)
    for C, form in zip(spheres, forms):
        D = relabeled(C, rng.sample(range(1, n + 1), n))
        assert canonical_form(D)[0] == form
