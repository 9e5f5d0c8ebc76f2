"""The surface census as an oracle corpus for the other kernels.

The census finds every closed surface on up to 9 vertices by its own
orderly search, which shares no code with ``iso``. Its representatives are
pairwise non-isomorphic, so their canonical forms must all differ, and a
relabeled copy of each must give back its representative's form.
"""
import random

import pytest

from mwb.census import enumerate_surfaces
from mwb.core import relabeled
from mwb.iso import canonical_form


@pytest.fixture(scope="module")
def surfaces():
    return [C for n in range(4, 10)
            for reps in enumerate_surfaces(n, representatives=True)
            .representatives.values() for C in reps]


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
