"""Boundaries of cyclic polytopes as an oracle corpus in every dimension.

Gale's evenness condition lists the facets of the boundary of the cyclic
D-polytope C(n, D) directly (Gale 1963; Ziegler, *Lectures on Polytopes*,
Thm. 0.7), with no call into ``mwb``. Each such boundary is a
floor(D/2)-neighborly (D-1)-sphere that attains the Upper Bound Theorem
(McMullen 1970), so its f-vector is ``cyclic_f`` and every ``ubt`` row is
sharp. Its automorphism group has order 2n for even D and 4 for odd D once
n >= D + 3 (Kaibel and Wassmer, *Automorphism groups of cyclic polytopes*,
2003); C(D + 2, D) is the join of the boundaries of two simplices.
"""
import random
from itertools import combinations

import pytest

from mwb.bounds import bound_report, cyclic_f
from mwb.core import f_vector, from_facets, is_combinatorial_manifold, relabeled
from mwb.homology import HomologyVector, homology
from mwb.iso import automorphism_group, canonical_form

# D = 3..9 and n = D+2, D+3, D+4, D+6, up to n = 14
CORPUS = [(D, n) for D in range(3, 10) for n in (D + 2, D + 3, D + 4, D + 6)
          if n <= 14]

# |Aut| of C(D + 2, D), the join of the boundaries of simplices on
# floor(D/2) + 1 and ceil(D/2) + 1 vertices, which swap when D is even
JOIN_ORDERS = {3: 12, 4: 72, 5: 144, 6: 1_152, 7: 2_880, 8: 28_800,
               9: 86_400}


def gale_facets(n, D):
    """The facets of the boundary of C(n, D) on vertices 1..n: the D-sets S
    whose members separate each two consecutive non-members evenly."""
    facets = []
    for S in combinations(range(1, n + 1), D):
        out = [v for v in range(1, n + 1) if v not in S]
        if all(sum(i < s < j for s in S) % 2 == 0
               for i, j in zip(out, out[1:])):
            facets.append(S)
    return facets


@pytest.fixture(scope="module")
def corpus():
    return {(D, n): from_facets(gale_facets(n, D)) for D, n in CORPUS}


def test_the_corpus_has_27_complexes(corpus):
    assert len(corpus) == 27


def test_f_vector_is_that_of_the_cyclic_polytope(corpus):
    for (D, n), C in corpus.items():
        assert (C.dim, C.n) == (D - 1, n)
        assert f_vector(C) == cyclic_f(D - 1, n), (D, n)


def test_automorphism_orders(corpus):
    for (D, n), C in corpus.items():
        want = JOIN_ORDERS[D] if n == D + 2 else 2 * n if D % 2 == 0 else 4
        assert automorphism_group(C).order == want, (D, n)


def test_canonical_form_is_unchanged_by_a_relabeling(corpus):
    rng = random.Random(36)
    for (D, n), C in corpus.items():
        R = relabeled(C, rng.sample(range(1, n + 1), n))
        assert canonical_form(R)[0] == canonical_form(C)[0], (D, n)


def test_homology_is_that_of_a_sphere(corpus):
    for (D, n), C in corpus.items():
        free = (1,) + (0,) * (D - 2) + (1,)
        assert homology(C) == HomologyVector(free, ((),) * D), (D, n)


def test_each_is_a_combinatorial_manifold(corpus):
    for (D, n), C in corpus.items():
        assert is_combinatorial_manifold(C).status == "yes", (D, n)


def test_bound_report_is_clean_and_the_upper_bound_is_sharp(corpus):
    for (D, n), C in corpus.items():
        report = bound_report(C)
        assert not report.violations(), (D, n)
        ubt = [e for e in report.entries if e.bound_id.startswith("ubt-k")]
        assert len(ubt) == D - 1 and all(e.sharp for e in ubt), (D, n)
