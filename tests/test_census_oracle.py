"""An independent oracle for the surface census, n <= 7.

Neither ``mwb.iso`` nor the census search is used to check the census here.
A brute-force backtracker lists every labeled closed surface on {1..n}, and
brute force over all n! permutations gives the automorphism group and the
lexicographically least relabeling of each representative.  The census is
then complete and free of duplicates exactly when the representatives are
pairwise non-isomorphic and their orbits, n!/|Aut| labeled copies each, add
up to the number of labeled surfaces.
"""
import itertools
from math import factorial

import pytest

from mwb.census import enumerate_surfaces


def _links_are_cycles(n, triangles):
    for v in range(1, n + 1):
        adj: dict = {}
        for t in triangles:
            if v in t:
                x, y = (u for u in t if u != v)
                adj.setdefault(x, []).append(y)
                adj.setdefault(y, []).append(x)
        # every edge lies in two triangles: the link is a union of cycles
        start = next(iter(adj))
        seen, stack = {start}, [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(adj):
            return False
    return True


def labeled_surfaces(n):
    """Every connected closed surface with vertex set {1..n}, each once.

    Starting from a least facet (1, a, b), the least edge that lies in one
    triangle is closed in every possible way, with no triangle below the
    least facet; when no edge is open, the complex is kept if it uses every
    vertex and every vertex link is one cycle.
    """
    found = []
    triangles: list = []
    degree: dict = {}  # edge -> number of triangles on it

    def edges(t):
        a, b, c = t
        return (a, b), (a, c), (b, c)

    def close(least, used):
        open_edges = [e for e, d in degree.items() if d == 1]
        if not open_edges:
            if len(used) == n and _links_are_cycles(n, triangles):
                found.append(tuple(sorted(triangles)))
            return
        a, b = min(open_edges)
        for x in range(1, n + 1):
            t = tuple(sorted((a, b, x)))
            if x in (a, b) or t < least or t in triangles:
                continue
            if any(degree.get(e, 0) == 2 for e in edges(t)):
                continue
            triangles.append(t)
            for e in edges(t):
                degree[e] = degree.get(e, 0) + 1
            close(least, used | {x})
            triangles.pop()
            for e in edges(t):
                degree[e] -= 1

    for a, b in itertools.combinations(range(2, n + 1), 2):
        least = (1, a, b)
        triangles.append(least)
        for e in edges(least):
            degree[e] = 1
        close(least, {1, a, b})
        triangles.pop()
        degree.clear()
    return found


def _orbit_data(facets, n):
    """|Aut| and the least relabeled facet list, over all n! permutations."""
    aut, least = 0, None
    for p in itertools.permutations(range(1, n + 1)):
        image = tuple(sorted(tuple(sorted(p[v - 1] for v in t)) for t in facets))
        if image == facets:
            aut += 1
        if least is None or image < least:
            least = image
    return aut, least


def test_oracle_knows_the_smallest_surfaces():
    assert labeled_surfaces(4) == [((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))]
    assert len(labeled_surfaces(5)) == 10  # 5!/12, the triangular bipyramid


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_census_matches_brute_force_labeled_surfaces(n):
    labeled = set(labeled_surfaces(n))
    result = enumerate_surfaces(n, representatives=True)
    reps = [C.facets for lst in result.representatives.values() for C in lst]
    assert len(reps) == result.total()
    orbits, minima = 0, set()
    for facets in reps:
        assert facets in labeled
        aut, least = _orbit_data(facets, n)
        assert factorial(n) % aut == 0
        orbits += factorial(n) // aut
        minima.add(least)
    assert len(minima) == len(reps)  # pairwise non-isomorphic
    assert orbits == len(labeled)  # and every labeled surface is in a class
