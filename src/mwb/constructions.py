"""Builders: boundary simplices, joins, staircase products, connected sums,
stackings, and sphere bundles over the circle.  Builders that multiply
facets check the face cap on their closed-form counts before listing any."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from . import flips
from .homology import orientation_signs
from .core import Complex, check_face_cap, from_facets
from .errors import IncompatibleGluing, InvalidArgument, NotAFacet


@dataclass(frozen=True)
class GluingMap:
    """Vertex correspondence between two boundary spheres.

    ``correspondence`` maps vertices of the removed facet of the second
    summand to vertices of the removed facet of the first.
    """

    correspondence: tuple  # pairs (v_second, v_first)


def boundary_simplex(d: int) -> Complex:
    """The d-sphere as the boundary of the (d+1)-simplex: d+2 vertices."""
    if d < 1:
        raise InvalidArgument("d must be >= 1")
    check_face_cap(d + 2, d)
    verts = range(1, d + 3)
    return from_facets(list(itertools.combinations(verts, d + 1)))


def interval(k: int) -> Complex:
    """A path with k vertices (k-1 edges)."""
    if k < 2:
        raise InvalidArgument("k must be >= 2")
    return from_facets([[i, i + 1] for i in range(1, k)])


def join(C1: Complex, C2: Complex) -> Complex:
    """Simplicial join; the second factor is relabeled above the first."""
    check_face_cap(len(C1.facets) * len(C2.facets), C1.dim + C2.dim + 1)
    shift = C1.n
    facets = [F + tuple(v + shift for v in G)
              for F in C1.facets for G in C2.facets]
    return from_facets(facets)


def cone(C: Complex) -> Complex:
    """Cone from a fresh apex over C."""
    apex = C.n + 1
    return from_facets([F + (apex,) for F in C.facets])


def suspension(C: Complex) -> Complex:
    """Join with two fresh apexes."""
    a, b = C.n + 1, C.n + 2
    return from_facets([F + (a,) for F in C.facets] +
                       [F + (b,) for F in C.facets])


def product(C1: Complex, C2: Complex) -> Complex:
    """Staircase (standard simplicial) product on the vertex grid.

    Each factor's vertices go in label order: vertex (u, w) receives label
    (u-1)*n2 + w, so f0 = n1*n2.  For another order relabel a factor first;
    ``product(relabeled(C1, perm), C2)`` puts u at position perm[u-1].
    """
    p, q = C1.dim, C2.dim  # a p-simplex times a q-simplex has C(p+q, p) cells
    check_face_cap(len(C1.facets) * len(C2.facets) * comb(p + q, p), p + q)
    n2 = C2.n
    facets = []
    for F in C1.facets:
        for G in C2.facets:
            for ups in itertools.combinations(range(p + q), p):
                a = 0  # after step t, a steps went up F and t+1-a along G
                cell = [(F[0] - 1) * n2 + G[0]]
                for t in range(p + q):
                    a += t in ups
                    cell.append((F[a] - 1) * n2 + G[t + 1 - a])
                facets.append(cell)
    return from_facets(facets)


def stack(C: Complex, F) -> Complex:
    """Subdivide the facet F by coning from the fresh vertex n+1: the
    bistellar 0-move on F."""
    F = tuple(sorted(F))
    if F not in C.facets:
        raise NotAFacet(f"{F} is not a facet")
    return flips.apply_move(C, flips.FlipMove(0, F, (C.n + 1,)))


def connected_sum(C1: Complex, F1, C2: Complex, F2,
                  gluing: GluingMap | None = None) -> Complex:
    """Glue C1 - F1 and C2 - F2 along their boundary spheres.

    An explicit ``gluing`` is used as given.  Without one, the vertices of
    F2 are matched to those of F1 in label order, and when both summands
    are orientable with s1[F1] == s2[F2] in their propagated orientations
    s1 and s2, the first two of them swap partners.  The boundary chains
    -s1[F1]*d(F1) of C1 - F1 and -s2[F2]*sgn(phi)*d(F1) of C2 - F2 glued by
    phi then cancel, so the sum respects the orientations of both inputs.
    """
    if C1.dim != C2.dim:
        raise IncompatibleGluing(
            f"the summands have dimensions {C1.dim} and {C2.dim}")
    F1 = tuple(sorted(F1))
    F2 = tuple(sorted(F2))
    if F1 not in C1.facets:
        raise NotAFacet(f"{F1} is not a facet of the first summand")
    if F2 not in C2.facets:
        raise NotAFacet(f"{F2} is not a facet of the second summand")
    pairs = tuple(zip(F2, F1)) if gluing is None else gluing.correspondence
    relabel = dict(pairs)
    if sorted(relabel) != list(F2) or sorted(relabel.values()) != list(F1):
        raise IncompatibleGluing(
            "correspondence must biject the removed facets' vertex sets")
    part1 = [G for G in C1.facets if G != F1]
    part2 = [G for G in C2.facets if G != F2]
    if gluing is None and (part1 or part2):  # else from_facets raises first
        s1, s2 = orientation_signs(C1), orientation_signs(C2)
        if s1 is not None and s2 is not None and s1[F1] == s2[F2]:
            (x2, x1), (y2, y1) = pairs[:2]
            relabel[x2], relabel[y2] = y1, x1
    fresh = itertools.count(C1.n + 1)
    relabel.update({v: next(fresh) for v in C2.vertices() if v not in relabel})
    return from_facets(part1 + [[relabel[v] for v in G] for G in part2])


def _bundle(d: int, twist: bool) -> Complex:
    if d < 2:
        raise InvalidArgument("d must be >= 2")
    # vertex (u, w) of the sphere's d+1 vertices times the path's 4 has label
    # 4(u-1) + w; the end w = 4 is glued to w = 1 over u, or over the image
    # of u under the reflection that swaps 1 and 2
    P = product(boundary_simplex(d - 1), interval(4))
    swap = {1: 2, 2: 1} if twist else {}
    relabel = {4 * u: 4 * swap.get(u, u) - 3 for u in range(1, d + 2)}
    return from_facets([[relabel.get(v, v) for v in F] for F in P.facets])


def twisted_bundle(d: int) -> Complex:
    """The twisted S^(d-1)-bundle over the circle on 3d+3 vertices.

    A 4-vertex interval times a boundary simplex, with the two boundary
    spheres identified through an orientation-reversing reflection.
    """
    return _bundle(d, twist=True)


def orientable_bundle(d: int) -> Complex:
    """The product bundle S^(d-1) x S^1 on 3d+3 vertices."""
    return _bundle(d, twist=False)
