"""Builders: boundary simplices, joins, staircase products, connected sums,
stackings, and sphere bundles over the circle."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .homology import HomologyVector, homology, orientation_signs
from .core import Complex, from_facets
from .errors import (IncompatibleGluing, InvalidArgument, NotAFacet,
                     WorkbenchError)


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
    verts = range(1, d + 3)
    return from_facets(list(itertools.combinations(verts, d + 1)))


def interval(k: int) -> Complex:
    """A path with k vertices (k-1 edges)."""
    if k < 2:
        raise InvalidArgument("k must be >= 2")
    return from_facets([[i, i + 1] for i in range(1, k)])


def join(C1: Complex, C2: Complex) -> Complex:
    """Simplicial join; the second factor is relabeled above the first."""
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


def product(C1: Complex, C2: Complex, vertex_orders=None) -> Complex:
    """Staircase (standard simplicial) product on the vertex grid.

    ``vertex_orders`` optionally gives the linear order of each factor's
    vertices as two sequences; the default is label order.  Vertex (u, w)
    receives label (pos(u)-1)*n2 + pos(w), so f0 = n1*n2.
    """
    order1 = tuple(vertex_orders[0]) if vertex_orders else tuple(C1.vertices())
    order2 = tuple(vertex_orders[1]) if vertex_orders else tuple(C2.vertices())
    if sorted(order1) != list(C1.vertices()) or sorted(order2) != list(C2.vertices()):
        raise ValueError("vertex_orders must permute each factor's vertices")
    pos1 = {v: i for i, v in enumerate(order1)}
    pos2 = {v: i for i, v in enumerate(order2)}
    n2 = C2.n

    def grid(i, j):
        return i * n2 + j + 1

    facets = []
    for F in C1.facets:
        fi = sorted(pos1[v] for v in F)
        for G in C2.facets:
            gj = sorted(pos2[v] for v in G)
            p, q = len(fi) - 1, len(gj) - 1
            for ups in itertools.combinations(range(p + q), p):
                a = b = 0
                cell = [grid(fi[0], gj[0])]
                for t in range(p + q):
                    if t in ups:
                        a += 1
                    else:
                        b += 1
                    cell.append(grid(fi[a], gj[b]))
                facets.append(cell)
    return from_facets(facets)


def stack(C: Complex, F) -> Complex:
    """Subdivide the facet F by coning from a fresh vertex (a 0-move)."""
    F = tuple(sorted(F))
    if F not in C.facets:
        raise NotAFacet(f"{F} is not a facet")
    apex = C.n + 1
    new = [G for G in C.facets if G != F]
    new.extend(tuple(sorted(set(F) - {v})) + (apex,) for v in F)
    return from_facets(new)


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
    sphere = boundary_simplex(d - 1)  # d+1 vertices
    seg = interval(4)
    P = product(sphere, seg)  # labels (u-1)*4 + w
    sigma = {u: u for u in range(1, d + 2)}
    if twist:
        sigma[1], sigma[2] = 2, 1
    relabel = {}
    for u in range(1, d + 2):
        for w in range(1, 5):
            lab = (u - 1) * 4 + w
            relabel[lab] = (sigma[u] - 1) * 4 + 1 if w == 4 else lab
    return from_facets([[relabel[v] for v in F] for F in P.facets])


def _expected_bundle_homology(d: int, twist: bool):
    free = [0] * (d + 1)
    tors = [()] * (d + 1)
    free[0] = free[1] = 1
    if twist:
        if d == 2:
            tors[1] = (2,)
        else:
            tors[d - 1] = (2,)
    else:
        free[d - 1] += 1
        free[d] += 1
    return HomologyVector(tuple(free), tuple(tors))


def twisted_bundle(d: int) -> Complex:
    """The twisted S^(d-1)-bundle over the circle on 3d+3 vertices.

    A 4-vertex interval times a boundary simplex, with the two boundary
    spheres identified through an orientation-reversing reflection; the
    homology certificate is checked before returning.
    """
    if d < 2:
        raise InvalidArgument("d must be >= 2")
    C = _bundle(d, twist=True)
    if homology(C) != _expected_bundle_homology(d, twist=True):
        raise WorkbenchError("twisted bundle has unexpected homology")
    return C


def orientable_bundle(d: int) -> Complex:
    """The product bundle S^(d-1) x S^1 on 3d+3 vertices."""
    if d < 2:
        raise InvalidArgument("d must be >= 2")
    C = _bundle(d, twist=False)
    if homology(C) != _expected_bundle_homology(d, twist=False):
        raise WorkbenchError("orientable bundle has unexpected homology")
    return C
