"""Straight-line realization checking for triangulated surfaces in R^3.

One rule decides every pair of triangles: two triangles of a realization
meet exactly in the convex hull of the vertices they share, which is empty,
a point or an edge.  Their intersection is convex and each of its extreme
points lies on an edge of one of them, so it suffices that every edge of
each triangle meets the other triangle only inside that hull.

All predicates are exact: the coordinates are scaled once by the common
denominator of all of them to integers, which changes no verdict, and the
only divisions left are exact rationals.  No verdict depends on an epsilon.
Floating inputs are converted exactly and therefore behave like the
rationals they already are.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Complex
from .errors import IncompleteEmbedding, NotASurface


@dataclass(frozen=True)
class RealizationVerdict:
    valid: bool
    witness: str | None = None

    def __bool__(self):
        return self.valid


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _functionals(t):
    """The five (m, k) whose half-spaces m.x >= k cut out the closed
    triangle t: its plane from both sides, then its three sides, with the
    inward normals n x (v - u)."""
    a, b, c = t
    n = _cross(_sub(b, a), _sub(c, a))
    h = _dot(n, a)
    spaces = [(n, h), ((-n[0], -n[1], -n[2]), -h)]
    for u, v in ((a, b), (b, c), (c, a)):
        m = _cross(n, _sub(v, u))
        spaces.append((m, _dot(m, u)))
    return spaces


def _edge_meets(p, q, t):
    """The end points of the closed edge pq clipped to the closed triangle
    with functionals t, or None if they miss each other."""
    lo, hi = 0, 1
    for m, k in t:
        fp, fq = _dot(m, p) - k, _dot(m, q) - k
        if fp < 0 and fq < 0:
            return None  # the first two: strictly on one side of the plane
        if fp < 0:
            lo = max(lo, Fraction(fp, fp - fq))
        elif fq < 0:
            hi = min(hi, Fraction(fp, fp - fq))
        if lo > hi:
            return None
    d = _sub(q, p)
    return [tuple(p[i] + s * d[i] for i in range(3)) for s in (lo, hi)]


def _in_hull(x, hull) -> bool:
    """Is the point x of a triangle in the convex hull of the 0, 1 or 2 of
    its vertices in hull?  A triangle meets the line through two of its
    vertices only in their edge, so being on that line is enough."""
    if len(hull) < 2:
        return x in hull
    return _cross(_sub(hull[1], hull[0]), _sub(x, hull[0])) == (0, 0, 0)


def realization_check(C: Complex, coordinates: dict) -> RealizationVerdict:
    """Certify a straight-edge, flat-triangle, self-intersection-free drawing.

    Checks (a) no two vertices share a point, (b) no triangle is degenerate,
    (c) any two triangles meet exactly in the hull of their shared vertices.
    """
    if C.dim != 2:
        raise NotASurface("realization checking is for 2-complexes")
    missing = [v for v in C.vertices() if v not in coordinates]
    if missing:
        raise IncompleteEmbedding(f"no coordinates for vertices {missing}")
    pos = {v: tuple(Fraction(x) for x in coordinates[v]) for v in C.vertices()}
    seen: dict = {}
    for v, p in pos.items():
        if p in seen:
            return RealizationVerdict(
                False, f"vertices {seen[p]} and {v} share the point "
                       f"({', '.join(map(str, p))})")
        seen[p] = v
    den = math.lcm(*(x.denominator for p in pos.values() for x in p))
    pos = {v: tuple(x.numerator * (den // x.denominator) for x in p)
           for v, p in pos.items()}
    clip = {F: _functionals([pos[v] for v in F]) for F in C.facets}
    for F, ((n, _), *_) in clip.items():
        if n == (0, 0, 0):
            return RealizationVerdict(False, f"triangle {F} is degenerate")
    for t1, t2 in itertools.combinations(C.facets, 2):
        shared = sorted(set(t1) & set(t2))
        hull = [pos[v] for v in shared]
        if all(_in_hull(x, hull)
               for s, t in ((t1, t2), (t2, t1))
               for u, v in itertools.combinations(s, 2)
               for x in _edge_meets(pos[u], pos[v], clip[t]) or ()):
            continue
        if not shared:
            return RealizationVerdict(
                False, f"disjoint triangles {t1} and {t2} intersect")
        what = (f"vertex {shared[0]}" if len(shared) == 1
                else f"edge {tuple(shared)}")
        return RealizationVerdict(
            False, f"triangles {t1} and {t2} overlap beyond their shared {what}")
    return RealizationVerdict(True)
