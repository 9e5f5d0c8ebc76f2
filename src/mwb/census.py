"""Isomorph-free generation of triangulated closed surfaces with n vertices.

The search closes vertex stars in label order: the star of vertex 1 is laid
down as a fan of the root degree, and each subsequent step extends the link
of the least open vertex by one triangle, labeling new vertices in discovery
order.  Rooting at a vertex of minimum degree keeps the per-class labeled
multiplicity small; canonical forms then dedupe across roots.  Correctness
is anchored to the published census counts.
"""
from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb

from . import iso
from .core import Complex, f_vector, from_facets, is_pseudomanifold, link
from .errors import CapExceeded, InvalidArgument, NotASurface
from .homology import orientability

SURFACE_CAP_DEFAULT = 10
SPHERE_CAP_DEFAULT = 12


@dataclass(frozen=True)
class SurfaceClass:
    orientable: bool
    genus: int
    chi: int

    def __str__(self):
        return f"chi={self.chi} orient={'+' if self.orientable else '-'} genus={self.genus}"


@dataclass
class CensusResult:
    n: int
    counts: dict
    representatives: dict = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())

    def lines(self):
        out = []
        for sc in sorted(self.counts, key=lambda s: (-s.chi, not s.orientable)):
            out.append(f"n={self.n} chi={sc.chi} "
                       f"orient={'+' if sc.orientable else '-'} "
                       f"genus={sc.genus} count={self.counts[sc]}")
        return out


def classify_surface(C: Complex) -> SurfaceClass:
    """Orientability and genus of a closed surface."""
    if C.dim != 2 or not is_pseudomanifold(C):
        raise NotASurface("not a closed 2-pseudomanifold")
    for v in C.vertices():
        if not is_pseudomanifold(link(C, (v,))):
            raise NotASurface(f"link of vertex {v} is not a single cycle")
    chi = f_vector(C).euler
    if orientability(C) == "orientable":
        return SurfaceClass(True, (2 - chi) // 2, chi)
    return SurfaceClass(False, 2 - chi, chi)


class _StarClosingSearch:
    """Backtracking generator of closed surfaces with exactly n vertices."""

    def __init__(self, n: int, root_degree: int, f1_budget: int, f2_budget: int,
                 chi_required: int | None):
        self.n = n
        self.k = root_degree
        self.f1_budget = f1_budget
        self.f2_budget = f2_budget
        self.chi_required = chi_required
        self.third: dict = {}      # sorted vertex pair -> set of third vertices
        self.neighbors: dict = {}  # vertex -> set of skeleton neighbors
        self.open_ends: dict = {}  # vertex -> count of link vertices of degree 1
        self.triangles: list = []
        self.num_edges = 0
        self.next_label = 1
        self.found: dict = {}      # canonical facet key -> (chi, orientable)

    # -- incremental structure -------------------------------------------

    def _touch(self, v):
        if v == self.next_label:
            self.next_label += 1
            self.neighbors[v] = set()
            self.open_ends[v] = 0

    def _pairs(self, t):
        a, b, c = t
        return ((a, b), c), ((a, c), b), ((b, c), a)

    def add(self, t):
        self.triangles.append(t)
        for v in t:
            self._touch(v)
        for pair, z in self._pairs(t):
            s = self.third.get(pair)
            if s is None:
                s = self.third[pair] = set()
            s.add(z)
            x, y = pair
            if len(s) == 1:
                self.neighbors[x].add(y)
                self.neighbors[y].add(x)
                self.open_ends[x] += 1
                self.open_ends[y] += 1
                self.num_edges += 1
            else:
                self.open_ends[x] -= 1
                self.open_ends[y] -= 1

    def remove(self, t):
        self.triangles.pop()
        for pair, z in self._pairs(t):
            s = self.third[pair]
            s.discard(z)
            x, y = pair
            if not s:
                del self.third[pair]
                self.neighbors[x].discard(y)
                self.neighbors[y].discard(x)
                self.open_ends[x] -= 1
                self.open_ends[y] -= 1
                self.num_edges -= 1
            else:
                self.open_ends[x] += 1
                self.open_ends[y] += 1
        for v in reversed(t):
            if v == self.next_label - 1 and not self.neighbors[v]:
                self.next_label -= 1
                del self.neighbors[v], self.open_ends[v]

    def closed(self, v) -> bool:
        return self.open_ends[v] == 0 and bool(self.neighbors[v])

    def _link_deg(self, v, u) -> int:
        s = self.third.get((min(v, u), max(v, u)))
        return len(s) if s else 0

    def _path_from(self, v, x):
        """Walk the link path of v starting at end x; return its vertex set."""
        seen = {x}
        prev = None
        cur = x
        while True:
            nxt = [u for u in self.third[(min(v, cur), max(v, cur))] if u != prev]
            if not nxt:
                return seen
            prev, cur = cur, nxt[0]
            if cur in seen:
                return seen
            seen.add(cur)

    def add_ok(self, t) -> bool:
        a, b, c = t
        new_edges = 0
        for pair, z in self._pairs(t):
            s = self.third.get(pair, ())
            if len(s) > 1 or z in s:
                return False
            if not s:
                new_edges += 1
        if self.num_edges + new_edges > self.f1_budget:
            return False
        for u, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            if u >= self.next_label:
                continue
            if self.closed(u):
                return False
            dx = self._link_deg(u, x)
            dy = self._link_deg(u, y)
            if dx == 1 and dy == 1:
                path = self._path_from(u, x)
                if y in path and len(path) != len(self.neighbors[u]):
                    return False  # would close a cycle while other paths remain
        return True

    # -- search ------------------------------------------------------------

    def run(self):
        k = self.k
        if k + 1 > self.n or k < 3:
            return self.found
        root = [(1, i, i + 1) for i in range(2, k + 1)] + [(1, 2, k + 1)]
        for t in root:
            self.add(t)
        self._close_next()
        for t in reversed(root):
            self.remove(t)
        return self.found

    def _least_open(self):
        for v in range(2, self.next_label):
            if not self.closed(v):
                return v
        return None

    def _close_next(self):
        v = self._least_open()
        if v is None:
            if self.next_label - 1 == self.n:
                self._leaf()
            return
        ends = sorted(u for u in self.neighbors[v] if self._link_deg(v, u) == 1)
        if not ends:
            return
        e = ends[0]
        if len(self.triangles) >= self.f2_budget:
            return
        candidates = ends[1:]
        lk = self.neighbors[v]
        for u in range(2, self.next_label):
            if u != v and u not in lk and not self.closed(u):
                candidates.append(u)
        if self.next_label <= self.n:
            candidates.append(self.next_label)
        for w in candidates:
            t = tuple(sorted((v, e, w)))
            if not self.add_ok(t):
                continue
            self.add(t)
            if self._degree_rule_ok(t):
                self._close_next()
            self.remove(t)

    def _degree_rule_ok(self, t) -> bool:
        # min-degree rooting: no vertex may close below the root degree
        for v in t:
            if self.closed(v) and len(self.neighbors[v]) < self.k:
                return False
        return True

    def _leaf(self):
        chi = self.n - self.num_edges + len(self.triangles)
        if self.chi_required is not None and chi != self.chi_required:
            return
        C = from_facets(self.triangles)
        key = iso.canonical_form(C)[0].facets
        if key not in self.found:
            orient = orientability(C) == "orientable"
            self.found[key] = (chi, orient)


def _run_root(args):
    n, k, f1_budget, f2_budget, chi_required = args
    search = _StarClosingSearch(n, k, f1_budget, f2_budget, chi_required)
    return search.run()


def _census(n: int, chi_required: int | None, threads: int = 1):
    if threads < 1:
        raise InvalidArgument("threads must be >= 1")
    if chi_required is None:
        chi_min = 2 - comb(n - 3, 2) // 3
        f1_budget, f2_budget = 3 * n - 3 * chi_min, 2 * n - 2 * chi_min
    else:
        f1_budget, f2_budget = 3 * n - 3 * chi_required, 2 * n - 2 * chi_required
    jobs = [(n, k, f1_budget, f2_budget, chi_required)
            for k in range(3, n)]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    found: dict = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_root, jobs):
                found.update(part)
    else:
        for job in jobs:
            found.update(_run_root(job))
    return found


def enumerate_surfaces(n: int, cap: int = SURFACE_CAP_DEFAULT,
                       threads: int = 1, representatives: bool = False
                       ) -> CensusResult:
    """One representative count per isomorphism class of closed surfaces."""
    if not 4 <= n:
        raise InvalidArgument(f"n must be >= 4, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the census cap {cap}")
    found = _census(n, None, threads)
    counts: Counter = Counter()
    reps: dict = {}
    for key, (chi, orient) in found.items():
        genus = (2 - chi) // 2 if orient else 2 - chi
        sc = SurfaceClass(orient, genus, chi)
        counts[sc] += 1
        if representatives:
            reps.setdefault(sc, []).append(Complex(key, range(1, n + 1)))
    return CensusResult(n, dict(counts), reps)


def enumerate_spheres(n: int, cap: int = SPHERE_CAP_DEFAULT,
                      threads: int = 1) -> int:
    """Number of combinatorial types of triangulated 2-spheres on n vertices."""
    if not 4 <= n:
        raise InvalidArgument(f"n must be >= 4, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the census cap {cap}")
    return len(_census(n, 2, threads))
