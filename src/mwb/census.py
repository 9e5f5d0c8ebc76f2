"""Isomorph-free generation of triangulated closed surfaces with n vertices.

The search closes vertex stars in label order: the star of vertex 1 is laid
down as a fan of the root degree k, and each later step fills the triangle
at the smallest-labeled link end of the least open vertex, labeling new
vertices in discovery order.  No vertex may close with a degree below k, so
the root has minimum degree.

The search is orderly, in the manner of McKay's canonical augmentation
(*Isomorph-free exhaustive generation*, J. Algorithms 26, 1998) and of the
lexicographic census of Sulanke and Lutz (arXiv:math/0610022).  A flag is a
vertex of degree k, a neighbour and a direction around its link; replaying
the search's rules from a flag labels the surface.  A surface is kept only if
its sorted facet list is the least of its flag labelings, so each class is
found once, by the search at its minimum degree, and nothing is deduped.
Closing vertex j adds exactly the triangles whose least label is j, block j
of the facet list, so labelings compare block by block.  Each time the least
open vertex advances, the blocks of the closed stars are final, and a flag at
a closed vertex whose labeling is already smaller there prunes the subtree.
Correctness is anchored to the published census counts.

Each open vertex keeps its link paths as a map from each end to the other
end, joined in constant time as triangles come and restored from an undo
stack as they go; a closed vertex keeps its link cycle, walked once until
the vertex reopens.  A flag's block 2 is first compared by its least code
alone, which the vertex labeled 3 fixes.  A branch is cut once the edge ends
its vertices still miss to reach degree k could not fit in the edge budget.
Only leaves of even chi <= 0 are oriented, by propagating an orientation
across the edges of the search's own triangles; `classify_surface` loads a
surface into a search and reads it the same way.  The edge budget 3(n - chi),
of the least chi admitted, is the only budget: a closed surface has
3 f2 = 2 f1, and a connected one with f1 <= 3n - 6 edges has chi >= 2, so it
is the sphere.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from math import comb

from .core import Complex, is_combinatorial_manifold, process_map
from .errors import CapExceeded, InvalidArgument, NotASurface

SURFACE_CAP_DEFAULT = 10
SPHERE_CAP_DEFAULT = 12


@dataclass(frozen=True)
class SurfaceClass:
    orientable: bool
    genus: int
    chi: int

    @classmethod
    def of(cls, chi: int, orientable: bool) -> SurfaceClass:
        return cls(orientable, (2 - chi) // 2 if orientable else 2 - chi, chi)

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
        return [f"n={self.n} {sc} count={self.counts[sc]}"
                for sc in sorted(self.counts,
                                 key=lambda s: (-s.chi, not s.orientable))]


def classify_surface(C: Complex) -> SurfaceClass:
    """Orientability and genus of a closed surface, read off by the census
    search holding it."""
    if C.dim != 2:
        raise NotASurface("not a closed 2-pseudomanifold")
    verdict = is_combinatorial_manifold(C)
    if not verdict:
        raise NotASurface(f"not a closed surface: {verdict.witness}")
    return SurfaceClass.of(*_StarClosingSearch.holding(C.facets)._classify())


class _StarClosingSearch:
    """Backtracking generator of closed surfaces with exactly n vertices and
    at most ``f1_budget`` edges, which bound the triangles: 3 f2 <= 2 f1."""

    def __init__(self, n: int, root_degree: int, f1_budget: int):
        self.n = n
        self.k = root_degree
        self.f1_budget = f1_budget
        self.tight = f1_budget < comb(n, 2)  # else the cut below cannot fire
        self.third: dict = {}      # edge (sorted pair) -> third vertices, never empty
        self.neighbors: dict = {}  # vertex -> set of skeleton neighbors
        self.mate: dict = {}       # vertex -> {link path end: its other end}
        self.cycles: dict = {}     # closed vertex -> link cycle, walked once
        self.undo: list = []       # (z, x, y, ox, oy): x-y added to link z
        self.triangles: list = []
        self.next_label = 1
        self.found: list = []      # (facets, chi, orientable), one per class
        self.blocks: list = [None]  # blocks[j]: block j of the own labeling
        self.block_end = ((n + 1) ** 2,)  # closes each block, above every code
        self.own = (1, 2, 3)       # the flag that gives the search's labeling

    @classmethod
    def holding(cls, facets):
        """A search holding the closed surface with these facets, labeled
        1..n, rooted at its minimum degree; its triangles are sorted."""
        facets = sorted(tuple(sorted(t)) for t in facets)
        n = max(t[2] for t in facets)
        degree = Counter(v for t in facets for v in t)  # triangles = link edges
        search = cls(n, min(degree.values()), 0)
        for v in range(1, n + 1):
            search._touch(v)
        for t in facets:
            search.add(t)
        return search

    # -- incremental structure -------------------------------------------

    def _touch(self, v):
        if v == self.next_label:
            self.next_label += 1
            self.neighbors[v] = set()
            self.mate[v] = {}

    def add(self, t):
        """Add the triangle t."""
        self.triangles.append(t)
        a, b, c = t
        if c >= self.next_label:
            for v in t:
                self._touch(v)
        third, nb, mate, undo = self.third, self.neighbors, self.mate, self.undo
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            s = third.get((x, y))
            if s is None:
                third[(x, y)] = {z}
                nb[x].add(y)
                nb[y].add(x)
            else:
                s.add(z)
            # the link of z gains the edge x-y: join the paths ending there,
            # where a vertex new to the link is a path of its own
            m = mate[z]
            ox, oy = m.pop(x, x), m.pop(y, y)
            if ox != y:
                m[ox], m[oy] = oy, ox
            undo.append((z, x, y, ox, oy))

    def remove(self, t):
        self.triangles.pop()
        third, nb, mate, undo = self.third, self.neighbors, self.mate, self.undo
        for _ in t:  # the records of t, in reverse order
            z, x, y, ox, oy = undo.pop()
            m = mate[z]
            if ox != y:
                del m[ox], m[oy]
            else:  # z reopens, and its link cycle goes
                self.cycles.pop(z, None)
            if ox != x:
                m[x], m[ox] = ox, x
            if oy != y:
                m[y], m[oy] = oy, y
            s = third[(x, y)]
            s.discard(z)
            if not s:
                del third[(x, y)]
                nb[x].discard(y)
                nb[y].discard(x)
        if t[2] == self.next_label - 1:
            for v in reversed(t):
                if v == self.next_label - 1 and not nb[v]:
                    self.next_label -= 1
                    del nb[v], mate[v]

    def add_ok(self, t) -> bool:
        a, b, c = t
        third, new_edges = self.third, 0
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            s = third.get((x, y))
            if s is None:
                new_edges += 1
            elif len(s) > 1 or z in s:
                return False
        if len(third) + new_edges > self.f1_budget:
            return False
        mate, nb, top = self.mate, self.neighbors, self.next_label
        for u, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            if u < top:
                m = mate[u]
                # x-y would close the link of u while other paths remain, or
                # below the root degree, which min-degree rooting forbids
                if m.get(x) == y and (len(m) > 2 or len(nb[u]) < self.k):
                    return False
        return True

    # -- search ------------------------------------------------------------

    def run(self):
        k = self.k
        root = [(1, i, i + 1) for i in range(2, k + 1)] + [(1, 2, k + 1)]
        for t in root:
            self.add(t)
        self.blocks.append(self._block(root))
        self._close_next(1, len(root), [], frozenset())
        for t in reversed(root):
            self.remove(t)
        return self.found

    def _least_open(self, c):
        # mate[v] is {} once v is closed: v keeps the triangle that labeled it
        for v in range(c + 1, self.next_label):
            if self.mate[v]:
                return v
        return None

    def _close_next(self, c, start, walks, roots):
        """Close the least open vertex; the stars of 1..c are closed and were
        tested, and the triangles from ``start`` on belong to block c+1."""
        v = self._least_open(c)
        if v is None:
            if self.next_label - 1 == self.n:
                self._leaf(c, start, walks, roots)
            return
        if v - 1 > c:
            # the blocks up to v-1 are final now: test them before going on
            self._final_blocks(c, v - 1, start)
            tested = self._test(walks, roots, v - 1)
            if tested is not None:
                self._extend(v, v - 1, len(self.triangles), *tested)
            del self.blocks[c + 1:]
            return
        self._extend(v, c, start, walks, roots)

    def _extend(self, v, c, start, walks, roots):
        e, *candidates = sorted(self.mate[v])
        if self.tight:
            # every vertex closes with degree >= k and each new edge brings
            # two edge ends: cut when the missing ends overrun the budget
            k, nb = self.k, self.neighbors
            need = k * (self.n + 1 - self.next_label) + sum(
                max(0, k - len(nb[w])) for w in range(v, self.next_label))
            if 2 * len(self.third) + need > 2 * self.f1_budget:
                return
        lk, mate = self.neighbors[v], self.mate
        for u in range(v + 1, self.next_label):  # the rest are closed
            if u not in lk and mate[u]:
                candidates.append(u)
        if self.next_label <= self.n:
            candidates.append(self.next_label)
        for w in candidates:  # e and w are open, so both exceed v
            t = (v, e, w) if e < w else (v, w, e)
            if self.add_ok(t):
                self.add(t)
                self._close_next(c, start, walks, roots)
                self.remove(t)

    def _leaf(self, c, start, walks, roots):
        self._final_blocks(c, self.n, start)
        if self._test(walks, roots, self.n) is not None:
            self.found.append((tuple(sorted(self.triangles)), *self._classify()))
        del self.blocks[c + 1:]

    def _classify(self):
        """chi and orientability of the closed surface held: chi = 2 is the
        sphere, and odd chi is non-orientable."""
        chi = self.n - len(self.third) + len(self.triangles)
        return chi, chi == 2 or (chi % 2 == 0 and self._orientable())

    def _orientable(self) -> bool:
        """Orient the triangles across their edges from the first one; False
        once an edge would be run twice in one direction."""
        third = self.third
        x, y, z = self.triangles[0]
        runs, stack = {(x, y), (y, z), (z, x)}, [(x, y, z)]
        while stack:
            x, y, z = stack.pop()
            for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                if (q, p) in runs:
                    continue  # the other triangle at p-q is oriented
                w, s = third[(p, q) if p < q else (q, p)]
                w = s if w == r else w
                if (p, w) in runs or (w, q) in runs:
                    return False
                runs.update(((q, p), (p, w), (w, q)))
                stack.append((q, p, w))
        return True

    # -- the lexicographic flag test --------------------------------------

    def _block(self, triangles):
        """Block j, the triangles (j, x, y), as sorted codes and an end mark
        above every code, so that a block which is a proper prefix of another
        compares larger, as it does inside the whole sorted facet list."""
        base = self.n + 1
        codes = sorted(x * base + y for _, x, y in triangles)
        return tuple(codes) + self.block_end

    def _final_blocks(self, c, top, start):
        # the triangles from start on have least label c+1; nothing was added
        # while c+2..top were least open, as they closed on the way
        self.blocks.append(self._block(self.triangles[start:]))
        self.blocks.extend([self.block_end] * (top - c - 1))

    def _cycle(self, u):
        """The link cycle of the closed vertex u, walked once and cached."""
        cyc = self.cycles.get(u)
        if cyc is None:
            a = min(self.neighbors[u])
            prev, cur = a, min(self.third[(u, a) if u < a else (a, u)])
            cyc = self.cycles[u] = [a]
            while cur != a:
                cyc.append(cur)
                x, y = self.third[(u, cur) if u < cur else (cur, u)]
                prev, cur = cur, (y if x == prev else x)
        return cyc

    def _flag(self, r, a, b):
        """The walk state of the flag r, a, b before block 2: r has label 1
        and its link cycle from a towards b labels 2..k+1."""
        lab = [self.n + 1] * (self.n + 1)  # unlabeled vertices rank last
        cyc = self._cycle(r)
        i = cyc.index(a)
        order = [r] + (cyc[i::-1] + cyc[:i:-1] if cyc[i - 1] == b
                       else cyc[i:] + cyc[:i])
        for i, v in enumerate(order, 1):
            lab[v] = i
        return lab, order, 2

    def _walk(self, state, c):
        """Relabel from a flag, block by block, through block c or up to the
        first vertex whose star is still open.  Returns -1 or 1 at the first
        block that is smaller or larger than the search's own, else the
        state to resume from."""
        lab, order, j = state
        copied = False
        while j <= c:
            u = order[j - 1]
            if self.mate[u]:
                break
            if j == 2:
                # r = order[0] alone has a smaller label in the link of u, and
                # b = order[2], label 3, meets r and w there: the least code
                # of block 2 is b-w, with the next label for an unlabeled w
                b = order[2]
                w, x = self.third[(u, b) if u < b else (b, u)]
                w = x if w == order[0] else w
                code = 3 * (self.n + 1) + min(lab[w], len(order) + 1)
                if code != self.blocks[2][0]:
                    return -1 if code < self.blocks[2][0] else 1
            if not copied:
                lab, order, copied = lab[:], order[:], True
            block = self._block_of(u, j, lab, order)
            ref = self.blocks[j]
            if block != ref:
                return -1 if block < ref else 1
            j += 1
        return lab, order, j

    def _block_of(self, u, j, lab, order):
        """Block j of a flag's labeling, where u is its vertex j: fill the
        star of u at the smallest-labeled link end, as the search does,
        labeling new vertices as they come; the triangles of u with a smaller
        label are there already."""
        unlabeled = base = self.n + 1
        xs = self._cycle(u)
        # the missing link paths run between the vertices of smaller label;
        # the cycle is doubled so that the last of them reaches the first
        small = [i for i, x in enumerate(xs) if lab[x] < j]
        small.append(small[0] + len(xs))
        xs = xs + xs
        # [label, index, step, slot of the other end]: an end of a missing
        # path, which moves inward as the path fills
        ends, steps = [], 0
        for lo, hi in zip(small, small[1:]):
            if hi - lo > 2:
                k = len(ends)
                ends += ([lab[xs[lo + 1]], lo + 1, 1, k + 1],
                         [lab[xs[hi - 1]], hi - 1, -1, k])
                steps += hi - lo - 2
        codes = []
        for _ in range(steps):
            end = min(ends)
            e_lab, i, step, k = end
            i += step
            w = xs[i]
            w_lab = lab[w]
            if w_lab == unlabeled:
                order.append(w)
                w_lab = lab[w] = len(order)
            codes.append(e_lab * base + w_lab if e_lab < w_lab
                         else w_lab * base + e_lab)
            if i == ends[k][1]:  # the path is filled: both ends rank last
                end[0] = ends[k][0] = base * base
            else:
                end[0], end[1] = w_lab, i
        return tuple(sorted(codes)) + self.block_end

    def _test(self, walks, roots, c):
        """The prefix test once blocks 1..c are final: carry on the undecided
        flag walks and start those rooted at newly closed vertices of the
        root degree.  None if some flag's labeling is smaller, else the
        walks still undecided and the roots started."""
        new = [r for r in range(1, self.next_label)
               if r not in roots and len(self.neighbors[r]) == self.k
               and not self.mate[r]]
        starts = (self._flag(r, a, b) for r in new for a in self.neighbors[r]
                  for b in self.third[(r, a) if r < a else (a, r)]
                  if (r, a, b) != self.own)  # own: the search's labeling
        alive = []
        for state in chain(walks, starts):
            walked = self._walk(state, c)
            if walked == -1:
                return None
            if walked != 1:
                alive.append(walked)
        return alive, roots.union(new)


def _run_root(job):
    return _StarClosingSearch(*job).run()


def _census(n: int, cap: int, chi_required: int | None, threads: int):
    if not 4 <= n:
        raise InvalidArgument(f"n must be >= 4, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the census cap {cap}")
    # the edge budget of the least chi that Heawood's bound admits on n
    # vertices, or of the required chi
    chi = 2 - comb(n - 3, 2) // 3 if chi_required is None else chi_required
    jobs = [(n, k, 3 * n - 3 * chi) for k in range(3, n)]
    # a class is found only at its minimum degree: the parts are disjoint
    return list(chain.from_iterable(process_map(_run_root, jobs, threads)))


def enumerate_surfaces(n: int, cap: int | None = None,
                       threads: int = 1, representatives: bool = False
                       ) -> CensusResult:
    """One representative count per isomorphism class of closed surfaces;
    ``cap`` defaults to SURFACE_CAP_DEFAULT."""
    cap = SURFACE_CAP_DEFAULT if cap is None else cap
    counts: Counter = Counter()
    reps: dict = {}
    for facets, chi, orient in _census(n, cap, None, threads):
        sc = SurfaceClass.of(chi, orient)
        counts[sc] += 1
        if representatives:
            reps.setdefault(sc, []).append(Complex(facets, range(1, n + 1)))
    return CensusResult(n, dict(counts), reps)


def enumerate_spheres(n: int, cap: int | None = None,
                      threads: int = 1) -> int:
    """Number of combinatorial types of triangulated 2-spheres on n vertices;
    ``cap`` defaults to SPHERE_CAP_DEFAULT."""
    cap = SPHERE_CAP_DEFAULT if cap is None else cap
    return len(_census(n, cap, 2, threads))
