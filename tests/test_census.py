import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from mwb import census, iso
from mwb.bounds import EXCEPTIONAL_SURFACES, heawood_min_vertices
from mwb.census import (CensusResult, SurfaceClass, classify_surface,
                        enumerate_spheres, enumerate_surfaces)
from mwb.constructions import boundary_simplex, twisted_bundle
from mwb.core import f_vector, from_facets, is_pseudomanifold
from mwb.errors import CapExceeded, InvalidArgument, NotASurface, WorkbenchError
from mwb.flips import random_walk
from mwb.homology import homology, orientability
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


def test_classify_surface_agrees_with_the_top_homology(csaszar, rp2_6):
    # a closed connected surface is orientable exactly when H_2 = Z
    surfaces = [rep for n in range(4, 9)
                for reps in enumerate_surfaces(n, representatives=True)
                .representatives.values() for rep in reps]
    assert len(surfaces) == 57
    for C in (csaszar, rp2_6):
        surfaces += [random_walk(C, seed=seed, steps=40)[0]
                     for seed in range(1, 6)]
    for C in surfaces:
        sc = classify_surface(C)
        assert sc.orientable is (homology(C).free[2] == 1)
        assert sc.chi == f_vector(C).euler


def test_classify_rejects_non_surfaces(complexes):
    with pytest.raises(NotASurface):
        classify_surface(complexes["RP3-11"])


def test_classify_rejects_a_pinched_surface_with_its_witness():
    # an octahedron stacked on two opposite triangles, the two stacked
    # vertices identified: every edge lies in two triangles, but the link of
    # vertex 7 is two triangles
    octahedron = [F for F in itertools.product((1, 2), (3, 4), (5, 6))
                  if F not in ((1, 3, 5), (2, 4, 6))]
    cones = [(7,) + e for F in ((1, 3, 5), (2, 4, 6))
             for e in itertools.combinations(F, 2)]
    with pytest.raises(NotASurface, match="link of vertex 7"):
        classify_surface(from_facets(octahedron + cones))
    with pytest.raises(NotASurface, match="ridge"):
        classify_surface(from_facets([[1, 2, 3], [1, 2, 4]]))


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
    one = enumerate_surfaces(7, representatives=True)
    two = enumerate_surfaces(7, threads=2, representatives=True)
    assert two.counts == one.counts
    assert two.representatives == one.representatives


def test_heawood_consistency_up_to_8():
    for n in range(4, 9):
        for sc in enumerate_surfaces(n).counts:
            exceptional = (sc.chi, sc.orientable) in EXCEPTIONAL_SURFACES
            assert n >= heawood_min_vertices(sc.chi, exceptional)


def test_caps():
    # cap=None, as `mw census` passes without --cap, is each census's own cap
    with pytest.raises(CapExceeded, match="cap 10$"):
        enumerate_surfaces(11, cap=None)
    with pytest.raises(CapExceeded, match="cap 12$"):
        enumerate_spheres(13, cap=None)
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


def test_importing_the_cli_loads_no_pool_module():
    # the pool is imported only where --threads starts one
    src = os.path.dirname(os.path.dirname(census.__file__))
    code = ("import sys, mwb, mwb.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_census_rejects_zero_threads():
    for enumerate_ in (enumerate_surfaces, enumerate_spheres):
        with pytest.raises(InvalidArgument, match="threads"):
            enumerate_(6, threads=0)


# --- the link-path map and the chi rule -------------------------------------

def _path_end(third, u, x):
    """Walk the link path of u from its end x; return the other end."""
    prev, cur = None, x
    while True:
        nxt = [w for w in third[(u, cur) if u < cur else (cur, u)]
               if w != prev]
        if not nxt:
            return cur
        prev, cur = cur, nxt[0]


def test_link_path_map_matches_the_links(monkeypatch):
    nodes, searches, cached = [], [], []
    close_next = census._StarClosingSearch._close_next
    run = census._StarClosingSearch.run

    def checked_close_next(self, *args):
        for u in range(1, self.next_label):
            ends = {x for pair, s in self.third.items() if u in pair
                    and len(s) == 1 for x in pair if x != u}
            assert set(self.mate[u]) == ends
            for x, y in self.mate[u].items():
                assert _path_end(self.third, u, x) == y
        # a cached link cycle belongs to a closed vertex and runs once
        # through every edge of its link, as a fresh walk of the link does
        for u, cyc in self.cycles.items():
            link = {frozenset(t) - {u} for t in self.triangles if u in t}
            assert not self.mate[u]
            assert len(set(cyc)) == len(cyc) == len(link)
            assert {frozenset(e) for e in zip(cyc, cyc[1:] + cyc[:1])} == link
        cached.append(len(self.cycles))
        nodes.append(1)
        return close_next(self, *args)

    def checked_run(self):
        found = run(self)
        assert not (self.triangles or self.third or self.undo or self.mate
                    or self.cycles)
        assert self.next_label == 1
        searches.append(1)
        return found

    monkeypatch.setattr(census._StarClosingSearch, "_close_next",
                        checked_close_next)
    monkeypatch.setattr(census._StarClosingSearch, "run", checked_run)
    assert enumerate_surfaces(7).counts == {S2: 5, T2: 1, RP2: 3}
    assert len(searches) == 4  # root degrees 3..6
    assert len(nodes) > 100
    assert sum(map(bool, cached)) > 100  # most nodes hold cached cycles


def test_add_ok_refuses_a_link_closed_below_the_root_degree(monkeypatch):
    # the link of 2 is the path 3-4-5; the triangle 2 3 5 closes it with
    # degree 3, which a search rooted at degree 4 forbids
    for k, ok in ((3, True), (4, False)):
        search = census._StarClosingSearch(6, k, 15)
        for v in range(1, 6):
            search._touch(v)
        for t in ((2, 3, 4), (2, 4, 5)):
            search.add(t)
        assert search.add_ok((2, 3, 5)) is ok

    # so no triangle the search adds closes a link below the root degree
    added = []
    add = census._StarClosingSearch.add

    def checked_add(self, t):
        add(self, t)
        assert all(self.mate[v] or len(self.neighbors[v]) >= self.k for v in t)
        added.append(t)

    monkeypatch.setattr(census._StarClosingSearch, "add", checked_add)
    assert enumerate_surfaces(7).counts == {S2: 5, T2: 1, RP2: 3}
    assert enumerate_spheres(9) == 50
    assert len(added) > 1000


def test_orientation_in_the_search_agrees_with_homology(monkeypatch, csaszar,
                                                        rp2_6):
    for C, orientable in ((csaszar, True), (rp2_6, False)):
        assert census._StarClosingSearch.holding(C.facets)._orientable() \
            is orientable
        assert (orientability(C) == "orientable") is orientable
    # every leaf of even chi, kept or not, spheres included
    verdicts = Counter()
    leaf = census._StarClosingSearch._leaf

    def checked_leaf(self, *args):
        if (self.n - len(self.third) + len(self.triangles)) % 2 == 0:
            orient = self._orientable()
            assert orient == (orientability(from_facets(self.triangles))
                              == "orientable")
            verdicts[orient] += 1
        return leaf(self, *args)

    monkeypatch.setattr(census._StarClosingSearch, "_leaf", checked_leaf)
    for n in range(4, 9):
        enumerate_surfaces(n)
    assert verdicts == {True: 40, False: 10}


def test_orientation_is_tested_only_where_chi_leaves_it_open(monkeypatch):
    calls = []
    orientable = census._StarClosingSearch._orientable
    monkeypatch.setattr(census._StarClosingSearch, "_orientable",
                        lambda self: calls.append(1) or orientable(self))
    assert enumerate_spheres(9) == 50
    assert len(calls) == 0
    assert enumerate_surfaces(8).total() == 43
    assert len(calls) == 13  # the 7 tori and 6 Klein bottles
    del calls[:]
    assert enumerate_surfaces(9).total() == 655
    assert len(calls) == 336
    # the full orientation pass agrees with the chi rule on every class
    for n in range(4, 9):
        result = enumerate_surfaces(n, representatives=True)
        for sc, reps in result.representatives.items():
            for rep in reps:
                assert classify_surface(rep) == sc


# --- the orderly search: no canonical forms, one labeling per class ----------

def test_census_makes_no_canonical_forms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the census called canonical_form")

    monkeypatch.setattr(iso, "canonical_form", refuse)
    assert not hasattr(census, "iso")
    homology_module = sys.modules["mwb.homology"]
    assert not [name for name, value in vars(census).items()
                if getattr(value, "__module__", None) == "mwb.homology"
                or value is homology_module]
    assert enumerate_surfaces(8).counts == {S2: 14, T2: 7, RP2: 16, K2: 6}


def test_census_prunes_before_the_leaves(monkeypatch):
    # the prefix test keeps the completed labelings to a few per class
    # (7,368 leaves for 655 classes when every labeling was completed)
    calls = []
    leaf = census._StarClosingSearch._leaf
    monkeypatch.setattr(census._StarClosingSearch, "_leaf",
                        lambda self, *args: calls.append(1) or leaf(self, *args))
    assert enumerate_surfaces(9).total() == 655
    assert len(calls) <= 1500


def test_block_2_prefilter_is_exact(monkeypatch):
    # _walk decides block 2 from its least code alone when that differs from
    # the search's own; the verdict must be that of the whole block
    decided, blocks = Counter(), []
    walk = census._StarClosingSearch._walk
    block_of = census._StarClosingSearch._block_of

    def counted_block_of(self, u, j, lab, order):
        blocks.append(j)
        return block_of(self, u, j, lab, order)

    def checked_walk(self, state, c):
        lab, order, j = state
        if j == 2 <= c and not self.mate[order[1]]:
            block = block_of(self, order[1], 2, lab[:], order[:])
            ref = self.blocks[2]
            del blocks[:]
            verdict = walk(self, state, 2)
            if verdict in (-1, 1) and not blocks:  # the prefilter's verdict
                assert verdict == (block > ref) - (block < ref)
                decided[verdict] += 1
            else:
                assert (verdict == -1) == (block < ref)
                assert (verdict == 1) == (block > ref)
        return walk(self, state, c)

    monkeypatch.setattr(census._StarClosingSearch, "_walk", checked_walk)
    monkeypatch.setattr(census._StarClosingSearch, "_block_of",
                        counted_block_of)
    for n in range(4, 9):
        enumerate_surfaces(n)
    assert enumerate_spheres(10) == 233
    assert decided == {-1: 48, 1: 623}


def test_degree_deficit_lookahead_cuts_nodes_not_leaves(monkeypatch):
    # a branch whose missing edge ends (k at each unlabeled vertex, k - deg
    # at each open one) overrun the edge budget is cut; no leaf is lost
    counts = Counter()
    for name in ("_close_next", "_leaf"):
        method = getattr(census._StarClosingSearch, name)
        monkeypatch.setattr(
            census._StarClosingSearch, name,
            lambda self, *args, _name=name, _method=method:
                counts.update([_name]) or _method(self, *args))
    runs = {("spheres", 10): (233, 5011, 402),
            ("spheres", 11): (1249, 31577, 2218),
            ("surfaces", 8): (43, 1061, 59),
            ("surfaces", 9): (655, 22635, 934)}  # budget C(9,2): no cut
    for (what, n), (total, nodes, leaves) in runs.items():
        counts.clear()
        if what == "spheres":
            assert enumerate_spheres(n) == total
        else:
            assert enumerate_surfaces(n).total() == total
        assert (counts["_close_next"], counts["_leaf"]) == (nodes, leaves)


def _flag_relabelings(facets):
    """The labelings of a closed surface from each flag at a vertex of
    minimum degree, by the search's rules replayed on the whole surface."""
    star: dict = {}
    for t in facets:
        for v in t:
            star.setdefault(v, []).append(t)
    k = min(len(s) for s in star.values())
    out = []
    for r in sorted(star):
        if len(star[r]) != k:
            continue
        for t0 in star[r]:
            a, b = (x for x in t0 if x != r)
            for a, b in ((a, b), (b, a)):
                cycle = [a, b]
                while len(cycle) < k:
                    t = next(t for t in star[r] if cycle[-1] in t
                             and cycle[-2] not in t)
                    cycle.append(next(x for x in t if x not in (r, cycle[-1])))
                lab = {v: i for i, v in enumerate([r] + cycle, 1)}
                done = set(star[r])
                order = [r] + cycle
                j = 1
                while j < len(order):  # order grows as vertices are labeled
                    u = order[j]
                    j += 1
                    while True:
                        missing = [t for t in star[u] if t not in done]
                        if not missing:
                            break
                        deg = Counter(x for t in star[u] if t in done
                                      for x in t if x != u)
                        e = min((x for x, d in deg.items() if d == 1),
                                key=lab.get)
                        t = next(t for t in missing if e in t)
                        w = next(x for x in t if x not in (u, e))
                        if w not in lab:
                            lab[w] = len(lab) + 1
                            order.append(w)
                        done.add(t)
                out.append(tuple(sorted(tuple(sorted(lab[v] for v in t))
                                        for t in facets)))
    return out


def _is_flag_minimal(facets) -> bool:
    """The leaf test on a labeled closed surface: is its sorted facet list
    the least of its labelings from the flags at its vertices of minimum
    degree?"""
    search = census._StarClosingSearch.holding(facets)
    search.own = None
    search.blocks += [search._block([t for t in search.triangles if t[0] == j])
                      for j in range(1, search.n + 1)]
    return search._test([], frozenset(), search.n) is not None


def test_leaf_test_accepts_one_flag_labeling_per_class():
    for n in range(4, 9):
        result = enumerate_surfaces(n, representatives=True)
        for reps in result.representatives.values():
            for rep in reps:
                labelings = _flag_relabelings(rep.facets)
                assert rep.facets in labelings
                passing = {L for L in labelings if _is_flag_minimal(L)}
                assert passing == {rep.facets}


# A labeling of an 11-vertex sphere that is not the least of its flag
# labelings.  Its block 5 is empty: every triangle at vertex 5 holds a
# smaller label.  The smaller labeling differs from it only after that block.
SPHERE_11_NOT_LEAST = (
    (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 6),
    (3, 5, 7), (3, 6, 8), (3, 7, 8), (4, 5, 7), (4, 6, 9), (4, 7, 9),
    (6, 8, 10), (6, 9, 10), (7, 8, 11), (7, 9, 10), (7, 10, 11), (8, 10, 11))


def test_leaf_test_compares_through_empty_blocks():
    assert not [t for t in SPHERE_11_NOT_LEAST if t[0] == 5]
    labelings = _flag_relabelings(SPHERE_11_NOT_LEAST)
    assert SPHERE_11_NOT_LEAST in labelings
    passing = {L for L in labelings if _is_flag_minimal(L)}
    assert len(passing) == 1
    assert SPHERE_11_NOT_LEAST not in passing


# The sha256 of the representatives of n = 4..8, built as the census
# workload of the benchmark builds its class-key fingerprint.
REPRESENTATIVES_SHA256 = \
    "d845357432cabf0271608ae1fa373f91bde4e9073b9d4602f77e17c6eaf300b8"


def test_representatives_are_pinned():
    keys = sorted([list(map(list, rep.facets)) for n in range(4, 9)
                   for reps in enumerate_surfaces(
                       n, representatives=True).representatives.values()
                   for rep in reps])
    digest = hashlib.sha256(json.dumps(keys).encode()).hexdigest()
    assert digest == REPRESENTATIVES_SHA256
