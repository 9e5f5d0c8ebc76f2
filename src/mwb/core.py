"""Pure simplicial complexes as canonicalized facet lists.

A complex is stored as a lexicographically sorted tuple of facets, each facet
a strictly increasing tuple of vertex labels 1..n.  Labels are compacted on
construction; the original labels survive in ``source_labels`` so that links
and stars can report ambient vertices.  A complex pickles as its facets and
``source_labels`` alone.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .errors import (BudgetZero, CapExceeded, InvalidArgument, NotAFace,
                     NotPure, UnsupportedDimension)

Face = tuple  # strictly increasing tuple of vertex labels

# the most faces a complex may span, counted as facets * (2^(d+1) - 1): a
# d-simplex has 2^(d+1) - 1 faces, so a 30-dimensional one alone has 2^31 - 1
FACE_CAP = 1 << 24


def check_face_cap(facets: int, dim: int) -> None:
    """Raise CapExceeded if ``facets`` facets of dimension ``dim`` may span
    more than FACE_CAP faces.  Builders call it on closed-form counts before
    they list a facet; ``Complex`` calls it before it lists a face."""
    if dim < 64:
        bound = facets * ((1 << (dim + 1)) - 1)
        if bound <= FACE_CAP:
            return
        shown = f"{bound:,}"
    else:  # one facet alone is above the cap, and the bound may not print
        shown = f"{facets} * (2^{dim + 1} - 1)"
    raise CapExceeded(f"{facets} facets of dimension {dim} span up to "
                      f"{shown} faces, above the face cap {FACE_CAP:,}")


@dataclass(frozen=True)
class FVector:
    counts: tuple
    euler: int

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, k):
        return self.counts[k]

    def __len__(self):
        return len(self.counts)


@dataclass(frozen=True)
class ManifoldVerdict:
    status: str  # "yes" | "no" | "unknown"
    witness: str | None = None

    def __bool__(self):
        return self.status == "yes"


class Complex:
    """Immutable pure d-dimensional simplicial complex."""

    __slots__ = ("dim", "n", "facets", "source_labels", "_faces_cache", "_ridge_cache")

    def __init__(self, facets: Sequence[Face], source_labels: Sequence[int]):
        check_face_cap(len(facets), len(facets[0]) - 1)
        object.__setattr__(self, "facets", tuple(facets))
        object.__setattr__(self, "dim", len(facets[0]) - 1)
        object.__setattr__(self, "n", len(source_labels))
        object.__setattr__(self, "source_labels", tuple(source_labels))
        object.__setattr__(self, "_faces_cache", {})
        object.__setattr__(self, "_ridge_cache", None)

    def __setattr__(self, *args):
        raise AttributeError("Complex is immutable")

    def __eq__(self, other):
        return isinstance(other, Complex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __reduce__(self):
        return Complex, (self.facets, self.source_labels)

    def __repr__(self):
        return f"Complex(dim={self.dim}, n={self.n}, facets={len(self.facets)})"

    def faces(self, k: int) -> tuple:
        """All k-dimensional faces, sorted lexicographically."""
        if k < 0 or k > self.dim:
            return ()
        cached = self._faces_cache.get(k)
        if cached is None:
            seen = set()
            for F in self.facets:
                seen.update(itertools.combinations(F, k + 1))
            cached = tuple(sorted(seen))
            self._faces_cache[k] = cached
        return cached

    def ridges(self) -> dict:
        """Map each ridge R to the pairs (F, i): F a facet on R, F[i] its
        vertex off R, i from d down to 0 as ``combinations`` drops them."""
        if self._ridge_cache is None:
            rid, d = {}, self.dim
            for F in self.facets:
                for R, i in zip(itertools.combinations(F, d), range(d, -1, -1)):
                    rid.setdefault(R, []).append((F, i))
            object.__setattr__(self, "_ridge_cache",
                               {R: tuple(fs) for R, fs in rid.items()})
        return self._ridge_cache

    def vertices(self) -> range:
        return range(1, self.n + 1)


def from_facets(raw: Sequence[Sequence[int]]) -> Complex:
    """Build a canonicalized complex from raw facet lists.

    Labels are compacted to 1..n preserving relative order; the original
    labels are kept in ``source_labels``.  Facets are deduplicated and sorted.
    """
    if not raw:
        raise UnsupportedDimension("empty facet list")
    cleaned = []
    for F in raw:
        F = tuple(F)
        if not F:
            raise UnsupportedDimension("empty facet")
        if len(set(F)) != len(F):
            raise NotPure(f"facet {F} repeats a vertex")
        cleaned.append(tuple(sorted(F)))
    sizes = {len(F) for F in cleaned}
    if len(sizes) != 1:
        raise NotPure(f"facet dimensions differ: sizes {sorted(sizes)}")
    if sizes == {1}:
        raise UnsupportedDimension("0-dimensional complexes are not supported")
    labels = sorted(set(itertools.chain.from_iterable(cleaned)))
    to_new = {old: i + 1 for i, old in enumerate(labels)}
    facets = sorted({tuple(to_new[v] for v in F) for F in cleaned})
    return Complex(facets, labels)


def relabeled(C: Complex, perm: Sequence[int]) -> Complex:
    """Apply a vertex permutation; perm[i] is the image of vertex i+1."""
    if sorted(perm) != list(C.vertices()):
        raise ValueError("not a permutation of the vertex set")
    facets = sorted(tuple(sorted(perm[v - 1] for v in F)) for F in C.facets)
    labels = [lab for _, lab in sorted(zip(perm, C.source_labels))]
    return Complex(facets, labels)


def f_vector(C: Complex) -> FVector:
    counts = tuple(len(C.faces(k)) for k in range(C.dim + 1))
    euler = sum(c if k % 2 == 0 else -c for k, c in enumerate(counts))
    return FVector(counts, euler)


def star(C: Complex, F: Iterable[int]) -> Complex:
    """Subcomplex of all facets containing F, with ambient labels."""
    F = tuple(sorted(F))
    Fs = set(F)
    facets = [G for G in C.facets if Fs.issubset(G)]
    if not facets:
        raise NotAFace(f"{F} is not a face")
    return from_facets(facets)


def link(C: Complex, F: Iterable[int]) -> Complex:
    """Link of the face F: all faces disjoint from F whose union with F is a face.

    Vertex labels of the result are compacted; ``source_labels`` holds the
    ambient labels.
    """
    F = tuple(sorted(F))
    Fs = set(F)
    facets = [tuple(v for v in G if v not in Fs) for G in C.facets if Fs.issubset(G)]
    if not facets:
        raise NotAFace(f"{F} is not a face")
    return from_facets(facets)


def is_k_neighborly(C: Complex, k: int) -> bool:
    if not 1 <= k <= C.dim + 1:
        raise ValueError("k out of range")
    return len(C.faces(k - 1)) == comb(C.n, k)


def is_pseudomanifold(C: Complex) -> ManifoldVerdict:
    """Every ridge in exactly two facets, and the facet graph connected."""
    ridges = C.ridges()
    for R, pairs in ridges.items():
        if len(pairs) != 2:
            return ManifoldVerdict("no", f"ridge {R} lies in {len(pairs)} facet(s)")
    # strong connectivity: each ridge joins the parts of its two facets
    part = {F: [F] for F in C.facets}
    for (F, _), (G, _) in ridges.values():
        a, b = part[F], part[G]
        if a is not b:
            if len(a) < len(b):
                a, b = b, a
            a += b
            for H in b:
                part[H] = a
    if len(part[C.facets[0]]) != len(C.facets):
        return ManifoldVerdict("no", "facet adjacency graph is disconnected")
    return ManifoldVerdict("yes")


def is_combinatorial_manifold(C: Complex, flip_budget: int = 10_000) -> ManifoldVerdict:
    """Certify every vertex link PL-homeomorphic to a boundary simplex.

    A link that passed the pseudomanifold test is, in dimension 1, a circle,
    and in dimension 2 a closed connected surface (chi <= 2) with vertices
    identified, each identification lowering chi, so it is S^2 iff chi = 2.
    Links of dimension >= 3 are reduced with bistellar flips: a link that
    reaches the boundary of a simplex within ``flip_budget`` moves is a PL
    sphere.  Only a link that misses gets the sphere-homology screen, which
    turns "unknown" into "no" when it fails, so a non-sphere link spends the
    whole budget first.  A ``flip_budget`` below 1 raises BudgetZero.
    """
    from .flips import Schedule, reduce as flip_reduce
    from .homology import HomologyVector, homology

    if flip_budget <= 0:
        raise BudgetZero("flip budget must be positive")
    pm = is_pseudomanifold(C)
    if not pm:
        return ManifoldVerdict("no", pm.witness)
    if C.dim == 1:
        return ManifoldVerdict("yes")  # a connected 1-pseudomanifold is a circle
    dL = C.dim - 1
    sphere = HomologyVector((1,) + (0,) * (dL - 1) + (1,), ((),) * (dL + 1))
    unknown = None
    for v in C.vertices():
        L = link(C, (v,))
        lpm = is_pseudomanifold(L)
        if not lpm:
            return ManifoldVerdict("no", f"link of vertex {v}: {lpm.witness}")
        if dL == 1 or (dL == 2 and f_vector(L).euler == 2):
            continue  # a circle, or a surface with chi = 2: S^2
        if dL >= 3:
            best, _, _ = flip_reduce(L, seed=1, budget=flip_budget,
                                     schedule=Schedule(target_f0=dL + 2))
            if best.n == dL + 2:
                continue
        # a surface with chi != 2, or a link the flips missed
        if dL == 2 or homology(L) != sphere:
            return ManifoldVerdict(
                "no", f"link of vertex {v} does not have sphere homology")
        unknown = ManifoldVerdict("unknown", f"link of vertex {v} not reduced to "
                                  f"a boundary simplex within {flip_budget} moves")
    return ManifoldVerdict("yes") if unknown is None else unknown


def process_map(fn, jobs, threads: int):
    """``fn`` over ``jobs`` in order, on min(threads, len(jobs), cpu_count)
    processes.  One worker gives the lazy ``map(fn, jobs)``, which a caller
    may stop early; a pool, imported only here, runs every job and returns a
    list."""
    if threads < 1:
        raise InvalidArgument("threads must be >= 1")
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return map(fn, jobs)
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))
