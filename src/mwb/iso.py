"""Combinatorial fingerprints, canonical labeling, isomorphism, automorphisms.

One individualization-refinement search, with orbit pruning by the
automorphisms discovered along the way, gives both the canonical form (its
least relabeled leaf) and a generating set of the automorphism group (not
necessarily irredundant); the group order comes from orbit-stabilizer.
Vertex counts here are small (n <= ~25), so simplicity wins over asymptotics.
Each refinement round sorts every facet's colours once, and skips the
facets of vertices already alone in their cells, whose ranks cannot move.

Refinement by face degrees alone stalls on neighborly complexes, where
every vertex has the same degrees. The initial colours therefore also hold
each vertex's triangle degrees, a vertex invariant in the manner of
McKay-Piperno, *Practical graph isomorphism II* (arXiv:1301.1493).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .core import Complex, f_vector, link, relabeled


@dataclass(frozen=True)
class GroupDescription:
    generators: tuple  # vertex permutations, sigma[i] = image of vertex i+1
    order: int


def incidence_matrix(C: Complex):
    """Vertex-facet incidence: rows vertices 1..n, columns canonical facets."""
    return [[1 if v in F else 0 for F in C.facets] for v in C.vertices()]


def _det_bareiss(M):
    M = [row[:] for row in M]
    n = len(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def as_determinant(C: Complex) -> int:
    """det(A A^T) of the vertex-facet incidence matrix, exactly."""
    n = C.n
    G = [[0] * n for _ in range(n)]
    for F in C.facets:
        for u in F:
            row = G[u - 1]
            for v in F:
                row[v - 1] += 1
    return _det_bareiss(G)


def as_link_determinants(C: Complex) -> tuple:
    """The incidence determinant of every vertex link, by vertex id."""
    return tuple(as_determinant(link(C, (v,))) for v in C.vertices())


def _vertex_facets(C: Complex):
    vf = [[] for _ in range(C.n)]
    for F in C.facets:
        for v in F:
            vf[v - 1].append(F)
    return vf


def _initial_colors(C: Complex):
    """Rank each vertex by its face degrees, then its triangle degrees: the
    facet counts of its triangles in ascending order. Both are cheap and
    isomorphism-invariant. In dimension <= 2 and in a 3-pseudomanifold the
    face degrees fix the triangle degrees; on S3xS3-a-13, where every vertex
    has the same face degrees, the triangle degrees split all 13."""
    deg = [[0] * (C.dim + 1) for _ in range(C.n)]
    for k in range(C.dim + 1):
        for F in C.faces(k):
            for v in F:
                deg[v - 1][k] += 1
    tri = Counter(T for F in C.facets for T in combinations(F, 3))
    for T, k in sorted(tri.items(), key=lambda item: item[1]):
        for v in T:
            deg[v - 1].append(k)
    index = {key: i for i, key in enumerate(sorted(set(map(tuple, deg))))}
    return [index[tuple(row)] for row in deg]


def _refine(colors, vert_facets):
    """Recolour each vertex by the rank of (colour, pattern) until the
    partition is stable; the pattern is the sorted list of v's facets'
    sorted colour tuples less v. A vertex alone in its cell ties with no
    other pair, so it keeps its rank with the pattern (). A facet meeting a
    larger cell is sorted once per round, and a vertex's entry is that tuple
    less one occurrence of its own colour."""
    while True:
        size = Counter(colors)
        tups: dict = {}
        sigs = []
        for v, c in enumerate(colors):
            patt = []
            if size[c] > 1:
                for F in vert_facets[v]:
                    T = tups.get(F)
                    if T is None:
                        T = tups[F] = tuple(sorted([colors[u - 1] for u in F]))
                    i = T.index(c)
                    patt.append(T[:i] + T[i + 1:])
                patt.sort()
            sigs.append((c, tuple(patt)))
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sig] for sig in sigs]
        if len(set(new)) == len(set(colors)):
            # same partition, stabilized up to renaming
            return new
        colors = new


def _search(C: Complex):
    """Individualization-refinement with orbit pruning: the least leaf, as
    (``relabeled(C, perm)``, perm), and the automorphisms between equal leaves.

    They generate the whole group. Let L be the final best leaf, the first
    one visited with the least facet list. A child is pruned only when
    recorded automorphisms fixing its prefix map it onto an explored
    sibling, so any automorphism h, composed with recorded ones, carries
    h(L) onto an explored leaf M with the same facet list; M is L or was
    visited after it, and then the automorphism L -> M was recorded.

    The search starts from the refinement of the initial colours, the one
    refinement made before it individualizes a vertex.
    """
    n = C.n
    vert_facets = _vertex_facets(C)
    best: list = [None, None]  # relabeled complex, perm
    autos: list = []

    def rec(colors, prefix):  # colors: a refined partition
        cells: dict = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v + 1)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm = tuple(c + 1 for c in colors)
            leaf = relabeled(C, perm)
            if best[0] is None or leaf.facets < best[0].facets:
                best[0], best[1] = leaf, perm
            elif leaf == best[0]:
                inv = _inverse(best[1])
                autos.append(tuple(inv[perm[v] - 1] for v in range(n)))
            return
        explored: list = []
        for v in target:
            stab = [g for g in autos if all(g[u - 1] == u for u in prefix)]
            if _in_orbit(v, explored, stab):
                continue
            explored.append(v)
            split = [2 * c for c in colors]
            split[v - 1] -= 1
            rec(_refine(split, vert_facets), prefix + (v,))

    rec(_refine(_initial_colors(C), vert_facets), ())
    return best, autos


def canonical_form(C: Complex):
    """A canonical representative and the relabeling that produces it.

    Isomorphic complexes map to identical facet lists; the representative is
    the leaf ``relabeled(C, perm)`` the search kept, the least facet list over
    labelings that respect the refinement of face and triangle degrees.
    """
    (form, perm), _ = _search(C)
    return form, perm


def _in_orbit(v, explored, gens):
    if not gens or not explored:
        return False
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x - 1]
            if y in explored:
                return True
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def are_isomorphic(C1: Complex, C2: Complex) -> bool:
    """Canonical-form equality, behind cheap invariant rejections."""
    if C1.dim != C2.dim or C1.n != C2.n:
        return False
    if f_vector(C1).counts != f_vector(C2).counts:
        return False
    return canonical_form(C1)[0] == canonical_form(C2)[0]


def _inverse(p):
    inv = [0] * len(p)
    for v, w in enumerate(p, start=1):
        inv[w - 1] = v
    return tuple(inv)


def _order(gens, n):
    """Group order by orbit-stabilizer down the base 1, 2, ..., n. Each base
    point's orbit is taken under the stabilizer of the points before it,
    generated by the Schreier generators of the previous level."""
    identity = tuple(range(1, n + 1))
    order = 1
    for b in range(1, n + 1):
        gens = set(gens) - {identity}
        if not gens:
            break
        u = {b: identity}  # u[x] maps b to x
        queue = [b]
        for x in queue:
            for g in gens:
                if g[x - 1] not in u:
                    u[g[x - 1]] = tuple(g[w - 1] for w in u[x])
                    queue.append(g[x - 1])
        order *= len(u)
        inv = {x: _inverse(ux) for x, ux in u.items()}
        gens = [tuple(inv[g[x - 1]][g[w - 1] - 1] for w in ux)
                for x, ux in u.items() for g in gens]
    return order


def automorphism_group(C: Complex) -> GroupDescription:
    """Generators and exact order of the facet-preserving vertex permutations.

    The generators are the automorphisms the canonical-form search finds, in
    the order found; they generate the group but need not be irredundant.
    The order comes from orbit-stabilizer, without listing group elements.
    """
    _, autos = _search(C)
    return GroupDescription(tuple(autos), _order(autos, C.n))
