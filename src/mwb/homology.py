"""Exact simplicial homology over Z, and Betti numbers over Q and Z_p.

One kernel does all elimination: `_diagonal_of`, a sparse Smith normal form
over Z by row operations and a remainder step.  It does no column
operations: by the time one would apply, the pivot column holds the pivot
alone, so it could change only the pivot row, which is deleted next.
`_pick_pivot` takes the first shortest row (from a heap), then its unit
entry in the sparsest column, which keeps fill-in low (Dumas, Heckenbach,
Saunders and Welker, 2003); a row without a unit entry gives its entry of
smallest absolute value, and remainders take over from there.  Invariant
factors are unique, so the pivot rule changes speed only.

`homology` eliminates the maps from the top down and clears them (Chen and
Kerber, 2011): the unit pivot rows A of the (k+1)-st map, up to its first
non-unit pivot, are no columns of the k-th.  Until then each row operation
adds a pivot row to another row, so the block M[A, B] of the rows A and
their pivot columns B is unimodular, and the boundaries of B with the faces
outside A are a basis of the k-chains (a reduction pair of Kaczynski,
Mrozek and Slusarek, 1998).  The k-th map is zero on the boundaries, so its
columns outside A keep its invariant factors.  Betti numbers over Q or Z_p
follow by universal coefficients; the one cache, on `homology`, serves all.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, isqrt

from .core import Complex, f_vector, is_pseudomanifold
from .errors import InvalidArgument, NotPseudomanifold


@dataclass(frozen=True)
class HomologyVector:
    """Per dimension: free rank and torsion in invariant-factor form."""

    free: tuple
    torsion: tuple  # tuple of tuples of ints >= 2, each dividing the next

    def __str__(self):
        parts = []
        for r, tors in zip(self.free, self.torsion):
            terms = []
            if r == 1:
                terms.append("Z")
            elif r > 1:
                terms.append(f"Z^{r}")
            terms.extend(f"Z_{t}" for t in tors)
            parts.append(" + ".join(terms) if terms else "0")
        return "(" + ", ".join(parts) + ")"

    @property
    def euler(self):
        return sum(r if k % 2 == 0 else -r for k, r in enumerate(self.free))


@dataclass(frozen=True)
class BettiVector:
    coefficients: object  # 0 for Q, else a prime p
    ranks: tuple

    def __str__(self):
        field = "Q" if self.coefficients == 0 else f"F_{self.coefficients}"
        return f"{field}: {self.ranks}"


def boundary_matrix(C: Complex, k: int):
    """The k-th boundary operator as a dense integer matrix.

    Rows are indexed by the (k-1)-faces, columns by the k-faces, both in the
    canonical sorted order; the column of a k-face carries alternating signs
    on its vertex-deleted subfaces.
    """
    if not 1 <= k <= C.dim:
        raise ValueError("k out of range")
    M = [[0] * len(C.faces(k)) for _ in C.faces(k - 1)]
    for i, row in _sparse_boundary(C, k)[0].items():
        for j, v in row.items():
            M[i][j] = v
    return M


def _sparse_boundary(C: Complex, k: int, skip=()):
    """The k-th boundary map as row dicts and column sets, less ``skip``."""
    rows_of = {F: i for i, F in enumerate(C.faces(k - 1))}
    rows: dict = {}
    cols: dict = {}
    for j, G in enumerate(C.faces(k)):
        if j in skip:
            continue
        for i in range(k + 1):
            r = rows_of[G[:i] + G[i + 1:]]
            rows.setdefault(r, {})[j] = -1 if i % 2 else 1
            cols.setdefault(j, set()).add(r)
    return rows, cols


def _pick_pivot(rows, cols, heap):
    # an entry is stale once its row is gone or has another length; a row
    # changes length only in row_axpy, which pushes the new length
    while True:
        n, _, r = heap[0]
        row = rows.get(r)
        if row is not None and len(row) == n:
            break
        heappop(heap)
    units = [j for j, v in row.items() if v in (1, -1)]
    if units:
        return r, min(units, key=lambda j: len(cols[j]))
    return r, min(row, key=lambda j: abs(row[j]))


def _diagonal_of(rows, cols, cleared=None):
    """Diagonalize a sparse integer matrix in place; return diagonal entries.

    Row operations clear the pivot column; a nonzero remainder (by floor
    division, |rem| < |p|) becomes the pivot.  Once column c holds p alone,
    a column operation col_j -= q * col_c would change row r only, and row
    r is deleted next: so an entry of row r that p does not divide is just
    replaced by its remainder and made the pivot, and otherwise row r is
    dropped, which empties column c.  `_invariant_factors` orders the result.
    A set ``cleared`` receives the unit pivot rows up to the first non-unit.
    """
    rank = {r: i for i, r in enumerate(rows)}  # rows never come back
    heap = [(len(row), rank[r], r) for r, row in rows.items()]
    heapify(heap)

    def row_axpy(dst, src, coef):
        # row[dst] += coef * row[src]
        rdst = rows[dst]
        n = len(rdst)
        for j, v in rows[src].items():
            new = rdst.get(j, 0) + coef * v
            if new:
                rdst[j] = new
                cols[j].add(dst)
            elif j in rdst:
                del rdst[j]
                cols[j].discard(dst)
        if not rdst:
            del rows[dst]
        elif len(rdst) != n:
            heappush(heap, (len(rdst), rank[dst], dst))

    diag = []
    while rows:
        r, c = _pick_pivot(rows, cols, heap)
        if cleared is not None and rows[r][c] in (1, -1):
            cleared.add(r)
        else:
            cleared = None  # from here on, rows outside the set mix in
        while True:
            p = rows[r][c]
            for i in list(cols[c]):
                if i == r:
                    continue
                q = rows[i][c] // p
                if q:
                    row_axpy(i, r, -q)
                if c in rows.get(i, ()):
                    r = i  # the remainder becomes the pivot
                    break
            else:
                c = next((j for j, v in rows[r].items() if v % p), None)
                if c is None:
                    break
                rows[r][c] %= p
        diag.append(abs(p))
        for j in rows.pop(r):
            cols[j].discard(r)
            if not cols[j]:
                del cols[j]
    return diag


def _invariant_factors(diag):
    # Z_a + Z_b = Z_gcd + Z_lcm, and once pass i is done, factors[i] divides
    # every later entry; a unit divides every entry, so units skip the pass
    factors = [x for x in diag if x > 1]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[j] = g, a * b // g
    return (1,) * diag.count(1) + tuple(factors)


def smith_normal_form(M):
    """Invariant factors d1 | d2 | ... and the rank of an integer matrix."""
    rows: dict = {}
    cols: dict = {}
    for i, row in enumerate(M):
        for j, v in enumerate(row):
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
    factors = _invariant_factors(_diagonal_of(rows, cols))
    return factors, len(factors)


@lru_cache(maxsize=256)
def homology(C: Complex) -> HomologyVector:
    """Unreduced integral homology H_0..H_d from boundary-map SNFs."""
    d = C.dim
    fv = f_vector(C).counts
    factors = [()] * (d + 2)
    cleared = [set() for _ in range(d + 1)]  # k-faces left out of the k-th map
    for k in range(d, 0, -1):
        M = _sparse_boundary(C, k, cleared[k])
        factors[k] = _invariant_factors(_diagonal_of(*M, cleared[k - 1]))
    free = tuple(fv[k] - len(factors[k]) - len(factors[k + 1])
                 for k in range(d + 1))
    torsion = tuple(tuple(t for t in factors[k + 1] if t > 1) for k in range(d + 1))
    return HomologyVector(free, torsion)


def betti(C: Complex, p: int = 0) -> BettiVector:
    """Betti numbers over Q (p=0) or over the field Z_p (p prime < 2**31).

    By universal coefficients, each Z_t summand of H_k with p | t adds one
    to b_k and one to b_(k+1) over Z_p; over Q only the free ranks count.
    """
    if p != 0 and not (isinstance(p, int) and 2 <= p < 2**31
                       and all(p % q for q in range(2, isqrt(p) + 1))):
        # no value in the message: str() of a 5000-digit int raises
        raise InvalidArgument("modulus must be 0 or a prime below 2**31")
    H = homology(C)
    hits = [sum(t % p == 0 for t in tors) if p else 0 for tors in H.torsion]
    return BettiVector(p, tuple(r + hits[k] + (hits[k - 1] if k else 0)
                                for k, r in enumerate(H.free)))


def orientation_signs(C: Complex):
    """Coherent facet orientations (facet -> +-1), or None if impossible.

    Deterministic: the lexicographically first facet gets +1.
    """
    pm = is_pseudomanifold(C)
    if not pm:
        raise NotPseudomanifold(pm.witness)
    ridges = C.ridges()
    sign: dict = {C.facets[0]: 1}
    stack = [C.facets[0]]
    while stack:
        F = stack.pop()
        # F[i] and G[j] are off the ridge F and G share; one pair is F's own
        for i in range(C.dim + 1):
            for G, j in ridges[F[:i] + F[i + 1:]]:
                s = -sign[F] * (-1) ** (i + j)
                if G not in sign:
                    sign[G] = s
                    stack.append(G)
                elif G != F and sign[G] != s:
                    return None
    return sign


def orientability(C: Complex) -> str:
    """Decide orientability by propagating coherent facet orientations."""
    return "orientable" if orientation_signs(C) is not None else "non-orientable"
