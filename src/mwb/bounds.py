"""Vertex-count and f-vector bounds, evaluated exactly, one row function each.

``Facts.of`` computes what the bounds read about a complex once per report:
n, d, the f-vector, chi, the integral homology, the F_2 Betti numbers, the
pseudomanifold check, surface orientability and the caller's hints. A row
function takes those facts and returns the ``BoundEntry`` rows of one bound,
marked not applicable where its hypotheses fail. ``bound_report`` joins the
rows of ``ROWS`` in order on a pseudomanifold, and only the ``lbt`` row, which
says it is not one, on any other complex. The tests call the same rows.

Every bound is an integer (or exact-fraction) inequality; ``slack`` is
LHS - RHS in the bound's stated orientation, so ``sharp`` means slack 0.
Conjectural bounds are computed but flagged and never fail verification.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import comb

from .homology import HomologyVector, betti, homology
from .core import Complex, FVector, f_vector, is_pseudomanifold
from .errors import InvalidArgument


@dataclass(frozen=True)
class TopologyHints:
    """Caller-supplied topological facts; never inferred silently."""

    is_sphere: bool | None = None
    simply_connected: bool | None = None
    connectivity: int | None = None  # (i-1)-connected but not i-connected
    is_homology_sphere: str | None = None  # "Z" or "Z2"
    known_manifold: str | None = None  # e.g. "S3", "RP3", "L(3,1)", "RP^4", "CP^2"


@dataclass
class BoundEntry:
    bound_id: str
    applicable: bool
    satisfied: bool | None = None
    slack: object = None  # int or Fraction
    sharp: bool = False
    conjectural: bool = False
    notes: str = ""

    def as_kv(self) -> str:
        parts = [f"bound={self.bound_id}", f"applicable={self.applicable}"]
        if self.applicable:
            parts += [f"satisfied={self.satisfied}", f"slack={self.slack}",
                      f"sharp={self.sharp}"]
        parts.append(f"conjectural={self.conjectural}")
        if self.notes:
            parts.append(f"notes={self.notes!r}")
        return " ".join(parts)


@dataclass
class BoundReport:
    inputs: dict
    entries: list = field(default_factory=list)

    def entry(self, bound_id: str) -> BoundEntry:
        for e in self.entries:
            if e.bound_id == bound_id:
                return e
        raise KeyError(bound_id)

    def violations(self):
        return [e for e in self.entries
                if e.applicable and not e.conjectural and e.satisfied is False]

    def to_text(self) -> str:
        lines = [f"n={self.inputs['n']} d={self.inputs['d']} "
                 f"f={self.inputs['f']} chi={self.inputs['chi']}"]
        for e in self.entries:
            if not e.applicable:
                lines.append(f"  {e.bound_id}: not applicable"
                             + (f" ({e.notes})" if e.notes else ""))
                continue
            status = "ok" if e.satisfied else "VIOLATED"
            extra = " sharp" if e.sharp else ""
            conj = " [conjectural]" if e.conjectural else ""
            note = f" ({e.notes})" if e.notes else ""
            lines.append(f"  {e.bound_id}: {status} slack={e.slack}{extra}{conj}{note}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        return "\n".join(e.as_kv() for e in self.entries)


@dataclass(frozen=True)
class Facts:
    """What the rows read about a complex, computed once per report."""

    n: int
    d: int
    F: FVector
    chi: int
    H: HomologyVector
    betti: tuple  # F_2 Betti numbers b_0..b_d
    pseudomanifold: bool
    orientable: bool | None  # pseudomanifold surfaces only
    hints: TopologyHints
    manifold: str | None  # the manifold hint, upper case, without whitespace
    projective: tuple | None  # (kind, k, dimension) of an RP^k or CP^k hint

    @classmethod
    def of(cls, C: Complex, hints: TopologyHints) -> Facts:
        d = C.dim
        F = f_vector(C)
        H = homology(C)
        b2 = betti(C, 2).ranks
        pm = bool(is_pseudomanifold(C))
        # a strongly connected closed pseudomanifold is orientable exactly
        # when its top homology is Z
        orientable = H.free[d] == 1 if d == 2 and pm else None
        manifold = hints.known_manifold
        if manifold is not None:
            manifold = "".join(manifold.split()).upper()
            if not manifold:
                raise InvalidArgument("manifold hint is empty")
        kind, _, k = (manifold or "").partition("^")
        projective = None
        if kind in ("RP", "CP"):
            if not (k.isascii() and k.isdigit() and len(k) < 10):
                raise InvalidArgument("projective space hint must read RP^k or CP^k")
            k = int(k)
            projective = (kind, k, k if kind == "RP" else 2 * k)
        return cls(C.n, d, F, F.euler, H, b2, pm, orientable, hints, manifold,
                   projective)

    @property
    def reduced_betti(self) -> tuple:
        return (self.betti[0] - 1,) + self.betti[1:]


def _entry(bound_id, lhs, rhs, conjectural=False, notes=""):
    slack = lhs - rhs
    return BoundEntry(bound_id, True, slack >= 0, slack, slack == 0,
                      conjectural, notes)


def _relation(bound_id, holds):
    """An f-vector identity: slack 0 where it holds, none where it fails."""
    return BoundEntry(bound_id, True, holds, 0 if holds else None, holds)


def _na(bound_id, notes=""):
    return BoundEntry(bound_id, False, notes=notes)


def _wrong_dimension(f: Facts) -> str:
    kind, k, _ = f.projective
    return f"{kind}^{k} is not {f.d}-dimensional"


def _kuehnel_kalai(k, n, x):
    """Both sides of C(n-k-2, k+1) >= C(2k+1, k+1) * x.

    With x = (-1)^k (chi - 2) this is the Kuehnel-Kalai bound for
    2k-manifolds: Heawood's for k = 1 and Kuehnel's 4-dimensional bound for
    k = 2. Novik's even-dimensional bounds put F_2 Betti numbers in x.
    """
    return comb(n - k - 2, k + 1), comb(2 * k + 1, k + 1) * x


# ---------------------------------------------------------------- surfaces

# (chi, orientable) of the orientable genus-2 surface, the Klein bottle and N_3
EXCEPTIONAL_SURFACES = frozenset({(-2, True), (0, False), (-1, False)})


def _heawood(n, chi, exceptional):
    # an exceptional surface needs one vertex more than the formula
    lhs, rhs = _kuehnel_kalai(1, n - 1 if exceptional else n, 2 - chi)
    return _entry("heawood", lhs, rhs,
                  notes="exceptional surface" if exceptional else "")


def heawood_min_vertices(chi: int, exceptional: bool = False) -> int:
    """Least n that the heawood row admits for Euler characteristic chi."""
    if chi > 2:
        raise ValueError("a closed surface has chi <= 2")
    return next(n for n in count(4) if _heawood(n, chi, exceptional).satisfied)


def surface_f_from_n(n: int, chi: int) -> FVector:
    return FVector((n, 3 * n - 3 * chi, 2 * n - 2 * chi), chi)


def surface(f: Facts) -> list:
    """Heawood, Ringel: a closed surface has C(n-3, 2) >= 3(2 - chi), and its
    f-vector follows from n and chi."""
    if f.d != 2:
        return []
    holds = f.F.counts == surface_f_from_n(f.n, f.chi).counts
    return [_heawood(f.n, f.chi, (f.chi, f.orientable) in EXCEPTIONAL_SURFACES),
            _relation("surface-f-relation", holds)]


# ----------------------------------------------------- general lower bounds

def _brehm_kuehnel_min(d, i):
    """Brehm-Kuehnel: a d-manifold that is (i-1)- but not i-connected needs
    2d + 4 - i vertices; i = 1 gives 2d + 3 without simple connectivity."""
    return 2 * d + 4 - i


def _sphere_product_index(h: HomologyVector, d: int):
    """Detect homology equal to that of S^(d-i) x S^i; return i or None."""
    for i in range(1, d // 2 + 1):
        free = [0] * (d + 1)
        free[0] += 1
        free[i] += 1
        free[d - i] += 1
        free[d] += 1
        if h.free == tuple(free) and all(not t for t in h.torsion):
            return i
    return None


def brehm_kuehnel(f: Facts) -> list:
    """Brehm-Kuehnel lower bounds on n for non-spheres, for (i-1)- but not
    i-connected manifolds, for homology sphere products and without simple
    connectivity."""
    d, n, hints, H = f.d, f.n, f.hints, f.H
    sphere_h = H.free == tuple(
        1 if k in (0, d) else 0 for k in range(d + 1)) and not any(H.torsion)
    if d >= 2 and (hints.is_sphere is False or not sphere_h):
        rows = [_entry("bk-non-sphere", n, 3 * ((d + 1) // 2) + 3,
                       notes="equality only in dimensions 2, 4, 8, 16")]
    else:
        rows = [_na("bk-non-sphere", "not known to be a non-sphere")]

    i = hints.connectivity
    if i is None:
        rows.append(_na("bk-connectivity", "no connectivity hint"))
    elif 1 <= i < d / 2:
        rows.append(_entry("bk-connectivity", n, _brehm_kuehnel_min(d, i)))
    else:
        rows.append(_na("bk-connectivity",
                        f"connectivity hint {i} outside 1 <= i < d/2"))

    i = _sphere_product_index(H, d)
    if i is not None:
        rows.append(_entry("bk-sphere-product-homology", n,
                           _brehm_kuehnel_min(d, i),
                           notes=f"homology of a sphere product with i={i}"))
    else:
        rows.append(_na("bk-sphere-product-homology", "homology does not match"))

    if hints.simply_connected is False:
        rows.append(_entry("bk-non-simply-connected", n,
                           6 if d == 2 else _brehm_kuehnel_min(d, 1)))
    else:
        rows.append(_na("bk-non-simply-connected", "no fundamental-group hint"))
    return rows


def kuehnel_4d(f: Facts) -> list:
    """Kuehnel: a 4-manifold has C(n-4, 3) >= 10(chi - 2), sharp iff it is
    3-neighborly."""
    if f.d != 4:
        return []
    e = _entry("kuehnel-4d", *_kuehnel_kalai(2, f.n, f.chi - 2))
    if e.sharp and f.n <= 13 and f.n not in (6, 9):
        e.notes = ("sharp-but-excluded: no 3-neighborly 4-manifold "
                   "exists at this vertex count")
    return [e]


def kuehnel_kalai(f: Facts) -> list:
    """Kuehnel-Kalai, conjectural for 2k-manifolds with k >= 3 (k = 1 and
    k = 2 are the heawood and kuehnel-4d rows)."""
    if f.d % 2 or f.d < 6:
        return []
    k = f.d // 2
    lhs, rhs = _kuehnel_kalai(k, f.n, (-1) ** k * (f.chi - 2))
    return [_entry("kuehnel-kalai", lhs, rhs, conjectural=True)]


def kuehnel_triangle(f: Facts) -> list:
    """Kuehnel's conjectured Pascal-like triangle of lower bounds, one row
    per j <= d/2; the j = d/2 row of even d carries the halved Betti number,
    compared exactly."""
    d, n, r = f.d, f.n, f.reduced_betti
    sides = [(j, comb(n - d + j - 2, j + 1), comb(d + 2, j + 1) * r[j])
             for j in range((d - 1) // 2 + 1)]
    if d % 2 == 0:
        j = d // 2
        sides.append((j, comb(n - j - 2, j + 1),
                      Fraction(comb(d + 2, j + 1) * r[j], 2)))
    return [_entry(f"kuehnel-triangle-j{j}", lhs, rhs, conjectural=True)
            for j, lhs, rhs in sides]


def lbt(f: Facts) -> list:
    """Lower bound theorem (Barnette, Kalai) for d-pseudomanifolds; sharp on
    stacked spheres."""
    d, n = f.d, f.n
    if not f.pseudomanifold:
        return [_na("lbt", "not a pseudomanifold")]
    if d < 2:
        return [_na("lbt", "dimension below 2")]
    rhs = [comb(d + 1, k) * n - comb(d + 2, k + 1) * k for k in range(1, d)]
    rhs.append(d * n - (d - 1) * (d + 2))
    return [_entry(f"lbt-k{k}", f.F[k], r) for k, r in enumerate(rhs, 1)]


def cyclic_f(dim: int, n: int) -> FVector:
    """f-vector of the boundary of the cyclic (dim+1)-polytope on n vertices,
    from neighborliness plus the Dehn-Sommerville relations."""
    D = dim + 1
    if n < D + 1:
        raise ValueError("need n >= dim + 2")
    h = [0] * (D + 1)
    for i in range(D // 2 + 1):
        h[i] = comb(n - D - 1 + i, i)
    for i in range(D // 2 + 1, D + 1):
        h[i] = h[D - i]
    counts = tuple(sum(comb(D - i, j - i) * h[i] for i in range(j + 1))
                   for j in range(1, D + 1))
    euler = sum(c if k % 2 == 0 else -c for k, c in enumerate(counts))
    return FVector(counts, euler)


def ubt(f: Facts) -> list:
    """Upper bound theorem (Novik for manifolds): f_k is at most that of the
    cyclic polytope; in even d only while the middle F_2 Betti number is
    dominated by the reduced lower ones."""
    d, n, r = f.d, f.n, f.reduced_betti
    k = d // 2
    if d % 2 == 0 and f.betti[k] > 2 * r[k - 1] + 2 * sum(
            r[i] for i in range(1, k - 2)):
        return [_na("ubt", "middle Betti number outside the stated range")]
    cyc = cyclic_f(d, n)
    return [_entry(f"ubt-k{k}", cyc[k], f.F[k],
                   notes="upper bound: slack = cyclic f_k - f_k")
            for k in range(1, d + 1)]


# ------------------------------------------------------------- 3-manifolds

@dataclass(frozen=True)
class GammaEntry:
    gamma: int
    conjectural: bool = False


WALKUP_GAMMA = {
    "S3": GammaEntry(-10),
    "S2~S1": GammaEntry(0),
    "S2xS1": GammaEntry(0),
    "RP3": GammaEntry(7),
    "L(3,1)": GammaEntry(18, conjectural=True),
    "T3": GammaEntry(45, conjectural=True),
}
OTHER_MIN_GAMMA = 8  # every further 3-manifold
_GAMMA_KEYS = {name.upper(): name for name in WALKUP_GAMMA}


def walkup(f: Facts) -> list:
    """Walkup: a 3-manifold M has f_2 = 2 f_1 - 2n, f_3 = f_1 - n and
    f_1 >= 4n + gamma(M)."""
    if f.d != 3:
        return []
    F, n = f.F, f.n
    holds = F[2] == 2 * F[1] - 2 * n and F[3] == F[1] - n
    rows = [_relation("3-manifold-f-relation", holds)]
    if f.projective is not None and f.projective[2] != 3:
        return rows + [_na("walkup-gamma", _wrong_dimension(f))]
    if f.manifold is None:
        return rows + [_na("walkup-gamma", "manifold not identified")]
    known = _GAMMA_KEYS.get(f.manifold.replace("^", ""))  # S^3 is S3
    if known is None:
        gamma, conjectural = OTHER_MIN_GAMMA, False
        note = "gamma >= 8 for all other 3-manifolds"
    else:
        g = WALKUP_GAMMA[known]
        gamma, conjectural = g.gamma, g.conjectural
        note = f"gamma({known})={gamma}"
    return rows + [_entry("walkup-gamma", F[1], 4 * n + gamma,
                          conjectural=conjectural, notes=note)]


# --------------------------------------------------------------- the rest

def novik(f: Facts) -> list:
    """Novik's three inequalities over F_2, each inside its stated window of
    n; outside a window the row is marked not applicable."""
    d, n, b = f.d, f.n, f.betti
    if d % 2 == 0:
        k = d // 2
        near = n <= 3 * k + 3
        r = f.reduced_betti
        sides = [
            ("novik-even-reduced", n >= 4 * k + 3,
             *_kuehnel_kalai(k, n, b[k] + 2 * sum(r[:k - 1]))),
            ("novik-even-unreduced", n >= 7 * k + 3,
             *_kuehnel_kalai(k, n, b[k] + 2 * sum(b[1:k])))]
    else:
        k = (d + 1) // 2
        near = n <= 3 * k + 2
        sides = [("novik-odd", n >= 4 * k + 1,
                  Fraction(2 * n, n + k + 2) * comb(n - k - 2, k),
                  comb(2 * k - 1, k) * 2 * sum(b[1:k]))]
    return [_entry(name, lhs, rhs) if near or far
            else _na(name, "n outside the stated window")
            for name, far, lhs, rhs in sides]


def arnoux_marin_min(kind: str, dim: int) -> int:
    """Effective minimum vertex count for real/complex projective spaces.

    Equality in the raw bound is possible only in the plane cases, so the
    returned minimum is raised by one elsewhere.
    """
    if kind == "RP":
        base = (dim + 1) * (dim + 2) // 2
        return base if dim == 2 else base + 1
    if kind == "CP":
        base = (dim + 1) ** 2
        return base if dim == 2 else base + 1
    raise ValueError("kind must be 'RP' or 'CP'")


def arnoux_marin(f: Facts) -> list:
    """Arnoux-Marin: the vertex minimum of an RP^k or CP^k hint."""
    if f.projective is None:
        return [_na("arnoux-marin", "not a real/complex projective space")]
    kind, k, dim = f.projective
    if dim != f.d:
        return [_na("arnoux-marin", _wrong_dimension(f))]
    return [_entry("arnoux-marin", f.n, arnoux_marin_min(kind, k))]


def homology_sphere(f: Facts) -> list:
    """Bagchi-Datta: a Z_2-homology sphere with 3 <= d <= 6 needs d + 9
    vertices; Brehm-Kuehnel: a Z-homology sphere with d >= 6 needs 2d + 3."""
    z, d = f.hints.is_homology_sphere, f.d
    if z == "Z2" and 3 <= d <= 6:
        return [_entry("bagchi-datta", f.n, d + 9)]
    if z == "Z" and d >= 6:
        return [_entry("bk-homology-sphere", f.n, _brehm_kuehnel_min(d, 1))]
    return [_na("bagchi-datta", "no homology-sphere hint in range")]


# ------------------------------------------------------------- aggregation

ROWS = (surface, brehm_kuehnel, kuehnel_4d, kuehnel_kalai, kuehnel_triangle,
        lbt, ubt, walkup, novik, arnoux_marin, homology_sphere)


def bound_report(C: Complex, hints: TopologyHints | None = None) -> BoundReport:
    """Evaluate every row of ``ROWS`` against a pseudomanifold; any other
    complex gets only the ``lbt`` row, which says it is not one."""
    f = Facts.of(C, hints or TopologyHints())
    report = BoundReport({"n": f.n, "d": f.d, "f": f.F.counts, "chi": f.chi,
                          "homology": str(f.H), "betti_f2": f.betti,
                          "pseudomanifold": f.pseudomanifold})
    for row in ROWS if f.pseudomanifold else (lbt,):
        report.entries += row(f)
    return report
